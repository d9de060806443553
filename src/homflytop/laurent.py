"""Exact sparse Laurent polynomials over arbitrary-precision integers.

Two flavours: one variable (h-vectors, parking enumerators, HOMFLY tops) and
two variables (full HOMFLY values).  Values are
canonical sparse maps exponent -> coefficient with no stored zeros, treated
as immutable, so equality is exact map equality and hashing is safe.
"""

from __future__ import annotations


def _exact_quotient(total: int, scale: int) -> int:
    """total / scale, which must be an integer; raises ZeroDivisionError
    when scale is 0."""
    quotient, rest = divmod(total, scale)
    if rest:
        raise ValueError("evaluation is not an integer")
    return quotient


def _clean(items):
    return {e: c for e, c in items if c != 0}


def _terms(text: str):
    """Split the text of a polynomial into (coefficient, [(name, power)]) terms.

    Terms are joined by `+` or `-`; each is a product, joined by `*`, of
    integers, bare names and powers `name^k`.
    """
    for chunk in text.strip().replace("- ", "+ -").split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        sign = 1
        if chunk.startswith("-"):
            sign, chunk = -1, chunk[1:].strip()
        coeff, powers = 1, []
        for p in (q.strip() for q in chunk.split("*")):
            if not p:
                continue
            if "^" in p:
                name, k = p.split("^")
                powers.append((name.strip(), int(k)))
            elif p.lstrip("-").isdigit():
                coeff *= int(p)
            else:
                powers.append((p, 1))
        yield sign * coeff, powers


class _Laurent:
    """The sparse-ring core shared by both flavours.

    A flavour sets ``_ONE`` (the exponent of the constant term) and
    ``_DEFAULT`` (its default variable names), and writes its own
    ``__mul__``, the skein's hot loop, and ``__str__``.  Values of different
    flavours never compare equal and never mix in arithmetic.
    """

    __slots__ = ("coeffs", "_names")

    def __init__(self, coeffs=None, names=None):
        object.__setattr__(self, "coeffs", _clean((coeffs or {}).items()))
        object.__setattr__(self, "_names", self._DEFAULT if names is None else names)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, names=None):
        return cls({}, names)

    @classmethod
    def const(cls, c: int, names=None):
        return cls({cls._ONE: c}, names)

    def _coerce(self, other):
        if isinstance(other, int):
            return self.const(other, self._names)
        if isinstance(other, type(self)):
            return other
        if isinstance(other, _Laurent):
            raise TypeError("cannot mix one- and two-variable Laurent polynomials")
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return type(self)(out, self._names)

    __radd__ = __add__

    def __neg__(self):
        return type(self)({e: -c for e, c in self.coeffs.items()}, self._names)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers of polynomials are not defined")
        result = self.const(1, self._names)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:  # no square past the top bit
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.const(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return str(self)


class Laurent1(_Laurent):
    """Laurent polynomial in one variable with integer coefficients.

    The variable name is display metadata only; equality compares the
    coefficient maps.
    """

    __slots__ = ()
    _ONE = 0
    _DEFAULT = "x"

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return Laurent1(out, self._names)

    __rmul__ = __mul__

    def degree(self):
        return max(self.coeffs) if self.coeffs else None

    def eval_int(self, x: int) -> int:
        """Exact evaluation at an integer.

        Negative exponents require x nonzero and only an integral total:
        the polynomial times x^(-least exponent) is evaluated in integers
        and divided back exactly.
        """
        low = min([0, *self.coeffs])
        total = sum(c * x ** (e - low) for e, c in self.coeffs.items())
        return _exact_quotient(total, x ** -low)

    def substitute_shifted(self, shift: int, var: str | None = None) -> "Laurent1":
        """Return f(x + shift), expanded exactly.

        Only defined for ordinary polynomials (no negative exponents).  A
        Taylor shift by repeated synthetic division (Horner's rule): pass i
        divides the coefficients at degrees i and up by (x - shift), leaving
        the remainder, the coefficient of x^i in f(x + shift), at degree i
        and the quotient above it.
        """
        if self.coeffs and min(self.coeffs) < 0:
            raise ValueError("argument shift requires nonnegative exponents")
        n = max(self.coeffs, default=0)
        a = [self.coeffs.get(e, 0) for e in range(n + 1)]  # by degree
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                a[j] += shift * a[j + 1]
        return Laurent1(dict(enumerate(a)), var if var is not None else self._names)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            parts.append(str(c) if e == 0 else f"{c}*{self._names}^{e}")
        return " + ".join(parts).replace("+ -", "- ")

    @classmethod
    def parse(cls, text: str, var: str | None = None) -> "Laurent1":
        """Inverse of str(); accepts terms `c`, `x^k` and `c*x^k`.

        The variable is ``var`` if given, else the first name in the text.
        """
        out: dict[int, int] = {}
        for coeff, powers in _terms(text):
            e = 0
            for name, k in powers:
                var = var or name
                e += k
            out[e] = out.get(e, 0) + coeff
        return cls(out, var)


class Laurent2(_Laurent):
    """Laurent polynomial in two variables (by default v and z)."""

    __slots__ = ()
    _ONE = (0, 0)
    _DEFAULT = ("v", "z")

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (a1, b1), c1 in self.coeffs.items():
            for (a2, b2), c2 in other.coeffs.items():
                e = (a1 + a2, b1 + b2)
                out[e] = out.get(e, 0) + c1 * c2
        return Laurent2(out, self._names)

    __rmul__ = __mul__

    def max_degree_second(self):
        """Largest exponent of the second variable (z); None for 0."""
        return max(b for _, b in self.coeffs) if self.coeffs else None

    def slice_second(self, k: int) -> Laurent1:
        """Coefficient of (second variable)^k, as a Laurent1 in the first."""
        return Laurent1(
            {a: c for (a, b), c in self.coeffs.items() if b == k}, self._names[0]
        )

    def set_first_one(self) -> Laurent1:
        """Substitute 1 for the first variable."""
        out: dict[int, int] = {}
        for (_, b), c in self.coeffs.items():
            out[b] = out.get(b, 0) + c
        return Laurent1(out, self._names[1])

    def eval_int(self, x: int, y: int) -> int:
        """Exact evaluation at integers, as ``Laurent1.eval_int``."""
        low_a = min([0] + [a for a, _ in self.coeffs])
        low_b = min([0] + [b for _, b in self.coeffs])
        total = sum(
            c * x ** (a - low_a) * y ** (b - low_b) for (a, b), c in self.coeffs.items()
        )
        return _exact_quotient(total, x ** -low_a * y ** -low_b)

    def __str__(self):
        if not self.coeffs:
            return "0"
        u, w = self._names
        parts = []
        for a, b in sorted(self.coeffs, key=lambda ab: (ab[1], ab[0])):
            c = self.coeffs[(a, b)]
            factors = [str(c)]
            if a != 0:
                factors.append(f"{u}^{a}")
            if b != 0:
                factors.append(f"{w}^{b}")
            parts.append("*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")

    @classmethod
    def parse(cls, text: str, vars: tuple[str, str] = ("v", "z")) -> "Laurent2":
        """Inverse of str(); names other than the two variables are rejected."""
        out: dict[tuple[int, int], int] = {}
        for coeff, powers in _terms(text):
            a = b = 0
            for name, k in powers:
                if name == vars[0]:
                    a += k
                elif name == vars[1]:
                    b += k
                else:
                    raise ValueError(f"unknown variable {name!r}")
            out[(a, b)] = out.get((a, b), 0) + coeff
        return cls(out, vars)


def conway_and_alexander(P: Laurent2):
    """Specialize a HOMFLY value to the Conway and Alexander polynomials.

    The Conway polynomial is P(1, z).  The Alexander polynomial is obtained
    by substituting z = t^(1/2) - t^(-1/2); it is computed over half-integer
    exponents of t.  For odd-component links the half-integer parts cancel
    and the result lives in Z[t, 1/t]; for even-component links it is
    honestly half-integer graded and returned in the variable t^(1/2) with
    the flag set.

    Returns (conway, alexander, half_integer_graded).

    Raises ValueError if the z-exponents of P mix parities, which cannot
    happen for the HOMFLY polynomial of a link.  Once they share one
    parity, so do the exponents of t^(1/2): c z^k expands only onto
    exponents of k's parity, and the flag is set when they are odd.
    """
    parities = {b % 2 for _, b in P.coeffs}
    if len(parities) > 1:
        raise ValueError("mixed z-exponent parity: not a valid HOMFLY value")
    conway = P.set_first_one()
    if min(conway.coeffs, default=0) < 0:
        raise ValueError("Conway polynomial has negative z-exponents")
    # z = w - 1/w with w = t^(1/2): c z^k = sum over j of c (-1)^j C(k, j) w^(k - 2j)
    terms: dict[int, int] = {}
    for k, c in conway.coeffs.items():
        for j in range(k + 1):
            terms[k - 2 * j] = terms.get(k - 2 * j, 0) + c
            c = -c * (k - j) // (j + 1)
    half = Laurent1(terms, "t^(1/2)")
    if {e % 2 for e in half.coeffs} == {1}:
        return conway, half, True
    alexander = Laurent1({e // 2: c for e, c in half.coeffs.items()}, "t")
    return conway, alexander, False
