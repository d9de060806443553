from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from homflytop.homfly import homfly_skein, median_diagram
from homflytop.laurent import Laurent1, Laurent2, conway_and_alexander

from crosschecks import reference_conway_and_alexander


def L1(coeffs, var="x"):
    return Laurent1(coeffs, var)


def L2(coeffs):
    return Laurent2(coeffs)


laurent1s = st.builds(
    Laurent1,
    st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=6),
)
laurent2s = st.builds(
    Laurent2,
    st.dictionaries(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
        st.integers(-9, 9),
        max_size=6,
    ),
)


# values whose z-exponents share one parity, negative ones included
one_parity_laurent2s = st.builds(
    lambda parity, coeffs: Laurent2(
        {(a, 2 * b + parity): c for (a, b), c in coeffs.items()}
    ),
    st.integers(0, 1),
    st.dictionaries(
        st.tuples(st.integers(-4, 4), st.integers(-2, 3)),
        st.integers(-9, 9),
        max_size=6,
    ),
)


def specialized(f, P):
    """The text of f(P)'s three values, or the message of its ValueError."""
    try:
        return tuple(map(str, f(P)))
    except ValueError as exc:
        return str(exc)


class TestArithmetic:
    def test_monomial_product(self):
        vz = L2({(1, 1): 1})
        assert vz * vz == L2({(2, 2): 1})

    def test_unlink_factor_square(self):
        delta = L2({(-1, -1): 1, (1, -1): -1})
        assert delta * delta == L2({(-2, -2): 1, (0, -2): -2, (2, -2): 1})

    def test_left_step_summand(self):
        # 2 v^5 z * (1/v 1/z - v 1/z) collapses to a pure v-polynomial
        delta = L2({(-1, -1): 1, (1, -1): -1})
        assert L2({(5, 1): 2}) * delta == L2({(4, 0): 2, (6, 0): -2})

    def test_zero_coefficients_dropped(self):
        assert L1({3: 0, 1: 2}).coeffs == {1: 2}
        assert not L1({1: 1}) - L1({1: 1})

    def test_int_coercion(self):
        assert L1({1: 2}) + 1 == L1({0: 1, 1: 2})
        assert 3 * L1({2: 1}) == L1({2: 3})
        assert L1({0: 1}) == 1

    def test_mixed_arity_rejected(self):
        with pytest.raises(TypeError):
            L1({1: 1}) + L2({(1, 0): 1})
        with pytest.raises(TypeError):
            L2({(1, 0): 1}) * L1({1: 1})
        with pytest.raises(TypeError):
            L2({(1, 0): 1}) - L1({1: 1})
        assert Laurent1.zero() != Laurent2.zero()
        assert Laurent1.const(3) != Laurent2.const(3)

    def test_equal_values_hash_equal(self):
        assert hash(L1({1: 1}) * 2) == hash(L1({1: 2, 0: 0}, "u"))
        assert hash(L2({(1, 1): 1}) + L2({(1, 1): 1})) == hash(L2({(1, 1): 2}))
        assert len({L1({2: 1}), L1({2: 1}, "y"), L1({1: 1}) ** 2}) == 1

    @pytest.mark.parametrize("p", [L1({1: 1}), L2({(1, 0): 1})])
    def test_immutable(self, p):
        with pytest.raises(AttributeError):
            p.coeffs = {}

    def test_power(self):
        assert L1({1: 1, 0: 1}) ** 2 == L1({2: 1, 1: 2, 0: 1})
        with pytest.raises(ValueError):
            L1({1: 1}) ** -1

    def test_power_squares_no_further_than_the_top_bit(self, monkeypatch):
        x = L2({(-1, -1): 1, (1, -1): -1})
        powers = [L2({(0, 0): 1})]
        for _ in range(16):
            powers.append(powers[-1] * x)
        mul = Laurent2.__mul__
        calls = []

        def counted(a, b):
            calls.append(b)
            return mul(a, b)

        monkeypatch.setattr(Laurent2, "__mul__", counted)
        for k in range(1, 17):
            calls.clear()
            assert x ** k == powers[k]
            # one square per bit below the top, one product per set bit
            assert len(calls) == k.bit_length() - 1 + k.bit_count()

    @given(laurent1s, laurent1s, laurent1s)
    def test_ring_axioms_one_variable(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @given(laurent2s, laurent2s, laurent2s)
    def test_ring_axioms_two_variables(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(laurent1s, st.integers(-3, 3).filter(lambda x: x != 0), st.integers(1, 4))
    def test_evaluation_is_ring_map(self, a, x, k):
        a = Laurent1({e: c for e, c in a.coeffs.items() if e >= 0})
        assert (a * a).eval_int(x) == a.eval_int(x) ** 2
        assert (a + k).eval_int(x) == a.eval_int(x) + k

    def test_evaluation_at_units_handles_negative_exponents(self):
        p = L1({-2: 3, 1: 4})
        assert p.eval_int(1) == 7
        assert p.eval_int(-1) == -1

    def test_non_integral_evaluation_rejected(self):
        with pytest.raises(ValueError):
            L1({-1: 1}).eval_int(2)

    def test_integral_total_with_fractional_terms(self):
        assert L1({-1: 1, -2: 2}).eval_int(2) == 1
        assert L2({(-1, 0): 1, (-2, 0): 2}).eval_int(2, 5) == 1
        with pytest.raises(ValueError):
            L2({(-1, -1): 1, (1, -1): -1}).eval_int(2, 3)


def fraction_eval(terms):
    """The value of (coefficient, [(base, exponent)]) terms over the
    rationals: an int, or the exception type that integer evaluation
    must raise."""
    try:
        total = sum((c * _power_product(bases) for c, bases in terms), Fraction(0))
    except ZeroDivisionError:
        return ZeroDivisionError
    return int(total) if total.denominator == 1 else ValueError


def _power_product(bases):
    out = Fraction(1)
    for x, e in bases:
        out *= Fraction(x) ** e
    return out


def int_eval(evaluate):
    try:
        return evaluate()
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


class TestEvaluationMatchesFractions:
    @given(laurent1s, st.integers(-4, 4))
    def test_one_variable(self, a, x):
        expected = fraction_eval([(c, [(x, e)]) for e, c in a.coeffs.items()])
        assert int_eval(lambda: a.eval_int(x)) == expected

    @given(laurent2s, st.integers(-3, 3), st.integers(-3, 3))
    def test_two_variables(self, a, x, y):
        expected = fraction_eval(
            [(c, [(x, e), (y, f)]) for (e, f), c in a.coeffs.items()]
        )
        assert int_eval(lambda: a.eval_int(x, y)) == expected

    def test_divisible_totals_of_fractional_terms(self):
        # terms over 2 and 4 whose sum is whole, at a negative base too
        assert L1({-1: 2, -2: 4, 3: 1}).eval_int(-2) == -1 - 8 + 1
        assert L2({(-2, 1): 4, (0, -1): 3}).eval_int(2, 3) == 3 + 1


class TestSubstitutions:
    def test_shift_examples(self):
        f = L1({4: 1, 3: 6, 2: 12, 1: 10, 0: 3}, "y")
        assert f.substitute_shifted(-1, "x") == L1({4: 1, 3: 2}, "x")
        assert L1({1: 1, 0: 1}).substitute_shifted(-1) == L1({1: 1})
        assert L1({1: 1}).substitute_shifted(-1) == L1({1: 1, 0: -1})

    def test_shift_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            L1({-1: 1}).substitute_shifted(-1)

    @given(laurent1s, st.integers(-3, 3), st.integers(-2, 2))
    def test_shift_agrees_with_evaluation(self, a, x, shift):
        a = Laurent1({e: c for e, c in a.coeffs.items() if e >= 0})
        assert a.substitute_shifted(shift).eval_int(x) == a.eval_int(x + shift)


class TestTextRoundTrip:
    cases_1 = [
        L1({}),
        L1({0: 3}),
        L1({4: 1, 3: 2}),
        L1({-2: -1, 0: 5, 3: -7}),
        L1({-1: 2, 3: -1}, "u"),
    ]
    cases_2 = [
        L2({}),
        L2({(0, 0): -2}),
        L2({(2, 2): 1, (4, 2): 2, (4, 0): 3, (6, 0): -3}),
        L2({(-1, -1): 1, (1, -1): -1}),
    ]

    @pytest.mark.parametrize("p", cases_1)
    def test_one_variable(self, p):
        q = Laurent1.parse(str(p))
        assert q == p and str(q) == str(p)

    @pytest.mark.parametrize("p", cases_2)
    def test_two_variables(self, p):
        assert Laurent2.parse(str(p)) == p

    def test_expected_shape(self):
        p = L2({(6, -2): -1, (4, 2): 2})
        assert str(p) == "-1*v^6*z^-2 + 2*v^4*z^2"


class TestConwayAlexander:
    def test_three_component_value(self):
        P = L2(
            {(2, 2): 1, (4, 2): 2, (4, 0): 3, (6, 0): -3,
             (4, -2): 1, (6, -2): -2, (8, -2): 1}
        )
        conway, alexander, half = conway_and_alexander(P)
        assert conway == L1({2: 3}, "z")
        assert alexander == L1({1: 3, 0: -6, -1: 3}, "t")
        assert not half

    def test_unknot(self):
        conway, alexander, half = conway_and_alexander(L2({(0, 0): 1}))
        assert conway == 1 and alexander == 1 and not half

    def test_two_component_value_is_half_integer_graded(self):
        P = L2({(1, 1): 1, (1, -1): 1, (3, -1): -1})
        conway, alexander, half = conway_and_alexander(P)
        assert conway == L1({1: 1}, "z")
        assert half
        assert alexander == L1({1: 1, -1: -1})

    def test_split_link_has_zero_conway(self):
        delta = L2({(-1, -1): 1, (1, -1): -1})
        conway, alexander, half = conway_and_alexander(delta)
        assert not conway and not alexander and not half

    def test_mixed_parity_rejected(self):
        with pytest.raises(ValueError):
            conway_and_alexander(L2({(0, 0): 1, (0, 1): 1}))


class TestConwayAlexanderAgainstHorner:
    """The binomial expansion against the Horner-rule reference, values and
    variable names alike.  The reference's residual half-integer error
    cannot be reached once the parity check has passed, as every term of
    c z^k lands on an exponent of k's parity, so only the parity and
    negative-exponent errors are compared."""

    def test_median_values(self, graph_corpus, grid_subgraphs):
        memo = {}
        for g in graph_corpus + grid_subgraphs:
            P = homfly_skein(median_diagram(g), cap=17, memo=memo)
            assert specialized(conway_and_alexander, P) == specialized(
                reference_conway_and_alexander, P
            )

    @given(one_parity_laurent2s | laurent2s)
    def test_arbitrary_values(self, P):
        assert specialized(conway_and_alexander, P) == specialized(
            reference_conway_and_alexander, P
        )

    @pytest.mark.parametrize(
        "P, message",
        [
            (L2({(0, 0): 1, (0, 1): 1}), "mixed z-exponent parity"),
            (L2({(1, -2): 1, (0, 2): 3}), "negative z-exponents"),
        ],
        ids=["mixed-parity", "negative-exponent"],
    )
    def test_errors(self, P, message):
        assert message in specialized(conway_and_alexander, P)
        assert specialized(conway_and_alexander, P) == specialized(
            reference_conway_and_alexander, P
        )
