"""Link diagrams from the median construction and a skein HOMFLY oracle.

Diagrams are stored strand-combinatorially: crossing c owns two passes,
2c and 2c+1, one per strand running through it, and ``succ`` maps each pass
to the next pass reached walking forward along the link.  ``over[c]`` tells
which of the two passes (by parity) is the over-strand, so switching a
crossing touches neither ``succ`` nor the pass labels.  Crossing-free
components are carried as a count of free loops.  Smoothing, switching,
Seifert circles and components are all permutation surgery; the oracle
never needs coordinates, and planarity is the responsibility of the
construction that produced the diagram.

The oracle resolves the first crossing that breaks descending order
(components in a fixed order, each walked from a basepoint) with the skein
relation P+ = v^2 P- + vz P0 and bottoms out on descending diagrams, which
are unlinks; a skein step is one pass that shifts exponents.  The memo
holds each connected piece's value under two keys: the piece itself,
looked up first, and its canonical code, computed only when the piece is
not a key.  ``LinkDiagram`` is an immutable value whose equality and hash
are over its four fields, so equal pieces have equal signs, strands and
over bits, and a code fixes its piece up to renumbering of the crossings;
for a diagram drawn in the plane the HOMFLY value depends on nothing else.
So the memo may be shared across planar diagrams (``homfly_skein(d,
memo=m)``): an entry made for one is correct for every other, and
``shared_memo()`` is one such memo for the whole process.  A non-planar
diagram is not: ``LinkDiagram((1,), (0, 1), (1,))`` and its relabelling
``LinkDiagram((1,), (0, 1), (0,))`` have one code but different values
under the recursion.  A code costs a pass that hashes its piece's profile,
which reads no labels, and walks the piece in full from a few start
passes only when the memo holds a code of the same hash.

Before it splits a diagram into pieces, the oracle removes every curl and
every reducible bigon (``LinkDiagram.unbigon``).  A curl is a crossing c
with succ[2c] == 2c+1 or succ[2c+1] == 2c, where leaving c on one strand
comes straight back to c on the other.  Removing it is smoothing c with
one fewer free loop.  The skein relation normalises the unknot to 1, so P
is an invariant of ambient isotopy (Freyd, Yetter, Hoste, Lickorish,
Millett and Ocneanu, Bull. AMS 1985), and at a positive curl P+ = v^2 P(D')
+ vz P(D') (1/v - v)/z = P(D'), the negative case being its mirror.  Every
curl qualifies: no strand crosses the loop, so on S^2 it bounds a disk that
holds nothing but split pieces, and the Reidemeister I move undoes it.

A reducible bigon is two crossings c1 != c2 joined by two arcs, parallel
or antiparallel, with the same strand over at both; a clasp, where the
over strand changes, is kept.  Every reducible bigon qualifies for the
Reidemeister II move.  The two arcs make a closed curve that no strand
crosses, and at each crossing the two free arms are neighbours, so they
lie on one side of it.  When the arms of c1 and c2 lie on the same side,
the other side holds nothing but split pieces, which move away; lifting
the over arc above everything then undoes the move.  Otherwise (only for
antiparallel arcs, as each side takes in as many strands as it sends out)
the curve cuts the link into a connected sum along the bigon's strand,
and the diagram without c1 and c2 presents the same sum.  Removing a curl
or a bigon splices its passes out of the strands, and a component left
with no pass becomes a free loop.  One removal can make another curl or
bigon, so removal goes on until none is left.

At a skein step the switched and the smoothed diagram take one path:
``switch`` or ``smooth``, then removal, then splitting.

Surgery on a valid diagram (switch, smooth, curl and bigon removal, and
split_parts, one search over the crossings along the arcs) builds its
result without validating it again; the last two renumber the crossings
they keep through one helper, ``_keep``.
"""

from __future__ import annotations

import json
from collections import namedtuple

from .laurent import Laurent1, Laurent2
from .planegraph import PlaneBipartiteGraph, InvariantError, _cycles
from .arborescence import ArbNode, _bit_positions
from .parking import leaf_enumerator


class CrossingCapExceeded(ValueError):
    """Input diagram exceeds the configured crossing cap of the oracle."""


DEFAULT_CAP = 14  # the oracle's crossing cap wherever no other is given
UNLINK_FACTOR = Laurent2({(-1, -1): 1, (1, -1): -1})  # (1/v - v)/z


class LinkDiagram(namedtuple("LinkDiagram", "signs succ over free_loops")):
    """Oriented link diagram as a pass permutation with crossing data: an
    immutable value, equal and hashed over its four fields."""

    __slots__ = ()

    def __new__(cls, signs: tuple[int, ...], succ: tuple[int, ...],
                over: tuple[int, ...], free_loops: int = 0):
        if len(succ) != 2 * len(signs) or len(over) != len(signs):
            raise ValueError("succ must list both passes of every crossing")
        if sorted(succ) != list(range(len(succ))):
            raise ValueError("succ is not a permutation of the passes")
        if any(s not in (1, -1) for s in signs):
            raise ValueError("crossing signs must be +1 or -1")
        if any(b not in (0, 1) for b in over):
            raise ValueError("over bits must be 0 or 1")
        return tuple.__new__(cls, (signs, succ, over, free_loops))

    @classmethod
    def _unchecked(cls, signs, succ, over, free_loops) -> "LinkDiagram":
        """Diagram made by surgery on a valid one, without validation."""
        return tuple.__new__(cls, (signs, succ, over, free_loops))

    # -- counting ---------------------------------------------------------

    @property
    def n_crossings(self) -> int:
        return len(self.signs)

    def writhe(self) -> int:
        return sum(self.signs)

    def over_pass(self, c: int) -> int:
        return 2 * c + self.over[c]

    def under_pass(self, c: int) -> int:
        return 2 * c + 1 - self.over[c]

    def components(self) -> list[list[int]]:
        """Link components as pass cycles (free loops not included)."""
        return _cycles(self.succ)

    def seifert_circle_count(self) -> int:
        """Circles left by the orientation-preserving smoothing of every crossing."""
        return len(_cycles([q ^ 1 for q in self.succ])) + self.free_loops

    # -- surgery ----------------------------------------------------------

    def switch(self, c: int) -> "LinkDiagram":
        """Swap over and under strands at crossing c, flipping its sign.

        The strands themselves (and hence the walk order) are untouched.
        """
        signs = self.signs[:c] + (-self.signs[c],) + self.signs[c + 1 :]
        over = self.over[:c] + (1 - self.over[c],) + self.over[c + 1 :]
        return LinkDiagram._unchecked(signs, self.succ, over, self.free_loops)

    def smooth(self, c: int) -> "LinkDiagram":
        """Orientation-preserving smoothing of crossing c.

        Each strand entering the crossing exits along the other strand;
        components closing up entirely inside the crossing become free
        loops.
        """
        u, o = 2 * c, 2 * c + 1
        su, so = self.succ[u], self.succ[o]
        free = self.free_loops
        if su == o and so == u:
            free += 2
        elif (su == u and so == o) or so == u or su == o:
            free += 1

        # a strand entering u leaves along o's exit and one entering o along
        # u's; an exit that leads back into the crossing is followed once
        # more.  Entries at u and o themselves are dropped.
        succ = list(self.succ)
        succ[succ.index(u)] = su if so == o else so
        succ[succ.index(o)] = so if su == u else su
        del succ[u : o + 1]
        succ = tuple(q - 2 if q > o else q for q in succ)
        signs = self.signs[:c] + self.signs[c + 1 :]
        over = self.over[:c] + self.over[c + 1 :]
        return LinkDiagram._unchecked(signs, succ, over, free)

    def unbigon(self) -> "LinkDiagram":
        """The diagram with every curl and every reducible bigon removed.

        A curl is a crossing c whose pass p (2c or 2c+1) leads straight to
        its partner p ^ 1.  A reducible bigon is two crossings c1 != c2
        joined by two arcs, p -> q and either p ^ 1 -> q ^ 1 (parallel) or
        q ^ 1 -> p ^ 1 (antiparallel), for a pass p of c1 and q of c2, with
        the same strand over at both: p is an over pass exactly when q is
        one.  A clasp, where the over strand changes, is kept.  Removing a
        curl is a Reidemeister I move and removing the pair one of type II;
        either can make another curl or bigon.  Each is spliced out of the
        strands, and a component left with no pass becomes a free loop.
        They go in the order of a rescan from pass 0: at each step the one
        found at the least pass p (a curl when p leads to p ^ 1, else a
        bigon p -> q) goes first, and the surviving crossings keep their
        order.  Returns the diagram itself when there is neither.
        """
        found = _starts(self.succ, self.over, range(len(self.succ)))
        if not found:
            return self
        succ, over = list(self.succ), self.over
        pred = [0] * len(succ)
        for p, q in enumerate(succ):
            pred[q] = p
        removed = [False] * len(over)
        free = self.free_loops
        # ``found`` holds every pass that starts one: a removal changes that
        # only where a check reads a spliced arc, so only there and at the
        # passes left are the checks made again
        while found:
            p = found[0]
            q = succ[p]
            passes = (p, q) if q == p ^ 1 else (p, p ^ 1, q, q ^ 1)
            for x in passes:
                removed[x >> 1] = True
                # a component made only of removed passes becomes a free
                # loop, counted at its least pass
                y = succ[x]
                while y in passes and y > x:
                    y = succ[y]
                free += y == x
            spliced = []
            for x in passes:
                before = pred[x]
                if not removed[before >> 1]:
                    after = succ[x]
                    while removed[after >> 1]:
                        after = succ[after]
                    succ[before] = after
                    pred[after] = before
                    spliced.append(before)
            near = [y for b in spliced for y in (b, b ^ 1, pred[b ^ 1])]
            found = _starts(
                succ, over, [x for x in found if not removed[x >> 1]] + near
            )
        return self._keep([c for c, gone in enumerate(removed) if not gone], succ, free)

    def _keep(self, crossings, succ, free_loops) -> "LinkDiagram":
        """The diagram on the listed crossings, numbered in list order; ``succ``
        leads each of their passes (numbered as here) to another of theirs."""
        label = [0] * len(succ)  # kept pass -> its pass after renumbering
        passes = []  # the kept passes in their new order
        for c in crossings:
            p = 2 * c
            label[p] = len(passes)
            label[p + 1] = len(passes) + 1
            passes += (p, p + 1)
        signs, over = self.signs, self.over
        return LinkDiagram._unchecked(
            tuple([signs[c] for c in crossings]),
            tuple([label[succ[p]] for p in passes]),
            tuple([over[c] for c in crossings]),
            free_loops,
        )

    # -- structure --------------------------------------------------------

    def split_parts(self) -> list["LinkDiagram"]:
        """Connected pieces of the crossing-interaction structure.

        A piece is a class of crossings under the relation joining the two
        crossings of each arc p -> succ[p], so each component lies in one
        piece and a crossing joins the components through it; one search
        over the crossings, along arcs forward, finds each.  Pieces come in
        order of their least crossing, each with its crossings in order.
        Free loops are dropped; the caller accounts for them.  The diagram
        itself is returned exactly when it is one piece with no free loops.
        """
        succ = self.succ
        piece = [-1] * len(self.signs)  # per crossing, the number of its piece
        groups: list[list[int]] = []
        for start in range(len(piece)):
            if piece[start] < 0:
                # arcs followed forward go round every component they meet
                piece[start] = len(groups)
                stack = [start]
                while stack:
                    c = stack.pop()
                    for q in (succ[2 * c], succ[2 * c + 1]):
                        if piece[q >> 1] < 0:
                            piece[q >> 1] = len(groups)
                            stack.append(q >> 1)
                groups.append([])
            groups[piece[start]].append(start)
        if len(groups) != 1:
            return [self._keep(crossings, succ, 0) for crossings in groups]
        if self.free_loops:
            return [LinkDiagram._unchecked(self.signs, succ, self.over, 0)]
        return [self]

    def first_bad_crossing(self) -> int | None:
        """First crossing reached on its under-strand in basepoint order.

        Components are walked in order of their minimal pass, each from that
        pass, as ``components`` lists them.  None means the diagram is
        descending, hence an unlink.
        """
        succ, over = self.succ, self.over
        walked = [False] * len(succ)
        met = [False] * len(over)
        for start in range(len(succ)):
            p = start
            while not walked[p]:
                walked[p] = True
                c = p >> 1
                if not met[c]:
                    if p & 1 != over[c]:  # not the over pass 2c + over[c]
                        return c
                    met[c] = True
                p = succ[p]
        return None

    def canonical_code(self) -> "CanonicalCode":
        """Relabeling-invariant code; defined for interaction-connected diagrams.

        A walk from a start pass numbers crossings in order of first visit
        and records (number, over bit) for each pass, then (-1, -1) when
        its component closes; it goes on from the unvisited pass of the
        lowest-numbered crossing that has one.  The crossing signs in
        number order follow.  The walk code is the least walk code over the
        start passes below, each walked in full; the returned code's
        ``walk`` gives it.

        A walk from an under pass opens with (0, 0) and one from an over
        pass with (0, 1), so only under passes are tried, and of those only
        the ones of least key.  Crossing c with under pass u has the key:
        the number of steps forward along the strand from u to the over
        pass u ^ 1 (2n when u ^ 1 lies on another component), then c's
        sign.  The key reads neither crossing numbers nor which pass is 2c,
        so the tried starts, and with them the code, are invariant under
        relabelling.  Any one walk code rebuilds its piece, so two pieces
        have equal codes exactly when they have equal least codes over all
        start passes: exactly when one is a relabelling of the other.

        This pass reads the keys only: the code hashes as the sorted
        component lengths and keys and walks when compared (``CanonicalCode``).
        A diagram that is not one piece with crossings raises InvariantError.
        """
        keys, lengths, joined = self._start_keys()
        if not joined:
            raise InvariantError("canonical code requires a connected diagram")
        return CanonicalCode(self, hash((tuple(sorted(lengths)), tuple(sorted(keys)))))

    def _start_keys(self):
        """Start keys (2 * steps, + 1 if positive), component lengths, and
        whether the crossings join the components (one piece)."""
        n = len(self.signs)
        succ, over, signs = self.succ, self.over, self.signs
        # each pass's component and its position there, from the least pass
        component = [-1] * (2 * n)
        position = [0] * (2 * n)
        lengths = []
        for start in range(2 * n):
            if component[start] < 0:
                k = len(lengths)
                i = 0
                p = start
                while component[p] < 0:
                    component[p] = k
                    position[p] = i
                    i += 1
                    p = succ[p]
                lengths.append(i)
        keys = []
        joined = list(range(len(lengths)))  # per component, its class so far
        for c, b in enumerate(over):
            o = 2 * c + b
            k, j = component[o ^ 1], component[o]
            if k == j:
                steps = (position[o] - position[o ^ 1]) % lengths[k]
            else:
                steps = 2 * n
                if joined[k] != joined[j]:
                    joined = [joined[k] if x == joined[j] else x for x in joined]
            keys.append(2 * steps + (signs[c] > 0))
        return keys, lengths, len(set(joined)) == 1

    def _walk_code(self, start: int):
        """Walk code in full from ``start``: (entries, signs in number order).

        An entry is 2 * number + over bit, or -1 where a component closes;
        the integers order the same way as the (number, bit) pairs.
        """
        succ, over = self.succ, self.over
        number = [-1] * len(over)
        order: list[int] = []  # the crossings by number
        visited = [False] * len(succ)
        entries: list[int] = []
        next_crossing = 0  # order[:next_crossing] have both passes visited
        p = start
        while True:
            while not visited[p]:
                visited[p] = True
                c = p >> 1
                k = number[c]
                if k < 0:
                    k = number[c] = len(order)
                    order.append(c)
                entries.append(2 * k + (p & 1 == over[c]))
                p = succ[p]
            entries.append(-1)
            while next_crossing < len(order):
                c = order[next_crossing]
                p = 2 * c + visited[2 * c]  # 2c unless already walked
                if not visited[p]:
                    break
                next_crossing += 1
            else:
                return tuple(entries), tuple(map(self.signs.__getitem__, order))

    # -- PD interchange -----------------------------------------------------

    def pd_code(self) -> dict:
        """Arc-label 4-tuples per crossing plus the orientation (sign) list.

        Tuple order: incoming under arc first, then counterclockwise; for a
        positive crossing the over strand runs from slot 4 to slot 2, for a
        negative one from slot 2 to slot 4.
        """
        # components are walked from their least passes, in order of those
        passes = [p for comp in self.components() for p in comp]
        out_arc, in_arc = [0] * len(passes), [0] * len(passes)
        for label, p in enumerate(passes, 1):
            out_arc[p] = in_arc[self.succ[p]] = label
        tuples = []
        for c, (sign, top) in enumerate(zip(self.signs, self.over)):
            u, o = 2 * c + 1 - top, 2 * c + top
            if sign > 0:
                tuples.append([in_arc[u], out_arc[o], out_arc[u], in_arc[o]])
            else:
                tuples.append([in_arc[u], in_arc[o], out_arc[u], out_arc[o]])
        return {
            "crossings": tuples,
            "signs": list(self.signs),
            "free_loops": self.free_loops,
        }

    @classmethod
    def from_pd(cls, document) -> "LinkDiagram":
        """Rebuild a diagram from the pd_code() format (dict or JSON text).

        The imported diagram uses pass 2c for the under strand of crossing
        c (over bit 1 throughout), so it may differ from the exported one
        in crossing numbers and in which pass of a crossing is 2c.  The
        canonical code reads neither, so compare the two by their codes.
        """
        if isinstance(document, (str, bytes)):
            document = json.loads(document)
        tuples = document["crossings"]
        signs = document["signs"]
        if len(tuples) != len(signs):
            raise ValueError("crossing tuples and sign list disagree in length")
        in_of: dict[int, int] = {}
        out_of: dict[int, int] = {}
        for c, (quad, sign) in enumerate(zip(tuples, signs)):
            a, b, cc, d = quad
            u, o = 2 * c, 2 * c + 1
            over_in, over_out = (d, b) if sign > 0 else (b, d)
            for arc, p in ((a, u), (over_in, o)):
                if arc in in_of:
                    raise ValueError(f"arc {arc} enters two passes")
                in_of[arc] = p
            for arc, p in ((cc, u), (over_out, o)):
                if arc in out_of:
                    raise ValueError(f"arc {arc} leaves two passes")
                out_of[arc] = p
        if set(in_of) != set(out_of):
            raise ValueError("arc labels do not match up")
        succ = [0] * (2 * len(signs))
        for arc, p in out_of.items():
            succ[p] = in_of[arc]
        return cls(
            tuple(signs),
            tuple(succ),
            tuple(1 for _ in signs),
            int(document.get("free_loops", 0)),
        )


def _starts(succ, over, passes) -> list[int]:
    """Those of the passes, least first and once each, that start a curl
    (p leads to p ^ 1) or a reducible bigon: the arc from p leads to another
    crossing, which the arc from p ^ 1 reaches too (parallel) or from which
    an arc leads back to p ^ 1 (antiparallel), and the same strand is over
    at both crossings."""
    return sorted(
        {
            p
            for p in passes
            if (q := succ[p]) == p ^ 1
            or q >> 1 != p >> 1
            and (succ[p ^ 1] == q ^ 1 or succ[q ^ 1] == p ^ 1)
            and not (p ^ q ^ over[p >> 1] ^ over[q >> 1]) & 1
        }
    )


class CanonicalCode:
    """A piece's canonical code: it hashes as the piece's profile, equals a
    code of equal walk code, and walks when first compared with a code of
    the same hash, so relabelled pieces, whose profiles agree, find it."""

    __slots__ = ("piece", "_hash", "_walk")

    def __init__(self, piece: LinkDiagram, profile_hash: int):
        self.piece, self._hash, self._walk = piece, profile_hash, None

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if type(other) is not CanonicalCode:
            return NotImplemented
        return self._hash == other._hash and self._least() == other._least()

    def _least(self):
        """The walk code as (entries, signs in number order), made once."""
        if self._walk is None:
            d = self.piece
            keys = d._start_keys()[0]
            least = min(keys)
            self._walk = min(
                d._walk_code(d.under_pass(c)) for c, k in enumerate(keys) if k == least
            )
        return self._walk

    @property
    def walk(self) -> tuple:
        """The walk code: its (number, over bit) pairs, then its signs."""
        entries, signs = self._least()
        return tuple((e >> 1, e & 1) if e >= 0 else (-1, -1) for e in entries), signs


# -- median construction -----------------------------------------------------


class DecoratedSubgraph(namedtuple("DecoratedSubgraph", "present dotted")):
    """Spanning subgraph with a dotted subset, as produced by tree nodes:
    both are int edge masks."""

    __slots__ = ()

    def __new__(cls, present: int, dotted: int):
        if dotted & ~present:
            raise ValueError("dotted edges must be present")
        return tuple.__new__(cls, (present, dotted))


def decorated_subgraph_at(g: PlaneBipartiteGraph, node: ArbNode) -> DecoratedSubgraph:
    """Subgraph of G at a tree node: duals of the non-arborescence edges,
    with the skipped edges dotted."""
    return DecoratedSubgraph(((1 << g.n_edges) - 1) ^ node.a, node.s)


def median_diagram(
    g: PlaneBipartiteGraph, subgraph: DecoratedSubgraph | None = None
) -> LinkDiagram:
    """Link diagram of the median construction on a decorated subgraph.

    One crossing per present edge (positive when solid, negative when
    dotted) and one Seifert circle per vertex; vertices missing from the
    subgraph contribute crossing-free unknot components.  Seifert circles
    run counterclockwise around E-vertices and clockwise around V-vertices;
    each strand crosses from one circle to the other, and for the full
    solid graph the result is the positive special alternating diagram.

    Crossings are numbered by ascending present edge id; pass 2i runs from
    the E-circle to the V-circle and is the over strand of a solid edge.
    """
    if subgraph is None:  # crossing i is edge i, so a ring is a rotation
        present, dotted, index = range(g.n_edges), 0, None
    else:
        present, dotted = _bit_positions(subgraph.present), subgraph.dotted
        index = {c: i for i, c in enumerate(present)}

    # walking each circle once, the pass leaving along it at crossing i leads
    # to the pass entering along it at the next crossing j: 2i + 1 -> 2j on
    # an E-circle and 2i -> 2j + 1 on a V-circle
    succ = [0] * (2 * len(present))
    free, k = 0, len(g.e_vertices)
    for x, rot in enumerate(g.rotations):
        step, leaving = (1, 1) if x < k else (-1, 0)
        ring = rot[::step] if index is None else [
            index[c] for c in rot[::step] if c in index
        ]
        if not ring:
            free += 1
        for i, j in zip(ring, ring[1:] + ring[:1]):
            succ[2 * i + leaving] = 2 * j + 1 - leaving
    signs = tuple(-1 if dotted >> c & 1 else 1 for c in present)
    over = tuple(dotted >> c & 1 for c in present)
    return LinkDiagram(signs, tuple(succ), over, free)


# -- the skein oracle ---------------------------------------------------------


def homfly_skein(
    d: LinkDiagram, cap: int = DEFAULT_CAP, memo: dict | None = None
) -> Laurent2:
    """HOMFLY polynomial of the link presented by the diagram.

    Descending-diagram recursion: P+ = v^2 P- + vz P0 applied at the first
    crossing violating descending order, with unlinks as the base case.
    Every diagram of the recursion first has its curls and reducible
    bigons removed (see ``LinkDiagram.unbigon`` and the module docstring):
    Reidemeister I and II moves, which leave P as it is.  Raises
    CrossingCapExceeded when the input diagram has more than ``cap``
    crossings, curls and bigons included.

    ``memo`` maps connected pieces, curls and reducible bigons removed,
    and their canonical codes to their values; the code is computed only
    for a piece that is not yet a key, and walked only when its hash is
    one of the memo's.  Pass one dict, such as ``shared_memo()``, to
    several calls to share it across planar diagrams (default: a fresh
    dict; a non-planar diagram needs its own).  Every run is audited
    against the degree bound maxdeg_z <= n - s + 1; a violation would mean
    the computation is broken.
    """
    if d.n_crossings > cap:
        raise CrossingCapExceeded(
            f"{d.n_crossings} crossings exceeds the cap of {cap}"
        )
    value = _homfly(d.unbigon(), {} if memo is None else memo)
    maxdeg = value.max_degree_second()
    bound = d.n_crossings - d.seifert_circle_count() + 1
    if maxdeg is not None and maxdeg > bound:
        raise InvariantError(
            f"z-degree {maxdeg} exceeds the bound {bound} on an oracle run"
        )
    return value


# entries; the oracle run on the full 4x5 grid makes 8,579, 10.3 MB in all
_SHARED_MEMO_BOUND = 2**14
_SHARED_MEMO: dict = {}


def shared_memo() -> dict:
    """The process's skein memo, for diagrams drawn in the plane only; it
    is emptied only here, when it holds too many entries, never mid-run."""
    if len(_SHARED_MEMO) > _SHARED_MEMO_BOUND:
        _SHARED_MEMO.clear()
    return _SHARED_MEMO


def _homfly(d: LinkDiagram, memo) -> Laurent2:
    """Value of a diagram with no curl and no reducible bigon."""
    free = d.free_loops
    if d.n_crossings == 0:
        return UNLINK_FACTOR ** (free - 1) if free else Laurent2.const(1)
    parts = d.split_parts()  # without the free loops
    if parts == [d]:
        return _homfly_connected(d, memo)
    result = UNLINK_FACTOR ** (len(parts) + free - 1)
    for part in parts:
        result = result * _homfly_connected(part, memo)
    return result


def _homfly_connected(d: LinkDiagram, memo) -> Laurent2:
    """Value of a connected piece with no curl, no reducible bigon and no
    free loop."""
    value = memo.get(d)
    if value is not None:
        return value
    # not seen with these labels: look for a relabelled copy
    code = d.canonical_code()
    value = memo.get(code)
    if value is None:
        bad = d.first_bad_crossing()
        if bad is None:
            value = UNLINK_FACTOR ** (len(d.components()) - 1)
        else:
            switched = _homfly(d.switch(bad).unbigon(), memo)
            smoothed = _homfly(d.smooth(bad).unbigon(), memo)
            value = _skein_step(d.signs[bad], switched, smoothed)
        memo[code] = value
    memo[d] = value
    return value


def _skein_step(sign: int, switched: Laurent2, smoothed: Laurent2) -> Laurent2:
    """v^2 P- + vz P0 at a positive crossing, v^-2 P+ - v^-1 z P0 at a
    negative one, with P-/P+ the switched and P0 the smoothed value.

    Each product is by a monomial, so it is a shift of exponents: one pass
    over each operand's terms.
    """
    out = {(a + 2 * sign, b): c for (a, b), c in switched.coeffs.items()}
    for (a, b), c in smoothed.coeffs.items():
        e = (a + sign, b + 1)
        out[e] = out.get(e, 0) + sign * c
    return Laurent2(out)


# -- tops ---------------------------------------------------------------------


class TopPolynomial(namedtuple("TopPolynomial", "poly z_exponent")):
    """Coefficient of z^(n - s + 1) in a HOMFLY value, as a polynomial in v."""

    __slots__ = ()


def top_coefficient(P: Laurent2, n: int, s: int) -> TopPolynomial:
    """Extract the z^(n - s + 1) slice of a HOMFLY value."""
    k = n - s + 1
    return TopPolynomial(Laurent1(P.slice_second(k).coeffs, "v"), k)


def top_via_tree(leaves, n: int, s: int) -> TopPolynomial:
    """Each type-I leaf (see ``leaf_enumerator``) with k skipped edges
    contributes v^(n - s + 1 + 2k)."""
    return top_via_p(leaf_enumerator(leaves), n, s)


def top_via_h(h: Laurent1, n: int, s: int) -> TopPolynomial:
    """v^(n + s - 1) * h(1/v^2)."""
    out = {n + s - 1 - 2 * e: c for e, c in h.coeffs.items()}
    return TopPolynomial(Laurent1(out, "v"), n - s + 1)


def top_via_p(p: Laurent1, n: int, s: int) -> TopPolynomial:
    """v^(n - s + 1) * p(v^2)."""
    out = {n - s + 1 + 2 * e: c for e, c in p.coeffs.items()}
    return TopPolynomial(Laurent1(out, "v"), n - s + 1)


def homogeneous_top(blocks, enumerators) -> Laurent1:
    """Top of a homogeneous link: the product of its blocks' tops.

    A homogeneous diagram is a Murasugi sum of its sign-homogeneous blocks
    (Cromwell 1989), and the tops multiply.  ``blocks`` are the SignedBlocks
    of ``biconnected_blocks`` and ``enumerators`` their type-I leaf
    enumerators, equal to their dual parking ones, in block order.  A
    positive block with n edges and s vertices gives ``top_via_p(p, n, s)``;
    a negative block gives the mirror image of that, v -> -1/v.
    """
    if len(enumerators) != len(blocks):
        raise ValueError("one enumerator per block is required")
    result = Laurent1.const(1, "v")
    for block, p in zip(blocks, enumerators):
        top = top_via_p(p, len(block.edge_ids), len(block.vertices)).poly
        if block.sign < 0:
            top = Laurent1({-e: (-1) ** e * c for e, c in top.coeffs.items()}, "v")
        result = result * top
    return result


# -- Morton bound auditing -----------------------------------------------------


def morton_audit(
    d: LinkDiagram, cap: int = DEFAULT_CAP, memo: dict | None = None
) -> int | None:
    """Check the z-degree of the diagram's HOMFLY value against n - s - 1.

    ``homfly_skein`` itself raises past Morton's bound n - s + 1; diagrams
    with an alternating contour, e.g. medians of type-II leaves, obey the
    sharper n - s - 1 checked here.  A violated bound means the
    implementation is broken, not the theorem.  Returns the z-degree, None
    for 0.  ``memo`` is passed on to ``homfly_skein``.
    """
    maxdeg = homfly_skein(d, cap=cap, memo=memo).max_degree_second()
    n = d.n_crossings
    s = d.seifert_circle_count()
    if maxdeg is not None and maxdeg > n - s - 1:
        raise InvariantError(
            f"Morton bound violated: maxdeg_z={maxdeg}, n={n}, s={s}, strict=True"
        )
    return maxdeg


def _certificate_ends(g: PlaneBipartiteGraph) -> list[int]:
    """Per edge the XOR of its ends' vertex ids, which index ``g.rotations``."""
    return [e ^ v for e, v in g.ends]


def strict_bound_certified(g: PlaneBipartiteGraph, sub: DecoratedSubgraph) -> bool:
    """Whether Reidemeister I and II moves on the signed plane graph prove
    ``morton_audit``'s bound for ``median_diagram(g, sub)``; False: undecided.
    The median's regions are the present edges' vertices and faces, its
    crossings and Seifert circles their edges and vertices.  So a pendant
    vertex is a curl, and goes with its edge (n - 1, s - 1); a degree-2 vertex
    or a 2-face is a bigon, reducible when its edges have opposite signs, as
    the median is alternating when all are solid.  A degree-2 vertex x with
    c1 -> y1, c2 -> y2 goes, and y2 merges into y1, whose rotation runs from
    after c1 round to before c1, then through y2's from after c2 round to
    before c2 (n - 2, s - 2).  If y1 == y2, or at a 2-face x-y with c2 after
    c1 at x and c1 after c2 at y, the move keeps s: n' - s' <= n - s - 2.  P
    is an isotopy invariant, so Morton's bound n' - s' + 1 on the reduced
    median ("Seifert circles and knot polynomials", 1986) proves n - s - 1.
    """
    present, dotted = sub.present, sub.dotted
    ends = g.table(_certificate_ends)[:]  # edge c: x -> ends[c] ^ x
    rot = [[c for c in r if present >> c & 1] for r in g.rotations]
    todo = list(range(len(rot)))
    while todo:
        x = todo.pop()
        r = rot[x]
        if len(r) == 1:
            rot[x] = ()
            rot[ends[r[0]] ^ x].remove(r[0])
            todo.append(ends[r[0]] ^ x)
        elif len(r) == 2 and (dotted >> r[0] ^ dotted >> r[1]) & 1:
            (c1, c2), y1, y2 = r, ends[r[0]] ^ x, ends[r[1]] ^ x
            if y1 == y2:
                return True
            i, j = rot[y1].index(c1), rot[y2].index(c2)
            rot[y1] = rot[y1][i + 1 :] + rot[y1][:i] + rot[y2][j + 1 :] + rot[y2][:j]
            for c in rot[y2]:
                ends[c] ^= y1 ^ y2
            rot[x] = rot[y2] = ()
            todo.append(y1)
        else:  # a 2-face: c2 after c1 at x, both to y, and c1 after c2 at y
            for c1, c2 in zip(r, r[1:] + r[:1]):
                if (dotted >> c1 ^ dotted >> c2) & 1 and ends[c1] == ends[c2]:
                    ry = rot[ends[c1] ^ x]
                    if (ry * 2)[ry.index(c2) + 1] == c1:
                        return True
    return False
