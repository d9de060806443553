import random
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from homflytop import homfly
from homflytop.planegraph import InvariantError, PlaneBipartiteGraph, build_dual
from homflytop.arborescence import build_arb_tree
from homflytop.laurent import Laurent1, Laurent2, conway_and_alexander
from homflytop.parking import parking_for_dual
from homflytop.rootpolytope import (
    triangulation_from_arbtree,
    f_vector,
    h_from_f,
)
from homflytop.homfly import (
    LinkDiagram,
    CanonicalCode,
    DecoratedSubgraph,
    CrossingCapExceeded,
    decorated_subgraph_at,
    median_diagram,
    homfly_skein,
    top_coefficient,
    top_via_tree,
    top_via_h,
    top_via_p,
    homogeneous_top,
    morton_audit,
    shared_memo,
    strict_bound_certified,
    UNLINK_FACTOR,
)
from homflytop.gen import corpus
from homflytop.planegraph import biconnected_blocks, block_subgraph
from homflytop.fixtures import (
    single_edge,
    bigon,
    theta,
    k32_three_strand,
    block_sum_of_bigons,
    block_sum_bigon_theta,
)

from crosschecks import component_count, mirror_first, relabel


def triangulate(tree):
    """The triangulation of a full tree's type-I leaves, as ``verify`` makes it."""
    return triangulation_from_arbtree(tree.dual, tree.type_one_leaves())


HOPF = Laurent2({(1, 1): 1, (1, -1): 1, (3, -1): -1})
TREFOIL = Laurent2({(2, 2): 1, (2, 0): 2, (4, 0): -1})
K32_HOMFLY = Laurent2(
    {(2, 2): 1, (4, 2): 2, (4, 0): 3, (6, 0): -3, (4, -2): 1, (6, -2): -2, (8, -2): 1}
)


def _reference_code_from(d: LinkDiagram, start: int):
    """Walk code from one start pass, built in full (reference for canonical_code)."""
    number: dict[int, int] = {}
    seq: list[tuple[int, int]] = []
    visited: set[int] = set()
    pending = start
    while pending is not None:
        p = pending
        while p not in visited:
            visited.add(p)
            c = p // 2
            if c not in number:
                number[c] = len(number)
            seq.append((number[c], 1 if p == d.over_pass(c) else 0))
            p = d.succ[p]
        seq.append((-1, -1))
        pending = None
        # next component: partner pass of the lowest-numbered crossing
        # whose other pass is unvisited
        best_crossing = None
        for c, idx in number.items():
            for q in (2 * c, 2 * c + 1):
                if q not in visited and (
                    best_crossing is None or idx < best_crossing[0]
                ):
                    best_crossing = (idx, q)
        if best_crossing is not None:
            pending = best_crossing[1]
    if len(visited) != len(d.succ):
        raise InvariantError("canonical code requires a connected diagram")
    signs = tuple(
        s for _, s in sorted((number[c], d.signs[c]) for c in range(d.n_crossings))
    )
    return (tuple(seq), signs)


def start_key(d: LinkDiagram, c: int, components):
    """Crossing c's start key: the steps along the strand from its under pass
    to its over pass (2n when they lie on different components), then its
    sign; ``components`` are d's components."""
    u, o = d.under_pass(c), d.over_pass(c)
    (component,) = [comp for comp in components if u in comp]
    if o in component:
        steps = (component.index(o) - component.index(u)) % len(component)
    else:
        steps = 2 * d.n_crossings
    return (steps, d.signs[c])


def reference_code(d: LinkDiagram):
    """The least walk code over the under passes of least start key."""
    components = d.components()
    keys = [start_key(d, c, components) for c in range(d.n_crossings)]
    least = min(keys, default=None)
    return min(
        (
            _reference_code_from(d, d.under_pass(c))
            for c, key in enumerate(keys)
            if key == least
        ),
        default=None,
    )


def reference_code_all_starts(d: LinkDiagram):
    """The least walk code over all 2n start passes."""
    return min(
        (_reference_code_from(d, start) for start in range(len(d.succ))),
        default=None,
    )


def with_passes_swapped(d: LinkDiagram, crossings) -> LinkDiagram:
    """The same diagram with passes 2c and 2c+1 swapped, and over[c] flipped,
    at each crossing c of ``crossings``."""

    def m(p):
        return p ^ 1 if p >> 1 in crossings else p

    succ = [0] * len(d.succ)
    for p, q in enumerate(d.succ):
        succ[m(p)] = m(q)
    over = tuple(1 - b if c in crossings else b for c, b in enumerate(d.over))
    return LinkDiagram(d.signs, tuple(succ), over, d.free_loops)


def grid_pieces(grid_graph) -> list[LinkDiagram]:
    """Pieces of 3x3 grid subgraph medians and of their switches and smoothings."""
    out = []
    for dropped in ((), (0,), (5,), (3, 8)):
        d = median_diagram(grid_graph(3, 3, dropped))
        out += d.split_parts()
        for c in range(0, d.n_crossings, 3):
            out += d.switch(c).split_parts() + d.smooth(c).split_parts()
    return out


_V2 = Laurent2({(2, 0): 1})
_VZ = Laurent2({(1, 1): 1})
_VINV2 = Laurent2({(-2, 0): 1})
_MINUS_VINVZ = Laurent2({(-1, 1): -1})


def reference_homfly(d: LinkDiagram, memo: dict | None = None) -> Laurent2:
    """The skein recursion without curl or bigon removal (reference for
    homfly_skein).

    It memoizes on the tests' ``reference_code`` of connected pieces in its
    own memo, which homfly_skein never sees.
    """
    return _reference(d, {} if memo is None else memo)


def _reference(d: LinkDiagram, memo) -> Laurent2:
    free = d.free_loops
    if d.n_crossings == 0:
        return UNLINK_FACTOR ** (free - 1) if free else Laurent2.const(1)
    parts = d.split_parts()
    if parts == [d]:
        return _reference_connected(d, memo)
    result = UNLINK_FACTOR ** (len(parts) + free - 1)
    for part in parts:
        result = result * _reference_connected(part, memo)
    return result


def _reference_connected(d: LinkDiagram, memo) -> Laurent2:
    key = reference_code(d)
    if key in memo:
        return memo[key]
    bad = d.first_bad_crossing()
    if bad is None:
        value = UNLINK_FACTOR ** (len(d.components()) - 1)
    elif d.signs[bad] > 0:
        value = _V2 * _reference(d.switch(bad), memo) + _VZ * _reference(
            d.smooth(bad), memo
        )
    else:
        value = _VINV2 * _reference(d.switch(bad), memo) + _MINUS_VINVZ * _reference(
            d.smooth(bad), memo
        )
    memo[key] = value
    return value


def reference_smooth(d: LinkDiagram, c: int) -> LinkDiagram:
    """Smoothing by following each pass through the crossing (reference)."""
    u, o = 2 * c, 2 * c + 1
    su, so = d.succ[u], d.succ[o]
    free = d.free_loops
    if su == o and so == u:
        free += 2
    elif (su == u and so == o) or so == u or su == o:
        free += 1
    succ = []
    for p, q in enumerate(d.succ):
        if p in (u, o):
            continue
        while q in (u, o):
            q = so if q == u else su
        succ.append(q - 2 if q > o else q)
    signs = tuple(s for i, s in enumerate(d.signs) if i != c)
    over = tuple(b for i, b in enumerate(d.over) if i != c)
    return LinkDiagram(signs, tuple(succ), over, free)


def reference_untwist(d: LinkDiagram) -> LinkDiagram:
    """Curl removal by smoothing the first curl and rescanning (reference)."""
    while True:
        succ = d.succ
        for c in range(d.n_crossings):
            if succ[2 * c] == 2 * c + 1 or succ[2 * c + 1] == 2 * c:
                break
        else:
            return d
        s = d.smooth(c)
        d = LinkDiagram(s.signs, s.succ, s.over, s.free_loops - 1)


def without_crossings(d: LinkDiagram, crossings) -> LinkDiagram:
    """d with the crossings removed: each strand skips their passes, and a
    component made only of their passes becomes a free loop."""
    removed = {p for c in crossings for p in (2 * c, 2 * c + 1)}
    kept = [c for c in range(d.n_crossings) if c not in crossings]
    label = {}
    for i, c in enumerate(kept):
        label[2 * c], label[2 * c + 1] = 2 * i, 2 * i + 1
    succ = []
    for c in kept:
        for p in (2 * c, 2 * c + 1):
            q = d.succ[p]
            while q in removed:
                q = d.succ[q]
            succ.append(label[q])
    free = sum(set(comp) <= removed for comp in d.components())
    return LinkDiagram(
        tuple(d.signs[c] for c in kept),
        tuple(succ),
        tuple(d.over[c] for c in kept),
        d.free_loops + free,
    )


def reducible_bigon(d: LinkDiagram, p: int) -> bool:
    """Whether the arc from pass p starts a bigon with the same strand over
    at both of its crossings."""
    q = d.succ[p]
    c1, c2 = p // 2, q // 2
    return (
        c1 != c2
        and (d.succ[p ^ 1] == q ^ 1 or d.succ[q ^ 1] == p ^ 1)
        and (p == d.over_pass(c1)) == (q == d.over_pass(c2))
    )


def reference_unbigon(d: LinkDiagram) -> LinkDiagram:
    """Curl and bigon removal by explicit surgery on the first one found,
    scanning the passes from 0, then a rescan (reference for unbigon)."""
    while True:
        for p, q in enumerate(d.succ):
            if q == p ^ 1:
                d = without_crossings(d, {p // 2})
                break
            if reducible_bigon(d, p):
                d = without_crossings(d, {p // 2, q // 2})
                break
        else:
            return d


def reference_split_parts(d: LinkDiagram) -> list[LinkDiagram]:
    """Pieces by a union-find over all pass edges (reference for split_parts)."""
    parent = list(range(d.n_crossings))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for p, q in enumerate(d.succ):
        a, b = find(p // 2), find(q // 2)
        if a != b:
            parent[a] = b
    groups: dict[int, list[int]] = {}
    for c in range(d.n_crossings):
        groups.setdefault(find(c), []).append(c)
    if len(groups) == 1 and not d.free_loops:
        return [d]
    parts = []
    for crossings in groups.values():
        index = {c: i for i, c in enumerate(crossings)}
        succ = []
        for c in crossings:
            for p in (2 * c, 2 * c + 1):
                q = d.succ[p]
                succ.append(2 * index[q // 2] + (q & 1))
        parts.append(
            LinkDiagram(
                tuple(d.signs[c] for c in crossings),
                tuple(succ),
                tuple(d.over[c] for c in crossings),
            )
        )
    return parts


def reference_first_bad_crossing(d: LinkDiagram) -> int | None:
    """The basepoint walk over the component lists (reference)."""
    seen = set()
    for comp in d.components():
        for p in comp:
            c = p // 2
            if c not in seen:
                if p != d.over_pass(c):
                    return c
                seen.add(c)
    return None


def is_curl(d: LinkDiagram, c: int) -> bool:
    return d.succ[2 * c] == 2 * c + 1 or d.succ[2 * c + 1] == 2 * c


def with_curls(d: LinkDiagram, p: int, depth=1, sign=1, over=0, flipped=False):
    """d with ``depth`` nested curls spliced in after pass p.

    The new crossings n, n+1, ... are met in the order n, n+1, ..., then
    back out ..., n+1, n, so only the innermost is a curl until it goes.
    The strand meets pass 2c of each first, or pass 2c+1 when ``flipped``.
    Every sign and over bit is drawable: a curl may turn either way.
    """
    n = d.n_crossings
    first = [2 * (n + i) + flipped for i in range(depth)]
    second = [q ^ 1 for q in first]
    walk = [p] + first + second[::-1] + [d.succ[p]]
    succ = list(d.succ) + [0] * (2 * depth)
    for a, b in zip(walk, walk[1:]):
        succ[a] = b
    return LinkDiagram(
        d.signs + (sign,) * depth, tuple(succ), d.over + (over,) * depth, d.free_loops
    )


def kink_chain(k: int) -> LinkDiagram:
    """k kinks in a row: an unknot diagram whose every crossing is a curl."""
    succ = []
    for c in range(k):
        succ += [2 * c + 1, (2 * c + 2) % (2 * k)]
    return LinkDiagram((1,) * k, tuple(succ), (0,) * k)


def with_bigon(d: LinkDiagram, c: int, parallel: bool, a_over=False) -> LinkDiagram:
    """d with a finger of strand B, the one leaving pass 2c+1, pushed across
    strand A beside crossing c: across the arc leaving pass 2c when
    ``parallel``, else across the arc entering it.  Those arcs are
    neighbours at c, so the move is drawable.  B is over at both new
    crossings, or A when ``a_over``.

    The new crossing n lies nearer c and n+1 farther; B meets n first.  B
    crosses A at n the other way from c and back at n+1, so with e the
    sign c would have with A over, n gets e and n+1 gets -e when B is
    over, and the opposite signs when A is (``is_drawable`` agrees).
    """
    n = d.n_crossings
    e = d.signs[c] if d.over[c] == 0 else -d.signs[c]
    if a_over:
        e = -e
    if parallel:
        walks = [(2 * c, 2 * n, 2 * n + 2, d.succ[2 * c])]
    else:
        walks = [(d.succ.index(2 * c), 2 * n + 2, 2 * n, 2 * c)]
    walks.append((2 * c + 1, 2 * n + 1, 2 * n + 3, d.succ[2 * c + 1]))
    succ = list(d.succ) + [0] * 4
    for walk in walks:
        for a, b in zip(walk, walk[1:]):
            succ[a] = b
    over = 0 if a_over else 1
    return LinkDiagram(
        d.signs + (e, -e), tuple(succ), d.over + (over, over), d.free_loops
    )


def is_drawable(d: LinkDiagram) -> bool:
    """Whether the diagram embeds in the plane with each crossing turned as
    its sign and over bit say: Euler's formula, n + 2 faces per piece.

    Arm (p, 1) leaves pass p and (p, 0) enters it.  Counterclockwise, the
    arms of crossing c run: out of 2c, then out of 2c+1 when strand 2c+1
    crosses strand 2c leftwards, else into it, into 2c, and the fourth.
    Mirroring every crossing keeps the face count, so the sign convention
    does not matter.
    """
    turn, mate = {}, {}
    for c in range(d.n_crossings):
        left = (d.signs[c] > 0) == (d.over[c] == 0)
        arms = [(2 * c, 1), (2 * c + 1, left), (2 * c, 0), (2 * c + 1, not left)]
        for i, arm in enumerate(arms):
            turn[arm] = arms[(i + 1) % 4]
    for p, q in enumerate(d.succ):
        mate[p, 1], mate[q, 0] = (q, 0), (p, 1)
    faces, seen = 0, set()
    for arm in turn:
        faces += arm not in seen
        while arm not in seen:
            seen.add(arm)
            arm = turn[mate[arm]]
    pieces = len(d.split_parts()) if d.n_crossings else 0
    return faces == d.n_crossings + 2 * pieces


def bigon_chain(k: int, parallel=True) -> LinkDiagram:
    """Two circles crossing k times (k even), with the first, through the
    even passes, over at every crossing: a two-component unlink whose every
    pair of consecutive crossings is a reducible bigon."""
    succ = []
    for c in range(k):
        back = 2 * ((c + 1) % k if parallel else (c - 1) % k) + 1
        succ += [2 * ((c + 1) % k), back]
    return LinkDiagram((1, -1) * (k // 2), tuple(succ), (0,) * k)


def reference_median_diagram(g, subgraph=None) -> LinkDiagram:
    """The median construction with each circle as a list and two index
    scans per crossing to find the next crossing on each of its circles."""
    if subgraph is None:
        subgraph = DecoratedSubgraph((1 << g.n_edges) - 1, 0)
    present = [c for c in range(g.n_edges) if subgraph.present >> c & 1]
    dotted = [c for c in present if subgraph.dotted >> c & 1]
    index = {c: i for i, c in enumerate(present)}

    k = len(g.e_vertices)
    circles: dict[int, list[int]] = {}
    for x in range(k):
        circles[x] = [c for c in g.rotations[x] if c in index]
    for x in range(k, g.n_vertices):
        circles[x] = [c for c in reversed(g.rotations[x]) if c in index]

    def into_v(c):  # pass entering along the E-circle, leaving along the V-circle
        return 2 * index[c]

    def into_e(c):  # pass entering along the V-circle, leaving along the E-circle
        return 2 * index[c] + 1

    succ = [0] * (2 * len(present))
    for c in present:
        e, v = g.ends[c]
        ring_v = circles[v]
        ring_e = circles[e]
        next_on_v = ring_v[(ring_v.index(c) + 1) % len(ring_v)]
        next_on_e = ring_e[(ring_e.index(c) + 1) % len(ring_e)]
        succ[into_v(c)] = into_e(next_on_v)
        succ[into_e(c)] = into_v(next_on_e)
    signs = tuple(-1 if c in dotted else 1 for c in present)
    over = tuple(1 if c in dotted else 0 for c in present)
    free = sum(1 for ring in circles.values() if not ring)
    return LinkDiagram(signs, tuple(succ), over, free)


def type_two_leaf_diagrams(g, dual) -> list[LinkDiagram]:
    tree = build_arb_tree(dual)
    return [
        median_diagram(g, decorated_subgraph_at(g, leaf))
        for leaf in tree.type_two_leaves()
    ]


class TestMedianConstruction:
    def test_single_edge_is_a_kink(self):
        g, _ = single_edge()
        d = median_diagram(g)
        assert d.n_crossings == 1
        assert d.seifert_circle_count() == 2
        assert component_count(d) == 1
        assert d.writhe() == 1

    def test_bigon_is_the_hopf_diagram(self):
        g, _ = bigon()
        d = median_diagram(g)
        assert d.n_crossings == 2
        assert d.seifert_circle_count() == 2
        assert component_count(d) == 2
        assert d.writhe() == 2

    def test_k32_counts(self):
        g, _ = k32_three_strand()
        d = median_diagram(g)
        assert d.n_crossings == 6
        assert d.seifert_circle_count() == 5
        assert component_count(d) == 3
        assert d.writhe() == 6

    def test_one_circle_per_vertex(self, graph_corpus):
        for g in graph_corpus[:60]:
            d = median_diagram(g)
            assert d.n_crossings == g.n_edges
            assert d.seifert_circle_count() == g.n_vertices

    def test_dotting_flips_signs_only(self):
        g, _ = bigon()
        dotted = median_diagram(g, DecoratedSubgraph(0b11, 0b01))
        assert dotted.writhe() == 0
        assert dotted.seifert_circle_count() == 2

    def test_missing_vertices_become_free_loops(self):
        g, _ = k32_three_strand()
        # spanning tree minus an edge isolates nothing; a single edge leaves
        # three of the five vertices isolated
        d = median_diagram(g, DecoratedSubgraph(0b1, 0))
        assert d.free_loops == 3
        assert d.n_crossings == 1

    def test_matches_reference_on_full_graphs(self, graph_corpus, grid_subgraphs):
        for g in graph_corpus + grid_subgraphs:
            assert median_diagram(g) == reference_median_diagram(g)

    def test_matches_reference_on_type_two_leaves(self, graph_corpus, grid_subgraphs):
        # every type-II leaf has skipped edges, so each subgraph has dotted ones
        leaves = 0
        for g in graph_corpus + grid_subgraphs:
            dual = build_dual(g, kappa_edge=0)
            for r0, kappa in dual.admissible_pairs():
                for leaf in build_arb_tree(dual.with_root(r0, kappa)).type_two_leaves():
                    sub = decorated_subgraph_at(g, leaf)
                    assert sub.dotted
                    assert median_diagram(g, sub) == reference_median_diagram(g, sub)
                    leaves += 1
        assert leaves > 10_000

    def test_smoothing_matches_edge_removal(self):
        g, _ = k32_three_strand()
        full = (1 << 6) - 1
        for c in range(6):
            smoothed = median_diagram(g).smooth(c)
            removed = median_diagram(g, DecoratedSubgraph(full ^ 1 << c, 0))
            assert smoothed == removed


class TestSkeinOracle:
    def test_unknots(self):
        g, _ = single_edge()
        assert homfly_skein(median_diagram(g)) == 1
        assert homfly_skein(LinkDiagram((), (), (), free_loops=1)) == 1

    def test_unlinks(self):
        for c in range(2, 5):
            d = LinkDiagram((), (), (), free_loops=c)
            assert homfly_skein(d) == UNLINK_FACTOR ** (c - 1)

    def test_hopf(self):
        g, _ = bigon()
        assert homfly_skein(median_diagram(g)) == HOPF

    def test_trefoil(self):
        g, _ = theta()
        assert homfly_skein(median_diagram(g)) == TREFOIL

    def test_k32_value(self):
        g, _ = k32_three_strand()
        assert homfly_skein(median_diagram(g)) == K32_HOMFLY

    def test_k32_type_two_leaves(self):
        g, dual = k32_three_strand()
        tree = build_arb_tree(dual)
        values = []
        for leaf in tree.type_two_leaves():
            d = median_diagram(g, decorated_subgraph_at(g, leaf))
            values.append(homfly_skein(d))
        unlink2 = UNLINK_FACTOR
        hopf_and_circle = HOPF * UNLINK_FACTOR
        assert sorted(values, key=str) == sorted(
            [unlink2, unlink2, hopf_and_circle], key=str
        )

    def test_connected_sum_multiplies(self):
        g, _ = block_sum_of_bigons()
        assert homfly_skein(median_diagram(g)) == HOPF * HOPF

    def test_mirror_rule(self, graph_corpus):
        for g in graph_corpus[:25]:
            edges = (1 << g.n_edges) - 1
            solid = homfly_skein(median_diagram(g))
            dotted = homfly_skein(median_diagram(g, DecoratedSubgraph(edges, edges)))
            assert dotted == mirror_first(solid)

    def test_relabel_invariance(self, graph_corpus):
        rng = random.Random(7)
        for g in graph_corpus[:20]:
            d = median_diagram(g)
            value = homfly_skein(d)
            perm = list(range(d.n_crossings))
            rng.shuffle(perm)
            assert homfly_skein(relabel(d, perm)) == value

    def test_switch_then_switch_is_identity(self):
        g, _ = k32_three_strand()
        d = median_diagram(g)
        assert d.switch(2).switch(2) == d

    def test_skein_relation_holds(self, graph_corpus):
        # v^(-1) P+ - v P- = z P0 at a positive crossing
        vinv = Laurent2({(-1, 0): 1})
        v = Laurent2({(1, 0): 1})
        z = Laurent2({(0, 1): 1})
        for g in graph_corpus[:15]:
            d = median_diagram(g)
            if not d.n_crossings:
                continue
            c = d.n_crossings // 2
            p_plus = homfly_skein(d)
            p_minus = homfly_skein(d.switch(c))
            p_zero = homfly_skein(d.smooth(c))
            assert vinv * p_plus - v * p_minus == z * p_zero

    def test_cap(self):
        g, _ = k32_three_strand()
        with pytest.raises(CrossingCapExceeded):
            homfly_skein(median_diagram(g), cap=5)

    def test_type_one_leaf_diagrams_are_unknots(self, graph_corpus):
        for g in graph_corpus[:30]:
            dual = build_dual(g, kappa_edge=0)
            tree = build_arb_tree(dual)
            for leaf in tree.leaves:
                if leaf.leaf_type != "I":
                    continue
                d = median_diagram(g, decorated_subgraph_at(g, leaf))
                assert component_count(d) == 1
                assert homfly_skein(d) == 1

    def test_tree_decomposition_reassembles_the_polynomial(self, graph_corpus):
        # walking the tree with weight v^2 per left step and vz per right step
        # and the leaf diagrams' values at the leaves reproduces the full
        # polynomial of the root diagram
        v2 = Laurent2({(2, 0): 1})
        vz = Laurent2({(1, 1): 1})
        for g in list(graph_corpus[:20]) + [k32_three_strand()[0]]:
            dual = build_dual(g, kappa_edge=0)
            tree = build_arb_tree(dual)
            total = Laurent2.zero()
            for leaf in tree.leaves:
                weight = vz ** leaf.a.bit_count() * v2 ** leaf.s.bit_count()
                value = homfly_skein(median_diagram(g, decorated_subgraph_at(g, leaf)))
                total = total + weight * value
            assert total == homfly_skein(median_diagram(g))


laurent2_values = st.dictionaries(
    st.tuples(st.integers(-6, 6), st.integers(-3, 3)), st.integers(-4, 4), max_size=6
).map(Laurent2)


class TestSkeinStep:
    @settings(max_examples=200, deadline=None)
    @given(laurent2_values, laurent2_values)
    @example(Laurent2.zero(), Laurent2.zero())
    @example(Laurent2({(0, 1): 1}), Laurent2({(1, 0): -1}))  # v^2 z - v^2 z = 0
    @example(Laurent2({(0, 1): 1}), Laurent2({(-1, 0): 1}))  # v^-2 z - v^-2 z = 0
    def test_matches_generic_arithmetic(self, switched, smoothed):
        assert homfly._skein_step(1, switched, smoothed) == (
            _V2 * switched + _VZ * smoothed
        )
        assert homfly._skein_step(-1, switched, smoothed) == (
            _VINV2 * switched + _MINUS_VINVZ * smoothed
        )


class TestCurlRemoval:
    """homfly_skein, which removes curls first, against the recursion that
    does not, and the removal itself on planted curls."""

    def test_matches_reference_on_corpus_medians(self, graph_corpus):
        for g in graph_corpus:
            d = median_diagram(g)
            assert homfly_skein(d) == reference_homfly(d)

    def test_matches_reference_on_grid_subgraphs(self, grid_subgraphs):
        # every median and its type-II leaf diagrams at up to 3 roots, each
        # distinct diagram once; each side shares one memo, as verify does
        diagrams = []
        for g in grid_subgraphs:
            diagrams.append(median_diagram(g))
            dual = build_dual(g, kappa_edge=0)
            for r0, kappa in dual.admissible_pairs()[:3]:
                diagrams += type_two_leaf_diagrams(g, dual.with_root(r0, kappa))
        diagrams = list(dict.fromkeys(diagrams))
        assert len(diagrams) > 1500
        memo, reference_memo = {}, {}
        for d in diagrams:
            value = homfly_skein(d, cap=17, memo=memo)
            assert value == reference_homfly(d, reference_memo)

    def test_matches_reference_on_every_sign_pattern(self):
        for fixture in (bigon, theta, k32_three_strand):
            g = fixture()[0]
            edges = (1 << g.n_edges) - 1
            for dotted in range(1 << g.n_edges):
                d = median_diagram(g, DecoratedSubgraph(edges, dotted))
                assert homfly_skein(d) == reference_homfly(d)

    def test_one_curl_in_each_orientation_sign_and_over_bit(self):
        g, _ = bigon()
        hopf = median_diagram(g)
        for p, sign, over, flipped in product(range(4), (1, -1), (0, 1), (0, 1)):
            d = with_curls(hopf, p, sign=sign, over=over, flipped=flipped)
            assert is_curl(d, 2)
            assert d.unbigon() == hopf
            assert homfly_skein(d) == reference_homfly(d) == HOPF

    def test_figure_eight_curve_is_the_unknot(self):
        for sign, over, free in product((1, -1), (0, 1), (0, 2)):
            d = LinkDiagram((sign,), (1, 0), (over,), free)
            assert d.unbigon() == LinkDiagram((), (), (), free + 1)
            assert homfly_skein(d) == reference_homfly(d) == UNLINK_FACTOR**free

    def test_removing_a_curl_can_make_the_next(self):
        g, _ = theta()
        trefoil = median_diagram(g)
        for depth, flipped in product((2, 3), (0, 1)):
            d = with_curls(trefoil, 1, depth, sign=-1, flipped=flipped)
            # only the innermost crossing, the last one, is a curl
            assert [c for c in range(d.n_crossings) if is_curl(d, c)] == [2 + depth]
            assert d.unbigon() == trefoil
            assert homfly_skein(d) == reference_homfly(d) == TREFOIL

    def test_curls_leave_no_curl_and_the_value(self, graph_corpus, grid_graph):
        diagrams = [median_diagram(g) for g in graph_corpus[:60]] + grid_pieces(
            grid_graph
        )
        curly = 0
        for d in diagrams:
            reduced = d.unbigon()
            assert not any(is_curl(reduced, c) for c in range(reduced.n_crossings))
            curly += reference_untwist(d) is not d
            assert homfly_skein(reduced) == homfly_skein(d)
        assert curly > 20

    def test_cap_counts_the_curls_of_the_input(self):
        # an unknot whose diagram has 15 crossings
        d = kink_chain(15)
        assert d.unbigon() == LinkDiagram((), (), (), 1)
        with pytest.raises(CrossingCapExceeded):
            homfly_skein(d, cap=14)
        assert homfly_skein(d, cap=15) == 1


def planted_bigon_bases() -> list[LinkDiagram]:
    """Connected diagrams without a curl or a reducible bigon to plant
    bigons in: the Hopf, trefoil and K_{3,2} medians, the trefoil's mirror
    and a K_{3,2} sign pattern that is not alternating."""
    g = theta()[0]
    trefoil = median_diagram(g)
    mirror = median_diagram(g, DecoratedSubgraph(7, 7))
    k32 = median_diagram(k32_three_strand()[0])
    hopf = median_diagram(bigon()[0])
    return [hopf, trefoil, mirror, k32, k32.switch(0).switch(1)]


def planted_bigon_diagrams() -> list[LinkDiagram]:
    """The bigon fixtures: a finger move beside each crossing of each base,
    both ways and with each strand over, then the same with the far new
    crossing switched, or with a curl after each pass of the trefoil's;
    the two-crossing unlink and the Hopf clasp."""
    out = []
    for base in planted_bigon_bases():
        n = base.n_crossings
        for c, parallel, a_over in product(range(n), (True, False), (False, True)):
            d = with_bigon(base, c, parallel, a_over)
            out += [d, d.switch(n + 1)]
    trefoil = median_diagram(theta()[0])
    for c, parallel, a_over in product(range(3), (True, False), (False, True)):
        d = with_bigon(trefoil, c, parallel, a_over)
        out += [with_curls(d, p, flipped=True) for p in range(10)]
    hopf = median_diagram(bigon()[0])
    return out + [hopf.switch(0), hopf]


class TestBigonRemoval:
    """homfly_skein, which removes reducible bigons as well as curls,
    against the recursion that removes neither, on planted bigons."""

    def test_planted_bigons_are_drawable(self):
        assert all(is_drawable(d) for d in planted_bigon_diagrams())
        # and only with the signs with_bigon gives them
        for base in planted_bigon_bases():
            assert base.unbigon() is base
            for c, parallel, a_over in product(
                range(base.n_crossings), (True, False), (False, True)
            ):
                d = with_bigon(base, c, parallel, a_over)
                swapped = d.signs[:-2] + d.signs[-2:][::-1]
                assert not is_drawable(LinkDiagram(swapped, d.succ, d.over))

    def test_each_finger_move_is_undone(self):
        # the bigon at the new crossings, or the one they make with c when
        # the same strand is over at c, goes; either way the base is left
        # up to the numbering of its crossings
        for base in planted_bigon_bases():
            value = homfly_skein(base)
            for c, parallel, a_over in product(
                range(base.n_crossings), (True, False), (False, True)
            ):
                d = with_bigon(base, c, parallel, a_over)
                reduced = d.unbigon()
                assert reduced.n_crossings == base.n_crossings
                assert reduced.canonical_code() == base.canonical_code()
                assert homfly_skein(d) == reference_homfly(d) == value

    def test_matches_reference_on_planted_bigons(self):
        for d in planted_bigon_diagrams():
            assert d.unbigon() == reference_unbigon(d)
            assert homfly_skein(d) == reference_homfly(d)

    def test_two_crossing_unlink_becomes_two_free_loops(self):
        unlink = median_diagram(bigon()[0]).switch(0)
        assert unlink.unbigon() == LinkDiagram((), (), (), 2)
        assert homfly_skein(unlink) == reference_homfly(unlink) == UNLINK_FACTOR

    def test_hopf_clasp_stays(self):
        hopf = median_diagram(bigon()[0])
        assert hopf.unbigon() is hopf
        assert homfly_skein(hopf) == HOPF

    def test_removing_a_curl_can_make_a_bigon(self):
        # a curl inside the planted bigon, on the arc from n to n+1 of either
        # strand: the bigon is met only once the curl is gone
        trefoil = median_diagram(theta()[0])
        for c, p in product(range(3), (6, 7)):
            d = with_curls(with_bigon(trefoil, c, True), p, flipped=True)
            assert not reducible_bigon(d, p)
            assert reducible_bigon(reference_untwist(d), p)
            assert d.unbigon() == reference_unbigon(d)
            assert d.unbigon().canonical_code() == trefoil.canonical_code()
            assert homfly_skein(d) == reference_homfly(d) == TREFOIL

    def test_pass_returning_to_itself(self):
        # not drawable, but a PD code can hold one, and a skein step can
        # resolve its crossing first
        diagrams = [
            LinkDiagram((sign,), (0, 1), (over,), free)
            for sign, over, free in product((1, -1), (0, 1), (0, 2))
        ]
        # passes 0 and 3 return to themselves; crossing 0 is resolved first
        diagrams += [
            LinkDiagram(signs, (0, 2, 1, 3), (1, 0)) for signs in ((1, 1), (-1, 1))
        ]
        for d in diagrams:
            assert d.unbigon() == reference_unbigon(d)
            assert homfly_skein(d) == reference_homfly(d)

    @pytest.mark.parametrize("parallel", [True, False])
    def test_chain_of_forty_bigons(self, parallel):
        d = bigon_chain(40, parallel)
        assert is_drawable(d)
        with pytest.raises(CrossingCapExceeded):
            homfly_skein(d)
        assert d.unbigon() == reference_unbigon(d) == LinkDiagram((), (), (), 2)
        assert homfly_skein(d, cap=40) == reference_homfly(d) == UNLINK_FACTOR


def planted_curl_diagrams() -> list[LinkDiagram]:
    """The curl fixtures: single and nested curls, figure-eight curves and
    one-crossing loops beside other pieces and free loops."""
    hopf = median_diagram(bigon()[0])
    trefoil = median_diagram(theta()[0])
    out = [
        with_curls(hopf, p, sign=sign, over=over, flipped=flipped)
        for p, sign, over, flipped in product(range(4), (1, -1), (0, 1), (0, 1))
    ]
    out += [
        with_curls(trefoil, p, depth, sign=-1, flipped=flipped)
        for p, depth, flipped in product(range(6), (2, 3), (0, 1))
    ]
    out += [
        LinkDiagram((sign,), (1, 0), (over,), free)
        for sign, over, free in product((1, -1), (0, 1), (0, 2))
    ]
    # the Hopf diagram beside a one-crossing loop, crossing 2, and free loops
    out += [
        LinkDiagram(hopf.signs + (1,), hopf.succ + (5, 4), hopf.over + (0,), free)
        for free in (0, 3)
    ]
    return out + [kink_chain(15)]


def skein_diagrams(diagrams, cap) -> list[LinkDiagram]:
    """The diagrams, every diagram the skein runs on them smooth or send
    back to curl and bigon removal, those with their curls or with their
    curls and bigons removed, and the pieces of either, each once."""
    made = []
    smooth, unbigon = LinkDiagram.smooth, LinkDiagram._unbigon

    def recording_smooth(d, c):
        made.append(smooth(d, c))
        return made[-1]

    def recording_unbigon(d, found):
        made.append(d)
        return unbigon(d, found)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LinkDiagram, "smooth", recording_smooth)
        patch.setattr(LinkDiagram, "_unbigon", recording_unbigon)
        for d in diagrams:
            homfly_skein(d, cap=cap)
    out = []
    for d in list(diagrams) + made:
        untwisted, reduced = reference_untwist(d), d.unbigon()
        out += [d, untwisted, reduced] + untwisted.split_parts() + reduced.split_parts()
    return list(dict.fromkeys(out))


class TestSurgeryAgainstReference:
    """unbigon, split_parts and first_bad_crossing against the code they
    replaced or a rescan after each removal, diagram by diagram: equal
    results, and the diagram itself wherever the reference returns it."""

    @staticmethod
    def assert_same_surgery(diagrams):
        for d in diagrams:
            expected = reference_unbigon(d)
            reduced = d.unbigon()
            assert reduced == expected
            if expected is d:
                assert reduced is d
            expected = reference_split_parts(d)
            parts = d.split_parts()
            assert parts == expected
            if len(expected) == 1 and expected[0] is d:
                assert parts[0] is d
            assert d.first_bad_crossing() == reference_first_bad_crossing(d)

    @staticmethod
    def medians_and_leaves(graphs) -> list[LinkDiagram]:
        """Each graph's median and its type-II leaf diagrams at up to three
        roots."""
        out = []
        for g in graphs:
            out.append(median_diagram(g))
            dual = build_dual(g, kappa_edge=0)
            for r0, kappa in dual.admissible_pairs()[:3]:
                out += type_two_leaf_diagrams(g, dual.with_root(r0, kappa))
        return out

    def test_on_corpus_skein_runs(self, graph_corpus):
        diagrams = skein_diagrams(self.medians_and_leaves(graph_corpus), 14)
        assert len(diagrams) > 800
        assert sum(d.unbigon() != reference_untwist(d) for d in diagrams) > 800
        self.assert_same_surgery(diagrams)

    def test_on_grid_subgraph_skein_runs(self, grid_subgraphs):
        diagrams = skein_diagrams(self.medians_and_leaves(grid_subgraphs), 17)
        assert len(diagrams) > 2000
        assert sum(d.unbigon() != reference_untwist(d) for d in diagrams) > 1500
        self.assert_same_surgery(diagrams)

    def test_on_planted_bigon_skein_runs(self):
        diagrams = skein_diagrams(planted_bigon_diagrams(), 15)
        assert sum(d.unbigon() != reference_untwist(d) for d in diagrams) > 200
        self.assert_same_surgery(diagrams)

    def test_on_planted_curl_skein_runs(self):
        diagrams = skein_diagrams(planted_curl_diagrams(), 15)
        assert sum(reference_untwist(d) is not d for d in diagrams) > 40
        self.assert_same_surgery(diagrams)

    def test_chain_of_forty_kinks(self):
        d = kink_chain(40)
        with pytest.raises(CrossingCapExceeded):
            homfly_skein(d)
        assert d.unbigon() == reference_untwist(d) == LinkDiagram((), (), (), 1)

    def test_one_crossing_loop_beside_free_loops(self):
        hopf = median_diagram(bigon()[0])
        for free in (0, 1, 3):
            loop = LinkDiagram((-1,), (1, 0), (1,), free)
            assert loop.unbigon() == LinkDiagram((), (), (), free + 1)
            # the loop as crossing 0, before the Hopf diagram's crossings
            beside = LinkDiagram(
                (-1,) + hopf.signs,
                (1, 0) + tuple(q + 2 for q in hopf.succ),
                (1,) + hopf.over,
                free,
            )
            expected = LinkDiagram(hopf.signs, hopf.succ, hopf.over, free + 1)
            assert beside.unbigon() == reference_untwist(beside) == expected
            assert homfly_skein(beside) == HOPF * UNLINK_FACTOR ** (free + 1)


class TestSurgery:
    def test_smooth_matches_reference(self, graph_corpus, grid_graph):
        g, _ = bigon()
        hopf = median_diagram(g)
        diagrams = (
            [median_diagram(g) for g in graph_corpus[:60]]
            + grid_pieces(grid_graph)
            + [LinkDiagram((1,), (1, 0), (0,)), LinkDiagram((1,), (0, 1), (0,))]
            # a pass that returns to itself cannot be drawn, but smooth takes it
            + [LinkDiagram((1, 1, 1), (1, 4, 2, 5, 0, 3), (0, 0, 0))]
            + [LinkDiagram((1, 1), (2, 1, 0, 3), (0, 0))]
            + [with_curls(hopf, p, flipped=f) for p in range(4) for f in (0, 1)]
        )
        for d in diagrams:
            for c in range(d.n_crossings):
                assert d.smooth(c) == reference_smooth(d, c)

    def test_one_piece_with_free_loops_keeps_its_strands(self):
        # the trefoil is one component, the Hopf diagram two joined at a
        # crossing: each single-piece exit of split_parts
        for base in (median_diagram(theta()[0]), median_diagram(bigon()[0])):
            for free in (1, 3):
                d = LinkDiagram(base.signs, base.succ, base.over, free)
                parts = d.split_parts()
                assert parts == reference_split_parts(d) == [base]
                assert parts[0].succ is d.succ

    def test_split_of_disjoint_unions_with_interleaved_crossings(
        self, graph_corpus, grid_graph
    ):
        # 2-4 pieces side by side, their crossings renumbered so that the
        # numbers of different pieces interleave, each piece's in its order
        pool = grid_pieces(grid_graph) + [
            piece for g in graph_corpus[:60] for piece in median_diagram(g).split_parts()
        ]
        rng = random.Random(7)
        interleaved = 0
        for trial in range(300):
            pieces = rng.sample(pool, rng.randint(2, 4))
            signs, succ, over = (), (), ()
            for piece in pieces:
                succ += tuple(q + len(succ) for q in piece.succ)
                signs += piece.signs
                over += piece.over
            labels = rng.sample(range(len(signs)), len(signs))
            perm, numbers = [], []
            for piece in pieces:
                mine = sorted(labels[len(perm) : len(perm) + piece.n_crossings])
                perm += mine
                numbers.append(mine)
            interleaved += any(ns[-1] - ns[0] >= len(ns) for ns in numbers)
            union = relabel(LinkDiagram(signs, succ, over), perm)
            order = sorted(range(len(pieces)), key=lambda i: numbers[i][0])
            expected = [pieces[i] for i in order]
            for free in (0, trial % 3 + 1):
                d = LinkDiagram(union.signs, union.succ, union.over, free)
                assert d.split_parts() == reference_split_parts(d) == expected
        assert interleaved > 250

    def test_surgery_builds_valid_diagrams(self, graph_corpus, grid_graph):
        # switch, smooth, split_parts and unbigon skip validation; their
        # results must still pass it
        diagrams = [median_diagram(g) for g in graph_corpus[:60]] + grid_pieces(
            grid_graph
        )
        for d in diagrams:
            made = d.split_parts() + [d.unbigon()]
            for c in range(d.n_crossings):
                made += [d.switch(c), d.smooth(c)]
            for m in made:
                assert LinkDiagram(m.signs, m.succ, m.over, m.free_loops) == m


class TestCanonicalCode:
    def test_matches_reference_on_corpus_medians(self, graph_corpus):
        for g in graph_corpus:
            for piece in median_diagram(g).split_parts():
                assert piece.canonical_code().walk == reference_code(piece)

    def test_matches_reference_on_k32_type_two_leaves(self):
        g, dual = k32_three_strand()
        pieces = [
            piece
            for d in type_two_leaf_diagrams(g, dual)
            for piece in d.split_parts()
        ]
        assert pieces
        for piece in pieces:
            assert piece.canonical_code().walk == reference_code(piece)

    def test_matches_reference_on_grid_subgraphs(self, grid_graph):
        for piece in grid_pieces(grid_graph):
            assert piece.canonical_code().walk == reference_code(piece)

    def test_walk_from_every_under_pass_matches_reference(
        self, graph_corpus, grid_graph
    ):
        # every walk the least is taken from, not only the least one
        pieces = grid_pieces(grid_graph) + [
            piece for g in graph_corpus for piece in median_diagram(g).split_parts()
        ]
        walks = 0
        for piece in pieces:
            for c in range(piece.n_crossings):
                u = piece.under_pass(c)
                pairs, signs = _reference_code_from(piece, u)
                entries = tuple(2 * k + b if k >= 0 else -1 for k, b in pairs)
                assert piece._walk_code(u) == (entries, signs)
                walks += 1
        assert walks > 1000

    def test_matches_reference_on_every_sign_pattern(self):
        # symmetric shadows give equal walks from several starts; the signs
        # then break the tie
        for fixture in (bigon, theta, k32_three_strand):
            d = median_diagram(fixture()[0])
            for signs in product((1, -1), repeat=d.n_crossings):
                signed = LinkDiagram(signs, d.succ, d.over)
                assert signed.canonical_code().walk == reference_code(signed)

    def test_same_classes_as_the_all_starts_code(self, graph_corpus, grid_graph):
        # two pieces have equal codes iff they have equal least codes over
        # all start passes, i.e. iff one is a relabelling of the other
        diagrams = type_two_leaf_diagrams(*k32_three_strand()) + [
            median_diagram(g) for g in graph_corpus
        ]
        pieces = grid_pieces(grid_graph) + [
            piece for d in diagrams for piece in d.split_parts()
        ]
        for fixture in (bigon, theta, k32_three_strand):
            d = median_diagram(fixture()[0])
            for signs in product((1, -1), repeat=d.n_crossings):
                pieces.append(LinkDiagram(signs, d.succ, d.over))
        class_of: dict = {}
        code_of: dict = {}
        for piece in pieces:
            code, full = piece.canonical_code(), reference_code_all_starts(piece)
            assert class_of.setdefault(code, full) == full
            assert code_of.setdefault(full, code) == code
        assert len(class_of) > 100

    def test_unchanged_under_pass_swaps(self, graph_corpus, grid_graph):
        rng = random.Random(13)
        pieces = grid_pieces(grid_graph) + [
            piece
            for g in graph_corpus[:60]
            for piece in median_diagram(g).split_parts()
        ]
        for piece in pieces:
            code = piece.canonical_code()
            for _ in range(3):
                swapped = {c for c in range(piece.n_crossings) if rng.random() < 0.5}
                assert with_passes_swapped(piece, swapped).canonical_code() == code

    def test_unchanged_under_relabel(self, graph_corpus, grid_graph):
        rng = random.Random(11)
        pieces = grid_pieces(grid_graph) + [
            piece
            for g in graph_corpus[:60]
            for piece in median_diagram(g).split_parts()
        ]
        for piece in pieces:
            code = piece.canonical_code()
            for _ in range(3):
                perm = list(range(piece.n_crossings))
                rng.shuffle(perm)
                assert relabel(piece, perm).canonical_code() == code

    def test_disconnected_diagram_raises(self):
        g, _ = bigon()
        hopf = median_diagram(g)
        shifted = tuple(q + len(hopf.succ) for q in hopf.succ)
        two_hopfs = LinkDiagram(hopf.signs * 2, hopf.succ + shifted, hopf.over * 2)
        assert len(two_hopfs.split_parts()) == 2
        with pytest.raises(InvariantError):
            two_hopfs.canonical_code()


class TestPieceMemo:
    """The memo's two keys per piece (the piece itself, then its canonical
    code), and switches sent straight to the connected case unless they
    make a bigon, against the canonical-code recursion."""

    def test_switches_of_reached_pieces_need_no_untwist_or_split(
        self, graph_corpus, grid_graph
    ):
        diagrams = [median_diagram(g) for g in graph_corpus] + [
            median_diagram(grid_graph(3, 4)),
            median_diagram(grid_graph(4, 4)),
        ]
        reached = bigons = 0
        for d in diagrams:
            memo: dict = {}
            homfly_skein(d, cap=24, memo=memo)
            # every piece reached is a memo key, next to its canonical code
            pieces = [key for key in memo if isinstance(key, LinkDiagram)]
            assert {piece.canonical_code() for piece in pieces} == (
                memo.keys() - set(pieces)
            )
            for piece in pieces:
                assert memo[piece] == memo[piece.canonical_code()]
                assert piece.unbigon() is piece
                assert piece.split_parts() == [piece]
                for c in range(piece.n_crossings):
                    switched = piece.switch(c)
                    assert reference_untwist(switched) is switched
                    assert switched.split_parts() == [switched]
                    # a switch can make a bigon through c and nowhere else
                    found = switched._bigons_at(c)
                    reduced = switched.unbigon()
                    assert bool(found) == (reduced is not switched)
                    bigons += bool(found)
                    assert switched._unbigon(found) == reduced
            reached += len(pieces)
        assert reached > 1000 and bigons > 1000

    def test_relabelled_piece_is_found_by_its_code(self, grid_graph):
        d = median_diagram(grid_graph(3, 3))
        assert d.split_parts() == [d] and d.unbigon() is d
        memo: dict = {}
        value = homfly_skein(d, memo=memo)
        perm = list(range(d.n_crossings))
        random.Random(5).shuffle(perm)
        relabelled = relabel(d, perm)
        assert relabelled != d and relabelled not in memo
        size = len(memo)
        assert homfly_skein(relabelled, memo=memo) == value
        # one new key, the relabelled piece itself; no new code
        assert len(memo) == size + 1 and memo[relabelled] == value

    @pytest.mark.parametrize("a, b", [(3, 4), (3, 5)])
    def test_matches_reference_on_full_grids(self, grid_graph, a, b):
        d = median_diagram(grid_graph(a, b))
        assert homfly_skein(d, cap=d.n_crossings) == reference_homfly(d)


class TestLazyCode:
    """A canonical code hashes as its piece's profile and walks only when a
    dict compares it with a code of the same hash."""

    def test_piece_with_a_new_profile_makes_no_walk(self, grid_graph, monkeypatch):
        memo: dict = {}
        for a, b in ((3, 4), (3, 5)):
            homfly_skein(median_diagram(grid_graph(a, b)), cap=22, memo=memo)
        pieces = [key for key in memo if isinstance(key, LinkDiagram)]
        relabelled = [
            relabel(piece, list(range(piece.n_crossings))[::-1]) for piece in pieces
        ]
        walked: list[LinkDiagram] = []
        walk_code = LinkDiagram._walk_code

        def counted(self, *args):
            walked.append(self)
            return walk_code(self, *args)

        monkeypatch.setattr(LinkDiagram, "_walk_code", counted)
        codes: dict = {}
        profiles: set[int] = set()
        new = 0
        for piece in pieces + relabelled:
            before = len(walked)
            code = piece.canonical_code()
            assert type(code) is CanonicalCode and code.piece is piece
            codes.setdefault(code, piece)
            if hash(code) not in profiles:
                assert len(walked) == before
                new += 1
            profiles.add(hash(code))
        assert 100 < new < len(pieces) < len(walked)
        # each relabelled copy finds its piece's code, and every walk code
        # is the reference one
        assert len(codes) == len({code.walk for code in codes})
        for piece, copy in zip(pieces, relabelled):
            assert codes[copy.canonical_code()] is codes[piece.canonical_code()]
            assert piece.canonical_code().walk == reference_code(piece)

    def test_same_hits_as_the_eager_walk_code(self, grid_graph, monkeypatch):
        # one memo across the full 3x4 and 4x4 grids and the K_{3,2} type-II
        # leaf diagrams, with the lazy code and then with its walk tuple as key
        diagrams = [
            median_diagram(grid_graph(3, 4)),
            median_diagram(grid_graph(4, 4)),
        ] + type_two_leaf_diagrams(*k32_three_strand())
        canonical_code = LinkDiagram.canonical_code
        first_bad_crossing = LinkDiagram.first_bad_crossing

        def code_lookups(eager: bool):
            events: list = []

            def code(self):
                events.append(("code", self))
                lazy = canonical_code(self)
                return lazy.walk if eager else lazy

            def bad(self):
                events.append(("miss", self))
                return first_bad_crossing(self)

            monkeypatch.setattr(LinkDiagram, "canonical_code", code)
            monkeypatch.setattr(LinkDiagram, "first_bad_crossing", bad)
            memo: dict = {}
            values = [homfly_skein(d, cap=24, memo=memo) for d in diagrams]
            monkeypatch.undo()
            # a code lookup hits unless the miss of the same piece follows it
            events.append(("end", None))
            hits = [
                piece
                for (kind, piece), (after, other) in zip(events, events[1:])
                if kind == "code" and not (after == "miss" and other is piece)
            ]
            return values, [kind for kind, _ in events], hits

        lazy, eager = code_lookups(eager=False), code_lookups(eager=True)
        assert lazy == eager
        values, kinds, hits = lazy
        assert len(hits) > 40 and kinds.count("miss") > 400

    def test_codes_compare_by_walk(self, grid_graph):
        codes = [piece.canonical_code() for piece in grid_pieces(grid_graph)]
        for code in codes:
            assert code != code.walk and code.walk != code
            for other in codes:
                assert (code == other) == (code.walk == other.walk)
        assert len(set(codes)) < len(codes)


class TestSharedMemo:
    def test_shared_memo_gives_fresh_values(self, graph_corpus, grid_graph):
        # one memo across the type-II leaf diagrams of K_{3,2} and a grid
        # subgraph at every pair, then of corpus graphs at one root each
        diagrams = []
        for g in (k32_three_strand()[0], grid_graph(3, 3, (3, 8))):
            dual = build_dual(g, kappa_edge=0)
            for r0, kappa in dual.admissible_pairs():
                diagrams += type_two_leaf_diagrams(g, dual.with_root(r0, kappa))
        assert len(diagrams) > 50
        for g in graph_corpus[:20]:
            diagrams += type_two_leaf_diagrams(g, build_dual(g, kappa_edge=0))
        memo: dict = {}
        for d in diagrams:
            assert homfly_skein(d, memo=memo) == homfly_skein(d)
        assert memo

    def test_morton_audit_with_memo_raises_on_forced_violation(self):
        g, _ = k32_three_strand()
        d = median_diagram(g)
        # the diagram is a connected piece without curls, so the memo's
        # keys for it are the diagram itself and then its canonical code
        assert d.unbigon() is d and d.split_parts() == [d]
        bound = d.n_crossings - d.seifert_circle_count() + 1
        for key in (d, d.canonical_code()):
            memo: dict = {}
            assert homfly_skein(d, memo=memo).max_degree_second() == bound == 2
            # plant a value above the bound n - s + 1 = 2 under one key
            memo.pop(d)
            memo[key] = Laurent2({(0, 3): 1})
            with pytest.raises(InvariantError):
                homfly_skein(d, memo=memo)

    def test_non_planar_relabellings_need_their_own_memo(self):
        # one crossing where two loops meet: not drawable, and a relabelling
        # of its crossing (passes swapped) is descending where it is not
        d = LinkDiagram((1,), (0, 1), (1,))
        relabelled = LinkDiagram((1,), (0, 1), (0,))
        assert relabelled == with_passes_swapped(d, [0])
        assert not is_drawable(d) and not is_drawable(relabelled)
        assert d.canonical_code() == relabelled.canonical_code()
        assert homfly_skein(d) == HOPF
        assert homfly_skein(relabelled) == UNLINK_FACTOR
        # a memo shared between them hands the second the first one's value
        memo: dict = {}
        assert homfly_skein(d, memo=memo) == homfly_skein(d)
        assert homfly_skein(relabelled, memo=memo) == homfly_skein(d)

    def test_fresh_memo_leaves_the_process_memo_alone(self, grid_graph):
        memo = shared_memo()
        homfly_skein(median_diagram(grid_graph(3, 3)), memo=memo)
        before = list(memo.items())
        assert before
        value = homfly_skein(median_diagram(grid_graph(3, 4)), cap=17)
        assert shared_memo() is memo and list(memo.items()) == before
        assert value == homfly_skein(
            median_diagram(grid_graph(3, 4)), cap=17, memo=memo
        )

    def test_emptied_when_fetched_past_its_bound(self, monkeypatch, grid_graph):
        monkeypatch.setattr(homfly, "_SHARED_MEMO_BOUND", 6)
        memo = shared_memo()
        memo.update((k, UNLINK_FACTOR) for k in range(6))
        assert shared_memo() is memo and len(memo) == 6
        # a run keeps every entry it makes; the next fetch empties the memo
        homfly_skein(median_diagram(grid_graph(3, 3)), memo=memo)
        assert len(memo) > 6 + 2
        assert shared_memo() is memo and not memo


class TestConwayAlexander:
    def test_k32(self):
        g, _ = k32_three_strand()
        conway, alexander, half = conway_and_alexander(
            homfly_skein(median_diagram(g))
        )
        assert conway == Laurent1({2: 3}, "z")
        assert alexander == Laurent1({1: 3, 0: -6, -1: 3}, "t")
        assert not half

    def test_hopf_is_half_integer(self):
        g, _ = bigon()
        conway, alexander, half = conway_and_alexander(
            homfly_skein(median_diagram(g))
        )
        assert conway == Laurent1({1: 1}, "z")
        assert half
        assert alexander == Laurent1({1: 1, -1: -1})

    def test_top_at_one_is_leading_conway_coefficient(self, graph_corpus):
        for g in graph_corpus[:25]:
            P = homfly_skein(median_diagram(g))
            conway, _, _ = conway_and_alexander(P)
            top = top_coefficient(P, g.n_edges, g.n_vertices)
            if not conway:
                continue
            assert conway.coeffs[conway.degree()] == top.poly.eval_int(1)


class TestTops:
    @pytest.mark.parametrize(
        "fixture,expected,z_exp",
        [
            (single_edge, Laurent1({0: 1}, "v"), 0),
            (bigon, Laurent1({1: 1}, "v"), 1),
            (theta, Laurent1({2: 1}, "v"), 2),
            (k32_three_strand, Laurent1({2: 1, 4: 2}, "v"), 2),
        ],
    )
    def test_fixture_tops(self, fixture, expected, z_exp):
        g, dual = fixture()
        n, s = g.n_edges, g.n_vertices
        tree = build_arb_tree(dual)
        tri = triangulate(tree)
        h = h_from_f(f_vector(tri))
        _, p = parking_for_dual(dual)
        P = homfly_skein(median_diagram(g))
        tops = [
            top_coefficient(P, n, s),
            top_via_tree(tree, n, s),
            top_via_h(h, n, s),
            top_via_p(p, n, s),
        ]
        for top in tops:
            assert top.z_exponent == z_exp
            assert top.poly == expected

    def test_nonnegative_coefficients(self, graph_corpus):
        for g in graph_corpus[:40]:
            dual = build_dual(g, kappa_edge=0)
            tree = build_arb_tree(dual)
            top = top_via_tree(tree, g.n_edges, g.n_vertices)
            assert all(c > 0 for c in top.poly.coeffs.values())

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_parallel_strand_family(self, m):
        # K_{m,2}: one clocked leaf and m-1 single-skip leaves, so the top
        # is v^(m-1) + (m-1) v^(m+1); the oracle confirms the z-slice
        from homflytop.fixtures import k_m2

        g, dual = k_m2(m)
        n, s = g.n_edges, g.n_vertices
        tree = build_arb_tree(dual)
        assert sorted(k for _, k in tree.type_one_leaves()) == [0] + [1] * (m - 1)
        expected = Laurent1({m - 1: 1, m + 1: m - 1}, "v")
        assert top_via_tree(tree, n, s).poly == expected
        P = homfly_skein(median_diagram(g), cap=14)
        assert top_coefficient(P, n, s).poly == expected
        _, p = parking_for_dual(dual)
        assert p == Laurent1({0: 1, 1: m - 1}, "u")

    def test_h_and_p_tops_relate(self, graph_corpus):
        # u^(s-1) h(1/u) equals p(u)
        for g in graph_corpus[:40]:
            dual = build_dual(g, kappa_edge=0)
            tri = triangulate(build_arb_tree(dual))
            h = h_from_f(f_vector(tri))
            _, p = parking_for_dual(dual)
            s = g.n_vertices
            transformed = Laurent1(
                {s - 1 - e: c for e, c in h.coeffs.items()}, "u"
            )
            assert transformed == p


class TestHomogeneous:
    @staticmethod
    def _block_enumerators(g, signs):
        names = list(g.e_vertices) + list(g.v_vertices)
        blocks = biconnected_blocks(names, list(g.edges), signs)
        return blocks, [
            parking_for_dual(build_dual(block_subgraph(g, b.edge_ids), kappa_edge=0))[1]
            for b in blocks
        ]

    def test_single_positive_block_reduces_to_p_formula(self):
        g, dual = k32_three_strand()
        blocks, enumerators = self._block_enumerators(g, [1] * 6)
        _, p = parking_for_dual(dual)
        assert homogeneous_top(blocks, enumerators) == top_via_p(p, 6, 5).poly

    def test_negative_k32_matches_mirror(self):
        g, _ = k32_three_strand()
        blocks, enumerators = self._block_enumerators(g, [-1] * 6)
        formula = homogeneous_top(blocks, enumerators)
        mirrored = mirror_first(K32_HOMFLY)
        assert formula == top_coefficient(mirrored, 6, 5).poly
        assert formula == Laurent1({-2: 1, -4: 2}, "v")

    def test_two_positive_bigon_blocks(self):
        g, _ = block_sum_of_bigons()
        blocks, enumerators = self._block_enumerators(g, [1] * 4)
        formula = homogeneous_top(blocks, enumerators)
        assert formula == Laurent1({2: 1}, "v")
        d = median_diagram(g)
        P = homfly_skein(d)
        assert formula == top_coefficient(
            P, d.n_crossings, d.seifert_circle_count()
        ).poly

    @pytest.mark.parametrize(
        "signs",
        [[1, 1, 1, 1, 1], [1, 1, -1, -1, -1], [-1, -1, 1, 1, 1], [-1] * 5],
    )
    def test_bigon_theta_sums_match_oracle(self, signs):
        g, _ = block_sum_bigon_theta()
        blocks, enumerators = self._block_enumerators(g, signs)
        formula = homogeneous_top(blocks, enumerators)
        dotted = sum(1 << c for c, s in enumerate(signs) if s < 0)
        d = median_diagram(g, DecoratedSubgraph(0b11111, dotted))
        P = homfly_skein(d)
        slice_ = top_coefficient(P, d.n_crossings, d.seifert_circle_count())
        assert formula == slice_.poly

    def test_enumerator_count_validated(self):
        g, _ = k32_three_strand()
        blocks, _ = self._block_enumerators(g, [1] * 6)
        with pytest.raises(ValueError):
            homogeneous_top(blocks, [])


class TestMorton:
    @staticmethod
    def bound(d):
        """Morton's bound n - s + 1 on the z-degree."""
        return d.n_crossings - d.seifert_circle_count() + 1

    def test_k32_bound_is_tight(self):
        g, _ = k32_three_strand()
        d = median_diagram(g)
        assert homfly_skein(d).max_degree_second() == self.bound(d) == 2

    def test_type_two_leaves_satisfy_strict_bound(self):
        g, dual = k32_three_strand()
        tree = build_arb_tree(dual)
        degrees = []
        for leaf in tree.type_two_leaves():
            d = median_diagram(g, decorated_subgraph_at(g, leaf))
            maxdeg = morton_audit(d)
            assert maxdeg <= d.n_crossings - d.seifert_circle_count() - 1
            degrees.append((d.n_crossings, maxdeg))
        assert sorted(degrees) == [(5, -1), (5, -1), (6, 0)]

    def test_strict_bound_raises_on_planted_value(self, monkeypatch):
        g, dual = k32_three_strand()
        leaf = build_arb_tree(dual).type_two_leaves()[0]
        d = median_diagram(g, decorated_subgraph_at(g, leaf))
        n, s = d.n_crossings, d.seifert_circle_count()
        # z-degree n - s: within Morton's bound, past the strict one
        planted = Laurent2({(0, n - s): 1})
        monkeypatch.setattr(homfly, "homfly_skein", lambda d, cap, memo: planted)
        message = f"maxdeg_z={n - s}, n={n}, s={s}, strict=True$"
        with pytest.raises(InvariantError, match=message):
            morton_audit(d)

    def test_corpus_bounds(self, graph_corpus):
        for g in graph_corpus[:40]:
            d = median_diagram(g)
            assert homfly_skein(d).max_degree_second() == self.bound(d)


def signed_graph(rotations) -> PlaneBipartiteGraph:
    """The plane graph of CCW rotations keyed by vertex names, E-vertices
    named e*, V-vertices v*; each edge id is listed at its two ends."""
    ends: dict[int, dict[str, str]] = {}
    for x, rotation in rotations.items():
        for c in rotation:
            ends.setdefault(c, {})[x[0]] = x
    return PlaneBipartiteGraph(
        [x for x in rotations if x[0] == "e"],
        [x for x in rotations if x[0] == "v"],
        [(ends[c]["e"], ends[c]["v"]) for c in range(len(ends))],
        rotations,
    )


# the square e0 v1 e1 v0 with edge 1 doubling edge 0 between e0 and v0,
# the two bounding a 2-face: edge 1 follows 0 at e0 and 0 follows 1 at v0
SQUARE_WITH_2FACE = {"e0": [0, 1, 2], "v0": [1, 0, 3], "e1": [3, 4], "v1": [2, 4]}

# one planted graph per rule, with its dotted edges; in each only that rule
# can fire first, and the certificate follows from it
PLANTED = {
    "2-face": (SQUARE_WITH_2FACE, [1]),
    # a pendant edge 5 between edges 0 and 1 at e0: its removal makes the 2-face
    "pendant vertex": (
        {"e0": [0, 5, 1, 2], "v0": [1, 0, 3], "e1": [3, 4], "v1": [2, 4], "v2": [5]},
        [1],
    ),
    # edge 1 subdivided into e0 -1- v2 -5- e2 -6- v0: merging e2 into e0
    # through v2 makes edges 0 and 6 a 2-face
    "degree-2 merge": (
        {
            "e0": [0, 1, 2], "v2": [1, 5], "e2": [5, 6], "v0": [6, 0, 3],
            "e1": [3, 4], "v1": [2, 4],
        },
        [0, 1],
    ),
    # v0 joined twice to e0, with clasps on both sides of the two edges
    "degree-2, one neighbour": (
        {"e0": [0, 2, 3, 1, 4, 5], "v0": [1, 0], "v1": [3, 2], "v2": [5, 4]},
        [1],
    ),
}


def removal_lowers_n_minus_s(g, sub) -> bool:
    """Whether the oracle's curl and bigon removal (``unbigon``) on the leaf
    diagram lowers n - s by 2 or more."""
    d = median_diagram(g, sub)
    u = d.unbigon()
    before = d.n_crossings - d.seifert_circle_count()
    return u.n_crossings - u.seifert_circle_count() <= before - 2


def strict_slice_holds(g, sub, memo=None) -> bool:
    """Whether the oracle's z-degree of the leaf diagram is at most n - s - 1."""
    d = median_diagram(g, sub)
    maxdeg = homfly_skein(d, cap=g.n_edges, memo=memo).max_degree_second()
    return maxdeg is None or maxdeg <= d.n_crossings - d.seifert_circle_count() - 1


class TestStrictCertificate:
    @pytest.mark.parametrize("rule", PLANTED)
    def test_planted_rule_certifies(self, rule):
        rotations, dotted = PLANTED[rule]
        g = signed_graph(rotations)
        full = (1 << g.n_edges) - 1
        sub = DecoratedSubgraph(full, sum(1 << c for c in dotted))
        assert strict_bound_certified(g, sub)
        assert strict_slice_holds(g, sub)
        # every edge solid: every bigon is a clasp, and Morton's bound is tight
        solid = DecoratedSubgraph(full, 0)
        assert not strict_bound_certified(g, solid)
        d = median_diagram(g, solid)
        bound = d.n_crossings - d.seifert_circle_count() + 1
        assert homfly_skein(d).max_degree_second() == bound

    @pytest.mark.parametrize("dotted", [[0], [1]])
    def test_edges_consecutive_at_one_end_only_bound_no_2_face(self, dotted):
        # edges 0 and 1 join e0 to v0 and are consecutive at e0, but the
        # clasp of e1 sits between them at v0: they make no bigon, and the
        # strict bound holds with equality, so no move can show it
        g = signed_graph(
            {
                "e0": [0, 1, 2, 7], "v1": [7, 2], "v0": [0, 5, 6, 1, 3, 4],
                "e1": [4, 3], "e2": [6, 5],
            }
        )
        sub = DecoratedSubgraph((1 << g.n_edges) - 1, sum(1 << c for c in dotted))
        assert not strict_bound_certified(g, sub)
        assert not removal_lowers_n_minus_s(g, sub)
        d = median_diagram(g, sub)
        bound = d.n_crossings - d.seifert_circle_count() - 1
        assert homfly_skein(d).max_degree_second() == bound

    @pytest.mark.parametrize(
        "index, absent, dotted",
        [(65, [], [6]), (175, [], [1, 4]), (177, [4], [0, 1, 5, 6, 8])],
    )
    def test_counterexamples_to_unmerged_rule_are_not_certified(
        self, index, absent, dotted
    ):
        # an opposite-signed degree-2 vertex alone proves nothing: these
        # leaves have a nonzero slice at z^(n - s + 1) or z^(n - s)
        g = corpus(0, 220, max_edges=10)[index]
        present = ((1 << g.n_edges) - 1) & ~sum(1 << c for c in absent)
        sub = DecoratedSubgraph(present, sum(1 << c for c in dotted))
        assert not strict_bound_certified(g, sub)
        assert not strict_slice_holds(g, sub)

    # the certificate reads off the graph the moves that ``unbigon`` makes on
    # the diagram, so on these inputs it certifies exactly where removal
    # lowers n - s; every certified leaf's oracle value is audited too
    def test_certified_leaves_have_a_zero_slice(self, graph_corpus, grid_subgraphs):
        memo: dict = {}
        certified = 0
        for g in list(graph_corpus) + [g for g in grid_subgraphs if g.n_edges <= 14]:
            dual = build_dual(g, kappa_edge=0)
            subs = {
                decorated_subgraph_at(g, leaf)
                for r0, kappa in dual.admissible_pairs()
                for leaf in build_arb_tree(dual.with_root(r0, kappa)).type_two_leaves()
            }
            for sub in subs:
                lowers = removal_lowers_n_minus_s(g, sub)
                assert strict_bound_certified(g, sub) == lowers
                if lowers:
                    certified += 1
                    assert strict_slice_holds(g, sub, memo), (g.to_document(), sub)
        assert certified > 1000

    def test_certified_random_subgraphs_have_a_zero_slice(self):
        rng = random.Random(31)
        graphs = corpus(0, 220, max_edges=10)
        memo: dict = {}
        certified = 0
        for _ in range(10000):
            g = rng.choice(graphs)
            present = rng.getrandbits(g.n_edges)
            sub = DecoratedSubgraph(present, present & rng.getrandbits(g.n_edges))
            assert strict_bound_certified(g, sub) == removal_lowers_n_minus_s(g, sub)
            if strict_bound_certified(g, sub):
                certified += 1
                assert strict_slice_holds(g, sub, memo), (g.to_document(), sub)
        assert certified > 1000


class TestPDCode:
    def test_round_trip(self, graph_corpus):
        for g in graph_corpus[:25]:
            d = median_diagram(g)
            if d.free_loops or not d.n_crossings:
                continue
            d2 = LinkDiagram.from_pd(d.pd_code())
            if len(d.split_parts()) == 1:
                assert d2.canonical_code() == d.canonical_code()
            assert homfly_skein(d2) == homfly_skein(d)

    def test_bad_pd_rejected(self):
        with pytest.raises(ValueError):
            LinkDiagram.from_pd({"crossings": [[1, 1, 2, 2]], "signs": [1, 1]})
        with pytest.raises(ValueError):
            LinkDiagram.from_pd({"crossings": [[1, 2, 3, 4]], "signs": [1]})


class TestDiagramValidation:
    def test_bad_permutation_rejected(self):
        with pytest.raises(ValueError):
            LinkDiagram((1,), (0, 0), (0,))

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            LinkDiagram((2,), (1, 0), (0,))

    def test_decorated_subgraph_validates(self):
        with pytest.raises(ValueError):
            DecoratedSubgraph(0b010, 0b100)
