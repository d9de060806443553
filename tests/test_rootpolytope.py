import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, product

import pytest

from homflytop import rootpolytope
from homflytop.planegraph import InvariantError, PlaneBipartiteGraph, build_dual
from homflytop.arborescence import arborescence_count, build_arb_tree
from homflytop.fixtures import k_m2
from homflytop.laurent import Laurent1
from homflytop.rootpolytope import (
    _pair_ids,
    compatible,
    hypertrees,
    spanning_trees,
    triangulation_from_arbtree,
    verify_shelling,
    Triangulation,
    f_vector,
    h_from_f,
    h_from_shelling,
)
from homflytop.fixtures import single_edge, bigon, theta, k32_three_strand
from homflytop.verify import verify_graph

from crosschecks import affine_independence_check


# -- reference implementations: the audits as two passes over edge sets ------


@dataclass
class ReferenceTriangulation:
    """Ordered maximal simplices of the root polytope, with face data.

    Simplices are stored as frozensets of edge ids (spanning trees of the
    graph).  Made once with them: ``pair_ids``, what ``_pair_ids`` gives
    for the graph, ``bits``, the bit of each edge's polytope point
    (parallel edges share one), and ``masks``, each simplex's points.
    """

    graph: PlaneBipartiteGraph
    simplices: list[frozenset[int]]
    dimension: int = field(init=False)
    pair_ids: tuple = field(init=False, repr=False)
    bits: list[int] = field(init=False, repr=False)
    masks: list[int] = field(init=False, repr=False)

    def __post_init__(self):
        self.dimension = self.graph.n_vertices - 2
        self.pair_ids = _pair_ids(self.graph)
        self.bits = [1 << p for p in self.pair_ids[0]]
        self.masks = [sum({self.bits[c] for c in s}) for s in self.simplices]


def reference_check_facets(tri: ReferenceTriangulation):
    """Raise unless the simplices, as many as the hypertrees, triangulate Q_G.

    The facet audit as a pass of its own, each facet keyed by its point
    mask and mapped to the C1 side of its first simplex.
    """
    g = tri.graph
    of_edge, ends, nbrs, *_ = tri.pair_ids
    other_end = [e ^ v for e, v in ends]  # x ^ other_end[p] is p's other end
    n = g.n_vertices
    k = len(g.e_vertices)
    e_class = (1 << k) - 1
    every = (1 << n) - 1
    singletons = [1 << x for x in range(n)]
    # ints only, which the garbage collector does not scan: per facet seen
    # the C1 mask in its first simplex, and the interior facets held once
    # so far, in the order seen
    side: dict[int, int] = {}
    lonely: dict[int, None] = {}
    shared: set[int] = set()  # facets lying in two simplices

    def holder(facet):  # the first simplex holding a facet, for messages
        return next(s for s, m in zip(tri.simplices, tri.masks) if m & facet == facet)

    for simplex, mask in zip(tri.simplices, tri.masks):
        adjacent: list[list[int]] = [[] for _ in range(n)]  # pair ids per vertex
        for c in simplex:
            p = of_edge[c]
            e, v = ends[p]
            adjacent[e].append(p)
            adjacent[v].append(p)
        # breadth-first from vertex 0: parent and pair towards it
        parent_of = [-1] * n
        parent_of[0] = 0
        via = [0] * n
        order = [0]
        for x in order:
            for p in adjacent[x]:
                y = x ^ other_end[p]
                if parent_of[y] < 0:
                    parent_of[y], via[y] = x, p
                    order.append(y)
        below = singletons[:]  # subtree vertices
        reach = nbrs[:]  # their neighbours in G
        for x in reversed(order[1:]):  # children before parents
            p = via[x]
            parent = parent_of[x]
            facet = mask ^ (1 << p)
            c1 = side.get(facet)
            if c1 is None:
                # x is the end of p in C1 if it is an E-vertex, else in C2;
                # a - side edge joins the subtree to a vertex of x's class
                if x < k:
                    c1, same_class = below[x], e_class
                else:
                    c1, same_class = every ^ below[x], every ^ e_class
                side[facet] = c1
                if reach[x] & same_class & ~below[x]:
                    lonely[facet] = None
            elif facet in shared:
                raise InvariantError(
                    f"incompatible simplices: a facet of {sorted(simplex)} "
                    "lies in three simplices"
                )
            elif c1 >> ends[p][0] & 1 or not c1 >> ends[p][1] & 1:
                raise InvariantError(
                    f"incompatible simplices {sorted(holder(facet))} and "
                    f"{sorted(simplex)}: on one side of a shared facet"
                )
            else:
                shared.add(facet)
                lonely.pop(facet, None)
            below[parent] |= below[x]
            reach[parent] |= reach[x]
    if lonely:
        simplex = holder(next(iter(lonely)))
        raise InvariantError(
            f"incompatible simplices: an interior facet of {sorted(simplex)} "
            "lies in no other simplex"
        )


def reference_verify_shelling(tri: ReferenceTriangulation) -> list[int]:
    """Check the stored order is a shelling; return the attach counts.

    The shelling as a pass of its own: R_i read off the set of earlier
    facets, and the earlier simplices containing it found by |R_i| ANDs of
    per-point bitsets built before the pass.
    """
    bits, masks = tri.bits, tri.masks
    of_edge = tri.pair_ids[0]
    rows = [bytearray(len(masks) // 8 + 1) for _ in tri.pair_ids[1]]
    for j, simplex in enumerate(tri.simplices):
        for c in simplex:
            rows[of_edge[c]][j >> 3] |= 1 << (j & 7)
    holders = [int.from_bytes(row, "little") for row in rows]
    facets: set[int] = set()  # facets of the earlier simplices
    counts = []
    for i, (simplex, mask) in enumerate(zip(tri.simplices, masks)):
        count = 0
        containing = (1 << i) - 1  # earlier simplices holding R_i so far
        for c in simplex:
            if mask ^ bits[c] in facets:
                count += 1
                containing &= holders[of_edge[c]]
        if containing:
            raise InvariantError(
                f"simplex {i} meets an earlier simplex outside its "
                "shared facets: not a shelling"
            )
        counts.append(count)
        facets.update(mask ^ bits[c] for c in simplex)
    return counts


def points(tri, simplex):
    """The polytope points of a simplex given as an edge mask."""
    return {tri.graph.edges[c] for c in range(tri.graph.n_edges) if simplex >> c & 1}


def triangulate(tree):
    """The triangulation of a full tree's type-I leaves, as ``verify`` makes it."""
    return triangulation_from_arbtree(tree.dual, tree.type_one_leaves())


def edge_sets(tri):
    """The simplices of a triangulation as frozensets of edge ids."""
    return [frozenset(s) for s in tri.to_json()["simplices"]]


def as_reference(tri):
    return ReferenceTriangulation(tri.graph, edge_sets(tri))


def cycle(k):
    """The cycle e0 v0 e1 v1 ... e(k-1) v(k-1) of 2k edges."""
    edges = [(f"e{(i + 1) // 2 % k}", f"v{i // 2}") for i in range(2 * k)]
    rotations = {}
    for c, (e, v) in enumerate(edges):
        rotations.setdefault(e, []).append(c)
        rotations.setdefault(v, []).append(c)
    return PlaneBipartiteGraph(
        [f"e{i}" for i in range(k)], [f"v{i}" for i in range(k)], edges, rotations
    )


# -- reference implementations: the exhaustive definitions --------------------


def reference_f(tri):
    """Face counts from every subset of every simplex's points."""
    bit = {}
    faces = set()  # as point bitmasks
    for simplex in tri.simplices:
        mask = 0
        for pt in points(tri, simplex):
            mask |= bit.setdefault(pt, 1 << len(bit))
        faces.add(0)  # the empty face
        face = mask
        while face:  # every nonempty subset, by submask enumeration
            faces.add(face)
            face = (face - 1) & mask
    sizes = Counter(face.bit_count() for face in faces)
    return Laurent1({tri.dimension + 1 - k: c for k, c in sizes.items()}, "y")


def reference_shelling(tri):
    """Attach counts from the faces of each simplex, or the message for the
    first simplex with a face in an earlier simplex but in none of its own
    facets lying in an earlier simplex."""
    bit = {}
    covered = set()  # faces of the earlier simplices, as point bitmasks
    counts = []
    for i, simplex in enumerate(tri.simplices):
        mask = 0
        for pt in points(tri, simplex):
            mask |= bit.setdefault(pt, 1 << len(bit))
        faces = [mask]
        while faces[-1]:
            faces.append((faces[-1] - 1) & mask)
        shared = [f for f in faces if (mask ^ f).bit_count() == 1 and f in covered]
        for face in faces:
            if face in covered and not any(face & f == face for f in shared):
                return (
                    f"simplex {i} meets an earlier simplex outside its "
                    "shared facets: not a shelling"
                )
        counts.append(len(shared))
        covered.update(faces)
    return counts


def quadratic_shelling(tri):
    """Attach counts, reading R_i off the earlier facets and scanning every
    earlier simplex for one containing it."""
    tri = as_reference(tri)
    bits, masks = tri.bits, tri.masks
    facets = set()
    counts = []
    for i, (simplex, mask) in enumerate(zip(tri.simplices, masks)):
        restriction = 0
        for c in simplex:
            if mask ^ bits[c] in facets:
                restriction |= bits[c]
        if any(restriction & earlier == restriction for earlier in masks[:i]):
            raise InvariantError(
                f"simplex {i} meets an earlier simplex outside its "
                "shared facets: not a shelling"
            )
        counts.append(restriction.bit_count())
        facets.update(mask ^ bits[c] for c in simplex)
    return counts


def facet_holders(g, simplices):
    """Per facet, as a set of polytope points, the number of simplices
    holding it."""
    count = Counter()
    for simplex in simplices:
        points = frozenset(g.edges[c] for c in simplex)
        count.update(points - {p} for p in points)
    return count


def edge_mask(edges):
    return sum(1 << c for c in edges)


def report_simplices(tree, g, simplices):
    """Make the tree report the complements of the given spanning trees as
    its type-I leaves, so that they become the triangulation's simplices."""
    all_edges = frozenset(range(g.n_edges))
    leaves = [(edge_mask(all_edges - s), 0) for s in simplices]
    tree.type_one_leaves = lambda: leaves


def triangulation_of(g):
    return triangulate(build_arb_tree(build_dual(g, kappa_edge=0)))


def quadrilateral():
    """Four-cycle e0 v0 e1 v1."""
    return PlaneBipartiteGraph(
        ["e0", "e1"],
        ["v0", "v1"],
        [("e0", "v0"), ("e0", "v1"), ("e1", "v0"), ("e1", "v1")],
        {"e0": [0, 1], "e1": [2, 3], "v0": [0, 2], "v1": [1, 3]},
    )


class TestAffineIndependence:
    def test_empty_set(self):
        g, _ = k32_three_strand()
        assert affine_independence_check(g, []) == (True, True)

    def test_parallel_edges_are_dependent(self):
        g, _ = bigon()
        assert affine_independence_check(g, [0, 1]) == (False, False)

    def test_spanning_trees_of_k32_are_independent(self):
        g, _ = k32_three_strand()
        for tree in spanning_trees(g):
            forest, affine = affine_independence_check(g, tree)
            assert forest and affine

    def test_cycles_are_dependent(self):
        g = quadrilateral()
        assert affine_independence_check(g, [0, 1, 2, 3]) == (False, False)

    def test_iterator_is_read_once_for_both_tests(self):
        g, _ = k32_three_strand()
        assert affine_independence_check(g, iter(range(6))) == (False, False)


def _compatible_bruteforce(g, t1, t2):
    """Exhaustive alternating-cycle search over vertex tuples."""
    from itertools import permutations

    step_one = {}
    for c in t1:
        e, v = g.edges[c]
        step_one.setdefault(e, set()).add(v)
    step_two = {}
    for c in t2:
        e, v = g.edges[c]
        step_two.setdefault(v, set()).add(e)
    k_max = min(len(g.e_vertices), len(g.v_vertices))
    for k in range(2, k_max + 1):
        for es in permutations(g.e_vertices, k):
            if es[0] != min(es):
                continue
            for vs in permutations(g.v_vertices, k):
                if all(
                    vs[i] in step_one.get(es[i], ())
                    and es[(i + 1) % k] in step_two.get(vs[i], ())
                    for i in range(k)
                ):
                    return False
    return True


class TestCompatibility:
    def test_tree_with_itself(self):
        g, _ = k32_three_strand()
        tree = spanning_trees(g)[0]
        assert compatible(g, tree, tree)

    def test_agrees_with_exhaustive_search(self, graph_corpus, grid_subgraphs):
        rng = random.Random(99)
        checked = incompatible = 0
        for g in graph_corpus[:30]:
            trees = spanning_trees(g)
            for _ in range(min(12, len(trees) * len(trees))):
                t1, t2 = rng.choice(trees), rng.choice(trees)
                fast = compatible(g, t1, t2)
                assert fast == _compatible_bruteforce(g, t1, t2)
                checked += 1
                incompatible += not fast
        assert checked > 100
        assert incompatible > 0
        # edge sets of any size, cycles included, on the corpus and the
        # 2x3, 2x4 and 3x3 grid subgraphs
        rng = random.Random(7)
        outcomes = []
        for g in list(graph_corpus[::4]) + grid_subgraphs[:33]:
            for _ in range(40):
                t1, t2 = (
                    {c for c in range(g.n_edges) if rng.random() < 0.5}
                    for _ in range(2)
                )
                fast = compatible(g, t1, t2)
                assert fast == _compatible_bruteforce(g, t1, t2)
                outcomes.append(fast)
        assert outcomes.count(False) > 100 and outcomes.count(True) > 100

    def test_disjoint_trees_of_quadrilateral_clash(self):
        g = quadrilateral()
        assert not compatible(g, {0, 3}, {1, 2})
        assert compatible(g, {0, 3}, {0, 3})

    def test_triangulation_trees_pairwise_compatible(self):
        g, dual = k32_three_strand()
        tree = build_arb_tree(dual)
        tri = triangulate(tree)
        for s1, s2 in combinations(edge_sets(tri), 2):
            assert compatible(g, s1, s2)


class TestHypertrees:
    def test_single_edge(self):
        g, _ = single_edge()
        assert hypertrees(g) == {(0,)}

    def test_theta(self):
        g, _ = theta()
        assert hypertrees(g) == {(0,)}

    def test_k32(self):
        g, _ = k32_three_strand()
        assert hypertrees(g) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
        assert len(spanning_trees(g)) == 12

    def test_count_is_the_dual_arborescence_count(self, graph_corpus, grid_subgraphs):
        for g in list(graph_corpus) + grid_subgraphs:
            count = len(hypertrees(g))
            dual = build_dual(g, kappa_edge=0)
            for r0, kappa in dual.admissible_pairs():
                assert arborescence_count(dual.with_root(r0, kappa)) == count

    def test_per_graph_count_is_the_count_at_every_root(
        self, graph_corpus, grid_subgraphs
    ):
        # the dual is balanced, so one root's count serves for every root
        for g in list(graph_corpus) + grid_subgraphs:
            count = g.table(rootpolytope._hypertree_count)
            dual = build_dual(g, kappa_edge=0)
            for r0, kappa in dual.admissible_pairs():
                assert arborescence_count(dual.with_root(r0, kappa)) == count

    def test_rejects_a_vector_breaking_one_subset_bound(self, graph_corpus, grid_graph):
        # Postnikov's characterization both ways: the hypertrees are the box
        # vectors with sum |V| - 1 and f(S) <= |N(S)| - 1 for every nonempty
        # S of E; on the 2x4 grid some vectors break exactly one bound
        for g in list(graph_corpus) + [grid_graph(2, 4)]:
            nbrs = [{v for e, v in g.edges if e == x} for x in g.e_vertices]
            subsets = [
                s for k in range(1, len(nbrs) + 1)
                for s in combinations(range(len(nbrs)), k)
            ]
            meeting, broken_once = set(), []
            for f in product(*(range(len(n)) for n in nbrs)):
                if sum(f) != len(g.v_vertices) - 1:
                    continue
                broken = [
                    s for s in subsets
                    if sum(f[i] for i in s)
                    > len(set().union(*(nbrs[i] for i in s))) - 1
                ]
                if not broken:
                    meeting.add(f)
                elif len(broken) == 1:
                    broken_once.append(f)
            assert hypertrees(g) == meeting
        assert broken_once


class TestTriangulation:
    def test_single_edge_is_a_point(self):
        g, dual = single_edge()
        tri = triangulate(build_arb_tree(dual))
        assert tri.dimension == 0
        assert len(tri.simplices) == 1

    def test_bigon_is_a_point(self):
        g, dual = bigon()
        tri = triangulate(build_arb_tree(dual))
        assert tri.dimension == 0
        assert len(tri.simplices) == 1

    def test_k32_three_tetrahedra(self):
        g, dual = k32_three_strand()
        tri = triangulate(build_arb_tree(dual))
        assert tri.dimension == 3
        assert edge_sets(tri) == [
            frozenset({0, 2, 4, 5}),
            frozenset({0, 2, 3, 5}),
            frozenset({0, 1, 3, 5}),
        ]

    def test_simplex_count_is_hypertree_count(self, graph_corpus):
        for g in graph_corpus[:80]:
            dual = build_dual(g, kappa_edge=0)
            tri = triangulate(build_arb_tree(dual))
            assert len(tri.simplices) == len(hypertrees(g))

    def test_answer_path_enumerates_no_hypertrees(self, monkeypatch, grid_graph):
        def refuse(g):
            raise AssertionError("hypertrees enumerated")

        monkeypatch.setattr(rootpolytope, "hypertrees", refuse)
        for g in (k32_three_strand()[0], grid_graph(3, 3, (4,))):
            dual = build_dual(g, kappa_edge=0)
            assert len(dual.admissible_pairs()) > 1
            assert verify_graph(g, dual).ok
        # a short list still fails the count
        tree = build_arb_tree(build_dual(g, kappa_edge=0))
        leaves = tree.type_one_leaves()
        tree.type_one_leaves = lambda: leaves[:-1]
        with pytest.raises(InvariantError, match="hypertrees"):
            triangulate(tree)


class TestTriangulationRejectsBadInput:
    """The audits inside triangulation_from_arbtree catch planted faults."""

    def test_dropped_simplex_breaks_the_hypertree_count(self, grid_graph):
        for g in (quadrilateral(), k32_three_strand()[0], grid_graph(3, 3, (4,))):
            tree = build_arb_tree(build_dual(g, kappa_edge=0))
            leaves = tree.type_one_leaves()
            tree.type_one_leaves = lambda: leaves[:-1]
            with pytest.raises(InvariantError, match="hypertrees"):
                triangulate(tree)

    @pytest.mark.parametrize("shape", ["quadrilateral", "grid-3x3"])
    def test_swapped_in_incompatible_tree(self, grid_graph, shape):
        g = quadrilateral() if shape == "quadrilateral" else grid_graph(3, 3, (4,))
        tree = build_arb_tree(build_dual(g, kappa_edge=0))
        leaves = tree.type_one_leaves()
        all_edges = frozenset(range(g.n_edges))
        simplices = [
            frozenset(c for c in all_edges if not a >> c & 1) for a, _ in leaves
        ]
        swap = next(
            t for t in spanning_trees(g)
            if t not in simplices and not compatible(g, simplices[0], t)
        )
        # same simplex count, so only the compatibility audit can object
        mutated = leaves[:-1] + [(edge_mask(all_edges - swap), leaves[-1][1])]
        tree.type_one_leaves = lambda: mutated
        with pytest.raises(InvariantError, match="incompatible"):
            triangulate(tree)

    def test_parallel_twin_repeats_a_vertex_set(self, graph_corpus):
        # swapping an edge for its parallel twin keeps the simplex's points
        # and the count, so only the distinct-vertex-set check can object
        def twin_swaps(g, simplices):
            for j, simplex in enumerate(simplices):
                for c in simplex:
                    for twin in range(g.n_edges):
                        if twin != c and g.edges[twin] == g.edges[c]:
                            yield j, simplex - {c} | {twin}

        for g in graph_corpus:
            tree = build_arb_tree(build_dual(g, kappa_edge=0))
            simplices = edge_sets(triangulate(tree))
            j, copy = next(twin_swaps(g, simplices), (None, None))
            if copy is not None and len(simplices) > 1:
                break
        else:
            raise AssertionError("no corpus graph with a parallel twin to swap")
        i = 1 if j == 0 else 0  # any simplex other than j
        report_simplices(tree, g, simplices[:i] + [copy] + simplices[i + 1:])
        with pytest.raises(InvariantError, match="share the same vertex set"):
            triangulate(tree)


class TestFacetAudit:
    """The facet audit inside triangulation_from_arbtree against the
    pairwise compatibility oracle, and the three ways a facet can fail."""

    def test_accepts_every_triangulation(self, graph_corpus, grid_subgraphs):
        checked = 0
        for g in list(graph_corpus) + grid_subgraphs:
            dual = build_dual(g, kappa_edge=0)
            for r0, kappa in dual.admissible_pairs()[:3]:
                tree = build_arb_tree(dual.with_root(r0, kappa))
                simplices = edge_sets(triangulate(tree))
                for s1, s2 in combinations(simplices, 2):
                    assert compatible(g, s1, s2)
                checked += len(simplices) > 2
        assert checked > 50

    def test_swap_raises_iff_some_pair_is_incompatible(self, grid_subgraphs):
        # the full 2x4, 3x3 and 3x4 grids, each with two of its subgraphs
        graphs = grid_subgraphs[11:14] + grid_subgraphs[22:25] + grid_subgraphs[33:36]
        rng = random.Random(11)
        outcomes = []
        for g in graphs:
            tree = build_arb_tree(build_dual(g, kappa_edge=0))
            simplices = edge_sets(triangulate(tree))
            trees = spanning_trees(g)
            for draw in range(9):
                i = rng.randrange(len(simplices))
                others = simplices[:i] + simplices[i + 1:]
                # the first draw puts the simplex back: the list stays valid
                swap = simplices[i] if draw == 0 else rng.choice(
                    [t for t in trees if t not in others]
                )
                mutated = others[:i] + [swap] + others[i:]
                oracle = all(compatible(g, a, b) for a, b in combinations(mutated, 2))
                report_simplices(tree, g, mutated)
                try:
                    triangulate(tree)
                except InvariantError as exc:
                    assert str(exc).startswith("incompatible simplices")
                    outcomes.append(False)
                else:
                    outcomes.append(True)
                assert outcomes[-1] == oracle
        assert outcomes.count(True) >= len(graphs)
        assert outcomes.count(False) > 50

    @staticmethod
    def swap_last(g, simplices, wanted):
        """The simplices with the last one replaced by the first spanning
        tree for which ``wanted`` holds of {facet: count among the others}."""
        others = simplices[:-1]
        held = facet_holders(g, others)
        for tree in spanning_trees(g):
            points = frozenset(g.edges[c] for c in tree)
            if wanted({points - {p}: held[points - {p}] for p in points}):
                return others + [tree]
        raise AssertionError("no such spanning tree")

    def check_swap_raises(self, g, wanted, message):
        tree = build_arb_tree(build_dual(g, kappa_edge=0))
        simplices = edge_sets(triangulate(tree))
        report_simplices(tree, g, self.swap_last(g, simplices, wanted(g, simplices)))
        with pytest.raises(InvariantError, match=message):
            triangulate(tree)

    @pytest.mark.parametrize("shape", [(3, 3), (3, 4)])
    def test_facet_of_two_simplices_on_one_side(self, grid_graph, shape):
        def wanted(g, simplices):
            # a facet held once in a triangulation lies on the boundary, so
            # a second simplex holding it lies on the same side
            boundary = {f for f, n in facet_holders(g, simplices).items() if n == 1}
            return lambda held: max(held.values()) == 1 and any(
                n == 1 and f in boundary for f, n in held.items()
            )

        self.check_swap_raises(
            grid_graph(*shape), wanted, "on one side of a shared facet"
        )

    @pytest.mark.parametrize("shape", [(3, 3), (3, 4)])
    def test_facet_in_three_simplices(self, grid_graph, shape):
        # one facet already held by two others, the rest by none
        self.check_swap_raises(
            grid_graph(*shape),
            lambda g, simplices: lambda held: sorted(held.values())[-2:] == [0, 2],
            "lies in three simplices",
        )

    @pytest.mark.parametrize("shape", [(3, 3), (3, 4)])
    def test_interior_facet_in_one_simplex(self, grid_graph, shape):
        # no facet of the new simplex is held by another one, so the audit
        # can only object to the facets left held once
        self.check_swap_raises(
            grid_graph(*shape),
            lambda g, simplices: lambda held: max(held.values()) == 0,
            "lies in no other simplex",
        )


class TestShellingAndVectors:
    def test_point_triangulations(self):
        for fixture in (single_edge, bigon):
            g, dual = fixture()
            tri = triangulate(build_arb_tree(dual))
            assert verify_shelling(tri) == [0]
            assert f_vector(tri) == Laurent1({1: 1, 0: 1})
            assert h_from_f(f_vector(tri)) == Laurent1({1: 1})

    def test_k32_shelling(self):
        g, dual = k32_three_strand()
        tri = triangulate(build_arb_tree(dual))
        counts = verify_shelling(tri)
        assert counts == [0, 1, 1]
        f = f_vector(tri)
        assert f == Laurent1({4: 1, 3: 6, 2: 12, 1: 10, 0: 3})
        h = h_from_f(f)
        assert h == Laurent1({4: 1, 3: 2})
        assert h == h_from_shelling(counts, tri.dimension)
        assert h.eval_int(1) == 3

    def test_attach_counts_match_skipped_counts(self, graph_corpus):
        for g in graph_corpus[:60]:
            dual = build_dual(g, kappa_edge=0)
            for r0, kappa in dual.admissible_pairs():
                rooted = dual.with_root(r0, kappa)
                tree = build_arb_tree(rooted)
                tri = triangulate(tree)
                counts = verify_shelling(tri)
                skipped = [k for _, k in tree.type_one_leaves()]
                assert sorted(counts) == sorted(skipped)

    def test_shelling_matches_face_reference(self, graph_corpus, grid_subgraphs):
        rng = random.Random(9)
        outcomes = []
        for g in list(graph_corpus) + grid_subgraphs:
            dual = build_dual(g, kappa_edge=0)
            for r0, kappa in dual.admissible_pairs()[:3]:
                tri = triangulate(build_arb_tree(dual.with_root(r0, kappa)))
                orders = [tri.simplices] + [
                    rng.sample(tri.simplices, len(tri.simplices)) for _ in range(2)
                ]
                for order in orders:
                    ordered = Triangulation(g, order)
                    try:
                        found = verify_shelling(ordered)
                    except InvariantError as exc:
                        found = str(exc)
                    assert found == reference_shelling(ordered)
                    outcomes.append(isinstance(found, str))
        assert outcomes.count(True) > 50 and outcomes.count(False) > 1000

    def test_f_vector_matches_subset_reference(self, graph_corpus, grid_subgraphs):
        pairs = 0
        for g in list(graph_corpus) + grid_subgraphs:
            dual = build_dual(g, kappa_edge=0)
            for r0, kappa in dual.admissible_pairs():
                tri = triangulate(build_arb_tree(dual.with_root(r0, kappa)))
                assert f_vector(tri) == reference_f(tri)
                pairs += 1
        assert pairs > 1000

    def test_f_vector_any_order_matches_reference(self, graph_corpus, grid_subgraphs):
        # f on a shelling order, the message of verify_shelling on any other
        rng = random.Random(8)
        outcomes = []
        for g in list(graph_corpus[:60]) + grid_subgraphs[::3]:
            tri = triangulation_of(g)
            for _ in range(3):
                order = tri.simplices[:]
                rng.shuffle(order)
                for ordered in (
                    Triangulation(g, order),
                    Triangulation(g, order[: rng.randint(0, len(order))]),
                ):
                    try:
                        verify_shelling(ordered)
                    except InvariantError as exc:
                        with pytest.raises(InvariantError) as raised:
                            f_vector(ordered)
                        assert str(raised.value) == str(exc)
                        outcomes.append(False)
                    else:
                        assert f_vector(ordered) == reference_f(ordered)
                        outcomes.append(True)
        assert outcomes.count(True) > 300 and outcomes.count(False) > 30

    def test_indexed_passes_match_quadratic_ones(self, graph_corpus, grid_subgraphs):
        rng = random.Random(13)
        raised = 0
        for g in list(graph_corpus) + grid_subgraphs:
            dual = build_dual(g, kappa_edge=0)
            for r0, kappa in dual.admissible_pairs()[:3]:
                tri = triangulate(build_arb_tree(dual.with_root(r0, kappa)))
                expected_f = reference_f(tri)  # the same for every order
                orders = [tri.simplices] + [
                    rng.sample(tri.simplices, len(tri.simplices)) for _ in range(2)
                ]
                for order in orders:
                    ordered = Triangulation(g, order)
                    outcomes = []
                    for run in (verify_shelling, quadratic_shelling, f_vector):
                        try:
                            outcomes.append(run(ordered))
                        except InvariantError as exc:
                            outcomes.append(str(exc))
                    assert outcomes[0] == outcomes[1]
                    if isinstance(outcomes[0], str):
                        assert outcomes[2] == outcomes[0]
                        raised += 1
                    else:
                        assert outcomes[2] == expected_f
        assert raised > 50

    def test_two_h_routes_agree(self, graph_corpus):
        for g in graph_corpus[:60]:
            dual = build_dual(g, kappa_edge=0)
            tree = build_arb_tree(dual)
            tri = triangulate(tree)
            counts = verify_shelling(tri)
            assert h_from_f(f_vector(tri)) == h_from_shelling(counts, tri.dimension)

    def test_h_count_equals_simplices(self, graph_corpus):
        for g in graph_corpus[:60]:
            dual = build_dual(g, kappa_edge=0)
            tri = triangulate(build_arb_tree(dual))
            h = h_from_f(f_vector(tri))
            assert h.eval_int(1) == len(tri.simplices)

    def test_h_independent_of_choices(self, graph_corpus):
        for g in graph_corpus[:40]:
            dual = build_dual(g, kappa_edge=0)
            values = set()
            for r0, kappa in dual.admissible_pairs():
                rooted = dual.with_root(r0, kappa)
                tri = triangulate(build_arb_tree(rooted))
                values.add(h_from_f(f_vector(tri)))
            assert len(values) == 1


class TestOnePass:
    """The facet pass against the facet audit and the shelling run as two
    passes (``reference_check_facets``, ``reference_verify_shelling``)."""

    @staticmethod
    def outcomes(g, simplices):
        """(facet fault, attach counts or shelling fault), one pass and
        reference, for simplices given as edge sets."""
        tri = Triangulation(g, [sum(1 << c for c in s) for s in simplices])
        fault = rootpolytope._facet_pass(tri)
        try:
            shelled = verify_shelling(tri)
        except InvariantError as exc:
            shelled = str(exc)
        reference = ReferenceTriangulation(g, simplices)
        try:
            reference_check_facets(reference)
            expected_fault = None
        except InvariantError as exc:
            expected_fault = str(exc)
        try:
            expected = reference_verify_shelling(reference)
        except InvariantError as exc:
            expected = str(exc)
        assert (fault, shelled) == (expected_fault, expected)
        return fault, shelled

    @staticmethod
    def graphs(graph_corpus, grid_graph):
        # parallel edges, grids, and a cycle of 80 points, whose facet keys
        # are bytes
        parallel = [g for g in graph_corpus if len(set(g.edges)) < g.n_edges]
        return parallel[:20] + [
            k32_three_strand()[0], grid_graph(3, 3), grid_graph(3, 4), cycle(40),
        ]

    def test_valid_orders_and_shuffles(self, graph_corpus, grid_graph):
        rng = random.Random(21)
        outcomes = []
        for g in self.graphs(graph_corpus, grid_graph):
            simplices = edge_sets(triangulation_of(g))
            assert self.outcomes(g, simplices) == (None, verify_shelling(triangulation_of(g)))
            for _ in range(3):
                outcomes.append(self.outcomes(g, rng.sample(simplices, len(simplices))))
        assert all(fault is None for fault, _ in outcomes)
        assert any(isinstance(shelled, str) for _, shelled in outcomes)

    def test_planted_faults(self, graph_corpus, grid_graph):
        faults = Counter()
        for g in self.graphs(graph_corpus, grid_graph):
            simplices = edge_sets(triangulation_of(g))
            if len(simplices) < 3:
                continue
            planted = {
                "last simplex second": simplices[:1] + simplices[-1:] + simplices[1:-1],
                "duplicated simplex": simplices + simplices[1:2],
                "dropped simplex": simplices[:-1],
            }
            try:
                planted["third holder"] = TestFacetAudit.swap_last(
                    g, simplices, lambda held: sorted(held.values())[-2:] == [0, 2]
                )
            except AssertionError:  # no facet is held twice by the others
                pass
            for name, order in planted.items():
                fault, shelled = self.outcomes(g, order)
                kind = fault and fault.rsplit(": ", 1)[-1]
                faults[name, kind, isinstance(shelled, str)] += 1
        # every kind of fault is planted and found, on the cycle too
        assert faults["last simplex second", None, True] >= 3
        assert faults["duplicated simplex", "on one side of a shared facet", True] >= 3
        assert sum(
            n for (name, kind, _), n in faults.items()
            if name == "dropped simplex" and kind.endswith("lies in no other simplex")
        ) >= 3
        assert sum(
            n for (name, kind, _), n in faults.items()
            if name == "third holder" and kind.endswith("lies in three simplices")
        ) >= 3

    def test_construction_checks_vertex_sets_before_facets(self, grid_graph):
        # a repeated simplex also repeats every facet; the vertex-set check
        # runs first and names the fault
        g = grid_graph(3, 3)
        tree = build_arb_tree(build_dual(g, kappa_edge=0))
        simplices = edge_sets(triangulate(tree))
        report_simplices(tree, g, simplices[:-1] + simplices[:1])
        with pytest.raises(InvariantError, match="share the same vertex set"):
            triangulate(tree)

    def test_pass_runs_once_per_triangulation(self, monkeypatch, grid_graph):
        calls = []
        one_pass = rootpolytope._facet_pass

        def counting(tri):
            calls.append(tri)
            return one_pass(tri)

        monkeypatch.setattr(rootpolytope, "_facet_pass", counting)
        g = grid_graph(3, 3)
        tri = triangulation_of(g)
        counts = verify_shelling(tri)
        assert f_vector(tri) == f_vector(tri)
        assert calls == [tri]
        # built directly, the pass runs at the first shelling test
        ordered = Triangulation(g, tri.simplices[::-1])
        assert calls == [tri]
        assert sorted(verify_shelling(ordered)) == sorted(counts)
        verify_shelling(ordered)
        assert calls == [tri, ordered]

    @pytest.mark.parametrize("k", [30, 31, 200])
    def test_wide_facet_keys(self, k):
        # 2k points: facet masks past 60 bits are keyed by their bytes
        g = cycle(k)
        tree = build_arb_tree(build_dual(g, kappa_edge=0))
        tri = triangulate(tree)
        assert len(tri.simplices) == k
        counts = verify_shelling(tri)
        assert counts == reference_verify_shelling(as_reference(tri))
        assert counts == [n for _, n in tree.type_one_leaves()]
