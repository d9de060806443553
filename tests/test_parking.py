from itertools import product

import pytest

from homflytop import parking
from homflytop.planegraph import InvariantError, build_dual
from homflytop.arborescence import (
    _bit_positions,
    arborescence_count,
    build_arb_tree,
    clocked_arborescence,
    spanning_arborescences_bruteforce,
)
from homflytop.laurent import Laurent1, Laurent2
from homflytop.parking import (
    is_parking_function,
    enumerate_parking,
    parking_enumerator,
    parking_for_dual,
    parking_from_leaf,
    arborescence_from_parking,
    leaf_enumerator,
)
from homflytop.fixtures import single_edge, bigon, theta, k32_three_strand, k_m2

from crosschecks import (
    doubled_digraph, relative_indegree, tutte, tutte_doubled_identity, tutte_dual_identity
)


def reference_is_parking_function(values, n_vertices, arcs, r0):
    """The subset definition, over every nonempty subset of non-root vertices."""
    others = [r for r in range(n_vertices) if r != r0]
    if set(values) != set(others):
        raise ValueError("function must be defined exactly on the non-root vertices")
    for mask in range(1, 1 << len(others)):
        subset = {others[i] for i in range(len(others)) if mask >> i & 1}
        if not any(values[r] < relative_indegree(arcs, subset, r) for r in subset):
            return False
    return True


def reference_enumerate_parking(n_vertices, arcs, r0):
    """Every function of the value box below the in-degrees that passes the
    burning test, in the box's lexicographic order."""
    others = [r for r in range(n_vertices) if r != r0]
    bounds = [range(sum(1 for t, h in arcs if h == r and t != r)) for r in others]
    out = []
    for combo in product(*bounds):
        values = dict(zip(others, combo))
        if is_parking_function(values, n_vertices, arcs, r0):
            out.append(values)
    return out


def reference_parking_from_leaf(dual, a, s):
    """The leaf's image filled into a dict edge by edge, the reference for
    the count over a list of the faces."""
    if a.bit_count() != dual.n_vertices - 1:
        raise ValueError("leaf is not type I: arborescence is not spanning")
    values = {r: 0 for r in range(dual.n_vertices) if r != dual.r0}
    for c in _bit_positions(s):
        head = dual.head[c]
        if head == dual.r0:
            raise InvariantError("skipped edge points at the root")
        values[head] += 1
    return values


def outcome(f, *args):
    """What ``f(*args)`` returns, or the type and message of its exception."""
    try:
        return f(*args)
    except (InvariantError, ValueError) as exc:
        return type(exc), str(exc)


def k32_rooted():
    _, dual = k32_three_strand()
    return dual


class TestRelativeIndegree:
    def test_k32_singletons(self):
        dual = k32_rooted()
        others = [r for r in range(3) if r != dual.r0]
        for r in others:
            assert relative_indegree(dual.arcs(), {r}, r) == 2

    def test_k32_pair(self):
        dual = k32_rooted()
        others = {r for r in range(3) if r != dual.r0}
        for r in others:
            assert relative_indegree(dual.arcs(), others, r) == 1

    def test_bigon(self):
        _, dual = bigon()
        other = 1 - dual.r0
        assert relative_indegree(dual.arcs(), {other}, other) == 1

    def test_membership_required(self):
        dual = k32_rooted()
        with pytest.raises(ValueError):
            relative_indegree(dual.arcs(), {0}, 1)


class TestParkingPredicate:
    def test_k32_values(self):
        dual = k32_rooted()
        others = sorted(r for r in range(3) if r != dual.r0)
        a, b = others

        def check(x, y):
            return is_parking_function({a: x, b: y}, 3, dual.arcs(), dual.r0)

        assert check(0, 0) and check(0, 1) and check(1, 0)
        assert not check(1, 1)
        assert not check(2, 0)

    def test_empty_domain_is_vacuously_parking(self):
        _, dual = single_edge()
        assert is_parking_function({}, 1, dual.arcs(), dual.r0)

    def test_wrong_domain_rejected(self):
        dual = k32_rooted()
        with pytest.raises(ValueError):
            is_parking_function({0: 0}, 3, dual.arcs(), dual.r0)


class TestBurningMatchesSubsetDefinition:
    """Every function in a box one wider than the value range on each side,
    at the first three roots that have an admissible kappa."""

    @staticmethod
    def agree_on_value_box(dual):
        # the dual's shared test reads the same values with -1 at the root
        shared = dual.graph.table(parking._dual_burning_test)
        checked = accepted = 0
        for r0 in sorted(set(dual.head))[:3]:
            kappa = dual.head.index(r0)
            rooted = dual.with_root(r0, kappa)
            arcs = rooted.arcs()
            others = [r for r in range(rooted.n_vertices) if r != r0]
            boxes = [
                range(-1, sum(1 for t, h in arcs if h == r and t != r) + 1)
                for r in others
            ]
            for combo in product(*boxes):
                values = dict(zip(others, combo))
                fast = is_parking_function(values, rooted.n_vertices, arcs, r0)
                expected = reference_is_parking_function(
                    values, rooted.n_vertices, arcs, r0
                )
                listed = [values.get(r, -1) for r in range(rooted.n_vertices)]
                assert fast == shared(listed) == expected
                checked += 1
                accepted += fast
        return checked, accepted

    def test_corpus(self, graph_corpus):
        checked = accepted = 0
        for g in graph_corpus:
            c, a = self.agree_on_value_box(build_dual(g, kappa_edge=0))
            checked += c
            accepted += a
        assert 0 < accepted < checked

    def test_grid_subgraphs(self, grid_subgraphs):
        checked = accepted = 0
        for g in grid_subgraphs:
            if g.n_faces > 5:
                continue
            c, a = self.agree_on_value_box(build_dual(g, kappa_edge=0))
            checked += c
            accepted += a
        assert 0 < accepted < checked


class TestEnumeration:
    def test_single_edge(self):
        _, dual = single_edge()
        parkings, p = parking_for_dual(dual)
        assert parkings == [{}]
        assert p == 1

    def test_bigon(self):
        _, dual = bigon()
        _, p = parking_for_dual(dual)
        assert p == 1

    def test_k32(self):
        dual = k32_rooted()
        parkings, p = parking_for_dual(dual)
        assert p == Laurent1({0: 1, 1: 2}, "u")
        assert len(parkings) == 3
        assert p.eval_int(1) == 3

    def test_root_independence(self, graph_corpus):
        for g in graph_corpus[:60]:
            dual = build_dual(g, kappa_edge=0)
            values = set()
            for r0 in range(dual.n_vertices):
                kappas = [c for c in range(dual.n_edges) if dual.head[c] == r0]
                if not kappas:
                    continue
                rooted = dual.with_root(r0, kappas[0])
                _, p = parking_for_dual(rooted)
                values.add(p)
            assert len(values) == 1


class TestDownSetSearch:
    """The depth-first search over the down-set against the box sweep,
    order and key order included."""

    @staticmethod
    def agree(n_vertices, arcs, r0):
        found = enumerate_parking(n_vertices, arcs, r0)
        expected = reference_enumerate_parking(n_vertices, arcs, r0)
        assert found == expected
        assert [list(v) for v in found] == [list(v) for v in expected]
        return len(found)

    @classmethod
    def agree_at_every_root(cls, dual):
        for r0 in sorted(set(dual.head)):
            cls.agree(dual.n_vertices, dual.arcs(), r0)

    def test_corpus(self, graph_corpus):
        for g in graph_corpus:
            self.agree_at_every_root(build_dual(g, kappa_edge=0))

    def test_grid_subgraphs(self, grid_subgraphs):
        for g in grid_subgraphs:
            self.agree_at_every_root(build_dual(g, kappa_edge=0))

    @pytest.mark.parametrize(
        "edges",
        [[(0, 1)], [(0, 1), (1, 2), (0, 2)], [(0, 1), (1, 2), (0, 2), (0, 1)]],
    )
    def test_doubled_digraphs(self, edges):
        n, arcs = doubled_digraph(1 + max(max(e) for e in edges), edges)
        for r0 in range(n):
            assert self.agree(n, arcs, r0) > 0

    def test_vertex_unreachable_from_root(self):
        assert self.agree(4, [(0, 1), (1, 0), (2, 3), (3, 2)], 0) == 0

    def test_vertex_without_in_edges(self):
        assert self.agree(3, [(0, 1), (1, 0), (2, 0), (2, 2)], 0) == 0

    def test_one_face_dual(self):
        _, dual = single_edge()
        assert dual.n_vertices == 1
        assert enumerate_parking(1, dual.arcs(), dual.r0) == [{}]
        self.agree(1, dual.arcs(), dual.r0)

    def test_burning_tests_follow_the_output(self, monkeypatch):
        tests = []
        make = parking._burning_test

        def counting(*args):
            burns = make(*args)

            def counted(values):
                tests.append(1)
                return burns(values)

            return counted

        monkeypatch.setattr(parking, "_burning_test", counting)
        for m in range(2, 41):
            _, dual = k_m2(m)
            tests.clear()
            found = enumerate_parking(dual.n_vertices, dual.arcs(), dual.r0)
            assert len(found) == arborescence_count(dual)
            assert len(tests) <= len(found) * (dual.n_vertices - 1) + 1


class TestBijection:
    def test_k32_leaf_images(self):
        dual = k32_rooted()
        tree = build_arb_tree(dual)
        images = {}
        for leaf in tree.leaves:
            if leaf.leaf_type != "I":
                continue
            pi = parking_from_leaf(dual, leaf.a, leaf.s)
            images[leaf.a] = pi
            assert sum(pi.values()) == leaf.s.bit_count()
        clocked = tree.type_one_leaves()[0][0]
        assert set(images[clocked].values()) == {0}
        assert sorted(tuple(sorted(v.items())) for v in images.values()) == sorted(
            tuple(sorted(v.items())) for v in enumerate_parking(3, dual.arcs(), dual.r0)
        )

    def test_round_trip_both_ways(self, graph_corpus, grid_subgraphs):
        rooted_duals = [build_dual(g, kappa_edge=0) for g in graph_corpus[:60]]
        for g in grid_subgraphs:
            dual = build_dual(g, kappa_edge=0)
            rooted_duals += [dual.with_root(*pair) for pair in dual.admissible_pairs()]
        for dual in rooted_duals:
            tree = build_arb_tree(dual)
            leaf_set = set()
            for leaf in tree.leaves:
                if leaf.leaf_type != "I":
                    continue
                pi = parking_from_leaf(dual, leaf.a, leaf.s)
                assert arborescence_from_parking(tree, pi) == leaf.a
                assert sum(pi.values()) == leaf.s.bit_count()
                leaf_set.add(leaf.a)
            parkings, p = parking_for_dual(dual)
            for pi in parkings:
                a = arborescence_from_parking(tree, pi)
                assert a in leaf_set
                leaf = next(l for l in tree.leaves if l.leaf_type == "I" and l.a == a)
                assert parking_from_leaf(dual, leaf.a, leaf.s) == pi
            assert len(parkings) == len(leaf_set)
            assert leaf_enumerator(tree) == p

    def test_leaf_images_match_the_reference(self, graph_corpus, grid_subgraphs):
        # the same dict, keys in the same order, at every type-I leaf of every
        # pair; with kappa skipped, an edge points at the root, and without
        # its lowest edge, a leaf's a does not span
        leaves = 0
        for g in graph_corpus + grid_subgraphs:
            dual = build_dual(g, kappa_edge=0)
            for r0, kappa in dual.admissible_pairs():
                rooted = dual.with_root(r0, kappa)
                for leaf in build_arb_tree(rooted).leaves:
                    if leaf.leaf_type != "I":
                        continue
                    image = parking_from_leaf(rooted, leaf.a, leaf.s)
                    expected = reference_parking_from_leaf(rooted, leaf.a, leaf.s)
                    assert list(image.items()) == list(expected.items())
                    planted = {
                        (leaf.a, leaf.s | 1 << kappa): InvariantError,
                        (leaf.a & (leaf.a - 1), leaf.s): ValueError,
                    }
                    for (a, s), error in planted.items():
                        if (a, s) != (leaf.a, leaf.s):  # a single face keeps a = 0
                            found = outcome(parking_from_leaf, rooted, a, s)
                            assert found[0] is error
                            assert found == outcome(reference_parking_from_leaf, rooted, a, s)
                    leaves += 1
        assert leaves > 5_000

    def test_edge_sets_are_int_masks(self, grid_graph):
        # the tree, the bijection and the two audit routes share one format
        dual = build_dual(grid_graph(3, 3, (4,)), kappa_edge=0)
        tree = build_arb_tree(dual)
        assert tree.type_two_leaves()
        for node in [tree.root] + tree.leaves:
            assert type(node.a) is int and type(node.s) is int
        leaves = tree.type_one_leaves()
        assert all(type(a) is int and type(k) is int for a, k in leaves)
        parkings, _ = parking_for_dual(dual)
        found = [arborescence_from_parking(tree, pi) for pi in parkings]
        assert all(type(a) is int for a in found)
        assert sorted(found) == sorted(a for a, _ in leaves)
        assert type(clocked_arborescence(dual)) is int
        brute = spanning_arborescences_bruteforce(dual)
        assert all(type(a) is int for a in brute) and brute == set(found)

    def test_non_parking_input_rejected(self):
        dual = k32_rooted()
        others = sorted(r for r in range(3) if r != dual.r0)
        with pytest.raises(ValueError):
            arborescence_from_parking(
                build_arb_tree(dual), {others[0]: 1, others[1]: 1}
            )


class TestTutte:
    def test_bridge(self):
        assert tutte(2, [(0, 1)]) == Laurent2({(1, 0): 1}, ("x", "y"))

    def test_loop(self):
        assert tutte(1, [(0, 0)]) == Laurent2({(0, 1): 1}, ("x", "y"))

    def test_triangle(self):
        t = tutte(3, [(0, 1), (1, 2), (0, 2)])
        assert t == Laurent2({(2, 0): 1, (1, 0): 1, (0, 1): 1}, ("x", "y"))

    def test_three_parallel_edges(self):
        t = tutte(2, [(0, 1)] * 3)
        assert t == Laurent2({(1, 0): 1, (0, 1): 1, (0, 2): 1}, ("x", "y"))

    def test_spanning_tree_count(self):
        t = tutte(3, [(0, 1), (1, 2), (0, 2)])
        assert t.eval_int(1, 1) == 3

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            tutte(4, [(0, 1), (2, 3)])

    def test_cap(self):
        with pytest.raises(ValueError):
            tutte(2, [(0, 1)] * 11)


class TestTutteIdentities:
    def test_doubled_single_edge(self):
        assert tutte_doubled_identity(2, [(0, 1)])

    def test_doubled_triangle_value(self):
        edges = [(0, 1), (1, 2), (0, 2)]
        _, arcs = doubled_digraph(3, edges)
        p = parking_enumerator(enumerate_parking(3, arcs, 0))
        assert p == Laurent1({0: 1, 1: 2}, "u")
        assert tutte_doubled_identity(3, edges)

    def test_dual_identity_k32(self):
        dual = k32_rooted()
        assert tutte_dual_identity(dual)

    def test_dual_identity_bigon(self):
        _, dual = bigon()
        assert tutte_dual_identity(dual)

    def test_dual_identity_requires_degree_two(self):
        _, dual = theta()
        with pytest.raises(ValueError):
            tutte_dual_identity(dual)
