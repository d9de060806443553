import random
import warnings

import pytest

from homflytop import arborescence
from homflytop.planegraph import DualDigraph, InvariantError, build_dual
from homflytop.arborescence import (
    arborescence_count,
    arbtree_dot,
    augmenting_edge,
    build_arb_tree,
    clocked_arborescence,
    spanning_arborescences_bruteforce,
    type_one_leaves,
)
from homflytop.fixtures import single_edge, bigon, theta, k32_three_strand, k_m2

from crosschecks import (
    edge_mask,
    node_fields,
    reference_build_arb_tree,
    reference_type_one_only_tree,
    reference_walk_to_augmenting,
    slots,
)


def reference_tree_fields(dual, slot_of):
    """(a, s, augmenting, leaf_type) of every node of the full tree in the
    order of ``node_fields``, each node's edge found by a walk on slots
    from kappa's end; the root component of an arborescence a is r0 and the
    heads of a."""
    spanning_size = dual.n_vertices - 1
    out = []
    stack = [(frozenset(), frozenset())]
    while stack:
        a, s = stack.pop()
        component = {dual.r0} | {dual.head[c] for c in a}
        start = slot_of[(dual.kappa, 1)]
        found = reference_walk_to_augmenting(dual, slot_of, a, s, component, *start, 0)
        if found is None:
            leaf_type = "I" if len(a) == spanning_size else "II"
            out.append((edge_mask(a), edge_mask(s), None, leaf_type))
            continue
        delta = found[0]
        out.append((edge_mask(a), edge_mask(s), delta, None))
        stack += [(a, s | {delta}), (a | {delta}, s)]
    return out


def reference_clocked_arborescence(dual, slot_of):
    """The clocked search on slots and a set, as an edge mask."""
    visited = {dual.r0}

    def scan(r, i):  # the edges chosen round r after slot i
        walk = dual.graph.faces[r]
        chosen = 0
        for _ in range(len(walk)):
            i = (i + 1) % len(walk)
            c, end = walk[i]
            if end == 0 and dual.head[c] not in visited:
                visited.add(dual.head[c])
                chosen |= 1 << c | scan(*slot_of[(c, 1)])
        return chosen

    return scan(*slot_of[(dual.kappa, 1)])


def reference_check_type_two(arcs, component, s):
    """Raise unless every edge leaving ``component`` is in ``s``: one scan
    of every arc, the reference for the audit on per-vertex edge masks."""
    for c, (t, h) in enumerate(arcs):
        if component >> t & 1 and not (component >> h | s >> c) & 1:
            raise InvariantError(
                f"type II leaf has unskipped escaping edge {c}: "
                "contradicts the leaf classification"
            )


def mask_audit(table, component, s):
    """The walk's audit, ``out & ~inward & ~s``, on the per-face out and in
    edge masks of the graph's ``_dual_arcs`` ``table``: raise, naming the
    lowest escaping edge."""
    _, out_of, into = table
    out = inward = 0
    for v in edge_list(component):
        out |= out_of[v]
        inward |= into[v]
    escaping = edge_list(out & ~inward & ~s)
    if escaping:
        raise InvariantError(
            f"type II leaf has unskipped escaping edge {escaping[0]}: "
            "contradicts the leaf classification"
        )


def audit_message(check, *args):
    """The message ``check(*args)`` raises, or None."""
    try:
        check(*args)
    except InvariantError as exc:
        return str(exc)
    return None


def edge_list(mask):
    return [c for c in range(mask.bit_length()) if mask >> c & 1]


def proper_superset(mask, sub):
    return mask & sub == sub and mask != sub


class TestAugmentingEdge:
    def test_bigon_root_node(self):
        _, dual = bigon()
        out = next(c for c in range(2) if dual.tail[c] == dual.r0)
        assert augmenting_edge(dual, 0, 0) == out

    def test_bigon_after_skip_is_stuck(self):
        _, dual = bigon()
        out = augmenting_edge(dual, 0, 0)
        assert augmenting_edge(dual, 0, 1 << out) is None

    def test_k32_first_candidate_follows_kappa(self):
        _, dual = k32_three_strand()
        # scanning counterclockwise from kappa's end picks the out-edge that
        # crosses the root face walk right after kappa
        assert augmenting_edge(dual, 0, 0) == 1

    def test_single_edge_has_no_candidate(self):
        _, dual = single_edge()
        assert augmenting_edge(dual, 0, 0) is None


class TestResumedWalk:
    def test_matches_per_node_walk_everywhere(self, graph_corpus, grid_subgraphs):
        nodes = 0
        for g in graph_corpus + grid_subgraphs:
            dual = build_dual(g, kappa_edge=0)
            for r0, kappa in dual.admissible_pairs():
                rooted = dual.with_root(r0, kappa)
                tree = build_arb_tree(rooted)
                expected = reference_build_arb_tree(rooted)
                found = list(arborescence._walk(rooted))
                assert found == node_fields(expected.root)
                assert [(x.a, x.s, x.leaf_type) for x in tree.leaves] == [
                    (x.a, x.s, x.leaf_type) for x in expected.leaves
                ]
                nodes += len(found)
        assert nodes > 30_000

    def test_dart_walks_match_the_slot_walks(self, graph_corpus, grid_subgraphs):
        # the tree's and the clocked search's walks on int darts against the
        # same walks on (face, position) slots read off the face walks
        pairs = 0
        for g in graph_corpus + grid_subgraphs:
            dual = build_dual(g, kappa_edge=0)
            slot_of = slots(g)
            for r0, kappa in dual.admissible_pairs():
                rooted = dual.with_root(r0, kappa)
                assert list(arborescence._walk(rooted)) == (
                    reference_tree_fields(rooted, slot_of)
                )
                expected = reference_clocked_arborescence(rooted, slot_of)
                assert clocked_arborescence(rooted) == expected
                pairs += 1
        assert pairs > 1_000

    def test_walks_run_at_internal_nodes_and_type_two_leaves_only(
        self, monkeypatch, graph_corpus, grid_subgraphs
    ):
        calls = []
        walk = arborescence._walk_to_augmenting

        def counting(*args):
            calls.append(None)
            return walk(*args)

        monkeypatch.setattr(arborescence, "_walk_to_augmenting", counting)
        for g in graph_corpus + grid_subgraphs:
            dual = build_dual(g, kappa_edge=0)
            for r0, kappa in dual.admissible_pairs():
                rooted = dual.with_root(r0, kappa)
                internal = sum(
                    delta is not None
                    for _, _, delta, _ in node_fields(reference_build_arb_tree(rooted).root)
                )
                calls.clear()
                tree = build_arb_tree(rooted)
                assert len(calls) == internal + len(tree.type_two_leaves())

    def test_type_two_audit_catches_an_unskipped_escape(self, monkeypatch):
        # a walk that finds nothing makes the root a type-II leaf while its
        # out-edges are unskipped; the audit names the first of them
        monkeypatch.setattr(arborescence, "_walk_to_augmenting", lambda *args: None)
        _, dual = k32_three_strand()
        first = next(c for c, (t, h) in enumerate(dual.arcs()) if t == dual.r0 != h)
        with pytest.raises(InvariantError, match=f"unskipped escaping edge {first}:"):
            build_arb_tree(dual)

    def test_type_two_audit_below_the_root(
        self, monkeypatch, graph_corpus, grid_subgraphs
    ):
        # the walk closes up early at one internal node below the root per
        # pair, so that node becomes a type-II leaf whose augmenting edge
        # escapes unskipped; the audit on the masks carried down to it names
        # the edge the arc scan names.  Where no escaping edge leaves r0,
        # only the masks of the heads added on the way down show the escape.
        # Every sound type-II leaf passes the audit: the unplanted walk ends
        rng = random.Random(36)
        walk = arborescence._walk_to_augmenting
        target = []

        def closing(dual, a, s, *rest):
            return None if [(a, s)] == target else walk(dual, a, s, *rest)

        monkeypatch.setattr(arborescence, "_walk_to_augmenting", closing)
        planted = off_root = sound = 0
        for g in graph_corpus + grid_subgraphs:
            dual = build_dual(g, kappa_edge=0)
            for r0, kappa in dual.admissible_pairs():
                rooted = dual.with_root(r0, kappa)
                target.clear()
                nodes = list(arborescence._walk(rooted))
                sound += sum(leaf_type == "II" for *_, leaf_type in nodes)
                below = [(a, s) for a, s, delta, _ in nodes if delta is not None and (a or s)]
                if not below:
                    continue
                a, s = rng.choice(below)
                target.append((a, s))
                arcs = rooted.arcs()
                component = arborescence._root_component(rooted, a)
                expected = audit_message(reference_check_type_two, arcs, component, s)
                assert expected is not None
                assert audit_message(build_arb_tree, rooted) == expected
                planted += 1
                off_root += not any(
                    t == r0 != h and not component >> h & 1 and not s >> c & 1
                    for c, (t, h) in enumerate(arcs)
                )
        assert planted > 1_000 and off_root > 500 and sound > 10_000

    def test_mask_audit_names_the_edge_the_arc_scan_names(
        self, graph_corpus, grid_subgraphs
    ):
        # every type-II leaf passes the arc scan and the walk's formula on
        # the per-face masks; unskipping some of its escaping edges whose
        # tail is not r0 makes both name the same edge
        rng = random.Random(26)
        leaves = planted = 0
        for g in graph_corpus + grid_subgraphs:
            dual = build_dual(g, kappa_edge=0)
            for r0, kappa in dual.admissible_pairs():
                rooted = dual.with_root(r0, kappa)
                arcs, table = rooted.arcs(), g.table(arborescence._dual_arcs)
                for leaf in build_arb_tree(rooted).type_two_leaves():
                    component = arborescence._root_component(rooted, leaf.a)
                    for check, tables in (
                        (reference_check_type_two, arcs),
                        (mask_audit, table),
                    ):
                        assert audit_message(check, tables, component, leaf.s) is None
                    leaves += 1
                    off_root = [
                        c for c, (t, h) in enumerate(arcs)
                        if t != r0 and component >> t & 1 and not component >> h & 1
                    ]
                    if not off_root:
                        continue
                    unskipped = rng.sample(off_root, rng.randint(1, len(off_root)))
                    s = leaf.s & ~edge_mask(unskipped)
                    scan = audit_message(reference_check_type_two, arcs, component, s)
                    assert f"edge {min(unskipped)}:" in scan
                    assert audit_message(mask_audit, table, component, s) == scan
                    planted += 1
        assert leaves > 10_000 and planted > 10_000

    @pytest.mark.parametrize(
        "build", [build_arb_tree, arbtree_dot, reference_build_arb_tree]
    )
    def test_walk_that_never_closes_up_is_stopped(self, build):
        g, dual = k32_three_strand()
        start = 2 * dual.kappa + 1
        before = g.next_dart.index(start)
        # a start dart the walk never reaches: its face skips over it
        g.next_dart[before] = g.next_dart[start]
        with pytest.raises(InvariantError, match="contour walk failed to close up"):
            build(dual)


class TestDot:
    def test_stream_writer_matches_the_linked_tree(self, graph_corpus, grid_subgraphs):
        # byte for byte at every admissible pair, against the DOT written by
        # walking the linked reference tree's children
        nodes = 0
        for g in graph_corpus + grid_subgraphs:
            dual = build_dual(g, kappa_edge=0)
            for r0, kappa in dual.admissible_pairs():
                rooted = dual.with_root(r0, kappa)
                dot = arbtree_dot(rooted)
                assert dot == reference_build_arb_tree(rooted).to_dot()
                nodes += dot.count('[label="')
        assert nodes > 30_000

    def test_type_two_audit_raises_before_any_output(self, monkeypatch):
        monkeypatch.setattr(arborescence, "_walk_to_augmenting", lambda *args: None)
        _, dual = k32_three_strand()
        with pytest.raises(InvariantError, match="unskipped escaping edge"):
            arbtree_dot(dual)


class TestTypeOneOnly:
    """``type_one_leaves``, the leaf stream, against the full tree and the
    pruned tree with nodes it replaces."""

    def test_same_type_one_leaves_as_full_tree(
        self, monkeypatch, graph_corpus, grid_subgraphs
    ):
        # the stream walks once at each internal node of the pruned tree,
        # in preorder, with that node's (a, s)
        walked = []
        walk = arborescence._walk_to_augmenting

        def recording(*args):
            walked.append(args[1:3])
            return walk(*args)

        monkeypatch.setattr(arborescence, "_walk_to_augmenting", recording)
        pruned_nodes = full_nodes = 0
        for g in graph_corpus + grid_subgraphs:
            dual = build_dual(g, kappa_edge=0)
            for r0, kappa in dual.admissible_pairs():
                rooted = dual.with_root(r0, kappa)
                full = build_arb_tree(rooted)
                pruned = reference_type_one_only_tree(rooted)
                assert [(x.a, x.s) for x in pruned.leaves] == [
                    (x.a, x.s) for x in full.leaves if x.leaf_type == "I"
                ]
                assert pruned.type_one_leaves() == full.type_one_leaves()
                walked.clear()
                assert full.type_one_leaves() == list(type_one_leaves(rooted))
                assert all(x.leaf_type == "I" for x in pruned.leaves)
                pruned_fields = node_fields(pruned.root)
                assert walked == [(a, s) for a, s, _, t in pruned_fields if not t]
                pruned_nodes += len(pruned_fields)
                full_nodes += len(list(arborescence._walk(rooted)))
        assert pruned_nodes < full_nodes

    def test_stream_matches_the_pruned_tree(self, graph_corpus, grid_subgraphs):
        # (edge mask of a, k) per leaf, in the same right-to-left order, at
        # every admissible pair; K_{m,2} has m leaves, k_m2(m) at up to 12
        leaves = 0
        graphs = graph_corpus + grid_subgraphs + [k_m2(m)[0] for m in range(1, 13)]
        for g in graphs:
            dual = build_dual(g, kappa_edge=0)
            for r0, kappa in dual.admissible_pairs():
                rooted = dual.with_root(r0, kappa)
                expected = reference_type_one_only_tree(rooted).type_one_leaves()
                found = list(type_one_leaves(rooted))
                assert found == expected
                assert all(type(a) is int for a, _ in found)
                leaves += len(found)
        assert leaves > 5_000

    def test_stream_walks_like_the_full_tree(self, monkeypatch, grid_subgraphs):
        # each walk of the stream starts where the full tree's walk at the
        # same node starts, and the full tree walks at every node it keeps
        starts = []
        walk = arborescence._walk_to_augmenting

        def recording(*args):
            starts.append(args[1:])
            return walk(*args)

        monkeypatch.setattr(arborescence, "_walk_to_augmenting", recording)
        walks = 0
        for g in grid_subgraphs[::5]:
            dual = build_dual(g, kappa_edge=0)
            starts.clear()
            build_arb_tree(dual)
            full = set(starts)
            starts.clear()
            list(type_one_leaves(dual))
            assert set(starts) <= full
            walks += len(starts)
        assert walks > 100

    def test_reaching_a_type_two_leaf_raises(self, monkeypatch):
        # without the reach test every skip child is grown, type-II leaves too
        monkeypatch.setattr(arborescence, "_reached_without", lambda *args: True)
        _, dual = k32_three_strand()
        assert build_arb_tree(dual).type_two_leaves()
        with pytest.raises(InvariantError, match="type-I-only tree reached a type II leaf"):
            list(type_one_leaves(dual))


class TestClocked:
    def test_single_edge(self):
        _, dual = single_edge()
        assert clocked_arborescence(dual) == 0

    def test_bigon(self):
        _, dual = bigon()
        out = next(c for c in range(2) if dual.tail[c] == dual.r0)
        assert clocked_arborescence(dual) == 1 << out

    def test_k32(self):
        _, dual = k32_three_strand()
        assert clocked_arborescence(dual) == edge_mask({1, 3})

    def test_equals_rightmost_leaf_everywhere(self, graph_corpus):
        for g in graph_corpus[:60]:
            dual = build_dual(g, kappa_edge=0)
            for r0, kappa in dual.admissible_pairs():
                rooted = dual.with_root(r0, kappa)
                tree = build_arb_tree(rooted)
                first, k = tree.type_one_leaves()[0]
                assert k == 0
                assert first == clocked_arborescence(rooted)


class TestTree:
    def test_single_edge_tree_is_one_type_one_leaf(self):
        _, dual = single_edge()
        tree = build_arb_tree(dual)
        assert tree.type_one_leaves() == [(0, 0)]
        assert not tree.type_two_leaves()

    def test_bigon_tree(self):
        _, dual = bigon()
        tree = build_arb_tree(dual)
        assert [k for _, k in tree.type_one_leaves()] == [0]
        assert len(tree.type_two_leaves()) == 1

    def test_theta_has_one_arborescence(self):
        _, dual = theta()
        tree = build_arb_tree(dual)
        assert len(tree.type_one_leaves()) == 1
        assert spanning_arborescences_bruteforce(dual) == {
            tree.type_one_leaves()[0][0]
        }

    def test_k32_leaves(self):
        _, dual = k32_three_strand()
        tree = build_arb_tree(dual)
        leaves = tree.type_one_leaves()
        assert len(leaves) == 3
        assert sorted(k for _, k in leaves) == [0, 1, 1]
        assert leaves[0] == (edge_mask({1, 3}), 0)
        assert {a for a, _ in leaves} == {
            edge_mask({1, 3}),
            edge_mask({1, 4}),
            edge_mask({2, 4}),
        }
        if len(tree.type_two_leaves()) != 3:
            warnings.warn(
                "type-II leaf count differs from the reference drawing "
                f"({len(tree.type_two_leaves())} instead of 3)"
            )

    def test_nodes_grow_monotonically(self):
        # on the linked reference tree, whose nodes the walk yields
        _, dual = k32_three_strand()
        tree = reference_build_arb_tree(dual)
        assert node_fields(tree.root) == list(arborescence._walk(dual))

        def visit(node):
            if node.is_leaf:
                return
            assert proper_superset(node.right.a, node.a) and node.right.s == node.s
            assert proper_superset(node.left.s, node.s) and node.left.a == node.a
            visit(node.right)
            visit(node.left)

        visit(tree.root)

    def test_type_two_leaves_have_all_escapes_skipped(self):
        _, dual = k32_three_strand()
        tree = build_arb_tree(dual)
        for leaf in tree.type_two_leaves():
            component = {dual.r0}
            grew = True
            while grew:
                grew = False
                for c in edge_list(leaf.a):
                    if dual.tail[c] in component and dual.head[c] not in component:
                        component.add(dual.head[c])
                        grew = True
            for c in range(dual.n_edges):
                if dual.tail[c] in component and dual.head[c] not in component:
                    assert leaf.s >> c & 1


class TestBruteForceAgreement:
    @pytest.mark.parametrize("fixture", [single_edge, bigon, theta, k32_three_strand])
    def test_fixtures_all_roots(self, fixture):
        _, dual = fixture()
        for r0, kappa in dual.admissible_pairs():
            rooted = dual.with_root(r0, kappa)
            tree = build_arb_tree(rooted)
            leaves = tree.type_one_leaves()
            assert len(leaves) == len({a for a, _ in leaves})
            assert {a for a, _ in leaves} == spanning_arborescences_bruteforce(rooted)

    def test_corpus_all_roots(self, graph_corpus, grid_subgraphs):
        # 216 of the 220 corpus graphs simplify to trees; the grids do not
        for g in graph_corpus[:80] + grid_subgraphs:
            dual = build_dual(g, kappa_edge=0)
            brute_by_root = {}
            for r0, kappa in dual.admissible_pairs():
                rooted = dual.with_root(r0, kappa)
                if r0 not in brute_by_root:
                    brute_by_root[r0] = spanning_arborescences_bruteforce(rooted)
                tree = build_arb_tree(rooted)
                leaves = tree.type_one_leaves()
                assert len(leaves) == len({a for a, _ in leaves})
                assert {a for a, _ in leaves} == brute_by_root[r0]


class TestArborescenceCount:
    def test_one_face_dual_counts_one(self):
        _, dual = single_edge()
        assert dual.n_vertices == 1
        assert arborescence_count(dual) == 1

    def test_loops_are_ignored(self):
        _, dual = k32_three_strand()
        loops = tuple(range(dual.n_vertices))
        looped = DualDigraph(
            dual.graph, dual.tail + loops, dual.head + loops, dual.r0, dual.kappa
        )
        assert arborescence_count(looped) == arborescence_count(dual) == 3
        assert len(spanning_arborescences_bruteforce(looped)) == 3

    def test_matches_bruteforce_at_every_root(self, graph_corpus, grid_subgraphs):
        counts = []
        for g in graph_corpus + grid_subgraphs:
            dual = build_dual(g, kappa_edge=0)
            for r0, kappa in dual.admissible_pairs():
                rooted = dual.with_root(r0, kappa)
                count = arborescence_count(rooted)
                assert count == len(spanning_arborescences_bruteforce(rooted))
                counts.append(count)
        assert max(counts) > 50

    def test_matches_bruteforce_on_non_eulerian_digraphs(self, grid_subgraphs):
        # a dual is Eulerian, so it has as many arborescences into r0 as out
        # of it; tails drawn at random break that symmetry
        rng = random.Random(20240811)
        unbalanced = nonzero = 0
        for g in grid_subgraphs:
            dual = build_dual(g, kappa_edge=0)
            for r0, kappa in dual.admissible_pairs()[::4]:
                tail = tuple(rng.randrange(dual.n_vertices) for _ in dual.tail)
                drawn = DualDigraph(dual.graph, tail, dual.head, r0, kappa)
                count = arborescence_count(drawn)
                assert count == len(spanning_arborescences_bruteforce(drawn))
                unbalanced += sorted(tail) != sorted(drawn.head)
                nonzero += count > 0
        assert unbalanced > 50 and nonzero > 20
