import json
import random
from collections import Counter
from itertools import combinations

import pytest

from homflytop.planegraph import (
    DualDigraph,
    GraphInputError,
    PlaneBipartiteGraph,
    parse_plane_graph,
    build_dual,
    check_strong_connectivity,
    biconnected_blocks,
    block_subgraph,
    SignedBlock,
)
from homflytop.arborescence import _dual_arcs, build_arb_tree
from homflytop.homfly import decorated_subgraph_at, strict_bound_certified
from homflytop.parking import _dual_burning_test
from homflytop.rootpolytope import _facet_lists, _hypertree_count, _pair_ids
from homflytop.fixtures import (
    single_edge,
    bigon,
    theta,
    k32_three_strand,
    block_sum_of_bigons,
)

from crosschecks import _connected, dual_subgraph, reference_face_walks


def replace_document(doc, **fields):
    """Swap the whole document for a single edge e - v with the given fields."""
    doc.clear()
    doc.update(rotation={"e": [0], "v": [0]}, **fields)


class TestParsingAndFaces:
    def test_single_edge(self):
        g, dual = single_edge()
        assert g.n_faces == 1
        assert len(g.faces[0]) == 2

    def test_bigon_has_two_faces(self):
        g, _ = bigon()
        assert g.n_faces == 2
        assert all(len(walk) == 2 for walk in g.faces)

    def test_k32_has_three_square_faces(self):
        g, _ = k32_three_strand()
        assert g.n_vertices == 5 and g.n_edges == 6
        assert g.n_faces == 3
        assert all(len(walk) == 4 for walk in g.faces)

    def test_faces_partition_darts(self):
        g, _ = k32_three_strand()
        darts = [d for walk in g.faces for d in walk]
        assert len(darts) == 2 * g.n_edges
        assert len(set(darts)) == len(darts)

    def test_document_round_trip(self):
        g, dual = k32_three_strand()
        doc = g.to_document(r0_dart=(0, 1), kappa=0)
        g2, dual2 = parse_plane_graph(json.dumps(doc))
        assert g2.edges == g.edges
        assert dual2.r0 == dual.r0 and dual2.kappa == dual.kappa
        assert dual2.arcs() == dual.arcs()

    def test_defaults_derive_root_from_kappa(self):
        g, _ = k32_three_strand()
        doc = g.to_document()
        doc["kappa"] = 3
        _, dual = parse_plane_graph(doc)
        assert dual.kappa == 3
        assert dual.r0 == dual.head[3]

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("edges"),
            lambda d: d["edges"].append(["e0", "e0"]),
            lambda d: d["rotation"]["e0"].append(99),
            lambda d: d["rotation"]["e0"].append("zero"),
            lambda d: d["rotation"].pop("v0"),
            lambda d: d["rotation"].update(ghost=[0]),
            lambda d: d.update(r0=[0, "sideways"]),
            lambda d: d.update(r0=7),
            lambda d: d.update(kappa=77),
            lambda d: d["edges"].append(["e0"]),
            # containers of the wrong JSON type
            lambda d: d.update(E=dict.fromkeys(d["E"], 0)),
            lambda d: replace_document(d, E="e", V="v", edges=["ev"]),
            lambda d: replace_document(d, E=["e"], V=["v"], edges=["ev"]),
            lambda d: replace_document(d, E=["e"], V=["v"], edges={"ev": 0}),
        ],
    )
    def test_malformed_documents_rejected(self, mutate):
        g, _ = k32_three_strand()
        doc = g.to_document(r0_dart=(0, 1), kappa=0)
        mutate(doc)
        with pytest.raises(GraphInputError):
            parse_plane_graph(doc)

    def test_text_nested_too_deep_rejected(self):
        with pytest.raises(GraphInputError):
            parse_plane_graph("[" * 100_000)

    def test_text_integer_past_the_digit_limit_rejected(self):
        with pytest.raises(GraphInputError):
            parse_plane_graph('{"kappa": ' + "9" * 5000 + "}")

    def test_duplicate_vertex_name_rejected(self):
        with pytest.raises(GraphInputError):
            PlaneBipartiteGraph(
                ["a"], ["a"], [("a", "a")], {"a": [0]}
            )

    def test_disconnected_rejected(self):
        with pytest.raises(GraphInputError, match="connected"):
            PlaneBipartiteGraph(
                ["e0", "e1"],
                ["v0", "v1"],
                [("e0", "v0"), ("e1", "v1")],
                {"e0": [0], "v0": [0], "e1": [1], "v1": [1]},
            )

    def test_disconnected_map_that_passes_euler_rejected(self):
        # one edge (V - E + F = 2 - 1 + 1) beside three bands on a torus
        # (2 - 3 + 1): 4 - 4 + 2 = 2 in all, so only connectivity rejects it
        with pytest.raises(GraphInputError, match="graph is not connected"):
            PlaneBipartiteGraph(
                ["e0", "e1"],
                ["v0", "v1"],
                [("e0", "v0")] + [("e1", "v1")] * 3,
                {"e0": [0], "v0": [0], "e1": [1, 2, 3], "v1": [1, 2, 3]},
            )

    def test_faces_equal_the_eager_trace(self, graph_corpus, grid_graph):
        grids = [grid_graph(a, b) for a in (2, 3, 4) for b in (3, 4) if a <= b]
        for g in graph_corpus + grids:
            faces, dart_face = reference_face_walks(g)
            assert (g.n_faces, g.dart_face) == (len(faces), dart_face)
            assert g.faces == faces
            assert g.faces is g.faces  # built once per graph

    def test_nonplanar_rotation_rejected(self):
        # parallel bands with equal rotations on both sides close up on a torus
        with pytest.raises(GraphInputError, match="planar"):
            PlaneBipartiteGraph(
                ["e0"],
                ["v0"],
                [("e0", "v0")] * 3,
                {"e0": [0, 1, 2], "v0": [0, 1, 2]},
            )

    def test_incompatible_kappa_and_root_rejected(self):
        g, _ = k32_three_strand()
        doc = g.to_document()
        doc["r0"] = [0, "ev"]
        doc["kappa"] = 0
        with pytest.raises(GraphInputError, match="inadmissible"):
            parse_plane_graph(doc)


class TestDual:
    def test_single_edge_dual_is_a_loop(self):
        _, dual = single_edge()
        assert dual.n_vertices == 1
        assert dual.arcs() == [(0, 0)]

    def test_bigon_dual_is_antiparallel_pair(self):
        _, dual = bigon()
        assert dual.n_vertices == 2
        assert sorted(dual.arcs()) == [(0, 1), (1, 0)]

    def test_theta_dual_is_directed_cycle(self):
        _, dual = theta()
        arcs = dual.arcs()
        assert sorted(t for t, _ in arcs) == [0, 1, 2]
        assert sorted(h for _, h in arcs) == [0, 1, 2]
        # one coherent cycle: out-degree one everywhere, no antiparallel pair
        assert all((h, t) not in arcs for t, h in arcs)

    def test_k32_dual_structure(self):
        g, dual = k32_three_strand()
        # vertices of the dual pair up with antiparallel edges around a triangle
        pair_counts = {}
        for t, h in dual.arcs():
            pair_counts[frozenset((t, h))] = pair_counts.get(frozenset((t, h)), 0) + 1
        assert sorted(pair_counts.values()) == [2, 2, 2]
        for t, h in dual.arcs():
            assert (h, t) in dual.arcs()
        assert dual.head[dual.kappa] == dual.r0

    def test_admissible_pairs_cover_all_edges(self):
        _, dual = k32_three_strand()
        pairs = dual.admissible_pairs()
        assert sorted(k for _, k in pairs) == list(range(6))
        for r0, kappa in pairs:
            assert dual.head[kappa] == r0

    def test_rooting_validates(self):
        _, dual = k32_three_strand()
        with pytest.raises(GraphInputError):
            dual.with_root((dual.head[0] + 1) % dual.n_vertices, 0)

    def test_rooting_is_a_replace_of_the_root(self, graph_corpus, grid_subgraphs):
        # the same dual at every admissible pair, and at a wrong root the same
        # error, as the constructor gives
        wrong = 0
        for g in graph_corpus + grid_subgraphs:
            dual = build_dual(g, kappa_edge=0)
            for r0, kappa in dual.admissible_pairs():
                rooted = dual.with_root(r0, kappa)
                assert type(rooted) is DualDigraph
                assert rooted == DualDigraph(dual.graph, dual.tail, dual.head, r0, kappa)
                if dual.n_vertices > 1:
                    bad = (r0 + 1) % dual.n_vertices
                    with pytest.raises(GraphInputError) as found:
                        dual.with_root(bad, kappa)
                    with pytest.raises(GraphInputError) as expected:
                        DualDigraph(dual.graph, dual.tail, dual.head, bad, kappa)
                    assert str(found.value) == str(expected.value)
                    wrong += 1
        assert wrong > 1_000

    def test_edge_masks_are_the_dual_arcs(self, graph_corpus, grid_subgraphs):
        # per face, the (edge, tail) pairs of the dual edges entering it and
        # the masks of the edges whose dual leaves it and enters it, read off
        # the face walks: the face holding dart (c, 0) is the tail of edge c
        for g in graph_corpus + grid_subgraphs + [single_edge()[0]]:
            face = {dart: r for r, walk in enumerate(g.faces) for dart in walk}
            into = [sorted(c for c, end in walk if end == 1) for walk in g.faces]
            assert g.table(_dual_arcs) == (
                [[(c, face[(c, 0)]) for c in edges] for edges in into],
                [sum(1 << c for c, end in walk if end == 0) for walk in g.faces],
                [sum(1 << c for c in edges) for edges in into],
            )


    def test_block_subgraph_gets_its_own_tables(self):
        g, _ = block_sum_of_bigons()
        names = list(g.e_vertices) + list(g.v_vertices)
        blocks = biconnected_blocks(names, list(g.edges), [1] * g.n_edges)
        assert len(blocks) > 1
        whole = g.table(_pair_ids)
        for block in blocks:
            sub = block_subgraph(g, block.edge_ids)
            assert sub.table(_pair_ids) == _pair_ids(sub) != whole
            assert sub.table(_pair_ids) is sub.table(_pair_ids)
            assert sub.table(_hypertree_count) == _hypertree_count(sub)
            assert sub.table(_facet_lists) == _facet_lists(sub)
            assert sub.table(_dual_arcs) == _dual_arcs(sub) != g.table(_dual_arcs)
            burns = sub.table(_dual_burning_test)
            assert burns is sub.table(_dual_burning_test)
            assert burns is not g.table(_dual_burning_test)
        assert g.table(_pair_ids) is whole

    def test_dart_lists_follow_the_face_walks(self, graph_corpus, grid_subgraphs):
        # the next dart along each face and each dart's face, d = 2c + end
        for g in graph_corpus + grid_subgraphs + [single_edge()[0]]:
            for r, walk in enumerate(g.faces):
                darts = [2 * c + end for c, end in walk]
                assert [g.next_dart[d] for d in darts] == darts[1:] + darts[:1]
                assert {g.dart_face[d] for d in darts} == {r}
                assert all(g.face_of(d) == r for d in walk)


class TestVertexNumbering:
    """Each graph numbers its vertices once, E-vertices first, and every
    per-graph table reads those ids; the numbering changes no face, dual
    arc or certificate verdict."""

    def test_ends_and_rotations_follow_the_ids(self, graph_corpus, grid_subgraphs):
        for g in graph_corpus + grid_subgraphs:
            names = list(g.e_vertices) + list(g.v_vertices)
            assert g.ends == tuple(
                (names.index(e), names.index(v)) for e, v in g.edges
            )
            incident = [
                [c for c, ends in enumerate(g.ends) if x in ends]
                for x in range(len(names))
            ]
            assert [sorted(r) for r in g.rotations] == incident
            backwards = dict(reversed(list(zip(names, g.rotations))))
            rebuilt = PlaneBipartiteGraph(
                g.e_vertices, g.v_vertices, g.edges, backwards
            )
            assert [sorted(r) for r in rebuilt.rotations] == incident
            assert rebuilt.rotations == g.rotations

    def test_block_subgraph_restricts_the_rotations(
        self, graph_corpus, grid_subgraphs
    ):
        blocks_seen = 0
        for g in graph_corpus + grid_subgraphs:
            names = g.e_vertices + g.v_vertices
            for block in biconnected_blocks(
                range(g.n_vertices), list(g.ends), [1] * g.n_edges
            ):
                sub = block_subgraph(g, block.edge_ids)
                kept = sorted(block.edge_ids)
                ids = [names.index(x) for x in sub.e_vertices + sub.v_vertices]
                assert set(ids) == block.vertices
                assert [
                    [kept[c] for c in rotation] for rotation in sub.rotations
                ] == [[c for c in g.rotations[x] if c in kept] for x in ids]
                blocks_seen += 1
        assert blocks_seen > len(graph_corpus + grid_subgraphs)

    def test_shuffled_documents_give_the_same_graph(
        self, graph_corpus, grid_subgraphs
    ):
        rng = random.Random(34)
        renumbered, verdicts = 0, Counter()
        for g in graph_corpus + grid_subgraphs:
            doc = g.to_document()
            assert parse_plane_graph(doc)[0].rotations == g.rotations
            for key in ("E", "V"):
                rng.shuffle(doc[key])
            rotation = list(doc["rotation"].items())
            rng.shuffle(rotation)
            doc["rotation"] = dict(rotation)
            h, _ = parse_plane_graph(doc)
            # rotations[x] is the document's rotation of the vertex with id x
            assert h.rotations == tuple(
                tuple(doc["rotation"][x]) for x in h.e_vertices + h.v_vertices
            )
            assert (h.faces, h.dart_face) == (g.faces, g.dart_face)
            assert build_dual(h).arcs() == build_dual(g).arcs()
            assert h.table(_dual_arcs) == g.table(_dual_arcs)
            renumbered += h.ends != g.ends
            dual = build_dual(g)
            subs = {
                decorated_subgraph_at(g, leaf)
                for r0, kappa in dual.admissible_pairs()
                for leaf in build_arb_tree(dual.with_root(r0, kappa)).type_two_leaves()
            }
            for sub in subs:
                verdict = strict_bound_certified(g, sub)
                assert strict_bound_certified(h, sub) == verdict
                verdicts[verdict] += 1
        # the shuffles renumber most graphs, and both verdicts occur
        assert renumbered > 100
        assert verdicts[True] > 1000 and verdicts[False] > 50


class TestSubgraphDuality:
    def test_complement_involution(self):
        g, _ = k32_three_strand()
        assert dual_subgraph(g, []) == frozenset(range(6))
        assert dual_subgraph(g, range(6)) == frozenset()
        subset = {1, 3, 4}
        assert dual_subgraph(g, dual_subgraph(g, subset)) == frozenset(subset)

    @staticmethod
    def _is_spanning_tree(n_vertices, vertex_pairs):
        # n - 1 edges make a spanning tree iff they connect all n vertices
        index = {}
        pairs = [(index.setdefault(a, len(index)), index.setdefault(b, len(index)))
                 for a, b in vertex_pairs]
        return len(pairs) == n_vertices - 1 and _connected(n_vertices, pairs)

    @pytest.mark.parametrize("fixture", [single_edge, bigon, theta, k32_three_strand])
    def test_spanning_tree_duality_on_all_subsets(self, fixture):
        g, dual = fixture()
        for k in range(g.n_edges + 1):
            for subset in combinations(range(g.n_edges), k):
                primal_tree = self._is_spanning_tree(
                    g.n_vertices, [g.edges[c] for c in subset]
                )
                dual_set = dual_subgraph(g, subset)
                dual_tree = self._is_spanning_tree(
                    dual.n_vertices,
                    [(dual.tail[c], dual.head[c]) for c in dual_set],
                )
                assert primal_tree == dual_tree

    def test_spanning_tree_duality_on_corpus(self, graph_corpus):
        for g in graph_corpus[:40]:
            dual = build_dual(g, kappa_edge=0)
            for k in range(g.n_edges + 1):
                for subset in combinations(range(g.n_edges), k):
                    primal = self._is_spanning_tree(
                        g.n_vertices, [g.edges[c] for c in subset]
                    )
                    dual_set = dual_subgraph(g, subset)
                    dual_tree = self._is_spanning_tree(
                        dual.n_vertices,
                        [(dual.tail[c], dual.head[c]) for c in dual_set],
                    )
                    assert primal == dual_tree


class TestStrongConnectivity:
    @pytest.mark.parametrize("fixture", [single_edge, bigon, theta, k32_three_strand])
    def test_fixtures(self, fixture):
        _, dual = fixture()
        assert check_strong_connectivity(dual)

    def test_corpus(self, graph_corpus):
        for g in graph_corpus:
            assert check_strong_connectivity(build_dual(g, kappa_edge=0))

    @pytest.mark.parametrize("cut", ["unreachable from 0", "cannot reach 0"])
    def test_planted_cut_vertex_is_caught(self, cut):
        _, dual = k32_three_strand()
        x = 2  # neither face 0, where both reaches start, nor the root
        assert x not in (0, dual.r0)
        arcs = dual.arcs()
        # the arcs into x, or out of x, become loops at their other end;
        # the constructor rechecks that kappa stays admissible
        tail, head = dual.tail, dual.head
        if cut == "unreachable from 0":
            head = tuple(t if h == x else h for t, h in arcs)
            planted = DualDigraph(dual.graph, tail, head, dual.r0, dual.kappa)
            assert all(t == x for t, h in planted.arcs() if h == x)
        else:
            tail = tuple(h if t == x else t for t, h in arcs)
            planted = DualDigraph(dual.graph, tail, head, dual.r0, dual.kappa)
            assert all(h == x for t, h in planted.arcs() if t == x)
        assert not check_strong_connectivity(planted)


def _shapes(blocks):
    """(sign, vertex count, edge count) per block."""
    return [(b.sign, len(b.vertices), len(b.edge_ids)) for b in blocks]


class TestBlocks:
    def test_single_block(self):
        g, _ = bigon()
        blocks = biconnected_blocks(
            list(g.e_vertices) + list(g.v_vertices), list(g.edges), [1, 1]
        )
        assert _shapes(blocks) == [(1, 2, 2)]

    def test_two_positive_blocks_share_a_vertex(self):
        g, _ = block_sum_of_bigons()
        blocks = biconnected_blocks(
            list(g.e_vertices) + list(g.v_vertices), list(g.edges), [1] * 4
        )
        # the shared vertex is in each block
        assert _shapes(blocks) == [(1, 2, 2), (1, 2, 2)]
        assert sum(b.sign * len(b.edge_ids) for b in blocks) == 4

    def test_opposite_sign_blocks(self):
        g, _ = block_sum_of_bigons()
        blocks = biconnected_blocks(
            list(g.e_vertices) + list(g.v_vertices),
            list(g.edges),
            [1, 1, -1, -1],
        )
        assert _shapes(blocks) == [(1, 2, 2), (-1, 2, 2)]
        assert sum(b.sign * len(b.edge_ids) for b in blocks) == 0

    def test_mixed_sign_block_rejected(self):
        g, _ = bigon()
        with pytest.raises(GraphInputError, match="mixes"):
            biconnected_blocks(
                list(g.e_vertices) + list(g.v_vertices), list(g.edges), [1, -1]
            )

    def test_bridge_is_its_own_block(self):
        # path e0 - v0 - e1 has two bridge blocks meeting at v0
        blocks = biconnected_blocks(
            ["e0", "v0", "e1"], [("e0", "v0"), ("e1", "v0")], [1, 1]
        )
        assert _shapes(blocks) == [(1, 2, 1), (1, 2, 1)]


def reference_blocks(vertices, edges, signs) -> list[SignedBlock]:
    """Blocks by the cut-vertex definition: distinct edges share a block iff
    no vertex x separates their endpoints other than x in G - x."""
    if not vertices:
        raise GraphInputError("empty graph")

    def components(removed):  # vertex -> component label in G - removed
        label = {}
        for start in vertices:
            if start == removed or start in label:
                continue
            label[start] = start
            stack = [start]
            while stack:
                x = stack.pop()
                for u, w in edges:
                    for a, b in ((u, w), (w, u)):
                        if a == x and b != removed and b not in label:
                            label[b] = start
                            stack.append(b)
        return label

    if len(set(components(None).values())) != 1:
        raise GraphInputError("graph is not connected")
    label_without = {x: components(x) for x in vertices}

    def share(i, j):
        return all(
            len({label[y] for y in edges[i] + edges[j] if y != x}) == 1
            for x, label in label_without.items()
        )

    classes: list[list[int]] = []
    for i in range(len(edges)):
        home = next((c for c in classes if share(c[0], i)), None)
        if home is None:
            classes.append([i])
        else:
            home.append(i)
    out = []
    for block in classes:
        block_signs = {signs[i] for i in block}
        if len(block_signs) != 1:
            raise GraphInputError("block mixes positive and negative edges")
        touched = frozenset(y for i in block for y in edges[i])
        out.append(SignedBlock(block_signs.pop(), touched, tuple(block)))
    return sorted(out, key=lambda b: b.edge_ids)


def _block_outcome(blocks, vertices, edges, signs):
    try:
        return blocks(vertices, edges, signs)
    except GraphInputError as exc:
        return str(exc)


def _random_multigraph(rng):
    """At most 9 vertices and 14 loopless edges, usually connected."""
    n = rng.randint(1, 9)
    vertices = [f"x{i}" for i in range(n)]
    edges = []
    if rng.random() < 0.85:  # a random spanning tree first
        edges = [(vertices[i], rng.choice(vertices[:i])) for i in range(1, n)]
        rng.shuffle(edges)
    if n > 1:
        for _ in range(rng.randint(0, 14 - len(edges))):
            u, w = rng.sample(vertices, 2)
            edges.append(rng.choice(edges) if edges and rng.random() < 0.2 else (u, w))
    rng.shuffle(vertices)
    return vertices, edges


class TestBlocksAgainstCutVertexReference:
    def test_random_multigraphs(self):
        rng = random.Random(2024)
        outcomes = []
        for _ in range(2000):
            vertices, edges = _random_multigraph(rng)
            signs = [rng.choice((1, -1)) for _ in edges]
            plain = _block_outcome(reference_blocks, vertices, edges, [1] * len(edges))
            if rng.random() < 0.6 and not isinstance(plain, str):
                for b in plain:  # one sign per block
                    sign = rng.choice((1, -1))
                    for i in b.edge_ids:
                        signs[i] = sign
            expected = _block_outcome(reference_blocks, vertices, edges, signs)
            assert _block_outcome(biconnected_blocks, vertices, edges, signs) == expected
            if isinstance(expected, str):
                outcomes.append(expected)
            else:
                outcomes.append("ok, mixed signs" if len(set(signs)) == 2 else "ok")
        assert outcomes.count("ok") > 300
        assert outcomes.count("ok, mixed signs") > 300
        assert outcomes.count("block mixes positive and negative edges") > 300
        assert outcomes.count("graph is not connected") > 50

    def test_empty_graph(self):
        for blocks in (biconnected_blocks, reference_blocks):
            with pytest.raises(GraphInputError, match="empty graph"):
                blocks([], [], [])
