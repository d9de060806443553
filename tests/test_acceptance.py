"""Acceptance suite: every criterion at its stated (exact) tolerance.

Each test prints one pass line on success; pytest reports failures.  All
polynomial comparisons are exact integer equalities.
"""

import json
import time
import warnings
from itertools import combinations, combinations_with_replacement, permutations

from homflytop.planegraph import build_dual, biconnected_blocks, PlaneBipartiteGraph
from homflytop.arborescence import build_arb_tree, spanning_arborescences_bruteforce
from homflytop.laurent import Laurent1, Laurent2, conway_and_alexander
from homflytop.rootpolytope import (
    compatible,
    hypertrees,
    triangulation_from_arbtree,
    verify_shelling,
    f_vector,
    h_from_f,
    h_from_shelling,
)
from homflytop.parking import (
    parking_for_dual,
    parking_from_leaf,
    arborescence_from_parking,
)
from homflytop.homfly import (
    DecoratedSubgraph,
    decorated_subgraph_at,
    median_diagram,
    homfly_skein,
    top_coefficient,
    top_via_tree,
    top_via_h,
    top_via_p,
    homogeneous_top,
    morton_audit,
)
from homflytop.cli import main
from homflytop.fixtures import k32_three_strand

from crosschecks import (
    _connected,
    affine_independence_check,
    mirror_first,
    tutte_doubled_identity,
    tutte_dual_identity,
)


def triangulate(tree):
    """The triangulation of a full tree's type-I leaves, as ``verify`` makes it."""
    return triangulation_from_arbtree(tree.dual, tree.type_one_leaves())


CAP = 14

K32_HOMFLY = Laurent2(
    {(2, 2): 1, (4, 2): 2, (4, 0): 3, (6, 0): -3, (4, -2): 1, (6, -2): -2, (8, -2): 1}
)


def _passed(number, name):
    print(f"criterion {number} ({name}): PASS")


def test_criterion_1_k32_homfly_fixture():
    started = time.monotonic()
    g, dual = k32_three_strand()
    P = homfly_skein(median_diagram(g), cap=CAP)
    assert P == K32_HOMFLY
    assert top_coefficient(P, 6, 5).poly == Laurent1({2: 1, 4: 2}, "v")
    conway, alexander, half = conway_and_alexander(P)
    assert conway == Laurent1({2: 3}, "z")
    assert alexander == Laurent1({1: 3, 0: -6, -1: 3}, "t")
    assert not half
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _passed(1, "k32 homfly fixture")


def test_criterion_2_k32_tree_and_vectors():
    g, dual = k32_three_strand()
    tree = build_arb_tree(dual)
    leaves = tree.type_one_leaves()
    assert len(leaves) == 3
    assert sorted(k for _, k in leaves) == [0, 1, 1]
    tri = triangulate(tree)
    counts = verify_shelling(tri)
    assert counts == [0, 1, 1]
    h = h_from_f(f_vector(tri))
    assert h == Laurent1({4: 1, 3: 2})
    _, p = parking_for_dual(dual)
    assert p == Laurent1({0: 1, 1: 2}, "u")
    assert len(hypertrees(g)) == 3 == len(tri.simplices)
    if len(tree.type_two_leaves()) != 3:
        warnings.warn(
            "soft check: expected 3 type-II leaves, found "
            f"{len(tree.type_two_leaves())}"
        )
    _passed(2, "k32 tree, shelling, h, p")


def test_criterion_3_identity_suite(graph_corpus):
    started = time.monotonic()
    assert len(graph_corpus) >= 200
    assert all(g.n_edges <= 8 for g in graph_corpus)
    for g in graph_corpus:
        n, s = g.n_edges, g.n_vertices
        dual = build_dual(g, kappa_edge=0)
        oracle_top = top_coefficient(
            homfly_skein(median_diagram(g), cap=CAP), n, s
        ).poly
        h_seen = set()
        p_by_root = {}
        for r0, kappa in dual.admissible_pairs():
            rooted = dual.with_root(r0, kappa)
            tree = build_arb_tree(rooted)
            tri = triangulate(tree)
            h = h_from_f(f_vector(tri))
            _, p = parking_for_dual(rooted)
            t_tree = top_via_tree(tree, n, s)
            t_h = top_via_h(h, n, s)
            t_p = top_via_p(p, n, s)
            assert t_tree == t_h == t_p
            assert t_tree.poly == oracle_top
            h_seen.add(h)
            p_by_root.setdefault(r0, p)
            assert p == p_by_root[r0]
        assert len(h_seen) == 1
        assert len(set(p_by_root.values())) == 1
    elapsed = time.monotonic() - started
    assert elapsed < 300, f"took {elapsed:.1f}s"
    _passed(3, f"identity suite over {len(graph_corpus)} graphs in {elapsed:.1f}s")


def test_criterion_4_bijection_suite(graph_corpus):
    for g in graph_corpus:
        dual = build_dual(g, kappa_edge=0)
        brute_by_root = {}
        for r0, kappa in dual.admissible_pairs():
            rooted = dual.with_root(r0, kappa)
            if r0 not in brute_by_root:
                brute_by_root[r0] = spanning_arborescences_bruteforce(rooted)
            tree = build_arb_tree(rooted)
            type_one = [leaf for leaf in tree.leaves if leaf.leaf_type == "I"]
            parkings, _ = parking_for_dual(rooted)
            assert len(type_one) == len(parkings) == len(brute_by_root[r0])
            seen = set()
            for leaf in type_one:
                pi = parking_from_leaf(rooted, leaf.a, leaf.s)
                assert arborescence_from_parking(rooted, pi) == leaf.a
                seen.add(tuple(sorted(pi.items())))
            assert seen == {tuple(sorted(pi.items())) for pi in parkings}
    _passed(4, "parking bijection suite")


def test_criterion_5_triangulation_suite(graph_corpus):
    for g in graph_corpus:
        dual = build_dual(g, kappa_edge=0)
        tree = build_arb_tree(dual)
        tri = triangulate(tree)
        edge_sets = [frozenset(s) for s in tri.to_json()["simplices"]]
        for s1, s2 in combinations(edge_sets, 2):
            assert compatible(g, s1, s2)
        counts = verify_shelling(tri)
        assert h_from_f(f_vector(tri)) == h_from_shelling(counts, tri.dimension)
        for k in range(g.n_edges + 1):
            for subset in combinations(range(g.n_edges), k):
                forest, affine = affine_independence_check(g, subset)
                assert forest == affine
    _passed(5, "triangulation suite")


def test_criterion_6_morton_audits(graph_corpus):
    g, dual = k32_three_strand()
    for r0, kappa in dual.admissible_pairs():
        tree = build_arb_tree(dual.with_root(r0, kappa))
        for leaf in tree.type_two_leaves():
            # raises past the strict bound n - s - 1
            morton_audit(median_diagram(g, decorated_subgraph_at(g, leaf)), cap=CAP)
    audits = strict_audits = 0
    for g in graph_corpus:
        d = median_diagram(g)
        bound = d.n_crossings - d.seifert_circle_count() + 1
        assert homfly_skein(d, cap=CAP).max_degree_second() == bound
        audits += 1
        dual = build_dual(g, kappa_edge=0)
        tree = build_arb_tree(dual)
        for leaf in tree.type_two_leaves():
            sub = decorated_subgraph_at(g, leaf)
            morton_audit(median_diagram(g, sub), cap=CAP)
            strict_audits += 1
    _passed(6, f"morton audits ({audits} diagrams, {strict_audits} strict)")


# -- criterion 7: small-graph enumeration ------------------------------------


def _canonical(n, edges):
    best = None
    for perm in permutations(range(n)):
        relabeled = tuple(sorted(tuple(sorted((perm[u], perm[w]))) for u, w in edges))
        if best is None or relabeled < best:
            best = relabeled
    return (n, best)


def _small_connected_multigraphs(max_edges=6):
    """Connected multigraphs (loops allowed) on <= 4 vertices, plus simple
    connected graphs on 5 vertices and a few larger trees, up to
    isomorphism."""
    seen = set()
    out = []
    for n in range(1, 5):
        slots = [(i, j) for i in range(n) for j in range(i, n)]
        for m in range(0, max_edges + 1):
            for combo in combinations_with_replacement(slots, m):
                touched = {x for pair in combo for x in pair}
                if n > 1 and len(touched) < n:
                    continue
                if not _connected(n, combo):
                    continue
                key = _canonical(n, combo)
                if key in seen:
                    continue
                seen.add(key)
                out.append((n, list(combo)))
    for m in range(4, max_edges + 1):
        slots = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        for combo in combinations(slots, m):
            if not _connected(5, combo):
                continue
            key = _canonical(5, combo)
            if key in seen:
                continue
            seen.add(key)
            out.append((5, list(combo)))
    trees = [
        (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
        (6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]),
        (7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]),
        (7, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6)]),
        (7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]),
    ]
    out.extend(trees)
    return out


def test_criterion_7_tutte_crosschecks(graph_corpus):
    family = _small_connected_multigraphs(max_edges=6)
    assert len(family) >= 200
    for n, edges in family:
        assert tutte_doubled_identity(n, edges, r0=0)
        if len(edges) <= 4 and n > 1:
            for r0 in range(1, n):
                assert tutte_doubled_identity(n, edges, r0=r0)
    checked = 0
    for g in graph_corpus:
        degrees = {e: 0 for e in g.e_vertices}
        for e, _ in g.edges:
            degrees[e] += 1
        if any(d != 2 for d in degrees.values()):
            continue
        assert tutte_dual_identity(build_dual(g, kappa_edge=0))
        checked += 1
    g, dual = k32_three_strand()
    assert tutte_dual_identity(dual)
    assert checked > 0
    _passed(7, f"tutte cross-checks ({len(family)} doubled, {checked + 1} duals)")


# -- criterion 8: mirrors and block sums --------------------------------------


def _block_sum(band_counts):
    """One-point union of parallel-band blocks at a common V-vertex."""
    e_vertices = [f"e{i}" for i in range(len(band_counts))]
    edges = []
    rotations = {"v0": []}
    for i, bands in enumerate(band_counts):
        ids = list(range(len(edges), len(edges) + bands))
        edges.extend([(f"e{i}", "v0")] * bands)
        rotations[f"e{i}"] = ids
        rotations["v0"].extend(reversed(ids))
    return PlaneBipartiteGraph(e_vertices, ["v0"], edges, rotations)


def test_criterion_8_mirror_and_block_sums(graph_corpus):
    for g in list(graph_corpus[:30]) + [k32_three_strand()[0]]:
        edges = (1 << g.n_edges) - 1
        solid = homfly_skein(median_diagram(g), cap=CAP)
        dotted = homfly_skein(
            median_diagram(g, DecoratedSubgraph(edges, edges)), cap=CAP
        )
        assert dotted == mirror_first(solid)

    cases = 0
    for bands in [(2, 2), (2, 3), (3, 3), (2, 2, 2), (3, 2, 3), (2, 2, 2, 2)]:
        g = _block_sum(bands)
        assert g.n_edges <= 8
        for signs in _sign_patterns(bands):
            names = list(g.e_vertices) + list(g.v_vertices)
            blocks = biconnected_blocks(names, list(g.edges), signs)
            enumerators = [
                parking_for_dual(build_dual(_subgraph(g, b.edge_ids), kappa_edge=0))[1]
                for b in blocks
            ]
            formula = homogeneous_top(blocks, enumerators)
            dotted = sum(1 << c for c, s in enumerate(signs) if s < 0)
            d = median_diagram(g, DecoratedSubgraph((1 << g.n_edges) - 1, dotted))
            P = homfly_skein(d, cap=CAP)
            z_slice = top_coefficient(P, d.n_crossings, d.seifert_circle_count())
            assert formula == z_slice.poly
            cases += 1
    _passed(8, f"mirror rule and {cases} block-sum products")


def test_oracle_agrees_at_24_crossings(grid_graph, tmp_path, capsys):
    # `top` raises unless the oracle's z-slice equals the tree route; the h
    # and p routes are read off `hvector` and `parking` on the same grid
    g = grid_graph(4, 4)
    path = tmp_path / "grid-4x4.json"
    path.write_text(json.dumps(g.to_document()))

    def run(*argv):
        code = main([*argv, "--format", "json", "--input", str(path)])
        assert code == 0
        return json.loads(capsys.readouterr().out)

    out = run("top", "--cap", "24")
    (h,) = run("hvector")["results"]
    (p,) = run("parking")["results"]
    n, s = g.n_edges, g.n_vertices
    t_h = top_via_h(Laurent1(dict(h["h_coeffs"])), n, s)
    t_p = top_via_p(Laurent1(dict(p["p_coeffs"])), n, s)
    assert out["oracle"] == out["top"] == str(t_h.poly) == str(t_p.poly)
    assert out["z_exponent"] == t_h.z_exponent == t_p.z_exponent
    print("oracle at 24 crossings (full 4x4 grid): PASS")


def _sign_patterns(bands):
    patterns = []
    for mask in range(1 << len(bands)):
        signs = []
        for i, b in enumerate(bands):
            signs.extend([1 if mask >> i & 1 else -1] * b)
        patterns.append(signs)
    return patterns


def _subgraph(g, edge_ids):
    keep = set(edge_ids)
    edge_map = {c: i for i, c in enumerate(sorted(keep))}
    touched = {x for c in keep for x in g.ends[c]}
    names, k = g.e_vertices + g.v_vertices, len(g.e_vertices)
    return PlaneBipartiteGraph(
        [names[x] for x in range(k) if x in touched],
        [names[x] for x in range(k, g.n_vertices) if x in touched],
        [g.edges[c] for c in sorted(keep)],
        {
            names[x]: [edge_map[c] for c in g.rotations[x] if c in keep]
            for x in range(g.n_vertices)
            if x in touched
        },
    )
