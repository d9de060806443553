"""Cross-checks that no command runs, kept for the tests: independent routes
to facts the package computes another way, and two link-diagram helpers."""

from homflytop.arborescence import _determinant
from homflytop.homfly import LinkDiagram
from homflytop.laurent import Laurent1, Laurent2
from homflytop.parking import enumerate_parking, parking_enumerator, parking_for_dual
from homflytop.planegraph import DualDigraph, PlaneBipartiteGraph, bfs_tree
from homflytop.rootpolytope import _is_forest, coordinate_matrix


def relative_indegree(arcs, r_subset, r) -> int:
    """Edges ending at r whose startpoint lies outside the subset."""
    r_subset = set(r_subset)
    if r not in r_subset:
        raise ValueError("vertex must belong to the subset")
    return sum(1 for tail, head in arcs if head == r and tail not in r_subset)


def tutte(n_vertices: int, edges) -> Laurent2:
    """Tutte polynomial of a connected undirected multigraph.

    Plain deletion-contraction with loop/bridge base cases, exponential in
    the edge count.  Edges are (u, w) pairs over 0..n-1; loops allowed.
    Intended for small graphs (the cross-checks cap at ten edges).
    """
    edges = list(edges)
    if len(edges) > 10:
        raise ValueError("tutte computation capped at 10 edges")
    if not _connected(n_vertices, edges):
        raise ValueError("graph is not connected")
    return _tutte(n_vertices, edges)


def _connected(n_vertices, edges) -> bool:
    return n_vertices <= 1 or len(bfs_tree(range(n_vertices), edges)) == n_vertices


def _tutte(n_vertices, edges) -> Laurent2:
    if not edges:
        return Laurent2.const(1, ("x", "y"))
    (u, w), rest = edges[0], edges[1:]
    if u == w:
        # loop: y * T(G - e)
        return Laurent2({(0, 1): 1}, ("x", "y")) * _tutte(n_vertices, rest)
    contracted = _tutte(*_contract(n_vertices, rest, u, w))
    if not _connected(n_vertices, rest):
        # bridge: x * T(G / e)
        return Laurent2({(1, 0): 1}, ("x", "y")) * contracted
    return _tutte(n_vertices, rest) + contracted


def _contract(n_vertices, edges, u, w):
    """Identify w with u and relabel to a dense range."""
    def squash(x):
        x = u if x == w else x
        return x - 1 if x > w else x

    return n_vertices - 1, [(squash(a), squash(b)) for a, b in edges]


def doubled_digraph(n_vertices: int, edges):
    """Replace each undirected edge by a pair of opposite arcs."""
    arcs = []
    for u, w in edges:
        arcs.append((u, w))
        arcs.append((w, u))
    return n_vertices, arcs


def tutte_doubled_identity(n_vertices: int, edges, r0: int = 0) -> bool:
    """Check p_J(u) = u^b1(K) * T_K(1, 1/u) for J the doubled digraph of K."""
    t = tutte(n_vertices, edges)
    b1 = len(edges) - n_vertices + 1
    # u^b1 * T(1, 1/u): term x^i y^j evaluates to u^(b1 - j)
    expected: dict[int, int] = {}
    for (_, j), c in t.coeffs.items():
        e = b1 - j
        expected[e] = expected.get(e, 0) + c
    if any(e < 0 for e in expected):
        return False
    _, arcs = doubled_digraph(n_vertices, edges)
    p = parking_enumerator(enumerate_parking(n_vertices, arcs, r0))
    return p == Laurent1(expected, "u")


def tutte_dual_identity(dual: DualDigraph) -> bool:
    """Check p_G*(u) = u^(|V|-1) * T_K*(1/u, 1) when E is all degree 2.

    Here K* is the graph on the V class whose edges are the E-vertices.
    """
    g = dual.graph
    neighbors: dict[str, list[str]] = {e: [] for e in g.e_vertices}
    for e, v in g.edges:
        neighbors[e].append(v)
    if any(len(vs) != 2 for vs in neighbors.values()):
        raise ValueError("identity requires every E-vertex to have degree 2")
    vpos = {v: i for i, v in enumerate(g.v_vertices)}
    kstar_edges = [tuple(sorted((vpos[a], vpos[b]))) for a, b in neighbors.values()]
    t = tutte(len(g.v_vertices), kstar_edges)
    shift = len(g.v_vertices) - 1
    expected: dict[int, int] = {}
    for (i, _), c in t.coeffs.items():
        e = shift - i
        expected[e] = expected.get(e, 0) + c
    if any(e < 0 for e in expected):
        return False
    _, p = parking_for_dual(dual)
    return p == Laurent1(expected, "u")


def _affine_rank_full(g: PlaneBipartiteGraph, edge_ids) -> bool:
    """Whether the polytope vertices of the given edges are affinely independent.

    The differences from the first point are independent iff their Gram
    matrix is nonsingular, which an exact integer determinant decides.
    """
    rows = coordinate_matrix(g)["rows"]
    points = [rows[c] for c in edge_ids]
    diffs = [[a - b for a, b in zip(p, points[0])] for p in points[1:]]
    gram = [[sum(a * b for a, b in zip(x, y)) for y in diffs] for x in diffs]
    return _determinant(gram) != 0


def affine_independence_check(g: PlaneBipartiteGraph, edge_ids) -> tuple[bool, bool]:
    """(cycle-free test, exact affine-rank test); the two must agree."""
    edge_ids = list(edge_ids)
    return _is_forest(g, edge_ids), _affine_rank_full(g, edge_ids)


def dual_subgraph(g: PlaneBipartiteGraph, primal_edges) -> frozenset[int]:
    """Edge ids of the dual subgraph: the complement of the given set.

    A set of edges of G is paired with the complementary set of dual edges,
    so applying this twice returns the original set.
    """
    keep = set(primal_edges)
    return frozenset(c for c in range(g.n_edges) if c not in keep)


def relabel(d: LinkDiagram, perm) -> LinkDiagram:
    """Renumber crossings by perm (old index -> new index)."""
    n = d.n_crossings

    def m(p):
        return 2 * perm[p // 2] + (p & 1)

    succ = [0] * (2 * n)
    for p, q in enumerate(d.succ):
        succ[m(p)] = m(q)
    signs = [0] * n
    over = [0] * n
    for i in range(n):
        signs[perm[i]] = d.signs[i]
        over[perm[i]] = d.over[i]
    return LinkDiagram(tuple(signs), tuple(succ), tuple(over), d.free_loops)


def component_count(d: LinkDiagram) -> int:
    return len(d.components()) + d.free_loops
