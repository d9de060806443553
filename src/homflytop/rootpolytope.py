"""Root polytope of a bipartite graph: simplices, triangulation, shelling.

Vertices of the polytope are the 0/1 vectors e + v over edges ev; parallel
edges give the same point, so simplices are handled as sets of endpoint
pairs.  The triangulation produced from an arborescence tree is validated
combinatorially: pairwise compatibility (no alternating cycle between two
trees) and cardinality equal to the number of hypertrees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .laurent import Laurent1
from .planegraph import InvariantError, PlaneBipartiteGraph
from .arborescence import ArbTree


# -- affine independence, two ways -----------------------------------------


def _is_forest(g: PlaneBipartiteGraph, edge_ids) -> bool:
    parent: dict[str, str] = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent.setdefault(parent[x], parent[x])
            x = parent[x]
        return x

    for c in edge_ids:
        e, v = g.edges[c]
        re, rv = find(e), find(v)
        if re == rv:
            return False
        parent[re] = rv
    return True


def _affine_rank_full(g: PlaneBipartiteGraph, edge_ids) -> bool:
    """Whether the polytope vertices of the given edges are affinely independent.

    Exact Gaussian elimination over the rationals on the difference vectors.
    """
    edge_ids = list(edge_ids)
    if len(edge_ids) <= 1:
        return True
    names = list(g.e_vertices) + list(g.v_vertices)
    pos = {x: i for i, x in enumerate(names)}

    def coords(c):
        vec = [Fraction(0)] * len(names)
        e, v = g.edges[c]
        vec[pos[e]] = Fraction(1)
        vec[pos[v]] = Fraction(1)
        return vec

    base = coords(edge_ids[0])
    rows = []
    for c in edge_ids[1:]:
        vec = coords(c)
        rows.append([a - b for a, b in zip(vec, base)])
    rank = 0
    cols = len(names)
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col] / lead
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank == len(rows)


def affine_independence_check(g: PlaneBipartiteGraph, edge_ids) -> tuple[bool, bool]:
    """(cycle-free test, exact affine-rank test); the two must agree."""
    return _is_forest(g, edge_ids), _affine_rank_full(g, edge_ids)


# -- compatibility -----------------------------------------------------------


def compatible(g: PlaneBipartiteGraph, t1, t2) -> bool:
    """Whether the simplices of two spanning trees meet in a common face.

    Orient t1's edges E -> V and t2's edges V -> E; the simplices are
    compatible iff the union digraph has no simple directed cycle through
    four or more vertices.  (Directed 2-cycles come from shared or parallel
    edges and correspond to shared polytope vertices, not violations.)
    """
    forward: dict[str, set[str]] = {}
    backward: dict[str, set[str]] = {}
    for c in t1:
        e, v = g.edges[c]
        forward.setdefault(e, set()).add(v)
    for c in t2:
        e, v = g.edges[c]
        backward.setdefault(v, set()).add(e)

    def hunt(start: str) -> bool:
        # depth-first search for a simple cycle of length >= 4 back to start
        stack = [(start, frozenset([start]), 0, True)]
        while stack:
            x, path, depth, from_e = stack.pop()
            nbrs = forward.get(x, ()) if from_e else backward.get(x, ())
            for y in nbrs:
                if y == start and depth + 1 >= 4:
                    return True
                if y not in path:
                    stack.append((y, path | {y}, depth + 1, not from_e))
        return False

    return not any(hunt(e) for e in g.e_vertices)


# -- spanning trees and hypertrees ------------------------------------------


def spanning_trees(g: PlaneBipartiteGraph) -> list[frozenset[int]]:
    n = g.n_vertices
    out = []
    for subset in combinations(range(g.n_edges), n - 1):
        if _is_forest(g, subset):
            out.append(frozenset(subset))
    return out


def hypertrees(g: PlaneBipartiteGraph) -> set[tuple[int, ...]]:
    """Valence-minus-one distributions over E realized by spanning trees."""
    found = set()
    for tree in spanning_trees(g):
        degree = {e: 0 for e in g.e_vertices}
        for c in tree:
            degree[g.edges[c][0]] += 1
        found.add(tuple(degree[e] - 1 for e in g.e_vertices))
    return found


# -- triangulation ------------------------------------------------------------


@dataclass
class Triangulation:
    """Ordered maximal simplices of the root polytope, with face data.

    Simplices are stored as frozensets of edge ids (spanning trees of the
    graph); their polytope vertex sets are the corresponding endpoint pairs.
    """

    graph: PlaneBipartiteGraph
    simplices: list[frozenset[int]]
    dimension: int = field(init=False)

    def __post_init__(self):
        self.dimension = self.graph.n_vertices - 2

    def points(self, simplex: frozenset[int]) -> frozenset[tuple[str, str]]:
        return frozenset(self.graph.edges[c] for c in simplex)

    def to_json(self):
        return {
            "dimension": self.dimension,
            "simplices": [sorted(s) for s in self.simplices],
        }


def triangulation_from_arbtree(tree: ArbTree, g: PlaneBipartiteGraph) -> Triangulation:
    """Simplices dual to the type-I leaves, in right-to-left leaf order.

    Validates pairwise compatibility and the hypertree count; these always
    hold for trees built from a valid dual, so a failure means a bug.
    """
    all_edges = frozenset(range(g.n_edges))
    simplices = [all_edges - a for a, _ in tree.type_one_leaves()]
    for s1, s2 in combinations(simplices, 2):
        if not compatible(g, s1, s2):
            raise InvariantError(
                f"incompatible simplices {sorted(s1)} and {sorted(s2)}"
            )
    expected = len(hypertrees(g))
    if len(simplices) != expected:
        raise InvariantError(
            f"{len(simplices)} simplices but {expected} hypertrees"
        )
    if len({frozenset(g.edges[c] for c in s) for s in simplices}) != len(simplices):
        raise InvariantError("two simplices share the same vertex set")
    return Triangulation(g, simplices)


def verify_shelling(tri: Triangulation) -> list[int]:
    """Check the stored order is a shelling; return the attach counts.

    For each simplex the facets lying in earlier simplices are collected,
    and every intersection with an earlier simplex must sit inside one of
    those facets.  The first count is 0 and all others are positive.
    """
    counts = []
    seen: list[frozenset] = []
    for i, simplex in enumerate(tri.simplices):
        pts = tri.points(simplex)
        shared_facets = set()
        for earlier in seen:
            common = pts & earlier
            if len(common) == len(pts) - 1:
                shared_facets.add(common)
        for earlier in seen:
            common = pts & earlier
            if not any(common <= f for f in shared_facets):
                raise InvariantError(
                    f"simplex {i} meets an earlier simplex outside its "
                    "shared facets: not a shelling"
                )
        if i > 0 and not shared_facets:
            raise InvariantError(f"simplex {i} attaches along no facet")
        counts.append(len(shared_facets))
        seen.append(pts)
    if counts and counts[0] != 0:
        raise InvariantError("first simplex cannot attach along facets")
    return counts


# -- f- and h-vectors ---------------------------------------------------------


def f_vector(tri: Triangulation) -> Laurent1:
    """Face-count polynomial f(y) = y^(d+1) + f_0 y^d + ... + f_d.

    Faces are the subsets of the chosen simplices' vertex sets, deduplicated
    across simplices; the leading term counts the empty face.  Each polytope
    point is one bit, so a simplex is a mask and its faces are its submasks.
    """
    d = tri.dimension
    bit: dict[tuple[str, str], int] = {}
    faces: set[int] = set()
    for simplex in tri.simplices:
        mask = 0
        for pt in tri.points(simplex):
            mask |= bit.setdefault(pt, 1 << len(bit))
        sub = mask
        while sub:
            faces.add(sub)
            sub = (sub - 1) & mask
        faces.add(0)
    out: dict[int, int] = {}
    for face in faces:
        e = d + 1 - face.bit_count()
        out[e] = out.get(e, 0) + 1
    return Laurent1(out, "y")


def h_from_f(f: Laurent1) -> Laurent1:
    """h(x) = f(x - 1)."""
    return f.substitute_shifted(-1, var="x")


def h_from_shelling(counts, dimension: int) -> Laurent1:
    """h(x) as the sum of x^(d + 1 - c_i) over the shelling."""
    out: dict[int, int] = {}
    for c in counts:
        e = dimension + 1 - c
        out[e] = out.get(e, 0) + 1
    return Laurent1(out, "x")


def coordinate_matrix(g: PlaneBipartiteGraph, edge_ids=None):
    """0/1 coordinate rows of the polytope vertices of the given edges.

    Columns follow the E-vertices then the V-vertices; each row has exactly
    two ones.  Intended for export to external polytope tools.
    """
    names = list(g.e_vertices) + list(g.v_vertices)
    pos = {x: i for i, x in enumerate(names)}
    if edge_ids is None:
        edge_ids = range(g.n_edges)
    rows = []
    for c in edge_ids:
        row = [0] * len(names)
        e, v = g.edges[c]
        row[pos[e]] = 1
        row[pos[v]] = 1
        rows.append(row)
    return {"columns": names, "rows": rows}
