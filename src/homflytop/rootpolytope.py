"""Root polytope of a bipartite graph: simplices, triangulation, shelling.

Vertices of the polytope are the 0/1 vectors e + v over edges ev; parallel
edges give the same point.  A simplex is the bitmask of its points, made
once per triangulation and cached nowhere.  A triangulation built from an
arborescence tree is validated combinatorially: cardinality equal to the
number of hypertrees, the normalised volume (Postnikov, "Permutohedra,
associahedra, and beyond", 2009, section 12), and the facet condition of
De Loera, Rambau and Santos ("Triangulations", 2010, section 4.5): every
interior facet lies in exactly one other simplex, on the opposite side.
Each audit is exact and enumerates no faces or spanning trees:

- the hypertree count, as the number of spanning arborescences of the dual
  (Kalman 2013), a determinant (``arborescence_count``);
- facets, in one pass over a map from each facet to the simplices holding
  it, with a few mask operations per facet (``_check_facets``);
- compatibility of two simplices (``compatible``, the pairwise reference
  for the facet audit), by its definition: a search over simple paths for
  an alternating cycle (Postnikov 2009);
- shelling and f-vector: the faces new in each simplex.  Let R be its
  points whose opposite facet lies in an earlier simplex, read off the set
  of earlier facets.  Each point keeps a bitset of the simplices holding
  it, so the earlier simplices containing R are |R| big-int ANDs away
  (``verify_shelling``).  In a shelling none does, and the new faces are
  those holding R, whose sizes t^|R| (1 + t)^(d + 1 - |R|) counts
  (``f_from_attach_counts``, and ``f_vector`` of a triangulation); an
  order that is not a shelling is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .laurent import Laurent1
from .planegraph import InvariantError, PlaneBipartiteGraph
from .arborescence import ArbTree, _determinant, arborescence_count


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

    The differences from the first point are independent iff their Gram
    matrix is nonsingular, which an exact integer determinant decides.
    """
    points = coordinate_matrix(g, edge_ids)["rows"]
    diffs = [[a - b for a, b in zip(p, points[0])] for p in points[1:]]
    gram = [[sum(a * b for a, b in zip(x, y)) for y in diffs] for x in diffs]
    return _determinant(gram) != 0


def affine_independence_check(g: PlaneBipartiteGraph, edge_ids) -> tuple[bool, bool]:
    """(cycle-free test, exact affine-rank test); the two must agree."""
    edge_ids = list(edge_ids)
    return _is_forest(g, edge_ids), _affine_rank_full(g, edge_ids)


# -- polytope points ----------------------------------------------------------


def _pair_ids(g: PlaneBipartiteGraph):
    """Edge id -> pair id (parallel edges share one), pair id -> (E id, V id)
    and vertex id -> mask of its neighbours, E-vertices numbered first."""
    pos = {x: i for i, x in enumerate(g.e_vertices + g.v_vertices)}
    pairs: dict[tuple[int, int], int] = {}
    of_edge = [pairs.setdefault((pos[e], pos[v]), len(pairs)) for e, v in g.edges]
    nbrs = [0] * g.n_vertices
    for e, v in pairs:
        nbrs[e] |= 1 << v
        nbrs[v] |= 1 << e
    return of_edge, list(pairs), nbrs


# -- compatibility -----------------------------------------------------------


def compatible(g: PlaneBipartiteGraph, t1, t2) -> bool:
    """Whether the simplices of two spanning trees meet in a common face.

    Orient t1's edges E -> V and t2's edges V -> E; the simplices are
    compatible iff the union digraph has no simple directed cycle through
    four or more vertices.  (Directed 2-cycles come from shared or parallel
    edges and correspond to shared polytope vertices, not violations.)
    Every such cycle passes an E-vertex, so a depth-first search over
    simple paths from each E-vertex decides it; exponential in the worst
    case, it serves as a test reference only.
    """
    forward: dict[str, set[str]] = {}
    backward: dict[str, set[str]] = {}
    for c in t1:
        e, v = g.edges[c]
        forward.setdefault(e, set()).add(v)
    for c in t2:
        e, v = g.edges[c]
        backward.setdefault(v, set()).add(e)

    def long_cycle_from(start) -> bool:
        stack = [(start, frozenset([start]), True)]
        while stack:
            x, path, from_e = stack.pop()
            for y in (forward if from_e else backward).get(x, ()):
                if y == start and len(path) >= 4:
                    return True
                if y not in path:
                    stack.append((y, path | {y}, not from_e))
        return False

    return not any(long_cycle_from(e) for e in g.e_vertices)


# -- spanning trees and hypertrees ------------------------------------------


def spanning_trees(g: PlaneBipartiteGraph) -> list[frozenset[int]]:
    n = g.n_vertices
    out = []
    for subset in combinations(range(g.n_edges), n - 1):
        if _is_forest(g, subset):
            out.append(frozenset(subset))
    return out


def hypertrees(g: PlaneBipartiteGraph) -> set[tuple[int, ...]]:
    """The valence-minus-one vectors over E of the spanning trees.

    A test reference: their number is the normalised volume of Q_G
    (Postnikov 2009, section 12) and the dual's arborescence count at any
    root (Kalman 2013), which ``arborescence_count`` computes directly.
    """
    return {
        tuple(sum(g.edges[c][0] == e for c in tree) - 1 for e in g.e_vertices)
        for tree in spanning_trees(g)
    }


# -- triangulation ------------------------------------------------------------


@dataclass
class Triangulation:
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

    def points(self, simplex: frozenset[int]) -> frozenset[tuple[str, str]]:
        return frozenset(self.graph.edges[c] for c in simplex)

    def to_json(self):
        return {
            "dimension": self.dimension,
            "simplices": [sorted(s) for s in self.simplices],
        }


def triangulation_from_arbtree(tree: ArbTree, g: PlaneBipartiteGraph) -> Triangulation:
    """Simplices dual to the type-I leaves, in right-to-left leaf order.

    Validates the hypertree count, as the dual's arborescence count (Kalman
    2013), distinct vertex sets and the facets (see ``_check_facets``);
    these always hold for trees built from a valid dual, so a failure means
    a bug.
    """
    all_edges = frozenset(range(g.n_edges))
    simplices = [all_edges - a for a, _ in tree.type_one_leaves()]
    expected = arborescence_count(tree.dual)
    if len(simplices) != expected:
        raise InvariantError(f"{len(simplices)} simplices but {expected} hypertrees")
    tri = Triangulation(g, simplices)
    if len(set(tri.masks)) != len(simplices):
        raise InvariantError("two simplices share the same vertex set")
    if len(simplices) > 1:
        _check_facets(tri)
    return tri


def _check_facets(tri: Triangulation):
    """Raise unless the simplices, as many as the hypertrees, triangulate Q_G.

    The statement used (De Loera, Rambau and Santos, "Triangulations",
    2010, section 4.5): full-dimensional simplices spanned by points of a
    polytope triangulate it iff every facet of one of them that is interior
    to the polytope lies in exactly one other, on the opposite side, and
    their volumes add up to the volume of the polytope.  Every simplex of
    Q_G spanned by a spanning tree is unimodular, and the normalised volume
    of Q_G is the number of hypertrees (Postnikov 2009, section 12), which
    the caller has checked as the dual's arborescence count (Kalman 2013).

    The facet of the tree T opposite its edge t: removing t splits the
    vertices into C1, the side of t's E-end, and C2.  The facet lies on the
    hyperplane x(E & C1) = x(V & C1), with t on the + side, and the point
    e + v of an edge ev on the - side iff e is in C2 and v in C1.  So it is
    a boundary facet iff G has no edge from E & C2 to V & C1.  Per tree, the
    vertex set of each subtree and the neighbours of its vertices are
    unions over the children, so each facet costs a few mask operations.
    """
    g = tri.graph
    of_edge, ends, nbrs = tri.pair_ids
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


def verify_shelling(tri: Triangulation) -> list[int]:
    """Check the stored order is a shelling; return the attach counts.

    The restriction set R_i of simplex i holds its vertices whose opposite
    facet lies in an earlier simplex, read off the set of earlier facets;
    the attach count is |R_i|.  A face of simplex i lies in one of those
    facets iff it misses a vertex of R_i, so a list of equal-size simplices
    is shelled iff no earlier simplex contains R_i (Ziegler, "Lectures on
    Polytopes", section 8.2).  Each point has a bitset of the simplices
    holding it, bit j for simplex j, so the earlier simplices containing
    R_i are the AND of |R_i| bitsets with the bits below i, not a pass over
    the earlier simplices.
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


# -- f- and h-vectors ---------------------------------------------------------


def f_vector(tri: Triangulation) -> Laurent1:
    """Face-count polynomial f(y) = y^(d+1) + f_0 y^d + ... + f_d.

    Faces are the subsets of the chosen simplices' vertex sets, deduplicated
    across simplices; the leading term counts the empty face.  It is
    ``f_from_attach_counts`` of the attach counts of ``verify_shelling``,
    so it raises that function's InvariantError when the stored order is
    not a shelling.
    """
    return f_from_attach_counts(verify_shelling(tri), tri.dimension)


def f_from_attach_counts(counts, dimension: int) -> Laurent1:
    """The f-vector of a shelling with the given attach counts.

    Each face is counted at the first simplex holding it.  In a shelling
    the new faces of simplex i are those holding R_i (see
    ``verify_shelling``), so by size they are the coefficients of
    t^|R_i| (1 + t)^(d + 1 - |R_i|) (Ziegler, "Lectures on Polytopes",
    Lecture 8).  The counts are tallied and the tally's sum is expanded
    once by Horner's rule in (1 + t), with additions only; only the first
    simplex has R empty, and it holds the empty face.
    """
    size = dimension + 1  # points per simplex
    by_restriction = [0] * (size + 1)
    for r in counts:
        by_restriction[r] += 1
    row = [0] * (size + 1)  # sum of count * t^r * (1 + t)^(size - r)
    for r, count in enumerate(by_restriction):
        for j in range(r, 0, -1):  # times (1 + t)
            row[j] += row[j - 1]
        row[r] += count
    return Laurent1({size - j: c for j, c in enumerate(row)}, "y")


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
