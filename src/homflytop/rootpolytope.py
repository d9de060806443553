"""Root polytope of a bipartite graph: simplices, triangulation, shelling.

Vertices of the polytope are the 0/1 vectors e + v over edges ev; parallel
edges give the same point.  A simplex is an int bitmask, of its edges (the
complement of a type-I leaf's arborescence) and of its points; sorted edge
lists are made only for output and messages.  A triangulation built from
the type-I leaves is validated combinatorially: cardinality equal to the
number of hypertrees, the normalised volume (Postnikov, "Permutohedra,
associahedra, and beyond", 2009, section 12), and the facet condition of
De Loera, Rambau and Santos ("Triangulations", 2010, section 4.5): every
interior facet lies in exactly one other simplex, on the opposite side.
Each audit is exact and enumerates no faces or spanning trees:

- the hypertree count, as the number of spanning arborescences of the dual
  (Kalman 2013), a determinant taken once per graph (``_hypertree_count``);
- facets and shelling, in one pass over a map from each facet seen to what
  its first simplex left there (``_facet_pass``).  A few mask operations
  per facet audit it, and the facets already in the map give R, the
  points of a simplex whose opposite facet lies in an earlier simplex.
  Each point keeps a bitset of the simplices holding it, so the earlier
  simplices containing R are |R| big-int ANDs away.  In a shelling none
  does (``verify_shelling``), and the new faces are those holding R, whose
  sizes t^|R| (1 + t)^(d + 1 - |R|) counts (``f_from_attach_counts``, and
  ``f_vector`` of a triangulation);
- compatibility of two simplices (``compatible``, the pairwise reference
  for the facet audit), by its definition: a search over simple paths for
  an alternating cycle (Postnikov 2009).
"""

from __future__ import annotations

from itertools import combinations

from .laurent import Laurent1
from .planegraph import DualDigraph, InvariantError, PlaneBipartiteGraph, build_dual
from .arborescence import _bit_positions, arborescence_count


# -- polytope points ----------------------------------------------------------


def _pair_ids(g: PlaneBipartiteGraph):
    """Edge id -> pair id (parallel edges share one), pair id -> (E id, V id),
    and per vertex id (the graph's, E-vertices first) the masks of its
    neighbours, of the pair ids at it and of its class."""
    pairs: dict[tuple[int, int], int] = {}
    of_edge = [pairs.setdefault(ends, len(pairs)) for ends in g.ends]
    n, k = g.n_vertices, len(g.e_vertices)
    nbrs, incident = [0] * n, [0] * n
    for p, (e, v) in enumerate(pairs):
        nbrs[e] |= 1 << v
        nbrs[v] |= 1 << e
        incident[e] |= 1 << p
        incident[v] |= 1 << p
    classes = [(1 << k) - 1] * k + [(1 << n) - (1 << k)] * (n - k)
    return of_edge, list(pairs), nbrs, incident, classes


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
    forward: dict[int, set[int]] = {}
    backward: dict[int, set[int]] = {}
    for c in t1:
        e, v = g.ends[c]
        forward.setdefault(e, set()).add(v)
    for c in t2:
        e, v = g.ends[c]
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

    return not any(long_cycle_from(e) for e in range(len(g.e_vertices)))


# -- spanning trees and hypertrees ------------------------------------------


def _is_forest(g: PlaneBipartiteGraph, edge_ids) -> bool:
    parent: dict[int, int] = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent.setdefault(parent[x], parent[x])
            x = parent[x]
        return x

    for c in edge_ids:
        e, v = g.ends[c]
        re, rv = find(e), find(v)
        if re == rv:
            return False
        parent[re] = rv
    return True


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
    k = len(g.e_vertices)
    return {
        tuple(sum(g.ends[c][0] == e for c in tree) - 1 for e in range(k))
        for tree in spanning_trees(g)
    }


# -- triangulation ------------------------------------------------------------


class Triangulation:
    """Ordered maximal simplices of the root polytope, with face data.

    Simplices are edge bitmasks of spanning trees of the graph.  Made with
    them: ``masks``, the simplices over the graph's pair ids (``_pair_ids``;
    parallel edges share one), which are the edge ids when no two edges are
    parallel.  ``_facet_pass`` sets ``shelled``: the attach counts and the
    first simplex that breaks the shelling, or None.
    """

    __slots__ = ("graph", "simplices", "dimension", "masks", "shelled")

    def __init__(self, graph: PlaneBipartiteGraph, simplices: list[int]):
        self.graph, self.simplices = graph, simplices
        self.dimension = graph.n_vertices - 2
        of_edge, ends, *_ = graph.table(_pair_ids)
        self.masks = simplices if len(ends) == len(of_edge) else [
            sum({1 << of_edge[c] for c in _bit_positions(s)}) for s in simplices
        ]
        self.shelled = None

    def to_json(self):
        return {
            "dimension": self.dimension,
            "simplices": [_bit_positions(s) for s in self.simplices],
        }


def _hypertree_count(g: PlaneBipartiteGraph) -> int:
    """The hypertrees of G, as the dual's arborescence count (Kalman 2013):
    the dual is balanced, so its count is the same at every root."""
    return arborescence_count(build_dual(g))


def triangulation_from_arbtree(dual: DualDigraph, leaves) -> Triangulation:
    """Simplices dual to the type-I leaves, (edge mask of a, k) each as
    ``type_one_leaves`` gives them, in that order: the complements of a.

    Validates the hypertree count (``_hypertree_count``), distinct vertex
    sets and the facets (see ``_facet_pass``, which also shells the order);
    these always hold for trees built from a valid dual, so a failure means
    a bug.
    """
    all_edges = (1 << dual.n_edges) - 1
    simplices = [all_edges ^ a for a, _ in leaves]
    expected = dual.graph.table(_hypertree_count)
    if len(simplices) != expected:
        raise InvariantError(f"{len(simplices)} simplices but {expected} hypertrees")
    tri = Triangulation(dual.graph, simplices)
    if len(set(tri.masks)) != len(simplices):
        raise InvariantError("two simplices share the same vertex set")
    fault = _facet_pass(tri)
    if fault is not None:
        raise InvariantError(fault)
    return tri


def _facet_lists(g: PlaneBipartiteGraph):
    """``_facet_pass``'s graph-only lists beside ``_pair_ids``: per vertex id
    its singleton mask; per pair id its bit, its E-end and the XOR of its
    ends (x ^ other_end[p] is p's end other than x)."""
    ends = g.table(_pair_ids)[1]
    singletons = [1 << x for x in range(g.n_vertices)]
    bits = [1 << p for p in range(len(ends))]
    return singletons, bits, [e for e, _ in ends], [e ^ v for e, v in ends]


def _facet_pass(tri: Triangulation) -> str | None:
    """Audit the facets and shell the order in one pass over the facets;
    store ``tri.shelled`` and return the audit's first fault, or None.

    Full-dimensional simplices spanned by points of a polytope triangulate
    it iff every facet of one of them that is interior to the polytope
    lies in exactly one other, on the opposite side, and their volumes add
    up to the polytope's (De Loera, Rambau and Santos, 2010, section 4.5).
    Each simplex of Q_G spanned by a spanning tree is unimodular, and the
    caller has checked their number against the hypertrees, the normalised
    volume of Q_G (Postnikov 2009, section 12).

    The facet of the tree T opposite its edge t: removing t splits the
    vertices into C1, the side of t's E-end, and C2.  The facet lies on the
    hyperplane x(E & C1) = x(V & C1), with t on the + side, and the point
    e + v of an edge ev on the - side iff e is in C2 and v in C1.  So it is
    a boundary facet iff G has no edge from E & C2 to V & C1.  Per tree, the
    vertex set of each subtree and the neighbours of its vertices are
    unions over the children, so each facet costs a few mask operations.
    C1 and C2 are the parts of the facet's forest, one the subtree cut off
    by the edge at hand: a facet keeps its first tree's E-end of t, and a
    second tree's edge lies on the other side iff its E-end is not in that
    end's part.  The facets met earlier give R_i of ``verify_shelling``.
    """
    if len(tri.masks) < 2:  # a lone simplex shares no facet and is shelled
        tri.shelled = [0] * len(tri.masks), None
        return None
    _, ends, nbrs, incident, same_class = tri.graph.table(_pair_ids)
    singletons, bits, e_end, other_end = tri.graph.table(_facet_lists)
    # an int hashes as its value mod 2^61 - 1, so wider facet masks that
    # differ in bits p and p + 61 would collide; their bytes are the keys
    width = (len(ends) + 7) // 8 if len(ends) > 60 else 0
    # per facet seen: the E-end of its first tree's edge, -1 once a second
    # simplex holds it; and the interior facets held once so far, in order
    first_end: dict = {}
    lonely: dict = {}
    fault = None
    rows = [bytearray(len(tri.masks) // 8 + 1) for _ in ends]
    restrictions = []

    def holder(facet):  # the first simplex holding a facet, for messages
        return next(
            _bit_positions(s) for s, m in zip(tri.simplices, tri.masks)
            if m & facet == facet
        )

    for i, (simplex, mask) in enumerate(zip(tri.simplices, tri.masks)):
        byte, bit = i >> 3, 1 << (i & 7)
        # breadth-first from vertex 0 over the tree's pairs: (vertex, parent, pair)
        left, order = mask, [(0, 0, 0)]
        for x, _, _ in order:
            at = left & incident[x]
            left ^= at
            while at:
                low = at & -at
                at ^= low
                p = low.bit_length() - 1
                order.append((x ^ other_end[p], x, p))
                rows[p][byte] |= bit
        below = singletons[:]  # subtree vertices
        reach = nbrs[:]  # their neighbours in G
        restriction = 0
        for x, parent, p in reversed(order[1:]):  # children before parents
            below[parent] |= below[x]
            reach[parent] |= reach[x]
            facet = mask ^ bits[p]
            key = facet.to_bytes(width, "little") if width else facet
            seen = first_end.get(key)
            if seen is None:
                first_end[key] = e_end[p]
                # x is the end of p in C1 if it is an E-vertex, else in C2;
                # a - side edge joins the subtree to a vertex of x's class
                if reach[x] & same_class[x] & ~below[x]:
                    lonely[key] = facet
                continue
            restriction |= bits[p]
            if fault is not None:  # only the first fault is reported
                continue
            if seen < 0:
                fault = (
                    "incompatible simplices: a facet of "
                    f"{_bit_positions(simplex)} lies in three simplices"
                )
            elif below[x] >> e_end[p] & 1 == below[x] >> seen & 1:
                fault = (
                    f"incompatible simplices {holder(facet)} and "
                    f"{_bit_positions(simplex)}: on one side of a shared facet"
                )
            else:
                first_end[key] = -1
                lonely.pop(key, None)
        restrictions.append(restriction)
    if fault is None and lonely:
        fault = (
            f"incompatible simplices: an interior facet of "
            f"{holder(next(iter(lonely.values())))} lies in no other simplex"
        )
    holders = [int.from_bytes(row, "little") for row in rows]
    broken = None
    for i, restriction in enumerate(restrictions):
        containing = (1 << i) - 1  # earlier simplices holding R_i so far
        while restriction and containing:
            low = restriction & -restriction
            containing &= holders[low.bit_length() - 1]
            restriction ^= low
        if containing:
            broken = i
            break
    tri.shelled = [r.bit_count() for r in restrictions], broken
    return fault


def verify_shelling(tri: Triangulation) -> list[int]:
    """Check the stored order is a shelling; return the attach counts.

    The restriction set R_i of simplex i holds its vertices whose opposite
    facet lies in an earlier simplex; the attach count is |R_i|.  A face of
    simplex i lies in one of those facets iff it misses a vertex of R_i, so
    a list of equal-size simplices is shelled iff no earlier simplex
    contains R_i (Ziegler, "Lectures on Polytopes", section 8.2).  Read off
    ``_facet_pass``, run here unless the construction ran it.
    """
    if tri.shelled is None:
        _facet_pass(tri)
    counts, broken = tri.shelled
    if broken is not None:
        raise InvariantError(
            f"simplex {broken} meets an earlier simplex outside its "
            "shared facets: not a shelling"
        )
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


def coordinate_matrix(g: PlaneBipartiteGraph):
    """0/1 coordinate rows of the polytope vertices, one per edge.

    Columns follow the vertex ids, E-vertices first; each row has exactly
    two ones.  Intended for export to external polytope tools.
    """
    names = list(g.e_vertices) + list(g.v_vertices)
    rows = [[int(x in ends) for x in range(len(names))] for ends in g.ends]
    return {"columns": names, "rows": rows}
