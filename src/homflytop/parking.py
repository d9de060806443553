"""Parking functions of a rooted digraph, their enumerator, and the
bijection with type-I leaves of the arborescence tree.

The parking test decides the subset definition exactly with Dhar's burning
algorithm (Dhar, "Self-organized critical state of sandpile automaton
models", 1990), in time linear in the digraph.  The test takes the root as
data, -1 in its value list, so one test of a dual serves every root.  The
enumerator searches the down-set of parking functions depth first, one
burning test per child, so its cost follows the number of functions found.
The bijection reads a leaf's edge masks.  Its inverse builds no tree: it
resumes the tree's contour walk down the one path the function picks,
checked first by the dual's one burning test.
"""

from __future__ import annotations

from .laurent import Laurent1
from .planegraph import DualDigraph, InvariantError, PlaneBipartiteGraph, build_dual
from .arborescence import ArbTree, _bit_positions, _walk_to_augmenting


# -- definitions on a generic rooted digraph --------------------------------
# A digraph is (n_vertices, arcs, r0) with arcs a sequence of (tail, head)
# pairs over vertices 0..n-1.  DualDigraph supplies this via .arcs().


def _burning_test(n_vertices: int, arcs):
    """Dhar's burning test for one digraph, its adjacency built once.

    Returns a predicate on values given as a list over the vertices, with
    -1 at the root: start with every vertex of negative value burnt, and burn
    any vertex whose value is below its in-degree from the burnt set.  The
    predicate holds iff every vertex burns; the unburnt rest would be a
    subset with no vertex below its relative in-degree, and the first vertex
    of any subset to burn is one.  The root is data, so one test serves every
    root of a digraph.
    """
    heads: list[list[int]] = [[] for _ in range(n_vertices)]
    for tail, head in arcs:
        if head != tail:
            heads[tail].append(head)

    def burns(values) -> bool:
        fed = [0] * n_vertices  # in-degree from the burnt set
        burning = [r for r in range(n_vertices) if values[r] < 0]
        burnt = len(burning)
        while burning:
            for r in heads[burning.pop()]:
                fed[r] += 1
                if fed[r] == values[r] + 1:  # only once, as fed only grows past 0
                    burnt += 1
                    burning.append(r)
        return burnt == n_vertices

    return burns


def _dual_burning_test(g: PlaneBipartiteGraph):
    """The burning test of ``g``'s directed dual, shared by every root."""
    return _burning_test(g.n_faces, build_dual(g).arcs())


def is_parking_function(values: dict[int, int], n_vertices: int, arcs, r0: int) -> bool:
    """Whether every nonempty subset of non-root vertices has a vertex whose
    value is below its relative in-degree from outside the subset.

    ``values`` must be defined exactly on the non-root vertices.  Decided by
    Dhar's burning algorithm (``_burning_test``).
    """
    return _burning_test(n_vertices, arcs)(_listed(values, n_vertices, r0))


def _listed(values: dict[int, int], n_vertices: int, r0: int) -> list[int]:
    """The values as a list over the vertices, -1 at the root, once they are
    checked to be defined exactly on the non-root vertices."""
    if set(values) != {r for r in range(n_vertices) if r != r0}:
        raise ValueError("function must be defined exactly on the non-root vertices")
    return [values.get(r, -1) for r in range(n_vertices)]


def enumerate_parking(n_vertices: int, arcs, r0: int) -> list[dict[int, int]]:
    """All parking functions, in the lexicographic order of their values
    over the non-root vertices taken in increasing order.

    Lowering a value never stops a vertex from burning, so the parking
    functions form a down-set of the box of values below the in-degrees.  A
    depth-first search from the zero function raises one value at a time,
    only at or after the vertex it raised last, so it reaches each function
    of the box along one path, and every function on that path is at most
    it.  Each child gets one burning test and only parking functions have
    children: O(#PF * n) tests of O(n + m) each, not the whole box.
    """
    others = [r for r in range(n_vertices) if r != r0]
    bound = [0] * n_vertices  # in-degree without loops
    for tail, head in arcs:
        if tail != head:
            bound[head] += 1
    burns = _burning_test(n_vertices, arcs)
    zero = [0] * n_vertices
    zero[r0] = -1
    stack = [(zero, 0)] if burns(zero) else []
    found = []
    while stack:
        values, start = stack.pop()
        found.append(values)
        for j in range(start, len(others)):
            r = others[j]
            if values[r] + 1 < bound[r]:
                child = values[:]
                child[r] += 1
                if burns(child):
                    stack.append((child, j))
    found.sort()  # the root's entry is -1 throughout
    return [{r: values[r] for r in others} for values in found]


def parking_enumerator(parking_functions) -> Laurent1:
    """p(u) = sum of u^(index) over the given parking functions."""
    out: dict[int, int] = {}
    for values in parking_functions:
        i = sum(values.values())
        out[i] = out.get(i, 0) + 1
    return Laurent1(out, "u")


def parking_for_dual(dual: DualDigraph) -> tuple[list[dict[int, int]], Laurent1]:
    parkings = enumerate_parking(dual.n_vertices, dual.arcs(), dual.r0)
    return parkings, parking_enumerator(parkings)


# -- the bijection with type-I leaves ----------------------------------------


def parking_from_leaf(dual: DualDigraph, a: int, s: int) -> dict[int, int]:
    """Count, per non-root vertex, the skipped edges (of the mask ``s``)
    pointing to it; ``a`` is the leaf's arborescence mask."""
    if a.bit_count() != dual.n_vertices - 1:
        raise ValueError("leaf is not type I: arborescence is not spanning")
    counts, head, r0 = [0] * dual.n_vertices, dual.head, dual.r0
    for c in _bit_positions(s):
        counts[head[c]] += 1
    if counts[r0]:
        raise InvariantError("skipped edge points at the root")
    return {r: k for r, k in enumerate(counts) if r != r0}


def arborescence_from_parking(dual: DualDigraph, values: dict[int, int]) -> int:
    """Walk the arborescence tree guided by the function to the edge mask
    of a type-I leaf's arborescence.

    At a node whose augmenting edge delta points into r: skip delta while
    the function value at r exceeds the number of edges into r skipped so
    far, else add delta.  One contour walk, resumed at each node as the
    tree's walk resumes it, finds the edges.  Parking functions always end
    at a type-I leaf.  The burning test is the graph's, built once.
    """
    burns = dual.graph.table(_dual_burning_test)
    unskipped = _listed(values, dual.n_vertices, dual.r0)  # value minus skips so far
    if not burns(unskipped):
        raise ValueError("not a parking function of this rooted digraph")
    head, spanning_size = dual.head, dual.n_vertices - 1
    a = s = size = steps = 0
    component, d = 1 << dual.r0, 2 * dual.kappa + 1
    while size < spanning_size:
        found = _walk_to_augmenting(dual, a, s, component, d, steps)
        if found is None:
            raise InvariantError("parking-guided walk reached a type II leaf")
        delta, d, steps = found
        r = head[delta]
        if unskipped[r] > 0:
            unskipped[r] -= 1
            s |= 1 << delta
        else:
            a |= 1 << delta
            component |= 1 << r
            size += 1
            d ^= 1
    return a


def leaf_enumerator(leaves) -> Laurent1:
    """Enumerator of k over the type-I leaves' (edge mask of a, k), or an
    ArbTree's, which the benchmark passes."""
    if isinstance(leaves, ArbTree):
        leaves = leaves.type_one_leaves()
    out: dict[int, int] = {}
    for _, k in leaves:
        out[k] = out.get(k, 0) + 1
    return Laurent1(out, "u")

