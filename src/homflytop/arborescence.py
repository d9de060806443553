"""Spanning arborescences of the directed dual, organized in a binary tree.

The augmenting-edge search walks the boundary of a regular neighborhood of
the current root component.  That boundary is realized combinatorially as
the contour walk around the tree in the embedded dual: each tree edge is
traversed twice, and at every dual vertex the incident edge ends are scanned
in the inherited rotation order.  The walk starts at the end of kappa's dual
edge at the root face, 2 * kappa + 1, and runs counterclockwise: from int
dart d the next slot is ``next_dart[d]``, and d ^ 1 crosses d's edge.

Going down the tree, the arborescence and the skipped set only grow, so a
slot the walk has passed over stays passed over, and the walk never enters
the new head of an added edge before reaching that edge.  The tree is
therefore walked once per root-to-leaf path, each child resuming where its
parent found its augmenting edge, and from an explicit stack: the tree can
be as deep as the dual has edges.  Spanning nodes, the type-I leaves, end
without a walk.  Edge sets (a, s) and vertex sets (the root component)
are int bitmasks throughout; ``_bit_positions`` lists one for output and
for the crossings of a median diagram.
``_walk`` streams the whole tree's nodes in preorder: ``build_arb_tree``
keeps every leaf (the benchmark reads it), ``arbtree_dot`` writes them as
DOT, and the parking inverse resumes the same walk down one path.
``type_one_leaves`` walks the pruned tree itself, for its type-I leaves.
``augmenting_edge`` walks one node from scratch, as the tests' reference.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import product

from .planegraph import DualDigraph, InvariantError, PlaneBipartiteGraph, build_dual


def _bit_positions(mask: int) -> list[int]:
    """The set bits of a mask, lowest first."""
    return [j for j, d in enumerate(bin(mask)[:1:-1]) if d == "1"]


def _root_component(dual: DualDigraph, a: int) -> int:  # r0 and the heads of a
    return 1 << dual.r0 | sum(1 << dual.head[c] for c in _bit_positions(a))


def _walk_to_augmenting(dual: DualDigraph, a: int, s: int, component: int, d: int):
    """Continue the contour walk of ``a`` from the slot after dart d.

    A slot is the primal dart 2c or 2c + 1: the tail end or head end of
    dual edge c at the current vertex.  At a tree edge end the walk crosses
    to the other end and keeps scanning there.  Returns (delta, d) at the
    first tail end d = 2 * delta of an edge that leaves ``component``, the
    root component of ``a``, and is not in ``s`` (all three bitmasks); None
    when the walk closes up at kappa's end.  Raises when one call visits
    more slots than a contour has.  On a sound contour only the from-scratch
    ``augmenting_edge`` meets a skipped edge's tail end; on a broken one the
    ``s`` test stops a resumed walk from returning a skipped edge again.  So
    no edge of a or s is returned, each child holds one more, and a path
    down the tree makes at most as many calls as the dual has edges.
    """
    succ, head = dual.graph.next_dart, dual.head
    start = 2 * dual.kappa + 1
    for _ in range(4 * len(head) + 4):
        d = succ[d]
        if d == start:
            return None
        c = d >> 1
        if a >> c & 1:
            d ^= 1
        elif not d & 1 and not component >> head[c] & 1 and not s >> c & 1:
            return c, d
    raise InvariantError("contour walk failed to close up")


def augmenting_edge(dual: DualDigraph, a: int, s: int) -> int | None:
    """First dual edge along the contour that can extend the arborescence
    ``a``, skipping ``s`` (edge masks).

    The edge must leave the root component of ``a`` toward an isolated
    vertex and must not have been skipped.  Ends pointing into the root
    component and edges internal to it are passed over silently.
    """
    start = 2 * dual.kappa + 1
    found = _walk_to_augmenting(dual, a, s, _root_component(dual, a), start)
    return None if found is None else found[0]


def clocked_arborescence(dual: DualDigraph) -> int:
    """Greedy depth-first arborescence from (r0, kappa), as an edge mask.

    Turns counterclockwise around each visited vertex, descending along each
    selected edge immediately and resuming the scan on return, from an
    explicit stack, as the search can be as deep as the dual has vertices.
    Independent of the arborescence-tree machinery; equals the tree's
    rightmost leaf.
    """
    succ, head = dual.graph.next_dart, dual.head
    visited, chosen = {dual.r0}, 0
    start = 2 * dual.kappa + 1
    stack = [(start, succ[start])]  # (entry, next end) per face being scanned
    while stack:
        entry, d = stack.pop()
        if d == entry:  # entry is a head end, never chosen
            continue
        stack.append((entry, succ[d]))
        if not d & 1 and head[d >> 1] not in visited:
            visited.add(head[d >> 1])
            chosen |= 1 << (d >> 1)
            stack.append((d ^ 1, succ[d ^ 1]))  # scanned first, as by recursion
    if len(visited) != dual.n_vertices:
        raise InvariantError("clocked search did not reach every dual vertex")
    return chosen


class ArbNode:
    """Leaf of the binary arborescence tree: edge masks (arborescence,
    skipped) and its type, "I" or "II"; equal when all three are."""

    __slots__ = ("a", "s", "leaf_type")

    def __init__(self, a: int, s: int, leaf_type: str):
        self.a, self.s, self.leaf_type = a, s, leaf_type

    def __eq__(self, other):
        if type(other) is not ArbNode:
            return NotImplemented
        return (self.a, self.s, self.leaf_type) == (other.a, other.s, other.leaf_type)


class ArbTree:
    """The leaves of the binary arborescence tree, rightmost first.

    Only the leaves are kept: the walk (``_walk``) is the tree, and DOT
    output (``arbtree_dot``) and the parking inverse read it directly.
    ``build_arb_tree`` and this class remain because the benchmark reads
    them.
    """

    def __init__(self, dual: DualDigraph, leaves: list[ArbNode]):
        self.dual, self.leaves = dual, leaves

    def type_one_leaves(self) -> list[tuple[int, int]]:
        """(edge mask of a, k) per type-I leaf, rightmost first."""
        return [(x.a, x.s.bit_count()) for x in self.leaves if x.leaf_type == "I"]

    def type_two_leaves(self) -> list[ArbNode]:
        return [leaf for leaf in self.leaves if leaf.leaf_type == "II"]

    def to_json(self):
        return {
            "r0": self.dual.r0,
            "kappa": self.dual.kappa,
            "leaves": [
                {
                    "type": leaf.leaf_type,
                    "arborescence": _bit_positions(leaf.a),
                    "skipped": _bit_positions(leaf.s),
                    "k": leaf.s.bit_count(),
                }
                for leaf in self.leaves
            ],
        }


def _walk(dual: DualDigraph):
    """The nodes of the binary arborescence tree in preorder, as (a, s,
    delta, leaf_type): edge masks (arborescence, skipped), the augmenting
    edge (None at a leaf) and "I" or "II" at a leaf (None elsewhere).

    The add (right) child of a node adds delta to a and comes first, the
    skip (left) child adds it to s; so the leaves come rightmost first, the
    clocked arborescence first of all.  One contour walk runs down each
    root-to-leaf path: a child resumes its parent's walk at delta's tail
    end, the add child after crossing delta.  Up to that slot the child's
    walk is its parent's, since delta's head is outside the parent's root
    component, and slots passed over stay rejected below: a head end stays
    one, the component only grows and so does s.  So each node finds the
    edge ``augmenting_edge`` would.  A spanning node is a type-I leaf and
    ends without a walk.  Each type-II leaf is audited as it is made, on the
    masks of the edges out of and into the root component that the stack
    carries: an edge out of it, not into it and not skipped escapes, and the
    lowest one is named in the error.
    """
    spanning_size, head, r0 = dual.n_vertices - 1, dual.head, dual.r0
    _, out_of, into = dual.graph.table(_dual_arcs)
    # (a, s, |a|, root component, its out and in edge masks, resumed dart)
    stack = [(0, 0, 0, 1 << r0, out_of[r0], into[r0], 2 * dual.kappa + 1)]
    while stack:
        a, s, size, component, out, inward, d = stack.pop()
        if size == spanning_size:
            yield a, s, None, "I"
            continue
        found = _walk_to_augmenting(dual, a, s, component, d)
        if found is None:
            escaping = out & ~inward & ~s
            if escaping:
                lowest = _bit_positions(escaping)[0]
                raise InvariantError(
                    f"type II leaf has unskipped escaping edge {lowest}: "
                    "contradicts the leaf classification"
                )
            yield a, s, None, "II"
            continue
        delta, d = found
        yield a, s, delta, None
        bit, h = 1 << delta, head[delta]
        stack.append((a, s | bit, size, component, out, inward, d))
        stack.append((a | bit, s, size + 1, component | 1 << h, out | out_of[h],
                      inward | into[h], d ^ 1))


def type_one_leaves(dual: DualDigraph) -> Iterator[tuple[int, int]]:
    """(edge mask of a, k) per type-I leaf, rightmost first, streamed from
    its own walk of the pruned tree, which keeps no nodes.

    It walks as ``_walk`` does, but a skip child is kept only when the
    unskipped edges still reach every dual vertex from the root component,
    and a type-II leaf raises.  Without that reach no type-I leaf lies
    below; with it, a spanning arborescence that holds a and misses s is
    reached by following its add and skip choices, as it always has an
    unskipped edge leaving the root component.  Adding an edge keeps the
    reach, and skipping delta keeps it iff a search back from delta's head
    still meets the component (``_reached_without``).  So the type-I
    leaves, their order and their skipped sets are the full tree's, and a
    type-II leaf means a fault.  Only kept skip children wait on the stack;
    each add child is followed in place.
    """
    spanning_size, head = dual.n_vertices - 1, dual.head
    in_arcs = dual.graph.table(_dual_arcs)[0]
    # (a, s, |a|, root component, resumed dart) per kept skip child
    stack = [(0, 0, 0, 1 << dual.r0, 2 * dual.kappa + 1)]
    while stack:
        a, s, size, component, d = stack.pop()
        while size < spanning_size:
            found = _walk_to_augmenting(dual, a, s, component, d)
            if found is None:
                raise InvariantError("type-I-only tree reached a type II leaf")
            delta, d = found
            bit, h = 1 << delta, head[delta]
            if _reached_without(in_arcs, component, s | bit, h):
                stack.append((a, s | bit, size, component, d))
            a, size, component, d = a | bit, size + 1, component | 1 << h, d ^ 1
        yield a, s.bit_count()


def build_arb_tree(dual: DualDigraph) -> ArbTree:
    """The leaves of the whole tree, type-II leaves included, read from the
    walk, which audits each type-II leaf."""
    return ArbTree(dual, [ArbNode(a, s, t) for a, s, _, t in _walk(dual) if t])


def arbtree_dot(dual: DualDigraph) -> str:
    """The whole tree in DOT, written from the walk: nodes n0, n1, ... in
    preorder, add (R) child first, and a node's two arcs after both of its
    subtrees."""
    lines = ["digraph ArbTree {", "  ordering=out;"]
    unfinished: list[list[str]] = []  # [name, child names so far] per internal node
    for i, (a, s, delta, leaf_type) in enumerate(_walk(dual)):
        name = f"n{i}"
        label = f"A={_bit_positions(a)} S={_bit_positions(s)}"
        if leaf_type:
            label += f" type {leaf_type}"
        lines.append(f'  {name} [label="{label}"];')
        if unfinished:
            unfinished[-1].append(name)
        if delta is not None:
            unfinished.append([name])
            continue
        # a finished skip (L) child finishes its parent
        while unfinished and len(unfinished[-1]) == 3:
            parent, right, left = unfinished.pop()
            lines.append(f"  {parent} -> {right} [label=R];")
            lines.append(f"  {parent} -> {left} [label=L];")
    lines.append("}")
    return "\n".join(lines)


def _dual_arcs(g: PlaneBipartiteGraph):
    """Three lists over the faces, read off the arcs of ``build_dual(g)``:
    the (edge, tail) pairs of the dual edges into each face, and the masks
    of the dual edges out of it and into it; the same for every root."""
    in_arcs: list[list[tuple[int, int]]] = [[] for _ in range(g.n_faces)]
    out, into = [0] * g.n_faces, [0] * g.n_faces
    for c, (t, h) in enumerate(build_dual(g).arcs()):
        in_arcs[h].append((c, t))
        out[t] |= 1 << c
        into[h] |= 1 << c
    return in_arcs, out, into


def _reached_without(in_arcs, component: int, skipped: int, r: int) -> bool:
    """Whether the edges outside ``skipped`` reach r from the component."""
    seen = 1 << r
    stack = [r]
    while stack:
        for c, t in in_arcs[stack.pop()]:
            if not seen >> t & 1 and not skipped >> c & 1:
                if component >> t & 1:
                    return True
                seen |= 1 << t
                stack.append(t)
    return False


def spanning_arborescences_bruteforce(dual: DualDigraph) -> set[int]:
    """All spanning arborescences as edge masks, found independently of the
    tree machinery.

    An arborescence rooted at r0 picks one non-loop in-edge for every other
    vertex, such that from every vertex the walk back along the picked edges
    reaches r0.  Every choice of in-edges is tried; their number is the
    product of the in-degrees, at most C(edges, vertices - 1) by AM-GM.
    """
    others = [r for r in range(dual.n_vertices) if r != dual.r0]
    in_edges: list[list[int]] = [[] for _ in range(dual.n_vertices)]
    for c, (t, h) in enumerate(dual.arcs()):
        if t != h:
            in_edges[h].append(c)
    found: set[int] = set()
    for choice in product(*(in_edges[r] for r in others)):
        parent = dict(zip(others, (dual.tail[c] for c in choice)))

        def reaches_root(r: int) -> bool:
            for _ in others:  # a walk back to r0 takes at most this many steps
                if r == dual.r0:
                    return True
                r = parent[r]
            return r == dual.r0

        if all(reaches_root(r) for r in others):
            found.add(sum(1 << c for c in choice))
    return found


def arborescence_count(dual: DualDigraph) -> int:
    """The number of spanning arborescences rooted at r0, without listing them.

    Matrix-tree theorem (Tutte 1948): the determinant of the in-degree
    Laplacian (in-degrees on the diagonal, minus the number of edges x -> y
    at (x, y)) with r0's row and column removed; loops are skipped.
    """
    others = [r for r in range(dual.n_vertices) if r != dual.r0]
    pos = {r: i for i, r in enumerate(others)}
    m = [[0] * len(others) for _ in others]
    for t, h in dual.arcs():
        if t != h and h != dual.r0:
            m[pos[h]][pos[h]] += 1
            if t != dual.r0:
                m[pos[t]][pos[h]] -= 1
    return _determinant(m)


def _determinant(m: list[list[int]]) -> int:
    """The determinant of a square integer matrix, which it overwrites.

    Bareiss's fraction-free elimination (Bareiss 1968): every division is
    exact, so all entries stay integers.
    """
    sign, last = 1, 1
    for k in range(len(m)):
        pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // last
        last = m[k][k]
    return sign * last
