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
``_walk`` is the one walk of the tree, a preorder stream of its nodes:
``type_one_leaves`` reads its pruned form and keeps the type-I leaves,
``build_arb_tree`` links every node from it; ``augmenting_edge`` walks one
node from scratch, as the tests' reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .planegraph import DualDigraph, InvariantError, PlaneBipartiteGraph, build_dual


def _bit_positions(mask: int) -> list[int]:
    """The set bits of a mask, lowest first."""
    return [j for j, d in enumerate(bin(mask)[:1:-1]) if d == "1"]


def _root_component(dual: DualDigraph, a: int) -> int:  # r0 and the heads of a
    return 1 << dual.r0 | sum(1 << dual.head[c] for c in _bit_positions(a))


def _walk_to_augmenting(
    dual: DualDigraph, a: int, s: int, component: int, d: int, steps: int
):
    """Continue the contour walk of ``a`` from the slot after dart d.

    A slot is the primal dart 2c or 2c + 1: the tail end or head end of
    dual edge c at the current vertex.  At a tree edge end the walk crosses
    to the other end and keeps scanning there.  Returns (delta, d, steps)
    at the first tail end d = 2 * delta of an edge that leaves ``component``,
    the root component of ``a``, and is not in ``s`` (all three bitmasks);
    None when the walk closes up at kappa's end.  ``steps`` counts the slots
    visited since kappa's end.
    """
    succ, head = dual.graph.next_dart, dual.head
    start = 2 * dual.kappa + 1
    limit = 4 * dual.n_edges + 4
    while True:
        steps += 1
        if steps > limit:
            raise InvariantError("contour walk failed to close up")
        d = succ[d]
        if d == start:
            return None
        c = d >> 1
        if a >> c & 1:
            d ^= 1
        elif not d & 1 and not component >> head[c] & 1 and not s >> c & 1:
            return c, d, steps


def augmenting_edge(dual: DualDigraph, a: int, s: int) -> int | None:
    """First dual edge along the contour that can extend the arborescence
    ``a``, skipping ``s`` (edge masks).

    The edge must leave the root component of ``a`` toward an isolated
    vertex and must not have been skipped.  Ends pointing into the root
    component and edges internal to it are passed over silently.
    """
    start = 2 * dual.kappa + 1
    found = _walk_to_augmenting(dual, a, s, _root_component(dual, a), start, 0)
    return None if found is None else found[0]


def clocked_arborescence(dual: DualDigraph) -> int:
    """Greedy depth-first arborescence from (r0, kappa), as an edge mask.

    Turns counterclockwise around each visited vertex, descending along each
    selected edge immediately and resuming the scan on return.  Independent
    of the arborescence-tree machinery; equals the tree's rightmost leaf.
    """
    succ, head = dual.graph.next_dart, dual.head
    visited = {dual.r0}

    def scan(entry: int) -> int:  # the edges chosen round entry's face after it
        chosen, d = 0, succ[entry]
        while d != entry:  # entry is a head end, never chosen
            if not d & 1 and head[d >> 1] not in visited:
                visited.add(head[d >> 1])
                chosen |= 1 << (d >> 1) | scan(d ^ 1)
            d = succ[d]
        return chosen

    chosen = scan(2 * dual.kappa + 1)
    if len(visited) != dual.n_vertices:
        raise InvariantError("clocked search did not reach every dual vertex")
    return chosen


@dataclass
class ArbNode:
    """Node of the binary arborescence tree: edge masks (arborescence, skipped)."""

    a: int
    s: int
    augmenting: int | None = None
    right: "ArbNode | None" = None
    left: "ArbNode | None" = None
    leaf_type: str | None = None  # "I" or "II" for leaves

    @property
    def is_leaf(self) -> bool:
        return self.augmenting is None


@dataclass
class ArbTree:
    """Materialized binary tree with leaves in right-to-left order."""

    dual: DualDigraph
    root: ArbNode
    leaves: list[ArbNode]

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

    def to_dot(self) -> str:
        lines = ["digraph ArbTree {", "  ordering=out;"]
        names: dict[int, str] = {}
        # preorder, right subtree first; a node's arcs follow both subtrees
        stack: list[tuple[ArbNode, bool]] = [(self.root, False)]
        while stack:
            node, subtrees_done = stack.pop()
            if subtrees_done:
                name = names[id(node)]
                lines.append(f"  {name} -> {names[id(node.right)]} [label=R];")
                lines.append(f"  {name} -> {names[id(node.left)]} [label=L];")
                continue
            name = names[id(node)] = f"n{len(names)}"
            label = f"A={_bit_positions(node.a)} S={_bit_positions(node.s)}"
            if node.leaf_type:
                label += f" type {node.leaf_type}"
            lines.append(f'  {name} [label="{label}"];')
            if not node.is_leaf:
                stack += [(node, True), (node.left, False), (node.right, False)]
        lines.append("}")
        return "\n".join(lines)


def _walk(dual: DualDigraph, prune: bool = False):
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
    edge ``augmenting_edge`` would, after as many steps.  A spanning node is
    a type-I leaf and ends without a walk, so the close-up guard covers the
    other nodes.  Each type-II leaf is audited as it is made, on the masks
    of the edges out of and into the root component that the stack carries;
    ``_check_type_two`` runs only to name an escaping edge.

    With ``prune``, a skip child is kept only when the unskipped edges still
    reach every dual vertex from the root component, and nothing is audited.
    Without that reach no type-I leaf lies below; with it, a spanning
    arborescence that holds a and misses s is reached by following its add
    and skip choices, as it always has an unskipped edge leaving the root
    component.  Adding an edge keeps the reach, and skipping delta keeps it
    iff a search back from delta's head still meets the component
    (``_reached_without``).  So the type-I leaves, their order and their
    skipped sets are the full tree's, and a type-II leaf means a fault.
    """
    spanning_size, head, r0 = dual.n_vertices - 1, dual.head, dual.r0
    arcs = dual.graph.table(_dual_arcs)
    in_arcs, out_of, into = arcs
    # (a, s, |a|, root component, its out and in edge masks, resumed walk state)
    stack = [(0, 0, 0, 1 << r0, out_of[r0], into[r0], 2 * dual.kappa + 1, 0)]
    while stack:
        a, s, size, component, out, inward, d, steps = stack.pop()
        if size == spanning_size:
            yield a, s, None, "I"
            continue
        found = _walk_to_augmenting(dual, a, s, component, d, steps)
        if found is None:
            if not prune and out & ~inward & ~s:  # an unskipped escaping edge
                _check_type_two(arcs, component, s)
            yield a, s, None, "II"
            continue
        delta, d, steps = found
        yield a, s, delta, None
        bit, h = 1 << delta, head[delta]
        if not prune or _reached_without(in_arcs, component, s | bit, h):
            stack.append((a, s | bit, size, component, out, inward, d, steps))
        stack.append((a | bit, s, size + 1, component | 1 << h, out | out_of[h],
                      inward | into[h], d ^ 1, steps))


def type_one_leaves(dual: DualDigraph) -> list[tuple[int, int]]:
    """(edge mask of a, k) per type-I leaf, rightmost first, read from the
    pruned walk without keeping nodes; a type-II leaf raises."""
    leaves: list[tuple[int, int]] = []
    for a, s, _, leaf_type in _walk(dual, prune=True):
        if leaf_type == "II":
            raise InvariantError("type-I-only tree reached a type II leaf")
        if leaf_type:
            leaves.append((a, s.bit_count()))
    return leaves


def build_arb_tree(dual: DualDigraph) -> ArbTree:
    """The whole tree of (arborescence, skipped set) nodes, linked from the
    preorder walk; the right child adds the augmenting edge, the left skips it."""
    above = ArbNode(0, 0)  # holds the root as its right child
    missing = [above]  # internal nodes still missing a child, innermost last
    leaves: list[ArbNode] = []
    for a, s, delta, leaf_type in _walk(dual):
        node = ArbNode(a, s, delta, leaf_type=leaf_type)
        if missing[-1].right is None:
            missing[-1].right = node
        else:
            missing.pop().left = node
        if leaf_type:
            leaves.append(node)
        else:
            missing.append(node)
    return ArbTree(dual, above.right, leaves)


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


def _check_type_two(arcs, component: int, s: int):
    """Raise unless every edge leaving ``component`` is in ``s``, naming the
    lowest that is not; ``arcs`` is the graph's ``_dual_arcs``, whose out and
    in edge masks per face it reads."""
    out = inward = 0
    for v, (out_v, in_v) in enumerate(zip(arcs[1], arcs[2])):
        if component >> v & 1:
            out |= out_v
            inward |= in_v
    escaping = out & ~inward & ~s
    if escaping:
        raise InvariantError(
            f"type II leaf has unskipped escaping edge {_bit_positions(escaping)[0]}: "
            "contradicts the leaf classification"
        )


def spanning_arborescences_bruteforce(dual: DualDigraph) -> set[int]:
    """All spanning arborescences as edge masks, found independently of the
    tree machinery.

    An arborescence rooted at r0 picks one non-loop in-edge for every other
    vertex, such that from every vertex the walk back along the picked edges
    reaches r0.  Every choice of in-edges is tried; their number is the
    product of the in-degrees, at most C(edges, vertices - 1) by AM-GM.
    """
    others = [r for r in range(dual.n_vertices) if r != dual.r0]
    in_edges = [
        [c for c in range(dual.n_edges) if dual.head[c] == r and dual.tail[c] != r]
        for r in others
    ]
    found: set[int] = set()
    for choice in product(*in_edges):
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
