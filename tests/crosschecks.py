"""Cross-checks that no command runs, kept for the tests: independent routes
to facts the package computes another way, the linked arborescence tree
that the package's walk replaces, two link-diagram helpers, and the eager
face trace and Horner-rule Alexander substitution that the package replaced."""

from dataclasses import dataclass

from homflytop.arborescence import _bit_positions, _determinant, augmenting_edge
from homflytop.homfly import LinkDiagram
from homflytop.laurent import Laurent1, Laurent2
from homflytop.parking import (
    _dual_burning_test, _listed, enumerate_parking, parking_enumerator, parking_for_dual
)
from homflytop.planegraph import DualDigraph, InvariantError, PlaneBipartiteGraph, bfs_tree
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


def mirror_first(P: Laurent2) -> Laurent2:
    """Substitute -1/v for the first variable (mirror-image rule)."""
    return Laurent2({(-a, b): c * (-1) ** a for (a, b), c in P.coeffs.items()}, P._names)


def reference_conway_and_alexander(P: Laurent2):
    """``conway_and_alexander`` by Horner's rule on ``Laurent1`` values: the
    reference for the package's binomial expansion, with the same errors."""
    parities = {b % 2 for _, b in P.coeffs}
    if len(parities) > 1:
        raise ValueError("mixed z-exponent parity: not a valid HOMFLY value")
    conway = P.set_first_one()
    if min(conway.coeffs, default=0) < 0:
        raise ValueError("Conway polynomial has negative z-exponents")
    # substitute z = w - 1/w with w = t^(1/2), by Horner's rule
    half = Laurent1.zero("t^(1/2)")
    w_minus = Laurent1({1: 1, -1: -1}, "t^(1/2)")
    for k in range(max(conway.coeffs, default=-1), -1, -1):
        half = half * w_minus + conway.coeffs.get(k, 0)
    exps = {e % 2 for e in half.coeffs}
    if len(exps) > 1:
        raise ValueError("residual half-integer t-exponents: invalid input")
    if exps == {1}:
        return conway, half, True
    alexander = Laurent1({e // 2: c for e, c in half.coeffs.items()}, "t")
    return conway, alexander, False


def reference_face_walks(g: PlaneBipartiteGraph):
    """(faces, dart_face) traced eagerly from the rotations alone, as the
    constructor once did: each face a tuple of (edge, direction) darts from
    its least dart, faces in the order of those darts."""
    succ, k = [0] * (2 * g.n_edges), len(g.e_vertices)
    for x, rot in enumerate(g.rotations):
        out = 0 if x < k else 1
        for i, c in enumerate(rot):
            succ[2 * c + 1 - out] = 2 * rot[i - 1] + out
    face = [-1] * len(succ)
    faces = []
    for d in range(len(succ)):
        walk = []
        while face[d] < 0:
            face[d] = len(faces)
            walk.append(divmod(d, 2))
            d = succ[d]
        if walk:
            faces.append(tuple(walk))
    return tuple(faces), face


# -- the linked arborescence tree, the reference for the walk ----------------


@dataclass
class RefNode:
    """Node of the linked binary arborescence tree: edge masks (arborescence,
    skipped), the augmenting edge (None at a leaf) and the two children."""

    a: int
    s: int
    augmenting: int | None = None
    right: "RefNode | None" = None
    left: "RefNode | None" = None
    leaf_type: str | None = None  # "I" or "II" for leaves

    @property
    def is_leaf(self) -> bool:
        return self.augmenting is None


@dataclass
class RefTree:
    """Linked binary tree with leaves in right-to-left order."""

    dual: DualDigraph
    root: RefNode
    leaves: list[RefNode]

    def type_one_leaves(self) -> list[tuple[int, int]]:
        """(edge mask of a, k) per type-I leaf, rightmost first."""
        return [(x.a, x.s.bit_count()) for x in self.leaves if x.leaf_type == "I"]

    def to_dot(self) -> str:
        """The reference for ``arborescence.arbtree_dot``, on the links."""
        lines = ["digraph ArbTree {", "  ordering=out;"]
        names: dict[int, str] = {}
        # preorder, right subtree first; a node's arcs follow both subtrees
        stack: list[tuple[RefNode, bool]] = [(self.root, False)]
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


def node_fields(node: RefNode):
    """(a, s, augmenting, leaf_type) of every node, in preorder, right child
    first, as ``arborescence._walk`` yields them; a pruned skip child is left
    out."""
    out = []
    stack = [node]
    while stack:
        node = stack.pop()
        out.append((node.a, node.s, node.augmenting, node.leaf_type))
        if not node.is_leaf:
            stack += [x for x in (node.left, node.right) if x is not None]
    return out


def reference_build_arb_tree(dual: DualDigraph) -> RefTree:
    """The tree grown with one ``augmenting_edge`` walk, from kappa's end,
    at every node (without the type-II leaf audit)."""
    spanning_size = dual.n_vertices - 1
    leaves = []

    def grow(a, s):
        delta = augmenting_edge(dual, a, s)
        node = RefNode(a, s, augmenting=delta)
        if delta is None:
            node.leaf_type = "I" if a.bit_count() == spanning_size else "II"
            leaves.append(node)
            return node
        node.right = grow(a | 1 << delta, s)
        node.left = grow(a, s | 1 << delta)
        return node

    return RefTree(dual, grow(0, 0), leaves)


def edge_mask(edges) -> int:
    return sum(1 << c for c in edges)


def slots(g: PlaneBipartiteGraph):
    """Dart (c, end) -> (face, position of the dart in that face's walk),
    read off the face walks alone."""
    return {d: (r, i) for r, walk in enumerate(g.faces) for i, d in enumerate(walk)}


def reference_walk_to_augmenting(dual, slot_of, a, s, component, r, i, steps):
    """The resumed contour walk on (face, position) slots (``slots``),
    frozensets and a set, the reference for the walk on int darts and
    bitmasks."""
    faces = dual.graph.faces
    start = slot_of[(dual.kappa, 1)]
    limit = 4 * dual.n_edges + 4
    while True:
        steps += 1
        if steps > limit:
            raise InvariantError("contour walk failed to close up")
        walk = faces[r]
        i = (i + 1) % len(walk)
        if (r, i) == start:
            return None
        c, end = walk[i]
        if c in a:
            r, i = slot_of[(c, 1 - end)]
        elif end == 0 and dual.head[c] not in component and c not in s:
            return c, r, i, steps


def reference_reached_without(in_arcs, component, skipped, r) -> bool:
    """Whether the edges outside ``skipped`` reach r from the component."""
    seen = {r}
    stack = [r]
    while stack:
        for c, t in in_arcs[stack.pop()]:
            if t not in seen and c not in skipped:
                if t in component:
                    return True
                seen.add(t)
                stack.append(t)
    return False


def reference_type_one_only_tree(dual: DualDigraph) -> RefTree:
    """The tree pruned to the subtrees holding a type-I leaf, with nodes: a
    skip child is grown only while the unskipped edges still reach its
    augmenting edge's head.  It walks on frozensets; its nodes hold masks."""
    spanning_size = dual.n_vertices - 1
    slot_of = slots(dual.graph)
    in_arcs = [[] for _ in range(dual.n_vertices)]
    for c, (t, h) in enumerate(dual.arcs()):
        in_arcs[h].append((c, t))
    leaves = []
    root = RefNode(0, 0)
    empty = frozenset()
    stack = [(root, empty, empty, frozenset({dual.r0}), *slot_of[(dual.kappa, 1)], 0)]
    while stack:
        node, a, s, component, r, i, steps = stack.pop()
        if len(a) == spanning_size:
            node.leaf_type = "I"
            leaves.append(node)
            continue
        found = reference_walk_to_augmenting(
            dual, slot_of, a, s, component, r, i, steps
        )
        if found is None:
            raise InvariantError("type-I-only tree reached a type II leaf")
        delta, r, i, steps = found
        node.augmenting = delta
        node.right = RefNode(edge_mask(a | {delta}), node.s)
        skipped = s | {delta}
        if reference_reached_without(in_arcs, component, skipped, dual.head[delta]):
            node.left = RefNode(node.a, edge_mask(skipped))
            stack.append((node.left, a, skipped, component, r, i, steps))
        grown = component | {dual.head[delta]}
        stack.append((node.right, a | {delta}, s, grown, *slot_of[(delta, 1)], steps))
    return RefTree(dual, root, leaves)


def reference_arborescence_from_parking(tree: RefTree, values: dict[int, int]) -> int:
    """Descend the linked tree guided by the function to the edge mask of a
    type-I leaf's arborescence, the reference for the resumed-walk inverse.

    At a node whose augmenting edge delta points into r: go left (skip
    delta) while the function value at r exceeds the number of edges into r
    skipped so far, else go right (add delta).
    """
    dual = tree.dual
    burns = dual.graph.table(_dual_burning_test)
    unskipped = _listed(values, dual.n_vertices, dual.r0)  # value minus skips so far
    if not burns(unskipped):
        raise ValueError("not a parking function of this rooted digraph")
    head, node = dual.head, tree.root
    while not node.is_leaf:
        r = head[node.augmenting]
        if unskipped[r] > 0:
            unskipped[r] -= 1
            node = node.left
        else:
            node = node.right
    if node.leaf_type != "I":
        raise InvariantError("parking-guided walk reached a type II leaf")
    return node.a
