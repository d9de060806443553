"""Plane bipartite graphs as rotation systems, their faces and directed duals.

A graph is stored dart-based: every edge joins an E-vertex to a V-vertex and
carries two darts, ``(edge_id, 0)`` pointing E -> V and ``(edge_id, 1)``
pointing V -> E; as ints they are d = 2 * edge_id + direction.  Rotations
list, for each vertex, the incident edge ids in counterclockwise order.
Faces are traced keeping the face on the left of each dart, so the face
permutation is rotation^(-1) composed with reversal, kept as int lists over
the darts.  Tables of the graph alone are built once per graph (``table``).

The planar dual is directed by the frozen convention: the dual edge of a
primal edge runs from the face left of the E -> V dart to the face left of
the V -> E dart, which puts the E-endpoint on the traveller's right.
"""

from __future__ import annotations

import json
from collections import namedtuple

Dart = tuple[int, int]  # (edge id, direction); 0 = E->V, 1 = V->E


class GraphInputError(ValueError):
    """Raised for malformed or non-planar input documents."""


class InvariantError(RuntimeError):
    """A theorem-backed internal check failed; indicates an implementation bug."""


def _cycles(step) -> list[list[int]]:
    """Cycles of the permutation ``step``, each from its least element, in order."""
    seen, cycles = [False] * len(step), []
    for start in range(len(step)):
        if seen[start]:
            continue
        cycle, p = [], start
        while not seen[p]:
            seen[p] = True
            cycle.append(p)
            p = step[p]
        cycles.append(cycle)
    return cycles


class PlaneBipartiteGraph:
    """Connected plane bipartite combinatorial map on the sphere.

    Attributes:
        e_vertices, v_vertices: vertex names of the two color classes.
        edges: tuple of (e_name, v_name) pairs; the index is the edge id.
        ends: per edge the vertex ids (e, v) of its ends.  A vertex's id is
            its index in ``e_vertices + v_vertices``, E-vertices first.
        rotations: per vertex id the tuple of its incident edge ids, CCW,
            whatever order the input listed the vertices in.
        next_dart, dart_face: per int dart, the next along its face, and that
            face; the n_faces faces are numbered in the order of their least darts.
        faces: per face its walk of (edge, direction) darts from the least,
            a table built on first read.
    """

    def __init__(self, e_vertices, v_vertices, edges, rotations):
        self.e_vertices = tuple(e_vertices)
        self.v_vertices = tuple(v_vertices)
        self.edges = tuple((e, v) for e, v in edges)
        self.ends, self.rotations = self._validate_structure(rotations)
        self.next_dart, self.dart_face, self.n_faces = self._trace_faces()
        self._tables: dict = {}
        self._check_euler()

    # -- basic accessors -------------------------------------------------

    @property
    def n_edges(self) -> int:
        return len(self.ends)

    @property
    def n_vertices(self) -> int:
        return len(self.e_vertices) + len(self.v_vertices)

    @property
    def faces(self) -> tuple[tuple[Dart, ...], ...]:
        return self.table(_face_walks)

    def table(self, build):
        """``build(self)``, made once per graph and shared by every root."""
        if build not in self._tables:
            self._tables[build] = build(self)
        return self._tables[build]

    def face_of(self, dart: Dart) -> int:
        return self.dart_face[2 * dart[0] + dart[1]]

    # -- construction checks ---------------------------------------------

    def _validate_structure(self, rotations):
        """``ends`` and ``rotations`` in vertex id order, once the input
        is checked to be a connected bipartite rotation system."""
        names, k = self.e_vertices + self.v_vertices, len(self.e_vertices)
        number = {x: i for i, x in enumerate(names)}
        if len(set(self.e_vertices)) < k or len(set(self.v_vertices)) < len(names) - k:
            raise GraphInputError("duplicate vertex names")
        if len(number) < len(names):
            raise GraphInputError("color classes are not disjoint")
        if not self.edges:
            raise GraphInputError("graph has no edges")
        ends = [(number.get(e, -1), number.get(v, -1)) for e, v in self.edges]
        incident: list[list[int]] = [[] for _ in names]
        for c, (i, j) in enumerate(ends):
            if not 0 <= i < k <= j:
                raise GraphInputError(
                    f"edge {c} does not join the E class to the V class"
                )
            incident[i].append(c)
            incident[j].append(c)
        unknown = set(rotations) - set(number)
        if unknown:
            raise GraphInputError(f"rotation given for unknown vertices {unknown}")
        for x, edge_ids in zip(names, incident):
            if x not in rotations:
                raise GraphInputError(f"missing rotation for vertex {x!r}")
            if sorted(rotations[x]) != edge_ids:
                raise GraphInputError(
                    f"rotation at {x!r} is not a permutation of its incident edges"
                )
        queue, reached = [0], [True] + [False] * (len(names) - 1)
        for x in queue:  # breadth-first from vertex 0
            for c in incident[x]:
                for y in ends[c]:
                    if not reached[y]:
                        reached[y] = True
                        queue.append(y)
        if len(queue) != len(names):
            raise GraphInputError("graph is not connected")
        return tuple(ends), tuple(tuple(rotations[x]) for x in names)

    def _trace_faces(self):
        # face on the left: a walk into x along edge c goes on out of x along
        # the edge before c in x's rotation (bipartite edges are never loops)
        succ, k = [0] * (2 * self.n_edges), len(self.e_vertices)
        for x, rot in enumerate(self.rotations):
            out = 0 if x < k else 1
            for i, c in enumerate(rot):
                succ[2 * c + 1 - out] = 2 * rot[i - 1] + out
        face, n = [-1] * len(succ), 0
        for d in range(len(succ)):  # each new walk starts at its least dart
            if face[d] < 0:
                while face[d] < 0:
                    face[d] = n
                    d = succ[d]
                n += 1
        return succ, face, n

    def _check_euler(self):
        euler = self.n_vertices - self.n_edges + self.n_faces
        if euler != 2:
            raise GraphInputError(
                f"rotation system is not planar: V - E + F = {euler}, expected 2"
            )

    # -- exports ----------------------------------------------------------

    def to_document(self, r0_dart: Dart | None = None, kappa: int | None = None):
        names = self.e_vertices + self.v_vertices
        doc = {
            "E": list(self.e_vertices),
            "V": list(self.v_vertices),
            "edges": [list(p) for p in self.edges],
            "rotation": {x: list(r) for x, r in zip(names, self.rotations)},
        }
        if kappa is not None:
            doc["kappa"] = kappa
        if r0_dart is not None:
            doc["r0"] = [r0_dart[0], "ev" if r0_dart[1] == 0 else "ve"]
        return doc

    def to_dot(self) -> str:
        lines = ["graph G {"]
        for x in self.e_vertices:
            lines.append(f'  "{x}" [shape=box];')
        for x in self.v_vertices:
            lines.append(f'  "{x}" [shape=circle];')
        for c, (e, v) in enumerate(self.edges):
            lines.append(f'  "{e}" -- "{v}" [label="{c}"];')
        lines.append("}")
        return "\n".join(lines)


def _face_walks(g: PlaneBipartiteGraph) -> tuple[tuple[Dart, ...], ...]:
    """Per face, its darts as (edge id, direction) pairs from its least dart."""
    return tuple(tuple(divmod(d, 2) for d in walk) for walk in _cycles(g.next_dart))


class DualDigraph:
    """Directed planar dual with a root face and distinguished primal edge.

    Dual edges are indexed by the primal edge ids, dual vertices by the
    faces of ``graph``.  The rotation at a dual vertex is its face walk:
    crossing the primal dart 2c is the tail end of dual edge c, crossing
    2c + 1 its head end, and ``graph.next_dart`` steps to the next end.
    Two duals are equal when their graph, arcs and root data are.
    """

    __slots__ = ("graph", "tail", "head", "r0", "kappa")

    def __init__(self, graph: PlaneBipartiteGraph, tail: tuple[int, ...],
                 head: tuple[int, ...], r0: int, kappa: int):
        if head[kappa] != r0:
            raise GraphInputError(
                f"kappa {kappa} is inadmissible: its dual edge points to face "
                f"{head[kappa]}, not {r0}"
            )
        self.graph, self.tail, self.head = graph, tail, head
        self.r0, self.kappa = r0, kappa

    def __eq__(self, other):
        if type(other) is not DualDigraph:
            return NotImplemented
        return (self.graph, self.tail, self.head, self.r0, self.kappa) == (
            other.graph, other.tail, other.head, other.r0, other.kappa
        )

    @property
    def n_vertices(self) -> int:
        return self.graph.n_faces

    @property
    def n_edges(self) -> int:
        return len(self.tail)

    def arcs(self) -> list[tuple[int, int]]:
        return list(zip(self.tail, self.head))

    def with_root(self, r0: int, kappa: int) -> "DualDigraph":
        return DualDigraph(self.graph, self.tail, self.head, r0, kappa)

    def admissible_pairs(self) -> list[tuple[int, int]]:
        """All (r0, kappa) pairs: every edge points at exactly one root."""
        return [(self.head[c], c) for c in range(self.n_edges)]


def build_dual(
    g: PlaneBipartiteGraph,
    r0_face: int | None = None,
    kappa_edge: int | None = None,
) -> DualDigraph:
    """Orient the planar dual and fix the root data.

    The dual edge of primal edge c runs from face_of((c, 0)) to
    face_of((c, 1)).  If kappa is given and r0 is not, the root is derived;
    if both are given they must be compatible.
    """
    tail, head = tuple(g.dart_face[0::2]), tuple(g.dart_face[1::2])
    if kappa_edge is None:
        kappa_edge = 0 if r0_face is None else min(
            (c for c in range(g.n_edges) if head[c] == r0_face), default=None
        )
        if kappa_edge is None:
            raise GraphInputError(f"no edge has its dual pointing to face {r0_face}")
    if r0_face is None:
        r0_face = head[kappa_edge]
    return DualDigraph(g, tail, head, r0_face, kappa_edge)


def overlay_dot(g: PlaneBipartiteGraph, dual: DualDigraph) -> str:
    """Primal graph and directed dual in one DOT document."""
    lines = ["digraph Overlay {"]
    for x in g.e_vertices:
        lines.append(f'  "{x}" [shape=box];')
    for x in g.v_vertices:
        lines.append(f'  "{x}" [shape=circle];')
    for c, (e, v) in enumerate(g.edges):
        lines.append(f'  "{e}" -> "{v}" [dir=none, label="{c}"];')
    for r in range(dual.n_vertices):
        mark = " (r0)" if r == dual.r0 else ""
        lines.append(f'  r{r} [shape=diamond, style=dashed, label="r{r}{mark}"];')
    for c in range(dual.n_edges):
        style = ", style=bold" if c == dual.kappa else ", style=dashed"
        lines.append(
            f'  r{dual.tail[c]} -> r{dual.head[c]} [label="{c}*"{style}];'
        )
    lines.append("}")
    return "\n".join(lines)


def decode_document(document) -> dict:
    """The JSON object a document holds, given as JSON text or as is."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except (ValueError, RecursionError) as exc:  # also too deep, or too long an int
            raise GraphInputError(str(exc)) from exc
    if not isinstance(document, dict):
        raise GraphInputError("document must be a JSON object")
    return document


def _integer(x, what: str) -> int:
    """x, if it is a JSON integer: not a float, a boolean or a string."""
    if type(x) is not int:
        raise GraphInputError(f"{what} must be an integer, not {type(x).__name__}")
    return x


def _list(x, what: str) -> list:
    """x, if it is a JSON list: not a string or an object."""
    if type(x) is not list:
        raise GraphInputError(f"{what} must be a list, not {type(x).__name__}")
    return x


def parse_plane_graph(document) -> tuple[PlaneBipartiteGraph, DualDigraph]:
    """Parse an input document (dict or JSON text) into graph and dual.

    Schema: {"E": [...], "V": [...], "edges": [[e, v], ...],
             "rotation": {vertex: [edge ids CCW]},
             "r0": [edge_id, "ev"|"ve"] (optional),
             "kappa": edge_id (optional)}.

    E, V, edges and each edge are JSON lists, and edge ids JSON integers.
    The r0 entry names the face to the left of the given dart.  Defaults:
    kappa = 0, r0 = head of kappa's dual edge.
    """
    document = decode_document(document)
    try:
        e_vertices = [str(x) for x in _list(document["E"], "E")]
        v_vertices = [str(x) for x in _list(document["V"], "V")]
        edges = _list(document["edges"], "edges")
        edges = [(str(e), str(v)) for e, v in (_list(p, "an edge") for p in edges)]
        rotations = {
            str(x): [_integer(c, "rotation entry") for c in r]
            for x, r in document["rotation"].items()
        }
        kappa = document.get("kappa")
        kappa = None if kappa is None else _integer(kappa, "kappa")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise GraphInputError(f"malformed document: {exc}") from exc
    g = PlaneBipartiteGraph(e_vertices, v_vertices, edges, rotations)

    r0 = None
    if "r0" in document:
        try:
            c, direction = document["r0"]
            c = _integer(c, "its edge")
        except (TypeError, ValueError) as exc:
            raise GraphInputError(f"malformed r0 dart: {exc}") from exc
        if direction not in ("ev", "ve"):
            raise GraphInputError("r0 dart direction must be 'ev' or 've'")
        if not 0 <= c < g.n_edges:
            raise GraphInputError(f"r0 dart edge {c} out of range")
        r0 = g.face_of((c, 0 if direction == "ev" else 1))
    if kappa is not None and not 0 <= kappa < g.n_edges:
        raise GraphInputError(f"kappa {kappa} out of range")
    dual = build_dual(g, r0, kappa)
    return g, dual


def block_subgraph(g: PlaneBipartiteGraph, edge_ids) -> PlaneBipartiteGraph:
    """The plane subgraph on the given edges, renumbered in ascending order.

    Vertices keep their names and their rotations restricted to the kept
    edges; vertices no kept edge touches are dropped.  The kept edges must
    form a connected subgraph, such as a block.
    """
    edge_map = {c: i for i, c in enumerate(sorted(set(edge_ids)))}
    touched = sorted({x for c in edge_map for x in g.ends[c]})
    names, k = g.e_vertices + g.v_vertices, len(g.e_vertices)
    return PlaneBipartiteGraph(
        [names[x] for x in touched if x < k],
        [names[x] for x in touched if x >= k],
        [g.edges[c] for c in edge_map],
        {
            names[x]: [edge_map[c] for c in g.rotations[x] if c in edge_map]
            for x in touched
        },
    )


def check_strong_connectivity(dual: DualDigraph) -> bool:
    """Whether every dual vertex reaches every other along directed edges.

    True for every dual of a connected plane bipartite graph; exposed as a
    sanity oracle for that fact.
    """
    n = dual.n_vertices

    def reaches_all(arcs) -> bool:
        out: list[list[int]] = [[] for _ in range(n)]
        for a, b in arcs:
            out[a].append(b)
        seen = {0}
        stack = [0]
        while stack:
            for b in out[stack.pop()]:
                if b not in seen:
                    seen.add(b)
                    stack.append(b)
        return len(seen) == n

    arcs = dual.arcs()
    return reaches_all(arcs) and reaches_all((b, a) for a, b in arcs)


# -- signed block decomposition ------------------------------------------


SignedBlock = namedtuple("SignedBlock", "sign vertices edge_ids")


def bfs_tree(vertices, edges) -> dict:
    """Breadth-first spanning tree of the first vertex's component.

    Maps each vertex reached, in breadth-first order, to (id of the edge
    from its parent, or None at the first vertex; depth).  Edges are (u, w)
    pairs; the index is the id.
    """
    adjacency = {x: [] for x in vertices}
    for c, (u, w) in enumerate(edges):
        adjacency[u].append((w, c))
        adjacency[w].append((u, c))
    tree = {vertices[0]: (None, 0)}
    queue = [vertices[0]]
    for x in queue:
        depth = tree[x][1] + 1
        for y, c in adjacency[x]:
            if y not in tree:
                tree[y] = (c, depth)
                queue.append(y)
    return tree


def biconnected_blocks(vertices, edges, signs) -> list[SignedBlock]:
    """Split a connected multigraph into biconnected blocks.

    Two edges share a block iff they lie on a common cycle, so each non-tree
    edge of a BFS tree is joined with the tree edges of its fundamental
    cycle.  The classes are the blocks: a cycle is the sum of the fundamental
    cycles of its non-tree edges, and if those split into two groups sharing
    no edge, one group's sum would be a proper nonempty even subgraph of it.

    Args:
        vertices: iterable of vertices, such as names or a graph's ids.
        edges: list of loopless (u, w) pairs; the index is the edge id.
        signs: per-edge +1/-1 labels; each block must be sign-homogeneous.

    Returns one SignedBlock per block, by least edge id.  A block's vertices
    are those its edges touch, so a cut vertex is in each of its blocks.
    """
    vertices = list(vertices)
    if not vertices:
        raise GraphInputError("empty graph")
    tree = bfs_tree(vertices, edges)
    if len(tree) != len(vertices):
        raise GraphInputError("graph is not connected")
    parent = list(range(len(edges)))  # union-find over edge ids

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for c, (u, w) in enumerate(edges):
        if c in (tree[u][0], tree[w][0]):  # a tree edge
            continue
        root = find(c)
        while u != w:  # climb from the deeper end to the common ancestor
            if tree[u][1] < tree[w][1]:
                u, w = w, u
            up = tree[u][0]
            parent[find(up)] = root
            u = edges[up][0] if edges[up][1] == u else edges[up][1]
    blocks: dict[int, list[int]] = {}  # by least edge id, so sorted
    for c in range(len(edges)):
        blocks.setdefault(find(c), []).append(c)
    out = []
    for block in blocks.values():
        block_signs = {signs[c] for c in block}
        if len(block_signs) != 1:
            raise GraphInputError("block mixes positive and negative edges")
        touched = frozenset(x for c in block for x in edges[c])
        out.append(SignedBlock(block_signs.pop(), touched, tuple(block)))
    return out
