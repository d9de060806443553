"""Random connected plane bipartite graphs by planar-map growth.

Starting from a single edge, each step either hangs a new pendant vertex
in some face corner or draws a chord between an E-corner and a V-corner of
one face.  Both moves keep the rotation system planar and bipartite, so no
rejection is needed; every graph is revalidated through the constructor.
"""

from __future__ import annotations

import random

from .planegraph import PlaneBipartiteGraph


def _corners(g: PlaneBipartiteGraph):
    """(face index, vertex id, edge id to insert after) per face-walk corner.

    The corner before dart d of a face walk sits at the tail of d, in the
    rotation sector just after d's edge; inserting a new edge id right
    after that edge id puts the new dart inside this face.
    """
    return [
        (fi, g.ends[c][end], c) for fi, walk in enumerate(g.faces) for c, end in walk
    ]


def _insert_after(rotation: list[int], anchor: int, new_id: int) -> list[int]:
    i = rotation.index(anchor)
    return rotation[: i + 1] + [new_id] + rotation[i + 1 :]


def grow_once(g: PlaneBipartiteGraph, rng: random.Random) -> PlaneBipartiteGraph:
    """Apply one random growth move and rebuild the graph."""
    e_vertices = list(g.e_vertices)
    v_vertices = list(g.v_vertices)
    edges = [list(p) for p in g.edges]
    names, k = g.e_vertices + g.v_vertices, len(g.e_vertices)
    rotations = {x: list(r) for x, r in zip(names, g.rotations)}
    new_id = len(edges)
    corners = _corners(g)

    chord_options = []
    for i, (fi, x, _) in enumerate(corners):
        for j, (fj, y, _) in enumerate(corners):
            if fi == fj and x < k <= y:
                chord_options.append((i, j))

    if chord_options and rng.random() < 0.55:
        i, j = rng.choice(chord_options)
        _, x, anchor_x = corners[i]
        _, y, anchor_y = corners[j]
        x, y = names[x], names[y]
        edges.append([x, y])
        rotations[x] = _insert_after(rotations[x], anchor_x, new_id)
        rotations[y] = _insert_after(rotations[y], anchor_y, new_id)
    else:
        _, x, anchor = rng.choice(corners)
        if x < k:
            x, y = names[x], f"v{len(v_vertices)}"
            v_vertices.append(y)
            edges.append([x, y])
        else:
            x, y = names[x], f"e{len(e_vertices)}"
            e_vertices.append(y)
            edges.append([y, x])
        rotations[x] = _insert_after(rotations[x], anchor, new_id)
        rotations[y] = [new_id]
    return PlaneBipartiteGraph(e_vertices, v_vertices, edges, rotations)


def random_plane_bipartite(
    rng: random.Random, max_edges: int = 10
) -> PlaneBipartiteGraph:
    g = PlaneBipartiteGraph(["e0"], ["v0"], [("e0", "v0")], {"e0": [0], "v0": [0]})
    target = rng.randint(1, max_edges)
    while g.n_edges < target:
        g = grow_once(g, rng)
    return g


def corpus(seed: int, count: int, max_edges: int = 8):
    """Deterministic list of generated graphs."""
    rng = random.Random(seed)
    return [random_plane_bipartite(rng, max_edges=max_edges) for _ in range(count)]


def corpus_documents(seed: int, count: int, max_edges: int = 8):
    return [
        g.to_document(r0_dart=(0, 1), kappa=0)
        for g in corpus(seed, count, max_edges)
    ]
