"""Seeded input documents for the benchmark workloads.

Grid inputs are connected spanning subgraphs of an a x b checkerboard grid:
the grid's own rotation system, restricted to the kept edges, is a plane
embedding of the subgraph.  Small inputs come from the package's planar-map generator, with repeats
dropped.  A run never sends the same document twice.
"""

from __future__ import annotations

import json
import random
from itertools import combinations

from homflytop.gen import random_plane_bipartite
from homflytop.planegraph import PlaneBipartiteGraph

def grid_edges(a: int, b: int):
    """Vertices and edges of the a x b grid, and each vertex's CCW edge list.

    Vertex (i, j) sits at x = j, y = i and is an E-vertex when i + j is
    even.  Counterclockwise order at a vertex is east, north, west, south.
    """
    vertices = [(i, j) for i in range(a) for j in range(b)]
    edges = []
    index = {}
    for i, j in vertices:
        for di, dj in ((0, 1), (1, 0)):
            if i + di < a and j + dj < b:
                index[frozenset({(i, j), (i + di, j + dj)})] = len(edges)
                edges.append(((i, j), (i + di, j + dj)))
    ccw = {}
    for i, j in vertices:
        around = []
        for di, dj in ((0, 1), (1, 0), (0, -1), (-1, 0)):
            key = frozenset({(i, j), (i + di, j + dj)})
            if key in index:
                around.append(index[key])
        ccw[(i, j)] = around
    return vertices, edges, ccw


def _connected_spanning(vertices, edges, kept) -> bool:
    parent = {x: x for x in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    merged = 0
    for c in kept:
        x, y = find(edges[c][0]), find(edges[c][1])
        if x != y:
            parent[x] = y
            merged += 1
    return merged == len(vertices) - 1


def grid_subgraph(a: int, b: int, kept) -> PlaneBipartiteGraph:
    """The subgraph of the a x b grid on the given edge ids, renumbered."""
    vertices, edges, ccw = grid_edges(a, b)
    kept = sorted(kept)
    new_id = {c: k for k, c in enumerate(kept)}

    def name(x):
        i, j = x
        return f"{'e' if (i + j) % 2 == 0 else 'v'}{i}_{j}"

    def e_first(c):
        x, y = edges[c]
        return (name(x), name(y)) if (x[0] + x[1]) % 2 == 0 else (name(y), name(x))

    return PlaneBipartiteGraph(
        [name(x) for x in vertices if (x[0] + x[1]) % 2 == 0],
        [name(x) for x in vertices if (x[0] + x[1]) % 2 == 1],
        [e_first(c) for c in kept],
        {name(x): [new_id[c] for c in ccw[x] if c in new_id] for x in vertices},
    )


def grid_subgraphs(a: int, b: int, n_edges: int) -> list[frozenset[int]]:
    """Every connected spanning subgraph of the a x b grid with n_edges edges.

    A spanning connected subgraph needs at least s - 1 edges; a target below
    that has no solutions, and a random deletion loop looking for one would
    never stop, so it is rejected here.
    """
    vertices, edges, _ = grid_edges(a, b)
    s = len(vertices)
    if not s - 1 <= n_edges <= len(edges):
        raise ValueError(
            f"a connected spanning subgraph of the {a}x{b} grid has between "
            f"{s - 1} and {len(edges)} edges, not {n_edges}"
        )
    k = len(edges) - n_edges
    everything = frozenset(range(len(edges)))
    out = []
    for deleted in combinations(range(len(edges)), k):
        kept = everything.difference(deleted)
        if _connected_spanning(vertices, edges, kept):
            out.append(kept)
    return out


def spanning_tree_count(vertices, edges) -> int:
    """Spanning trees of a multigraph: a Laplacian cofactor, by exact Bareiss."""
    pos = {x: i for i, x in enumerate(vertices)}
    n = len(vertices) - 1
    lap = [[0] * n for _ in range(n)]
    for x, y in edges:
        for u, w in ((pos[x], pos[y]), (pos[y], pos[x])):
            if u:  # row and column 0 are left out: this is a cofactor
                lap[u - 1][u - 1] += 1
                if w:
                    lap[u - 1][w - 1] -= 1
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if lap[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            lap[k], lap[pivot] = lap[pivot], lap[k]
            sign = -sign
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                lap[r][c] = (lap[r][c] * lap[k][k] - lap[r][k] * lap[k][c]) // prev
        prev = lap[k][k]
    return sign * prev


def radical_inverse(k: int) -> float:
    """k with its binary digits mirrored about the point: 1 -> .5, 2 -> .25, 3 -> .75."""
    x, f = 0.0, 0.5
    while k:
        x += f * (k & 1)
        k >>= 1
        f /= 2
    return x


def spread_order(rng: random.Random, items: list, key) -> list:
    """All items, ordered so that every prefix spreads evenly over ``key``.

    Items are sorted by ``key`` (ties in seeded order) and read at the
    positions of the van der Corput sequence, shifted by a seeded offset.
    The first 2^j items then sit at even gaps along the sorted list, so a
    run that stops after any number of requests sees the same spread of
    costs, whichever the seed.
    """
    items = list(items)
    rng.shuffle(items)
    items.sort(key=key)
    n = len(items)
    offset = rng.random()
    used = [False] * n
    out = []
    k = 0
    while k < 2 * n:
        pos = int((radical_inverse(k) + offset) % 1.0 * n)
        if not used[pos]:
            used[pos] = True
            out.append(items[pos])
        k += 1
    out.extend(x for x, u in zip(items, used) if not u)
    return out


def grid_stratum(rng: random.Random, a: int, b: int, n_edges: int) -> list[dict]:
    """All grid subgraphs of one size as documents with a seeded kappa.

    They are spread over their spanning-tree count, the best cheap predictor
    of skein cost found (rank correlation 0.9 with ``homfly`` time on 3x4
    subgraphs).
    """
    vertices, edges, _ = grid_edges(a, b)
    subsets = spread_order(
        rng,
        grid_subgraphs(a, b, n_edges),
        lambda kept: spanning_tree_count(vertices, [edges[c] for c in kept]),
    )
    docs = []
    for kept in subsets:
        g = grid_subgraph(a, b, kept)
        docs.append(g.to_document(kappa=rng.randrange(g.n_edges)))
    return docs


def small_stratum(rng: random.Random, count: int, max_edges: int = 8) -> list[dict]:
    """``count`` distinct graphs from the acceptance-corpus generator.

    They are spread over a cost key, edges x sqrt(spanning trees), whose
    rank correlation with ``verify`` time on these graphs is 0.92.
    """
    graphs = {}
    while len(graphs) < count:
        g = random_plane_bipartite(rng, max_edges=max_edges)
        doc = g.to_document(r0_dart=(0, 1), kappa=0)
        key = json.dumps(doc, sort_keys=True)
        if key not in graphs:
            trees = spanning_tree_count(g.e_vertices + g.v_vertices, g.edges)
            graphs[key] = (g.n_edges * trees**0.5, doc)
    return [doc for _, doc in spread_order(rng, list(graphs.values()), lambda x: x[0])]


def interleave(strata: list[list[dict]]) -> list[dict]:
    """One document from each stratum per round, in a fixed order.

    Strata of equal sizes are used up at the same round for every seed, so
    every prefix has the same mix of strata whichever the seed.
    """
    out = []
    iters = [iter(s) for s in strata]
    while iters:
        alive = []
        for it in iters:
            doc = next(it, None)
            if doc is not None:
                out.append(doc)
                alive.append(it)
        iters = alive
    return out


# Warm-up input for every workload: the 2 x 2 grid, a single square.  No
# workload uses that grid, and generated graphs name their vertices e0, v0,
# ..., so no input document equals it.
WARMUP = grid_subgraph(2, 2, range(4)).to_document(kappa=0)


def top_grid(seed: int) -> list[dict]:
    """3x4 grid subgraphs with 15-17 edges (5-7 faces): above the oracle cap."""
    rng = random.Random(f"top-grid/{seed}")
    return interleave([grid_stratum(rng, 3, 4, m) for m in (15, 16, 17)])


def homfly_large(seed: int) -> list[dict]:
    """3x4 grid subgraphs with 13-15 edges: one large skein run per request."""
    rng = random.Random(f"homfly-large/{seed}")
    return interleave([grid_stratum(rng, 3, 4, m) for m in (13, 14, 15)])


# (rows, columns, edges) of the grid strata of verify-small: one and two
# inner faces, up to 12 edges.  Larger grid subgraphs take seconds each
# (3x4 with 13 edges about 1.2 s, with 14 edges about 5 s).
VERIFY_GRIDS = ((2, 3, 6), (2, 3, 7), (2, 4, 8), (2, 4, 9), (3, 3, 9), (3, 3, 10), (3, 4, 12))


def verify_small(seed: int, count: int) -> list[dict]:
    """Small generated graphs and small grid subgraphs, three to two."""
    rng = random.Random(f"verify-small/{seed}")
    small = small_stratum(rng, count)
    grids = interleave([grid_stratum(rng, a, b, m) for a, b, m in VERIFY_GRIDS])
    out = []
    while len(out) < count and (small or grids):
        for pool, take in ((small, 3), (grids, 2)):
            out.extend(pool[:take])
            del pool[:take]
    return out[:count]


# Per workload: the command line of every request and the input maker.
WORKLOADS = {
    "top-grid": (["top", "--format", "json"], top_grid),
    "verify-small": (["verify", "--format", "json"], lambda seed: verify_small(seed, 1000)),
    "homfly-large": (["homfly", "--cap", "15", "--format", "json"], homfly_large),
}
