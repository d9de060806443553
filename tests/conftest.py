import random

import pytest

from homflytop.gen import corpus
from homflytop.homfly import shared_memo
from homflytop.planegraph import GraphInputError, PlaneBipartiteGraph

CORPUS_SEED = 20240809
CORPUS_SIZE = 220
CORPUS_MAX_EDGES = 8


@pytest.fixture(autouse=True)
def empty_shared_memo():
    """Each test starts with an empty process skein memo, so no value an
    earlier test made, or planted through patched oracle internals, is read."""
    shared_memo().clear()


@pytest.fixture(scope="session")
def graph_corpus():
    """Deterministic corpus of small connected plane bipartite graphs."""
    return corpus(seed=CORPUS_SEED, count=CORPUS_SIZE, max_edges=CORPUS_MAX_EDGES)


def _grid_graph(a: int, b: int, dropped=()) -> PlaneBipartiteGraph:
    """The a x b checkerboard grid without the dropped edge ids.

    Vertex (i, j) sits at x = j, y = i and is an E-vertex when i + j is
    even; each rotation lists the east, north, west and south edges.
    """
    cells = [(i, j) for i in range(a) for j in range(b)]
    pairs = [
        ((i, j), (i + di, j + dj))
        for i, j in cells
        for di, dj in ((0, 1), (1, 0))
        if i + di < a and j + dj < b
    ]
    kept = [pair for c, pair in enumerate(pairs) if c not in dropped]
    index = {frozenset(pair): c for c, pair in enumerate(kept)}

    def name(x):
        return f"{'e' if sum(x) % 2 == 0 else 'v'}{x[0]}_{x[1]}"

    rotations = {}
    for i, j in cells:
        around = [
            frozenset({(i, j), (i + di, j + dj)})
            for di, dj in ((0, 1), (1, 0), (0, -1), (-1, 0))
        ]
        rotations[name((i, j))] = [index[k] for k in around if k in index]
    edges = [
        (name(x), name(y)) if sum(x) % 2 == 0 else (name(y), name(x))
        for x, y in kept
    ]
    return PlaneBipartiteGraph(
        [name(x) for x in cells if sum(x) % 2 == 0],
        [name(x) for x in cells if sum(x) % 2 == 1],
        edges,
        rotations,
    )


@pytest.fixture(scope="session")
def grid_graph():
    """Builder of checkerboard grid subgraphs: grid_graph(a, b, dropped=())."""
    return _grid_graph


@pytest.fixture(scope="session")
def grid_subgraphs():
    """Connected subgraphs of the 2x3 to 3x4 grids: each whole grid, then
    seeded ones with one to three edges dropped (ten per shape)."""
    rng = random.Random(20240810)
    out = []
    for a, b in ((2, 3), (2, 4), (3, 3), (3, 4)):
        n_edges = a * (b - 1) + b * (a - 1)
        out.append(_grid_graph(a, b))
        found = 0
        while found < 10:
            dropped = rng.sample(range(n_edges), rng.randint(1, 3))
            try:
                out.append(_grid_graph(a, b, dropped))
            except GraphInputError:  # disconnected
                continue
            found += 1
    return out
