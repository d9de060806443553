"""Small plane bipartite graphs used throughout the tests and docs."""

from __future__ import annotations

from .planegraph import PlaneBipartiteGraph, build_dual


def single_edge():
    """One edge e0 - v0; the dual is a single vertex with a loop."""
    g = PlaneBipartiteGraph(["e0"], ["v0"], [("e0", "v0")], {"e0": [0], "v0": [0]})
    return g, build_dual(g, kappa_edge=0)


def bigon():
    """Two parallel edges e0 - v0; the median diagram is the positive Hopf link."""
    g = PlaneBipartiteGraph(
        ["e0"], ["v0"], [("e0", "v0"), ("e0", "v0")], {"e0": [0, 1], "v0": [0, 1]}
    )
    return g, build_dual(g, kappa_edge=0)


def theta(bands: int = 3):
    """One E-vertex and one V-vertex joined by parallel edges.

    The rotation at v0 reverses the one at e0, which is what a sphere
    embedding of parallel bands forces.  For three bands the median diagram
    is the positive trefoil and the dual is a directed cycle.
    """
    edges = [("e0", "v0")] * bands
    rot = list(range(bands))
    g = PlaneBipartiteGraph(
        ["e0"], ["v0"], edges, {"e0": rot, "v0": list(reversed(rot))}
    )
    return g, build_dual(g, kappa_edge=0)


def k_m2(m: int):
    """The complete bipartite graph K_{m,2} embedded as m parallel strands.

    The E-vertices sit in a row between v0 (below) and v1 (above); edge 2i
    joins ei to v0 and edge 2i+1 joins ei to v1.  The root face lies left
    of the dart v0 -> e0 and kappa is edge 0, whose dual edge points to the
    root.
    """
    edges = []
    rotations = {}
    for i in range(m):
        edges += [(f"e{i}", "v0"), (f"e{i}", "v1")]
        rotations[f"e{i}"] = [2 * i, 2 * i + 1]
    rotations["v0"] = [2 * i for i in range(m - 1, -1, -1)]
    rotations["v1"] = [2 * i + 1 for i in range(m)]
    g = PlaneBipartiteGraph(
        [f"e{i}" for i in range(m)], ["v0", "v1"], edges, rotations
    )
    return g, build_dual(g, g.face_of((0, 1)), 0)


def k32_three_strand():
    """K_{3,2}: three square faces, dual a triangle of antiparallel pairs."""
    return k_m2(3)


def block_sum_of_bigons():
    """Two bigon blocks sharing the vertex v0: a connected sum of Hopf links."""
    edges = [
        ("e0", "v0"),
        ("e0", "v0"),
        ("e1", "v0"),
        ("e1", "v0"),
    ]
    rotations = {
        "e0": [0, 1],
        "e1": [2, 3],
        "v0": [0, 1, 2, 3],
    }
    g = PlaneBipartiteGraph(["e0", "e1"], ["v0"], edges, rotations)
    return g, build_dual(g, kappa_edge=0)


def block_sum_bigon_theta():
    """A bigon block and a three-band theta block sharing the vertex v0."""
    edges = [
        ("e0", "v0"),
        ("e0", "v0"),
        ("e1", "v0"),
        ("e1", "v0"),
        ("e1", "v0"),
    ]
    rotations = {
        "e0": [0, 1],
        "e1": [2, 3, 4],
        "v0": [0, 1, 4, 3, 2],
    }
    g = PlaneBipartiteGraph(["e0", "e1"], ["v0"], edges, rotations)
    return g, build_dual(g, kappa_edge=0)

