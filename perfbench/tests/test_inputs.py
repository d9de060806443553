import json

import pytest

import inputs


def keys(docs):
    return [json.dumps(d, sort_keys=True) for d in docs]


@pytest.mark.parametrize(
    "make", [inputs.top_grid, inputs.homfly_large, lambda seed: inputs.verify_small(seed, 60)]
)
def test_inputs_are_deterministic_per_seed_and_distinct(make):
    first, again, other = make(3), make(3), make(4)
    assert keys(first) == keys(again)
    assert keys(first) != keys(other)
    assert len(set(keys(first))) == len(first)
    assert json.dumps(inputs.WARMUP, sort_keys=True) not in set(keys(first))


def test_grid_subgraphs_are_connected_spanning_and_counted():
    # 3x3 grid: 12 edges; dropping one edge never disconnects it, and
    # dropping two disconnects only when both edges of one corner go.
    assert len(inputs.grid_subgraphs(3, 3, 11)) == 12
    assert len(inputs.grid_subgraphs(3, 3, 10)) == 66 - 4
    g = inputs.grid_subgraph(3, 3, inputs.grid_subgraphs(3, 3, 10)[0])
    assert (g.n_vertices, g.n_edges, g.n_faces) == (9, 10, 3)


@pytest.mark.parametrize("n_edges", [10, 18])
def test_edge_target_outside_spanning_range_is_rejected_up_front(n_edges):
    # 3x4 grid: 12 vertices need at least 11 edges, and it has only 17
    with pytest.raises(ValueError):
        inputs.grid_subgraphs(3, 4, n_edges)


def test_spanning_tree_count_matches_known_values():
    vertices, edges, _ = inputs.grid_edges(3, 3)
    assert inputs.spanning_tree_count(vertices, edges) == 192
    k32 = [(e, v) for e in "abc" for v in "xy"]
    assert inputs.spanning_tree_count(list("abcxy"), k32) == 12


def test_interleave_keeps_every_prefix_mixed():
    strata = [[("a", i) for i in range(10)], [("b", i) for i in range(3)]]
    out = inputs.interleave(strata)
    assert sorted(out) == sorted(strata[0] + strata[1])
    assert [kind for kind, _ in out[:6]] == ["a", "b"] * 3


def test_spread_order_spreads_every_power_of_two_prefix():
    import random

    items = list(range(64))
    out = inputs.spread_order(random.Random(5), items, key=lambda x: x)
    assert sorted(out) == items
    for size in (2, 4, 8, 16, 32):
        picked = sorted(out[:size])
        assert {b // (64 // size) for b in picked} == set(range(size))
