import pytest

import tracer


def test_self_time_subtracts_covered_child_intervals():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 6]
    spans = [
        (0, 0.0, 10.0, -1, 0),
        (1, 1.0, 4.0, 0, 0),
        (2, 2.0, 3.0, 1, 0),
        (1, 5.0, 6.0, 0, 0),
    ]
    assert tracer.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [(0, 0.0, 10.0, -1, 0), (1, 1.0, 5.0, 0, 0), (1, 3.0, 7.0, 0, 0), (1, 9.0, 12.0, 0, 0)]
    assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_install_traces_direct_imports_and_uninstall_restores():
    from homflytop import cli, fixtures, rootpolytope, verify
    from homflytop.homfly import LinkDiagram

    original = verify.build_arb_tree
    g, dual = fixtures.k32_three_strand()
    t = tracer.Tracer()
    t.install()
    try:
        assert verify.build_arb_tree is not original
        t.request = 7
        verify.verify_graph(g, dual)
    finally:
        t.uninstall()
    assert verify.build_arb_tree is original
    assert not hasattr(cli.main, "__wrapped__")
    assert not hasattr(rootpolytope.compatible, "__wrapped__")
    assert not hasattr(LinkDiagram.canonical_code, "__wrapped__")

    metrics = tracer.layer_metrics(t.dump())
    pairs = len(dual.admissible_pairs())
    assert metrics["verify.verify_graph.calls"] == 1
    assert metrics["arborescence.build_arb_tree.calls"] == pairs
    assert metrics["planegraph.DualDigraph.with_root.calls"] == pairs
    lookups = metrics["homfly.skein_memo_lookups"]
    assert 0 < lookups <= metrics["homfly.LinkDiagram.canonical_code.calls"]
    assert 0 <= metrics["homfly.skein_memo_hit_ratio"] < 1
    assert metrics["rootpolytope.simplices"] == pairs * 3  # K_{3,2} has 3 hypertrees
    assert {row[4] for row in t.dump()["spans"]} == {7}


def test_missing_target_is_reported_absent():
    t = tracer.Tracer()
    t.install(targets=(("homfly", "no_such_function", "span"), ("nomodule", "f", "count")))
    t.uninstall()
    assert t.absent == ["homfly.no_such_function", "nomodule.f"]
