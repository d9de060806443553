import json
from pathlib import Path

import answers
import inputs
import run
import tracer
import worker
from homflytop import cli

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def write(tmp_path, docs):
    paths = []
    for i, doc in enumerate(docs):
        paths.append(tmp_path / f"{i}.json")
        paths[-1].write_text(json.dumps(doc))
    return [str(p) for p in paths]


def test_wrong_answer_counts_as_failed_without_stopping_the_run(tmp_path):
    docs = inputs.top_grid(0)[:3]
    records = []
    worker.run_loop(cli.main, ["top", "--format", "json"], write(tmp_path, docs), 0, 3, records.append)
    assert len(records) == 3
    bad = json.loads(records[1]["stdout"])
    bad["top"] = "v^99"
    records[1]["stdout"] = json.dumps(bad)
    failed, reasons, profile = answers.check_all("top", docs, records, {})
    assert failed == 1 and "differs" in reasons[0]
    assert len(profile["edges"]) == 3


def test_homfly_over_its_cap_fails_with_exit_2_and_the_loop_goes_on(tmp_path):
    docs = inputs.homfly_large(0)[:2]  # 13 to 15 crossings
    records = []
    argv = ["homfly", "--cap", "5", "--format", "json"]
    worker.run_loop(cli.main, argv, write(tmp_path, docs), 0, 2, records.append)
    assert [r["rc"] for r in records] == [2, 2]
    failed, reasons, _ = answers.check_all("homfly", docs, records, {})
    assert failed == 2 and reasons[0].startswith("exit 2")


def test_crashing_request_is_recorded_not_raised():
    def crash(argv):
        raise KeyError("boom")

    record = worker.request(crash, [])
    assert record["rc"] is None and "KeyError" in record["stderr"]


def test_reference_mismatch_counts_as_failed(tmp_path):
    docs = inputs.homfly_large(0)[:1]
    records = []
    argv = ["homfly", "--cap", "15", "--format", "json"]
    worker.run_loop(cli.main, argv, write(tmp_path, docs), 0, 1, records.append)
    expected = answers.expected_for(docs[0])
    assert answers.check("homfly", records[0], expected) is None
    assert answers.check("homfly", records[0], expected, reference="1") is not None


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    spec = json.loads(BENCHMARK.read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    empty = {"names": [], "spans": [], "counts": {}, "absent": []}
    layer = list(tracer.layer_metrics(empty)) + ["trace_overhead_ratio"]
    assert [m["name"] for m in spec["per_layer"]] == layer
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(inputs.WORKLOADS)
    assert spec["command"][:2] == ["python3", "perfbench/run.py"]


def test_run_without_the_package_exits_nonzero(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "top-grid"]) == 2
