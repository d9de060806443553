"""homflytop benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload top-grid --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its src/.
The harness generates the seeded inputs, starts fresh workload processes
(worker.py), checks every answer after the timed loop, and prints a summary
followed by one JSON line with the metrics.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` runs a fixed prefix of the inputs once
untraced and once traced, each in a fresh process, and reports the
per-layer metrics.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_REQUESTS = 100  # so that p90 has ten samples beyond it
TRACED_REQUESTS = 100  # fixed, so traced call counts repeat exactly per seed
SETUP_SAMPLES = 7  # fresh processes whose set-up time is measured, main one included
DEADLINE_S = 170  # the whole run, generation and checking included

END_TO_END = {
    "requests_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def unit_of(metric: str) -> str:
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_s"):
        return "s"
    return "count"


class Run:
    """Work directory, processes and deadline of one benchmark run."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.n_workers = 0

    def process(self, argv, warmup, paths, seconds, min_requests, trace=False):
        """Start a fresh workload process and wait for it; its results and records."""
        self.n_workers += 1
        tag = self.work / f"worker{self.n_workers}"
        spec = {
            "src": str(SRC),
            "argv": argv,
            "warmup": str(warmup),
            "inputs": [str(p) for p in paths],
            "seconds": seconds,
            "min_requests": min_requests,
            "trace": trace,
            "records": f"{tag}.records",
            "result": f"{tag}.result",
        }
        spec_path = Path(f"{tag}.spec")
        spec_path.write_text(json.dumps(spec))
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("no time left for another workload process")
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            cwd=ROOT, timeout=timeout, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"workload process failed ({proc.returncode}): {proc.stderr}")
        result = json.loads(Path(spec["result"]).read_text())
        with open(spec["records"]) as fh:
            records = [json.loads(line) for line in fh]
        return result, records


def describe(profile) -> str:
    return "; ".join(
        f"{k} {min(v)}/{statistics.median(v):g}/{max(v)}" for k, v in profile.items() if v
    )


def latencies(records) -> list[float]:
    return [worker.calibrated(r["latency_s"], statistics.mean(r["probe_s"])) for r in records]


def end_to_end(results, records) -> dict[str, float]:
    times = latencies(records)
    return {
        "requests_per_s": len(times) / sum(times),
        "latency_p50_s": statistics.median(times),
        "latency_p90_s": statistics.quantiles(times, n=10, method="inclusive")[8],
        "setup_s": statistics.median(
            worker.calibrated(r["setup_s"], r["setup_probe_s"]) for r in results
        ),
        "peak_rss_mb": results[-1]["peak_rss_mb"],
    }


def uncalibrated(results, records) -> str:
    """The same timings as measured, for the summary."""
    raw = [r["latency_s"] for r in records]
    probes = [p for r in records for p in r["probe_s"]]
    return (
        f"as measured: {len(raw) / results[-1]['loop_s']:.4g} requests/s over the loop, "
        f"latency p50 {statistics.median(raw):.4g} s, "
        f"set-up {statistics.median(r['setup_s'] for r in results):.4g} s, "
        f"probe median {statistics.median(probes) * 1e3:.3f} ms "
        f"(reference {worker.PROBE_REFERENCE_S * 1e3:g} ms)"
    )


def measure(argv, run, warmup, paths, seconds):
    """--trace 0: set-up samples, then the timed loop; end-to-end metrics."""
    results = [run.process(argv, warmup, [], 0, 0)[0] for _ in range(SETUP_SAMPLES - 1)]
    result, records = run.process(argv, warmup, paths, seconds, MIN_REQUESTS)
    results.append(result)
    return end_to_end(results, records), records, uncalibrated(results, records)


def trace(argv, run, warmup, paths):
    """--trace 1: the same fixed prefix untraced, then traced; per-layer metrics."""
    prefix = paths[:TRACED_REQUESTS]
    plain, plain_records = run.process(argv, warmup, prefix, 0, len(prefix))
    traced, records = run.process(argv, warmup, prefix, 0, len(prefix), trace=True)
    metrics = tracer.layer_metrics(traced["trace"])
    overhead = sum(latencies(records)) / sum(latencies(plain_records))
    metrics["trace_overhead_ratio"] = overhead - 1
    raw = uncalibrated([plain], plain_records)
    return metrics, plain_records + records, traced["trace"]["absent"], raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "homflytop" / "cli.py").is_file():
        print(f"no homflytop package under {SRC}: run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import answers
    import inputs

    if args.workload not in inputs.WORKLOADS:
        known = ", ".join(inputs.WORKLOADS)
        print(f"unknown workload {args.workload!r}; one of {known}", file=sys.stderr)
        return 2
    request_argv, make_inputs = inputs.WORKLOADS[args.workload]

    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build))
    try:
        docs = make_inputs(args.seed)
        paths = []
        for i, doc in enumerate(docs):
            paths.append(work / f"in{i}.json")
            paths[-1].write_text(json.dumps(doc))
        warmup = work / "warmup.json"
        warmup.write_text(json.dumps(inputs.WARMUP))
        run = Run(work, deadline)
        absent = []
        if args.trace:
            metrics, records, absent, raw = trace(request_argv, run, warmup, paths)
            units = {m: unit_of(m) for m in metrics}
            issued = docs[:TRACED_REQUESTS] * 2
        else:
            metrics, records, raw = measure(request_argv, run, warmup, paths, args.seconds)
            units = END_TO_END
            issued = docs[: len(records)]
        references = answers.load_references(args.workload, args.seed)
        failed, reasons, profile = answers.check_all(request_argv[0], issued, records, references)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: closed loop, 1 client, 1 process")
    print(f"inputs: {len(docs)} distinct documents, {len(records)} requests; {describe(profile)}")
    print(f"references from the seed commit: {len(references)} stored answers")
    print(raw)
    for name, value in metrics.items():
        print(f"  {name:48s} {value:14.6g} {units[name]}")
    print(f"  {'failed_ratio':48s} {failed / len(records):14.6g} ratio ({failed} of {len(records)})")
    for reason in reasons[:5]:
        print(f"  failure: {reason}")
    for name in absent:
        print(f"  absent: {name}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
