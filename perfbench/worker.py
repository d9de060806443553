"""One workload process: import the package, warm up, run the closed loop.

run.py starts this script as a fresh interpreter for every pass:

    python3 perfbench/worker.py SPEC.json

SPEC names the package source directory, the command line, the warm-up and
request input files, the stopping rule, whether to trace, and where to
write the results.  Each request is one in-process ``homflytop.cli.main``
call; the next starts only when it has returned (one client, closed loop).
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


# Rounds of the speed probe, and its typical time on the 2-vCPU cloud VM
# where the benchmark was defined.  Timings are reported scaled to that
# speed: measured time x PROBE_REFERENCE_S / probe time next to it.
PROBE_ROUNDS = 30_000
PROBE_REFERENCE_S = 0.0036


def probe() -> float:
    """Seconds taken by a fixed integer loop: the processor's current speed.

    Shared machines drift by tens of percent within seconds, so every timing
    is paired with a probe taken next to it.  The probe allocates no tracked
    objects and runs with the collector off, so the program's heap cannot
    slow it down.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_ROUNDS):
        acc = (acc * 31 + i) & 0xFFFFF
        if acc & 1:
            acc ^= i
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def calibrated(seconds: float, probe_s: float) -> float:
    """A time scaled to the reference speed by the probe taken beside it."""
    return seconds * PROBE_REFERENCE_S / probe_s


def request(main, argv) -> dict:
    """One call of ``main``, never raising; exit code, outputs and latency."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crashing request is a failed request, not a crashed run
        rc = None
        err.write(traceback.format_exc())
    latency = time.perf_counter() - start
    return {"rc": rc, "latency_s": latency, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_loop(main, argv, paths, seconds, min_requests, sink, before=None) -> float:
    """Send the inputs in order; return the loop's wall time.

    Stops once the requests sent took ``seconds`` at the reference speed
    and at least ``min_requests`` were sent, or when the inputs run out.
    Counting reference-speed time rather than wall time keeps the number of
    requests, and so the input mix, independent of how fast the machine
    happens to be.  ``sink`` receives each record, with the probes taken
    just before and just after the request; ``before(i)`` runs ahead of
    request i.
    """
    start = time.perf_counter()
    last_probe = probe()
    busy = 0.0
    for i, path in enumerate(paths):
        if i >= min_requests and busy >= seconds:
            break
        if before is not None:
            before(i)
        record = request(main, argv + ["--input", path])
        record["probe_s"] = [last_probe, probe()]
        last_probe = record["probe_s"][1]
        busy += calibrated(record["latency_s"], sum(record["probe_s"]) / 2)
        sink(record)
    return time.perf_counter() - start


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    probe_before = probe()
    start = time.perf_counter()
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    from homflytop import cli

    if src not in Path(cli.__file__).resolve().parents:
        print(f"homflytop was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 3
    request(cli.main, spec["argv"] + ["--input", spec["warmup"]])
    setup_s = time.perf_counter() - start
    setup_probe_s = (probe_before + probe()) / 2

    tracer = before = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

        def before(i):
            tracer.request = i

    with open(spec["records"], "w") as fh:
        loop_s = run_loop(
            lambda argv: cli.main(argv),  # looked up per call, so tracing sees it
            spec["argv"],
            spec["inputs"],
            spec["seconds"],
            spec["min_requests"],
            lambda record: fh.write(json.dumps(record) + "\n"),
            before,
        )
    if tracer is not None:
        tracer.uninstall()
    result = {
        "setup_s": setup_s,
        "setup_probe_s": setup_probe_s,
        "loop_s": loop_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": tracer.dump() if tracer is not None else None,
    }
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
