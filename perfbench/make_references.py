"""Store the answers of the current commit for the default seed's inputs.

    python3 perfbench/make_references.py

Writes references/<workload>.json: for the first inputs of each workload
at the default seed, the answer part of the JSON result (the top, the
HOMFLY value, or verify's summary top), keyed by a hash of the document.
The stored files were made at the commit that introduced the benchmark;
run.py checks answers against them on the default seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import answers  # noqa: E402
import inputs  # noqa: E402
import worker  # noqa: E402
from homflytop import cli  # noqa: E402

# Inputs covered per workload: several times what one run sends today.
COVERED = {"top-grid": 150, "verify-small": 500, "homfly-large": 400}


def main() -> int:
    out_dir = HERE / "references"
    out_dir.mkdir(exist_ok=True)
    tmp = HERE.parent / ".bench_build" / "references.json"
    tmp.parent.mkdir(exist_ok=True)
    for name, (argv, make_inputs) in inputs.WORKLOADS.items():
        stored = {}
        for doc in make_inputs(answers.DEFAULT_SEED)[: COVERED[name]]:
            tmp.write_text(json.dumps(doc))
            record = worker.request(cli.main, argv + ["--input", str(tmp)])
            if record["rc"] != 0:
                print(f"{name}: exit {record['rc']}: {record['stderr']}", file=sys.stderr)
                return 1
            stored[answers.doc_key(doc)] = answers.answer_of(
                argv[0], json.loads(record["stdout"])
            )
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(
            {"seed": answers.DEFAULT_SEED, "answers": stored}, indent=0, sort_keys=True
        ) + "\n")
        print(f"{name}: {len(stored)} answers -> {path.relative_to(HERE.parent)}")
    tmp.unlink()
    return 0


if __name__ == "__main__":
    sys.exit(main())
