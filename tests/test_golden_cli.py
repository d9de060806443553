"""Whole CLI outputs on the K_{3,2} fixture, byte for byte.

``tests/data/cli_k32.json`` maps each command line below (without its
``--input``) to the stdout and exit code it gave when the file was made.
Regenerate it only when an output change is intended:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from homflytop.cli import main
from homflytop.fixtures import k32_three_strand

GOLDEN = Path(__file__).parent / "data" / "cli_k32.json"

COMMANDS = (
    ("faces", ("json", "text", "dot")),
    ("dual", ("json", "text", "dot")),
    ("arbtree", ("json", "text", "dot")),
    ("triangulate", ("json", "text")),
    ("hvector --all-roots", ("json", "text")),
    ("parking --all-roots", ("json", "text", "csv")),
    ("top", ("json", "text")),
    ("homfly", ("json", "text")),
    ("homogeneous", ("json", "text")),
    ("verify", ("json", "text")),
)
COMMAND_LINES = [f"{c} --format {fmt}" for c, formats in COMMANDS for fmt in formats]


def write_document(directory) -> str:
    g, _ = k32_three_strand()
    path = Path(directory) / "k32.json"
    path.write_text(json.dumps(g.to_document(r0_dart=(0, 1), kappa=0)))
    return str(path)


def run_line(line: str, doc_path: str) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([*line.split(), "--input", doc_path])
    return {"stdout": out.getvalue(), "exit": code}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def k32_doc(tmp_path_factory):
    return write_document(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("line", COMMAND_LINES)
def test_output_is_golden(line, golden, k32_doc):
    assert run_line(line, k32_doc) == golden[line]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        doc = write_document(tmp)
        record = {line: run_line(line, doc) for line in COMMAND_LINES}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
