"""Whole CLI outputs on fixed inputs, byte for byte.

``tests/data/cli_k32.json`` maps each command line below (without its
``--input``) to the stdout and exit code it gave on the K_{3,2} fixture
when the file was made.  ``tests/data/cli_blocks_grid.json`` does the same
for ``MORE_LINES``, keyed by input name and command line: the bigon-theta
block sum with its theta block negative, and the 3x3 grid without edge 4,
whose shelling attaches simplices along up to three facets, the full 4x4
grid, whose triangulation has 384 simplices and whose f-vector ``hvector``
prints, the full 4x5 grid, whose 31 crossings make the largest pinned
oracle run, the full 3x4 grid, whose 17 crossings run the skein oracle of
``homfly`` and ``top`` and whose arborescence tree, 56 type-I and 207
type-II leaves, pins ``arbtree`` and ``verify`` beyond K_{3,2}, and corpus
graph 139, whose degree-1 vertices put curls in its median.  Every line
also runs twice more in one sequence, with the process skein memo kept
from the lines before.  Regenerate both only when an output change is
intended:

    PYTHONPATH=src python tests/test_golden_cli.py

A last test pins the test corpus's documents, as ``gen`` draws them.
"""

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from conftest import CORPUS_MAX_EDGES, CORPUS_SEED, CORPUS_SIZE, _grid_graph
from homflytop.cli import main
from homflytop.gen import corpus, corpus_documents
from homflytop.fixtures import block_sum_bigon_theta, k32_three_strand
from homflytop.homfly import shared_memo

GOLDEN = Path(__file__).parent / "data" / "cli_k32.json"
GOLDEN_MORE = Path(__file__).parent / "data" / "cli_blocks_grid.json"

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
MORE_LINES = [
    ("bigon-theta", "homogeneous --format json"),
    ("bigon-theta", "homogeneous --format text"),
    ("grid-3x3-4", "triangulate --format json"),
    ("grid-3x3-4", "hvector --all-roots --format json"),
    ("grid-3x3-4", "verify --format json"),
    ("grid-4x4", "top --format json"),
    ("grid-4x4", "triangulate --format json"),
    ("grid-4x4", "hvector --format json"),
    ("grid-4x4", "homfly --cap 24 --format json"),
    ("grid-4x5", "homfly --cap 31 --format json"),
    ("grid-3x4", "homfly --cap 17 --format json"),
    ("grid-3x4", "top --cap 17 --format json"),
    ("grid-3x4", "hvector --format json"),
    ("grid-3x4", "arbtree --format json"),
    ("grid-3x4", "arbtree --format text"),
    ("grid-3x4", "arbtree --format dot"),
    ("grid-3x4", "verify --format json"),
    ("corpus-139", "homfly --format json"),
]


def documents() -> dict:
    k32, _ = k32_three_strand()
    block_sum, _ = block_sum_bigon_theta()
    return {
        "k32": k32.to_document(r0_dart=(0, 1), kappa=0),
        "bigon-theta": {**block_sum.to_document(), "signs": [1, 1, -1, -1, -1]},
        "grid-3x3-4": _grid_graph(3, 3, (4,)).to_document(),
        "grid-4x4": _grid_graph(4, 4).to_document(),
        "grid-4x5": _grid_graph(4, 5).to_document(),
        "grid-3x4": _grid_graph(3, 4).to_document(),
        "corpus-139": corpus(
            seed=CORPUS_SEED, count=CORPUS_SIZE, max_edges=CORPUS_MAX_EDGES
        )[139].to_document(),
    }


def write_documents(directory) -> dict:
    paths = {}
    for name, doc in documents().items():
        path = Path(directory) / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return paths


def run_line(line: str, doc_path: str) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([*line.split(), "--input", doc_path])
    return {"stdout": out.getvalue(), "exit": code}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def golden_more():
    return json.loads(GOLDEN_MORE.read_text())


@pytest.fixture(scope="module")
def doc_paths(tmp_path_factory):
    return write_documents(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("line", COMMAND_LINES)
def test_output_is_golden(line, golden, doc_paths):
    assert run_line(line, doc_paths["k32"]) == golden[line]


@pytest.mark.parametrize("name, line", MORE_LINES)
def test_more_outputs_are_golden(name, line, golden_more, doc_paths):
    assert run_line(line, doc_paths[name]) == golden_more[f"{name}: {line}"]


def test_outputs_stay_golden_with_a_warm_memo(golden, golden_more, doc_paths):
    runs = [("k32", line, golden[line]) for line in COMMAND_LINES] + [
        (name, line, golden_more[f"{name}: {line}"]) for name, line in MORE_LINES
    ]
    for _ in range(2):
        for name, line, expected in runs:
            assert run_line(line, doc_paths[name]) == expected, f"{name}: {line}"
    assert shared_memo()


def test_generated_corpus_is_pinned():
    # the test corpus, the benchmark inputs and their stored answers all
    # depend on every random draw of ``gen``
    docs = corpus_documents(CORPUS_SEED, CORPUS_SIZE, CORPUS_MAX_EDGES)
    text = "\n".join(json.dumps(d, sort_keys=True) for d in docs)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "795752d7b9939b042441d56b5f9e6b04356b8b5e2f2e2779847f941b1da3017c"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_documents(tmp)
        record = {line: run_line(line, paths["k32"]) for line in COMMAND_LINES}
        more = {f"{n}: {line}": run_line(line, paths[n]) for n, line in MORE_LINES}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    GOLDEN_MORE.write_text(json.dumps(more, indent=1, sort_keys=True) + "\n")
