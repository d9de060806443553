"""Answer checking, outside the timed loop.

Every answer is cross-checked against the top computed from leaf counts,
``top_via_tree(build_arb_tree(dual))``.  For the default seed the answer
must also equal the one the seed commit gave, stored under references/.
A request fails on a non-zero exit, an exception, unreadable output or a
wrong answer; a failure is counted and never stops the run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from homflytop.arborescence import build_arb_tree
from homflytop.homfly import top_coefficient, top_via_tree
from homflytop.laurent import Laurent2
from homflytop.planegraph import parse_plane_graph

REFERENCES = Path(__file__).resolve().parent / "references"
DEFAULT_SEED = 0


def doc_key(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:20]


def answer_of(command: str, payload: dict) -> str:
    """The part of a JSON result that the stored references pin down."""
    if command == "top":
        return payload["top"]
    if command == "homfly":
        return payload["homfly"]
    return payload["summary"]["top"]


def load_references(workload: str, seed: int) -> dict[str, str]:
    path = REFERENCES / f"{workload}.json"
    if seed != DEFAULT_SEED or not path.is_file():
        return {}
    return json.loads(path.read_text())["answers"]


@dataclass(frozen=True)
class Expected:
    """What the checker knows about one input, computed from the library."""

    top: str
    edges: int
    vertices: int
    faces: int
    type_one_leaves: int


def expected_for(doc: dict) -> Expected:
    g, dual = parse_plane_graph(doc)
    tree = build_arb_tree(dual)
    top = top_via_tree(tree, g.n_edges, g.n_vertices)
    return Expected(
        str(top.poly), g.n_edges, g.n_vertices, g.n_faces, len(tree.type_one_leaves())
    )


def check(command: str, record: dict, expected: Expected, reference: str | None = None):
    """None when the request's answer is right, else the reason it is not."""
    if record["rc"] != 0:
        return f"exit {record['rc']}: {record['stderr'].strip()[-200:]}"
    try:
        payload = json.loads(record["stdout"])
        answer = answer_of(command, payload)
        if command == "top":
            top = payload["top"]
        elif command == "homfly":
            sliced = top_coefficient(
                Laurent2.parse(payload["homfly"]), expected.edges, expected.vertices
            )
            top = str(sliced.poly)
        else:
            if payload["ok"] is not True:
                return "verify reported a failed check"
            top = payload["summary"]["top"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    if top != expected.top:
        return f"top {top} differs from the leaf-count top {expected.top}"
    if reference is not None and answer != reference:
        return f"answer differs from the seed commit's: {answer} != {reference}"
    return None


def check_all(command: str, docs, records, references: dict[str, str]):
    """Check every request; the number failed, the reasons and the input profile."""
    failed = 0
    reasons = []
    profile = {"edges": [], "faces": [], "type_one_leaves": []}
    for doc, record in zip(docs, records):
        expected = expected_for(doc)
        reason = check(command, record, expected, references.get(doc_key(doc)))
        if reason is not None:
            failed += 1
            reasons.append(reason)
        profile["edges"].append(expected.edges)
        profile["faces"].append(expected.faces)
        profile["type_one_leaves"].append(expected.type_one_leaves)
    return failed, reasons, profile
