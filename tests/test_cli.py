import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import types
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from itertools import islice
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import homflytop
from homflytop import arborescence, cli, parking, rootpolytope, verify
from homflytop.cli import main
from homflytop.fixtures import (
    block_sum_bigon_theta, k32_three_strand, single_edge, theta,
)
from homflytop.gen import corpus_documents
from homflytop.homfly import LinkDiagram, median_diagram, shared_memo
from homflytop.laurent import Laurent1, Laurent2
from homflytop.planegraph import (
    InvariantError, PlaneBipartiteGraph, build_dual, parse_plane_graph,
)
from homflytop.rootpolytope import Triangulation


@pytest.fixture()
def k32_path(tmp_path):
    g, _ = k32_three_strand()
    path = tmp_path / "k32.json"
    path.write_text(json.dumps(g.to_document(r0_dart=(0, 1), kappa=0)))
    return str(path)


@pytest.fixture()
def shared_path(tmp_path, grid_graph):
    """The 2x3 grid without edge 0, whose three pairs at root 0 list the
    same type-I leaves in the same order, so verify shares their audits."""
    g = grid_graph(2, 3, (0,))
    dual = build_dual(g, kappa_edge=0)
    sequences = {
        (r0, tuple((x.a, x.s) for x in tree.leaves if x.leaf_type == "I"))
        for r0, kappa in dual.admissible_pairs()
        for tree in [arborescence.build_arb_tree(dual.with_root(r0, kappa))]
    }
    assert len(sequences) < len(dual.admissible_pairs())
    path = tmp_path / "grid_2x3_without_edge_0.json"
    path.write_text(json.dumps(g.to_document(kappa=0)))
    return str(path)


def pair_tags(path) -> list[str]:
    """The tag of each (r0, kappa) pair of a document, in verify's order."""
    _, dual = parse_plane_graph(Path(path).read_text())
    return [f"r0={r0} kappa={kappa}" for r0, kappa in dual.admissible_pairs()]


@pytest.fixture()
def single_path(tmp_path):
    g, _ = single_edge()
    path = tmp_path / "single.json"
    path.write_text(json.dumps(g.to_document(r0_dart=(0, 1), kappa=0)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def path_graph(k, closed=False):
    """The path e0 - v0 - e1 - v1 - ... - v(k-1): a tree with 2k - 1 edges.

    Closed, the edge v(k-1) - e0 makes it a cycle with 2k edges and two faces.
    """
    edges = [
        (f"e{(i // 2 + i % 2) % k}", f"v{i // 2}") for i in range(2 * k - 1 + closed)
    ]
    rotations = {}
    for c, (e, v) in enumerate(edges):
        rotations.setdefault(e, []).append(c)
        rotations.setdefault(v, []).append(c)
    return PlaneBipartiteGraph(
        [f"e{i}" for i in range(k)], [f"v{i}" for i in range(k)], edges, rotations
    )


def h_per_pair():
    """Stand-ins for the two h routes that agree on each (r0, kappa) pair
    and give each pair a different h."""
    pairs = []

    def h_from_f(f):
        pairs.append(f)
        return Laurent1.const(len(pairs))

    return {
        "h_from_f": h_from_f,
        "h_from_shelling": lambda counts, dim: Laurent1.const(len(pairs)),
    }


def last_simplex_second(real):
    """Stand-in for ``triangulation_from_arbtree``: the leaves' triangulation
    with its last simplex moved to second place.  On K_{3,2} that order is
    not a shelling at any (r0, kappa) pair."""

    def stand_in(dual, leaves):
        simplices = real(dual, leaves).simplices
        return Triangulation(
            dual.graph, simplices[:1] + simplices[-1:] + simplices[1:-1]
        )

    return stand_in


NOT_A_SHELLING = "meets an earlier simplex outside its shared facets: not a shelling"


class TestCommands:
    def test_faces(self, capsys, k32_path):
        code, out, _ = run(capsys, "faces", "--input", k32_path, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["faces"]) == 3

    def test_dual(self, capsys, k32_path):
        code, out, _ = run(capsys, "dual", "--input", k32_path, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["strongly_connected"] is True
        assert len(payload["edges"]) == 6

    def test_arbtree(self, capsys, k32_path):
        code, out, _ = run(capsys, "arbtree", "--input", k32_path, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        types = [leaf["type"] for leaf in payload["leaves"]]
        assert types.count("I") == 3
        assert payload["clocked"] == [1, 3]

    def test_arbtree_dot(self, capsys, k32_path):
        code, out, _ = run(capsys, "arbtree", "--input", k32_path, "--format", "dot")
        assert code == 0
        assert out.startswith("digraph")

    def test_arbtree_on_a_deep_tree(self, capsys, tmp_path):
        # on a 2,000-edge cycle the leftmost path skips all 1,000 edges out
        # of the root face, so the tree is 1,000 levels deep
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps(path_graph(1000, closed=True).to_document()))
        outputs = {}
        for fmt in ("json", "text", "dot"):
            code, out, err = run(
                capsys, "arbtree", "--input", str(path), "--format", fmt
            )
            assert (code, err) == (0, "")
            outputs[fmt] = out
        leaves = json.loads(outputs["json"])["leaves"]
        assert [leaf["type"] for leaf in leaves] == ["I"] * 1000 + ["II"]
        assert outputs["text"].count("type I:") == 1000
        assert outputs["text"].count("type II:") == 1
        assert outputs["dot"].count("[label=L]") == 1000

    def test_arbtree_on_a_long_clocked_search(self, capsys, tmp_path):
        # theta(1200)'s dual is a directed 1,200-cycle: the clocked search
        # descends through every dual vertex, 1,200 levels deep
        path = tmp_path / "theta.json"
        path.write_text(json.dumps(theta(1200)[0].to_document()))
        code, out, err = run(capsys, "arbtree", "--input", str(path), "--format", "json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        leaves = payload["leaves"]
        assert len(leaves) == 1200
        (only,) = [leaf for leaf in leaves if leaf["type"] == "I"]
        assert payload["clocked"] == only["arborescence"]
        assert len(only["arborescence"]) == 1199

    def test_triangulate(self, capsys, k32_path):
        code, out, _ = run(
            capsys, "triangulate", "--input", k32_path, "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["attach_counts"] == [0, 1, 1]

    def test_hvector(self, capsys, k32_path):
        code, out, _ = run(
            capsys, "hvector", "--input", k32_path, "--format", "json", "--all-roots"
        )
        assert code == 0
        payload = json.loads(out)
        assert {r["h"] for r in payload["results"]} == {"2*x^3 + 1*x^4"}

    @pytest.mark.parametrize(
        "argv, per_pair",
        [
            (
                ("verify",),
                lambda p: [c for c in p["checks"] if "h-count [" in c["invariant"]],
            ),
            (("hvector", "--all-roots"), lambda p: p["results"]),
        ],
        ids=["verify", "hvector"],
    )
    def test_one_restriction_pass_per_pair(
        self, capsys, monkeypatch, k32_path, argv, per_pair
    ):
        # f is read off the attach counts already held, not a second pass
        from homflytop import rootpolytope, verify

        shelled = []

        def counting(tri, run=rootpolytope.verify_shelling):
            shelled.append(tri)
            return run(tri)

        for module in (rootpolytope, verify, cli):
            monkeypatch.setattr(module, "verify_shelling", counting)
        code, out, _ = run(capsys, *argv, "--input", k32_path, "--format", "json")
        assert code == 0
        pairs = per_pair(json.loads(out))
        assert len(pairs) > 1
        assert len(shelled) == len({id(tri) for tri in shelled}) == len(pairs)

    def test_parking(self, capsys, k32_path):
        code, out, _ = run(
            capsys, "parking", "--input", k32_path, "--format", "json", "--all-roots"
        )
        assert code == 0
        payload = json.loads(out)
        assert {r["p"] for r in payload["results"]} == {"1 + 2*u^1"}

    def test_parking_csv(self, capsys, k32_path):
        code, out, _ = run(capsys, "parking", "--input", k32_path, "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r0,exponent,coefficient"
        assert len(lines) == 3

    def test_top(self, capsys, k32_path):
        code, out, _ = run(capsys, "top", "--input", k32_path, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["top"] == "1*v^2 + 2*v^4"
        assert payload["oracle"] == "1*v^2 + 2*v^4"

    def test_top_runs_the_tree_route_alone(
        self, capsys, monkeypatch, tmp_path, k32_path, grid_graph
    ):
        # the triangulation, the f-vector and the parking functions are
        # audits of other commands; top's answer needs none of them
        def unreachable(*args):
            raise AssertionError("top ran an audit route")

        for name in ("triangulation_from_arbtree", "h_from_f", "parking_for_dual"):
            monkeypatch.setattr(cli, name, unreachable)
        monkeypatch.setattr(rootpolytope, "f_vector", unreachable)
        grid = tmp_path / "grid-3x4.json"
        grid.write_text(json.dumps(grid_graph(3, 4).to_document()))
        tops = {
            k32_path: "1*v^2 + 2*v^4",
            str(grid): "1*v^6 + 6*v^8 + 15*v^10 + 20*v^12 + 13*v^14 + 1*v^16",
        }
        for path, top in tops.items():
            code, out, err = run(capsys, "top", "--input", path, "--format", "json")
            assert (code, err) == (0, "")
            assert json.loads(out)["top"] == top

    @pytest.mark.parametrize("k", [4, 30])
    def test_top_on_a_path(self, capsys, tmp_path, k):
        # a tree: one type-I leaf, so no audit of top may cost 2^k
        path = tmp_path / "path.json"
        path.write_text(json.dumps(path_graph(k).to_document()))
        code, out, _ = run(capsys, "top", "--input", str(path), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["top"], payload["z_exponent"]) == ("1", 0)
        assert payload.get("oracle", "1") == "1"
        assert ("oracle" in payload) == (2 * k - 1 <= 14)

    def test_homfly(self, capsys, k32_path):
        code, out, _ = run(capsys, "homfly", "--input", k32_path, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 6 and payload["s"] == 5
        assert payload["conway"] == "3*z^2"

    def test_homogeneous(self, capsys, k32_path):
        code, out, _ = run(
            capsys, "homogeneous", "--input", k32_path, "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["top"] == payload["oracle"] == "1*v^2 + 2*v^4"

    def test_homogeneous_with_negative_signs(self, capsys, tmp_path):
        g, _ = k32_three_strand()
        doc = g.to_document(r0_dart=(0, 1), kappa=0)
        doc["signs"] = [-1] * 6
        path = tmp_path / "k32neg.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(
            capsys, "homogeneous", "--input", str(path), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["top"] == payload["oracle"] == "2*v^-4 + 1*v^-2"
        assert payload["writhe"] == -6

    def test_homogeneous_runs_the_tree_route_alone(
        self, capsys, monkeypatch, tmp_path, grid_graph
    ):
        # each block's top comes from its streamed type-I leaves, as top's
        # does; the parking functions are audits of parking and verify
        def unreachable(*args):
            raise AssertionError("homogeneous listed the parking functions")

        monkeypatch.setattr(cli, "parking_for_dual", unreachable)
        k32 = k32_three_strand()[0].to_document(r0_dart=(0, 1), kappa=0)
        bigon_theta = block_sum_bigon_theta()[0].to_document()
        grid = grid_graph(3, 4).to_document()
        cases = [
            (k32, [1] * 6, [[0, 1, 2, 3, 4, 5]], "1*v^2 + 2*v^4", True),
            (k32, [-1] * 6, [[0, 1, 2, 3, 4, 5]], "2*v^-4 + 1*v^-2", True),
            (bigon_theta, [1, 1, 1, 1, 1], [[0, 1], [2, 3, 4]], "1*v^3", True),
            (bigon_theta, [1, 1, -1, -1, -1], [[0, 1], [2, 3, 4]], "1*v^-1", True),
            (bigon_theta, [-1, -1, 1, 1, 1], [[0, 1], [2, 3, 4]], "-1*v^1", True),
            (bigon_theta, [-1] * 5, [[0, 1], [2, 3, 4]], "-1*v^-3", True),
            (
                grid, [-1] * 17, [list(range(17))],
                "1*v^-16 + 13*v^-14 + 20*v^-12 + 15*v^-10 + 6*v^-8 + 1*v^-6", False,
            ),
        ]
        path = tmp_path / "signed.json"
        for doc, signs, blocks, top, oracle in cases:
            path.write_text(json.dumps({**doc, "signs": signs}))
            code, out, err = run(
                capsys, "homogeneous", "--input", str(path), "--format", "json"
            )
            assert (code, err) == (0, "")
            expected = {
                "blocks": [
                    {"sign": signs[edges[0]], "edges": edges} for edges in blocks
                ],
                "writhe": sum(signs),
                "top": top,
            }
            if oracle:
                expected["oracle"] = top
            assert json.loads(out) == expected

    def test_homogeneous_bad_signs_rejected(self, capsys, tmp_path):
        g, _ = k32_three_strand()
        doc = g.to_document(r0_dart=(0, 1), kappa=0)
        doc["signs"] = [1, -1]
        path = tmp_path / "bad_signs.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "homogeneous", "--input", str(path))
        assert code == 2

    def test_homogeneous_per_block_signs_match_oracle(
        self, capsys, tmp_path, grid_subgraphs
    ):
        # one seeded sign per block: the product formula meets the oracle;
        # one edge of a block with two or more edges flipped mixes the block
        rng = random.Random(0)
        docs = corpus_documents(0, 100, max_edges=10) + [
            g.to_document() for g in grid_subgraphs if g.n_edges <= 14
        ]
        path = tmp_path / "signed.json"

        def homogeneous(doc, signs):
            path.write_text(json.dumps({**doc, "signs": signs}))
            return run(capsys, "homogeneous", "--input", str(path), "--format", "json")

        mixed = flipped = 0
        for doc in docs:
            code, out, _ = homogeneous(doc, [1] * len(doc["edges"]))
            assert code == 0
            blocks = [b["edges"] for b in json.loads(out)["blocks"]]
            signs = [0] * len(doc["edges"])
            for block in blocks:
                sign = rng.choice((1, -1))
                for c in block:
                    signs[c] = sign
            code, out, err = homogeneous(doc, signs)
            payload = json.loads(out)
            assert (code, err) == (0, "")
            assert payload["top"] == payload["oracle"]
            assert payload["writhe"] == sum(signs)
            assert [b["edges"] for b in payload["blocks"]] == blocks
            mixed += len(set(signs)) == 2
            wide = [block for block in blocks if len(block) >= 2]
            if wide:
                c = rng.choice(rng.choice(wide))
                signs[c] = -signs[c]
                code, out, err = homogeneous(doc, signs)
                assert (code, out) == (2, "")
                assert json.loads(err) == {
                    "error": "input",
                    "message": "block mixes positive and negative edges",
                }
                flipped += 1
        assert mixed >= 40 and flipped >= 80

    def test_verify_passes(self, capsys, k32_path):
        code, out, _ = run(capsys, "verify", "--input", k32_path, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["summary"]["top"] == "1*v^2 + 2*v^4"

    def test_verify_single(self, capsys, single_path):
        code, out, _ = run(capsys, "verify", "--input", single_path)
        assert code == 0
        assert out.strip().endswith("PASS")

    @pytest.mark.parametrize(
        "stage, failed_check",
        [
            ("homfly_skein", "homfly-oracle"),
            ("triangulation_from_arbtree", "triangulation ["),
            ("verify_shelling", "shelling ["),
        ],
    )
    def test_verify_reports_invariant_failure(
        self, capsys, monkeypatch, k32_path, shared_path, stage, failed_check
    ):
        from homflytop import verify

        def fail(*args, **kwargs):
            raise InvariantError(f"forced failure in {stage}")

        monkeypatch.setattr(verify, stage, fail)
        for path in (k32_path, shared_path):
            code, out, err = run(capsys, "verify", "--input", path, "--format", "json")
            assert code == 1
            assert err == ""
            payload = json.loads(out)
            assert payload["ok"] is False
            failed = [c for c in payload["checks"] if not c["ok"]]
            assert failed
            for check in failed:
                assert check["invariant"].startswith(failed_check)
                assert check["detail"] == f"forced failure in {stage}"
            if failed_check.endswith("["):
                # every pair records it, pairs sharing a leaf sequence too
                assert [c["invariant"] for c in failed] == [
                    f"{failed_check}{tag}]" for tag in pair_tags(path)
                ]
            # checks that do not need the failed result still run
            names = [c["invariant"] for c in payload["checks"]]
            for kept in (
                "leaves-match-bruteforce", "parking-bijection", "type-two-morton-strict"
            ):
                assert any(name.startswith(kept) for name in names)

    def test_verify_reports_a_rejected_shelling_order(
        self, capsys, monkeypatch, k32_path
    ):
        from homflytop import verify

        monkeypatch.setattr(
            verify, "triangulation_from_arbtree",
            last_simplex_second(verify.triangulation_from_arbtree),
        )
        code, out, err = run(capsys, "verify", "--input", k32_path)
        assert (code, err) == (1, "")
        assert out.strip().endswith("FAIL")
        code, out, err = run(capsys, "verify", "--input", k32_path, "--format", "json")
        assert (code, err) == (1, "")
        payload = json.loads(out)
        names = [c["invariant"] for c in payload["checks"]]
        rejected = [c for c in payload["checks"] if c["invariant"].startswith("shelling [")]
        assert rejected
        for check in rejected:
            assert not check["ok"]
            assert check["detail"].endswith(NOT_A_SHELLING)
            # h is not read off an order that is not a shelling
            tag = check["invariant"].removeprefix("shelling ")
            assert f"h-count {tag}" not in names
            assert f"top-three-ways {tag}" not in names
        assert payload["ok"] is False

    @pytest.mark.parametrize("command", ["triangulate", "hvector"])
    def test_rejected_shelling_order_exits_1(
        self, capsys, monkeypatch, k32_path, command
    ):
        monkeypatch.setattr(
            cli, "triangulation_from_arbtree",
            last_simplex_second(cli.triangulation_from_arbtree),
        )
        code, out, err = run(capsys, command, "--input", k32_path, "--format", "json")
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            json.dumps({"error": "invariant", "message": f"simplex 1 {NOT_A_SHELLING}"})
        ]

    @pytest.mark.parametrize(
        "stage, failed_check, kept, error",
        [
            (
                "build_arb_tree", "arbtree [", ("euler-formula", "p-root-independent"),
                InvariantError,
            ),
            (
                "parking_from_leaf",
                "parking-bijection [",
                ("leaves-match-bruteforce", "top-three-ways", "type-two-morton-strict"),
                InvariantError,
            ),
            (
                "arborescence_from_parking",
                "parking-bijection [",
                ("leaves-match-bruteforce", "top-three-ways", "type-two-morton-strict"),
                InvariantError,
            ),
            (
                # what it raises for an image that is not a parking function
                "arborescence_from_parking",
                "parking-bijection [",
                ("leaves-match-bruteforce", "top-three-ways", "type-two-morton-strict"),
                ValueError,
            ),
        ],
        ids=[
            "build_arb_tree", "parking_from_leaf", "arborescence_from_parking",
            "non-parking-image",
        ],
    )
    def test_verify_reports_tree_and_parking_failure(
        self, capsys, monkeypatch, k32_path, shared_path, stage, failed_check, kept,
        error,
    ):
        from homflytop import verify

        def fail(*args, **kwargs):
            raise error(f"forced failure in {stage}")

        monkeypatch.setattr(verify, stage, fail)
        for path in (k32_path, shared_path):
            code, out, err = run(capsys, "verify", "--input", path, "--format", "json")
            assert code == 1
            assert err == ""
            payload = json.loads(out)
            assert payload["ok"] is False
            failed = [c for c in payload["checks"] if not c["ok"]]
            # every pair records it, pairs sharing a leaf sequence too
            assert [c["invariant"] for c in failed] == [
                f"{failed_check}{tag}]" for tag in pair_tags(path)
            ]
            for check in failed:
                assert check["detail"] == f"forced failure in {stage}"
            names = [c["invariant"] for c in payload["checks"]]
            for name in kept:
                assert any(n.startswith(name) for n in names)
            if stage == "build_arb_tree":
                # no pair has a tree, so nothing that reads one is reported
                assert payload["summary"]["top"] is None
                assert not any(n.startswith("top-") for n in names)

    def test_root_override(self, capsys, k32_path):
        code, out, _ = run(
            capsys, "top", "--input", k32_path, "--kappa", "3", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["top"] == "1*v^2 + 2*v^4"

    def test_r0_override_without_kappa(self, capsys, k32_path):
        code, out, _ = run(
            capsys, "top", "--input", k32_path, "--r0", "2,ve", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["top"] == "1*v^2 + 2*v^4"

    def test_root_free_commands_read_no_root(self, capsys, tmp_path, k32_path):
        # homfly, homogeneous and verify print the same without root flags as
        # with flags naming an inadmissible or malformed root, or a document
        # whose r0 is out of range; every rooted command rejects all three
        g, _ = k32_three_strand()
        far = tmp_path / "far_r0.json"
        far.write_text(json.dumps(g.to_document(r0_dart=(99, 0), kappa=0)))
        variants = [
            ("--input", k32_path, "--kappa", "1", "--r0", "0,ve"),
            ("--input", k32_path, "--r0", "nonsense"),
            ("--input", str(far)),
        ]
        for command in cli.ROOT_FREE:
            plain = run(capsys, command, "--input", k32_path)
            assert plain[0] == 0
            for variant in variants:
                assert run(capsys, command, *variant) == plain
        rooted = set(cli.HANDLERS) - set(cli.ROOT_FREE) - {"gen"}
        assert len(rooted) == 7
        for command in rooted:
            for variant in variants:
                code, out, err = run(capsys, command, *variant)
                assert (code, out, json.loads(err)["error"]) == (2, "", "input")

    def test_consecutive_calls_match_fresh_parsers(self, capsys, monkeypatch, k32_path):
        # main reuses one parser; no option of a call may reach the next
        lines = [
            ("triangulate", "--kappa", "3", "--format", "json"),
            ("triangulate", "--format", "json"),
            ("triangulate", "--r0", "2,ve", "--format", "json"),
            ("triangulate", "--format", "json"),
            ("hvector", "--all-roots", "--format", "json"),
            ("hvector", "--format", "json"),
            ("top", "--cap", "5", "--format", "json"),
            ("top", "--format", "json"),
        ]
        shared = [run(capsys, *line, "--input", k32_path) for line in lines]
        fresh = []
        for line in lines:
            monkeypatch.setattr(cli, "_PARSER", cli.make_parser())
            fresh.append(run(capsys, *line, "--input", k32_path))
        assert shared == fresh
        # each option changes the output, so a leaked one would show
        assert all(a != b for a, b in zip(shared[::2], shared[1::2]))


class TestGen:
    def test_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "gen", "--seed", "3", "--count", "5")
        code2, out2, _ = run(capsys, "gen", "--seed", "3", "--count", "5")
        assert code1 == code2 == 0
        assert out1 == out2
        docs = [json.loads(line) for line in out1.strip().splitlines()]
        assert len(docs) == 5

    def test_seed_changes_output(self, capsys):
        _, out1, _ = run(capsys, "gen", "--seed", "3", "--count", "5")
        _, out2, _ = run(capsys, "gen", "--seed", "4", "--count", "5")
        assert out1 != out2

    def test_generated_graphs_verify(self, capsys, tmp_path):
        _, out, _ = run(
            capsys, "gen", "--seed", "11", "--count", "3", "--max-edges", "6"
        )
        for i, line in enumerate(out.strip().splitlines()):
            path = tmp_path / f"g{i}.json"
            path.write_text(line)
            code, _, _ = run(capsys, "verify", "--input", str(path))
            assert code == 0


class TestErrors:
    def test_missing_input(self, capsys):
        code, _, err = run(capsys, "verify")
        assert code == 2
        assert json.loads(err)["error"] == "input"

    def test_missing_input_file(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        code, out, err = run(capsys, "top", "--input", str(missing))
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["error"] == "input"
        assert str(missing) in error["message"]

    @pytest.mark.parametrize("command", ["top", "homfly", "verify"])
    def test_closed_stdout_is_not_an_input_error(self, capsys, k32_path, command):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        err = io.StringIO()
        with redirect_stdout(ClosedPipe()), redirect_stderr(err):
            code = main([command, "--input", k32_path, "--format", "json"])
        assert (code, err.getvalue()) == (141, "")

    def test_bad_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "verify", "--input", str(path))
        assert code == 2

    def test_bad_kappa(self, capsys, k32_path):
        code, _, err = run(capsys, "top", "--input", k32_path, "--kappa", "99")
        assert code == 2

    def test_bad_r0_flag(self, capsys, k32_path):
        code, _, err = run(capsys, "top", "--input", k32_path, "--r0", "nonsense")
        assert code == 2

    def test_cap_exceeded(self, capsys, k32_path):
        code, _, err = run(capsys, "homfly", "--input", k32_path, "--cap", "3")
        assert code == 2
        assert json.loads(err)["error"] == "input"

    @pytest.mark.parametrize(
        "argv, stand_ins, message",
        [
            (
                ("hvector",),
                lambda: {"h_from_shelling": lambda counts, dim: Laurent1.zero()},
                "h-vector routes disagree",
            ),
            (
                ("hvector", "--all-roots"),
                h_per_pair,
                "h-vector depends on the (r0, kappa) choice",
            ),
            (
                ("parking", "--all-roots"),
                lambda: {"parking_for_dual": lambda d: ([], Laurent1.const(d.r0 + 1))},
                "parking enumerator depends on the root",
            ),
            (
                ("top",),
                lambda: {
                    "type_one_leaves": lambda dual: islice(
                        arborescence.type_one_leaves(dual), 1, None
                    )
                },
                "2 type-I leaves but 3 arborescences",
            ),
            (
                ("homogeneous",),
                lambda: {
                    "type_one_leaves": lambda dual: islice(
                        arborescence.type_one_leaves(dual), 1, None
                    )
                },
                "2 type-I leaves but 3 arborescences",
            ),
            (
                ("top",),
                lambda: {
                    "top_coefficient": lambda P, n, s: types.SimpleNamespace(
                        poly=Laurent1.zero()
                    )
                },
                "oracle top disagrees with the formulas",
            ),
            (
                ("homogeneous",),
                lambda: {
                    "homogeneous_top": lambda blocks, enumerators: Laurent1.zero()
                },
                "product formula disagrees with the oracle",
            ),
        ],
        ids=[
            "h-routes", "h-choice", "parking-root", "top-leaf-count",
            "homogeneous-leaf-count", "top-oracle", "product-formula",
        ],
    )
    def test_invariant_exit(
        self, capsys, monkeypatch, k32_path, argv, stand_ins, message
    ):
        for name, stand_in in stand_ins().items():
            monkeypatch.setattr(cli, name, stand_in)
        code, out, err = run(capsys, *argv, "--input", k32_path, "--format", "json")
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            json.dumps({"error": "invariant", "message": message})
        ]

    def test_differing_oracle_top_fails_top_three_ways(
        self, capsys, monkeypatch, k32_path
    ):
        # verify, not top, compares the tree, h and parking routes with the
        # oracle: an oracle top unlike theirs fails that check and no other
        monkeypatch.setattr(
            verify, "top_coefficient",
            lambda P, n, s: types.SimpleNamespace(poly=Laurent1.zero()),
        )
        code, out, _ = run(capsys, "verify", "--input", k32_path, "--format", "json")
        checks = json.loads(out)["checks"]
        failed = [c["invariant"] for c in checks if not c["ok"]]
        three_ways = [
            c["invariant"] for c in checks if c["invariant"].startswith("top-three-ways [")
        ]
        assert code == 1
        assert failed == three_ways
        assert len(failed) == len(k32_three_strand()[1].admissible_pairs())

    @staticmethod
    def _verify_failures(capsys, k32_path):
        """verify's exit code and, per failed check, the number of failures."""
        code, out, _ = run(capsys, "verify", "--input", k32_path, "--format", "json")
        checks = json.loads(out)["checks"]
        return code, Counter(
            c["invariant"].split(" [")[0] for c in checks if not c["ok"]
        )

    def test_repeated_leaf_fails_leaves_match_bruteforce(
        self, capsys, monkeypatch, k32_path
    ):
        # a repeated type-I leaf leaves the set of arborescences whole: only
        # the leaf count tells it from the brute-force set
        def repeated(dual):
            tree = arborescence.build_arb_tree(dual)
            last = [leaf for leaf in tree.leaves if leaf.leaf_type == "I"][-1]
            return arborescence.ArbTree(dual, tree.leaves + [last])

        monkeypatch.setattr(verify, "build_arb_tree", repeated)
        assert self._verify_failures(capsys, k32_path) == (
            1,
            {
                "leaves-match-bruteforce": 6,
                "triangulation": 6,
                "leaf-enumerator-equals-p": 6,
            },
        )

    def test_missing_parking_function_fails_parking_bijection(
        self, capsys, monkeypatch, k32_path
    ):
        # each leaf's image still round-trips, but the enumeration lacks one
        def one_dropped(dual):
            parkings, p = parking.parking_for_dual(dual)
            return parkings[1:], p

        monkeypatch.setattr(verify, "parking_for_dual", one_dropped)
        assert self._verify_failures(capsys, k32_path) == (
            1, {"parking-bijection": 6}
        )

    def test_image_at_the_wrong_level_fails_parking_bijection(
        self, capsys, monkeypatch, k32_path
    ):
        # the first type-I leaf and the first one at another level swap
        # images: the set of images is the enumeration and each round trip
        # holds, but two images' levels are not their leaves' k
        leaf_of = {}

        def swapped(dual, a, s):
            tree = arborescence.build_arb_tree(dual)
            partner = {x.a: x for x in tree.leaves if x.leaf_type == "I"}
            first, *rest = partner.values()
            other = next(x for x in rest if x.s.bit_count() != first.s.bit_count())
            partner[first.a], partner[other.a] = other, first
            pi = parking.parking_from_leaf(dual, partner[a].a, partner[a].s)
            leaf_of[dual.r0, dual.kappa, tuple(sorted(pi.items()))] = a
            return pi

        monkeypatch.setattr(verify, "parking_from_leaf", swapped)
        monkeypatch.setattr(
            verify, "arborescence_from_parking",
            lambda dual, pi: leaf_of[dual.r0, dual.kappa, tuple(sorted(pi.items()))],
        )
        assert self._verify_failures(capsys, k32_path) == (
            1, {"parking-bijection": 6}
        )

    def test_root_dependent_p_fails_p_root_independent(
        self, capsys, monkeypatch, k32_path
    ):
        # p times u at every root but the least: the pairs at those roots
        # also fail their p-equality and three-way top checks
        def root_dependent(dual):
            parkings, p = parking.parking_for_dual(dual)
            if dual.r0 != min(r for r, _ in dual.admissible_pairs()):
                p = p * Laurent1({1: 1}, "u")
            return parkings, p

        monkeypatch.setattr(verify, "parking_for_dual", root_dependent)
        assert self._verify_failures(capsys, k32_path) == (
            1,
            {
                "p-root-independent": 1,
                "leaf-enumerator-equals-p": 4,
                "top-three-ways": 4,
            },
        )

    @staticmethod
    def _k32_with(tmp_path, **fields):
        g, _ = k32_three_strand()
        doc = g.to_document(r0_dart=(0, 1), kappa=0)
        doc.update(fields)
        path = tmp_path / "k32_edited.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_non_integer_kappa_in_document(self, capsys, tmp_path):
        path = self._k32_with(tmp_path, kappa="x")
        code, _, err = run(capsys, "top", "--input", path)
        assert code == 2
        assert json.loads(err)["error"] == "input"

    def test_zero_sign_rejected(self, capsys, tmp_path):
        path = self._k32_with(tmp_path, signs=[0] * 6)
        code, _, err = run(capsys, "homogeneous", "--input", path)
        assert code == 2
        assert json.loads(err)["error"] == "input"

    def test_input_is_a_directory(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--input", str(tmp_path))
        assert code == 2
        assert json.loads(err)["error"] == "input"

    @pytest.mark.parametrize(
        "override", [["--kappa", "0"], ["--r0", "0,ev"]], ids=["kappa", "r0"]
    )
    def test_array_document_with_override(self, capsys, tmp_path, override):
        path = tmp_path / "array.json"
        path.write_text("[]")
        for flags in ([], override):
            code, _, err = run(capsys, "top", "--input", str(path), *flags)
            assert code == 2
            assert json.loads(err) == {
                "error": "input", "message": "document must be a JSON object"
            }

    def test_input_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe\x00")
        code, _, err = run(capsys, "top", "--input", str(path))
        assert code == 2
        assert json.loads(err)["error"] == "input"

    def assert_input_error(self, capsys, *argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert json.loads(err)["error"] == "input"

    def test_rotation_not_an_object(self, capsys, tmp_path):
        path = self._k32_with(tmp_path, rotation=[])
        self.assert_input_error(capsys, "top", "--input", path)

    @pytest.mark.parametrize(
        "command, field, value",
        [
            ("top", "rotation", {"e0": [1e400, 1]}),
            ("top", "kappa", 1e400),
            ("top", "r0", [1e400, "ve"]),
            ("homogeneous", "signs", [1e400] + [1] * 5),
        ],
        ids=["rotation", "kappa", "r0", "signs"],
    )
    def test_number_past_float_range(self, capsys, tmp_path, command, field, value):
        # 1e400 parses to inf, which int() cannot take
        g, _ = k32_three_strand()
        doc = g.to_document(r0_dart=(0, 1), kappa=0)
        if field == "rotation":
            value = {**doc["rotation"], **value}
        doc[field] = value
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc).replace("Infinity", "1e400"))
        assert "1e400" in path.read_text()
        self.assert_input_error(capsys, command, "--input", str(path))

    @pytest.mark.parametrize(
        "command, field, value, message",
        [
            (
                "top", "rotation", {"e0": [0.2, 1.7]},
                "malformed document: rotation entry must be an integer, not float",
            ),
            (
                "top", "r0", [0.5, "ve"],
                "malformed r0 dart: its edge must be an integer, not float",
            ),
            (
                "homogeneous", "signs", "111111",
                "malformed signs: expected a list of integers",
            ),
            (
                "homogeneous", "signs", [1.5, 1, 1, 1, 1, 1],
                "malformed signs: expected a list of integers",
            ),
            (
                "top", "kappa", 1.9,
                "malformed document: kappa must be an integer, not float",
            ),
        ],
        ids=["rotation", "r0", "signs-string", "signs-float", "kappa"],
    )
    def test_non_integer_field(self, capsys, tmp_path, command, field, value, message):
        if field == "rotation":
            value = {**k32_three_strand()[0].to_document()["rotation"], **value}
        path = self._k32_with(tmp_path, **{field: value})
        code, _, err = run(capsys, command, "--input", path)
        assert code == 2
        assert json.loads(err) == {"error": "input", "message": message}

    def test_integer_past_the_digit_limit(self, capsys, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"kappa": ' + "9" * 5000 + "}")
        self.assert_input_error(capsys, "top", "--input", str(path))

    def test_nesting_too_deep(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        self.assert_input_error(capsys, "top", "--input", str(path))

    def test_gen_without_edges(self, capsys):
        code, _, err = run(capsys, "gen", "--max-edges", "0")
        assert code == 2
        assert json.loads(err)["error"] == "input"

    def test_gen_negative_count(self, capsys):
        code, out, err = run(capsys, "gen", "--count", "-1")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "input"
        code, out, err = run(capsys, "gen", "--count", "0")
        assert (code, out, err) == (0, "", "")


# arbitrary JSON values, with near-valid pieces and numbers past any range
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-1, 6)
    | st.floats()
    | st.sampled_from([10**400, -(10**400), float("inf"), "e0", "v1", "ev", "ve"])
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=6)
    | st.dictionaries(st.sampled_from(["e0", "e1", "v0"]) | st.text(max_size=2), inner),
    max_leaves=12,
)


# every command that reads a graph document
GRAPH_COMMANDS = [name for name in cli.HANDLERS if name != "gen"]

# command-line values: well-formed ones and text argparse may read as a flag
r0_values = st.builds(
    "{},{}".format, st.integers(-2, 8), st.sampled_from(["ev", "ve", "x"])
) | st.text(alphabet="-0123456789,evx ", max_size=6)
int_values = st.integers(-3, 20).map(str) | st.text(
    alphabet="-0123456789x", max_size=3
)


def run_on_k32(argv):
    """main on the K_{3,2} document read from stdin: (code, stdout, stderr)."""
    g, _ = k32_three_strand()
    doc = g.to_document(r0_dart=(0, 1), kappa=0)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(doc))):
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_contract(code, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code:
        assert isinstance(json.loads(err), dict)


class TestContract:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.sampled_from(GRAPH_COMMANDS),
        st.sampled_from(["E", "V", "edges", "rotation", "r0", "kappa", "signs"]),
        json_values,
    )
    def test_any_field_exits_with_a_code_and_no_traceback(self, command, field, value):
        g, _ = k32_three_strand()
        doc = g.to_document(r0_dart=(0, 1), kappa=0)
        doc[field] = value
        out, err = io.StringIO(), io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(json.dumps(doc))):
            with redirect_stdout(out), redirect_stderr(err):
                code = main([command, "--input", "-", "--format", "json"])
        assert_contract(code, err.getvalue())

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.sampled_from(GRAPH_COMMANDS),
        st.none() | r0_values,
        st.none() | int_values,
        st.none() | int_values,
        st.booleans(),
        st.sampled_from(["json", "text", "dot", "csv"]),
    )
    def test_any_flags_exit_with_a_code_and_no_traceback(
        self, command, r0, kappa, cap, all_roots, fmt
    ):
        argv = [command, "--input", "-", "--format", fmt]
        for flag, value in (("--r0", r0), ("--kappa", kappa), ("--cap", cap)):
            if value is not None:
                argv += [flag, value]
        if all_roots:
            argv.append("--all-roots")
        code, _, err = run_on_k32(argv)
        assert_contract(code, err)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["top", "--kappa", "x"], "argument --kappa: invalid int value: 'x'"),
            (["nosuch"], "argument command: invalid choice: 'nosuch'"),
            (["top", "--bogus"], "unrecognized arguments: --bogus"),
            (["faces", "--r0", "-1,ev"], "argument --r0: expected one argument"),
            ([], "the following arguments are required: command"),
        ],
        ids=["kappa", "command", "flag", "r0-like-a-flag", "no-command"],
    )
    def test_usage_error_is_a_json_input_error(self, argv, message):
        code, out, err = run_on_k32([*argv, "--input", "-"])
        assert (code, out) == (2, "")
        payload = json.loads(err)
        assert payload["error"] == "input"
        assert payload["message"].startswith(message)

    @pytest.mark.parametrize("fmt", ["json", "text", "dot", "csv"])
    @pytest.mark.parametrize("command", list(cli.HANDLERS))
    def test_a_format_is_written_or_rejected(self, command, fmt):
        argv = [command, "--format", fmt]
        if command != "gen":
            argv += ["--input", "-"]
        code, out, err = run_on_k32(argv)
        written = fmt in ("json", "text") or (command, fmt) in {
            ("faces", "dot"), ("dual", "dot"), ("arbtree", "dot"), ("parking", "csv")
        }
        if written:
            assert (code, err) == (0, "") and out
        else:
            assert (code, out) == (2, "")
            assert json.loads(err) == {
                "error": "input", "message": f"{command} has no --format {fmt}"
            }

    def test_gen_writes_json_lines_as_text(self):
        runs = [
            run_on_k32(["gen", "--count", "2", "--format", fmt])
            for fmt in ("json", "text")
        ]
        assert runs[0] == runs[1]
        code, out, _ = runs[0]
        assert code == 0 and len([json.loads(line) for line in out.splitlines()]) == 2

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: homflytop")


# JSON values of every kind the writer meets or hands on to json.dumps:
# non-ASCII text, tuples, empty containers, and dicts keyed by ints
json_documents = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, 0.5, float("inf"), float("nan")])
    | st.floats()
    | st.text(),
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=5)
    | st.dictionaries(st.integers(-3, 3), inner, max_size=3),
    max_leaves=20,
)


class TestJsonWriter:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(json_documents)
    def test_equals_json_dumps(self, value):
        assert cli._to_json(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize(
        "value",
        [
            {},
            [],
            (),
            "",
            "é\u2603\U0001f600\n\"",
            {"a": [], "b": {}, "c": [[], {}]},
            {"\u00e9": {"z": 1, "a": [True, False, None]}},
        ],
        ids=[
            "dict", "list", "tuple", "empty-text", "escapes", "nested-empty",
            "non-ascii-key",
        ],
    )
    def test_equals_json_dumps_on_edge_cases(self, value):
        assert cli._to_json(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize(
        "value",
        [
            [{"b": 1, "a": [2, "x"]}, {"a": 3, "b": None}, {"b": {"a": 4, "b": 5}}],
            {"a": {"a": {"a": 1}}, "b": [{"a": 2}, [{"a": {"a": 3}}]]},
            [
                {"1": "s"}, {1: "i"}, {True: "b"}, {1.0: "f"},
                {"1": {1: [], 2: {"1": 0}}},
            ],
        ],
        ids=["key-orders", "key-depths", "non-str-keys"],
    )
    def test_layouts_repeated_in_one_document(self, value):
        # a key set met again, in another order, at another depth, or equal
        # as a tuple to another dict's non-str keys (1 == True == 1.0)
        assert cli._to_json(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_documents_written_in_turn_are_independent(self):
        first = [{"b": 1, "a": 2}, {"a": {"b": 3}}]
        second = {"a": [{"b": 1, "a": 2}], "b": {"a": 0, "b": 1, "c": 2}}
        alone = cli._to_json(second)
        assert cli._to_json(first) == json.dumps(first, indent=2, sort_keys=True)
        assert cli._to_json(second) == alone == json.dumps(
            second, indent=2, sort_keys=True
        )


class TestProcessMemo:
    """``top``, ``homfly``, ``homogeneous`` and ``verify`` run the skein
    oracle on the process memo, ``shared_memo()``."""

    @pytest.mark.parametrize("command", ["homfly", "top", "homogeneous", "verify"])
    def test_planted_value_is_read_and_audited(self, capsys, k32_path, command):
        d = median_diagram(k32_three_strand()[0])
        assert d.unbigon() is d and d.split_parts() == [d]
        # z-degree 3 past Morton's bound n - s + 1 = 2, under the code alone,
        # so only a lookup of a relabelled copy finds it
        shared_memo()[d.canonical_code()] = Laurent2({(0, 3): 1})
        code, out, err = run(capsys, command, "--input", k32_path, "--format", "json")
        message = "z-degree 3 exceeds the bound 2 on an oracle run"
        assert code == 1
        if command == "verify":
            checks = {c["invariant"]: c for c in json.loads(out)["checks"]}
            assert checks["homfly-oracle"] == {
                "invariant": "homfly-oracle", "ok": False, "detail": message
            }
        else:
            assert json.loads(err) == {"error": "invariant", "message": message}

    def test_warm_outputs_equal_cold_ones(
        self, monkeypatch, tmp_path, graph_corpus, grid_subgraphs
    ):
        paths = []
        for i, g in enumerate(graph_corpus + grid_subgraphs):
            path = tmp_path / f"{i}.json"
            path.write_text(json.dumps(g.to_document()))
            paths.append(str(path))
        lines = ["homfly --cap 17", "top --cap 17", "homogeneous", "verify"]
        misses = []
        first_bad_crossing = LinkDiagram.first_bad_crossing

        def counted(self):
            misses.append(self)
            return first_bad_crossing(self)

        monkeypatch.setattr(LinkDiagram, "first_bad_crossing", counted)

        def outputs(cold: bool) -> list:
            found = []
            for line in lines:
                for path in paths:
                    if cold:
                        shared_memo().clear()
                    out, err = io.StringIO(), io.StringIO()
                    with redirect_stdout(out), redirect_stderr(err):
                        code = main([*line.split(), "--format=json", f"--input={path}"])
                    found.append((line, path, code, out.getvalue(), err.getvalue()))
            return found

        cold = outputs(cold=True)
        cold_misses = len(misses)
        # each run starts from every entry the runs before it made
        assert outputs(cold=False) == cold
        assert 0 < len(misses) - cold_misses < cold_misses / 10
        assert {code for _, _, code, _, _ in cold} == {0}


class TestPackageSurface:
    def test_star_import_binds_no_module(self):
        namespace = {}
        exec("from homflytop import *", namespace)
        modules = [n for n, v in namespace.items() if isinstance(v, types.ModuleType)]
        assert modules == []

    def test_exports_are_pinned(self):
        # cross-checks that no command runs live in tests/crosschecks.py
        assert sorted(homflytop.__all__) == sorted("""
            ArbNode ArbTree CrossingCapExceeded DecoratedSubgraph DualDigraph
            GraphInputError InvariantError Laurent1 Laurent2 LinkDiagram
            PlaneBipartiteGraph SignedBlock TopPolynomial
            Triangulation UNLINK_FACTOR VerifyReport arborescence_count
            arborescence_from_parking augmenting_edge biconnected_blocks
            block_subgraph build_arb_tree build_dual check_strong_connectivity
            clocked_arborescence compatible conway_and_alexander coordinate_matrix
            corpus corpus_documents decorated_subgraph_at enumerate_parking
            f_from_attach_counts f_vector h_from_f h_from_shelling homfly_skein
            homogeneous_top hypertrees is_parking_function leaf_enumerator
            median_diagram morton_audit overlay_dot parking_enumerator
            parking_for_dual parking_from_leaf parse_plane_graph
            random_plane_bipartite spanning_arborescences_bruteforce spanning_trees
            top_coefficient top_via_h top_via_p top_via_tree
            triangulation_from_arbtree type_one_leaves verify_graph verify_shelling
        """.split())
        assert not hasattr(homflytop.LinkDiagram, "relabel")
        assert not hasattr(homflytop.LinkDiagram, "component_count")

    def test_benchmark_targets_resolve(self):
        # the benchmark's tracer wraps these by name and reads a missing one as 0
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        missing = []
        for module, public, _ in tracer.TARGETS:
            owner = importlib.import_module(f"{tracer.PACKAGE}.{module}")
            for attr in public.split("."):
                owner = getattr(owner, attr, None)
            if owner is None:
                missing.append(f"{module}.{public}")
        assert missing == []


def run_python(*args, stdin=None):
    """A child interpreter on this checkout's source."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        input=stdin, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )


def run_module(*argv, stdin=None):
    """``python -m homflytop`` in a child process on this checkout's source."""
    return run_python("-m", "homflytop", *argv, stdin=stdin)


class TestModuleEntryPoint:
    def test_faces_matches_in_process(self, capsys, k32_path):
        done = run_module("faces", "--input", k32_path)
        code, out, _ = run(capsys, "faces", "--input", k32_path)
        assert done.returncode == code == 0
        assert done.stdout == out and done.stderr == ""

    def test_reader_closing_the_pipe_exits_141_quietly(self, tmp_path, grid_graph):
        # 750 kB of JSON, far past a pipe's buffer, so a write meets the close
        path = tmp_path / "grid_4x4.json"
        path.write_text(json.dumps(grid_graph(4, 4).to_document(kappa=0)))
        src = os.path.dirname(os.path.dirname(cli.__file__))
        child = subprocess.Popen(
            [sys.executable, "-m", "homflytop", "arbtree", "--format", "json",
             "--input", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert child.stdout.read(10) == b'{\n  "clock'
        child.stdout.close()
        assert child.wait(timeout=120) == 141
        assert child.stderr.read() == b""
        child.stderr.close()

    def test_cold_start_loads_neither_dataclasses_nor_inspect(self, k32_path):
        # in a fresh interpreter, as pytest itself has loaded both; each costs
        # milliseconds of import time on every CLI call
        script = (
            "import sys\n"
            "import homflytop.cli\n"
            f"rc = homflytop.cli.main(['top', '--format', 'json', '--input', {k32_path!r}])\n"
            "print(rc, sorted({'dataclasses', 'inspect'} & set(sys.modules)), file=sys.stderr)\n"
        )
        done = run_python("-c", script)
        assert done.stderr == "0 []\n"
        assert json.loads(done.stdout)["top"] == "1*v^2 + 2*v^4"

    def test_cold_start_loads_no_random(self, k32_path):
        # only gen's corpus uses random, about 2 ms of a no-cache import; -S
        # keeps site out, as a site .pth file may import random itself
        script = (
            "import sys\n"
            "import homflytop.cli\n"
            f"rc = homflytop.cli.main(['top', '--format', 'json', '--input', {k32_path!r}])\n"
            "print(rc, 'random' in sys.modules, file=sys.stderr)\n"
        )
        done = run_python("-S", "-c", script)
        assert done.stderr == "0 False\n"
        assert json.loads(done.stdout)["top"] == "1*v^2 + 2*v^4"

    def test_malformed_document_exits_2_with_one_json_line(self):
        doc = '{"E": "e", "V": "v", "edges": ["ev"], "rotation": {"e": [0], "v": [0]}}'
        done = run_module("top", "--input", "-", stdin=doc)
        assert done.returncode == 2 and done.stdout == ""
        (line,) = done.stderr.splitlines()
        assert json.loads(line) == {
            "error": "input", "message": "malformed document: E must be a list, not str"
        }
