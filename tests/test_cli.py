import json
import types

import pytest

from homflytop import cli
from homflytop.cli import main
from homflytop.fixtures import k32_three_strand, single_edge


@pytest.fixture()
def k32_path(tmp_path):
    g, _ = k32_three_strand()
    path = tmp_path / "k32.json"
    path.write_text(json.dumps(g.to_document(r0_dart=(0, 1), kappa=0)))
    return str(path)


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

    def test_homogeneous_bad_signs_rejected(self, capsys, tmp_path):
        g, _ = k32_three_strand()
        doc = g.to_document(r0_dart=(0, 1), kappa=0)
        doc["signs"] = [1, -1]
        path = tmp_path / "bad_signs.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "homogeneous", "--input", str(path))
        assert code == 2

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
        self, capsys, monkeypatch, k32_path, stage, failed_check
    ):
        from homflytop import verify
        from homflytop.planegraph import InvariantError

        def fail(*args, **kwargs):
            raise InvariantError(f"forced failure in {stage}")

        monkeypatch.setattr(verify, stage, fail)
        code, out, err = run(capsys, "verify", "--input", k32_path, "--format", "json")
        assert code == 1
        assert err == ""
        payload = json.loads(out)
        assert payload["ok"] is False
        failed = [c for c in payload["checks"] if not c["ok"]]
        assert failed
        for check in failed:
            assert check["invariant"].startswith(failed_check)
            assert check["detail"] == f"forced failure in {stage}"
        # checks that do not need the failed result still run
        names = [c["invariant"] for c in payload["checks"]]
        for kept in (
            "leaves-match-bruteforce", "parking-bijection", "type-two-morton-strict"
        ):
            assert any(name.startswith(kept) for name in names)

    @pytest.mark.parametrize(
        "stage, failed_check, kept",
        [
            ("build_arb_tree", "arbtree [", ("euler-formula", "p-root-independent")),
            (
                "parking_from_leaf",
                "parking-bijection [",
                ("leaves-match-bruteforce", "top-three-ways", "type-two-morton-strict"),
            ),
            (
                "arborescence_from_parking",
                "parking-bijection [",
                ("leaves-match-bruteforce", "top-three-ways", "type-two-morton-strict"),
            ),
        ],
        ids=["build_arb_tree", "parking_from_leaf", "arborescence_from_parking"],
    )
    def test_verify_reports_tree_and_parking_failure(
        self, capsys, monkeypatch, k32_path, stage, failed_check, kept
    ):
        from homflytop import verify
        from homflytop.planegraph import InvariantError

        def fail(*args, **kwargs):
            raise InvariantError(f"forced failure in {stage}")

        monkeypatch.setattr(verify, stage, fail)
        code, out, err = run(capsys, "verify", "--input", k32_path, "--format", "json")
        assert code == 1
        assert err == ""
        payload = json.loads(out)
        assert payload["ok"] is False
        failed = [c for c in payload["checks"] if not c["ok"]]
        assert failed
        for check in failed:
            assert check["invariant"].startswith(failed_check)
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


class TestPackageSurface:
    def test_star_import_binds_no_module(self):
        namespace = {}
        exec("from homflytop import *", namespace)
        modules = [n for n, v in namespace.items() if isinstance(v, types.ModuleType)]
        assert modules == []
