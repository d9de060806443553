"""verify_graph's strict Morton audits, run once per type-II leaf subgraph,
against a loop that audits every type-II leaf of every pair afresh; and its
values kept once per graph, root, count list or type-I leaf sequence."""

from collections import Counter

from homflytop import arborescence, homfly, parking, rootpolytope, verify
from homflytop.arborescence import ArbTree, build_arb_tree
from homflytop.fixtures import k32_three_strand
from homflytop.homfly import (
    decorated_subgraph_at,
    median_diagram,
    strict_bound_certified,
)
from homflytop.planegraph import DualDigraph, InvariantError, build_dual
from homflytop.rootpolytope import triangulation_from_arbtree
from homflytop.verify import verify_graph

STRICT = "type-two-morton-strict"
CLOCKED = "clocked-is-first-leaf"


def reference_strict_checks(g, dual, cap=14) -> list[dict]:
    """The strict Morton checks of verify_graph, without its outcome cache
    and with a fresh skein memo per leaf diagram."""
    checks = []
    if g.n_edges > cap:
        return checks
    for r0, kappa in dual.admissible_pairs():
        tree = build_arb_tree(dual.with_root(r0, kappa))
        name = f"{STRICT} [r0={r0} kappa={kappa}]"
        try:
            for leaf in tree.type_two_leaves():
                sub = decorated_subgraph_at(g, leaf)
                verify.morton_audit(median_diagram(g, sub), cap=cap)
        except InvariantError as exc:
            checks.append({"invariant": name, "ok": False, "detail": str(exc)})
        else:
            checks.append({"invariant": name, "ok": True, "detail": ""})
    return checks


def strict_checks(report) -> list[dict]:
    return [c for c in report.checks if c["invariant"].startswith(STRICT)]


def leaf_diagrams_by_pair(g, dual) -> list[list]:
    return [
        [
            median_diagram(g, decorated_subgraph_at(g, leaf))
            for leaf in build_arb_tree(dual.with_root(r0, kappa)).type_two_leaves()
        ]
        for r0, kappa in dual.admissible_pairs()
    ]


class TestStrictAuditOncePerSubgraph:
    def test_matches_reference_loop(self, graph_corpus, grid_subgraphs):
        # grid subgraphs over the default cap of 14 get no strict checks
        graphs = list(graph_corpus) + [g for g in grid_subgraphs if g.n_edges <= 14]
        audited = 0
        for g in graphs:
            dual = build_dual(g, kappa_edge=0)
            report = verify_graph(g, dual)
            assert report.ok
            checks = strict_checks(report)
            assert checks == reference_strict_checks(g, dual)
            audited += len(checks)
        assert audited > 1000

    def test_each_subgraph_is_audited_once(self, monkeypatch, grid_graph):
        calls = []
        real = verify.morton_audit

        def counting(d, **kwargs):
            calls.append(d)
            return real(d, **kwargs)

        monkeypatch.setattr(verify, "morton_audit", counting)
        # with no leaf certified, every distinct leaf diagram is audited once
        monkeypatch.setattr(verify, "strict_bound_certified", lambda g, sub: False)
        for g in (k32_three_strand()[0], grid_graph(3, 3, (3, 8))):
            dual = build_dual(g, kappa_edge=0)
            calls.clear()
            assert verify_graph(g, dual).ok
            by_pair = leaf_diagrams_by_pair(g, dual)
            distinct = {d for diagrams in by_pair for d in diagrams}
            assert sum(map(len, by_pair)) > len(distinct)
            assert len(calls) == len(distinct)

        # with the certificate, once each distinct leaf diagram it leaves open
        monkeypatch.setattr(verify, "strict_bound_certified", strict_bound_certified)
        undecided_total = 0
        for g in (k32_three_strand()[0], grid_graph(3, 3, (3, 8)), grid_graph(2, 4)):
            dual = build_dual(g, kappa_edge=0)
            calls.clear()
            assert verify_graph(g, dual).ok
            subs = {
                decorated_subgraph_at(g, leaf)
                for r0, kappa in dual.admissible_pairs()
                for leaf in build_arb_tree(dual.with_root(r0, kappa)).type_two_leaves()
            }
            undecided = {
                median_diagram(g, sub)
                for sub in subs
                if not strict_bound_certified(g, sub)
            }
            assert len(calls) == len(undecided) == len(set(calls))
            assert set(calls) == undecided
            undecided_total += len(undecided)
        assert undecided_total > 0

    def test_planted_failure_fails_every_pair_holding_it(
        self, monkeypatch, grid_graph
    ):
        real = verify.morton_audit
        # certified leaves skip the audit, so none is certified here
        monkeypatch.setattr(verify, "strict_bound_certified", lambda g, sub: False)
        for g in (k32_three_strand()[0], grid_graph(3, 3, (3, 8))):
            dual = build_dual(g, kappa_edge=0)
            by_pair = leaf_diagrams_by_pair(g, dual)
            # the leaf diagram held by the most pairs
            planted = max(
                {d for diagrams in by_pair for d in diagrams},
                key=lambda d: sum(d in diagrams for diagrams in by_pair),
            )
            holding = [planted in diagrams for diagrams in by_pair]
            assert sum(holding) > 1

            def audit(d, **kwargs):
                if d == planted:
                    raise InvariantError("planted strict-bound failure")
                return real(d, **kwargs)

            monkeypatch.setattr(verify, "morton_audit", audit)
            report = verify_graph(g, dual)
            checks = strict_checks(report)
            assert checks == reference_strict_checks(g, dual)
            assert [not c["ok"] for c in checks] == holding
            for check, held in zip(checks, holding):
                if held:
                    assert check["detail"] == "planted strict-bound failure"
            assert not report.ok


class TestBurningTestOncePerGraph:
    def test_inverse_builds_one_burning_test_per_graph(self, monkeypatch, grid_graph):
        built, inverses = [], []
        make, inverse = parking._burning_test, verify.arborescence_from_parking

        def counting_make(*args):
            built.append(args)
            return make(*args)

        def counting_inverse(dual, values):
            inverses.append(values)
            return inverse(dual, values)

        monkeypatch.setattr(parking, "_burning_test", counting_make)
        monkeypatch.setattr(verify, "arborescence_from_parking", counting_inverse)
        for g in (k32_three_strand()[0], grid_graph(3, 3, (3, 8))):
            dual = build_dual(g, kappa_edge=0)
            pairs = dual.admissible_pairs()
            built.clear()
            inverses.clear()
            assert verify_graph(g, dual).ok
            assert len(inverses) > len(pairs)
            # one for enumerate_parking per root, one for the inverse per graph
            assert len(built) == len({r0 for r0, _ in pairs}) + 1


class TestClockedCheckFailures:
    """A tree with no type-I leaf and a failed clocked search are FAIL
    checks of clocked-is-first-leaf carrying their messages."""

    @staticmethod
    def split_checks(report):
        clocked = [c for c in report.checks if c["invariant"].startswith(CLOCKED)]
        rest = [c for c in report.checks if not c["invariant"].startswith(CLOCKED)]
        return clocked, rest

    def test_tree_with_no_type_one_leaf(self, monkeypatch):
        g, dual = k32_three_strand()
        monkeypatch.setattr(ArbTree, "type_one_leaves", lambda self: [])
        report = verify_graph(g, dual)
        clocked, _ = self.split_checks(report)
        assert [c["invariant"] for c in clocked] == [
            f"{CLOCKED} [r0={r0} kappa={kappa}]"
            for r0, kappa in dual.admissible_pairs()
        ]
        for check in clocked:
            assert not check["ok"]
            assert check["detail"] == "the tree has no type-I leaf"
        assert not report.ok

    def test_failed_clocked_search(self, monkeypatch):
        g, dual = k32_three_strand()
        expected_clocked, expected_rest = self.split_checks(verify_graph(g, dual))

        def fail(rooted):
            raise InvariantError("planted clocked-search failure")

        monkeypatch.setattr(verify, "clocked_arborescence", fail)
        report = verify_graph(g, dual)
        clocked, rest = self.split_checks(report)
        # every other check is as without the failure
        assert rest == expected_rest
        assert [c["invariant"] for c in clocked] == [
            c["invariant"] for c in expected_clocked
        ]
        for check in clocked:
            assert not check["ok"]
            assert check["detail"] == "planted clocked-search failure"
        assert not report.ok


class TestTablesOncePerGraph:
    """Tables that depend on the graph alone are built once per graph and
    read by every (r0, kappa) pair of ``verify_graph``."""

    TABLES = (
        (rootpolytope, "_pair_ids"),
        (rootpolytope, "_hypertree_count"),
        (rootpolytope, "_facet_lists"),
        (homfly, "_certificate_ends"),
        (arborescence, "_dual_arcs"),
        (parking, "_dual_burning_test"),
    )

    def test_every_pair_reuses_the_tables(self, monkeypatch, grid_graph):
        builds = Counter()
        for module, name in self.TABLES:

            def counting(g, real=getattr(module, name), name=name):
                builds[name] += 1
                return real(g)

            monkeypatch.setattr(module, name, counting)
        for g in (grid_graph(3, 3, (3, 8)), grid_graph(2, 4)):
            dual = build_dual(g, kappa_edge=0)
            builds.clear()
            assert verify_graph(g, dual).ok
            assert len(dual.admissible_pairs()) > 5
            assert builds == {name: 1 for _, name in self.TABLES}
            # a second run on the same graph builds none
            builds.clear()
            assert verify_graph(g, dual).ok
            assert not builds


class TestValuesOncePerCountList:
    """h and its top are made once per sorted attach-count tuple, the leaf
    enumerator's top once per (r0, type-I leaf sequence) and p's once per
    root; a pair whose counts differ gets its own h."""

    @staticmethod
    def count_lists(dual):
        """Per admissible pair: the sorted attach counts and the sorted k."""
        out = []
        for r0, kappa in dual.admissible_pairs():
            leaves = build_arb_tree(dual.with_root(r0, kappa)).type_one_leaves()
            tri = triangulation_from_arbtree(dual.with_root(r0, kappa), leaves)
            counts = verify.verify_shelling(tri)
            out.append((tuple(sorted(counts)), tuple(sorted(k for _, k in leaves))))
        return out

    @staticmethod
    def counting(monkeypatch, name, calls):
        real = getattr(verify, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(verify, name, counted)

    def test_each_value_is_made_once(self, monkeypatch, grid_graph):
        g = grid_graph(3, 3)
        dual = build_dual(g, kappa_edge=0)
        lists = self.count_lists(dual)
        counts, skipped = {c for c, _ in lists}, {k for _, k in lists}
        roots = {r0 for r0, _ in dual.admissible_pairs()}
        assert len(lists) > len(counts) and len(lists) > len(roots) + len(skipped)
        sequences = set(TestValuesOncePerSequence.sequences(dual))
        calls = Counter()
        for name in ("h_from_f", "top_via_p"):
            self.counting(monkeypatch, name, calls)
        report = verify_graph(g, dual)
        assert report.ok
        assert calls == {
            "h_from_f": len(counts), "top_via_p": len(roots) + len(sequences)
        }

    def test_a_differing_count_list_gets_its_own_h(self, monkeypatch, grid_graph):
        g = grid_graph(3, 3)
        dual = build_dual(g, kappa_edge=0)
        distinct = len({c for c, _ in self.count_lists(dual)})
        pairs = dual.admissible_pairs()
        planted = len(pairs) // 2
        shellings = []
        real = verify.verify_shelling

        def shelling(tri):
            counts = real(tri)
            shellings.append(counts)
            if len(shellings) - 1 == planted:
                counts = [1] + counts[1:]  # the first simplex's count is 0
            return counts

        calls = Counter()
        self.counting(monkeypatch, "h_from_f", calls)
        monkeypatch.setattr(verify, "verify_shelling", shelling)
        report = verify_graph(g, dual)
        assert calls["h_from_f"] == distinct + 1
        failed = [c["invariant"] for c in report.checks if not c["ok"]]
        tag = "r0={} kappa={}".format(*pairs[planted])
        assert failed == [
            f"attach-counts-match-skipped [{tag}]",
            f"top-three-ways [{tag}]",
            "h-choice-independent",
        ]
        assert not report.ok


class TestValuesOncePerSequence:
    """The leaf match, the triangulation with its shelling and the parking
    images' verdict are made once per (r0, type-I leaf sequence); the tree,
    the clocked search and the parking inverse run for every pair."""

    @staticmethod
    def sequences(dual):
        """Per admissible pair: r0 and its type-I leaves' (a, s), in order."""
        return [
            (r0, tuple((x.a, x.s) for x in tree.leaves if x.leaf_type == "I"))
            for r0, kappa in dual.admissible_pairs()
            for tree in [build_arb_tree(dual.with_root(r0, kappa))]
        ]

    def test_shared_values_are_made_once(self, monkeypatch, grid_graph):
        g = grid_graph(2, 4, (0,))
        dual = build_dual(g, kappa_edge=0)
        sequences = self.sequences(dual)
        pairs = dual.admissible_pairs()
        assert len(set(sequences)) < len(pairs)
        calls = Counter()

        def counting(owner, name):
            real = getattr(owner, name)

            def counted(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(owner, name, counted)

        for name in (
            "triangulation_from_arbtree", "build_arb_tree", "clocked_arborescence",
            "arborescence_from_parking",
        ):
            counting(verify, name)
        counting(DualDigraph, "with_root")
        assert verify_graph(g, dual).ok
        assert calls == {
            "triangulation_from_arbtree": len(set(sequences)),
            "build_arb_tree": len(pairs),
            "with_root": len(pairs),
            "clocked_arborescence": len(pairs),
            "arborescence_from_parking": sum(len(leaves) for _, leaves in sequences),
        }

    def test_each_pair_reports_as_if_alone(self, monkeypatch, grid_graph):
        # a run over one pair shares nothing with another pair
        for g in (grid_graph(2, 4, (0,)), grid_graph(2, 3, (0,))):
            dual = build_dual(g, kappa_edge=0)
            pairs = dual.admissible_pairs()
            assert len(set(self.sequences(dual))) < len(pairs)
            shared = verify_graph(g, dual).checks
            alone = []
            for pair in pairs:
                monkeypatch.setattr(DualDigraph, "admissible_pairs", lambda self: [pair])
                tag = "[r0={} kappa={}]".format(*pair)
                alone += [c for c in verify_graph(g, dual).checks if tag in c["invariant"]]
            assert [c for c in shared if "[r0=" in c["invariant"]] == alone
            monkeypatch.undo()

    def test_a_failed_inverse_leaves_the_images_to_the_next_pair(
        self, monkeypatch, grid_graph
    ):
        g = grid_graph(2, 4, (0,))
        dual = build_dual(g, kappa_edge=0)
        sequences = self.sequences(dual)
        pairs = dual.admissible_pairs()
        # the first pair whose sequence a later pair repeats
        planted = next(
            i for i, seq in enumerate(sequences) if seq in sequences[i + 1:]
        )
        real = verify.arborescence_from_parking

        def inverse(rooted, values):
            if (rooted.r0, rooted.kappa) == pairs[planted]:
                raise InvariantError("planted inverse failure")
            return real(rooted, values)

        monkeypatch.setattr(verify, "arborescence_from_parking", inverse)
        report = verify_graph(g, dual)
        bijection = [
            c for c in report.checks if c["invariant"].startswith("parking-bijection")
        ]
        assert [c["ok"] for c in bijection] == [i != planted for i in range(len(pairs))]
        assert bijection[planted]["detail"] == "planted inverse failure"
        assert [c for c in report.checks if not c["ok"]] == [bijection[planted]]
