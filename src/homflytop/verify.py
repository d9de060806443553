"""Whole-pipeline verification of a plane bipartite graph.

For every admissible (root, kappa) pair the tree of arborescences is built
and checked against the brute-force enumeration, the triangulation is
validated and shelled, the two h-vector routes are compared, the parking
bijection is round-tripped on the same tree, and the three top formulas are
compared with each other and (under the crossing cap) with the skein
oracle's z-slice.  The oracle audits the Morton bound on the full diagram;
a type-II leaf's strict bound is certified on the signed graph or audited,
once per decorated subgraph: pairs whose trees share a leaf subgraph reuse
its outcome, a failure message included.  Every oracle run uses the process
skein memo, ``shared_memo()``: each diagram here is a median, drawn in the
plane, so its entries hold for every later graph too.

Every check is recorded for every pair, but each value is made once for
what it depends on: the oracle run and the graph's tables (``table``) per
graph; the brute-force arborescences, the parking functions, p and its top
per root; h, its two routes' agreement, h(1) and its top per sorted tuple
of attach counts; the leaf enumerator, its top and that top's text per
sorted tuple of the type-I leaves' k; and per root and sequence of type-I
leaves' (a, s) in tree order, which pairs of one root often share, the
leaves' match with the brute force, the triangulation with its facet audit
and shelling, and the parking images' comparison with the parking functions
and their sums with k.  Each pair still builds its tree, runs the clocked
search and its type-II strict audits, and maps every type-I leaf to its
parking function and back, as the inverse walk starts at kappa's dart.

An InvariantError from the oracle, the arborescence tree, the clocked
search, the triangulation, the shelling or the parking bijection, a tree
with no type-I leaf, or a leaf whose image is not a parking function, is
recorded as a FAIL check carrying its message; only the checks that need
the failed result are skipped.  A failed tree skips every other check of
its pair, and when no pair has a tree, ``top-choice-independent`` is left
out and ``summary.top`` is null.
"""

from __future__ import annotations

from .laurent import Laurent1
from .planegraph import (
    PlaneBipartiteGraph,
    DualDigraph,
    InvariantError,
    check_strong_connectivity,
)
from .arborescence import (
    build_arb_tree,
    clocked_arborescence,
    spanning_arborescences_bruteforce,
)
from .rootpolytope import (
    triangulation_from_arbtree,
    verify_shelling,
    f_from_attach_counts,
    h_from_f,
    h_from_shelling,
)
from .parking import (
    parking_for_dual,
    parking_from_leaf,
    arborescence_from_parking,
    leaf_enumerator,
)
from .homfly import (
    DEFAULT_CAP,
    median_diagram,
    homfly_skein,
    top_coefficient,
    top_via_h,
    top_via_p,
    decorated_subgraph_at,
    morton_audit,
    shared_memo,
    strict_bound_certified,
)


class VerifyReport:
    __slots__ = ("ok", "checks", "summary")

    def __init__(self, ok: bool, checks: list[dict] | None = None,
                 summary: dict | None = None):
        self.ok = ok
        self.checks = [] if checks is None else checks
        self.summary = {} if summary is None else summary

    def record(self, name: str, ok: bool, detail: str = ""):
        self.checks.append({"invariant": name, "ok": bool(ok), "detail": detail})
        if not ok:
            self.ok = False

    def to_json(self):
        return {"ok": self.ok, "summary": self.summary, "checks": self.checks}


def _triangulation_checks(dual, leaves, skipped, by_counts):
    """Triangulation, shelling and h-vector checks of one type-I leaf
    sequence, as (name, ok, detail) records, and the top read off h
    (``top_via_h``), or None when the triangulation or its shelling failed
    its own audit.
    """
    try:
        tri = triangulation_from_arbtree(dual, leaves)
    except InvariantError as exc:
        return [("triangulation", False, str(exc))], None
    try:
        counts = tuple(sorted(verify_shelling(tri)))
    except InvariantError as exc:
        return [("shelling", False, str(exc))], None
    if counts not in by_counts:
        g, d = tri.graph, tri.dimension
        h = h_from_f(f_from_attach_counts(counts, d))
        t_h = top_via_h(h, g.n_edges, g.n_vertices)
        by_counts[counts] = h, h == h_from_shelling(counts, d), h.eval_int(1), t_h
    _, same, size, t_h = by_counts[counts]
    return [
        ("h-from-f-equals-h-from-shelling", same, ""),
        ("attach-counts-match-skipped", counts == skipped, ""),
        ("h-count", size == len(tri.simplices), ""),
    ], t_h


def _strict_morton_failure(g, sub, cap, memo) -> str | None:
    """Strict Morton audit of one type-II leaf diagram: None, or its failure."""
    try:
        if not strict_bound_certified(g, sub):  # a certified leaf builds no diagram
            morton_audit(median_diagram(g, sub), cap=cap, memo=memo)
    except InvariantError as exc:
        return str(exc)
    return None


def verify_graph(
    g: PlaneBipartiteGraph, dual: DualDigraph, cap: int = DEFAULT_CAP
) -> VerifyReport:
    report = VerifyReport(ok=True)
    n, s = g.n_edges, g.n_vertices
    report.record(
        "euler-formula", g.n_vertices - g.n_edges + g.n_faces == 2,
        f"V={g.n_vertices} E={g.n_edges} F={g.n_faces}",
    )
    report.record("dual-strongly-connected", check_strong_connectivity(dual))

    # the process memo for the full diagram and every type-II leaf diagram
    memo = shared_memo()
    # a type-II leaf's a << n | s -> None, or its strict audit's failure
    audited: dict[int, str | None] = {}
    oracle_top = None
    oracle_note = "skipped (over crossing cap)"
    if n <= cap:
        diagram = median_diagram(g)
        ns = diagram.seifert_circle_count()
        report.record(
            "median-counts", diagram.n_crossings == n and ns == s,
            f"n={diagram.n_crossings} s={ns}",
        )
        try:
            # homfly_skein itself audits the Morton bound n - s + 1 on its value
            P = homfly_skein(diagram, cap=cap, memo=memo)
        except InvariantError as exc:
            report.record("homfly-oracle", False, str(exc))
            oracle_note = "failed (invariant)"
        else:
            oracle_top = top_coefficient(P, n, s).poly
            oracle_note = str(oracle_top)
            report.summary["homfly"] = str(P)

    # per root: (arborescences, parking functions, p, top_via_p(p)); per sorted
    # attach-count tuple: (h, h from f equals h from shelling, h(1), top_via_h(h));
    # per sorted k tuple: (leaf enumerator, its top_via_p, that top's text);
    # per (r0, type-I leaves' a << n | s in tree order, as fixed-width bytes):
    # [leaf-match verdict, leaf count, first leaf, its by_skipped entry,
    # triangulation records, top_via_h, parking images' verdict or None]
    by_root, by_counts, by_skipped, by_sequence = {}, {}, {}, {}
    width = (2 * n + 7) // 8
    for r0, kappa in dual.admissible_pairs():
        rooted = dual.with_root(r0, kappa)
        if r0 not in by_root:
            parkings, p = parking_for_dual(rooted)
            expected = {tuple(sorted(pi.items())) for pi in parkings}
            brute = spanning_arborescences_bruteforce(rooted)
            by_root[r0] = brute, expected, p, top_via_p(p, n, s)
        brute, expected, p, t_p = by_root[r0]
        tag = f"r0={r0} kappa={kappa}"
        try:
            tree = build_arb_tree(rooted)
        except InvariantError as exc:
            # every other check of the pair reads the tree
            report.record(f"arbtree [{tag}]", False, str(exc))
            continue
        type_one = [x for x in tree.leaves if x.leaf_type == "I"]
        sequence = b"".join(
            [(x.a << n | x.s).to_bytes(width, "little") for x in type_one]
        )
        shared = by_sequence.get((r0, sequence))
        if shared is None:
            leaves = tree.type_one_leaves()
            skipped = tuple(sorted(k for _, k in leaves))
            if skipped not in by_skipped:
                enumerator = leaf_enumerator(leaves)
                t_tree = top_via_p(enumerator, n, s)
                by_skipped[skipped] = enumerator, t_tree, str(t_tree.poly)
            shared = by_sequence[r0, sequence] = [
                {a for a, _ in leaves} == brute and len(leaves) == len(brute),
                len(leaves),
                leaves[0] if leaves else None,
                by_skipped[skipped],
                *_triangulation_checks(tree.dual, leaves, skipped, by_counts),
                None,
            ]
        matched, found, first, by_k, checks, t_h, _ = shared
        enumerator, t_tree, tree_text = by_k

        report.record(
            f"leaves-match-bruteforce [{tag}]", matched, f"{found} type-I leaves"
        )
        clocked = f"clocked-is-first-leaf [{tag}]"
        try:
            if first is None:
                raise InvariantError("the tree has no type-I leaf")
            report.record(clocked, first == (clocked_arborescence(rooted), 0))
        except InvariantError as exc:
            report.record(clocked, False, str(exc))
        for name, ok, detail in checks:
            report.record(f"{name} [{tag}]", ok, detail)

        report.record(f"leaf-enumerator-equals-p [{tag}]", enumerator == p)
        # the inverse walk starts at kappa's dart, so it runs for every pair;
        # the images and their sums are compared once per sequence
        round_trips, sums_match = True, True
        images = set() if shared[-1] is None else None
        try:
            for leaf in type_one:
                pi = parking_from_leaf(rooted, leaf.a, leaf.s)
                if images is not None:
                    images.add(tuple(sorted(pi.items())))
                    sums_match &= sum(pi.values()) == leaf.s.bit_count()
                if arborescence_from_parking(rooted, pi) != leaf.a:
                    round_trips = False
        except (InvariantError, ValueError) as exc:  # ValueError: a non-parking image
            report.record(f"parking-bijection [{tag}]", False, str(exc))
        else:
            if images is not None:
                shared[-1] = sums_match and images == expected
            report.record(f"parking-bijection [{tag}]", round_trips and shared[-1])

        if t_h is not None:
            agree = t_tree == t_h == t_p
            if oracle_top is not None:
                agree = agree and t_tree.poly == oracle_top
            report.record(
                f"top-three-ways [{tag}]", agree,
                f"tree={tree_text} oracle={oracle_note}",
            )

        if n <= cap:
            failure = None
            for leaf in tree.type_two_leaves():
                key = leaf.a << n | leaf.s
                if key not in audited:
                    sub = decorated_subgraph_at(g, leaf)
                    audited[key] = _strict_morton_failure(g, sub, cap, memo)
                failure = audited[key]
                if failure is not None:
                    break
            report.record(
                f"type-two-morton-strict [{tag}]", failure is None, failure or ""
            )

    h_values = {h for h, *_ in by_counts.values()}
    tops = {t.poly for _, t, _ in by_skipped.values()}
    report.record(
        "p-root-independent", len({p for _, _, p, _ in by_root.values()}) == 1
    )
    if h_values:
        report.record("h-choice-independent", len(h_values) == 1)
    if tops:
        report.record("top-choice-independent", len(tops) == 1)
    report.summary.update(
        {
            "edges": n,
            "vertices": s,
            "faces": g.n_faces,
            "arborescences": {str(r): len(v[0]) for r, v in sorted(by_root.items())},
            "h": str(next(iter(h_values))) if h_values else None,
            "p_by_root": {str(r): str(v[2]) for r, v in sorted(by_root.items())},
            "top": str(next(iter(tops))) if tops else None,
        }
    )
    return report
