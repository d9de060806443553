"""Command-line front door.

Exit codes: 0 success, 1 invariant failure, 2 input error, a malformed
command line included, 141 when the reader closes stdout.  All commands
read a graph document (JSON) unless noted; ``gen`` writes documents.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _quote

from .planegraph import (
    GraphInputError,
    InvariantError,
    decode_document,
    parse_plane_graph,
    build_dual,
    overlay_dot,
    check_strong_connectivity,
    biconnected_blocks,
    block_subgraph,
)
from .arborescence import (
    _bit_positions,
    arborescence_count,
    arbtree_dot,
    build_arb_tree,
    clocked_arborescence,
    type_one_leaves,
)
from .rootpolytope import (
    coordinate_matrix,
    triangulation_from_arbtree,
    verify_shelling,
    f_from_attach_counts,
    h_from_f,
    h_from_shelling,
)
from .parking import leaf_enumerator, parking_for_dual
from .homfly import (
    DEFAULT_CAP,
    CrossingCapExceeded,
    median_diagram,
    homfly_skein,
    top_coefficient,
    top_via_p,
    homogeneous_top,
    DecoratedSubgraph,
    shared_memo,
)
from .laurent import conway_and_alexander
from .verify import verify_graph
from . import gen as genmod


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as an input error, not an exit."""

    def error(self, message):
        raise GraphInputError(message)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="homflytop",
        description="Invariants of plane bipartite graphs and their special "
        "alternating links",
    )
    parser.add_argument("command", choices=HANDLERS)
    parser.add_argument("--input", help="graph document path ('-' for stdin)")
    parser.add_argument("--r0", help="root face as 'EDGE,ev' or 'EDGE,ve' dart")
    parser.add_argument("--kappa", type=int, help="distinguished edge id")
    parser.add_argument(
        "--cap", type=int, default=DEFAULT_CAP, help="oracle crossing cap"
    )
    parser.add_argument(
        "--format", choices=("json", "text", "dot", "csv"), default="text"
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for gen")
    parser.add_argument("--count", type=int, default=1, help="graphs to generate")
    parser.add_argument(
        "--max-edges", type=int, default=10, help="edge cap for gen"
    )
    parser.add_argument(
        "--all-roots",
        action="store_true",
        help="report per-root results where meaningful",
    )
    return parser


# commands whose output reads no root ignore --r0, --kappa and the r0 and kappa fields
ROOT_FREE = ("homfly", "homogeneous", "verify")


def _load(args):
    if not args.input:
        raise GraphInputError("--input is required for this command")
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input) as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise GraphInputError(f"cannot decode input: {exc}") from exc
    except OSError as exc:  # a missing or unreadable file
        raise GraphInputError(str(exc)) from exc
    doc = decode_document(text)
    if args.command in ROOT_FREE:
        doc.pop("r0", None)
        doc.pop("kappa", None)
    elif args.kappa is not None:
        doc["kappa"] = args.kappa
        doc.pop("r0", None)
    if args.r0 is not None and args.command not in ROOT_FREE:
        try:
            edge, direction = args.r0.split(",")
            doc["r0"] = [int(edge), direction.strip()]
        except ValueError as exc:
            raise GraphInputError(f"--r0 must look like '3,ve': {exc}") from exc
        if args.kappa is None:
            doc.pop("kappa", None)
    return (*parse_plane_graph(doc), doc)


# the JSON text of a scalar, by its exact type
_SCALARS = {
    str: _quote,
    int: int.__repr__,
    bool: lambda x: "true" if x else "false",
    type(None): lambda x: "null",
}


def _to_json(x, indent: str = "", layouts=None) -> str:
    """``json.dumps(x, indent=2, sort_keys=True)``, ``indent`` deep.  Below Python
    3.13 an indent runs json's pure-Python encoder; only rarer values go there.
    Scalars are written inline.  ``layouts`` maps a dict's keys and indent to
    its sorted str keys and their heads, for one document only: a longer-lived
    map would grow without bound on dicts keyed by data."""
    kind = type(x)
    if kind in _SCALARS:
        return _SCALARS[kind](x)
    if layouts is None:
        layouts = {}
    inner = indent + "  "
    if kind is dict:
        key = (tuple(x), indent)
        layout = layouts.get(key)
        if layout is None and set(map(type, x)) <= {str}:
            layout = layouts[key] = [(k, f"{inner}{_quote(k)}: ") for k in sorted(x)]
        if layout is not None:
            items = []
            for k, head in layout:
                v = x[k]
                write = _SCALARS.get(type(v))
                text = write(v) if write else _to_json(v, inner, layouts)
                items.append(head + text)
            return "{\n" + ",\n".join(items) + f"\n{indent}}}" if items else "{}"
    elif kind is list or kind is tuple:
        items = []
        for v in x:
            write = _SCALARS.get(type(v))
            text = write(v) if write else _to_json(v, inner, layouts)
            items.append(inner + text)
        return "[\n" + ",\n".join(items) + f"\n{indent}]" if items else "[]"
    return json.dumps(x, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def _emit(payload, args, as_text):
    if args.format == "json":
        print(_to_json(payload))
    else:
        print(as_text(payload))


def cmd_faces(args) -> int:
    g, dual, _ = _load(args)
    if args.format == "dot":
        print(g.to_dot())
        return 0
    payload = {
        "faces": [
            [[c, "ev" if d == 0 else "ve"] for c, d in walk] for walk in g.faces
        ],
        "r0": dual.r0,
    }
    _emit(
        payload, args,
        lambda p: "\n".join(
            f"face {i}: " + " ".join(f"{c}{'>' if d == 'ev' else '<'}" for c, d in walk)
            for i, walk in enumerate(p["faces"])
        ) + f"\nr0 = face {p['r0']}",
    )
    return 0


def cmd_dual(args) -> int:
    g, dual, _ = _load(args)
    if args.format == "dot":
        print(overlay_dot(g, dual))
        return 0
    payload = {
        "edges": [[dual.tail[c], dual.head[c]] for c in range(dual.n_edges)],
        "r0": dual.r0,
        "kappa": dual.kappa,
        "strongly_connected": check_strong_connectivity(dual),
    }
    _emit(
        payload, args,
        lambda p: "\n".join(
            f"{c}: r{t} -> r{h}" for c, (t, h) in enumerate(p["edges"])
        ) + f"\nr0 = r{p['r0']}, kappa = {p['kappa']}",
    )
    return 0


def cmd_arbtree(args) -> int:
    g, dual, _ = _load(args)
    if args.format == "dot":
        print(arbtree_dot(dual))
        return 0
    payload = build_arb_tree(dual).to_json()
    payload["clocked"] = _bit_positions(clocked_arborescence(dual))
    _emit(
        payload, args,
        lambda p: "\n".join(
            f"type {leaf['type']}: A={leaf['arborescence']} S={leaf['skipped']} "
            f"k={leaf['k']}"
            for leaf in p["leaves"]
        ),
    )
    return 0


def cmd_triangulate(args) -> int:
    g, dual, _ = _load(args)
    tri = triangulation_from_arbtree(dual, type_one_leaves(dual))
    counts = verify_shelling(tri)
    payload = tri.to_json()
    payload["attach_counts"] = counts
    payload["coordinate_matrix"] = coordinate_matrix(g)
    _emit(
        payload, args,
        lambda p: "\n".join(
            f"simplex {i}: {s}" for i, s in enumerate(p["simplices"])
        ) + f"\nattach counts: {p['attach_counts']}",
    )
    return 0


def cmd_hvector(args) -> int:
    _, dual, _ = _load(args)
    pairs = dual.admissible_pairs() if args.all_roots else [(dual.r0, dual.kappa)]
    results = []
    for r0, kappa in pairs:
        rooted = dual.with_root(r0, kappa)
        tri = triangulation_from_arbtree(rooted, type_one_leaves(rooted))
        counts = verify_shelling(tri)
        f = f_from_attach_counts(counts, tri.dimension)
        h = h_from_f(f)
        if h != h_from_shelling(counts, tri.dimension):
            raise InvariantError("h-vector routes disagree")
        results.append(
            {
                "r0": r0,
                "kappa": kappa,
                "f": str(f),
                "h": str(h),
                "f_coeffs": sorted(f.coeffs.items()),
                "h_coeffs": sorted(h.coeffs.items()),
            }
        )
    if args.all_roots and len({r["h"] for r in results}) != 1:
        raise InvariantError("h-vector depends on the (r0, kappa) choice")
    payload = {"results": results}
    _emit(
        payload, args,
        lambda p: "\n".join(
            f"r0={r['r0']} kappa={r['kappa']}: f = {r['f']}; h = {r['h']}"
            for r in p["results"]
        ),
    )
    return 0


def cmd_parking(args) -> int:
    g, dual, _ = _load(args)
    roots = (
        sorted({r for r, _ in dual.admissible_pairs()})
        if args.all_roots
        else [dual.r0]
    )
    results = []
    for r0 in roots:
        parkings, p = parking_for_dual(build_dual(g, r0))
        results.append(
            {
                "r0": r0,
                "functions": [
                    {"values": {str(k): v for k, v in sorted(pi.items())},
                     "index": sum(pi.values())}
                    for pi in parkings
                ],
                "p": str(p),
                "p_coeffs": sorted(p.coeffs.items()),
            }
        )
    if args.all_roots and len({r["p"] for r in results}) != 1:
        raise InvariantError("parking enumerator depends on the root")
    if args.format == "csv":
        print("r0,exponent,coefficient")
        for r in results:
            for e, c in r["p_coeffs"]:
                print(f"{r['r0']},{e},{c}")
        return 0
    payload = {"results": results}
    _emit(
        payload, args,
        lambda p: "\n".join(
            f"r0={r['r0']}: p(u) = {r['p']} ({len(r['functions'])} parking functions)"
            for r in p["results"]
        ),
    )
    return 0


def _tree_enumerator(dual):
    """Type-I leaf enumerator, streamed; its sum must equal the arborescence count."""
    p = leaf_enumerator(type_one_leaves(dual))
    leaves, expected = p.eval_int(1), arborescence_count(dual)
    if leaves != expected:
        raise InvariantError(f"{leaves} type-I leaves but {expected} arborescences")
    return p


def cmd_top(args) -> int:
    """The tree route alone, ``_tree_enumerator``: the h and parking routes
    are audits, run by ``hvector``, ``parking`` and ``verify``."""
    g, dual, _ = _load(args)
    n, s = g.n_edges, g.n_vertices
    top = top_via_p(_tree_enumerator(dual), n, s)
    payload = {"z_exponent": top.z_exponent, "top": str(top.poly)}
    if n <= args.cap:
        P = homfly_skein(median_diagram(g), cap=args.cap, memo=shared_memo())
        oracle = top_coefficient(P, n, s)
        payload["oracle"] = str(oracle.poly)
        if oracle.poly != top.poly:
            raise InvariantError("oracle top disagrees with the formulas")
    _emit(
        payload, args,
        lambda p: f"top (coefficient of z^{p['z_exponent']}) = {p['top']}",
    )
    return 0


def cmd_homfly(args) -> int:
    g, dual, _ = _load(args)
    d = median_diagram(g)
    P = homfly_skein(d, cap=args.cap, memo=shared_memo())
    nabla, alex, half = conway_and_alexander(P)
    payload = {
        "homfly": str(P),
        "pd": d.pd_code(),
        "n": d.n_crossings,
        "s": d.seifert_circle_count(),
        "writhe": d.writhe(),
        "conway": str(nabla),
        "alexander": str(alex),
        "alexander_half_integer": half,
    }
    _emit(
        payload, args,
        lambda p: (
            f"P(v,z) = {p['homfly']}\n"
            f"n = {p['n']}, s = {p['s']}, writhe = {p['writhe']}\n"
            f"conway = {p['conway']}\nalexander = {p['alexander']}"
            + (" (half-integer graded)" if p["alexander_half_integer"] else "")
        ),
    )
    return 0


def cmd_homogeneous(args) -> int:
    g, _, doc = _load(args)
    signs = doc.get("signs", [1] * g.n_edges)
    if not isinstance(signs, list) or any(type(s) is not int for s in signs):
        raise GraphInputError("malformed signs: expected a list of integers")
    if len(signs) != g.n_edges:
        raise GraphInputError("signs list must cover every edge")
    if any(s not in (1, -1) for s in signs):
        raise GraphInputError("every sign must be 1 or -1")
    blocks = biconnected_blocks(range(g.n_vertices), g.ends, signs)
    enumerators = [
        _tree_enumerator(build_dual(block_subgraph(g, b.edge_ids), kappa_edge=0))
        for b in blocks
    ]
    formula = homogeneous_top(blocks, enumerators)
    payload = {
        "blocks": [{"sign": b.sign, "edges": list(b.edge_ids)} for b in blocks],
        "writhe": sum(signs),
        "top": str(formula),
    }
    if g.n_edges <= args.cap:
        dotted = sum(1 << c for c, s in enumerate(signs) if s < 0)
        d = median_diagram(g, DecoratedSubgraph((1 << g.n_edges) - 1, dotted))
        P = homfly_skein(d, cap=args.cap, memo=shared_memo())
        slice_ = top_coefficient(P, d.n_crossings, d.seifert_circle_count())
        payload["oracle"] = str(slice_.poly)
        if slice_.poly != formula:
            raise InvariantError("product formula disagrees with the oracle")
    _emit(payload, args, lambda p: f"top = {p['top']}")
    return 0


def cmd_verify(args) -> int:
    g, dual, _ = _load(args)
    report = verify_graph(g, dual, cap=args.cap)
    _emit(
        report.to_json(), args,
        lambda p: "\n".join(
            f"[{'ok ' if c['ok'] else 'FAIL'}] {c['invariant']}"
            + (f"  ({c['detail']})" if c["detail"] else "")
            for c in p["checks"]
        ) + ("\nPASS" if p["ok"] else "\nFAIL"),
    )
    return 0 if report.ok else 1


def cmd_gen(args) -> int:
    if args.max_edges < 1:
        raise GraphInputError("--max-edges must be at least 1")
    if args.count < 0:
        raise GraphInputError("--count must not be negative")
    docs = genmod.corpus_documents(args.seed, args.count, max_edges=args.max_edges)
    for doc in docs:
        print(json.dumps(doc, sort_keys=True))
    return 0


HANDLERS = {
    "faces": cmd_faces,
    "dual": cmd_dual,
    "arbtree": cmd_arbtree,
    "triangulate": cmd_triangulate,
    "hvector": cmd_hvector,
    "parking": cmd_parking,
    "top": cmd_top,
    "homfly": cmd_homfly,
    "homogeneous": cmd_homogeneous,
    "verify": cmd_verify,
    "gen": cmd_gen,
}

# built once: parsing leaves no state in the parser
_PARSER = make_parser()

# the format a command writes besides json and text (gen writes JSON lines for both)
EXTRA_FORMAT = {"faces": "dot", "dual": "dot", "arbtree": "dot", "parking": "csv"}


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if args.format not in ("json", "text", EXTRA_FORMAT.get(args.command)):
            raise GraphInputError(f"{args.command} has no --format {args.format}")
        return HANDLERS[args.command](args)
    except (GraphInputError, CrossingCapExceeded) as exc:
        print(json.dumps({"error": "input", "message": str(exc)}), file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(json.dumps({"error": "invariant", "message": str(exc)}), file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader is gone: send what is left, and the flush at exit, nowhere
        try:
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        except (AttributeError, ValueError):  # a stdout without a descriptor
            pass
        return 141  # 128 + SIGPIPE


if __name__ == "__main__":
    sys.exit(main())
