"""Outside-in tracing of the homflytop layers.

The tracer wraps named public functions and methods of the package from
outside.  A wrapped function is rebound in every loaded ``homflytop.*``
module that holds it, because ``cli`` and ``verify`` import names directly;
a method is replaced on its class.  A "span" target records one span per
call: name, start, end, parent span and request id.  A "count" target only
counts calls, for hot paths where a span would distort the time.  Spans stay
in memory; the caller writes them out when the run ends.

A target whose module or name no longer exists is listed in ``absent``
instead of raising, so the benchmark keeps running on later commits.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

PACKAGE = "homflytop"

# (module, public name, kind); the layer of a target is its module.
TARGETS = (
    ("cli", "main", "span"),
    ("planegraph", "parse_plane_graph", "span"),
    ("planegraph", "DualDigraph.with_root", "count"),
    ("arborescence", "build_arb_tree", "span"),
    ("arborescence", "spanning_arborescences_bruteforce", "span"),
    ("arborescence", "augmenting_edge", "count"),
    ("rootpolytope", "triangulation_from_arbtree", "span"),
    ("rootpolytope", "compatible", "span"),
    ("rootpolytope", "hypertrees", "span"),
    ("rootpolytope", "verify_shelling", "span"),
    ("rootpolytope", "f_vector", "span"),
    ("parking", "enumerate_parking", "span"),
    ("parking", "is_parking_function", "span"),
    ("parking", "arborescence_from_parking", "span"),
    ("homfly", "homfly_skein", "span"),
    ("homfly", "morton_audit", "span"),
    ("homfly", "median_diagram", "span"),
    ("homfly", "LinkDiagram.canonical_code", "span"),
    ("homfly", "LinkDiagram.split_parts", "span"),
    ("homfly", "LinkDiagram.smooth", "span"),
    ("homfly", "LinkDiagram.first_bad_crossing", "count"),
    ("laurent", "Laurent1.__mul__", "count"),
    ("laurent", "Laurent2.__mul__", "count"),
    ("verify", "verify_graph", "span"),
)

# Only canonical-code calls made by the skein recursion are memo lookups.
MEMO_LOOKUP_CALLER = "_homfly_connected"


def _tree_sizes(tree):
    leaves = tree.leaves
    return {
        "arborescence.leaves": len(leaves),
        "arborescence.type_one_leaves": sum(1 for x in leaves if x.leaf_type == "I"),
    }


# Counts read off a traced call's result, at the same boundary as its span.
RESULT_COUNTS = {
    "arborescence.build_arb_tree": _tree_sizes,
    "rootpolytope.triangulation_from_arbtree": lambda tri: {
        "rootpolytope.simplices": len(tri.simplices)
    },
    "parking.enumerate_parking": lambda found: {"parking.found": len(found)},
}


class Tracer:
    """Spans and counts for one run; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.request = -1
        self._open = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def span(self, name: str, fn, on_result=None):
        idx = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        spans = self.spans

        def wrapper(*args, **kwargs):
            parent = self._open
            slot = len(spans)
            spans.append(None)
            self._open = slot
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[slot] = (idx, start, clock(), parent, self.request)
                self._open = parent
            if on_result is not None:
                self._count_result(name, on_result, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_result(self, name, on_result, result):
        try:
            self.counts.update(on_result(result))
        except (AttributeError, TypeError):
            if f"{name} (result counts)" not in self.absent:
                self.absent.append(f"{name} (result counts)")

    def memo_lookup_counter(self, fn):
        """Span wrapper for canonical_code that also counts skein memo lookups."""
        inner = self.span("homfly.LinkDiagram.canonical_code", fn)
        counts = self.counts

        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_code.co_name == MEMO_LOOKUP_CALLER:
                counts["homfly.skein_memo_lookups"] += 1
            return inner(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching -------------------------------------------------------------

    def install(self, targets=TARGETS):
        """Wrap every target that exists; record the others as absent."""
        for module_name, public, kind in targets:
            name = f"{module_name}.{public}"
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            owner, attr = module, public
            if module is not None and "." in public:
                cls_name, attr = public.split(".", 1)
                owner = getattr(module, cls_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            if name == "homfly.LinkDiagram.canonical_code":
                wrapped = self.memo_lookup_counter(original)
            elif kind == "span":
                wrapped = self.span(name, original, RESULT_COUNTS.get(name))
            else:
                wrapped = self.counter(name, original)
            if owner is module:
                self._rebind_everywhere(original, wrapped)
            else:
                self._set(owner, attr, wrapped)

    def _rebind_everywhere(self, original, wrapped):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != PACKAGE:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- output -------------------------------------------------------------

    def dump(self) -> dict:
        """Everything recorded, in a JSON-ready form."""
        return {
            "names": self.names,
            "spans": [list(s) for s in self.spans],
            "counts": dict(self.counts),
            "absent": self.absent,
        }


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that child spans cover.

    ``spans`` holds (name, start, end, parent, request) rows; ``parent`` is
    the index of the enclosing span or -1.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


# Layers whose self time is reported as a whole, besides per target: the
# modules with more than one span target.
LAYER_TOTALS = ("arborescence", "rootpolytope", "parking", "homfly")


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def layer_metrics(dump) -> dict[str, float]:
    """Per-layer metrics of one traced run, by name.

    A target that is absent reads 0; ``dump["absent"]`` names it.  A ratio
    with an empty base reads 0; its base is reported beside it.
    """
    names, spans, counts = dump["names"], dump["spans"], dump["counts"]
    calls: Counter = Counter()
    self_s: Counter = Counter()
    candidates = 0
    for row, own in zip(spans, self_times(spans)):
        name = names[row[0]]
        calls[name] += 1
        self_s[name] += own
        parent = row[3]
        if name == "parking.is_parking_function" and parent >= 0:
            if names[spans[parent][0]] == "parking.enumerate_parking":
                candidates += 1
    out: dict[str, float] = {}
    for module, public, kind in TARGETS:
        name = f"{module}.{public}"
        if kind == "span":
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        else:
            out[f"{name}.calls"] = counts.get(name, 0)
    for layer in LAYER_TOTALS:
        out[f"{layer}.self_s"] = sum(
            t for name, t in self_s.items() if name.startswith(layer + ".")
        )
    out["cli.main.total_s"] = sum(
        row[2] - row[1] for row in spans if names[row[0]] == "cli.main"
    )
    out["rootpolytope.simplices"] = counts.get("rootpolytope.simplices", 0)
    found = counts.get("parking.found", 0)
    out["parking.candidates"] = candidates
    out["parking.accept_ratio"] = _ratio(found, candidates)
    leaves = counts.get("arborescence.leaves", 0)
    out["arborescence.leaves"] = leaves
    out["arborescence.type_one_ratio"] = _ratio(
        counts.get("arborescence.type_one_leaves", 0), leaves
    )
    lookups = counts.get("homfly.skein_memo_lookups", 0)
    misses = counts.get("homfly.LinkDiagram.first_bad_crossing", 0)
    out["homfly.skein_memo_lookups"] = lookups
    out["homfly.skein_memo_hit_ratio"] = 1 - _ratio(misses, lookups) if lookups else 0.0
    return out
