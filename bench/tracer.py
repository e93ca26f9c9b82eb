"""Outside-in tracer for the traced benchmark run.

The tracer wraps public ``crflat`` functions and methods at run time, so the
per-layer numbers need no edit to the program.  A wrapped function records
a span ``(name, start, end, parent, op)``; the scalar operators of
``numeric`` are too fine to span and only count their calls.  Some spans
also add counts at their boundary (matrix cells, series terms, search
hits); that bookkeeping runs as a child span named ``trace.count``, and the
host-speed probes of the benchmark run as ``trace.probe`` spans, so their
cost lands in no layer's self time.  Spans stay in memory until the run
ends.

``PER_LAYER`` names every per-layer metric, its unit, which direction is
better and which end-to-end metric on which workload it should move.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter

# span name -> (module, attribute path) of every function recorded under it
SPANS = {
    "cli.main": [("crflat.cli", "main")],
    "linalg.solve": [("crflat.linalg", "solve")],
    "linalg.nullspace": [("crflat.linalg", "nullspace")],
    "linalg.rank": [("crflat.linalg", "ExactMatrix.rank")],
    "series.mul": [("crflat.series", "Series.__mul__")],
    "series.subst_w": [("crflat.series", "subst_w")],
    "germ.load_germ": [("crflat.germ", "load_germ")],
    "germ.split": [("crflat.germ", "Germ.split")],
    "germ.shear": [("crflat.germ", "Germ.shear")],
    "quadratic.classify": [
        ("crflat.quadratic", "is_hermitianizable"),
        ("crflat.quadratic", "coarse_b_class"),
        ("crflat.quadratic", "recognize_pair"),
    ],
    "quadratic.elliptic_candidates": [("crflat.quadratic", "elliptic_candidates")],
    "quadratic.bishop_slice": [("crflat.quadratic", "bishop_slice")],
    "crfields.build_canonical_field": [("crflat.crfields", "build_canonical_field")],
    "crfields.bracket_data": [("crflat.crfields", "bracket_data")],
    "crfields.obstruction": [("crflat.crfields", "obstruction")],
    "flatten.flatten_to_order": [("crflat.flatten", "flatten_to_order")],
    "flatten.h_from_germ": [("crflat.flatten", "h_from_germ")],
    "flatten.phi_psi": [("crflat.flatten", "phi_psi")],
    "flatten.solve_kernel": [("crflat.flatten", "solve_kernel")],
    "flatten.fundamental_nullspace": [("crflat.flatten", "fundamental_nullspace")],
    "flatten.uniqueness_nullspace": [("crflat.flatten", "uniqueness_nullspace")],
}

# counter name -> methods whose calls it counts
CALL_COUNTS = {
    "numeric.mul": [("crflat.numeric", "GaussianRational.__mul__"),
                    ("crflat.numeric", "GaussianRational.__rmul__")],
    "numeric.add": [("crflat.numeric", "GaussianRational.__add__"),
                    ("crflat.numeric", "GaussianRational.__radd__")],
    "numeric.inverse": [("crflat.numeric", "GaussianRational.inverse")],
}

NULLSPACE = "audit-uniqueness op_p50_s, ops_per_s, peak_rss_mb; no change on screen-germs"
SOLVE = "flatten-sheared op_p50_s"
RANK = "flatten-sheared op_p50_s; small on screen-germs"
SCALAR = "ops_per_s on all three workloads"
SERIES = ("flatten-sheared op_p50_s, op_tail_s (large coefficients); "
          "screen-germs op_p50_s (many small products)")
AUDIT = "audit-uniqueness op_p50_s"
SEARCH = "screen-germs op_tail_s: exhaustive grids make the tail"
BRACKETS = "screen-germs op_p50_s"
PARSE = "screen-germs ops_per_s; a parser rewrite should leave it flat"

# (metric, unit, better, what it should move)
PER_LAYER = [
    ("linalg.nullspace.self_s", "s/op", "lower", NULLSPACE),
    ("linalg.nullspace.cells", "count/op", "lower", NULLSPACE),
    ("linalg.nullspace.nnz", "count/op", "lower", NULLSPACE),
    ("linalg.nullspace.nullity", "count/op", "lower", NULLSPACE),
    ("linalg.solve.self_s", "s/op", "lower", SOLVE),
    ("linalg.solve.cells", "count/op", "lower", SOLVE),
    ("linalg.rank.self_s", "s/op", "lower", RANK),
    ("numeric.mul.calls", "count/op", "lower", SCALAR),
    ("numeric.add.calls", "count/op", "lower", SCALAR),
    ("numeric.inverse.calls", "count/op", "lower", SCALAR),
    ("series.mul.self_s", "s/op", "lower", SERIES),
    ("series.mul.calls", "count/op", "lower", SERIES),
    ("series.mul.out_terms", "count/op", "lower", SERIES),
    ("series.subst_w.self_s", "s/op", "lower", SERIES),
    ("series.max_coeff_bits", "bits", "lower", SERIES),
    ("germ.shear.self_s", "s/op", "lower", SOLVE),
    ("germ.split.self_s", "s/op", "lower", SOLVE),
    ("flatten.h_from_germ.self_s", "s/op", "lower", SOLVE),
    ("flatten.solve_kernel.self_s", "s/op", "lower", SOLVE),
    ("flatten.phi_psi.self_s", "s/op", "lower", SOLVE),
    ("flatten.flatten_to_order.self_s", "s/op", "lower", SOLVE),
    ("flatten.uniqueness_nullspace.self_s", "s/op", "lower", AUDIT),
    ("flatten.fundamental_nullspace.self_s", "s/op", "lower", AUDIT),
    ("quadratic.elliptic_candidates.self_s", "s/op", "lower", SEARCH),
    ("quadratic.bishop_slice.calls", "count/op", "lower", SEARCH),
    ("quadratic.bishop_slice.self_s", "s/op", "lower", SEARCH),
    ("quadratic.search_hit_ratio", "ratio", "higher", SEARCH),
    ("quadratic.classify.self_s", "s/op", "lower", SEARCH),
    ("crfields.obstruction.self_s", "s/op", "lower", BRACKETS),
    ("crfields.bracket_data.self_s", "s/op", "lower", BRACKETS),
    ("crfields.canonical_field_per_obstruction", "ratio", "lower", BRACKETS),
    ("germ.load_germ.self_s", "s/op", "lower", PARSE),
    ("germ.load_germ.calls", "count/op", "lower", PARSE),
    ("cli.main.self_s", "s/op", "lower", PARSE),
    ("cli.report_bytes", "B/op", "lower", PARSE),
    ("trace.ops_per_s", "1/s", "higher", "traced throughput, the base of trace.overhead"),
    ("trace.overhead", "ratio", "lower", "untraced over traced ops_per_s"),
]


# -- counts taken at span boundaries ------------------------------------------------


def _nullspace_counts(counts, args, out):
    rows = args[0].to_rows()
    counts["linalg.nullspace.cells"] += sum(len(r) for r in rows)
    counts["linalg.nullspace.nnz"] += sum(1 for r in rows for x in r if x)
    counts["linalg.nullspace.nullity"] += len(out)


def _solve_counts(counts, args, out):
    counts["linalg.solve.cells"] += args[0].rows * args[0].cols


def _mul_counts(counts, args, out):
    terms = getattr(out, "terms", None)
    if terms is None:
        return
    counts["series.mul.out_terms"] += len(terms)
    bits = counts["series.max_coeff_bits"]
    for c in terms.values():
        for q in (c.re, c.im):
            bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
    counts["series.max_coeff_bits"] = bits


def _search_counts(counts, args, out):
    counts["quadratic.searches"] += 1
    counts["quadratic.search_hits"] += any(c.origin == "search" for c in out)


COUNT_HOOKS = {
    "linalg.nullspace": _nullspace_counts,
    "linalg.solve": _solve_counts,
    "series.mul": _mul_counts,
    "quadratic.elliptic_candidates": _search_counts,
}


def _resolve(modname: str, path: str):
    owner = sys.modules[modname]
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


class Tracer:
    """Records spans and counts while installed; ``op`` tags new spans."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.stack: list = []
        self.op = None
        self._undo: list = []

    # -- wrapping -----------------------------------------------------------------

    def record(self, name: str, call, *args, **kwargs):
        """``call(*args, **kwargs)`` inside a span named ``name``."""
        spans, stack = self.spans, self.stack
        idx = len(spans)
        spans.append(None)
        stack.append(idx)
        start = time.perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[idx] = (name, start, end, stack[-1] if stack else -1, self.op)

    def _span_wrapper(self, name, fn, hook):
        record = self.record

        def wrapper(*args, **kwargs):
            out = record(name, fn, *args, **kwargs)
            if hook is not None:
                record("trace.count", hook, self.counts, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def _patch(self, modname, path, make):
        owner, attr = _resolve(modname, path)
        original = getattr(owner, attr)
        wrapped = make(original)
        targets = [(owner, attr)]
        if isinstance(owner, type(sys)):
            # ``from .x import f`` copies: patch every crflat namespace holding f
            for mname, mod in list(sys.modules.items()):
                if mname == "crflat" or mname.startswith("crflat."):
                    for key, value in list(vars(mod).items()):
                        if value is original and (mod, key) != (owner, attr):
                            targets.append((mod, key))
        for obj, key in targets:
            self._undo.append((obj, key, getattr(obj, key)))
            setattr(obj, key, wrapped)

    def install(self) -> None:
        for name, places in SPANS.items():
            for modname, path in places:
                self._patch(modname, path,
                            lambda fn, n=name: self._span_wrapper(n, fn, COUNT_HOOKS.get(n)))
        for name, places in CALL_COUNTS.items():
            for modname, path in places:
                self._patch(modname, path, lambda fn, n=name: self._count_wrapper(n, fn))

    def uninstall(self) -> None:
        while self._undo:
            obj, key, original = self._undo.pop()
            setattr(obj, key, original)

    def write(self, path: str) -> None:
        """Spans as JSON lines ``[name, start, end, parent, op]``, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- analysis ---------------------------------------------------------------------------


def _covered(intervals: list) -> float:
    """Total length of a union of intervals."""
    total = 0.0
    end = float("-inf")
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


def self_times(spans: list) -> dict:
    """Per span name: summed duration minus the part covered by child spans."""
    children: dict = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: Counter = Counter()
    for idx, (name, start, end, _, _) in enumerate(spans):
        inside = [(max(s, start), min(e, end)) for s, e in children.get(idx, ()) if e > start and s < end]
        out[name] += (end - start) - _covered(inside)
    return dict(out)


def call_counts(spans: list) -> Counter:
    return Counter(span[0] for span in spans)


def layer_metrics(tracer: Tracer, nops: int, traced_rate: float, untraced_rate: float) -> dict:
    """Every ``PER_LAYER`` metric, per op where the unit says so."""
    selfs = self_times(tracer.spans)
    calls = call_counts(tracer.spans) + tracer.counts
    counts = tracer.counts
    derived = {
        "series.max_coeff_bits": counts["series.max_coeff_bits"],
        "quadratic.search_hit_ratio":
            counts["quadratic.search_hits"] / counts["quadratic.searches"]
            if counts["quadratic.searches"] else 0.0,
        "crfields.canonical_field_per_obstruction":
            calls["crfields.build_canonical_field"] / calls["crfields.obstruction"]
            if calls["crfields.obstruction"] else 0.0,
        "trace.ops_per_s": traced_rate,
        "trace.overhead": untraced_rate / traced_rate,
    }
    out = {}
    for name, unit, _, _ in PER_LAYER:
        if name in derived:
            value = derived[name]
        elif name.endswith(".self_s"):
            value = selfs.get(name[: -len(".self_s")], 0.0) / nops
        elif name.endswith(".calls"):
            value = calls[name[: -len(".calls")]] / nops
        else:
            value = counts[name] / nops
        out[name] = {"value": value, "unit": unit}
    return out


def module_shares(spans: list) -> list:
    """Per module: (module, self share, inclusive share) of the traced op time.

    The self share sums the module's span self times; the inclusive share
    sums the durations of the module's outermost spans, so it also covers
    the work those spans hand to other modules.  Largest self share first.
    """
    total = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    if not total:
        return []
    selfs: Counter = Counter()
    for name, t in self_times(spans).items():
        selfs[name.split(".")[0]] += t
    inclusive: Counter = Counter()
    ancestors: list = []  # modules on each span's ancestor path
    for name, start, end, parent, _ in spans:
        mod = name.split(".")[0]
        above = ancestors[parent] | {spans[parent][0].split(".")[0]} if parent >= 0 else frozenset()
        ancestors.append(frozenset(above))
        if mod not in above:
            inclusive[mod] += end - start
    return [(m, t / total, inclusive[m] / total) for m, t in selfs.most_common()]
