"""Outside-in tracer: spans around isolab's public names, set from outside.

The tracer rebinds a name where the calling isolab module looks it up (a
module global, or a method on a class), so a call made inside isolab goes
through a wrapper that records a span.  `restore()` puts every original
back.  Spans are kept in memory and written out once, at the end of a run.
Calls made while no op is open pass straight through and record nothing.

Self time of a span is its duration minus the part of it that its child
spans cover, so the self times of all spans of one op add up to the op's
wall time.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.counts = None

    def count(self, key, n):
        if self.counts is None:
            self.counts = {}
        self.counts[key] = self.counts.get(key, 0) + n

    def as_record(self, index):
        rec = {"id": index, "name": self.name, "start": self.start, "end": self.end,
               "parent": self.parent, "op": self.op}
        if self.counts:
            rec["counts"] = self.counts
        return rec


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list = []

    # -- recording ------------------------------------------------------------

    def open(self, name, op=None) -> Span:
        parent = self._stack[-1] if self._stack else None
        if op is None:
            op = self.spans[parent].op
        span = Span(name, perf_counter(), parent, op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span):
        span.end = perf_counter()
        self._stack.pop()

    @property
    def active(self) -> bool:
        return bool(self._stack)

    @property
    def current(self) -> Span | None:
        return self.spans[self._stack[-1]] if self._stack else None

    def traced(self, fn, name, after=None):
        """fn wrapped in a span; after(span, result) may add counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            span = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(span, args, out)
            return out

        return wrapper

    # -- installing -----------------------------------------------------------

    def patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, owner, attr, name, after=None):
        self.patch(owner, attr, self.traced(owner.__dict__[attr], name, after))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def write(self, path, header=None):
        with open(path, "w") as fh:
            if header is not None:
                fh.write(json.dumps(header, sort_keys=True) + "\n")
            for i, span in enumerate(self.spans):
                fh.write(json.dumps(span.as_record(i)) + "\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children.get(i, ()), key=lambda j: spans[j].start):
            lo, hi = max(spans[c].start, reach), min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


# ---------------------------------------------------------------------------
# the isolab layers
# ---------------------------------------------------------------------------

LAYER_MS = {
    "gauges.kernel_fourier": ("recovery.shift_kernel_fourier_grid",),
    "recovery.sample_transform": ("recovery.fourier_from_samples",),
    "recovery.forward": ("recovery.smoothed_curve_samples",),
    "recovery.fit": ("recovery.least_squares",),
    "recovery.roundtrip_self": ("recovery.roundtrip_check", "recovery.recover_measure"),
    "holodisc.sup_seminorm": ("holodisc.sup_seminorm",),
    "holodisc.hp_seminorm": ("holodisc.hp_seminorm",),
    "holodisc.apply": ("holodisc.MatrixOperator.apply", "holodisc.RotationOperator.apply"),
    "holodisc.characterize_self": ("holodisc.characterize_isometry",),
    "holodisc.three_circle_self": ("holodisc.three_circle_check",),
    "contspace.kdtree_build": ("contspace.cKDTree",),
    "contspace.kdtree_query": ("contspace.cKDTree.query",),
    "contspace.kdtree_pairs": ("contspace.cKDTree.query_pairs",),
    "contspace.interpolate": ("contspace.GridFunction.interpolate",),
    "contspace.operator": ("contspace.weighted_composition_grid",),
    "contspace.recover_self": ("contspace.recover_weight_and_map",),
    "contspace.sup_grid": ("contspace.sup_seminorm_grid",),
    "contspace.decomp_self": ("contspace.decomposition_bound_check",),
    "contspace.iso_test_self": ("contspace.isometry_test_grid",),
    "metric.separate": ("metric.separate",),
    "gauges.admissibility": ("cli.check_admissibility",),
    "quadrature.frullani": ("cli.frullani_integral",),
}
"""Per-layer time metric stem -> the span names whose self time it sums."""

LAYER_COUNTS = {
    "gauges.kernel_fourier_evals": "kernel_evals",
    "quadrature.kernel_nodes": "kernel_nodes",
    "quadrature.kernel_passes": "kernel_passes",
    "recovery.sample_transform_evals": "sample_evals",
    "recovery.fit_nfev": "nfev",
    "holodisc.sup_seminorm_calls": "calls:holodisc.sup_seminorm",
    "contspace.kdtree_points": "kdtree_points",
}
"""Per-layer count metric -> the span counter it sums, per op ("calls:" counts spans)."""


def install(tracer: Tracer):
    """Wrap every layer boundary in the isolab modules; undo with restore()."""
    from isolab import cli, contspace, gauges, holodisc, metric, recovery

    def sample_evals(span, args, out):
        span.count("sample_evals", len(args[0]) * out.size)

    def nfev(span, args, out):
        span.count("nfev", int(out.nfev))

    def accepted(span, args, out):
        passed = getattr(out, "passed", True)
        span.count("accepted", int(bool(passed)))

    # a transform's evaluations are its frequencies times the nodes of every
    # panel pass, so count the panel_nodes results seen from isolab.gauges
    panel_nodes = gauges.__dict__["panel_nodes"]
    frequencies = 0

    def counted_panel_nodes(breaks, points):
        nodes, weights = panel_nodes(breaks, points)
        span = tracer.current
        if span is not None and span.name == "recovery.shift_kernel_fourier_grid":
            span.count("kernel_nodes", nodes.size)
            span.count("kernel_passes", 1)
            span.count("kernel_evals", nodes.size * frequencies)
        return nodes, weights

    def kernel_transform(fn):
        traced = tracer.traced(fn, "recovery.shift_kernel_fourier_grid")

        @functools.wraps(fn)
        def wrapper(g, shift, zs, quadrature=None):
            nonlocal frequencies
            frequencies = len(zs)
            return traced(g, shift, zs, quadrature)

        return wrapper

    tracer.patch(gauges, "panel_nodes", counted_panel_nodes)
    tracer.patch(
        recovery, "shift_kernel_fourier_grid",
        kernel_transform(recovery.__dict__["shift_kernel_fourier_grid"]),
    )
    tracer.wrap(recovery, "fourier_from_samples", "recovery.fourier_from_samples", sample_evals)
    tracer.wrap(recovery, "smoothed_curve_samples", "recovery.smoothed_curve_samples")
    tracer.wrap(recovery, "least_squares", "recovery.least_squares", nfev)
    tracer.wrap(recovery, "roundtrip_check", "recovery.roundtrip_check", accepted)
    tracer.wrap(recovery, "recover_measure", "recovery.recover_measure", accepted)

    tracer.wrap(holodisc, "sup_seminorm", "holodisc.sup_seminorm")
    tracer.wrap(holodisc, "hp_seminorm", "holodisc.hp_seminorm")
    tracer.wrap(holodisc.MatrixOperator, "apply", "holodisc.MatrixOperator.apply")
    tracer.wrap(holodisc.RotationOperator, "apply", "holodisc.RotationOperator.apply")
    tracer.wrap(holodisc, "characterize_isometry", "holodisc.characterize_isometry")
    tracer.wrap(holodisc, "three_circle_check", "holodisc.three_circle_check")

    tracer.patch(contspace, "cKDTree", traced_kdtree(tracer, contspace.__dict__["cKDTree"]))
    tracer.wrap(contspace.GridFunction, "interpolate", "contspace.GridFunction.interpolate")
    tracer.wrap(contspace, "weighted_composition_grid", "contspace.weighted_composition_grid")
    tracer.wrap(contspace, "recover_weight_and_map", "contspace.recover_weight_and_map")
    tracer.wrap(contspace, "sup_seminorm_grid", "contspace.sup_seminorm_grid")
    tracer.wrap(contspace, "decomposition_bound_check", "contspace.decomposition_bound_check")
    tracer.wrap(contspace, "isometry_test_grid", "contspace.isometry_test_grid")

    tracer.wrap(metric, "separate", "metric.separate")
    tracer.wrap(cli, "check_admissibility", "cli.check_admissibility")
    tracer.wrap(cli, "frullani_integral", "cli.frullani_integral")


def traced_kdtree(tracer: Tracer, kdtree):
    """Stand-in for cKDTree that times its build, query and query_pairs."""

    class TracedKDTree:
        def __init__(self, data, *args, **kwargs):
            if not tracer.active:
                self._tree = kdtree(data, *args, **kwargs)
                return
            span = tracer.open("contspace.cKDTree")
            try:
                self._tree = kdtree(data, *args, **kwargs)
            finally:
                tracer.close(span)
            span.count("kdtree_points", len(data))

        def query(self, *args, **kwargs):
            return tracer.traced(self._tree.query, "contspace.cKDTree.query")(*args, **kwargs)

        def query_pairs(self, *args, **kwargs):
            return tracer.traced(self._tree.query_pairs, "contspace.cKDTree.query_pairs")(
                *args, **kwargs
            )

        def __getattr__(self, name):
            return getattr(self._tree, name)

    return TracedKDTree


def layer_metrics(tracer: Tracer, timed_ops: set, first_op_ids: set) -> dict:
    """Per-layer numbers: self ms and counts per timed op, and first calls.

    timed_ops holds the op ids of the traced timed phase; first_op_ids the
    ids of warm-up ops, where each function's first call happens.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    n_ops = max(1, len(timed_ops))
    by_name_ms: dict[str, float] = {}
    first_ms: dict[str, tuple] = {}
    counts: dict[str, float] = {}
    root_self = root_total = all_self = 0.0
    for s, self_s in zip(spans, selfs):
        if s.op in first_op_ids and s.parent is not None and s.name not in first_ms:
            first_ms[s.name] = (s.start, self_s * 1e3)
        if s.op not in timed_ops:
            continue
        all_self += self_s
        if s.parent is None:
            root_self += self_s
            root_total += s.end - s.start
            continue
        by_name_ms[s.name] = by_name_ms.get(s.name, 0.0) + self_s * 1e3
        for k, v in (s.counts or {}).items():
            counts[k] = counts.get(k, 0) + v
        counts["calls:" + s.name] = counts.get("calls:" + s.name, 0) + 1
    calls = counts.get("calls:recovery.roundtrip_check", 0) + counts.get(
        "calls:recovery.recover_measure", 0
    )

    out = {}
    for stem, names in LAYER_MS.items():
        out[f"{stem}_ms"] = (sum(by_name_ms.get(n, 0.0) for n in names) / n_ops, "ms")
        firsts = sorted(first_ms[n] for n in names if n in first_ms)
        out[f"{stem}_first_ms"] = (firsts[0][1] if firsts else 0.0, "ms")
    for metric, key in LAYER_COUNTS.items():
        out[metric] = (counts.get(key, 0) / n_ops, "count")
    out["recovery.accept_ratio"] = (counts.get("accepted", 0) / calls if calls else 0.0, "ratio")
    out["trace.self_coverage"] = (all_self / root_total if root_total else 0.0, "ratio")
    out["trace.op_self_ms"] = (root_self * 1e3 / n_ops, "ms")
    return out
