"""Per-layer spans, recorded from outside the package.

``Tracer.install`` wraps the public functions of each layer at *every*
module attribute of ``gibbslab`` that binds them (``gibbs``, ``framelet``
and ``cli`` import ``apply`` and others by name, so a call through an
unwrapped binding would escape its span) and the methods on their classes.
A span holds layer, start, end, parent span and request id; spans stay in
memory until the run ends.  A call made inside an open span of the same layer
is part of that span, not a new one.  Spans opened on the package's thread
pool have no open span on their own thread; their parent is the innermost
span open on the client thread, which is blocked in ``pool.map``, and they
carry the request id of the request in flight (one client, so one request).
"""

from __future__ import annotations

import functools
import sys
import threading
import time

import numpy as np

# layer -> (module, attribute) of each wrapped function, or (module, class, method)
LAYERS = {
    "catalog.resolve": [("gibbslab.catalog", n) for n in ("resolve_pair", "resolve_function", "resolve_bank", "resolve_framelet")],
    "funcmodel.cascade": [("gibbslab.funcmodel", "cascade")],
    "funcmodel.cumulative": [("gibbslab.funcmodel", "RefinableFunction", "cumulative_samples")]
    + [("gibbslab.funcmodel", c, "cumulative") for c in ("PiecewisePoly", "RefinableFunction", "SampledFunction")],
    "funcmodel.evaluate": [("gibbslab.funcmodel", c, "evaluate") for c in ("PiecewisePoly", "RefinableFunction", "SampledFunction")],
    "quasiproj.apply": [("gibbslab.quasiproj", "apply")],
    "quasiproj.check": [("gibbslab.quasiproj", n) for n in ("check_qp1", "poly_reproduction", "accuracy_order")],
    "gibbs.sweep": [("gibbslab.gibbs", n) for n in ("overshoot_curve", "gibbs_at_point")],
    "gibbs.identity": [("gibbslab.gibbs", n) for n in ("identity_lhs", "identity_rhs", "bracket_second_deriv")],
    "construct": [("gibbslab.construct", n) for n in ("build_dual", "verify_gibbs_free", "optimality_witness")],
    "framelet": [
        ("gibbslab.framelet", n)
        for n in ("oep_check", "derive_wavelets", "truncated_expansion", "framelet_gibbs_verdict", "symbol_deviation_slope")
    ],
    "sequences": [("gibbslab.sequences", n) for n in ("convolve", "fourier_deriv")],
    "cli.main": [("gibbslab.cli", "main")],
}

# the workloads on which each layer must record at least one span
LAYER_WORKLOADS = {
    "catalog.resolve": ("cli_mix",),
    "funcmodel.cascade": ("refine", "cli_mix"),
    "funcmodel.cumulative": ("refine",),
    "funcmodel.evaluate": ("sweep",),
    "quasiproj.apply": ("sweep", "cli_mix"),
    "quasiproj.check": ("cli_mix",),
    "gibbs.sweep": ("sweep", "cli_mix"),
    "gibbs.identity": ("refine", "cli_mix"),
    "construct": ("cli_mix",),
    "framelet": ("cli_mix",),
    "sequences": ("cli_mix",),
    "cli.main": ("cli_mix",),
}

# span record fields
LAYER, START, END, PARENT, REQUEST, THREAD, CPU0, CPU1, POINTS, SHIFT = range(10)


def _points_of(layer, args, result):
    """Work count of one outermost call: grid points produced or evaluated,
    or bytes written to stdout."""
    if layer == "funcmodel.cascade" or layer == "quasiproj.apply":
        return int(result.values.shape[0])
    if layer == "funcmodel.evaluate":
        return int(np.size(args[1]))
    if layer == "cli.main" and hasattr(sys.stdout, "getvalue"):
        return len(sys.stdout.getvalue().encode())  # stdout as captured for this call
    return 0


def _shift_of(args, kwargs):
    """The shift t of an ``apply(pair, f, n, t, grid)`` call."""
    if len(args) > 3:
        return float(args[3])
    return float(kwargs.get("t", 0.0))


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = None
        self.samples_calls = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._client = None
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer, fn):
        tracer = self
        points = layer in ("funcmodel.cascade", "quasiproj.apply", "funcmodel.evaluate", "cli.main")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and tracer.spans[stack[-1]][LAYER] == layer:
                return fn(*args, **kwargs)
            if stack:
                parent = stack[-1]
            elif stack is not tracer._client and tracer._client:
                parent = tracer._client[-1]
            else:
                parent = None
            rec = [layer, 0.0, 0.0, parent, tracer.request, threading.get_ident(), 0.0, 0.0, 0, None]
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append(rec)
            if layer == "quasiproj.apply" and parent is not None and tracer.spans[parent][LAYER] == "gibbs.sweep":
                rec[SHIFT] = _shift_of(args, kwargs)
            stack.append(idx)
            rec[CPU0] = time.process_time()
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                rec[CPU1] = time.process_time()
                stack.pop()
            if points:
                rec[POINTS] = _points_of(layer, args, result)
                if rec[SHIFT] is not None:
                    rec[SHIFT] = (rec[SHIFT], result.level)
            return result

        return traced

    def _count_samples(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with tracer._lock:
                tracer.samples_calls += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, name, new):
        self._undo.append((owner, name, owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)))
        setattr(owner, name, new)

    def install(self) -> None:
        """Wrap every layer; call on the client thread after importing gibbslab."""
        import gibbslab  # noqa: F401 - every submodule must be loaded before the scan
        import gibbslab.cli  # noqa: F401

        self._client = self._stack()
        modules = [m for n, m in sorted(sys.modules.items()) if n == "gibbslab" or n.startswith("gibbslab.")]
        for layer, targets in LAYERS.items():
            for target in targets:
                if len(target) == 3:
                    cls = getattr(sys.modules[target[0]], target[1])
                    self._patch(cls, target[2], self._wrap(layer, cls.__dict__[target[2]]))
                    continue
                orig = getattr(sys.modules[target[0]], target[1])
                wrapped = self._wrap(layer, orig)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, name, wrapped)
        cls = sys.modules["gibbslab.funcmodel"].RefinableFunction
        self._patch(cls, "samples", self._count_samples(cls.__dict__["samples"]))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


# -- analysis ----------------------------------------------------------------------


def _union(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_table(tracer: Tracer, requests: list[tuple[float, float]]) -> dict:
    """Per-layer calls, busy_s, self_s, wall_s and counts, plus the share of
    request wall time no span covers.  ``requests[i]`` is (start, end) of
    request id i."""
    spans = tracer.spans
    children = {}
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append(i)
    table = {
        layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "wall_s": 0.0, "points": 0} for layer in LAYERS
    }
    intervals = {layer: [] for layer in LAYERS}
    for i, s in enumerate(spans):
        row = table[s[LAYER]]
        dur = s[END] - s[START]
        kids = [(max(spans[c][START], s[START]), min(spans[c][END], s[END])) for c in children.get(i, ())]
        row["calls"] += 1
        row["busy_s"] += dur
        row["self_s"] += dur - _union([k for k in kids if k[1] > k[0]])
        row["points"] += s[POINTS]
        intervals[s[LAYER]].append((s[START], s[END]))
    for layer, row in table.items():
        row["wall_s"] = _union(intervals[layer])
        if layer not in ("funcmodel.cascade", "funcmodel.evaluate", "quasiproj.apply", "cli.main"):
            del row["points"]

    sweep = [s for s in spans if s[LAYER] == "gibbs.sweep"]
    shifts = [s[SHIFT] for s in spans if s[LAYER] == "quasiproj.apply" and s[SHIFT] is not None]
    ongrid = sum(1 for t, level in shifts if (t * 2**level).is_integer())
    wall = sum(s[END] - s[START] for s in sweep)
    table["gibbs.sweep"].update(
        shifts=len(shifts),
        ongrid_share=ongrid / len(shifts) if shifts else 0.0,
        cpu_per_wall=sum(s[CPU1] - s[CPU0] for s in sweep) / wall if wall else 0.0,
    )
    cascades = table["funcmodel.cascade"]["calls"]
    table["funcmodel.cascade"]["samples_calls"] = tracer.samples_calls
    table["funcmodel.cascade"]["hit_ratio"] = 1.0 - cascades / tracer.samples_calls if tracer.samples_calls else 0.0
    table["cli.main"]["stdout_bytes"] = table["cli.main"].pop("points")

    top = {}
    for s in spans:
        if s[PARENT] is None and s[REQUEST] is not None:
            top.setdefault(s[REQUEST], []).append((s[START], s[END]))
    req_total = sum(hi - lo for lo, hi in requests)
    covered = sum(
        _union([(max(a, lo), min(b, hi)) for a, b in top.get(rid, ()) if min(b, hi) > max(a, lo)])
        for rid, (lo, hi) in enumerate(requests)
    )
    return {
        "layers": table,
        "request_wall_s": req_total,
        "uncovered_share": (req_total - covered) / req_total if req_total else 0.0,
    }
