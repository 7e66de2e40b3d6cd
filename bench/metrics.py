"""Metric names, units and the readable report.

End-to-end metrics come from the untraced loop; per-layer metrics from the
traced loop of a ``--trace 1`` run.  The names here are the names in
BENCHMARK.json.
"""

from __future__ import annotations

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# (metric, layer, field, unit).  Every time listed here is nonzero on every
# workload; counts of a layer a workload does not reach read 0 there.
PER_LAYER = [
    ("catalog.resolve.calls", "catalog.resolve", "calls", "count"),
    ("catalog.resolve.busy_s", "catalog.resolve", "busy_s", "s"),
    ("funcmodel.cascade.calls", "funcmodel.cascade", "calls", "count"),
    ("funcmodel.cascade.busy_s", "funcmodel.cascade", "busy_s", "s"),
    ("funcmodel.cascade.points", "funcmodel.cascade", "points", "count"),
    ("funcmodel.samples.hit_ratio", "funcmodel.cascade", "hit_ratio", "ratio"),
    ("funcmodel.cumulative.calls", "funcmodel.cumulative", "calls", "count"),
    ("funcmodel.cumulative.busy_s", "funcmodel.cumulative", "busy_s", "s"),
    ("funcmodel.evaluate.calls", "funcmodel.evaluate", "calls", "count"),
    ("funcmodel.evaluate.busy_s", "funcmodel.evaluate", "busy_s", "s"),
    ("funcmodel.evaluate.points", "funcmodel.evaluate", "points", "count"),
    ("quasiproj.apply.calls", "quasiproj.apply", "calls", "count"),
    ("quasiproj.apply.busy_s", "quasiproj.apply", "busy_s", "s"),
    ("quasiproj.apply.self_s", "quasiproj.apply", "self_s", "s"),
    ("quasiproj.apply.points", "quasiproj.apply", "points", "count"),
    ("quasiproj.check.calls", "quasiproj.check", "calls", "count"),
    ("quasiproj.check.busy_s", "quasiproj.check", "busy_s", "s"),
    ("gibbs.sweep.calls", "gibbs.sweep", "calls", "count"),
    ("gibbs.sweep.shifts", "gibbs.sweep", "shifts", "count"),
    ("gibbs.sweep.ongrid_share", "gibbs.sweep", "ongrid_share", "ratio"),
    ("gibbs.identity.calls", "gibbs.identity", "calls", "count"),
    ("construct.calls", "construct", "calls", "count"),
    ("framelet.calls", "framelet", "calls", "count"),
    ("sequences.calls", "sequences", "calls", "count"),
    ("sequences.busy_s", "sequences", "busy_s", "s"),
    ("cli.main.calls", "cli.main", "calls", "count"),
    ("cli.main.stdout_bytes", "cli.main", "stdout_bytes", "count"),
]


def end_to_end(report: dict) -> dict:
    u = report["untraced"]
    values = {
        "ops_per_s": u["ops_per_s"],
        "latency_p50_ms": u["latency_p50_ms"],
        "latency_tail_ms": u["latency_tail_ms"],
        "setup_s": report["setup_s"],
        "peak_rss_mb": report["peak_rss_mb"],
    }
    return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}


def per_layer(report: dict) -> dict:
    layers = report["trace"]["layers"]
    out = {name: {"value": layers[layer][field], "unit": unit} for name, layer, field, unit in PER_LAYER}
    out["trace.uncovered_share"] = {"value": report["trace"]["uncovered_share"], "unit": "ratio"}
    return out


def describe(report: dict, trace: int) -> list[str]:
    u = report["untraced"]
    lines = [
        f"workload {report['workload']}  seed {report['seed']}  blocks {report['blocks']}  "
        f"requests {u['attempted']}  closed loop, 1 client",
        f"  {'ops_per_s':16s} {u['ops_per_s']:12.4f} 1/s",
        f"  {'latency_p50_ms':16s} {u['latency_p50_ms']:12.2f} ms",
        f"  {'latency_tail_ms':16s} {u['latency_tail_ms']:12.2f} ms   "
        f"(p{u['tail_percentile']:.1f} of {u['tail_samples']} samples, 10 beyond)",
        f"  {'failed_ratio':16s} {u['failed_ratio']:12.4f}      "
        f"({u['failed']} of {u['attempted']}; {u['known_defect']} are the known daubechies:2 refusal)",
        f"  {'setup_s':16s} {report['setup_s']:12.4f} s    (median of {len(report['setup_samples'])})",
        f"  {'peak_rss_mb':16s} {report['peak_rss_mb']:12.1f} MB",
    ]
    if trace:
        t = report["trace"]
        o = report["overhead"]
        lines.append(
            f"traced loop: ops_per_s {o['ops_per_s_traced']:.4f} vs untraced {o['ops_per_s_untraced']:.4f} "
            f"(tracing overhead {o['ops_per_s_difference']:+.4f} 1/s); "
            f"span-uncovered share of request wall time {t['uncovered_share']:.4f}"
        )
        lines.append(f"  {'layer':22s} {'calls':>8s} {'busy_s':>9s} {'self_s':>9s} {'wall_s':>9s}  counts")
        for layer, row in t["layers"].items():
            extra = {k: v for k, v in row.items() if k not in ("calls", "busy_s", "self_s", "wall_s")}
            lines.append(
                f"  {layer:22s} {row['calls']:8d} {row['busy_s']:9.4f} {row['self_s']:9.4f} {row['wall_s']:9.4f}  "
                + " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}" for k, v in extra.items())
            )
    for problem in report["problems"]:
        lines.append(f"PROBLEM: {problem}")
    part = report["traced"] if trace else u
    for f in part["unexpected_failures"]:
        lines.append(f"FAILED: {f['request']}: {f['reasons']}")
    return lines
