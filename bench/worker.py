"""One workload process: import the package, build the seeded request list,
warm up, run the closed loop, check every answer and report one JSON line.

Run by ``run.py``; not meant to be started by hand.  It prints ``ready``
once set-up (import, input generation, one untimed warm-up request) is done,
and its result as the last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from gate import judge
from tracer import LAYER_WORKLOADS, Tracer, layer_table

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
CAP_FACTOR = 1.3
THREAD_ENV = (
    "GIBBSLAB_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "gibbslab").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def environment(thread_env: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": thread_env,
        "gibbslab_threads_used": "default pool, min(8, os.cpu_count())",
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, sample count).  Nearest rank n - 10 of n."""
    xs = sorted(latencies)
    n = len(xs)
    rank = max(1, n - 10)
    return xs[rank - 1], 100.0 * rank / n, n


def load_reference(workload: str) -> dict:
    with open(BENCH / "reference" / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)["entries"]


class Loop:
    """Runs requests one after another and tallies their verdicts."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.latencies = []
        self.digests = []
        self.windows = []
        self.counts = {"ok": 0, "known_defect": 0, "failed": 0}
        self.failures = []
        self.block_rates = []

    def run_block(self, keys, tracer=None):
        before = len(self.latencies)
        for key in keys:
            self.run(key, tracer)
        self.block_rates.append(len(keys) / sum(self.latencies[before:]))

    def run(self, key, tracer=None):
        if tracer is not None:
            tracer.request = len(self.windows)
        start = time.perf_counter()
        latency, raw, digest, err = workloads.timed_call(self.workload, key, time.perf_counter)
        self.windows.append((start, start + latency))
        if tracer is not None:
            tracer.request = None
        verdict, reasons = judge(self.workload, key, raw, err, self.reference)
        self.counts[verdict] += 1
        if verdict == "failed":
            self.failures.append({"request": key, "reasons": reasons[:3]})
        self.latencies.append(latency)
        self.digests.append(digest)

    def summary(self) -> dict:
        n = len(self.latencies)
        tail, pct, count = tail_latency(self.latencies)
        return {
            "attempted": n,
            "ok": self.counts["ok"],
            "known_defect": self.counts["known_defect"],
            "failed": self.counts["failed"] + self.counts["known_defect"],
            "failed_ratio": (self.counts["failed"] + self.counts["known_defect"]) / n,
            "ops_per_s": statistics.median(self.block_rates),
            "block_ops_per_s": self.block_rates,
            "latency_p50_ms": 1e3 * statistics.median(self.latencies),
            "latency_tail_ms": 1e3 * tail,
            "tail_percentile": pct,
            "tail_samples": count,
            "unexpected_failures": self.failures[:10],
        }


def run_traced(loop: Loop, block: list[str], tracer: Tracer) -> None:
    tracer.install()
    try:
        loop.run_block(block, tracer)
    finally:
        tracer.uninstall()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--thread-env", default="{}", help="thread variables as the caller saw them (JSON)")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import gibbslab
    except ImportError as exc:
        print(f"error: cannot import gibbslab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 3
    if Path(gibbslab.__file__).resolve().parent != (ROOT / "src" / "gibbslab").resolve():
        print(f"error: gibbslab imported from {gibbslab.__file__}, not from this checkout", file=sys.stderr)
        return 3

    wl = args.workload
    reference = load_reference(wl)
    nblocks = workloads.blocks_for(wl, args.seconds / 2 if args.trace else args.seconds)
    blocks = workloads.request_list(wl, args.seed, nblocks)
    same_list = blocks == workloads.request_list(wl, args.seed, nblocks)

    warm = Loop(wl, reference)
    warm.run(workloads.WARMUP[wl])
    print("ready", flush=True)
    if args.setup_only:
        return 0

    report = {
        "workload": wl,
        "seed": args.seed,
        "blocks": nblocks,
        "env": environment(json.loads(args.thread_env)),
        "problems": [],
    }
    if not same_list:
        report["problems"].append("the same seed gave two different request lists")
    if warm.counts["ok"] != 1:
        report["problems"].append(f"warm-up request failed: {warm.failures}")

    # Fixed work: every block of the list, unless the machine is so slow that
    # the next block would end past CAP_FACTOR * seconds; then it stops early.
    # A traced run also runs each block traced, right before or after the
    # untraced pass (alternating), so neither drift in machine speed nor going
    # second favours one side of the overhead.
    untraced = Loop(wl, reference)
    traced = Loop(wl, reference)
    tracer = None
    if args.trace:
        tracer = Tracer()
    stop_at = time.perf_counter() + CAP_FACTOR * args.seconds
    done = []
    for i, block in enumerate(blocks):
        started = time.perf_counter()
        if tracer is not None and i % 2:
            run_traced(traced, block, tracer)
        untraced.run_block(block)
        if tracer is not None and not i % 2:
            run_traced(traced, block, tracer)
        done += block
        now = time.perf_counter()
        if now + (now - started) > stop_at:
            break
    report["untraced"] = untraced.summary()

    if tracer is not None:
        report["traced"] = traced.summary()
        trace = layer_table(tracer, traced.windows)
        report["trace"] = trace
        a, b = report["untraced"]["ops_per_s"], report["traced"]["ops_per_s"]
        report["overhead"] = {"ops_per_s_untraced": a, "ops_per_s_traced": b, "ops_per_s_difference": a - b}
        mismatch = [done[i] for i, (x, y) in enumerate(zip(untraced.digests, traced.digests)) if x != y]
        if mismatch:
            report["problems"].append(f"traced and untraced answers differ on {len(mismatch)} requests: {mismatch[:3]}")
        for layer, names in LAYER_WORKLOADS.items():
            if wl in names and trace["layers"][layer]["calls"] == 0:
                report["problems"].append(f"layer {layer} recorded no span on {wl}")
        RESULTS.mkdir(exist_ok=True)
        with open(RESULTS / f"spans-{wl}-seed{args.seed}.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["layer", "start", "end", "parent", "request", "thread", "cpu0", "cpu1", "points", "shift"],
                       "spans": tracer.spans, "requests": traced.windows}, fh)

    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
