"""gibbslab benchmark: one workload per process, every answer checked.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --all [--seed 1 --seconds 30]   # every workload, untraced and traced
    python3 bench/run.py --selftest                       # checks of the harness itself
    python3 bench/run.py --record                         # re-record bench/reference/*.json

With ``--trace 0`` the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end metrics
of BENCHMARK.json; with ``--trace 1`` the metrics are the per-layer ones.
The lines before it give the environment and a readable table.  See
bench/NOTES.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, describe, end_to_end, per_layer
from worker import THREAD_ENV
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 5  # set-up is measured this many times per run; the median is reported
RUN_BUDGET_S = 170.0  # a run stops its children and fails past this


def thread_env() -> dict:
    return {k: os.environ.get(k) for k in THREAD_ENV}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("GIBBSLAB_THREADS", None)  # measure the package's default pool
    return env


class Child:
    """A workload process whose start-to-``ready`` time is its set-up time."""

    def __init__(self, args: list[str], deadline: float):
        self.deadline = deadline
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), *args],
            stdout=subprocess.PIPE,
            text=True,
            env=child_env(),
            cwd=str(ROOT),
        )
        self.setup_s = None

    def wait_ready(self) -> float:
        ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, self.deadline - time.perf_counter()))
        line = self.proc.stdout.readline() if ready else ""
        if line.strip() != "ready":
            if not ready:
                self.proc.kill()
            self.finish()
            raise RuntimeError(f"workload process did not get ready (exit code {self.proc.returncode})")
        self.setup_s = time.perf_counter() - self.t0
        return self.setup_s

    def finish(self) -> str:
        try:
            out, _ = self.proc.communicate(timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise RuntimeError("workload process ran past the time budget and was stopped") from None
        if self.proc.returncode != 0:
            raise RuntimeError(f"workload process exited with code {self.proc.returncode}")
        return out


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.perf_counter() + RUN_BUDGET_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
              "--thread-env", json.dumps(thread_env())]
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        probe = Child(common + ["--setup-only"], deadline)
        setups.append(probe.wait_ready())
        probe.finish()
    main = Child(common + ["--trace", str(trace)], deadline)
    setups.append(main.wait_ready())
    out = main.finish()
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_s"] = statistics.median(setups)
    report["setup_samples"] = setups
    return report


def contract_line(report: dict, trace: int) -> dict:
    part = report["traced"] if trace else report["untraced"]
    problems = report["problems"] + [f"{f['request']}: {f['reasons']}" for f in part["unexpected_failures"]]
    attempted = part["attempted"] + (report["untraced"]["attempted"] if trace else 0)
    failed = part["failed"] + (report["untraced"]["failed"] if trace else 0)
    unexpected = part["failed"] - part["known_defect"]
    if trace:
        unexpected += report["untraced"]["failed"] - report["untraced"]["known_defect"]
    metrics = per_layer(report) if trace else end_to_end(report)
    return {
        "correct": not problems and unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def print_report(report: dict, trace: int) -> None:
    print("env " + json.dumps(report["env"], sort_keys=True))
    for line in describe(report, trace):
        print(line)


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process, untraced then traced; prints one
    table and writes bench/results/summary.json."""
    summary = {}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            report = run_workload(workload, seed, seconds, trace)
            line = contract_line(report, trace)
            ok = ok and line["correct"]
            for text in describe(report, trace):
                print(text, flush=True)
            summary[f"{workload}/trace{trace}"] = {"report": report, "result": line}
    (BENCH / "results").mkdir(exist_ok=True)
    with open(BENCH / "results" / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print(f"{'workload':10s} " + " ".join(f"{m:>16s}" for m in END_TO_END) + f" {'failed_ratio':>13s}")
    for workload in WORKLOADS:
        r = summary[f"{workload}/trace0"]
        m = r["result"]["metrics"]
        print(
            f"{workload:10s} "
            + " ".join(f"{m[k]['value']:>12.4f} {m[k]['unit']:>3s}" for k in END_TO_END)
            + f" {r['report']['untraced']['failed_ratio']:>13.4f}"
        )
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    ap.add_argument("--selftest", action="store_true", help="check the harness itself")
    ap.add_argument("--record", action="store_true", help="record the reference answers")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gibbslab" / "__init__.py").is_file():
        print(f"error: no gibbslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record or args.selftest:
        import selftest

        return selftest.record() if args.record else selftest.main()
    if not (args.all or args.workload):
        ap.error("--workload or --all is required")
    try:
        if args.all:
            return run_all(args.seed, args.seconds)
        report = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_report(report, args.trace)
    print(json.dumps(contract_line(report, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
