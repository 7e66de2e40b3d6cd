"""Recording of the reference answers, and checks of the harness itself.

``record`` runs every catalogue entry once and writes bench/reference/*.json.
``main`` checks that

  * the same seed gives the same request list, and every request has a
    recorded reference;
  * a real answer passes the gate, and the same answer with any one number
    moved by 1e-6 fails it;
  * every layer records at least one span on each workload that names it,
    and traced and untraced answers are identical.
"""

from __future__ import annotations

import copy
import json
import random
import sys
import time
from pathlib import Path

import gate
import workloads
from tracer import LAYER_WORKLOADS, Tracer, layer_table
from worker import Loop, git_commit, load_reference, run_traced, source_digest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _setup_paths():
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))


def record() -> int:
    _setup_paths()
    for wl in workloads.WORKLOADS:
        entries = {}
        for key in workloads.catalogue(wl):
            _, raw, _, err = workloads.timed_call(wl, key, time.perf_counter)
            if gate.is_known_defect(wl, key, raw, err):
                entries[key] = {"known_defect": True, "refusal": str(err) if err else raw["stderr"]}
                continue
            if err is not None:
                print(f"error: {wl} {key} raised {type(err).__name__}: {err}", file=sys.stderr)
                return 1
            problems = gate.route_checks(wl, key, raw)
            if problems:
                print(f"error: {wl} {key} fails its two-route checks: {problems}", file=sys.stderr)
                return 1
            entries[key] = {"answer": gate.fingerprint(raw)}
        meta = {
            "workload": wl,
            "git_commit": git_commit(),
            "source_digest": source_digest(),
            "tolerance": {"atol": gate.ATOL, "rtol": gate.RTOL, "block_allowance": gate.BLOCK_ALLOWANCE},
        }
        path = BENCH / "reference" / f"{wl}.json"
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"meta": ' + json.dumps(meta, sort_keys=True) + ',\n "entries": {\n')
            fh.write(",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in entries.items()))
            fh.write("\n }\n}\n")
        print(f"recorded {len(entries)} entries for {wl} -> {path.relative_to(ROOT)}")
    return 0


def _float_paths(x, path=()):
    if isinstance(x, dict):
        for k, v in x.items():
            yield from _float_paths(v, path + (k,))
    elif isinstance(x, list):
        for i, v in enumerate(x):
            yield from _float_paths(v, path + (i,))
    elif isinstance(x, float):
        yield path


def _perturbed(raw, path, delta):
    out = copy.deepcopy(raw)
    node = out
    for p in path[:-1]:
        node = node[p]
    node[path[-1]] += delta * max(1.0, abs(node[path[-1]]))
    return out


def check_request_lists(failures: list) -> None:
    for wl in workloads.WORKLOADS:
        reference = load_reference(wl)
        lists = []
        for seed in range(5):
            a = workloads.request_list(wl, seed, 3)
            if a != workloads.request_list(wl, seed, 3):
                failures.append(f"{wl}: seed {seed} gave two different request lists")
            missing = {k for block in a for k in block} - set(reference)
            if missing:
                failures.append(f"{wl}: requests without a reference: {sorted(missing)[:3]}")
            lists.append(a)
        if wl != "refine" and all(x == lists[0] for x in lists):
            failures.append(f"{wl}: every seed gave the same request list")
        if sorted(reference) != sorted(workloads.catalogue(wl)):
            failures.append(f"{wl}: the recorded references do not match the catalogue")


def check_perturbation(failures: list) -> None:
    probes = {
        "sweep": [workloads.WARMUP["sweep"], "daubechies:3|L12|point|32"],
        "refine": [workloads.WARMUP["refine"]],
        "cli_mix": [workloads.WARMUP["cli_mix"], "expand --bank haar --n 1 --level 12",
                    "gibbs-point --pair daubechies:3 --x0 5/13 --level 12"],
    }
    rng = random.Random(0)
    for wl, keys in probes.items():
        reference = load_reference(wl)
        for key in keys:
            _, raw, _, err = workloads.timed_call(wl, key, time.perf_counter)
            verdict, reasons = gate.judge(wl, key, raw, err, reference)
            if verdict != "ok":
                failures.append(f"{wl} {key}: unperturbed answer judged {verdict}: {reasons[:2]}")
                continue
            paths = list(_float_paths(raw))
            if len(paths) > 64:
                paths = rng.sample(paths, 64)
            for path in paths:
                bad = _perturbed(raw, path, 1e-6)
                if gate.judge(wl, key, bad, None, reference)[0] != "failed":
                    failures.append(f"{wl} {key}: a 1e-6 change at {path} passed the gate")
            print(f"  {wl:8s} {key}: {len(paths)} perturbed answers, each rejected")


def check_layers(failures: list) -> None:
    for wl in workloads.WORKLOADS:
        block = workloads.request_list(wl, 0, 1)[0]
        plain, traced = Loop(wl, load_reference(wl)), Loop(wl, load_reference(wl))
        plain.run_block(block)
        tracer = Tracer()
        run_traced(traced, block, tracer)
        if plain.digests != traced.digests:
            failures.append(f"{wl}: traced and untraced answers differ")
        layers = layer_table(tracer, traced.windows)["layers"]
        for layer, names in LAYER_WORKLOADS.items():
            if wl in names and layers[layer]["calls"] == 0:
                failures.append(f"{wl}: layer {layer} recorded no span")
        print(f"  {wl:8s} one block traced: {len(tracer.spans)} spans, "
              f"{sum(1 for r in layers.values() if r['calls'])} of {len(layers)} layers reached")


def main() -> int:
    _setup_paths()
    failures = []
    print("request lists")
    check_request_lists(failures)
    print("perturbation")
    check_perturbation(failures)
    print("layer coverage")
    check_layers(failures)
    for f in failures:
        print(f"FAIL: {f}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0
