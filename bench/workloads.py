"""Request catalogues, seeded request lists and request execution.

Every workload is a closed loop of requests drawn from a finite catalogue of
(operation, pair, parameters) entries.  The request list is built from whole
*blocks*: each block holds the same cost classes in the same numbers, and the
seed fixes the order inside a block and which catalogue variant fills each
slot.  Runs at different seeds therefore do like-for-like work, so medians
and ops/s do not swing with the draw.

``timed_call`` runs one request against the package and returns its latency,
``raw`` (a JSON-like tree the correctness gate compares with the stored
reference) and ``digest`` (the exact bytes of the answer, so a traced and an
untraced run can be checked for identical results).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

WORKLOADS = ("sweep", "refine", "cli_mix")

# Nominal seconds of one block on a 2-core machine at the seed commit.  A run
# executes round(seconds / nominal) whole blocks, so the amount of work (and
# with it the tail percentile and every per-layer count) is fixed for a given
# seed and --seconds, whatever the speed of the code under test.
NOMINAL_BLOCK_S = {"sweep": 8.0, "refine": 5.0, "cli_mix": 7.5}

# -- catalogues ---------------------------------------------------------------

SWEEP_PAIRS = ("bspline:2", "bspline:3", "bspline:4", "daubechies:2", "daubechies:3", "bspline:3+dual3")
SWEEP_LEVELS = (11, 12)
SWEEP_SIZES = (32, 64)

REFINE_MASKS = ("daubechies:2", "daubechies:3", "cdf13", "bspline:3", "bspline:4")
REFINE_LEVELS = (14, 15, 16)

CLI_PAIRS = ("bspline:2", "bspline:3", "daubechies:2", "daubechies:3")
CLI_OFFGRID_X0 = ("1/3", "1/5", "2/7", "1/9", "3/11", "5/13")
CLI_DYADIC_X0 = ("0", "1/4", "3/8", "5/16")
CLI_BANKS = ("haar", "bspline2-tight", "daubechies:3", "mixed13")
CLI_DUAL_PHI = ("bspline:2", "bspline:3", "bspline:4")
CLI_DUAL_ORDERS = (2, 3, 4)
CLI_NUM_T = (8, 12)


def _sweep_key(pair, level, op, size):
    return f"{pair}|L{level}|{op}|{size}"


def _refine_key(mask, level):
    return f"{mask}|L{level}"


def _cli_key(*argv):
    return " ".join(list(argv) + ["--level", "12"])


def catalogue(workload: str) -> list[str]:
    """Every entry a request of this workload can be, as a stable key."""
    if workload == "sweep":
        return [
            _sweep_key(p, lev, op, n)
            for p in SWEEP_PAIRS
            for lev in SWEEP_LEVELS
            for op in ("curve", "point")
            for n in SWEEP_SIZES
        ]
    if workload == "refine":
        return [_refine_key(m, lev) for m in REFINE_MASKS for lev in REFINE_LEVELS]
    if workload == "cli_mix":
        keys = [_cli_key("analyze-pair", "--pair", p) for p in CLI_PAIRS]
        keys += [
            _cli_key("gibbs-point", "--pair", p, "--x0", x)
            for p in CLI_PAIRS
            for x in CLI_OFFGRID_X0 + CLI_DYADIC_X0
        ]
        keys += [
            _cli_key("construct-dual", "--phi", phi, "--order", str(m))
            for phi in CLI_DUAL_PHI
            for m in CLI_DUAL_ORDERS
        ]
        keys += [_cli_key("check-oep", b) for b in CLI_BANKS]
        keys += [_cli_key("expand", "--bank", b, "--n", str(n)) for b in CLI_BANKS for n in (1, 2, 3)]
        keys += [
            _cli_key("overshoot-curve", "--pair", p, "--num-t", str(t)) for p in CLI_PAIRS for t in CLI_NUM_T
        ]
        keys += [_cli_key("bspline-table", "--max-order", str(m)) for m in (3, 4)]
        return keys
    raise ValueError(f"unknown workload {workload!r}")


def _block(workload: str, rng: random.Random, index: int, flips: dict) -> list[str]:
    if workload == "sweep":
        # each pair once as a curve and once as a point verdict, the sizes 32
        # and 64 split between the two; the split alternates from block to
        # block, so two blocks hold every (pair, operation, size) once
        out = []
        for p in SWEEP_PAIRS:
            sizes = SWEEP_SIZES if flips[p] ^ (index % 2) else SWEEP_SIZES[::-1]
            for op, n in zip(("curve", "point"), sizes):
                out.append(_sweep_key(p, rng.choice(SWEEP_LEVELS), op, n))
    elif workload == "refine":
        out = catalogue("refine")
    elif workload == "cli_mix":
        out = [_cli_key("analyze-pair", "--pair", p) for p in CLI_PAIRS]
        for p in CLI_PAIRS:
            out += [_cli_key("gibbs-point", "--pair", p, "--x0", x) for x in CLI_OFFGRID_X0]
            out.append(_cli_key("gibbs-point", "--pair", p, "--x0", rng.choice(CLI_DYADIC_X0)))
        orders = list(CLI_DUAL_ORDERS)
        rng.shuffle(orders)
        out += [_cli_key("construct-dual", "--phi", phi, "--order", str(m)) for phi, m in zip(CLI_DUAL_PHI, orders)]
        out += [_cli_key("check-oep", b) for b in CLI_BANKS]
        out += [_cli_key("expand", "--bank", b, "--n", str(rng.choice((1, 2, 3)))) for b in CLI_BANKS]
        out += [_cli_key("overshoot-curve", "--pair", p, "--num-t", str(rng.choice(CLI_NUM_T))) for p in CLI_PAIRS]
        out += [_cli_key("bspline-table", "--max-order", str(m)) for m in (3, 4)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    out = list(out)
    rng.shuffle(out)
    return out


def blocks_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_BLOCK_S[workload]))


def request_list(workload: str, seed: int, blocks: int) -> list[list[str]]:
    """The seeded request list, as ``blocks`` lists of catalogue keys."""
    rng = random.Random(f"{workload}:{seed}")
    flips = {p: rng.random() < 0.5 for p in SWEEP_PAIRS}
    return [_block(workload, rng, i, flips) for i in range(blocks)]


# Fixed, seed-independent warm-up request of each workload; part of set-up.
WARMUP = {
    "sweep": _sweep_key("daubechies:3", 12, "curve", 32),
    "refine": _refine_key("daubechies:3", 14),
    "cli_mix": _cli_key("analyze-pair", "--pair", "daubechies:3"),
}

# -- execution ------------------------------------------------------------------


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


def _sweep_pair(spec: str, level: int):
    from gibbslab.catalog import resolve_pair
    from gibbslab.construct import build_dual
    from gibbslab.funcmodel import bspline
    from gibbslab.quasiproj import QuasiProjectionPair

    if spec == "bspline:3+dual3":
        return QuasiProjectionPair(bspline(3), build_dual(bspline(3), 3).phi_tilde)
    return resolve_pair(spec, level)


def _run_sweep(key: str):
    from gibbslab.gibbs import gibbs_at_point, overshoot_curve

    spec, lev, op, n = key.split("|")
    pair = _sweep_pair(spec, int(lev[1:]))
    if op == "curve":
        return overshoot_curve(pair, int(n))
    return gibbs_at_point(pair, "irrational", irrational_density=int(n))


def _decode_sweep(result):
    if isinstance(result, tuple):
        _, R, L = result
        raw = {"R": R.tolist(), "L": L.tolist()}
    else:
        raw = result.to_json_dict()
    return raw, _digest(json.dumps(raw, sort_keys=True))


def _refine_function(spec: str, level: int):
    from gibbslab.catalog import bspline_mask, cdf13_mask, resolve_function
    from gibbslab.funcmodel import RefinableFunction

    if spec.startswith("daubechies:"):
        return resolve_function(spec, level)
    if spec == "cdf13":
        return RefinableFunction(cdf13_mask(), level=level)
    return RefinableFunction(bspline_mask(int(spec.split(":")[1])), level=level)


COARSE_LEVEL = 4  # the fingerprint keeps samples on the 2^-4 grid


def _run_refine(key: str):
    from gibbslab.gibbs import identity_lhs, identity_rhs
    from gibbslab.quasiproj import QuasiProjectionPair, check_qp1

    spec, lev = key.split("|")
    f = _refine_function(spec, int(lev[1:]))
    out = {"samples": f.samples(), "cumulative": f.cumulative_samples(), "residual": f.refinement_residual()}
    pair = QuasiProjectionPair(f, f)
    out["qp1"] = check_qp1(pair)
    out["lhs"] = identity_lhs(pair, level=12)
    out["rhs"] = identity_rhs(pair)
    return out


def _decode_refine(out):
    sf, F, lhs, rhs = out["samples"], out["cumulative"], out["lhs"], out["rhs"]
    stride = 2 ** (sf.level - COARSE_LEVEL)
    vals = sf.values[:, 0]
    raw = {
        "samples": {
            "count": int(vals.size),
            "integral": float(vals.sum() * sf.h),
            "max": float(vals.max()),
            "min": float(vals.min()),
            "coarse": vals[::stride].tolist(),
        },
        "cumulative": {"count": int(F.shape[0]), "coarse": F[::stride, 0].tolist()},
        "refinement_residual": out["residual"],
        "qp1": out["qp1"],
        "identity_lhs": lhs,
        "identity_rhs": [rhs.real, rhs.imag],
        "identity_gap": abs(lhs - rhs),
    }
    return raw, _digest(sf.values.tobytes(), F.tobytes(), json.dumps(raw, sort_keys=True))


def _run_cli(key: str):
    import gibbslab.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = gibbslab.cli.main(key.split())
    return rc, out.getvalue(), err.getvalue()


def _decode_cli(result):
    rc, text, etext = result
    raw = {"rc": rc, "stdout": json.loads(text)} if rc == 0 else {"rc": rc, "stderr": etext.strip()}
    return raw, _digest(rc, text.encode(), etext.encode())


_RUN = {"sweep": _run_sweep, "refine": _run_refine, "cli_mix": _run_cli}
_DECODE = {"sweep": _decode_sweep, "refine": _decode_refine, "cli_mix": _decode_cli}


def timed_call(workload: str, key: str, clock):
    """Run one request; return (latency_s, raw, digest, error).

    Only the package call is timed.  Turning its answer into the JSON-like
    tree the gate compares (``raw``; cli stdout is compared parsed) and the
    digest of its exact bytes happens after the clock stops.
    """
    run = _RUN[workload]
    t0 = clock()
    try:
        result = run(key)
    except Exception as exc:  # noqa: BLE001 - a failed request is recorded, the loop goes on
        return clock() - t0, None, _digest(type(exc).__name__, str(exc)), exc
    latency = clock() - t0
    raw, digest = _DECODE[workload](result)
    return latency, raw, digest, None
