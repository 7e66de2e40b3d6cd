#!/usr/bin/env python3
"""Overshoot curves R(t), L(t) over one period of grid shifts.

Writes one CSV per pair (columns t,R,L) and prints where each curve peaks.
The daubechies:3 curve is the interesting one: R(0) is already above 1.24 and
the sup over shifts approaches 1.39, which is what a jump placed at an
irrational point actually sees.

Usage: python3 scripts/overshoot_curves.py [--num-t 64] [--level 11] [--outdir curves]
"""

import argparse
import os

import numpy as np

from gibbslab.catalog import resolve_pair
from gibbslab.construct import build_dual
from gibbslab.funcmodel import bspline
from gibbslab.gibbs import overshoot_curve
from gibbslab.quasiproj import QuasiProjectionPair

PAIRS = ["haar", "bspline:2", "bspline:3", "daubechies:2", "daubechies:3"]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--num-t", type=int, default=64)
    ap.add_argument("--level", type=int, default=11)
    ap.add_argument("--outdir", default="curves")
    args = ap.parse_args()
    os.makedirs(args.outdir, exist_ok=True)

    jobs = [(name, resolve_pair(name, args.level)) for name in PAIRS]
    # the constructed order-3 dual should sit flat at R = 1 for every shift
    jobs.append(("b3-dual3", QuasiProjectionPair(bspline(3), build_dual(bspline(3), 3).phi_tilde)))

    print(f"{'pair':14s} {'max R':>10s} {'at t':>8s} {'min L':>10s}")
    for name, pair in jobs:
        ts, R, L = overshoot_curve(pair, num_t=args.num_t, level=args.level)
        path = os.path.join(args.outdir, name.replace(":", "") + ".csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,R,L\n")
            for row in zip(ts, R, L):
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        i = int(np.argmax(R))
        print(f"{name:14s} {R[i]:10.6f} {ts[i]:8.4f} {np.min(L):10.6f}")
    print(f"curves written to {args.outdir}/")


if __name__ == "__main__":
    main()
