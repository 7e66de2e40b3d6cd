"""End-to-end acceptance battery.

Eleven numbered criteria, one per test, each printing a single PASS/FAIL line
(collected again in the terminal summary).  Tolerances are part of the
contract and are asserted exactly as stated; the target numbers come from the
independent derivations frozen into the unit suites.
"""

import dataclasses
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from gibbslab.catalog import pair_fleet, resolve_bank, resolve_framelet, resolve_pair
from gibbslab.construct import build_dual
from gibbslab.framelet import cascade_identity_check, oep_check, truncated_expansion
from gibbslab.funcmodel import PiecewisePoly, bspline
from gibbslab.gibbs import (
    _cycle,
    bracket_second_deriv,
    cluster_set,
    gibbs_at_point,
    identity_lhs,
    identity_rhs,
    overshoot,
)
from gibbslab.quasiproj import (
    GridSpec,
    QuasiProjectionPair,
    accuracy_order,
    apply,
    approximation_rate,
)
from gibbslab.sequences import MatrixSeq, SignLikeSeq, tail_convolve_sums


def clipped_sign():
    return PiecewisePoly(np.array([-3.0, 0.0, 3.0]), np.array([[[-1.0, 0.0]], [[1.0, 0.0]]]))


def gaussian(x):
    return np.exp(-x * x)


def test_criterion_01_identity_fleet(acceptance):
    t0 = time.perf_counter()
    worst = 0.0
    for name, pair in pair_fleet(12):
        gap = abs(identity_lhs(pair, level=12) - identity_rhs(pair))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    assert acceptance(
        1, ok, f"first-moment identity, 7-pair fleet: max gap {worst:.2e} < 1e-6, {elapsed:.2f}s < 10s"
    )


def test_criterion_02_hat_pair_values(acceptance):
    pair = resolve_pair("bspline:2")
    lhs = identity_lhs(pair, level=12)
    br = bracket_second_deriv(pair)
    ok = abs(lhs - 1.0 / 3.0) < 1e-6 and br.hypotheses_met and abs(br.value + 1.0 / 3.0) < 1e-8
    assert acceptance(
        2, ok, f"hat pair: lhs {lhs:.9f} = 1/3 +- 1e-6, bracket {br.value:+.9f} = -1/3 +- 1e-8"
    )


def test_criterion_03_no_overshoot_cases(acceptance):
    pairs = [(f"b{m}", QuasiProjectionPair(bspline(m), bspline(m))) for m in (1, 2, 3, 4)]
    for m in (2, 3, 4):
        dual = build_dual(bspline(m), m).phi_tilde
        pairs.append((f"b{m}-dual", QuasiProjectionPair(bspline(m), dual)))
    worst_r = max(overshoot(p, 0.0, "right", 12) - 1.0 for _, p in pairs)
    worst_l = max(-1.0 - overshoot(p, 0.0, "left", 12) for _, p in pairs)
    ok = worst_r <= 1e-9 and worst_l <= 1e-9
    assert acceptance(
        3,
        ok,
        f"splines m=1..4 and constructed duals: max R(0)-1 = {worst_r:.1e}, "
        f"max -1-L(0) = {worst_l:.1e} (<= 1e-9)",
    )


def test_criterion_04_gibbs_cases(acceptance):
    pair = resolve_pair("daubechies:3", level=12)
    reports = {m: gibbs_at_point(pair, m) for m in (0, "1/3", "irrational")}
    verdicts_ok = all(r.verdict == "gibbs" for r in reports.values())
    r0 = reports[0].R_x0
    pair11 = resolve_pair("daubechies:3", level=11)
    drift = abs(overshoot(pair11, 0.0, "right", 11) - overshoot(pair, 0.0, "right", 12))
    ok = r0 > 1.01 and verdicts_ok and drift <= 1e-3
    assert acceptance(
        4,
        ok,
        f"d3: R(0) = {r0:.6f} > 1.01, gibbs at 0, 1/3, irrational: {verdicts_ok}, "
        f"level 11 vs 12 drift {drift:.1e} <= 1e-3",
    )


def test_criterion_05_dual_construction_pipeline(acceptance):
    ok = True
    details = []
    for m in (2, 3, 4):
        dc = build_dual(bspline(m), m)
        pair = QuasiProjectionPair(bspline(m), dc.phi_tilde)
        acc = accuracy_order(pair)
        res = max(dc.diagnostics["moment_residuals"])
        verdict = gibbs_at_point(pair, 0).verdict
        ok = ok and acc == m and res < 1e-10 and verdict == "no-gibbs"
        details.append(f"m={m}: order {acc}, moments {res:.0e}, {verdict}")
    dc2 = build_dual(bspline(2), 2)
    exact2 = (
        np.array_equal(dc2.phi_tilde.breakpoints, [0.0, 1.0, 2.0])
        and np.array_equal(dc2.phi_tilde.coeffs, [[[0.5]], [[0.5]]])
    )
    ok = ok and exact2
    assert acceptance(5, ok, "; ".join(details) + f"; m=2 dual exact halves: {exact2}")


def test_criterion_06_expansion_equals_projection(acceptance):
    grid = GridSpec(10, -2.0, 2.0)
    ok = True
    details = []
    for name in ("haar", "bspline2-tight"):
        df = resolve_framelet(name)
        sup = 0.0
        for f in (clipped_sign(), gaussian):
            for n in range(1, 7):
                te = truncated_expansion(df, f, n, grid)
                qp = apply(df.mathring_pair, f, n, 0.0, grid)
                sup = max(sup, float(np.max(np.abs(te.values - qp.values))))
        casc = cascade_identity_check(df, gaussian, clipped_sign())
        ok = ok and sup < 1e-6 and casc < 1e-9
        details.append(f"{name}: sup {sup:.1e}, cascade {casc:.1e}")
    assert acceptance(6, ok, "expansion vs projection, n=1..6: " + "; ".join(details))


def test_criterion_07_filter_bank_checker(acceptance):
    bank = resolve_bank("haar")
    base = oep_check(bank)
    clean = max(base["residual0"], base["residual_pi"]) < 1e-13
    weakest = math.inf
    for field in ("a", "a_tilde", "b", "b_tilde"):
        seq = getattr(bank, field)
        for i in range(seq.entries.shape[0]):
            ent = seq.entries.copy()
            ent[i, 0, 0] += 1e-3
            pert = dataclasses.replace(bank, **{field: MatrixSeq(seq.offset, ent)})
            res = oep_check(pert)
            weakest = min(weakest, max(res["residual0"], res["residual_pi"]))
    ok = clean and weakest > 1e-4
    assert acceptance(
        7,
        ok,
        f"haar bank residuals {base['residual0']:.1e}/{base['residual_pi']:.1e} < 1e-13; "
        f"weakest 1e-3 single-coefficient perturbation detected at {weakest:.1e} > 1e-4",
    )


def test_criterion_08_cluster_sets_exact(acceptance):
    c38 = cluster_set(Fraction(3, 8))
    c13 = cluster_set(Fraction(1, 3))
    c15 = cluster_set(Fraction(1, 5))
    sets_ok = (
        c38 == [Fraction(0)]
        and set(c13) == {Fraction(1, 3), Fraction(2, 3)}
        and len(c15) == 4
        and set(c15) == {Fraction(1, 5), Fraction(2, 5), Fraction(3, 5), Fraction(4, 5)}
    )
    t0 = time.perf_counter()
    # 2^n x0 mod 1 past the pre-period (the power of 2 in the denominator, at
    # most 3 here) is entry n - pre mod length of the cycle, which starts there
    far = {}
    for x0 in (Fraction(3, 8), Fraction(1, 3), Fraction(1, 5)):
        cycle = list(_cycle(x0))
        pre = (x0.denominator & -x0.denominator).bit_length() - 1
        far[x0] = cycle[(10**6 - pre) % len(cycle)]
    elapsed = time.perf_counter() - t0
    orbit_ok = (
        far[Fraction(3, 8)] == Fraction(0)
        and far[Fraction(1, 3)] == Fraction(1, 3)  # 2^1e6 = 1 mod 3
        and far[Fraction(1, 5)] == Fraction(1, 5)  # 1e6 = 0 mod 4, the cycle length
        and all(isinstance(v, Fraction) for v in far.values())
        and elapsed < 1.0
    )
    ok = sets_ok and orbit_ok
    assert acceptance(
        8, ok, f"cluster sets exact: {sets_ok}; 10^6-step orbit algebraic: {orbit_ok} ({elapsed:.3f}s)"
    )


def test_criterion_09_tail_sum_identities(acceptance):
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for _ in range(1000):
        pdim, rdim, sdim = (int(v) for v in rng.integers(1, 3, size=3))
        n = int(rng.integers(2, 7))
        ent = rng.normal(size=(n, rdim, sdim)) + 1j * rng.normal(size=(n, rdim, sdim))
        ent -= ent.mean(axis=0, keepdims=True)  # zero symbol at the origin
        d = MatrixSeq(int(rng.integers(-3, 3)), ent)
        lim = rng.normal(size=(pdim, rdim)) + 1j * rng.normal(size=(pdim, rdim))
        if rng.random() < 0.7:
            fn = int(rng.integers(1, 4))
            fin = MatrixSeq(int(rng.integers(-2, 2)), rng.normal(size=(fn, pdim, rdim)))
        else:
            fin = MatrixSeq.zero(pdim, rdim)
        ts = tail_convolve_sums(SignLikeSeq(lim, fin), d)
        worst = max(
            worst,
            float(np.max(np.abs(ts.sum0 - ts.closed0))),
            float(np.max(np.abs(ts.sum1 - ts.closed1))),
        )
    ok = worst < 1e-10
    assert acceptance(9, ok, f"tail sums, 1000 random cases: worst closed-form gap {worst:.1e} < 1e-10")


def test_criterion_10_decay_slopes(acceptance):
    f = lambda x: np.exp(-4.0 * (x - 0.3) ** 2)
    rate1 = approximation_rate(resolve_pair("bspline:1"), f, range(2, 8), level=10)
    rate3 = approximation_rate(resolve_pair("daubechies:3", level=12), f, range(2, 8), level=10)
    ok = abs(rate1 - 1.0) <= 0.3 and abs(rate3 - 3.0) <= 0.3
    assert acceptance(
        10, ok, f"L2 decay slopes n=2..7: haar-spline {rate1:.3f} ~ 1, d3 {rate3:.3f} ~ 3 (+- 0.3)"
    )


def test_criterion_11_shift_consistency(acceptance):
    worst = 0.0
    for m in (2, 3):
        pair = resolve_pair(f"bspline:{m}")
        for c in (0.0, 0.25, 1.0 / 3.0):
            direct = identity_lhs(pair, level=12, t=c)
            shifted = identity_lhs(pair.shifted(c), level=12)
            worst = max(worst, abs(direct - shifted))
    ok = worst < 1e-8
    assert acceptance(
        11, ok, f"shift routes, c in {{0, 1/4, 1/3}} on b2/b3: max gap {worst:.1e} < 1e-8"
    )
