"""Tests for overshoot analysis.

Frozen scalars below were derived by hand from moment arithmetic
(kappa_j of splines via cumulative integrals at integers; symbol derivatives
from mean/second-moment values) and double-checked against quadrature before
freezing.  The two sides of the first-moment identity come from genuinely
independent code paths: moments/kappa vs direct quadrature of the expansion
error, so their agreement is a strong end-to-end check.
"""

import dataclasses
import functools
import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gibbslab import gibbs, quasiproj
from gibbslab.catalog import cdf13_mask, pair_fleet, resolve_framelet, resolve_pair
from gibbslab.construct import build_dual, verify_gibbs_free
from gibbslab.errors import ConvergenceError, PreconditionError
from gibbslab.framelet import framelet_gibbs_verdict
from gibbslab.funcmodel import (
    PiecewisePoly,
    RefinableFunction,
    SampledFunction,
    bspline,
    dyadic_grid,
    function_from_json_dict,
    function_to_json_dict,
)
from gibbslab.gibbs import (
    FULL_INTERVAL,
    GibbsReport,
    bracket_second_deriv,
    cluster_set,
    gibbs_at_point,
    identity_lhs,
    identity_rhs,
    kappa,
    nonneg_sufficient,
    overshoot,
    overshoot_curve,
)
from gibbslab.quasiproj import (
    GridSpec,
    QuasiProjectionPair,
    Sgn,
    apply,
    approximation_rate,
    check_qp1,
    kernel_criterion,
)
from gibbslab.sequences import MatrixSeq

from strategies import spline_like_mask


def piecewise_constant_dual2():
    # the order-2 flat dual: 1/2 on (0,1], 1/2 on [1,2]
    return PiecewisePoly([0.0, 1.0, 2.0], [[[0.5]], [[0.5]]])


@pytest.fixture(scope="module")
def haar():
    return resolve_pair("haar")


@pytest.fixture(scope="module")
def b2():
    return resolve_pair("bspline:2")


@pytest.fixture(scope="module")
def b3():
    return resolve_pair("bspline:3")


@pytest.fixture(scope="module")
def d2():
    return resolve_pair("daubechies:2")


@pytest.fixture(scope="module")
def d3():
    return resolve_pair("daubechies:3")


# -- kappa ---------------------------------------------------------------------


def test_kappa_frozen_values():
    assert kappa(bspline(1), 1)[0] == pytest.approx(0.0, abs=1e-12)
    assert kappa(piecewise_constant_dual2(), 1)[0] == pytest.approx(-0.5, abs=1e-12)
    assert kappa(bspline(2), 2)[0] == pytest.approx(0.5, abs=1e-12)
    assert kappa(bspline(3), 1)[0] == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_kappa_zero_is_total_mass(m):
    assert kappa(bspline(m), 0)[0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_kappa_one_against_mean(m):
    # when the integer shifts sum to one, integral x sum phi(x-n) dx = 1/2
    # over a period, so kappa_1 = 1/2 - mean
    f = bspline(m)
    assert kappa(f, 1)[0] == pytest.approx(0.5 - f.moment(1)[0], abs=1e-12)


def test_kappa_rejects_negative_order():
    with pytest.raises(PreconditionError):
        kappa(bspline(2), -1)


# -- the first-moment identity ----------------------------------------------------


def test_identity_rhs_frozen(haar, b2, b3):
    assert identity_rhs(haar) == pytest.approx(0.0, abs=1e-12)
    assert identity_rhs(b2) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert identity_rhs(b3) == pytest.approx(0.5, abs=1e-12)


def test_identity_rhs_flat_dual(b2):
    pair = QuasiProjectionPair(bspline(2), piecewise_constant_dual2())
    assert identity_rhs(pair) == pytest.approx(1.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("spec", ["bspline:2", "daubechies:3"])
def test_one_qp1_synthesis_per_pair(monkeypatch, spec):
    """``check_qp1``, ``identity_rhs`` and ``gibbs_at_point`` read one
    constant-reproduction report kept on the pair: its level-10 constancy sum
    (2^10 points of the level-10 table) runs once, and a new pair runs its
    own."""
    calls = []
    real = quasiproj._synthesis

    def spy(table, g0, count, stride, klo, coeff):
        if table[1].shape[1] == 2**10 and count == 2**10:
            calls.append(coeff.shape)
        return real(table, g0, count, stride, klo, coeff)

    monkeypatch.setattr(quasiproj, "_synthesis", spy)
    pair = resolve_pair(spec)
    report = check_qp1(pair)
    identity_rhs(pair)
    gibbs_at_point(pair, "1/4")
    assert check_qp1(pair) == report and report["ok"]
    assert calls == [(1, 1)]
    check_qp1(resolve_pair(spec))
    assert len(calls) == 2


def test_identity_rhs_needs_constant_reproduction():
    bad = QuasiProjectionPair(bspline(2), 2.0 * bspline(2))
    with pytest.raises(PreconditionError):
        identity_rhs(bad)


def test_identity_lhs_frozen(haar, b2, d3):
    assert abs(identity_lhs(haar)) < 1e-10
    assert identity_lhs(b2) == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert abs(identity_lhs(d3)) < 1e-5


@pytest.mark.parametrize("spec", ["haar", "bspline:2", "bspline:3", "daubechies:2"])
def test_identity_two_sides_agree(spec):
    pair = resolve_pair(spec)
    assert abs(identity_lhs(pair) - identity_rhs(pair)) < 1e-6


def test_identity_with_shifted_dual(b2):
    """Translating the dual changes both sides consistently."""
    pair = QuasiProjectionPair(bspline(2), bspline(2).shift(1.0))
    assert abs(identity_lhs(pair) - identity_rhs(pair)) < 1e-6
    assert abs(identity_rhs(pair) - identity_rhs(b2)) > 0.1


def test_identity_lhs_with_shift_parameter(b2):
    """identity_lhs at shift t matches the shifted-pair construction."""
    c = 0.25
    direct = identity_lhs(b2, t=c)
    via_pair = identity_lhs(b2.shifted(c))
    assert abs(direct - via_pair) < 1e-8


@pytest.fixture(scope="module")
def fleet():
    return dict(pair_fleet())


@pytest.mark.parametrize(
    "name,digest",
    [
        ("b1,b1", "249d13df24f7d36e40413cca2853c5ceb024357c90b4229b8cc2af936506b237"),
        ("b2,b2", "3710e39768a9ee3e182ef6146294015774a2b503e1f296e550e4ac72795f74de"),
        ("b3,b3", "77caf5d6e768b4bcf15fe9b30839c6c72b925e889872487a01b3f393b876eac0"),
        ("b2,dual2", "fbc45e65e34ff38e2dca413ce1a714474acec2334bc61bc12b8e667888854a53"),
        ("b3,dual3", "d723c054d45e364f38b131ba9948142063d3ae2bd421875da9b6fc3b2910d230"),
        ("d2,d2", "d9a2399e6085815ad8f993331d4f61e01e924dbac382001fc3b56d45aea18c30"),
        ("d3,d3", "e1a9d4c566d50539434f9e06e1b789ea2037cd50423ff3f9f9253b8716930026"),
    ],
)
def test_identity_lhs_bytes_are_pinned(fleet, name, digest):
    """sha256 of ``repr(identity_lhs)`` at levels 10 and 12 and shifts 0, 1/4,
    1/3 and -0.7, recorded when the integrand was ``xs * (sgn(xs) - Q sgn)``
    with the grid from ``SampledFunction.xs`` and the sign from ``Sgn(0.0)``."""
    h = hashlib.sha256()
    for level in (10, 12):
        for t in (0.0, 0.25, 1.0 / 3.0, -0.7):
            h.update(repr(identity_lhs(fleet[name], level, t)).encode())
    assert h.hexdigest() == digest


# -- the symbol bracket ------------------------------------------------------------


def test_bracket_frozen_values(haar, b2, d3):
    res = bracket_second_deriv(b2)
    assert res.value == pytest.approx(-1.0 / 3.0, abs=1e-8)
    assert res.hypotheses_met

    res = bracket_second_deriv(haar)
    assert res.value == pytest.approx(-1.0 / 6.0, abs=1e-8)
    assert not res.hypotheses_met  # indicator pair stops at order 1

    res = bracket_second_deriv(d3)
    assert abs(res.value) < 1e-8
    assert res.hypotheses_met


def test_hypotheses_met_equals_the_grid_check(order_pairs, grid_route_pairs):
    """The exact flag (the swapped pair's accuracy order is 2) reads what the
    level-9 grid read: both degree-0 and degree-1 residuals of the swapped
    pair below 1e-8."""
    for name, pair in order_pairs + [(name, pair) for name, pair, _ in grid_route_pairs]:
        grid = quasiproj.poly_reproduction(pair.swapped(), 2, GridSpec(9))
        assert bracket_second_deriv(pair).hypotheses_met == all(r < 1e-8 for r in grid.values()), name


def test_bracket_matches_identity_when_hypotheses_hold(b2, b3, d2):
    for pair in (b2, b3, d2):
        res = bracket_second_deriv(pair)
        assert res.hypotheses_met
        assert identity_lhs(pair) == pytest.approx(-res.value, abs=1e-6)


def test_bracket_flat_dual_hypotheses_fail(b2):
    # swapping roles of the hat and the flat dual loses degree-1 reproduction
    pair = QuasiProjectionPair(bspline(2), piecewise_constant_dual2())
    res = bracket_second_deriv(pair)
    assert not res.hypotheses_met
    assert res.value == pytest.approx(-0.5, abs=1e-10)


# -- overshoot functions -----------------------------------------------------------


def test_overshoot_nonnegative_pairs(haar, b3):
    for pair in (haar, b3):
        assert overshoot(pair, 0.0, "right") == pytest.approx(1.0, abs=1e-9)
        assert overshoot(pair, 0.0, "left") == pytest.approx(-1.0, abs=1e-9)


def test_overshoot_daubechies(d3):
    assert overshoot(d3, 0.0, "right") > 1.01


def test_overshoot_rejects_bad_side(b2):
    with pytest.raises(PreconditionError):
        overshoot(b2, 0.0, "up")


@settings(max_examples=12, deadline=None)
@given(t=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_overshoot_bounds_always_hold(t):
    pair = resolve_pair("bspline:2")
    assert overshoot(pair, t, "right", 9) >= 1.0 - 1e-9
    assert overshoot(pair, t, "left", 9) <= -1.0 + 1e-9


def test_overshoot_curve_shapes(d3):
    ts, R, L = overshoot_curve(d3, num_t=8, level=9)
    assert ts.shape == R.shape == L.shape == (8,)
    assert np.all(R >= 1.0 - 1e-9) and np.all(L <= -1.0 + 1e-9)
    assert R[0] == pytest.approx(overshoot(d3, 0.0, "right", 9))


def _b3_with_dual3():
    return QuasiProjectionPair(bspline(3), build_dual(bspline(3), 3).phi_tilde)


@pytest.mark.parametrize(
    "make,digest",
    [
        (lambda: resolve_pair("daubechies:3"), "9adb72ffed34903760bdca7b5f11645ae8fd2143ad3825d7c412f632ae85aa01"),
        (_b3_with_dual3, "5afde5c6796eeb28f7f6b1613abdf6bbd9c4f57318708f953624d11598ad129c"),
    ],
    ids=["daubechies:3", "bspline:3+dual3"],
)
def test_overshoot_curve_keeps_its_bytes(make, digest):
    """sha256 of the R and L bytes of a 16-shift curve at level 12, recorded
    with the row-by-row synthesis kernel (numpy 2.4 on x86-64)."""
    _, R, L = overshoot_curve(make(), 16, 12)
    assert hashlib.sha256(R.tobytes() + L.tobytes()).hexdigest() == digest


def test_irrational_report_keeps_its_bytes(d3):
    """sha256 of the sorted JSON of a 32-shift irrational verdict, recorded
    with the row-by-row synthesis kernel (numpy 2.4 on x86-64)."""
    rep = gibbs_at_point(d3, "irrational", irrational_density=32)
    text = json.dumps(rep.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f6448d79e1ff4f1710d41c54903e7cbb219d47e0b401ebe78096558efe12103a"
    )


@pytest.mark.parametrize(
    "spec,level,digest",
    [
        ("bspline:2", 11, "c8beb1c908a56d6a4cf3141888f9962ab0f081a3e66e49b86b3ad49b4e643e7a"),
        ("bspline:2", 12, "c8beb1c908a56d6a4cf3141888f9962ab0f081a3e66e49b86b3ad49b4e643e7a"),
        ("bspline:4", 11, "c8beb1c908a56d6a4cf3141888f9962ab0f081a3e66e49b86b3ad49b4e643e7a"),
        ("bspline:4", 12, "c8beb1c908a56d6a4cf3141888f9962ab0f081a3e66e49b86b3ad49b4e643e7a"),
        ("daubechies:2", 11, "18687147a9977d341bc87e6d75776778e1b563598a287be00404b6e140ab15b6"),
        ("daubechies:2", 12, "18687147a9977d341bc87e6d75776778e1b563598a287be00404b6e140ab15b6"),
    ],
)
def test_level_curves_keep_their_bytes(spec, level, digest):
    """sha256 of the R and L bytes of a 64-shift curve of the pair at
    ``level``, swept at ``level``; recorded with one expansion per shift
    (numpy 2.4 on x86-64).  The B-spline self pairs read exactly +-1."""
    _, R, L = overshoot_curve(resolve_pair(spec, level), 64, level)
    assert hashlib.sha256(R.tobytes() + L.tobytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "spec,x0,digest",
    [
        ("daubechies:3", "1/3", "6990f70cafd91706b9f6f98a25fabb440482d4d88fe95ad3c6eb491409d5cd25"),
        ("bspline:3", "5/16", "a1986c22ac7f1bc222c602d84be0163dac0d27344f2c3ca0332b2a63926e9667"),
    ],
)
def test_point_reports_keep_their_bytes(spec, x0, digest):
    """sha256 of the sorted JSON of a verdict whose shifts all take the direct
    route (two off the grid; one alone), recorded with one expansion per shift
    (numpy 2.4 on x86-64)."""
    text = json.dumps(gibbs_at_point(resolve_pair(spec), x0).to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# -- the batched sweep against the direct route ---------------------------------------


def _sampled_json_dual3():
    """The order-3 B-spline dual as level-8 samples, through its JSON form."""
    dual = build_dual(bspline(3), 3).phi_tilde
    i0, xs = dyadic_grid(*dual.support, 8)
    sf = SampledFunction(8, i0, dual.evaluate(xs))
    return function_from_json_dict(json.loads(json.dumps(function_to_json_dict(sf))))


SWEEP_PAIRS = {
    **{f"b{m}+dual{m}": lambda m=m: QuasiProjectionPair(bspline(m), build_dual(bspline(m), m).phi_tilde) for m in (2, 3, 4)},
    "b3+sampled-dual3": lambda: QuasiProjectionPair(bspline(3), _sampled_json_dual3()),
    "daubechies:3": lambda: resolve_pair("daubechies:3"),
    # a Haar primal against the cdf13 dual: the row that holds x = 0 rarely
    # has its extreme on the side of x that a piece keeps
    "haar+cdf13": lambda: QuasiProjectionPair(bspline(1), RefinableFunction(cdf13_mask())),
    # duals whose c_{-1} = mass - 2 F(1) peaks (3) or dips (-5) at t = 0, so
    # the sample at x = 0, which belongs to neither side, beats every x > 0
    # (every x < 0) next to it
    "spike-right": lambda: QuasiProjectionPair(bspline(2), PiecewisePoly([0.0, 1.0, 2.0], [[[-1.0]], [[2.0]]])),
    "spike-left": lambda: QuasiProjectionPair(bspline(2), PiecewisePoly([0.0, 1.0, 2.0], [[[3.0]], [[-2.0]]])),
}


@functools.cache
def _sweep_pair(name):
    return SWEEP_PAIRS[name]()


@st.composite
def _sweep_shifts(draw, level):
    """Distinct shifts on the 2^-level grid within one period either side of 0,
    maybe 0 itself, maybe shifts off the grid for the direct route and maybe
    grid shifts a period or more away, which join the batch."""
    n = 2**level
    on = draw(st.lists(st.integers(1 - n, n - 1).filter(bool), min_size=2, max_size=24, unique=True))
    shifts = [j / n for j in on] + ([0.0] if draw(st.booleans()) else [])
    shifts += draw(st.lists(st.sampled_from([1 / 3, 2 / 3, 0.2, -0.4, 1.0, 1.5, -1.25]), max_size=3, unique=True))
    return draw(st.permutations(shifts))


@settings(max_examples=60, deadline=None)
@given(source=st.sampled_from(sorted(SWEEP_PAIRS) + ["mask-r1", "mask-r2"]), level=st.integers(4, 12), data=st.data())
def test_batched_sweep_equals_the_direct_route_bitwise(source, level, data):
    """Every R and L of ``_sweep`` has the bits of the one-shift expansion
    ``_overshoot_both``, for random accepted masks (r = 1, 2), B-spline pairs
    with constructed duals, a JSON sampled dual, duals that peak at x = 0 and
    a Haar primal whose x = 0 row pieces miss their row's extreme;
    sets of up to 28 shifts span many chunks of the batched sum."""
    if source.startswith("mask"):
        mask, norm = data.draw(spline_like_mask(int(source[-1])))
        f = RefinableFunction(mask, norm, level)
        try:
            f.samples()
        except (ConvergenceError, PreconditionError):
            assume(False)
        pair = QuasiProjectionPair(f, f)
    else:
        pair = _sweep_pair(source)
    shifts = data.draw(_sweep_shifts(level))
    R, L = gibbs._sweep(pair, shifts, level)
    for t, r, l in zip(shifts, R, L):
        assert np.array([r, l]).tobytes() == np.array(gibbs._overshoot_both(pair, t, level)).tobytes(), t


def test_x0_belongs_to_neither_side():
    """At t = 0 the spike duals put their extreme on x = 0 itself, and the
    sweep leaves it out, as the direct route does."""
    up, down = (SWEEP_PAIRS[name]() for name in ("spike-right", "spike-left"))
    _, R, _ = overshoot_curve(up, 4, 12)
    _, _, L = overshoot_curve(down, 4, 12)
    assert R[0] == 3.0 - 2.0**-11 and L[0] == -5.0 + 2.0**-10


def test_a_sweep_expands_one_shift_directly(monkeypatch, d3):
    """A curve or an irrational sweep expands only its worst shift on its
    own; off-grid shifts and a lone shift each take the direct route."""
    calls = []
    real = gibbs._overshoot_both
    monkeypatch.setattr(gibbs, "_overshoot_both", lambda pair, t, level: calls.append(t) or real(pair, t, level))
    ts, R, L = overshoot_curve(d3, 32)
    assert calls == [ts[gibbs._worst(R, L)]]
    calls.clear()
    rep = gibbs_at_point(d3, "irrational", irrational_density=32)
    assert calls == [rep.worst_shift]
    calls.clear()
    gibbs_at_point(d3, Fraction(1, 3))
    assert calls == [1 / 3, 2 / 3]
    calls.clear()
    overshoot_curve(d3, 1)
    assert calls == [0.0]


def test_grid_shifts_a_period_or_more_from_zero_are_batched(monkeypatch, d3):
    """Every shift reads the one window, so on-grid shifts with |t| >= 1 join
    the batch: the worst one alone is expanded directly, and every shift has
    the bits of its own expansion."""
    shifts = [-1.25, 1.0, 1.5, 2.0]
    calls = []
    real = gibbs._overshoot_both
    monkeypatch.setattr(gibbs, "_overshoot_both", lambda pair, t, level: calls.append(t) or real(pair, t, level))
    R, L = gibbs._sweep(d3, shifts, 12)
    assert calls == [shifts[gibbs._worst(R, L)]]
    direct = np.array([real(d3, t, 12) for t in shifts])
    assert np.array([R, L]).tobytes() == direct.T.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    source=st.sampled_from(["b3+dual3", "b3+sampled-dual3", "daubechies:3", "mask-r1", "mask-r2"]),
    level=st.integers(4, 10),
    t=st.sampled_from([0.0, 0.25, 1 / 3, 2 / 3, -0.4, 1.0, 1.5, -1.25]),
    data=st.data(),
)
def test_overshoot_does_not_depend_on_how_far_the_window_reaches(source, level, t, data):
    """R(t) and L(t) read on windows 1 and 2 past ``window_radius`` 2N + 3
    have the bits of ``_overshoot_both`` on the default window: past the
    interaction zone every row repeats one already inside it, whatever the
    shift."""
    if source.startswith("mask"):
        mask, norm = data.draw(spline_like_mask(int(source[-1])))
        f = RefinableFunction(mask, norm, level)
        try:
            f.samples()
        except (ConvergenceError, PreconditionError):
            assume(False)
        pair = QuasiProjectionPair(f, f)
    else:
        pair = _sweep_pair(source)
    want = np.array(gibbs._overshoot_both(pair, t, level)).tobytes()
    for margin in (1, 2):
        W = 2 * pair.support_bound + 3 + margin
        sf = apply(pair, Sgn(0.0), 0, t, GridSpec(level, -W, W))
        zero = -sf.start
        v = sf.values[:, 0]
        got = np.array([max(np.max(v[zero + 1 :]), 1.0), min(np.min(v[:zero]), -1.0)])
        assert got.tobytes() == want, (t, margin)


def test_a_pair_refuses_assignment(b3):
    """The support bound and the window follow from the pair's members and
    cannot be set, nor can a member."""
    pair = QuasiProjectionPair(b3.phi, b3.phi_tilde)
    for name, value in (("support_bound", 4), ("window_radius", 11), ("phi", b3.phi_tilde)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(pair, name, value)
    assert (pair.support_bound, pair.window_radius, pair.phi) == (3, 9, b3.phi)


def test_a_non_finite_shift_gets_the_refusal_of_apply(b2):
    """``overshoot`` and ``identity_lhs`` check no shift of their own."""
    for call in (lambda: overshoot(b2, math.nan), lambda: identity_lhs(b2, 12, math.nan)):
        with pytest.raises(PreconditionError, match="shift t and jump x0 must be finite"):
            call()


def test_a_batched_sweep_that_disagrees_with_the_direct_route_raises(monkeypatch, d3):
    real = gibbs._sweep_on_grid
    monkeypatch.setattr(gibbs, "_sweep_on_grid", lambda *args: (np.nextafter(real(*args)[0], 2.0), real(*args)[1]))
    with pytest.raises(ConvergenceError, match=r"at shift 0\.25 the batched sweep"):
        overshoot_curve(d3, 8)


# -- doubling dynamics --------------------------------------------------------------


def test_cluster_set_dyadic_collapses():
    assert cluster_set(Fraction(3, 8)) == [Fraction(0)]
    assert cluster_set(0) == [Fraction(0)]
    assert cluster_set(Fraction(7, 16)) == [Fraction(0)]


def test_cluster_set_known_cycles():
    assert cluster_set(Fraction(1, 3)) == [Fraction(1, 3), Fraction(2, 3)]
    assert cluster_set(Fraction(1, 5)) == [
        Fraction(1, 5),
        Fraction(2, 5),
        Fraction(4, 5),
        Fraction(3, 5),
    ]
    # the power-of-two factor only delays entry into the same cycle
    assert set(cluster_set(Fraction(7, 12))) == {Fraction(1, 3), Fraction(2, 3)}


@pytest.mark.parametrize("x0", ["abc", math.nan, "1/0"])
def test_cluster_set_refuses_what_is_not_a_rational(x0):
    with pytest.raises(PreconditionError, match="malformed rational point"):
        cluster_set(x0)


def test_gibbs_at_point_reads_x0_before_checking_the_pair():
    pair = resolve_pair("bspline:2")
    with pytest.raises(PreconditionError, match="malformed rational point '3/x'"):
        gibbs_at_point(pair, "3/x")
    assert "_qp1_residuals" not in vars(pair)


@settings(max_examples=60, deadline=None)
@given(p=st.integers(min_value=0, max_value=10**6), q=st.integers(min_value=1, max_value=997))
def test_cluster_set_is_doubling_invariant(p, q):
    x0 = Fraction(p, q)
    cs = set(cluster_set(x0))
    assert all(Fraction((2 * c.numerator) % c.denominator, c.denominator) in cs for c in cs)
    # far-out orbit points land exactly in the cluster set
    assert _orbit_element(x0, 10**6) in cs
    assert _orbit_element(x0, 10**6 + 1) in cs


def _orbit_element(x0, n: int) -> Fraction:
    """2^n x0 mod 1 by modular exponentiation, a reference that shares no code
    with the cycle walk of ``gibbs._cycle``."""
    x0 = Fraction(x0)
    q = x0.denominator
    return Fraction((x0.numerator * pow(2, n, q)) % q, q)


def test_orbit_element_large_exponent_exact():
    # 10**6 is even so 2^(10**6) = 1 mod 3; and = 1 mod 5 since 4 | 10**6;
    # the cycle of an odd denominator starts at x0, so orbit step n is its entry n mod length
    cases = [
        (Fraction(1, 3), 10**6, Fraction(1, 3)),
        (Fraction(1, 5), 10**6, Fraction(1, 5)),
        (Fraction(1, 3), 10**6 + 1, Fraction(2, 3)),
    ]
    for x0, n, want in cases:
        cycle = list(gibbs._cycle(x0))
        assert cycle[n % len(cycle)] == _orbit_element(x0, n) == want


# -- verdicts ------------------------------------------------------------------------


def test_gibbs_at_origin_daubechies(d3):
    rep = gibbs_at_point(d3, 0)
    assert rep.verdict == "gibbs"
    assert rep.R_x0 > 1.01
    assert rep.cluster_set == [Fraction(0)]
    assert rep.overshoot_right == pytest.approx(rep.R_x0 - 1.0)


def test_gibbs_at_third_uses_cycle_maximum(d3):
    rep = gibbs_at_point(d3, Fraction(1, 3))
    assert rep.verdict == "gibbs"
    expected = max(overshoot(d3, 1.0 / 3.0, "right"), overshoot(d3, 2.0 / 3.0, "right"))
    assert rep.R_x0 == pytest.approx(expected, abs=1e-12)


def test_no_gibbs_for_nonnegative_pairs(haar, b2):
    rep = gibbs_at_point(haar, Fraction(3, 8))
    assert rep.verdict == "no-gibbs" and rep.R_x0 == pytest.approx(1.0, abs=1e-9)
    rep = gibbs_at_point(b2, Fraction(1, 3))
    assert rep.verdict == "no-gibbs"


def test_discontinuous_primal_needs_dyadic_point(haar):
    with pytest.raises(PreconditionError, match="continuous"):
        gibbs_at_point(haar, Fraction(1, 3))


def test_irrational_sweep_verdicts(b3, d3):
    rep = gibbs_at_point(d3, "irrational", irrational_density=32)
    assert rep.verdict == "gibbs"
    assert rep.cluster_set == FULL_INTERVAL
    rep = gibbs_at_point(b3, "irrational", irrational_density=32)
    # a finite sweep cannot certify absence over the full interval
    assert rep.verdict == "inconclusive"


def test_gibbs_at_point_rejects_malformed_and_bad_pairs(b2):
    with pytest.raises(PreconditionError):
        gibbs_at_point(b2, "3/x")
    with pytest.raises(PreconditionError):
        gibbs_at_point(QuasiProjectionPair(bspline(2), 2.0 * bspline(2)), 0)


def test_worst_shift_ignores_rounding_ties(monkeypatch, b3):
    """R and L are the exact extremes; the worst shift is the first one within
    1e-12 of them, so one ulp of rounding noise cannot pick another shift."""
    up = math.nextafter(1.0, 2.0)

    def fake_sweep(Rs, Ls):
        monkeypatch.setattr(gibbs, "_sweep", lambda pair, shifts, level: (np.array(Rs), np.array(Ls)))
        return gibbs_at_point(b3, Fraction(1, 5))  # shifts 1/5, 2/5, 4/5, 3/5

    rep = fake_sweep([1.0, up, up, 1.0], [-1.0] * 4)
    assert rep.R_x0 == up and rep.worst_shift == 0.2
    rep = fake_sweep([1.0] * 4, [-1.0, -1.0, -up, -up])
    assert rep.L_x0 == -up and rep.worst_shift == 0.2
    rep = fake_sweep([1.25, 1.25 + 1e-9, 1.0, 1.0], [-1.0] * 4)
    assert rep.worst_shift == 0.4  # a real difference still decides


@pytest.mark.parametrize(
    "kwargs,match",
    [
        ({"tol": math.nan}, "tol"),
        ({"tol": -1e-3}, "tol"),
        ({"tol": math.inf}, "tol"),
        ({"irrational_density": 0}, "irrational_density"),
    ],
)
def test_gibbs_at_point_refuses_bad_sweep_settings(d3, kwargs, match):
    with pytest.raises(PreconditionError, match=match):
        gibbs_at_point(d3, "irrational", **kwargs)


@pytest.mark.parametrize("level", [0, 17, 10**9])
@pytest.mark.parametrize(
    "call",
    [
        lambda pair, level: gibbs_at_point(pair, "1/3", level=level),
        lambda pair, level: overshoot_curve(pair, 4, level),
        lambda pair, level: overshoot(pair, 0.0, "right", level),
    ],
    ids=["gibbs_at_point", "overshoot_curve", "overshoot"],
)
def test_gibbs_functions_refuse_a_level_outside_the_range(b2, call, level):
    """Refused before any work: gibbs_at_point would otherwise form 2^level."""
    with pytest.raises(PreconditionError, match="level"):
        call(b2, level)


@pytest.mark.parametrize("num_t", [0, -3])
def test_overshoot_curve_refuses_an_empty_curve(b2, num_t):
    with pytest.raises(PreconditionError, match="num_t"):
        overshoot_curve(b2, num_t)


def test_gibbs_at_point_refuses_a_cycle_longer_than_the_grid(d3):
    """1/1000003 has a cycle of 1000002 shifts, more than the 4096 of level
    12; 1/5 has 4, more than the 2 of level 1 but within the 4 of level 2."""
    with pytest.raises(PreconditionError, match="irrational"):
        gibbs_at_point(d3, Fraction(1, 5), level=1)
    assert len(gibbs_at_point(d3, Fraction(1, 5), level=2).cluster_set) == 4
    with pytest.raises(PreconditionError, match="irrational"):
        gibbs_at_point(d3, "1/1000003")


@pytest.mark.parametrize("x0", [0.0, "1/3", "irrational"])
def test_gibbs_at_point_refuses_a_dual_whose_cumulative_integral_diverges(x0):
    """The CDF (4, 2) dual of ``bspline:4`` has no convergent F, so no sgn
    coefficient exists; it used to read R = 1.092, 1.209 and 2.237."""
    dual = RefinableFunction(MatrixSeq.scalar(-1, np.array([3.0, -12.0, 5.0, 40.0, 5.0, -12.0, 3.0]) / 32))
    with pytest.raises(ConvergenceError, match="the cumulative integral does not converge"):
        gibbs_at_point(QuasiProjectionPair(bspline(4), dual), x0)


@pytest.mark.parametrize(
    "x0,R", [("0/1", 1.1666666666666665), ("1/3", 1.2444248547097312), ("irrational", 1.3098707993825278)]
)
def test_gibbs_at_point_answers_for_a_convergent_refinable_dual(x0, R):
    """The CDF (2, 2) dual of the hat function: F converges, so it answers,
    with the R recorded before F ran the growth test."""
    dual = RefinableFunction(MatrixSeq.scalar(-1, np.array([-1.0, 2.0, 6.0, 2.0, -1.0]) / 8))
    report = gibbs_at_point(QuasiProjectionPair(bspline(2), dual), x0)
    assert report.verdict == "gibbs"
    assert report.R_x0 == R


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "call",
    [lambda pair, t: overshoot(pair, t), lambda pair, t: identity_lhs(pair, 12, t)],
    ids=["overshoot", "identity_lhs"],
)
def test_sign_expansions_refuse_a_non_finite_shift(b2, call, t):
    """``apply`` refuses a non-finite shift before it reads the window."""
    with pytest.raises(PreconditionError, match="finite"):
        call(b2, t)


@pytest.mark.parametrize(
    "call",
    [lambda pair: overshoot(pair, 1e308), lambda pair: identity_lhs(pair, 12, 1e308)],
    ids=["overshoot", "identity_lhs"],
)
def test_a_huge_finite_shift_is_refused_before_the_window_is_sized(b2, call):
    """A window sized from ceil(1e308) overflowed in ``dyadic_bounds``; the
    shift is now held to the exact-grid bound first, as t = 1e300 already
    was."""
    with pytest.raises(PreconditionError, match=r"window reaches 2\^41"):
        call(b2)


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda pair: kernel_criterion(pair, level=0), "level"),
        (lambda pair: kernel_criterion(pair, level=17), "level"),
        (lambda pair: approximation_rate(pair, Sgn(0.25), []), "two distinct levels"),
        (lambda pair: approximation_rate(pair, Sgn(0.25), range(2, 3)), "two distinct levels"),
        (lambda pair: approximation_rate(pair, Sgn(0.25), [3, 3]), "two distinct levels"),
        (lambda pair: overshoot_curve(pair, num_t=2.5), "num_t"),
        (lambda pair: gibbs_at_point(pair, "irrational", irrational_density=2.5), "irrational_density"),
    ],
    ids=[
        "kernel_criterion-level-0",
        "kernel_criterion-level-17",
        "approximation_rate-no-level",
        "approximation_rate-one-level",
        "approximation_rate-one-distinct-level",
        "overshoot_curve-fractional-num_t",
        "gibbs_at_point-fractional-density",
    ],
)
def test_inputs_past_the_range_checks_are_refused(b2, call, match):
    """Each of these ran at a level outside 1..16, fitted a slope to fewer
    than two levels, swept a non-uniform grid of shifts or ended in a
    TypeError."""
    with pytest.raises(PreconditionError, match=match):
        call(b2)


def test_report_json_shape(d3):
    rep = gibbs_at_point(d3, Fraction(1, 3))
    d = rep.to_json_dict()
    assert d["verdict"] == "gibbs"
    assert d["cluster_set"] == ["1/3", "2/3"]
    assert d["overshoot_right"] == pytest.approx(d["R_x0"] - 1.0)
    assert d["overshoot_left"] == pytest.approx(-d["L_x0"] - 1.0)
    d = gibbs_at_point(d3, "irrational", irrational_density=8).to_json_dict()
    assert d["cluster_set"] == FULL_INTERVAL


def test_zero_bracket_with_visible_error_means_gibbs(d2, d3):
    """Pairs whose symbol is flat to second order but that visibly fail to
    reproduce sgn must overshoot at the origin."""
    for pair in (d2, d3):
        res = bracket_second_deriv(pair)
        assert abs(res.value) < 1e-8 and res.hypotheses_met
        sf = apply(pair, Sgn(0.0), 0, 0.0, GridSpec(10, -16, 16))
        xs = sf.xs()
        sgn = np.sign(xs) + (xs == 0.0)
        assert np.max(np.abs(sf.values[:, 0] - sgn)) > 0.01
        assert gibbs_at_point(pair, 0).verdict == "gibbs"


def test_nonneg_sufficient_conditions(b2, d3):
    assert nonneg_sufficient(b2) == {"item_i": True, "item_ii": True}
    flat = QuasiProjectionPair(bspline(2), piecewise_constant_dual2())
    rep = nonneg_sufficient(flat)
    assert rep["item_i"] and rep["item_ii"]
    assert nonneg_sufficient(d3) == {"item_i": False, "item_ii": False}


@pytest.mark.parametrize("dip,nonneg", [(-1e-9, True), (-2e-9, False)])
def test_nonneg_sufficient_allows_a_dip_down_to_1e_9(dip, nonneg):
    """item_ii reads a level-10 grid sample down to -1e-9 as nonnegative."""
    phi = bspline(2)
    i0, xs = dyadic_grid(*phi.support, 10)
    values = phi.evaluate(xs)
    values[5, 0] = dip
    rep = nonneg_sufficient(QuasiProjectionPair(phi, SampledFunction(10, i0, values)))
    assert rep == {"item_i": True, "item_ii": nonneg}


def test_each_verdict_computes_only_the_certificate_it_reads(monkeypatch):
    """``framelet_gibbs_verdict`` reads item_ii alone and takes no half-line
    integral; ``verify_gibbs_free`` reads item_i alone and takes one grid
    minimum, phi's (the parent took 4, 6 and 4 integrals and 2 minima)."""
    calls = {"halfline_integral": 0, "_grid_min": 0}

    def counted(name):
        real = getattr(gibbs, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    monkeypatch.setattr(gibbs, "halfline_integral", counted("halfline_integral"))
    monkeypatch.setattr(gibbs, "_grid_min", counted("_grid_min"))
    for name in ("haar", "bspline2-tight", "mixed13"):
        df = resolve_framelet(name)
        calls["halfline_integral"] = 0
        framelet_gibbs_verdict(df)
        assert calls["halfline_integral"] == 0, name
    con = build_dual(bspline(3), 3)
    calls["_grid_min"] = 0
    assert verify_gibbs_free(con, bspline(3))["item_i"]
    assert calls["_grid_min"] == 1
