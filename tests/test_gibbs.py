"""Tests for overshoot analysis.

Frozen scalars below were derived by hand from moment arithmetic
(kappa_j of splines via cumulative integrals at integers; symbol derivatives
from mean/second-moment values) and double-checked against quadrature before
freezing.  The two sides of the first-moment identity come from genuinely
independent code paths: moments/kappa vs direct quadrature of the expansion
error, so their agreement is a strong end-to-end check.
"""

import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbslab import gibbs
from gibbslab.catalog import pair_fleet, resolve_pair
from gibbslab.construct import build_dual
from gibbslab.errors import PreconditionError
from gibbslab.funcmodel import PiecewisePoly, bspline
from gibbslab.gibbs import (
    FULL_INTERVAL,
    GibbsReport,
    bracket_second_deriv,
    cluster_set,
    doubling_orbit_element,
    gibbs_at_point,
    identity_lhs,
    identity_rhs,
    kappa,
    nonneg_sufficient,
    overshoot,
    overshoot_curve,
)
from gibbslab.quasiproj import GridSpec, QuasiProjectionPair, Sgn, apply


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


@settings(max_examples=60, deadline=None)
@given(p=st.integers(min_value=0, max_value=10**6), q=st.integers(min_value=1, max_value=997))
def test_cluster_set_is_doubling_invariant(p, q):
    x0 = Fraction(p, q)
    cs = set(cluster_set(x0))
    assert all(Fraction((2 * c.numerator) % c.denominator, c.denominator) in cs for c in cs)
    # far-out orbit points land exactly in the cluster set
    assert doubling_orbit_element(x0, 10**6) in cs
    assert doubling_orbit_element(x0, 10**6 + 1) in cs


def test_orbit_element_large_exponent_exact():
    # 10**6 is even so 2^(10**6) = 1 mod 3; and = 1 mod 5 since 4 | 10**6
    assert doubling_orbit_element(Fraction(1, 3), 10**6) == Fraction(1, 3)
    assert doubling_orbit_element(Fraction(1, 5), 10**6) == Fraction(1, 5)
    assert doubling_orbit_element(Fraction(1, 3), 10**6 + 1) == Fraction(2, 3)


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
