"""Tests for the piecewise-constant dual construction.

The m=2 case is solvable by hand (one unknown), giving the flat dual with
two cells of height 1/2; the m=3 case for the quadratic spline is a 2x2
system whose solution (2/3, -2/3) was frozen after solving it manually.
Everything else is checked through pair-level behavior: moment matching,
polynomial reproduction order, and measured overshoot.
"""

import math

import numpy as np
import pytest

from gibbslab.construct import (
    DualConstruction,
    build_dual,
    optimality_witness,
    reciprocal_moments,
    verify_gibbs_free,
)
from gibbslab.errors import PreconditionError
from gibbslab.funcmodel import PiecewisePoly, RefinableFunction, bspline, function_from_json_dict
from gibbslab.catalog import daubechies_mask, resolve_function
from gibbslab.gibbs import gibbs_at_point, overshoot
from gibbslab.quasiproj import GridSpec, QuasiProjectionPair, accuracy_order, poly_reproduction


# -- reciprocal moments ----------------------------------------------------------


def test_reciprocal_moments_frozen():
    assert reciprocal_moments(bspline(1), 2) == pytest.approx([1.0, 0.5], abs=1e-12)
    assert reciprocal_moments(bspline(2), 2) == pytest.approx([1.0, 1.0], abs=1e-12)
    assert reciprocal_moments(bspline(3), 3) == pytest.approx([1.0, 1.5, 2.0], abs=1e-12)
    assert reciprocal_moments(bspline(4), 4) == pytest.approx(
        [1.0, 2.0, 11.0 / 3.0, 6.0], abs=1e-12
    )


def test_reciprocal_moments_d1_is_the_mean():
    # first-order reciprocal: d_1 = -conj(phihat)'(0) / i ... = mean of phi
    for m in (1, 2, 3, 4, 5):
        f = bspline(m)
        d = reciprocal_moments(f, 2)
        assert d[1] == pytest.approx(f.moment(1)[0], abs=1e-12)


def test_reciprocal_moments_rejects_bad_mass():
    with pytest.raises(PreconditionError, match="unit mass"):
        reciprocal_moments(2.0 * bspline(2), 2)


def test_reciprocal_moments_rejects_vector_input():
    two = PiecewisePoly([0.0, 1.0], np.ones((1, 2, 1)))
    with pytest.raises(PreconditionError):
        reciprocal_moments(two, 2)


# -- construction ------------------------------------------------------------------


def test_hat_construction_by_hand():
    con = build_dual(bspline(2), 2)
    assert con.N == 1
    assert con.c == pytest.approx([0.5], abs=1e-12)
    assert con.phi_tilde.breakpoints == pytest.approx([0.0, 1.0, 2.0])
    assert con.phi_tilde.coeffs.ravel() == pytest.approx([0.5, 0.5], abs=1e-12)
    assert max(con.diagnostics["moment_residuals"]) < 1e-12
    assert con.diagnostics["partition_residual"] < 1e-12


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_partition_residual_matches_hand_written_sum(m):
    """The partition-of-unity residual equals sum_k phi_tilde(x - k) - 1
    summed term by term on one period of the 2^-8 grid, to the bit."""
    con = build_dual(bspline(m), m)
    pt = con.phi_tilde
    xs = np.arange(256) / 256.0
    acc = np.zeros(xs.size)
    tlo, thi = pt.support
    for k in range(math.floor(-thi) - 1, math.ceil(1 - tlo) + 1):
        acc += pt.evaluate(xs - k)[:, 0]
    assert con.diagnostics["partition_residual"] == float(np.max(np.abs(acc - 1.0)))


def test_quadratic_spline_construction_frozen():
    con = build_dual(bspline(3), 3)
    assert con.N == 2
    assert con.knots == pytest.approx([2.0, 2.5, 3.0])
    assert con.c == pytest.approx([2.0 / 3.0, -2.0 / 3.0], abs=1e-12)
    assert con.phi_tilde.breakpoints == pytest.approx([1.0, 1.5, 2.0, 2.5, 3.0])
    assert con.phi_tilde.coeffs.ravel() == pytest.approx(
        [1.0 / 3.0, 5.0 / 3.0, 2.0 / 3.0, -2.0 / 3.0], abs=1e-12
    )


def test_degenerate_first_order():
    con = build_dual(bspline(1), 1)
    assert con.N == 1 and con.c.size == 0
    assert con.phi_tilde.breakpoints == pytest.approx([0.0, 1.0])
    assert con.phi_tilde.coeffs.ravel() == pytest.approx([1.0])


@pytest.mark.parametrize("m", [2, 3, 4])
def test_pipeline_reaches_full_order_without_overshoot(m):
    con = build_dual(bspline(m), m)
    pair = QuasiProjectionPair(bspline(m), con.phi_tilde)
    assert max(con.diagnostics["moment_residuals"]) < 1e-10
    res = poly_reproduction(pair, m, GridSpec(10))
    assert all(r < 1e-8 for r in res.values())
    assert accuracy_order(pair, m_max=m + 1) == m
    assert overshoot(pair, 0.0, "right") <= 1.0 + 1e-9
    assert overshoot(pair, 0.0, "left") >= -1.0 - 1e-9


def test_verify_report_hat():
    con = build_dual(bspline(2), 2)
    rep = verify_gibbs_free(con, bspline(2))
    assert rep["integral_right"] == pytest.approx(0.5, abs=1e-12)
    assert rep["integral_left"] == pytest.approx(0.5, abs=1e-12)
    assert rep["gibbs_free"]


def test_verify_report_quadratic_boundary_case():
    # d_1 = 3/2, N = 2: the right integral sits exactly at the boundary 0
    con = build_dual(bspline(3), 3)
    rep = verify_gibbs_free(con, bspline(3))
    assert rep["integral_right"] == pytest.approx(0.0, abs=1e-12)
    assert rep["integral_left"] == pytest.approx(1.0, abs=1e-12)
    assert rep["integrals_in_range"] and rep["gibbs_free"]


def test_verify_report_for_a_primal_the_dual_was_not_built_for():
    """The hat function's order-2 dual against daubechies:2: the integrals stay
    in range, but item_i fails and the overshoot at shift 0 reads "gibbs"."""
    con = build_dual(bspline(2), 2)
    d2 = resolve_function("daubechies:2")
    rep = verify_gibbs_free(con, d2)
    assert (rep["gibbs_free"], rep["item_i"], rep["integrals_in_range"]) == (False, False, True)
    assert (rep["R0"], rep["L0"]) == (1.3660254037844373, -1.0)
    assert gibbs_at_point(QuasiProjectionPair(d2, con.phi_tilde), 0, tol=1e-9).verdict == "gibbs"


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("order", [2, 3, 4])
def test_verify_report_agrees_with_gibbs_at_point(m, order):
    con = build_dual(bspline(m), order)
    assert verify_gibbs_free(con, bspline(m))["gibbs_free"]
    assert gibbs_at_point(QuasiProjectionPair(bspline(m), con.phi_tilde), 0, tol=1e-9).verdict == "no-gibbs"


def test_construction_rejects_sign_changing_primal():
    d3 = RefinableFunction(daubechies_mask(3))
    with pytest.raises(PreconditionError, match="nonnegative"):
        build_dual(d3, 3)


def test_custom_knot_rule():
    rule = lambda N, m: N + (np.arange(m) / (m - 1)) ** 2
    con = build_dual(bspline(3), 3, knot_rule=rule)
    pair = QuasiProjectionPair(bspline(3), con.phi_tilde)
    assert max(con.diagnostics["moment_residuals"]) < 1e-10
    assert accuracy_order(pair, m_max=4) == 3


def test_bad_knot_rules_rejected():
    with pytest.raises(PreconditionError, match="strictly increasing"):
        build_dual(bspline(3), 3, knot_rule=lambda N, m: np.array([N, N, N + 1.0]))
    with pytest.raises(PreconditionError, match="must run"):
        build_dual(bspline(3), 3, knot_rule=lambda N, m: np.array([N, N + 0.5, N + 2.0]))


@pytest.mark.parametrize("m", [3, 4, 5])
def test_random_knots_keep_system_solvable(m):
    rng = np.random.default_rng(7 * m)
    for _ in range(100 // 3):
        interior = np.sort(rng.uniform(0.02, 0.98, size=m - 2))
        rule = lambda N, _m: np.concatenate([[N], N + interior, [N + 1.0]])
        con = build_dual(bspline(m), m, knot_rule=rule)
        assert max(con.diagnostics["moment_residuals"]) < 1e-9
        assert con.diagnostics["partition_residual"] < 1e-10


def test_flat_dual_reproduction_spec_example():
    con = build_dual(bspline(2), 2)
    pair = QuasiProjectionPair(bspline(2), con.phi_tilde)
    res = poly_reproduction(pair, 2, GridSpec(10))
    assert res[0] < 1e-9 and res[1] < 1e-9


# -- optimality witness ---------------------------------------------------------------


def test_witness_flags_constructed_dual():
    con = build_dual(bspline(3), 3)
    rep = optimality_witness(con)
    assert rep["applicable"] and rep["violated"]


def test_witness_not_applicable_below_order_three():
    con = build_dual(bspline(2), 2)
    assert optimality_witness(con)["applicable"] is False


def test_witness_clean_for_smooth_spline():
    rep = optimality_witness(bspline(3))
    assert rep["applicable"] and not rep["violated"]


def test_witness_refuses_a_function_that_is_not_piecewise():
    with pytest.raises(PreconditionError, match="DualConstruction or a PiecewisePoly, got RefinableFunction"):
        optimality_witness(RefinableFunction(daubechies_mask(3)))


# -- serialization ---------------------------------------------------------------------


def test_construction_json_roundtrip():
    con = build_dual(bspline(3), 3)
    d = con.to_json_dict()
    assert d["m"] == 3 and d["N"] == 2
    pt = function_from_json_dict(d["phi_tilde"])
    xs = np.linspace(0.5, 3.5, 301)
    assert np.allclose(pt.evaluate(xs), con.phi_tilde.evaluate(xs))
