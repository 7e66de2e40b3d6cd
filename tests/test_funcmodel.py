"""Tests for function representations: exact piecewise polynomials, refinable
functions driven by a two-scale mask, and raw dyadic samples.

Oracles, in rough order of independence:
  * cardinal B-splines against the one-sided power closed form
    B_m(x) = 1/(m-1)! * sum_k (-1)^k C(m,k) (x-k)_+^{m-1};
  * Fourier integrals against composite-Simpson quadrature of f(x) e^{-i x xi};
  * two-scale moments / cumulative integrals against the exact piecewise
    polynomial route for spline masks (the two routes share no code);
  * frozen scalars derived by hand (spline values at knots, autocorrelations,
    Daubechies-4-tap first moment (3 - sqrt(3))/2, ...).
"""

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gibbslab as gl
from gibbslab import (
    ConvergenceError,
    MatrixSeq,
    PiecewisePoly,
    PreconditionError,
    RefinableFunction,
    SampledFunction,
    bspline,
    cascade,
)
from gibbslab.catalog import bspline_mask, cdf13_mask, daubechies_mask, resolve_function
from gibbslab import funcmodel
from gibbslab.funcmodel import (
    _continuity_defect,
    _grid_min,
    _polyval_pieces,
    _refine,
    dyadic_bounds,
    function_from_json_dict,
    function_to_json_dict,
    refinement_residual,
    simpson_sum,
)

from strategies import spline_like_mask

SQ3 = math.sqrt(3.0)
B2_MASK = MatrixSeq.scalar(0, [0.25, 0.5, 0.25])
B3_MASK = MatrixSeq.scalar(0, [0.125, 0.375, 0.375, 0.125])
D4_MASK = MatrixSeq.scalar(0, [(1 + SQ3) / 8, (3 + SQ3) / 8, (3 - SQ3) / 8, (1 - SQ3) / 8])


def spline_mask(m):
    return MatrixSeq.scalar(0, [math.comb(m, k) / 2**m for k in range(m + 1)])


def bspline_closed_form(m, x):
    """One-sided power form; independent of the recursion used by bspline()."""
    x = np.asarray(x, dtype=float)
    if m == 1:
        return ((x >= 0) & (x < 1)).astype(float)
    acc = np.zeros_like(x)
    for k in range(m + 1):
        acc += (-1.0) ** k * math.comb(m, k) * np.clip(x - k, 0.0, None) ** (m - 1)
    return acc / math.factorial(m - 1)


# ---------------------------------------------------------------------------
# B-splines as exact piecewise polynomials


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_bspline_matches_one_sided_power_form(m):
    xs = np.linspace(-0.5, m + 0.5, 641)
    got = bspline(m).evaluate(xs)[:, 0]
    want = bspline_closed_form(m, xs)
    # the closed form has its own jump convention at the knots of B1
    if m == 1:
        mask = ~np.isin(xs, [0.0, 1.0])
        got, want = got[mask], want[mask]
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("m", range(1, 8))
def test_bspline_mean_and_variance(m):
    B = bspline(m)
    assert B.moment(0) == pytest.approx([1.0], abs=1e-12)
    assert B.moment(1) == pytest.approx([m / 2], abs=1e-12)
    # second moment = variance + mean^2 = m/12 + m^2/4
    assert B.moment(2) == pytest.approx([m / 12 + m * m / 4], abs=1e-12)


def test_bspline_halfopen_indicator():
    B1 = bspline(1)
    assert B1.evaluate(0.0) == pytest.approx([1.0])
    assert B1.evaluate(1.0 - 1e-12) == pytest.approx([1.0])
    assert B1.evaluate(1.0) == pytest.approx([0.0])
    assert B1.evaluate(-1e-12) == pytest.approx([0.0])


def test_bspline_knot_values():
    # hat: peak 1 at x=1; cubic: (1/6, 4/6, 1/6) at x=1,2,3
    assert bspline(2).evaluate(1.0) == pytest.approx([1.0])
    assert bspline(4).evaluate([1.0, 2.0, 3.0])[:, 0] == pytest.approx([1 / 6, 2 / 3, 1 / 6])


def test_bspline_argument_validation():
    with pytest.raises(PreconditionError):
        bspline(0)
    with pytest.raises(PreconditionError):
        bspline(10)


@given(st.floats(-1.0, 9.0), st.integers(1, 6))
@settings(max_examples=80, deadline=None)
def test_bspline_partition_of_unity(x, m):
    # keep x - k from rounding exactly onto a knot, where the half-open
    # convention makes the pointwise sum jump
    assume(abs(x - round(x)) > 1e-9)
    total = sum(bspline(m).evaluate(x - k)[0] for k in range(-8, 11))
    assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("m", range(1, 10))
def test_bspline_m_holds_exactly_its_first_m_sum_rules(m):
    """B_m reproduces polynomials of degree below m and no higher: against a
    dual that matches m + 1 moments (9 for m = 9, every degree up to
    MAX_DEGREE = 8) the pair's order is m, so rules s < m hold and rule m
    fails.  A per-coefficient rounding test broke rule 1 for m = 6..9."""
    pair = gl.QuasiProjectionPair(bspline(m), gl.build_dual(bspline(m), min(m + 1, 9)).phi_tilde)
    assert gl.accuracy_order(pair, m_max=funcmodel.MAX_DEGREE + 1) == m


def test_bspline_autocorrelation_equals_higher_spline():
    # integral B2(x) B2(x-k) dx = B4(2-k)
    B2, B4 = bspline(2), bspline(4)
    for k in (-1, 0, 1):
        want = B4.evaluate(2.0 - k)[0]
        assert gl.inner_product(B2, B2, shift=k)[0, 0] == pytest.approx(want, abs=1e-14)
    assert gl.inner_product(B2, B2)[0, 0] == pytest.approx(2 / 3, abs=1e-14)
    assert gl.inner_product(B2, B2, shift=1)[0, 0] == pytest.approx(1 / 6, abs=1e-14)
    assert gl.inner_product(B2, B2, shift=2)[0, 0] == pytest.approx(0.0, abs=1e-14)


def test_inner_product_for_cubic_pair():
    # integral B3 B3 = B6(3) = 66/120
    B3 = bspline(3)
    assert gl.inner_product(B3, B3)[0, 0] == pytest.approx(11 / 20, abs=1e-13)


# ---------------------------------------------------------------------------
# piecewise polynomial mechanics


def test_pp_construction_validation():
    with pytest.raises(PreconditionError):
        PiecewisePoly(np.array([0.0, 0.0, 1.0]), np.zeros((2, 1, 1)))  # non-increasing
    with pytest.raises(PreconditionError):
        PiecewisePoly(np.array([0.0, 1.0]), np.ones((1, 1, 10)))  # degree 9


def test_pp_shift_and_affine_compose():
    B2 = bspline(2)
    s = B2.shift(0.75)
    xs = np.linspace(-1, 3.5, 301)
    assert np.allclose(s.evaluate(xs), B2.evaluate(xs - 0.75))
    # g(x) = f(2x - 1)
    g = B2.compose_affine(2.0, -1.0)
    assert np.allclose(g.evaluate(xs), B2.evaluate(2 * xs - 1))
    assert g.support == (0.5, 1.5)


def test_pp_addition_merges_breakpoints():
    B2 = bspline(2)
    f = B2 + B2.shift(0.5) * (-2.0)
    xs = np.linspace(-1, 4, 997)
    want = B2.evaluate(xs) - 2 * B2.evaluate(xs - 0.5)
    assert np.max(np.abs(f.evaluate(xs) - want)) < 1e-12


def test_pp_combine_matches_repeated_addition():
    B3 = bspline(3)
    pairs = [(np.array([[c]]), B3.shift(k)) for k, c in [(0, 1.0), (1, -0.5), (3, 2.0)]]
    f = PiecewisePoly.combine(pairs)
    g = B3 + B3.shift(1) * -0.5 + B3.shift(3) * 2.0
    xs = np.linspace(-1, 7, 401)
    assert np.allclose(f.evaluate(xs), g.evaluate(xs))


def test_pp_apply_matrix():
    B2 = bspline(2)
    two = PiecewisePoly(B2.breakpoints, np.concatenate([B2.coeffs, B2.coeffs], axis=1))
    mixed = two.apply_matrix(np.array([[1.0, 1.0], [2.0, -1.0]]))
    xs = np.linspace(0, 2, 41)
    v = B2.evaluate(xs)[:, 0]
    assert np.allclose(mixed.evaluate(xs)[:, 0], 2 * v)
    assert np.allclose(mixed.evaluate(xs)[:, 1], v)


def test_pp_moments_and_tails():
    B2 = bspline(2)
    hl = gl.halfline_integral
    assert hl(B2, 1.0, "right") == pytest.approx([0.5], abs=1e-14)
    assert hl(B2, 0.5, "left") == pytest.approx([0.125], abs=1e-14)
    assert hl(B2, 0.5, "right") == pytest.approx([0.875], abs=1e-14)
    assert hl(B2, -3.0, "left") == pytest.approx([0.0])
    assert hl(B2, 5.0, "right") == pytest.approx([0.0])
    assert B2.moment_on(1, 0.0, 1.0) == pytest.approx([1 / 3], abs=1e-14)
    assert B2.integral(0.5, 1.5) == pytest.approx([0.75], abs=1e-14)


@pytest.mark.parametrize("xi", [0.3, 1.0, 2.0, 2 * math.pi, -4.7, 1e-3, 1e-7, 0.0])
def test_pp_fourier_against_hat_closed_form(xi):
    # hat spline: fhat(xi) = ((1 - e^{-i xi}) / (i xi))^2, by direct integration
    B2 = bspline(2)
    if xi == 0.0:
        want = 1.0
    elif abs(xi) < 1e-4:  # naive closed form cancels catastrophically here
        want = sum((-1j * xi) ** j / math.factorial(j) / (j + 1) for j in range(30)) ** 2
    else:
        want = ((1 - np.exp(-1j * xi)) / (1j * xi)) ** 2
    assert B2.fourier(xi)[0] == pytest.approx(want, abs=1e-12)


def test_pp_fourier_against_quadrature():
    f = bspline(3) + bspline(2).shift(0.5) * 1.7
    xi = 1.234
    h = 2.0**-12
    xs = np.arange(-1, 4 * 2**12 + 1) * h
    vals = f.evaluate(xs)[:, 0] * np.exp(-1j * xs * xi)
    want = simpson_sum(vals, h)
    # the quadrature oracle itself carries ~1e-8 of O(h^4) error at this level
    assert f.fourier(xi)[0] == pytest.approx(want, abs=1e-7)


def test_pp_fourier_derivative_is_moment_at_zero():
    f = bspline(4)
    assert f.fourier(0.0)[0] == pytest.approx(1.0, abs=1e-14)
    assert f.fourier(0.0, deriv=1)[0] == pytest.approx(-2.0j, abs=1e-14)


def test_pp_fourier_derivative_finite_difference():
    f = bspline(4)
    for xi in (0.9, 1e-3, 37.0):
        h = 1e-6
        num = (f.fourier(xi + h) - f.fourier(xi - h)) / (2 * h)
        assert f.fourier(xi, deriv=1)[0] == pytest.approx(num[0], abs=1e-7)


def test_pp_fourier_rejects_higher_derivatives():
    with pytest.raises(PreconditionError):
        bspline(2).fourier(1.0, deriv=2)


def _gathered_evaluate(f, x):
    """Reference evaluation: one breakpoint search per point, then Horner
    over the gathered coefficient rows of the points inside the support."""
    x = np.asarray(x, dtype=np.float64)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.zeros((x.size, f.ncomponents))
    idx = np.searchsorted(f.breakpoints, x, side="right") - 1
    inside = (idx >= 0) & (idx < f.coeffs.shape[0]) & (x < f.breakpoints[-1])
    piece = idx[inside]
    out[inside] = _polyval_pieces(f.coeffs, piece, x[inside] - f.breakpoints[piece])
    return out[0] if scalar else out


def _piecewise_fleet():
    from gibbslab.catalog import resolve_framelet
    from gibbslab.construct import build_dual

    tight = resolve_framelet("bspline2-tight")
    return {
        "b2": bspline(2),
        "b3": bspline(3),
        "b4": bspline(4),
        "b3-shifted": bspline(3).shift(0.25),
        "dual3": build_dual(bspline(3), 3).phi_tilde,
        "tight-psi": tight.psi,
        "tight-psi_tilde": tight.psi_tilde,
        # an interior piece of -0.0 coefficients: Horner from zeros gives +0.0 there
        "signed-zero piece": PiecewisePoly([0.0, 1.0, 2.0, 3.0], [[1.0, 1.0], [-0.0, -0.0], [-1.0, 0.5]]),
    }


PIECEWISE_FLEET = _piecewise_fleet()


def _assert_same_bits(f, x):
    got, want = f.evaluate(x), _gathered_evaluate(f, x)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _fixed_inputs(f):
    lo, hi = f.support
    grid = np.linspace(lo - 0.75, hi + 0.75, 1001)
    shuffled = np.random.default_rng(7).permutation(grid)
    specials = np.array([np.nan, -np.inf, 0.0, np.inf, -0.0, lo, hi, np.nan, -0.0])
    return {
        "ascending": grid,
        "descending": grid[::-1],
        "shuffled": shuffled,
        "strided view": shuffled[::3],
        "repeated": np.repeat(grid[::50], 3),
        "breakpoints": f.breakpoints,
        "breakpoints reversed": f.breakpoints[::-1],
        "specials": specials,
        "specials mixed in": np.concatenate([specials, grid[::17], specials[::-1]]),
        "signed zeros": np.array([0.0, -0.0, -0.0, 0.0]),
        "empty": np.array([]),
        "one NaN": np.array([np.nan]),
    }


@pytest.mark.parametrize("name", PIECEWISE_FLEET)
def test_pp_evaluate_matches_gathered_reference_bitwise(name):
    """The per-piece runs give the bits of the per-point gather on every
    input order, at the breakpoints, on ±inf, NaN and ±0.0, and on scalars."""
    f = PIECEWISE_FLEET[name]
    for x in _fixed_inputs(f).values():
        _assert_same_bits(f, x)
    for v in (*f.breakpoints, 0.0, -0.0, np.inf, -np.inf, np.nan, f.support[0] + 0.3):
        _assert_same_bits(f, np.float64(v))
        assert f.evaluate(v).shape == (f.ncomponents,)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name", PIECEWISE_FLEET)
def test_pp_evaluate_matches_gathered_reference_hypothesis(name, data):
    f = PIECEWISE_FLEET[name]
    lo, hi = f.support
    special = st.sampled_from([*f.breakpoints, 0.0, -0.0, np.inf, -np.inf, np.nan])
    values = data.draw(
        st.lists(st.one_of(st.floats(lo - 1.0, hi + 1.0), special), max_size=60), label="x"
    )
    x = np.array(values, dtype=np.float64)
    order = data.draw(st.sampled_from(["drawn", "ascending", "descending"]), label="order")
    if order != "drawn":
        x = np.sort(x, kind="stable")
        x = x if order == "ascending" else x[::-1]
    _assert_same_bits(f, x)


# Per-interval references for the exact piecewise algebra: one Horner call per
# piece, one midpoint search and one scalar shift per interval, kept verbatim
# from the implementation that preceded the shared Horner and alignment.


def _ref_polyval_asc(c, u):
    out = np.zeros(c.shape[:-1] + u.shape, dtype=np.result_type(c, u))
    for k in range(c.shape[-1] - 1, -1, -1):
        out = out * u + c[..., k, None]
    return out


def _ref_polyint_asc(c):
    k = np.arange(1, c.shape[-1] + 1, dtype=np.float64)
    out = np.zeros(c.shape[:-1] + (c.shape[-1] + 1,), dtype=c.dtype)
    out[..., 1:] = c / k
    return out


def _ref_polyshift_asc(c, delta):
    n = c.shape[-1]
    out = np.zeros_like(c)
    for j in range(n):
        acc = np.zeros(c.shape[:-1], dtype=c.dtype)
        for k in range(j, n):
            acc = acc + c[..., k] * (math.comb(k, j) * delta ** (k - j))
        out[..., j] = acc
    return out


def _ref_add(self, other):
    bp = np.unique(np.concatenate([self.breakpoints, other.breakpoints]))
    keep = np.concatenate([[True], np.diff(bp) > 1e-12 * max(1.0, np.max(np.abs(bp)))])
    bp = bp[keep]
    deg = max(self.coeffs.shape[-1], other.coeffs.shape[-1])
    out = np.zeros((bp.size - 1, self.ncomponents, deg))
    for src in (self, other):
        for i in range(bp.size - 1):
            mid = (bp[i] + bp[i + 1]) / 2
            j = np.searchsorted(src.breakpoints, mid, side="right") - 1
            if 0 <= j < src.coeffs.shape[0]:
                shifted = _ref_polyshift_asc(src.coeffs[j], float(bp[i] - src.breakpoints[j]))
                out[i, :, : shifted.shape[-1]] += shifted
    return PiecewisePoly(bp, out)


def _ref_pp_inner(f, g, shift):
    gs = g.shift(shift)
    lo = max(f.breakpoints[0], gs.breakpoints[0])
    hi = min(f.breakpoints[-1], gs.breakpoints[-1])
    out = np.zeros((f.ncomponents, g.ncomponents))
    if lo >= hi:
        return out
    bp = np.unique(np.concatenate([f.breakpoints, gs.breakpoints]))
    bp = bp[(bp >= lo) & (bp <= hi)]
    for i in range(bp.size - 1):
        a, b = bp[i], bp[i + 1]
        mid = (a + b) / 2
        jf = np.searchsorted(f.breakpoints, mid, side="right") - 1
        jg = np.searchsorted(gs.breakpoints, mid, side="right") - 1
        if not (0 <= jf < f.coeffs.shape[0] and 0 <= jg < gs.coeffs.shape[0]):
            continue
        cf = _ref_polyshift_asc(f.coeffs[jf], float(a - f.breakpoints[jf]))
        cg = _ref_polyshift_asc(gs.coeffs[jg], float(a - gs.breakpoints[jg]))
        w = b - a
        for p in range(f.ncomponents):
            for q in range(g.ncomponents):
                prod = np.convolve(cf[p], cg[q])
                anti = _ref_polyint_asc(prod[None, :])
                out[p, q] += _ref_polyval_asc(anti[0], np.array([w]))[0]
    return out


def _ref_binom_power_asc(base, j):
    return np.array([math.comb(j, i) * base ** (j - i) for i in range(j + 1)], dtype=np.float64)


def _ref_moment_on(self, j, a, b):
    bp = self.breakpoints
    a = max(a, bp[0])
    b = min(b, bp[-1])
    out = np.zeros(self.ncomponents)
    if a >= b:
        return out
    for i in range(self.coeffs.shape[0]):
        lo, hi = max(a, bp[i]), min(b, bp[i + 1])
        if lo >= hi:
            continue
        w = _ref_binom_power_asc(float(bp[i]), j)  # (u + x_i)^j in u
        for c in range(self.ncomponents):
            prod = np.convolve(self.coeffs[i, c], w)
            anti = _ref_polyint_asc(prod)
            vals = _ref_polyval_asc(anti, np.array([lo - bp[i], hi - bp[i]]))
            out[c] += vals[1] - vals[0]
    return out


def _ref_cumulative_at_breaks(self):
    anti = _ref_polyint_asc(self.coeffs)
    widths = np.diff(self.breakpoints)
    piece = np.stack(
        [_ref_polyval_asc(anti[i], np.array([widths[i]]))[:, 0] for i in range(len(widths))]
    )
    return np.vstack([np.zeros((1, self.ncomponents)), np.cumsum(piece, axis=0)])


def _same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), (got, want)


@st.composite
def _random_pp(draw, r, near=None):
    """A piecewise polynomial with ``r`` components, 1-5 pieces of off-lattice
    widths, degree <= 4 and some ±0.0 coefficients; with ``near``, one of its
    knots lies within 1e-13 of one of ``near``'s, so that ``+`` merges them."""
    m = draw(st.integers(1, 5), label="pieces")
    widths = draw(st.lists(st.floats(0.03, 1.7), min_size=m, max_size=m), label="widths")
    knots = np.concatenate([[0.0], np.cumsum(widths)])
    if near is None:
        start = draw(st.floats(-3.0, 3.0), label="start")
    else:
        mine, theirs = draw(st.integers(0, m), label="knot"), draw(st.sampled_from(near.breakpoints.tolist()))
        start = theirs - knots[mine] + draw(st.floats(-1e-13, 1e-13), label="offset")
    deg = draw(st.integers(0, 4), label="degree")
    coeff = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0]))
    values = draw(st.lists(coeff, min_size=m * r * (deg + 1), max_size=m * r * (deg + 1)), label="coeffs")
    return PiecewisePoly(start + knots, np.array(values).reshape(m, r, deg + 1))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_pp_algebra_matches_per_interval_reference_bitwise(data):
    """Sums, combinations, pairings, moments and cumulative breaks read every
    piece through the one Horner and the one alignment, with the bits of the
    per-interval loops they replaced."""
    r = data.draw(st.integers(1, 2), label="r")
    f = data.draw(_random_pp(r), label="f")
    g = data.draw(st.one_of(_random_pp(r), _random_pp(r, near=f)), label="g")
    h = data.draw(_random_pp(r), label="h")
    for got, want in [(f + g, _ref_add(f, g)), (g + f, _ref_add(g, f))]:
        _same_bytes(got.breakpoints, want.breakpoints)
        _same_bytes(got.coeffs, want.coeffs)
    mats = [np.eye(r), 2.5 * np.eye(r), np.arange(1.0, r * r + 1).reshape(r, r)]
    combined = PiecewisePoly.combine(list(zip(mats, (f, g, h))))
    want = _ref_add(_ref_add(f.apply_matrix(mats[0]), g.apply_matrix(mats[1])), h.apply_matrix(mats[2]))
    _same_bytes(combined.breakpoints, want.breakpoints)
    _same_bytes(combined.coeffs, want.coeffs)
    shift = data.draw(st.floats(-4.0, 4.0), label="shift")
    _same_bytes(gl.inner_product(f, g, shift), _ref_pp_inner(f, g, shift))
    _same_bytes(gl.inner_product(f, f), _ref_pp_inner(f, f, 0.0))
    lo, hi = f.support
    for j in range(5):
        _same_bytes(f.moment(j), _ref_moment_on(f, j, f.breakpoints[0], f.breakpoints[-1]))
        a, b = (data.draw(st.floats(lo - 0.5, hi + 0.5), label="bound") for _ in range(2))
        _same_bytes(f.moment_on(j, a, b), _ref_moment_on(f, j, a, b))
        _same_bytes(f.moment_on(j, (lo + hi) / 2, b), _ref_moment_on(f, j, (lo + hi) / 2, b))
    _same_bytes(f._cumulative_at_breaks, _ref_cumulative_at_breaks(f))
    _same_bytes(combined._cumulative_at_breaks, _ref_cumulative_at_breaks(combined))


def test_pp_trims_signed_zero_end_pieces_only():
    f = PiecewisePoly(np.arange(6.0), [[-0.0, 0.0], [1.0, 2.0], [0.0, -0.0], [3.0, 0.0], [-0.0, -0.0]])
    assert f.breakpoints.tolist() == [1.0, 2.0, 3.0, 4.0]
    assert f.coeffs[:, 0, :].tolist() == [[1.0, 2.0], [0.0, -0.0], [3.0, 0.0]]


def test_pp_refuses_non_finite_input():
    """A NaN breakpoint passed the old increasing test (a NaN difference is
    not <= 0), and nothing checked the coefficients."""
    for bp, cf in [
        ([0.0, math.nan, 1.0], np.ones((2, 1, 1))),
        ([0.0, 1.0, math.inf], np.ones((2, 1, 1))),
        ([0.0, 1.0], [[[1.0, math.inf]]]),
        ([0.0, 1.0], [[[math.nan]]]),
    ]:
        with pytest.raises(PreconditionError, match="finite"):
            PiecewisePoly(np.array(bp), np.array(cf))


def test_pp_moment_on_refuses_a_nan_bound():
    """Clipped to the pieces, a NaN bound would read as an empty range and
    give 0, a plausible wrong number."""
    for a, b in [(math.nan, 1.0), (0.0, math.nan)]:
        with pytest.raises(PreconditionError, match="NaN"):
            bspline(2).moment_on(1, a, b)


# ---------------------------------------------------------------------------
# sampled functions


def test_sampled_roundtrip_and_interp():
    B2 = bspline(2)
    level = 8
    xs = np.arange(0, 2 * 2**level + 1) * 2.0**-level
    sf = SampledFunction(level, 0, B2.evaluate(xs))
    assert sf.support == (0.0, 2.0)
    assert sf.evaluate(0.7) == pytest.approx(B2.evaluate(0.7), abs=1e-12)  # on-grid-ish
    assert sf.evaluate(-1.0) == pytest.approx([0.0])
    assert sf.moment(1) == pytest.approx([1.0], abs=1e-6)
    assert gl.halfline_integral(sf, 1.0, "right") == pytest.approx([0.5], abs=1e-6)
    back = SampledFunction.from_json_dict(sf.to_json_dict())
    assert back.level == sf.level and back.start == sf.start
    assert np.array_equal(back.values, sf.values)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sampled_json_refuses_non_finite_samples(bad):
    d = {"kind": "sampled", "level": 2, "start": 0, "values": [[0.0], [bad], [0.0]]}
    with pytest.raises(PreconditionError, match="finite"):
        function_from_json_dict(d)
    with pytest.raises(PreconditionError, match="finite"):
        SampledFunction.from_json_dict(d)


# ---------------------------------------------------------------------------
# cascade: exact dyadic refinement


def test_cascade_haar_hits_indicator():
    sf = cascade(MatrixSeq.scalar(0, [0.5, 0.5]), level=3)
    assert np.array_equal(sf.values[:, 0], [1, 1, 1, 1, 1, 1, 1, 1, 0])


@pytest.mark.parametrize(
    "m, mask", [(2, B2_MASK), (3, B3_MASK), (4, spline_mask(4)), (5, spline_mask(5))]
)
def test_cascade_recovers_spline_samples(m, mask):
    # the samples are exact at dyadic points, up to rounding
    for level in (6, 12):
        sf = cascade(mask, level=level)
        want = bspline(m).evaluate(sf.xs())
        assert np.max(np.abs(sf.values - want)) < 1e-13


def test_cascade_daubechies_satisfies_two_scale():
    sf = cascade(D4_MASK, level=9)
    assert refinement_residual(sf, D4_MASK) < 1e-8
    # the same samples against the six-tap Daubechies mask are far from a solution
    assert refinement_residual(sf, daubechies_mask(3)) > 0.1


def test_cascade_divergent_mask_raises():
    bad = MatrixSeq.scalar(0, [1.5, -0.5])  # symbol fixed at 1, iteration blows up at 0
    with pytest.raises(ConvergenceError) as exc:
        cascade(bad, level=4)
    assert exc.value.residual > 1.0


def test_cascade_expanding_mode_raises():
    # two-scale matrix eigenvalues -0.4, 1 and 1.4: the integer values blow up
    with pytest.raises(ConvergenceError) as exc:
        cascade(MatrixSeq.scalar(0, [-0.2, 0.5, 0.7]), level=4)
    assert exc.value.residual >= 1.0


@pytest.mark.parametrize("level", [1, 4, 10, 12])
def test_cascade_growing_increments_raise(level):
    # eigenvalue 1 is simple and the others lie inside the unit disk, but the
    # refinement increments grow level by level: no bounded solution, at any level
    with pytest.raises(ConvergenceError) as exc:
        cascade(MatrixSeq.scalar(0, [-0.274, 0.218, 0.774, 0.282]), level=level)
    assert exc.value.residual >= 1.0


# the dual of the order-4 B-spline mask at CDF (4, 2), offset -1: cascade
# refuses it as a primal, and its cumulative integral F does not converge
CDF42_DUAL = MatrixSeq.scalar(-1, np.array([3.0, -12.0, 5.0, 40.0, 5.0, -12.0, 3.0]) / 32)
# the CDF (2, 2) dual of the hat mask: refused as a primal, yet F converges
CDF22_DUAL = MatrixSeq.scalar(-1, np.array([-1.0, 2.0, 6.0, 2.0, -1.0]) / 8)


@pytest.mark.parametrize("level", [1, 4, 12])
def test_cumulative_that_does_not_converge_raises(level):
    """F runs phi's growth test: its odd-point increment grows from 0.934 at
    level 6 to 1.499 at level 10, whatever the level asked for."""
    f = RefinableFunction(CDF42_DUAL, level=level)
    msg = "9.341e-01 at level 6 to 1.499e[+]00 at level 10: the cumulative integral does not converge"
    with pytest.raises(ConvergenceError, match=msg) as exc:
        f.cumulative(0.0)
    assert exc.value.residual >= 1.0
    with pytest.raises(ConvergenceError, match="does not converge"):
        f.cumulative_samples()


@pytest.mark.parametrize("level", [1, 12])
def test_cumulative_of_a_dual_refused_as_a_primal_converges(level):
    f = RefinableFunction(CDF22_DUAL, level=level)
    with pytest.raises(ConvergenceError, match="the cascade diverges"):
        f.samples()
    F = f.cumulative_samples()
    assert F[:: 2**level, 0].tolist() == pytest.approx([0.0, -1 / 12, 1 / 2, 13 / 12, 1.0], abs=1e-15)


def test_cumulative_samples_are_read_only():
    F = RefinableFunction(daubechies_mask(3), level=8).cumulative_samples()
    with pytest.raises(ValueError, match="read-only"):
        F[0, 0] = 1.0


@pytest.mark.parametrize("theta", [0.05, 0.51, 0.6, 1.0, 2.43])
def test_cascade_defective_eigenvalue_one_raises(theta):
    # 2 a(0) = S J S^-1 with J a 2x2 Jordan block at 1 and 2 a(1) nilpotent,
    # so the two-scale matrix is diag(2 a(0), 2 a(1)); the normalization is
    # the generalized eigenvector S e2, along which M^n grows linearly.
    # Rounding splits the double eigenvalue 1 into 1 +- ~1e-8, which a check
    # of the other eigenvalues' moduli alone lets through for some theta.
    c, s = math.cos(theta), math.sin(theta)
    S = np.array([[c, -s], [s, c]]) @ np.array([[1.0, 0.3], [0.0, 1.0]])
    A = S @ np.array([[1.0, 1.0], [0.0, 1.0]]) @ np.linalg.inv(S)
    B = np.outer(S[:, 1] - S[:, 0], np.linalg.solve(S.T, [1.0, 1.0]))
    mask = MatrixSeq(0, np.stack([A / 2, B / 2]))
    with pytest.raises(ConvergenceError) as exc:
        cascade(mask, normalization=S[:, 1], level=3)
    assert exc.value.residual >= 1.0


def test_cascade_refuses_complex_mask():
    with pytest.raises(PreconditionError, match="real"):
        cascade(MatrixSeq.scalar(0, [0.5 + 0.1j, 0.5 - 0.1j]), level=3)


@pytest.mark.parametrize("taps", [[0.5, 0.0, 0.5], [0.5, 0.0, 0.0, 0.0, 0.5]])
def test_cascade_refuses_a_mask_that_breaks_the_sum_rule(taps):
    """Eigenvalue 1 of the two-scale matrix is double, so the cascade would
    sample chi[0, 2) or chi[0, 4) (integral 2 or 4) while moment(0) says 1;
    the refinement residual is 3e-16 on both and would not show it."""
    with pytest.raises(PreconditionError, match="sum rule"):
        cascade(MatrixSeq.scalar(0, taps), level=4)


def _ghm(level):
    """The Geronimo-Hardin-Massopust r = 2 refinable function."""
    s2 = math.sqrt(2.0)
    C = [
        [[3 / 5, 4 * s2 / 5], [-1 / (10 * s2), -3 / 10]],
        [[3 / 5, 0.0], [9 / (10 * s2), 1.0]],
        [[0.0, 0.0], [9 / (10 * s2), -3 / 10]],
        [[0.0, 0.0], [-1 / (10 * s2), 0.0]],
    ]
    return RefinableFunction(MatrixSeq(0, np.array(C) / 2), [math.sqrt(2 / 3), math.sqrt(1 / 3)], level=level)


def test_ghm_vector_mask_cascades():
    """The Geronimo-Hardin-Massopust mask: sum_k phi(k) = (0, sqrt 3) is not
    the normalization (sqrt(2/3), sqrt(1/3)), yet both have the same
    projection on the one left 1-eigenvector of ahat(0), so the first sum
    rule holds and the cascade answers."""
    f = _ghm(10)
    ints = f.samples().values[:: 2**10]
    assert ints.sum(axis=0) == pytest.approx([0.0, SQ3], abs=1e-12)
    assert f.refinement_residual() < 1e-12
    assert simpson_sum(f.samples().values, f.samples().h) == pytest.approx(f.moment(0), abs=1e-6)


def test_ghm_and_d3_read_their_order_at_every_level():
    """GHM reproduces linears and D3 quadratics, and neither more: read on
    one period at the exact cascade values, each pair's order is the same at
    every carried level from 6 to 16, in both directions."""
    for level in range(6, 17):
        ghm, d3 = _ghm(level), gl.resolve_pair("daubechies:3", level)
        pair = gl.QuasiProjectionPair(ghm, ghm)
        assert [gl.accuracy_order(p, m_max=9) for p in (pair, pair.swapped())] == [2, 2], level
        assert [gl.accuracy_order(p, m_max=9) for p in (d3, d3.swapped())] == [3, 3], level


def test_bspline_bytes_are_pinned():
    """sha256 of the breakpoints and coefficients of B_1..B_9, recorded when
    each order re-derived the previous order's antiderivative by hand."""
    h = hashlib.sha256()
    for m in range(1, 10):
        h.update(bspline(m).breakpoints.tobytes())
        h.update(bspline(m).coeffs.tobytes())
    assert h.hexdigest() == "3d90f600ca5629bcf03b0cfa31342fdc541d4cce85a75d4e2067c1ae80706200"


def test_cascade_rejects_unnormalized_mask():
    with pytest.raises(PreconditionError):
        cascade(MatrixSeq.scalar(0, [0.3, 0.3]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_mask_entry_is_refused(bad):
    """A NaN or infinite mask entry is refused by name before any linear
    algebra runs (it used to end in an SVD that did not converge)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in (RefinableFunction, cascade):
            with pytest.raises(PreconditionError, match=r"a\(1\)\[0, 0\] .* not finite"):
                build(MatrixSeq.scalar(0, [0.5, bad, 0.5]))
        ents = np.array([np.eye(2) / 2, [[0.5, 0.0], [bad, 0.5]]])
        with pytest.raises(PreconditionError, match=r"a\(0\)\[1, 0\] .* not finite"):
            RefinableFunction(MatrixSeq(-1, ents), [1.0, 0.0])


def test_cascade_level_bounds():
    with pytest.raises(PreconditionError):
        cascade(B2_MASK, level=0)
    with pytest.raises(PreconditionError):
        cascade(B2_MASK, level=17)
    with pytest.raises(PreconditionError):
        RefinableFunction(B2_MASK, level=0)
    with pytest.raises(PreconditionError):
        gl.GridSpec(17)


# ---------------------------------------------------------------------------
# the two-scale array at the integers: phi there (cascade) and F there
# (_integer_cumulative) against the loops they replaced


def _loop_cascade_matrix(mask):
    """Reference for ``2 _two_scale(mask)``: ``M[j, :, k, :] = 2 a(kmin + 2j - k)``
    filled tap by tap."""
    kmin, kmax = mask.support
    W = kmax - kmin
    r = mask.shape[0]
    ents = mask.entries.real
    M = np.zeros((W + 1, r, W + 1, r))
    for j in range(W + 1):
        for k in range(max(0, 2 * j - W), min(W, 2 * j) + 1):
            M[j, :, k, :] = 2.0 * ents[2 * j - k]
    return M


def _loop_integer_cumulative(f):
    """Reference for ``_integer_cumulative``: ``F(j) - sum_k a(k) F(2j - k)``
    assembled row by row and tap by tap, ``F = phihat(0)`` past kmax entering
    the right-hand side k ascending."""
    kmin, kmax = f.mask.support
    W = kmax - kmin
    r = f.ncomponents
    m0 = f.moment(0)
    F = np.zeros((W + 1, r))
    F[W] = m0
    if W > 1:
        n = (W - 1) * r
        A = np.zeros((n, n))
        b = np.zeros(n)
        taps = [(k, f.mask[k].real) for k in f.mask.indices()]
        for row_j, j in enumerate(range(kmin + 1, kmax)):
            blk = slice(row_j * r, (row_j + 1) * r)
            A[blk, blk] += np.eye(r)
            for k, a in taps:
                t = 2 * j - k
                if t <= kmin:
                    continue
                if t >= kmax:
                    b[blk] += a @ m0
                else:
                    col = slice((t - kmin - 1) * r, (t - kmin) * r)
                    A[blk, col] -= a
        try:
            sol = np.linalg.solve(A, b)
        except np.linalg.LinAlgError as exc:
            raise PreconditionError("cumulative-integral system is singular") from exc
        F[1:W] = sol.reshape(W - 1, r)
    return F


def _assert_two_scale_matches_loops(f):
    """``2 _two_scale``, F at the integers and phi at the integers are the
    bytes of the loops; phi's reference is ``_fixed_part`` of the loop matrix."""
    mask = f.mask
    W = mask.support[1] - mask.support[0]
    r = f.ncomponents
    want_M = _loop_cascade_matrix(mask)
    got_M = 2.0 * funcmodel._two_scale(mask)
    assert got_M.shape == want_M.shape and got_M.tobytes() == want_M.tobytes()
    try:
        want_F = _loop_integer_cumulative(f)
    except PreconditionError:
        with pytest.raises(PreconditionError, match="cumulative-integral system is singular"):
            f._integer_cumulative
    else:
        assert f._integer_cumulative.tobytes() == want_F.tobytes()
    v0 = np.zeros((W + 1, r))
    v0[0] = f.normalization
    try:
        ints = f.samples().values[:: 2**f.level]
    except (ConvergenceError, PreconditionError):
        return False
    want = funcmodel._fixed_part(want_M.reshape(-1, (W + 1) * r), v0.reshape(-1)).reshape(W + 1, r)
    assert ints.tobytes() == want.tobytes()
    return True


@pytest.mark.parametrize(
    "mask,norm",
    [(bspline_mask(m), None) for m in range(1, 10)]
    + [(daubechies_mask(k), None) for k in (1, 2, 3)]
    + [(cdf13_mask(), None), (_ghm(3).mask, _ghm(3).normalization)],
    ids=[f"bspline:{m}" for m in range(1, 10)] + [f"daubechies:{k}" for k in (1, 2, 3)] + ["cdf13", "ghm"],
)
def test_two_scale_array_matches_the_loops_bitwise(mask, norm):
    assert _assert_two_scale_matches_loops(RefinableFunction(mask, norm, level=3))


@settings(max_examples=60, deadline=None)
@given(r=st.sampled_from([1, 2]), data=st.data())
def test_two_scale_array_matches_the_loops_on_spline_like_masks(r, data):
    mask, norm = data.draw(spline_like_mask(r))
    _assert_two_scale_matches_loops(RefinableFunction(mask, norm, level=3))


def test_cumulative_of_the_cdf31_dual_is_refused_as_singular():
    """The CDF (3,1) dual mask: ``I - T`` on the interior integers is singular,
    so F at the integers has no unique solution and is refused."""
    f = RefinableFunction(MatrixSeq.scalar(-1, [-0.25, 0.75, 0.75, -0.25]))
    with pytest.raises(PreconditionError, match="cumulative-integral system is singular"):
        f.cumulative([0.0])


def _left_to_right(a, v):
    """``a . v`` per row of ``v``, each output's component products added left
    to right from +0.  For r >= 3 it is einsum's own sum, whose order depends
    on the SIMD build (the r >= 3 FOUND line in CHANGES.md)."""
    if a.shape[1] > 2:
        return np.einsum("ab,nb->na", a, v)
    acc = np.zeros((v.shape[0], a.shape[0]))
    for b in range(a.shape[1]):
        acc = acc + v[:, b, None] * a[None, :, b]
    return acc


def _interleaving_tap_sum(taps, vals, n, dilate, s0, step, beyond=None):
    """Reference two-scale sum: one strided slice per tap, its product added
    into the output, k ascending."""
    out = np.zeros((n, taps[0][1].shape[0]))
    for k, a in taps:
        s = s0 - k * step
        lo = min(max(-(s // dilate), 0), n)
        hi = min(max((len(vals) - 1 - s) // dilate + 1, 0), n)
        if lo < hi:
            out[lo:hi] += _left_to_right(a, vals[dilate * lo + s : dilate * hi + s : dilate])
        if beyond is not None and hi < n:
            out[hi:] += _left_to_right(a, beyond[None, :])
    return out


def _interleaving_refine(taps, kmin, W, level, v0, gain, beyond):
    """Reference refinement: every level a new array, the previous samples
    copied to its even points and its odd points read at stride 2 from the
    whole previous grid."""
    taps = [(k, gain * a) for k, a in taps]
    vals = v0
    for lev in range(1, level + 1):
        half = 2 ** (lev - 1)
        n = W * half
        new = np.empty((2 * n + 1, vals.shape[1]))
        new[::2] = vals
        new[1::2] = _interleaving_tap_sum(taps, vals, n, 2, 1 + kmin * half, half, beyond)
        vals = new
    return vals


@settings(max_examples=150, deadline=None)
@given(
    r=st.sampled_from([1, 2]),
    ntaps=st.integers(2, 6),
    kmin=st.integers(-3, 3),
    level=st.integers(0, 9),
    gain=st.sampled_from([1.0, 2.0]),
    with_beyond=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_refine_matches_interleaving_reference_bitwise(r, ntaps, kmin, level, gain, with_beyond, seed):
    """The contiguous per-level refinement gives the bytes of the interleaving
    one over random real masks, including zero and -0.0 taps and samples."""
    rng = np.random.default_rng(seed)
    ents = rng.uniform(-1.0, 1.0, (ntaps, r, r))
    ents[rng.random(ents.shape) < 0.15] = 0.0
    ents[rng.random(ents.shape) < 0.1] = -0.0
    v0 = rng.standard_normal((ntaps, r))
    v0[rng.random(v0.shape) < 0.2] = -0.0
    beyond = rng.standard_normal(r) if with_beyond else None
    taps = [(kmin + i, ents[i]) for i in range(ntaps)]
    got = _refine(ents, kmin, level, v0, gain, beyond)
    want = _interleaving_refine(taps, kmin, ntaps - 1, level, v0, gain, beyond)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _table(m0, vals, width):
    """The sample table ``(m0, P)`` of ``vals`` at grid indices ``m0, m0 + 1,
    ...``, rows of ``width`` zero-padded at the end."""
    P = np.zeros((-(-len(vals) // width) * width, vals.shape[1]))
    P[: len(vals)] = vals
    return m0, P.reshape(-1, width, vals.shape[1])


@settings(max_examples=200, deadline=None)
@given(
    r=st.sampled_from([1, 2]),
    s=st.sampled_from([1, 2]),
    ntaps=st.integers(1, 6),
    k0=st.integers(-4, 4),
    n=st.integers(1, 40),
    dilate=st.sampled_from([1, 2]),
    level=st.integers(0, 3),
    m0=st.integers(-20, 20),
    place=st.sampled_from(["left", "right", "across", "inside"]),
    with_beyond=st.booleans(),
    data=st.data(),
)
def test_matrix_synthesis_matches_interleaving_reference_bitwise(
    r, s, ntaps, k0, n, dilate, level, m0, place, with_beyond, data
):
    """``_matrix_synthesis`` gives the bytes of the per-tap reference for
    ``(s, r)`` taps at every stride its callers use, on tables of step
    ``2^level``, with the read range wholly left of the samples, wholly right
    of them, across them or inside them, with zero and -0.0 taps and samples,
    and with and without ``beyond`` (table rows through the last index read)."""
    step = 2**level
    span = dilate * (n - 1) + (ntaps - 1) * step + 1  # indices read
    if place == "left":
        m = data.draw(st.integers(1, 20))
        lo = -span - data.draw(st.integers(0, 5))
    elif place == "right":
        m = data.draw(st.integers(1, 20))
        lo = m + data.draw(st.integers(0, 5))
    elif place == "inside":
        m = span + data.draw(st.integers(0, 5))
        lo = data.draw(st.integers(0, m - span))
    else:
        assume(span >= 3)
        m = data.draw(st.integers(1, span - 2))
        lo = -data.draw(st.integers(1, span - 1 - m))
    s0 = lo + (k0 + ntaps - 1) * step
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    ents = rng.uniform(-1.0, 1.0, (ntaps, s, r))
    ents[rng.random(ents.shape) < 0.15] = 0.0
    ents[rng.random(ents.shape) < 0.1] = -0.0
    vals = rng.standard_normal((m, r))
    vals[rng.random(vals.shape) < 0.2] = -0.0
    beyond = rng.standard_normal(r) if with_beyond else None
    want = _interleaving_tap_sum([(k0 + i, ents[i]) for i in range(ntaps)], vals, n, dilate, s0, step, beyond)
    if with_beyond:
        vals = np.concatenate([vals, np.tile(beyond, (max(0, lo + span - m), 1))])
    got = funcmodel._matrix_synthesis(_table(m0, vals, step), m0 + s0, n, dilate, k0, ents)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _fine_refinable(spec, level):
    if spec == "ghm":
        return _ghm(level)
    if spec.startswith("daubechies:"):
        return resolve_function(spec, level)
    if spec == "cdf13":
        return RefinableFunction(cdf13_mask(), level=level)
    return RefinableFunction(bspline_mask(int(spec.split(":")[1])), level=level)


@pytest.mark.parametrize(
    "spec,level,digest",
    [
        ("daubechies:2", 14, "01e87efebf6aafedba48644446d15458f5246c524a56cf05cf166997eea961df"),
        ("daubechies:2", 15, "643ea1dfbe18d9203957cb0bb2f0222296452daaf95ce3f6fe1d3a5b9bbf7e10"),
        ("daubechies:2", 16, "d4b55352a42306035db8a5e22e8347794ef1ce43e6fc4f7a28e8ca5b1a98b27a"),
        ("daubechies:3", 14, "727ecd0f99b0e74511cc195940cf515c599e137f065d72e33d7f690fe6c1ae8f"),
        ("daubechies:3", 15, "e9c1c292b7390341afe844b75e8cba1598bbc9430ffd4d75c463b41e79eeb59f"),
        ("daubechies:3", 16, "c7803adf3ea38102e7714dc5c65e5e0e98e3cfaa46129796311695781c4ce56c"),
        ("cdf13", 14, "9242a72eb681e28e78137369ff81dab79119d98d29d1daaa3c8bc5db0f640f8e"),
        ("cdf13", 15, "d11b3bd4963cc64ffd5a8ac18a9dbf6cda5e1d71633d839d229e1c77d39954f2"),
        ("cdf13", 16, "5ac2eeb02a37ec9dbf1466c949e50a3314fb6a6a5d130cd5ff22816f6b2f7b39"),
        ("bspline:3", 14, "fd242ee60e7698dbfa2e70e7fa811195a379cce12c22b29bb192cde2e6afed56"),
        ("bspline:3", 15, "0da18e860acdd1ab9abbc28ee689f67eadb6e3ebb2375f86d98d0bbabda15521"),
        ("bspline:3", 16, "9fe63f13f58698f829bc7e3dd9f78aa8026186cf849039dc8f749110c1368336"),
        ("bspline:4", 14, "6c0765916ee13dbc4ef2a21d03be60eebce9f7eb2858e553b2d68c70edf846f4"),
        ("bspline:4", 15, "8dbca17e4bad28b4c4717cd6017570376336a45036ff5b394fd6eb8e40fc8ac4"),
        ("bspline:4", 16, "59accd1598129bafd244cb129e118db7c3525c65044a4d867834970977fa687a"),
        ("ghm", 12, "84cf469408583d2a4910cbef084cd5e38755a2e38e15878befe767b9ce4d8a75"),
        ("ghm", 16, "d07c872c5821c8937739c62d813094eab3afa2eaddca5582218b02b1079219f2"),
    ],
)
def test_fine_refinement_bytes_are_pinned(spec, level, digest):
    """sha256 of the samples, the cumulative F and the refinement residual's
    repr on the fine grids, recorded with the interleaving refinement (the
    r = 2 GHM rows with the one-einsum tap sum)."""
    f = _fine_refinable(spec, level)
    h = hashlib.sha256(f.samples().values.tobytes())
    h.update(f.cumulative_samples().tobytes())
    h.update(repr(f.refinement_residual()).encode())
    assert h.hexdigest() == digest


def _cumulative_probes(f):
    """On-grid, off-grid, out-of-support and non-finite points for ``f.cumulative``."""
    kmin, kmax = f.support
    h = 2.0**-f.level
    return np.concatenate(
        [
            kmin + h * np.array([0.0, 1.0, 2.0, 777.0, 2.0**f.level + 3.0]),
            [kmax - h, kmax],
            [1.0 / 3.0, 0.7, math.pi / 2, kmin + 0.5 * h, kmax - 0.25 * h],
            [kmin - 1.0, kmin - 0.5 * h, kmax + 0.5 * h, kmax + 2.0, -1e300, 1e300],
            [math.nan, math.inf, -math.inf],
        ]
    )


@pytest.mark.parametrize(
    "spec,level,digest",
    [
        ("daubechies:2", 12, "5133eb45012090a13a98ea5899239e2973f8d94d2af1f6da4bc6de0f21e6f6e9"),
        ("daubechies:3", 12, "33db17f86d6ad3ad5a93d44e58fdb06960d1d521f92fbf3e1e05d611dd566789"),
        ("daubechies:3", 16, "716031807ecf099ec7cbfb492e2c703c25e5f31f240dc7cb74394af63b5d9230"),
        ("cdf13", 12, "0b05fc786e8cdaf381a31193e9d60134c37e12dc3dc0fc8afe1462637e2fa1aa"),
        ("bspline:4", 12, "8b7e2480359cdbdd93818da7800e1568b6869d20f6309691510d331e19c8c479"),
    ],
)
def test_cumulative_bytes_are_pinned(spec, level, digest):
    """sha256 of ``cumulative`` at on-grid, off-grid, out-of-support and
    non-finite points, recorded when ``_F_grid`` was ``kmin + arange(n) h``."""
    f = _fine_refinable(spec, level)
    assert hashlib.sha256(f.cumulative(_cumulative_probes(f)).tobytes()).hexdigest() == digest


@pytest.mark.parametrize("level", [1, 12, 16])
@pytest.mark.parametrize("mask", [daubechies_mask(3), cdf13_mask(), MatrixSeq(-3, B3_MASK.entries)])
def test_cumulative_grid_is_the_dyadic_grid(mask, level):
    f = RefinableFunction(mask, level=level)
    n = f.cumulative_samples().shape[0]
    want = mask.support[0] + np.arange(n) * 2.0**-level
    assert f._F._grid.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# refinable functions: exact moments and cumulative route


def test_refinable_moments_match_exact_spline_route():
    rf = RefinableFunction(B3_MASK)
    B3 = bspline(3)
    for j in range(5):
        assert rf.moment(j) == pytest.approx(B3.moment(j), abs=1e-12)


def test_refinable_daubechies_first_moment():
    # sum_k k a(k) for the 4-tap orthonormal mask, worked out by hand
    rf = RefinableFunction(D4_MASK)
    assert rf.moment(0) == pytest.approx([1.0], abs=1e-12)
    assert rf.moment(1) == pytest.approx([(3 - SQ3) / 2], abs=1e-12)


def test_refinable_tails_match_exact_spline_route():
    rf = RefinableFunction(B3_MASK, level=8)
    B3 = bspline(3)
    hl = gl.halfline_integral
    for s in (0.25, 1.0, 1.625, 2.75):
        assert hl(rf, s, "right") == pytest.approx(hl(B3, s, "right"), abs=1e-12)
        assert hl(rf, s, "left") == pytest.approx(hl(B3, s, "left"), abs=1e-12)
    assert hl(rf, 0.5, "left") + hl(rf, 0.5, "right") == pytest.approx([1.0], abs=1e-12)


def test_refinable_evaluate_interpolates_cascade():
    rf = RefinableFunction(D4_MASK, level=10)
    xs = np.array([0.5, 1.0, 1.5, 2.9])
    direct = rf.samples().evaluate(xs)
    assert np.allclose(rf.evaluate(xs), direct)


def test_refinable_vector_valued_diagonal_mask():
    # stack the 2-tap and 3-tap spline masks into one diagonal vector mask
    ents = np.zeros((3, 2, 2))
    ents[0, 0, 0], ents[1, 0, 0] = 0.5, 0.5
    ents[0, 1, 1], ents[1, 1, 1], ents[2, 1, 1] = 0.25, 0.5, 0.25
    rf = RefinableFunction(MatrixSeq(0, ents), normalization=[1.0, 1.0], level=7)
    assert rf.moment(1) == pytest.approx([0.5, 1.0], abs=1e-12)
    xs = np.linspace(0.01, 1.99, 57)
    vals = rf.evaluate(xs)
    assert np.max(np.abs(vals[:, 1] - bspline(2).evaluate(xs)[:, 0])) < 1e-9
    assert gl.halfline_integral(rf, 1.0, "right") == pytest.approx([0.0, 0.5], abs=1e-10)
    assert rf.refinement_residual() < 1e-12
    # each component checked against the other's mask: the 2x2 taps must keep them apart
    swapped = MatrixSeq(0, ents[:, ::-1, ::-1])
    assert refinement_residual(rf.samples(), swapped) > 0.1


def test_cascade_vector_mask_keeps_halfopen_convention():
    # the Haar component of the diagonal mask has a double eigenvalue 1; the
    # cascade's own start vector picks the half-open indicator of [0, 1)
    ents = np.zeros((3, 2, 2))
    ents[0, 0, 0], ents[1, 0, 0] = 0.5, 0.5
    ents[0, 1, 1], ents[1, 1, 1], ents[2, 1, 1] = 0.25, 0.5, 0.25
    sf = cascade(MatrixSeq(0, ents), normalization=[1.0, 1.0], level=3)
    assert np.array_equal(sf.values[:, 0], (sf.xs() < 1.0).astype(float))


def test_refinable_vector_mask_requires_normalization():
    ents = np.zeros((2, 2, 2))
    ents[0] = ents[1] = np.eye(2) / 2
    with pytest.raises(PreconditionError):
        RefinableFunction(MatrixSeq(0, ents))


def test_refinable_refinement_residual_small():
    assert RefinableFunction(D4_MASK, level=10).refinement_residual() < 1e-8


@settings(max_examples=100, deadline=None)
@given(r=st.sampled_from([1, 2]), level=st.integers(1, 12), data=st.data())
def test_refinable_residual_reads_the_integers_only(r, level, data):
    """Off the integers the full scan of ``phi - 2 sum_k a(k) phi(2x - k)``
    is exactly 0.0, because the refinement made each such sample by that very
    sum; so the residual over the integers alone equals the full scan, bit
    for bit."""
    mask, norm = data.draw(spline_like_mask(r))
    f = RefinableFunction(mask, norm, level)
    try:
        sf = f.samples()
    except (ConvergenceError, PreconditionError):
        assume(False)
    n = sf.values.shape[0]
    table = funcmodel._sample_table(sf, level)
    rows = sf.values - funcmodel._matrix_synthesis(table, 2 * sf.start, n, 2, mask.offset, 2.0 * mask.entries.real)
    assert np.all(rows[np.arange(n) % 2**level != 0] == 0.0)
    assert repr(f.refinement_residual()) == repr(refinement_residual(sf, mask))


@pytest.mark.parametrize("level,start", [(0, -3), (6, -3), (6, 5), (12, 7)])
def test_sampled_values_at_their_own_level_are_handed_over(monkeypatch, level, start):
    """A sampled function read at its own level hands over its values, with
    no ``evaluate`` call: the bytes ``evaluate`` gives on the grid over its
    support, -0.0 samples included."""
    vals = np.sin(np.arange(2**level + 9) * 2.0**-level * 7.0)[:, None] * np.array([1.0, -2.0])
    vals[::5] = -0.0
    f = SampledFunction(level, start, vals)
    want = f.evaluate(funcmodel.dyadic_grid(*f.support, f.level)[1])
    assert np.signbit(want[::5]).all()
    calls = []
    real = SampledFunction.evaluate
    monkeypatch.setattr(SampledFunction, "evaluate", lambda self, x: calls.append(x) or real(self, x))
    i0, got = funcmodel._support_samples(f, f.level)
    assert (i0, got.tobytes()) == (start, want.tobytes())
    assert calls == []


def test_one_cascade_per_refinable_function(monkeypatch):
    """Samples, evaluation and the refinement residual all read the one
    cascade a refinable function makes at its level."""
    calls = []
    real = funcmodel.cascade
    monkeypatch.setattr(funcmodel, "cascade", lambda *args: calls.append(args) or real(*args))
    rf = RefinableFunction(D4_MASK, level=10)
    for _ in range(3):
        rf.samples()
        rf.evaluate(np.linspace(-1.0, 4.0, 11))
        rf.refinement_residual()
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# level-10 support grid reads: _grid_min and _continuity_defect

GRID_READ_HANDLES = {
    "pp-b1": bspline(1),
    "pp-b3": bspline(3),
    "pp-b2-off-grid": bspline(2).shift(0.3),
    "sampled-L6": SampledFunction(6, -3, bspline(2).evaluate(np.arange(-3, 2 * 2**6 + 4) * 2.0**-6) - 0.01),
    "sampled-L12": SampledFunction(12, 5, np.sin(np.arange(0, 2**12 + 1) * 2.0**-12 * 7.0)),
    "refinable-haar-L12": RefinableFunction(bspline_mask(1), level=12),
    "refinable-cdf13-L10": RefinableFunction(cdf13_mask(), level=10),
    **{f"refinable-d2-L{lev}": RefinableFunction(D4_MASK, level=lev) for lev in range(8, 17)},
}


def _reference_level10_samples(f, pad):
    """f evaluated on the level-10 points covering its support, with ``pad``
    more points at each end."""
    i0, i1 = dyadic_bounds(*f.support, 10)
    return f.evaluate(np.arange(i0 - pad, i1 + pad + 1) * 2.0**-10)


@pytest.mark.parametrize("name", sorted(GRID_READ_HANDLES))
def test_support_grid_reads_match_evaluate_reference(name):
    f = GRID_READ_HANDLES[name]
    want_min = float(np.min(_reference_level10_samples(f, 0)))
    want_defect = float(np.max(np.abs(np.diff(_reference_level10_samples(f, 1), axis=0))))
    assert repr(_grid_min(f)) == repr(want_min)
    assert repr(_continuity_defect(f)) == repr(want_defect)


@pytest.mark.parametrize("level", [10, 12, 16])
def test_support_grid_reads_take_the_cached_cascade(monkeypatch, level):
    """A refinable function carrying level 10 or finer is read at a stride of
    its samples, with no call to evaluate."""
    rf = RefinableFunction(D4_MASK, level=level)
    rf.samples()

    def refuse(self, x):
        raise AssertionError("evaluate called")

    for cls in (RefinableFunction, SampledFunction, PiecewisePoly):
        monkeypatch.setattr(cls, "evaluate", refuse)
    _grid_min(rf)
    _continuity_defect(rf)


# ---------------------------------------------------------------------------
# dispatch helpers


def test_fhat_deriv0_dispatch():
    B2 = bspline(2)
    assert gl.fhat_deriv0(B2, 0) == pytest.approx([1.0 + 0j])
    assert gl.fhat_deriv0(B2, 1) == pytest.approx([-1.0j])
    rf = RefinableFunction(B2_MASK)
    assert gl.fhat_deriv0(rf, 2) == pytest.approx([-7 / 6 + 0j], abs=1e-12)


def test_halfline_integral_side_validation():
    with pytest.raises(PreconditionError):
        gl.halfline_integral(bspline(2), 0.5, "up")


HALFLINE_HANDLES = {
    "piecewise": bspline(3),
    "sampled": SampledFunction(6, 0, bspline(2).evaluate(np.arange(0, 2 * 2**6 + 1) * 2.0**-6)),
    "refinable": RefinableFunction(D4_MASK, level=8),
}


@pytest.mark.parametrize("kind", sorted(HALFLINE_HANDLES))
@settings(max_examples=150, deadline=None)
@given(
    s=st.one_of(
        st.floats(min_value=-5.0, max_value=8.0, allow_nan=False),
        st.integers(min_value=-5, max_value=8).map(float),
    )
)
def test_halfline_integral_is_cumulative(kind, s):
    f = HALFLINE_HANDLES[kind]
    left = gl.halfline_integral(f, s, "left")
    right = gl.halfline_integral(f, s, "right")
    total = f.cumulative(f.support[1])[0]
    assert np.array_equal(left, f.cumulative(s)[0])
    assert np.array_equal(left + right, total)
    if s < f.support[0]:
        assert np.array_equal(left, np.zeros(f.ncomponents))


def test_inner_product_grid_vs_exact_smooth():
    rf = RefinableFunction(B3_MASK, level=10)
    got = gl.inner_product(rf, bspline(3))
    assert got[0, 0] == pytest.approx(11 / 20, abs=1e-9)


def test_inner_product_disjoint_supports():
    assert gl.inner_product(bspline(2), bspline(2), shift=7.0)[0, 0] == 0.0


def test_quadrature_error_decays_at_second_order():
    # kinks at thirds sit off every dyadic grid, so composite Simpson on the
    # product sees a genuine O(4^-level) error; fit the log2 slope
    B2 = bspline(2)
    exact = gl.inner_product(B2, B2, shift=1 / 3)[0, 0]
    rf = RefinableFunction(B2_MASK, level=12)
    levels = np.arange(3, 9)
    errs = []
    for lv in levels:
        approx = gl.inner_product(rf, B2, shift=1 / 3, level=int(lv))[0, 0]
        errs.append(abs(approx - exact))
    slope = np.polyfit(levels, np.log2(errs), 1)[0]
    assert -2.3 < slope < -1.7


def test_simpson_exact_for_cubics():
    for n in (8, 9):  # even and odd interval counts
        xs = np.linspace(0.0, 1.0, n + 1)
        got = simpson_sum(xs**3, 1.0 / n)
        assert got == pytest.approx(0.25, abs=1e-13)


# ---------------------------------------------------------------------------
# JSON dispatch


def test_function_json_roundtrip_all_kinds():
    objs = [
        bspline(3),
        RefinableFunction(D4_MASK, level=9),
        cascade(B2_MASK, level=5),
    ]
    xs = np.linspace(-0.5, 3.5, 101)
    for f in objs:
        d = function_to_json_dict(f)
        g = function_from_json_dict(d)
        assert type(g) is type(f)
        assert np.allclose(g.evaluate(xs), f.evaluate(xs), atol=1e-12)


def test_function_json_unknown_kind():
    with pytest.raises(PreconditionError):
        function_from_json_dict({"kind": "mystery"})
