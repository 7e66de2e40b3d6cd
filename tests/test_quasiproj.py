"""Tests for the quasi-projection engine.

Oracle strategy:
  * hand-computable pairs (indicator / hat) give exact closed forms;
  * dual routes: analytic built-ins (Sgn/Monomial) vs generic quadrature of
    the same signal must agree to near machine precision whenever the
    quadrature is exact (polynomial integrands on dyadic grids);
  * operator identities (dyadic scaling, shift periodicity, support locality)
    are checked as exact index-aligned array equalities.
"""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from strategies import spline_like_mask

from gibbslab import quasiproj
from gibbslab.catalog import bspline_mask, pair_fleet, resolve_framelet, resolve_pair
from gibbslab.construct import build_dual
from gibbslab.errors import ConvergenceError, DimensionMismatchError, PreconditionError
from gibbslab.framelet import truncated_expansion
from gibbslab.funcmodel import PiecewisePoly, RefinableFunction, bspline, cascade, dyadic_grid
from gibbslab.gibbs import bracket_second_deriv, identity_rhs, overshoot, overshoot_curve
from gibbslab.quasiproj import (
    GridSpec,
    Monomial,
    QuasiProjectionPair,
    Sgn,
    _coefficients,
    _sample_table,
    _synthesis,
    accuracy_order,
    apply,
    approximation_rate,
    check_qp1,
    kernel_criterion,
    poly_reproduction,
)
from gibbslab.sequences import MatrixSeq


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


# -- grids ------------------------------------------------------------------


def test_gridspec_snaps_to_dyadic_points():
    i0, xs = dyadic_grid(*GridSpec(3, 0.1, 0.9).window(-1.0, 1.0), 3)
    assert i0 == 0
    assert xs[0] == 0.0 and xs[-1] == 1.0
    assert np.allclose(np.diff(xs), 0.125)


def test_gridspec_defaults_come_from_caller():
    _, xs = dyadic_grid(*GridSpec(2).window(-1.5, 0.75), 2)
    assert xs[0] == -1.5 and xs[-1] == 0.75


def test_gridspec_rejects_bad_level_and_empty_window():
    with pytest.raises(PreconditionError):
        dyadic_grid(*GridSpec(17).window(0.0, 1.0), 17)
    with pytest.raises(PreconditionError):
        dyadic_grid(*GridSpec(8, 2.0, -2.0).window(0.0, 1.0), 8)


@pytest.mark.parametrize("lo,hi", [(math.nan, 1.0), (0.0, math.nan), (0.0, math.inf), (-math.inf, 0.0)])
def test_gridspec_rejects_non_finite_window(lo, hi):
    with pytest.raises(PreconditionError, match="finite"):
        GridSpec(8, lo, hi).window(0.0, 1.0)


# -- pair bookkeeping ---------------------------------------------------------


def test_support_bound_is_integer_radius(haar, b3):
    assert haar.support_bound == 1
    assert b3.support_bound == 3
    assert resolve_pair("bspline:2").support_bound == 2


def test_component_mismatch_rejected():
    two = PiecewisePoly([0.0, 1.0], np.ones((1, 2, 1)))
    with pytest.raises(DimensionMismatchError):
        QuasiProjectionPair(bspline(1), two)


def test_swapped_exchanges_roles(b2):
    pair = QuasiProjectionPair(bspline(2), bspline(3))
    sw = pair.swapped()
    assert sw.phi is pair.phi_tilde and sw.phi_tilde is pair.phi


def test_pair_json_roundtrip(b2):
    pair2 = QuasiProjectionPair.from_json_dict(b2.to_json_dict())
    a = apply(b2, Sgn(0.0), 0, 0.0, GridSpec(6, -6, 6))
    b = apply(pair2, Sgn(0.0), 0, 0.0, GridSpec(6, -6, 6))
    assert np.array_equal(a.values, b.values)


# -- sign signal --------------------------------------------------------------


def test_haar_reproduces_sign_everywhere(haar):
    sf = apply(haar, Sgn(0.0), 0, 0.0, GridSpec(8, -4, 4))
    xs, v = sf.xs(), sf.values[:, 0]
    # on the jump cell the output is the cell value; half-open pieces put
    # x = 0 with the positive side
    expect = np.where(xs >= 0, 1.0, -1.0)
    assert np.max(np.abs(v - expect)) == 0.0


def test_hat_pair_sign_is_exact_outside_interaction_zone(b2):
    sf = apply(b2, Sgn(0.0), 0, 0.0, GridSpec(8, -8, 8))
    xs, v = sf.xs(), sf.values[:, 0]
    far = np.abs(xs) >= 5.0
    assert np.max(np.abs(v[far] - np.sign(xs[far]))) < 1e-12


def test_sign_window_must_cover_interaction_zone(b2):
    with pytest.raises(PreconditionError, match="interaction zone"):
        apply(b2, Sgn(0.0), 0, 0.0, GridSpec(10, -3.0, 6.0))


def test_shifted_sign_center_moves_zone(b2):
    sf = apply(b2, Sgn(2.0), 0, 0.0, GridSpec(8, -4, 8))
    xs, v = sf.xs(), sf.values[:, 0]
    far = np.abs(xs - 2.0) >= 5.0
    assert np.max(np.abs(v[far] - np.sign(xs[far] - 2.0))) < 1e-12


def test_rejects_negative_scale_level(b2):
    with pytest.raises(PreconditionError):
        apply(b2, Sgn(0.0), -1, 0.0, GridSpec(8, -8, 8))


def test_dyadic_scaling_identity(b2):
    """Level-n output at x equals level-0 output at 2^n x, index-aligned."""
    fine = apply(b2, Sgn(0.0), 2, 0.0, GridSpec(12, -2.0, 2.0))
    coarse = apply(b2, Sgn(0.0), 0, 0.0, GridSpec(10, -8.0, 8.0))
    assert fine.values.shape == coarse.values.shape
    assert np.max(np.abs(fine.values - coarse.values)) < 1e-12


def test_shift_periodicity_in_t(b2):
    a = apply(b2, Sgn(0.0), 0, 0.3, GridSpec(8, -8, 8))
    b = apply(b2, Sgn(0.0), 0, 1.3, GridSpec(8, -8, 8))
    assert np.max(np.abs(a.values - b.values)) < 1e-10


@pytest.mark.parametrize("c", [0.25, 1.0 / 3.0])
def test_shifted_pair_route_matches_t_parameter(b2, c):
    """Q with shift parameter t = c equals the operator of the c-shifted pair."""
    direct = apply(b2, Sgn(0.0), 0, c, GridSpec(9, -8, 8))
    shifted = apply(b2.shifted(c), Sgn(0.0), 0, 0.0, GridSpec(9, -8, 8))
    assert np.max(np.abs(direct.values - shifted.values)) < 1e-12


def test_small_t_perturbation_moves_output_little(b2):
    a = apply(b2, Sgn(0.0), 0, 0.0, GridSpec(9, -8, 8))
    b = apply(b2, Sgn(0.0), 0, 1e-3, GridSpec(9, -8, 8))
    assert np.max(np.abs(a.values - b.values)) < 0.05


def test_sign_coefficients_match_quadrature_route(b3):
    """Sgn tail-integral coefficients vs brute-force quadrature of sgn."""
    analytic = apply(b3, Sgn(0.25), 0, 0.1, GridSpec(7, -8, 8))
    sgn = lambda x: np.where(x - 0.25 >= 0, 1.0, -1.0)
    quad = apply(b3, sgn, 0, 0.1, GridSpec(7, -8, 8))
    # the jump sits inside one Simpson panel of width 2^-11, so the
    # quadrature route carries an O(h) error ~2e-5; the analytic route is exact
    assert np.max(np.abs(analytic.values - quad.values)) < 1e-4


def _by_hand(pair, f, n, t, grid):
    """sum_k c_k phi(2^n x + t - k), written out term by term on the grid that
    ``apply`` chose; for Sgn(x0), c_k = 2 T(2^n x0 + t - k) - mass, other
    signals take their coefficients from ``_coefficients``."""
    xs = apply(pair, f, n, t, grid).xs()
    z = 2.0**n * xs + t
    lo, hi = pair.phi.support
    mass = pair.phi_tilde.moment(0)[0]
    acc = np.zeros(z.size)
    for k in range(math.floor(z[0] - hi), math.ceil(z[-1] - lo) + 1):
        if isinstance(f, Sgn):
            tail = mass - pair.phi_tilde.cumulative(np.array([2.0**n * f.x0 + t - k]))[0, 0]
            c = 2.0 * tail - mass
        else:
            c = _coefficients(pair, f, n, t, np.array([k]))[0, 0].real
        acc += pair.phi.evaluate(z - k)[:, 0] * c
    return acc


@pytest.mark.parametrize(
    "spec,carried,level,x0,n,t",
    [
        ("bspline:3", 12, 10, 0.0, 0, 0.25),  # piecewise-poly pair, on-grid shift
        ("daubechies:3", 11, 12, 0.0, 0, 0.5),  # interpolated midpoints of a level-11 phi
        ("daubechies:3", 12, 12, 0.1, 2, 0.75),  # strided table slices
        ("daubechies:3", 12, 12, 0.1, 3, 0.25),  # stride 8
        ("bspline:3", 12, 10, 0.0, 0, -0.25),  # negative shift
        ("daubechies:3", 12, 12, 0.0, 1, 1.5),  # shift beyond one period
        ("daubechies:3", 12, 2, 0.0, 3, 0.25),  # stride 2^n = 8 wider than a 2^level = 4 table row
        # spec "name@c": the pair shifted by c, its support off the integer rows
        pytest.param("bspline:3@0.25", 12, 10, 0.3, 1, 0.5, id="bspline:3@0.25-12-10-0.3-1-0.5"),
        # an explicit window that starts inside a table row
        pytest.param("daubechies:3", 12, GridSpec(11, -12.3, 11.7), 0.0, 0, 0.5, id="daubechies:3-window"),
        pytest.param("daubechies:3", 12, 11, Monomial(2), 1, 0.25, id="daubechies:3-monomial2"),
    ],
)
def test_apply_matches_hand_written_sum_bitwise(spec, carried, level, x0, n, t):
    """On-grid shifts: the table holds phi at the very points the term-by-term
    sum evaluates, so the two agree bit for bit."""
    name, _, c = spec.partition("@")
    pair = resolve_pair(name, carried)
    if c:
        pair = pair.shifted(float(c))
    grid = level if isinstance(level, GridSpec) else GridSpec(level)
    f = Sgn(x0) if isinstance(x0, float) else x0
    sf = apply(pair, f, n, t, grid)
    assert np.array_equal(sf.values[:, 0], _by_hand(pair, f, n, t, grid))


_OFF_GRID_SHIFTS = {
    "1/3": 1.0 / 3.0,
    "5/13": 5.0 / 13.0,
    "2/7": 2.0 / 7.0,
    "sqrt2-1": math.sqrt(2.0) - 1.0,
    "-2/9": -2.0 / 9.0,
    "5/3": 5.0 / 3.0,
}


@pytest.mark.parametrize(
    "spec,shift,n",
    [
        (spec, shift, n)
        for spec in ("haar", "bspline:2", "bspline:3", "bspline:4", "daubechies:2", "daubechies:3")
        for shift in _OFF_GRID_SHIFTS
        for n in (0, 2)
    ],
)
def test_apply_off_grid_matches_hand_written_sum(spec, shift, n):
    """Off-grid shifts: the phase table samples phi at ``fl(j 2^-12 + delta)``
    where the term-by-term sum evaluates it at ``fl(fl(2^n x + t) - k)``; the
    rounding differs in the last bits, so the sums agree within 1e-12."""
    pair = resolve_pair(spec)
    t, grid = _OFF_GRID_SHIFTS[shift], GridSpec(12)
    got = apply(pair, Sgn(0.0), n, t, grid).values[:, 0]
    assert np.max(np.abs(got - _by_hand(pair, Sgn(0.0), n, t, grid))) <= 1e-12


@pytest.mark.parametrize("spec,level", [("daubechies:3", 12), ("daubechies:3", 10), ("bspline:3", 9)])
@pytest.mark.parametrize("t", [1.0 / 3.0, math.sqrt(2.0) - 1.0, -2.0 / 9.0, 5.0 / 3.0])
def test_phase_table_is_phi_at_the_shifted_grid(spec, level, t):
    """``t = s 2^-level + delta`` splits exactly, and the table at phase
    ``delta`` holds the bits of ``phi.evaluate`` at the grid points + delta."""
    phi = resolve_pair(spec).phi
    s = math.floor(t * 2.0**level)
    delta = t - s * 2.0**-level
    assert Fraction(s, 2**level) + Fraction(delta) == Fraction(t)
    assert 0.0 < delta < 2.0**-level
    width = 2**level
    m0, xs = dyadic_grid(*phi.support, level)
    want = np.zeros((-(-xs.size // width) * width, 1))
    want[: xs.size] = phi.evaluate(xs + delta)
    got_m0, got = QuasiProjectionPair(phi, phi).phi_table(level, delta)
    assert got_m0 == m0 and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("t,x0", [(math.nan, 0.0), (math.inf, 0.0), (0.25, math.nan), (0.0, -math.inf)])
def test_apply_refuses_non_finite_shift_or_jump(d3, t, x0):
    with pytest.raises(PreconditionError, match="finite"):
        apply(d3, Sgn(x0), 0, t)


def test_apply_refuses_a_window_past_exact_grid_points(d3):
    """Level-12 points ``i 2^-12`` are exact floats below 2^41: a window just
    under it still reproduces constants, one reaching it is refused."""
    near = apply(d3, Monomial(0), 0, 0.0, GridSpec(12, 2.0**40, 2.0**40 + 1))
    assert np.max(np.abs(near.values - 1.0)) < 1e-9
    with pytest.raises(PreconditionError, match="exact"):
        apply(d3, Monomial(0), 0, 0.0, GridSpec(12, 2.0**41 - 1, 2.0**41))


@pytest.mark.parametrize("n", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "call",
    [lambda pair, n: apply(pair, Sgn(0.25), n), lambda pair, n: approximation_rate(pair, Sgn(0.25), [2, n])],
    ids=["apply", "approximation_rate"],
)
def test_a_non_finite_level_n_is_refused(b2, call, n):
    """``n != int(n)`` raised ValueError for NaN and OverflowError for an
    infinite n; the range test now refuses them first."""
    with pytest.raises(PreconditionError, match="level n must be a nonnegative integer"):
        call(b2, n)


@pytest.mark.parametrize("lo,hi", [(-1e308, 1e308), (-1.0, 1e308), (-1e308, -1e307), (-1e300, 1e300)])
def test_a_window_without_finite_grid_indices_is_refused_before_it_is_sized(b2, lo, hi):
    """``dyadic_bounds`` raised OverflowError on a window end whose grid index
    ``lo 2^level`` or ``hi 2^level`` is infinite; such a window now gets the
    refusal a far window with finite indices, such as ``[-1e300, 1e300]``,
    already got."""
    with pytest.raises(PreconditionError, match=r"window reaches 2\^41, beyond exact grid points"):
        apply(b2, Monomial(0), 0, 0.0, GridSpec(12, lo, hi))


def test_a_far_window_that_the_shift_brings_back_is_accepted(b2):
    back = apply(b2, Monomial(0), 0, -(2.0**40), GridSpec(12, 2.0**40, 2.0**40 + 1))
    assert back.values.shape == (4097, 1) and np.max(np.abs(back.values - 1.0)) < 1e-9


@pytest.mark.parametrize("n", [1023, 1024, 5000])
@pytest.mark.parametrize(
    "call",
    [
        lambda pair, n: apply(pair, Sgn(0.25), n, 0.0, GridSpec(12, -4.0, 4.0)),
        lambda pair, n: approximation_rate(pair, Sgn(0.25), [2, n]),
    ],
    ids=["apply", "approximation_rate"],
)
def test_a_level_n_whose_power_of_two_overflows_is_refused(b2, call, n):
    """``2.0**n`` raised OverflowError from n = 1024 on; such an n gets the
    refusal n = 53..1023 get, since its window reaches past exact grid
    points."""
    with pytest.raises(PreconditionError, match=r"window reaches 2\^41, beyond exact grid points"):
        call(b2, n)


@pytest.mark.parametrize(
    "f,digest",
    [
        (Sgn(0.1), "cecbe6276afe79b7251bbf73de1525b6151959b8eecde842aef54d2e917e5ac0"),
        (Monomial(2), "de9f97be44d98f1c6d7eff58392d27542fc2eb4f7cd38a452fcd23fbcc2da5f2"),
    ],
)
def test_vector_pair_expansion_keeps_its_bytes(f, digest):
    """The 2-component wavelet pair of the hat-function tight frame, summed
    with the polyphase kernel at strides 1, 2 and 4, gives the bytes the
    per-k loop gave (sha256 of the samples, recorded before the kernel with
    numpy 2.4 on x86-64)."""
    df = resolve_framelet("bspline2-tight")
    assert df.psi.ncomponents == 2
    sf = truncated_expansion(df, f, 3, GridSpec(10))
    assert hashlib.sha256(sf.values.tobytes()).hexdigest() == digest


def _naive_synthesis(table, g0, count, stride, klo, coeff):
    """``_synthesis`` written as a loop: for each point, the rows ``a`` with
    ``k = q - a`` ascending, added from +0, each row's component sum one term,
    itself added left to right from +0 for r <= 2.  For r = 3 that sum is
    einsum's on the row alone: numpy's einsum adds three components in an
    order that depends on the SIMD build (``(p0 + p2) + p1`` on AVX-512; the
    r >= 3 FOUND line in CHANGES.md)."""
    m0, P = table
    rows, width, _ = P.shape
    out = np.empty(count)
    for i in range(count):
        q, j = divmod(g0 + stride * i - m0, width)
        acc = 0.0
        for a in range(rows - 1, -1, -1):
            c = coeff[min(max(q - a - klo, 0), len(coeff) - 1)]
            if c.size > 2:
                term = np.einsum("r,r->", c, P[a, j])
            else:
                term = 0.0
                for x, y in zip(c, P[a, j]):
                    term = term + x * y
            acc = acc + term
        out[i] = acc
    return out


_SYNTH_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False),
)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(1, 9),
    r=st.integers(1, 3),
    level=st.integers(1, 4),
    log_stride=st.integers(0, 6),
    m0=st.integers(-40, 40),
    g0=st.integers(-80, 80),
    count=st.integers(1, 40),
    klo=st.integers(-12, 12),
    pattern=st.lists(_SYNTH_VALUES, min_size=1, max_size=18),
    repeats=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
# a period-2 sequence: equal windows two apart with another between them
@example(rows=1, r=1, level=2, log_stride=0, m0=0, g0=-4, count=40, klo=0,
         pattern=[0.5, -1.0], repeats=3, seed=0)
# +-0.0 windows next to each other, and a flat run at each end
@example(rows=3, r=2, level=2, log_stride=1, m0=-3, g0=-20, count=40, klo=-2,
         pattern=[0.0, -0.0, -0.0, 0.0, 1.0, -1.0], repeats=1, seed=1)
# a table whose last three rows hold only zeros: (0.0, -0.0), (0.0, 0.0), (-0.0, -0.0)
@example(rows=4, r=1, level=1, log_stride=0, m0=-3, g0=-12, count=40, klo=-2,
         pattern=[0.5, -1.0, 0.25, -0.0, 2.0], repeats=2, seed=5976)
def test_synthesis_matches_naive_loop_bitwise(rows, r, level, log_stride, m0, g0, count, klo, pattern, repeats, seed):
    """The one-contraction kernel gives the bytes of the loop over points and
    rows, at strides below and above ``2^level``, on constant runs, repeated
    windows and +-0.0 coefficients against a table holding +-0.0 samples."""
    width = 2**level
    stride = 2 ** min(log_stride, level + 2)
    rng = np.random.default_rng(seed)
    P = rng.standard_normal((rows, width, r)) * 10.0 ** rng.integers(-6, 6, (rows, width, r))
    P[rng.random(P.shape) < 0.2] = 0.0
    P[rng.random(P.shape) < 0.1] = -0.0
    P.flags.writeable = False
    flat = np.tile(np.asarray(pattern), repeats)
    coeff = flat[: flat.size - flat.size % r].reshape(-1, r) if flat.size >= r else np.resize(flat, (1, r))
    table = (m0, P)
    got = _synthesis(table, g0, count, stride, klo, coeff)
    assert got.tobytes() == _naive_synthesis(table, g0, count, stride, klo, coeff).tobytes()


@pytest.mark.parametrize("spec,carried", [("daubechies:2", 12), ("daubechies:3", 11)])
def test_refinable_phi_table_reads_the_cached_samples(monkeypatch, spec, carried):
    """At the level a refinable phi carries and at the two levels below it,
    its table holds the cascade samples (at stride 1, 2 and 4) with the bytes
    that evaluating at the grid points gave, and no ``evaluate`` runs; at a
    finer level it still evaluates, once."""
    phi = resolve_pair(spec, carried).phi
    levels = (carried, carried - 1, carried - 2)
    wants = {}
    for level in levels:
        width = 2**level
        m0, xs = dyadic_grid(*phi.support, level)
        want = np.zeros((-(-xs.size // width) * width, 1))
        want[: xs.size] = phi.evaluate(xs)
        wants[level] = m0, want
    calls = []
    orig = RefinableFunction.evaluate

    def counted(self, x):
        calls.append(np.size(x))
        return orig(self, x)

    monkeypatch.setattr(RefinableFunction, "evaluate", counted)
    pair = QuasiProjectionPair(phi, phi)
    for level in levels:
        got_m0, got = pair.phi_table(level)
        m0, want = wants[level]
        assert calls == [] and got_m0 == m0 and got.tobytes() == want.tobytes(), level
    pair.phi_table(carried + 1)
    assert len(calls) == 1


def test_dual_pairings_read_a_refinable_dual_from_its_cascade(monkeypatch, d3):
    """At the level the dual carries, the quadrature grid's samples are the
    cached cascade: no ``evaluate`` call."""
    calls = []
    orig = RefinableFunction.evaluate
    monkeypatch.setattr(RefinableFunction, "evaluate", lambda self, x: calls.append(np.size(x)) or orig(self, x))
    quasiproj._dual_pairings(lambda x: np.exp(-(x**2)), d3.phi_tilde, 0, 0.0, np.arange(-3, 4))
    assert calls == []


def test_overshoot_curve_evaluates_phi_once_per_level(monkeypatch):
    pair = QuasiProjectionPair(bspline(3), bspline(3))
    calls = []
    orig = PiecewisePoly.evaluate

    def counted(self, x):
        if self is pair.phi:
            calls.append(np.size(x))
        return orig(self, x)

    monkeypatch.setattr(PiecewisePoly, "evaluate", counted)
    for level in (9, 10):
        overshoot_curve(pair, 16, level)
        overshoot_curve(pair, 16, level)
    assert len(calls) == 2


def test_complex_moment_is_refused():
    """A dual with a genuinely complex mass must not be read as zero."""
    with pytest.raises(PreconditionError, match="real"):
        QuasiProjectionPair(bspline(2), RefinableFunction(bspline_mask(2), normalization=[1j]))


def test_complex_signal_is_refused(b2):
    """A callable with genuinely complex values must not lose its imaginary
    part on the way to the coefficients."""
    with pytest.raises(PreconditionError, match="genuinely complex"):
        apply(b2, lambda x: np.exp(1j * x))


def test_signal_with_zero_imaginary_part_keeps_the_real_bytes(b2):
    real = apply(b2, lambda x: np.exp(-(x**2)))
    complex_typed = apply(b2, lambda x: np.exp(-(x**2)) + 0j)
    assert real.values.tobytes() == complex_typed.values.tobytes()


# -- polynomial signals --------------------------------------------------------


def test_constant_reproduced(b2, b3, d2):
    for pair in (b2, b3, d2):
        res = poly_reproduction(pair, 1)
        assert res[0] < 1e-9


def test_hat_pair_reproduces_linears_exactly(b2):
    res = poly_reproduction(b2, 2)
    assert res[1] < 1e-12


def test_hat_pair_degree_two_residual_value(b2):
    # Q x^2 - x^2 = (piecewise-linear interpolant of x^2 at the integers
    # minus x^2) + second-moment excess = 1/4 at half-integers + 1/6
    res = poly_reproduction(b2, 3, GridSpec(8, -6, 6))
    assert res[2] == pytest.approx(5.0 / 12.0, abs=1e-10)


def test_monomial_route_with_shift(b2):
    sf = apply(b2, Monomial(1), 0, 0.3, GridSpec(8, -6, 6))
    assert np.max(np.abs(sf.values[:, 0] - sf.xs())) < 1e-12


def test_monomial_rejects_negative_degree(b2):
    with pytest.raises(PreconditionError):
        apply(b2, Monomial(-1), 0, 0.0, GridSpec(8, -6, 6))


@pytest.mark.parametrize(
    "spec,expected",
    [("haar", 1), ("bspline:2", 2), ("bspline:3", 2), ("daubechies:2", 2), ("daubechies:3", 3)],
)
def test_accuracy_orders(spec, expected):
    pair = resolve_pair(spec)
    assert accuracy_order(pair, m_max=4) == expected


def _first_failure(residuals: dict, tol: float) -> int:
    """The order read off the full residual dict: the first degree not < tol."""
    return next((j for j in sorted(residuals) if not residuals[j] < tol), len(residuals))


@pytest.fixture(scope="module")
def fleet():
    return pair_fleet(12)


def test_accuracy_order_stops_at_the_first_failing_degree(monkeypatch, fleet):
    """Scalar refinable and piecewise pairs take the exact route and expand
    no monomial; a sampled pair tries degrees 0, 1, 2, ... and the first
    failure ends the search: order + 1 residuals, or m_max when every degree
    passes."""
    seen = []
    residual = quasiproj._reproduction_residual

    def counting(pair, j, grid):
        seen.append(j)
        return residual(pair, j, grid)

    monkeypatch.setattr(quasiproj, "_reproduction_residual", counting)
    for name, pair in fleet:
        for m_max in (1, 2, 6):
            accuracy_order(pair, m_max=m_max)
            assert seen == [], (name, m_max)
    hat = cascade(bspline_mask(2), level=12)  # the hat's samples: a sampled pair of order 2
    pair = QuasiProjectionPair(hat, hat)
    for m_max in (1, 2, 6):
        seen.clear()
        order = accuracy_order(pair, m_max=m_max)
        assert order == min(2, m_max) and seen == list(range(min(order + 1, m_max))), (m_max, order)
    assert seen == [0, 1, 2]


def test_accuracy_order_equals_the_full_residual_scan(order_pairs):
    """Every cross-route pair takes the exact route, and its order is the
    first degree whose level-12 reproduction residual is not below the
    default tol 1e-8."""
    for name, pair in order_pairs:
        order = _first_failure(poly_reproduction(pair, 6), 1e-8)
        assert accuracy_order(pair) == quasiproj._exact_order(pair, 6) == order, name


def test_the_order_6_dual_of_b6_reads_order_6():
    """build_dual(b6, 6) reproduces quintics: the exact route reads 6, where
    the grid route stops at 5, its x^5 residual (3e-8) above the absolute
    1e-8, so this pair stays out of the equality test."""
    pair = QuasiProjectionPair(bspline(6), build_dual(bspline(6), 6).phi_tilde)
    assert accuracy_order(pair) == quasiproj._exact_order(pair, 6) == 6
    assert _first_failure(poly_reproduction(pair, 6), 1e-8) == 5


def test_the_exact_route_leaves_unsettled_pairs_to_the_grid(grid_route_pairs):
    """A failed sum rule of a mask whose symbol has symmetric zeros, or a
    sampled dual, sends the pair to the grid scan, which reads its order."""
    for name, pair, exact in grid_route_pairs:
        order = _first_failure(poly_reproduction(pair, 6), 1e-8)
        assert accuracy_order(pair) == order, name
        assert quasiproj._exact_order(pair, 6) == (order if exact else None), name
    assert [accuracy_order(pair) for _, pair, _ in grid_route_pairs[:2]] == [2, 1]


def test_a_mask_the_cascade_refuses_has_no_accuracy_order():
    """The stretched hat's mask (1 + z^2)^2 / 4 breaks the first sum rule at
    pi, yet its shifts sum to one: its order is not read off the mask, and
    the grid route refuses it as the cascade does."""
    f = RefinableFunction(MatrixSeq.scalar(0, [0.25, 0.0, 0.5, 0.0, 0.25]))
    assert quasiproj._exact_order(QuasiProjectionPair(f, f), 6) is None
    with pytest.raises(PreconditionError, match="first sum rule"):
        accuracy_order(QuasiProjectionPair(f, f))


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_exact_order_equals_the_grid_scan_on_spline_like_masks(data):
    mask, norm = data.draw(spline_like_mask(1))
    f = RefinableFunction(mask, norm)
    try:
        f.samples()
    except (ConvergenceError, PreconditionError):
        assume(False)
    pair = QuasiProjectionPair(f, f)
    assert quasiproj._exact_order(pair, 6) == _first_failure(poly_reproduction(pair, 6), 1e-8)


@pytest.mark.parametrize("m_max", [0, -1])
def test_accuracy_order_rejects_no_degrees(b2, m_max):
    with pytest.raises(PreconditionError, match="positive integer"):
        accuracy_order(b2, m_max=m_max)
    with pytest.raises(PreconditionError, match="positive integer"):
        poly_reproduction(b2, m_max)


def test_monomial_coefficients_match_quadrature_route(b2):
    """Moment-expansion coefficients vs Simpson quadrature of x -> x^2.

    The integrand is a cubic against the dyadic grid, so composite Simpson
    is exact and the two routes must agree to rounding.
    """
    analytic = apply(b2, Monomial(2), 1, 0.2, GridSpec(7, -6, 6))
    quad = apply(b2, lambda x: x**2, 1, 0.2, GridSpec(7, -6, 6))
    assert np.max(np.abs(analytic.values - quad.values)) < 1e-10


# -- function-handle signals ---------------------------------------------------


def test_piecewise_signal_exact_route_matches_quadrature(b2):
    f = bspline(3)
    exact = apply(b2, f, 0, 0.0, GridSpec(7, -6, 6))
    quad = apply(b2, lambda x: f.evaluate(x)[:, 0], 0, 0.0, GridSpec(7, -6, 6))
    assert np.max(np.abs(exact.values - quad.values)) < 1e-10


def test_projection_onto_own_span_haar(haar):
    """Indicator pair projects piecewise constants on integer cells onto
    themselves."""
    f = PiecewisePoly([-2.0, -1.0, 0.0, 1.0, 2.0], [[[2.0]], [[-1.0]], [[0.5]], [[3.0]]])
    sf = apply(haar, f, 0, 0.0, GridSpec(8, -4, 4))
    xs = sf.xs()
    assert np.max(np.abs(sf.values[:, 0] - f.evaluate(xs)[:, 0])) < 1e-8


def test_vector_signals_rejected(b2):
    two = PiecewisePoly([0.0, 1.0], np.ones((1, 2, 1)))
    with pytest.raises(DimensionMismatchError):
        apply(b2, two, 0, 0.0, GridSpec(6, -6, 6))


# -- operator diagnostics --------------------------------------------------------


def test_check_qp1_clean_pairs(b2, b3, d3):
    for pair in (b2, b3, d3):
        rep = check_qp1(pair)
        assert rep["ok"]
        assert rep["residuals"]["normalization"] < 1e-12
        assert rep["residuals"]["constancy"] < 1e-9


def test_check_qp1_detects_bad_normalization():
    pair = QuasiProjectionPair(bspline(2), 2.0 * bspline(2))
    rep = check_qp1(pair)
    assert not rep["ok"]
    assert rep["residuals"]["normalization"] == pytest.approx(1.0, abs=1e-12)


def kernel_K(pair: QuasiProjectionPair, x: float, y: float) -> complex:
    """Reference kernel K(x, y) = sum_k conj(phi_tilde(y-k))^T phi(x-k), one
    ``evaluate`` per translate."""
    plo, phi_hi = pair.phi.support
    tlo, thi = pair.phi_tilde.support
    klo = max(math.floor(x - phi_hi), math.floor(y - thi))
    khi = min(math.ceil(x - plo), math.ceil(y - tlo))
    acc = 0.0 + 0.0j
    for k in range(int(klo), int(khi) + 1):
        tv = pair.phi_tilde.evaluate(np.array([y - k]))[0]
        pv = pair.phi.evaluate(np.array([x - k]))[0]
        acc += np.conj(tv) @ pv
    return complex(acc)


def test_kernel_values_indicator_pair(haar):
    assert kernel_K(haar, 0.5, 0.5) == pytest.approx(1.0)
    assert kernel_K(haar, 0.5, 1.7) == pytest.approx(0.0)
    assert kernel_K(haar, 1.2, 1.7) == pytest.approx(1.0)


def test_kernel_reproducing_property(b2):
    """sum_k K(x, k') weights reproduce Q f pointwise for a hat signal."""
    f = bspline(2)
    x = 0.7
    # integral K(x, y) f(y) dy by fine quadrature
    ys = np.linspace(-1.0, 4.0, 2001)
    kv = np.array([kernel_K(b2, x, y).real for y in ys])
    integral = np.trapezoid(kv * f.evaluate(ys)[:, 0], ys)
    sf = apply(b2, f, 0, 0.0, GridSpec(10, -2, 4))
    direct = sf.evaluate(np.array([x]))[0, 0]
    assert integral == pytest.approx(direct, abs=5e-6)


def test_kernel_criterion_nonnegative_pairs_pass(haar, b2, b3):
    for pair in (haar, b2, b3):
        rep = kernel_criterion(pair, level=9)
        assert rep["ok"], rep


def test_kernel_criterion_flags_oscillating_duals(d2, d3):
    rep2 = kernel_criterion(d2, level=9)
    assert not rep2["ok"] and rep2["worst_value"] > 1.01
    rep3 = kernel_criterion(d3, level=9)
    assert not rep3["ok"]
    assert rep3["worst_value"] > 1.01 or rep3["worst_value"] < -0.01


_KERNEL_PINS = {  # (ok, worst_x, worst_value) of the fleet at levels 9 and 12
    ("b1,b1", 9): (True, 0.001953125, 1.0),
    ("b1,b1", 12): (True, 0.000244140625, 1.0),
    ("b2,b2", 9): (True, 1.0, 1.0),
    ("b2,b2", 12): (True, 1.0, 1.0),
    ("b3,b3", 9): (True, 2.0, 1.0),
    ("b3,b3", 12): (True, 2.0, 1.0),
    ("b2,dual2", 9): (True, 1.0, 1.0),
    ("b2,dual2", 12): (True, 1.0, 1.0),
    ("b3,dual3", 9): (True, -1.0, -5.551115123125783e-17),
    ("b3,dual3", 12): (True, -1.0, -5.551115123125783e-17),
    ("d2,d2", 9): (False, 1.0, 1.311004233964072),
    ("d2,d2", 12): (False, 1.0, 1.311004233964072),
    ("d3,d3", 9): (False, -1.0, -0.12997060578502154),
    ("d3,d3", 12): (False, -1.0, -0.12997060578502154),
}


def test_kernel_criterion_keeps_its_fleet_answers(fleet):
    """The verdict, the first worst point and its G on either side of x = 0,
    which belongs to neither side, are the pinned ones for every fleet pair."""
    for name, pair in fleet:
        for level in (9, 12):
            rep = kernel_criterion(pair, level=level)
            assert (rep["ok"], rep["worst_x"], rep["worst_value"]) == _KERNEL_PINS[name, level], (name, level)


@pytest.mark.parametrize("spec", ["haar", "bspline:2", "bspline:3", "daubechies:2", "daubechies:3", "b3+dual3"])
@pytest.mark.parametrize("level", [10, 12])
def test_kernel_criterion_agrees_with_the_sign_expansion(spec, level):
    """G = (Q_{0,0} sgn + 1) / 2 on the window, since Q1 = 1; so the worst G
    is read off the expansion of sgn, and the verdict is the overshoot test
    R(0) <= 1, L(0) >= -1 with the tolerance doubled."""
    if spec == "b3+dual3":
        pair = QuasiProjectionPair(bspline(3), build_dual(bspline(3), 3).phi_tilde)
    else:
        pair = resolve_pair(spec)
    rep = kernel_criterion(pair, level=level)
    W = 2 * pair.support_bound + 1
    sf = apply(pair, Sgn(0.0), 0, 0.0, GridSpec(level, -W, W))
    q = sf.values[round(rep["worst_x"] * 2**level) - sf.start, 0]
    assert abs(rep["worst_value"] - (q + 1.0) / 2.0) <= 1e-12
    R = overshoot(pair, 0.0, "right", level)
    L = overshoot(pair, 0.0, "left", level)
    assert rep["ok"] == (R <= 1.0 + 2e-9 and L >= -1.0 - 2e-9)


# -- convergence rates -----------------------------------------------------------


def test_rate_matches_accuracy_order_haar(haar):
    f = lambda x: np.exp(-4.0 * (x - 0.3) ** 2)
    rate = approximation_rate(haar, f, range(2, 7), level=10)
    assert abs(rate - 1.0) < 0.3


def test_rate_matches_accuracy_order_hat(b2):
    f = lambda x: np.exp(-4.0 * (x - 0.3) ** 2)
    rate = approximation_rate(b2, f, range(2, 7), level=10)
    assert abs(rate - 2.0) < 0.3


@pytest.mark.parametrize("spec", ["bspline:2", "daubechies:3"])
@pytest.mark.parametrize("x0", [0.25, 1.0 / 3.0])
def test_rate_of_a_jump_is_one_half(spec, x0):
    """The L2 error of Q_n sgn(. - x0) is a fixed profile squeezed into a
    2^-n neighbourhood of the jump, so it decays like 2^(-n/2)."""
    rate = approximation_rate(resolve_pair(spec), Sgn(x0), range(2, 7))
    assert abs(rate - 0.5) < 0.01


@pytest.mark.parametrize("spec,order", [("bspline:2", 2), ("daubechies:3", 3)])
def test_rate_of_the_first_unreproduced_monomial_is_the_order(spec, order):
    rate = approximation_rate(resolve_pair(spec), Monomial(order), range(2, 7))
    assert abs(rate - order) < 0.01


@pytest.mark.parametrize("spec", ["daubechies:3", "bspline:2"])
def test_rate_of_a_reproduced_monomial_is_refused(spec):
    """Both operators reproduce x, so the L2 errors sit at rounding level
    (about 3e-15 for d3, exactly 0 for b2): a slope fitted to them is noise."""
    with pytest.raises(PreconditionError, match="n = 2"):
        approximation_rate(resolve_pair(spec), Monomial(1), range(2, 7))


def test_piecewise_moments_are_computed_once_per_order(monkeypatch):
    """A function owns its moments: the pair, its swap and a second pair on
    the same function all read one cached, read-only array per order; a
    sampled function caches its Simpson moments the same way."""
    f, g = bspline(3), build_dual(bspline(3), 3).phi_tilde
    calls = []
    orig = PiecewisePoly.moment_on

    def counted(self, j, a, b):
        if self is f or self is g:
            calls.append((self is f, j))
        return orig(self, j, a, b)

    monkeypatch.setattr(PiecewisePoly, "moment_on", counted)
    for pair in (QuasiProjectionPair(f, g), QuasiProjectionPair(f, g).swapped(), QuasiProjectionPair(f, f)):
        identity_rhs(pair)
        bracket_second_deriv(pair)
        apply(pair, Monomial(2))
    assert calls and len(calls) == len(set(calls))
    sampled = apply(QuasiProjectionPair(f, f), Monomial(1))
    for h, j in ((f, 0), (f, 2), (g, 1), (sampled, 1)):
        assert h.moment(j) is h.moment(j) and not h.moment(j).flags.writeable


@pytest.mark.parametrize("spec", ["haar", *(f"bspline:{m}" for m in range(1, 10)), "daubechies:1", "daubechies:2", "daubechies:3"])
def test_cubes_on_a_level_12_window_are_products(spec):
    """On the window ``accuracy_order`` samples, ``x * x * x`` equals libm's
    ``x ** 3`` bit for bit, and ``Monomial(3)`` gives those bits."""
    xs = apply(resolve_pair(spec), Monomial(0), 0, 0.0, GridSpec()).xs()
    assert (xs * xs * xs).tobytes() == (xs**3).tobytes() == Monomial(3)(xs).tobytes()


def test_builtin_signals_evaluate_like_their_formulas():
    xs = np.array([-1.5, -0.0, 0.0, 0.25, 1.0 / 3.0, 2.0])
    assert Sgn(0.0)(xs).tolist() == [-1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    assert Sgn(1.0 / 3.0)(xs).tolist() == [-1.0, -1.0, -1.0, -1.0, 1.0, 1.0]
    assert Monomial(3)(xs).tobytes() == (xs**3).tobytes()
