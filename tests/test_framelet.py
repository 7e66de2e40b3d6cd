"""Tests for filter banks, derived wavelets, and truncated expansions.

The bank identities are checked in the coefficient domain, so a correct bank
must sit at rounding level -- any looser agreement means a wrong filter, not a
discretization artifact.  Frozen residuals for broken banks were computed by
hand from the convolution algebra (e.g. scaling only the Haar synthesis
high-pass by s shifts the central zero-shift coefficient by (s-1)/2, which is
also the residual since the edge defects are half as large).
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from gibbslab.catalog import (
    bank_names,
    bspline_mask,
    cdf13_mask,
    daubechies_mask,
    resolve_bank,
    resolve_framelet,
    resolve_function,
)
from gibbslab.errors import ConvergenceError, DimensionMismatchError, PreconditionError
from gibbslab.framelet import (
    FilterBank,
    _filter_combination,
    cascade_identity_check,
    derive_wavelets,
    filter_moments,
    framelet_gibbs_verdict,
    oep_check,
    symbol_deviation_slope,
    truncated_expansion,
    vanishing_moments,
)
from gibbslab.funcmodel import PiecewisePoly, RefinableFunction, SampledFunction, bspline
from gibbslab.quasiproj import GridSpec, Monomial, QuasiProjectionPair, apply
from gibbslab.sequences import MatrixSeq


def clipped_sign():
    return PiecewisePoly(np.array([-3.0, 0.0, 3.0]), np.array([[[-1.0, 0.0]], [[1.0, 0.0]]]))


def gaussian(x):
    return np.exp(-x * x)


@pytest.fixture(scope="module")
def haar_bank():
    return resolve_bank("haar")


@pytest.fixture(scope="module")
def haar_framelet():
    return resolve_framelet("haar")


@pytest.fixture(scope="module")
def tight_framelet():
    return resolve_framelet("bspline2-tight")


@pytest.fixture(scope="module")
def mixed_framelet():
    return resolve_framelet("mixed13")


# -- bank construction ------------------------------------------------------------


def test_bank_shape_validation():
    half = MatrixSeq.scalar(0, [0.5, 0.5])
    two_by_two = MatrixSeq.dirac(2)
    with pytest.raises(DimensionMismatchError):
        FilterBank(a=half, a_tilde=two_by_two, b=half, b_tilde=half)
    with pytest.raises(DimensionMismatchError):
        # wavelet filters must agree in the number of generators
        b2 = MatrixSeq(0, np.zeros((1, 2, 1)))
        FilterBank(a=half, a_tilde=half, b=half, b_tilde=b2)
    with pytest.raises(DimensionMismatchError):
        FilterBank(a=half, a_tilde=half, b=half, b_tilde=half, theta=two_by_two)


def test_default_theta_is_identity(haar_bank):
    assert haar_bank.theta.allclose(MatrixSeq.dirac(1))
    assert haar_bank.Theta.allclose(MatrixSeq.dirac(1))
    assert haar_bank.nscaling == 1
    assert haar_bank.b.shape[0] == 1


def test_bank_json_roundtrip(haar_bank):
    back = FilterBank.from_json_dict(haar_bank.to_json_dict())
    for name in ("a", "a_tilde", "b", "b_tilde", "theta", "theta_tilde"):
        assert getattr(back, name).allclose(getattr(haar_bank, name))


def test_unknown_bank_rejected():
    with pytest.raises(PreconditionError, match="unknown bank"):
        resolve_bank("shearlet")


# -- the two coefficient-domain identities ------------------------------------------


@pytest.mark.parametrize("name", bank_names())
def test_named_banks_pass_exactly(name):
    res = oep_check(resolve_bank(name))
    assert res["ok"]
    assert res["residual0"] < 1e-13
    assert res["residual_pi"] < 1e-13


def test_delta_bank_fails_second_identity_exactly():
    bank = FilterBank(
        a=MatrixSeq.dirac(1),
        a_tilde=MatrixSeq.dirac(1),
        b=MatrixSeq.zero(1, 1),
        b_tilde=MatrixSeq.zero(1, 1),
    )
    res = oep_check(bank)
    # identity 1 collapses to Theta = Theta; identity 2 keeps the full
    # alternating sum, whose peak coefficient is exactly one
    assert res["residual0"] == 0.0
    assert res["residual_pi"] == 1.0
    assert not res["ok"]


def test_scaled_highpass_detected(haar_bank):
    s = 1.1
    pert = FilterBank(
        a=haar_bank.a, a_tilde=haar_bank.a_tilde, b=haar_bank.b * s, b_tilde=haar_bank.b_tilde
    )
    res = oep_check(pert)
    assert not res["ok"]
    assert res["residual0"] == pytest.approx((s - 1.0) / 2.0, abs=1e-12)


def test_tiny_perturbation_still_detected(haar_bank):
    s = 1.001
    pert = FilterBank(
        a=haar_bank.a, a_tilde=haar_bank.a_tilde, b=haar_bank.b * s, b_tilde=haar_bank.b_tilde
    )
    assert oep_check(pert)["residual0"] > 1e-4


# -- wavelet derivation ---------------------------------------------------------


def test_haar_wavelet_values(haar_framelet):
    psi = haar_framelet.psi
    assert isinstance(psi, PiecewisePoly)
    xs = np.array([0.1, 0.4, 0.6, 0.9, 1.2, -0.3])
    assert np.allclose(psi.evaluate(xs).ravel(), [1, 1, -1, -1, 0, 0])


def test_identity_theta_shares_function_objects(haar_framelet):
    assert haar_framelet.eta is haar_framelet.phi
    assert haar_framelet.eta_tilde is haar_framelet.phi_tilde
    assert haar_framelet.mathring_pair.phi_tilde is haar_framelet.phi_tilde


def test_tight_frame_has_two_generators(tight_framelet):
    assert tight_framelet.psi.ncomponents == 2
    # first generator is odd about x = 1, second is even
    xs = np.linspace(0.01, 0.99, 23)
    vals_l = tight_framelet.psi.evaluate(xs)
    vals_r = tight_framelet.psi.evaluate(2.0 - xs)
    assert np.allclose(vals_l[:, 0], -vals_r[:, 0], atol=1e-12)
    assert np.allclose(vals_l[:, 1], vals_r[:, 1], atol=1e-12)


def test_normalization_guard():
    half = MatrixSeq.scalar(0, [0.5, 0.5])
    diff = MatrixSeq.scalar(0, [0.5, -0.5])
    bank = FilterBank(a=half, a_tilde=half, b=diff, b_tilde=diff, theta_tilde=half * 2.0)
    with pytest.raises(PreconditionError, match="normalization"):
        derive_wavelets(bank, bspline(1), bspline(1))


def test_component_count_guard(haar_bank):
    hat2 = PiecewisePoly(
        np.array([0.0, 1.0, 2.0]),
        np.array([[[0.0, 1.0], [0.0, 1.0]], [[2.0, -1.0], [2.0, -1.0]]]),
    )
    with pytest.raises(DimensionMismatchError):
        derive_wavelets(haar_bank, hat2, hat2)


@pytest.mark.parametrize(
    "spec,name,digest",
    [
        ("daubechies:3", "psi", "97cc1e9571856ccf770d6f065efe3c90d2ffe639e310f59458fbf38764f5696c"),
        ("daubechies:3", "psi_tilde", "97cc1e9571856ccf770d6f065efe3c90d2ffe639e310f59458fbf38764f5696c"),
        ("mixed13", "psi", "244e8bd362dfcb13e76ada025e48a413500464ffc9b9dd508a0b264595017ca5"),
        # the Haar-side dual wavelet is piecewise constant: breakpoints + coefficients
        ("mixed13", "psi_tilde", "c54b875bb80ce2b3e54f91e73b8bd1759362542dbdb9ce220ffc0d8055a24533"),
    ],
)
def test_refinable_wavelets_keep_their_bytes(spec, name, digest):
    """sha256 of the level-12 wavelet samples as the per-k loop gave them
    (recorded before the polyphase kernel, numpy 2.4 on x86-64)."""
    f = getattr(resolve_framelet(spec), name)
    data = f.breakpoints.tobytes() + f.coeffs.tobytes() if isinstance(f, PiecewisePoly) else f.values.tobytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_dilation_one_combination_matches_hand_written_sum():
    phi = RefinableFunction(daubechies_mask(3))
    out = _filter_combination(MatrixSeq.scalar(-1, [0.25, 0.5, 0.25]), phi, 1, 1.0)
    assert out.support == (phi.support[0] - 1.0, phi.support[1] + 1.0)
    xs = out.xs()
    acc = np.zeros(xs.size)
    for k, c in zip((-1, 0, 1), (0.25, 0.5, 0.25)):
        acc += phi.evaluate(xs - k)[:, 0] * c
    assert np.array_equal(out.values[:, 0], acc)


def test_only_the_identity_combination_returns_its_input():
    """The Dirac filter at dilation 1 and factor 1 is the identity, so the
    input itself comes back; at dilation 2 and factor 2 it is 2 f(2x)."""
    phi = RefinableFunction(daubechies_mask(3))
    assert _filter_combination(MatrixSeq.dirac(1), phi, 1, 1.0) is phi
    out = _filter_combination(MatrixSeq.dirac(1), phi, 2, 2.0)
    assert out.support == (0.0, 2.5)
    assert np.array_equal(out.values[:, 0], 2.0 * phi.evaluate(2.0 * out.xs())[:, 0])


def test_vector_combination_matches_hand_written_sum():
    """Two components: the kernel adds the r-sum in einsum order where a
    matmul may fuse it, so the hand-written sum agrees to rounding."""
    ents = np.zeros((4, 2, 2))
    ents[:, 0, 0] = bspline_mask(3).entries[:, 0, 0].real
    ents[:, 1, 1] = daubechies_mask(2).entries[:, 0, 0].real
    phi = RefinableFunction(MatrixSeq(0, ents), normalization=[0.5, 0.5], level=10)
    filt = MatrixSeq(-1, np.random.default_rng(3).standard_normal((3, 3, 2)))
    for dilate in (1, 2):
        out = _filter_combination(filt, phi, dilate, 2.0)
        xs = out.xs()
        acc = sum(phi.evaluate(dilate * xs - k) @ (2.0 * filt[k].real.T) for k in (-1, 0, 1))
        assert out.values.shape == (xs.size, 3)
        assert np.max(np.abs(out.values - acc)) < 1e-13


# -- vanishing moments ------------------------------------------------------------


def test_haar_wavelet_moments(haar_framelet, haar_bank):
    psi = haar_framelet.psi
    assert vanishing_moments(psi) == 1
    # the filter route must agree with exact piecewise integration
    for j in range(4):
        direct = psi.moment(j)
        via_filters = filter_moments(haar_bank.b, haar_framelet.phi, j)
        assert np.allclose(via_filters, direct, atol=1e-12)
    assert filter_moments(haar_bank.b, haar_framelet.phi, 1)[0] == pytest.approx(-0.25)


def test_mixed_bank_moment_split(mixed_framelet):
    # one vanishing moment on the synthesis side, three on the analysis side
    v = framelet_gibbs_verdict(mixed_framelet)
    assert (v["vmo_psi"], v["vmo_psi_tilde"]) == (1, 3)
    # psi_tilde is an exact piecewise polynomial, so the function route is
    # an independent confirmation of the filter computation
    assert vanishing_moments(mixed_framelet.psi_tilde) == 3


def test_tight_frame_single_vanishing_moment(tight_framelet):
    assert vanishing_moments(tight_framelet.psi) == 1
    m1 = tight_framelet.psi.moment(1)
    # the even generator has two vanishing moments, the odd one only one
    assert abs(m1[0]) > 1e-3
    assert abs(m1[1]) < 1e-12


# -- truncated expansions ----------------------------------------------------------


@pytest.mark.parametrize("name,tol", [("haar", 1e-9), ("bspline2-tight", 1e-9), ("mixed13", 1e-8)])
@pytest.mark.parametrize("signal", ["jump", "smooth"])
def test_truncated_expansion_matches_quasi_projection(name, tol, signal):
    df = resolve_framelet(name)
    f = clipped_sign() if signal == "jump" else gaussian
    grid = GridSpec(10, -2.0, 2.0)
    for n in range(7):
        te = truncated_expansion(df, f, n, grid)
        qp = apply(df.mathring_pair, f, n, 0.0, grid)
        assert te.level == qp.level and te.start == qp.start
        err = float(np.max(np.abs(te.values - qp.values)))
        assert err < tol, (n, err)


def test_scaling_layer_with_nontrivial_theta():
    # with theta on the dual side, the bottom layer built from (eta, eta_tilde)
    # must coincide with the projection using the theta-combined dual; this is
    # a pure filter-plumbing identity, independent of whether the high-pass
    # filters complete the bank (they do not here, so deeper levels of the
    # expansion are not expected to telescope)
    half = MatrixSeq.scalar(0, [0.5, 0.5])
    diff = MatrixSeq.scalar(0, [0.5, -0.5])
    theta_tilde = MatrixSeq.scalar(-1, [0.25, 0.5, 0.25])
    bank = FilterBank(a=half, a_tilde=half, b=diff, b_tilde=diff, theta_tilde=theta_tilde)
    df = derive_wavelets(bank, bspline(1), bspline(1))
    assert df.eta is df.phi
    assert df.eta_tilde is not df.phi_tilde
    assert isinstance(df.mathring_pair.phi_tilde, PiecewisePoly)
    assert df.mathring_pair.phi_tilde.support == (-1.0, 2.0)
    grid = GridSpec(9, -2.0, 2.0)
    te = truncated_expansion(df, gaussian, 0, grid)
    qp = apply(df.mathring_pair, gaussian, 0, 0.0, grid)
    assert np.max(np.abs(te.values - qp.values)) < 1e-12


def test_negative_layer_count_rejected(haar_framelet):
    with pytest.raises(PreconditionError):
        truncated_expansion(haar_framelet, gaussian, -1)


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_wavelet_layers_annihilate_low_degrees(mixed_framelet, degree):
    # every monomial below the analysis moment count must produce an exactly
    # zero wavelet layer, so truncation cannot hurt polynomial reproduction
    wpair = QuasiProjectionPair(mixed_framelet.psi, mixed_framelet.psi_tilde)
    grid = GridSpec(8, -1.0, 1.0)
    for n in (0, 1):
        layer = apply(wpair, Monomial(degree), n, 0.0, grid)
        assert np.max(np.abs(layer.values)) < 1e-7


def test_haar_wavelet_layer_kills_constants(haar_framelet):
    wpair = QuasiProjectionPair(haar_framelet.psi, haar_framelet.psi_tilde)
    layer = apply(wpair, Monomial(0), 0, 0.0, GridSpec(8, -1.0, 1.0))
    assert np.max(np.abs(layer.values)) < 1e-12
    # degree one is *not* annihilated: single vanishing moment only
    layer1 = apply(wpair, Monomial(1), 0, 0.0, GridSpec(8, -1.0, 1.0))
    assert np.max(np.abs(layer1.values)) > 1e-3


# -- two-level cascade balance -------------------------------------------------------


@pytest.mark.parametrize("name", ["haar", "bspline2-tight"])
def test_cascade_identity_exact_banks(name):
    df = resolve_framelet(name)
    g = lambda x: np.exp(-((x - 0.5) ** 2))
    assert cascade_identity_check(df, gaussian, g, n=1) < 1e-9
    assert cascade_identity_check(df, clipped_sign(), clipped_sign(), n=1) < 1e-9
    assert cascade_identity_check(df, gaussian, g, n=3) < 1e-9


def test_cascade_identity_mixed_bank(mixed_framelet):
    g = lambda x: np.exp(-((x - 0.5) ** 2))
    assert cascade_identity_check(mixed_framelet, gaussian, g, n=1) < 1e-9
    # a jump against the cascade-sampled refinable function costs one factor
    # of the grid spacing in the quadrature, so only a loose bound holds
    assert cascade_identity_check(mixed_framelet, clipped_sign(), clipped_sign(), n=1) < 1e-5


def test_cascade_identity_detects_wrong_wavelet(haar_framelet, haar_bank):
    df = derive_wavelets(
        FilterBank(
            a=haar_bank.a,
            a_tilde=haar_bank.a_tilde,
            b=haar_bank.b * 1.2,
            b_tilde=haar_bank.b_tilde,
        ),
        haar_framelet.phi,
        haar_framelet.phi_tilde,
    )
    g = lambda x: np.exp(-((x - 0.5) ** 2))
    assert cascade_identity_check(df, gaussian, g, n=1) > 1e-4


def theta_framelet():
    """A tight oblique-extension bank on the hat function whose Theta(xi) =
    (4 - cos xi) / 3 is not the identity: theta_tilde = [-1, 8, -1] / 6 at -1,
    the vanishing-moment-recovery choice, and two high-pass rows at -2."""
    rows = [math.sqrt(42) / 168 * np.array([1.0, 2, 0, -10, 7]), math.sqrt(7) / 28 * np.array([1.0, 2, -7, 4, 0])]
    b = MatrixSeq(-2, np.stack(rows, axis=1)[:, :, None])
    theta_tilde = MatrixSeq.scalar(-1, np.array([-1.0, 8.0, -1.0]) / 6)
    bank = FilterBank(a=bspline_mask(2), a_tilde=bspline_mask(2), b=b, b_tilde=b, theta_tilde=theta_tilde)
    return derive_wavelets(bank, bspline(2), bspline(2))


def test_cascade_identity_reads_theta():
    """The balance holds with the Theta-modified dual in both scaling layers;
    pairing phi with phi_tilde instead leaves 0.0738, 0.0339 and 0.0100."""
    df = theta_framelet()
    assert not df.bank.Theta.allclose(MatrixSeq.dirac(1))
    oep = oep_check(df.bank)
    assert oep["ok"] and oep["residual0"] < 1e-15 and oep["residual_pi"] < 1e-15
    assert framelet_gibbs_verdict(df)["verdict"] == "gibbs-everywhere"
    g = lambda x: np.cos(x) * np.exp(-x * x / 2)
    unmodified = dataclasses.replace(df, mathring_pair=df.pair())
    for n, bound, old in [(1, 1e-12, 0.0738), (2, 1e-13, 0.0339), (3, 1e-14, 0.0100)]:
        assert cascade_identity_check(df, gaussian, g, n) < bound
        assert cascade_identity_check(unmodified, gaussian, g, n) == pytest.approx(old, abs=1e-4)


def test_cascade_identity_bytes_are_pinned():
    """The residual on every builtin bank at n = 1, 2, 3, for a Gaussian paired
    with B3 both ways: the exact piecewise pairings, and the piece-aligned
    Simpson weights, whose matmul rounds by memory layout (C-ordered weights
    for the two-component psi of ``bspline2-tight`` move these bytes)."""
    h = hashlib.sha256()
    for name in bank_names():
        df = resolve_framelet(name)
        for n in (1, 2, 3):
            for f, g in [(gaussian, bspline(3)), (bspline(3), gaussian)]:
                h.update(np.float64(cascade_identity_check(df, f, g, n)).tobytes())
    assert bank_names() == ["haar", "bspline2-tight", "daubechies:3", "mixed13"]
    assert h.hexdigest() == "c7aa23667c23154a25cce11f5d612c90e095a1445bb9906e8ec03068b340f9a5"


# -- verdicts ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,expected",
    [
        ("haar", "no-gibbs-at-origin"),
        ("bspline2-tight", "no-gibbs-at-origin"),
        ("daubechies:3", "gibbs-everywhere"),
        ("mixed13", "inconclusive"),
    ],
)
def test_verdicts(name, expected):
    report = framelet_gibbs_verdict(resolve_framelet(name))
    assert report["verdict"] == expected


def test_gibbs_everywhere_reports_flat_bracket():
    report = framelet_gibbs_verdict(resolve_framelet("daubechies:3"))
    assert report["vmo_psi"] == 3 and report["vmo_psi_tilde"] == 3
    assert abs(report["bracket"]) < 1e-10


def test_single_moment_flag_set_for_positive_pairs():
    report = framelet_gibbs_verdict(resolve_framelet("bspline2-tight"))
    assert report["single_moment_pair"] is True


def test_inconclusive_reports_overshoot(mixed_framelet):
    report = framelet_gibbs_verdict(mixed_framelet)
    assert report["R0"] == pytest.approx(1.3098915866575442, abs=1e-6)


def test_flat_symbol_claim_with_visible_bracket_raises():
    # high-pass filters with two zeros at the origin promise a flat symbol,
    # but the plain hat-spline pair has bracket -1/3: the verdict must refuse
    # rather than report a silent contradiction
    a = bspline_mask(2)
    b = MatrixSeq.scalar(0, [-0.25, 0.5, -0.25])
    bank = FilterBank(a=a, a_tilde=a, b=b, b_tilde=b)
    df = derive_wavelets(bank, bspline(2), bspline(2))
    with pytest.raises(ConvergenceError):
        framelet_gibbs_verdict(df)


# -- symbol deviation ---------------------------------------------------------------


def test_symbol_deviation_slopes():
    assert symbol_deviation_slope(resolve_framelet("haar").pair()) == pytest.approx(2.0, abs=0.05)
    assert symbol_deviation_slope(resolve_framelet("daubechies:3").pair()) > 2.7
    assert symbol_deviation_slope(resolve_framelet("mixed13").mathring_pair) > 2.7


def test_symbol_deviation_orders_match_moment_structure():
    # three analysis moments push the mixed-bank deviation to fourth order,
    # well above the hat-spline baseline of two
    slow = symbol_deviation_slope(resolve_framelet("bspline2-tight").pair())
    fast = symbol_deviation_slope(resolve_framelet("mixed13").pair())
    assert slow == pytest.approx(2.0, abs=0.05)
    assert fast > slow + 1.5


_SLOPE_XIS = 2.0 ** -np.arange(2, 9, dtype=np.float64)  # the xi of symbol_deviation_slope


@pytest.mark.parametrize(
    "make,kind,digest",
    [
        (lambda: resolve_function("daubechies:3"), RefinableFunction, "237ee34f1814b3d24d5c9e249bb18921ad18a23267127f2d2d2b5dbb96a586d6"),
        (lambda: resolve_framelet("daubechies:3").psi, SampledFunction, "175b658dcf8d0cf4d38691eea396b5884fd36feb3e298146b4586d90381f37b8"),
        (lambda: bspline(3), PiecewisePoly, "c944eae7d8cb97acad984023064d7bf83937399aaa28b088f18024e6f5d456e2"),
    ],
    ids=["d3-mask-product", "d3-bank-psi-simpson", "b3-exact"],
)
def test_each_model_owns_its_fourier_transform(make, kind, digest):
    """sha256 of ``fourier(xi)`` at the seven xi of ``symbol_deviation_slope``,
    recorded when ``framelet`` computed the transforms itself (numpy 2.4 on
    x86-64): the mask product, the Simpson sum and the exact piecewise
    transform give the same bits from their models."""
    f = make()
    assert type(f) is kind
    vals = np.array([f.fourier(xi) for xi in _SLOPE_XIS])
    assert vals.shape == (7, 1) and vals.dtype == np.complex128
    assert hashlib.sha256(vals.tobytes()).hexdigest() == digest


def test_symbol_deviation_slope_transforms_a_self_pair_once_per_xi(monkeypatch):
    """A pair whose dual is its primal takes 7 transforms, not 14; two equal
    but distinct members take 14, and the slope keeps its bits."""
    calls = []
    real = PiecewisePoly.fourier

    def spy(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(PiecewisePoly, "fourier", spy)
    b3 = bspline(3)
    once = symbol_deviation_slope(QuasiProjectionPair(b3, b3))
    assert [xi for (xi,) in calls] == list(_SLOPE_XIS)
    calls.clear()
    twice = symbol_deviation_slope(QuasiProjectionPair(b3, bspline(3)))
    assert len(calls) == 14 and repr(once) == repr(twice)
