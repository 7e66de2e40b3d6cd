"""Tests for matrix sequences, convolution, Fourier derivatives, tail sums.

Oracles: convolution is checked against a brute-force double sum written
directly in the test; Fourier derivatives against central finite differences;
the closed-form tail sums against explicit summation over a wide window.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbslab import (
    DimensionMismatchError,
    MatrixSeq,
    PreconditionError,
    SignLikeSeq,
    convolve,
    fourier_deriv,
    tail_convolve_sums,
)

rng = np.random.default_rng(20260814)


def brute_convolve(u, d, n):
    """Independent double-sum oracle for (u * d)(n)."""
    acc = np.zeros((u.shape[0], d.shape[1]), dtype=np.complex128)
    dlo, dhi = d.support
    for k in range(dlo, dhi + 1):
        acc += u[n - k] @ d[k]
    return acc


# ---------------------------------------------------------------------------
# structure / canonicalization


def test_scalar_constructor_trims_zero_padding():
    u = MatrixSeq.scalar(-2, [0.0, 0.0, 3.0, 1.0, 0.0])
    assert u.offset == 0
    assert u.support == (0, 1)
    assert u[0] == pytest.approx(3.0)
    assert u[1] == pytest.approx(1.0)
    assert np.all(u[5] == 0)  # out of support -> zero matrix


def test_end_trim_reads_nan_as_nonzero_and_signed_zero_as_zero():
    ents = np.zeros((6, 2, 2), dtype=np.complex128)
    ents[0, 1, 0] = -0.0
    ents[1, 0, 1] = complex(-0.0, -0.0)
    ents[2, 0, 0] = complex(np.nan, 0.0)
    ents[4, 1, 1] = complex(0.0, 2.0)
    ents[5] = -0.0
    u = MatrixSeq(-3, ents)
    assert type(u.offset) is int and u.support == (-1, 1)
    assert np.isnan(u.entries[0, 0, 0]) and u.entries[2, 1, 1] == 2j


def test_zero_sequence_is_canonical():
    z = MatrixSeq.scalar(7, [0.0, 0.0])
    assert z.support is None
    assert z.offset == 0
    assert z.max_abs() == 0.0


def test_entries_are_frozen():
    u = MatrixSeq.scalar(0, [1.0, 2.0])
    with pytest.raises(ValueError):
        u.entries[0, 0, 0] = 5.0


def test_dirac_is_convolution_identity():
    u = MatrixSeq(-1, rng.standard_normal((4, 2, 3)) + 1j * rng.standard_normal((4, 2, 3)))
    assert convolve(u, MatrixSeq.dirac(3)).allclose(u)
    assert convolve(MatrixSeq.dirac(2), u).allclose(u)


def test_convolve_rejects_mismatched_inner_dims():
    u = MatrixSeq(0, np.ones((2, 2, 3)))
    d = MatrixSeq(0, np.ones((2, 2, 2)))
    with pytest.raises(DimensionMismatchError):
        convolve(u, d)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("shapes", [((1, 1), (1, 1)), ((2, 3), (3, 2)), ((1, 4), (4, 1))])
def test_convolve_matches_double_sum(seed, shapes):
    g = np.random.default_rng(seed)
    (ru, su), (rd, sd) = shapes
    u = MatrixSeq(g.integers(-3, 3), g.standard_normal((5, ru, su)) + 1j * g.standard_normal((5, ru, su)))
    d = MatrixSeq(g.integers(-3, 3), g.standard_normal((4, rd, sd)) + 1j * g.standard_normal((4, rd, sd)))
    c = convolve(u, d)
    lo = u.support[0] + d.support[0]
    hi = u.support[1] + d.support[1]
    for n in range(lo - 2, hi + 3):
        assert c[n] == pytest.approx(brute_convolve(u, d, n), abs=1e-12)


@given(st.integers(-4, 4), st.integers(-4, 4),
       st.lists(st.integers(-5, 5), min_size=1, max_size=5),
       st.lists(st.integers(-5, 5), min_size=1, max_size=5),
       st.lists(st.integers(-5, 5), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_convolve_is_associative(o1, o2, a, b, c):
    u = MatrixSeq.scalar(o1, a)
    v = MatrixSeq.scalar(o2, b)
    w = MatrixSeq.scalar(0, c)
    left = convolve(convolve(u, v), w)
    right = convolve(u, convolve(v, w))
    assert left.allclose(right, tol=1e-9)


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=6),
       st.lists(st.integers(-5, 5), min_size=1, max_size=6),
       st.lists(st.integers(-5, 5), min_size=1, max_size=6),
       st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=60, deadline=None)
def test_convolve_is_bilinear(a, b, c, alpha, beta):
    u = MatrixSeq.scalar(0, a)
    v = MatrixSeq.scalar(1, b)
    d = MatrixSeq.scalar(-1, c)
    lhs = convolve(alpha * u + beta * v, d)
    rhs = alpha * convolve(u, d) + beta * convolve(v, d)
    assert lhs.allclose(rhs, tol=1e-9)


# ---------------------------------------------------------------------------
# Fourier calculus


def test_fourier_deriv_direct_sum():
    # uhat(xi) = sum u(k) e^{-ik xi}; j-th derivative inserts (-ik)^j
    u = MatrixSeq.scalar(-1, [1.0, -2.0, 0.5])
    xi = 0.9
    want = sum(u[k] * (-1j * k) ** 2 * np.exp(-1j * k * xi) for k in range(-1, 2))
    assert fourier_deriv(u, 2, xi) == pytest.approx(want)


@pytest.mark.parametrize("j", [1, 2, 3])
def test_fourier_deriv_matches_finite_difference(j):
    g = np.random.default_rng(5 + j)
    u = MatrixSeq(-2, g.standard_normal((6, 2, 2)))
    xi, h = 0.37, 1e-5
    num = (fourier_deriv(u, j - 1, xi + h) - fourier_deriv(u, j - 1, xi - h)) / (2 * h)
    assert np.max(np.abs(num - fourier_deriv(u, j, xi))) < 1e-6


def test_fourier_of_convolution_is_matrix_product():
    g = np.random.default_rng(11)
    u = MatrixSeq(0, g.standard_normal((3, 2, 3)))
    d = MatrixSeq(-1, g.standard_normal((4, 3, 2)))
    for xi in (0.0, 1.3, -2.2):
        lhs = fourier_deriv(convolve(u, d), 0, xi)
        rhs = fourier_deriv(u, 0, xi) @ fourier_deriv(d, 0, xi)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_fourier_deriv_product_rule():
    g = np.random.default_rng(12)
    u = MatrixSeq.scalar(0, g.standard_normal(4))
    d = MatrixSeq.scalar(-2, g.standard_normal(3))
    xi = 0.61
    lhs = fourier_deriv(convolve(u, d), 1, xi)
    rhs = fourier_deriv(u, 1, xi) @ fourier_deriv(d, 0, xi) + fourier_deriv(u, 0, xi) @ fourier_deriv(d, 1, xi)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_fourier_deriv_order_cap():
    u = MatrixSeq.scalar(0, [1.0])
    with pytest.raises(PreconditionError):
        fourier_deriv(u, 9)
    with pytest.raises(PreconditionError):
        fourier_deriv(u, -1)


def test_conj_flip_is_involution_and_conjugates_fourier():
    g = np.random.default_rng(13)
    u = MatrixSeq(-1, g.standard_normal((4, 2, 2)) + 1j * g.standard_normal((4, 2, 2)))
    assert u.conj_flip().conj_flip().allclose(u)
    for xi in (0.4, -1.9):
        got = fourier_deriv(u.conj_flip(), 0, xi)
        want = np.conj(fourier_deriv(u, 0, xi))
        assert got == pytest.approx(want)


def test_modulation_shifts_fourier_by_pi():
    g = np.random.default_rng(14)
    u = MatrixSeq(-3, g.standard_normal((7, 1, 1)))
    for xi in (0.0, 0.8):
        got = fourier_deriv(u.modulated(), 0, xi)
        want = fourier_deriv(u, 0, xi + np.pi)
        assert got == pytest.approx(want, abs=1e-12)


def test_upsampling_dilates_fourier():
    g = np.random.default_rng(15)
    u = MatrixSeq(-1, g.standard_normal((3, 2, 2)))
    u2 = u.upsampled(2)
    assert u2.support == (-2, 2)
    assert np.all(u2[-1] == 0)
    for xi in (0.3, 1.1):
        assert fourier_deriv(u2, 0, xi) == pytest.approx(fourier_deriv(u, 0, 2 * xi))


def test_transpose_conj_flip_commute():
    g = np.random.default_rng(16)
    u = MatrixSeq(2, g.standard_normal((3, 2, 3)) + 1j * g.standard_normal((3, 2, 3)))
    assert u.transposed().conj_flip().allclose(u.conj_flip().transposed())


# ---------------------------------------------------------------------------
# JSON


def test_json_roundtrip_preserves_everything():
    g = np.random.default_rng(17)
    u = MatrixSeq(-4, g.standard_normal((5, 2, 3)) + 1j * g.standard_normal((5, 2, 3)))
    v = MatrixSeq.from_json_dict(json.loads(json.dumps(u.to_json_dict())))
    assert v.offset == u.offset
    assert v.shape == u.shape
    assert v.allclose(u, tol=0.0)


def test_json_dict_shape_field():
    u = MatrixSeq.zero(2, 5)
    d = u.to_json_dict()
    assert d["shape"] == [2, 5]
    assert MatrixSeq.from_json_dict(d).shape == (2, 5)


def test_json_rejects_ragged_entries():
    bad = {"offset": 0, "shape": [2, 2], "entries": [[[1.0, 0.0]]]}
    with pytest.raises(DimensionMismatchError):
        MatrixSeq.from_json_dict(bad)


# ---------------------------------------------------------------------------
# sign-tailed sequences


def test_signlike_at():
    c = SignLikeSeq(np.array([[2.0]]), MatrixSeq.scalar(0, [1.0]))
    assert c.at(5) == pytest.approx(2.0)
    assert c.at(0) == pytest.approx(3.0)  # limit + finite part
    assert c.at(-1) == pytest.approx(-2.0)


def test_pure_sign_scalar_default():
    c = SignLikeSeq(1.0)
    assert c.at(0) == pytest.approx(1.0)
    assert c.at(-3) == pytest.approx(-1.0)


def test_tail_sums_hand_example():
    # c(k) = 2*sign(k>=0) + delta_0(k), d = delta_0 - delta_1.
    # (c*d)(n) = c(n) - c(n-1): 5 at n=0, -1 at n=1, zero elsewhere.
    # Index sums: sum0 = 4, sum1 = -1.
    c = SignLikeSeq(np.array([[2.0]]), MatrixSeq.scalar(0, [1.0]))
    d = MatrixSeq.scalar(0, [1.0, -1.0])
    ts = tail_convolve_sums(c, d)
    assert ts.product.support == (0, 1)
    assert ts.product[0] == pytest.approx(5.0)
    assert ts.product[1] == pytest.approx(-1.0)
    assert ts.sum0 == pytest.approx(4.0)
    assert ts.sum1 == pytest.approx(-1.0)
    assert ts.closed0 == pytest.approx(ts.sum0, abs=1e-12)
    assert ts.closed1 == pytest.approx(ts.sum1, abs=1e-12)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=80, deadline=None)
def test_tail_sums_closed_forms_match_explicit(seed):
    g = np.random.default_rng(seed)
    p, r, s = (int(v) for v in g.integers(1, 3, size=3))
    lim = g.standard_normal((p, r)) + 1j * g.standard_normal((p, r))
    fin = MatrixSeq(int(g.integers(-4, 4)), g.standard_normal((3, p, r)))
    c = SignLikeSeq(lim, fin)
    # difference any finite sequence against its own shift to force dhat(0) = 0
    e = MatrixSeq(int(g.integers(-4, 4)), g.standard_normal((4, r, s)) + 1j * g.standard_normal((4, r, s)))
    d = e - MatrixSeq(e.offset + 1, e.entries)
    ts = tail_convolve_sums(c, d)
    assert np.max(np.abs(ts.sum0 - ts.closed0)) < 1e-10
    assert np.max(np.abs(ts.sum1 - ts.closed1)) < 1e-10
    # widening the summation window must not change the sums (tails truly vanish)
    lo, hi = ts.product.support if ts.product.support else (0, 0)
    extra0 = sum(brute_convolve_sign(c, d, n) for n in range(lo - 5, lo))
    extra1 = sum(brute_convolve_sign(c, d, n) for n in range(hi + 1, hi + 6))
    assert np.max(np.abs(extra0)) < 1e-12
    assert np.max(np.abs(extra1)) < 1e-12


def brute_convolve_sign(c, d, n):
    dlo, dhi = d.support
    return sum(c.at(n - k) @ d[k] for k in range(dlo, dhi + 1))


def test_tail_sums_requires_vanishing_mean():
    c = SignLikeSeq(1.0)
    d = MatrixSeq.scalar(0, [1.0, 1.0])  # dhat(0) = 2
    with pytest.raises(PreconditionError):
        tail_convolve_sums(c, d)


def test_tail_sums_zero_d():
    c = SignLikeSeq(1.0)
    ts = tail_convolve_sums(c, MatrixSeq.zero(1, 1))
    assert ts.product.support is None
    assert ts.sum0 == pytest.approx(0.0)
