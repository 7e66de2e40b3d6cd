"""Filter banks, wavelets derived from them, and truncated wavelet expansions.

A bank stores the six filters (a, a_tilde, b, b_tilde, theta, theta_tilde) of
an oblique-extension pair.  The derived symbol

    Thetahat(xi) = theta_tilde_hat(xi)^T conj(theta_hat(xi))

must satisfy two trigonometric-polynomial identities for the bank to generate
a dual framelet:

    (1)  a_tilde_hat(xi)^T Thetahat(2 xi) conj(a_hat(xi))
             + b_tilde_hat(xi)^T conj(b_hat(xi))          = Thetahat(xi)
    (2)  the same expression with a_hat, b_hat evaluated at xi + pi  = 0.

Both are checked exactly in the coefficient domain: products of trig
polynomials are convolutions of their coefficient sequences, the dilation
xi -> 2 xi is upsampling, and the half-period shift is alternating-sign
modulation.  No frequency sampling is involved, so residuals of a true bank
sit at rounding level.

Wavelets come from the high-pass filters by psi = 2 sum_k b(k) phi(2. - k);
the truncated expansion stacks the scaling layer and the first n wavelet
layers and must reproduce the one-shot quasi-projection at level n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionMismatchError, PreconditionError
from .funcmodel import (
    FunctionHandle,
    PiecewisePoly,
    SampledFunction,
    _grid_level,
    _matrix_synthesis,
    _sample_jump,
    _sample_table,
    dyadic_bounds,
    fhat_deriv0,
)
from .gibbs import _item_ii, bracket_second_deriv, overshoot
from .quasiproj import GridSpec, QuasiProjectionPair, _dual_pairings, _meeting_ks, apply
from .sequences import MatrixSeq, convolve, fourier_deriv

__all__ = [
    "FilterBank",
    "DualFramelet",
    "oep_check",
    "derive_wavelets",
    "vanishing_moments",
    "filter_moments",
    "truncated_expansion",
    "cascade_identity_check",
    "framelet_gibbs_verdict",
    "symbol_deviation_slope",
]

VMO_TOL = 1e-8
_VMO_MAX = 6  # moment orders checked; a count of _VMO_MAX + 1 means "more"


@dataclass(frozen=True)
class FilterBank:
    """Filters of one oblique-extension pair; theta defaults to the identity."""

    a: MatrixSeq
    a_tilde: MatrixSeq
    b: MatrixSeq
    b_tilde: MatrixSeq
    theta: MatrixSeq = None
    theta_tilde: MatrixSeq = None

    def __post_init__(self):
        r = self.a.shape[0]
        if self.a.shape != (r, r) or self.a_tilde.shape != (r, r):
            raise DimensionMismatchError("low-pass filters must be square and equal-sized")
        s = self.b.shape[0]
        if self.b.shape != (s, r) or self.b_tilde.shape != (s, r):
            raise DimensionMismatchError("high-pass filters must both map r to s components")
        if self.theta is None:
            object.__setattr__(self, "theta", MatrixSeq.dirac(r))
        if self.theta_tilde is None:
            object.__setattr__(self, "theta_tilde", MatrixSeq.dirac(r))
        if self.theta.shape != (r, r) or self.theta_tilde.shape != (r, r):
            raise DimensionMismatchError("theta filters must be r x r")

    @property
    def nscaling(self) -> int:
        return self.a.shape[0]

    @property
    def Theta(self) -> MatrixSeq:
        return convolve(self.theta_tilde.transposed(), self.theta.conj_flip())

    def to_json_dict(self) -> dict:
        return {
            name: getattr(self, name).to_json_dict()
            for name in ("a", "a_tilde", "b", "b_tilde", "theta", "theta_tilde")
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "FilterBank":
        kw = {name: MatrixSeq.from_json_dict(d[name]) for name in ("a", "a_tilde", "b", "b_tilde")}
        for name in ("theta", "theta_tilde"):
            if name in d:
                kw[name] = MatrixSeq.from_json_dict(d[name])
        return cls(**kw)


def oep_check(bank: FilterBank, tol: float = 1e-12) -> dict:
    """Verify both filter-bank identities coefficient-by-coefficient."""
    Theta = bank.Theta
    up = Theta.upsampled(2)
    low = convolve(bank.a_tilde.transposed(), up)

    lhs0 = convolve(low, bank.a.conj_flip()) + convolve(
        bank.b_tilde.transposed(), bank.b.conj_flip()
    )
    residual0 = (lhs0 - Theta).max_abs()

    lhs_pi = convolve(low, bank.a.modulated().conj_flip()) + convolve(
        bank.b_tilde.transposed(), bank.b.modulated().conj_flip()
    )
    residual_pi = lhs_pi.max_abs()
    return {
        "residual0": residual0,
        "residual_pi": residual_pi,
        "ok": bool(residual0 <= tol and residual_pi <= tol),
    }


# -- wavelet derivation -----------------------------------------------------------


def _filter_combination(coeffs: MatrixSeq, f: FunctionHandle, dilate: int, factor: float):
    """factor * sum_k coeffs(k) f(dilate . - k), exact for piecewise polys.

    ``f`` itself when that is the identity: ``dilate`` 1, ``factor`` 1 and
    ``coeffs`` the Dirac filter to within ``MatrixSeq.allclose``.  Otherwise a
    sampled ``f`` is read once on the grid over its support at its own level
    (``funcmodel._sample_table``), and the filter's matrices are the taps of
    one ``funcmodel._matrix_synthesis`` at stride ``dilate``.
    """
    if dilate == 1 and factor == 1.0 and coeffs.allclose(MatrixSeq.dirac(f.ncomponents)):
        return f
    klo, n = coeffs.offset, coeffs.entries.shape[0]
    if np.max(np.abs(coeffs.entries.imag)) > 1e-14:
        raise PreconditionError("complex filters are not supported for time-domain synthesis")
    mats = factor * coeffs.entries.real  # mats[i] multiplies f(dilate . - klo - i)
    if isinstance(f, PiecewisePoly):
        return PiecewisePoly.combine(
            [(mats[i], f.compose_affine(float(dilate), float(-klo - i))) for i in range(n)]
        )
    level = _grid_level(f)
    flo, fhi = f.support
    i0, i1 = dyadic_bounds((flo + klo) / dilate, (fhi + klo + n - 1) / dilate, level)
    # x = (i0 + i) 2^-level gives dilate x - k = (dilate (i0 + i) - k 2^level) 2^-level
    vals = _matrix_synthesis(_sample_table(f, level), dilate * i0, i1 - i0 + 1, dilate, klo, mats)
    return SampledFunction(level, i0, vals)


@dataclass(frozen=True)
class DualFramelet:
    """A bank attached to its refinable pair, with derived wavelets."""

    phi: FunctionHandle
    phi_tilde: FunctionHandle
    psi: FunctionHandle
    psi_tilde: FunctionHandle
    bank: FilterBank
    eta: FunctionHandle
    eta_tilde: FunctionHandle
    mathring_pair: QuasiProjectionPair

    def pair(self) -> QuasiProjectionPair:
        return QuasiProjectionPair(self.phi, self.phi_tilde)


def derive_wavelets(bank: FilterBank, phi: FunctionHandle, phi_tilde: FunctionHandle) -> DualFramelet:
    """Build psi, psi_tilde, the theta-modified scaling functions, and the
    pair actually equal to the truncated expansions."""
    r = bank.nscaling
    if phi.ncomponents != r or phi_tilde.ncomponents != r:
        raise DimensionMismatchError(
            f"bank works on {r} components, functions have {phi.ncomponents}/{phi_tilde.ncomponents}"
        )
    Theta = bank.Theta
    p0 = fhat_deriv0(phi, 0)
    t0 = fhat_deriv0(phi_tilde, 0)
    norm = t0 @ fourier_deriv(Theta, 0) @ np.conj(p0)
    if abs(norm - 1.0) > 1e-8:
        raise PreconditionError(f"bank/function normalization is {complex(norm):.6g}, expected 1")

    psi = _filter_combination(bank.b, phi, 2, 2.0)
    tight = bank.b_tilde is bank.b and phi_tilde is phi  # one object for both sides, as phi is
    psi_tilde = psi if tight else _filter_combination(bank.b_tilde, phi_tilde, 2, 2.0)
    return DualFramelet(
        phi=phi,
        phi_tilde=phi_tilde,
        psi=psi,
        psi_tilde=psi_tilde,
        bank=bank,
        eta=_filter_combination(bank.theta, phi, 1, 1.0),
        eta_tilde=_filter_combination(bank.theta_tilde, phi_tilde, 1, 1.0),
        mathring_pair=QuasiProjectionPair(phi, _filter_combination(Theta.transposed(), phi_tilde, 1, 1.0)),
    )


# -- vanishing moments ---------------------------------------------------------------


def _first_moment_above_tol(moment) -> int:
    """Smallest j <= _VMO_MAX with ``moment(j)`` above tolerance, else _VMO_MAX + 1."""
    return next((j for j in range(_VMO_MAX + 1) if np.any(np.abs(moment(j)) > VMO_TOL)), _VMO_MAX + 1)


def vanishing_moments(psi: FunctionHandle) -> int:
    """Smallest j with a moment above tolerance, minimized over components."""
    return _first_moment_above_tol(psi.moment)


def filter_moments(coeffs: MatrixSeq, phi: FunctionHandle, j: int) -> np.ndarray:
    """Moments of 2 sum_k coeffs(k) phi(2. - k) from filter sums and exact
    moments of phi (no quadrature, hence no cascade error)."""
    out = np.zeros(coeffs.shape[0], dtype=np.complex128)
    for i in range(j + 1):
        mi = phi.moment(i).astype(np.complex128)
        ksum = fourier_deriv(coeffs, j - i)  # sum_k (-ik)^(j-i) coeffs(k)
        ksum = ksum * (1j ** (j - i))  # strip the (-i)^power to get k^(j-i)
        out += math.comb(j, i) * (ksum @ mi)
    return (2.0**-j) * out


# -- expansions -------------------------------------------------------------------


def truncated_expansion(df: DualFramelet, f, n: int, grid: GridSpec | None = None) -> SampledFunction:
    """Scaling layer plus the first n wavelet layers, summed directly."""
    if n < 0:
        raise PreconditionError("level n must be nonnegative")
    grid = grid or GridSpec()
    base = apply(QuasiProjectionPair(df.eta, df.eta_tilde), f, 0, 0.0, grid)
    total = base.values.copy()
    if n > 0:
        # pin the window the base layer resolved to, so every layer lands on
        # the identical grid regardless of its own support defaults
        glo, ghi = base.support
        fixed = GridSpec(grid.level, glo, ghi)
        wpair = QuasiProjectionPair(df.psi, df.psi_tilde)
        for j in range(n):
            layer = apply(wpair, f, j, 0.0, fixed)
            total += layer.values
    return SampledFunction(base.level, base.start, total)


def cascade_identity_check(df: DualFramelet, f, g, n: int = 1) -> float:
    """Residual of the two-level balance

    sum_k <f, phitilde_{n-1;k}><phi_{n-1;k}, g>
      + sum_k <f, psitilde_{n-1;k}><psi_{n-1;k}, g>
      = sum_k <f, phitilde_{n;k}><phi_{n;k}, g>.

    Inner products that are not exact are Simpson sums on the level-10 grid.
    """
    def layer(hf, ht, j):
        lo_f = min(_support_of(f)[0], _support_of(g)[0])
        hi_f = max(_support_of(f)[1], _support_of(g)[1])
        kt, kf = (_meeting_ks(h, 2.0**j * lo_f, 2.0**j * hi_f) for h in (ht, hf))
        ks = np.arange(min(kt[0], kf[0]), max(kt[-1], kf[-1]) + 1)  # every k that either side meets
        # <f, 2^{j/2} h(2^j . - k)> for every k, one row each
        scale = 2.0 ** (j / 2.0) * 2.0**-j
        cf = scale * _dual_pairings(f, ht, j, 0.0, ks, 10)
        cg = scale * _dual_pairings(g, hf, j, 0.0, ks, 10)
        return sum(float(a @ b) for a, b in zip(cf, cg))

    dual = df.mathring_pair.phi_tilde  # the theta-modified dual; df.phi_tilde when Theta = I
    fine = layer(df.phi, dual, n)
    coarse = layer(df.phi, dual, n - 1) + layer(df.psi, df.psi_tilde, n - 1)
    return abs(fine - coarse)


def _support_of(f) -> tuple[float, float]:
    if hasattr(f, "support"):
        return f.support
    return (-8.0, 8.0)


# -- verdicts ---------------------------------------------------------------------


def framelet_gibbs_verdict(df: DualFramelet) -> dict:
    """Classify the framelet expansion's behavior at jumps.

    Wavelet moments come from filter sums against exact scaling moments, so
    the vanishing-moment counts carry no cascade error.
    """
    vmo_psi = _first_moment_above_tol(lambda j: filter_moments(df.bank.b, df.phi, j))
    vmo_psi_tilde = _first_moment_above_tol(lambda j: filter_moments(df.bank.b_tilde, df.phi_tilde, j))
    report = {"vmo_psi": vmo_psi, "vmo_psi_tilde": vmo_psi_tilde}

    if vmo_psi >= 2 and vmo_psi_tilde >= 1 and _sample_jump(df.phi) is None:
        res = bracket_second_deriv(df.mathring_pair)
        if abs(res.value) > 1e-6:
            raise ConvergenceError(
                "wavelet moments promise a flat symbol but the bracket is not zero",
                residual=abs(res.value),
            )
        report.update(verdict="gibbs-everywhere", bracket=res.value)
        return report
    if _item_ii(df.mathring_pair):
        report.update(
            verdict="no-gibbs-at-origin",
            single_moment_pair=bool(vmo_psi == 1 and vmo_psi_tilde == 1),
        )
        return report
    report.update(
        verdict="inconclusive",
        R0=overshoot(df.mathring_pair, 0.0, "right"),
    )
    return report


def symbol_deviation_slope(pair: QuasiProjectionPair) -> float:
    """Log-log decay rate of |conj(phihat)^T phitildehat - 1| over xi = 2^-2..2^-8."""
    xis = 2.0 ** -np.arange(2, 9, dtype=np.float64)
    devs = []
    for xi in xis:
        ph = pair.phi.fourier(xi)
        pt = ph if pair.phi_tilde is pair.phi else pair.phi_tilde.fourier(xi)
        devs.append(max(abs(np.conj(ph) @ pt - 1.0), 1e-300))
    slope = np.polyfit(np.log2(xis), np.log2(devs), 1)[0]
    return float(slope)
