"""Overshoot analysis of quasi-projection expansions of jump signals.

The central objects are the shifted operators Q_{0,t} applied to sgn and the
overshoot functions

    R(t) = sup_{x > 0} [Q_{0,t} sgn](x),      L(t) = inf_{x < 0} [Q_{0,t} sgn](x),

which by the dyadic scaling identity capture the limiting over/undershoot of
Q_{n, 2^n x0} near a jump at x0.  Whether a pair overshoots at all is governed
by two scalar quantities assembled exactly from moments:

  * the first-moment defect of the expansion error of sgn (an integral
    identity whose two sides are computed independently here), and
  * the second derivative at zero of the product symbol
    conj(phihat)^T phitildehat.

Points other than the origin reduce to the origin through the binary-digit
dynamics of x0: the relevant shifts t are the cluster points of the orbit
2^n x0 mod 1, computed exactly in rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import numpy as np

from .errors import PreconditionError
from .funcmodel import (
    _MAX_SAMPLE_JUMP,
    FunctionHandle,
    _continuity_defect,
    _grid_min,
    halfline_integral,
    simpson_sum,
)
from .quasiproj import GridSpec, QuasiProjectionPair, Sgn, apply, check_qp1, poly_reproduction

__all__ = [
    "kappa",
    "identity_rhs",
    "identity_lhs",
    "BracketResult",
    "bracket_second_deriv",
    "overshoot",
    "overshoot_curve",
    "cluster_set",
    "doubling_orbit_element",
    "GibbsReport",
    "gibbs_at_point",
    "nonneg_sufficient",
]

FULL_INTERVAL = "full-interval"


def _require_qp1(pair: QuasiProjectionPair) -> None:
    """Raise unless the pair reproduces constants (Q1 = 1)."""
    rep = check_qp1(pair)
    if not rep["ok"]:
        raise PreconditionError(
            f"pair does not reproduce constants; residuals {rep['residuals']}"
        )


# -- moment functionals --------------------------------------------------------


def kappa(phi_tilde: FunctionHandle, j: int) -> np.ndarray:
    """kappa_j = integral over one period of sum_n n^j phi_tilde(x - n).

    Telescopes to the exact finite sum  sum_n n^j (F(1-n) - F(-n))  with F the
    cumulative integral, so no quadrature is involved.
    """
    if j < 0:
        raise PreconditionError("kappa order must be nonnegative")
    lo, hi = phi_tilde.support
    ns = np.arange(int(math.floor(-hi)), int(math.ceil(1 - lo)) + 1)
    upper = phi_tilde.cumulative(1.0 - ns.astype(np.float64))
    lower = phi_tilde.cumulative(-ns.astype(np.float64))
    weights = ns.astype(np.float64) ** j if j > 0 else np.ones(ns.size)
    return weights @ (upper - lower)


def identity_rhs(pair: QuasiProjectionPair) -> complex:
    """Moment-side value of the first-moment identity for the sgn error.

    1/6 - conj(phihat(0))^T (kappa_1 - kappa_2)
        - conj(phihat''(0))^T phitildehat(0)
        + i conj(phihat'(0))^T phitildehat(0)
        - 2i conj(phihat'(0))^T kappa_1

    Requires the pair to reproduce constants (checked); the identity is an
    exact statement under that hypothesis.
    """
    _require_qp1(pair)
    k1 = kappa(pair.phi_tilde, 1).astype(np.complex128)
    k2 = kappa(pair.phi_tilde, 2).astype(np.complex128)
    p0 = pair.fhat0("phi", 0)
    p1 = pair.fhat0("phi", 1)
    p2 = pair.fhat0("phi", 2)
    t0 = pair.fhat0("tilde", 0)
    val = (
        1.0 / 6.0
        - np.conj(p0) @ (k1 - k2)
        - np.conj(p2) @ t0
        + 1j * (np.conj(p1) @ t0)
        - 2j * (np.conj(p1) @ k1)
    )
    return complex(val)


def identity_lhs(pair: QuasiProjectionPair, level: int = 12, t: float = 0.0) -> float:
    """Quadrature-side value: integral of x (sgn(x) - [Q_{0,t} sgn](x)) dx.

    The integrand vanishes identically outside the support-interaction window
    once constants are reproduced, so the integral over the window is the
    whole integral.
    """
    sf = _sgn_expansion(pair, t, level)
    xs = sf.xs()
    integrand = xs * (np.sign(xs) + (xs == 0.0) - sf.values[:, 0])
    return float(simpson_sum(integrand[:, None], 2.0**-level, axis=0)[0])


@dataclass(frozen=True)
class BracketResult:
    """Second derivative at 0 of the product symbol, with the flag saying
    whether the matching-identity hypotheses (order-2 reproduction both ways)
    actually hold for this pair."""

    value: float
    hypotheses_met: bool


def bracket_second_deriv(pair: QuasiProjectionPair, tol: float = 1e-8) -> BracketResult:
    """[conj(phihat)^T phitildehat]''(0) from exact moments.

    When the swapped pair reproduces degree <= 1 (hypotheses_met), this equals
    minus the first-moment identity value and a zero bracket is the boundary
    between overshoot and no overshoot at the origin.
    """
    p0, p1, p2 = (pair.fhat0("phi", j) for j in range(3))
    t0, t1, t2 = (pair.fhat0("tilde", j) for j in range(3))
    val = np.conj(p2) @ t0 + 2.0 * (np.conj(p1) @ t1) + np.conj(p0) @ t2
    if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
        raise PreconditionError("product symbol has a genuinely complex second derivative")
    swapped = poly_reproduction(pair.swapped(), 2, GridSpec(9))
    met = all(r < tol for r in swapped.values())
    return BracketResult(float(val.real), met)


# -- overshoot functions ---------------------------------------------------------


def _sgn_expansion(pair: QuasiProjectionPair, t: float, level: int):
    """[Q_{0,t} sgn] sampled at ``level`` on a window holding its whole
    interaction zone."""
    W = 2 * pair.support_bound + 3 + int(math.ceil(abs(t)))
    return apply(pair, Sgn(0.0), 0, t, GridSpec(level, -W, W))


def _overshoot_both(pair: QuasiProjectionPair, t: float, grid: GridSpec | None) -> tuple[float, float]:
    """(R(t), L(t)) from one expansion of sgn."""
    sf = _sgn_expansion(pair, t, (grid or GridSpec()).level)
    zero = -sf.start  # the window starts at an integer, so x = 0 is a sample
    v = sf.values[:, 0]
    right = float(max(np.max(v[zero + 1 :]), 1.0))
    left = float(min(np.min(v[:zero]), -1.0))
    return right, left


def overshoot(
    pair: QuasiProjectionPair,
    t: float = 0.0,
    side: str = "right",
    grid: GridSpec | None = None,
) -> float:
    """R(t) (side='right': sup of Q sgn on x > 0) or L(t) (side='left': inf on
    x < 0).  Beyond the interaction window the expansion equals sgn exactly,
    so the sup/inf includes +-1."""
    if side not in ("right", "left"):
        raise PreconditionError(f"side must be 'right' or 'left', got {side!r}")
    right, left = _overshoot_both(pair, t, grid)
    return right if side == "right" else left


def _sweep(pair: QuasiProjectionPair, shifts, grid: GridSpec | None) -> tuple[np.ndarray, np.ndarray]:
    """(R, L) at each shift, one ``apply`` per shift in a plain loop.

    Shifts on the ``2^-level`` grid (every curve shift, the irrational sweep,
    dyadic cluster sets) are summed from the pair's cached phi table for that
    level; an off-grid shift such as 1/3 builds a table at its own phase (the
    shifts of a curve or a cluster set are distinct).  One call per shift is
    what a per-shift trace counts.
    """
    both = [_overshoot_both(pair, t, grid) for t in shifts]
    return np.array([b[0] for b in both]), np.array([b[1] for b in both])


def overshoot_curve(
    pair: QuasiProjectionPair,
    num_t: int = 64,
    grid: GridSpec | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample t -> (R(t), L(t)) on a uniform grid of [0, 1)."""
    ts = np.arange(num_t) / num_t
    R, L = _sweep(pair, ts, grid)
    return ts, R, L


# -- binary-digit dynamics --------------------------------------------------------


def cluster_set(x0) -> list[Fraction]:
    """Cluster points of the orbit 2^n x0 mod 1, exactly.

    Writing x0 = p / (2^k q) in lowest terms with q odd: after k doublings the
    orbit enters the pure cycle of 2^n (p mod q) / q, because 2 is invertible
    mod q.  For q = 1 the orbit collapses to {0}.
    """
    return list(_cycle(x0))


def _cycle(x0):
    """:func:`cluster_set` point by point; doubling permutes the residues mod q."""
    x0 = Fraction(x0)
    q = x0.denominator
    while q % 2 == 0:
        q //= 2
    a = start = x0.numerator % q
    while True:
        yield Fraction(a, q)
        a = 2 * a % q
        if a == start:
            return


def doubling_orbit_element(x0, n: int) -> Fraction:
    """2^n x0 mod 1 in exact arithmetic (modular exponentiation, O(log n))."""
    x0 = Fraction(x0)
    q = x0.denominator
    return Fraction((x0.numerator * pow(2, n, q)) % q, q)


# -- verdicts ---------------------------------------------------------------------


@dataclass(frozen=True)
class GibbsReport:
    """Overshoot verdict of a pair at a jump location."""

    point: object
    R_x0: float
    L_x0: float
    cluster_set: object  # list of Fraction, or the FULL_INTERVAL marker
    verdict: str
    tol: float = 1e-3
    worst_shift: float = 0.0

    @property
    def overshoot_right(self) -> float:
        return self.R_x0 - 1.0

    @property
    def overshoot_left(self) -> float:
        return -self.L_x0 - 1.0

    def to_json_dict(self) -> dict:
        cs = (
            FULL_INTERVAL
            if self.cluster_set == FULL_INTERVAL
            else [str(c) for c in self.cluster_set]
        )
        return {
            "point": str(self.point),
            "R_x0": self.R_x0,
            "L_x0": self.L_x0,
            "overshoot_right": self.overshoot_right,
            "overshoot_left": self.overshoot_left,
            "cluster_set": cs,
            "verdict": self.verdict,
            "tol": self.tol,
            "worst_shift": self.worst_shift,
        }


def gibbs_at_point(
    pair: QuasiProjectionPair,
    x0,
    tol: float = 1e-3,
    grid: GridSpec | None = None,
    irrational_density: int = 256,
) -> GibbsReport:
    """Overshoot verdict at a jump placed at x0.

    x0 is an exact rational (Fraction/int/str "p/q") or the marker
    "irrational".  The limiting overshoot is the extreme of R/L over the
    cluster set of the doubling orbit of x0; for the irrational marker the
    cluster set is the whole interval and is swept on a uniform grid, which
    can certify overshoot but never its absence (verdict stays one-sided).
    A cycle longer than the grid's ``2^level`` distinct shifts is refused.
    """
    if not (math.isfinite(tol) and tol >= 0 and irrational_density >= 1):
        raise PreconditionError(
            f"tol must be finite and >= 0, irrational_density >= 1; got {tol!r}, {irrational_density!r}"
        )
    _require_qp1(pair)
    irrational = isinstance(x0, str) and x0.strip().lower() == "irrational"
    if irrational:
        shifts = [i / irrational_density for i in range(irrational_density)]
        cs = FULL_INTERVAL
    else:
        most = 2 ** (grid or GridSpec()).level
        try:
            cs = list(islice(_cycle(x0), most + 1))
        except (ValueError, ZeroDivisionError, OverflowError):
            raise PreconditionError(f"malformed rational point {x0!r}") from None
        if len(cs) > most:
            raise PreconditionError(f'cycle of {x0} exceeds the {most} grid shifts; use "irrational"')
        shifts = [float(c) for c in cs]
    if cs == FULL_INTERVAL or cs != [Fraction(0)]:
        defect = _continuity_defect(pair.phi)
        if defect > _MAX_SAMPLE_JUMP:
            raise PreconditionError(
                "cluster-set analysis away from dyadic points needs a continuous "
                f"primal function; sample jump {defect:.3g} found"
            )

    Rs, Ls = _sweep(pair, shifts, grid)
    R, L = float(np.max(Rs)), float(np.min(Ls))
    # the first shift within 1e-12 of the extreme: rounding moves R, L by ~1e-14
    iR, iL = int(np.argmax(Rs >= R - 1e-12)), int(np.argmax(Ls <= L + 1e-12))
    worst = shifts[iR] if (R - 1.0) >= (-1.0 - L) else shifts[iL]
    has_gibbs = R > 1.0 + tol or L < -1.0 - tol
    if has_gibbs:
        verdict = "gibbs"
    elif irrational:
        verdict = "inconclusive"
    else:
        verdict = "no-gibbs"
    return GibbsReport(
        point=x0,
        R_x0=R,
        L_x0=L,
        cluster_set=cs,
        verdict=verdict,
        tol=tol,
        worst_shift=float(worst),
    )


def nonneg_sufficient(pair: QuasiProjectionPair, tol: float = 1e-9) -> dict:
    """The two checkable sufficient conditions for no overshoot at the origin.

    item_i : primal nonnegative and every integer-split half-line integral of
             the dual nonnegative (both sides, all integer split points);
    item_ii: both functions nonnegative pointwise.
    """
    phi_nonneg = _grid_min(pair.phi) >= -tol
    tlo, thi = pair.phi_tilde.support
    splits = range(int(math.floor(tlo)), int(math.ceil(thi)) + 1)
    halves_ok = all(
        float(np.min(halfline_integral(pair.phi_tilde, k, side))) >= -tol
        for k in splits
        for side in ("left", "right")
    )
    item_i = phi_nonneg and halves_ok
    item_ii = phi_nonneg and _grid_min(pair.phi_tilde) >= -tol
    return {"item_i": bool(item_i), "item_ii": bool(item_ii)}
