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

from .errors import ConvergenceError, PreconditionError
from .funcmodel import (
    FunctionHandle,
    _grid_min,
    _sample_jump,
    _window_sums,
    check_level,
    fhat_deriv0,
    halfline_integral,
    simpson_sum,
)
from .quasiproj import (
    GridSpec,
    QuasiProjectionPair,
    Sgn,
    _meeting_ks,
    _sgn_coefficients,
    accuracy_order,
    apply,
    check_qp1,
)

__all__ = [
    "kappa",
    "identity_rhs",
    "identity_lhs",
    "BracketResult",
    "bracket_second_deriv",
    "overshoot",
    "overshoot_curve",
    "cluster_set",
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
    ns = _meeting_ks(phi_tilde, 0.0, 1.0)
    upper = phi_tilde.cumulative(1.0 - ns.astype(np.float64))
    lower = phi_tilde.cumulative(-ns.astype(np.float64))
    return ns.astype(np.float64) ** j @ (upper - lower)


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
    p0, p1, p2 = (fhat_deriv0(pair.phi, j) for j in range(3))
    t0 = fhat_deriv0(pair.phi_tilde, 0)
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
    whole integral.  The window is its own, ``W = window_radius + ceil|t|``:
    past :func:`apply`'s default it integrates the rounding residue too, and
    the pinned bytes are its sums; :func:`apply` refuses a non-finite ``t``.
    The integrand is built in one work array: ``-Q sgn``, then -1 left of
    x = 0 and +1 from it on (``Sgn(0.0)`` is 1 at 0), then times x, itself one
    array scaled in place.
    """
    W = pair.window_radius + np.ceil(abs(t))  # not math.ceil, which raises on an infinite t before apply refuses it
    sf = apply(pair, Sgn(0.0), 0, t, GridSpec(level, -W, W))
    zero = -sf.start  # the window [-W, W] holds x = 0 at this index
    work = np.negative(sf.values[:, 0])
    del sf  # freed now, so the grid and the quadrature reuse its pages instead of faulting in new ones
    work[:zero] -= 1.0
    work[zero:] += 1.0
    x = np.arange(-zero, work.size - zero, dtype=np.float64)
    x *= 2.0**-level
    work *= x
    del x
    return float(simpson_sum(work[:, None], 2.0**-level)[0])


@dataclass(frozen=True)
class BracketResult:
    """Second derivative at 0 of the product symbol, with the flag saying
    whether the matching-identity hypotheses (order-2 reproduction both ways)
    actually hold for this pair."""

    value: float
    hypotheses_met: bool


def bracket_second_deriv(pair: QuasiProjectionPair) -> BracketResult:
    """[conj(phihat)^T phitildehat]''(0) from exact moments.

    When the swapped pair reproduces degree <= 1 (hypotheses_met: its
    :func:`accuracy_order` is 2), this equals minus the first-moment identity
    value and a zero bracket is the boundary between overshoot and no
    overshoot at the origin.
    """
    p0, p1, p2 = (fhat_deriv0(pair.phi, j) for j in range(3))
    t0, t1, t2 = (fhat_deriv0(pair.phi_tilde, j) for j in range(3))
    val = np.conj(p2) @ t0 + 2.0 * (np.conj(p1) @ t1) + np.conj(p0) @ t2
    return BracketResult(float(val.real), accuracy_order(pair.swapped(), 2) >= 2)


# -- overshoot functions ---------------------------------------------------------


def _overshoot_both(pair: QuasiProjectionPair, t: float, level: int) -> tuple[float, float]:
    """(R(t), L(t)) from one expansion of sgn on :func:`apply`'s default
    window ``[-W, W]``, ``W`` the pair's ``window_radius``, which holds the
    whole interaction zone for every shift."""
    sf = apply(pair, Sgn(0.0), 0, t, GridSpec(level))
    zero = -sf.start  # the window starts at an integer, so x = 0 is a sample
    v = sf.values[:, 0]
    right = float(max(np.max(v[zero + 1 :]), 1.0))
    left = float(min(np.min(v[:zero]), -1.0))
    return right, left


def overshoot(
    pair: QuasiProjectionPair,
    t: float,
    side: str = "right",
    level: int = 12,
) -> float:
    """R(t) (side='right': sup of Q sgn on x > 0) or L(t) (side='left': inf on
    x < 0), sampled at ``level`` over the whole interaction zone.  Beyond it
    the expansion equals sgn exactly, so the sup/inf includes +-1."""
    if side not in ("right", "left"):
        raise PreconditionError(f"side must be 'right' or 'left', got {side!r}")
    right, left = _overshoot_both(pair, t, level)
    return right if side == "right" else left


def _sweep(pair: QuasiProjectionPair, shifts, level: int) -> tuple[np.ndarray, np.ndarray]:
    """(R, L) at each shift.

    Two or more shifts on the ``2^-level`` grid (every curve shift, the
    irrational sweep, grid shifts however far from 0: all read one window)
    are summed together by :func:`_sweep_on_grid`.  The shift that
    :func:`_worst` names among them is then re-derived by the direct route
    :func:`_overshoot_both`, and the two must agree bit for bit, as both sum
    the same terms in the same order; a disagreement raises
    ``ConvergenceError``.  Every other shift, such as 1/3 with its own phase
    table, and a lone on-grid shift (the cluster set {0} of a dyadic point)
    take the direct route.
    """
    ts = np.asarray(shifts, dtype=np.float64)
    R, L = np.empty(ts.size), np.empty(ts.size)
    u = ts * 2.0**level
    grid = np.isfinite(u) & (u == np.floor(u))
    if np.count_nonzero(grid) < 2:
        grid[:] = False
    for i in np.flatnonzero(~grid):
        R[i], L[i] = _overshoot_both(pair, float(ts[i]), level)
    if grid.any():
        batch = np.flatnonzero(grid)
        R[batch], L[batch] = _sweep_on_grid(pair, ts[batch], level)
        i = batch[_worst(R[batch], L[batch])]
        direct = _overshoot_both(pair, float(ts[i]), level)
        batched = (float(R[i]), float(L[i]))
        if np.array(direct).tobytes() != np.array(batched).tobytes():
            raise ConvergenceError(
                f"at shift {float(ts[i])!r} the batched sweep gives (R, L) = {batched!r}, "
                f"the direct expansion {direct!r}"
            )
    return R, L


def _sweep_on_grid(pair: QuasiProjectionPair, ts: np.ndarray, level: int) -> tuple[np.ndarray, np.ndarray]:
    """(R, L) at shifts on the ``2^-level`` grid from one batched synthesis,
    term for term the sums of :func:`_overshoot_both`.

    Every shift reads rows ``-W .. W`` of the one window, ``W`` the pair's
    ``window_radius``.  One ``cumulative`` call gives the sgn coefficients of
    every (shift, k) that these rows read, so the k-range is the rows' own.
    One :func:`~gibbslab.funcmodel._window_sums` call lays the rows of all
    shifts side by side, counted from the row ``v = 0`` that holds x = 0,
    dedupes them (the constant rows far from 0 are one window for every
    shift) and sums the distinct ones in chunks of ``2 W + 1`` rows, each
    chunk's output no larger than one shift's rows.  Rows ``v != 0`` lie wholly
    on one side of 0 and reduce by row min or max; rows ``+-W`` reach past the
    direct route's window, but past ``|x| >= 2N`` a row reads only +-mass, so
    they repeat rows ``+-(W - 1)``.  Only row ``v = 0``, whose x = 0 belongs to
    neither side, is cut at x's column ``j0``: a piece that holds its row's
    first extreme reads it, any other is a min over its own columns, of minus
    the row on the x > 0 side.
    """
    m0, P = pair.phi_table(level)
    width, rows = 2**level, P.shape[0]
    W = pair.window_radius
    qz, j0 = np.divmod((ts * width).astype(np.int64) - m0, width)  # table row and column of x = 0
    # rows -W .. W of every shift; row v reads k = qz + v - a
    ks = qz[:, None] + np.arange(-W - rows + 1, W + 1)
    coeff = _sgn_coefficients(pair.phi_tilde, ((0.0 + ts)[:, None] - ks).reshape(-1))
    rel = np.arange(rows - 1, 2 * W + rows)[:, None]  # row v of every shift is rel[W + v]
    run, sums = _window_sums(P, coeff.reshape(ks.shape + (-1,)), rel)

    # the pieces of row v = 0: its columns before j0 (side 0: x < 0, a min)
    # or after j0 (side 1: x > 0, a max, minus the min of minus the row)
    n = ts.size
    rows, zero = np.tile(run[W], 2), np.tile(j0, 2)
    side = np.repeat([0, 1], n)
    sign, j = np.where(side, -1.0, 1.0), np.arange(width)
    cut = np.empty(2 * n)
    arg = np.empty((2, run.max() + 1), dtype=np.int64)  # first min and first max (or NaN) of each row
    ext = np.empty((2, run.max() + 1))
    for lo, out in sums:
        hi, here = lo + len(out), np.arange(len(out))
        arg[0, lo:hi], arg[1, lo:hi] = np.argmin(out, axis=1), np.argmax(out, axis=1)
        ext[0, lo:hi], ext[1, lo:hi] = out[here, arg[0, lo:hi]], out[here, arg[1, lo:hi]]
        sel = np.flatnonzero((rows >= lo) & (rows < hi))
        a = arg[side[sel], rows[sel]]
        whole = np.where(side[sel], a > zero[sel], a < zero[sel])  # the piece holds its row's extreme
        cut[sel[whole]] = ext[side[sel[whole]], rows[sel[whole]]]
        part = sel[~whole]  # a masked min over each other piece's columns (+-inf for none)
        mine = np.where(side[part, None], j > zero[part, None], j < zero[part, None])
        cut[part] = sign[part] * np.min(np.where(mine, sign[part, None] * out[rows[part] - lo], np.inf), axis=1)
        del out  # before the next chunk is summed: one chunk's output alive at a time
    L = np.minimum(np.minimum(np.min(ext[0, run[:W]], axis=0), cut[:n]), -1.0)
    R = np.maximum(np.maximum(np.max(ext[1, run[W + 1 :]], axis=0), cut[n:]), 1.0)
    return R, L


def _worst(Rs: np.ndarray, Ls: np.ndarray) -> int:
    """Index of the worst shift of a sweep: the first one within 1e-12 of the
    extreme R or L (rounding moves R, L by ~1e-14), on the side with the larger
    overshoot."""
    R, L = np.max(Rs), np.min(Ls)
    iR, iL = int(np.argmax(Rs >= R - 1e-12)), int(np.argmax(Ls <= L + 1e-12))
    return iR if (R - 1.0) >= (-1.0 - L) else iL


def overshoot_curve(
    pair: QuasiProjectionPair,
    num_t: int,
    level: int = 12,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample t -> (R(t), L(t)) on ``num_t`` uniform shifts of [0, 1), an
    integer ``num_t >= 1``, each as in :func:`overshoot`.  On-grid shifts are
    summed in one batched pass and the worst one is re-derived from its own
    expansion (:func:`_sweep`)."""
    check_level(level)
    if not (num_t >= 1 and float(num_t).is_integer()):
        raise PreconditionError(f"num_t must be an integer >= 1, got {num_t!r}")
    ts = np.arange(int(num_t)) / int(num_t)
    R, L = _sweep(pair, ts, level)
    return ts, R, L


# -- binary-digit dynamics --------------------------------------------------------


def _rational(x0) -> Fraction:
    """x0 exactly: a number, or text 'p/q', an integer or a finite decimal."""
    try:
        return Fraction(x0)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError):
        raise PreconditionError(f"malformed rational point {x0!r}") from None


def cluster_set(x0) -> list[Fraction]:
    """Cluster points of the orbit 2^n x0 mod 1, exactly.

    Writing x0 = p / (2^k q) in lowest terms with q odd: after k doublings the
    orbit enters the pure cycle of 2^n (p mod q) / q, because 2 is invertible
    mod q.  For q = 1 the orbit collapses to {0}.
    """
    return list(_cycle(_rational(x0)))


def _cycle(x0: Fraction):
    """:func:`cluster_set` point by point; doubling permutes the residues mod q."""
    q = x0.denominator
    while q % 2 == 0:
        q //= 2
    a = start = x0.numerator % q
    while True:
        yield Fraction(a, q)
        a = 2 * a % q
        if a == start:
            return


# -- verdicts ---------------------------------------------------------------------


@dataclass(frozen=True)
class GibbsReport:
    """Overshoot verdict of a pair at a jump location."""

    point: object
    R_x0: float
    L_x0: float
    cluster_set: object  # list of Fraction, or the FULL_INTERVAL marker
    verdict: str
    tol: float
    worst_shift: float

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
    level: int = 12,
    irrational_density: int = 256,
) -> GibbsReport:
    """Overshoot verdict at a jump placed at x0.

    x0 is an exact rational (Fraction/int/str "p/q") or the marker
    "irrational", which stands for a point whose doubling orbit is dense.  The
    limiting overshoot is the extreme of R/L over the cluster set of the
    doubling orbit of x0; for the marker that cluster set is the whole
    interval (as it is for almost every x0, but not for every irrational
    one) and is swept on a uniform grid of
    ``irrational_density`` shifts (an integer >= 1), which can certify
    overshoot but never its absence (verdict stays one-sided).  A cycle
    longer than the ``2^level`` distinct shifts of the grid at ``level`` is
    refused.  The shifts are swept by :func:`_sweep`: the irrational grid in
    one batched pass whose ``worst_shift`` is re-derived from its own
    expansion, off-grid cluster points (such as 1/3 and 2/3) and a lone shift
    each from their own expansion.
    """
    check_level(level)
    density_ok = irrational_density >= 1 and float(irrational_density).is_integer()
    if not (math.isfinite(tol) and tol >= 0 and density_ok):
        raise PreconditionError(
            f"tol must be finite and >= 0, irrational_density an integer >= 1; got {tol!r}, {irrational_density!r}"
        )
    irrational = isinstance(x0, str) and x0.strip().lower() == "irrational"
    if irrational:
        shifts = [i / irrational_density for i in range(int(irrational_density))]
        cs = FULL_INTERVAL
    else:
        most = 2**level
        cs = list(islice(_cycle(_rational(x0)), most + 1))
        if len(cs) > most:
            raise PreconditionError(f'cycle of {x0} exceeds the {most} grid shifts; use "irrational"')
        shifts = [float(c) for c in cs]
    _require_qp1(pair)
    if cs == FULL_INTERVAL or cs != [Fraction(0)]:
        jump = _sample_jump(pair.phi)
        if jump is not None:
            raise PreconditionError(
                "cluster-set analysis away from dyadic points needs a continuous "
                f"primal function; sample jump {jump:.3g} found"
            )

    R, L, worst, verdict = _verdict(pair, shifts, tol, level, irrational)
    return GibbsReport(point=x0, R_x0=R, L_x0=L, cluster_set=cs, verdict=verdict, tol=tol, worst_shift=worst)


def _verdict(pair: QuasiProjectionPair, shifts, tol: float, level: int, sampled: bool) -> tuple[float, float, float, str]:
    """(R, L, worst shift, verdict) of one :func:`_sweep`, R and L the extremes
    over ``shifts``: "gibbs" when R > 1 + tol or L < -1 - tol, else
    "inconclusive" when the shifts only sample the cluster set, else
    "no-gibbs".  The one comparison of R and L with 1 +- tol."""
    Rs, Ls = _sweep(pair, shifts, level)
    R, L = float(np.max(Rs)), float(np.min(Ls))
    verdict = "gibbs" if R > 1.0 + tol or L < -1.0 - tol else "inconclusive" if sampled else "no-gibbs"
    return R, L, float(shifts[_worst(Rs, Ls)]), verdict


def nonneg_sufficient(pair: QuasiProjectionPair) -> dict:
    """The two checkable sufficient conditions for no overshoot at the origin,
    :func:`_item_i` and :func:`_item_ii`; a verdict calls the one it reads."""
    return {"item_i": _item_i(pair), "item_ii": _item_ii(pair)}


def _nonneg(f: FunctionHandle) -> bool:
    """``f`` down to -1e-9 at least on the level-10 grid over its support."""
    return _grid_min(f) >= -1e-9


def _item_i(pair: QuasiProjectionPair) -> bool:
    """Primal nonnegative and every integer-split half-line integral of the dual
    down to -1e-9 at least (both sides), the integrals only for a nonnegative primal."""
    if not _nonneg(pair.phi):
        return False
    tlo, thi = pair.phi_tilde.support
    return all(
        float(np.min(halfline_integral(pair.phi_tilde, k, side))) >= -1e-9
        for k in range(int(math.floor(tlo)), int(math.ceil(thi)) + 1)
        for side in ("left", "right")
    )


def _item_ii(pair: QuasiProjectionPair) -> bool:
    """Both functions nonnegative (:func:`_nonneg`)."""
    return _nonneg(pair.phi) and _nonneg(pair.phi_tilde)
