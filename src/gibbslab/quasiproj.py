"""Quasi-projection operators from a primal/dual pair of compactly supported
functions.

The level-n, shift-t operator applied to a signal f is

    [Q_{n,t} f](x) = sum_k <f, 2^n phi_tilde(2^n . - k + t)> phi(2^n x - k + t)

with <f, g> = integral f(y) conj(g(y))^T dy.  All k-sums here are finite and
truncated exactly by support arithmetic; no tail is ever dropped.

Signals are either function handles (see funcmodel), plain callables, or the
two analytic built-ins that make coefficients exact:

  * ``Sgn(x0)``     -- the sign function centered at x0; coefficients come
                       from half-line integrals of phi_tilde,
                       <sgn(.-x0), 2^n phi_tilde(2^n . - k + t)>
                         = conj(2 T(2^n x0 + t - k) - mass)^T
                       with T(s) the right tail integral of phi_tilde;
  * ``Monomial(j)`` -- x^j; coefficients come from the binomial expansion in
                       cached moments of phi_tilde, exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, PreconditionError
from .funcmodel import (
    MAX_DEGREE,
    FunctionHandle,
    PiecewisePoly,
    SampledFunction,
    _grid_level,
    _is_real,
    _negligible,
    _sample_table,
    _support_samples,
    _synthesis,
    check_level,
    dyadic_bounds,
    dyadic_grid,
    function_from_json_dict,
    function_to_json_dict,
    inner_product,
    piecewise_quadrature,
    simpson_sum,
)

__all__ = [
    "Sgn",
    "Monomial",
    "GridSpec",
    "QuasiProjectionPair",
    "apply",
    "check_qp1",
    "kernel_criterion",
    "poly_reproduction",
    "accuracy_order",
    "approximation_rate",
]

@dataclass(frozen=True)
class Sgn:
    """Built-in signal sgn(x - x0), taken as 1 at x0."""

    x0: float = 0.0

    def __call__(self, x) -> np.ndarray:
        d = np.asarray(x, dtype=np.float64) - self.x0
        return np.sign(d) + (d == 0.0)


@dataclass(frozen=True)
class Monomial:
    """Built-in signal x^degree."""

    degree: int = 0

    def __call__(self, x) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) ** self.degree


@dataclass(frozen=True)
class GridSpec:
    """Dyadic evaluation grid: points i 2^-level covering [lo, hi].

    ``lo``/``hi`` default to the pair's support-interaction window.
    """

    level: int = 12
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self):
        check_level(self.level)

    def window(self, lo_default: float, hi_default: float) -> tuple[float, float]:
        """The window ``[lo, hi]``, with the caller's defaults filled in."""
        lo = lo_default if self.lo is None else float(self.lo)
        hi = hi_default if self.hi is None else float(self.hi)
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise PreconditionError(f"grid window [{lo}, {hi}] must be finite and nonempty")
        return lo, hi


@dataclass(frozen=True, eq=False)
class QuasiProjectionPair:
    """Immutable primal/dual pair with cached phi tables, QP1 residuals,
    accuracy order and support bookkeeping; each member owns its moments and
    Fourier transform.

    ``support_bound`` is the smallest integer N with both supports inside
    [-N, N]; the operator applied to a jump signal differs from the signal
    only inside [x0 - (2N+1) 2^-n, x0 + (2N+1) 2^-n] for every shift t, which
    the half-width ``window_radius`` 2N + 3 of :func:`apply`'s window holds.
    Both follow from ``phi`` and ``phi_tilde``; assigning to any attribute
    raises ``dataclasses.FrozenInstanceError``.
    """

    phi: FunctionHandle
    phi_tilde: FunctionHandle

    def __post_init__(self):
        if self.phi.ncomponents != self.phi_tilde.ncomponents:
            raise DimensionMismatchError(
                f"component mismatch: phi has {self.phi.ncomponents}, phi_tilde has {self.phi_tilde.ncomponents}"
            )
        radius = max(abs(v) for f in (self.phi, self.phi_tilde) for v in f.support)
        object.__setattr__(self, "support_bound", max(1, int(math.ceil(radius - 1e-12))))
        object.__setattr__(self, "window_radius", 2 * self.support_bound + 3)
        object.__setattr__(self, "_tables", {})  # phi_table per level at phase 0

    @property
    def ncomponents(self) -> int:
        return self.phi.ncomponents

    def phi_table(self, level: int, phase: float = 0.0) -> tuple[int, np.ndarray]:
        """The :func:`_sample_table` of phi; cached per level at phase 0 only."""
        if phase:
            return _sample_table(self.phi, level, phase)
        if level not in self._tables:
            self._tables[level] = _sample_table(self.phi, level)
        return self._tables[level]

    @cached_property
    def _qp1_residuals(self) -> tuple[float, float]:
        """The normalization and constancy residuals of :func:`check_qp1`."""
        mass = self.phi_tilde.moment(0)
        norm_residual = abs(mass @ self.phi.moment(0) - 1.0)
        acc = _synthesis(self.phi_table(10), 0, 2**10, 1, 0, mass[None, :])
        return float(norm_residual), float(np.max(np.abs(acc - 1.0)))

    @cached_property
    def _order(self) -> int:
        """The first degree ``j <= MAX_DEGREE`` with ``E_j = Q x^j - x^j`` not
        zero, else ``MAX_DEGREE + 1``.  Q commutes with integer shifts, so
        ``E_j(x + 1) - E_j(x) = sum_{i < j} C(j, i) E_i(x)`` (Strang-Fix;
        Plonka for vectors): once the lower degrees vanish, ``E_j`` is
        1-periodic and one period decides it.  Each ``E_j`` is one
        :func:`_synthesis` of the exact monomial coefficients (phitilde's
        moments) on phi's table over the ``2^-L`` grid of ``[0, 1)``, ``L =
        min(phi's level, 10)``, and is zero when its largest value is
        negligible against ``sum_k |c_k| max|phi| + 1``, one scale for the
        whole period.

        Exact for a piecewise phi: on each cut of ``[0, 1)`` at the knots'
        fractional parts ``E_j`` is a polynomial of degree at most ``max(deg,
        j)``, so ``max(deg, j) + 1`` grid points in every cut decide it, and a
        phi with a cut that holds fewer is refused.  A refinable phi is read at
        its exact cascade values; the read errs only for a nonzero periodic
        ``E_j`` that vanishes at every point of the period's grid.  A sampled
        phi is read at its samples."""
        L = min(_grid_level(self.phi), 10)
        table = self.phi_table(L)
        xs = np.arange(2**L) * 2.0**-L
        ks = _meeting_ks(self.phi, 0.0, xs[-1])
        peak = np.max(np.abs(table[1]))
        fewest, deg = math.inf, 0
        if isinstance(self.phi, PiecewisePoly):  # knot fractions within 1e-12 are one cut end
            cuts = np.unique(np.concatenate([[0.0, 1.0], self.phi.breakpoints % 1.0]))
            cuts = cuts[np.concatenate([[True], np.diff(cuts) > 1e-12])]
            fewest, deg = int(np.diff(np.ceil(cuts * 2**L)).min()), self.phi.coeffs.shape[-1] - 1
        for j in range(MAX_DEGREE + 1):
            if fewest <= (d := max(deg, j)):
                raise PreconditionError(f"a cut of [0, 1) holds {fewest} level-{L} points, too few for degree {d}")
            coeff = _coefficients(self, Monomial(j), 0, 0.0, ks)
            residual = _synthesis(table, 0, xs.size, 1, int(ks[0]), coeff) - xs**j
            if not _negligible(np.max(np.abs(residual)), np.abs(coeff).sum() * peak + 1.0):
                return j
        return MAX_DEGREE + 1

    def swapped(self) -> "QuasiProjectionPair":
        """The dual-role pair: primal and dual functions exchanged; a pair
        whose members are one function is its own swap."""
        if self.phi is self.phi_tilde:
            return self
        return QuasiProjectionPair(self.phi_tilde, self.phi)

    def shifted(self, c: float) -> "QuasiProjectionPair":
        """Pair (phi(.+c), phi_tilde(.+c)); only for piecewise-poly members."""
        if not (isinstance(self.phi, PiecewisePoly) and isinstance(self.phi_tilde, PiecewisePoly)):
            raise PreconditionError("shifted pairs need piecewise-polynomial members")
        return QuasiProjectionPair(self.phi.shift(-c), self.phi_tilde.shift(-c))

    def to_json_dict(self) -> dict:
        return {
            "phi": function_to_json_dict(self.phi),
            "phi_tilde": function_to_json_dict(self.phi_tilde),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "QuasiProjectionPair":
        return cls(
            function_from_json_dict(d["phi"]),
            function_from_json_dict(d["phi_tilde"]),
        )


def _signal_values(f, xs: np.ndarray) -> np.ndarray:
    """Scalar signal values on xs, shape (n,): function handles are evaluated,
    plain callables called; a callable's complex values must be real."""
    if not hasattr(f, "evaluate"):
        vals = np.asarray(f(xs))
        if np.iscomplexobj(vals) and not _is_real(vals):
            raise PreconditionError("signal values are genuinely complex; real signals expected")
        # a copy: the strided view of the real parts would sum in another order below
        return np.ascontiguousarray(np.real(vals), dtype=np.float64)
    vals = np.asarray(f.evaluate(xs))
    if vals.ndim == 2:
        if vals.shape[1] != 1:
            raise DimensionMismatchError("signals must be scalar (one component)")
        vals = vals[:, 0]
    return vals


def _coefficients(pair: QuasiProjectionPair, f, n: int, t: float, ks: np.ndarray) -> np.ndarray:
    """Rows <f, 2^n phi_tilde(2^n . - k + t)> for each k; shape (len(ks), r)."""
    pt = pair.phi_tilde
    if isinstance(f, Sgn):
        return _sgn_coefficients(pt, (2.0**n) * f.x0 + t - ks)
    if isinstance(f, Monomial):
        j = f.degree
        if j < 0:
            raise PreconditionError("monomial degree must be nonnegative")
        out = np.zeros((ks.size, pair.ncomponents))
        base = ks.astype(np.float64) - t
        for i in range(j + 1):
            out += math.comb(j, i) * (base ** (j - i))[:, None] * pt.moment(i)[None, :]
        return out * 2.0 ** (-n * j)
    return _dual_pairings(f, pt, n, t, ks)


def _sgn_coefficients(pt: FunctionHandle, s: np.ndarray) -> np.ndarray:
    """Rows ``mass - 2 F(s_i)`` (``F`` the cumulative integral of ``pt``): the
    sgn coefficients at ``s = 2^n x0 + t - k``; one ``cumulative`` call."""
    mass = pt.moment(0)
    tails_right = mass[None, :] - pt.cumulative(s)
    return 2.0 * tails_right - mass[None, :]


def _dual_pairings(
    f, pt: FunctionHandle, n: int, t: float, ks: np.ndarray, level: int | None = None
) -> np.ndarray:
    """Rows <f, 2^n pt(2^n . - k + t)> for a general scalar signal f.

    Exact when f and pt are both piecewise polynomials; otherwise Simpson
    quadrature over the support of pt in the substituted variable, on its
    ``_support_samples`` at ``level`` (default: the level pt carries, else 12).
    """
    out = np.zeros((ks.size, pt.ncomponents))
    if isinstance(f, PiecewisePoly) and isinstance(pt, PiecewisePoly):
        if f.ncomponents != 1:
            raise DimensionMismatchError("signals must be scalar (one component)")
        for i, k in enumerate(ks):
            g = pt.compose_affine(2.0**n, t - k)
            out[i] = (2.0**n) * inner_product(f, g)[0]
        return out
    level = _grid_level(pt) if level is None else level
    if isinstance(pt, PiecewisePoly):
        # piece-aligned panels: no panel straddles a breakpoint of the dual,
        # so smooth signals keep the full Simpson order
        us, wvals = piecewise_quadrature(pt, level)
        for i, k in enumerate(ks):
            out[i] = _signal_values(f, (us + k - t) * 2.0**-n) @ wvals
        return out
    i0, tvals = _support_samples(pt, level)
    us = np.arange(i0, i0 + len(tvals)) * 2.0**-level
    for i, k in enumerate(ks):
        fv = _signal_values(f, (us + k - t) * 2.0**-n)
        out[i] = simpson_sum(fv[:, None] * tvals, 2.0**-level)
    return out


def _meeting_ks(phi: FunctionHandle, lo: float, hi: float) -> np.ndarray:
    """Every integer ``k`` whose translate ``phi(. - k)`` meets ``[lo, hi]``:
    ``floor(lo - sup) .. ceil(hi - inf)`` over the support of ``phi``."""
    plo, phi_hi = phi.support
    return np.arange(math.floor(lo - phi_hi), math.ceil(hi - plo) + 1)


def apply(
    pair: QuasiProjectionPair,
    f,
    n: int = 0,
    t: float = 0.0,
    grid: GridSpec | None = None,
) -> SampledFunction:
    """Samples of [Q_{n,t} f] on the grid; the k-sum is support-exact.

    The default window is ``x0 -+ R 2^-n`` for ``Sgn(x0)`` and ``-+R``
    otherwise, ``R`` the pair's ``window_radius`` (its supports fix it), whatever ``t``.
    For ``Sgn`` inputs the grid window must contain the full interaction zone
    [x0 - (2N+1) 2^-n, x0 + (2N+1) 2^-n]; outside it the output provably
    equals the sign itself, and overshoot scans rely on seeing all of it.

    With ``t = s 2^-level + delta`` (``s`` an integer, ``0 <= delta <
    2^-level``) each ``2^n x + t - k`` is ``(2^n (i0 + i) + s - k 2^level)
    2^-level + delta``, so one :func:`_synthesis` call sums the phi table at
    phase ``delta``: cached for on-grid shifts, built afresh for others such
    as 1/3, whose samples ``phi(fl(j 2^-level + delta))`` may differ in the
    last bit from ``phi(fl(fl(2^n x + t) - k))``.
    """
    if not 0 <= n < math.inf or n != int(n):
        raise PreconditionError(f"level n must be a nonnegative integer, got {n}")
    n = int(n)
    if not math.isfinite(t) or (isinstance(f, Sgn) and not math.isfinite(f.x0)):
        raise PreconditionError(f"shift t and jump x0 must be finite, got t={t!r}, f={f!r}")
    grid = grid or GridSpec()
    N, R = pair.support_bound, pair.window_radius
    if isinstance(f, Sgn):
        margin = R * 2.0**-n
        lo_default, hi_default = f.x0 - margin, f.x0 + margin
    else:
        lo_default, hi_default = -R, R
    lo, hi = grid.window(lo_default, hi_default)
    limit = 2.0 ** (53 - grid.level)
    # before any window arithmetic, which a huge t or a window end with an infinite grid index overflows
    if abs(t) >= limit or not math.isfinite(max(-lo, hi) * 2.0**grid.level):
        raise PreconditionError(f"window reaches 2^{53 - grid.level}, beyond exact grid points")
    i0, i1 = dyadic_bounds(lo, hi, grid.level)
    h = 2.0**-grid.level
    if isinstance(f, Sgn):
        zone = (2 * N + 1) * 2.0**-n
        if i0 * h > f.x0 - zone + 1e-12 or i1 * h < f.x0 + zone - 1e-12:
            raise PreconditionError(
                f"grid window [{i0 * h:g}, {i1 * h:g}] is smaller than the sign "
                f"interaction zone [{f.x0 - zone:g}, {f.x0 + zone:g}]"
            )

    # 2.0**n overflows from n = 1024 on, where every window reaches past the limit
    zlo, zhi = ((2.0**n) * (i0 * h) + t, (2.0**n) * (i1 * h) + t) if n < 1024 else (-math.inf, math.inf)
    if max(-zlo, zhi) >= limit:
        raise PreconditionError(f"window reaches 2^{53 - grid.level}, beyond exact grid points")
    ks = _meeting_ks(pair.phi, zlo, zhi)
    coeff = _coefficients(pair, f, n, t, ks)
    s = math.floor(t * 2.0**grid.level)
    delta = t - s * h  # exact: the bits of t below 2^-level
    acc = _synthesis(pair.phi_table(grid.level, delta), 2**n * i0 + s, i1 - i0 + 1, 2**n, int(ks[0]), coeff)
    return SampledFunction(grid.level, i0, acc[:, None])


def check_qp1(pair: QuasiProjectionPair) -> dict:
    """Verify the two conditions equivalent to Q1 = 1, each to within 1e-9.

    The zero-frequency condition conj(phi_tilde_hat(0))^T phi_hat(0) = 1 is
    checked exactly from moments; the remaining frequencies are checked in the
    time domain as constancy of sum_k conj(phi_tilde_hat(0))^T phi(x-k) over
    one period, summed from the pair's level-10 phi table.  The pair computes
    both residuals once and keeps them.
    """
    norm_residual, const_residual = pair._qp1_residuals
    tol = 1e-9
    return {
        "ok": bool(norm_residual <= tol and const_residual <= tol),
        "residuals": {"normalization": norm_residual, "constancy": const_residual},
    }


def kernel_criterion(pair: QuasiProjectionPair, level: int) -> dict:
    """Half-line kernel test for absence of overshoot at the origin.

    G(x) = integral_0^inf K(x, y) dy = sum_k conj(T(-k))^T phi(x-k) with T the
    right-tail integral of phi_tilde.  No overshoot at 0 iff G <= 1 for x > 0
    and G >= 0 for x < 0.  G is read on [-(2N + 1), 2N + 1] with N the pair's
    support bound: beyond that window G is exactly 1 (x > 0) or 0 (x < 0).
    "ok" allows each a violation of 1e-9.  Refuses a ``level`` outside
    ``1..MAX_LEVEL``.
    """
    check_level(level)
    W = 2.0 * pair.support_bound + 1.0
    i0, xs = dyadic_grid(-W, W, level)
    mass = pair.phi_tilde.moment(0)
    ks = _meeting_ks(pair.phi, xs[0], xs[-1])
    tails = mass[None, :] - pair.phi_tilde.cumulative(-ks.astype(np.float64))
    G = _synthesis(pair.phi_table(level), i0, xs.size, 1, int(ks[0]), tails)
    zero = -i0  # x = 0 belongs to neither side
    neg, pos = G[:zero], G[zero + 1 :]
    viol_pos = float(np.max(pos - 1.0))
    viol_neg = float(np.max(-neg))
    idx = zero + 1 + int(np.argmax(pos - 1.0)) if viol_pos >= viol_neg else int(np.argmax(-neg))
    return {
        "ok": bool(max(viol_pos, viol_neg) <= 1e-9),
        "worst_x": float(xs[idx]),
        "worst_value": float(G[idx]),
    }


def poly_reproduction(pair: QuasiProjectionPair, m: int, grid: GridSpec | None = None) -> dict:
    """Sup-norm residuals of Q x^j - x^j on the grid window, for j < m: the
    grid reference that the tests hold :func:`accuracy_order` against."""
    if m < 1:
        raise PreconditionError("m must be a positive integer")
    grid = grid or GridSpec()
    sfs = {j: apply(pair, Monomial(j), 0, 0.0, grid) for j in range(m)}
    return {j: float(np.max(np.abs(sf.values[:, 0] - sf.xs() ** j))) for j, sf in sfs.items()}


def accuracy_order(pair: QuasiProjectionPair, m_max: int = 6) -> int:
    """Largest m <= m_max such that Q reproduces every polynomial of degree < m.

    It is ``min(pair._order, m_max)``: the pair reads ``Q x^j - x^j`` on one
    period once, degrees rising, and keeps the first that does not vanish (see
    :attr:`QuasiProjectionPair._order`, exact for a piecewise or refinable
    phi), whatever ``m_max`` asks.  An ``m_max`` above an order past
    ``MAX_DEGREE`` is refused, as phitilde has no moment of that degree.
    """
    if m_max < 1:
        raise PreconditionError("m must be a positive integer")
    if m_max > pair._order > MAX_DEGREE:
        raise PreconditionError(f"the order is at least {MAX_DEGREE + 1}; m_max {m_max} asks past the moments")
    return min(pair._order, m_max)


def approximation_rate(
    pair: QuasiProjectionPair,
    f,
    n_range,
    level: int = 12,
) -> float:
    """Empirical L2 decay exponent: fit of -log2 ||Q_n f - f|| on [-4, 4]
    against n.

    Fewer than two distinct levels ``n`` leave no line to fit, and an L2 error
    at rounding level (<= 1e-12, as when Q reproduces f) has no decay to fit;
    both are refused.
    """
    ns = list(n_range)
    if len(set(ns)) < 2:
        raise PreconditionError(f"a rate needs at least two distinct levels n, got {ns!r}")
    grid = GridSpec(level, -4.0, 4.0)
    errs = []
    for n in ns:
        sf = apply(pair, f, n, 0.0, grid)
        xs = sf.xs()
        diff = sf.values[:, 0] - _signal_values(f, xs)
        err = math.sqrt(simpson_sum(np.abs(diff)[:, None] ** 2, 2.0**-level)[0])
        if err <= 1e-12:
            raise PreconditionError(f"L2 error {err:.3g} at n = {n} is at rounding level: no rate to fit")
        errs.append(err)
    slope = np.polyfit(ns, np.log2(errs), 1)[0]
    return float(-slope)
