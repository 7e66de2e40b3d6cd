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

import numpy as np

from .errors import DimensionMismatchError, PreconditionError
from .funcmodel import (
    FunctionHandle,
    PiecewisePoly,
    SampledFunction,
    _is_real,
    _support_samples,
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
    "kernel_K",
    "kernel_criterion",
    "poly_reproduction",
    "accuracy_order",
    "approximation_rate",
]

@dataclass(frozen=True)
class Sgn:
    """Built-in signal sgn(x - x0)."""

    x0: float = 0.0


@dataclass(frozen=True)
class Monomial:
    """Built-in signal x^degree."""

    degree: int = 0


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
        if lo >= hi:
            raise PreconditionError(f"empty grid window [{lo}, {hi}]")
        return lo, hi

    def resolve(self, lo_default: float, hi_default: float) -> tuple[int, np.ndarray]:
        return dyadic_grid(*self.window(lo_default, hi_default), self.level)


class QuasiProjectionPair:
    """Immutable primal/dual pair with cached moments, cached phi tables and
    support bookkeeping.

    ``support_bound`` is the smallest integer N with both supports inside
    [-N, N]; the operator applied to a jump signal differs from the signal
    only inside [x0 - (2N+1) 2^-n, x0 + (2N+1) 2^-n].
    """

    def __init__(self, phi: FunctionHandle, phi_tilde: FunctionHandle):
        if phi.ncomponents != phi_tilde.ncomponents:
            raise DimensionMismatchError(
                f"component mismatch: phi has {phi.ncomponents}, phi_tilde has {phi_tilde.ncomponents}"
            )
        self.phi = phi
        self.phi_tilde = phi_tilde
        radius = max(abs(v) for f in (phi, phi_tilde) for v in f.support)
        self.support_bound = max(1, int(math.ceil(radius - 1e-12)))
        self._moments = {}
        self._tables = {}

    @property
    def ncomponents(self) -> int:
        return self.phi.ncomponents

    def moment(self, side: str, j: int) -> np.ndarray:
        """Cached j-th moment of phi (side='phi') or phi_tilde (side='tilde')."""
        key = (side, j)
        if key not in self._moments:
            f = self.phi if side == "phi" else self.phi_tilde
            m = f.moment(j)
            if not _is_real(m):
                raise PreconditionError(f"moment {j} of {side} is genuinely complex; real pairs expected")
            self._moments[key] = np.asarray(np.real(m), dtype=np.float64)
        return self._moments[key]

    def phi_table(self, level: int, phase: float = 0.0) -> tuple[int, np.ndarray]:
        """The :func:`_sample_table` of phi; cached per level at phase 0 only."""
        if phase:
            return _sample_table(self.phi, level, phase)
        if level not in self._tables:
            self._tables[level] = _sample_table(self.phi, level)
        return self._tables[level]

    def fhat0(self, side: str, j: int) -> np.ndarray:
        """fhat^(j)(0) of the chosen side, from the cached moments."""
        return (-1j) ** j * self.moment(side, j).astype(np.complex128)

    def swapped(self) -> "QuasiProjectionPair":
        """The dual-role pair: primal and dual functions exchanged."""
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
        s = (2.0**n) * f.x0 + t - ks
        mass = pair.moment("tilde", 0)
        tails_right = mass[None, :] - pt.cumulative(s)
        return 2.0 * tails_right - mass[None, :]
    if isinstance(f, Monomial):
        j = f.degree
        if j < 0:
            raise PreconditionError("monomial degree must be nonnegative")
        out = np.zeros((ks.size, pair.ncomponents))
        base = ks.astype(np.float64) - t
        for i in range(j + 1):
            out += math.comb(j, i) * (base ** (j - i))[:, None] * pair.moment("tilde", i)[None, :]
        return out * 2.0 ** (-n * j)
    return _dual_pairings(f, pt, n, t, ks)


def _dual_pairings(
    f, pt: FunctionHandle, n: int, t: float, ks: np.ndarray, level: int | None = None
) -> np.ndarray:
    """Rows <f, 2^n pt(2^n . - k + t)> for a general scalar signal f.

    Exact when f and pt are both piecewise polynomials; otherwise Simpson
    quadrature over the support of pt in the substituted variable, on the
    dyadic grid at ``level`` (default: the level pt carries, else 12).
    """
    out = np.zeros((ks.size, pt.ncomponents))
    if isinstance(f, PiecewisePoly) and isinstance(pt, PiecewisePoly):
        if f.ncomponents != 1:
            raise DimensionMismatchError("signals must be scalar (one component)")
        for i, k in enumerate(ks):
            g = pt.compose_affine(2.0**n, t - k)
            out[i] = (2.0**n) * inner_product(f, g)[0]
        return out
    level = getattr(pt, "level", 12) if level is None else level
    if isinstance(pt, PiecewisePoly):
        # piece-aligned panels: no panel straddles a breakpoint of the dual,
        # so smooth signals keep the full Simpson order
        us, wvals = piecewise_quadrature(pt, level)
        for i, k in enumerate(ks):
            out[i] = _signal_values(f, (us + k - t) * 2.0**-n) @ wvals
        return out
    _, us = dyadic_grid(*pt.support, level)
    tvals = pt.evaluate(us)
    for i, k in enumerate(ks):
        fv = _signal_values(f, (us + k - t) * 2.0**-n)
        out[i] = simpson_sum(fv[:, None] * tvals, 2.0**-level, axis=0)
    return out


def _sample_table(f: FunctionHandle, level: int, phase: float = 0.0) -> tuple[int, np.ndarray]:
    """``f`` on the ``2^-level`` grid over its support, shifted by ``0 <= phase
    < 2^-level``, one row per unit step: ``(m0, P)`` with ``P[a, j] = f((m0 + a
    2^level + j) 2^-level + phase)``, shape ``(rows, 2^level, r)``, zero past
    the support; from one ``funcmodel._support_samples`` call."""
    m0, vals = _support_samples(f, level, phase)
    width = 2**level
    table = np.zeros((-(-len(vals) // width) * width, f.ncomponents))
    table[: len(vals)] = vals
    table = table.reshape(-1, width, f.ncomponents)
    table.flags.writeable = False
    return m0, table


def _synthesis(
    table: tuple[int, np.ndarray], g0: int, count: int, stride: int, klo: int, coeff: np.ndarray
) -> np.ndarray:
    """``sum_k coeff[k - klo] . f(g_i 2^-level - k)`` at ``g_i = g0 + stride i``,
    ``i < count``, from the :func:`_sample_table` ``(m0, P)`` of ``f`` at
    ``level`` (polyphase; at phase ``delta``, ``f(g_i 2^-level + delta - k)``),
    with real ``coeff`` of shape ``(len, r)``.  The one sum of translates at one
    scale: ``apply``, ``check_qp1``, ``kernel_criterion`` and
    ``construct.build_dual`` call it.  Two-scale sums ``sum_k a(k) f(2x - k)``
    go through ``funcmodel._tap_sum`` instead.

    With ``g - m0 = q 2^level + j`` the term ``k`` reads row ``q - k`` at column
    ``j``, so the output at ``(q, j)`` is ``sum_a coeff(q - a) . P[a, j]``: one
    einsum over every distinct window ``coeff(q - a)``, which adds each row's
    component sum from +0 with ``a`` descending (``k`` ascending); terms on zero
    samples add +-0, which moves no bit.  einsum, not np.dot: BLAS may add the
    terms in another order and move the last bit.  Coefficients outside ``klo
    .. klo + len(coeff) - 1`` repeat the nearest one, so a caller passes every
    ``k`` whose translate meets a point, or one row for a constant sequence;
    the equal windows this makes are adjacent runs, each summed once.
    """
    m0, P = table
    rows, width = P.shape[:2]
    q0, j0 = divmod(g0 - m0, width)
    phase = j0 % stride
    cols = P[:, phase::stride]  # a stride beyond 2^level keeps one column ...
    skip = (j0 - phase) // stride
    nq = -(-(skip + count) // cols.shape[1])
    qs = q0 + max(1, stride // width) * np.arange(nq)  # ... of every (stride / 2^level)-th row
    idx = qs[:, None] - klo + np.arange(1 - rows, 1)
    windows = np.take(coeff, idx, axis=0, mode="clip")  # (nq, rows, r), k ascending
    # the first window of each run of equal ones, by bits (0.0 and -0.0 differ)
    bits = windows.reshape(nq, -1).view(np.int64)
    first = np.ones(nq, dtype=bool)
    np.any(bits[1:] != bits[:-1], axis=1, out=first[1:])
    out = np.einsum("uar,ajr->uj", windows[first], cols[::-1])
    return out[np.cumsum(first) - 1].reshape(-1)[skip : skip + count]


def apply(
    pair: QuasiProjectionPair,
    f,
    n: int = 0,
    t: float = 0.0,
    grid: GridSpec | None = None,
) -> SampledFunction:
    """Samples of [Q_{n,t} f] on the grid; the k-sum is support-exact.

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
    if n < 0 or n != int(n):
        raise PreconditionError(f"level n must be a nonnegative integer, got {n}")
    n = int(n)
    if not math.isfinite(t) or (isinstance(f, Sgn) and not math.isfinite(f.x0)):
        raise PreconditionError(f"shift t and jump x0 must be finite, got t={t!r}, f={f!r}")
    grid = grid or GridSpec()
    N = pair.support_bound
    if isinstance(f, Sgn):
        margin = (2 * N + 3) * 2.0**-n
        lo_default, hi_default = f.x0 - margin, f.x0 + margin
    else:
        lo_default, hi_default = -(2 * N + 3), 2 * N + 3
    lo, hi = grid.window(lo_default, hi_default)
    i0, i1 = dyadic_bounds(lo, hi, grid.level)
    h = 2.0**-grid.level
    if isinstance(f, Sgn):
        zone = (2 * N + 1) * 2.0**-n
        if i0 * h > f.x0 - zone + 1e-12 or i1 * h < f.x0 + zone - 1e-12:
            raise PreconditionError(
                f"grid window [{i0 * h:g}, {i1 * h:g}] is smaller than the sign "
                f"interaction zone [{f.x0 - zone:g}, {f.x0 + zone:g}]"
            )

    zlo, zhi = (2.0**n) * (i0 * h) + t, (2.0**n) * (i1 * h) + t
    if max(-zlo, zhi, abs(t)) >= 2.0 ** (53 - grid.level):
        raise PreconditionError(f"window reaches 2^{53 - grid.level}, beyond exact grid points")
    plo, phi_hi = pair.phi.support
    klo = int(math.floor(zlo - phi_hi))
    khi = int(math.ceil(zhi - plo))
    coeff = _coefficients(pair, f, n, t, np.arange(klo, khi + 1))
    s = math.floor(t * 2.0**grid.level)
    delta = t - s * h  # exact: the bits of t below 2^-level
    acc = _synthesis(pair.phi_table(grid.level, delta), 2**n * i0 + s, i1 - i0 + 1, 2**n, klo, coeff)
    return SampledFunction(grid.level, i0, acc[:, None])


def check_qp1(pair: QuasiProjectionPair, level: int = 10, tol: float = 1e-9) -> dict:
    """Verify the two conditions equivalent to Q1 = 1.

    The zero-frequency condition conj(phi_tilde_hat(0))^T phi_hat(0) = 1 is
    checked exactly from moments; the remaining frequencies are checked in the
    time domain as constancy of sum_k conj(phi_tilde_hat(0))^T phi(x-k) over
    one period, summed from the pair's phi table.
    """
    mass = pair.moment("tilde", 0)
    norm_residual = abs(mass @ pair.moment("phi", 0) - 1.0)
    acc = _synthesis(pair.phi_table(level), 0, 2**level, 1, 0, mass[None, :])
    const_residual = float(np.max(np.abs(acc - 1.0)))
    return {
        "ok": bool(norm_residual <= tol and const_residual <= tol),
        "residuals": {"normalization": float(norm_residual), "constancy": const_residual},
    }


def kernel_K(pair: QuasiProjectionPair, x: float, y: float) -> complex:
    """K(x, y) = sum_k conj(phi_tilde(y-k))^T phi(x-k)."""
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


def kernel_criterion(
    pair: QuasiProjectionPair,
    window: float | None = None,
    level: int = 12,
    tol: float = 1e-9,
) -> dict:
    """Half-line kernel test for absence of overshoot at the origin.

    G(x) = integral_0^inf K(x, y) dy = sum_k conj(T(-k))^T phi(x-k) with T the
    right-tail integral of phi_tilde.  No overshoot at 0 iff G <= 1 for x > 0
    and G >= 0 for x < 0 (the identities are exact beyond the window).
    """
    N = pair.support_bound
    W = float(window) if window is not None else 2.0 * N + 1.0
    h = 2.0**-level
    npts = int(math.ceil(W / h))
    xs = np.arange(-npts, npts + 1) * h
    plo, phi_hi = pair.phi.support
    mass = pair.moment("tilde", 0)
    klo = int(math.floor(xs[0] - phi_hi))
    ks = np.arange(klo, int(math.ceil(xs[-1] - plo)) + 1)
    tails = mass[None, :] - pair.phi_tilde.cumulative(-ks.astype(np.float64))
    G = _synthesis(pair.phi_table(level), -npts, xs.size, 1, klo, tails)
    xs, G = np.delete(xs, npts), np.delete(G, npts)  # x = 0 belongs to neither side
    pos = xs > 0
    viol_pos = float(np.max(G[pos] - 1.0))
    viol_neg = float(np.max(-G[~pos]))
    if viol_pos >= viol_neg:
        idx = int(np.argmax(G[pos] - 1.0))
        worst_x, worst_value = float(xs[pos][idx]), float(G[pos][idx])
    else:
        idx = int(np.argmax(-G[~pos]))
        worst_x, worst_value = float(xs[~pos][idx]), float(G[~pos][idx])
    return {
        "ok": bool(max(viol_pos, viol_neg) <= tol),
        "worst_x": worst_x,
        "worst_value": worst_value,
    }


def poly_reproduction(pair: QuasiProjectionPair, m: int, grid: GridSpec | None = None) -> dict:
    """Sup-norm residuals of Q x^j - x^j on the grid window, for j < m."""
    if m < 1:
        raise PreconditionError("m must be a positive integer")
    grid = grid or GridSpec()
    out = {}
    for j in range(m):
        sf = apply(pair, Monomial(j), 0, 0.0, grid)
        xs = sf.xs()
        out[j] = float(np.max(np.abs(sf.values[:, 0] - xs**j)))
    return out


def accuracy_order(
    pair: QuasiProjectionPair,
    m_max: int = 6,
    tol: float = 1e-8,
    grid: GridSpec | None = None,
) -> int:
    """Largest m <= m_max with every degree-(< m) reproduction residual < tol."""
    residuals = poly_reproduction(pair, m_max, grid)
    order = 0
    for j in range(m_max):
        if residuals[j] < tol:
            order = j + 1
        else:
            break
    return order


def approximation_rate(
    pair: QuasiProjectionPair,
    f,
    n_range=range(2, 8),
    level: int = 12,
    window: tuple[float, float] = (-4.0, 4.0),
) -> float:
    """Empirical L2 decay exponent: fit of -log2 ||Q_n f - f|| against n."""
    lo, hi = window
    grid = GridSpec(level, lo, hi)
    errs = []
    ns = list(n_range)
    for n in ns:
        sf = apply(pair, f, n, 0.0, grid)
        xs = sf.xs()
        diff = sf.values[:, 0] - _signal_values(f, xs)
        err2 = simpson_sum(np.abs(diff)[:, None] ** 2, 2.0**-level, axis=0)[0]
        errs.append(math.sqrt(max(err2, 1e-300)))
    slope = np.polyfit(ns, np.log2(errs), 1)[0]
    return float(-slope)
