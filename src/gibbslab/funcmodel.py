"""Models of compactly supported functions on the real line.

Three representations share one informal interface (``support``,
``ncomponents``, ``evaluate``, ``moment``, ``cumulative``):

- :class:`PiecewisePoly` — exact piecewise polynomials (B-splines, constructed
  duals, wavelets built from them).  All integrals, moments, products and
  Fourier values are closed-form.
- :class:`RefinableFunction` — the solution of a two-scale relation
  ``phi = 2 sum_k a(k) phi(2x - k)``, sampled exactly at dyadic points: values
  at the integers from an eigenvector problem, then one dyadic refinement per
  level.  Moments and cumulative integrals are computed exactly from the mask
  (recursions derived from the two-scale relation), not by quadrature; the
  cumulative integral shares the refinement kernel with the samples.
- :class:`SampledFunction` — raw values on a dyadic grid ``2^-L Z`` with
  quadrature-based integrals (composite Simpson; documented error O(4^-L) for
  integrands with bounded second derivatives between grid points).

Vector-valued functions (r components) are supported throughout; evaluation
returns arrays of shape ``(npoints, r)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, comb, factorial, floor
from typing import Union

import numpy as np

from .errors import ConvergenceError, DimensionMismatchError, PreconditionError
from .sequences import MatrixSeq, fourier_deriv

__all__ = [
    "PiecewisePoly",
    "SampledFunction",
    "RefinableFunction",
    "FunctionHandle",
    "bspline",
    "cascade",
    "refinement_residual",
    "check_level",
    "dyadic_bounds",
    "dyadic_grid",
    "fhat_deriv0",
    "halfline_integral",
    "inner_product",
    "piecewise_quadrature",
    "simpson_sum",
    "function_from_json_dict",
    "function_to_json_dict",
]

MAX_DEGREE = 8
MAX_LEVEL = 16


# ---------------------------------------------------------------------------
# small polynomial helpers (ascending coefficient arrays)
# ---------------------------------------------------------------------------


def _polyval_asc(c: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Evaluate sum_k c[..., k] u^k by Horner; broadcasts c over leading axes."""
    out = np.zeros(c.shape[:-1] + u.shape, dtype=np.result_type(c, u))
    for k in range(c.shape[-1] - 1, -1, -1):
        out = out * u + c[..., k, None]
    return out


def _polyval_pieces(c: np.ndarray, piece: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_k c[piece[i], :, k] u[i]^k for each point i, in one Horner pass over
    the gathered coefficients; shape (len(u), r)."""
    acc = np.zeros((u.size, c.shape[1]))
    for k in range(c.shape[-1] - 1, -1, -1):
        acc = acc * u[:, None] + c[piece, :, k]
    return acc


def _polyint_asc(c: np.ndarray) -> np.ndarray:
    """Antiderivative with zero constant term."""
    k = np.arange(1, c.shape[-1] + 1, dtype=np.float64)
    out = np.zeros(c.shape[:-1] + (c.shape[-1] + 1,), dtype=c.dtype)
    out[..., 1:] = c / k
    return out


def _polyshift_asc(c: np.ndarray, delta: float) -> np.ndarray:
    """Coefficients of p(u + delta) given those of p(u) (last axis ascending)."""
    n = c.shape[-1]
    out = np.zeros_like(c)
    for j in range(n):
        acc = np.zeros(c.shape[:-1], dtype=c.dtype)
        for k in range(j, n):
            acc = acc + c[..., k] * (comb(k, j) * delta ** (k - j))
        out[..., j] = acc
    return out


def _binom_power_asc(base: float, j: int) -> np.ndarray:
    """Ascending coefficients of (u + base)^j."""
    return np.array([comb(j, i) * base ** (j - i) for i in range(j + 1)], dtype=np.float64)


# ---------------------------------------------------------------------------
# quadrature on uniform grids
# ---------------------------------------------------------------------------


def _simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights for n uniformly spaced points.

    Falls back to the 3/8 rule on the trailing three intervals when the
    interval count is odd (and to the trapezoid rule for a single interval).
    """
    if n < 2:
        return np.zeros(n)
    m = n - 1
    w = np.zeros(n)
    if m == 1:
        w[:] = h / 2
        return w
    if m % 2 == 0:
        w[0] = w[-1] = h / 3
        w[1:-1:2] = 4 * h / 3
        w[2:-1:2] = 2 * h / 3
        return w
    if m == 3:
        return np.array([3, 9, 9, 3], dtype=np.float64) * h / 8
    w[: n - 3] += _simpson_weights(n - 3, h)
    w[n - 4 :] += np.array([3, 9, 9, 3]) * h / 8
    return w


def simpson_sum(y: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """Composite-Simpson integral of uniformly spaced samples along ``axis``."""
    y = np.asarray(y)
    w = _simpson_weights(y.shape[axis], h)
    shape = [1] * y.ndim
    shape[axis] = -1
    return np.sum(y * w.reshape(shape), axis=axis)


# ---------------------------------------------------------------------------
# dyadic grids
# ---------------------------------------------------------------------------


def check_level(level: int) -> None:
    """Reject a dyadic level outside ``1..MAX_LEVEL``."""
    if not 1 <= level <= MAX_LEVEL:
        raise PreconditionError(f"grid level must satisfy 1 <= level <= {MAX_LEVEL}, got {level}")


def dyadic_bounds(lo: float, hi: float, level: int, pad: int = 0) -> tuple[int, int]:
    """First and last index ``i0, i1`` of the points ``i 2^-level`` covering
    ``[lo, hi]``, extended by ``pad`` points at each end."""
    h = 2.0**-level
    return floor(lo / h) - pad, ceil(hi / h) + pad


def dyadic_grid(lo: float, hi: float, level: int, pad: int = 0) -> tuple[int, np.ndarray]:
    """The points of :func:`dyadic_bounds`; returns the first index ``i0`` and
    the points."""
    i0, i1 = dyadic_bounds(lo, hi, level, pad)
    return i0, np.arange(i0, i1 + 1) * 2.0**-level


# ---------------------------------------------------------------------------
# exact piecewise polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PiecewisePoly:
    """Exact piecewise polynomial, zero outside ``[breakpoints[0], breakpoints[-1]]``.

    ``coeffs[i, c, k]`` is the coefficient of ``(x - breakpoints[i])^k`` for
    component ``c`` on the half-open interval ``[breakpoints[i],
    breakpoints[i+1])``.  Pointwise evaluation uses that half-open convention;
    integrals do not depend on it.
    """

    breakpoints: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=np.float64)
        cf = np.asarray(self.coeffs, dtype=np.float64)
        if cf.ndim == 2:  # scalar components given as (m, deg+1)
            cf = cf[:, None, :]
        if bp.ndim != 1 or cf.ndim != 3 or cf.shape[0] != bp.size - 1:
            raise DimensionMismatchError(
                f"need breakpoints (m+1,) and coeffs (m, r, deg+1); got {bp.shape}, {cf.shape}"
            )
        if bp.size < 2 or np.any(np.diff(bp) <= 0):
            raise PreconditionError("breakpoints must be strictly increasing with >= 1 interval")
        # canonical form: drop trailing zero coefficient columns and zero end pieces
        while cf.shape[-1] > 1 and not np.any(cf[..., -1]):
            cf = cf[..., :-1]
        if cf.shape[-1] - 1 > MAX_DEGREE:
            raise PreconditionError(
                f"polynomial degree {cf.shape[-1] - 1} exceeds supported maximum {MAX_DEGREE}"
            )
        nz = [i for i in range(cf.shape[0]) if np.any(cf[i])]
        if nz and (nz[0] > 0 or nz[-1] < cf.shape[0] - 1):
            bp = bp[nz[0] : nz[-1] + 2]
            cf = cf[nz[0] : nz[-1] + 1]
        bp = np.ascontiguousarray(bp)
        cf = np.ascontiguousarray(cf)
        bp.flags.writeable = False
        cf.flags.writeable = False
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "coeffs", cf)

    # -- structure ---------------------------------------------------------

    @property
    def ncomponents(self) -> int:
        return self.coeffs.shape[1]

    @property
    def degree(self) -> int:
        return self.coeffs.shape[2] - 1

    @property
    def support(self) -> tuple[float, float]:
        return (float(self.breakpoints[0]), float(self.breakpoints[-1]))

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, x) -> np.ndarray:
        """Values at ``x``, shape ``(n, r)``; ``(r,)`` for a scalar ``x``.

        Pieces are half-open, so a breakpoint takes the value of the piece it
        starts, and the value is 0 below ``breakpoints[0]``, from
        ``breakpoints[-1]`` on, at ±inf and at NaN.  Ascending ``x`` is the fast
        case: it is cut into one contiguous run per piece, and each run is
        summed by Horner with that piece's coefficient row, in the operation
        order of :func:`_polyval_pieces`.  Any other ``x`` is sorted first
        (stable) and its values are put back in place.
        """
        x = np.asarray(x, dtype=np.float64)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        if np.all(x[1:] >= x[:-1]):
            out = self._evaluate_ascending(x)
        else:  # also any x holding NaN, which the sort moves to the end
            order = np.argsort(x, kind="stable")
            out = np.empty((x.size, self.ncomponents))
            out[order] = self._evaluate_ascending(x[order])
        return out[0] if scalar else out

    def _evaluate_ascending(self, x: np.ndarray) -> np.ndarray:
        bp = self.breakpoints
        out = np.zeros((x.size, self.ncomponents))
        cuts = np.searchsorted(x, bp, side="left")  # x[cuts[i]:cuts[i+1]] lies in piece i
        for i in np.flatnonzero(cuts[1:] > cuts[:-1]):
            run = out[cuts[i] : cuts[i + 1]]
            u = x[cuts[i] : cuts[i + 1], None] - bp[i]
            for k in range(self.coeffs.shape[-1] - 1, -1, -1):
                run *= u
                run += self.coeffs[i, :, k]
        return out

    # -- exact integrals -----------------------------------------------------

    @property
    def _antiderivative(self) -> np.ndarray:
        """Each piece's antiderivative from its left end, ``(m, r, deg+2)``, cached."""
        cache = self.__dict__.get("_anti")
        if cache is None:
            cache = self.__dict__["_anti"] = _polyint_asc(self.coeffs)
        return cache

    @property
    def _cumulative_at_breaks(self) -> np.ndarray:
        """C[i] = integral of f over (-inf, breakpoints[i]]; shape (m+1, r)."""
        cache = self.__dict__.get("_cum")
        if cache is not None:
            return cache
        anti = self._antiderivative
        widths = np.diff(self.breakpoints)
        piece = np.stack(
            [_polyval_asc(anti[i], np.array([widths[i]]))[:, 0] for i in range(len(widths))]
        )
        cum = np.vstack([np.zeros((1, self.ncomponents)), np.cumsum(piece, axis=0)])
        self.__dict__["_cum"] = cum
        return cum

    def cumulative(self, s) -> np.ndarray:
        """Integral of f over (-inf, s_i] for each s_i, exactly; shape (n, r)."""
        s = np.atleast_1d(np.asarray(s, dtype=np.float64))
        bp = self.breakpoints
        cum = self._cumulative_at_breaks
        out = np.zeros((s.size, self.ncomponents))
        idx = np.searchsorted(bp, s, side="right") - 1
        out[idx >= len(bp) - 1] = cum[-1]
        mid = (idx >= 0) & (idx < len(bp) - 1)
        if np.any(mid):
            im = idx[mid]
            out[mid] = cum[im] + _polyval_pieces(self._antiderivative, im, s[mid] - bp[im])
        return out

    def integral(self, a: float | None = None, b: float | None = None) -> np.ndarray:
        if a is None and b is None:
            return self._cumulative_at_breaks[-1].copy()
        a = self.breakpoints[0] if a is None else a
        b = self.breakpoints[-1] if b is None else b
        left, right = self.cumulative([a, b])
        return right - left

    def moment(self, j: int) -> np.ndarray:
        """Exact j-th moment ``integral x^j f(x) dx`` per component."""
        if not 0 <= j <= MAX_DEGREE:
            raise PreconditionError(f"moment order must satisfy 0 <= j <= {MAX_DEGREE}, got {j}")
        return self.moment_on(j, self.breakpoints[0], self.breakpoints[-1])

    def moment_on(self, j: int, a: float, b: float) -> np.ndarray:
        """Exact partial moment ``integral_a^b x^j f(x) dx``."""
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
            w = _binom_power_asc(float(bp[i]), j)  # (u + x_i)^j in u
            for c in range(self.ncomponents):
                prod = np.convolve(self.coeffs[i, c], w)
                anti = _polyint_asc(prod)
                vals = _polyval_asc(anti, np.array([lo - bp[i], hi - bp[i]]))
                out[c] += vals[1] - vals[0]
        return out

    # -- transforms of the argument -------------------------------------------

    def shift(self, s: float) -> "PiecewisePoly":
        """f(x - s)."""
        return PiecewisePoly(self.breakpoints + s, self.coeffs)

    def compose_affine(self, a: float, b: float) -> "PiecewisePoly":
        """g(x) = f(a x + b) with a > 0 (e.g. dyadic dilates f(2^n x - k))."""
        if a <= 0:
            raise PreconditionError("affine composition requires a positive dilation factor")
        bp = (self.breakpoints - b) / a
        scale = a ** np.arange(self.coeffs.shape[-1], dtype=np.float64)
        return PiecewisePoly(bp, self.coeffs * scale)

    def apply_matrix(self, mat: np.ndarray) -> "PiecewisePoly":
        """Componentwise linear map: (M f)(x)."""
        mat = np.atleast_2d(np.asarray(mat, dtype=np.float64))
        if mat.shape[1] != self.ncomponents:
            raise DimensionMismatchError(
                f"matrix with {mat.shape[1]} columns cannot act on {self.ncomponents} components"
            )
        return PiecewisePoly(self.breakpoints, np.einsum("ab,ibk->iak", mat, self.coeffs))

    def __mul__(self, scalar: float) -> "PiecewisePoly":
        return PiecewisePoly(self.breakpoints, float(scalar) * self.coeffs)

    __rmul__ = __mul__

    def __add__(self, other: "PiecewisePoly") -> "PiecewisePoly":
        if self.ncomponents != other.ncomponents:
            raise DimensionMismatchError("can only add piecewise polynomials with equal components")
        bp = np.unique(np.concatenate([self.breakpoints, other.breakpoints]))
        # merge near-duplicate knots introduced by float arithmetic
        keep = np.concatenate([[True], np.diff(bp) > 1e-12 * max(1.0, np.max(np.abs(bp)))])
        bp = bp[keep]
        deg = max(self.coeffs.shape[-1], other.coeffs.shape[-1])
        out = np.zeros((bp.size - 1, self.ncomponents, deg))
        for src in (self, other):
            for i in range(bp.size - 1):
                mid = (bp[i] + bp[i + 1]) / 2
                j = np.searchsorted(src.breakpoints, mid, side="right") - 1
                if 0 <= j < src.coeffs.shape[0]:
                    shifted = _polyshift_asc(src.coeffs[j], float(bp[i] - src.breakpoints[j]))
                    out[i, :, : shifted.shape[-1]] += shifted
        return PiecewisePoly(bp, out)

    @staticmethod
    def combine(terms) -> "PiecewisePoly":
        """Sum of (matrix, PiecewisePoly) pairs: sum_i M_i f_i."""
        acc = None
        for mat, f in terms:
            part = f.apply_matrix(mat)
            acc = part if acc is None else acc + part
        if acc is None:
            raise PreconditionError("combine needs at least one term")
        return acc

    # -- Fourier values --------------------------------------------------------

    def fourier(self, xi: float, deriv: int = 0) -> np.ndarray:
        """fhat(xi) (deriv=0) or [fhat]'(xi) (deriv=1), exactly per piece.

        Per interval the moments ``int_0^w u^k e^{-i u xi} du`` come from the
        integration-by-parts recurrence when ``|xi| w > 1`` and from the power
        series in ``xi`` otherwise (the recurrence amplifies roundoff like
        ``k!/(xi w)^k`` for small ``xi``, the series is benign there).
        """
        if deriv not in (0, 1):
            raise PreconditionError("only the value and first derivative are supported")
        out = np.zeros(self.ncomponents, dtype=np.complex128)
        for i in range(self.coeffs.shape[0]):
            w = float(self.breakpoints[i + 1] - self.breakpoints[i])
            base = float(self.breakpoints[i])
            coeff = self.coeffs[i].astype(np.complex128)
            if deriv == 1:  # multiply by (-i x) = (-i)(u + base)
                coeff = np.stack(
                    [np.convolve(coeff[c], np.array([-1j * base, -1j])) for c in range(coeff.shape[0])]
                )
            kmax = coeff.shape[-1] - 1
            ints = np.zeros(kmax + 1, dtype=np.complex128)
            if abs(xi) * w <= 1.0:
                js = np.arange(26)
                terms = (-1j * xi) ** js / np.array([factorial(j) for j in js])
                for k in range(kmax + 1):
                    ints[k] = np.sum(terms * w ** (k + js + 1) / (k + js + 1))
            else:
                e = np.exp(-1j * w * xi)
                ints[0] = (1 - e) / (1j * xi)
                for k in range(1, kmax + 1):
                    ints[k] = w**k * e / (-1j * xi) + k / (1j * xi) * ints[k - 1]
            out += np.exp(-1j * base * xi) * coeff @ ints
        return out

    # -- serialization -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "kind": "piecewise_poly",
            "breakpoints": self.breakpoints.tolist(),
            "coeffs": self.coeffs.tolist(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PiecewisePoly":
        return cls(np.asarray(d["breakpoints"], dtype=np.float64), np.asarray(d["coeffs"]))


# ---------------------------------------------------------------------------
# dyadic samples
# ---------------------------------------------------------------------------


def _interp_columns(x: np.ndarray, grid: np.ndarray, values: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Each column of ``values`` interpolated linearly at ``x``: 0 left of
    ``grid``, ``right[c]`` right of it; shape ``x.shape + (r,)``."""
    return np.stack(
        [np.interp(x, grid, values[:, c], left=0.0, right=right[c]) for c in range(values.shape[1])],
        axis=-1,
    )


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Values on the dyadic grid ``x = (start + i) 2^-level``; zero outside.

    Evaluation between grid points is linear interpolation.  Integrals use
    composite Simpson (moments) and cumulative trapezoid sums (half-line
    integrals).
    """

    level: int
    start: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2 or vals.shape[0] < 2:
            raise DimensionMismatchError("values must be an (n >= 2, r) array")
        vals = np.ascontiguousarray(vals)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "level", int(self.level))
        object.__setattr__(self, "start", int(self.start))

    @property
    def h(self) -> float:
        return 2.0 ** (-self.level)

    @property
    def ncomponents(self) -> int:
        return self.values.shape[1]

    @property
    def support(self) -> tuple[float, float]:
        return (self.start * self.h, (self.start + self.values.shape[0] - 1) * self.h)

    def xs(self) -> np.ndarray:
        return (self.start + np.arange(self.values.shape[0])) * self.h

    @property
    def _grid(self) -> np.ndarray:
        """The sample points, cached like ``_cumulative``."""
        cache = self.__dict__.get("_xs")
        if cache is None:
            cache = self.__dict__["_xs"] = self.xs()
        return cache

    def evaluate(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return _interp_columns(x, self._grid, self.values, np.zeros(self.ncomponents))

    def moment(self, j: int) -> np.ndarray:
        if not 0 <= j <= MAX_DEGREE:
            raise PreconditionError(f"moment order must satisfy 0 <= j <= {MAX_DEGREE}, got {j}")
        return simpson_sum(self.values * (self._grid**j)[:, None], self.h, axis=0)

    @property
    def _cumulative(self) -> np.ndarray:
        cache = self.__dict__.get("_cum")
        if cache is not None:
            return cache
        avg = 0.5 * (self.values[1:] + self.values[:-1]) * self.h
        cum = np.vstack([np.zeros((1, self.ncomponents)), np.cumsum(avg, axis=0)])
        self.__dict__["_cum"] = cum
        return cum

    def cumulative(self, s) -> np.ndarray:
        """Integral over (-inf, s_i] (trapezoid on the carried grid); shape (n, r)."""
        s = np.atleast_1d(np.asarray(s, dtype=np.float64))
        cum = self._cumulative
        return _interp_columns(s, self._grid, cum, cum[-1])

    def to_json_dict(self) -> dict:
        return {
            "kind": "sampled",
            "level": self.level,
            "start": self.start,
            "values": self.values.tolist(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SampledFunction":
        return cls(int(d["level"]), int(d["start"]), np.asarray(d["values"], dtype=np.float64))


# ---------------------------------------------------------------------------
# exact dyadic refinement and refinable functions
# ---------------------------------------------------------------------------


def _is_real(m: np.ndarray) -> bool:
    """True when the imaginary part of ``m`` is below 1e-10 of its real scale."""
    m = np.asarray(m)
    return bool(np.max(np.abs(m.imag)) < 1e-10 * max(1.0, np.max(np.abs(m.real))))


def _check_mask(mask: MatrixSeq, normalization) -> tuple[int, int, np.ndarray]:
    r, s = mask.shape
    if r != s:
        raise DimensionMismatchError(f"refinement mask must be square, got shape {mask.shape}")
    if mask.support is None:
        raise PreconditionError("refinement mask must be nonzero")
    kmin, kmax = mask.support
    if kmax - kmin < 1:
        raise PreconditionError("refinement mask must span at least two taps")
    if normalization is None:
        if r != 1:
            raise PreconditionError("vector-valued masks need an explicit normalization vector")
        norm = np.array([1.0 + 0.0j])
    else:
        norm = np.asarray(normalization, dtype=np.complex128).reshape(-1)
        if norm.size != r:
            raise DimensionMismatchError(
                f"normalization has {norm.size} entries for a {r}-component mask"
            )
    a0 = fourier_deriv(mask, 0)
    if np.max(np.abs(a0 @ norm - norm)) > 1e-10:
        raise PreconditionError(
            "normalization must be an eigenvector of the mask symbol at 0 for eigenvalue 1"
        )
    return kmin, kmax, norm


def _tap_sum(taps, vals: np.ndarray, n: int, dilate: int, s0: int, step: int, beyond=None) -> np.ndarray:
    """``out[i] = sum_k a . vals[dilate i + s0 - k step]`` for ``i < n``, one
    strided slice per ``(k, a)`` in ``taps`` (``k`` ascending), added from +0:
    the two-scale sum ``sum_k a(k) f(dilate x - k)`` over the samples ``vals``
    of ``f``, which is zero left of them and ``beyond`` (None: zero) right.
    """
    out = np.zeros((n, taps[0][1].shape[0]))
    for k, a in taps:
        s = s0 - k * step
        lo = min(max(-(s // dilate), 0), n)  # first row reading index >= 0
        hi = min(max((len(vals) - 1 - s) // dilate + 1, 0), n)  # rows from hi on read past the end
        if lo < hi:
            out[lo:hi] += np.einsum("ab,nb->na", a, vals[dilate * lo + s : dilate * hi + s : dilate])
        if beyond is not None and hi < n:
            out[hi:] += np.einsum("ab,nb->na", a, beyond[None, :])
    return out


def _refine(
    taps, kmin: int, W: int, level: int, v0: np.ndarray, gain: float, beyond: np.ndarray | None
) -> np.ndarray:
    """Samples of a solution of ``f(x) = gain sum_k a(k) f(2x - k)`` on the
    grid ``kmin + i 2^-level`` over ``[kmin, kmin + W]``, from its values
    ``v0`` (shape (W+1, r)) at the integers.

    Each level keeps the previous samples at its even points and fills its odd
    points ``x`` from ``f(2x - k)``, which lie on the previous grid; ``f`` is
    zero left of that grid and ``beyond`` (None: zero) right of it.
    """
    taps = [(k, gain * a) for k, a in taps]
    vals = v0
    for lev in range(1, level + 1):
        half = 2 ** (lev - 1)
        n = W * half  # odd points of this level; the previous grid has n + 1
        new = np.empty((2 * n + 1, vals.shape[1]))
        new[::2] = vals
        new[1::2] = _tap_sum(taps, vals, n, 2, 1 + kmin * half, half, beyond)
        vals = new
    return vals


# levels whose largest odd-point increments decide whether the cascade diverges
_GROWTH_LEVELS = (6, 10)


def _max_increment(g: np.ndarray) -> float:
    """Largest odd-point increment of the samples ``g``: the value at an odd
    point minus the mean of its two neighbours."""
    return float(np.max(np.abs(g[1::2] - 0.5 * (g[:-1:2] + g[2::2]))))


def _fixed_part(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Limit of ``M^n v``: the projection of ``v`` onto the eigenvalue-1
    eigenspace of ``M`` along its other eigenvectors.

    The projection is ``R (L^H R)^-1 L^H v`` with ``R`` and ``L`` orthonormal
    bases of the null spaces of ``M - I`` and ``(M - I)^H``, both read off one
    SVD.  Raises :class:`ConvergenceError` when the limit does not exist:
    eigenvalue 1 is absent, or it is defective (``L^H R`` is singular, so
    ``M^n`` grows along a Jordan chain), or another eigenvalue has modulus
    >= 1.  The residual is the largest modulus of the other eigenvalues, and
    at least 1.
    """
    n = M.shape[0]
    U, sv, Vh = np.linalg.svd(M - np.eye(n))
    d = int(np.sum(sv <= 1e-10 * max(1.0, sv[0])))  # zero up to rounding
    lam = np.linalg.eigvals(M)
    rest = np.abs(lam[np.argsort(np.abs(lam - 1.0))[d:]])
    worst = float(np.max(rest)) if rest.size else 0.0
    R = Vh[n - d :].conj().T
    L = U[:, n - d :]
    G = L.conj().T @ R
    # a semisimple eigenvalue 1 pairs its left and right eigenvectors: the
    # stock masks give sigma_min(G) >= 0.3, a rounded Jordan block about 1e-16
    defective = d > 0 and np.linalg.svd(G, compute_uv=False)[-1] < 1e-8
    if d == 0 or defective or worst >= 1.0 - 1e-9:
        what = (
            "no eigenvalue 1" if d == 0
            else "a defective eigenvalue 1" if defective
            else "an eigenvalue besides 1 on or outside the unit circle"
        )
        raise ConvergenceError(
            f"two-scale matrix has {what} (largest other modulus {worst:.3e}): the cascade diverges",
            residual=max(worst, 1.0),
        )
    return R @ np.linalg.solve(G, L.conj().T @ v)


def cascade(mask: MatrixSeq, normalization=None, level: int = 12) -> SampledFunction:
    """Exact samples of the two-scale solution on the grid ``2^-level Z``.

    Daubechies-Lagarias refinement: the values at the integers ``kmin..kmax``
    are the limit of the cascade there, ``M^n v0`` with ``M = (2 a(2j - k))``
    and ``v0`` carrying ``normalization`` at ``kmin``, taken as the projection
    of ``v0`` onto ``M``'s eigenvalue-1 eigenspace (so Haar keeps the
    half-open convention ``phi(0) = 1``, ``phi(1) = 0``); each finer level
    then follows from the two-scale relation.  The mask and normalization
    must be real.  Raises :class:`ConvergenceError` (carrying a residual
    >= 1) when that limit does not exist, or when the largest odd-point
    increment (value minus the mean of its neighbours) is larger at level 10
    than at level 6 (``_GROWTH_LEVELS``), so that the samples do not come
    from a bounded function.  The refinement always runs to level 10 at
    least, so whether a mask is accepted does not depend on ``level``.
    """
    check_level(level)
    kmin, kmax, norm = _check_mask(mask, normalization)
    if not (_is_real(mask.entries) and _is_real(norm)):
        raise PreconditionError("cascade needs a real mask and normalization")
    W = kmax - kmin
    r = mask.shape[0]
    ents = mask.entries.real
    M = np.zeros((W + 1, r, W + 1, r))
    for j in range(W + 1):
        for k in range(max(0, 2 * j - W), min(W, 2 * j) + 1):
            M[j, :, k, :] = 2.0 * ents[2 * j - k]
    v0 = np.zeros((W + 1, r))
    v0[0] = norm.real
    ints = _fixed_part(M.reshape(-1, (W + 1) * r), v0.reshape(-1)).reshape(W + 1, r)
    depth = max(level, _GROWTH_LEVELS[1])
    vals = _refine(list(zip(mask.indices(), ents)), kmin, W, depth, ints, 2.0, None)
    coarse, fine = (_max_increment(vals[:: 2 ** (depth - j)]) for j in _GROWTH_LEVELS)
    if fine > coarse * (1.0 + 1e-9) and fine > 1e-12 * float(np.max(np.abs(ints))):
        raise ConvergenceError(
            f"refinement increments grow from {coarse:.3e} at level {_GROWTH_LEVELS[0]} to "
            f"{fine:.3e} at level {_GROWTH_LEVELS[1]}: the two-scale solution is not a function",
            residual=fine / coarse if coarse > 0 else np.inf,
        )
    return SampledFunction(level, kmin * 2**level, vals[:: 2 ** (depth - level)])


def refinement_residual(sf: SampledFunction, mask: MatrixSeq) -> float:
    """sup-norm of phi(x) - 2 sum_k a(k) phi(2x - k) over the sample grid.

    ``2 x_i - k`` is the grid point of index ``2 i + start - k 2^level``, so
    the sum is one :func:`_tap_sum` with taps ``2 a(k)``.
    """
    taps = [(k, 2.0 * mask[k].real) for k in mask.indices()]
    acc = _tap_sum(taps, sf.values, sf.values.shape[0], 2, sf.start, 2**sf.level)
    return float(np.max(np.abs(sf.values - acc)))


@dataclass(frozen=True, eq=False)
class RefinableFunction:
    """Compactly supported solution of ``phi = 2 sum_k a(k) phi(2x - k)``.

    ``normalization`` fixes ``phihat(0)``.  Samples come from :func:`cascade`
    at ``level`` (cached per level) and are exact at the grid points; moments
    and cumulative integrals are exact consequences of the two-scale relation:

    - moments: differentiating ``phihat(2 xi) = ahat(xi) phihat(xi)`` at 0
      gives ``(2^j I - ahat(0)) Mj = sum_{i>=1} C(j,i) ahat^(i)(0) M_{j-i}``;
    - the cumulative integral ``F(x) = integral_{-inf}^x phi`` satisfies
      ``F(x) = sum_k a(k) F(2x - k)``, which pins its values at integers by a
      linear solve and then on each dyadic refinement (the kernel of
      :func:`cascade`, with gain 1 and ``F = phihat(0)`` right of the support).
    """

    mask: MatrixSeq
    normalization: np.ndarray = None
    level: int = 12
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        kmin, kmax, norm = _check_mask(self.mask, self.normalization)
        check_level(self.level)
        norm = np.ascontiguousarray(norm)
        norm.flags.writeable = False
        object.__setattr__(self, "normalization", norm)
        self._cache["ksupport"] = (kmin, kmax)

    @property
    def ncomponents(self) -> int:
        return self.mask.shape[0]

    @property
    def support(self) -> tuple[float, float]:
        kmin, kmax = self._cache["ksupport"]
        return (float(kmin), float(kmax))

    def samples(self, level: int | None = None) -> SampledFunction:
        level = self.level if level is None else level
        key = ("samples", level)
        if key not in self._cache:
            self._cache[key] = cascade(self.mask, self.normalization, level)
        return self._cache[key]

    def evaluate(self, x) -> np.ndarray:
        return self.samples().evaluate(x)

    # -- exact moments -----------------------------------------------------

    def _fhat_deriv0(self, j: int) -> np.ndarray:
        """phihat^(j)(0) from the mask recursion."""
        key = ("M", j)
        if key in self._cache:
            return self._cache[key]
        if j == 0:
            out = self.normalization.astype(np.complex128)
        else:
            a0 = fourier_deriv(self.mask, 0)
            rhs = np.zeros(self.ncomponents, dtype=np.complex128)
            for i in range(1, j + 1):
                rhs += comb(j, i) * (fourier_deriv(self.mask, i) @ self._fhat_deriv0(j - i))
            lhs = 2.0**j * np.eye(self.ncomponents) - a0
            try:
                out = np.linalg.solve(lhs, rhs)
            except np.linalg.LinAlgError as exc:
                raise PreconditionError(
                    f"moment recursion singular at order {j}: mask symbol has eigenvalue 2^{j}"
                ) from exc
        self._cache[key] = out
        return out

    def moment(self, j: int) -> np.ndarray:
        if not 0 <= j <= MAX_DEGREE:
            raise PreconditionError(f"moment order must satisfy 0 <= j <= {MAX_DEGREE}, got {j}")
        m = (1j) ** j * self._fhat_deriv0(j)
        if _is_real(m):
            return m.real.copy()
        return m

    # -- exact cumulative integral ------------------------------------------

    def _integer_cumulative(self) -> np.ndarray:
        """F at the integers kmin..kmax (shape (W+1, r)), exactly."""
        if "Fint" in self._cache:
            return self._cache["Fint"]
        kmin, kmax = self._cache["ksupport"]
        W = kmax - kmin
        r = self.ncomponents
        m0 = np.asarray(self.moment(0), dtype=np.float64).reshape(r)
        F = np.zeros((W + 1, r))
        F[W] = m0
        if W > 1:
            n = (W - 1) * r
            A = np.zeros((n, n))
            b = np.zeros(n)
            taps = [(k, self.mask[k].real) for k in self.mask.indices()]
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
        self._cache["Fint"] = F
        return F

    def cumulative_samples(self, level: int | None = None) -> np.ndarray:
        """F on the grid ``kmin + i 2^-level`` over the support, exactly."""
        level = self.level if level is None else level
        key = ("F", level)
        if key in self._cache:
            return self._cache[key]
        kmin, kmax = self._cache["ksupport"]
        Fint = self._integer_cumulative()  # its last row is F = phihat(0) right of the support
        taps = [(k, self.mask[k].real) for k in self.mask.indices()]
        F = _refine(taps, kmin, kmax - kmin, level, Fint, 1.0, Fint[-1])
        self._cache[key] = F
        return F

    def cumulative(self, s) -> np.ndarray:
        """Integral over (-inf, s_i], interpolating the exact F on the carried grid; shape (n, r)."""
        s = np.atleast_1d(np.asarray(s, dtype=np.float64))
        F = self.cumulative_samples()
        key = ("Fgrid", self.level)
        if key not in self._cache:
            kmin, _ = self._cache["ksupport"]
            self._cache[key] = kmin + np.arange(F.shape[0]) * 2.0**-self.level
        return _interp_columns(s, self._cache[key], F, F[-1])

    def refinement_residual(self, level: int | None = None) -> float:
        return refinement_residual(self.samples(level), self.mask)

    def to_json_dict(self) -> dict:
        return {
            "kind": "refinable",
            "mask": self.mask.to_json_dict(),
            "level": self.level,
            "normalization": [float(v.real) for v in self.normalization],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "RefinableFunction":
        return cls(
            MatrixSeq.from_json_dict(d["mask"]),
            np.asarray(d["normalization"], dtype=np.float64),
            int(d.get("level", 12)),
        )


FunctionHandle = Union[PiecewisePoly, RefinableFunction, SampledFunction]


# ---------------------------------------------------------------------------
# shared operations
# ---------------------------------------------------------------------------


def bspline(m: int) -> PiecewisePoly:
    """Cardinal B-spline of order m, supported on [0, m].

    B_1 is the indicator of (0, 1] (up to the half-open evaluation convention);
    B_m is the running unit average of B_{m-1}, built here by exact
    antidifferentiation, so all coefficients are closed-form.
    """
    if not 1 <= m <= 9:
        raise PreconditionError(f"B-spline order must satisfy 1 <= m <= 9, got {m}")
    pp = PiecewisePoly(np.array([0.0, 1.0]), np.array([[[1.0]]]))
    for order in range(2, m + 1):
        prev = pp
        npieces = order - 1
        anti = _polyint_asc(prev.coeffs)  # (npieces, 1, deg+2)
        piece_totals = np.stack(
            [_polyval_asc(anti[i], np.array([1.0]))[:, 0] for i in range(npieces)]
        )
        cum = np.vstack([np.zeros((1, 1)), np.cumsum(piece_totals, axis=0)])
        total = cum[-1]
        deg = anti.shape[-1]
        coeffs = np.zeros((order, 1, deg))
        for j in range(order):
            upper = np.zeros((1, deg))
            if j <= npieces - 1:
                upper[:, : anti.shape[-1]] = anti[j]
                upper[:, 0] += cum[j]
            else:
                upper[:, 0] = total
            lower = np.zeros((1, deg))
            if 0 <= j - 1 <= npieces - 1:
                lower[:, : anti.shape[-1]] = anti[j - 1]
                lower[:, 0] += cum[j - 1]
            elif j - 1 > npieces - 1:
                lower[:, 0] = total
            coeffs[j] = upper - lower
        pp = PiecewisePoly(np.arange(order + 1, dtype=np.float64), coeffs)
    return pp


def fhat_deriv0(f: FunctionHandle, j: int) -> np.ndarray:
    """fhat^(j)(0) = (-i)^j * f.moment(j), componentwise."""
    return (-1j) ** j * np.asarray(f.moment(j), dtype=np.complex128)


def halfline_integral(f: FunctionHandle, k: float, side: str) -> np.ndarray:
    """integral of f over (-inf, k] (side='left') or [k, inf) (side='right')."""
    if side not in ("left", "right"):
        raise PreconditionError(f"side must be 'left' or 'right', got {side!r}")
    left, total = f.cumulative([k, f.support[1]])
    return left if side == "left" else total - left


def _support_samples(f: FunctionHandle, level: int, phase: float = 0.0) -> tuple[int, np.ndarray]:
    """``f`` at ``(i0 + i) 2^-level + phase`` over ``dyadic_grid(*f.support, level)``:
    ``i0`` and the values, shape ``(n, r)``.  At phase 0 a refinable function
    carrying ``level`` hands over its cached samples, the bits ``evaluate`` gives."""
    i0, xs = dyadic_grid(*f.support, level)
    if not phase and isinstance(f, RefinableFunction) and f.level == level:
        return i0, f.samples().values
    return i0, f.evaluate(xs + phase)


def _grid_min(f: FunctionHandle, level: int = 10) -> float:
    """Smallest sample of any component on the dyadic grid over the support."""
    _, xs = dyadic_grid(*f.support, level)
    return float(np.min(f.evaluate(xs)))


_MAX_SAMPLE_JUMP = 0.05  # a larger _continuity_defect reads as a jump: not continuous


def _continuity_defect(f: FunctionHandle, level: int = 10) -> float:
    """Largest jump between adjacent grid samples of any component, including
    the steps onto and off the support."""
    _, xs = dyadic_grid(*f.support, level, pad=1)
    return float(np.max(np.abs(np.diff(f.evaluate(xs), axis=0))))


def _grid_level(*fs) -> int:
    levels = [f.level for f in fs if hasattr(f, "level")]
    return max(levels) if levels else 12


def inner_product(
    f: FunctionHandle, g: FunctionHandle, shift: float = 0.0, level: int | None = None
) -> np.ndarray:
    """Matrix of pairings ``integral f(x) conj(g(x - shift))^T dx``.

    Exact when both operands are piecewise polynomials; otherwise composite
    Simpson on the dyadic grid at ``level`` (defaulting to the finest level
    carried by the operands).
    """
    if isinstance(f, PiecewisePoly) and isinstance(g, PiecewisePoly):
        return _pp_inner(f, g, shift)
    level = _grid_level(f, g) if level is None else level
    flo, fhi = f.support
    glo, ghi = g.support
    lo, hi = max(flo, glo + shift), min(fhi, ghi + shift)
    if lo >= hi:
        return np.zeros((f.ncomponents, g.ncomponents))
    _, xs = dyadic_grid(lo, hi, level)
    fv = f.evaluate(xs)
    gv = g.evaluate(xs - shift)
    return simpson_sum(np.einsum("na,nb->nab", fv, gv), 2.0**-level, axis=0)


def _pp_inner(f: PiecewisePoly, g: PiecewisePoly, shift: float) -> np.ndarray:
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
        cf = _polyshift_asc(f.coeffs[jf], float(a - f.breakpoints[jf]))
        cg = _polyshift_asc(gs.coeffs[jg], float(a - gs.breakpoints[jg]))
        w = b - a
        for p in range(f.ncomponents):
            for q in range(g.ncomponents):
                prod = np.convolve(cf[p], cg[q])
                anti = _polyint_asc(prod[None, :])
                out[p, q] += _polyval_asc(anti[0], np.array([w]))[0]
    return out


def piecewise_quadrature(pp: PiecewisePoly, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Simpson nodes/weighted values of ``pp``, laid out piece by piece.

    Returns ``(xs, wvals)`` with ``wvals[q, c] = w_q * p_c(x_q)``, where each
    polynomial piece gets its own composite rule (panel width about
    ``2^-level``) and contributes its one-sided value at shared breakpoints.
    Pairings ``integral f * conj(pp_c)`` then reduce to ``f(xs) @ conj(wvals)``
    with no panel ever straddling a discontinuity of ``pp``.
    """
    h = 2.0**-level
    xs_parts, wv_parts = [], []
    bp = pp.breakpoints
    for i in range(bp.size - 1):
        a, b = float(bp[i]), float(bp[i + 1])
        npanels = max(2, 2 * int(np.ceil((b - a) / (2 * h))))
        u = np.linspace(0.0, b - a, npanels + 1)
        w = _simpson_weights(npanels + 1, (b - a) / npanels)
        vals = _polyval_asc(pp.coeffs[i], u).T  # (npanels+1, r)
        xs_parts.append(a + u)
        wv_parts.append(w[:, None] * vals)
    return np.concatenate(xs_parts), np.vstack(wv_parts)


def function_to_json_dict(f: FunctionHandle) -> dict:
    return f.to_json_dict()


def function_from_json_dict(d: dict) -> FunctionHandle:
    kind = d.get("kind")
    if kind == "piecewise_poly":
        return PiecewisePoly.from_json_dict(d)
    if kind == "refinable":
        return RefinableFunction.from_json_dict(d)
    if kind == "sampled":
        return SampledFunction.from_json_dict(d)
    raise PreconditionError(f"unknown function kind {kind!r}")
