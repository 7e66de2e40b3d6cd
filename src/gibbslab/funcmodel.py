"""Models of compactly supported functions on the real line.

Three representations share one informal interface (``support``,
``ncomponents``, ``evaluate``, ``moment``, ``cumulative``, ``fourier``):

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

from dataclasses import dataclass
from functools import cached_property
from math import ceil, comb, factorial, floor, isfinite, isnan
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


def _polyval_pieces(c: np.ndarray, piece: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_k c[piece[i], :, k] u[i]^k for each point i, in one in-place Horner
    pass over the coefficients, gathered once; shape (len(u), r).  The one
    Horner for piece polynomials (``evaluate`` runs the same operation order
    on its runs)."""
    cp = c[piece]
    acc = np.zeros((u.size, c.shape[1]))
    for k in range(c.shape[-1] - 1, -1, -1):
        acc *= u[:, None]
        acc += cp[..., k]
    return acc


def _polyint_asc(c: np.ndarray) -> np.ndarray:
    """Antiderivative with zero constant term."""
    k = np.arange(1, c.shape[-1] + 1, dtype=np.float64)
    out = np.zeros(c.shape[:-1] + (c.shape[-1] + 1,), dtype=c.dtype)
    out[..., 1:] = c / k
    return out


def _polyshift_asc(c: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Coefficients of p_i(u + delta[i]) given those of p_i(u) in ``c[i]``,
    shape ``(m, r, deg+1)`` (last axis ascending).  The factors are Python
    float products and powers, whose bits numpy's vector power need not give."""
    n = c.shape[-1]
    fac = [[comb(k, j) * d ** (k - j) if k >= j else 0.0 for j in range(n) for k in range(n)] for d in delta.tolist()]
    fac = np.array(fac).reshape(-1, n, n, 1)  # fac[i, j, k] = comb(k, j) delta[i]^(k - j)
    out = np.zeros_like(c)
    for j in range(n):
        acc = np.zeros(c.shape[:-1], dtype=c.dtype)
        for k in range(j, n):
            acc = acc + c[..., k] * fac[:, j, k]
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


def simpson_sum(y: np.ndarray, h: float) -> np.ndarray:
    """Composite-Simpson integral of uniformly spaced samples along the first axis."""
    y = np.asarray(y)
    w = _simpson_weights(y.shape[0], h)
    return np.sum(y * w.reshape((-1,) + (1,) * (y.ndim - 1)), axis=0)


# ---------------------------------------------------------------------------
# dyadic grids
# ---------------------------------------------------------------------------


def check_level(level: int) -> None:
    """Reject a dyadic level outside ``1..MAX_LEVEL``."""
    if not 1 <= level <= MAX_LEVEL:
        raise PreconditionError(f"grid level must satisfy 1 <= level <= {MAX_LEVEL}, got {level}")


def dyadic_bounds(lo: float, hi: float, level: int) -> tuple[int, int]:
    """First and last index ``i0, i1`` of the points ``i 2^-level`` covering
    ``[lo, hi]``."""
    h = 2.0**-level
    return floor(lo / h), ceil(hi / h)


def dyadic_grid(lo: float, hi: float, level: int) -> tuple[int, np.ndarray]:
    """The points of :func:`dyadic_bounds`; returns the first index ``i0`` and
    the points."""
    i0, i1 = dyadic_bounds(lo, hi, level)
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
        # a NaN difference makes the min NaN, and increasing breakpoints with finite ends are finite
        if len(bp) < 2 or not (np.diff(bp).min() > 0 and isfinite(bp[0]) and isfinite(bp[-1]) and np.isfinite(cf).all()):
            raise PreconditionError("need finite coefficients and >= 2 finite, strictly increasing breakpoints")
        # canonical form: drop trailing zero coefficient columns and zero end pieces
        while cf.shape[-1] > 1 and not np.any(cf[..., -1]):
            cf = cf[..., :-1]
        if cf.shape[-1] - 1 > MAX_DEGREE:
            raise PreconditionError(
                f"polynomial degree {cf.shape[-1] - 1} exceeds supported maximum {MAX_DEGREE}"
            )
        nz = np.flatnonzero(cf.any(axis=(1, 2)))
        if nz.size and (nz[0] > 0 or nz[-1] < cf.shape[0] - 1):
            bp = bp[nz[0] : nz[-1] + 2]
            cf = cf[nz[0] : nz[-1] + 1]
        bp = np.ascontiguousarray(bp)
        cf = np.ascontiguousarray(cf)
        bp.flags.writeable = False
        cf.flags.writeable = False
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "coeffs", cf)
        object.__setattr__(self, "_moments", {})  # moment(j) per order j

    # -- structure ---------------------------------------------------------

    @property
    def ncomponents(self) -> int:
        return self.coeffs.shape[1]

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

    @cached_property
    def _antiderivative(self) -> np.ndarray:
        """Each piece's antiderivative from its left end, ``(m, r, deg+2)``."""
        return _polyint_asc(self.coeffs)

    @cached_property
    def _cumulative_at_breaks(self) -> np.ndarray:
        """C[i] = integral of f over (-inf, breakpoints[i]]; shape (m+1, r)."""
        widths = np.diff(self.breakpoints)
        piece = _polyval_pieces(self._antiderivative, np.arange(len(widths)), widths)
        return np.vstack([np.zeros((1, self.ncomponents)), np.cumsum(piece, axis=0)])

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

    def integral(self, a: float, b: float) -> np.ndarray:
        """integral_a^b f(x) dx per component, exactly."""
        left, right = self.cumulative([a, b])
        return right - left

    def moment(self, j: int) -> np.ndarray:
        """Exact j-th moment ``integral x^j f(x) dx`` per component; cached
        per order, read-only."""
        if not 0 <= j <= MAX_DEGREE:
            raise PreconditionError(f"moment order must satisfy 0 <= j <= {MAX_DEGREE}, got {j}")
        if j not in self._moments:
            m = self.moment_on(j, self.breakpoints[0], self.breakpoints[-1])
            m.flags.writeable = False
            self._moments[j] = m
        return self._moments[j]

    def moment_on(self, j: int, a: float, b: float) -> np.ndarray:
        """Exact partial moment ``integral_a^b x^j f(x) dx``: each piece's
        antiderivative of ``x^j f`` read at its ends clipped to ``[a, b]``, the
        differences added from zero in piece order.  A NaN bound is refused."""
        if isnan(a) or isnan(b):
            raise PreconditionError(f"moment bounds must not be NaN, got {a}, {b}")
        bp = self.breakpoints
        lo, hi = np.maximum(a, bp[:-1]), np.minimum(b, bp[1:])
        piece = np.flatnonzero(lo < hi)
        prod = np.zeros((len(piece), self.ncomponents, self.coeffs.shape[-1] + j))
        for row, i in enumerate(piece):  # x^j f on piece i in u = x - x_i, one convolve per component
            w = _binom_power_asc(float(bp[i]), j)  # (u + x_i)^j in u
            prod[row] = [np.convolve(c, w) for c in self.coeffs[i]]
        anti = _polyint_asc(prod)
        rows = np.arange(len(piece))
        diff = _polyval_pieces(anti, rows, hi[piece] - bp[piece]) - _polyval_pieces(anti, rows, lo[piece] - bp[piece])
        out = np.zeros(self.ncomponents)
        for d in diff:
            out += d
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
            out[..., : src.coeffs.shape[-1]] += _aligned(src, bp)
        return PiecewisePoly(bp, out)

    @staticmethod
    def combine(terms) -> "PiecewisePoly":
        """Sum of (matrix, PiecewisePoly) pairs: sum_i M_i f_i, a pairwise left fold of ``+``."""
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
        object.__setattr__(self, "_interp_values", vals.view())  # np.interp copies a read-only input per call
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "level", int(self.level))
        object.__setattr__(self, "start", int(self.start))
        object.__setattr__(self, "_moments", {})  # moment(j) per order j

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
        xs = np.arange(self.start, self.start + self.values.shape[0], dtype=np.float64)
        xs *= self.h
        return xs

    @cached_property
    def _grid(self) -> np.ndarray:
        """The sample points."""
        return self.xs()

    def evaluate(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return _interp_columns(x, self._grid, self._interp_values, np.zeros(self.ncomponents))

    def moment(self, j: int) -> np.ndarray:
        """Simpson j-th moment per component; cached per order, read-only
        (a sweep over a sampled dual reads its mass at every shift)."""
        if not 0 <= j <= MAX_DEGREE:
            raise PreconditionError(f"moment order must satisfy 0 <= j <= {MAX_DEGREE}, got {j}")
        if j not in self._moments:
            m = simpson_sum(self.values * (self._grid**j)[:, None], self.h)
            m.flags.writeable = False
            self._moments[j] = m
        return self._moments[j]

    @cached_property
    def _cumulative(self) -> np.ndarray:
        """The trapezoid integral at each sample point."""
        avg = 0.5 * (self.values[1:] + self.values[:-1]) * self.h
        return np.vstack([np.zeros((1, self.ncomponents)), np.cumsum(avg, axis=0)])

    def cumulative(self, s) -> np.ndarray:
        """Integral over (-inf, s_i] (trapezoid on the carried grid); shape (n, r)."""
        s = np.atleast_1d(np.asarray(s, dtype=np.float64))
        cum = self._cumulative
        return _interp_columns(s, self._grid, cum, cum[-1])

    def fourier(self, xi: float) -> np.ndarray:
        """fhat(xi) per component by composite Simpson over the samples."""
        return simpson_sum(self.values * np.exp(-1j * xi * self._grid)[:, None], self.h)

    def to_json_dict(self) -> dict:
        return self._json_dict(self.values.tolist())

    def _json_dict(self, values) -> dict:
        """The ``sampled`` schema with ``values`` as given, list or array."""
        return {"kind": "sampled", "level": self.level, "start": self.start, "values": values}

    @classmethod
    def from_json_dict(cls, d: dict) -> "SampledFunction":
        try:
            values = np.asarray(d["values"], dtype=np.float64)
        except (TypeError, ValueError) as exc:  # ragged rows, strings, objects
            raise PreconditionError(f"sampled function values must be an array of numbers: {exc}") from None
        if not np.isfinite(values).all():  # here, not in __post_init__, which every sweep shift pays
            raise PreconditionError("sampled function values must be finite (NaN or infinity found)")
        return cls(int(d["level"]), int(d["start"]), values)


# ---------------------------------------------------------------------------
# exact dyadic refinement and refinable functions
# ---------------------------------------------------------------------------


def _is_real(m: np.ndarray) -> bool:
    """True when the imaginary part of ``m`` is below 1e-10 of its real scale."""
    m = np.asarray(m)
    return bool(np.max(np.abs(m.imag)) < 1e-10 * max(1.0, np.max(np.abs(m.real))))


def _check_mask(mask: MatrixSeq, normalization) -> tuple[int, int, np.ndarray]:
    """Refuse a mask or normalization that is not square, finite, real and
    consistent; returns ``kmin, kmax`` and the float64 normalization."""
    r, s = mask.shape
    if r != s:
        raise DimensionMismatchError(f"refinement mask must be square, got shape {mask.shape}")
    if mask.support is None:
        raise PreconditionError("refinement mask must be nonzero")
    kmin, kmax = mask.support
    bad = np.argwhere(~np.isfinite(mask.entries))
    if bad.size:
        i, p, q = bad[0]
        raise PreconditionError(
            f"refinement mask entry a({kmin + i})[{p}, {q}] = {mask.entries[i, p, q]} is not finite"
        )
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
    if not (_is_real(mask.entries) and _is_real(norm)):
        raise PreconditionError("refinement mask and normalization must be real")
    a0 = fourier_deriv(mask, 0)
    if np.max(np.abs(a0 @ norm - norm)) > 1e-10:
        raise PreconditionError(
            "normalization must be an eigenvector of the mask symbol at 0 for eigenvalue 1"
        )
    return kmin, kmax, norm.real.copy()


def _refine(
    taps: np.ndarray, kmin: int, level: int, v0: np.ndarray, gain: float, beyond: np.ndarray | None
) -> np.ndarray:
    """Samples of a solution of ``f(x) = gain sum_k a(k) f(2x - k)`` on the
    grid ``kmin + i 2^-level`` over ``[kmin, kmin + W]``, from its values
    ``v0`` (shape (W+1, r)) at the integers; ``taps`` is the real ``(W + 1, r,
    r)`` array of ``a(k)``, ``k = kmin..kmin + W``.

    Each level keeps the previous samples at its even points and fills its
    ``W 2^(lev-1)`` odd points ``x`` from ``f(2x - k)``, which lie on the
    previous grid; ``f`` is zero left of that grid and ``beyond`` (None: zero)
    right of it.  Level 1 is one :func:`_matrix_synthesis` at stride 2 on the
    level-0 table ``v0``, then ``W - 1`` rows of ``beyond`` if given, through
    the last integer read.  At level ``lev >= 2`` odd point ``i`` reads only odd
    points of level ``lev - 1``, namely odd point ``i - j q`` with ``q =
    2^(lev-2)`` and ``j = k - kmin``.  Cut into blocks of ``q`` points, the
    ``W`` input blocks give ``2W`` output blocks, and output block ``c`` is
    ``sum_j A_j . in[c - j]``: a block-Toeplitz product, with blocks below 0
    reading zero and blocks ``W`` and up reading ``beyond``.

    The tap matrix ``T`` (2W, W+1, r, r) is built once.  The input buffer
    holds the ``W`` data blocks and then one block of 1.0, and the einsum
    reads its blocks in reverse, so the ones block comes first: ``T[c, 0]``
    meets it and holds ``diag(s_c)`` with ``s_c = A_0 . beyond + ... +
    A_(c-W) . beyond``, the taps that read past the samples, which are the
    smallest ``k``; then ``T[c, W - b]`` meets data block ``b`` and holds
    ``A_(c-b)``, so ``k`` ascends.  Each output thus adds the terms of
    :func:`_synthesis` in its order.  Where ``T`` is zero the einsum adds
    ``+-0`` to a running sum that starts at +0 and so is never -0, which
    changes no bit (nor does the sign of a zero ``s_c``).  Each level's odd
    points are kept contiguous and copied once into the output at stride
    ``2^(level-lev+1)``, the finest level too: einsum is about twice as slow
    into a stride-2 view.
    """
    if level == 0:
        return v0
    W = len(taps) - 1
    A = gain * taps  # A[j] = gain a(kmin + j)
    r = v0.shape[1]
    T = np.zeros((2 * W, W + 1, r, r))
    b = np.arange(W)
    for j in range(W + 1):
        T[b + j, W - b] = A[j]
    if beyond is not None:
        T[W:, 0, range(r), range(r)] = np.cumsum(np.einsum("jab,b->ja", A[:W], beyond), axis=0)
    out = np.empty((W * 2**level + 1, r))
    out[:: 2**level] = v0
    ints = v0 if beyond is None else np.concatenate([v0, np.broadcast_to(beyond, (W - 1, r))])
    buf = np.empty((W + 1, r))
    buf[:W] = _matrix_synthesis((kmin, ints[:, None]), 2 * kmin + 1, W, 2, kmin, A)
    for lev in range(2, level + 1):
        q = 2 ** (lev - 2)
        buf[W * q :] = 1.0
        out[2 ** (level - lev + 1) :: 2 ** (level - lev + 2)] = buf[: W * q]  # level lev - 1
        nxt = np.empty(((W + 1) * 2 * q, r))
        odd = nxt[: 2 * W * q].reshape(2 * W, q, r)  # level lev, in 2W blocks
        np.einsum("cbxy,bty->ctx", T, buf.reshape(W + 1, q, r)[::-1], out=odd)
        buf = nxt
    out[1::2] = buf[: W * 2 ** (level - 1)]
    return out


# levels whose largest odd-point increments decide whether the cascade diverges
_GROWTH_LEVELS = (6, 10)


def _max_increment(g: np.ndarray) -> float:
    """Largest odd-point increment of the samples ``g``: the value at an odd
    point minus the mean of its two neighbours."""
    return float(np.max(np.abs(g[1::2] - 0.5 * (g[:-1:2] + g[2::2]))))


def _refined(mask: MatrixSeq, ints: np.ndarray, level: int, gain: float, beyond, what: str) -> SampledFunction:
    """Read-only level-``level`` samples of ``f = gain sum_k a(k) f(2x - k)``
    from its values ``ints`` at the integers, ``beyond`` (None: zero) right of
    them.  :func:`_refine` runs to level 10 at least, so acceptance does not
    depend on ``level``; raises :class:`ConvergenceError` ending in ``what``
    when the largest odd-point increment grows from level 6 to level 10."""
    depth = max(level, _GROWTH_LEVELS[1])
    vals = _refine(mask.entries.real, mask.offset, depth, ints, gain, beyond)
    coarse, fine = (_max_increment(vals[:: 2 ** (depth - j)]) for j in _GROWTH_LEVELS)
    if fine > coarse * (1.0 + 1e-9) and fine > 1e-12 * float(np.max(np.abs(ints))):
        raise ConvergenceError(
            f"refinement increments grow from {coarse:.3e} at level {_GROWTH_LEVELS[0]} to "
            f"{fine:.3e} at level {_GROWTH_LEVELS[1]}: {what}",
            residual=fine / coarse if coarse > 0 else np.inf,
        )
    return SampledFunction(level, mask.offset * 2**level, vals[:: 2 ** (depth - level)])


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


def _two_scale(mask: MatrixSeq) -> np.ndarray:
    """``T[j, :, t, :] = a(kmin + 2j - t)`` for ``j, t = 0..W`` (zero where no
    tap), the two-scale relation at the integers: :func:`cascade` reads phi
    there off ``2 T``, ``RefinableFunction._integer_cumulative`` F off ``T``."""
    kmin, kmax = mask.support
    W = kmax - kmin
    taps = np.zeros((3 * W + 1,) + mask.shape)
    taps[W : 2 * W + 1] = mask.entries.real  # taps[W + i] = a(kmin + i)
    j = np.arange(W + 1)
    return taps[W + 2 * j[:, None] - j].transpose(0, 2, 1, 3)


def cascade(mask: MatrixSeq, normalization=None, level: int = 12) -> SampledFunction:
    """Exact samples of the two-scale solution on the grid ``2^-level Z``.

    Daubechies-Lagarias refinement: the values at the integers ``kmin..kmax``
    are the limit of the cascade there, ``M^n v0`` with ``M = (2 a(2j - k))``
    and ``v0`` carrying ``normalization`` at ``kmin``, taken as the projection
    of ``v0`` onto ``M``'s eigenvalue-1 eigenspace (so Haar keeps the
    half-open convention ``phi(0) = 1``, ``phi(1) = 0``); each finer level
    then follows from the two-scale relation (:func:`_refined`, gain 2).
    Raises :class:`ConvergenceError` (carrying a residual >= 1) when that
    limit does not exist, or when the refinement's increments grow, so that
    the samples do not come from a bounded function.  Raises
    :class:`PreconditionError` when the values at the
    integers break the first sum rule ``y . sum_k phi(k) = y . phihat(0)``
    for every left 1-eigenvector ``y`` of ``ahat(0)``: ``[0.5, 0, 0.5]``
    samples chi[0, 2), whose integral is 2, not ``phihat(0) = 1``.
    """
    check_level(level)
    kmin, kmax, norm = _check_mask(mask, normalization)
    W = kmax - kmin
    r = mask.shape[0]
    M = 2.0 * _two_scale(mask)
    v0 = np.zeros((W + 1, r))
    v0[0] = norm
    ints = _fixed_part(M.reshape(-1, (W + 1) * r), v0.reshape(-1)).reshape(W + 1, r)
    _, sv, Vh = np.linalg.svd(fourier_deriv(mask, 0).real.T - np.eye(r))
    d = max(1, int(np.sum(sv <= 1e-10 * max(1.0, sv[0]))))  # norm makes ahat(0) - I singular
    gap = float(np.max(np.abs(Vh[r - d :] @ (ints.sum(axis=0) - norm))))
    if gap > 1e-9 * max(1.0, float(np.max(np.abs(norm)))):
        raise PreconditionError(
            f"mask breaks the first sum rule: its values at the integers miss phihat(0) by {gap:.3g}"
        )
    return _refined(mask, ints, level, 2.0, None, "the two-scale solution is not a function")


def refinement_residual(sf: SampledFunction, mask: MatrixSeq) -> float:
    """sup-norm of phi(x) - 2 sum_k a(k) phi(2x - k) over the sample grid.

    ``2 x_i - k`` is the grid point of index ``2 i + start - k 2^level``, so
    the sum is one :func:`_matrix_synthesis` at stride 2 with taps ``2 a(k)``
    on the samples' own table.
    """
    n = sf.values.shape[0]
    acc = _matrix_synthesis(_sample_table(sf, sf.level), 2 * sf.start, n, 2, mask.offset, 2.0 * mask.entries.real)
    np.subtract(sf.values, acc, out=acc)
    return float(np.max(np.abs(acc, out=acc)))


@dataclass(frozen=True, eq=False)
class RefinableFunction:
    """Compactly supported solution of ``phi = 2 sum_k a(k) phi(2x - k)``.

    ``normalization`` fixes ``phihat(0)``.  Samples come from one
    :func:`cascade` at ``level`` and are exact at the grid points; a grid at
    ``level`` or a coarser one reads them at a stride (the refinement is
    nested, see :func:`_support_samples`), and a finer grid interpolates them.
    Moments and cumulative integrals are exact consequences of the two-scale
    relation:

    - moments: differentiating ``phihat(2 xi) = ahat(xi) phihat(xi)`` at 0
      gives ``(2^j I - ahat(0)) Mj = sum_{i>=1} C(j,i) ahat^(i)(0) M_{j-i}``;
    - the cumulative integral ``F(x) = integral_{-inf}^x phi`` satisfies
      ``F(x) = sum_k a(k) F(2x - k)``, which pins its values at integers by a
      linear solve; F then shares phi's refinement and its growth test
      (:func:`_refined`, gain 1, ``F = phihat(0)`` right of the support).
    """

    mask: MatrixSeq
    normalization: np.ndarray = None
    level: int = 12

    def __post_init__(self):
        _, _, norm = _check_mask(self.mask, self.normalization)
        check_level(self.level)
        norm = np.ascontiguousarray(norm)
        norm.flags.writeable = False
        object.__setattr__(self, "normalization", norm)
        object.__setattr__(self, "_fhat", {})  # phihat^(j)(0) per order j

    @property
    def ncomponents(self) -> int:
        return self.mask.shape[0]

    @property
    def support(self) -> tuple[float, float]:
        kmin, kmax = self.mask.support
        return (float(kmin), float(kmax))

    @cached_property
    def _samples(self) -> SampledFunction:
        return cascade(self.mask, self.normalization, self.level)

    def samples(self) -> SampledFunction:
        """The exact samples at ``level``."""
        return self._samples

    def evaluate(self, x) -> np.ndarray:
        return self.samples().evaluate(x)

    # -- exact moments -----------------------------------------------------

    def _fhat_deriv0(self, j: int) -> np.ndarray:
        """phihat^(j)(0) from the mask recursion."""
        if j in self._fhat:
            return self._fhat[j]
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
        self._fhat[j] = out
        return out

    def moment(self, j: int) -> np.ndarray:
        if not 0 <= j <= MAX_DEGREE:
            raise PreconditionError(f"moment order must satisfy 0 <= j <= {MAX_DEGREE}, got {j}")
        # a copy: the strided view of the real parts would sum in another order
        return ((1j) ** j * self._fhat_deriv0(j)).real.copy()

    def fourier(self, xi: float) -> np.ndarray:
        """phihat(xi): the mask symbols at xi 2^-j, j = 30..1, applied to phihat(0)."""
        acc = self.normalization.astype(np.complex128)
        for j in range(30, 0, -1):
            acc = fourier_deriv(self.mask, 0, xi * 2.0**-j) @ acc
        return acc

    # -- exact cumulative integral ------------------------------------------

    @cached_property
    def _integer_cumulative(self) -> np.ndarray:
        """F at the integers kmin..kmax (shape (W+1, r)), exactly: the interior
        values solve ``(I - T) F = b`` on rows and columns 1..W-1 of :func:`_two_scale`."""
        kmin, kmax = self.mask.support
        W = kmax - kmin
        r = self.ncomponents
        m0 = self.moment(0)
        F = np.zeros((W + 1, r))
        F[W] = m0
        if W > 1:
            n = (W - 1) * r
            A = np.eye(n) - _two_scale(self.mask)[1:W, :, 1:W, :].reshape(n, n)
            # row j reads F = m0 through the taps k <= 2j - kmax, added k ascending from +0
            past = np.concatenate([np.zeros((W + 1, r)), self.mask.entries.real @ m0])
            b = np.cumsum(past, axis=0)[3 : 2 * W : 2].reshape(n)
            try:
                sol = np.linalg.solve(A, b)
            except np.linalg.LinAlgError as exc:
                raise PreconditionError("cumulative-integral system is singular") from exc
            F[1:W] = sol.reshape(W - 1, r)
        return F

    @cached_property
    def _F(self) -> SampledFunction:
        Fint = self._integer_cumulative  # its last row is F = phihat(0) right of the support
        return _refined(self.mask, Fint, self.level, 1.0, Fint[-1], "the cumulative integral does not converge")

    def cumulative_samples(self) -> np.ndarray:
        """F on the grid ``kmin + i 2^-level`` over the support, exactly; read-only."""
        return self._F.values

    def cumulative(self, s) -> np.ndarray:
        """Integral over (-inf, s_i], interpolating the exact F on the carried grid; shape (n, r)."""
        s = np.atleast_1d(np.asarray(s, dtype=np.float64))
        F = self._F._interp_values
        return _interp_columns(s, self._F._grid, F, F[-1])

    def refinement_residual(self) -> float:
        """sup-norm of ``phi(n) - 2 sum_k a(k) phi(2n - k)`` over the integers
        ``n`` of the support, the fixed-point residual of the eigenvector solve
        in :func:`cascade`; it does not depend on ``level``.  At every other
        grid point the residual is 0.0 by construction: :func:`_refine` made
        that sample by the same tap sum, same taps ``2 a(k)``, same order.
        The module-level :func:`refinement_residual` is the full scan for any
        samples.
        """
        ints = self.samples().values[:: 2**self.level]
        return refinement_residual(SampledFunction(0, self.mask.support[0], ints), self.mask)

    def to_json_dict(self) -> dict:
        return {
            "kind": "refinable",
            "mask": self.mask.to_json_dict(),
            "level": self.level,
            "normalization": self.normalization.tolist(),
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
    B_m is the running unit average of B_{m-1}: piece j is C(x) - C(x - 1) on
    [j, j + 1), with C the exact cumulative of B_{m-1}, so all coefficients
    are closed-form.
    """
    if not 1 <= m <= 9:
        raise PreconditionError(f"B-spline order must satisfy 1 <= m <= 9, got {m}")
    pp = PiecewisePoly(np.array([0.0, 1.0]), np.array([[[1.0]]]))
    for order in range(2, m + 1):
        # C on each [j, j + 1) in u = x - j; on [order - 1, order) it is the total
        upper = np.zeros((order,) + pp._antiderivative.shape[1:])
        upper[:-1] = pp._antiderivative
        upper[..., 0] += pp._cumulative_at_breaks
        lower = np.zeros_like(upper)
        lower[1:] = upper[:-1]  # C(x - 1) on [j, j + 1) is C on [j - 1, j)
        pp = PiecewisePoly(np.arange(order + 1, dtype=np.float64), upper - lower)
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
    carrying ``level`` or a finer level hands over its cached cascade samples
    at stride ``2^(f.level - level)``, and sampled values at their own level
    are handed over as they are.  The refinement is nested and
    ``np.interp`` returns a sample itself at a grid point (-0.0 too), so these
    are the bits ``evaluate`` gives; any other ``f``, level or phase is evaluated."""
    if not phase and isinstance(f, RefinableFunction) and level <= f.level:
        return dyadic_bounds(*f.support, level)[0], f.samples().values[:: 2 ** (f.level - level)]
    if not phase and isinstance(f, SampledFunction) and level == f.level:
        return f.start, f.values
    i0, xs = dyadic_grid(*f.support, level)
    return i0, f.evaluate(xs + phase)


def _sample_table(f: FunctionHandle, level: int, phase: float = 0.0) -> tuple[int, np.ndarray]:
    """``f`` on the ``2^-level`` grid over its support, shifted by ``0 <= phase
    < 2^-level``, one row per unit step: ``(m0, P)`` with ``P[a, j] = f((m0 + a
    2^level + j) 2^-level + phase)``, shape ``(rows, 2^level, r)``, zero past
    the support; from one :func:`_support_samples` call."""
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
    with real ``coeff`` of shape ``(len, r)``.  The one sum of translates, at
    any stride: ``quasiproj`` and ``construct.build_dual`` call it, the
    two-scale sums take it through :func:`_matrix_synthesis`, and the sweep of
    ``gibbs`` reduces the rows of its core :func:`_window_sums`; only
    :func:`_refine` from level 2 on sums on its own.

    With ``g - m0 = q 2^level + j`` the term ``k`` reads row ``q - k`` at column
    ``j``, so the output at ``(q, j)`` is ``sum_a coeff(q - a) . P[a, j]``, the
    sum of the window ``coeff(q - a)``.  Coefficients outside ``klo .. klo +
    len(coeff) - 1`` repeat the nearest one, so a caller passes every ``k``
    whose translate meets a point, or one row for a constant sequence.
    """
    m0, P = table
    width = P.shape[1]
    q0, j0 = divmod(g0 - m0, width)
    phase = j0 % stride
    cols = P[:, phase::stride]  # a stride beyond 2^level keeps one column ...
    skip = (j0 - phase) // stride
    nq = -(-(skip + count) // cols.shape[1])
    qs = q0 + max(1, stride // width) * np.arange(nq)  # ... of every (stride / 2^level)-th row
    run, sums = _window_sums(cols, coeff[None], (qs - klo)[:, None])
    return next(sums)[1][run[:, 0]].reshape(-1)[skip : skip + count]


def _window_sums(cols: np.ndarray, coeff: np.ndarray, rel: np.ndarray):
    """The window sums of :func:`_synthesis` for ``m`` coefficient sequences at
    once: row ``u`` of sequence ``i`` is ``sum_a coeff[i, rel[u] - a] .
    cols[a]`` (an index past either end of ``coeff[i]`` repeats the nearest
    one), for ``coeff`` of shape ``(m, K, r)``, one column ``rel`` of shape
    ``(nq, 1)`` that serves every sequence, and the table columns ``cols`` of
    shape ``(rows, width, r)``.

    The windows are taken in the order of ``rel``'s elements, row by row, and
    equal windows next to each other (the constant ends of a sequence, the
    repeats past its edges, the same row of sequences that agree there) are
    compared by bits (0.0 and -0.0 differ) and summed once.  Returns the index
    of each ``(u, i)``'s sum among these distinct sums, shape ``(nq, m)``, and
    an iterator of ``(lo, sums)``: the distinct sums ``lo, lo + 1, ...`` as rows
    of ``width`` values, at most ``nq`` of them (one sequence's rows) per item.
    Each is one einsum row, which adds its component sum from +0 with ``a``
    descending (``k`` ascending); terms on zero samples add +-0, which moves
    no bit, so a row's bits do not depend on how many rows share the call,
    and trailing rows of ``cols`` that hold only +-0 are left out.  einsum,
    not np.dot: BLAS may add the terms in another order and move the last bit.
    """
    m, K, r = coeff.shape
    nonzero = cols.any(axis=(1, 2))
    rows = len(cols) - int(np.argmax(nonzero[::-1]))  # all rows if none is nonzero
    cols = cols[:rows]
    idx = np.minimum(np.maximum(rel[:, :, None] + np.arange(1 - rows, 1), 0), K - 1)
    idx = idx + K * np.arange(m)[:, None]  # shape (nq, m, rows): rel serves every sequence
    windows = coeff.reshape(-1, r)[idx.reshape(-1, rows)]  # k ascending
    bits = windows.reshape(len(windows), -1).view(np.int64)
    first = np.ones(len(windows), dtype=bool)
    np.any(bits[1:] != bits[:-1], axis=1, out=first[1:])
    distinct = windows[first]
    sums = (
        (lo, np.einsum("uar,ajr->uj", distinct[lo : lo + len(rel)], cols[::-1]))
        for lo in range(0, len(distinct), len(rel))
    )
    return (np.cumsum(first) - 1).reshape(idx.shape[:2]), sums


def _matrix_synthesis(table: tuple, g0: int, count: int, stride: int, klo: int, mats: np.ndarray) -> np.ndarray:
    """:func:`_synthesis` with real ``(s, r)`` tap matrices ``mats``, zero past
    them; shape ``(count, s)``.  Each output component is one call on its rows,
    padded with a zero row at both ends (past its ends ``_synthesis`` repeats
    the end coefficient); a padding term adds +-0, which moves no bit."""
    padded = np.zeros((len(mats) + 2,) + mats.shape[1:])
    padded[1:-1] = mats
    return np.stack([_synthesis(table, g0, count, stride, klo - 1, padded[:, c]) for c in range(mats.shape[1])], -1)


def _grid_min(f: FunctionHandle) -> float:
    """Smallest sample of any component on the level-10 dyadic grid over the
    support."""
    return float(np.min(_support_samples(f, 10)[1]))


_MAX_SAMPLE_JUMP = 0.05  # a larger _continuity_defect reads as a jump: not continuous


def _continuity_defect(f: FunctionHandle) -> float:
    """Largest jump between adjacent level-10 grid samples of any component,
    including the steps onto and off the support (f is zero past the grid)."""
    vals = np.pad(_support_samples(f, 10)[1], ((1, 1), (0, 0)))
    return float(np.max(np.abs(np.diff(vals, axis=0))))


def _sample_jump(f: FunctionHandle) -> float | None:
    """None when ``f`` reads as continuous, else its :func:`_continuity_defect`."""
    defect = _continuity_defect(f)
    return None if defect <= _MAX_SAMPLE_JUMP else defect


def _grid_level(*fs) -> int:
    """The finest level carried by ``fs``; 12 when none carries one."""
    levels = [f.level for f in fs if hasattr(f, "level")]
    return max(levels) if levels else 12


def _aligned(f: PiecewisePoly, bp: np.ndarray) -> np.ndarray:
    """``f``'s coefficients about the left end of each interval of the partition ``bp``, from the
    piece that holds the interval's midpoint, zero where ``f`` is; shape ``(len(bp) - 1, r, deg+1)``."""
    j = np.searchsorted(f.breakpoints, (bp[:-1] + bp[1:]) / 2, side="right") - 1
    inside = np.flatnonzero((j >= 0) & (j < f.coeffs.shape[0]))
    out = np.zeros((bp.size - 1,) + f.coeffs.shape[1:])
    out[inside] = _polyshift_asc(f.coeffs[j[inside]], bp[inside] - f.breakpoints[j[inside]])
    return out


def _negligible(value, scale) -> np.ndarray:
    """Elementwise: ``|value|`` is at most 1e-9 of its ``scale``, the absolute
    sum of the terms that made it, so zero up to rounding."""
    return np.abs(value) <= 1e-9 * np.asarray(scale)


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
    return simpson_sum(np.einsum("na,nb->nab", fv, gv), 2.0**-level)


def _pp_inner(f: PiecewisePoly, g: PiecewisePoly, shift: float) -> np.ndarray:
    """The exact pairing of :func:`inner_product`: every component product's
    antiderivative at each common interval's width, added from zero in order."""
    gs = g.shift(shift)
    lo = max(f.breakpoints[0], gs.breakpoints[0])
    hi = min(f.breakpoints[-1], gs.breakpoints[-1])
    out = np.zeros((f.ncomponents, g.ncomponents))
    if lo >= hi:
        return out
    bp = np.unique(np.concatenate([f.breakpoints, gs.breakpoints]))
    bp = bp[(bp >= lo) & (bp <= hi)]
    cf, cg = _aligned(f, bp), _aligned(gs, bp)
    prod = np.array([[np.convolve(p, q) for p in cf_i for q in cg_i] for cf_i, cg_i in zip(cf, cg)])
    vals = _polyval_pieces(_polyint_asc(prod), np.arange(bp.size - 1), np.diff(bp))
    for v in vals:
        out += v.reshape(out.shape)
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
    u_parts, w_parts = [], []
    bp = pp.breakpoints
    for a, b in zip(bp[:-1].tolist(), bp[1:].tolist()):
        npanels = max(2, 2 * int(np.ceil((b - a) / (2 * h))))
        u_parts.append(np.linspace(0.0, b - a, npanels + 1))
        w_parts.append(_simpson_weights(npanels + 1, (b - a) / npanels))
    piece = np.repeat(np.arange(bp.size - 1), [len(u) for u in u_parts])
    u = np.concatenate(u_parts)
    # F order: the pairing's matmul in quasiproj._dual_pairings rounds by layout
    return bp[piece] + u, np.asfortranarray(np.concatenate(w_parts)[:, None] * _polyval_pieces(pp.coeffs, piece, u))


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
