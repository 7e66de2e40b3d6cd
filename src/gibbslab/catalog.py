"""Named masks, functions, filter banks, and primal/dual pairs used across
tests and the CLI.

Specifier grammar (case-sensitive):

  * ``haar``          -- the indicator of (0, 1]
  * ``bspline:m``     -- the cardinal B-spline of order m (exact piecewise poly)
  * ``daubechies:k``  -- the orthonormal scaling function with k mask zeros at pi

Bank specifiers: ``haar``, ``bspline2-tight``, ``daubechies:3``, ``mixed13``.
"""

from __future__ import annotations

import math

import numpy as np

from .construct import build_dual
from .errors import PreconditionError
from .framelet import DualFramelet, FilterBank, derive_wavelets
from .funcmodel import FunctionHandle, RefinableFunction, bspline
from .quasiproj import QuasiProjectionPair
from .sequences import MatrixSeq

__all__ = [
    "bspline_mask",
    "daubechies_mask",
    "cdf13_mask",
    "resolve_function",
    "resolve_pair",
    "resolve_bank",
    "resolve_framelet",
    "pair_fleet",
    "bank_names",
]


def bspline_mask(m: int) -> MatrixSeq:
    """Binomial mask of the order-m B-spline, normalized to sum one."""
    if m < 1:
        raise PreconditionError("B-spline order must be a positive integer")
    return MatrixSeq.scalar(0, [math.comb(m, k) * 2.0**-m for k in range(m + 1)])


def daubechies_mask(k: int) -> MatrixSeq:
    """Orthonormal masks with k zeros at pi (extremal-phase), sum one."""
    if k == 1:
        return MatrixSeq.scalar(0, [0.5, 0.5])
    if k == 2:
        s = math.sqrt(3.0)
        return MatrixSeq.scalar(0, np.array([1 + s, 3 + s, 3 - s, 1 - s]) / 8.0)
    if k == 3:
        s10 = math.sqrt(10.0)
        t = math.sqrt(5.0 + 2.0 * s10)
        h = np.array(
            [
                1 + s10 + t,
                5 + s10 + 3 * t,
                10 - 2 * s10 + 2 * t,
                10 - 2 * s10 - 2 * t,
                5 + s10 - 3 * t,
                1 + s10 - t,
            ]
        )
        return MatrixSeq.scalar(0, h / 32.0)
    raise PreconditionError(f"no stored mask for daubechies:{k} (have k = 1, 2, 3)")


def cdf13_mask() -> MatrixSeq:
    """Six-tap mask biorthogonal to the Haar mask, three zeros at pi.

    Centered so that ``sum_k h(k) c(k + 2m) = delta_m / 2`` against the Haar
    taps h = (1/2, 1/2); the refinable solution has support [-2, 3].
    """
    return MatrixSeq.scalar(-2, np.array([-1.0, 1.0, 8.0, 8.0, 1.0, -1.0]) / 16.0)


def _shift_by_one(s: MatrixSeq) -> MatrixSeq:
    return MatrixSeq(s.offset + 1, s.entries)


def bank_names() -> list[str]:
    return ["haar", "bspline2-tight", "daubechies:3", "mixed13"]


def resolve_bank(spec: str) -> FilterBank:
    """Named filter banks (all with the identity theta)."""
    if spec == "haar":
        half = MatrixSeq.scalar(0, [0.5, 0.5])
        diff = MatrixSeq.scalar(0, [0.5, -0.5])
        return FilterBank(a=half, a_tilde=half, b=diff, b_tilde=diff)
    if spec == "bspline2-tight":
        # hat-function tight frame with two generators
        a = bspline_mask(2)
        r2 = math.sqrt(2.0) / 4.0
        b = MatrixSeq(
            0,
            np.array(
                [
                    [[r2], [-0.25]],
                    [[0.0], [0.5]],
                    [[-r2], [-0.25]],
                ]
            ),
        )
        return FilterBank(a=a, a_tilde=a, b=b, b_tilde=b)
    if spec == "daubechies:3":
        a = daubechies_mask(3)
        taps = a.entries[:, 0, 0]
        b = MatrixSeq.scalar(0, [(-1.0) ** j * taps[5 - j] for j in range(6)])
        return FilterBank(a=a, a_tilde=a, b=b, b_tilde=b)
    if spec == "mixed13":
        # biorthogonal pair: six-tap primal mask against the Haar dual mask;
        # each high-pass filter is the shifted alternation of the other side's
        # low-pass, so one wavelet gets one vanishing moment and the other three
        a = cdf13_mask()
        a_tilde = MatrixSeq.scalar(0, [0.5, 0.5])
        b = _shift_by_one(a_tilde.modulated().conj_flip())
        b_tilde = _shift_by_one(a.modulated().conj_flip())
        return FilterBank(a=a, a_tilde=a_tilde, b=b, b_tilde=b_tilde)
    raise PreconditionError(f"unknown bank {spec!r} (have {', '.join(bank_names())})")


def resolve_framelet(spec: str, level: int = 12) -> DualFramelet:
    """A named bank attached to its scaling functions, wavelets derived."""
    bank = resolve_bank(spec)
    if spec == "haar":
        phi = phi_tilde = bspline(1)
    elif spec == "bspline2-tight":
        phi = phi_tilde = bspline(2)
    elif spec == "daubechies:3":
        phi = phi_tilde = RefinableFunction(daubechies_mask(3), level=level)
    else:  # mixed13
        phi = RefinableFunction(cdf13_mask(), level=level)
        phi_tilde = bspline(1)
    return derive_wavelets(bank, phi, phi_tilde)


def resolve_function(spec: str, level: int = 12) -> FunctionHandle:
    """Turn a builtin specifier into a concrete function handle."""
    if spec == "haar":
        return bspline(1)
    if spec.startswith("bspline:"):
        try:
            m = int(spec.split(":", 1)[1])
        except ValueError:
            raise PreconditionError(f"malformed B-spline order in {spec!r}") from None
        return bspline(m)
    if spec.startswith("daubechies:"):
        try:
            k = int(spec.split(":", 1)[1])
        except ValueError:
            raise PreconditionError(f"malformed order in {spec!r}") from None
        return RefinableFunction(daubechies_mask(k), level=level)
    raise PreconditionError(f"unknown builtin {spec!r}")


def resolve_pair(spec: str, level: int = 12) -> QuasiProjectionPair:
    """Self-dual pair from a single specifier (orthonormal reading)."""
    f = resolve_function(spec, level)
    return QuasiProjectionPair(f, f)


def pair_fleet(level: int = 12) -> list[tuple[str, QuasiProjectionPair]]:
    """The standard battery of pairs exercised by the identity checks."""
    fleet = [
        ("b1,b1", resolve_pair("bspline:1", level)),
        ("b2,b2", resolve_pair("bspline:2", level)),
        ("b3,b3", resolve_pair("bspline:3", level)),
    ]
    for m in (2, 3):
        dual = build_dual(bspline(m), m).phi_tilde
        fleet.append((f"b{m},dual{m}", QuasiProjectionPair(bspline(m), dual)))
    fleet.append(("d2,d2", resolve_pair("daubechies:2", level)))
    fleet.append(("d3,d3", resolve_pair("daubechies:3", level)))
    return fleet
