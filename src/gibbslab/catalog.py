"""Named masks, functions, filter banks, and primal/dual pairs used across
tests and the CLI.

The builtin names are the keys of ``_FAMILIES`` and ``_BANKS``, the one list
of them (case-sensitive):

  * ``bspline:m``     -- the cardinal B-spline of order m = 1..9 (exact piecewise poly)
  * ``daubechies:k``  -- the orthonormal scaling function with k = 1..3 mask zeros at pi
  * ``haar``          -- ``bspline:1``, the indicator of (0, 1]

Bank specifiers: ``haar``, ``bspline2-tight``, ``daubechies:3``, ``mixed13``.
"""

from __future__ import annotations

import math
from contextlib import suppress

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


# family -> its function of an order at a level
_FAMILIES = {
    "bspline": lambda m, level: bspline(m),
    "daubechies": lambda k, level: RefinableFunction(daubechies_mask(k), level=level),
}


def _tight(a: MatrixSeq, b: MatrixSeq) -> FilterBank:
    """The bank whose dual filters are its primal ones."""
    return FilterBank(a=a, a_tilde=a, b=b, b_tilde=b)


def _hat_tight_bank() -> FilterBank:
    # hat-function tight frame with two generators
    r2 = math.sqrt(2.0) / 4.0
    return _tight(bspline_mask(2), MatrixSeq(0, np.array([[[r2], [-0.25]], [[0.0], [0.5]], [[-r2], [-0.25]]])))


def _d3_bank() -> FilterBank:
    a = daubechies_mask(3)
    taps = a.entries[:, 0, 0]
    return _tight(a, MatrixSeq.scalar(0, [(-1.0) ** j * taps[5 - j] for j in range(6)]))


def _mixed13_bank() -> FilterBank:
    # biorthogonal pair: six-tap primal mask against the Haar dual mask;
    # each high-pass filter is the shifted alternation of the other side's
    # low-pass, so one wavelet gets one vanishing moment and the other three
    a, a_tilde = cdf13_mask(), MatrixSeq.scalar(0, [0.5, 0.5])
    b, b_tilde = (low.modulated().conj_flip() for low in (a_tilde, a))
    return FilterBank(a, a_tilde, MatrixSeq(b.offset + 1, b.entries), MatrixSeq(b_tilde.offset + 1, b_tilde.entries))


# bank name -> (its filters, its (phi, phi_tilde) at a level); ``(f,) * 2``
# is one object for both sides (all banks have the identity theta)
_BANKS = {
    "haar": (
        lambda: _tight(MatrixSeq.scalar(0, [0.5, 0.5]), MatrixSeq.scalar(0, [0.5, -0.5])),
        lambda level: (bspline(1),) * 2,
    ),
    "bspline2-tight": (_hat_tight_bank, lambda level: (bspline(2),) * 2),
    "daubechies:3": (_d3_bank, lambda level: (RefinableFunction(daubechies_mask(3), level=level),) * 2),
    "mixed13": (_mixed13_bank, lambda level: (RefinableFunction(cdf13_mask(), level=level), bspline(1))),
}


def bank_names() -> list[str]:
    return list(_BANKS)


def resolve_bank(spec: str) -> FilterBank:
    """The named filter bank."""
    if spec not in _BANKS:
        raise PreconditionError(f"unknown bank {spec!r} (have {', '.join(_BANKS)})")
    return _BANKS[spec][0]()


def resolve_framelet(spec: str, level: int = 12) -> DualFramelet:
    """A named bank attached to its scaling functions, wavelets derived."""
    return derive_wavelets(resolve_bank(spec), *_BANKS[spec][1](level))


def _spec_integer(spec: str, what: str) -> int:
    """k of ``spec`` = 'name:k', in its one spelling: ASCII digits with no sign,
    space, underscore or leading zero.  Anything else is a malformed ``what``."""
    digits = spec.partition(":")[2]
    if digits.isascii() and digits.isdigit() and (digits == "0" or digits[0] != "0"):
        with suppress(ValueError):  # more digits than int() converts
            return int(digits)
    raise PreconditionError(f"malformed {what} in {spec!r}")


def resolve_function(spec: str, level: int = 12) -> FunctionHandle:
    """Turn a builtin specifier into a concrete function handle."""
    name = "bspline:1" if spec == "haar" else spec
    family, colon, _ = name.partition(":")
    if not colon or family not in _FAMILIES:
        raise PreconditionError(f"unknown builtin {spec!r}")
    return _FAMILIES[family](_spec_integer(name, "order"), level)


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
