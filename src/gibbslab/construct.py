"""Construction of piecewise-constant duals that kill the overshoot.

Given a nonnegative scalar function phi with unit mass whose shifts reproduce
polynomials up to degree m-1, we build a piecewise-constant phi_tilde whose
moments match the reciprocal-symbol numbers

    d_j = i^j [1 / conj(phihat)]^(j)(0),

which is exactly the moment condition making the pair reach accuracy order m.
The dual is assembled as

    phi_tilde = eta - eta(1 + .) + indicator((N-1, N])

with eta piecewise constant on [N, N+1]; the telescoping form makes the
integer shifts of phi_tilde sum to one identically, and N is chosen so both
key half-line integrals fall in [0, 1], which together with phi >= 0 rules
out any overshoot at the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, PreconditionError
from .funcmodel import (
    FunctionHandle,
    PiecewisePoly,
    _grid_min,
    _sample_table,
    _synthesis,
    fhat_deriv0,
    function_to_json_dict,
)
from .gibbs import _item_i, _verdict
from .quasiproj import QuasiProjectionPair

__all__ = [
    "DualConstruction",
    "reciprocal_moments",
    "build_dual",
    "verify_gibbs_free",
    "optimality_witness",
]


@dataclass(frozen=True)
class DualConstruction:
    """Everything produced by one run of the dual construction."""

    m: int
    d: np.ndarray
    N: int
    knots: np.ndarray
    c: np.ndarray
    phi_tilde: PiecewisePoly
    diagnostics: dict

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "d": list(map(float, self.d)),
            "N": self.N,
            "knots": list(map(float, self.knots)),
            "c": list(map(float, self.c)),
            "phi_tilde": function_to_json_dict(self.phi_tilde),
            "diagnostics": self.diagnostics,
        }


def reciprocal_moments(phi: FunctionHandle, m: int) -> np.ndarray:
    """d_0..d_{m-1} from the power-series reciprocal of conj(phihat) at 0.

    With g(xi) = conj(phihat(xi)) = sum g_j xi^j (g_0 = 1 required), the
    reciprocal series r solves r_0 = 1, r_n = -sum_{k>=1} g_k r_{n-k}, and
    d_j = i^j j! r_j.  The d_j must come out real for real-valued phi.
    """
    if phi.ncomponents != 1:
        raise PreconditionError("the dual construction handles scalar functions only")
    if m < 1:
        raise PreconditionError("order m must be a positive integer")
    g = [complex(np.conj(fhat_deriv0(phi, j))[0]) / math.factorial(j) for j in range(m)]
    if abs(g[0] - 1.0) > 1e-9:
        raise PreconditionError(f"unit mass required: phihat(0) = {g[0]:.6g}")
    r = [1.0 + 0.0j]
    for n in range(1, m):
        r.append(-sum(g[k] * r[n - k] for k in range(1, n + 1)))
    d = np.array([(1j**j) * math.factorial(j) * r[j] for j in range(m)])
    worst = float(np.max(np.abs(d.imag)))
    if worst > 1e-10:
        raise ConvergenceError("reciprocal moments came out nonreal", residual=worst)
    return d.real


def _default_knots(N: int, m: int) -> np.ndarray:
    return N + np.arange(m) / (m - 1) if m >= 2 else np.array([float(N)])


def _power_integral(a: np.ndarray, b: np.ndarray, j: int) -> np.ndarray:
    """integral_a^b x^j dx, elementwise."""
    return (b ** (j + 1) - a ** (j + 1)) / (j + 1)


def build_dual(phi: FunctionHandle, m: int, knot_rule=None) -> DualConstruction:
    """Construct the order-m piecewise-constant dual of a nonnegative phi.

    knot_rule(N, m) may supply the m interior grid x_0 < ... < x_{m-1} with
    x_0 = N, x_{m-1} = N + 1 (default: equally spaced).  The linear system for
    the eta levels matches moments 1..m-1; its solution is unique for any
    strictly increasing knots.
    """
    d = reciprocal_moments(phi, m)
    if _grid_min(phi) < -1e-10:
        raise PreconditionError("construction needs a nonnegative primal function")

    N = int(math.floor(d[1] + 0.5)) if m >= 2 else 1
    knots = np.asarray(knot_rule(N, m) if knot_rule else _default_knots(N, m), dtype=np.float64)
    if m >= 2:
        if knots.shape != (m,) or not np.all(np.diff(knots) > 0):
            raise PreconditionError("knots must be m strictly increasing points")
        if abs(knots[0] - N) > 1e-12 or abs(knots[-1] - (N + 1)) > 1e-12:
            raise PreconditionError(f"knots must run from {N} to {N + 1}")

    if m == 1:
        c = np.zeros(0)
        pieces = np.array([[[1.0]]])
        bp = np.array([float(N - 1), float(N)])
    else:
        a, b = knots[:-1], knots[1:]
        A = np.zeros((m - 1, m - 1))
        rhs = np.zeros(m - 1)
        for j in range(1, m):
            A[j - 1] = _power_integral(a, b, j) - _power_integral(a - 1.0, b - 1.0, j)
            rhs[j - 1] = d[j] - _power_integral(np.float64(N - 1), np.float64(N), j)
        try:
            c = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError:
            raise PreconditionError("knot system is singular") from None
        residual = float(np.max(np.abs(A @ c - rhs)))
        if residual > 1e-9 * max(1.0, float(np.max(np.abs(rhs)))):
            raise ConvergenceError("knot system solved badly", residual=residual)
        # phi_tilde = eta - eta(1+.) + indicator((N-1, N]); on [N-1, N] the
        # two non-eta terms give 1 - c_k on the shifted cells
        bp = np.concatenate([knots - 1.0, knots[1:]])
        pieces = np.concatenate([1.0 - c, c])[:, None, None]

    phi_tilde = PiecewisePoly(bp, pieces)

    mt = [float(phi_tilde.moment(j)[0]) for j in range(m)]
    moment_residuals = [abs(mt[j] - d[j]) for j in range(m)]
    # sum_k phi_tilde(x - k) at x = i 2^-8, i < 2^8: one period of the partition of unity
    acc = _synthesis(_sample_table(phi_tilde, 8), 0, 2**8, 1, 0, np.ones((1, 1)))
    partition_residual = float(np.max(np.abs(acc - 1.0)))
    diagnostics = {
        "moment_residuals": moment_residuals,
        "partition_residual": partition_residual,
    }
    if max(moment_residuals) > 1e-10:
        raise ConvergenceError(
            "constructed dual fails moment matching", residual=max(moment_residuals)
        )
    return DualConstruction(m, d, N, knots, c, phi_tilde, diagnostics)


def verify_gibbs_free(construction: DualConstruction, phi: FunctionHandle) -> dict:
    """Check the two half-line integrals that drive the no-overshoot proof,
    then measure the actual overshoot of the constructed pair (R0, L0 and the
    :func:`~gibbslab.gibbs._verdict` at shift 0, level 12, tol 1e-9)."""
    pt = construction.phi_tilde
    N = construction.N
    right = float(pt.integral(float(N), float(N + 1))[0])
    left = float(pt.integral(float(N - 1), float(N))[0])
    tol = 1e-9
    in_range = -tol <= right <= 1 + tol and -tol <= left <= 1 + tol
    if construction.m >= 2:
        # consistency with the closed form d_1 - N + 1/2
        expected = float(construction.d[1]) - N + 0.5
        in_range = in_range and abs(right - expected) < 1e-9
    pair = QuasiProjectionPair(phi, pt)
    item_i = _item_i(pair)
    R0, L0, _, verdict = _verdict(pair, [0.0], tol, 12, False)
    return {
        "integral_right": right,
        "integral_left": left,
        "integrals_in_range": bool(in_range),
        "item_i": item_i,
        "R0": R0,
        "L0": L0,
        "gibbs_free": bool(in_range and item_i and verdict == "no-gibbs"),
    }


def optimality_witness(obj) -> dict:
    """Evaluate [phitildehat]'(2 pi k) for 0 < |k| <= 3; "violated" means one
    exceeds 1e-8 in modulus.

    Order-m matching with a dual supported on two cells cannot also flatten
    the symbol's derivative at the nonzero even-pi frequencies once m >= 3;
    this measures that obstruction.  Accepts a :class:`DualConstruction` or a
    :class:`PiecewisePoly`; anything else raises :class:`PreconditionError`.
    """
    if isinstance(obj, DualConstruction):
        if obj.m < 3:
            return {"applicable": False, "violated": None, "worst_k": None, "values": {}}
        pt = obj.phi_tilde
    elif isinstance(obj, PiecewisePoly):
        pt = obj
    else:
        raise PreconditionError(f"the witness needs a DualConstruction or a PiecewisePoly, got {type(obj).__name__}")
    values = {}
    for k in range(-3, 4):
        if k == 0:
            continue
        values[k] = complex(pt.fourier(2.0 * math.pi * k, deriv=1)[0])
    worst_k = max(values, key=lambda k: abs(values[k]))
    return {
        "applicable": True,
        "violated": bool(abs(values[worst_k]) > 1e-8),
        "worst_k": worst_k,
        "values": {str(k): [v.real, v.imag] for k, v in values.items()},
    }
