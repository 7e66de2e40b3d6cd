"""Finitely supported matrix sequences, sign-tailed sequences, and their Fourier calculus.

A :class:`MatrixSeq` models a bi-infinite sequence ``u: Z -> C^{r x s}`` that is
zero outside finitely many indices.  Its Fourier series is
``uhat(xi) = sum_k u(k) exp(-i k xi)``, so the j-th derivative is
``uhat^(j)(xi) = sum_k u(k) (-i k)^j exp(-i k xi)``.

A :class:`SignLikeSeq` models ``c(k) = c_inf * v(k) + f(k)`` where ``v(k) = 1``
for ``k >= 0`` and ``-1`` for ``k < 0``, and ``f`` is finitely supported.  Even
though ``c`` is not summable, ``c * d`` is finitely supported whenever
``dhat(0) = 0``, and its zeroth and first index moments have closed forms in
terms of ``dhat`` derivatives at 0; :func:`tail_convolve_sums` computes both
routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import DimensionMismatchError, PreconditionError

__all__ = [
    "MatrixSeq",
    "SignLikeSeq",
    "TailSums",
    "convolve",
    "fourier_deriv",
    "tail_convolve_sums",
]


def _as_entry_array(entries) -> np.ndarray:
    arr = np.asarray(entries, dtype=np.complex128)
    if arr.ndim == 1:  # scalar sequence given as a flat list
        arr = arr.reshape(-1, 1, 1)
    if arr.ndim != 3:
        raise DimensionMismatchError(
            f"entries must form an (n, r, s) array of matrices, got shape {arr.shape}"
        )
    return arr


@dataclass(frozen=True, eq=False)
class MatrixSeq:
    """Finitely supported sequence of complex r x s matrices.

    ``entries[i]`` is the matrix at index ``offset + i``.  Construction
    canonicalizes: all-zero matrices are trimmed from both ends, so two
    sequences are equal iff they have the same offset and entries.  A sequence
    that is identically zero is stored with empty entries and offset 0.
    """

    offset: int
    entries: np.ndarray

    def __post_init__(self):
        arr = _as_entry_array(self.entries)
        offset = int(self.offset)
        nz = np.flatnonzero(arr.any(axis=(1, 2)))
        if nz.size:
            arr = arr[nz[0] : nz[-1] + 1]
            offset += int(nz[0])
        else:
            arr = arr[:0]
            offset = 0
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "offset", offset)

    # -- basic structure ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.entries.shape[1], self.entries.shape[2])

    @property
    def support(self) -> tuple[int, int] | None:
        """(kmin, kmax) of the nonzero range, or None for the zero sequence."""
        if self.entries.shape[0] == 0:
            return None
        return (self.offset, self.offset + self.entries.shape[0] - 1)

    def indices(self) -> range:
        return range(self.offset, self.offset + self.entries.shape[0])

    def __getitem__(self, k: int) -> np.ndarray:
        i = k - self.offset
        if 0 <= i < self.entries.shape[0]:
            return self.entries[i]
        return np.zeros(self.shape, dtype=np.complex128)

    def max_abs(self) -> float:
        if self.entries.shape[0] == 0:
            return 0.0
        return float(np.max(np.abs(self.entries)))

    def allclose(self, other: "MatrixSeq", tol: float = 1e-12) -> bool:
        if self.shape != other.shape:
            return False
        diff = self - other
        return diff.max_abs() <= tol

    # -- constructors --------------------------------------------------------

    @classmethod
    def scalar(cls, offset: int, values: Iterable[complex]) -> "MatrixSeq":
        vals = [np.array([[v]], dtype=np.complex128) for v in values]
        if not vals:
            return cls.zero(1, 1)
        return cls(offset, np.stack(vals))

    @classmethod
    def dirac(cls, r: int) -> "MatrixSeq":
        return cls(0, np.eye(r, dtype=np.complex128)[None, :, :])

    @classmethod
    def zero(cls, r: int, s: int) -> "MatrixSeq":
        return cls(0, np.zeros((0, r, s), dtype=np.complex128))

    # -- algebra -------------------------------------------------------------

    def _binary(self, other: "MatrixSeq", sign: int) -> "MatrixSeq":
        if self.shape != other.shape:
            raise DimensionMismatchError(
                f"cannot combine sequences of shapes {self.shape} and {other.shape}"
            )
        if other.entries.shape[0] == 0:
            return self
        if self.entries.shape[0] == 0:
            return MatrixSeq(other.offset, sign * other.entries)
        lo = min(self.offset, other.offset)
        hi = max(self.offset + len(self.entries), other.offset + len(other.entries))
        out = np.zeros((hi - lo,) + self.shape, dtype=np.complex128)
        out[self.offset - lo : self.offset - lo + len(self.entries)] += self.entries
        out[other.offset - lo : other.offset - lo + len(other.entries)] += (
            sign * other.entries
        )
        return MatrixSeq(lo, out)

    def __add__(self, other: "MatrixSeq") -> "MatrixSeq":
        return self._binary(other, +1)

    def __sub__(self, other: "MatrixSeq") -> "MatrixSeq":
        return self._binary(other, -1)

    def __mul__(self, scalar: complex) -> "MatrixSeq":
        return MatrixSeq(self.offset, np.asarray(scalar) * self.entries)

    __rmul__ = __mul__

    def transposed(self) -> "MatrixSeq":
        """Entrywise transpose: u(k) -> u(k)^T."""
        return MatrixSeq(self.offset, np.transpose(self.entries, (0, 2, 1)))

    def conj_flip(self) -> "MatrixSeq":
        """k -> conj(u(-k)); its Fourier series is conj(uhat(xi))."""
        n = self.entries.shape[0]
        if n == 0:
            return self
        return MatrixSeq(-(self.offset + n - 1), np.conj(self.entries[::-1]))

    def modulated(self) -> "MatrixSeq":
        """k -> (-1)^k u(k); its Fourier series is uhat(xi + pi)."""
        signs = np.array(
            [(-1.0) ** (self.offset + i) for i in range(self.entries.shape[0])]
        )
        return MatrixSeq(self.offset, self.entries * signs[:, None, None])

    def upsampled(self, factor: int) -> "MatrixSeq":
        """Insert zeros: result at k*factor equals u(k); series is uhat(factor*xi)."""
        n = self.entries.shape[0]
        if n == 0:
            return self
        out = np.zeros(((n - 1) * factor + 1,) + self.shape, dtype=np.complex128)
        out[::factor] = self.entries
        return MatrixSeq(self.offset * factor, out)

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        r, s = self.shape
        ent = [
            [[float(z.real), float(z.imag)] for z in mat.reshape(-1)]
            for mat in self.entries
        ]
        return {"offset": int(self.offset), "shape": [r, s], "entries": ent}

    @classmethod
    def from_json_dict(cls, d: dict) -> "MatrixSeq":
        r, s = (int(v) for v in d.get("shape", [1, 1]))
        mats = []
        for flat in d["entries"]:
            z = np.array([complex(re, im) for re, im in flat], dtype=np.complex128)
            if z.size != r * s:
                raise DimensionMismatchError(
                    f"entry with {z.size} elements does not match shape {(r, s)}"
                )
            mats.append(z.reshape(r, s))
        if not mats:
            return cls.zero(r, s)
        return cls(int(d["offset"]), np.stack(mats))


def convolve(u: MatrixSeq, d: MatrixSeq) -> MatrixSeq:
    """Matrix convolution ``(u * d)(n) = sum_k u(n - k) d(k)``.

    Fourier side: ``(u * d)hat = uhat * dhat`` (matrix product in that order),
    so the inner dimensions must agree.
    """
    ru, su = u.shape
    rd, sd = d.shape
    if su != rd:
        raise DimensionMismatchError(
            f"convolution needs inner dimensions to match: {u.shape} * {d.shape}"
        )
    nu, nd = u.entries.shape[0], d.entries.shape[0]
    if nu == 0 or nd == 0:
        return MatrixSeq.zero(ru, sd)
    out = np.zeros((nu + nd - 1, ru, sd), dtype=np.complex128)
    for i in range(nu):
        # u[i] @ d.entries is a batched (r x s) @ (n, s, c) product
        out[i : i + nd] += np.einsum("ab,nbc->nac", u.entries[i], d.entries)
    return MatrixSeq(u.offset + d.offset, out)


def fourier_deriv(u: MatrixSeq, j: int, xi0: float = 0.0) -> np.ndarray:
    """j-th derivative of the Fourier series of ``u`` at ``xi0``.

    Returns ``sum_k u(k) (-i k)^j exp(-i k xi0)`` as an (r, s) matrix.
    """
    if not 0 <= j <= 8:
        raise PreconditionError(f"derivative order must satisfy 0 <= j <= 8, got {j}")
    n = u.entries.shape[0]
    if n == 0:
        return np.zeros(u.shape, dtype=np.complex128)
    k = np.arange(u.offset, u.offset + n, dtype=np.float64)
    w = (-1j * k) ** j * np.exp(-1j * k * xi0)
    return np.einsum("n,nab->ab", w, u.entries)


def _as_limit_matrix(limit, shape: tuple[int, int]) -> np.ndarray:
    arr = np.asarray(limit, dtype=np.complex128)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.shape != shape:
        raise DimensionMismatchError(
            f"limit matrix shape {arr.shape} does not match finite part shape {shape}"
        )
    return arr


@dataclass(frozen=True, eq=False)
class SignLikeSeq:
    """Sequence ``c(k) = limit * v(k) + finite_part(k)`` with ``v = sign(k >= 0)``.

    ``limit`` plays the role of the two-sided tail value: far to the right the
    sequence is ``+limit``, far to the left ``-limit``.
    """

    limit: np.ndarray
    finite_part: MatrixSeq = field(default_factory=lambda: MatrixSeq.zero(1, 1))

    def __post_init__(self):
        lim = _as_limit_matrix(self.limit, self.finite_part.shape)
        lim = np.ascontiguousarray(lim)
        lim.flags.writeable = False
        object.__setattr__(self, "limit", lim)

    @property
    def shape(self) -> tuple[int, int]:
        return self.finite_part.shape

    def at(self, k: int) -> np.ndarray:
        v = 1.0 if k >= 0 else -1.0
        return v * self.limit + self.finite_part[k]


@dataclass(frozen=True, eq=False)
class TailSums:
    """Both evaluation routes for the index sums of ``c * d``.

    ``sum0``/``sum1`` come from the explicitly computed finite convolution;
    ``closed0``/``closed1`` from derivatives of ``dhat`` at 0:

    - ``closed0 = -2i * c_inf @ dhat'(0)``
    - ``closed1 = i * c_inf @ dhat'(0) + c_inf @ dhat''(0) + i * fhat(0) @ dhat'(0)``
    """

    product: MatrixSeq
    sum0: np.ndarray
    sum1: np.ndarray
    closed0: np.ndarray
    closed1: np.ndarray


def tail_convolve_sums(c: SignLikeSeq, d: MatrixSeq) -> TailSums:
    """Convolve a sign-tailed sequence with ``d`` and sum the result two ways.

    Requires ``dhat(0) = 0`` (within 1e-12); otherwise ``c * d`` has
    non-decaying tails and the sums diverge.
    """
    pc, rc = c.shape
    rd, sd = d.shape
    if rc != rd:
        raise DimensionMismatchError(
            f"inner dimensions must match: c has shape {c.shape}, d has shape {d.shape}"
        )
    dhat0 = fourier_deriv(d, 0)
    if np.max(np.abs(dhat0)) > 1e-12:
        raise PreconditionError(
            f"dhat(0) must vanish for summable tails; |dhat(0)| = {np.max(np.abs(dhat0)):.3e}"
        )
    if d.support is None:
        zero = np.zeros((pc, sd), dtype=np.complex128)
        return TailSums(MatrixSeq.zero(pc, sd), zero, zero, zero, zero)

    dlo, dhi = d.support
    if c.finite_part.support is not None:
        flo, fhi = c.finite_part.support
        nlo, nhi = min(dlo, dlo + flo), max(dhi - 1, dhi + fhi)
    else:
        nlo, nhi = dlo, dhi - 1
    # rows nlo..nhi of c * d read c at nlo - dhi .. nhi - dlo only
    window = np.array([c.at(k) for k in range(nlo - dhi, nhi - dlo + 1)], dtype=np.complex128)
    full = convolve(MatrixSeq(nlo - dhi, window.reshape(-1, pc, rc)), d)
    stacked = np.array([full[n] for n in range(nlo, nhi + 1)], dtype=np.complex128).reshape(-1, pc, sd)
    product = MatrixSeq(nlo, stacked)

    ks = np.arange(nlo, nhi + 1, dtype=np.float64)
    sum0 = stacked.sum(axis=0)
    sum1 = np.einsum("n,nab->ab", ks, stacked)

    dh1 = fourier_deriv(d, 1)
    dh2 = fourier_deriv(d, 2)
    fhat0 = fourier_deriv(c.finite_part, 0)
    closed0 = -2j * (c.limit @ dh1)
    closed1 = 1j * (c.limit @ dh1) + c.limit @ dh2 + 1j * (fhat0 @ dh1)
    return TailSums(product, sum0, sum1, closed0, closed1)
