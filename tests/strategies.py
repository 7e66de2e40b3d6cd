"""Hypothesis strategies shared by several test files."""

import math

import numpy as np
from hypothesis import strategies as st

from gibbslab.sequences import MatrixSeq


@st.composite
def spline_like_mask(draw, r):
    """A B-spline mask of order 2..4 convolved with a random three-tap factor
    summing to one, per component; for r = 2 the two components are mixed by
    a random invertible S (taps ``S diag(a1(k), a2(k)) S^-1``, normalization
    ``S (1, 1)``)."""
    comps = []
    for _ in range(r):
        m = draw(st.integers(2, 4))
        c0, c2 = draw(st.floats(-0.2, 0.2)), draw(st.floats(-0.2, 0.2))
        comps.append(np.convolve([math.comb(m, k) / 2**m for k in range(m + 1)], [c0, 1.0 - c0 - c2, c2]))
    kmin = draw(st.integers(-3, 2))
    if r == 1:
        return MatrixSeq.scalar(kmin, comps[0]), None
    n = max(len(c) for c in comps)
    D = np.zeros((n, 2, 2))
    for i, c in enumerate(comps):
        D[: len(c), i, i] = c
    S = np.array([[1.0, draw(st.floats(-0.5, 0.5))], [draw(st.floats(-0.5, 0.5)), 1.0]])
    return MatrixSeq(kmin, S @ D @ np.linalg.inv(S)), S @ np.ones(2)
