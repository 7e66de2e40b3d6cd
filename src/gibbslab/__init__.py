"""gibbslab: quasi-projection operators, Gibbs overshoot analysis, and framelets.

The package studies how shift-invariant quasi-projection approximations treat
jump discontinuities: whether truncated expansions overshoot near a jump, by
how much, and how to construct dual windows that avoid the overshoot entirely.
"""

from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    GibbsLabError,
    PreconditionError,
)
from .funcmodel import (
    FunctionHandle,
    PiecewisePoly,
    RefinableFunction,
    SampledFunction,
    bspline,
    cascade,
    fhat_deriv0,
    halfline_integral,
    inner_product,
)
from .sequences import MatrixSeq, SignLikeSeq, convolve, fourier_deriv, tail_convolve_sums
from .quasiproj import (
    GridSpec,
    Monomial,
    QuasiProjectionPair,
    Sgn,
    accuracy_order,
    apply,
    approximation_rate,
)
from .gibbs import (
    bracket_second_deriv,
    cluster_set,
    gibbs_at_point,
    identity_lhs,
    identity_rhs,
    overshoot,
    overshoot_curve,
)
from .construct import build_dual, verify_gibbs_free
from .framelet import (
    DualFramelet,
    FilterBank,
    derive_wavelets,
    framelet_gibbs_verdict,
    oep_check,
    truncated_expansion,
)
from .catalog import resolve_bank, resolve_framelet, resolve_function, resolve_pair

__version__ = "0.1.0"

__all__ = [
    "GibbsLabError",
    "PreconditionError",
    "DimensionMismatchError",
    "ConvergenceError",
    "MatrixSeq",
    "SignLikeSeq",
    "convolve",
    "fourier_deriv",
    "tail_convolve_sums",
    "PiecewisePoly",
    "RefinableFunction",
    "SampledFunction",
    "FunctionHandle",
    "bspline",
    "cascade",
    "fhat_deriv0",
    "halfline_integral",
    "inner_product",
    "GridSpec",
    "Sgn",
    "Monomial",
    "QuasiProjectionPair",
    "apply",
    "accuracy_order",
    "approximation_rate",
    "identity_lhs",
    "identity_rhs",
    "bracket_second_deriv",
    "overshoot",
    "overshoot_curve",
    "cluster_set",
    "gibbs_at_point",
    "build_dual",
    "verify_gibbs_free",
    "FilterBank",
    "DualFramelet",
    "derive_wavelets",
    "oep_check",
    "truncated_expansion",
    "framelet_gibbs_verdict",
    "resolve_function",
    "resolve_pair",
    "resolve_bank",
    "resolve_framelet",
    "__version__",
]
