"""Rate-distortion with feed-forward for finite-alphabet stationary sources.

Computes the n-th order rate-distortion function R_n(D) by alternating
minimization over block channels and causal reconstruction kernels, verifies
results with lower-bound certificates and closed-form baselines, and
demonstrates achievability with a Monte-Carlo code-tree codec.
"""

from .analytic import (
    iid_binary_rd,
    inverse_binary_entropy,
    markov_rn,
    stock_market_rd,
)
from .curves import (
    RdCurve,
    default_lambda_grid,
    distortion_at_rate,
    rate_at_distortion,
    rate_estimator,
    subadditivity_check,
    sweep,
)
from .dual import (
    DualCertificate,
    FeasibilityReport,
    NonTightCertificateError,
    certificate_from_solution,
    check_feasibility,
    dual_objective,
    gamma_from_kernel,
    reconstruct_channel,
    slope_at,
)
from .models import (
    DistortionSpec,
    DistortionTensor,
    FeedForwardMap,
    SourceSpec,
    apply_feedforward_map,
    block_pmf,
    distortion_tensor,
    stationary_distribution,
)
from .prob import (
    BlockSource,
    CausalKernel,
    ForwardChannel,
    SupportError,
    binary_entropy,
    directed_information,
    kl_divergence,
)
from .sim import (
    Codebook,
    CodeTree,
    SimulationReport,
    decode_walk,
    encode,
    monte_carlo,
    sample_code_tree,
    sequence_distortion,
)
from .solver import (
    IterationDiagnostics,
    RatePoint,
    SolverConfig,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "BlockSource", "CausalKernel", "Codebook", "CodeTree", "DistortionSpec",
    "DistortionTensor", "DualCertificate", "FeasibilityReport",
    "FeedForwardMap", "ForwardChannel", "IterationDiagnostics",
    "NonTightCertificateError", "RatePoint", "RdCurve", "SimulationReport",
    "SolverConfig", "SourceSpec", "SupportError", "apply_feedforward_map",
    "binary_entropy", "block_pmf", "certificate_from_solution",
    "check_feasibility", "decode_walk", "default_lambda_grid",
    "directed_information", "distortion_at_rate", "distortion_tensor",
    "dual_objective", "encode", "gamma_from_kernel", "iid_binary_rd",
    "inverse_binary_entropy", "kl_divergence", "markov_rn", "monte_carlo",
    "rate_at_distortion", "rate_estimator", "reconstruct_channel",
    "sample_code_tree", "sequence_distortion", "slope_at", "solve",
    "stationary_distribution", "stock_market_rd", "subadditivity_check",
    "sweep",
]
