"""Alternating-minimization solver for the block rate-distortion trade-off
with causal (feed-forward) reconstruction.

For a Lagrange weight lam >= 0 the solver alternates between the closed-form
channel update

    r(x̂^n|x^n) = q(x̂^n||x^{n-s}) 2^{-lam d} / sum_{x̂^n} q 2^{-lam d}

and the causal-kernel update q = causal factorization of p*r, tracking the
stopping statistic F (which bounds the gap between the per-iteration lower
and upper bounds on the rate by exactly F/n).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .models import DistortionTensor, FeedForwardMap
from .prob import (
    BlockSource,
    CausalKernel,
    ForwardChannel,
    JointBlockPmf,
    causal_factors_from_joint,
    causal_kernel_from_joint,
)


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of a single solve.

    lam trades rate against distortion (slope -lam/n on the curve); epsilon is
    the stopping threshold on F in bits; delay s is the feed-forward lag.
    """

    lam: float
    epsilon: float = 1e-6
    max_iters: int = 100_000
    delay: int = 1
    feedforward_map: FeedForwardMap | None = None
    keep_trace: bool = False

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.delay < 1:
            raise ValueError("delay must be >= 1")


@dataclass(frozen=True)
class IterationDiagnostics:
    """Per-iteration state of the solver.

    ``c`` is the elementwise ratio of consecutive kernels over conditioning
    contexts, ``gamma`` the reciprocal tilted-kernel sums, ``F`` the stopping
    statistic, ``K_value`` the Lagrangian I + lam*E[d] in bits, and
    (lower_bound, upper_bound) the per-symbol rate sandwich with gap F/n.
    """

    k: int
    c: np.ndarray = field(repr=False)
    gamma: np.ndarray = field(repr=False)
    F: float
    K_value: float
    D: float
    lower_bound: float
    upper_bound: float
    channel_probs: np.ndarray | None = field(default=None, repr=False)
    kernel_probs: np.ndarray | None = field(default=None, repr=False)


@dataclass(frozen=True)
class RatePoint:
    """A converged (or capped) point on the R_n(D) curve."""

    lam: float
    D: float
    R: float
    iterations: int
    converged: bool
    channel: ForwardChannel = field(repr=False)
    kernel: CausalKernel = field(repr=False)
    F_final: float = 0.0
    lower_bound: float = 0.0
    upper_bound: float = 0.0
    trace: tuple = field(default=(), repr=False)

    def __post_init__(self):
        if self.R < -1e-12 or self.D < -1e-12:
            raise ValueError("rate and distortion must be nonnegative")


class _Step(NamedTuple):
    """One alternating-minimization step taken from a kernel table q."""

    r: np.ndarray  # channel: the rows of q * weight, normalized
    rows: np.ndarray  # row sums of q * weight; 1/gamma when the weight is the tilt
    joint: np.ndarray  # p * r
    q_next: np.ndarray  # causal kernel of the joint
    factors: list
    # the rest only when the step is given the distortion values
    c: np.ndarray | None = None  # q_next / q
    log_max_c: float | None = None  # max log2 c over contexts carrying joint mass
    mean_logc: float | None = None  # E[log2 c] under the joint
    D: float | None = None

    def diagnostics(self, p: np.ndarray, lam: float, n: int, k: int) -> IterationDiagnostics:
        """Stopping statistic, Lagrangian and rate bounds of a tilt step."""
        base = -lam * self.D - float(p @ np.log2(self.rows))
        upper = (base - self.mean_logc) / n
        lower = (base - self.log_max_c) / n
        return IterationDiagnostics(k=k, c=self.c, gamma=1.0 / self.rows,
                                    F=self.log_max_c - self.mean_logc,
                                    K_value=n * upper + lam * self.D, D=self.D,
                                    lower_bound=lower, upper_bound=upper)


def _channel(q: np.ndarray, weight: np.ndarray):
    """Rows of q * weight normalized, and their sums."""
    num = q * weight
    rows = num.sum(axis=1)
    return num / rows[:, None], rows


def _step(q: np.ndarray, weight: np.ndarray, p: np.ndarray, n: int, A: int, B: int,
          s: int, fmap: np.ndarray | None, dvals: np.ndarray | None = None) -> _Step:
    """Channel update r = q * weight / rows, then the causal kernel of p * r.

    The weight is the tilt 2^{-lam d} in the solver and p' in certificate
    reconstruction.  Given the distortion values the step also returns c =
    q_next / q, the max of log2 c over contexts with positive joint mass, the
    mean of log2 c under the joint, and D.  Kernel entries on abandoned
    branches can underflow to exact zero; they carry no joint mass and are
    left out of both the max and the mean (restricted-support convention).
    """
    r, rows = _channel(q, weight)
    joint = p[:, None] * r
    q_next, factors, mass = causal_factors_from_joint(joint, n, A, B, s, fmap)
    if dvals is None:
        return _Step(r, rows, joint, q_next, factors)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = q_next / q
        logc = np.log2(c)
        finite = np.isfinite(logc)
        ctx = (A ** (n - s), A**s, B**n)
        in_context = (mass > 0.0).reshape(ctx[0], 1, ctx[2]) & finite.reshape(ctx)
        log_max_c = float(logc.reshape(ctx).max(where=in_context, initial=-np.inf))
        mean_logc = float((joint * logc).sum(where=(joint > 0.0) & finite))
    D = float((joint * dvals).sum())
    return _Step(r, rows, joint, q_next, factors, c, log_max_c, mean_logc, D)


def update_r(kernel: CausalKernel, distortion: DistortionTensor, lam: float) -> ForwardChannel:
    """Closed-form channel minimizing the Lagrangian for a fixed kernel."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r, rows = _channel(kernel.probs, np.exp2(-lam * distortion.values))
    if not np.all(rows > 0):
        raise FloatingPointError("degenerate update denominator; kernel not positive?")
    return ForwardChannel(n=kernel.n, src_alphabet_size=kernel.src_alphabet_size,
                          rec_alphabet_size=kernel.rec_alphabet_size, probs=r)


def update_q(source: BlockSource, channel: ForwardChannel, s: int,
             ff_map: FeedForwardMap | None = None) -> CausalKernel:
    """Causal kernel induced by the joint p*r — the minimizer over kernels."""
    joint = JointBlockPmf.from_source_and_channel(source, channel)
    return causal_kernel_from_joint(joint, s, None if ff_map is None else ff_map.table)


def diagnostics(prev_kernel: CausalKernel, next_kernel: CausalKernel,
                source: BlockSource, channel: ForwardChannel,
                distortion: DistortionTensor, lam: float, k: int) -> IterationDiagnostics:
    """Stopping statistic, Lagrangian, and rate bounds for one iteration.

    ``channel`` is the update produced from ``prev_kernel``; ``next_kernel``
    the causal kernel of the resulting joint.  Both are recomputed here by
    the solver step from ``prev_kernel``.  The bounds sandwich the true
    per-symbol rate at the realized distortion, and upper - lower = F/n.
    """
    if np.any(prev_kernel.probs <= 0):
        raise ValueError("previous kernel must be strictly positive")
    st = _step(prev_kernel.probs, np.exp2(-lam * distortion.values), source.probs,
               source.n, source.src_alphabet_size, channel.rec_alphabet_size,
               prev_kernel.delay, prev_kernel.ff_map, distortion.values)
    return st.diagnostics(source.probs, lam, source.n, k)


def _check_initial_kernel(kernel: CausalKernel, n: int, A: int, B: int, s: int,
                          fmap: np.ndarray | None) -> None:
    if (kernel.n, kernel.src_alphabet_size, kernel.rec_alphabet_size) != (n, A, B):
        raise ValueError(f"initial kernel is for n={kernel.n}, |X|={kernel.src_alphabet_size}, "
                         f"|X̂|={kernel.rec_alphabet_size}; the solve has n={n}, |X|={A}, |X̂|={B}")
    if kernel.delay != s:
        raise ValueError(f"initial kernel has delay {kernel.delay}; the solve has delay {s}")
    same_map = (kernel.ff_map is None if fmap is None
                else kernel.ff_map is not None and np.array_equal(kernel.ff_map, fmap))
    if not same_map:
        raise ValueError("initial kernel has a different feed-forward map than the solve")
    if not np.all(kernel.probs > 0.0):
        raise ValueError("initial kernel must be strictly positive")


def solve(source: BlockSource, distortion: DistortionTensor,
          config: SolverConfig, initial_kernel: CausalKernel | None = None) -> RatePoint:
    """Run the alternating minimization from the uniform kernel, or from
    ``initial_kernel``.

    Iterates channel and kernel updates until the stopping statistic F drops
    below ``config.epsilon`` (then the reported rate is within epsilon of the
    true optimum at the realized distortion) or the iteration cap is hit.
    An initial kernel must match the solve's block length, delay, alphabets
    and feed-forward map and be strictly positive, so that the bounds hold
    from the first iterate; only its table is used.
    """
    n, A = source.n, source.src_alphabet_size
    B = distortion.rec_alphabet_size
    s = min(config.delay, n)
    fmap = None if config.feedforward_map is None else config.feedforward_map.table
    p = source.probs
    dvals = distortion.values
    tilt = np.exp2(-config.lam * dvals)

    if initial_kernel is None:
        q = np.full((A**n, B**n), float(B) ** (-n))
    else:
        _check_initial_kernel(initial_kernel, n, A, B, s, fmap)
        q = initial_kernel.probs
    trace: list[IterationDiagnostics] = []
    converged = False
    for k in range(1, config.max_iters + 1):
        st = _step(q, tilt, p, n, A, B, s, fmap, dvals)
        diag = st.diagnostics(p, config.lam, n, k)
        if config.keep_trace:
            trace.append(replace(diag, channel_probs=st.r, kernel_probs=st.q_next))
        q = st.q_next
        if diag.F < config.epsilon:
            converged = True
            break

    channel = ForwardChannel(n=n, src_alphabet_size=A, rec_alphabet_size=B, probs=st.r)
    kernel = CausalKernel(n, s, A, B, q, tuple(st.factors),
                          None if fmap is None else np.asarray(fmap))
    # The per-symbol directed information of the final pair equals the upper
    # bound exactly (algebraic identity), and the bound form stays finite
    # when abandoned branches have underflowed.
    return RatePoint(lam=config.lam, D=diag.D, R=max(diag.upper_bound, 0.0), iterations=diag.k,
                     converged=converged, channel=channel, kernel=kernel,
                     F_final=diag.F, lower_bound=diag.lower_bound,
                     upper_bound=diag.upper_bound, trace=tuple(trace))


def solve_classical(source: BlockSource, distortion: DistortionTensor,
                    config: SolverConfig) -> RatePoint:
    """Textbook alternating minimization over the block (no feed-forward).

    Maintains the reconstruction marginal m(x̂^n) directly — the special case
    the causal solver reduces to at delay s = n — and is implemented
    independently of :func:`solve` to serve as a regression reference.
    """
    n, A = source.n, source.src_alphabet_size
    B = distortion.rec_alphabet_size
    p = source.probs
    dvals = distortion.values
    tilt = np.exp2(-config.lam * dvals)

    m = np.full(B**n, float(B) ** (-n))
    trace: list[IterationDiagnostics] = []
    converged = False
    r = None
    for k in range(1, config.max_iters + 1):
        num = m[None, :] * tilt
        denom = num.sum(axis=1, keepdims=True)
        r = num / denom
        m_next = p @ r
        with np.errstate(divide="ignore", invalid="ignore"):
            c = m_next / m
            logc = np.log2(c)
        w = p[:, None] * r
        finite = np.isfinite(logc)
        mask = (w.sum(axis=0) > 0.0) & finite
        log_max_c = float(np.max(logc[mask]))
        wmask = (w > 0.0) & finite[None, :]
        mean_logc = float((w[wmask] * np.broadcast_to(logc, w.shape)[wmask]).sum())
        F = log_max_c - mean_logc
        D = float((w * dvals).sum())
        gamma = 1.0 / denom[:, 0]
        base = -config.lam * D + float(p @ np.log2(gamma))
        upper = (base - mean_logc) / n
        lower = (base - log_max_c) / n
        if config.keep_trace:
            trace.append(IterationDiagnostics(
                k=k, c=c, gamma=gamma, F=F, K_value=n * upper + config.lam * D,
                D=D, lower_bound=lower, upper_bound=upper,
                channel_probs=r, kernel_probs=np.broadcast_to(m_next, (A**n, B**n)).copy()))
        m = m_next
        if F < config.epsilon:
            converged = True
            break

    channel = ForwardChannel(n=n, src_alphabet_size=A, rec_alphabet_size=B, probs=r)
    kernel = causal_kernel_from_joint(
        JointBlockPmf.from_source_and_channel(source, channel), n)
    return RatePoint(lam=config.lam, D=D, R=max(upper, 0.0), iterations=k,
                     converged=converged, channel=channel, kernel=kernel,
                     F_final=F, lower_bound=lower, upper_bound=upper,
                     trace=tuple(trace))
