"""Alternating-minimization solver for the block rate-distortion trade-off
with causal (feed-forward) reconstruction.

For a Lagrange weight lam >= 0 every iteration is one step: the closed-form
channel update

    r(x̂^n|x^n) = q(x̂^n||x^{n-s}) 2^{-lam d} / sum_{x̂^n} q 2^{-lam d},

the causal-kernel update q = causal factorization of p*r, and the stopping
statistic F (which bounds the gap between the per-iteration lower and upper
bounds on the rate by exactly F/n).  The step is written once, in
``_step_stack``, on the kernels' context tables (``prob._Contexts``) of a
stack of solves.  ``solve`` runs it for one point and ``curves.sweep`` for a
stack of points; the certificate and the channel reconstruction in ``dual``
take the same step with their own weights.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .models import DistortionTensor, FeedForwardMap
from .prob import (
    BlockSource,
    CausalKernel,
    ForwardChannel,
    NORM_TOL,
    _context_factors,
    _Contexts,
)


def _check_lam(lam: float) -> None:
    # every comparison with NaN is false, so NaN is refused too
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"lam must be finite and >= 0, got {lam!r}")


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

    def __post_init__(self):
        _check_lam(self.lam)
        if not self.epsilon > 0:
            raise ValueError("epsilon must be > 0")
        # a whole float, as a JSON config file may give, is stored as an int;
        # a fractional cap would never equal the iteration count
        for name in ("max_iters", "delay"):
            value = getattr(self, name)
            if not float(value).is_integer():
                raise ValueError(f"{name} must be a whole number, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.delay < 1:
            raise ValueError("delay must be >= 1")


class IterationDiagnostics(NamedTuple):
    """Scalar record of one solver iteration.

    ``F`` is the stopping statistic, ``K_value`` the Lagrangian I + lam*E[d]
    in bits, and (lower_bound, upper_bound) the per-symbol rate sandwich
    with gap F/n.
    """

    k: int
    F: float
    K_value: float
    D: float
    lower_bound: float
    upper_bound: float


#: Row type of ``RatePoint.trace``: 48 bytes per iteration.
_TRACE_DTYPE = np.dtype([(name, np.int64 if name == "k" else np.float64)
                         for name in IterationDiagnostics._fields])


def _trace_array(rows: np.ndarray) -> np.recarray:
    """Read-only record-array view of ``_TRACE_DTYPE`` rows."""
    trace = rows.view(np.recarray)
    trace.flags.writeable = False
    return trace


def _trace_buffer(max_iters: int) -> np.ndarray:
    """An empty trace buffer for a solve; ``_record`` grows it as needed."""
    return np.empty(min(max_iters, 64), dtype=_TRACE_DTYPE)


def _record(rows: np.ndarray, diag: IterationDiagnostics) -> np.ndarray:
    """Write ``diag`` into row k - 1 of a trace buffer, doubling it when full."""
    if diag.k > rows.size:
        grown = np.empty(2 * rows.size, dtype=_TRACE_DTYPE)
        grown[:rows.size] = rows
        rows = grown
    rows[diag.k - 1] = diag
    return rows


@dataclass(frozen=True)
class RatePoint:
    """A converged (or capped) point on the R_n(D) curve.

    ``trace`` holds one IterationDiagnostics row per iteration as a read-only
    numpy record array with fields k, F, K_value, D, lower_bound and
    upper_bound; its rows have attribute access (``pt.trace[-1].F``).  It is
    a view of the first rows of the buffer the solve wrote them into, which
    doubles when full.
    """

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
    trace: np.recarray = field(default_factory=lambda: _trace_array(_trace_buffer(0)),
                               repr=False)

    def __post_init__(self):
        if self.R < -1e-12 or self.D < -1e-12:
            raise ValueError("rate and distortion must be nonnegative")


class _Step(NamedTuple):
    """One alternating-minimization step taken from a stack of kernel context
    tables q, member axis first.

    A step of a stack holds its statistics as lists of one Python float per
    member.  ``member(j)``, and so ``_step``, gives the lone step of one
    member: its arrays without the member axis and its statistics as floats.
    """

    r: np.ndarray  # channel: the rows of q * weight, normalized
    rows: np.ndarray  # row sums of q * weight; 1/gamma when the weight is the tilt
    joint: np.ndarray  # p * r
    q_next: np.ndarray  # causal kernel of the joint, as a context table
    factors: list
    # the rest only when the step is given the distortion values
    log_max_c: float | list | None = None  # max log2 c over contexts carrying joint mass
    mean_logc: float | list | None = None  # E[log2 c] under the joint
    D: float | list | None = None

    def member(self, j: int) -> "_Step":
        """The lone step of member j of a stack."""
        stats = (None,) * 3 if self.D is None else \
            (self.log_max_c[j], self.mean_logc[j], self.D[j])
        return _Step(self.r[j], self.rows[j], self.joint[j], self.q_next[j],
                     [f[j] for f in self.factors], *stats)


def _diagnostics(p: np.ndarray, lam: float, n: int, k: int, rows: np.ndarray,
                 log_max_c: float, mean_logc: float, D: float) -> IterationDiagnostics:
    """Stopping statistic, Lagrangian and rate bounds from one tilt step's values."""
    base = -lam * D - float(p @ np.log2(rows))
    upper = (base - mean_logc) / n
    lower = (base - log_max_c) / n
    return IterationDiagnostics(k, log_max_c - mean_logc, n * upper + lam * D, D, lower, upper)


def _channel(q: np.ndarray, weight: np.ndarray):
    """Rows of q * weight normalized, and their sums."""
    num = q * weight
    rows = num.sum(axis=-1)
    num /= rows[..., None]
    return num, rows


def _step_stack(q: np.ndarray, weight: np.ndarray, p: np.ndarray, ctx: _Contexts,
                dvals: np.ndarray | None = None) -> _Step:
    """Channel update r = q * weight / rows, then the causal kernel of p * r,
    for a stack of L kernels at once.

    q holds the kernels' (Z^{n-s}, |X̂|^n) context tables (see
    ``prob._Contexts``) as an (L, Z^{n-s}, |X̂|^n) array.  The channel
    broadcasts each over the s newest source symbols, which is the product
    with the full table entry by entry.  The weight is one (|X|^n, |X̂|^n)
    table for every member or an (L, |X|^n, |X̂|^n) stack: the tilt
    2^{-lam d} in the solver, p' in certificate reconstruction.  Each member
    goes through the operations of a lone step, and its sums and dot
    products run over its own entries, so its results are those of a lone
    step bit for bit.

    Given the distortion values the step also returns, per member and for
    c = q_next / q on the context table, the max of log2 c over contexts
    with positive joint mass N_n, the mean of log2 c under the joint,
    sum N_n log2 c, and D.  Kernel entries on abandoned branches can
    underflow to exact zero; their contexts carry no joint mass and are left
    out of both the max and the mean (restricted-support convention).
    """
    n, A, B, s = ctx.n, ctx.A, ctx.B, ctx.s
    L = q.shape[0]
    src = q if ctx.rows is None else q.take(ctx.rows, axis=1)
    shape = (A ** (n - s), A**s, B**n)
    r, rows = _channel(src[:, :, None, :], weight.reshape((-1,) + shape))
    joint = p.reshape(shape[:2] + (1,)) * r
    q_next, factors, mass = _context_factors(joint, ctx)
    r, rows, joint = (r.reshape(L, A**n, B**n), rows.reshape(L, A**n),
                      joint.reshape(L, A**n, B**n))
    if dvals is None:
        return _Step(r, rows, joint, q_next, factors)
    if np.count_nonzero(mass) == mass.size:  # every context is live: no mask
        live, logc = True, q_next / q
    else:
        live = mass > 0.0
        logc = np.divide(q_next, q, out=np.ones(q.shape), where=live)
    np.log2(logc, out=logc)
    if L == 1:  # whole-array reductions, without per-member lists to build
        log_max_c = [float(logc.max(where=live, initial=-np.inf))]
        mean_logc = [float(mass.ravel() @ logc.ravel())]
        D = [float((joint[0] * dvals).sum())]
    else:
        log_max_c = logc.max(axis=(1, 2), where=live, initial=-np.inf).tolist()
        mean_logc = [float(m @ c) for m, c in zip(mass.reshape(L, -1), logc.reshape(L, -1))]
        D = (joint * dvals).sum(axis=(1, 2)).tolist()
    return _Step(r, rows, joint, q_next, factors, log_max_c, mean_logc, D)


def _step(q: np.ndarray, weight: np.ndarray, p: np.ndarray, ctx: _Contexts,
          dvals: np.ndarray | None = None) -> _Step:
    """:func:`_step_stack` from one (Z^{n-s}, |X̂|^n) context table q."""
    return _step_stack(q[None], weight, p, ctx, dvals).member(0)


def _check_inputs(source: BlockSource, distortion: DistortionTensor,
                  ff_map: FeedForwardMap | None) -> None:
    n, A = source.n, source.src_alphabet_size
    if (distortion.n, distortion.src_alphabet_size) != (n, A):
        raise ValueError(f"distortion tensor is for n={distortion.n}, "
                         f"|X|={distortion.src_alphabet_size}; the source has n={n}, |X|={A}")
    if ff_map is not None and ff_map.domain_size != A:
        raise ValueError(f"feed-forward map is defined on {ff_map.domain_size} symbols; "
                         f"the source alphabet has {A}")


def _kernel_table(kernel: CausalKernel, ctx: _Contexts, what: str) -> np.ndarray:
    """The context table of a kernel given from outside.

    The kernel must have the block length and alphabets of ``ctx`` and be
    constant, to within NORM_TOL, over each context: over the s newest
    source symbols and over the preimage classes of the feed-forward map.
    Otherwise its context table would be a different kernel, so
    ``ValueError`` is raised instead.
    """
    n, A, B = ctx.n, ctx.A, ctx.B
    if (kernel.n, kernel.src_alphabet_size, kernel.rec_alphabet_size) != (n, A, B):
        raise ValueError(f"{what} is for n={kernel.n}, |X|={kernel.src_alphabet_size}, "
                         f"|X̂|={kernel.rec_alphabet_size}; expected n={n}, |X|={A}, |X̂|={B}")
    table = ctx.table(kernel.probs)
    if not np.allclose(ctx.full(table), kernel.probs, rtol=0.0, atol=NORM_TOL):
        raise ValueError(f"{what} depends on source symbols its contexts do not see "
                         f"(the {ctx.s} newest, or within a feed-forward map class)")
    return table


def _check_initial_kernel(kernel: CausalKernel, s: int, fmap: np.ndarray | None) -> None:
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
    Every iteration appends its scalar IterationDiagnostics record to
    ``RatePoint.trace``.  The distortion tensor and the feed-forward map must
    be defined on the source's block length and alphabet.  An initial
    kernel must match the solve's block length, delay, alphabets and
    feed-forward map, be strictly positive, so that the bounds hold from the
    first iterate, and be causal: constant over the source symbols its
    contexts do not see.  Only its table is used.  The iteration is that of
    every solve the package runs, a lockstep of one (``_solve_lockstep``).
    """
    return _solve_lockstep(source, distortion, [config], [initial_kernel])[0]


def _solve_lockstep(source: BlockSource, distortion: DistortionTensor, configs: list,
                    kernels: list) -> list:
    """Solve one point per config, as :func:`solve` would, stepping all of
    them together as one stack of context tables.

    The configs share the delay and the feed-forward map and may differ in
    the weight, tolerance and iteration cap; ``kernels`` holds one initial
    kernel or None per config.  All members take their k-th step together;
    a member leaves the stack when F drops below its tolerance or it reaches
    its cap, and its RatePoint is built then.  Every member's iterates, and
    so its point, are bit for bit those of its own solve.

    The configs are taken in order, as ``sweep`` passes them by descending
    weight: a member that finishes with a lower bound <= 0 takes every later
    member out of the stack, finished or not, and their entries in the
    returned list are None.  The entries that stay are the points before the
    first one whose lower bound is <= 0, and that point.
    """
    config = configs[0]
    _check_inputs(source, distortion, config.feedforward_map)
    n, A = source.n, source.src_alphabet_size
    B = distortion.rec_alphabet_size
    s = min(config.delay, n)
    fmap = None if config.feedforward_map is None else config.feedforward_map.table
    ctx = _Contexts.of(n, A, B, s, fmap)
    p = source.probs
    dvals = distortion.values

    # kernels are kept as context tables; the full table is built once each
    q = np.empty((len(configs), ctx.Z ** (n - s), B**n))
    for j, kernel in enumerate(kernels):
        if kernel is None:
            q[j] = float(B) ** (-n)
        else:
            q[j] = _kernel_table(kernel, ctx, "initial kernel")
            _check_initial_kernel(kernel, s, fmap)
    tilt = np.stack([np.exp2(-cfg.lam * dvals) for cfg in configs])
    members = list(range(len(configs)))  # config index of each stack member
    traces = [_trace_buffer(cfg.max_iters) for cfg in configs]
    points: list = [None] * len(configs)
    end = len(configs)  # members from this config index on are cut
    for k in itertools.count(1):
        st = _step_stack(q, tilt, p, ctx, dvals)
        finished = False
        for pos, j in enumerate(members):
            cfg = configs[j]
            diag = _diagnostics(p, cfg.lam, n, k, st.rows[pos], st.log_max_c[pos],
                                st.mean_logc[pos], st.D[pos])
            traces[j] = _record(traces[j], diag)
            if diag.F < cfg.epsilon or k == cfg.max_iters:
                finished = True
                points[j] = _point(st.member(pos), diag, cfg, ctx, fmap, traces[j],
                                   own=len(members) > 1)
                if diag.lower_bound <= 0.0:
                    end = j + 1  # the members after it are cut
                    break
        if not finished:
            q = st.q_next
            continue
        points[end:] = [None] * (len(configs) - end)
        keep = [pos for pos, j in enumerate(members) if j < end and points[j] is None]
        if not keep:
            return points
        members = [members[pos] for pos in keep]
        q, tilt = st.q_next[keep], tilt[keep]


def _point(st: _Step, diag: IterationDiagnostics, config: SolverConfig, ctx: _Contexts,
           fmap: np.ndarray | None, trace: np.ndarray, own: bool) -> RatePoint:
    """The RatePoint of a solve whose last step is ``st`` with record ``diag``.

    ``own`` copies the channel and the factors out of the step's stack, so
    the point does not keep the other members' tables alive.
    """
    r, factors = st.r, st.factors
    if own:
        r, factors = r.copy(), [f.copy() for f in factors]
    channel = ForwardChannel(n=ctx.n, src_alphabet_size=ctx.A, rec_alphabet_size=ctx.B,
                             probs=r)
    kernel = CausalKernel(ctx.n, ctx.s, ctx.A, ctx.B, ctx.full(st.q_next), tuple(factors),
                          None if fmap is None else np.asarray(fmap))
    # The per-symbol directed information of the final pair equals the upper
    # bound exactly (algebraic identity), and the bound form stays finite
    # when abandoned branches have underflowed.
    return RatePoint(lam=config.lam, D=diag.D, R=max(diag.upper_bound, 0.0),
                     iterations=diag.k, converged=diag.F < config.epsilon, channel=channel,
                     kernel=kernel, F_final=diag.F, lower_bound=diag.lower_bound,
                     upper_bound=diag.upper_bound, trace=_trace_array(trace[:diag.k]))
