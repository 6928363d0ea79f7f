"""Alternating-minimization solver for the block rate-distortion trade-off
with causal (feed-forward) reconstruction.

For a Lagrange weight lam >= 0 every iteration is one step: the closed-form
channel update

    r(x̂^n|x^n) = q(x̂^n||x^{n-s}) 2^{-lam d} / sum_{x̂^n} q 2^{-lam d},

the causal-kernel update q = causal factorization of p*r, and the stopping
statistic F (which bounds the gap between the per-iteration lower and upper
bounds on the rate by exactly F/n).  The step is written once, in
``_step_stack``, on the kernels' context tables (``prob._Contexts``) of a
stack of solves.  ``solve`` runs it on a stack of one and ``curves.sweep``
on a stack of points; the channel reconstruction in ``dual`` takes the same
step, on a stack of one, with p' as its weight.

The step writes every table into a workspace (``_Workspace``) that a stack
of solves builds once and reuses at every iteration, so a step allocates no
table.  The workspace also holds the step's prebuilt lists of calls, the
factorization's (``prob._FactorSpace``) and the kernel product's into each
of its two kernel tables, with every view made once; a step runs them, and
one test on the context mass tells both the factorization and the stopping
statistic whether any context is empty.  A step's arrays are valid until
the next step given the same workspace, and a finished point copies the
tables it keeps.  A call without a workspace gets a fresh one.

The step writes no full (|X|^n, |X̂|^n) table: neither the channel nor the
joint p * r.  Every table after the weight is context-sized, because the
kernel is constant over the s newest source symbols: the row sums, the
prefix mass the factorization reads and D are contractions of the weight
against q and p / rows.  A point builds its channel (q * weight) / rows
once, from its last step's input kernel (``_channel``).  The step writes
with ``out=`` and in place, and reduces with ufunc reductions
(``np.add.reduce(x, axis=..., out=...)``): they give the bits of ``x.sum``
and ``np.sum``, without the Python-level dispatch of those, which costs more
than a small step's arithmetic.  Its dots (``_dot``: the row sums, D,
E[log2 c] and E_p[log2 rows]) write no table and run over pieces of at most
10,000 entries added in a fixed order; OpenBLAS runs a dot of that size on
one thread.  Every sum of the step is taken in an order fixed by the
array's shape alone, for a stack of one as for a larger one, so no answer
depends on the BLAS thread count.
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
    _check_dims,
    _Contexts,
    _FactorSpace,
    _product_buffers,
    _product_calls,
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

    ``channel`` is the channel of the last step's input kernel, and
    ``kernel`` is that step's output, the kernel of the channel's joint.
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
    tables q, member axis first; a lone solve is a stack of one.

    Its arrays keep the member axis, and its statistics are lists of one
    Python float per member.  The step holds no channel and no joint;
    ``_channel`` builds the channel from q and the weight, and p times it
    is the joint.
    """

    rows: np.ndarray  # row sums of q * weight; 1/gamma when the weight is the tilt
    q_next: np.ndarray  # causal kernel of the joint, as a context table
    factors: list
    # the rest only when the step is given the weighted distortion
    log_max_c: list | None = None  # max log2 c over contexts carrying joint mass
    mean_logc: list | None = None  # E[log2 c] under the joint
    D: list | None = None
    mean_log_rows: list | None = None  # E_p[log2 rows]


#: Entries of the pieces ``_dot`` takes its dots in: OpenBLAS splits a
#: longer dot across threads, which changes the order of its sum.
_DOT_PIECE = 10_000


def _dot(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The sum of a * b over the last axis, broadcast over the others.

    ``np.vecdot`` takes it in pieces of at most ``_DOT_PIECE`` entries,
    added in order, so its bits depend on neither the broadcast shape nor
    the BLAS thread count.  It writes no table.  A dot of one piece takes
    no slices, whose views cost more than a small dot.
    """
    if a.shape[-1] <= _DOT_PIECE:
        return np.vecdot(a, b, out=out)
    total = np.vecdot(a[..., :_DOT_PIECE], b[..., :_DOT_PIECE], out=out)
    for start in range(_DOT_PIECE, a.shape[-1], _DOT_PIECE):
        piece = slice(start, start + _DOT_PIECE)
        total += np.vecdot(a[..., piece], b[..., piece])
    return total


def _dots(a: np.ndarray, b: np.ndarray) -> list:
    """Each member's sum of a * b, for a stack ``a`` of L members, member
    axis first, and ``b`` of a's shape or of one member's: ``_dot`` over the
    flattened members.  A dot, as ``np.add.reduce`` gave R = 2.96e-16, not
    0, on a one-letter |X̂| at n = 3."""
    a = a.reshape(a.shape[0], -1)
    return _dot(a, b.reshape(-1, a.shape[1])).tolist()  # b: (L, M) or (1, M)


def _diagnostics(lam: float, n: int, k: int, mean_log_rows: float, log_max_c: float,
                 mean_logc: float, D: float) -> IterationDiagnostics:
    """Stopping statistic, Lagrangian and rate bounds from one tilt step's
    statistics, ``mean_log_rows`` being E_p[log2 rows] of its row sums."""
    base = -lam * D - mean_log_rows
    upper = (base - mean_logc) / n
    lower = (base - log_max_c) / n
    return IterationDiagnostics(k, log_max_c - mean_logc, n * upper + lam * D, D, lower, upper)


def _channel(q: np.ndarray, weight: np.ndarray, ctx: _Contexts) -> tuple:
    """The (|X|^n, |X̂|^n) channel (q * weight) / rows of one kernel context
    table q, as a fresh table, and the (|X|^n,) row sums it is divided by.
    They are ufunc sums of the table, not the step's dots, so they may
    differ from the step's ``rows`` in the last bit."""
    src = q if ctx.rows is None else q[ctx.rows]
    r = np.empty(weight.shape)
    num = r.reshape(src.shape[0], ctx.A**ctx.s, -1)
    np.multiply(src[:, None, :], weight.reshape(num.shape), num)
    rows = np.add.reduce(num, axis=-1)
    num /= rows[..., None]
    return r, rows.ravel()


class _Workspace:
    """The solver step for a stack of L kernel context tables on ``ctx``,
    built once: a buffer for every table ``_step_stack`` writes, overwritten
    by each step given them, and the step's lists of calls.  ``factors`` is
    the factorization's space (``prob._FactorSpace``), whose ``prefix`` the
    step writes the prefix mass into; ``rows`` is a view of the row sums in
    the (L, |X|^n) shape a step returns.  No buffer is a full table.

    The next kernel goes to one of the two ``tables``: the one that does not
    hold the kernel the step started from, so a step may read its input
    kernel while writing the next.  ``products[k]`` multiplies the new
    factors out into ``tables[k]``, with its partial products in views of
    ``logc``, which the step writes only after them.
    """

    __slots__ = ("src", "row_sums", "scale", "row_d", "log_rows", "rows", "logc", "live",
                 "factors", "tables", "products")

    def __init__(self, ctx: _Contexts, L: int):
        n, A, B, s, Z = ctx.n, ctx.A, ctx.B, ctx.s, ctx.Z
        self.src = None if ctx.rows is None else np.empty((L, A ** (n - s), B**n))
        self.factors = _FactorSpace(ctx, L)
        # (L, |X|^{n-s}, |X|^s): row sums, p / rows, the rows' sums of
        # q * weight * d, and log2 rows
        self.row_sums, self.scale, self.row_d, self.log_rows = (
            np.empty((L, A ** (n - s), A**s)) for _ in range(4))
        self.rows = self.row_sums.reshape(L, A**n)
        self.logc = np.empty((L, Z ** (n - s), B**n))
        self.live = np.empty(self.logc.shape, dtype=bool)
        self.tables = (np.empty(self.logc.shape), np.empty(self.logc.shape))
        products = _product_buffers(ctx, L, self.logc)
        self.products = tuple(_product_calls(self.factors.factors, ctx, table, products)
                              for table in self.tables)


def _step_stack(q: np.ndarray, weight: np.ndarray, p: np.ndarray, ctx: _Contexts,
                wd: np.ndarray | None = None, ws: _Workspace | None = None) -> _Step:
    """The causal kernel of the joint p * r of the channel r = q * weight /
    rows, for a stack of L kernels at once.

    q holds the kernels' (Z^{n-s}, |X̂|^n) context tables (see
    ``prob._Contexts``) as an (L, Z^{n-s}, |X̂|^n) array, broadcast over the
    s newest source symbols as the full table is.  The weight is one
    (|X|^n, |X̂|^n) table for every member or an (L, |X|^n, |X̂|^n) stack:
    the tilt 2^{-lam d} in the solver, p' in certificate reconstruction.
    With w the weight as (|X|^{n-s}, |X|^s, |X̂|^n) and q' the context table
    of each source prefix, the step contracts w and never writes the joint:

        rows[c, t] = sum_x̂ q'[c, x̂] w[c, t, x̂]  (a ``_dot``),
        prefix[c, x̂] = q'[c, x̂] sum_t w[c, t, x̂] p[c, t] / rows[c, t],

    the prefix mass, the joint summed over the s newest symbols, which the
    factorization reads.  Each member goes through the operations of a
    one-member stack, and its sums run over its own entries, so its results
    are those of its own one-member stack bit for bit.

    The step's tables are written into ``ws`` (a fresh ``_Workspace`` when
    None) and are valid until the next step given it; q may be the previous
    step's ``q_next``.

    Given ``wd``, the weight times the distortion values in the weight's
    shape, the step also returns, per member and for c = q_next / q on the
    context table, the max of log2 c over contexts with positive joint mass
    N_n, the mean of log2 c under the joint, sum N_n log2 c, D = sum
    (p / rows) ``_dot``(q', wd) and E_p[log2 rows], the last three sums by
    ``_dots``.  Kernel entries on abandoned branches can underflow to exact
    zero; their contexts carry no joint mass and are left out of both the
    max and the mean (restricted-support convention).
    """
    L = q.shape[0]
    if ws is None:
        ws = _Workspace(ctx, L)
    src = q if ctx.rows is None else np.take(q, ctx.rows, axis=1, out=ws.src, mode="clip")
    shape = ws.row_sums.shape[1:] + (src.shape[-1],)
    w4 = weight.reshape((-1,) + shape)
    src4 = src[:, :, None, :]
    rows = _dot(src4, w4, ws.row_sums)
    scale = np.divide(p.reshape(shape[:2]), rows, ws.scale)
    prefix = np.einsum("lcsb,lcs->lcb", w4, scale, out=ws.factors.prefix)
    np.multiply(prefix, src, prefix)
    # the factorization's one test on N_n: True when every context is live
    live = ws.factors.factorize()
    # a view's base is the array that owns its memory
    k = 1 if q is ws.tables[0] or q.base is ws.tables[0] else 0
    for call in ws.products[k]:
        call()
    q_next, factors = ws.tables[k], ws.factors.factors
    if wd is None:
        return _Step(ws.rows, q_next, factors)
    mass, logc = ws.factors.mass, ws.logc
    if live:  # no mask
        np.divide(q_next, q, logc)
    else:
        live = np.greater(mass, 0.0, out=ws.live)
        logc.fill(1.0)
        np.divide(q_next, q, out=logc, where=live)
    np.log2(logc, logc)
    log_max_c = np.maximum.reduce(logc, axis=(1, 2), initial=-np.inf, where=live).tolist()
    # masked cells hold log2 1 = 0, so the mass-weighted log c sums to E[log2 c]
    mean_logc = _dots(logc, mass)
    D = _dots(scale, _dot(src4, wd.reshape(w4.shape), ws.row_d))
    mean_log_rows = _dots(np.log2(rows, ws.log_rows), p)
    return _Step(ws.rows, q_next, factors, log_max_c, mean_logc, D, mean_log_rows)


def _check_inputs(source: BlockSource, distortion: DistortionTensor,
                  ff_map: FeedForwardMap | None) -> None:
    _check_dims("distortion tensor", distortion, source, "the source has")
    if ff_map is not None and ff_map.domain_size != source.src_alphabet_size:
        raise ValueError(f"feed-forward map is defined on {ff_map.domain_size} symbols; "
                         f"the source alphabet has {source.src_alphabet_size}")


def _kernel_table(kernel: CausalKernel, ctx: _Contexts, fmap: np.ndarray | None,
                  what: str) -> np.ndarray:
    """The context table of a kernel given from outside, which must have the
    delay of ``ctx`` and the feed-forward map ``fmap`` (``ValueError``
    otherwise); the caller has checked its block length and alphabets."""
    if kernel.delay != ctx.s:
        raise ValueError(f"{what} has delay {kernel.delay}; the solve has delay {ctx.s}")
    same_map = (kernel.ff_map is None if fmap is None
                else kernel.ff_map is not None and np.array_equal(kernel.ff_map, fmap))
    if not same_map:
        raise ValueError(f"{what} has a different feed-forward map than the solve")
    return kernel.table


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
    feed-forward map and be strictly positive, so that the bounds hold from
    the first iterate.  The iteration is that of every solve the package
    runs, a lockstep of one (``_solve_lockstep``).
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

    q = np.empty((len(configs), ctx.Z ** (n - s), B**n))
    for j, kernel in enumerate(kernels):
        if kernel is None:
            q[j] = float(B) ** (-n)
        else:
            _check_dims("initial kernel", kernel, distortion, "expected")
            q[j] = _kernel_table(kernel, ctx, fmap, "initial kernel")
            if not np.all(q[j] > 0.0):
                raise ValueError("initial kernel must be strictly positive")
    tilt = np.stack([np.exp2(-cfg.lam * dvals) for cfg in configs])
    wd = tilt * dvals
    ws = _Workspace(ctx, len(configs))
    members = list(range(len(configs)))  # config index of each stack member
    traces = [_trace_buffer(cfg.max_iters) for cfg in configs]
    points: list = [None] * len(configs)
    end = len(configs)  # members from this config index on are cut
    for k in itertools.count(1):
        st = _step_stack(q, tilt, p, ctx, wd, ws)
        finished = False
        for pos, j in enumerate(members):
            cfg = configs[j]
            diag = _diagnostics(cfg.lam, n, k, st.mean_log_rows[pos], st.log_max_c[pos],
                                st.mean_logc[pos], st.D[pos])
            traces[j] = _record(traces[j], diag)
            if diag.F < cfg.epsilon or k == cfg.max_iters:
                finished = True
                points[j] = _point([f[pos] for f in st.factors], q[pos], tilt[pos], diag,
                                   cfg, ctx, fmap, traces[j])
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
        q, tilt, wd = st.q_next[keep], tilt[keep], wd[keep]
        ws = _Workspace(ctx, len(members))


def _point(factors: list, q: np.ndarray, weight: np.ndarray, diag: IterationDiagnostics,
           config: SolverConfig, ctx: _Contexts, fmap: np.ndarray | None,
           trace: np.ndarray) -> RatePoint:
    """The RatePoint of a solve whose last step, from the context table q
    with ``weight``, gave the kernel ``factors`` and the record ``diag``.

    The factors live in the solve's workspace, so the point copies them; its
    channel is built afresh from q (``_channel``).
    """
    channel = ForwardChannel(n=ctx.n, src_alphabet_size=ctx.A, rec_alphabet_size=ctx.B,
                             probs=_channel(q, weight, ctx)[0])
    kernel = CausalKernel(ctx.n, ctx.s, ctx.A, ctx.B, tuple(f.copy() for f in factors), fmap)
    # The per-symbol directed information of the final pair equals the upper
    # bound exactly (algebraic identity), and the bound form stays finite
    # when abandoned branches have underflowed.
    return RatePoint(lam=config.lam, D=diag.D, R=max(diag.upper_bound, 0.0),
                     iterations=diag.k, converged=diag.F < config.epsilon, channel=channel,
                     kernel=kernel, F_final=diag.F, lower_bound=diag.lower_bound,
                     upper_bound=diag.upper_bound, trace=_trace_array(trace[:diag.k]))
