"""Alternating-minimization solver for the block rate-distortion trade-off
with causal (feed-forward) reconstruction.

For a Lagrange weight lam >= 0 every iteration is one step: the closed-form
channel update

    r(x̂^n|x^n) = q(x̂^n||x^{n-s}) 2^{-lam d} / sum_{x̂^n} q 2^{-lam d},

the causal-kernel update q = causal factorization of p*r, and the stopping
statistic F (which bounds the gap between the per-iteration lower and upper
bounds on the rate by exactly F/n).  The step is written once, in
``_step_stack``, on the kernels' context tables (``prob._Contexts``) of a
stack of solves.  Every solve is a member of a ``_solve_lockstep`` call,
which alone checks the inputs and decides which solves step together (a
rolling stack, whose finished members hand their slots to the next
configs), where each starts from (``start``) and when one has converged.
``solve`` passes it one config and ``curves.sweep`` every weight; ``dual``
steps a stack of one with p' as its weight to rebuild a channel.  The step
returns the next kernel and leaves its factors and statistics in its
workspace.  A member keeps its steps' four statistics, 32 bytes a step,
and builds its trace once, when it finishes (``_trace``).

When a context carries no joint mass (its kernel entries underflowed to
0), the step divides the whole table anyway, puts log2 1 = 0 in that
context's cells (``np.putmask``) and takes a masked max only for a member
whose plain max is not positive; the factorization scans a level for such
contexts only when its least sum is 0.

The whole step is built once per stack as a workspace (``_Workspace``):
a buffer for every table it writes and its lists of calls, each a numpy
call with its operand views made, bound to the stack's weight, source and
tilt times distortion.  A stack builds it once, and again only when it
shrinks; a step (``_step_stack(ws)``) runs the prebuilt calls from the
workspace's input table ``ws.q`` into its other table, so it builds no
view and allocates no table.  A caller writes starts, restarts and
weights into the bound arrays in place.  The step's arrays are valid until
the next step in the same workspace; a finished point copies what it
keeps.  No buffer is a full (|X|^n, |X̂|^n) table: the row sums, the prefix
mass the factorization reads and D are contractions of the weight against
q and p / rows, and a point builds its channel once (``_channel``).
The step takes its dots in fixed pieces (``_dot_calls``).  Every sum of
the step is taken in an order fixed by the array's shape alone, for a
stack of one as for a larger one, so no answer depends on the BLAS thread
count.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import partial
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
    _whole,
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
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon!r}")
        # a fractional cap would never equal the iteration count
        for name in ("max_iters", "delay"):
            object.__setattr__(self, name, _whole(name, getattr(self, name), 1))


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


def _trace(lam: float, n: int, stats: array) -> np.recarray:
    """The read-only trace of a solve from its steps' statistics, four per
    step in ``_Workspace.stats`` order (log_max_c, mean_logc, D, mean_log_rows): each
    row is ``_diagnostics`` of its step, taken on the columns at once."""
    log_max_c, mean_logc, D, mean_log_rows = np.frombuffer(stats).reshape(-1, 4).T
    rows = np.empty(D.size, dtype=_TRACE_DTYPE)
    diag = _diagnostics(lam, n, np.arange(1, D.size + 1), mean_log_rows, log_max_c, mean_logc, D)
    for name, column in zip(diag._fields, diag):
        rows[name] = column
    trace = rows.view(np.recarray)
    trace.flags.writeable = False
    return trace


@dataclass(frozen=True)
class RatePoint:
    """A converged (or capped) point on the R_n(D) curve.

    ``trace`` holds one IterationDiagnostics row per iteration as a read-only
    numpy record array with fields k, F, K_value, D, lower_bound and
    upper_bound; its rows have attribute access (``pt.trace[-1].F``).  It is
    built once, when the solve finishes, and holds its own rows alone.

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
    F_final: float
    lower_bound: float
    upper_bound: float
    trace: np.recarray = field(repr=False)

    def __post_init__(self):
        if self.R < -1e-12 or self.D < -1e-12:
            raise ValueError("rate and distortion must be nonnegative")


#: Entries of the pieces a dot of the step is taken in (``_dot_calls``):
#: OpenBLAS splits a longer dot across threads, which changes the order of
#: its sum.
_DOT_PIECE = 10_000


def _dot_calls(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> list:
    """Calls that write the sum of a * b over the last axis, broadcast over
    the others, into ``out``.

    ``np.vecdot`` takes it in pieces of at most ``_DOT_PIECE`` entries: the
    first into ``out``, each later one into a buffer of out's shape, made
    here, and added to ``out`` in order.  So its bits depend on neither the
    broadcast shape nor the BLAS thread count, and the calls write no
    table.  A dot of one piece takes no slices.
    """
    k = a.shape[-1]
    if k <= _DOT_PIECE:
        return [partial(np.vecdot, a, b, out)]
    piece = np.empty(out.shape)
    calls = [partial(np.vecdot, a[..., :_DOT_PIECE], b[..., :_DOT_PIECE], out)]
    for start in range(_DOT_PIECE, k, _DOT_PIECE):
        part = slice(start, start + _DOT_PIECE)
        calls += [partial(np.vecdot, a[..., part], b[..., part], piece),
                  partial(np.add, out, piece, out)]
    return calls


def _dots_calls(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> list:
    """Calls that write each member's sum of a * b into ``out``, for a
    stack ``a`` of L members, member axis first, and ``b`` of a's shape or
    of one member's: ``_dot_calls`` over the flattened members.  A dot, as
    ``np.add.reduce`` gave R = 2.96e-16, not 0, on a one-letter |X̂| at
    n = 3."""
    a = a.reshape(a.shape[0], -1)
    return _dot_calls(a, b.reshape(-1, a.shape[1]), out)  # b: (L, M) or (1, M)


def _diagnostics(lam: float, n: int, k: int, mean_log_rows: float, log_max_c: float,
                 mean_logc: float, D: float) -> IterationDiagnostics:
    """Stopping statistic, Lagrangian and rate bounds from one tilt step's
    statistics, ``mean_log_rows`` being E_p[log2 rows] of its row sums; on
    arrays of steps' statistics, each element gets a lone step's bits."""
    base = -lam * D - mean_log_rows
    upper = (base - mean_logc) / n
    lower = (base - log_max_c) / n
    return IterationDiagnostics(k, log_max_c - mean_logc, n * upper + lam * D, D, lower, upper)


def _channel(q: np.ndarray, weight: np.ndarray, ctx: _Contexts) -> tuple:
    """The (|X|^n, |X̂|^n) channel (q * weight) / rows of one kernel context
    table q, as a fresh table, and the (|X|^n,) row sums it is divided by.
    They are ufunc sums of the table, not the step's dots, so they may
    differ from the step's row sums in the last bit."""
    src = q if ctx.rows is None else q[ctx.rows]
    r = np.empty(weight.shape)
    num = r.reshape(src.shape[0], ctx.A**ctx.s, -1)
    np.multiply(src[:, None, :], weight.reshape(num.shape), num)
    rows = np.add.reduce(num, axis=-1)
    num /= rows[..., None]
    return r, rows.ravel()


class _Workspace:
    """The solver step for a stack of L kernel context tables on ``ctx``
    with its weight, source and, when given, ``wd`` bound, built once: a
    buffer for every array ``_step_stack`` writes, overwritten by each step,
    and the lists of calls of the whole step, with every view made and
    every dot's pieces given their buffers when it is built.  A step runs
    the lists and builds no view and allocates no table.

    The weight is one (|X|^n, |X̂|^n) table for every member or an (L,
    |X|^n, |X̂|^n) stack: the tilt 2^{-lam d} in the solver, p' in
    certificate reconstruction; ``wd`` is the weight times the distortion
    values, in the weight's shape.  The workspace keeps views of the three
    arrays, not copies, so a caller changes a member's weight by writing
    into them in place.

    ``q`` is the input of the next step, one of the two ``tables``: a step
    reads it and writes the next kernel into the other, which becomes
    ``q``, so a caller writes a start into ``q`` in place.  ``factors`` is
    the factorization's space (``prob._FactorSpace``), whose ``prefix`` the
    step writes the prefix mass into and whose ``factors`` the kernel's
    factors; ``stats`` the step's four statistics, a row each, one column
    per member.  No buffer is a full table; the kernel product's partial
    products are views of ``logc``, which the step writes only after them.
    """

    __slots__ = ("k", "tables", "factors", "stats", "logc", "steps")

    def __init__(self, ctx: _Contexts, L: int, weight: np.ndarray, p: np.ndarray,
                 wd: np.ndarray | None = None):
        n, A, B, s, Z = ctx.n, ctx.A, ctx.B, ctx.s, ctx.Z
        self.k = 0  # the index of ``q`` in ``tables``
        self.factors = _FactorSpace(ctx, L)
        self.stats = np.empty((4, L))
        # (L, |X|^{n-s}, |X|^s): row sums, p / rows, the rows' sums of
        # q * weight * d, and log2 rows
        row_sums, scale, row_d, log_rows = (np.empty((L, A ** (n - s), A**s)) for _ in range(4))
        self.logc = np.empty((L, Z ** (n - s), B**n))
        dead = np.empty(self.logc.shape, dtype=bool)
        self.tables = (np.empty(self.logc.shape), np.empty(self.logc.shape))
        gathered = None if ctx.rows is None else np.empty((L, A ** (n - s), B**n))
        products = _product_buffers(ctx, L, self.logc)
        shape = row_sums.shape[1:] + (B**n,)
        w4 = weight.reshape((-1,) + shape)
        p2, prefix, mass = p.reshape(shape[:2]), self.factors.prefix, self.factors.mass
        logc, stats = self.logc, self.stats
        self.steps = []
        # steps[k]: from tables[k] into tables[1 - k]
        for q, q_next in (self.tables, self.tables[::-1]):
            # q', the row of q each source prefix reads: its class's with a map
            src = q if gathered is None else gathered
            src4 = src[:, :, None, :]
            channel = [] if gathered is None else [
                partial(np.take, q, ctx.rows, 1, gathered, "clip")]
            # the row sums, p / rows and the prefix mass
            channel += _dot_calls(src4, w4, row_sums)
            channel += [partial(np.divide, p2, row_sums, scale),
                        partial(np.einsum, "lcsb,lcs->lcb", w4, scale, out=prefix),
                        partial(np.multiply, prefix, src, prefix)]
            calls = (channel, _product_calls(self.factors.factors, ctx, q_next, products))
            if wd is None:
                calls += (None, None)
            else:
                # log2 c, whose dead cells the masked list sets to 1 first,
                # then the statistics; a masked max is retaken by the step
                divide = [partial(np.divide, q_next, q, logc)]
                masked = divide + [partial(np.equal, mass, 0.0, dead),
                                   partial(np.putmask, logc, dead, 1.0)]
                stat = [partial(np.log2, logc, logc),
                        partial(np.maximum.reduce, logc, (1, 2), None, stats[0])]
                stat += _dots_calls(logc, mass, stats[1])
                stat += _dot_calls(src4, wd.reshape(w4.shape), row_d)
                stat += _dots_calls(scale, row_d, stats[2])
                stat += [partial(np.log2, row_sums, log_rows)] + _dots_calls(log_rows, p, stats[3])
                calls += (divide + stat, masked + stat)
            self.steps.append(calls)

    @property
    def q(self) -> np.ndarray:
        """The (L, Z^{n-s}, |X̂|^n) kernel tables the next step reads."""
        return self.tables[self.k]


def _step_stack(ws: _Workspace) -> np.ndarray:
    """The causal kernel of the joint p * r of the channel r = q * weight /
    rows, for the stack of L kernels ``ws.q`` at once, with the weight and
    p bound in ``ws``; it returns the new ``ws.q``.

    q holds the kernels' (Z^{n-s}, |X̂|^n) context tables (see
    ``prob._Contexts``), broadcast over the s newest source symbols as the
    full table is.  With w the weight as (|X|^{n-s}, |X|^s, |X̂|^n) and q'
    the context table of each source prefix, the step contracts w and never
    writes the joint:

        rows[c, t] = sum_x̂ q'[c, x̂] w[c, t, x̂]  (a dot),
        prefix[c, x̂] = q'[c, x̂] sum_t w[c, t, x̂] p[c, t] / rows[c, t],

    the prefix mass, the joint summed over the s newest symbols, which the
    factorization reads.  Each member goes through the operations of a
    one-member stack, and its sums run over its own entries, so its results
    are those of its own one-member stack bit for bit.  The step runs the
    workspace's prebuilt lists of calls: it builds no view and allocates no
    table.  The next kernel's factors stay in ``ws.factors``; everything is
    valid until the next step given ``ws``.

    With ``wd`` bound, the step also writes into the rows of ``ws.stats``,
    per member and for c = q_next / q on the context table, the max of
    log2 c over contexts with positive joint mass N_n, the mean of log2 c
    under the joint, sum N_n log2 c, D = sum (p / rows) dot(q', wd) and
    E_p[log2 rows], the last three sums as dots.  Kernel entries on
    abandoned branches can underflow to exact zero; their contexts carry no
    joint mass and are left out of both the max and the mean
    (restricted-support convention): their cells of log2 c are set to 0 in
    place, and a member whose max over the whole table is not positive, so
    may be such a 0, has it retaken over the live cells.
    """
    k = ws.k
    channel, products, live_stats, masked_stats = ws.steps[k]
    ws.k = 1 - k
    for call in channel:
        call()
    # the factorization's one test on N_n: True when every context is live
    live = ws.factors.factorize()
    for call in products:
        call()
    q_next = ws.tables[1 - k]
    if live_stats is None:
        return q_next
    if live:
        for call in live_stats:
            call()
    else:  # a dead cell, of a context without joint mass, may divide by 0; it gets 1
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for call in masked_stats:
                call()
        # dead cells hold log2 1 = 0, so the mass-weighted log c sums to
        # E[log2 c], and a positive max is a live cell's; a max <= 0 is
        # retaken over live cells (~(max > 0) holds for a NaN max too)
        logc, mass, stats = ws.logc, ws.factors.mass, ws.stats
        for j in np.flatnonzero(~(stats[0] > 0.0)):
            stats[0, j] = np.maximum.reduce(logc[j], axis=None, initial=-np.inf,
                                            where=mass[j] > 0.0)
    return q_next


def _check_inputs(source: BlockSource, distortion: DistortionTensor,
                  ff_map: FeedForwardMap | None) -> None:
    _check_dims("distortion tensor", distortion, source, "the source has")
    if ff_map is not None and ff_map.domain_size != source.src_alphabet_size:
        raise ValueError(f"feed-forward map is defined on {ff_map.domain_size} symbols; "
                         f"the source alphabet has {source.src_alphabet_size}")


def solve(source: BlockSource, distortion: DistortionTensor,
          config: SolverConfig, initial_kernel: CausalKernel | None = None) -> RatePoint:
    """Run the alternating minimization from the uniform kernel, or from
    ``initial_kernel``, as a lockstep of one (``_solve_lockstep``).

    Iterates channel and kernel updates until the stopping statistic F drops
    below ``config.epsilon`` (then the reported rate is within epsilon of the
    true optimum at the realized distortion) or the iteration cap is hit.
    Every iteration appends its scalar IterationDiagnostics record to
    ``RatePoint.trace``.  The distortion tensor and the feed-forward map must
    be defined on the source's block length and alphabet (the lockstep
    checks them), and an initial kernel must match the solve's block
    length, delay, alphabets and feed-forward map and be strictly positive,
    so that the bounds hold from the first iterate (``ValueError`` otherwise).
    """
    start = None
    if initial_kernel is not None:
        _check_dims("initial kernel", initial_kernel, distortion, "expected")
        s, fmap = min(config.delay, source.n), config.feedforward_map
        if initial_kernel.delay != s:
            raise ValueError(f"initial kernel has delay {initial_kernel.delay}; "
                             f"the solve has delay {s}")
        # np.array_equal takes None as equal to None alone
        if not np.array_equal(initial_kernel.ff_map, None if fmap is None else fmap.table):
            raise ValueError("initial kernel has a different feed-forward map than the solve")
        start = initial_kernel.table
        if not np.all(start > 0.0):
            raise ValueError("initial kernel must be strictly positive")
    return _solve_lockstep(source, distortion, [config], [start])[0]


#: Cells (|X|^n * |X̂|^n per point) of the stack of solves
#: ``_solve_lockstep`` steps together.  Per point, a step of a stack this
#: large costs a fraction of a lone step at n <= 6, where numpy's per-call
#: overhead dominates; tables of this size or more are solved one at a time
#: (``BENCH_8.json``, ``budget``).
_STACK_CELLS = 2**14


#: Share of the uniform kernel mixed into a warm start.  It keeps the start
#: strictly positive; without it abandoned branches stay at exact zero and
#: neighbouring zero-rate points land on the same distortion.  A larger
#: share only costs iterations (1e-2 cost 19% more than 1e-6 on the
#: benchmark's sweeps).
WARM_START_MIX = 1e-6


def _warm_start(kernel: CausalKernel) -> np.ndarray:
    """The context table of ``kernel`` mixed with the uniform kernel by
    WARM_START_MIX, the start the solver reads: again a causal kernel's
    table (causal conditioning is a set of linear constraints on it), and
    strictly positive."""
    table = kernel.table
    table *= 1.0 - WARM_START_MIX
    table += WARM_START_MIX * float(kernel.rec_alphabet_size) ** (-kernel.n)
    return table


def _solve_lockstep(source: BlockSource, distortion: DistortionTensor, configs: list,
                    starts: list) -> list:
    """Solve one point per config, in config order, stepping as many of
    them together as fit ``_STACK_CELLS`` table cells, and at least one, as
    one stack of context tables.  The distortion tensor and the configs'
    shared feed-forward map must be defined on the source's block length
    and alphabet (``ValueError``); ``starts``, a strictly positive kernel
    context table or None per config, is not checked.

    A member leaves the stack when F drops below its tolerance, which alone
    makes its point converged, or at its cap.  Then one pass over the slots
    calls ``start``, the one rule of every start: a freed slot takes the
    next config, count from 1, and a running member restarts in place,
    count reset, once its donor is newer than the one it started from.  A
    config's donor is the nearest finished config before it whose lower
    bound is at most epsilon / n, at rate 0 as every smaller weight then is
    (``sweep`` passes descending weights).  A config starts from its given
    start, else from ``_warm_start`` of its donor, else uniform (a warm
    start at positive rate took up to 3.7 times the steps,
    ``BENCH_32.json``).  The stack, and its workspace, shrinks only once no
    config is left.  Each point is bit for bit its own lockstep of one from
    the start the rule gave it, so answers do not depend on the BLAS thread
    count, but a point without a given start may depend on ``_STACK_CELLS``.
    """
    config = configs[0]
    _check_inputs(source, distortion, config.feedforward_map)
    n, A, B = source.n, source.src_alphabet_size, distortion.rec_alphabet_size
    s = min(config.delay, n)
    fmap = None if config.feedforward_map is None else config.feedforward_map.table
    ctx = _Contexts.of(n, A, B, s, fmap)
    p, dvals = source.probs, distortion.values

    L = min(len(configs), max(1, _STACK_CELLS // dvals.size))
    tilt, wd = np.empty((L,) + dvals.shape), np.empty((L,) + dvals.shape)
    ws = _Workspace(ctx, L, tilt, p, wd)
    # each config's step statistics, four floats per step (``_trace``), and point
    stats, points = [None] * len(configs), [None] * len(configs)
    # the donor each config started from, -1 for uniform; a given start
    # counts as the config's own, later than any donor, so it never restarts
    origin = [-1] * len(configs)
    members = [-1] * L  # config index of each stack member, -1 before the first

    def start(pos: int, j: int) -> None:
        # config j into row pos of the stack the next step reads and of the
        # weights bound in its workspace, with its count from 1, unless it
        # runs there already and its donor is no newer than its origin
        i = next((i for i in range(j - 1, -1, -1) if points[i] is not None
                  and points[i].lower_bound <= configs[i].epsilon / n), -1)
        if members[pos] == j and i <= origin[j]:
            return
        if starts[j] is not None:
            origin[j], ws.q[pos] = j, starts[j]
        else:
            origin[j], ws.q[pos] = i, float(B) ** (-n) if i < 0 else _warm_start(points[i].kernel)
        members[pos], tilt[pos] = j, np.exp2(-configs[j].lam * dvals)
        np.multiply(tilt[pos], dvals, wd[pos])
        stats[j] = array("d")

    for j in range(L):
        start(j, j)
    queued = L  # the next config to admit
    while True:
        q_in = ws.q
        _step_stack(ws)
        finished = False
        for pos, (j, new) in enumerate(zip(members, ws.stats.T.tolist())):
            cfg, taken = configs[j], stats[j]
            taken.extend(new)
            # F = log_max_c - mean_logc, as ``_diagnostics`` takes it
            converged = new[0] - new[1] < cfg.epsilon
            if converged or len(taken) == 4 * cfg.max_iters:
                points[j] = _point([f[pos] for f in ws.factors.factors], q_in[pos], tilt[pos],
                                   _trace(cfg.lam, n, taken), converged, cfg, ctx, fmap)
                stats[j] = None  # the trace holds its rows now
                finished = True
        if not finished:
            continue
        for pos, j in enumerate(members):
            if points[j] is None:
                start(pos, j)
            elif queued < len(configs):  # the next takes the slot
                start(pos, queued)
                queued += 1
        keep = [pos for pos, j in enumerate(members) if points[j] is None]
        if len(keep) < len(members):
            if not keep:
                return points
            members = [members[pos] for pos in keep]
            q, tilt, wd = ws.q[keep], tilt[keep], wd[keep]
            del ws  # its lists hold the old weights; free them before the new build
            ws = _Workspace(ctx, len(keep), tilt, p, wd)
            ws.q[...] = q


def _point(factors: list, q: np.ndarray, weight: np.ndarray, trace: np.recarray,
           converged: bool, config: SolverConfig, ctx: _Contexts,
           fmap: np.ndarray | None) -> RatePoint:
    """The RatePoint of a solve whose last step, from the context table q
    with ``weight``, gave the kernel ``factors``, the last row of ``trace``
    and the lockstep's verdict ``converged``.  The factors live in the
    solve's workspace, so the point copies them; its channel is built
    afresh from q (``_channel``).
    """
    channel = ForwardChannel(n=ctx.n, src_alphabet_size=ctx.A, rec_alphabet_size=ctx.B,
                             probs=_channel(q, weight, ctx)[0])
    kernel = CausalKernel(ctx.n, ctx.s, ctx.A, ctx.B, tuple(f.copy() for f in factors), fmap)
    diag = IterationDiagnostics(*trace[-1].item())
    # The per-symbol directed information of the final pair equals the upper
    # bound exactly (algebraic identity), and the bound form stays finite
    # when abandoned branches have underflowed.
    return RatePoint(lam=config.lam, D=diag.D, R=max(diag.upper_bound, 0.0),
                     iterations=diag.k, converged=converged, channel=channel,
                     kernel=kernel, F_final=diag.F, lower_bound=diag.lower_bound,
                     upper_bound=diag.upper_bound, trace=trace)
