"""Lockstep solves: a stack of kernel context tables steps as each of its
members would alone, and a rolling stack, whose finished members hand their
slots to the next configs and whose zero-rate points restart the configs
still running below them, gives each config the lone point from the start
its rule gave it (``oracles.rolling_lone_solves``).  ``sweep``, one rolling
stack, gives those points bit for bit within a bounded extra memory, and
each of its Lagrangian windows meets the cold lone solve's."""

import importlib.util
import itertools
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffrd import solver
from ffrd.curves import _dedup_sorted, default_lambda_grid, sweep
from ffrd.models import DistortionSpec, FeedForwardMap, SourceSpec, block_pmf, distortion_tensor
from ffrd.prob import _Contexts
from ffrd.solver import (
    _TRACE_DTYPE,
    SolverConfig,
    _diagnostics,
    _solve_lockstep,
    _step_stack,
    _warm_start,
    _Workspace,
    solve,
)

from helpers import kernel_from_joint, workspace_bytes
from oracles import rolling_lone_solves, trace_row_by_row

SHAPES = [(A, B, n) for A in (2, 3) for B in (2, 3) for n in range(1, 5)]
MAPS = [None, "identity", "parity"]
MARKOV = SourceSpec.binary_markov(0.3, 0.2)
HAMMING = DistortionSpec.hamming()


def _map(name, A):
    return None if name is None else getattr(FeedForwardMap, name)(A)


def _random_kernel_table(rng, ctx, ff_map, cell_zeros):
    """Context table of the causal kernel of a random joint with exact-zero
    cells, which gives the kernel exact zeros."""
    n, A, B = ctx.n, ctx.A, ctx.B
    joint = rng.dirichlet(np.ones(A**n * B**n)) * (rng.random(A**n * B**n) >= cell_zeros)
    if joint.sum() == 0.0:
        joint[rng.integers(joint.size)] = 1.0
    kernel = kernel_from_joint((joint / joint.sum()).reshape(A**n, B**n), n, A, B, ctx.s,
                               None if ff_map is None else ff_map.table)
    return kernel.table


def _step(q, weight, p, ctx, wd=None):
    """One step of the stack q in a workspace of its own: the next kernel
    tables, the kernel's factors and, given ``wd``, the statistics."""
    ws = _Workspace(ctx, len(q), weight, p, wd)
    ws.q[...] = q
    q_next = _step_stack(ws)
    return q_next, ws.factors.factors, None if wd is None else ws.stats


def _assert_same_member(stack, j, lone):
    """Member j of the stacked step ``stack`` is the one-member step ``lone``
    (each a ``_step``)."""
    (q_next, factors, stats), (lone_q, lone_factors, lone_stats) = stack, lone
    assert q_next[j].shape == lone_q[0].shape
    np.testing.assert_array_equal(q_next[j], lone_q[0])
    assert len(factors) == len(lone_factors)
    for a, b in zip(factors, lone_factors):
        assert a[j].shape == b[0].shape
        np.testing.assert_array_equal(a[j], b[0])
    # log_max_c, mean_logc, D, mean_log_rows of the member, or None
    assert (None if stats is None else stats[:, j].tolist()) == \
        (None if lone_stats is None else lone_stats[:, 0].tolist())


@settings(max_examples=80, deadline=None)
@given(shape=st.sampled_from(SHAPES), data=st.data())
def test_stacked_step_equals_lone_steps(shape, data):
    """Each member of a stacked step, with its own weight or with one shared
    weight, is the one-member step of its table bit for bit, statistics included."""
    A, B, n = shape
    s = data.draw(st.integers(1, n), label="s")
    ff_map = _map(data.draw(st.sampled_from(MAPS), label="map"), A)
    L = data.draw(st.integers(2, 4), label="L")
    lams = data.draw(st.lists(st.sampled_from([0.0, 1.0, 6.0, 40.0]), min_size=L, max_size=L),
                     label="lams")
    cell_zeros = data.draw(st.sampled_from([0.0, 0.5, 0.95]), label="cell_zeros")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    ctx = _Contexts.of(n, A, B, s, None if ff_map is None else ff_map.table)
    q = np.stack([_random_kernel_table(rng, ctx, ff_map, cell_zeros) for _ in range(L)])
    p = rng.dirichlet(np.ones(A**n))
    dvals = rng.integers(0, 9, size=(A**n, B**n)) / 8
    tilt = np.stack([np.exp2(-lam * dvals) for lam in lams])

    stack = _step(q, tilt, p, ctx, tilt * dvals)
    for j in range(L):
        _assert_same_member(stack, j, _step(q[j][None], tilt[j], p, ctx, tilt[j] * dvals))
    weight = rng.random((A**n, B**n)) + 0.1  # one weight for all, no statistics
    stack = _step(q, weight, p, ctx)
    for j in range(L):
        _assert_same_member(stack, j, _step(q[j][None], weight, p, ctx))


def _assert_same_point(a, b):
    assert (a.lam, a.D, a.R, a.iterations, a.converged, a.F_final, a.lower_bound,
            a.upper_bound) == (b.lam, b.D, b.R, b.iterations, b.converged, b.F_final,
                               b.lower_bound, b.upper_bound)
    np.testing.assert_array_equal(a.channel.probs, b.channel.probs)
    np.testing.assert_array_equal(a.kernel.probs, b.kernel.probs)
    for f, g in zip(a.kernel.factors, b.kernel.factors, strict=True):
        assert f.shape == g.shape
        np.testing.assert_array_equal(f, g)
    assert a.trace.tobytes() == b.trace.tobytes()


def _solve_from(source, dist, config, start):
    """The point of a lockstep of one from the start table ``start``."""
    return _solve_lockstep(source, dist, [config], [start])[0]


def _rolling(source, dist, configs, starts, members):
    """``oracles.rolling_lone_solves`` of the package's lone solve and warm
    start: the points, the starts and the steps of a stack of ``members``."""
    return rolling_lone_solves(_solve_from, _warm_start, source, dist, configs, starts, members)


def _serial_curve(source_spec, distortion_spec, n, grid, base, members):
    """The curve of ``grid`` solved one lone solve at a time by the rolling
    stack's rule with ``members`` slots, and the steps that stack takes.
    The points go to ``_dedup_sorted`` in config order, largest weight
    first, as ``sweep`` passes them: of two points with equal (D, R) the
    larger weight's is kept."""
    configs = [replace(base, lam=lam) for lam in sorted({float(lam) for lam in grid},
                                                        reverse=True)]
    points, _, steps = _rolling(block_pmf(source_spec, n), distortion_tensor(distortion_spec, n),
                                configs, [None] * len(configs), members)
    return _dedup_sorted(points), steps


def _counted_steps(run):
    """What ``run()`` returns and the ``_step_stack`` calls it made."""
    calls = []

    def counting(ws):
        calls.append(ws.q.shape[0])
        return _step_stack(ws)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_step_stack", counting)
        return run(), len(calls)


def _step_bench():
    """``tools/step_bench.py``, imported from its file."""
    spec = importlib.util.spec_from_file_location(
        "step_bench", Path(__file__).resolve().parents[1] / "tools" / "step_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_step_bench_hooks_count_every_lockstep_step():
    """``tools/step_bench.py``'s hooks (``counted_steps``), which its
    ``--answers`` counts of lockstep, member and masked steps read, count
    every step of a tiny sweep: Markov(0.3, 0.2) at n = 2 with a third
    letter x̂ = 2 that costs 40, at weights 4, 1 and 0.25, one stack of
    three.  The third letter's kernel entries underflow to 0 within a few
    steps, so the first steps are live and the rest masked.  The hooks see
    the steps the one-at-a-time reference's schedule takes, each step's
    width, and each step's factorization, masked as the step's own joint
    mass says; a renamed step entry or factorization would leave them
    counting nothing."""
    bench = _step_bench()
    dist = DistortionSpec.single_letter(np.array([[0.0, 1.0, 40.0], [1.0, 0.0, 40.0]]))
    grid, base = (4.0, 1.0, 0.25), SolverConfig(lam=0.0)
    seen = []  # (width, some context without joint mass) of each step
    with bench.counted_steps() as (widths, masked), pytest.MonkeyPatch.context() as mp:
        hooked = solver._step_stack

        def checking(ws):
            q = hooked(ws)
            seen.append((ws.q.shape[0], bool(np.any(ws.factors.mass == 0.0))))
            return q

        mp.setattr(solver, "_step_stack", checking)
        curve = sweep(MARKOV, dist, 2, grid, base)
    _, steps = _serial_curve(MARKOV, dist, 2, grid, base, len(grid))
    assert len(widths) == len(masked) == len(seen) == steps
    assert widths == [width for width, _ in seen]
    assert masked == [dead for _, dead in seen]
    assert 0 < sum(masked) < steps
    assert widths[0] == 3 and sum(widths) == sum(pt.iterations for pt in curve.points)


LAMBDA_POOL = [0.0, 0.125, 0.5, 0.9, 1.5, 3.0, 6.0, 16.0, 40.0]


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(SHAPES), data=st.data())
def test_sweep_equals_serial_sweep(shape, data):
    """For every stack width, including chunk edges and a zero-rate point
    in the middle of a stack, ``sweep`` returns the points of its rule
    solved one lone solve at a time."""
    A, B, n = shape
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    source = SourceSpec.markov(rng.dirichlet(np.ones(A), size=A))
    distortion = DistortionSpec.single_letter(rng.integers(0, 4, size=(A, B)) / 3)
    base = SolverConfig(lam=0.0, epsilon=data.draw(st.sampled_from([1e-3, 1e-6]), label="eps"),
                        max_iters=data.draw(st.sampled_from([1, 4, 60, 400]), label="cap"),
                        delay=data.draw(st.integers(1, n), label="s"),
                        feedforward_map=_map(data.draw(st.sampled_from(MAPS), label="map"), A))
    grid = data.draw(st.lists(st.sampled_from(LAMBDA_POOL), min_size=1, max_size=8),
                     label="grid")
    width = data.draw(st.sampled_from([1, 2, 3, 5]), label="width")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_STACK_CELLS", width * A**n * B**n)
        curve = sweep(source, distortion, n, grid, base)
    expected, _ = _serial_curve(source, distortion, n, grid, base, width)
    assert len(curve.points) == len(expected)
    for a, b in zip(curve.points, expected):
        _assert_same_point(a, b)


@pytest.mark.parametrize("width", [1, 2, 5, 24])
def test_default_grid_sweep_equals_serial_sweep(width, monkeypatch):
    """Markov(0.3, 0.2)/Hamming at n = 3: the point at 0.86 certifies rate 0
    after 461 iterations while 1.77 runs to 2,487, so wide stacks restart
    the members below it in their middle.  The stack takes the steps of
    the one-at-a-time reference's schedule."""
    monkeypatch.setattr(solver, "_STACK_CELLS", width * 64)
    base = SolverConfig(lam=0.0)
    curve, steps = _counted_steps(lambda: sweep(MARKOV, HAMMING, 3, config=base))
    expected, expected_steps = _serial_curve(MARKOV, HAMMING, 3, default_lambda_grid(), base,
                                             width)
    assert len(curve.points) == len(expected) == 24
    assert steps == expected_steps
    for a, b in zip(curve.points, expected):
        _assert_same_point(a, b)


def _window(pt, n):
    """The point's Lagrangian window [lower + lam D / n, upper + lam D / n],
    which holds the least Lagrangian at its weight at every iterate."""
    return pt.lower_bound + pt.lam * pt.D / n, pt.upper_bound + pt.lam * pt.D / n


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from(SHAPES), data=st.data())
def test_sweep_windows_meet_the_cold_solves(shape, data):
    """Whatever start its rule gave it, under budgets of 1 to 5 members,
    each point of a sweep brackets the least Lagrangian at its weight as
    the cold lone solve there does: the two windows meet, to 1e-12."""
    A, B, n = shape
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    source = SourceSpec.markov(rng.dirichlet(np.ones(A), size=A))
    distortion = DistortionSpec.single_letter(rng.integers(0, 4, size=(A, B)) / 3)
    base = SolverConfig(lam=0.0, epsilon=data.draw(st.sampled_from([1e-3, 1e-6]), label="eps"),
                        max_iters=data.draw(st.sampled_from([1, 4, 60, 400]), label="cap"),
                        delay=data.draw(st.integers(1, n), label="s"),
                        feedforward_map=_map(data.draw(st.sampled_from(MAPS), label="map"), A))
    grid = data.draw(st.lists(st.sampled_from(LAMBDA_POOL), min_size=1, max_size=8),
                     label="grid")
    width = data.draw(st.integers(1, 5), label="width")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_STACK_CELLS", width * A**n * B**n)
        curve = sweep(source, distortion, n, grid, base)
    src, dist = block_pmf(source, n), distortion_tensor(distortion, n)
    for pt, cfg in zip(curve.points, curve.configs, strict=True):
        (a_lo, a_hi), (b_lo, b_hi) = _window(pt, n), _window(solve(src, dist, cfg), n)
        assert max(a_lo, b_lo) <= min(a_hi, b_hi) + 1e-12


def test_zero_rate_restart_keeps_the_flat_end_short():
    """Markov(0.3, 0.2)/Hamming on the default grid at n = 4, default
    budget (16 of the 24 weights at once): once the first point in
    descending weight is at rate 0 (lower bound <= epsilon / n), every
    smaller weight takes at most 6 iterations, from a restart or from its
    admission, and the call takes no more steps than the sweep that cut
    the stack there and solved the rest in a warm chain (1,567).  Without
    the restart the points below ran on from the uniform start, 465 to
    2,098 iterations, in 2,098 steps."""
    curve, steps = _counted_steps(lambda: sweep(MARKOV, HAMMING, 4))
    assert len(curve.points) == 24
    points = sorted(curve.points, key=lambda pt: pt.lam, reverse=True)
    eps = SolverConfig(lam=0.0).epsilon
    first = next(j for j, pt in enumerate(points) if pt.lower_bound <= eps / 4)
    assert all(pt.iterations <= 6 for pt in points[first + 1:])
    assert steps <= 1567


def test_zero_rate_point_keeps_finished_members_and_restarts_running_ones():
    """Markov(0.3, 0.2)/Hamming at n = 3, one stack of five: 0.4 and 0.3
    stop at their cap of 10 with lower bounds <= 0 (every bound is negative
    that early) while 0.5 runs on to its cap of 60.  All three keep their
    cold lone points.  0.2 and 0.1, cold and still running at step 10,
    restart from the warm start of 0.3, the nearest of the two, with their
    counts from 1; 0.5 finishing later, also at a bound <= 0, leaves them
    alone, since their start came from a config after it.  When 0.2
    finishes, at rate 0, 0.1 restarts once more, from 0.2's warm start,
    and then takes one step."""
    source, dist = block_pmf(MARKOV, 3), distortion_tensor(HAMMING, 3)
    configs = [SolverConfig(lam=0.5, max_iters=60), SolverConfig(lam=0.4, max_iters=10),
               SolverConfig(lam=0.3, max_iters=10), SolverConfig(lam=0.2),
               SolverConfig(lam=0.1)]
    points = _solve_lockstep(source, dist, configs, [None] * 5)
    assert len(points) == 5
    for pt, cfg in zip(points[:3], configs[:3]):
        lone = solve(source, dist, cfg)
        assert lone.lower_bound <= 0.0 and lone.iterations == cfg.max_iters
        _assert_same_point(pt, lone)
    for j in (3, 4):
        lone = _solve_from(source, dist, configs[j], _warm_start(points[j - 1].kernel))
        _assert_same_point(points[j], lone)
    assert points[3].lower_bound <= 0.0 and points[4].iterations == 1


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(SHAPES), data=st.data())
def test_rolling_lockstep_equals_lone_solves(shape, data):
    """A stack narrower than its queue (a budget of fewer members' cells
    than there are configs): each config that takes a finished member's
    slot runs from its given start, else from the warm start of the last
    finished config, with its own iteration count, and a point that
    certifies rate 0 (every weight 0 does) restarts the later members still
    running from a start before it.  Every point is that of its own
    lockstep of one from the start this rule gave it, as the one-at-a-time
    reference finds it."""
    A, B, n = shape
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    source = block_pmf(SourceSpec.markov(rng.dirichlet(np.ones(A), size=A)), n)
    dist = distortion_tensor(DistortionSpec.single_letter(rng.integers(0, 4, size=(A, B)) / 3), n)
    s = data.draw(st.integers(1, n), label="s")
    ff_map = _map(data.draw(st.sampled_from(MAPS), label="map"), A)
    ctx = _Contexts.of(n, A, B, s, None if ff_map is None else ff_map.table)
    count = data.draw(st.integers(2, 7), label="count")
    width = data.draw(st.integers(1, count - 1), label="width")  # members the budget fits
    configs, starts = [], []
    for _ in range(count):
        configs.append(SolverConfig(
            lam=data.draw(st.sampled_from(LAMBDA_POOL), label="lam"),
            epsilon=data.draw(st.sampled_from([1e-3, 1e-6]), label="eps"),
            max_iters=data.draw(st.sampled_from([1, 4, 60, 400]), label="cap"),
            delay=s, feedforward_map=ff_map))
        warm = data.draw(st.booleans(), label="warm")
        starts.append(_random_kernel_table(rng, ctx, ff_map, 0.0) if warm else None)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_STACK_CELLS", width * A**n * B**n)
        points = _solve_lockstep(source, dist, configs, starts)
    expected, _, _ = _rolling(source, dist, configs, starts, width)
    assert len(points) == len(expected) == count
    for a, b in zip(points, expected):
        _assert_same_point(a, b)


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(SHAPES), data=st.data())
def test_rolling_lockstep_traces_equal_row_by_row_traces(shape, data):
    """Every point of a rolling lockstep of 1 to 4 members has the trace of
    its own solve, from the start the rule gave it, written one row per
    iteration from a stack of one (``oracles.trace_row_by_row``) bit for
    bit, and its trace's memory holds its rows alone, 48 bytes each."""
    A, B, n = shape
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    source = block_pmf(SourceSpec.markov(rng.dirichlet(np.ones(A), size=A)), n)
    dist = distortion_tensor(DistortionSpec.single_letter(rng.integers(0, 4, size=(A, B)) / 3), n)
    s = data.draw(st.integers(1, n), label="s")
    ff_map = _map(data.draw(st.sampled_from(MAPS), label="map"), A)
    ctx = _Contexts.of(n, A, B, s, None if ff_map is None else ff_map.table)
    width = data.draw(st.integers(1, 4), label="width")  # members the budget fits
    count = data.draw(st.integers(width, 6), label="count")
    configs = [SolverConfig(lam=data.draw(st.sampled_from(LAMBDA_POOL), label="lam"),
                            epsilon=data.draw(st.sampled_from([1e-3, 1e-6]), label="eps"),
                            max_iters=data.draw(st.sampled_from([1, 4, 60, 400]), label="cap"),
                            delay=s, feedforward_map=ff_map) for _ in range(count)]
    starts = [_random_kernel_table(rng, ctx, ff_map, 0.0)
              if data.draw(st.booleans(), label="warm") else None for _ in range(count)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_STACK_CELLS", width * A**n * B**n)
        points = _solve_lockstep(source, dist, configs, starts)
    _, used, _ = _rolling(source, dist, configs, starts, width)
    for pt, cfg, start in zip(points, configs, used, strict=True):
        q = np.full((1, ctx.Z ** (n - s), B**n), float(B) ** -n) if start is None \
            else start[None]
        tilt = np.exp2(-cfg.lam * dist.values)
        rows = trace_row_by_row(_step_stack, _Workspace, _diagnostics, _TRACE_DTYPE, q, tilt,
                                tilt * dist.values, source.probs, ctx, cfg.lam, cfg.epsilon,
                                cfg.max_iters)
        assert pt.trace.dtype == rows.dtype and pt.trace.tobytes() == rows.tobytes()
        assert pt.trace.base.nbytes == 48 * pt.iterations


#: Markov(0.3, 0.2)/Hamming: the weight 0.3 certifies rate 0 in the middle
#: of the queue.  At n = 2, in a stack of two or more, 1.0 is still running
#: then: it restarts from 0.3's warm start in the pass that shrinks the
#: stack to it alone, so its restart is copied into the new workspace, and
#: takes one step there; at n = 1 and 3 it finishes first, and nothing
#: restarts.
ROLLING_CONFIGS = [SolverConfig(lam=lam, max_iters=cap) for lam, cap in
                   ((24.0, 100), (9.0, 30), (6.0, 100_000), (0.3, 100_000), (3.0, 20),
                    (2.0, 100), (1.0, 100_000))]


def _counted_lockstep(budget, source, dist, configs):
    """The points of a lockstep of ``configs`` from the uniform kernel with
    ``solver._STACK_CELLS`` set to ``budget`` (left as it is for None), and
    the member count of each workspace the call built, in order."""
    builds = []

    class Counting(_Workspace):
        def __init__(self, ctx, L, *bound):
            builds.append(L)
            super().__init__(ctx, L, *bound)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_Workspace", Counting)
        if budget is not None:
            mp.setattr(solver, "_STACK_CELLS", budget)
        points = _solve_lockstep(source, dist, configs, [None] * len(configs))
    return points, builds


@pytest.mark.parametrize("members", [1, 2, 3, None])
def test_rolling_lockstep_builds_a_workspace_only_when_it_shrinks(members):
    """Markov(0.3, 0.2)/Hamming at n = 3, seven weights (``ROLLING_CONFIGS``),
    under a budget of ``members`` points' table cells (the default, which
    fits all seven, for None).  A finished member's slot takes the next
    config in place, so the call builds its first workspace and one more
    only each time the stack shrinks, at most 1 + members in all; it built
    one each time a member left."""
    source, dist = block_pmf(MARKOV, 3), distortion_tensor(HAMMING, 3)
    configs = ROLLING_CONFIGS
    points, builds = _counted_lockstep(None if members is None else members * 64, source,
                                       dist, configs)
    L = len(configs) if members is None else members
    expected, _, _ = _rolling(source, dist, configs, [None] * len(configs), L)
    assert len(points) == len(expected) == 7
    for a, b in zip(points, expected):
        _assert_same_point(a, b)
    assert builds[0] == L and builds == sorted(set(builds), reverse=True)
    assert len(builds) <= 1 + L


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("budget", [1, 20, 100, 300])
def test_lockstep_stack_fits_the_budget(n, budget):
    """``_solve_lockstep`` alone sizes its stack: its first workspace holds
    max(1, ``_STACK_CELLS`` // cells) members, or every config when fewer,
    no later one holds more, and every point is that of its own lockstep of
    one from its rule's start with that many slots.  A call of several
    configs stacked all of them while the budget was its caller's."""
    source, dist = block_pmf(MARKOV, n), distortion_tensor(HAMMING, n)
    configs = ROLLING_CONFIGS
    points, builds = _counted_lockstep(budget, source, dist, configs)
    fits = max(1, budget // dist.values.size)
    assert builds[0] == min(len(configs), fits) and max(builds) <= fits
    expected, _, _ = _rolling(source, dist, configs, [None] * len(configs), fits)
    assert len(points) == len(expected) == len(configs)
    for a, b in zip(points, expected):
        _assert_same_point(a, b)


def test_lockstep_members_with_initial_kernels_equal_their_solves():
    """Members in descending weight, none of them at rate 0 before the
    last, with their own start tables, tolerances and caps."""
    source, dist = block_pmf(MARKOV, 3), distortion_tensor(HAMMING, 3)
    warm = _warm_start(solve(source, dist, SolverConfig(lam=2.0)).kernel)
    configs = [SolverConfig(lam=9.0, max_iters=30), SolverConfig(lam=4.0, epsilon=1e-8),
               SolverConfig(lam=1.0)]
    starts = [warm, None, warm]
    points = _solve_lockstep(source, dist, configs, starts)
    assert len(points) == 3
    for pt, cfg, start in zip(points, configs, starts):
        _assert_same_point(pt, _solve_from(source, dist, cfg, start))
    assert all(pt.lower_bound > 0.0 for pt in points[:-1])


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("cells", [2**10, 2**12])
def test_lockstep_sweep_memory_is_bounded_by_the_budget(cells, monkeypatch):
    """A lockstep sweep holds at most a few stacks of ``cells`` table cells
    more than a sweep one weight at a time.  Markov(0.3, 0.2)/Hamming at
    n = 4 has 256 cells per point and 24 weights: a stack of 2^10 cells
    steps four of them at a time, one of 2^12 sixteen."""
    run = lambda: sweep(MARKOV, HAMMING, 4, config=SolverConfig(lam=0.0, epsilon=1e-4))
    monkeypatch.setattr(solver, "_STACK_CELLS", 1)
    serial = _traced_peak(run)
    monkeypatch.setattr(solver, "_STACK_CELLS", cells)
    lockstep = _traced_peak(run)
    assert lockstep <= serial + 8 * cells * np.dtype(float).itemsize


def test_warm_start_is_the_mixed_context_table():
    """A warm start is its point's kernel context table mixed with the
    uniform kernel, built without the full (|X|^n, |X̂|^n) table: at n = 8
    its traced peak is under 1.5 full tables (3.95 while it multiplied the
    kernel out, mixed the full table and factored it again)."""
    n = 8
    kernel = solve(block_pmf(MARKOV, n), distortion_tensor(HAMMING, n),
                   SolverConfig(lam=24.0)).kernel
    table = kernel.table
    assert _traced_peak(lambda: _warm_start(kernel)) <= 1.5 * 4**n * np.dtype(float).itemsize
    start = _warm_start(kernel)
    np.testing.assert_array_equal(kernel.table, table)  # the kernel is left as it was
    np.testing.assert_array_equal(
        start, (1.0 - solver.WARM_START_MIX) * table + solver.WARM_START_MIX * 2.0**-n)
    assert np.all(start > 0.0)


# --- the step's workspace ------------------------------------------------------

def _lockstep(n, lams, caps, **kwargs):
    """Points of one lockstep stack; members with smaller caps leave it first."""
    configs = [SolverConfig(lam=lam, max_iters=cap, **kwargs) for lam, cap in zip(lams, caps)]
    return _solve_lockstep(block_pmf(MARKOV, n), distortion_tensor(HAMMING, n), configs,
                           [None] * len(configs))


def _ternary_parity_solves(lams):
    source = block_pmf(SourceSpec.markov([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]]), 2)
    dist = distortion_tensor(DistortionSpec.hamming(3), 2)
    return [solve(source, dist, SolverConfig(lam=lam, feedforward_map=FeedForwardMap.parity(3)))
            for lam in lams]


# each case returns its points for a scale of its weights
OWNERSHIP_CASES = {
    "solve": lambda k: [solve(block_pmf(MARKOV, 3), distortion_tensor(HAMMING, 3),
                              SolverConfig(lam=k * lam)) for lam in (2.0, 6.0)],
    "sweep": lambda k: sweep(MARKOV, HAMMING, 3, [k * lam for lam in (1.0, 3.0, 9.0, 24.0)],
                             SolverConfig(lam=0.0)).points,
    "shrinking stack": lambda k: _lockstep(3, [k * 24.0, k * 9.0, k * 6.0], [3, 6, 9]),
    "n=1": lambda k: _lockstep(1, [k * 6.0, k * 2.0], [4, 400])
    + [solve(block_pmf(MARKOV, 1), distortion_tensor(HAMMING, 1), SolverConfig(lam=k * 3.0))],
    "delay 2": lambda k: _lockstep(3, [k * 9.0, k * 4.0], [5, 50], delay=2),
    "feed-forward map": lambda k: _ternary_parity_solves([k * 2.0, k * 5.0]),
}


@pytest.mark.parametrize("case", OWNERSHIP_CASES)
def test_points_own_their_tables(case):
    """The step's tables live in a workspace that every iteration overwrites;
    a finished point copies what it keeps.  Every channel table, kernel table
    and factor of a returned point owns its memory and shares none with
    another's, and further solves leave them unchanged."""
    run = OWNERSHIP_CASES[case]
    points = run(1.0)
    assert len(points) >= 2 and all(pt is not None for pt in points)
    tables = [t for pt in points for t in (pt.channel.probs, pt.kernel.probs,
                                          *pt.kernel.factors)]
    assert all(t.base is None for t in tables)
    kept = [t.copy() for t in tables]
    for a, b in itertools.combinations(tables, 2):
        assert not np.shares_memory(a, b)
    run(1.5)
    for t, k in zip(tables, kept):
        np.testing.assert_array_equal(t, k)


TERNARY = SourceSpec.markov([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]])

#: (source, distortion, n, delay, feed-forward map) of the steady steps
STEADY_CASES = [(MARKOV, HAMMING, 8, 1, None), (MARKOV, HAMMING, 8, 2, None),
                (TERNARY, DistortionSpec.hamming(3), 6, 1, FeedForwardMap.parity(3))]


def test_steady_step_allocates_no_table():
    """With a prebuilt workspace, a steady-state step traces a peak below
    one kernel context table: small per-call objects and numpy's ufunc
    buffers (at most 8192 elements each, whatever the table size), no
    table-sized temporary.  The cases: Markov(0.3, 0.2)/Hamming at n = 8,
    delay 1 (256 KiB) and delay 2 (128 KiB), and the ternary Markov source
    with the parity map at n = 6 (186,624 B), whose map classes a
    ``np.bincount`` summed into a fresh 186,624 B table.  So does a masked
    step: with the kernel's column x̂^n = 0 set to 0, every context of
    that column carries no joint mass at every step, and the step fills
    those cells in place."""
    for spec, dspec, n, delay, ff_map in STEADY_CASES:
        source, dist = block_pmf(spec, n), distortion_tensor(dspec, n)
        A, B = source.src_alphabet_size, dist.rec_alphabet_size
        ctx = _Contexts.of(n, A, B, delay, None if ff_map is None else ff_map.table)
        tilt = np.exp2(-4.0 * dist.values)[None]
        wd = tilt * dist.values
        for masked in (False, True):
            ws = _Workspace(ctx, 1, tilt, source.probs, wd)
            ws.q[...] = float(B) ** -n
            if masked:
                ws.q[..., 0] = 0.0
            for _ in range(3):
                q = _step_stack(ws)
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                _step_stack(ws)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
            assert np.any(ws.factors.mass == 0.0) == masked
            assert peak < q[0].nbytes, (n, delay, ff_map, masked, peak)


def test_workspace_owns_under_three_and_a_half_tables():
    """A one-member workspace at n = 8, delay 1, owns at most 3.5 full
    (|X|^n, |X̂|^n) float64 tables (the factorization's tables, the two
    kernel tables and the log-ratio table, which also holds the kernel
    product's partial products), each buffer counted once and views left
    out.  It owned 4.41 while the step wrote the joint into a table of its
    own, and 6.40 while it also wrote the channel and the products of D."""
    n = 8
    assert workspace_bytes(_Contexts.of(n, 2, 2, 1, None), 1) <= 3.5 * 4**n * 8


def test_one_letter_reconstruction_alphabet():
    """With |X̂| = 1 every level's context sums are its one slice: the
    channel and the kernel are all ones, the rate is 0 and D the mean
    distortion.  At full delay the kernel product's partial products are
    each as large as the log-ratio table, so they get a buffer of their
    own."""
    spec = DistortionSpec(m=0, table=np.array([[0.0], [1.0]]), src_alphabet_size=2,
                          rec_alphabet_size=1)
    for n, delay in ((3, 1), (4, 4)):
        source = block_pmf(MARKOV, n)
        dist = distortion_tensor(spec, n)
        for lam in (2.0, 9.0):
            pt = solve(source, dist, SolverConfig(lam=lam, delay=delay))
            np.testing.assert_array_equal(pt.channel.probs, 1.0)
            np.testing.assert_array_equal(pt.kernel.probs, 1.0)
            assert pt.R == 0.0
            assert pt.D == pytest.approx(source.probs @ dist.values[:, 0], abs=1e-15)
