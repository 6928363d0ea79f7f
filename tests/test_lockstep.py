"""Lockstep solves: a stack of kernel context tables steps as each of its
members would alone, and ``sweep``, which solves its cold points as one
stack, gives the serial sweep's points bit for bit within a bounded extra
memory."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffrd import curves
from ffrd.curves import _dedup_sorted, _warm_start, default_lambda_grid, sweep
from ffrd.models import DistortionSpec, FeedForwardMap, SourceSpec, block_pmf, distortion_tensor
from ffrd.prob import _Contexts
from ffrd.solver import SolverConfig, _solve_lockstep, _step, _step_stack, solve

from helpers import kernel_from_joint
from oracles import sweep_serial

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
    return ctx.table(kernel.probs)


def _assert_same_step(got, ref):
    for a, b in zip(got[:4], ref[:4]):  # r, rows, joint, q_next
        assert a.shape == b.shape
        np.testing.assert_array_equal(a, b)
    assert len(got.factors) == len(ref.factors)
    for a, b in zip(got.factors, ref.factors):
        assert a.shape == b.shape
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(got[5:], ref[5:])  # log_max_c, mean_logc, D


@settings(max_examples=80, deadline=None)
@given(shape=st.sampled_from(SHAPES), data=st.data())
def test_stacked_step_equals_lone_steps(shape, data):
    """Each member of a stacked step, with its own weight or with one shared
    weight, is the lone step of its table bit for bit, statistics included."""
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

    stack = _step_stack(q, tilt, p, ctx, dvals)
    for j in range(L):
        _assert_same_step(stack.member(j), _step(q[j], tilt[j], p, ctx, dvals))
    weight = rng.random((A**n, B**n)) + 0.1  # one weight for all, no statistics
    stack = _step_stack(q, weight, p, ctx)
    for j in range(L):
        _assert_same_step(stack.member(j), _step(q[j], weight, p, ctx))


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


def _serial_curve(source_spec, distortion_spec, n, grid, base, initial_context=None):
    solved = sweep_serial(solve, _warm_start, block_pmf(source_spec, n),
                          distortion_tensor(distortion_spec, n, initial_context), grid, base)
    return _dedup_sorted([solved[float(lam)] for lam in grid])


LAMBDA_POOL = [0.0, 0.125, 0.5, 0.9, 1.5, 3.0, 6.0, 16.0, 40.0]


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(SHAPES), data=st.data())
def test_sweep_equals_serial_sweep(shape, data):
    """For every stack width, including chunk edges and a zero-rate cut in
    the middle of a stack, ``sweep`` returns the serial sweep's points."""
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
        mp.setattr(curves, "_STACK_CELLS", width * A**n * B**n)
        curve = sweep(source, distortion, n, grid, base)
    expected = _serial_curve(source, distortion, n, grid, base)
    assert len(curve.points) == len(expected)
    for a, b in zip(curve.points, expected):
        _assert_same_point(a, b)


@pytest.mark.parametrize("width", [1, 2, 5, 24])
def test_default_grid_sweep_equals_serial_sweep(width, monkeypatch):
    """Markov(0.3, 0.2)/Hamming at n = 3: the point at 0.86 certifies rate 0
    after 461 iterations while 1.77 runs to 2,487, so wide stacks cut in
    their middle."""
    monkeypatch.setattr(curves, "_STACK_CELLS", width * 64)
    base = SolverConfig(lam=0.0)
    curve = sweep(MARKOV, HAMMING, 3, config=base)
    expected = _serial_curve(MARKOV, HAMMING, 3, default_lambda_grid(), base)
    assert len(curve.points) == len(expected) == 24
    for a, b in zip(curve.points, expected):
        _assert_same_point(a, b)


def test_zero_rate_cut_drops_finished_members_below():
    """A member that finishes with lower bound <= 0 drops the members after
    it, also one that has already finished; the ones before it run on."""
    source, dist = block_pmf(MARKOV, 3), distortion_tensor(HAMMING, 3)
    configs = [SolverConfig(lam=0.5, max_iters=60), SolverConfig(lam=0.4, max_iters=10),
               SolverConfig(lam=0.3, max_iters=10)]
    points = _solve_lockstep(source, dist, configs, [None] * 3)
    assert points[1:] == [None, None]
    lone = solve(source, dist, configs[0])
    assert lone.lower_bound <= 0.0 and lone.iterations == 60
    _assert_same_point(points[0], lone)


def test_lockstep_members_with_initial_kernels_equal_their_solves():
    """Members in descending weight, none of them at rate 0 before the
    last, with their own initial kernels, tolerances and caps."""
    source, dist = block_pmf(MARKOV, 3), distortion_tensor(HAMMING, 3)
    warm = _warm_start(solve(source, dist, SolverConfig(lam=2.0)).kernel)
    configs = [SolverConfig(lam=9.0, max_iters=30), SolverConfig(lam=4.0, epsilon=1e-8),
               SolverConfig(lam=1.0)]
    kernels = [warm, None, warm]
    points = _solve_lockstep(source, dist, configs, kernels)
    for pt, cfg, kernel in zip(points, configs, kernels):
        _assert_same_point(pt, solve(source, dist, cfg, initial_kernel=kernel))
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
    more than the serial sweep.  Markov(0.3, 0.2)/Hamming at n = 4 has 256
    cells per point and 15 cold points: a stack of 2^10 cells takes them
    four at a time, one of 2^12 all at once."""
    run = lambda: sweep(MARKOV, HAMMING, 4, config=SolverConfig(lam=0.0, epsilon=1e-4))
    monkeypatch.setattr(curves, "_STACK_CELLS", 1)
    serial = _traced_peak(run)
    monkeypatch.setattr(curves, "_STACK_CELLS", cells)
    lockstep = _traced_peak(run)
    assert lockstep <= serial + 8 * cells * np.dtype(float).itemsize
