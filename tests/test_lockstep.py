"""Lockstep solves: a stack of kernel context tables steps as each of its
members would alone, and ``sweep``, which solves its cold points as one
stack, gives the serial sweep's points bit for bit within a bounded extra
memory."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffrd import curves
from ffrd.curves import _dedup_sorted, _warm_start, default_lambda_grid, sweep
from ffrd.models import DistortionSpec, FeedForwardMap, SourceSpec, block_pmf, distortion_tensor
from ffrd.prob import _Contexts
from ffrd.solver import SolverConfig, _solve_lockstep, _step_stack, _Workspace, solve

from helpers import kernel_from_joint, workspace_bytes
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
    return kernel.table


def _assert_same_member(stack, j, lone):
    """Member j of the stacked step ``stack`` is the one-member step ``lone``."""
    for a, b in zip(stack[:2], lone[:2]):  # rows, q_next
        assert a[j].shape == b[0].shape
        np.testing.assert_array_equal(a[j], b[0])
    assert len(stack.factors) == len(lone.factors)
    for a, b in zip(stack.factors, lone.factors):
        assert a[j].shape == b[0].shape
        np.testing.assert_array_equal(a[j], b[0])
    # log_max_c, mean_logc, D, mean_log_rows: lists of one float per member, or None
    assert [x if x is None else x[j] for x in stack[3:]] == \
        [x if x is None else x[0] for x in lone[3:]]


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

    stack = _step_stack(q, tilt, p, ctx, tilt * dvals)
    for j in range(L):
        _assert_same_member(stack, j, _step_stack(q[j][None], tilt[j], p, ctx,
                                                  tilt[j] * dvals))
    weight = rng.random((A**n, B**n)) + 0.1  # one weight for all, no statistics
    stack = _step_stack(q, weight, p, ctx)
    for j in range(L):
        _assert_same_member(stack, j, _step_stack(q[j][None], weight, p, ctx))


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


def test_steady_step_allocates_no_table():
    """With a prebuilt workspace, a steady-state step of Markov(0.3, 0.2)/
    Hamming at n = 8, delay 1, traces a peak below one kernel context table
    (256 KiB): small per-call objects and numpy's ufunc buffers (at most
    8192 elements each, whatever the table size), no table-sized temporary."""
    n = 8
    source, dist = block_pmf(MARKOV, n), distortion_tensor(HAMMING, n)
    ctx = _Contexts.of(n, 2, 2, 1, None)
    ws = _Workspace(ctx, 1)
    tilt = np.exp2(-4.0 * dist.values)[None]
    wd = tilt * dist.values
    q = np.full((1, 2 ** (n - 1), 2**n), 2.0**-n)
    for _ in range(3):
        q = _step_stack(q, tilt, source.probs, ctx, wd, ws).q_next
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _step_stack(q, tilt, source.probs, ctx, wd, ws)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < q[0].nbytes


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
