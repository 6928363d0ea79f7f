"""The solver step on the kernel's context table against the full-table step
and factorization kept in ``oracles``, and the rolling Anderson history of
the channel reconstruction against the re-stacked one."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffrd.dual import _anderson, certificate_from_solution
from ffrd.models import (
    DistortionSpec,
    DistortionTensor,
    FeedForwardMap,
    SourceSpec,
    block_pmf,
    distortion_tensor,
)
from ffrd.prob import BlockSource, _context_factors, _Contexts, _factor_product
from ffrd.solver import SolverConfig, _diagnostics, _step_stack, _Workspace, solve

from helpers import kernel_from_joint
from oracles import (
    anderson_stacked,
    causal_factors_full_table,
    causal_factors_of_prefix_mass,
    channel_full_table,
    restricted_log_ratio_stats,
    solver_step_full_table,
)

SHAPES = [(A, B, n) for A in (2, 3) for B in (2, 3) for n in range(1, 5)]
MAPS = [None, "identity", "parity", "constant"]


def _map_table(name, A):
    return None if name is None else getattr(FeedForwardMap, name)(A).table


def _joint_with_zeros(rng, A, B, n, cell_zeros):
    keep = rng.random((A**n, B**n)) >= cell_zeros
    joint = rng.dirichlet(np.ones(A**n * B**n)) * keep.ravel()
    if joint.sum() == 0.0:
        joint[rng.integers(joint.size)] = 1.0
    return (joint / joint.sum()).reshape(A**n, B**n)


def _assert_same_factorization(joint, n, A, B, s, fmap):
    """The factorization of one joint on its context table, spread over the
    source blocks (mass over the source prefixes), equals the reference."""
    ctx = _Contexts.of(n, A, B, s, fmap)
    factors, mass = _context_factors(joint[None], ctx)
    table = _factor_product(factors, ctx)
    ref_full, ref_factors, ref_mass = causal_factors_full_table(joint, n, A, B, s, fmap)
    np.testing.assert_array_equal(ctx.full(table[0]), ref_full)
    np.testing.assert_array_equal(mass[0] if ctx.rows is None else mass[0, ctx.rows], ref_mass)
    assert len(factors) == len(ref_factors)
    for f, ref_f in zip(factors, ref_factors):
        assert f[0].shape == ref_f.shape
        np.testing.assert_array_equal(f[0], ref_f)


@settings(max_examples=80, deadline=None)
@given(shape=st.sampled_from(SHAPES), data=st.data())
def test_factorization_matches_full_table_reference(shape, data):
    """Full table, factors and context mass equal the per-slice
    factorization bit for bit, on joints with exact zeros."""
    A, B, n = shape
    s = data.draw(st.integers(1, n), label="s")
    fmap = _map_table(data.draw(st.sampled_from(MAPS), label="map"), A)
    cell_zeros = data.draw(st.sampled_from([0.0, 0.5, 0.95]), label="cell_zeros")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    joint = _joint_with_zeros(rng, A, B, n, cell_zeros)
    _assert_same_factorization(joint, n, A, B, s, fmap)


@pytest.mark.parametrize("map_name", MAPS)
@pytest.mark.parametrize("s", [1, 2, 7])
def test_factorization_of_large_tables_matches_reference(s, map_name):
    """Block length 7, beyond the random shapes above: levels of up to
    8,192 entries."""
    rng = np.random.default_rng(s)
    joint = _joint_with_zeros(rng, 2, 2, 7, 0.3)
    fmap = _map_table(map_name, 2)
    _assert_same_factorization(joint, 7, 2, 2, s, fmap)


@settings(max_examples=80, deadline=None)
@given(shape=st.sampled_from(SHAPES), data=st.data())
def test_step_matches_full_table_reference(shape, data):
    """From kernels with exact-zero entries, the step on the context table
    gives the full-table step's F, Lagrangian, D and bounds to 1e-12, and
    its kernel and factors bit for bit, for every delay and map."""
    A, B, n = shape
    s = data.draw(st.integers(1, n), label="s")
    fmap = _map_table(data.draw(st.sampled_from(MAPS), label="map"), A)
    lam = data.draw(st.sampled_from([0.0, 1.0, 6.0, 40.0]), label="lam")
    cell_zeros = data.draw(st.sampled_from([0.0, 0.5, 0.95]), label="cell_zeros")
    source_zeros = data.draw(st.sampled_from([0.0, 0.5]), label="source_zeros")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    # zero cells of a joint with mass in their context give kernel zeros
    kernel = kernel_from_joint(_joint_with_zeros(rng, A, B, n, cell_zeros), n, A, B, s, fmap)
    p = rng.dirichlet(np.ones(A**n)) * (rng.random(A**n) >= source_zeros)
    if p.sum() == 0.0:
        p[rng.integers(p.size)] = 1.0
    p /= p.sum()
    dvals = rng.integers(0, 9, size=(A**n, B**n)) / 8
    tilt = np.exp2(-lam * dvals)

    ref_q, ref_factors, ref_diag = solver_step_full_table(
        kernel.probs, tilt, p, n, A, B, s, fmap, dvals, lam)
    ctx = _Contexts.of(n, A, B, s, fmap)
    ws = _Workspace(ctx, 1, tilt, p, tilt * dvals)
    ws.q[...] = kernel.table
    q_next = _step_stack(ws)
    log_max_c, mean_logc, D, mean_log_rows = ws.stats[:, 0].tolist()
    diag = _diagnostics(lam, n, 1, mean_log_rows, log_max_c, mean_logc, D)

    np.testing.assert_allclose(diag[1:], ref_diag, rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal(ctx.full(q_next[0]), ref_q)
    for f, ref_f in zip(ws.factors.factors, ref_factors):
        np.testing.assert_array_equal(f[0], ref_f)


def _masked_step(q, lam, n):
    """One step of the stack of context tables q of Markov(0.3, 0.2)/Hamming
    at delay 1 in a workspace of its own, returned; the step must not warn."""
    source = block_pmf(SourceSpec.binary_markov(0.3, 0.2), n)
    dvals = distortion_tensor(DistortionSpec.hamming(), n).values
    tilt = np.exp2(-lam * dvals)
    ctx = _Contexts.of(n, 2, 2, 1, None)
    ws = _Workspace(ctx, len(q), tilt, source.probs, tilt * dvals)
    ws.q[...] = q
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q_next = _step_stack(ws)
    assert np.any(ws.factors.mass == 0.0)  # the step took the restricted-support path
    for j in range(len(q)):
        ref_q, ref_factors, ref_mass = causal_factors_of_prefix_mass(
            ws.factors.prefix[j], n, 2, 2, 1)
        np.testing.assert_array_equal(ctx.full(q_next[j]), ref_q)
        np.testing.assert_array_equal(ws.factors.mass[j], ref_mass)
        for f, ref_f in zip(ws.factors.factors, ref_factors, strict=True):
            np.testing.assert_array_equal(f[j], ref_f)
        lone = _Workspace(ctx, 1, tilt, source.probs, tilt * dvals)
        lone.q[...] = q[j]
        _step_stack(lone)
        # D and mean_log_rows
        assert ws.stats[2:, j].tolist() == lone.stats[2:, 0].tolist()
    # log_max_c and mean_logc
    assert tuple(ws.stats[:2].tolist()) == \
        restricted_log_ratio_stats(q, q_next, ws.factors.mass)
    return ws


def test_masked_step_matches_where_reference_in_a_mixed_stack():
    """A stack of two at n = 3: the first kernel has exact zeros, so some of
    its contexts carry no joint mass, and the second has none.  The step's
    kernels, factors and statistics equal the references bit for bit: the
    per-slice factorization of its prefix mass and the restricted max and
    mean of log2 c taken with ``where=``.  The first member's max, positive,
    is a live cell's."""
    rng = np.random.default_rng(3)
    q = np.stack([kernel_from_joint(_joint_with_zeros(rng, 2, 2, 3, zeros), 3, 2, 2, 1).table
                  for zeros in (0.5, 0.0)])
    ws = _masked_step(q, 4.0, 3)
    assert np.any(ws.factors.mass[0] == 0.0) and np.all(ws.factors.mass[1] > 0.0)
    assert ws.stats[0, 0] > 0.0  # log_max_c


@pytest.mark.parametrize("seed", [4, 553])
def test_masked_step_retakes_a_max_of_zero_over_live_cells(seed):
    """At lam = 0 the channel of a causal kernel is the kernel itself, so a
    kernel with exact zeros (n = 3) is a fixed point: log2 c is 0 or an ulp
    off on the live cells, and with these seeds the max over the whole
    table, the dead cells' 0 included, is 0.  The step retakes it over the
    live cells alone and equals the ``where=`` reference: 0 with seed 4,
    where some live ratio is 1 exactly, and log2(1 - 2^-53) with seed 553,
    where every live log2 c is negative."""
    rng = np.random.default_rng(seed)
    q = kernel_from_joint(_joint_with_zeros(rng, 2, 2, 3, 0.5), 3, 2, 2, 1).table[None]
    ws = _masked_step(q, 0.0, 3)
    assert ws.logc.max() == 0.0  # the plain max did not settle it
    assert ws.stats[0, 0] == (0.0 if seed == 4 else np.log2(1.0 - 2.0**-53))  # log_max_c


@settings(max_examples=80, deadline=None)
@given(shape=st.sampled_from(SHAPES), data=st.data())
def test_point_channel_is_that_of_the_last_input_kernel(shape, data):
    """A one-step solve from a random, strictly positive kernel returns that
    kernel's channel, the full-table rows of q * tilt normalized, bit for
    bit, and D = sum p r d to 1e-12, for every delay and map."""
    A, B, n = shape
    s = data.draw(st.integers(1, n), label="s")
    map_name = data.draw(st.sampled_from(MAPS), label="map")
    fmap = _map_table(map_name, A)
    lam = data.draw(st.sampled_from([0.0, 1.0, 6.0, 40.0]), label="lam")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    kernel = kernel_from_joint(_joint_with_zeros(rng, A, B, n, 0.0), n, A, B, s, fmap)
    p = rng.dirichlet(np.ones(A**n))
    dvals = rng.integers(0, 9, size=(A**n, B**n)) / 8
    config = SolverConfig(lam=lam, max_iters=1, delay=s,
                          feedforward_map=None if fmap is None else FeedForwardMap(fmap))
    pt = solve(BlockSource(n, A, p), DistortionTensor(n, A, B, dvals), config,
               initial_kernel=kernel)

    r = channel_full_table(kernel.probs, np.exp2(-lam * dvals))
    np.testing.assert_array_equal(pt.channel.probs, r)
    assert pt.D == pytest.approx(float(np.sum(p[:, None] * r * dvals)), rel=0.0, abs=1e-12)


def _certificate_map(n, lam):
    """The kernel map whose fixed point ``reconstruct_channel`` finds, for a
    certificate of Markov(0.3, 0.2) with Hamming distortion."""
    source = block_pmf(SourceSpec.binary_markov(0.3, 0.2), n)
    dist = distortion_tensor(DistortionSpec.hamming(), n)
    cert = certificate_from_solution(solve(source, dist, SolverConfig(lam=lam, epsilon=1e-9)),
                                     source, dist)
    ctx = _Contexts.of(n, 2, 2, 1, None)
    ws = _Workspace(ctx, 1, cert.p_prime_table, source.probs)

    def g(x):
        ws.q[...] = x.reshape(2**n, 2**n)[::2]
        return ctx.full(_step_stack(ws)[0]).ravel()
    return g, np.full(4**n, 2.0**-n)


def _root_map(x):
    """A contraction toward entries down to 1e-16, where extrapolations
    often leave the positive orthant."""
    return np.sqrt(x) * np.logspace(-8, 0, x.size)


@pytest.mark.parametrize("iters", [1, 2, 6, 7, 40])
def test_rolling_anderson_history_matches_restacking(iters):
    """Every proposal, accepted or refused, equals the re-stacked history's."""
    g, x0 = _certificate_map(3, 9.0)
    np.testing.assert_array_equal(_anderson(g, x0, iters, 0.0),
                                  anderson_stacked(g, x0, iters, 0.0))
    x0 = np.linspace(0.5, 2.0, 64)
    np.testing.assert_array_equal(_anderson(_root_map, x0, iters, 0.0),
                                  anderson_stacked(_root_map, x0, iters, 0.0))


def test_rolling_anderson_history_stops_at_tolerance():
    g, x0 = _certificate_map(2, 9.0)
    np.testing.assert_array_equal(_anderson(g, x0, 500, 1e-12),
                                  anderson_stacked(g, x0, 500, 1e-12))
