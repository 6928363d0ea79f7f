import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ffrd
from ffrd.models import (
    DistortionSpec,
    FeedForwardMap,
    SourceSpec,
    block_pmf,
    distortion_tensor,
)
from ffrd.prob import CausalKernel, ForwardChannel, _Contexts
from ffrd.solver import (
    IterationDiagnostics,
    SolverConfig,
    _solve_lockstep,
    _step_stack,
    _warm_start,
    _Workspace,
    solve,
)

from helpers import assert_same_iterates, kernel_from_joint
from oracles import solve_classical

HAMMING = DistortionSpec.hamming()


def hamming_tensor(n):
    return distortion_tensor(HAMMING, n)


def first_step(kernel, lam, source=None, dist=None):
    """The one-iteration solve from ``kernel``: its channel is the channel
    update of the kernel and its trace row the diagnostics of that step.
    The source is iid(0.3) and the distortion Hamming unless given."""
    n = kernel.n
    source = block_pmf(SourceSpec.iid(0.3), n) if source is None else source
    dist = hamming_tensor(n) if dist is None else dist
    config = SolverConfig(lam, max_iters=1, delay=kernel.delay)
    return solve(source, dist, config, initial_kernel=kernel)


def kernel_update(source, channel, s, ff_map=None):
    """The causal kernel of source * channel: the step from the uniform
    kernel with the channel as its weight, as reconstruction takes it."""
    n, A, B = channel.n, channel.src_alphabet_size, channel.rec_alphabet_size
    ctx = _Contexts.of(n, A, B, s, None if ff_map is None else ff_map.table)
    ws = _Workspace(ctx, 1, channel.probs, source.probs)
    ws.q[...] = float(B) ** (-n)
    return ctx.full(_step_stack(ws)[0])


class TestUpdateR:
    """The channel update, as the channel of a one-iteration solve."""

    def test_zero_weight_returns_kernel_rows(self):
        kern = CausalKernel.uniform(2, 2, 2)
        ch = first_step(kern, 0.0).channel
        np.testing.assert_allclose(ch.probs, kern.probs, atol=1e-12)

    def test_large_weight_concentrates_on_source(self):
        kern = CausalKernel.uniform(1, 2, 2)
        ch = first_step(kern, 1e6).channel
        np.testing.assert_allclose(ch.probs, np.eye(2), atol=1e-12)

    def test_unit_weight_closed_form(self):
        kern = CausalKernel.uniform(1, 2, 2)
        ch = first_step(kern, 1.0).channel
        assert ch.probs[0, 0] == pytest.approx(2.0 / 3.0)
        assert ch.probs[1, 1] == pytest.approx(2.0 / 3.0)

    def test_nan_rows_rejected(self):
        # an infinite weight makes the tilt 2^{-lam d} NaN where d = 0; it is
        # refused before a step is taken
        kern = CausalKernel.uniform(1, 2, 2)
        with pytest.raises(ValueError, match="lam must be finite"):
            first_step(kern, np.inf)

    def test_rows_normalized(self):
        rng = np.random.default_rng(0)
        joint = rng.dirichlet(np.ones(16)).reshape(4, 4)
        kern = kernel_from_joint(joint, 2, 2, 2, 1)
        ch = first_step(kern, 3.7).channel
        np.testing.assert_allclose(ch.probs.sum(axis=1), 1.0, atol=1e-12)


class TestUpdateQ:
    """The kernel update: the step's kernel with the channel as its weight."""

    def test_channel_independent_of_source(self):
        src = block_pmf(SourceSpec.iid(0.3), 2)
        m = np.array([0.1, 0.2, 0.3, 0.4])
        ch = ForwardChannel(n=2, src_alphabet_size=2, rec_alphabet_size=2,
                            probs=np.tile(m, (4, 1)))
        kern = kernel_update(src, ch, 1)
        np.testing.assert_allclose(kern, np.tile(m, (4, 1)), atol=1e-12)

    def test_delay_n_is_marginal(self):
        rng = np.random.default_rng(1)
        src = block_pmf(SourceSpec.iid(0.3), 2)
        ch = ForwardChannel(n=2, src_alphabet_size=2, rec_alphabet_size=2,
                            probs=rng.dirichlet(np.ones(4), size=4))
        kern = kernel_update(src, ch, 2)
        marginal = src.probs @ ch.probs
        np.testing.assert_allclose(kern, np.tile(marginal, (4, 1)), atol=1e-12)

    def test_constant_map_removes_source_dependence(self):
        rng = np.random.default_rng(2)
        src = block_pmf(SourceSpec.iid(0.3), 2)
        ch = ForwardChannel(n=2, src_alphabet_size=2, rec_alphabet_size=2,
                            probs=rng.dirichlet(np.ones(4), size=4))
        kern = kernel_update(src, ch, 1, FeedForwardMap.constant(2))
        for row in kern:
            np.testing.assert_allclose(row, kern[0], atol=1e-12)


class TestDiagnostics:
    """The scalar record of a step, as the trace row of a one-iteration
    solve."""

    def test_converged_state(self):
        src = block_pmf(SourceSpec.iid(0.3), 2)
        dist = hamming_tensor(2)
        pt = solve(src, dist, SolverConfig(lam=4.0, epsilon=1e-12))
        again = first_step(pt.kernel, 4.0, src, dist)
        diag = again.trace[0]
        np.testing.assert_allclose(again.kernel.probs / pt.kernel.probs, 1.0, atol=1e-9)
        assert diag.F == pytest.approx(0.0, abs=1e-9)
        assert diag.upper_bound - diag.lower_bound == pytest.approx(0.0, abs=1e-9)

    def test_first_iteration_uniform_zero_weight(self):
        src = block_pmf(SourceSpec.iid(0.5), 1)
        dist = hamming_tensor(1)
        kern = CausalKernel.uniform(1, 2, 2)
        diag = first_step(kern, 0.0, src, dist).trace[0]
        assert diag.F == pytest.approx(0.0, abs=1e-12)
        assert diag.D == pytest.approx(0.5)
        assert diag.upper_bound == pytest.approx(0.0, abs=1e-12)

    def test_kernel_for_other_block_length_named(self):
        with pytest.raises(ValueError, match=r"initial kernel is for n=3, \|X\|=2, \|X̂\|=2; "
                                             r"expected n=2, \|X\|=2, \|X̂\|=2"):
            solve(block_pmf(SourceSpec.iid(0.3), 2), hamming_tensor(2), SolverConfig(lam=1.0),
                  initial_kernel=CausalKernel.uniform(3, 2, 2))

    def test_gap_is_exactly_f_over_n(self):
        src = block_pmf(SourceSpec.binary_markov(0.3, 0.2), 3)
        pt = solve(src, hamming_tensor(3), SolverConfig(lam=4.0))
        for diag in pt.trace:
            gap = diag.upper_bound - diag.lower_bound
            assert gap == pytest.approx(diag.F / 3, abs=1e-12)
            assert diag.F >= -1e-12


class TestSolve:
    def test_zero_weight_gives_zero_rate(self):
        src = block_pmf(SourceSpec.iid(0.3), 2)
        pt = solve(src, hamming_tensor(2), SolverConfig(lam=0.0))
        assert pt.R == pytest.approx(0.0, abs=1e-9)
        assert pt.converged

    def test_uniform_source_checkpoint(self):
        src = block_pmf(SourceSpec.iid(0.5), 3)
        pt = solve(src, hamming_tensor(3), SolverConfig(lam=6.0))
        assert pt.D == pytest.approx(0.2, abs=1e-6)
        assert pt.R == pytest.approx(0.278072, abs=1e-6)

    def test_markov_checkpoint(self):
        src = block_pmf(SourceSpec.binary_markov(0.3, 0.2), 3)
        pt = solve(src, hamming_tensor(3), SolverConfig(lam=9.216))
        assert pt.D == pytest.approx(0.10627, abs=1e-4)
        assert pt.R == pytest.approx(0.35884, abs=1e-4)

    def test_lagrangian_monotone(self):
        src = block_pmf(SourceSpec.binary_markov(0.3, 0.2), 3)
        pt = solve(src, hamming_tensor(3), SolverConfig(lam=9.216))
        Ks = [d.K_value for d in pt.trace]
        assert all(Ks[i + 1] <= Ks[i] + 1e-12 for i in range(len(Ks) - 1))

    def test_fixed_point_at_convergence(self):
        src = block_pmf(SourceSpec.binary_markov(0.3, 0.2), 2)
        dist = hamming_tensor(2)
        pt = solve(src, dist, SolverConfig(lam=4.0, epsilon=1e-12))
        r_again = first_step(pt.kernel, 4.0, src, dist).channel
        np.testing.assert_allclose(r_again.probs, pt.channel.probs, atol=1e-9)

    def test_nonconvergence_flagged_not_raised(self):
        src = block_pmf(SourceSpec.binary_markov(0.3, 0.2), 3)
        pt = solve(src, hamming_tensor(3), SolverConfig(lam=9.216, max_iters=2))
        assert not pt.converged
        assert pt.iterations == 2

    def test_solution_positive_kernel_invariants(self):
        src = block_pmf(SourceSpec.binary_markov(0.3, 0.2), 2)
        pt = solve(src, hamming_tensor(2), SolverConfig(lam=3.0))
        assert (pt.kernel.delay, pt.kernel.ff_map) == (1, None)
        assert np.all(pt.kernel.table > 0.0)
        np.testing.assert_allclose(pt.kernel.probs.sum(axis=1), 1.0, atol=1e-12)

    def test_constant_feedforward_equals_no_feedforward(self):
        # a constant map starves the decoder of side information: the causal
        # solve must match the plain block solve
        src = block_pmf(SourceSpec.binary_markov(0.3, 0.2), 3)
        dist = hamming_tensor(3)
        a = solve(src, dist, SolverConfig(lam=4.0, delay=1,
                                          feedforward_map=FeedForwardMap.constant(2)))
        b = solve_classical(src.probs, dist.values, 4.0, 3)
        assert a.R == pytest.approx(b.R, abs=1e-9)
        assert a.D == pytest.approx(b.D, abs=1e-9)


class TestInitialKernel:
    SRC = block_pmf(SourceSpec.binary_markov(0.3, 0.2), 2)

    def test_uniform_start_is_the_default(self):
        cfg = SolverConfig(lam=4.0)
        a = solve(self.SRC, hamming_tensor(2), cfg)
        b = solve(self.SRC, hamming_tensor(2), cfg, initial_kernel=CausalKernel.uniform(2, 2, 2))
        assert (a.R, a.D, a.F_final, a.iterations) == (b.R, b.D, b.F_final, b.iterations)
        np.testing.assert_array_equal(a.kernel.probs, b.kernel.probs)

    @pytest.mark.parametrize("kernel, config", [
        (CausalKernel.uniform(3, 2, 2), SolverConfig(lam=4.0)),  # block length
        (CausalKernel.uniform(2, 2, 2, delay=2), SolverConfig(lam=4.0)),  # delay
        (CausalKernel.uniform(2, 2, 3), SolverConfig(lam=4.0)),  # table shape
        (CausalKernel.uniform(2, 2, 2, ff_map=np.zeros(2, dtype=int)),
         SolverConfig(lam=4.0)),  # map given, none solved for
        (CausalKernel.uniform(2, 2, 2),
         SolverConfig(lam=4.0, feedforward_map=FeedForwardMap.constant(2))),  # map missing
        (CausalKernel.uniform(2, 2, 2, ff_map=np.zeros(2, dtype=int)),
         SolverConfig(lam=4.0, feedforward_map=FeedForwardMap.identity(2))),  # other map
    ], ids=["n", "delay", "shape", "extra-map", "missing-map", "other-map"])
    def test_mismatched_kernel_rejected(self, kernel, config):
        with pytest.raises(ValueError, match="initial kernel"):
            solve(self.SRC, hamming_tensor(2), config, initial_kernel=kernel)

    def test_delay_zero_kernel_rejected(self):
        # delay 0 is a kernel the solver never steps, such as a certificate's p'
        with pytest.raises(ValueError, match="initial kernel has delay 0; the solve has delay 1"):
            solve(self.SRC, hamming_tensor(2), SolverConfig(lam=4.0),
                  initial_kernel=CausalKernel.uniform(2, 2, 2, delay=0))

    def test_zero_entry_rejected(self):
        # every channel point on reconstruction word 00: the other branches
        # of factor 1 get no mass
        joint = np.zeros((4, 4))
        joint[:, 0] = self.SRC.probs
        kern = kernel_from_joint(joint, 2, 2, 2, 1)
        assert np.any(kern.probs == 0.0)
        with pytest.raises(ValueError, match="strictly positive"):
            solve(self.SRC, hamming_tensor(2), SolverConfig(lam=4.0), initial_kernel=kern)

    def test_causal_kernel_within_tolerance_accepted(self):
        kern = CausalKernel.uniform(2, 2, 2)
        f2 = kern.factors[1].copy()
        f2[1, 0, 0] += 1e-13  # a row of factor 2 off by rounding
        nudged = CausalKernel(2, 1, 2, 2, (kern.factors[0], f2))
        a = solve(self.SRC, hamming_tensor(2), SolverConfig(lam=4.0), initial_kernel=kern)
        b = solve(self.SRC, hamming_tensor(2), SolverConfig(lam=4.0), initial_kernel=nudged)
        assert a.iterations == b.iterations
        assert (b.R, b.D) == pytest.approx((a.R, a.D), abs=1e-9)

    @pytest.mark.parametrize("lam, delay, ff_map", [
        (4.0, 1, None), (6.0, 2, None), (3.0, 1, FeedForwardMap.parity(3)),
    ])
    def test_restart_from_converged_point(self, lam, delay, ff_map):
        # restarting from a converged kernel, mixed as a sweep mixes it,
        # lands on the same point within a few iterations
        source = SourceSpec.markov([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]])
        n = 3
        src = block_pmf(source, n)
        dist = distortion_tensor(DistortionSpec.hamming(3), n)
        cfg = SolverConfig(lam=lam, delay=delay, feedforward_map=ff_map)
        cold = solve(src, dist, cfg)
        warm = _solve_lockstep(src, dist, [cfg], [_warm_start(cold.kernel)])[0]
        assert cold.converged and warm.converged
        assert warm.iterations <= 3
        assert abs(warm.R - cold.R) <= cfg.epsilon / n
        assert abs((warm.upper_bound - warm.lower_bound) - warm.F_final / n) <= 1e-12


class TestSolveClassical:
    """The textbook solver of ``oracles`` against closed forms and against
    ``solve`` where the two coincide."""

    def test_matches_analytic_binary_curve(self):
        from ffrd.analytic import iid_binary_rd
        src = block_pmf(SourceSpec.iid(0.5), 1)
        dist = hamming_tensor(1)
        for lam in (1.0, 2.0, 4.0, 8.0):
            pt = solve_classical(src.probs, dist.values, lam, 1)
            assert pt.R == pytest.approx(iid_binary_rd(0.5, pt.D), abs=1e-5)

    def test_n1_equivalence_with_causal_solver(self):
        src = block_pmf(SourceSpec.iid(0.3), 1)
        dist = hamming_tensor(1)
        a = solve(src, dist, SolverConfig(lam=2.0))
        b = solve_classical(src.probs, dist.values, 2.0, 1)
        assert a.R == pytest.approx(b.R, abs=1e-12)
        assert a.D == pytest.approx(b.D, abs=1e-12)

    def test_zero_distortion_measure(self):
        src = block_pmf(SourceSpec.iid(0.5), 2)
        dist = distortion_tensor(DistortionSpec.single_letter(np.zeros((2, 2))), 2)
        for lam in (0.0, 1.0, 10.0):
            pt = solve_classical(src.probs, dist.values, lam, 2)
            assert pt.R == pytest.approx(0.0, abs=1e-9)

    def test_identical_iterates_at_full_delay(self):
        src = block_pmf(SourceSpec.iid(0.3), 3)
        dist = hamming_tensor(3)
        cfg = SolverConfig(lam=3.0, delay=3)
        assert_same_iterates(src, dist, cfg, solve(src, dist, cfg))


class TestConfigValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(lam=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(lam=1.0, epsilon=0.0)
        with pytest.raises(ValueError):
            SolverConfig(lam=1.0, delay=0)
        with pytest.raises(ValueError):
            SolverConfig(lam=1.0, max_iters=0)

    def test_infinite_epsilon_rejected(self):
        # every first step passed F < inf, so a point 0.234 bits from its
        # bound reported converged
        with pytest.raises(ValueError, match="epsilon must be finite and > 0"):
            SolverConfig(lam=1.0, epsilon=np.inf)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_lam_rejected(self, lam):
        # NaN passed "lam < 0" and took a step; inf gave NaN channel rows
        with pytest.raises(ValueError, match="lam must be finite and >= 0"):
            SolverConfig(lam=lam)

    @pytest.mark.parametrize("name, value", [
        ("max_iters", 64.5), ("max_iters", 2.5), ("max_iters", np.inf), ("delay", 1.5),
    ])
    def test_fractional_count_rejected(self, name, value):
        # a fractional cap was never reached; 2.5 and a float delay gave a
        # TypeError from numpy
        with pytest.raises(ValueError, match=f"{name} must be a whole number"):
            SolverConfig(lam=1.0, **{name: value})

    def test_fractional_map_refused(self):
        # the map was truncated to [0, 0], and the solve ran the constant map
        with pytest.raises(ValueError, match="map table must be a 1-D array of symbol indices"):
            solve(block_pmf(SourceSpec.iid(0.5), 2), hamming_tensor(2),
                  SolverConfig(lam=2.0, feedforward_map=FeedForwardMap([0.7, 0.2])))

    def test_whole_float_counts_stored_as_int(self):
        # as a JSON config file gives them
        cfg = SolverConfig(lam=4.0, max_iters=1e5, delay=2.0)
        assert (cfg.max_iters, cfg.delay) == (100_000, 2)
        assert type(cfg.max_iters) is int and type(cfg.delay) is int
        src = block_pmf(SourceSpec.binary_markov(0.3, 0.2), 2)
        pt = solve(src, hamming_tensor(2), SolverConfig(lam=4.0, epsilon=1e-14, max_iters=3.0))
        assert pt.iterations == 3 and not pt.converged


class TestInputValidation:
    @pytest.mark.parametrize("source, n_dist, A_dist, ff_map, message", [
        (SourceSpec.iid(0.3), 3, 2, None,
         r"distortion tensor is for n=3, \|X\|=2, \|X̂\|=2; the source has n=2, \|X\|=2"),
        (SourceSpec.iid(0.3), 2, 3, None,
         r"distortion tensor is for n=2, \|X\|=3, \|X̂\|=3; the source has n=2, \|X\|=2"),
        (SourceSpec.markov([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]]), 2, 3,
         FeedForwardMap.identity(2), "map is defined on 2 symbols; the source alphabet has 3"),
        (SourceSpec.iid(0.3), 2, 2, FeedForwardMap.parity(3),
         "map is defined on 3 symbols; the source alphabet has 2"),
    ], ids=["distortion-n", "distortion-alphabet", "map-too-small", "map-too-large"])
    def test_mismatch_named(self, source, n_dist, A_dist, ff_map, message):
        dist = distortion_tensor(DistortionSpec.hamming(A_dist), n_dist)
        with pytest.raises(ValueError, match=message):
            solve(block_pmf(source, 2), dist, SolverConfig(lam=1.0, feedforward_map=ff_map))

    @pytest.mark.parametrize("n_dist, ff_map", [(3, None), (2, FeedForwardMap.parity(3))],
                             ids=["distortion", "map"])
    def test_lockstep_checks_its_inputs(self, n_dist, ff_map):
        # solve and sweep leave the check to the lockstep they call
        src = block_pmf(SourceSpec.iid(0.3), 2)
        dist = distortion_tensor(DistortionSpec.hamming(), n_dist)
        config = SolverConfig(lam=1.0, feedforward_map=ff_map)
        with pytest.raises(ValueError) as from_solve:
            solve(src, dist, config)
        with pytest.raises(ValueError) as from_lockstep:
            _solve_lockstep(src, dist, [config], [None])
        assert str(from_lockstep.value) == str(from_solve.value)


class TestTrace:
    def test_one_read_only_row_per_iteration(self):
        assert IterationDiagnostics._fields == (
            "k", "F", "K_value", "D", "lower_bound", "upper_bound")
        src = block_pmf(SourceSpec.binary_markov(0.3, 0.2), 3)
        pt = solve(src, hamming_tensor(3), SolverConfig(lam=4.0))
        np.testing.assert_array_equal(pt.trace.k, np.arange(1, pt.iterations + 1))
        last = pt.trace[-1]
        assert (last.F, last.D, last.lower_bound, last.upper_bound) == (
            pt.F_final, pt.D, pt.lower_bound, pt.upper_bound)
        with pytest.raises(ValueError, match="read-only"):
            pt.trace.F[0] = 0.0

    def test_long_solve_keeps_only_scalars(self):
        # n=6 at lam=0.125 runs about 3,000 iterations; a trace of tables
        # took 295 MB here
        src = block_pmf(SourceSpec.binary_markov(0.3, 0.2), 6)
        dist = hamming_tensor(6)
        tracemalloc.start()
        try:
            pt = solve(src, dist, SolverConfig(lam=0.125))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pt.iterations > 1000
        assert pt.trace.nbytes == 48 * pt.iterations
        assert peak < 5e6

    def test_long_solve_holds_no_per_iteration_objects(self):
        # 5,000 capped iterations at n=2 peaked at 1.52 MB when every record
        # was held as a Python object until the solve ended, and at 0.60 MB
        # with the rows written straight into the trace buffer
        src = block_pmf(SourceSpec.binary_markov(0.3, 0.2), 2)
        config = SolverConfig(lam=4.0, epsilon=1e-12, max_iters=5_000)
        tracemalloc.start()
        try:
            pt = solve(src, hamming_tensor(2), config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pt.iterations == 5_000 and not pt.converged
        np.testing.assert_array_equal(pt.trace.k, np.arange(1, 5_001))
        assert peak < 0.76e6


_THREADED_SOLVE = """
import hashlib, json
import numpy as np
import ffrd
one_letter = ffrd.DistortionSpec(m=0, table=np.array([[0.0], [1.0]]), src_alphabet_size=2,
                                 rec_alphabet_size=1)
markov = ffrd.SourceSpec.binary_markov(0.3, 0.2)
cases = [(ffrd.block_pmf(markov, n), ffrd.distortion_tensor(spec, n), lam, 1e-6)
         for n, spec, lam in ((8, ffrd.DistortionSpec.hamming(), 9.216), (14, one_letter, 2.0))]
# one source block and 3^9 = 19,683 reconstructions: every row is a dot
# longer than OpenBLAS runs on one thread
rng = np.random.default_rng(9)
cases.append((ffrd.BlockSource(9, 1, np.ones(1)),
              ffrd.DistortionTensor(9, 1, 3, rng.integers(0, 9, (1, 3**9)) / 8), 3.0, 1e-9))
runs = []
for src, dist, lam, eps in cases:
    pt = ffrd.solve(src, dist, ffrd.SolverConfig(lam=lam, epsilon=eps))
    runs.append([pt.iterations, pt.F_final.hex(), pt.R.hex(), pt.D.hex(),
                 pt.upper_bound.hex(), hashlib.sha256(pt.trace.tobytes()).hexdigest()])
print(json.dumps(runs))
"""


def test_answers_independent_of_blas_threads():
    # OpenBLAS splits a dot of more than 10,000 entries across threads; the
    # step's E[log2 c] over 32,768 context cells was such a dot, and F_final
    # ended ...7e4bc at one thread and ...7e4bd at two.  At n = 14 the
    # diagnostics' E[log2 rows] runs over 16,384 source blocks: as one dot
    # it gave R = 0x1.2492492492492p-55 at one thread and 0 at two.  At
    # |X̂|^n = 19,683 the row sums and D are such dots over x̂^n; whole, they
    # gave a different R, F and trace at one thread and at two
    src = str(Path(ffrd.__file__).resolve().parent.parent)
    runs = []
    for threads in ("1", "2"):
        # read by OpenBLAS when numpy loads it, so set before the import
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", _THREADED_SOLVE], capture_output=True,
                              text=True, env=env, timeout=300)
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(done.stdout))
    assert runs[0][0][0] == 465
    assert runs[0] == runs[1]
