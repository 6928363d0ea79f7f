import numpy as np
import pytest

from ffrd.curves import _warm_start
from ffrd.models import (
    DistortionSpec,
    FeedForwardMap,
    SourceSpec,
    block_pmf,
    distortion_tensor,
)
from ffrd.prob import (
    CausalKernel,
    ForwardChannel,
    JointBlockPmf,
    causal_kernel_from_joint,
)
from ffrd.solver import (
    SolverConfig,
    diagnostics,
    solve,
    solve_classical,
    update_q,
    update_r,
)

HAMMING = DistortionSpec.hamming()


def hamming_tensor(n):
    return distortion_tensor(HAMMING, n)


class TestUpdateR:
    def test_zero_weight_returns_kernel_rows(self):
        kern = CausalKernel.uniform(2, 2, 2)
        ch = update_r(kern, hamming_tensor(2), 0.0)
        np.testing.assert_allclose(ch.probs, kern.probs, atol=1e-12)

    def test_large_weight_concentrates_on_source(self):
        kern = CausalKernel.uniform(1, 2, 2)
        ch = update_r(kern, hamming_tensor(1), 1e6)
        np.testing.assert_allclose(ch.probs, np.eye(2), atol=1e-12)

    def test_unit_weight_closed_form(self):
        kern = CausalKernel.uniform(1, 2, 2)
        ch = update_r(kern, hamming_tensor(1), 1.0)
        assert ch.probs[0, 0] == pytest.approx(2.0 / 3.0)
        assert ch.probs[1, 1] == pytest.approx(2.0 / 3.0)

    def test_nan_rows_rejected(self):
        kern = CausalKernel.uniform(1, 2, 2)
        with pytest.raises(FloatingPointError):
            update_r(kern, hamming_tensor(1), np.inf)

    def test_rows_normalized(self):
        rng = np.random.default_rng(0)
        joint = rng.dirichlet(np.ones(16)).reshape(4, 4)
        kern = causal_kernel_from_joint(
            JointBlockPmf(n=2, src_alphabet_size=2, rec_alphabet_size=2, probs=joint), 1)
        ch = update_r(kern, hamming_tensor(2), 3.7)
        np.testing.assert_allclose(ch.probs.sum(axis=1), 1.0, atol=1e-12)


class TestUpdateQ:
    def test_channel_independent_of_source(self):
        src = block_pmf(SourceSpec.iid(0.3), 2)
        m = np.array([0.1, 0.2, 0.3, 0.4])
        ch = ForwardChannel(n=2, src_alphabet_size=2, rec_alphabet_size=2,
                            probs=np.tile(m, (4, 1)))
        kern = update_q(src, ch, 1)
        np.testing.assert_allclose(kern.probs, np.tile(m, (4, 1)), atol=1e-12)

    def test_delay_n_is_marginal(self):
        rng = np.random.default_rng(1)
        src = block_pmf(SourceSpec.iid(0.3), 2)
        ch = ForwardChannel(n=2, src_alphabet_size=2, rec_alphabet_size=2,
                            probs=rng.dirichlet(np.ones(4), size=4))
        kern = update_q(src, ch, 2)
        marginal = src.probs @ ch.probs
        np.testing.assert_allclose(kern.probs, np.tile(marginal, (4, 1)), atol=1e-12)

    def test_constant_map_removes_source_dependence(self):
        rng = np.random.default_rng(2)
        src = block_pmf(SourceSpec.iid(0.3), 2)
        ch = ForwardChannel(n=2, src_alphabet_size=2, rec_alphabet_size=2,
                            probs=rng.dirichlet(np.ones(4), size=4))
        kern = update_q(src, ch, 1, FeedForwardMap.constant(2))
        for row in kern.probs:
            np.testing.assert_allclose(row, kern.probs[0], atol=1e-12)


class TestDiagnostics:
    def test_converged_state(self):
        src = block_pmf(SourceSpec.iid(0.3), 2)
        dist = hamming_tensor(2)
        pt = solve(src, dist, SolverConfig(lam=4.0, epsilon=1e-12))
        ch = update_r(pt.kernel, dist, 4.0)
        kern2 = update_q(src, ch, 1)
        diag = diagnostics(pt.kernel, kern2, src, ch, dist, 4.0, 1)
        np.testing.assert_allclose(diag.c, 1.0, atol=1e-9)
        assert diag.F == pytest.approx(0.0, abs=1e-9)
        assert diag.upper_bound - diag.lower_bound == pytest.approx(0.0, abs=1e-9)

    def test_first_iteration_uniform_zero_weight(self):
        src = block_pmf(SourceSpec.iid(0.5), 1)
        dist = hamming_tensor(1)
        kern = CausalKernel.uniform(1, 2, 2)
        ch = update_r(kern, dist, 0.0)
        kern2 = update_q(src, ch, 1)
        diag = diagnostics(kern, kern2, src, ch, dist, 0.0, 1)
        assert diag.F == pytest.approx(0.0, abs=1e-12)
        assert diag.D == pytest.approx(0.5)
        assert diag.upper_bound == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(diag.gamma, 1.0, atol=1e-12)

    def test_gap_is_exactly_f_over_n(self):
        src = block_pmf(SourceSpec.binary_markov(0.3, 0.2), 3)
        pt = solve(src, hamming_tensor(3), SolverConfig(lam=4.0, keep_trace=True))
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
        pt = solve(src, hamming_tensor(3), SolverConfig(lam=9.216, keep_trace=True))
        Ks = [d.K_value for d in pt.trace]
        assert all(Ks[i + 1] <= Ks[i] + 1e-12 for i in range(len(Ks) - 1))

    def test_fixed_point_at_convergence(self):
        src = block_pmf(SourceSpec.binary_markov(0.3, 0.2), 2)
        dist = hamming_tensor(2)
        pt = solve(src, dist, SolverConfig(lam=4.0, epsilon=1e-12))
        r_again = update_r(pt.kernel, dist, 4.0)
        np.testing.assert_allclose(r_again.probs, pt.channel.probs, atol=1e-9)

    def test_nonconvergence_flagged_not_raised(self):
        src = block_pmf(SourceSpec.binary_markov(0.3, 0.2), 3)
        pt = solve(src, hamming_tensor(3), SolverConfig(lam=9.216, max_iters=2))
        assert not pt.converged
        assert pt.iterations == 2

    def test_solution_positive_kernel_invariants(self):
        src = block_pmf(SourceSpec.binary_markov(0.3, 0.2), 2)
        pt = solve(src, hamming_tensor(2), SolverConfig(lam=3.0))
        assert pt.kernel.depends_only_on_allowed()
        np.testing.assert_allclose(pt.kernel.probs.sum(axis=1), 1.0, atol=1e-12)

    def test_constant_feedforward_equals_no_feedforward(self):
        # a constant map starves the decoder of side information: the causal
        # solve must match the plain block solve
        src = block_pmf(SourceSpec.binary_markov(0.3, 0.2), 3)
        dist = hamming_tensor(3)
        a = solve(src, dist, SolverConfig(lam=4.0, delay=1,
                                          feedforward_map=FeedForwardMap.constant(2)))
        b = solve_classical(src, dist, SolverConfig(lam=4.0))
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

    def test_zero_entry_rejected(self):
        # every channel point on reconstruction word 00: the other branches
        # of factor 1 get no mass
        joint = np.zeros((4, 4))
        joint[:, 0] = self.SRC.probs
        kern = causal_kernel_from_joint(
            JointBlockPmf(n=2, src_alphabet_size=2, rec_alphabet_size=2, probs=joint), 1)
        assert np.any(kern.probs == 0.0)
        with pytest.raises(ValueError, match="strictly positive"):
            solve(self.SRC, hamming_tensor(2), SolverConfig(lam=4.0), initial_kernel=kern)

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
        warm = solve(src, dist, cfg, initial_kernel=_warm_start(cold.kernel))
        assert cold.converged and warm.converged
        assert warm.iterations <= 3
        assert abs(warm.R - cold.R) <= cfg.epsilon / n
        assert abs((warm.upper_bound - warm.lower_bound) - warm.F_final / n) <= 1e-12


class TestSolveClassical:
    def test_matches_analytic_binary_curve(self):
        from ffrd.analytic import iid_binary_rd
        src = block_pmf(SourceSpec.iid(0.5), 1)
        dist = hamming_tensor(1)
        for lam in (1.0, 2.0, 4.0, 8.0):
            pt = solve_classical(src, dist, SolverConfig(lam=lam))
            assert pt.R == pytest.approx(iid_binary_rd(0.5, pt.D), abs=1e-5)

    def test_n1_equivalence_with_causal_solver(self):
        src = block_pmf(SourceSpec.iid(0.3), 1)
        dist = hamming_tensor(1)
        a = solve(src, dist, SolverConfig(lam=2.0))
        b = solve_classical(src, dist, SolverConfig(lam=2.0))
        assert a.R == pytest.approx(b.R, abs=1e-12)
        assert a.D == pytest.approx(b.D, abs=1e-12)

    def test_zero_distortion_measure(self):
        src = block_pmf(SourceSpec.iid(0.5), 2)
        dist = distortion_tensor(DistortionSpec.single_letter(np.zeros((2, 2))), 2)
        for lam in (0.0, 1.0, 10.0):
            pt = solve_classical(src, dist, SolverConfig(lam=lam))
            assert pt.R == pytest.approx(0.0, abs=1e-9)

    def test_identical_iterates_at_full_delay(self):
        src = block_pmf(SourceSpec.iid(0.3), 3)
        dist = hamming_tensor(3)
        a = solve(src, dist, SolverConfig(lam=3.0, delay=3, keep_trace=True))
        b = solve_classical(src, dist, SolverConfig(lam=3.0, keep_trace=True))
        assert len(a.trace) == len(b.trace)
        for da, db in zip(a.trace, b.trace):
            np.testing.assert_allclose(da.channel_probs, db.channel_probs, atol=1e-12)
            np.testing.assert_allclose(da.kernel_probs, db.kernel_probs, atol=1e-12)


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
