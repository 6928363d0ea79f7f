import json

import numpy as np
import pytest

from ffrd.dual import (
    DualCertificate,
    NonTightCertificateError,
    certificate_from_solution,
    check_feasibility,
    dual_objective,
    gamma_from_kernel,
    reconstruct_channel,
    slope_at,
)
from ffrd.models import DistortionSpec, SourceSpec, block_pmf, distortion_tensor
from ffrd.prob import CausalKernel, reverse_causal_factors
from ffrd.solver import SolverConfig, solve


def hamming_tensor(n):
    return distortion_tensor(DistortionSpec.hamming(), n)


@pytest.fixture(scope="module")
def markov_converged():
    src = block_pmf(SourceSpec.binary_markov(0.3, 0.2), 2)
    dist = hamming_tensor(2)
    pt = solve(src, dist, SolverConfig(lam=4.0, epsilon=1e-10))
    return src, dist, pt


class TestGamma:
    def test_zero_weight_is_one(self):
        kern = CausalKernel.uniform(2, 2, 2)
        np.testing.assert_allclose(gamma_from_kernel(kern, hamming_tensor(2), 0.0),
                                   1.0, atol=1e-12)

    def test_unit_weight_uniform_binary(self):
        kern = CausalKernel.uniform(1, 2, 2)
        g = gamma_from_kernel(kern, hamming_tensor(1), 1.0)
        np.testing.assert_allclose(g, 4.0 / 3.0, atol=1e-12)


    def test_nan_rows_rejected(self):
        # an infinite weight makes 0 * inf = NaN in the tilt on zero-distortion
        # cells; NaN row sums are not > 0 and must not become a NaN gamma
        kern = CausalKernel.uniform(1, 2, 2)
        with pytest.raises(ValueError):
            gamma_from_kernel(kern, hamming_tensor(1), np.inf)


class TestDualObjective:
    def test_zero_everything(self):
        src = block_pmf(SourceSpec.iid(0.3), 2)
        assert dual_objective(0.0, np.ones(4), src, 0.37) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_gamma_rejected(self, bad):
        src = block_pmf(SourceSpec.iid(0.3), 2)
        with pytest.raises(ValueError, match="finite"):
            dual_objective(1.0, np.full(4, bad), src, 0.1)

    def test_wrong_length_gamma_rejected(self):
        src = block_pmf(SourceSpec.iid(0.3), 2)
        with pytest.raises(ValueError, match="one entry per block"):
            dual_objective(1.0, np.ones(3), src, 0.1)

    def test_weak_duality(self, markov_converged):
        src, dist, pt = markov_converged
        cert = certificate_from_solution(pt, src, dist)
        report = check_feasibility(cert, src, dist)
        assert report.feasible
        assert dual_objective(cert.lam, cert.gamma, src, pt.D) <= pt.R + 1e-9

    def test_tight_at_convergence(self, markov_converged):
        src, dist, pt = markov_converged
        cert = certificate_from_solution(pt, src, dist)
        obj = dual_objective(cert.lam, cert.gamma, src, pt.D)
        assert obj == pytest.approx(pt.R, abs=1e-8)


class TestFeasibility:
    def test_scaled_gamma_breaks_by_one_bit(self, markov_converged):
        src, dist, pt = markov_converged
        cert = certificate_from_solution(pt, src, dist)
        bad = DualCertificate(lam=cert.lam, n=cert.n,
                              src_alphabet_size=2, rec_alphabet_size=2,
                              gamma=cert.gamma * 2.0,
                              p_prime_factors=cert.p_prime_factors)
        report = check_feasibility(bad, src, dist)
        assert not report.feasible
        assert report.max_violation == pytest.approx(1.0, abs=1e-7)

    def test_zero_weight_trivial_certificate(self):
        # gamma = 1 with p' built from an arbitrary product joint is feasible
        # with equality when the channel ignores the source
        src = block_pmf(SourceSpec.iid(0.3), 2)
        dist = hamming_tensor(2)
        joint = src.probs[:, None] * np.full((4, 4), 0.25)
        _, factors = reverse_causal_factors(joint, 2, 2, 2)
        cert = DualCertificate(lam=0.0, n=2, src_alphabet_size=2,
                               rec_alphabet_size=2, gamma=np.ones(4),
                               p_prime_factors=tuple(factors))
        report = check_feasibility(cert, src, dist)
        assert report.feasible
        assert report.max_violation == pytest.approx(0.0, abs=1e-12)

    def test_certificate_on_underflowed_kernel(self):
        # at n=6, lam=7.53 kernel entries underflow to zero; the deflation
        # must skip their 0/0 ratios instead of turning gamma into NaN
        src = block_pmf(SourceSpec.binary_markov(0.3, 0.2), 6)
        dist = hamming_tensor(6)
        pt = solve(src, dist, SolverConfig(lam=7.53))
        cert = certificate_from_solution(pt, src, dist)
        assert np.all(np.isfinite(cert.gamma))
        assert check_feasibility(cert, src, dist).feasible
        obj = dual_objective(cert.lam, cert.gamma, src, pt.D)
        assert pt.R - pt.F_final / 6 - 1e-12 <= obj <= pt.R + 1e-12

    def test_nonfinite_gamma_rejected(self, markov_converged):
        src, dist, pt = markov_converged
        payload = json.loads(certificate_from_solution(pt, src, dist).to_json())
        payload["gamma"] = [float("nan")] * len(payload["gamma"])
        with pytest.raises(ValueError):
            DualCertificate.from_json(json.dumps(payload))

    def test_json_round_trip(self, markov_converged):
        src, dist, pt = markov_converged
        cert = certificate_from_solution(pt, src, dist)
        back = DualCertificate.from_json(cert.to_json())
        np.testing.assert_allclose(back.gamma, cert.gamma)
        np.testing.assert_allclose(back.p_prime_table, cert.p_prime_table)
        assert back.lam == cert.lam


class TestReconstruction:
    def test_round_trip(self, markov_converged):
        src, dist, pt = markov_converged
        cert = certificate_from_solution(pt, src, dist)
        ch = reconstruct_channel(cert, src)
        np.testing.assert_allclose(ch.probs, pt.channel.probs, atol=1e-6)

    def test_single_stage_bayes_inversion(self):
        src = block_pmf(SourceSpec.iid(0.3), 1)
        dist = hamming_tensor(1)
        pt = solve(src, dist, SolverConfig(lam=2.0, epsilon=1e-12))
        cert = certificate_from_solution(pt, src, dist)
        ch = reconstruct_channel(cert, src)
        # r(x̂|x) = p'(x|x̂) q(x̂) / p(x)
        q = pt.kernel.probs[0]
        expected = cert.p_prime_table * q[None, :] / src.probs[:, None]
        np.testing.assert_allclose(ch.probs, expected, atol=1e-8)

    def test_zero_weight_reconstruction_carries_no_information(self):
        src = block_pmf(SourceSpec.iid(0.3), 2)
        dist = hamming_tensor(2)
        pt = solve(src, dist, SolverConfig(lam=0.0, epsilon=1e-12))
        cert = certificate_from_solution(pt, src, dist)
        ch = reconstruct_channel(cert, src)
        from ffrd.prob import JointBlockPmf, causal_kernel_from_joint, directed_information
        kern = causal_kernel_from_joint(
            JointBlockPmf.from_source_and_channel(src, ch), 1)
        assert directed_information(src, ch, kern) == pytest.approx(0.0, abs=1e-9)

    def test_non_tight_certificate_detected(self, markov_converged):
        src, dist, pt = markov_converged
        # a certificate whose p' was built against a different source cannot
        # reproduce this source's marginal
        other = block_pmf(SourceSpec.iid(0.5), 2)
        dist2 = hamming_tensor(2)
        pt2 = solve(other, dist2, SolverConfig(lam=4.0, epsilon=1e-10))
        cert2 = certificate_from_solution(pt2, other, dist2)
        with pytest.raises(NonTightCertificateError):
            reconstruct_channel(cert2, src)


class TestSlope:
    def test_reference_points(self):
        assert slope_at(6.0, 3) == pytest.approx(-2.0)
        assert slope_at(0.0, 3) == 0.0
        assert slope_at(9.216, 3) == pytest.approx(-3.072)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            slope_at(-1.0, 3)
