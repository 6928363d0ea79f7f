import dataclasses
import itertools
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

from helpers import kernel_from_joint


def hamming_tensor(n):
    return distortion_tensor(DistortionSpec.hamming(), n)


SOURCES = {"markov": SourceSpec.binary_markov(0.3, 0.2), "iid": SourceSpec.iid(0.3)}


@pytest.fixture(scope="module")
def tight_certificate():
    """(source name, n, lam) -> source, solve at epsilon 1e-10 and its
    certificate (Hamming distortion), each solved once per module."""
    solved = {}

    def get(source, n, lam):
        if (source, n, lam) not in solved:
            src = block_pmf(SOURCES[source], n)
            dist = hamming_tensor(n)
            pt = solve(src, dist, SolverConfig(lam=lam, epsilon=1e-10))
            solved[source, n, lam] = src, pt, certificate_from_solution(pt, src, dist)
        return solved[source, n, lam]

    return get


@pytest.fixture(scope="module")
def markov_converged(tight_certificate):
    src, pt, _ = tight_certificate("markov", 2, 4.0)
    return src, hamming_tensor(2), pt


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

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_lam_rejected(self, lam):
        # NaN gave a NaN bound
        src = block_pmf(SourceSpec.iid(0.3), 2)
        with pytest.raises(ValueError, match="lam must be finite and >= 0"):
            dual_objective(lam, np.ones(4), src, 0.1)

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

    def test_non_causal_solution_kernel_rejected(self, markov_converged):
        src, dist, pt = markov_converged
        probs = pt.kernel.probs.copy()
        probs[1] = probs[1, ::-1]  # row x = 01 no longer equals row x = 00
        kern = CausalKernel(2, 1, 2, 2, probs, pt.kernel.factors)
        with pytest.raises(ValueError, match="solution kernel depends on source symbols"):
            certificate_from_solution(dataclasses.replace(pt, kernel=kern), src, dist)

    def test_nonfinite_gamma_rejected(self, markov_converged):
        src, dist, pt = markov_converged
        payload = json.loads(certificate_from_solution(pt, src, dist).to_json())
        payload["gamma"] = [float("nan")] * len(payload["gamma"])
        with pytest.raises(ValueError):
            DualCertificate.from_json(json.dumps(payload))

    def test_nan_lam_rejected(self, markov_converged):
        # a NaN weight made every constraint comparison false, and the
        # certificate was reported feasible
        src, dist, pt = markov_converged
        payload = json.loads(certificate_from_solution(pt, src, dist).to_json())
        payload["lam"] = float("nan")
        with pytest.raises(ValueError, match="lam must be finite and >= 0"):
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
        from ffrd.prob import directed_information
        kern = kernel_from_joint(src.probs[:, None] * ch.probs, 2, 2, 2, 1)
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


class TestReconstructionOnTightSupport:
    """ROADMAP defect (a): tight certificates whose channels have entries
    heading to 0 ran all 10,000 steps and raised.  Among them were the
    benchmark's Markov n = 5 at lam = 9 (324 channel entries below 1e-12,
    rows off by 2.6e-4), and Markov n = 3 at lam = 4 and n = 4 at lam = 4
    and 6.  Markov n = 3 at lam = 6 is left out: its solve runs to the
    100,000-iteration cap (11 s) short of epsilon 1e-10."""

    @pytest.mark.parametrize("source, n, lam", [
        case for case in itertools.product(["markov", "iid"], [2, 3, 4], [4.0, 6.0, 9.0])
        if case != ("markov", 3, 6.0)] + [("markov", 5, 9.0)])
    def test_matches_solver(self, tight_certificate, source, n, lam):
        src, pt, cert = tight_certificate(source, n, lam)
        ch = reconstruct_channel(cert, src)
        np.testing.assert_allclose(ch.probs, pt.channel.probs, rtol=0, atol=1e-6)


class TestTightness:
    def test_early_iterate_certificate_refused(self):
        # feasible, but 3 iterations leave F far above the tolerance: p'
        # exceeds p * gamma on the channel's support
        src = block_pmf(SourceSpec.binary_markov(0.3, 0.2), 2)
        dist = hamming_tensor(2)
        pt = solve(src, dist, SolverConfig(lam=4.0, max_iters=3))
        cert = certificate_from_solution(pt, src, dist)
        assert check_feasibility(cert, src, dist).feasible
        with pytest.raises(NonTightCertificateError, match="exceeds p"):
            reconstruct_channel(cert, src)


class TestShapeMismatch:
    @pytest.fixture(scope="class")
    def cert3(self, tight_certificate):
        src, _, cert = tight_certificate("markov", 3, 9.0)
        return src, cert

    def test_reconstruct_names_the_source(self, cert3):
        _, cert = cert3
        with pytest.raises(ValueError, match=r"n=3, \|X\|=2, \|X̂\|=2; the source has n=2"):
            reconstruct_channel(cert, block_pmf(SourceSpec.binary_markov(0.3, 0.2), 2))

    def test_feasibility_names_the_source(self, cert3):
        _, cert = cert3
        with pytest.raises(ValueError, match=r"the source has n=3, \|X\|=3"):
            check_feasibility(cert, block_pmf(SourceSpec.iid([0.2, 0.3, 0.5]), 3),
                              hamming_tensor(3))

    def test_feasibility_names_the_tensor(self, cert3):
        src, cert = cert3
        with pytest.raises(ValueError, match=r"distortion tensor is for n=2, \|X\|=2"):
            check_feasibility(cert, src, hamming_tensor(2))

    def test_certificate_names_the_tensor(self, markov_converged):
        # numpy's reshape error was all that named it
        src, _, pt = markov_converged
        with pytest.raises(ValueError, match=r"solution kernel is for n=2, \|X\|=2, \|X̂\|=2; "
                                             r"the distortion tensor is for n=3"):
            certificate_from_solution(pt, src, hamming_tensor(3))

    def test_gamma_names_the_tensor(self):
        # numpy's broadcast error was all that named it
        with pytest.raises(ValueError, match=r"kernel is for n=3, \|X\|=2, \|X̂\|=2; "
                                             r"the distortion tensor is for n=2"):
            gamma_from_kernel(CausalKernel.uniform(3, 2, 2), hamming_tensor(2), 1.0)


class TestSlope:
    def test_reference_points(self):
        assert slope_at(6.0, 3) == pytest.approx(-2.0)
        assert slope_at(0.0, 3) == 0.0
        assert slope_at(9.216, 3) == pytest.approx(-3.072)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            slope_at(-1.0, 3)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, lam):
        with pytest.raises(ValueError, match="lam must be finite and >= 0"):
            slope_at(lam, 3)
