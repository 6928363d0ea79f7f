import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffrd.dual import (
    FEASIBILITY_TOL,
    DualCertificate,
    NonTightCertificateError,
    certificate_from_solution,
    check_feasibility,
    dual_objective,
    reconstruct_channel,
)
from ffrd.models import DistortionSpec, SourceSpec, block_pmf, distortion_tensor
from ffrd.prob import CausalKernel, reverse_causal_factors
from ffrd.solver import SolverConfig, solve

from helpers import kernel_from_joint
from oracles import constraint_excess, deflated_gamma


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


class TestClosedFormGamma:
    def test_zero_weight_is_one(self):
        # at lam = 0 the channel ignores the source, p' is the source's own
        # causal factorization and the largest feasible gamma is 1
        src = block_pmf(SourceSpec.binary_markov(0.3, 0.2), 2)
        dist = hamming_tensor(2)
        pt = solve(src, dist, SolverConfig(lam=0.0))
        cert = certificate_from_solution(pt, src, dist)
        np.testing.assert_allclose(cert.gamma, 1.0, rtol=0, atol=1e-12)

    def test_defect_f_is_feasible(self):
        # ROADMAP defect (f): kernel entries underflow to 0, and the deflated
        # gamma was infeasible by 0.163 bits; the closed form is feasible,
        # and so a valid bound, if a loose one
        src = block_pmf(SourceSpec.binary_markov(0.3, 0.2), 2)
        dist = distortion_tensor(DistortionSpec.stock(), 2)
        pt = solve(src, dist, SolverConfig(lam=4.0, epsilon=1e-9))
        cert = certificate_from_solution(pt, src, dist)
        report = check_feasibility(cert, src, dist)
        assert report.feasible and report.max_violation <= 1e-12
        assert dual_objective(cert.lam, cert.gamma, src, pt.D) <= pt.R

    def test_vanished_p_prime_raises(self):
        # the joint underflows on a pair whose block has mass, so p' = 0
        # there and no positive gamma is feasible; the certificate came back
        # with max_violation = inf
        source = SourceSpec.markov([[0.33755828851430675, 0.6624417114856934],
                                    [0.05496667936566828, 0.9450333206343317]])
        src = block_pmf(source, 3)
        dist = distortion_tensor(DistortionSpec.single_letter([[1, 1, 0], [0.75, 1, 1]]), 3)
        pt = solve(src, dist, SolverConfig(lam=9.0, epsilon=1e-9))
        with pytest.raises(ValueError, match="p' vanished where the source has mass"):
            certificate_from_solution(pt, src, dist)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_certificate_feasible_by_construction(data):
    """Every certificate is feasible with an objective at most R, or refused
    for a vanished p'; with no kernel entry underflowed, to 0 or to a
    subnormal, it lies within F/n of R; and it is never below the deflated
    gamma of ``oracles`` when that one is feasible."""
    A = data.draw(st.sampled_from([2, 3]), label="A")
    B = data.draw(st.sampled_from([2, 3]), label="B")
    n = data.draw(st.integers(1, 3), label="n")
    lam = data.draw(st.sampled_from([0.0, 0.5, 2.0, 4.0, 9.0, 24.0]), label="lam")
    m = data.draw(st.sampled_from([0, 1]), label="m")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    source = SourceSpec.markov(rng.dirichlet(np.full(A, 0.7), size=A))
    table = rng.integers(0, 5, size=(A,) * (m + 1) + (B,)) / 4
    src = block_pmf(source, n)
    dist = distortion_tensor(DistortionSpec.windowed(m, table), n)
    pt = solve(src, dist, SolverConfig(lam=lam, epsilon=1e-6))
    try:
        cert = certificate_from_solution(pt, src, dist)
    except ValueError as err:
        assert "p' vanished where the source has mass" in str(err)
        return
    pp = cert.p_prime_table
    report = check_feasibility(cert, src, dist)
    assert report.feasible
    assert report.max_violation == pytest.approx(
        constraint_excess(src.probs, cert.gamma, dist.values, lam, pp), abs=1e-12)
    obj = dual_objective(lam, cert.gamma, src, pt.D)
    assert obj <= pt.R + 1e-12
    # a subnormal kernel entry (1e-322 at n=2, lam=0.5) has lost its
    # precision and can leave p' loose by 2e-4 bits: ROADMAP item 6's open half
    if pt.kernel.probs.min() >= np.finfo(float).tiny:
        assert obj >= pt.R - pt.F_final / n - 1e-12
    ref = deflated_gamma(pt.kernel.probs, np.exp2(-lam * dist.values), src.probs, n, A, B)
    ref_excess = constraint_excess(src.probs, ref, dist.values, lam, pp)
    if ref_excess <= FEASIBILITY_TOL:
        # the closed form is the largest feasible gamma, row by row
        assert obj >= dual_objective(lam, ref, src, pt.D) - ref_excess / n - 1e-12


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
                              p_prime=cert.p_prime)
        report = check_feasibility(bad, src, dist)
        assert not report.feasible
        assert report.max_violation == pytest.approx(1.0, abs=1e-7)

    # max(0.0, nan) is 0.0, so a NaN p' was reported feasible with
    # max_violation 0; the p' kernel refuses it, and any non-finite or
    # negative entry, when a certificate is read, and names p'.  The indices
    # are in the kernel's (x̂^i, x^i) axis order.
    @pytest.mark.parametrize("i, index, value", [
        (2, ..., np.nan), (1, (0, 0), np.nan), (1, (0, 1), np.inf), (2, (1, 0, 0, 1), -0.25)])
    def test_bad_p_prime_rejected(self, markov_converged, i, index, value):
        src, dist, pt = markov_converged
        payload = json.loads(certificate_from_solution(pt, src, dist).to_json())
        factor = np.array(payload["p_prime"][i - 1])
        factor[index] = value
        payload["p_prime"][i - 1] = factor.tolist()
        what = "negative" if value < 0 else "non-finite"
        with pytest.raises(ValueError, match=f"p': kernel factor {i} has {what} entries"):
            DualCertificate.from_json(json.dumps(payload))

    def test_nan_p_prime_from_json_rejected(self, markov_converged):
        src, dist, pt = markov_converged
        payload = json.loads(certificate_from_solution(pt, src, dist).to_json())
        payload["p_prime"][0][0][0] = float("nan")
        with pytest.raises(ValueError, match="p': kernel factor 1 has non-finite entries"):
            DualCertificate.from_json(json.dumps(payload))

    @pytest.mark.parametrize("extra", [-1, 1], ids=["one-short", "one-over"])
    def test_factor_count_must_be_n(self, markov_converged, extra):
        # one factor short raised an IndexError in the product, and one
        # factor over was ignored and the certificate reported feasible
        src, dist, pt = markov_converged
        payload = json.loads(certificate_from_solution(pt, src, dist).to_json())
        factors = payload["p_prime"]
        payload["p_prime"] = (factors[:-1] if extra < 0
                              else factors + [np.full((2,) * 6, 0.5).tolist()])
        with pytest.raises(ValueError, match=f"p': kernel needs n=2 factors, got {2 + extra}"):
            DualCertificate.from_json(json.dumps(payload))

    def test_factor_changed_in_place_is_reported(self, markov_converged):
        # a NaN written into factor 2 read max_normalization_error ~1e-16,
        # factor 1's, since max(x, nan) is x
        src, dist, pt = markov_converged
        cert = certificate_from_solution(pt, src, dist)
        cert.p_prime.factors[1][0, 0, 0, 0] = np.nan
        report = check_feasibility(cert, src, dist)
        assert not report.feasible and np.isnan(report.max_normalization_error)

    def test_empty_block_refused(self):
        # n = 0 with no factors was accepted, and p_prime_table raised an IndexError
        text = json.dumps({"lam": 1.0, "n": 0, "src_alphabet_size": 2, "rec_alphabet_size": 2,
                           "gamma": [1.0], "p_prime": []})
        with pytest.raises(ValueError, match="p': a kernel needs n >= 1 and 0 <= delay <= n"):
            DualCertificate.from_json(text)

    def test_old_factor_key_refused(self, markov_converged):
        # the factors under "p_prime_factors" have (x^i, x̂^i) axes; at
        # |X| = |X̂| their shapes cannot tell that order from the kernel's
        src, dist, pt = markov_converged
        payload = json.loads(certificate_from_solution(pt, src, dist).to_json())
        payload["p_prime_factors"] = payload.pop("p_prime")
        with pytest.raises(ValueError, match="certificate JSON has no key 'p_prime'"):
            DualCertificate.from_json(json.dumps(payload))

    @pytest.mark.parametrize("kernel", [
        CausalKernel.uniform(2, 3, 2, delay=1), CausalKernel.uniform(2, 2, 3, delay=0),
        CausalKernel.uniform(3, 3, 2, delay=0),
        CausalKernel.uniform(2, 3, 2, delay=0, ff_map=np.array([0, 1, 1]))],
        ids=["delay", "swapped-alphabets", "n", "map"])
    def test_p_prime_of_another_kind_refused(self, kernel):
        # |X| = 2 and |X̂| = 3: p' conditions on 3 letters and emits 2
        fields = dict(lam=1.0, n=2, src_alphabet_size=2, rec_alphabet_size=3,
                      gamma=np.ones(4))
        DualCertificate(**fields, p_prime=CausalKernel.uniform(2, 3, 2, delay=0))
        with pytest.raises(ValueError, match="p' must be a delay-0 kernel without a map"):
            DualCertificate(**fields, p_prime=kernel)

    def test_zero_weight_trivial_certificate(self):
        # gamma = 1 with p' built from an arbitrary product joint is feasible
        # with equality when the channel ignores the source
        src = block_pmf(SourceSpec.iid(0.3), 2)
        dist = hamming_tensor(2)
        joint = src.probs[:, None] * np.full((4, 4), 0.25)
        factors = reverse_causal_factors(joint, 2, 2, 2)
        cert = DualCertificate(lam=0.0, n=2, src_alphabet_size=2,
                               rec_alphabet_size=2, gamma=np.ones(4),
                               p_prime=CausalKernel(2, 0, 2, 2, factors))
        report = check_feasibility(cert, src, dist)
        assert report.feasible
        assert report.max_violation == pytest.approx(0.0, abs=1e-12)

    def test_certificate_on_underflowed_kernel(self):
        # at n=6, lam=7.53 kernel entries underflow to zero; the closed-form
        # gamma must stay finite and feasible there, and within F/n of R
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

    def test_nan_lam_rejected(self, markov_converged):
        # a NaN weight made every constraint comparison false, and the
        # certificate was reported feasible
        src, dist, pt = markov_converged
        payload = json.loads(certificate_from_solution(pt, src, dist).to_json())
        payload["lam"] = float("nan")
        with pytest.raises(ValueError, match="lam must be finite and >= 0"):
            DualCertificate.from_json(json.dumps(payload))

    @pytest.mark.parametrize("A, B", [(2, 2), (2, 3), (3, 2)])
    def test_json_round_trip(self, A, B):
        # unequal alphabets would catch |X| and |X̂| swapped in the JSON layout
        rng = np.random.default_rng(10 * A + B)
        src = block_pmf(SourceSpec.markov(rng.dirichlet(np.ones(A), size=A)), 2)
        dist = distortion_tensor(DistortionSpec.single_letter(rng.uniform(size=(A, B))), 2)
        pt = solve(src, dist, SolverConfig(lam=4.0))
        cert = certificate_from_solution(pt, src, dist)
        back = DualCertificate.from_json(cert.to_json())
        np.testing.assert_array_equal(back.gamma, cert.gamma)
        np.testing.assert_array_equal(back.p_prime_table, cert.p_prime_table)
        assert back.lam == cert.lam
        assert check_feasibility(back, src, dist).feasible


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

    def test_successive_reconstructions_own_their_channels(self, tight_certificate):
        """Each returned channel owns its table: a later reconstruction, which
        steps on a workspace of its own, neither shares nor changes it."""
        src, pt, cert = tight_certificate("markov", 3, 4.0)
        first = reconstruct_channel(cert, src)
        kept = first.probs.copy()
        other_src, _, other_cert = tight_certificate("markov", 3, 9.0)
        second = reconstruct_channel(other_cert, other_src)
        assert first.probs.base is None and second.probs.base is None
        assert not np.shares_memory(first.probs, second.probs)
        np.testing.assert_array_equal(first.probs, kept)
        assert not np.array_equal(first.probs, second.probs)

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


class TestReconstructionOffTheJoint:
    @pytest.mark.xfail(strict=True, reason="ROADMAP defect (g): p' on a context the joint "
                                           "does not reach has a second fixed point")
    def test_unused_symbol_gives_the_points_channel_or_raises(self):
        """The point's channel gives the third symbol no mass, so p' there is
        the reverse factorization's uniform fill.  Reconstruction returned
        [[0.533, 0.133, 0.333], ...], D = 0.3 against the point's 0.2, and
        both tightness checks passed."""
        src = block_pmf(SourceSpec.iid(0.5), 1)
        dist = distortion_tensor(DistortionSpec.single_letter([[0, 1, 0.5], [1, 0, 0.5]]), 1)
        pt = solve(src, dist, SolverConfig(lam=2.0, epsilon=1e-10))
        try:
            ch = reconstruct_channel(certificate_from_solution(pt, src, dist), src)
        except NonTightCertificateError:
            return
        np.testing.assert_allclose(ch.probs, pt.channel.probs, rtol=0, atol=1e-6)


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

    def test_certificate_of_the_point_rebuilds_its_channel(self, tight_certificate):
        """The certificate is that of the point's own channel, so on the
        benchmark's Markov n = 5, lam = 9 case reconstruction returns that
        channel to 2.7e-13.  It was 7.0e-11 off while the certificate came
        from the channel of one more step from the point's kernel."""
        src, pt, cert = tight_certificate("markov", 5, 9.0)
        ch = reconstruct_channel(cert, src)
        assert np.max(np.abs(ch.probs - pt.channel.probs)) <= 1e-12


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
