"""End-to-end suite: one test per published behavior of the toolkit.

Each test pins a checkpoint value, a structural identity, or a trend on the
reference sources (unbiased/biased i.i.d., the two-state Markov chain with
transition probabilities 0.3/0.2, and the market-advisory distortion).
"""

import itertools
import time

import numpy as np
import pytest

from ffrd.analytic import (
    inverse_binary_entropy,
    iid_binary_rd,
    markov_rn,
    stock_market_rd,
)
from ffrd.curves import (
    distortion_at_rate,
    rate_at_distortion,
    rate_estimator,
    subadditivity_check,
    sweep,
)
from ffrd.dual import (
    certificate_from_solution,
    check_feasibility,
    dual_objective,
    reconstruct_channel,
)
from ffrd.models import (
    DistortionSpec,
    DistortionTensor,
    SourceSpec,
    block_pmf,
    distortion_tensor,
)
from ffrd.prob import BlockSource, binary_entropy
from ffrd.sim import monte_carlo
from ffrd.solver import SolverConfig, solve

from helpers import assert_same_iterates
from oracles import random_instance

MARKOV = SourceSpec.binary_markov(0.3, 0.2)
HAMMING = DistortionSpec.hamming()


def test_01_iid_checkpoint():
    start = time.monotonic()
    source = block_pmf(SourceSpec.iid(0.5), 3)
    dist = distortion_tensor(HAMMING, 3)
    pt = solve(source, dist, SolverConfig(lam=6.0, epsilon=1e-6))
    elapsed = time.monotonic() - start
    assert pt.converged
    assert pt.R == pytest.approx(0.278072, abs=1e-3)
    assert pt.D == pytest.approx(0.2, abs=1e-2)
    assert elapsed < 5.0


def test_02_iid_curve_matches_closed_form(iid_curve_n5):
    for D in np.linspace(0.02, 0.45, 20):
        R = rate_at_distortion(iid_curve_n5, float(D))
        assert R == pytest.approx(iid_binary_rd(0.5, float(D)), abs=5e-3)


def test_03_markov_checkpoint(markov_checkpoint):
    _, _, pt = markov_checkpoint
    assert pt.converged
    assert pt.D == pytest.approx(0.10627, abs=1e-3)
    assert pt.R == pytest.approx(0.35884, abs=1e-3)


def test_04_markov_curves_match_and_tighten(markov_curves):
    # pointwise agreement with the closed form where it is achievable: the
    # reverse test channel behind it needs (D - 0.2) / (2D - 1) in [0, 1],
    # i.e. D <= 0.2 for these transition probabilities
    for n, curve in markov_curves.items():
        for pt in curve.converged_points():
            if pt.D <= 0.2:
                assert pt.R == pytest.approx(markov_rn(0.3, 0.2, n, pt.D),
                                             abs=5e-3)
    # longer blocks never hurt: R_n nonincreasing in n at matched distortions
    lo = max(min(c.D) for c in markov_curves.values())
    hi = min(max(c.D) for c in markov_curves.values())
    for D in np.linspace(lo + 1e-6, hi - 1e-6, 15):
        rates = [rate_at_distortion(markov_curves[n], float(D))
                 for n in range(1, 7)]
        assert max(np.diff(rates)) <= 2e-3


def test_05_bound_gap_identity(markov_checkpoint):
    _, _, pt = markov_checkpoint
    for diag in pt.trace:
        assert diag.lower_bound <= diag.upper_bound + 1e-12
        gap = diag.upper_bound - diag.lower_bound
        assert gap == pytest.approx(diag.F / 3, abs=1e-12)
    assert pt.trace[-1].F < 1e-6


def test_06_certificate_round_trip(markov_checkpoint):
    source, dist, pt = markov_checkpoint
    cert = certificate_from_solution(pt, source, dist)
    report = check_feasibility(cert, source, dist)
    assert report.feasible
    assert report.max_violation <= 1e-9
    obj = dual_objective(cert.lam, cert.gamma, source, pt.D)
    assert obj == pytest.approx(pt.R, abs=1e-6)
    channel = reconstruct_channel(cert, source)
    np.testing.assert_allclose(channel.probs, pt.channel.probs, atol=1e-6)


def test_07_sweep_slopes_bracket_lambda(markov_curves):
    pts = markov_curves[3].converged_points()
    checked = 0
    for a, b in zip(pts[:-1], pts[1:]):
        # interior pairs only: the zero-rate tail has slopes of the form 0/0
        if a.R <= 1e-3 or b.R <= 1e-3 or abs(b.D - a.D) < 1e-6:
            continue
        slope = (b.R - a.R) / (b.D - a.D)
        lam_lo, lam_hi = sorted([a.lam, b.lam])
        assert -1.05 * lam_hi / 3 <= slope <= -0.95 * lam_lo / 3
        checked += 1
    assert checked >= 8


def test_08_full_delay_reduces_to_classical():
    source = block_pmf(SourceSpec.iid(0.3), 3)
    dist = distortion_tensor(HAMMING, 3)
    cfg = SolverConfig(lam=3.0, epsilon=1e-8, delay=3)
    assert_same_iterates(source, dist, cfg, solve(source, dist, cfg))
    # with no source memory the per-symbol-history curve coincides with the
    # full-delay one
    grid = np.geomspace(0.5, 24, 12)
    c_s1 = sweep(SourceSpec.iid(0.3), HAMMING, 3, grid)
    c_sn = sweep(SourceSpec.iid(0.3), HAMMING, 3, grid,
                 config=SolverConfig(lam=0.0, delay=3))
    lo = max(min(c_s1.D), min(c_sn.D))
    hi = min(max(c_s1.D), max(c_sn.D))
    for D in np.linspace(lo + 1e-6, hi - 1e-6, 10):
        assert rate_at_distortion(c_s1, float(D)) == pytest.approx(
            rate_at_distortion(c_sn, float(D)), abs=2e-3)


# objective values frozen from tests/oracles.py (SLSQP over the channel
# simplex, written independently of the package and committed first)
ORACLE_VALUES = {11: 0.619705754, 23: 0.147258801, 47: 0.640208381}


@pytest.mark.parametrize("seed", sorted(ORACLE_VALUES))
def test_09_matches_independent_minimizer(seed):
    p, d, lam = random_instance(seed)
    blocks = list(itertools.product(range(2), repeat=2))
    source = BlockSource(n=2, src_alphabet_size=2,
                         probs=np.array([p[x] for x in blocks]))
    dist = DistortionTensor(
        n=2, src_alphabet_size=2, rec_alphabet_size=2,
        values=np.array([[d[(x, xh)] for xh in blocks] for x in blocks]))
    pt = solve(source, dist, SolverConfig(lam=lam, epsilon=1e-10))
    objective = pt.R + lam * pt.D / 2
    assert objective == pytest.approx(ORACLE_VALUES[seed], abs=1e-3)


def test_10_block_rates_subadditive(markov_curves):
    values = {n: rate_at_distortion(markov_curves[n], 0.1)
              for n in range(1, 6)}
    report = subadditivity_check(values, tol=1e-4)
    assert report.holds, report.violations


def _dominance_fraction(curve_hi, curve_lo, limit_of_rate, rate_cap):
    lo = max(min(curve_hi.R), min(curve_lo.R), 1e-3)
    hi = min(max(curve_hi.R), max(curve_lo.R), rate_cap)
    grid = np.linspace(lo + 1e-9, hi - 1e-9, 50)
    estimated = rate_estimator(curve_hi, curve_lo, grid)
    direct = np.array([distortion_at_rate(curve_hi, r) for r in grid])
    limit = np.array([limit_of_rate(r) for r in grid])
    return float(np.mean(np.abs(estimated - limit) <= np.abs(direct - limit)))


def test_11_estimator_dominates_markov(markov_curves_78):
    mix = 0.4 * binary_entropy(0.3) + 0.6 * binary_entropy(0.2)
    frac = _dominance_fraction(
        markov_curves_78[8], markov_curves_78[7],
        lambda r: inverse_binary_entropy(mix - r), mix - 1e-6)
    assert frac >= 0.80


def test_11_estimator_dominates_stock(stock_curves_78):
    hq = binary_entropy(0.2)
    frac = _dominance_fraction(
        stock_curves_78[8], stock_curves_78[7],
        lambda r: 0.6 * inverse_binary_entropy(hq - r / 0.6),
        0.6 * hq - 1e-6)
    assert frac >= 0.70


def test_12_longer_delay_never_helps(delay_curves_n6):
    lo = max(min(c.D) for c in delay_curves_n6.values())
    hi = min(max(c.D) for c in delay_curves_n6.values())
    for D in np.linspace(lo + 1e-6, hi - 1e-6, 10):
        r1, r2, r6 = (rate_at_distortion(delay_curves_n6[s], float(D))
                      for s in (1, 2, 6))
        assert r1 <= r2 + 2e-3
        assert r2 <= r6 + 2e-3


def test_13_simulator_meets_target_and_is_deterministic():
    args = (SourceSpec.iid(0.5), HAMMING, 2, 8, 0.15, 2000, 7, 0.25)
    report = monte_carlo(*args)
    assert report.mean_distortion <= 0.30
    assert report == monte_carlo(*args)
