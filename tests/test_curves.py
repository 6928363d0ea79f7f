import numpy as np
import pytest

from ffrd import curves, solver
from ffrd.analytic import iid_binary_rd, markov_rn
from ffrd.curves import (
    RdCurve,
    default_lambda_grid,
    distortion_at_rate,
    rate_at_distortion,
    rate_estimator,
    subadditivity_check,
    sweep,
)
from ffrd.models import (
    DistortionSpec,
    FeedForwardMap,
    SourceSpec,
    block_pmf,
    distortion_tensor,
)
from ffrd.solver import SolverConfig, solve

HAMMING = DistortionSpec.hamming()


@pytest.fixture(scope="module")
def iid_curve_n2():
    return sweep(SourceSpec.iid(0.5), HAMMING, 2, np.geomspace(0.5, 24, 16))


class TestSweep:
    def test_single_zero_weight_point(self):
        curve = sweep(SourceSpec.iid(0.5), HAMMING, 2, [0.0])
        assert len(curve.points) == 1
        assert curve.points[0].R == pytest.approx(0.0, abs=1e-9)
        assert curve.points[0].D == pytest.approx(0.5)

    def test_sorted_and_monotone(self, iid_curve_n2):
        D, R = iid_curve_n2.D, iid_curve_n2.R
        assert np.all(np.diff(D) > 0)
        assert np.all(np.diff(R) <= 2e-3)

    def test_matches_analytic_iid(self, iid_curve_n2):
        for pt in iid_curve_n2.converged_points():
            if 0.02 <= pt.D <= 0.45:
                assert pt.R == pytest.approx(iid_binary_rd(0.5, pt.D), abs=5e-3)

    def test_default_grid_shape(self):
        grid = default_lambda_grid()
        assert grid.size == 24
        assert grid[0] == pytest.approx(0.125)
        assert grid[-1] == pytest.approx(32.0)

    def test_whole_float_block_length(self):
        # 2.0 raised a TypeError from numpy
        curve = sweep(SourceSpec.iid(0.3), HAMMING, 2.0, [4.0, 1.0])
        assert type(curve.n) is int
        ref = sweep(SourceSpec.iid(0.3), HAMMING, 2, [4.0, 1.0])
        assert [(pt.R, pt.D) for pt in curve.points] == [(pt.R, pt.D) for pt in ref.points]

    def test_empty_grid_refused(self):
        # it returned a curve with no points
        with pytest.raises(ValueError, match="lambda_grid must hold at least one weight"):
            sweep(SourceSpec.iid(0.5), HAMMING, 2, [])

    @pytest.mark.parametrize("grid", [[5.0, 4.0, float("nan")], [5.0, 4.0, -1.0]],
                             ids=["nan", "negative"])
    def test_bad_weight_refused_before_any_solve(self, grid, monkeypatch):
        # with one weight per stack, the valid weights were solved first
        def solve_refused(*args, **kwargs):
            raise AssertionError("a weight was solved before the grid was checked")

        monkeypatch.setattr(solver, "_STACK_CELLS", 1)
        monkeypatch.setattr(curves, "_solve_lockstep", solve_refused)
        with pytest.raises(ValueError, match="lam must be finite and >= 0"):
            sweep(SourceSpec.iid(0.5), HAMMING, 2, grid)

    def test_duplicate_points_removed(self):
        curve = sweep(SourceSpec.iid(0.5), HAMMING, 1, [2.0, 2.0, 4.0])
        assert len(curve.points) == 2

    def test_equal_points_keep_the_larger_weight(self):
        # a constant distortion puts every weight on the same (D, R); the
        # points reach the curve in solve order, largest weight first
        constant = DistortionSpec.single_letter([[1.0, 1.0], [1.0, 1.0]])
        curve = sweep(SourceSpec.iid(0.3), constant, 2, [0.0, 0.5, 2.0])
        assert [pt.lam for pt in curve.points] == [2.0]
        assert [cfg.lam for cfg in curve.configs] == [2.0]


class TestInterpolation:
    def test_exact_point(self, iid_curve_n2):
        pt = iid_curve_n2.converged_points()[3]
        assert distortion_at_rate(iid_curve_n2, pt.R) == pytest.approx(pt.D, abs=1e-12)

    def test_midpoint_blend(self, iid_curve_n2):
        pts = iid_curve_n2.converged_points()
        a, b = pts[2], pts[3]
        mid_R = 0.5 * (a.R + b.R)
        expected = a.D + (b.D - a.D) * (mid_R - a.R) / (b.R - a.R)
        assert distortion_at_rate(iid_curve_n2, mid_R) == pytest.approx(expected, abs=1e-12)

    def test_out_of_range_rejected(self, iid_curve_n2):
        with pytest.raises(ValueError):
            distortion_at_rate(iid_curve_n2, 10.0)

    def test_rate_inversion_consistent(self, iid_curve_n2):
        pt = iid_curve_n2.converged_points()[4]
        assert rate_at_distortion(iid_curve_n2, pt.D) == pytest.approx(pt.R, abs=1e-12)


class TestRateEstimator:
    def test_identical_curves_telescope(self, iid_curve_n2):
        # for a memoryless source consecutive orders coincide, so the
        # estimator returns the common curve
        curve1 = sweep(SourceSpec.iid(0.5), HAMMING, 1, np.geomspace(0.5, 24, 16))
        grid = np.linspace(0.15, 0.6, 9)
        est = rate_estimator(iid_curve_n2, curve1, grid)
        direct = np.array([distortion_at_rate(iid_curve_n2, r) for r in grid])
        np.testing.assert_allclose(est, direct, atol=2e-3)

    def test_block_length_mismatch_rejected(self, iid_curve_n2):
        with pytest.raises(ValueError):
            rate_estimator(iid_curve_n2, iid_curve_n2, [0.2])

    def test_out_of_range_grid_rejected(self, iid_curve_n2):
        curve1 = sweep(SourceSpec.iid(0.5), HAMMING, 1, np.geomspace(0.5, 24, 16))
        with pytest.raises(ValueError):
            rate_estimator(iid_curve_n2, curve1, [5.0])


class TestSubadditivity:
    def test_memoryless_near_equality(self):
        values = {n: 0.5 for n in range(1, 5)}
        report = subadditivity_check(values)
        assert report.holds
        assert report.worst_margin == pytest.approx(0.0, abs=1e-12)

    def test_violation_reported(self):
        report = subadditivity_check({1: 0.1, 2: 0.2}, tol=1e-6)
        assert not report.holds
        assert report.violations[0][:2] == (1, 1)

    def test_markov_pair(self):
        curves = {n: sweep(SourceSpec.binary_markov(0.3, 0.2), HAMMING, n,
                           np.geomspace(1.0, 24, 12)) for n in (1, 2)}
        values = {n: rate_at_distortion(c, 0.1) for n, c in curves.items()}
        report = subadditivity_check(values, tol=1e-4)
        assert report.holds


MARKOV = SourceSpec.binary_markov(0.3, 0.2)


@pytest.fixture(scope="module")
def markov_curve_n3():
    return sweep(MARKOV, HAMMING, 3)


class TestWarmStart:
    def test_points_above_zero_rate_are_cold_solves(self, markov_curve_n3):
        # the largest weight whose certified lower bound reaches zero
        lam0 = max(pt.lam for pt in markov_curve_n3.points if pt.lower_bound <= 0.0)
        assert any(cfg.lam < lam0 for cfg in markov_curve_n3.configs)  # some were warm
        source, dist = block_pmf(MARKOV, 3), distortion_tensor(HAMMING, 3)
        for pt, cfg in zip(markov_curve_n3.points, markov_curve_n3.configs):
            if cfg.lam < lam0:
                continue
            cold = solve(source, dist, cfg)
            assert (pt.R, pt.D, pt.F_final, pt.iterations, pt.lower_bound) == \
                (cold.R, cold.D, cold.F_final, cold.iterations, cold.lower_bound)
            np.testing.assert_array_equal(pt.channel.probs, cold.channel.probs)

    @pytest.mark.parametrize("distortion, n, config, initial_context", [
        (HAMMING, 3, SolverConfig(lam=0.0), None),
        (DistortionSpec.stock(), 4, SolverConfig(lam=0.0, delay=2), [0.4, 0.6]),
        (HAMMING, 4, SolverConfig(lam=0.0, feedforward_map=FeedForwardMap.constant(2)), None),
    ], ids=["hamming-n3", "stock-n4-delay2", "hamming-n4-constant-map"])
    def test_every_point_converges_with_exact_gap(self, distortion, n, config, initial_context):
        curve = sweep(MARKOV, distortion, n, config=config, initial_context=initial_context)
        assert len(curve.points) == 24
        for pt in curve.points:
            assert pt.converged
            assert abs((pt.upper_bound - pt.lower_bound) - pt.F_final / n) <= 1e-12

    @pytest.mark.parametrize("n, delay", [(n, s) for n in range(1, 5) for s in range(1, n + 1)])
    @pytest.mark.parametrize("ff_map", [FeedForwardMap.identity(2), FeedForwardMap.parity(2)],
                             ids=["identity", "parity"])
    def test_markov_closed_form_in_sandwich(self, n, delay, ff_map):
        # H(X^n)/n - H_b(D) bounds the rate from below at every delay.  With
        # delay 1 it is attained for D <= 0.2 and lies in the sandwich; a
        # longer delay gives the decoder less and the rate lies above it.
        curve = sweep(MARKOV, HAMMING, n, default_lambda_grid(8),
                      SolverConfig(lam=0.0, delay=delay, feedforward_map=ff_map))
        for pt in curve.points:
            ref = markov_rn(0.3, 0.2, n, pt.D)
            assert ref <= pt.upper_bound + 1e-8
            if delay == 1 and pt.D <= 0.2:
                assert pt.lower_bound - 1e-8 <= ref

    def test_shuffled_grid_with_duplicates(self, markov_curve_n3):
        grid = default_lambda_grid()
        shuffled = np.random.default_rng(3).permutation(np.concatenate([grid, grid[::5]]))
        curve = sweep(MARKOV, HAMMING, 3, shuffled)
        assert curve.configs == markov_curve_n3.configs
        for a, b in zip(curve.points, markov_curve_n3.points):
            assert (a.lam, a.R, a.D, a.iterations) == (b.lam, b.R, b.D, b.iterations)
