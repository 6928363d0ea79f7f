import numpy as np
import pytest
from scipy.optimize import brentq

from ffrd.analytic import (
    iid_binary_rd,
    inverse_binary_entropy,
    markov_rn,
    stock_market_rd,
)
from ffrd.prob import binary_entropy


class TestIidBinary:
    def test_uniform_checkpoint(self):
        assert iid_binary_rd(0.5, 0.2) == pytest.approx(0.278072, abs=1e-6)

    def test_zero_rate_threshold(self):
        assert iid_binary_rd(0.5, 0.5) == 0.0
        assert iid_binary_rd(0.3, 0.3) == 0.0

    def test_biased_value(self):
        expected = binary_entropy(0.3) - binary_entropy(0.1)
        assert iid_binary_rd(0.3, 0.1) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.412295, abs=1e-6)

    def test_uniform_is_one_minus_entropy(self):
        for D in np.linspace(0.01, 0.49, 20):
            assert iid_binary_rd(0.5, D) == pytest.approx(1.0 - binary_entropy(D))

    def test_negative_distortion_rejected(self):
        with pytest.raises(ValueError):
            iid_binary_rd(0.5, -0.1)

    @pytest.mark.parametrize("bias", [1.5, -0.1, np.nan])
    def test_bias_outside_unit_interval_rejected(self, bias):
        # 1.5 and -0.1 gave a rate of 0.0
        with pytest.raises(ValueError, match="bias must lie in"):
            iid_binary_rd(bias, 0.1)


class TestMarkov:
    def test_reference_pair(self):
        assert markov_rn(0.3, 0.2, 3, 0.10627) == pytest.approx(0.35884, abs=5e-5)

    def test_limit_at_zero_distortion(self):
        assert markov_rn(0.3, 0.2, np.inf, 0.0) == pytest.approx(0.785673, abs=1e-6)

    def test_symmetric_chain_collapses(self):
        for n in (1, 2, 5):
            for D in (0.05, 0.2):
                expected = 1.0 / n + (n - 1) / n * binary_entropy(0.3) - binary_entropy(D)
                assert markov_rn(0.3, 0.3, n, D) == pytest.approx(expected)

    def test_nonincreasing_in_n(self):
        for D in (0.02, 0.1, 0.2):
            vals = [markov_rn(0.3, 0.2, n, D) for n in range(1, 13)]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_clamped_at_zero(self):
        assert markov_rn(0.3, 0.2, 3, 0.49) == 0.0
        assert markov_rn(0.3, 0.2, 3, 0.7) == 0.0

    @pytest.mark.parametrize("n", [0, -1, 2.5, np.nan, -np.inf])
    def test_bad_block_length_rejected(self, n):
        # n=0 divided by zero, and n=-1 and n=2.5 gave a number
        with pytest.raises(ValueError, match="block length"):
            markov_rn(0.3, 0.2, n, 0.1)

    @pytest.mark.parametrize("p, q", [(1.5, 0.2), (0.3, -0.2), (np.nan, 0.2)])
    def test_transition_outside_unit_interval_rejected(self, p, q):
        # beyond D = 0.5 they gave a rate of 0.0
        with pytest.raises(ValueError, match="must lie in"):
            markov_rn(p, q, 3, 0.7)

    def test_chain_that_never_moves_rejected(self):
        # p + q = 0 divided by zero
        with pytest.raises(ValueError, match="p \\+ q must be > 0"):
            markov_rn(0.0, 0.0, 2, 0.1)


class TestStockMarket:
    def test_zero_rate_threshold(self):
        assert stock_market_rd(0.2, 0.4, 0.12) == 0.0

    def test_zero_distortion(self):
        assert stock_market_rd(0.2, 0.4, 0.0) == pytest.approx(0.433157, abs=1e-6)

    def test_beyond_threshold(self):
        for D in (0.13, 0.2, 0.5):
            assert stock_market_rd(0.2, 0.4, D) == 0.0

    @pytest.mark.parametrize("q, pi0, name", [(1.3, 0.4, "q"), (np.nan, 0.4, "q"),
                                              (0.2, 1.2, "pi0"), (0.2, np.nan, "pi0")])
    def test_parameter_outside_unit_interval_rejected(self, q, pi0, name):
        # q = 1.3 gave a rate of 0.0
        with pytest.raises(ValueError, match=f"{name} must lie in"):
            stock_market_rd(q, pi0, 0.01)

    def test_no_active_state_has_rate_zero(self):
        # pi0 = 1 divided by zero
        for D in (0.0, 0.1):
            assert stock_market_rd(0.2, 1.0, D) == 0.0


class TestShapes:
    @pytest.mark.parametrize("f", [
        lambda D: iid_binary_rd(0.5, D),
        lambda D: markov_rn(0.3, 0.2, 4, D),
        lambda D: stock_market_rd(0.2, 0.4, D),
    ])
    def test_nonincreasing_and_convex(self, f):
        grid = np.linspace(0.0, 0.3, 61)
        vals = np.array([f(D) for D in grid])
        assert np.all(np.diff(vals) <= 1e-12)
        pos = vals > 0
        second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
        interior = pos[:-2] & pos[1:-1] & pos[2:]
        assert np.all(second[interior] >= -1e-9)


class TestInverseEntropy:
    def test_round_trip(self):
        for p in (0.0, 0.05, 0.2, 0.5):
            assert inverse_binary_entropy(binary_entropy(p)) == pytest.approx(p, abs=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            inverse_binary_entropy(1.5)

    def test_ends_are_exact(self):
        assert inverse_binary_entropy(0.0) == 0.0
        assert inverse_binary_entropy(1.0) == 0.5

    @pytest.mark.parametrize("h", [1e-300, 1e-16, 1e-12, 1e-8, 1e-4, 0.01, 0.1, 0.25,
                                   0.5, 0.75, 0.9, 0.99, 1 - 1e-4, 1 - 1e-6, 1 - 1e-8])
    def test_matches_brentq(self, h):
        p = inverse_binary_entropy(h)
        ref = brentq(lambda x: binary_entropy(x) - h, 0.0, 0.5, xtol=1e-14)
        assert abs(p - ref) <= 1e-13

    @pytest.mark.parametrize("h", [1 - 1e-10, 1 - 1e-12, 1 - 1e-14, 1 - 2**-53])
    def test_flat_top_hits_the_entropy(self, h):
        # H_b is flat at 1/2: one rounding of H_b moves its root by up to 1e-8
        # here, so the root is checked by its entropy, to one ulp of 1
        assert abs(binary_entropy(inverse_binary_entropy(h)) - h) <= 2**-52
