import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffrd.models import (
    DistortionSpec,
    FeedForwardMap,
    SourceSpec,
    apply_feedforward_map,
    block_pmf,
    distortion_tensor,
    stationary_distribution,
)
from oracles import distortion_tensor_reference


def flat_index(*symbols):
    """Table index of a binary sequence, first symbol most significant."""
    return int(np.ravel_multi_index(symbols, (2,) * len(symbols)))


class TestSourceSpec:
    def test_iid_scalar_bias(self):
        spec = SourceSpec.iid(0.3)
        np.testing.assert_allclose(spec.marginal, [0.7, 0.3])

    def test_iid_full_marginal(self):
        spec = SourceSpec.iid([0.2, 0.5, 0.3])
        assert spec.alphabet_size == 3

    def test_invalid_marginal(self):
        with pytest.raises(ValueError):
            SourceSpec.iid([0.5, 0.6])
        with pytest.raises(ValueError):  # two rows that are each a PMF are not one
            SourceSpec.iid([[0.5, 0.5], [0.5, 0.5]])

    def test_markov_default_initial_is_stationary(self):
        spec = SourceSpec.binary_markov(0.3, 0.2)
        np.testing.assert_allclose(spec.initial, [0.4, 0.6], atol=1e-12)

    def test_markov_invalid_rows(self):
        with pytest.raises(ValueError):
            SourceSpec.markov([[0.5, 0.6], [0.2, 0.8]])

    def test_iid_nan_rejected(self):
        # every comparison with NaN is false, so the PMF checks passed it
        with pytest.raises(ValueError, match="non-finite"):
            SourceSpec.iid(float("nan"))

    def test_markov_without_state_rejected(self):
        # numpy's "zero-size array to reduction operation maximum" came first
        with pytest.raises(ValueError, match="square, with at least one state"):
            SourceSpec.markov(np.zeros((0, 0)))

    def test_markov_nan_rejected(self, capfd):
        # LAPACK used to print to stderr, then raise LinAlgError
        with pytest.raises(ValueError, match="non-finite"):
            SourceSpec.markov([[np.nan, 1.0], [0.5, 0.5]])
        assert capfd.readouterr().err == ""


class TestStationaryDistribution:
    def test_reference_chain(self):
        pi = stationary_distribution([[0.7, 0.3], [0.2, 0.8]])
        np.testing.assert_allclose(pi, [0.4, 0.6], atol=1e-12)

    def test_symmetric_chain(self):
        pi = stationary_distribution([[0.9, 0.1], [0.1, 0.9]])
        np.testing.assert_allclose(pi, [0.5, 0.5], atol=1e-12)

    def test_ratio_formula(self):
        pi = stationary_distribution([[0.9, 0.1], [0.3, 0.7]])
        np.testing.assert_allclose(pi, [0.75, 0.25], atol=1e-12)

    def test_reducible_chain_still_valid_fixed_point(self):
        # every stochastic matrix has a stationary distribution; for an
        # ambiguous (reducible) chain the solver must still return a valid one
        pi = stationary_distribution(np.eye(2))
        P = np.eye(2)
        assert abs(pi.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(pi @ P, pi, atol=1e-12)

    def test_non_stochastic_matrix_rejected(self):
        with pytest.raises(ValueError):
            SourceSpec.markov([[1.1, -0.1], [0.2, 0.8]])


class TestBlockPmf:
    def test_uniform_iid(self):
        src = block_pmf(SourceSpec.iid(0.5), 2)
        np.testing.assert_allclose(src.probs, 0.25)

    def test_markov_length_one(self):
        src = block_pmf(SourceSpec.binary_markov(0.3, 0.2), 1)
        np.testing.assert_allclose(src.probs, [0.4, 0.6], atol=1e-12)

    def test_markov_length_two_chain_rule(self):
        src = block_pmf(SourceSpec.binary_markov(0.3, 0.2), 2)
        np.testing.assert_allclose(src.probs, [0.28, 0.12, 0.12, 0.48], atol=1e-12)

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            block_pmf(SourceSpec.iid(0.5), 0)

    @pytest.mark.parametrize("n", [0, 2.5])
    def test_length_must_be_whole(self, n):
        # 2.5 raised a TypeError from numpy
        with pytest.raises(ValueError, match=f"block length must be a whole number >= 1, "
                                             f"got {n}"):
            block_pmf(SourceSpec.iid(0.3), n)

    def test_whole_float_length(self):
        src = block_pmf(SourceSpec.iid(0.3), 2.0)
        assert type(src.n) is int
        np.testing.assert_array_equal(src.probs, block_pmf(SourceSpec.iid(0.3), 2).probs)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.05, 0.95), st.floats(0.05, 0.95), st.integers(2, 6))
    def test_markov_shift_consistency(self, p01, p10, n):
        """Stationary start: dropping the first or the last symbol gives the
        same marginal block law."""
        src = block_pmf(SourceSpec.binary_markov(p01, p10), n)
        t = src.probs.reshape((2,) * n)
        np.testing.assert_allclose(t.sum(axis=0), t.sum(axis=n - 1), atol=1e-12)

    def test_normalized_up_to_length_twelve(self):
        spec = SourceSpec.binary_markov(0.3, 0.2)
        for n in (1, 4, 8, 12):
            src = block_pmf(spec, n)
            assert abs(src.probs.sum() - 1.0) <= 1e-12


class TestDistortionTensor:
    def test_hamming_identical_sequences(self):
        dt = distortion_tensor(DistortionSpec.hamming(), 2)
        assert dt.values[flat_index(0, 1), flat_index(0, 1)] == 0.0

    def test_hamming_single_mismatch(self):
        dt = distortion_tensor(DistortionSpec.hamming(), 2)
        assert dt.values[flat_index(0, 1), flat_index(1, 1)] == 0.5

    def test_hamming_position_permutation_symmetry(self):
        dt = distortion_tensor(DistortionSpec.hamming(), 3).values.reshape((2,) * 6)
        swapped = np.transpose(dt, (1, 0, 2, 4, 3, 5))  # swap letters 1,2 jointly
        np.testing.assert_allclose(dt, swapped)

    def test_stock_flags_missed_drop(self):
        # x = (1, 0) is a drop at the second step; advising x̂_2 = 0 costs 1 there
        dt = distortion_tensor(DistortionSpec.stock(), 2, initial_context=0)
        row = flat_index(1, 0)
        # i=1: history (0, 1), no drop, correct advisory is x̂_1 = 0
        assert dt.values[row, flat_index(0, 0)] == pytest.approx(0.5)
        assert dt.values[row, flat_index(0, 1)] == pytest.approx(0.0)
        assert dt.values[row, flat_index(1, 1)] == pytest.approx(0.5)

    def test_stock_values_quantized(self):
        for ic in (None, 0, 1, np.array([0.4, 0.6])):
            dt = distortion_tensor(DistortionSpec.stock(), 3, initial_context=ic)
            scaled = dt.values * 3
            if ic is None or np.ndim(ic):
                # averaged boundary window contributes fractional first-letter cost
                assert np.all(scaled <= 3.0 + 1e-12)
            else:
                np.testing.assert_allclose(scaled, np.round(scaled), atol=1e-12)

    def test_distribution_initial_context_averages(self):
        w = np.array([0.4, 0.6])
        davg = distortion_tensor(DistortionSpec.stock(), 2, initial_context=w).values
        d0 = distortion_tensor(DistortionSpec.stock(), 2, initial_context=0).values
        d1 = distortion_tensor(DistortionSpec.stock(), 2, initial_context=1).values
        np.testing.assert_allclose(davg, 0.4 * d0 + 0.6 * d1, atol=1e-12)

    def test_bad_initial_context_refused(self):
        # -1 read the last symbol, 0.7 read symbol 0, 5 raised a bare
        # IndexError, and weights summing to 1 passed though one is negative
        spec = DistortionSpec.stock()
        for context in (-1, 0.7, 5, 2, float("nan"), [1.5, -0.5]):
            with pytest.raises(ValueError, match="initial context"):
                distortion_tensor(spec, 2, initial_context=context)
        for context in (0, 1, 1.0, np.int64(1), [0.25, 0.75]):
            np.testing.assert_array_equal(
                distortion_tensor(spec, 3, initial_context=context).values,
                distortion_tensor_reference(spec.table, 1, 2, 2, 3, context))

    def test_single_letter_matches_windowed_m0(self):
        mat = np.array([[0.0, 1.0], [2.0, 0.0]])
        a = distortion_tensor(DistortionSpec.single_letter(mat), 3).values
        b = distortion_tensor(DistortionSpec.windowed(0, mat), 3).values
        np.testing.assert_allclose(a, b)

    @pytest.mark.parametrize("spec", [
        DistortionSpec.hamming(), DistortionSpec.hamming(3), DistortionSpec.stock(),
        DistortionSpec.windowed(2, np.random.default_rng(4).random((2, 2, 2, 3))),
    ], ids=["hamming", "hamming3", "stock", "random-m2"])
    @pytest.mark.parametrize("context", [None, 0, "pmf"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_position_by_position_reference(self, spec, context, n):
        """Bit for bit the sum of per-position window costs in position order."""
        A, B = spec.src_alphabet_size, spec.rec_alphabet_size
        ctx = np.linspace(1.0, 2.0, A) / np.linspace(1.0, 2.0, A).sum() if context == "pmf" \
            else context
        np.testing.assert_array_equal(
            distortion_tensor(spec, n, ctx).values,
            distortion_tensor_reference(spec.table, spec.m, A, B, n, ctx))

    def test_negative_distortion_rejected(self):
        with pytest.raises(ValueError):
            DistortionSpec.single_letter([[0.0, -1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("shape, sizes", [((2, 0), "|X|=2, |X̂|=0"),
                                              ((0, 2), "|X|=0, |X̂|=2")],
                             ids=["reconstruction", "source"])
    def test_empty_alphabet_rejected(self, shape, sizes):
        # a (2, 0) matrix was accepted, and solve divided by its zero cells
        with pytest.raises(ValueError) as err:
            DistortionSpec.single_letter(np.zeros(shape))
        assert str(err.value) == f"distortion alphabets must be nonempty, got {sizes}"

    @pytest.mark.parametrize("n", [0, 2.5])
    def test_block_length_must_be_whole(self, n):
        # 0 divided 0 by 0 and was refused for non-finite distortion values,
        # and 2.5 raised a TypeError from numpy
        with pytest.raises(ValueError, match=f"block length must be a whole number >= 1, "
                                             f"got {n}"):
            distortion_tensor(DistortionSpec.hamming(), n)

    def test_whole_float_block_length(self):
        dist = distortion_tensor(DistortionSpec.stock(), 2.0)
        assert type(dist.n) is int
        np.testing.assert_array_equal(dist.values,
                                      distortion_tensor(DistortionSpec.stock(), 2).values)

    def test_single_letter_vector_rejected(self):
        with pytest.raises(ValueError, match="2-D matrix"):
            DistortionSpec.single_letter([1.0, 2.0])

    @pytest.mark.parametrize("build", [
        lambda: DistortionSpec.windowed(-1, [0.0, 1.0]),
        lambda: DistortionSpec(m=-1, table=np.array([0.0, 1.0]), src_alphabet_size=2,
                               rec_alphabet_size=2),
        lambda: DistortionSpec(m=0.5, table=np.eye(2), src_alphabet_size=2,
                               rec_alphabet_size=2),
    ], ids=["windowed", "constructor", "fractional"])
    def test_bad_window_rejected(self, build):
        # m = -1 was accepted, and distortion_tensor returned entries read
        # from unwritten memory
        with pytest.raises(ValueError, match="window m must be a whole number >= 0"):
            build()


class TestFeedForwardMap:
    def test_identity(self):
        fm = FeedForwardMap.identity(4)
        np.testing.assert_array_equal(apply_feedforward_map(fm, [3, 1, 0]), [3, 1, 0])

    def test_constant(self):
        fm = FeedForwardMap.constant(3)
        np.testing.assert_array_equal(apply_feedforward_map(fm, [0, 1, 2]), [0, 0, 0])

    def test_parity_on_quaternary(self):
        fm = FeedForwardMap.parity(4)
        np.testing.assert_array_equal(apply_feedforward_map(fm, [0, 1, 2, 3]), [0, 1, 0, 1])

    def test_codomain_size(self):
        assert FeedForwardMap.parity(4).codomain_size == 2
        assert FeedForwardMap.constant(5).codomain_size == 1

    @pytest.mark.parametrize("table", [[0.7, 0.2], [], [-1, 0], [[0, 1]], [np.nan, 0]],
                             ids=["fractional", "empty", "negative", "2-D", "nan"])
    def test_bad_table_refused(self, table):
        # [0.7, 0.2] was truncated to the constant map [0, 0], and [] was
        # accepted and failed in codomain_size with numpy's reduction error
        with pytest.raises(ValueError, match="map table must be a 1-D array of symbol indices"):
            FeedForwardMap(table)

    @pytest.mark.parametrize("table", [[1.0, 0.0], [True, False]], ids=["float", "bool"])
    def test_whole_table_stored_as_int(self, table):
        fm = FeedForwardMap(table)
        assert fm.table.dtype == np.int64
        np.testing.assert_array_equal(fm.table, [1, 0])
