import numpy as np
import pytest

from ffrd.models import DistortionSpec, SourceSpec, block_pmf, distortion_tensor
from ffrd.prob import CausalKernel, JointBlockPmf, causal_kernel_from_joint, sequence_digits
from ffrd.sim import (
    Codebook,
    decode_walk,
    encode,
    monte_carlo,
    sample_code_tree,
    sequence_distortion,
)

HAMMING = DistortionSpec.hamming()


def deterministic_kernel(n=3):
    """Point-mass kernel: x̂_i copies x_{i-1} (x̂_1 = 0)."""
    probs = np.zeros((2**n, 2**n))
    for x in range(2**n):
        xs = [(x >> (n - 1 - i)) & 1 for i in range(n)]
        hs = [0] + xs[:-1]
        probs[x, int("".join(map(str, hs)), 2)] = 1.0
    joint = JointBlockPmf(n=n, src_alphabet_size=2, rec_alphabet_size=2,
                          probs=np.full(2**n, 2.0**-n)[:, None] * probs)
    return causal_kernel_from_joint(joint, 1)


class TestSampleCodeTree:
    def test_branch_counts(self):
        tree = sample_code_tree(CausalKernel.uniform(3, 2, 2), 6, 0)
        assert tree.decisions == 14
        assert [lvl.size for lvl in tree.blocks[0]] == [1, 2, 4]

    def test_point_mass_kernel_gives_unique_tree(self):
        kern = deterministic_kernel()
        t1 = sample_code_tree(kern, 6, 1)
        t2 = sample_code_tree(kern, 6, 99)
        for b1, b2 in zip(t1.blocks, t2.blocks):
            for l1, l2 in zip(b1, b2):
                np.testing.assert_array_equal(l1, l2)

    def test_source_blind_kernel_replicates_one_sequence(self):
        # kernel constant in x: the walk output cannot depend on the source
        rng = np.random.default_rng(3)
        m = rng.dirichlet(np.ones(4))
        joint = JointBlockPmf(n=2, src_alphabet_size=2, rec_alphabet_size=2,
                              probs=np.full(4, 0.25)[:, None] * m[None, :])
        kern = causal_kernel_from_joint(joint, 1)
        tree = sample_code_tree(kern, 4, 5)
        outs = {tuple(decode_walk(tree, x)) for x in
                (rng.integers(0, 2, 4) for _ in range(20))}
        assert len(outs) == 1

    def test_length_must_divide(self):
        with pytest.raises(ValueError):
            sample_code_tree(CausalKernel.uniform(3, 2, 2), 7, 0)

    def test_seed_determinism(self):
        kern = CausalKernel.uniform(2, 2, 2)
        a = sample_code_tree(kern, 6, 42)
        b = sample_code_tree(kern, 6, 42)
        for ba, bb in zip(a.blocks, b.blocks):
            for la, lb in zip(ba, bb):
                np.testing.assert_array_equal(la, lb)


class TestDecodeWalk:
    def test_replay_reproducible(self):
        tree = sample_code_tree(CausalKernel.uniform(3, 2, 2), 6, 7)
        x = np.array([1, 0, 1, 1, 0, 0])
        np.testing.assert_array_equal(decode_walk(tree, x), decode_walk(tree, x))

    def test_causality(self):
        tree = sample_code_tree(CausalKernel.uniform(3, 2, 2), 6, 8)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.integers(0, 2, 6)
            j = rng.integers(0, 6)
            y = x.copy()
            y[j] ^= 1
            a, b = decode_walk(tree, x), decode_walk(tree, y)
            np.testing.assert_array_equal(a[:j + 1], b[:j + 1])

    def test_short_stream_rejected(self):
        tree = sample_code_tree(CausalKernel.uniform(3, 2, 2), 6, 9)
        with pytest.raises(ValueError):
            decode_walk(tree, [0, 1, 0])


class TestEncode:
    def test_exact_match_tree_wins(self):
        # the copy kernel reproduces a constant-zero source exactly from the
        # second symbol on; an all-zero source is matched with distortion 0
        kern = deterministic_kernel()
        tree = sample_code_tree(kern, 6, 0)
        x = np.zeros(6, dtype=int)
        assert np.all(decode_walk(tree, x) == 0)
        rnd = sample_code_tree(CausalKernel.uniform(3, 2, 2), 6, 12)
        book = Codebook(trees=(rnd, tree), target_rate=0.5)
        assert encode(book, x, HAMMING) in (0, 1)
        assert sequence_distortion(HAMMING, x, decode_walk(tree, x)) == 0.0

    def test_single_tree(self):
        tree = sample_code_tree(CausalKernel.uniform(2, 2, 2), 4, 0)
        book = Codebook(trees=(tree,), target_rate=0.1)
        assert encode(book, [0, 1, 0, 1], HAMMING) == 0

    def test_tie_break_lowest_index(self):
        tree = sample_code_tree(CausalKernel.uniform(2, 2, 2), 4, 0)
        book = Codebook(trees=(tree, tree), target_rate=0.1)
        assert encode(book, [1, 1, 0, 0], HAMMING) == 0

    def test_empty_codebook_rejected(self):
        with pytest.raises(ValueError):
            Codebook(trees=(), target_rate=0.1)


class TestSequenceDistortion:
    def test_hamming(self):
        assert sequence_distortion(HAMMING, [0, 1, 1, 0], [0, 1, 0, 0]) == 0.25

    def test_windowed_stock(self):
        spec = DistortionSpec.stock()
        # x = (1, 0): drop at step 2; warning sequence (0, 1) is exact
        assert sequence_distortion(spec, [1, 0], [0, 1], initial_context=0) == 0.0
        assert sequence_distortion(spec, [1, 0], [0, 0], initial_context=0) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sequence_distortion(HAMMING, [0, 1], [0])

    @pytest.mark.parametrize("initial_context", [None, 0, [0.4, 0.6]])
    def test_matches_distortion_tensor(self, initial_context):
        spec = DistortionSpec.stock()
        tensor = distortion_tensor(spec, 3, initial_context).values
        xs, xhs = sequence_digits(2, 3), sequence_digits(2, 3)
        for i, x in enumerate(xs):
            for j, xh in enumerate(xhs):
                assert sequence_distortion(spec, x, xh, initial_context) == \
                    pytest.approx(tensor[i, j], abs=1e-12)


class TestMonteCarlo:
    def test_determinism(self):
        a = monte_carlo(SourceSpec.iid(0.5), HAMMING, 2, 8, 0.15, 50, 123, 0.25)
        b = monte_carlo(SourceSpec.iid(0.5), HAMMING, 2, 8, 0.15, 50, 123, 0.25)
        assert a == b

    def test_report_fields(self):
        rep = monte_carlo(SourceSpec.iid(0.5), HAMMING, 2, 8, 0.15, 50, 1, 0.25)
        assert rep.codebook_size >= 1
        assert 0.0 <= rep.mean_distortion <= 1.0
        assert rep.rate == pytest.approx(1 - 0.811278, abs=1e-3)  # 1 - H_b(0.25)
        data = rep.to_json()
        assert '"codebook_size"' in data

    def test_memory_cap(self):
        with pytest.raises(MemoryError):
            monte_carlo(SourceSpec.iid(0.5), HAMMING, 2, 8, 0.15, 10, 1, 0.25,
                        memory_cap=4)

    def test_longer_blocks_tighten_distortion(self):
        gaps = []
        for L in (4, 8, 12):
            rep = monte_carlo(SourceSpec.iid(0.5), HAMMING, 2, L, 0.15, 1000, 7, 0.25)
            gaps.append(rep.mean_distortion - rep.target_D)
        assert gaps[-1] <= gaps[0] + 1e-9

    def test_markov_source_runs(self):
        rep = monte_carlo(SourceSpec.binary_markov(0.3, 0.2), HAMMING, 2, 8,
                          0.2, 50, 3, 0.2)
        assert 0.0 <= rep.mean_distortion <= 1.0
