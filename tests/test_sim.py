import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffrd import sim
from ffrd.models import (
    DistortionSpec,
    FeedForwardMap,
    SourceSpec,
    block_pmf,
    distortion_tensor,
)
from ffrd.prob import CausalKernel, sequence_digits
from ffrd.sim import (
    Codebook,
    _sample_source,
    decode_walk,
    encode,
    monte_carlo,
    sample_code_tree,
    sequence_distortion,
)
from ffrd.solver import SolverConfig, solve

from helpers import kernel_from_joint
from oracles import (
    decode_walk_loops,
    encode_loops,
    iid_stream_choice,
    markov_stream_choice,
    sample_code_tree_loops,
    sequence_distortion_loops,
)

HAMMING = DistortionSpec.hamming()


def deterministic_kernel(n=3):
    """Point-mass kernel: x̂_i copies x_{i-1} (x̂_1 = 0)."""
    probs = np.zeros((2**n, 2**n))
    for x in range(2**n):
        xs = [(x >> (n - 1 - i)) & 1 for i in range(n)]
        hs = [0] + xs[:-1]
        probs[x, int("".join(map(str, hs)), 2)] = 1.0
    return kernel_from_joint(np.full(2**n, 2.0**-n)[:, None] * probs, n, 2, 2, 1)


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
        kern = kernel_from_joint(np.full(4, 0.25)[:, None] * m[None, :], 2, 2, 2, 1)
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

    @pytest.mark.parametrize("n, A, B, L", [(3, 2, 2, 6), (2, 2, 2, 4), (2, 3, 2, 6),
                                            (2, 2, 3, 6)], ids=["n", "L", "X", "Xhat"])
    def test_mixed_trees_rejected(self, n, A, B, L):
        base = sample_code_tree(CausalKernel.uniform(2, 2, 2), 6, 0)
        other = sample_code_tree(CausalKernel.uniform(n, A, B), L, 0)
        with pytest.raises(ValueError, match="code trees differ"):
            Codebook(trees=(base, other), target_rate=0.1)

    def test_decision_array_layout(self):
        trees = tuple(sample_code_tree(CausalKernel.uniform(3, 2, 2), 6, s) for s in (1, 2))
        dec = Codebook(trees=trees, target_rate=0.1).decision_array
        assert dec.shape == (2, 6, 4) and dec.dtype == np.int64
        for k, tree in enumerate(trees):
            for t, level in enumerate(lvl for block in tree.blocks for lvl in block):
                np.testing.assert_array_equal(dec[k, t, :level.size], level)
                assert not dec[k, t, level.size:].any()

    @pytest.mark.parametrize("length", [5, 7])
    def test_stream_length_must_match_depth(self, length):
        book = Codebook(trees=(sample_code_tree(CausalKernel.uniform(2, 2, 2), 6, 0),),
                        target_rate=0.1)
        with pytest.raises(ValueError, match="depth 6"):
            encode(book, np.zeros(length, dtype=int), HAMMING)


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

    def test_memory_cap_counts_padded_decision_array(self, monkeypatch):
        # at n=3 over a binary alphabet a depth-6 tree makes 2 * (1 + 2 + 4) = 14
        # decisions but fills 6 * 4 = 24 entries of the decision array
        lam = 3.0
        R = solve(block_pmf(SourceSpec.iid(0.5), 3), distortion_tensor(HAMMING, 3),
                  SolverConfig(lam=lam, delay=1, epsilon=1e-8)).R
        size = max(math.floor(2.0 ** (6 * (R + 0.15))), 1)
        args = (SourceSpec.iid(0.5), HAMMING, 3, 6, 0.15, 10, 1, 0.25)

        def no_sampling(*_):
            raise AssertionError("a tree was sampled before the cap check")

        with monkeypatch.context() as patch:
            patch.setattr(sim, "sample_code_tree", no_sampling)
            with pytest.raises(MemoryError):
                monte_carlo(*args, lam=lam, memory_cap=14 * size)
        assert monte_carlo(*args, lam=lam, memory_cap=24 * size).codebook_size == size

    @pytest.mark.parametrize("args, expected", [
        ((SourceSpec.iid(0.5), HAMMING, 2, 18, 0.15, 200, 1, 0.25),
         '{"n": 2, "L": 18, "delta": 0.15, "codebook_size": 68, "trials": 200, '
         '"mean_distortion": 0.2263888888888889, "stderr": 0.003316949779682089, '
         '"target_D": 0.25, "rate": 0.18872155353331904}'),
        ((SourceSpec.binary_markov(0.3, 0.2), DistortionSpec.stock(), 2, 12, 0.1, 200, 1, 0.08),
         '{"n": 2, "L": 12, "delta": 0.1, "codebook_size": 13, "trials": 200, '
         '"mean_distortion": 0.08416666666666667, "stderr": 0.004249182927993987, '
         '"target_D": 0.08, "rate": 0.21657842976395117}'),
    ], ids=["iid-hamming-L18", "markov-stock-L12"])
    def test_reports_pinned(self, args, expected):
        """Reports of the per-branch, per-tree loop simulator, byte for byte."""
        assert monte_carlo(*args).to_json() == expected

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


def _distortion_spec(name, A, rng):
    if name == "hamming":
        return DistortionSpec.hamming(A)
    if name == "stock":
        return DistortionSpec.stock()
    return DistortionSpec.windowed(1, rng.integers(0, 9, size=(A, A, A)) / 8)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_array_simulator_matches_loops(data):
    """Trees, walks, scores, encoder choices and source streams equal the
    per-branch, per-position, per-tree loops drawn with Generator.choice."""
    A = data.draw(st.sampled_from([2, 3]), label="A")
    n = data.draw(st.integers(1, 3), label="n")
    L = n * data.draw(st.integers(1, 3), label="blocks")
    map_name = data.draw(st.sampled_from([None, "identity", "parity"]), label="map")
    dist_name = data.draw(st.sampled_from(["hamming", "stock", "eighths"] if A == 2
                                          else ["hamming", "eighths"]), label="distortion")
    context = data.draw(st.sampled_from([None, 0, "pmf"]), label="context")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    fmap = None if map_name is None else getattr(FeedForwardMap, map_name)(A).table
    joint = rng.dirichlet(np.ones(A ** (2 * n))).reshape(A**n, A**n)
    kern = kernel_from_joint(joint, n, A, A, 1, fmap)
    spec = _distortion_spec(dist_name, A, rng)
    ctx = rng.dirichlet(np.ones(A)) if context == "pmf" else context

    size, tree_seed = int(rng.integers(1, 7)), int(rng.integers(2**32))
    tree_rng, ref_rng = np.random.default_rng(tree_seed), np.random.default_rng(tree_seed)
    trees = [sample_code_tree(kern, L, tree_rng) for _ in range(size)]
    ref_trees = [sample_code_tree_loops(kern.factors, n, L, A, A, fmap, ref_rng)
                 for _ in range(size)]
    for tree, ref in zip(trees, ref_trees):
        assert len(tree.blocks) == len(ref)
        for block, ref_block in zip(tree.blocks, ref):
            for level, ref_level in zip(block, ref_block):
                np.testing.assert_array_equal(level, ref_level)

    book = Codebook(trees=tuple(trees), target_rate=0.0)
    real = DistortionSpec.windowed(1, rng.random((A, A, A)))
    for _ in range(4):
        x = rng.integers(0, A, L)
        for tree, ref in zip(trees, ref_trees):
            out = decode_walk(tree, x)
            assert out.tolist() == decode_walk_loops(ref, n, A, x)
            assert sequence_distortion(spec, x, out, ctx) == pytest.approx(
                sequence_distortion_loops(spec.table, spec.m, A, x, out, ctx), abs=1e-12)
        assert encode(book, x, spec) == encode_loops(ref_trees, n, A, x, spec.table, spec.m)
        walked = [sequence_distortion_loops(real.table, 1, A, x, decode_walk_loops(ref, n, A, x))
                  for ref in ref_trees]
        assert walked[encode(book, x, real)] == pytest.approx(min(walked), abs=1e-12)

    transition, initial = rng.dirichlet(np.ones(A), size=A), rng.dirichlet(np.ones(A))
    stream_seed = int(rng.integers(2**32))
    np.testing.assert_array_equal(
        _sample_source(SourceSpec.markov(transition, initial), 40,
                       np.random.default_rng(stream_seed)),
        markov_stream_choice(transition, initial, 40, np.random.default_rng(stream_seed)))
    np.testing.assert_array_equal(
        _sample_source(SourceSpec.iid(initial), 40, np.random.default_rng(stream_seed)),
        iid_stream_choice(initial, 40, np.random.default_rng(stream_seed)))


@pytest.mark.parametrize("x, xhat", [([0, -1], [0, 1]), ([0, 2], [0, 1]),
                                     ([0, 1], [0, -1]), ([0, 1], [2, 1])])
def test_sequence_distortion_rejects_symbols_outside_alphabets(x, xhat):
    with pytest.raises(ValueError, match="outside the alphabet"):
        sequence_distortion(HAMMING, x, xhat)


@pytest.mark.parametrize("x", [[0, 1, -1, 0], [0, 1, 2, 0], [0, 1, 0, 1, 3]])
def test_walk_and_encoder_reject_symbols_outside_alphabet(x):
    tree = sample_code_tree(CausalKernel.uniform(2, 2, 2), 4, 0)
    with pytest.raises(ValueError, match="outside the alphabet"):
        decode_walk(tree, x)
    if len(x) == tree.L:
        with pytest.raises(ValueError, match="outside the alphabet"):
            encode(Codebook(trees=(tree,), target_rate=0.1), x, HAMMING)


def test_monte_carlo_checks_no_symbol_per_trial(monkeypatch):
    # the drawn streams and the walked reconstructions are in range by construction
    def fail(*_):
        raise AssertionError("a symbol check ran inside monte_carlo")

    monkeypatch.setattr(sim, "_check_symbols", fail)
    monte_carlo(SourceSpec.iid(0.5), HAMMING, 2, 8, 0.15, 20, 1, 0.25, lam=3.0)


def test_monte_carlo_solves_each_lambda_once(monkeypatch):
    solved = []

    def recording(source, dist, config, *args, **kwargs):
        solved.append(config.lam)
        return solve(source, dist, config, *args, **kwargs)

    monkeypatch.setattr(sim, "solve", recording)
    rep = monte_carlo(SourceSpec.iid(0.5), HAMMING, 2, 18, 0.15, 20, 1, 0.25)
    assert len(solved) == len(set(solved))
    assert rep.rate == solve(block_pmf(SourceSpec.iid(0.5), 2), distortion_tensor(HAMMING, 2),
                             SolverConfig(lam=solved[-1], delay=1, epsilon=1e-8)).R


def test_bisection_stops_once_the_bracket_collapses(monkeypatch):
    """Target 0.08 lies below the least distortion of the n = 2 `stock`
    curve (0.1), so the bisection climbs to lam = 64; it solves there once
    and returns that point instead of probing the same weight again."""
    solved = []

    def recording(source, dist, config, *args, **kwargs):
        solved.append(config.lam)
        return solve(source, dist, config, *args, **kwargs)

    monkeypatch.setattr(sim, "solve", recording)
    source = block_pmf(SourceSpec.binary_markov(0.3, 0.2), 2)
    dist = distortion_tensor(DistortionSpec.stock(), 2)
    point = sim._lambda_for_distortion(source, dist, 0.08, delay=1)
    assert len(solved) == len(set(solved)) == 54
    assert point.lam == solved[-1] == 64.0
