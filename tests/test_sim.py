import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffrd import sim
from ffrd.models import (
    DistortionSpec,
    FeedForwardMap,
    SourceSpec,
    _position_costs,
    block_pmf,
    distortion_tensor,
)
from ffrd.prob import CausalKernel, sequence_digits
from ffrd.sim import _encode_streams, _sample_decisions, _walks, monte_carlo
from ffrd.solver import SolverConfig, solve

from helpers import kernel_from_joint
from oracles import (
    decision_array_loops,
    decode_walk_loops,
    encode_loops,
    iid_stream_choice,
    markov_stream_choice,
    monte_carlo_loops,
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


def decisions_of(kernel, L, seed, trees=1):
    return _sample_decisions(kernel, L, trees, np.random.default_rng(seed))


def walked_distortion(spec, x, xhat, initial_context=None):
    """Per-letter distortion of one (source, reconstruction) pair: the
    position costs of ``x`` gathered at ``xhat``."""
    costs = _position_costs(spec, np.asarray(x), initial_context)
    return float(costs[np.arange(len(x)), xhat].sum() / len(x))


class TestSampleCodeTree:
    """Trees drawn by ``sim._sample_decisions``."""

    def test_branch_counts(self):
        dec = decisions_of(CausalKernel.uniform(3, 2, 3), 6, 0, trees=2)
        assert dec.shape == (2, 6, 4) and dec.dtype == np.int64
        for t in range(6):  # level i of a block fills its first 2^{i-1} branches
            assert not dec[:, t, 2 ** (t % 3):].any()
        assert dec[:, :, :1].any() and dec[:, 2::3, 2:].any()

    def test_point_mass_kernel_gives_unique_tree(self):
        kern = deterministic_kernel()
        np.testing.assert_array_equal(decisions_of(kern, 6, 1), decisions_of(kern, 6, 99))

    def test_source_blind_kernel_replicates_one_sequence(self):
        # kernel constant in x: the walk output cannot depend on the source
        rng = np.random.default_rng(3)
        m = rng.dirichlet(np.ones(4))
        kern = kernel_from_joint(np.full(4, 0.25)[:, None] * m[None, :], 2, 2, 2, 1)
        walks = _walks(decisions_of(kern, 4, 5), 2, 2, rng.integers(0, 2, (20, 4)))[0]
        assert len({tuple(walk) for walk in walks}) == 1

    def test_length_must_divide(self):
        with pytest.raises(ValueError):
            decisions_of(CausalKernel.uniform(3, 2, 2), 7, 0)

    def test_seed_determinism(self):
        kern = CausalKernel.uniform(2, 2, 2)
        np.testing.assert_array_equal(decisions_of(kern, 6, 42), decisions_of(kern, 6, 42))


class TestDecodeWalk:
    """Walks of ``sim._walks``."""

    def test_replay_reproducible(self):
        dec = decisions_of(CausalKernel.uniform(3, 2, 2), 6, 7)
        x = np.array([[1, 0, 1, 1, 0, 0]] * 2)
        walks = _walks(dec, 3, 2, x)[0]
        np.testing.assert_array_equal(walks[0], walks[1])

    def test_causality(self):
        dec = decisions_of(CausalKernel.uniform(3, 2, 2), 6, 8)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.integers(0, 2, 6)
            j = rng.integers(0, 6)
            y = x.copy()
            y[j] ^= 1
            a, b = _walks(dec, 3, 2, np.stack([x, y]))[0]
            np.testing.assert_array_equal(a[:j + 1], b[:j + 1])


class TestEncode:
    """The encoder ``sim._encode_streams``."""

    def test_exact_match_tree_wins(self):
        # the copy kernel reproduces a constant-zero source exactly from the
        # second symbol on; an all-zero source is matched with distortion 0
        copy = decisions_of(deterministic_kernel(), 6, 0)
        x = np.zeros((1, 6), dtype=np.int64)
        assert not _walks(copy, 3, 2, x).any()
        rnd = decisions_of(CausalKernel.uniform(3, 2, 2), 6, 12)
        chosen, dists = _encode_streams(np.concatenate([rnd, copy]), 3, 2, x, HAMMING)
        assert chosen[0] in (0, 1) and dists[0] == 0.0

    def test_single_tree(self):
        dec = decisions_of(CausalKernel.uniform(2, 2, 2), 4, 0)
        chosen, _ = _encode_streams(dec, 2, 2, np.array([[0, 1, 0, 1]]), HAMMING)
        assert chosen.tolist() == [0]

    def test_tie_break_lowest_index(self):
        dec = decisions_of(CausalKernel.uniform(2, 2, 2), 4, 0)
        chosen, _ = _encode_streams(np.concatenate([dec, dec]), 2, 2,
                                    np.array([[1, 1, 0, 0]]), HAMMING)
        assert chosen.tolist() == [0]

    def test_decision_array_layout(self):
        kern = CausalKernel.uniform(3, 2, 2)
        ref_rng = np.random.default_rng(1)
        ref = [sample_code_tree_loops(kern.factors, 3, 6, 2, 2, None, ref_rng)
               for _ in range(2)]
        np.testing.assert_array_equal(decisions_of(kern, 6, 1, trees=2),
                                      decision_array_loops(ref, 3, 2))


class TestSequenceDistortion:
    """Per-letter distortion: ``models._position_costs`` gathered at x̂."""

    def test_hamming(self):
        assert walked_distortion(HAMMING, [0, 1, 1, 0], [0, 1, 0, 0]) == 0.25

    def test_windowed_stock(self):
        spec = DistortionSpec.stock()
        # x = (1, 0): drop at step 2; warning sequence (0, 1) is exact
        assert walked_distortion(spec, [1, 0], [0, 1], initial_context=0) == 0.0
        assert walked_distortion(spec, [1, 0], [0, 0], initial_context=0) == 0.5

    @pytest.mark.parametrize("initial_context", [None, 0, [0.4, 0.6]])
    def test_matches_distortion_tensor(self, initial_context):
        spec = DistortionSpec.stock()
        tensor = distortion_tensor(spec, 3, initial_context).values
        xs, xhs = sequence_digits(2, 3), sequence_digits(2, 3)
        for i, x in enumerate(xs):
            for j, xh in enumerate(xhs):
                assert walked_distortion(spec, x, xh, initial_context) == \
                    pytest.approx(tensor[i, j], abs=1e-12)


class TestMonteCarlo:
    def test_determinism(self):
        a = monte_carlo(SourceSpec.iid(0.5), HAMMING, 2, 8, 0.15, 50, 123, 0.25)
        b = monte_carlo(SourceSpec.iid(0.5), HAMMING, 2, 8, 0.15, 50, 123, 0.25)
        assert a == b

    def test_numpy_integer_seed_same_report(self):
        args = (SourceSpec.iid(0.5), HAMMING, 2, 8, 0.15, 50)
        assert monte_carlo(*args, np.int64(123), 0.25) == monte_carlo(*args, 123, 0.25)

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
            patch.setattr(sim, "_sample_decisions", no_sampling)
            with pytest.raises(MemoryError):
                monte_carlo(*args, lam=lam, memory_cap=14 * size)
        assert monte_carlo(*args, lam=lam, memory_cap=24 * size).codebook_size == size

    @pytest.mark.parametrize("args, expected", [
        ((SourceSpec.iid(0.5), HAMMING, 2, 18, 0.15, 200, 1, 0.25),
         '{"n": 2, "L": 18, "delta": 0.15, "codebook_size": 68, "trials": 200, '
         '"mean_distortion": 0.22583333333333336, "stderr": 0.00341236797938778, '
         '"target_D": 0.25, "rate": 0.18872155353331893}'),
        ((SourceSpec.binary_markov(0.3, 0.2), DistortionSpec.stock(), 2, 12, 0.1, 200, 1, 0.08),
         '{"n": 2, "L": 12, "delta": 0.1, "codebook_size": 13, "trials": 200, '
         '"mean_distortion": 0.07229166666666666, "stderr": 0.004192523414646152, '
         '"target_D": 0.08, "rate": 0.2165784297639516}'),
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
    """The cores' trees (``_sample_decisions``), walks (``_walks``), position
    costs, encoder choices and scores (``_encode_streams``) and source
    streams (``_sample_streams``) equal the per-branch, per-position,
    per-tree loops drawn with Generator.choice."""
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
    ref_rng = np.random.default_rng(tree_seed)
    ref_trees = [sample_code_tree_loops(kern.factors, n, L, A, A, fmap, ref_rng)
                 for _ in range(size)]
    decisions = _sample_decisions(kern, L, size, np.random.default_rng(tree_seed))
    np.testing.assert_array_equal(decisions, decision_array_loops(ref_trees, n, A))

    real = DistortionSpec.windowed(1, rng.random((A, A, A)))
    x = rng.integers(0, A, (4, L))
    walks = _walks(decisions, n, A, x)
    costs = _position_costs(spec, x, ctx)
    chosen, dists = _encode_streams(decisions, n, A, x, spec)
    real_chosen, real_dists = _encode_streams(decisions, n, A, x, real)
    for s, stream in enumerate(x):
        ref_walks = [decode_walk_loops(ref, n, A, stream) for ref in ref_trees]
        for walk, ref_walk in zip(walks[:, s], ref_walks):
            assert walk.tolist() == ref_walk
            assert costs[s, np.arange(L), walk].sum() / L == pytest.approx(
                sequence_distortion_loops(spec.table, spec.m, A, stream, walk, ctx), abs=1e-12)
        assert chosen[s] == encode_loops(ref_trees, n, A, stream, spec.table, spec.m)
        assert dists[s] == pytest.approx(sequence_distortion_loops(
            spec.table, spec.m, A, stream, ref_walks[chosen[s]]), abs=1e-12)
        walked = [sequence_distortion_loops(real.table, 1, A, stream, walk) for walk in ref_walks]
        assert walked[real_chosen[s]] == pytest.approx(min(walked), abs=1e-12)
        assert real_dists[s] == pytest.approx(min(walked), abs=1e-12)

    # consecutive streams of one generator: one row of uniforms each
    transition, initial = rng.dirichlet(np.ones(A), size=A), rng.dirichlet(np.ones(A))
    stream_seed = int(rng.integers(2**32))
    cases = [(SourceSpec.markov(transition, initial),
              lambda g: markov_stream_choice(transition, initial, 40, g)),
             (SourceSpec.iid(initial), lambda g: iid_stream_choice(initial, 40, g))]
    for source, reference in cases:
        u = np.random.default_rng(stream_seed).random((3, sim._stream_uniforms(source, 40)))
        ref_rng = np.random.default_rng(stream_seed)
        np.testing.assert_array_equal(sim._sample_streams(source, 40, u),
                                      [reference(ref_rng) for _ in range(3)])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_monte_carlo_matches_loops(data):
    """Reports equal, byte for byte, those of trees drawn, streams drawn and
    trials encoded, walked and scored one at a time by the loop references,
    whatever chunks the trials are drawn and encoded in.  Costs are multiples of 1/8 and every missing window symbol
    is averaged over a binary alphabet, so every sum is exact in either
    order."""
    A = data.draw(st.sampled_from([2, 3]), label="A")
    n = data.draw(st.integers(1, 3), label="n")
    L = n * data.draw(st.integers(1, 3), label="blocks")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if data.draw(st.booleans(), label="markov"):
        transition, initial = rng.dirichlet(np.ones(A), size=A), rng.dirichlet(np.ones(A))
        spec, source = SourceSpec.markov(transition, initial), ("markov", transition, initial)
    else:
        marginal = rng.dirichlet(np.ones(A))
        spec, source = SourceSpec.iid(marginal), ("iid", marginal)
    dist_name = data.draw(st.sampled_from(["hamming", "stock", "eighths"] if A == 2
                                          else ["hamming", "eighths"]), label="distortion")
    if dist_name == "eighths":
        m = data.draw(st.integers(0, 2 if A == 2 else 0), label="m")
        dist = DistortionSpec.windowed(m, rng.integers(0, 9, size=(A,) * (m + 2)) / 8)
    else:
        dist = _distortion_spec(dist_name, A, rng)
    lam = data.draw(st.floats(3.0, 8.0), label="lam")
    point = solve(block_pmf(spec, n), distortion_tensor(dist, n),
                  SolverConfig(lam=lam, delay=1, epsilon=1e-8))
    # delta sets the codebook size from the solved rate, so the loops stay short
    size = data.draw(st.integers(1, 8), label="trees")
    delta = math.log2(size + 0.5) / L - point.R
    trials = data.draw(st.integers(1, 10), label="trials")
    entries = data.draw(st.sampled_from([1, 2**62])
                        | st.integers(1, 4).map(lambda c: c * size * L), label="entries")
    seed = data.draw(st.integers(0, 2**130), label="trial seed")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_CHUNK_ENTRIES", entries)
        rep = monte_carlo(spec, dist, n, L, delta, trials, seed, 0.25, lam=lam)
    assert rep.codebook_size == size
    assert rep.to_json() == json.dumps(monte_carlo_loops(
        source, dist.table, dist.m, point.kernel.factors, point.R, n, L, delta, trials,
        seed, 0.25))


@pytest.mark.parametrize("n, L, trials, seed, delta, target_D, error", [
    (2, 8, 0, 1, 0.15, 0.25, ValueError), (2, 8, -1, 1, 0.15, 0.25, ValueError),
    (2, 0, 10, 1, 0.15, 0.25, ValueError), (2, 1, 10, 1, 0.15, 0.25, ValueError),
    (2, 7, 10, 1, 0.15, 0.25, ValueError), (3, 8, 10, 1, 0.15, 0.25, ValueError),
    (2, 8, 10, -1, 0.15, 0.25, ValueError), (2, 8, 10, 1.5, 0.15, 0.25, TypeError),
    (2, 8, 10, 1, np.nan, 0.25, ValueError), (2, 8, 10, 1, np.inf, 0.25, ValueError),
    (2, 8, 10, 1, -np.inf, 0.25, ValueError), (2, 8, 10, 1, 0.15, np.nan, ValueError),
    (2, 8, 10, 1, 0.15, -0.1, ValueError)],
    ids=["no-trials", "negative-trials", "L0", "L-below-n", "L7-n2", "L8-n3",
         "negative-seed", "float-seed", "nan-delta", "inf-delta", "minus-inf-delta",
         "nan-target", "negative-target"])
def test_monte_carlo_rejects_unworkable_inputs_before_solving(n, L, trials, seed, delta,
                                                              target_D, error, monkeypatch):
    # a NaN target used to run 82 solves and report rate 0, a NaN delta to
    # fail after 16 solves, and an infinite one to raise OverflowError
    def no_solve(*_, **__):
        raise AssertionError("solved before the inputs were checked")

    monkeypatch.setattr(sim, "solve", no_solve)
    with pytest.raises(error, match="trials|multiple of n|seed|integer|delta|target_D"):
        monte_carlo(SourceSpec.iid(0.5), HAMMING, n, L, delta, trials, seed, target_D)


@pytest.mark.parametrize("n, L, trials, name", [
    (2.5, 8, 10, "block length"), (2, 8.5, 10, "tree depth L"), (2, 8, 2.5, "trials")])
def test_monte_carlo_refuses_fractional_counts(n, L, trials, name, monkeypatch):
    # each raised a TypeError from numpy
    def no_solve(*_, **__):
        raise AssertionError("solved before the inputs were checked")

    monkeypatch.setattr(sim, "solve", no_solve)
    with pytest.raises(ValueError, match=f"{name} must be a whole number"):
        monte_carlo(SourceSpec.iid(0.5), HAMMING, n, L, 0.15, trials, 1, 0.25)


def test_monte_carlo_whole_float_counts():
    # n = 2.0 and L = 8.0 raised a TypeError from numpy
    args = (0.15, 20, 1, 0.25)
    report = monte_carlo(SourceSpec.iid(0.5), HAMMING, 2.0, 8.0, *args, lam=3.0)
    assert report == monte_carlo(SourceSpec.iid(0.5), HAMMING, 2, 8, *args, lam=3.0)
    assert type(report.n) is int and type(report.L) is int


@pytest.mark.parametrize("delta", [1e6, 1e300])
def test_monte_carlo_tree_count_past_a_float_meets_the_cap(delta, monkeypatch):
    # 2^{L(R + delta)} overflows a float; it used to raise OverflowError
    def no_sampling(*_):
        raise AssertionError("a tree was sampled before the cap check")

    monkeypatch.setattr(sim, "_sample_decisions", no_sampling)
    with pytest.raises(MemoryError, match="exceeds the cap"):
        monte_carlo(SourceSpec.iid(0.5), HAMMING, 2, 18, delta, 10, 1, 0.25, lam=3.0)


def test_monte_carlo_memory_does_not_grow_with_trials():
    """Trials are encoded in bounded chunks: ten times the trials of the
    benchmark's iid-hamming-L18 run raise the traced peak by no more than
    their per-trial distortions (8 bytes each) and a fixed 32 KiB."""
    args = (SourceSpec.iid(0.5), HAMMING, 2, 18, 0.15)
    monte_carlo(*args, 20, 1, 0.25)  # caches filled outside the traced runs
    peaks = {}
    for trials in (200, 2000):
        tracemalloc.start()
        try:
            monte_carlo(*args, trials, 1, 0.25)
            peaks[trials] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[2000] <= peaks[200] + 8 * (2000 - 200) + 32 * 1024


def test_codebook_draw_peak_is_a_few_decision_arrays():
    """Each level is normalized, accumulated, rescaled and compared in one
    buffer, so drawing 20,000 trees of the iid(0.5), Hamming, lam = 3 kernel
    at n = 2, L = 18 peaks at under 4 decision arrays: the array, the
    uniforms and the last level's buffer with one smaller temporary."""
    source = block_pmf(SourceSpec.iid(0.5), 2)
    kernel = solve(source, distortion_tensor(HAMMING, 2),
                   SolverConfig(lam=3.0, delay=1, epsilon=1e-8)).kernel
    tracemalloc.start()
    try:
        decisions = sim._sample_decisions(kernel, 18, 20_000, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * decisions.nbytes


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
    curve (0.1), so every probe would climb to lam = 64; the top of the
    bracket is solved first, once, and that point is returned."""
    solved = []

    def recording(source, dist, config, *args, **kwargs):
        solved.append(config.lam)
        return solve(source, dist, config, *args, **kwargs)

    monkeypatch.setattr(sim, "solve", recording)
    source = block_pmf(SourceSpec.binary_markov(0.3, 0.2), 2)
    dist = distortion_tensor(DistortionSpec.stock(), 2)
    point = sim._lambda_for_distortion(source, dist, 0.08)
    assert len(solved) == len(set(solved)) == 1
    assert point.lam == solved[-1] == 64.0


@pytest.mark.parametrize("target_D", [np.inf, 0.6])
def test_target_above_the_curve_takes_the_zero_weight_point(target_D, monkeypatch):
    """iid(0.5)/Hamming at n = 2 reaches D = 0.5 at lam = 0; a target at or
    above it gets the lam = 0 point after the two ends of the bracket (the
    bisection ran 82 solves down towards lam = 0 for both)."""
    solved = []

    def recording(source, dist, config, *args, **kwargs):
        solved.append(config.lam)
        return solve(source, dist, config, *args, **kwargs)

    monkeypatch.setattr(sim, "solve", recording)
    rep = monte_carlo(SourceSpec.iid(0.5), HAMMING, 2, 8, 0.1, 10, 1, target_D)
    assert solved == [64.0, 0.0]
    assert rep.rate == solve(block_pmf(SourceSpec.iid(0.5), 2), distortion_tensor(HAMMING, 2),
                             SolverConfig(lam=0.0, delay=1, epsilon=1e-8)).R
