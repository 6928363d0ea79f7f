import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffrd import prob
from ffrd.dual import DualCertificate
from ffrd.models import FeedForwardMap
from ffrd.prob import (
    BlockSource,
    CausalKernel,
    ForwardChannel,
    SupportError,
    _context_factors,
    _Contexts,
    _factor_product,
    binary_entropy,
    directed_information,
    reverse_causal_factors,
    sequence_digits,
)

from helpers import kernel_from_joint
from oracles import causal_kernel_loops, context_mass_loops, reverse_factors_reference


def random_joint(rng, n=2, A=2, B=2):
    return rng.dirichlet(np.ones(A**n * B**n)).reshape(A**n, B**n)


def random_kernel(rng, n=2, A=2, B=2, s=1):
    """A valid causal kernel obtained by factorizing a random joint."""
    return kernel_from_joint(random_joint(rng, n, A, B), n, A, B, s)


def p_prime_table(factors, n, A, B):
    """The (|X|^n, |X̂|^n) product of reverse factors, as a certificate
    holding them multiplies them."""
    return DualCertificate(lam=0.0, n=n, src_alphabet_size=A, rec_alphabet_size=B,
                           gamma=np.ones(A**n),
                           p_prime=CausalKernel(n, 0, B, A, factors)).p_prime_table


def assert_causal(kern):
    """The full table repeats the context table over each context: row x^n
    of ``probs`` is the ``table`` row of the class of z^{n-s}."""
    n, A, s = kern.n, kern.src_alphabet_size, kern.delay
    fmap = np.arange(A) if kern.ff_map is None else kern.ff_map
    Z = int(np.max(fmap)) + 1
    classes = fmap[sequence_digits(A, n)[:, :n - s]] @ Z ** np.arange(n - s - 1, -1, -1)
    np.testing.assert_array_equal(kern.probs, kern.table[classes])


class TestIndexing:
    def test_digits_round_trip(self):
        digits = sequence_digits(3, 4)
        np.testing.assert_array_equal(np.ravel_multi_index(digits.T, (3,) * 4), np.arange(3**4))

    def test_first_symbol_most_significant(self):
        digits = sequence_digits(2, 3)
        np.testing.assert_array_equal(digits[4], [1, 0, 0])
        np.testing.assert_array_equal(digits[1], [0, 0, 1])


class TestBinaryEntropy:
    def test_maximum_at_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_degenerate(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_known_value(self):
        assert binary_entropy(0.2) == pytest.approx(0.721928, abs=1e-6)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symmetry(self, p):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)


class TestConstructors:
    def test_source_normalization_enforced(self):
        with pytest.raises(ValueError):
            BlockSource(n=1, src_alphabet_size=2, probs=np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            BlockSource(n=1, src_alphabet_size=2, probs=np.array([-0.1, 1.1]))

    def test_channel_rows_normalized(self):
        bad = np.array([[0.5, 0.4], [0.5, 0.5]])
        with pytest.raises(ValueError):
            ForwardChannel(n=1, src_alphabet_size=2, rec_alphabet_size=2, probs=bad)

    def test_source_nonfinite_rejected(self):
        # abs(nan - 1) > tol is False, so a plain normalization test lets NaN through
        with pytest.raises(ValueError, match="non-finite"):
            BlockSource(n=1, src_alphabet_size=2, probs=np.array([np.nan, np.nan]))

    def test_channel_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            ForwardChannel(n=1, src_alphabet_size=2, rec_alphabet_size=2,
                           probs=np.full((2, 2), np.nan))

    def test_kernel_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            CausalKernel(1, 1, 2, 2, (np.full(2, np.nan),))


class TestCausalKernel:
    def test_independent_product_joint(self):
        # joint = p(x^2) * m(x̂^2): kernel is the marginal chain, constant in x
        rng = np.random.default_rng(0)
        p = rng.dirichlet(np.ones(4))
        m = rng.dirichlet(np.ones(4))
        kern = kernel_from_joint(np.outer(p, m), 2, 2, 2, 1)
        np.testing.assert_allclose(kern.probs, np.tile(m, (4, 1)), atol=1e-12)
        assert_causal(kern)

    def test_delay_n_is_plain_marginal(self):
        rng = np.random.default_rng(1)
        joint = random_joint(rng)
        kern = kernel_from_joint(joint, 2, 2, 2, 2)
        marginal = joint.sum(axis=0)
        np.testing.assert_allclose(kern.probs, np.tile(marginal, (4, 1)), atol=1e-12)

    def test_deterministic_copy_branch(self):
        # p(x^2) uniform, x̂_1 uniform, x̂_2 = x_1: factor two must be 1{x̂_2 = x_1}
        probs = np.zeros((4, 4))
        for x in range(4):
            x1 = x >> 1
            for h1 in range(2):
                probs[x, (h1 << 1) | x1] = 0.25 * 0.5
        kern = kernel_from_joint(probs, 2, 2, 2, 1)
        f2 = kern.factors[1]  # axes (x_1, x̂_1, x̂_2)
        for x1 in range(2):
            for h1 in range(2):
                np.testing.assert_allclose(f2[x1, h1], np.eye(2)[x1], atol=1e-12)

    def test_rows_normalized(self):
        rng = np.random.default_rng(2)
        for s in (1, 2):
            kern = random_kernel(rng, s=s)
            np.testing.assert_allclose(kern.probs.sum(axis=1), 1.0, atol=1e-12)

    def test_causality_constraint(self):
        rng = np.random.default_rng(4)
        for s in (1, 2, 3):
            kern = random_kernel(rng, n=3, s=s)
            assert_causal(kern)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        kern = random_kernel(rng, n=2, s=1)
        src = BlockSource(n=2, src_alphabet_size=2, probs=rng.dirichlet(np.ones(4)))
        again = kernel_from_joint(src.probs[:, None] * kern.probs, 2, 2, 2, 1)
        np.testing.assert_allclose(again.probs, kern.probs, atol=1e-12)

    def test_uniform_constructor(self):
        kern = CausalKernel.uniform(3, 2, 2)
        assert np.all(kern.probs == 0.125)
        assert_causal(kern)

    @pytest.mark.parametrize("factors, ff_map, message", [
        ((np.full(2, 0.5),), None, "needs n=2 factors, got 1"),
        # factor 2 with an x_2 axis would see the newest symbol
        ((np.full(2, 0.5), np.full((2, 2, 2, 2), 0.5)), None, "factor 2 has shape"),
        ((np.array([0.5 + 1e-9, 0.5]), np.full((2, 2, 2), 0.5)), None, "not normalized"),
        ((np.full(2, 0.5), np.full((2, 2, 2), np.nan)), None, "non-finite"),
        ((np.full(2, 0.5), np.full((2, 2, 2), 0.5)), np.array([0, 1, 1]), "ff_map"),
        # [0.7, 0.2] was truncated to the constant map
        ((np.full(2, 0.5), np.full((2, 2, 2), 0.5)), np.array([0.7, 0.2]), "map table"),
        ((np.full(2, 0.5), np.full((2, 2, 2), 0.5)), np.array([], dtype=int), "map table"),
    ], ids=["factor-count", "sees-newest", "rows-off", "nan", "map-length", "fractional-map",
            "empty-map"])
    def test_malformed_factors_rejected(self, factors, ff_map, message):
        with pytest.raises(ValueError, match=message):
            CausalKernel(2, 1, 2, 2, factors, ff_map)

    def test_delay_zero_is_standard_causal_conditioning(self):
        # factor i sees c^i: at n = 1 the kernel is the joint's conditional
        rng = np.random.default_rng(12)
        joint = rng.dirichlet(np.ones(6)).reshape(2, 3)
        kern = kernel_from_joint(joint, 1, 2, 3, 0)
        np.testing.assert_allclose(kern.probs, joint / joint.sum(axis=1, keepdims=True),
                                   rtol=0, atol=1e-15)
        kern = kernel_from_joint(random_joint(rng, A=2, B=3), 2, 2, 3, 0)
        assert [f.shape for f in kern.factors] == [(2, 3), (2, 2, 3, 3)]
        assert_causal(kern)

    @pytest.mark.parametrize("ff_map", [[-1, 0], []], ids=["negative", "empty"])
    def test_bad_map_refused_by_uniform(self, ff_map):
        # [-1, 0] was accepted with Z = 1, its row -1 wrapping to row 0, and []
        # raised numpy's zero-size reduction error
        with pytest.raises(ValueError, match="map table must be a 1-D array of symbol indices"):
            CausalKernel.uniform(2, 2, 2, ff_map=np.array(ff_map, dtype=int))

    def test_feedforward_map_aggregates_classes(self):
        # constant map: kernel cannot depend on x at all, even at delay 1
        rng = np.random.default_rng(6)
        joint = random_joint(rng)
        kern = kernel_from_joint(joint, 2, 2, 2, 1, fmap=np.array([0, 0]))
        marginal = joint.sum(axis=0)
        # constant conditioning collapses to the marginal chain of x̂
        m1 = marginal.reshape(2, 2).sum(axis=1)
        f2 = marginal.reshape(2, 2) / marginal.reshape(2, 2).sum(axis=1, keepdims=True)
        expected = (m1[:, None] * f2).ravel()
        np.testing.assert_allclose(kern.probs, np.tile(expected, (4, 1)), atol=1e-12)


class TestDirectedInformation:
    def test_independent_channel_zero(self):
        rng = np.random.default_rng(7)
        src = BlockSource(n=2, src_alphabet_size=2, probs=rng.dirichlet(np.ones(4)))
        m = rng.dirichlet(np.ones(4))
        ch = ForwardChannel(n=2, src_alphabet_size=2, rec_alphabet_size=2,
                            probs=np.tile(m, (4, 1)))
        kern = kernel_from_joint(src.probs[:, None] * ch.probs, 2, 2, 2, 1)
        assert directed_information(src, ch, kern) == pytest.approx(0.0, abs=1e-12)

    def test_reconstruction_function_of_feedforward_zero(self):
        # x̂_1 = 0, x̂_2 = x_1: reconstruction depends on fed-forward symbols only
        probs = np.zeros((4, 4))
        for x in range(4):
            probs[x, x >> 1] = 1.0
        src = BlockSource(n=2, src_alphabet_size=2, probs=np.full(4, 0.25))
        ch = ForwardChannel(n=2, src_alphabet_size=2, rec_alphabet_size=2, probs=probs)
        kern = kernel_from_joint(src.probs[:, None] * ch.probs, 2, 2, 2, 1)
        assert directed_information(src, ch, kern) == pytest.approx(0.0, abs=1e-12)

    def test_identity_channel_full_entropy(self):
        # delay n and x̂^n = x^n on a uniform source: 2 bits for n=2 binary
        src = BlockSource(n=2, src_alphabet_size=2, probs=np.full(4, 0.25))
        ch = ForwardChannel(n=2, src_alphabet_size=2, rec_alphabet_size=2,
                            probs=np.eye(4))
        kern = kernel_from_joint(src.probs[:, None] * ch.probs, 2, 2, 2, 2)
        assert directed_information(src, ch, kern) == pytest.approx(2.0)

    def test_support_violation_signalled(self):
        src = BlockSource(n=1, src_alphabet_size=2, probs=np.array([0.5, 0.5]))
        ch = ForwardChannel(n=1, src_alphabet_size=2, rec_alphabet_size=2,
                            probs=np.array([[1.0, 0.0], [0.0, 1.0]]))
        bad = CausalKernel(1, 1, 2, 2, (np.array([1.0, 0.0]),))
        with pytest.raises(SupportError):
            directed_information(src, ch, bad)

    def test_mismatch_named(self):
        # numpy's broadcast error was all that named either
        src3 = BlockSource(n=3, src_alphabet_size=2, probs=np.full(8, 0.125))
        ch = ForwardChannel(n=2, src_alphabet_size=2, rec_alphabet_size=2,
                            probs=np.full((4, 4), 0.25))
        with pytest.raises(ValueError, match=r"channel is for n=2, \|X\|=2, \|X̂\|=2; "
                                             r"the source has n=3, \|X\|=2"):
            directed_information(src3, ch, CausalKernel.uniform(2, 2, 2))
        src2 = BlockSource(n=2, src_alphabet_size=2, probs=np.full(4, 0.25))
        with pytest.raises(ValueError, match=r"kernel is for n=2, \|X\|=2, \|X̂\|=3; "
                                             r"the channel is for n=2, \|X\|=2, \|X̂\|=2"):
            directed_information(src2, ch, CausalKernel.uniform(2, 2, 3))

    def test_minimizer_among_kernels(self):
        # the kernel factorized from the joint minimizes the divergence
        rng = np.random.default_rng(8)
        src = BlockSource(n=2, src_alphabet_size=2, probs=rng.dirichlet(np.ones(4)))
        ch_probs = rng.dirichlet(np.ones(4), size=4)
        ch = ForwardChannel(n=2, src_alphabet_size=2, rec_alphabet_size=2,
                            probs=ch_probs)
        best = kernel_from_joint(src.probs[:, None] * ch.probs, 2, 2, 2, 1)
        base = directed_information(src, ch, best)
        for _ in range(100):
            other = random_kernel(rng, s=1)
            assert directed_information(src, ch, other) >= base - 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            src = BlockSource(n=2, src_alphabet_size=2, probs=rng.dirichlet(np.ones(4)))
            ch = ForwardChannel(n=2, src_alphabet_size=2, rec_alphabet_size=2,
                                probs=rng.dirichlet(np.ones(4), size=4))
            kern = kernel_from_joint(src.probs[:, None] * ch.probs, 2, 2, 2, 1)
            assert directed_information(src, ch, kern) >= -1e-12


class TestReverseFactors:
    def test_reassembles_joint_with_forward_kernel(self):
        rng = np.random.default_rng(10)
        joint = random_joint(rng)
        kern = kernel_from_joint(joint, 2, 2, 2, 1)
        pp = p_prime_table(reverse_causal_factors(joint, 2, 2, 2), 2, 2, 2)
        np.testing.assert_allclose(pp * kern.probs, joint, atol=1e-12)

    def test_factor_normalization(self):
        rng = np.random.default_rng(11)
        factors = reverse_causal_factors(random_joint(rng), 2, 2, 2)
        for f in factors:
            np.testing.assert_allclose(f.sum(axis=-1), 1.0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_kernel_factorization_consistent(seed):
    """The stored factor product always equals the dense kernel table."""
    rng = np.random.default_rng(seed)
    kern = random_kernel(rng, n=2, s=1)
    f1, f2 = kern.factors  # f1 over x̂_1; f2 over (x_1, x̂_1, x̂_2)
    rebuilt = np.ones((2, 2, 2, 2))
    rebuilt *= f1.reshape(1, 1, 2, 1)
    rebuilt *= f2.reshape(2, 1, 2, 2)
    np.testing.assert_allclose(rebuilt.reshape(4, 4), kern.probs, atol=1e-12)


# (A, B, n) with A^n * B^n <= 256: the sizes the loop oracle checks quickly.
SHAPES = [(A, B, n) for A in (2, 3) for B in (2, 3) for n in range(1, 5)
          if (A * B) ** n <= 256]


def draw_joint(data, A, B, n):
    """A random (|X|^n, |X̂|^n) joint with exact zero cells and, at times,
    zero source rows."""
    cell_zeros = data.draw(st.sampled_from([0.0, 0.3, 0.95]), label="cell_zeros")
    row_zeros = data.draw(st.sampled_from([0.0, 0.5]), label="row_zeros")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    keep = (rng.random((A**n, 1)) >= row_zeros) & (rng.random((A**n, B**n)) >= cell_zeros)
    joint = rng.dirichlet(np.ones(A**n * B**n)) * keep.ravel()
    if joint.sum() == 0.0:
        joint[rng.integers(joint.size)] = 1.0
    return (joint / joint.sum()).reshape(A**n, B**n)


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from(SHAPES), data=st.data())
def test_factorization_matches_loop_oracle(shape, data):
    """Kernel table and context mass match plain loops over symbol tuples,
    for every delay and feed-forward map, on joints with exact zeros."""
    A, B, n = shape
    s = data.draw(st.integers(min_value=1, max_value=n), label="s")
    map_name = data.draw(st.sampled_from([None, "identity", "parity", "constant"]),
                         label="map")
    joint = draw_joint(data, A, B, n)
    fmap = None if map_name is None else getattr(FeedForwardMap, map_name)(A).table

    ctx = _Contexts.of(n, A, B, s, fmap)
    factors, mass = _context_factors(joint[None], ctx)
    table = _factor_product(factors, ctx)

    xs, xhs = sequence_digits(A, n), sequence_digits(B, n)
    p = {tuple(x): 1.0 for x in xs}
    r = {(tuple(x), tuple(xh)): joint[i, j]
         for i, x in enumerate(xs) for j, xh in enumerate(xhs)}
    q_loops = causal_kernel_loops(p, r, n, A, B, s, fmap)
    mass_loops = context_mass_loops(p, r, n, A, B, s, fmap)
    expected_q = np.array([[q_loops[(tuple(x), tuple(xh))] for xh in xhs] for x in xs])
    expected_mass = np.array([[mass_loops[(tuple(x), tuple(xh))] for xh in xhs] for x in xs])
    # both are context tables; spread them over x^n
    full, mass_full = ctx.full(table[0]), ctx.full(mass[0])

    np.testing.assert_allclose(full, expected_q, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(mass_full > 0.0, expected_mass > 0.0)
    np.testing.assert_allclose(mass_full, expected_mass, rtol=0, atol=1e-12)
    Z = A if fmap is None else int(np.max(fmap)) + 1
    assert [f.shape[1:] for f in factors] == [(Z,) * max(i - s, 0) + (B,) * i
                                         for i in range(1, n + 1)]
    # the kernel built from the factors multiplies them as the factorization does
    kern = CausalKernel(n, s, A, B, tuple(f[0] for f in factors), fmap)
    np.testing.assert_array_equal(kern.table, table[0])
    np.testing.assert_allclose(kern.probs, expected_q, rtol=0, atol=1e-12)


def _factorize_both_ways(joint, ctx):
    """Factors, mass and kernel table of one joint with every table sliced
    along x̂_i, then with none; each factorization gets a fresh space."""
    results = []
    for cells in (0, 2**62):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(prob, "_SLICE_CELLS", cells)
            factors, mass = _context_factors(joint[None], ctx)
            results.append((factors, mass, _factor_product(factors, ctx)))
    return results


def _assert_same_bits(sliced, broadcast):
    (f_s, m_s, t_s), (f_b, m_b, t_b) = sliced, broadcast
    assert len(f_s) == len(f_b)
    for a, b in zip(f_s, f_b):
        assert np.array_equal(a, b)
    assert np.array_equal(m_s, m_b)
    assert np.array_equal(t_s, t_b)


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from(SHAPES), data=st.data())
def test_slicing_along_last_axis_changes_no_bit(shape, data):
    """Dividing and multiplying slice by slice along x̂_i gives the
    broadcast's factors, mass and kernel table bit for bit, for every delay
    and feed-forward map, on joints with exact zero cells and rows."""
    A, B, n = shape
    s = data.draw(st.integers(min_value=1, max_value=n), label="s")
    map_name = data.draw(st.sampled_from([None, "identity", "parity", "constant"]),
                         label="map")
    joint = draw_joint(data, A, B, n)
    fmap = None if map_name is None else getattr(FeedForwardMap, map_name)(A).table
    _assert_same_bits(*_factorize_both_ways(joint, _Contexts.of(n, A, B, s, fmap)))


def test_slicing_changes_no_bit_on_empty_contexts_at_a_sliced_level():
    """At n=7 the last level is sliced at the default size switch; with
    contexts carrying no mass there, its masked divide and the uniform fill
    give the broadcast's bits too."""
    n, A, B = 7, 2, 2
    rng = np.random.default_rng(7)
    joint = rng.dirichlet(np.ones(A**n * B**n)).reshape(A**n, B**n)
    joint[:8] = 0.0  # the prefixes x^6 = 000000..000011 carry no mass
    joint[rng.random(joint.shape) < 0.3] = 0.0
    joint /= joint.sum()
    ctx = _Contexts.of(n, A, B, 1, None)
    assert (A ** (n - 1)) * B**n >= prob._SLICE_CELLS
    factors, mass = _context_factors(joint[None], ctx)
    # the uniform fill ran on the empty contexts of the last level
    assert np.all(factors[-1][0].reshape(A ** (n - 1), -1)[:4] == 1.0 / B)
    sliced, broadcast = _factorize_both_ways(joint, ctx)
    _assert_same_bits(sliced, broadcast)
    for a, b in zip(factors, sliced[0]):
        assert np.array_equal(a, b)


def test_stack_with_one_dead_member_matches_lone_factorizations():
    """In a stack where one member has contexts without mass at several
    levels, the largest of them sliced, and the other has none, each member
    gets its lone factorization bit for bit, the empty contexts get 1/B,
    and nothing warns (|X| = |X̂| = 3, parity map, n = 5)."""
    n, A, B = 5, 3, 3
    fmap = FeedForwardMap.parity(A).table
    ctx = _Contexts.of(n, A, B, 1, fmap)
    rng = np.random.default_rng(5)
    live = rng.dirichlet(np.ones(A**n * B**n)).reshape((A,) * n + (B,) * n)
    dead = rng.dirichlet(np.ones(A**n * B**n)).reshape((A,) * n + (B,) * n)
    dead[1, :, :, :, :, 0] = 0.0  # z_1 = 1 with x̂_1 = 0: empty from level 2 on
    dead[0, :, :, :, :, 1, 2] = 0.0
    dead[2, :, :, :, :, 1, 2] = 0.0  # z_1 = 0 with x̂^2 = 12: empty from level 3 on
    joints = np.stack([live / live.sum(), dead / dead.sum()]).reshape(2, A**n, B**n)

    space = prob._FactorSpace(ctx, 2)
    # the prefix mass, summed over x_n in order as _context_factors sums it
    np.add.reduce(joints.reshape(2, A ** (n - 1), A, B**n), axis=2, out=space.prefix)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert space.factorize() is False
        lone = [_context_factors(j[None], ctx) for j in joints]
    assert space.factors[-1].size >= prob._SLICE_CELLS
    empty_levels = [i for i, sums in enumerate(space.sums, start=1) if np.any(sums[1] == 0.0)]
    assert empty_levels == [2, 3, 4, 5]
    for j, (factors, mass) in enumerate(lone):
        assert np.array_equal(space.mass[j], mass[0])
        for f, lone_f, sums in zip(space.factors, factors, space.sums):
            assert np.array_equal(f[j], lone_f[0])
            assert np.all(f[j][sums[j] == 0.0] == 1.0 / B)
    assert not any(np.any(sums[0] == 0.0) for sums in space.sums)


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from(SHAPES), data=st.data())
def test_reverse_factors_match_reference(shape, data):
    """The reverse factors, the forward factorization run at delay 0 on the
    transposed joint, match the 2n-axis marginals of the reference, zero-mass
    fill included, and with the forward kernel they reassemble the joint."""
    A, B, n = shape
    joint = draw_joint(data, A, B, n)
    factors = reverse_causal_factors(joint, n, A, B)
    _, expected = reverse_factors_reference(joint, n, A, B)
    assert [f.shape for f in factors] == [(B,) * i + (A,) * i for i in range(1, n + 1)]
    for i, (f, e) in enumerate(zip(factors, expected), start=1):
        # the reference's (x^i, x̂^i) axes in the kernel's (x̂^i, x^i) order
        np.testing.assert_allclose(f, np.moveaxis(e, range(i), range(i, 2 * i)),
                                   rtol=0, atol=1e-12)
    kern = kernel_from_joint(joint, n, A, B, s=1)
    np.testing.assert_allclose(p_prime_table(factors, n, A, B) * kern.probs, joint,
                               rtol=0, atol=1e-12)
