import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffrd.models import FeedForwardMap
from ffrd.prob import (
    BlockSource,
    CausalKernel,
    ForwardChannel,
    SupportError,
    _context_factors,
    _Contexts,
    binary_entropy,
    directed_information,
    flat_index,
    kl_divergence,
    reverse_causal_factors,
    sequence_digits,
)
from ffrd.solver import _kernel_table

from helpers import kernel_from_joint
from oracles import causal_kernel_loops, context_mass_loops


def random_joint(rng, n=2, A=2, B=2):
    return rng.dirichlet(np.ones(A**n * B**n)).reshape(A**n, B**n)


def random_kernel(rng, n=2, A=2, B=2, s=1):
    """A valid causal kernel obtained by factorizing a random joint."""
    return kernel_from_joint(random_joint(rng, n, A, B), n, A, B, s)


def assert_causal(kern):
    """The kernel is constant over the source symbols its contexts do not
    see, as the solver requires of a kernel from outside."""
    ctx = _Contexts.of(kern.n, kern.src_alphabet_size, kern.rec_alphabet_size, kern.delay,
                       kern.ff_map)
    _kernel_table(kern, ctx, "kernel")


class TestIndexing:
    def test_flat_index_round_trip(self):
        digits = sequence_digits(3, 4)
        for k in range(3**4):
            assert flat_index(digits[k], 3) == k

    def test_first_symbol_most_significant(self):
        assert flat_index([1, 0, 0], 2) == 4
        assert flat_index([0, 0, 1], 2) == 1

    def test_out_of_alphabet_symbol_rejected(self):
        with pytest.raises(ValueError):
            flat_index([0, 2], 2)


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


class TestKlDivergence:
    def test_zero_iff_equal(self):
        p = np.array([0.3, 0.7])
        assert kl_divergence(p, p) == 0.0

    def test_point_mass_vs_uniform(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(1.0)

    def test_known_value(self):
        val = 0.5 * np.log2(2.0) + 0.5 * np.log2(2.0 / 3.0)
        assert kl_divergence([0.5, 0.5], [0.25, 0.75]) == pytest.approx(val)
        assert val == pytest.approx(0.207519, abs=1e-6)

    def test_support_violation(self):
        with pytest.raises(SupportError):
            kl_divergence([0.5, 0.5], [1.0, 0.0])

    def test_nonnegative_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = rng.dirichlet(np.ones(6))
            q = rng.dirichlet(np.ones(6)) + 1e-9
            q /= q.sum()
            assert kl_divergence(p, q) >= 0.0


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
            CausalKernel(1, 1, 2, 2, np.full((2, 2), np.nan), (np.full(2, np.nan),))


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
        bad = CausalKernel(1, 1, 2, 2, np.array([[1.0, 0.0], [1.0, 0.0]]),
                           (np.array([1.0, 0.0]),))
        with pytest.raises(SupportError):
            directed_information(src, ch, bad)

    def test_mismatch_named(self):
        # numpy's broadcast error was all that named either
        src3 = BlockSource(n=3, src_alphabet_size=2, probs=np.full(8, 0.125))
        ch = ForwardChannel(n=2, src_alphabet_size=2, rec_alphabet_size=2,
                            probs=np.full((4, 4), 0.25))
        with pytest.raises(ValueError, match=r"channel is for n=2, \|X\|=2; "
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
        pp, factors = reverse_causal_factors(joint, 2, 2, 2)
        np.testing.assert_allclose(pp * kern.probs, joint, atol=1e-12)

    def test_factor_normalization(self):
        rng = np.random.default_rng(11)
        _, factors = reverse_causal_factors(random_joint(rng), 2, 2, 2)
        for i, f in enumerate(factors, start=1):
            np.testing.assert_allclose(f.sum(axis=i - 1), 1.0, atol=1e-12)


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


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from(SHAPES), data=st.data())
def test_factorization_matches_loop_oracle(shape, data):
    """Kernel table and context mass match plain loops over symbol tuples,
    for every delay and feed-forward map, on joints with exact zeros."""
    A, B, n = shape
    s = data.draw(st.integers(min_value=1, max_value=n), label="s")
    map_name = data.draw(st.sampled_from([None, "identity", "parity", "constant"]),
                         label="map")
    cell_zeros = data.draw(st.sampled_from([0.0, 0.3, 0.95]), label="cell_zeros")
    row_zeros = data.draw(st.sampled_from([0.0, 0.5]), label="row_zeros")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    keep = (rng.random((A**n, 1)) >= row_zeros) & (rng.random((A**n, B**n)) >= cell_zeros)
    joint = rng.dirichlet(np.ones(A**n * B**n)) * keep.ravel()
    if joint.sum() == 0.0:
        joint[rng.integers(joint.size)] = 1.0
    joint = (joint / joint.sum()).reshape(A**n, B**n)
    fmap = None if map_name is None else getattr(FeedForwardMap, map_name)(A).table

    ctx = _Contexts.of(n, A, B, s, fmap)
    table, factors, mass = _context_factors(joint[None], ctx)

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
