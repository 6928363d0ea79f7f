"""Test helpers built on the package: causal kernels factored from a joint
table, and the iterate-by-iterate comparison of the feed-forward solver at
full delay with the textbook solver of ``oracles``."""

from dataclasses import replace

import numpy as np

from ffrd.prob import CausalKernel, _context_factors, _Contexts
from ffrd.solver import solve

from oracles import TRACE_FIELDS, solve_classical


def kernel_from_joint(joint, n, A, B, s, fmap=None):
    """The causal kernel q(x̂^n || z^{n-s}) of an (|X|^n, |X̂|^n) joint table,
    factored as the solver factors it; with ``fmap`` the contexts see the
    mapped symbols z_j = fmap[x_j]."""
    ctx = _Contexts.of(n, A, B, s, fmap)
    table, factors, _ = _context_factors(np.asarray(joint, dtype=float)[None], ctx)
    return CausalKernel(n, s, A, B, ctx.full(table[0]), tuple(f[0] for f in factors),
                        None if fmap is None else np.asarray(fmap))


def assert_same_iterates(source, distortion, config, block):
    """Check that ``block`` (a ``solve`` at delay n) passes through the same
    channel and kernel tables and the same scalar records at every iterate k,
    to 1e-12, as ``oracles.solve_classical`` with the config's weight,
    tolerance and iteration cap.

    ``solve``'s k-th iterate is rebuilt by chaining one-iteration solves from
    the uniform kernel, each started from the previous one's kernel; the
    chain repeats the run's arithmetic, so its records must equal the run's
    trace.  ``solve_classical``'s k-th iterate is a fresh run capped at k
    iterations.
    """
    def classical(max_iters):
        return solve_classical(source.probs, distortion.values, config.lam, source.n,
                               config.epsilon, max_iters)

    full = classical(config.max_iters)
    assert block.iterations == full.iterations
    for name in TRACE_FIELDS[1:]:
        np.testing.assert_allclose(block.trace[name], full.trace[name], rtol=0.0, atol=1e-12)
    one_step = replace(config, max_iters=1)
    kernel = None
    for k in range(1, block.iterations + 1):
        a = solve(source, distortion, one_step, initial_kernel=kernel)
        b = classical(k)
        np.testing.assert_allclose(a.channel.probs, b.channel, atol=1e-12)
        kernel_rows = np.broadcast_to(b.marginal, a.kernel.probs.shape)
        np.testing.assert_allclose(a.kernel.probs, kernel_rows, atol=1e-12)
        assert a.trace[0].item()[1:] == block.trace[k - 1].item()[1:]
        kernel = a.kernel
