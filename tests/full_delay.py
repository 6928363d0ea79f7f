"""Iterate-by-iterate comparison of the feed-forward solver at full delay
with the textbook solver."""

from dataclasses import replace

import numpy as np

from ffrd.solver import solve, solve_classical


def assert_same_iterates(source, distortion, config, block, classical):
    """Check that ``block`` (a ``solve`` at delay n) and ``classical`` (a
    ``solve_classical``) pass through the same channel and kernel tables and
    the same scalar records at every iterate k, to 1e-12.

    ``solve``'s k-th iterate is rebuilt by chaining one-iteration solves from
    the uniform kernel, each started from the previous one's kernel; the
    chain repeats the run's arithmetic, so its records must equal the run's
    trace.  ``solve_classical``'s k-th iterate is a fresh run capped at k
    iterations.
    """
    assert block.iterations == classical.iterations
    for name in ("F", "K_value", "D", "lower_bound", "upper_bound"):
        np.testing.assert_allclose(block.trace[name], classical.trace[name],
                                   rtol=0.0, atol=1e-12)
    one_step = replace(config, max_iters=1)
    kernel = None
    for k in range(1, block.iterations + 1):
        a = solve(source, distortion, one_step, initial_kernel=kernel)
        b = solve_classical(source, distortion, replace(config, max_iters=k))
        np.testing.assert_allclose(a.channel.probs, b.channel.probs, atol=1e-12)
        np.testing.assert_allclose(a.kernel.probs, b.kernel.probs, atol=1e-12)
        assert a.trace[0].item()[1:] == block.trace[k - 1].item()[1:]
        kernel = a.kernel
