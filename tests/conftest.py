"""Session-scoped fixtures shared by the end-to-end suite.

The expensive sweeps (block lengths up to 8) are computed once per session
and reused by every test that needs them.
"""

import numpy as np
import pytest

from ffrd.curves import sweep
from ffrd.models import DistortionSpec, SourceSpec, block_pmf, distortion_tensor
from ffrd.solver import SolverConfig, solve

MARKOV = SourceSpec.binary_markov(0.3, 0.2)
HAMMING = DistortionSpec.hamming()
STOCK = DistortionSpec.stock()
STATIONARY = np.array([0.4, 0.6])


@pytest.fixture(scope="session")
def markov_checkpoint():
    """Converged reference solve (Markov source, n=3) and its trace."""
    source = block_pmf(MARKOV, 3)
    dist = distortion_tensor(HAMMING, 3)
    point = solve(source, dist, SolverConfig(lam=9.216, epsilon=1e-6))
    return source, dist, point


@pytest.fixture(scope="session")
def markov_curves():
    """Swept curves for the Markov source at block lengths 1..6."""
    return {n: sweep(MARKOV, HAMMING, n) for n in range(1, 7)}


@pytest.fixture(scope="session")
def iid_curve_n5():
    return sweep(SourceSpec.iid(0.5), HAMMING, 5)


@pytest.fixture(scope="session")
def markov_curves_78():
    return {n: sweep(MARKOV, HAMMING, n) for n in (7, 8)}


@pytest.fixture(scope="session")
def stock_curves_78():
    return {n: sweep(MARKOV, STOCK, n, initial_context=STATIONARY)
            for n in (7, 8)}


@pytest.fixture(scope="session")
def delay_curves_n6():
    return {s: sweep(MARKOV, HAMMING, 6, config=SolverConfig(lam=0.0, delay=s))
            for s in (1, 2, 6)}
