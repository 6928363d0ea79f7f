"""Independent reference minimizer used to validate the solver.

Everything here is deliberately written without importing the package under
test: plain loops over explicit symbol tuples, scipy's SLSQP on the channel
simplex, and a direct evaluation of the objective.  Values produced by
``oracle_objective`` are frozen into test fixtures.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import minimize


def _enumerate_pairs(n, A, B):
    return list(itertools.product(
        itertools.product(range(A), repeat=n),
        itertools.product(range(B), repeat=n)))


def _causal_sums(p, r, n, A, B, s, fmap):
    """Joint mass of every factor's conditioning context and of its
    (context, x̂_i) cells, accumulated pair by pair."""
    num, den = {}, {}
    for x, xh in _enumerate_pairs(n, A, B):
        w = p[x] * r[(x, xh)]
        z = x if fmap is None else tuple(fmap[a] for a in x)
        for i in range(1, n + 1):
            ctx = (i, z[:max(i - s, 0)], xh[:i - 1])
            den[ctx] = den.get(ctx, 0.0) + w
            num[ctx + (xh[i - 1],)] = num.get(ctx + (xh[i - 1],), 0.0) + w
    return num, den


def causal_kernel_loops(p, r, n, A, B, s=1, fmap=None):
    """q(x̂^n || z^{n-s}) of the joint p*r, built symbol by symbol.

    Returns a dict mapping (x tuple, x̂ tuple) -> kernel probability.
    Factor i conditions on (x̂_1..x̂_{i-1}, z_1..z_{i-s}), where z_j is
    fmap[x_j] (x_j itself when fmap is None); a context of zero mass gets the
    uniform factor 1/B.
    """
    num, den = _causal_sums(p, r, n, A, B, s, fmap)
    out = {}
    for x, xh in _enumerate_pairs(n, A, B):
        z = x if fmap is None else tuple(fmap[a] for a in x)
        val = 1.0
        for i in range(1, n + 1):
            ctx = (i, z[:max(i - s, 0)], xh[:i - 1])
            val *= num[ctx + (xh[i - 1],)] / den[ctx] if den[ctx] > 0 else 1.0 / B
        out[(x, xh)] = val
    return out


def context_mass_loops(p, r, n, A, B, s=1, fmap=None):
    """Joint mass of the last factor's context (z^{n-s}, x̂^n) of every pair,
    as a dict mapping (x tuple, x̂ tuple) -> mass."""
    num, _ = _causal_sums(p, r, n, A, B, s, fmap)
    out = {}
    for x, xh in _enumerate_pairs(n, A, B):
        z = x if fmap is None else tuple(fmap[a] for a in x)
        out[(x, xh)] = num[(n, z[:n - s], xh[:n - 1], xh[n - 1])]
    return out


def objective(p, r, d, lam, n, A, B):
    """(1/n) * (I(X̂^n -> X^n) + lam * E[d]) for channel dict r."""
    q = causal_kernel_loops(p, r, n, A, B)
    total = 0.0
    dist = 0.0
    for x, xh in _enumerate_pairs(n, A, B):
        w = p[x] * r[(x, xh)]
        if w > 0:
            total += w * np.log2(r[(x, xh)] / q[(x, xh)])
        dist += w * d[(x, xh)]
    return (total + lam * dist) / n


def oracle_objective(p, d, lam, n=2, A=2, B=2, restarts=8, seed=0):
    """Minimum of the Lagrangian over all block channels, via SLSQP.

    ``p`` maps source tuples to probability; ``d`` maps (x, x̂) pairs to
    distortion.  The channel is parameterized row by row on the simplex.
    """
    xs = list(itertools.product(range(A), repeat=n))
    xhs = list(itertools.product(range(B), repeat=n))
    nx, nh = len(xs), len(xhs)

    def unpack(theta):
        rows = np.clip(theta.reshape(nx, nh), 1e-12, None)
        rows = rows / rows.sum(axis=1, keepdims=True)
        return {(x, xh): rows[i, j] for i, x in enumerate(xs) for j, xh in enumerate(xhs)}

    def fun(theta):
        return objective(p, unpack(theta), d, lam, n, A, B)

    rng = np.random.default_rng(seed)
    best = np.inf
    cons = [{"type": "eq",
             "fun": (lambda theta, i=i: theta.reshape(nx, nh)[i].sum() - 1.0)}
            for i in range(nx)]
    bounds = [(1e-12, 1.0)] * (nx * nh)
    for k in range(restarts):
        if k == 0:
            theta0 = np.full(nx * nh, 1.0 / nh)
        else:
            theta0 = rng.dirichlet(np.ones(nh), size=nx).ravel()
        res = minimize(fun, theta0, method="SLSQP", bounds=bounds,
                       constraints=cons, options={"maxiter": 500, "ftol": 1e-12})
        if res.fun < best:
            best = float(res.fun)
    return best


def random_instance(seed, n=2, A=2, B=2):
    """A reproducible (source pmf, distortion, lam) triple for cross-checks."""
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(A**n))
    xs = list(itertools.product(range(A), repeat=n))
    xhs = list(itertools.product(range(B), repeat=n))
    p = {x: probs[i] for i, x in enumerate(xs)}
    dvals = rng.uniform(0.0, 1.0, size=(A**n, B**n))
    d = {(x, xh): dvals[i, j] for i, x in enumerate(xs) for j, xh in enumerate(xhs)}
    lam = float(rng.uniform(0.5, 6.0))
    return p, d, lam
