"""Independent references used to validate the solver and the simulator.

Everything here is deliberately written without importing the package under
test: plain loops over explicit symbol tuples, scipy's SLSQP on the channel
simplex, and a direct evaluation of the objective.  Values produced by
``oracle_objective`` are frozen into test fixtures.  The code-tree
references at the end draw, walk and score trees one branch, one position
and one tree at a time, with ``Generator.choice`` for every draw.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from types import SimpleNamespace

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


# --- code-tree simulator -------------------------------------------------------

def sample_code_tree_loops(factors, n, L, A, B, fmap, rng):
    """Decisions of a depth-L tree from delay-1 kernel factors, one
    ``rng.choice`` per branch.  ``factors[i-1]`` has axes z^{i-1}, x̂^1..x̂^i;
    returns blocks[b][i-1][h], the symbol on branch h of level i of block b."""
    blocks = []
    for _ in range(L // n):
        levels = []
        for i in range(1, n + 1):
            decisions = np.empty(A ** (i - 1), dtype=np.int64)
            for h in range(A ** (i - 1)):
                digits = [(h // A**j) % A for j in range(i - 2, -1, -1)]
                idx = [int(x) if fmap is None else int(fmap[x]) for x in digits]
                idx += [int(levels[j - 1][h // A ** (i - j)]) for j in range(1, i)]
                pmf = factors[i - 1][tuple(idx)]
                decisions[h] = rng.choice(B, p=pmf / pmf.sum())
            levels.append(decisions)
        blocks.append(levels)
    return blocks


def decode_walk_loops(blocks, n, A, x):
    """Walk tree blocks along x: output t is read on the branch of the
    block-local history before t."""
    out = []
    for t in range(len(blocks) * n):
        b, i = divmod(t, n)
        branch = 0
        for j in range(b * n, b * n + i):
            branch = branch * A + int(x[j])
        out.append(int(blocks[b][i][branch]))
    return out


def sequence_distortion_loops(table, m, A, x, xhat, initial_context=None):
    """Per-letter distortion of (x, x̂) under a window table with axes
    (x_{t-m}, ..., x_t, x̂_t).  Each symbol missing before the stream is
    averaged under its own copy of the context weights: uniform for None,
    a point mass for a symbol, the PMF itself for a PMF."""
    if initial_context is None:
        w = [1.0 / A] * A
    elif np.ndim(initial_context) == 0:
        w = [1.0 if a == int(initial_context) else 0.0 for a in range(A)]
    else:
        w = [float(v) for v in initial_context]
    total = 0.0
    for t in range(len(x)):
        missing = max(m - t, 0)
        for pre in itertools.product(range(A), repeat=missing):
            weight = float(np.prod([w[c] for c in pre]))
            window = pre + tuple(int(v) for v in x[t - m + missing:t + 1])
            total += weight * table[window + (int(xhat[t]),)]
    return total / len(x)


def encode_loops(trees, n, A, x, table, m):
    """Index of the tree (a list of blocks) with least walked distortion;
    a later tree wins only when it is lower by more than 1e-15."""
    best_idx, best_d = 0, np.inf
    for idx, blocks in enumerate(trees):
        d = sequence_distortion_loops(table, m, A, x, decode_walk_loops(blocks, n, A, x))
        if d < best_d - 1e-15:
            best_idx, best_d = idx, d
    return best_idx


def iid_stream_choice(marginal, length, rng):
    return rng.choice(len(marginal), size=length, p=marginal)


def markov_stream_choice(transition, initial, length, rng):
    """A Markov stream drawn with one ``rng.choice`` for the initial state
    and one per transition (the last one unused)."""
    out = np.empty(length, dtype=np.int64)
    state = rng.choice(len(initial), p=initial)
    for t in range(length):
        out[t] = state
        state = rng.choice(len(initial), p=transition[state])
    return out


def distortion_tensor_reference(table, m, A, B, n, initial_context=None):
    """Dense block distortion d(x^n, x̂^n), accumulated position by position:
    each position's window table is resolved over the missing pre-block
    symbols (mean, pin or PMF contraction) and its values are added in
    position order, then the sum is divided by n."""
    dx = np.array(list(itertools.product(range(A), repeat=n)), dtype=np.int64)
    dh = np.array(list(itertools.product(range(B), repeat=n)), dtype=np.int64)
    vals = np.zeros((A**n, B**n))
    for i in range(1, n + 1):
        missing = max(m - (i - 1), 0)
        t = table
        for _ in range(missing):
            if initial_context is None:
                t = t.mean(axis=0)
            elif np.ndim(initial_context) == 0:
                t = t[int(initial_context)]
            else:
                t = np.tensordot(np.asarray(initial_context, dtype=float), t, axes=(0, 0))
        win = [dx[:, j] for j in range(i - 1 - (m - missing), i)]
        vals += t[tuple(win)][:, dh[:, i - 1]]
    vals /= n
    return vals


# --- solver step on the full table --------------------------------------------

def causal_factors_full_table(joint_table, n, A, B, s, fmap=None):
    """The nested-marginal causal factorization with per-symbol slices:
    (full (|X|^n, |X̂|^n) kernel table, factors, context mass over source
    prefixes)."""
    c_n = n - s
    N = joint_table.reshape(A**c_n, A**s, B**n).sum(axis=1)
    if fmap is None:
        Z = A
        mass = N
    else:
        fmap = np.asarray(fmap)
        Z = int(np.max(fmap)) + 1
        digits = np.array(list(itertools.product(range(A), repeat=c_n)),
                          dtype=np.int64).reshape(A**c_n, c_n)
        rows = fmap[digits] @ Z ** np.arange(c_n - 1, -1, -1)
        classes = np.zeros((Z**c_n, B**n))
        np.add.at(classes, rows, N)
        N, mass = classes, classes[rows]
    factors = [None] * n
    for i in range(n, 0, -1):
        c = max(i - s, 0)
        N = N.reshape(Z**c, B ** (i - 1), B)
        D = sum(N[..., b] for b in range(B))
        qi = np.full(N.shape, 1.0 / B)
        for b in range(B):
            np.divide(N[..., b], D, out=qi[..., b], where=D > 0.0)
        factors[i - 1] = qi.reshape((Z,) * c + (B,) * i)
        N = D.reshape(Z ** max(c - 1, 0), Z if c else 1, B ** (i - 1)).sum(axis=1)
    full = factors[0].reshape(1, B)
    for i in range(2, n + 1):
        c = max(i - s, 0)
        qi = factors[i - 1].reshape(Z ** max(c - 1, 0), Z if c else 1, B ** (i - 1), B)
        prev = full.reshape(Z ** max(c - 1, 0), 1, B ** (i - 1))
        full = np.empty(qi.shape)
        for b in range(B):
            np.multiply(prev, qi[..., b], out=full[..., b])
    full = full.reshape(Z**c_n, B**n)
    if fmap is not None:
        full = full[rows]
    full = np.repeat(full, A**s, axis=0)
    return full, factors, mass


def solver_step_full_table(q, tilt, p, n, A, B, s, fmap, dvals, lam):
    """One alternating-minimization step from the full kernel table q, with
    the stopping statistic taken over the full table: log2(q_next / q)
    everywhere, its max over pairs whose context carries joint mass and its
    mean under the joint, both restricted to finite values.

    Returns (q_next, factors, (F, K_value, D, lower_bound, upper_bound)).
    """
    num = q * tilt
    rows = num.sum(axis=1)
    joint = p[:, None] * (num / rows[:, None])
    q_next, factors, mass = causal_factors_full_table(joint, n, A, B, s, fmap)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        logc = np.log2(q_next / q)
        finite = np.isfinite(logc)
        ctx = (A ** (n - s), A**s, B**n)
        in_context = (mass > 0.0).reshape(ctx[0], 1, ctx[2]) & finite.reshape(ctx)
        log_max_c = float(logc.reshape(ctx).max(where=in_context, initial=-np.inf))
        mean_logc = float((joint * logc).sum(where=(joint > 0.0) & finite))
    D = float((joint * dvals).sum())
    base = -lam * D - float(p @ np.log2(rows))
    upper = (base - mean_logc) / n
    lower = (base - log_max_c) / n
    return q_next, factors, (log_max_c - mean_logc, n * upper + lam * D, D, lower, upper)


TRACE_FIELDS = ("k", "F", "K_value", "D", "lower_bound", "upper_bound")


def solve_classical(p, dvals, lam, n, epsilon=1e-6, max_iters=100_000):
    """Textbook alternating minimization over the block (no feed-forward).

    Maintains the reconstruction marginal m(x̂^n) directly, the special case
    the causal solver reduces to at delay s = n, from the uniform marginal,
    for source table p and (|X|^n, |X̂|^n) distortion table dvals.  Returns
    the final channel table r, the marginal m after it (the delay-n kernel,
    the same for every source block), the trace, one row of ``TRACE_FIELDS``
    per iteration, and the iterations, convergence (F < epsilon), D and
    R = max(upper bound, 0) of the last iteration.
    """
    B_n = dvals.shape[1]
    tilt = np.exp2(-lam * dvals)
    m = np.full(B_n, 1.0 / B_n)
    rows = []
    for k in range(1, max_iters + 1):
        num = m[None, :] * tilt
        denom = num.sum(axis=1, keepdims=True)
        r = num / denom
        m_next = p @ r
        with np.errstate(divide="ignore", invalid="ignore"):
            logc = np.log2(m_next / m)
        w = p[:, None] * r
        finite = np.isfinite(logc)
        mask = (w.sum(axis=0) > 0.0) & finite
        log_max_c = float(np.max(logc[mask]))
        wmask = (w > 0.0) & finite[None, :]
        mean_logc = float((w[wmask] * np.broadcast_to(logc, w.shape)[wmask]).sum())
        F = log_max_c - mean_logc
        D = float((w * dvals).sum())
        base = -lam * D - float(p @ np.log2(denom[:, 0]))
        upper = (base - mean_logc) / n
        lower = (base - log_max_c) / n
        rows.append((k, F, n * upper + lam * D, D, lower, upper))
        m = m_next
        if F < epsilon:
            break
    trace = np.array(rows, dtype=[(name, np.int64 if name == "k" else np.float64)
                                  for name in TRACE_FIELDS])
    return SimpleNamespace(channel=r, marginal=m, trace=trace, iterations=k,
                           converged=F < epsilon, D=D, R=max(upper, 0.0))


def anderson_stacked(g, x, iters, tol, memory=5):
    """Anderson-accelerated fixed point of g from x, re-stacking its
    difference history from lists of residuals and iterates at every step;
    the plain step g(x) replaces a proposal that leaves the positive orthant."""
    res_hist, x_hist = [], []
    for _ in range(iters):
        gx = g(x)
        f = gx - x
        if float(np.max(np.abs(f))) < tol:
            return gx
        res_hist.append(f)
        x_hist.append(x)
        if len(res_hist) > memory + 1:
            res_hist.pop(0)
            x_hist.pop(0)
        m = len(res_hist) - 1
        if m == 0:
            x = gx
            continue
        dF = np.stack([res_hist[i + 1] - res_hist[i] for i in range(m)], axis=1)
        dX = np.stack([x_hist[i + 1] - x_hist[i] for i in range(m)], axis=1)
        coef, *_ = np.linalg.lstsq(dF, f, rcond=None)
        x_new = x + f - (dX + dF) @ coef
        if np.any(x_new <= 0.0) or not np.all(np.isfinite(x_new)):
            x = gx
        else:
            x = x_new
    return x


# --- serial sweep -------------------------------------------------------------

def sweep_serial(solve, warm_start, source, distortion, lambda_grid, base):
    """The points of a sweep solved one at a time, from the largest weight
    down: cold until a point's lower bound reaches 0, then each from the
    previous point's kernel passed through ``warm_start``.  ``solve`` and
    ``warm_start`` are the package's, passed in; returns {lam: point}."""
    solved = {}
    start = None
    for lam in sorted({float(lam) for lam in lambda_grid}, reverse=True):
        point = solve(source, distortion, replace(base, lam=lam), initial_kernel=start)
        solved[lam] = point
        if start is not None or point.lower_bound <= 0.0:
            start = warm_start(point.kernel)
    return solved
