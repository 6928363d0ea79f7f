"""Monte-Carlo achievability demonstration with code trees.

A code tree is a reconstruction codeword indexed by source history: walking
the tree along the realized source emits one reconstruction symbol per level,
each depending only on strictly past source symbols (delay 1).  Trees are
built from independent blocks of length n; within a block, level i holds one
decision per source branch x^{i-1}, each sampled from the optimal causal
kernel.  The encoder picks the tree of minimum walked distortion; the decoder
replays the walk from the fed-forward source symbols.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .models import DistortionSpec, SourceSpec, _boundary_table, block_pmf, distortion_tensor
from .prob import CausalKernel
from .solver import SolverConfig, solve


@dataclass(frozen=True)
class CodeTree:
    """Depth-L tree of reconstruction decisions, L/n independent blocks.

    ``blocks[b][i-1]`` is an int array of length A^{i-1}: the symbol emitted
    at within-block level i on the branch indexed by the block-local source
    history x^{i-1} (first symbol most significant).
    """

    n: int
    L: int
    src_alphabet_size: int
    rec_alphabet_size: int
    blocks: tuple = field(repr=False)

    @property
    def decisions(self) -> int:
        return sum(level.size for block in self.blocks for level in block)


@dataclass(frozen=True)
class Codebook:
    trees: tuple
    target_rate: float

    def __post_init__(self):
        if not self.trees:
            raise ValueError("codebook must contain at least one tree")


def sample_code_tree(kernel: CausalKernel, L: int, rng) -> CodeTree:
    """Sample a depth-L tree from a delay-1 causal kernel, block by block."""
    n, A, B = kernel.n, kernel.src_alphabet_size, kernel.rec_alphabet_size
    if L % n != 0:
        raise ValueError("L must be a multiple of the kernel block length")
    if kernel.delay != 1:
        raise ValueError("code trees require a delay-1 kernel")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    fmap = kernel.ff_map
    blocks = []
    for _ in range(L // n):
        levels: list[np.ndarray] = []
        for i in range(1, n + 1):
            table = kernel.factors[i - 1]  # axes z^{i-1}, x̂^1..x̂^i
            decisions = np.empty(A ** (i - 1), dtype=np.int64)
            for h in range(A ** (i - 1)):
                idx = []
                rem = h
                digits = []
                for j in range(i - 2, -1, -1):
                    digits.append(rem // A**j)
                    rem %= A**j
                for x in digits:
                    idx.append(int(x) if fmap is None else int(fmap[x]))
                for j in range(1, i):  # reconstruction path along this branch
                    idx.append(int(levels[j - 1][h // A ** (i - j)]))
                pmf = table[tuple(idx)]
                decisions[h] = rng.choice(B, p=pmf / pmf.sum())
            levels.append(decisions)
        blocks.append(tuple(levels))
    return CodeTree(n=n, L=L, src_alphabet_size=A, rec_alphabet_size=B,
                    blocks=tuple(blocks))


def decode_walk(tree: CodeTree, x_causal_stream) -> np.ndarray:
    """Walk the tree along a source stream; output i depends only on x^{i-1}."""
    x = np.asarray(x_causal_stream, dtype=np.int64)
    if x.size < tree.L:
        raise ValueError("source stream shorter than the tree depth")
    A, n = tree.src_alphabet_size, tree.n
    out = np.empty(tree.L, dtype=np.int64)
    for t in range(tree.L):
        b, i = divmod(t, n)
        branch = 0
        for j in range(b * n, b * n + i):
            branch = branch * A + int(x[j])
        out[t] = tree.blocks[b][i][branch]
    return out


def sequence_distortion(spec: DistortionSpec, x, xhat, initial_context=None) -> float:
    """Per-letter average distortion of a (source, reconstruction) pair.

    Windows reaching before the first symbol are resolved as in
    :func:`distortion_tensor`: averaged uniformly over the missing symbols
    when ``initial_context`` is None, pinned to it when it is a symbol, and
    averaged under it when it is a PMF over the source alphabet."""
    x = np.asarray(x, dtype=np.int64)
    xhat = np.asarray(xhat, dtype=np.int64)
    if x.size != xhat.size:
        raise ValueError("sequences must have equal length")
    m, L = spec.m, x.size
    total = 0.0
    for i in range(min(m, L)):
        t = _boundary_table(spec.table, m - i, spec.src_alphabet_size, initial_context)
        total += t[tuple(x[:i + 1]) + (xhat[i],)]
    if L > m:
        windows = tuple(x[j:L - m + j] for j in range(m + 1))
        total += spec.table[windows + (xhat[m:],)].sum()
    return float(total / L)


def encode(codebook: Codebook, x, distortion: DistortionSpec) -> int:
    """Index of the tree with minimum walked distortion (ties: lowest index)."""
    best_idx, best_d = 0, np.inf
    for idx, tree in enumerate(codebook.trees):
        d = sequence_distortion(distortion, x, decode_walk(tree, x))
        if d < best_d - 1e-15:
            best_idx, best_d = idx, d
    return best_idx


def _sample_source(spec: SourceSpec, length: int, rng) -> np.ndarray:
    if spec.kind == "iid":
        return rng.choice(spec.alphabet_size, size=length, p=spec.marginal)
    out = np.empty(length, dtype=np.int64)
    state = rng.choice(spec.alphabet_size, p=spec.initial)
    for t in range(length):
        out[t] = state
        state = rng.choice(spec.alphabet_size, p=spec.transition[state])
    return out


@dataclass(frozen=True)
class SimulationReport:
    n: int
    L: int
    delta: float
    codebook_size: int
    trials: int
    mean_distortion: float
    stderr: float
    target_D: float
    rate: float

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n, "L": self.L, "delta": self.delta,
            "codebook_size": self.codebook_size, "trials": self.trials,
            "mean_distortion": self.mean_distortion, "stderr": self.stderr,
            "target_D": self.target_D, "rate": self.rate,
        })


def _lambda_for_distortion(source, dist, target_D: float, delay: int,
                           tol: float = 1e-4) -> float:
    """Bisect the Lagrange weight so the solved distortion hits the target
    (solved distortion is nonincreasing in the weight)."""
    lo, hi = 0.0, 64.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        D = solve(source, dist, SolverConfig(lam=mid, delay=delay, epsilon=1e-8)).D
        if abs(D - target_D) < tol:
            return mid
        if D > target_D:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def monte_carlo(source_spec: SourceSpec, distortion_spec: DistortionSpec,
                n: int, L: int, delta: float, trials: int, seed: int,
                target_D: float, lam: float | None = None,
                memory_cap: int = 2**26) -> SimulationReport:
    """Sample a codebook at rate R_n(target_D) + delta and measure distortion.

    Solves for the optimal kernel at the target distortion (bisecting the
    Lagrange weight unless ``lam`` is given), draws floor(2^{L(R + delta)})
    code trees from it, encodes ``trials`` fresh source streams of length L,
    and reports the empirical mean distortion with its standard error.
    Deterministic for a fixed seed.
    """
    source = block_pmf(source_spec, n)
    dist = distortion_tensor(distortion_spec, n)
    if lam is None:
        lam = _lambda_for_distortion(source, dist, target_D, delay=1)
    point = solve(source, dist, SolverConfig(lam=lam, delay=1, epsilon=1e-8))
    size = max(int(math.floor(2.0 ** (L * (point.R + delta)))), 1)
    per_tree = (L // n) * sum(source.src_alphabet_size**i for i in range(n))
    if size * per_tree > memory_cap:
        raise MemoryError(f"codebook of {size} trees exceeds the decision cap")
    root = np.random.SeedSequence(seed)
    tree_rng = np.random.default_rng(root.spawn(1)[0])
    trees = tuple(sample_code_tree(point.kernel, L, tree_rng) for _ in range(size))
    book = Codebook(trees=trees, target_rate=point.R)
    dists = np.empty(trials)
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        x = _sample_source(source_spec, L, rng)
        idx = encode(book, x, distortion_spec)
        dists[t] = sequence_distortion(distortion_spec, x, decode_walk(book.trees[idx], x))
    mean = float(dists.mean())
    stderr = float(dists.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return SimulationReport(n=n, L=L, delta=delta, codebook_size=size,
                            trials=trials, mean_distortion=mean, stderr=stderr,
                            target_D=target_D, rate=point.R)
