"""Monte-Carlo achievability demonstration with code trees.

A code tree is a reconstruction codeword indexed by source history: walking
the tree along the realized source emits one reconstruction symbol per level,
each depending only on strictly past source symbols (delay 1).  Trees are
built from independent blocks of length n; within a block, level i holds one
decision per source branch x^{i-1}, each sampled from the optimal causal
kernel.  The encoder picks the tree of minimum walked distortion; the decoder
replays the walk from the fed-forward source symbols.

A codebook stacks its trees once into a (trees, L, A^{n-1}) decision array,
so the encoder walks every tree with one gather over the stream's branch
indices and scores every walk with one lookup in the windowed-distortion
costs of ``models._position_costs`` (the routine ``distortion_tensor``
uses).  Trees and source streams are drawn one level or one stream at a
time, from the same random numbers, in the same order, as a per-branch
``Generator.choice`` loop would draw them.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .models import DistortionSpec, SourceSpec, _position_costs, block_pmf, distortion_tensor
from .prob import CausalKernel, sequence_digits
from .solver import RatePoint, SolverConfig, solve


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


def _decision_array(trees) -> np.ndarray:
    """Decisions of equally shaped trees as a (trees, L, A^{n-1}) int array.

    Entry [k, t, h] is what tree k emits at depth t on block-local branch h;
    level i of a block fills the first A^{i-1} columns and the rest are 0.
    """
    first = trees[0]
    out = np.zeros((len(trees), first.L, first.src_alphabet_size ** (first.n - 1)),
                   dtype=np.int64)
    for k, tree in enumerate(trees):
        for t, level in enumerate(lvl for block in tree.blocks for lvl in block):
            out[k, t, :level.size] = level
    return out


@dataclass(frozen=True)
class Codebook:
    """Code trees of one shape, with their decisions stacked once into
    ``decision_array`` (see :func:`_decision_array`)."""

    trees: tuple
    target_rate: float
    decision_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.trees:
            raise ValueError("codebook must contain at least one tree")
        shapes = {(t.n, t.L, t.src_alphabet_size, t.rec_alphabet_size) for t in self.trees}
        if len(shapes) > 1:
            raise ValueError(f"code trees differ in (n, L, |X|, |X̂|): {sorted(shapes)}")
        object.__setattr__(self, "decision_array", _decision_array(self.trees))


def _choice_cdf(pmfs: np.ndarray) -> np.ndarray:
    """Row CDFs built as ``Generator.choice`` builds them, so a uniform draw u
    picks the symbol ``(cdf <= u).sum()`` that ``choice`` would return."""
    cdf = np.cumsum(pmfs, axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def sample_code_tree(kernel: CausalKernel, L: int, rng) -> CodeTree:
    """Sample a depth-L tree from a delay-1 causal kernel, block by block.

    Each level takes one uniform draw per branch, in branch order."""
    n, A, B = kernel.n, kernel.src_alphabet_size, kernel.rec_alphabet_size
    if L % n != 0:
        raise ValueError("L must be a multiple of the kernel block length")
    if kernel.delay != 1:
        raise ValueError("code trees require a delay-1 kernel")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    # Per level i: the conditioning symbols z^{i-1} of every branch and the
    # position of its ancestor at each earlier level j, which gives the
    # reconstruction path x̂^{i-1} along the branch.
    contexts = []
    for i in range(1, n + 1):
        digits = sequence_digits(A, i - 1)
        z = digits if kernel.ff_map is None else kernel.ff_map[digits]
        h = np.arange(A ** (i - 1))
        contexts.append((tuple(z.T), [h // A ** (i - j) for j in range(1, i)]))
    blocks = []
    for _ in range(L // n):
        levels: list[np.ndarray] = []
        for i, (z, ancestors) in enumerate(contexts, start=1):
            path = tuple(levels[j][a] for j, a in enumerate(ancestors))
            pmfs = kernel.factors[i - 1][z + path].reshape(A ** (i - 1), B)
            # normalized before the CDF, as a per-branch choice(B, p=pmf / pmf.sum())
            cdf = _choice_cdf(pmfs / pmfs.sum(axis=1, keepdims=True))
            u = rng.random(A ** (i - 1))
            levels.append((cdf <= u[:, None]).sum(axis=1))
        blocks.append(tuple(levels))
    return CodeTree(n=n, L=L, src_alphabet_size=A, rec_alphabet_size=B,
                    blocks=tuple(blocks))


def _branch_indices(x: np.ndarray, n: int, A: int) -> np.ndarray:
    """Block-local branch index x^{i-1} (first symbol most significant) of
    every position of a stream whose length is a multiple of n."""
    blocks = x.reshape(-1, n)
    branch = np.zeros(blocks.shape, dtype=np.int64)
    for i in range(1, n):
        branch[:, i] = branch[:, i - 1] * A + blocks[:, i - 1]
    return branch.ravel()


def _check_symbols(seq: np.ndarray, alphabet_size: int, what: str) -> None:
    """Raise ValueError unless every symbol of ``seq`` is in range(alphabet_size)."""
    outside = (seq < 0) | (seq >= alphabet_size)
    if outside.any():
        raise ValueError(f"{what} symbol {seq[outside][0]} outside the alphabet "
                         f"of size {alphabet_size}")


def decode_walk(tree: CodeTree, x_causal_stream) -> np.ndarray:
    """Walk the tree along a source stream; output i depends only on x^{i-1}."""
    x = np.asarray(x_causal_stream, dtype=np.int64)
    _check_symbols(x, tree.src_alphabet_size, "source")
    if x.size < tree.L:
        raise ValueError("source stream shorter than the tree depth")
    branch = _branch_indices(x[:tree.L], tree.n, tree.src_alphabet_size)
    return _decision_array((tree,))[0, np.arange(tree.L), branch]


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
    _check_symbols(x, spec.src_alphabet_size, "source")
    _check_symbols(xhat, spec.rec_alphabet_size, "reconstruction")
    return _sequence_distortion(spec, x, xhat, initial_context)


def _sequence_distortion(spec: DistortionSpec, x: np.ndarray, xhat: np.ndarray,
                         initial_context=None) -> float:
    """:func:`sequence_distortion` of int64 sequences known to be in range."""
    costs = _position_costs(spec, x, initial_context)
    return float(costs[np.arange(x.size), xhat].sum() / x.size)


def encode(codebook: Codebook, x, distortion: DistortionSpec) -> int:
    """Index of the tree with minimum walked distortion.

    Every tree's walk is one gather from the decision array, and every walk
    is scored from one table of position costs.  The lowest index whose
    total distortion is within 1e-15 of the least total wins.
    """
    tree = codebook.trees[0]
    x = np.asarray(x, dtype=np.int64)
    if x.size != tree.L:
        raise ValueError(f"source stream has length {x.size}; the trees have depth {tree.L}")
    _check_symbols(x, tree.src_alphabet_size, "source")
    return _encode(codebook, x, distortion)


def _encode(codebook: Codebook, x: np.ndarray, distortion: DistortionSpec) -> int:
    """:func:`encode` of an int64 stream of the trees' depth, known to be in range."""
    tree = codebook.trees[0]
    levels = np.arange(tree.L)
    outs = codebook.decision_array[:, levels,
                                   _branch_indices(x, tree.n, tree.src_alphabet_size)]
    totals = _position_costs(distortion, x)[levels, outs].sum(axis=1)
    return int(np.flatnonzero(totals <= totals.min() + 1e-15)[0])


def _sample_source(spec: SourceSpec, length: int, rng) -> np.ndarray:
    """A stream drawn with the uniforms, and by the CDFs, that rng.choice
    would use: for i.i.d. sources one call for the whole stream, for Markov
    sources one call for the initial state and one per transition."""
    if spec.kind == "iid":
        return np.searchsorted(_choice_cdf(spec.marginal), rng.random(length), side="right")
    u = rng.random(length + 1).tolist()
    initial = _choice_cdf(spec.initial).tolist()
    rows = _choice_cdf(spec.transition).tolist()
    out = np.empty(length, dtype=np.int64)
    state = bisect_right(initial, u[0])
    for t in range(length):
        out[t] = state
        state = bisect_right(rows[state], u[t + 1])
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
                           tol: float = 1e-4) -> RatePoint:
    """Bisect the Lagrange weight so the solved distortion hits the target
    (solved distortion is nonincreasing in the weight); returns the point
    solved at the weight found.  Once the midpoint rounds onto an end of the
    bracket, every later probe would be at that same weight, so the point
    just solved is returned."""
    lo, hi = 0.0, 64.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        point = solve(source, dist, SolverConfig(lam=mid, delay=delay, epsilon=1e-8))
        if abs(point.D - target_D) < tol or mid in (lo, hi):
            return point
        if point.D > target_D:
            lo = mid
        else:
            hi = mid
    return solve(source, dist, SolverConfig(lam=0.5 * (lo + hi), delay=delay, epsilon=1e-8))


def monte_carlo(source_spec: SourceSpec, distortion_spec: DistortionSpec,
                n: int, L: int, delta: float, trials: int, seed: int,
                target_D: float, lam: float | None = None,
                memory_cap: int = 2**26) -> SimulationReport:
    """Sample a codebook at rate R_n(target_D) + delta and measure distortion.

    Solves for the optimal kernel at the target distortion (bisecting the
    Lagrange weight unless ``lam`` is given), draws floor(2^{L(R + delta)})
    code trees from it, encodes ``trials`` fresh source streams of length L,
    and reports the empirical mean distortion with its standard error.
    Deterministic for a fixed seed.  ``memory_cap`` bounds the entries of
    the codebook's (trees, L, |X|^{n-1}) decision array; a larger codebook
    raises ``MemoryError`` before any tree is drawn.
    """
    source = block_pmf(source_spec, n)
    dist = distortion_tensor(distortion_spec, n)
    if lam is None:
        point = _lambda_for_distortion(source, dist, target_D, delay=1)
    else:
        point = solve(source, dist, SolverConfig(lam=lam, delay=1, epsilon=1e-8))
    size = max(int(math.floor(2.0 ** (L * (point.R + delta)))), 1)
    width = source.src_alphabet_size ** (n - 1)
    if size * L * width > memory_cap:
        raise MemoryError(f"decision array of {size} trees x {L} levels x {width} branches "
                          f"exceeds the cap of {memory_cap} entries")
    root = np.random.SeedSequence(seed)
    tree_rng = np.random.default_rng(root.spawn(1)[0])
    trees = tuple(sample_code_tree(point.kernel, L, tree_rng) for _ in range(size))
    book = Codebook(trees=trees, target_rate=point.R)
    levels = np.arange(L)
    dists = np.empty(trials)
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        x = _sample_source(source_spec, L, rng)
        idx = _encode(book, x, distortion_spec)
        out = book.decision_array[idx, levels, _branch_indices(x, n, source.src_alphabet_size)]
        dists[t] = _sequence_distortion(distortion_spec, x, out)
    mean = float(dists.mean())
    stderr = float(dists.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return SimulationReport(n=n, L=L, delta=delta, codebook_size=size,
                            trials=trials, mean_distortion=mean, stderr=stderr,
                            target_D=target_D, rate=point.R)
