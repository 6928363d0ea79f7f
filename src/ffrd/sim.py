"""Monte-Carlo achievability demonstration with code trees.

A code tree is a reconstruction codeword indexed by source history: walking
the tree along the realized source emits one reconstruction symbol per level,
each depending only on strictly past source symbols (delay 1).  Trees are
built from independent blocks of length n; within a block, level i holds one
decision per source branch x^{i-1}, each sampled from the optimal causal
kernel.  The encoder picks the tree of minimum walked distortion; the decoder
replays the walk from the fed-forward source symbols.

A codebook is one (trees, L, A^{n-1}) decision array, so the encoder walks
every tree along a batch of streams with one gather over the streams' branch
indices and scores every walk with one lookup in the windowed-distortion
costs of ``models._position_costs`` (the routine ``distortion_tensor``
uses).  ``monte_carlo`` draws its codebook level by level for all trees and
blocks at once, and encodes and scores its trials in bounded chunks.  The
seed's ``SeedSequence`` spawns two children: the first draws the codebook,
the second every trial's source stream.  Each chunk's streams are the next
rows of uniforms of that one stream generator, so trial t's stream is row t
of one draw, whatever the chunk size.  Trees and source streams are drawn
from the same random numbers, in the same order, as a per-branch
``Generator.choice`` loop would draw them.  Three array cores
are the whole simulator: ``_sample_decisions`` draws the codebook,
``_sample_streams`` the trials' source streams and ``_encode_streams``
encodes and scores them.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import asdict, dataclass, replace

import numpy as np

from .models import DistortionSpec, SourceSpec, _position_costs, block_pmf, distortion_tensor
from .prob import CausalKernel, sequence_digits
from .solver import RatePoint, SolverConfig, solve


def _choice_cdf(pmfs: np.ndarray) -> np.ndarray:
    """Turn the rows of a float array of PMFs into CDFs in place, built as
    ``Generator.choice`` builds them, so a uniform draw u picks the symbol
    ``(cdf <= u).sum()`` that ``choice`` would return.  The columns are
    summed one at a time, the additions ``np.cumsum`` makes, which needs no
    second array of the table's size."""
    for b in range(1, pmfs.shape[-1]):
        pmfs[..., b] += pmfs[..., b - 1]
    for b in range(pmfs.shape[-1]):  # the last column last: it is the divisor
        pmfs[..., b] /= pmfs[..., -1]
    return pmfs


def _sample_decisions(kernel: CausalKernel, L: int, trees: int, rng) -> np.ndarray:
    """Decision array of ``trees`` depth-L trees sampled from a delay-1
    causal kernel: a (trees, L, A^{n-1}) int64 array.

    The trees are made of L/n independent blocks of n levels.  Entry
    [k, t, h] is the symbol tree k emits at depth t on the block-local
    branch h, the source history x^{i-1} since the block began (first symbol
    most significant); level i of a block fills the first A^{i-1} columns
    and the rest are 0.

    One ``rng.random`` call draws every uniform in the order tree, block,
    level, branch, the order successive one-tree draws from the same
    generator take them in; each level is then decided for all trees and
    blocks at once."""
    n, A, B = kernel.n, kernel.src_alphabet_size, kernel.rec_alphabet_size
    if L % n != 0:
        raise ValueError("L must be a multiple of the kernel block length")
    if kernel.delay != 1:
        raise ValueError("code trees require a delay-1 kernel")
    widths = [A ** (i - 1) for i in range(1, n + 1)]
    u = rng.random((trees, L // n, sum(widths)))
    out = np.zeros((trees, L // n, n, widths[-1]), dtype=np.int64)
    start = 0
    for i, width in enumerate(widths, start=1):
        # the conditioning symbols z^{i-1} of every branch, then the
        # reconstruction path x̂^{i-1} read at each branch's ancestors
        digits = sequence_digits(A, i - 1)
        z = digits if kernel.ff_map is None else kernel.ff_map[digits]
        h = np.arange(width)
        pmfs = kernel.factors[i - 1][tuple(z.T) + tuple(
            out[:, :, j - 1, h // A ** (i - j)] for j in range(1, i))]
        if i == 1:  # the factor itself, broadcast over every tree and block
            pmfs = np.broadcast_to(pmfs, (trees, L // n, 1, B)).copy()
        # normalized before the CDF, as a per-branch choice(B, p=pmf / pmf.sum()),
        # then accumulated, rescaled and compared in this one level buffer
        pmfs /= pmfs.sum(axis=-1, keepdims=True)
        np.less_equal(_choice_cdf(pmfs), u[:, :, start:start + width, None], out=pmfs)
        out[:, :, i - 1, :width] = pmfs.sum(axis=-1)
        del pmfs  # freed before the next level's gather, not after it
        start += width
    return out.reshape(trees, L, widths[-1])


def _branch_indices(x: np.ndarray, n: int, A: int) -> np.ndarray:
    """Block-local branch index x^{i-1} (first symbol most significant) of
    every position of streams along the last axis, whose length is a
    multiple of n."""
    blocks = x.reshape(x.shape[:-1] + (-1, n))
    branch = np.zeros(blocks.shape, dtype=np.int64)
    for i in range(1, n):
        branch[..., i] = branch[..., i - 1] * A + blocks[..., i - 1]
    return branch.reshape(x.shape)


def _walks(decisions: np.ndarray, n: int, A: int, x: np.ndarray) -> np.ndarray:
    """Walk of every tree of a decision array along every stream of ``x``
    (streams, L): a (trees, streams, L) array, one gather."""
    return decisions[:, np.arange(x.shape[-1]), _branch_indices(x, n, A)]


def _encode_streams(decisions: np.ndarray, n: int, A: int, x: np.ndarray,
                    distortion: DistortionSpec) -> tuple[np.ndarray, np.ndarray]:
    """Encode int64 streams ``x`` (streams, L), known to be in range,
    against a decision array: the chosen tree of every stream and the
    per-letter distortion of its walk, both scored from one table of
    position costs.  The lowest index whose total distortion is within
    1e-15 of the least total wins.  Every walk's costs are one flat gather,
    at offset (stream * L + t) * |X̂| + x̂_t of the cost table."""
    streams, L = x.shape
    costs = _position_costs(distortion, x)
    base = np.arange(streams * L).reshape(streams, L) * costs.shape[-1]
    totals = costs.ravel().take(base + _walks(decisions, n, A, x)).sum(axis=-1)
    chosen = (totals <= totals.min(axis=0) + 1e-15).argmax(axis=0)
    return chosen, totals[chosen, np.arange(streams)] / L


def _stream_uniforms(spec: SourceSpec, length: int) -> int:
    """Uniforms a stream of ``length`` symbols takes: one per symbol for an
    i.i.d. source, and one more, for the initial state, for a Markov one."""
    return length if spec.kind == "iid" else length + 1


def _sample_streams(spec: SourceSpec, length: int, u: np.ndarray) -> np.ndarray:
    """One stream per row of the uniforms ``u`` (streams,
    ``_stream_uniforms(spec, length)``): a (streams, length) array drawn as
    rng.choice would draw it from a generator whose ``random`` gives that
    row, with the CDFs choice uses: for i.i.d. sources one uniform per
    symbol, for Markov sources the first for the initial state and one per
    transition.  The Markov transitions of all streams are stepped
    together."""
    if spec.kind == "iid":
        return np.searchsorted(_choice_cdf(spec.marginal.copy()), u, side="right")
    rows = _choice_cdf(spec.transition.copy())
    x = np.empty((len(u), length), dtype=np.int64)
    state = np.searchsorted(_choice_cdf(spec.initial.copy()), u[:, 0], side="right")
    for t in range(length):
        x[:, t] = state
        state = (rows[state] <= u[:, t + 1, None]).sum(axis=1)
    return x


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
        return json.dumps(asdict(self))


#: every solve of the simulator, with its lam replaced; code trees need delay 1
_CONFIG = SolverConfig(lam=0.0, delay=1, epsilon=1e-8)
#: distortion gap at which ``_lambda_for_distortion`` takes a weight
_D_TOL = 1e-4


def _lambda_for_distortion(source, dist, target_D: float) -> RatePoint:
    """Bisect the Lagrange weight so the solved distortion hits the target
    (solved distortion is nonincreasing in the weight); returns the point
    solved at the weight found.  The top of the bracket, 64, is solved
    first: when its distortion is still at least ``_D_TOL`` above the
    target, every probe would climb to it, so that point is returned at
    once.  Once the midpoint rounds onto an end of the bracket, every later
    probe would be at that same weight: the point just solved is returned."""
    lo, hi = 0.0, 64.0
    point = solve(source, dist, replace(_CONFIG, lam=hi))
    if point.D - target_D >= _D_TOL:
        return point
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        point = solve(source, dist, replace(_CONFIG, lam=mid))
        if abs(point.D - target_D) < _D_TOL or mid in (lo, hi):
            return point
        if point.D > target_D:
            lo = mid
        else:
            hi = mid
    return solve(source, dist, replace(_CONFIG, lam=0.5 * (lo + hi)))


#: (trial, tree, level) entries of the walks ``monte_carlo`` gathers and
#: scores in one chunk of trials.  Each of a chunk's few temporaries of this
#: many entries takes 128 KB, so a chunk stays well under 1 MB; larger
#: chunks made a ``simulate`` pass slower, not faster.
_CHUNK_ENTRIES = 2**14


def monte_carlo(source_spec: SourceSpec, distortion_spec: DistortionSpec,
                n: int, L: int, delta: float, trials: int, seed: int,
                target_D: float, lam: float | None = None,
                memory_cap: int = 2**26) -> SimulationReport:
    """Sample a codebook at rate R_n(target_D) + delta and measure distortion.

    Solves for the optimal kernel at the target distortion (bisecting the
    Lagrange weight unless ``lam`` is given), draws floor(2^{L(R + delta)})
    code trees from it, encodes ``trials`` fresh source streams of length L,
    and reports the empirical mean distortion with its standard error.
    Deterministic for a fixed seed: ``SeedSequence(seed).spawn(2)`` gives
    the codebook's generator and the streams' generator, and trial t's
    stream is drawn from row t of the streams' uniforms, so it depends
    neither on ``trials`` nor on the chunk it is handled in.  Trials are
    drawn, encoded and scored in chunks of at most ``_CHUNK_ENTRIES``
    (trial, tree, level) walk entries (one trial at least), which bounds the
    memory a chunk uses.
    ``memory_cap`` bounds the entries of the codebook's (trees, L, |X|^{n-1})
    decision array, 8 bytes each; a larger codebook raises ``MemoryError``
    before any tree is drawn.  Drawing the array also holds its uniforms and
    one level's pmfs, |X̂| floats per branch, at a time: at |X| = |X̂| = 2
    and n = 2 the draw peaks at about 3.5 times the array.  ``trials < 1``,
    ``L < n``, an ``L`` that is not a multiple of ``n``, a negative
    ``seed``, a non-finite ``delta`` and a NaN or negative ``target_D`` raise
    ``ValueError``, and a ``seed`` that is not an integer ``TypeError``,
    before any solve; a tree count past the floats exceeds every cap.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta!r}")
    if not target_D >= 0.0:  # NaN too
        raise ValueError(f"target_D must be >= 0, got {target_D!r}")
    source = block_pmf(source_spec, n)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if L < n or L % n != 0:
        raise ValueError(f"tree depth L = {L} must be a positive multiple of n = {n}")
    dist = distortion_tensor(distortion_spec, n)
    if lam is None:
        point = _lambda_for_distortion(source, dist, target_D)
    else:
        point = solve(source, dist, replace(_CONFIG, lam=lam))
    bits = L * (point.R + delta)  # 2.0 ** bits overflows a float from 1024 on
    size = max(math.floor(2.0 ** bits), 1) if bits < 1024 else math.inf
    A = source.src_alphabet_size
    if size * L * A ** (n - 1) > memory_cap:
        raise MemoryError(f"decision array of {size} trees x {L} levels x {A ** (n - 1)} "
                          f"branches exceeds the cap of {memory_cap} entries")
    codebook_seed, stream_seed = np.random.SeedSequence(seed).spawn(2)
    decisions = _sample_decisions(point.kernel, L, size, np.random.default_rng(codebook_seed))
    streams = np.random.default_rng(stream_seed)
    width = _stream_uniforms(source_spec, L)
    chunk = max(_CHUNK_ENTRIES // (size * L), 1)
    dists = np.empty(trials)
    for start in range(0, trials, chunk):
        u = streams.random((min(chunk, trials - start), width))
        _, dists[start:start + len(u)] = _encode_streams(
            decisions, n, A, _sample_streams(source_spec, L, u), distortion_spec)
    mean = float(dists.mean())
    stderr = float(dists.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return SimulationReport(n=n, L=L, delta=delta, codebook_size=size,
                            trials=trials, mean_distortion=mean, stderr=stderr,
                            target_D=target_D, rate=point.R)
