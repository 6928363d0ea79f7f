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
blocks at once, and encodes and scores its trials in bounded chunks.  Trial
t draws its stream from the uniforms of ``default_rng([seed, t])``, so the
stream depends neither on the number of trials nor on the chunk;
``_trial_uniforms`` computes those uniforms, bit for bit, for a block of
trials at once, running SeedSequence's hashing and PCG64's 128-bit steps on
numpy arrays instead of building a generator per trial.  Trees and source
streams are drawn from the same random numbers, in the same order, as a
per-branch ``Generator.choice`` loop would draw them.  Three array cores
are the whole simulator: ``_sample_decisions`` draws the codebook,
``_sample_streams`` the trials' source streams and ``_encode_streams``
encodes and scores them.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import asdict, dataclass

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


#: SeedSequence's hash constants (``numpy/random/bit_generator.pyx``) and
#: PCG64's 128-bit multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64 = 2**32 - 1, 2**64 - 1


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The first ``count`` values of a SeedSequence hash constant, which
    starts at ``init`` and is multiplied by ``mult`` modulo 2^32 at each use."""
    consts = [init]
    for _ in range(count - 1):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)


def _hash(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of ``value`` (broadcast against ``consts[:-1]``)
    with successive hash constants: xor with one, multiply by the next."""
    value = value ^ consts[:-1]
    value *= consts[1:]
    value ^= value >> 16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix`` of pool words ``x`` with hashed words ``y``."""
    out = x * _MIX_MULT_L - y * _MIX_MULT_R
    out ^= out >> 16
    return out


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` of every row of a
    (rows, W) uint32 array of entropy words, as a (rows, 4) uint64 array.

    The pool of 4 words hashes the first four entropy words (zeros past the
    end), then mixes the hash of every pool word into every other, then the
    hash of each further entropy word into every pool word, one hash
    constant per hash in that order.  A word's hashes into the other pool
    words read nothing those updates write, so they are made together.  The
    state hashes the pool twice round and pairs its words little-endian.
    Products wrap modulo 2^32, as in SeedSequence's C code."""
    rows, W = entropy.shape
    consts = _hash_consts(_INIT_A, _MULT_A, 4 + 12 + 4 * max(W - 4, 0) + 1)
    pool = np.zeros((rows, 4), dtype=np.uint32)
    pool[:, :min(W, 4)] = entropy[:, :4]
    pool = _hash(pool, consts[:5])
    used = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[:, dst] = _mix(pool[:, dst], _hash(pool[:, src, None], consts[used:used + 4]))
        used += 3
    for src in range(4, W):
        pool = _mix(pool, _hash(entropy[:, src, None], consts[used:used + 5]))
        used += 4
    words = _hash(np.tile(pool, 2), _hash_consts(_INIT_B, _MULT_B, 9)).astype(np.uint64)
    return words[:, 0::2] | words[:, 1::2] << 32


def _mul128(hi: np.ndarray, lo: np.ndarray, m_hi: np.ndarray, m_lo: np.ndarray) -> tuple:
    """(high, low) halves of (hi:lo) * (m_hi:m_lo) modulo 2^128, broadcast:
    the high half of lo * m_lo from its 32-bit limb products, plus the
    cross terms, wrapping."""
    a0, a1 = lo & _MASK32, lo >> 32
    b0, b1 = m_lo & _MASK32, m_lo >> 32
    cross0, cross1 = a0 * b1, a1 * b0
    high = a0 * b0 >> 32
    high += cross0 & _MASK32
    high += cross1 & _MASK32
    high >>= 32
    high += a1 * b1
    high += cross0 >> 32
    high += cross1 >> 32
    high += hi * m_lo
    high += lo * m_hi
    return high, lo * m_lo


@functools.lru_cache(maxsize=8)
def _pcg_jumps(K: int) -> tuple:
    """(high, low) halves of M^(k+2) and of 1 + M + ... + M^(k+1) modulo
    2^128 for k < K, M the PCG64 multiplier: k + 2 steps from state s with
    increment c reach M^(k+2) s + (1 + ... + M^(k+1)) c.  Read-only."""
    powers, sums = [_PCG_MULT], [1]  # M^(i+1) and 1 + ... + M^i
    for _ in range(K):
        sums.append(sums[-1] + powers[-1] & 2**128 - 1)
        powers.append(powers[-1] * _PCG_MULT & 2**128 - 1)
    arrays = tuple(np.array([v >> shift & _MASK64 for v in values[1:]], dtype=np.uint64)
                   for values in (powers, sums) for shift in (64, 0))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _trial_uniforms(seed: int, start: int, stop: int, K: int) -> np.ndarray:
    """(stop - start, K) array whose row for trial t is, bit for bit,
    ``np.random.default_rng([seed, t]).random(K)``, computed for every
    trial at once.

    Trial t's entropy is the little-endian 32-bit words of ``seed`` ([0]
    for 0) followed by those of t, which :func:`_seed_states` turns into
    SeedSequence's four state words w0..w3.  PCG64 seeds with initstate =
    w0:w1 and initseq = w2:w3 (high word first): state = 0, inc =
    (initseq << 1) | 1, step, state += initstate, step, where a step is
    state * M + inc modulo 2^128.  Draw k steps once more and takes the
    XSL-RR output of the new state, k + 2 steps from inc + initstate, so
    every draw's state is one jump (:func:`_pcg_jumps`) from it.  The
    double is the output's top 53 bits times 2^-53.  128-bit values are
    (high, low) pairs of uint64 arrays."""
    if start < 2**32 < stop:  # trials from 2^32 on have two words
        return np.concatenate([_trial_uniforms(seed, start, 2**32, K),
                               _trial_uniforms(seed, 2**32, stop, K)])
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    t = np.arange(start, stop, dtype=np.uint64)
    t_words = [t & _MASK32] + ([t >> 32] if start >= 2**32 else [])
    entropy = np.empty((stop - start, len(words) + len(t_words)), dtype=np.uint32)
    entropy[:, :len(words)] = words
    for i, column in enumerate(t_words, start=len(words)):
        entropy[:, i] = column
    w0, w1, w2, w3 = (w[:, None] for w in _seed_states(entropy).T)
    inc_hi, inc_lo = w2 << 1 | w3 >> 63, w3 << 1 | 1
    lo = inc_lo + w1  # the first step's state, inc, plus initstate
    hi = inc_hi + w0 + (lo < w1)
    power_hi, power_lo, sum_hi, sum_lo = _pcg_jumps(K)
    hi, lo = _mul128(hi, lo, power_hi, power_lo)
    inc_hi, inc_lo = _mul128(inc_hi, inc_lo, sum_hi, sum_lo)
    lo += inc_lo
    hi += inc_hi
    hi += lo < inc_lo
    rot = hi >> 58
    hi ^= lo
    out = hi >> rot
    out |= hi << (64 - rot & 63)
    out >>= 11
    return out * 2.0**-53


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


def _lambda_for_distortion(source, dist, target_D: float, delay: int,
                           tol: float = 1e-4) -> RatePoint:
    """Bisect the Lagrange weight so the solved distortion hits the target
    (solved distortion is nonincreasing in the weight); returns the point
    solved at the weight found.  The top of the bracket, 64, is solved
    first: when its distortion is still at least ``tol`` above the target,
    every probe would climb to it, so that point is returned at once.  Once
    the midpoint rounds onto an end of the bracket, every later probe would
    be at that same weight, so the point just solved is returned."""
    lo, hi = 0.0, 64.0
    point = solve(source, dist, SolverConfig(lam=hi, delay=delay, epsilon=1e-8))
    if point.D - target_D >= tol:
        return point
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


#: (trial, tree, level) entries of the walks ``monte_carlo`` gathers and
#: scores in one chunk of trials.  Each of a chunk's few temporaries of this
#: many entries takes 128 KB, so a chunk stays well under 1 MB; larger
#: chunks made a ``simulate`` pass slower, not faster.
_CHUNK_ENTRIES = 2**14

#: (trial, position) uniforms ``monte_carlo`` draws at once, for one block
#: of trials (one trial at least).  The draw's 128-bit temporaries take
#: about 70 bytes an entry, 280 KB at this size, less than an encode chunk,
#: and a block's streams are held while its chunks are encoded.  Blocks of
#: 2^14 entries drew the ``simulate`` trials about as fast but raised the
#: traced peak of ``monte_carlo`` by over 100 KB.
_STREAM_ENTRIES = 2**12


def monte_carlo(source_spec: SourceSpec, distortion_spec: DistortionSpec,
                n: int, L: int, delta: float, trials: int, seed: int,
                target_D: float, lam: float | None = None,
                memory_cap: int = 2**26) -> SimulationReport:
    """Sample a codebook at rate R_n(target_D) + delta and measure distortion.

    Solves for the optimal kernel at the target distortion (bisecting the
    Lagrange weight unless ``lam`` is given), draws floor(2^{L(R + delta)})
    code trees from it, encodes ``trials`` fresh source streams of length L,
    and reports the empirical mean distortion with its standard error.
    Deterministic for a fixed seed: trial t's stream is drawn from the
    uniforms of ``default_rng([seed, t])``, bit for bit, so it depends
    neither on ``trials`` nor on the block or chunk it is handled in.  The
    uniforms of a block of at most ``_STREAM_ENTRIES`` (trial, position)
    entries are computed at once (:func:`_trial_uniforms`), and no
    generator is built per trial.  Trials are encoded and scored in chunks
    of at most ``_CHUNK_ENTRIES`` (trial, tree, level) walk entries (one
    trial at least), which bounds the memory a chunk uses.
    ``memory_cap`` bounds the entries of the codebook's (trees, L, |X|^{n-1})
    decision array, 8 bytes each; a larger codebook raises ``MemoryError``
    before any tree is drawn.  Drawing the array also holds its uniforms and
    one level's pmfs, |X̂| floats per branch, at a time: at |X| = |X̂| = 2
    and n = 2 the draw peaks at about 3.5 times the array.  ``trials < 1``,
    ``L < n``, an ``L`` that is not a multiple of ``n`` and a negative
    ``seed`` raise ``ValueError``, and a ``seed`` that is not an integer
    ``TypeError``, before any solve.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    source = block_pmf(source_spec, n)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if L < n or L % n != 0:
        raise ValueError(f"tree depth L = {L} must be a positive multiple of n = {n}")
    dist = distortion_tensor(distortion_spec, n)
    if lam is None:
        point = _lambda_for_distortion(source, dist, target_D, delay=1)
    else:
        point = solve(source, dist, SolverConfig(lam=lam, delay=1, epsilon=1e-8))
    size = max(int(math.floor(2.0 ** (L * (point.R + delta)))), 1)
    A = source.src_alphabet_size
    if size * L * A ** (n - 1) > memory_cap:
        raise MemoryError(f"decision array of {size} trees x {L} levels x {A ** (n - 1)} "
                          f"branches exceeds the cap of {memory_cap} entries")
    root = np.random.SeedSequence(seed)
    decisions = _sample_decisions(point.kernel, L, size,
                                  np.random.default_rng(root.spawn(1)[0]))
    width = _stream_uniforms(source_spec, L)
    block = max(_STREAM_ENTRIES // width, 1)
    chunk = max(_CHUNK_ENTRIES // (size * L), 1)
    dists = np.empty(trials)
    for first in range(0, trials, block):
        x = _sample_streams(source_spec, L, _trial_uniforms(
            seed, first, min(first + block, trials), width))
        for start in range(0, len(x), chunk):
            part = x[start:start + chunk]
            _, dists[first + start:first + start + len(part)] = _encode_streams(
                decisions, n, A, part, distortion_spec)
    mean = float(dists.mean())
    stderr = float(dists.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return SimulationReport(n=n, L=L, delta=delta, codebook_size=size,
                            trials=trials, mean_distortion=mean, stderr=stderr,
                            target_D=target_D, rate=point.R)
