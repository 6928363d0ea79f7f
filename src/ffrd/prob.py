"""Probability tensors over symbol blocks and directed-information primitives.

All block quantities are stored as dense tables indexed by the lexicographic
flattening of the symbol sequence, with the *first* symbol most significant:
``(x_1, ..., x_n) -> sum_i x_i * A**(n-i)``.  Rates and entropies are in bits
(log base 2) throughout, with the continuity conventions ``0*log(0) = 0`` and
``0*log(0/0) = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

#: tolerance on every normalization invariant
NORM_TOL = 1e-12


class SupportError(ValueError):
    """A reference PMF is zero where the compared PMF has mass."""


def sequence_digits(alphabet_size: int, n: int) -> np.ndarray:
    """All length-``n`` sequences as digit rows, in flattening order.

    Returns an ``(alphabet_size**n, n)`` int array whose row ``k`` is the
    sequence with flat index ``k``.
    """
    return _sequence_digits_cached(alphabet_size, n).copy()


@lru_cache(maxsize=64)
def _sequence_digits_cached(alphabet_size: int, n: int) -> np.ndarray:
    idx = np.arange(alphabet_size**n)
    out = np.empty((alphabet_size**n, n), dtype=np.int64)
    for i in range(n - 1, -1, -1):
        out[:, i] = idx % alphabet_size
        idx = idx // alphabet_size
    out.setflags(write=False)
    return out


def flat_index(sequence, alphabet_size: int) -> int:
    """Flat table index of a symbol sequence (first symbol most significant)."""
    k = 0
    for s in sequence:
        if not 0 <= s < alphabet_size:
            raise ValueError(f"symbol {s} outside alphabet of size {alphabet_size}")
        k = k * alphabet_size + int(s)
    return k


def _check_pmf(p: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(p)):
        raise ValueError(f"{what} has non-finite entries")
    if np.any(p < 0):
        raise ValueError(f"{what} has negative entries")
    s = p.sum(axis=-1)
    if np.any(np.abs(s - 1.0) > NORM_TOL):
        raise ValueError(f"{what} not normalized (max deviation {np.max(np.abs(s - 1.0)):.3e})")


@dataclass(frozen=True)
class BlockSource:
    """Source block PMF p(x^n) over sequences of length ``n``."""

    n: int
    src_alphabet_size: int
    probs: np.ndarray

    def __post_init__(self):
        p = np.ascontiguousarray(np.asarray(self.probs, dtype=float))
        if p.shape != (self.src_alphabet_size**self.n,):
            raise ValueError("source table length must be |X|^n")
        _check_pmf(p, "source PMF")
        object.__setattr__(self, "probs", p)


@dataclass(frozen=True)
class ForwardChannel:
    """Conditional PMF r(x̂^n | x^n), one row per source block."""

    n: int
    src_alphabet_size: int
    rec_alphabet_size: int
    probs: np.ndarray

    def __post_init__(self):
        r = np.ascontiguousarray(np.asarray(self.probs, dtype=float))
        if r.shape != (self.src_alphabet_size**self.n, self.rec_alphabet_size**self.n):
            raise ValueError("channel table must be |X|^n by |X̂|^n")
        _check_pmf(r, "channel rows")
        object.__setattr__(self, "probs", r)


@dataclass(frozen=True)
class JointBlockPmf:
    """Joint PMF p(x^n, x̂^n) stored as an |X|^n by |X̂|^n table."""

    n: int
    src_alphabet_size: int
    rec_alphabet_size: int
    probs: np.ndarray

    def __post_init__(self):
        j = np.ascontiguousarray(np.asarray(self.probs, dtype=float))
        if j.shape != (self.src_alphabet_size**self.n, self.rec_alphabet_size**self.n):
            raise ValueError("joint table must be |X|^n by |X̂|^n")
        if not np.all(np.isfinite(j)):
            raise ValueError("joint has non-finite entries")
        if np.any(j < 0):
            raise ValueError("joint has negative entries")
        if abs(j.sum() - 1.0) > NORM_TOL:
            raise ValueError("joint does not sum to 1")
        object.__setattr__(self, "probs", j)

    @staticmethod
    def from_source_and_channel(source: "BlockSource", channel: "ForwardChannel") -> "JointBlockPmf":
        return JointBlockPmf(
            n=source.n,
            src_alphabet_size=source.src_alphabet_size,
            rec_alphabet_size=channel.rec_alphabet_size,
            probs=source.probs[:, None] * channel.probs,
        )


@dataclass(frozen=True)
class CausalKernel:
    """Causally conditioned PMF q(x̂^n || c^{n-s}).

    The conditioning sequence ``c`` is the source block itself, or its image
    under a deterministic feed-forward symbol map when ``ff_map`` is given.
    Factor ``i`` conditions on (x̂^{i-1}, c^{i-s}); the full product table is
    stored over (x^n, x̂^n) and is constant in the source coordinates each
    factor is forbidden to see.

    ``factors[i-1]`` has shape ``(Z,)*max(i-s, 0) + (B,)*i`` with the
    conditioning-symbol axes first, then x̂_1..x̂_i (last axis is x̂_i).
    """

    n: int
    delay: int
    src_alphabet_size: int
    rec_alphabet_size: int
    probs: np.ndarray
    factors: tuple = field(repr=False)
    ff_map: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if not 1 <= self.delay <= self.n:
            raise ValueError("delay must satisfy 1 <= s <= n")
        q = np.ascontiguousarray(np.asarray(self.probs, dtype=float))
        if q.shape != (self.src_alphabet_size**self.n, self.rec_alphabet_size**self.n):
            raise ValueError("kernel table must be |X|^n by |X̂|^n")
        _check_pmf(q, "kernel rows")
        object.__setattr__(self, "probs", q)
        object.__setattr__(self, "factors", tuple(self.factors))

    @property
    def cond_alphabet_size(self) -> int:
        if self.ff_map is None:
            return self.src_alphabet_size
        return int(np.max(self.ff_map)) + 1

    @staticmethod
    def uniform(n: int, src_alphabet_size: int, rec_alphabet_size: int, delay: int = 1,
                ff_map: np.ndarray | None = None) -> "CausalKernel":
        """The all-uniform kernel |X̂|^{-n}, the solver's starting point."""
        A, B = src_alphabet_size, rec_alphabet_size
        Z = A if ff_map is None else int(np.max(ff_map)) + 1
        factors = []
        for i in range(1, n + 1):
            c = max(i - delay, 0)
            factors.append(np.full((Z,) * c + (B,) * i, 1.0 / B))
        probs = np.full((A**n, B**n), float(B) ** (-n))
        return CausalKernel(n, delay, A, B, probs, tuple(factors),
                            None if ff_map is None else np.asarray(ff_map))

    def depends_only_on_allowed(self, atol: float = 1e-12) -> bool:
        """Check the table is constant in source symbols newer than x^{n-s}."""
        A, B, n, s = self.src_alphabet_size, self.rec_alphabet_size, self.n, self.delay
        t = self.probs.reshape((A,) * n + (B,) * n)
        for ax in range(n - s, n):
            sl0 = np.take(t, 0, axis=ax)
            for v in range(1, A):
                if not np.allclose(np.take(t, v, axis=ax), sl0, atol=atol):
                    return False
        if self.ff_map is not None:
            fmap = np.asarray(self.ff_map)
            for ax in range(n - s):
                for a in range(A):
                    b = int(np.argmax(fmap == fmap[a]))
                    if not np.allclose(np.take(t, a, axis=ax), np.take(t, b, axis=ax), atol=atol):
                        return False
        return True


def binary_entropy(p: float) -> float:
    """H_b(p) = -p*log2(p) - (1-p)*log2(1-p), in bits, with H_b(0)=H_b(1)=0."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    h = 0.0
    if p > 0.0:
        h -= p * np.log2(p)
    if p < 1.0:
        h -= (1.0 - p) * np.log2(1.0 - p)
    return float(h)


def kl_divergence(p, q) -> float:
    """D(p || q) in bits over matching flat tables.

    Raises SupportError if q vanishes where p does not.
    """
    p = np.asarray(p, dtype=float).ravel()
    q = np.asarray(q, dtype=float).ravel()
    if p.shape != q.shape:
        raise ValueError("tables must have equal length")
    mask = p > 0
    if np.any(q[mask] <= 0):
        raise SupportError("q vanishes on the support of p")
    return float(np.sum(p[mask] * np.log2(p[mask] / q[mask])))


def causal_factors_from_joint(joint_table: np.ndarray, n: int, A: int, B: int, s: int,
                              fmap: np.ndarray | None = None):
    """Raw-array core of causal_kernel_from_joint (no dataclass validation).

    Factor i is N_i / sum_{x̂_i} N_i with numerator N_i the joint marginal
    over (z^{i-s}, x̂^i).  The marginals are nested: N_n sums the joint over
    x_{n-s+1}..x_n and the preimage classes of the map, and N_{i-1} sums N_i
    over x̂_i and, while i > s, over z_{i-s}.  Conditioning contexts carrying
    zero joint mass get a uniform factor, which keeps kernels strictly
    positive.

    Returns (full_table, factors, mass), where ``mass`` is N_n spread over
    source prefixes: the (|X|^{n-s}, |X̂|^n) table of the joint mass of the
    context (f(x)^{n-s}, x̂^n).
    """
    c_n = n - s
    N = joint_table.reshape(A**c_n, A**s, B**n).sum(axis=1)
    if fmap is None:
        Z = A
        mass = N
    else:
        fmap = np.asarray(fmap)
        Z = int(np.max(fmap)) + 1
        # class index of f(x)^{n-s} for every source prefix x^{n-s}
        rows = fmap[_sequence_digits_cached(A, c_n)] @ Z ** np.arange(c_n - 1, -1, -1)
        classes = np.zeros((Z**c_n, B**n))
        np.add.at(classes, rows, N)
        N, mass = classes, classes[rows]
    # x̂_i is the innermost axis and has only B entries; numpy is slow when it
    # broadcasts along such an axis, so those operations go slice by slice.
    factors = [None] * n
    for i in range(n, 0, -1):
        c = max(i - s, 0)
        N = N.reshape(Z**c, B ** (i - 1), B)
        D = sum(N[..., b] for b in range(B))
        qi = np.full(N.shape, 1.0 / B)
        for b in range(B):
            np.divide(N[..., b], D, out=qi[..., b], where=D > 0.0)
        factors[i - 1] = qi.reshape((Z,) * c + (B,) * i)
        # N_{i-1}: D already summed x̂_i out; sum z_{i-s} out while i > s.
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


def causal_kernel_from_joint(joint: JointBlockPmf, s: int,
                             ff_map: np.ndarray | None = None) -> CausalKernel:
    """Causally conditioned kernel q(x̂^n || x^{n-s}) induced by a joint PMF.

    Each factor q_i(x̂_i | x̂^{i-1}, x^{i-s}) is the conditional marginal of
    the joint; for s = n this reduces to plain marginalization to p(x̂^n).
    With ``ff_map`` the conditioning symbols are z_j = f(x_j).
    """
    n, A, B = joint.n, joint.src_alphabet_size, joint.rec_alphabet_size
    if not 1 <= s <= n:
        raise ValueError("delay must satisfy 1 <= s <= n")
    probs, factors, _ = causal_factors_from_joint(joint.probs, n, A, B, s, ff_map)
    return CausalKernel(n, s, A, B, probs, tuple(factors),
                        None if ff_map is None else np.asarray(ff_map))


def directed_information(source: BlockSource, channel: ForwardChannel,
                         kernel: CausalKernel) -> float:
    """I(X̂^n -> X^n) = E[ log2( r(x̂^n|x^n) / q(x̂^n||x^{n-s}) ) ] in bits."""
    if kernel.probs.shape != channel.probs.shape:
        raise ValueError("kernel/channel dimension mismatch")
    w = source.probs[:, None] * channel.probs
    mask = w > 0
    q = kernel.probs
    if np.any(q[mask] <= 0):
        raise SupportError("kernel support violation: q = 0 where p*r > 0")
    val = np.sum(w[mask] * np.log2(channel.probs[mask] / q[mask]))
    return float(val)


def reverse_causal_factors(joint_table: np.ndarray, n: int, A: int, B: int):
    """Factors p'(x_i | x^{i-1}, x̂^i) of the reverse causal conditioning.

    Together with the forward kernel these reassemble the joint through the
    causal-conditioning chain rule.  Factor ``i`` has axes
    (x_1..x_i, x̂_1..x̂_i); zero-mass contexts are filled uniformly over x_i.
    Returns (full_table, factors) with full_table over (x^n, x̂^n) flat.
    """
    J = joint_table.reshape((A,) * n + (B,) * n)
    factors = []
    full = np.ones((A,) * n + (B,) * n)
    for i in range(1, n + 1):
        sum_axes = tuple(range(i, n)) + tuple(range(n + i, 2 * n))
        M = J.sum(axis=sum_axes) if sum_axes else J  # axes (x_1..x_i, x̂_1..x̂_i)
        D = M.sum(axis=i - 1, keepdims=True)
        safe = np.where(D > 0.0, D, 1.0)
        fi = np.where(D > 0.0, M / safe, 1.0 / A)
        factors.append(fi)
        full = full * fi.reshape((A,) * i + (1,) * (n - i) + (B,) * i + (1,) * (n - i))
    return full.reshape(A**n, B**n), factors
