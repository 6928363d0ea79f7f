"""Builders for source block PMFs, distortion tensors, and feed-forward maps."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .prob import BlockSource, _check_pmf, _context_alphabet, _map_table, _whole, sequence_digits


@dataclass(frozen=True)
class SourceSpec:
    """A stationary source: i.i.d. with a given marginal, or a Markov chain.

    Use the ``iid``/``markov`` constructors rather than filling fields by hand.
    """

    kind: str
    alphabet_size: int
    marginal: np.ndarray | None = None
    transition: np.ndarray | None = None
    initial: np.ndarray | None = None

    @staticmethod
    def iid(bias) -> "SourceSpec":
        """i.i.d. source. ``bias`` is either P(X=1) for a binary source or a
        full marginal PMF."""
        b = np.ravel(np.asarray(bias, dtype=float))  # one PMF, however nested
        pmf = np.array([1.0 - b[0], b[0]]) if b.size == 1 else b
        _check_pmf(pmf, "i.i.d. marginal")
        return SourceSpec(kind="iid", alphabet_size=pmf.size, marginal=pmf)

    @staticmethod
    def markov(transition, initial=None) -> "SourceSpec":
        """Markov source from a row-stochastic transition matrix.  ``initial``
        defaults to the stationary distribution."""
        P = np.asarray(transition, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1] or P.size == 0:
            raise ValueError("transition matrix must be square, with at least one state")
        _check_pmf(P, "transition matrix")  # before the stationary solve sees a NaN
        pi = stationary_distribution(P) if initial is None else np.asarray(initial, dtype=float)
        if pi.shape != (P.shape[0],):
            raise ValueError("initial distribution must have one entry per state")
        _check_pmf(pi, "initial distribution")
        return SourceSpec(kind="markov", alphabet_size=P.shape[0], transition=P, initial=pi)

    @staticmethod
    def binary_markov(p01: float, p10: float, initial=None) -> "SourceSpec":
        """Two-state chain with P(0->1) = p01 and P(1->0) = p10."""
        P = np.array([[1.0 - p01, p01], [p10, 1.0 - p10]])
        return SourceSpec.markov(P, initial)


def stationary_distribution(transition) -> np.ndarray:
    """Stationary distribution pi of a row-stochastic matrix, pi @ P = pi.

    Solved as a constrained linear system; raises if no distribution meets
    the 1e-12 residual (e.g. reducible or periodic chains with an ambiguous
    or unreachable fixed point).
    """
    P = np.asarray(transition, dtype=float)
    k = P.shape[0]
    A = np.vstack([P.T - np.eye(k), np.ones((1, k))])
    b = np.zeros(k + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    if np.any(pi < -1e-12) or np.max(np.abs(pi @ P - pi)) > 1e-12 or abs(pi.sum() - 1.0) > 1e-12:
        raise ValueError("failed to find a valid stationary distribution")
    return np.clip(pi, 0.0, None)


def block_pmf(spec: SourceSpec, n: int) -> BlockSource:
    """Block PMF p(x^n) of a source spec.

    i.i.d.: product of marginals.  Markov: p(x^n) = pi(x_1) * prod P(x_i|x_{i-1}).
    """
    n = _whole("block length", n, 1)
    A = spec.alphabet_size
    d = sequence_digits(A, n)
    if spec.kind == "iid":
        probs = spec.marginal[d].prod(axis=1)
    elif spec.kind == "markov":
        probs = spec.initial[d[:, 0]].copy()
        for i in range(1, n):
            probs *= spec.transition[d[:, i - 1], d[:, i]]
    else:
        raise ValueError(f"unknown source kind {spec.kind!r}")
    return BlockSource(n=n, src_alphabet_size=A, probs=probs)


def _check_distortion_values(values: np.ndarray) -> None:
    if np.any(values < 0) or not np.all(np.isfinite(values)):
        raise ValueError("distortion values must be finite and >= 0")


@dataclass(frozen=True)
class DistortionSpec:
    """Per-letter distortion with a sliding window of ``m`` past source symbols.

    ``table`` has axes (x_{i-m}, ..., x_i, x̂_i); a single-letter measure is the
    m = 0 case.  Block distortion is the per-letter average (1/n) sum_i d_i.
    """

    m: int
    table: np.ndarray
    src_alphabet_size: int
    rec_alphabet_size: int

    @staticmethod
    def single_letter(matrix) -> "DistortionSpec":
        mat = np.asarray(matrix, dtype=float)
        if mat.ndim != 2:
            raise ValueError(f"single-letter distortion must be a 2-D matrix, got shape "
                             f"{mat.shape}")
        return DistortionSpec(m=0, table=mat, src_alphabet_size=mat.shape[0],
                              rec_alphabet_size=mat.shape[1])

    @staticmethod
    def hamming(alphabet_size: int = 2) -> "DistortionSpec":
        k = alphabet_size
        return DistortionSpec.single_letter(1.0 - np.eye(k))

    @staticmethod
    def windowed(m: int, table) -> "DistortionSpec":
        t = np.asarray(table, dtype=float)
        if t.ndim != m + 2:
            raise ValueError("windowed table must have m+2 axes")
        return DistortionSpec(m=m, table=t, src_alphabet_size=t.shape[0],
                              rec_alphabet_size=t.shape[-1])

    @staticmethod
    def stock() -> "DistortionSpec":
        """Binary drop-warning distortion e(x_{i-1}, x_i, x̂_i).

        The advisory x̂_i = 1 flags a value drop (x_{i-1}, x_i) = (1, 0);
        distortion 1 for a missed drop or a false alarm, 0 otherwise.
        """
        e = np.zeros((2, 2, 2))
        e[:, :, 1] = 1.0  # a false alarm
        e[1, 0] = [1.0, 0.0]  # after a drop, silence misses it and a warning is right
        return DistortionSpec(m=1, table=e, src_alphabet_size=2, rec_alphabet_size=2)

    def __post_init__(self):
        # _position_costs writes every position only for a window m >= 0
        object.__setattr__(self, "m", _whole("window m", self.m, 0))
        if min(self.src_alphabet_size, self.rec_alphabet_size) < 1:
            raise ValueError(f"distortion alphabets must be nonempty, got |X|="
                             f"{self.src_alphabet_size}, |X̂|={self.rec_alphabet_size}")
        t = np.asarray(self.table, dtype=float)
        _check_distortion_values(t)
        if t.shape != (self.src_alphabet_size,) * (self.m + 1) + (self.rec_alphabet_size,):
            raise ValueError("distortion table shape mismatch with alphabets")
        object.__setattr__(self, "table", t)


@dataclass(frozen=True)
class DistortionTensor:
    """Dense block distortion d(x^n, x̂^n), indexed like a ForwardChannel."""

    n: int
    src_alphabet_size: int
    rec_alphabet_size: int
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if v.shape != (self.src_alphabet_size**self.n, self.rec_alphabet_size**self.n):
            raise ValueError("distortion tensor must be |X|^n by |X̂|^n")
        _check_distortion_values(v)
        object.__setattr__(self, "values", v)


def _boundary_table(table: np.ndarray, missing: int, A: int,
                    initial_context) -> np.ndarray:
    """Resolve a window that extends ``missing`` symbols before the block.

    With no initial context the missing axes are averaged uniformly
    (window truncation); a fixed symbol pins them; a distribution over the
    pre-block symbol averages under it.
    """
    if initial_context is not None and np.ndim(initial_context) == 0:
        x = float(initial_context)
        if not (x.is_integer() and 0 <= x < A):
            raise ValueError(f"initial context symbol must be a whole number in [0, {A}), "
                             f"got {initial_context!r}")
        return table[(int(x),) * missing]
    if initial_context is not None:
        w = np.asarray(initial_context, dtype=float)
        if w.shape != (A,):
            raise ValueError("initial context distribution must be a PMF over X")
        _check_pmf(w, "initial context distribution")
    t = table
    for _ in range(missing):
        t = t.mean(axis=0) if initial_context is None else np.tensordot(w, t, axes=(0, 0))
    return t


def _position_costs(spec: DistortionSpec, x, initial_context=None) -> np.ndarray:
    """Cost of every reconstruction symbol at every position of source streams.

    ``x`` holds streams of length L along its last axis; the result has
    shape ``x.shape + (|X̂|,)``.  Entry [..., t, b] is the distortion of
    x̂_t = b given the window of x ending at t.  Windows reaching before the
    first symbol are resolved by :func:`_boundary_table`, once per position
    for all streams.
    """
    x = np.asarray(x, dtype=np.int64)
    m, L = spec.m, x.shape[-1]
    costs = np.empty(x.shape + (spec.rec_alphabet_size,))
    for t in range(min(m, L)):
        table = _boundary_table(spec.table, m - t, spec.src_alphabet_size, initial_context)
        costs[..., t, :] = table[tuple(x[..., j] for j in range(t + 1))]
    if L > m:
        costs[..., m:, :] = spec.table[tuple(x[..., j:L - m + j] for j in range(m + 1))]
    return costs


def distortion_tensor(spec: DistortionSpec, n: int, initial_context=None) -> DistortionTensor:
    """Assemble the dense block tensor d(x^n, x̂^n) = (1/n) sum_i d_i.

    ``initial_context`` handles windows reaching before the block: a symbol
    fixes the missing history, a PMF averages over it, and None truncates
    (uniform average over the missing symbols).
    """
    n = _whole("block length", n, 1)
    A, B = spec.src_alphabet_size, spec.rec_alphabet_size
    costs = _position_costs(spec, sequence_digits(A, n), initial_context)
    vals = np.zeros((A**n, B**n))
    # position i's costs broadcast over every x̂ axis but the i-th, in place
    per_letter = vals.reshape((A**n,) + (B,) * n)
    for i in range(n):
        per_letter += costs[:, i].reshape((A**n,) + (1,) * i + (B,) + (1,) * (n - 1 - i))
    vals /= n
    return DistortionTensor(n=n, src_alphabet_size=A, rec_alphabet_size=B, values=vals)


@dataclass(frozen=True)
class FeedForwardMap:
    """Deterministic symbol map f: X -> Z on fed-forward symbols (``prob._map_table``)."""

    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "table", _map_table(self.table))

    @property
    def domain_size(self) -> int:
        return self.table.size

    @property
    def codomain_size(self) -> int:
        return _context_alphabet(self.domain_size, self.table)

    @staticmethod
    def identity(alphabet_size: int) -> "FeedForwardMap":
        return FeedForwardMap(np.arange(alphabet_size))

    @staticmethod
    def constant(alphabet_size: int) -> "FeedForwardMap":
        return FeedForwardMap(np.zeros(alphabet_size, dtype=np.int64))

    @staticmethod
    def parity(alphabet_size: int) -> "FeedForwardMap":
        return FeedForwardMap(np.arange(alphabet_size) % 2)


def apply_feedforward_map(ff_map: FeedForwardMap, x) -> np.ndarray:
    """Elementwise z_i = f(x_i)."""
    return ff_map.table[np.asarray(x, dtype=np.int64)]
