"""Probability tensors over symbol blocks and directed-information primitives.

All block quantities are stored as dense tables indexed by the lexicographic
flattening of the symbol sequence, with the *first* symbol most significant:
``(x_1, ..., x_n) -> sum_i x_i * A**(n-i)``.  Rates and entropies are in bits
(log base 2) throughout, with the continuity conventions ``0*log(0) = 0`` and
``0*log(0/0) = 0``.

The causal factorization is built once per stack shape as a
``_FactorSpace``: buffers for every table it writes and the list of calls
that fills them, each call a ufunc or copy with its operand views made and
its choice between slicing and broadcasting taken when the space is built.
It factors a prefix mass, the joint summed over the s newest source
symbols, so it never reads a full (|X|^n, |X̂|^n) table: the solver step
writes that mass straight into its space, and a one-off call
(``_context_factors``) sums a joint into a fresh space itself.  The solver
keeps one space in its step workspace and runs the list at every step, so
its results are valid until the next factorization in that space, and a
caller that keeps them copies them.  The kernel product
(``_product_calls``) is built the same way; ``_factor_product`` builds it
on fresh buffers.  Run at delay 0 on the transposed joint, the
factorization also gives the certificates' p' (a delay-0 ``CausalKernel``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import NamedTuple

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


def _check_pmf(p: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(p)):
        raise ValueError(f"{what} has non-finite entries")
    if np.any(p < 0):
        raise ValueError(f"{what} has negative entries")
    s = p.sum(axis=-1)
    if np.any(np.abs(s - 1.0) > NORM_TOL):
        raise ValueError(f"{what} not normalized (max deviation {np.max(np.abs(s - 1.0)):.3e})")


def _check_dims(what: str, table, ref, ref_what: str) -> None:
    """``ValueError`` "{what} is for n=…, |X|=…[, |X̂|=…]; {ref_what} n=…, …",
    printing every dimension of both, unless ``table`` has the block length
    and source alphabet of ``ref``, and its |X̂| too when both have one."""
    dims = [(t.n, t.src_alphabet_size, getattr(t, "rec_alphabet_size", None))
            for t in (table, ref)]
    (n, A, B), (n_ref, A_ref, B_ref) = dims
    if (n, A) != (n_ref, A_ref) or (None not in (B, B_ref) and B != B_ref):
        text = [f"n={d[0]}, |X|={d[1]}" + ("" if d[2] is None else f", |X̂|={d[2]}")
                for d in dims]
        raise ValueError(f"{what} is for {text[0]}; {ref_what} {text[1]}")


def _whole(name: str, value, least: int) -> int:
    """``value`` as an int, given as one or as a whole float (as JSON may give
    it); else ``ValueError`` "{name} must be a whole number >= {least}, got …"."""
    if not (isinstance(value, numbers.Real) and float(value).is_integer() and value >= least):
        raise ValueError(f"{name} must be a whole number >= {least}, got {value!r}")
    return int(value)


def _map_table(table) -> np.ndarray:
    """A feed-forward map's table as a 1-D int array of symbol indices: nonempty,
    whole numbers >= 0, a whole float or bool stored as an int (else ``ValueError``)."""
    t = np.asarray(table)
    if t.ndim == 1 and t.size and t.dtype.kind in "biuf" and np.isfinite(t).all():
        ints = t.astype(np.int64)
        if ints.min() >= 0 and np.array_equal(ints, t):
            return ints
    raise ValueError("map table must be a 1-D array of symbol indices")


def _context_alphabet(A: int, fmap) -> int:
    """Z, the alphabet of a kernel's conditioning symbols: the source's
    without a feed-forward map, the map's codomain max(map) + 1 with one."""
    return A if fmap is None else int(np.max(fmap)) + 1


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
class CausalKernel:
    """Causally conditioned PMF q(x̂^n || c^{n-s}), held as its factors.

    The conditioning sequence ``c`` is the source block itself, or its image
    under a deterministic feed-forward symbol map when ``ff_map`` is given
    (``_map_table``).  ``factors[i-1]`` is q(x̂_i | x̂^{i-1}, c^{i-s}), of
    shape ``(Z,)*max(i-s, 0) + (B,)*i`` with the conditioning-symbol axes
    first, then x̂_1..x̂_i (last axis is x̂_i).  A factor has no axis for a
    symbol its context does not see, so every kernel is causal.  The solver's
    kernels have delay s >= 1; s = 0 is standard causal conditioning, factor
    i seeing c^i, as in a certificate's p' (x given x̂).  ``table`` and
    ``probs`` multiply the factors out on every access.
    """

    n: int
    delay: int
    src_alphabet_size: int
    rec_alphabet_size: int
    factors: tuple = field(repr=False)
    ff_map: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        n, s, A, B = self.n, self.delay, self.src_alphabet_size, self.rec_alphabet_size
        if not 0 <= s <= n or n < 1:
            raise ValueError(f"a kernel needs n >= 1 and 0 <= delay <= n, got n={n}, delay={s}")
        if len(self.factors) != n:
            raise ValueError(f"kernel needs n={n} factors, got {len(self.factors)}")
        fmap = None if self.ff_map is None else _map_table(self.ff_map)
        if fmap is not None and fmap.shape != (A,):
            raise ValueError(f"ff_map must give one symbol to each of the {A} source letters")
        Z = _context_alphabet(A, fmap)
        factors = tuple(np.asarray(f, dtype=float) for f in self.factors)
        for i, f in enumerate(factors, start=1):
            shape = (Z,) * max(i - s, 0) + (B,) * i
            if f.shape != shape:
                raise ValueError(f"kernel factor {i} has shape {f.shape}; expected {shape}")
            _check_pmf(f, f"kernel factor {i}")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "ff_map", fmap)

    @property
    def table(self) -> np.ndarray:
        """The (Z^{n-s}, |X̂|^n) context table (see ``_Contexts``)."""
        return _factor_product([f[None] for f in self.factors], self._contexts())[0]

    @property
    def probs(self) -> np.ndarray:
        """The (|X|^n, |X̂|^n) table, constant over each context."""
        return self._contexts().full(self.table)

    def _contexts(self) -> "_Contexts":
        return _Contexts.of(self.n, self.src_alphabet_size, self.rec_alphabet_size,
                            self.delay, self.ff_map)

    @staticmethod
    def uniform(n: int, src_alphabet_size: int, rec_alphabet_size: int, delay: int = 1,
                ff_map: np.ndarray | None = None) -> "CausalKernel":
        """The all-uniform kernel |X̂|^{-n}, the solver's starting point."""
        ff_map = None if ff_map is None else _map_table(ff_map)
        Z, B = _context_alphabet(src_alphabet_size, ff_map), rec_alphabet_size
        factors = tuple(np.full((Z,) * max(i - delay, 0) + (B,) * i, 1.0 / B)
                        for i in range(1, n + 1))
        return CausalKernel(n, delay, src_alphabet_size, B, factors, ff_map)


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


class _Contexts(NamedTuple):
    """Where the contexts (z^{n-s}, x̂^n) of a causal kernel sit in the
    (x^n, x̂^n) table.

    A kernel is constant over the s newest source symbols and, with a
    feed-forward map, over the preimage classes of the map, so it is stored
    as its (Z^{n-s}, |X̂|^n) context table: one row per class of z^{n-s}.
    ``rows`` gives the class of every source prefix x^{n-s}, and ``bins``
    the flat class-table cell of every (x^{n-s}, x̂^n) cell (both None
    without a map, when the classes are the prefixes).
    """

    n: int
    A: int
    B: int
    s: int
    Z: int
    rows: np.ndarray | None
    bins: np.ndarray | None

    @staticmethod
    def of(n: int, A: int, B: int, s: int, fmap: np.ndarray | None) -> "_Contexts":
        if fmap is None:
            return _Contexts(n, A, B, s, A, None, None)
        fmap = np.asarray(fmap)
        Z = _context_alphabet(A, fmap)
        c_n = n - s
        rows = fmap[_sequence_digits_cached(A, c_n)] @ Z ** np.arange(c_n - 1, -1, -1)
        bins = (rows[:, None] * B**n + np.arange(B**n)).ravel()
        return _Contexts(n, A, B, s, Z, rows, bins)

    def full(self, table: np.ndarray) -> np.ndarray:
        """The (|X|^n, |X̂|^n) table of a context table."""
        if self.rows is not None:
            table = table[self.rows]
        return np.repeat(table, self.A**self.s, axis=0)


#: Tables of at least this many cells are divided and multiplied slice by
#: slice along their innermost axis x̂_i (``_last_axis_calls``): B calls,
#: each one long inner loop, against one broadcast call whose inner loops
#: run B entries per context.  Below it the one call costs less.  Per call
#: at B = 2, slicing loses up to 1,024 cells, breaks even near 2,048 and
#: wins from 4,096 (``BENCH_15.json``, ``crossover``).  At B = 3 it loses
#: again from about 10^5 cells, where each of the B strided passes reads
#: all of the table's memory; no workload has such a table.  It is read
#: when a list of calls is built.
_SLICE_CELLS = 4096


def _sum_calls(x: np.ndarray, axis: int, out: np.ndarray) -> list:
    """Calls that write the sum of the C-contiguous ``x`` over ``axis`` into
    the C-contiguous ``out``: the first two slices added, then each later
    one in order (a lone slice is copied).  Over an axis that is not the
    innermost, ``np.add.reduce`` adds in that same order; up to 4 slices
    their adds cost less than its one call, and a longer axis, such as the
    |X|^s newest source symbols at full delay, takes the reduction.  The
    slices are taken from ``x`` viewed as (outer, axis) or (outer, axis,
    inner), since numpy's loops cost less on a few long axes than on many
    short ones."""
    k = x.shape[axis]
    if axis in (-1, x.ndim - 1):
        x = x.reshape(-1, k)
    else:
        x = x.reshape(math.prod(x.shape[:axis]), k, -1)
    out = out.reshape(x.shape[:1] + x.shape[2:])
    if k > 4 and x.ndim == 3:
        return [partial(np.add.reduce, x, 1, None, out)]
    parts = [x[:, j] for j in range(k)]
    if k == 1:
        return [partial(np.copyto, out, parts[0])]
    return [partial(np.add, parts[0], parts[1], out)] + \
        [partial(np.add, out, part, out) for part in parts[2:]]


def _last_axis_calls(op, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> list:
    """Calls that write ``op(a, b)`` into ``out``, for a ``b`` of last-axis
    length 1: one broadcast call, or one call per slice along the last axis
    when ``out`` has ``_SLICE_CELLS`` cells or more.  Each cell gets the
    same operation either way, so the results are the same bit for bit."""
    if out.size < _SLICE_CELLS:
        return [partial(op, a, b, out)]
    b = b[..., 0]
    return [partial(op, a[..., k], b, out[..., k]) for k in range(out.shape[-1])]


class _FactorSpace:
    """The causal factorization of a stack of L prefix masses on ``ctx``,
    built once: a buffer for every table it reads or writes, and the list of
    calls that fills them, with every view made and every level's choice
    between slicing and broadcasting taken when the space is built.

    ``factorize`` factors the prefix masses in ``prefix``, an
    (L, |X|^{n-s}, |X̂|^n) array holding each member's joint summed over the
    s newest source symbols, and overwrites the rest: ``mass`` gets N_n, the
    joint mass of each context, as an (L, Z^{n-s}, |X̂|^n) context table
    (``prefix`` itself without a map), and per level i ``sums[i-1]`` the
    context sums of N_i and ``factors[i-1]`` factor i (see
    ``_context_factors``).
    """

    __slots__ = ("B", "prefix", "mass", "sums", "factors", "_classes", "_levels")

    def __init__(self, ctx: _Contexts, L: int):
        n, A, B, s, Z, _, bins = ctx
        c_n = n - s
        self.B = B
        self.prefix = self.mass = np.empty((L, A**c_n, B**n))
        self._classes = []
        if bins is not None:
            # each class sums its prefixes in prefix order; members use
            # disjoint ranges of the bins
            size = Z**c_n * B**n
            bins = (np.arange(0, L * size, size)[:, None] + bins).ravel()
            prefixes = self.prefix.reshape(-1)
            self.mass = np.empty((L, Z**c_n, B**n))
            classes = self.mass.reshape(-1)
            self._classes.append(
                lambda: np.copyto(classes, np.bincount(bins, prefixes, L * size)))
        # N_i keeps the factor's axes (Z,)*c + (B,)*i, so summing an axis out
        # gives the next level's numerator in its factor's axes
        N = self.mass.reshape((L,) + (Z,) * c_n + (B,) * n)
        self.sums, self.factors, self._levels = [None] * n, [None] * n, []
        for i in range(n, 0, -1):
            c = max(i - s, 0)
            D = self.sums[i - 1] = np.empty(N.shape[:-1])
            self.factors[i - 1] = np.empty(N.shape)
            self._levels += _sum_calls(N, -1, D)
            self._levels += _last_axis_calls(np.divide, N.reshape(-1, B), D.reshape(-1, 1),
                                             self.factors[i - 1].reshape(-1, B))
            # N_{i-1}: D already summed x̂_i out; sum z_{i-s} out while i > s
            if c:
                N = np.empty(D.shape[:c] + D.shape[c + 1:])
                self._levels += _sum_calls(D, c, N)
            else:
                N = D

    def factorize(self) -> bool:
        """Factor ``prefix`` into the space; True when every context carries
        joint mass.

        Every level's context sums add up entries of N_n, which sums
        nonnegative terms, so one test on N_n stands for every level: when
        its least entry is positive no level divides by 0 (argmin finds a 0,
        or the first NaN, which takes the other path and gives NaN too).
        Otherwise the same list runs with 0/0 allowed, and each level's
        contexts with zero sums get the uniform factor 1/B: the bits of
        dividing by 1 there and filling.  A level is scanned for them only
        when one argmin finds that its least sum is not positive.
        """
        for call in self._classes:
            call()
        mass = self.mass
        if mass.item(mass.argmin()) > 0.0:
            for call in self._levels:
                call()
            return True
        with np.errstate(invalid="ignore"):
            for call in self._levels:
                call()
        # from level n down: a level whose sums are all positive makes every
        # context sum below it a sum of positive terms
        for factor, sums in zip(reversed(self.factors), reversed(self.sums)):
            if sums.item(sums.argmin()) > 0.0:
                break
            empty = np.flatnonzero(sums.reshape(-1) == 0.0)
            factor.reshape(-1, self.B)[empty] = 1.0 / self.B
        return False


def _context_factors(joints: np.ndarray, ctx: _Contexts):
    """Causal factorization of a stack of joints on the context table.

    ``joints`` holds L (|X|^n, |X̂|^n) joint tables, one per member of the
    stack, with the member axis first.  Returns (factors, mass): the
    kernels' factors (see ``CausalKernel``) with the member axis first, and
    N_n, the joint mass of each context, as an (L, Z^{n-s}, |X̂|^n) context
    table.  Every operation acts on each member as on a lone table, so a
    member's results are those of its own factorization bit for bit.
    ``_factor_product`` multiplies the factors out into the kernel tables.

    The joints are summed over the s newest source symbols into a fresh
    ``_FactorSpace``, whose buffers hold the results; the solver step keeps
    one space in its workspace and writes its prefix mass straight into it.

    Factor i is N_i / sum_{x̂_i} N_i with numerator N_i the joint marginal
    over (z^{i-s}, x̂^i).  The marginals are nested: N_n sums the joint over
    x_{n-s+1}..x_n and the preimage classes of the map, and N_{i-1} sums N_i
    over x̂_i and, while i > s, over z_{i-s}; every sum adds slices
    (``_sum_calls``).  Each level divides once, or slice by slice along x̂_i
    on a large level (``_last_axis_calls``); conditioning contexts carrying
    zero joint mass then get a uniform factor, which keeps kernels strictly
    positive.  At delay 0 on the transposed joint it gives the reverse
    factors p' (``reverse_causal_factors``).
    """
    L = joints.shape[0]
    space = _FactorSpace(ctx, L)
    shape = (L, ctx.A ** (ctx.n - ctx.s), ctx.A**ctx.s, ctx.B**ctx.n)
    for call in _sum_calls(np.ascontiguousarray(joints, dtype=float).reshape(shape), 2,
                           space.prefix):
        call()
    space.factorize()
    return space.factors, space.mass


def _product_shape(ctx: _Contexts, L: int, i: int) -> tuple:
    """Shape in which ``_product_calls`` multiplies factor i into the
    product of factors 1..i-1: (members, older contexts, newest context
    symbol z_{i-s} or 1, x̂^{i-1}, x̂_i)."""
    c = max(i - ctx.s, 0)
    return (L, ctx.Z ** max(c - 1, 0), ctx.Z if c else 1, ctx.B ** (i - 1), ctx.B)


def _product_buffers(ctx: _Contexts, L: int, memory: np.ndarray | None = None) -> list:
    """Buffers for the products of factors 1..i, 1 < i < n (None at i = 1,
    where it is factor 1, and at i = n, where it is the kernel table).

    Each product is read only while the next is written, so they are views
    of one flat buffer at alternate ends: even i at its front, odd i at its
    back.  The buffer is ``memory`` (any float64 array, such as a table the
    caller writes only after the product is done) when it holds every two
    neighbours, and fresh otherwise."""
    shapes = {i: _product_shape(ctx, L, i) for i in range(2, ctx.n)}
    sizes = {i: math.prod(shape) for i, shape in shapes.items()}
    need = max((sizes[i] + sizes[i + 1] for i in range(2, ctx.n - 1)),
               default=sum(sizes.values()))
    flat = memory.reshape(-1) if memory is not None and memory.size >= need else np.empty(need)
    buffers = [None] * ctx.n
    for i, size in sizes.items():
        view = flat[:size] if i % 2 == 0 else flat[flat.size - size:]
        buffers[i - 1] = view.reshape(shapes[i])
    return buffers


def _product_calls(factors, ctx: _Contexts, table: np.ndarray, products: list) -> list:
    """Calls that multiply a stack of factors out into its (L, Z^{n-s},
    |X̂|^n) kernel tables ``table``, one multiply per level
    (``_last_axis_calls``), with the product of factors 1..i going to
    ``products[i-1]`` (``_product_buffers``)."""
    L = table.shape[0]
    if ctx.n == 1:
        return [partial(np.copyto, table, factors[0].reshape(table.shape))]
    calls, product = [], factors[0]
    for i in range(2, ctx.n + 1):
        shape = _product_shape(ctx, L, i)
        out = table.reshape(shape) if i == ctx.n else products[i - 1]
        calls += _last_axis_calls(np.multiply, factors[i - 1].reshape(shape),
                                  product.reshape(shape[:2] + (1, shape[3], 1)), out)
        product = out
    return calls


def _factor_product(factors, ctx: _Contexts) -> np.ndarray:
    """The (L, Z^{n-s}, |X̂|^n) kernel tables of a stack of factors, from
    ``_product_calls`` on fresh buffers."""
    L = factors[0].shape[0]
    table = np.empty((L, ctx.Z ** (ctx.n - ctx.s), ctx.B**ctx.n))
    for call in _product_calls(factors, ctx, table, _product_buffers(ctx, L)):
        call()
    return table


def directed_information(source: BlockSource, channel: ForwardChannel,
                         kernel: CausalKernel) -> float:
    """I(X̂^n -> X^n) = E[ log2( r(x̂^n|x^n) / q(x̂^n||x^{n-s}) ) ] in bits.

    The channel must have the source's block length and alphabet, and the
    kernel the channel's block length and alphabets (``ValueError`` naming
    the mismatch otherwise).
    """
    _check_dims("channel", channel, source, "the source has")
    _check_dims("kernel", kernel, channel, "the channel is for")
    w = source.probs[:, None] * channel.probs
    mask = w > 0
    q = kernel.probs
    if np.any(q[mask] <= 0):
        raise SupportError("kernel support violation: q = 0 where p*r > 0")
    val = np.sum(w[mask] * np.log2(channel.probs[mask] / q[mask]))
    return float(val)


def reverse_causal_factors(joint_table: np.ndarray, n: int, A: int, B: int) -> tuple:
    """Factors p'(x_i | x^{i-1}, x̂^i) of the reverse causal conditioning.

    The causal factorization of the transposed joint at delay 0: the factors
    of a delay-0 ``CausalKernel`` of x given x̂, factor ``i`` with axes
    (x̂_1..x̂_i, x_1..x_i), zero-mass contexts uniform over x_i.  With the
    forward kernel they reassemble the joint by the causal chain rule.
    """
    factors, _ = _context_factors(joint_table.T[None], _Contexts.of(n, B, A, 0, None))
    return tuple(f[0] for f in factors)
