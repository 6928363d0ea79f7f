"""Lower-bound certificates for the block rate-distortion value.

A certificate is a triple (lam, gamma, p') with gamma a positive weight per
source block and p' a reverse-direction causal kernel, the delay-0
``CausalKernel`` p'(x^n || x̂^n) with factors p'(x_i | x^{i-1}, x̂^i).
Whenever the feasibility constraint

    p(x^n) * gamma(x^n) * 2^{-lam d(x^n, x̂^n)}  <=  p'(x^n || x̂^n)

holds for every pair of blocks, (1/n)(-lam D + sum_x p log2 gamma) is a valid
lower bound on the optimal rate at distortion D.  For a fixed p' the largest
such gamma is min over x̂^n of p' 2^{lam d} / p, as in Blahut's dual (IEEE
Trans. IT 18(4), 1972).  ``_log2_gamma_bound`` computes it in the log domain.
Certificate assembly takes gamma from it, so its certificates are feasible by
construction, and ``check_feasibility`` measures a given gamma against it.
Certificates assembled from a converged solver state are tight: the bound
matches the primal rate to within the solver's stopping threshold.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field

import numpy as np

from .models import DistortionTensor
from .prob import (
    BlockSource,
    CausalKernel,
    ForwardChannel,
    NORM_TOL,
    _check_dims,
    _Contexts,
    reverse_causal_factors,
)
from .solver import RatePoint, _channel, _check_lam, _step_stack, _Workspace

#: largest constraint excess, in bits, that ``check_feasibility`` accepts
FEASIBILITY_TOL = 1e-9
#: ``reconstruct_channel``'s step cap, warm start included
RECONSTRUCT_MAX_ITERS = 10_000
#: entrywise residual at which its accelerated iteration stops
RECONSTRUCT_TOL = 1e-12
#: the row error and the p' excess, in bits, a tight certificate may show
TIGHT_TOL = 1e-6
#: differences of residuals and of iterates ``_anderson`` extrapolates from
ANDERSON_MEMORY = 5


def _check_gamma(gamma, shape: tuple) -> np.ndarray:
    """gamma as a contiguous float array, checked to be finite, positive and of ``shape``."""
    g = np.ascontiguousarray(np.asarray(gamma, dtype=float))
    if g.shape != shape:
        raise ValueError(f"gamma has shape {g.shape}; the source needs one entry per "
                         f"block, shape {shape}")
    if not np.all(np.isfinite(g)) or np.any(g <= 0):
        raise ValueError("gamma must be finite and strictly positive")
    return g


class NonTightCertificateError(ValueError):
    """The certificate does not pin down a channel (constraint slack on the
    support is too large for the reconstruction to normalize)."""


@dataclass(frozen=True)
class DualCertificate:
    """Lower-bound certificate (lam, gamma, p').

    ``p_prime`` is p'(x^n || x̂^n): a delay-0 ``CausalKernel`` without a map,
    conditioned on the |X̂| letters and emitting the |X| ones, so factor i
    has axes (x̂^i, x^i) and is checked finite, nonnegative and normalized.
    gamma must be finite and positive (``ValueError`` otherwise): a NaN
    passes every comparison of ``check_feasibility`` unseen.
    """

    lam: float
    n: int
    src_alphabet_size: int
    rec_alphabet_size: int
    gamma: np.ndarray
    p_prime: CausalKernel = field(repr=False)

    def __post_init__(self):
        _check_lam(self.lam)
        object.__setattr__(self, "gamma",
                           _check_gamma(self.gamma, (self.src_alphabet_size**self.n,)))
        pp, A, B = self.p_prime, self.src_alphabet_size, self.rec_alphabet_size
        if (pp.delay, pp.n, pp.src_alphabet_size, pp.rec_alphabet_size) != (0, self.n, B, A) \
                or pp.ff_map is not None:
            raise ValueError(f"p' must be a delay-0 kernel without a map, for n={self.n}, "
                             f"conditioned on |X̂|={B} and emitting |X|={A}; got {pp!r}")

    @property
    def p_prime_table(self) -> np.ndarray:
        """Dense p'(x^n || x̂^n) over (x^n, x̂^n), the kernel's table transposed."""
        return self.p_prime.table.T

    def to_json(self) -> str:
        return json.dumps({
            "lam": self.lam,
            "n": self.n,
            "src_alphabet_size": self.src_alphabet_size,
            "rec_alphabet_size": self.rec_alphabet_size,
            "gamma": self.gamma.tolist(),
            "p_prime": [f.tolist() for f in self.p_prime.factors],
        })

    @staticmethod
    def from_json(text: str) -> "DualCertificate":
        """The certificate of ``to_json``'s text.  The factors under ``p_prime`` build
        the kernel with the certificate's n and alphabets; its errors name p'."""
        d = json.loads(text)
        if not isinstance(d, dict):
            raise ValueError("certificate JSON must be an object")
        fields = {key: _json_field(d, key, read) for key, read in _JSON_FIELDS.items()}
        factors = _json_field(d, "p_prime", lambda v: [np.asarray(f, dtype=float) for f in v])
        try:
            p_prime = CausalKernel(fields["n"], 0, fields["rec_alphabet_size"],
                                   fields["src_alphabet_size"], factors)
        except ValueError as exc:
            raise ValueError(f"p': {exc}") from None
        return DualCertificate(**fields, p_prime=p_prime)


#: each key of a certificate's JSON but ``p_prime``, with what reads its value
_JSON_FIELDS = {"lam": float, "n": operator.index, "src_alphabet_size": operator.index,
                "rec_alphabet_size": operator.index,
                "gamma": lambda v: np.asarray(v, dtype=float)}


def _json_field(d: dict, key: str, read):
    """``read`` of a JSON object's value at ``key``, with ``ValueError``
    naming the key when it is missing or its value does not read."""
    try:
        return read(d[key])
    except KeyError:
        raise ValueError(f"certificate JSON has no key {key!r}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"certificate JSON key {key!r} holds a value of the wrong type "
                         f"({exc})") from None


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    max_violation: float
    max_normalization_error: float


def dual_objective(lam: float, gamma: np.ndarray, source: BlockSource, D: float) -> float:
    """(1/n)(-lam*D + sum_x p(x^n) log2 gamma(x^n)) in bits per symbol."""
    _check_lam(lam)
    g = _check_gamma(gamma, source.probs.shape)
    return float(-lam * D + source.probs @ np.log2(g)) / source.n


def _log2_gamma_bound(p_prime: np.ndarray, lam: float, source: BlockSource,
                      distortion: DistortionTensor) -> np.ndarray:
    """log2 of the largest gamma(x^n) the constraint allows with the p'
    table ``p_prime`` at weight ``lam``, on the source blocks with p > 0 in
    order: the min over x̂^n of log2 p' + lam d, less log2 p.  A block on
    whose row p' vanishes anywhere gives -inf.  It overwrites the table
    with its logarithm, so the call holds no second full table."""
    support = source.probs > 0.0
    with np.errstate(divide="ignore"):  # log2 0 = -inf where p' = 0
        log_pp = np.log2(p_prime, out=p_prime)
    return np.min(log_pp + lam * distortion.values, axis=1)[support] - \
        np.log2(source.probs[support])


def check_feasibility(cert: DualCertificate, source: BlockSource,
                      distortion: DistortionTensor) -> FeasibilityReport:
    """Verify the certificate's constraint in the log domain.

    Checks every p' factor's per-context normalization and, on every source
    block with p > 0, that log2 gamma stays within the closed form's
    largest feasible value (``_log2_gamma_bound``).  The largest excess (in
    bits, and 0 when there is none) is ``max_violation``, at most
    ``FEASIBILITY_TOL`` when feasible; p' = 0 on any pair of such a block
    gives an infinite violation.  The source and the distortion tensor must
    have the certificate's n and alphabets.
    """
    _check_dims("certificate", cert, source, "the source has")
    _check_dims("certificate", cert, distortion, "the distortion tensor is for")
    # the kernel's factors are mutable, so checked again; np.max, unlike max, keeps a NaN
    norm_err = float(np.max([np.max(np.abs(f.sum(axis=-1) - 1.0)) for f in cert.p_prime.factors]))
    excess = np.log2(cert.gamma[source.probs > 0.0]) - \
        _log2_gamma_bound(cert.p_prime_table, cert.lam, source, distortion)
    viol = float(np.max(excess, initial=0.0))
    return FeasibilityReport(feasible=viol <= FEASIBILITY_TOL and norm_err <= NORM_TOL * 10,
                             max_violation=viol, max_normalization_error=norm_err)


def certificate_from_solution(point: RatePoint, source: BlockSource,
                              distortion: DistortionTensor) -> DualCertificate:
    """Assemble a feasible certificate from a converged solver state.

    p' is the delay-0 kernel of the reverse causal factorization of the
    point's joint p * r, r its channel, and gamma the closed form's largest
    feasible value for that p' (1 on blocks with p = 0), so the certificate
    is feasible by construction.  The point's kernel q* factors that joint, so with every
    context live gamma = 1 / (rows max_x̂ c), c = q* / q, and in exact
    arithmetic the objective lies in [R - F/n, R]; underflowed kernel
    entries can leave it looser.  Where the solve's joint underflowed p'
    can vanish on a pair whose source block has mass; no positive gamma is
    feasible there and ``ValueError`` says so.  The source and the
    distortion tensor must have the point kernel's n and alphabets.
    """
    q_star = point.kernel
    _check_dims("solution kernel", q_star, source, "the source has")
    _check_dims("solution kernel", q_star, distortion, "the distortion tensor is for")
    if q_star.delay != 1 or q_star.ff_map is not None:
        raise ValueError("certificates require a delay-1 solve without a feed-forward map")
    n, A = source.n, source.src_alphabet_size
    B = q_star.rec_alphabet_size
    joint = point.channel.probs * source.probs[:, None]
    p_prime = CausalKernel(n, 0, B, A, reverse_causal_factors(joint, n, A, B))
    log_gamma = _log2_gamma_bound(p_prime.table.T, point.lam, source, distortion)
    if np.isneginf(log_gamma).any():
        raise ValueError("p' vanished where the source has mass: the solve's joint "
                         "underflowed, and no positive gamma is feasible")
    gamma = np.ones(A**n)
    gamma[source.probs > 0.0] = np.exp2(log_gamma)
    return DualCertificate(lam=point.lam, n=n, src_alphabet_size=A, rec_alphabet_size=B,
                           gamma=gamma, p_prime=p_prime)


def _anderson(g, x: np.ndarray, iters: int, tol: float) -> np.ndarray:
    """Fixed point of g by Anderson acceleration from x (Walker & Ni 2011).

    Each step evaluates g at the iterate and proposes the extrapolation from
    the last ``ANDERSON_MEMORY`` differences of residuals g(x) - x and of
    iterates; a proposal that leaves the positive orthant is replaced by the
    plain step g(x).  Stops after ``iters`` steps, or at g(x) once the
    residual is below ``tol`` entrywise.  The differences are kept as the
    columns of two arrays, oldest first, each computed once when its step is
    taken.
    """
    dF, dX = (np.empty((x.size, ANDERSON_MEMORY)) for _ in range(2))
    m = 0
    f_prev = x_prev = None
    for _ in range(iters):
        gx = g(x)
        f = gx - x
        if float(np.max(np.abs(f))) < tol:
            return gx
        if f_prev is not None:
            if m == ANDERSON_MEMORY:
                dF[:, :-1] = dF[:, 1:]
                dX[:, :-1] = dX[:, 1:]
            else:
                m += 1
            np.subtract(f, f_prev, out=dF[:, m - 1])
            np.subtract(x, x_prev, out=dX[:, m - 1])
        f_prev, x_prev = f, x
        if m == 0:
            x = gx
            continue
        coef, *_ = np.linalg.lstsq(dF[:, :m], f, rcond=None)
        x_new = x + f - (dX[:, :m] + dF[:, :m]) @ coef
        # min is NaN, and so not positive, when any entry is NaN
        if x_new.min() > 0.0 and np.isfinite(x_new.max()):
            x = x_new
        else:
            x = gx  # fall back to the plain step if acceleration leaves the domain
    return x


def reconstruct_channel(cert: DualCertificate, source: BlockSource) -> ForwardChannel:
    """A forward channel that a tight certificate's p' reproduces.

    The pair (r*, q*) at the optimum satisfies r* = p' q* / p row-wise, and
    q* is the causal kernel of p * r*; the channel is found as a fixed point
    of that pair of relations, iterated from the uniform kernel.  Where the
    joint gives a context no mass, p' is the reverse factorization's
    uniform fill, so the map can have another fixed point, which the checks
    below, blind to d, pass (ROADMAP defect (g)).  Kernel entries off the
    optimal support head to 0, where the plain map's tail is slow, so the
    accelerated iteration runs in the log domain, on y = 1 - log2 q of the
    kernel's context table (y >= 1 while q <= 1).

    The certificate must be tight for this source, which two checks test
    (``NonTightCertificateError`` otherwise).  The rows of p' q / p must sum
    to one to within ``TIGHT_TOL``.  And wherever the channel has mass a
    tight certificate has p' = p gamma 2^{-lam d} <= p gamma, so the excess
    E_{p r}[(log2(p' / (p gamma)))^+] in bits, at most the stopping
    statistic F of the solve behind the certificate, must not exceed
    ``TIGHT_TOL``; a certificate for another source can pass the row test
    and still fail this one.
    """
    _check_dims("certificate", cert, source, "the source has")
    n, A, B = cert.n, cert.src_alphabet_size, cert.rec_alphabet_size
    ctx = _Contexts.of(n, A, B, 1, None)
    p = source.probs
    support = p > 0.0
    # rows off the source support carry no joint mass: keep them finite
    weight = np.where(support[:, None], cert.p_prime_table, 1.0)

    q = np.full((1, A ** (n - 1), B**n), float(B) ** (-n))  # a stack of one
    ws = _Workspace(ctx, 1)  # every step below writes into it
    # Plain iteration first: the map contracts toward the fixed point but its
    # linearization has unit eigenvalues along a manifold of equal-objective
    # kernels, so the tail is far too slow on its own.  A short warm start
    # gets into the basin; Anderson acceleration then removes the degenerate
    # slow modes and converges in a handful of extra steps.
    warmup = 200
    for _ in range(warmup):
        q = _step_stack(q, weight, p, ctx, ws)

    # Anderson acceleration on y = 1 - log2 q.  On q its proposals for the
    # entries that head to 0 turn negative and are refused; on y every
    # proposal is a positive kernel, and the guard's y > 0 only asks q < 2.
    tiny = np.finfo(float).tiny

    def to_y(table):
        return 1.0 - np.log2(np.maximum(table, tiny)).ravel()

    def to_q(y):
        return np.exp2(1.0 - y).reshape(q.shape)

    y = _anderson(lambda y: to_y(_step_stack(to_q(y), weight, p, ctx, ws)),
                  to_y(q), RECONSTRUCT_MAX_ITERS - warmup, RECONSTRUCT_TOL)
    channel, rows = _channel(to_q(y)[0], weight, ctx)
    channel[~support] = float(B) ** (-n)
    # "not <=" so that a NaN channel is refused too
    worst = float(np.max(np.abs(rows[support] - p[support]) / p[support]))
    if not worst <= TIGHT_TOL:
        raise NonTightCertificateError(
            f"certificate is not tight: channel rows deviate by {worst:.3e}")
    with np.errstate(divide="ignore"):  # log2 0 = -inf where p' = 0 is no excess
        ratio = np.log2(weight[support] / (p * cert.gamma)[support, None])
    joint = p[support, None] * channel[support]
    excess = float(np.sum(joint * np.maximum(ratio, 0.0)))
    if not excess <= TIGHT_TOL:
        raise NonTightCertificateError(
            f"certificate is not tight: p' exceeds p * gamma by {excess:.3e} bits "
            "on the channel's support")
    return ForwardChannel(n=n, src_alphabet_size=A, rec_alphabet_size=B, probs=channel)
