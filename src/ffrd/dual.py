"""Lower-bound certificates for the block rate-distortion value.

A certificate is a triple (lam, gamma, p') with gamma a positive weight per
source block and p' a reverse-direction causal kernel (factors
p'(x_i | x^{i-1}, x̂^i)).  Whenever the feasibility constraint

    p(x^n) * gamma(x^n) * 2^{-lam d(x^n, x̂^n)}  <=  p'(x^n || x̂^n)

holds for every pair of blocks, (1/n)(-lam D + sum_x p log2 gamma) is a valid
lower bound on the optimal rate at distortion D.  Certificates assembled from
a converged solver state are tight: the bound matches the primal rate to
within the solver's stopping threshold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .models import DistortionTensor
from .prob import (
    BlockSource,
    CausalKernel,
    ForwardChannel,
    NORM_TOL,
    _Contexts,
    reverse_causal_factors,
)
from .solver import RatePoint, _channel, _check_lam, _kernel_table, _step


class NonTightCertificateError(ValueError):
    """The certificate does not pin down a channel (constraint slack on the
    support is too large for the reconstruction to normalize)."""


@dataclass(frozen=True)
class DualCertificate:
    """Lower-bound certificate (lam, gamma, p').

    ``p_prime_factors[i-1]`` has axes (x_1..x_i, x̂_1..x̂_i) and rows over x_i
    (axis i-1) summing to one for every context.
    """

    lam: float
    n: int
    src_alphabet_size: int
    rec_alphabet_size: int
    gamma: np.ndarray
    p_prime_factors: tuple = field(repr=False)

    def __post_init__(self):
        _check_lam(self.lam)
        g = np.ascontiguousarray(np.asarray(self.gamma, dtype=float))
        if g.shape != (self.src_alphabet_size**self.n,):
            raise ValueError("gamma must have one entry per source block")
        if not np.all(np.isfinite(g)) or np.any(g <= 0):
            raise ValueError("gamma must be finite and strictly positive")
        object.__setattr__(self, "gamma", g)
        facs = tuple(np.asarray(f, dtype=float) for f in self.p_prime_factors)
        A, B = self.src_alphabet_size, self.rec_alphabet_size
        for i, f in enumerate(facs, start=1):
            if f.shape != (A,) * i + (B,) * i:
                raise ValueError(f"factor {i} has wrong shape {f.shape}")
        object.__setattr__(self, "p_prime_factors", facs)

    @property
    def p_prime_table(self) -> np.ndarray:
        """Dense p'(x^n || x̂^n) over (x^n, x̂^n), product of the factors."""
        A, B, n = self.src_alphabet_size, self.rec_alphabet_size, self.n
        full = np.ones((A,) * n + (B,) * n)
        for i, f in enumerate(self.p_prime_factors, start=1):
            full = full * f.reshape((A,) * i + (1,) * (n - i) + (B,) * i + (1,) * (n - i))
        return full.reshape(A**n, B**n)

    def to_json(self) -> str:
        return json.dumps({
            "lam": self.lam,
            "n": self.n,
            "src_alphabet_size": self.src_alphabet_size,
            "rec_alphabet_size": self.rec_alphabet_size,
            "gamma": self.gamma.tolist(),
            "p_prime_factors": [f.tolist() for f in self.p_prime_factors],
        })

    @staticmethod
    def from_json(text: str) -> "DualCertificate":
        d = json.loads(text)
        return DualCertificate(
            lam=float(d["lam"]), n=int(d["n"]),
            src_alphabet_size=int(d["src_alphabet_size"]),
            rec_alphabet_size=int(d["rec_alphabet_size"]),
            gamma=np.asarray(d["gamma"], dtype=float),
            p_prime_factors=tuple(np.asarray(f, dtype=float) for f in d["p_prime_factors"]),
        )


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    max_violation: float
    max_normalization_error: float


def gamma_from_kernel(kernel: CausalKernel, distortion: DistortionTensor,
                      lam: float) -> np.ndarray:
    """gamma(x^n) = (sum_{x̂^n} q(x̂^n||x^{n-s}) 2^{-lam d})^{-1}.

    The distortion tensor must have the kernel's block length and alphabets.
    """
    _check_shapes("kernel", kernel, distortion=distortion)
    with np.errstate(divide="ignore", invalid="ignore"):
        _, rows = _channel(kernel.probs, np.exp2(-lam * distortion.values))
    if not np.all(rows > 0):
        raise ValueError("kernel must be strictly positive")
    return 1.0 / rows


def dual_objective(lam: float, gamma: np.ndarray, source: BlockSource, D: float) -> float:
    """(1/n)(-lam*D + sum_x p(x^n) log2 gamma(x^n)) in bits per symbol."""
    _check_lam(lam)
    g = np.asarray(gamma, dtype=float)
    if g.shape != source.probs.shape:
        raise ValueError(f"gamma has shape {g.shape}; the source needs one entry per "
                         f"block, shape {source.probs.shape}")
    if not np.all(np.isfinite(g)) or np.any(g <= 0):
        raise ValueError("gamma must be finite and strictly positive")
    return float(-lam * D + source.probs @ np.log2(g)) / source.n


def _check_shapes(what: str, table, source: BlockSource | None = None,
                  distortion: DistortionTensor | None = None) -> None:
    """``ValueError`` naming the mismatch unless the source and the distortion
    tensor, those given, have the block length and alphabets of ``table``
    (a certificate or a kernel), which the message calls ``what``."""
    n, A, B = table.n, table.src_alphabet_size, table.rec_alphabet_size
    if source is not None and (source.n, source.src_alphabet_size) != (n, A):
        raise ValueError(f"{what} is for n={n}, |X|={A}, |X̂|={B}; "
                         f"the source has n={source.n}, |X|={source.src_alphabet_size}")
    if distortion is not None and \
            (distortion.n, distortion.src_alphabet_size, distortion.rec_alphabet_size) != (n, A, B):
        raise ValueError(f"{what} is for n={n}, |X|={A}, |X̂|={B}; the distortion "
                         f"tensor is for n={distortion.n}, |X|={distortion.src_alphabet_size}, "
                         f"|X̂|={distortion.rec_alphabet_size}")


def check_feasibility(cert: DualCertificate, source: BlockSource,
                      distortion: DistortionTensor, tol: float = 1e-9) -> FeasibilityReport:
    """Verify the certificate's constraint in the log domain.

    Checks every factor's per-context normalization and, for each block pair,
    log2 p + log2 gamma - lam*d - log2 p' <= 0.  The largest positive excess
    (in bits) is reported as ``max_violation``; entries where p' = 0 but the
    left side has mass count as infinite violations.  The source and the
    distortion tensor must have the certificate's n and alphabets.
    """
    _check_shapes("certificate", cert, source, distortion)
    norm_err = 0.0
    for i, f in enumerate(cert.p_prime_factors, start=1):
        sums = f.sum(axis=i - 1)
        norm_err = max(norm_err, float(np.max(np.abs(sums - 1.0))))
    pp = cert.p_prime_table
    lhs = source.probs[:, None] * cert.gamma[:, None] * np.exp2(-cert.lam * distortion.values)
    viol = 0.0
    zero_pp = pp <= 0.0
    if np.any(lhs[zero_pp] > 0.0):
        viol = np.inf
    active = lhs > 0.0
    ok = active & ~zero_pp
    if np.any(ok):
        excess = np.log2(lhs[ok]) - np.log2(pp[ok])
        viol = max(viol, float(np.max(excess)))
    viol = max(viol, 0.0)
    return FeasibilityReport(feasible=viol <= tol and norm_err <= NORM_TOL * 10,
                             max_violation=viol, max_normalization_error=norm_err)


def certificate_from_solution(point: RatePoint, source: BlockSource,
                              distortion: DistortionTensor) -> DualCertificate:
    """Assemble a feasible certificate from a converged solver state.

    gamma comes from the final kernel's tilted sums, deflated by the largest
    kernel-update ratio so the constraint holds exactly even short of the
    fixed point; p' is the reverse causal factorization of the final joint.
    The resulting dual objective sits within F/n below the primal rate.  The
    source and the distortion tensor must have the block length and
    alphabets of the point's kernel.
    """
    q_star = point.kernel
    _check_shapes("solution kernel", q_star, source, distortion)
    if q_star.delay != 1 or q_star.ff_map is not None:
        raise ValueError("certificates require a delay-1 solve without a feed-forward map")
    n, A = source.n, source.src_alphabet_size
    B = q_star.rec_alphabet_size
    # Run one more step from the returned kernel: gamma is defined from the
    # kernel that generates the channel, and the deflation needs the ratio of
    # the kernel after that channel to the one before it, over the contexts
    # the joint reaches (elsewhere it can be 0/0 on underflowed entries).
    ctx = _Contexts.of(n, A, B, 1, None)
    st = _step(_kernel_table(q_star, ctx, "solution kernel"),
               np.exp2(-point.lam * distortion.values), source.probs, ctx, distortion.values)
    gamma = np.exp2(-max(st.log_max_c, 0.0)) / st.rows
    _, factors = reverse_causal_factors(st.joint, n, A, B)
    return DualCertificate(lam=point.lam, n=n, src_alphabet_size=A, rec_alphabet_size=B,
                           gamma=gamma, p_prime_factors=tuple(factors))


def _anderson(g, x: np.ndarray, iters: int, tol: float, memory: int = 5) -> np.ndarray:
    """Fixed point of g by Anderson acceleration from x (Walker & Ni 2011).

    Each step evaluates g at the iterate and proposes the extrapolation from
    the last ``memory`` differences of residuals g(x) - x and of iterates;
    a proposal that leaves the positive orthant is replaced by the plain
    step g(x).  Stops after ``iters`` steps, or at g(x) once the residual is
    below ``tol`` entrywise.  The differences are kept as the columns of two
    arrays, oldest first, each computed once when its step is taken.
    """
    dF = np.empty((x.size, memory))
    dX = np.empty((x.size, memory))
    m = 0
    f_prev = x_prev = None
    for _ in range(iters):
        gx = g(x)
        f = gx - x
        if float(np.max(np.abs(f))) < tol:
            return gx
        if f_prev is not None:
            if m == memory:
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


def reconstruct_channel(cert: DualCertificate, source: BlockSource,
                        max_iters: int = 10_000, tol: float = 1e-12,
                        tight_tol: float = 1e-6) -> ForwardChannel:
    """Recover the optimal forward channel from a tight certificate.

    The pair (r*, q*) at the optimum satisfies r* = p' q* / p row-wise, and
    q* is the causal kernel of p * r*; the channel is found as the fixed point
    of that pair of relations, iterated from the uniform kernel.  Kernel
    entries off the optimal support head to 0, where the plain map's tail is
    slow, so the accelerated iteration runs in the log domain, on
    y = 1 - log2 q of the kernel's context table (y >= 1 while q <= 1).

    The certificate must be tight for this source, which two checks test
    (``NonTightCertificateError`` otherwise).  The rows of p' q / p must sum
    to one to within ``tight_tol``.  And wherever the channel has mass a
    tight certificate has p' = p gamma 2^{-lam d} <= p gamma, so the excess
    E_{p r}[(log2(p' / (p gamma)))^+] in bits, at most the stopping
    statistic F of the solve behind the certificate, must not exceed
    ``tight_tol``; a certificate for another source can pass the row test
    and still fail this one.
    """
    _check_shapes("certificate", cert, source)
    n, A, B = cert.n, cert.src_alphabet_size, cert.rec_alphabet_size
    ctx = _Contexts.of(n, A, B, 1, None)
    p = source.probs
    support = p > 0.0
    # rows off the source support carry no joint mass: keep them finite
    weight = np.where(support[:, None], cert.p_prime_table, 1.0)

    q = np.full((A ** (n - 1), B**n), float(B) ** (-n))
    # Plain iteration first: the map contracts toward the fixed point but its
    # linearization has unit eigenvalues along a manifold of equal-objective
    # kernels, so the tail is far too slow on its own.  A short warm start
    # gets into the basin; Anderson acceleration then removes the degenerate
    # slow modes and converges in a handful of extra steps.
    warmup = min(200, max_iters)
    for _ in range(warmup):
        q = _step(q, weight, p, ctx).q_next

    # Anderson acceleration on y = 1 - log2 q.  On q its proposals for the
    # entries that head to 0 turn negative and are refused; on y every
    # proposal is a positive kernel, and the guard's y > 0 only asks q < 2.
    tiny = np.finfo(float).tiny

    def to_y(table):
        return 1.0 - np.log2(np.maximum(table, tiny)).ravel()

    def to_q(y):
        return np.exp2(1.0 - y).reshape(q.shape)

    y = _anderson(lambda y: to_y(_step(to_q(y), weight, p, ctx).q_next), to_y(q),
                  max(0, max_iters - warmup), tol)
    last = _step(to_q(y), weight, p, ctx)
    last.r[~support] = float(B) ** (-n)
    # "not <=" so that a NaN channel is refused too
    worst = float(np.max(np.abs(last.rows[support] - p[support]) / p[support]))
    if not worst <= tight_tol:
        raise NonTightCertificateError(
            f"certificate is not tight: channel rows deviate by {worst:.3e}")
    with np.errstate(divide="ignore"):  # log2 0 = -inf where p' = 0 is no excess
        ratio = np.log2(weight[support] / (p * cert.gamma)[support, None])
    excess = float(np.sum(last.joint[support] * np.maximum(ratio, 0.0)))
    if not excess <= tight_tol:
        raise NonTightCertificateError(
            f"certificate is not tight: p' exceeds p * gamma by {excess:.3e} bits "
            "on the channel's support")
    return ForwardChannel(n=n, src_alphabet_size=A, rec_alphabet_size=B, probs=last.r)


def slope_at(lam: float, n: int) -> float:
    """Slope of the rate-distortion curve at the point swept by lam: -lam/n."""
    _check_lam(lam)
    return -lam / n
