"""Sweeping the rate-distortion curve over the Lagrange weight and utilities
built on swept curves: interpolation, the cross-order distortion estimator,
and the block-additivity check."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .models import DistortionSpec, SourceSpec, block_pmf, distortion_tensor
from .prob import CausalKernel, _context_factors, _Contexts
from .solver import RatePoint, SolverConfig, _solve_lockstep, solve


def default_lambda_grid(count: int = 24, low: float = 2.0**-3, high: float = 2.0**5) -> np.ndarray:
    """Log-spaced Lagrange weights covering near-flat to near-vertical slopes."""
    return np.geomspace(low, high, count)


@dataclass(frozen=True)
class RdCurve:
    """A swept rate-distortion curve: points sorted by distortion ascending.

    Points with nearly equal distortion (within 1e-9) are deduplicated,
    keeping the lower rate.  Non-converged points are retained but flagged.
    """

    n: int
    points: tuple = field(repr=False)
    configs: tuple = field(default=(), repr=False)

    @property
    def D(self) -> np.ndarray:
        return np.array([pt.D for pt in self.points])

    @property
    def R(self) -> np.ndarray:
        return np.array([pt.R for pt in self.points])

    def converged_points(self) -> tuple:
        return tuple(pt for pt in self.points if pt.converged)


def _dedup_sorted(points: list[RatePoint]) -> list[RatePoint]:
    points = sorted(points, key=lambda pt: (pt.D, pt.R))
    out: list[RatePoint] = []
    for pt in points:
        if out and abs(pt.D - out[-1].D) < 1e-9:
            continue  # sorted order guarantees the kept point has the lower R
        out.append(pt)
    return out


#: Share of the uniform kernel mixed into a warm start.  It keeps the start
#: strictly positive; without it abandoned branches stay at exact zero and
#: neighbouring zero-rate points land on the same distortion.  A larger
#: share only costs iterations (1e-2 cost 19% more than 1e-6 on the
#: benchmark's sweeps).
WARM_START_MIX = 1e-6


def _warm_start(kernel: CausalKernel) -> CausalKernel:
    """``kernel`` mixed with the uniform kernel by WARM_START_MIX.

    Causal conditioning is a set of linear constraints on the table, so the
    mixture is again a causal kernel; its factors are those of the mixture
    spread over a uniform source.
    """
    n, A, B = kernel.n, kernel.src_alphabet_size, kernel.rec_alphabet_size
    table = (1.0 - WARM_START_MIX) * kernel.probs + WARM_START_MIX * float(B) ** (-n)
    ctx = _Contexts.of(n, A, B, kernel.delay, kernel.ff_map)
    mixed, factors, _ = _context_factors((table / float(A) ** n)[None], ctx)
    return CausalKernel(n, kernel.delay, A, B, ctx.full(mixed[0]),
                        tuple(f[0] for f in factors), kernel.ff_map)


#: Cells (|X|^n * |X̂|^n per point) of the stack of cold points ``sweep``
#: steps together.  Per point, a step of a stack this large costs a fraction
#: of a lone step at n <= 6, where numpy's per-call overhead dominates;
#: tables of this size or more are solved one at a time (``BENCH_8.json``,
#: ``budget``).
_STACK_CELLS = 2**14


def sweep(source_spec: SourceSpec, distortion_spec: DistortionSpec, n: int,
          lambda_grid=None, config: SolverConfig | None = None,
          initial_context=None) -> RdCurve:
    """Solve every Lagrange weight of the grid and merge the points into a curve.

    The weights are solved from the largest down, each from the uniform
    kernel, until a point's certified lower bound reaches zero.  Its sandwich
    then contains rate 0, and so does every smaller weight's; from there on
    each point starts from the previous one's kernel mixed with the uniform
    kernel (``WARM_START_MIX``), which needs far fewer iterations on the
    flat part of the curve.  Points above that one are exactly the cold
    solves.  A weight listed twice is solved once.

    The cold solves are independent, so they run in lockstep
    (``solver._solve_lockstep``): as many weights at a time, largest first,
    as fit ``_STACK_CELLS`` table cells, and at least one.  Once a point of
    the stack certifies rate 0, the smaller weights leave it and the warm
    chain takes over.  Every point is bit for bit the one a solve of its
    own gives.

    ``config`` supplies everything but the weight (tolerance, iteration cap,
    delay, feed-forward map); ``initial_context`` is passed to the
    distortion-tensor builder for windowed measures.
    """
    if lambda_grid is None:
        lambda_grid = default_lambda_grid()
    base = config if config is not None else SolverConfig(lam=0.0)
    source = block_pmf(source_spec, n)
    dist = distortion_tensor(distortion_spec, n, initial_context)
    lams = [float(lam) for lam in lambda_grid]
    order = sorted(set(lams), reverse=True)
    width = max(1, _STACK_CELLS // dist.values.size)
    solved: dict[float, RatePoint] = {}
    start = None
    while start is None and len(solved) < len(order):
        chunk = order[len(solved):len(solved) + width]
        points = _solve_lockstep(source, dist, [replace(base, lam=lam) for lam in chunk],
                                 [None] * len(chunk))
        for lam, pt in zip(chunk, points):
            if pt is None:
                break
            solved[lam] = pt
            if pt.lower_bound <= 0.0:
                start = _warm_start(pt.kernel)
    for lam in order[len(solved):]:
        pt = solve(source, dist, replace(base, lam=lam), initial_kernel=start)
        solved[lam] = pt
        start = _warm_start(pt.kernel)
    deduped = _dedup_sorted([solved[lam] for lam in lams])
    return RdCurve(n=n, points=tuple(deduped),
                   configs=tuple(replace(base, lam=pt.lam) for pt in deduped))


def _monotone_rd(curve: RdCurve):
    """(R ascending, D aligned) arrays from the converged points."""
    pts = curve.converged_points()
    if len(pts) < 2:
        raise ValueError("curve needs at least two converged points")
    R = np.array([pt.R for pt in pts])[::-1]  # D ascending => R descending
    D = np.array([pt.D for pt in pts])[::-1]
    keep = np.concatenate([[True], np.diff(R) > 0])
    return R[keep], D[keep]


def distortion_at_rate(curve: RdCurve, rate: float) -> float:
    """Piecewise-linear interpolation of D as a function of R."""
    R, D = _monotone_rd(curve)
    if not R[0] <= rate <= R[-1]:
        raise ValueError(f"rate {rate} outside curve range [{R[0]:.6g}, {R[-1]:.6g}]")
    return float(np.interp(rate, R, D))


def rate_at_distortion(curve: RdCurve, D: float) -> float:
    """Piecewise-linear interpolation of R as a function of D."""
    pts = curve.converged_points()
    if len(pts) < 2:
        raise ValueError("curve needs at least two converged points")
    Ds = np.array([pt.D for pt in pts])
    Rs = np.array([pt.R for pt in pts])
    keep = np.concatenate([[True], np.diff(Ds) > 0])
    Ds, Rs = Ds[keep], Rs[keep]
    if not Ds[0] <= D <= Ds[-1]:
        raise ValueError(f"distortion {D} outside curve range [{Ds[0]:.6g}, {Ds[-1]:.6g}]")
    return float(np.interp(D, Ds, Rs))


def rate_estimator(curve_n: RdCurve, curve_n_minus_1: RdCurve, rate_grid) -> np.ndarray:
    """Refined distortion estimate n*D_n(R) - (n-1)*D_{n-1}(R) on a rate grid.

    The leading 1/n excess of the block curve cancels between consecutive
    orders, leaving an estimate much closer to the limiting curve than either
    input.
    """
    if curve_n.n != curve_n_minus_1.n + 1:
        raise ValueError("curves must have consecutive block lengths")
    n = curve_n.n
    grid = np.asarray(rate_grid, dtype=float)
    Dn = np.array([distortion_at_rate(curve_n, r) for r in grid])
    Dm = np.array([distortion_at_rate(curve_n_minus_1, r) for r in grid])
    return n * Dn - (n - 1) * Dm


@dataclass(frozen=True)
class SubadditivityReport:
    holds: bool
    worst_margin: float
    violations: tuple


def subadditivity_check(values: dict, tol: float = 1e-4) -> SubadditivityReport:
    """Check (n+l)*R_{n+l} <= n*R_n + l*R_l + tol over all available pairs.

    ``values`` maps block length n to the rate R_n at a common distortion.
    The worst margin reported is max over pairs of the left side minus the
    right side (negative when the inequality is comfortably satisfied).
    """
    ns = sorted(values)
    worst = -np.inf
    violations = []
    for n in ns:
        for l in ns:
            if n + l not in values:
                continue
            margin = (n + l) * values[n + l] - n * values[n] - l * values[l]
            worst = max(worst, margin)
            if margin > tol:
                violations.append((n, l, margin))
    return SubadditivityReport(holds=not violations, worst_margin=float(worst),
                               violations=tuple(violations))
