"""Sweeping the rate-distortion curve over the Lagrange weight and utilities
built on swept curves: interpolation, the cross-order distortion estimator,
and the block-additivity check."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .models import DistortionSpec, SourceSpec, block_pmf, distortion_tensor
from .solver import RatePoint, SolverConfig, _solve_lockstep


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
    out: list[RatePoint] = []
    for pt in sorted(points, key=lambda pt: (pt.D, pt.R)):
        # sorted order guarantees the kept point has the lower R
        if not (out and abs(pt.D - out[-1].D) < 1e-9):
            out.append(pt)
    return out


def sweep(source_spec: SourceSpec, distortion_spec: DistortionSpec, n: int,
          lambda_grid=None, config: SolverConfig | None = None,
          initial_context=None) -> RdCurve:
    """Solve every Lagrange weight of the grid and merge the points into a curve.

    The weights are one ``solver._solve_lockstep`` call, largest first, in
    a rolling stack.  Once a point's lower bound reaches 0 (within epsilon
    / n), so does every smaller weight's: those still running restart from
    its warm start and the rest start from the nearest such point's, which
    needs far fewer iterations on the flat part of the curve than the
    uniform start of the others.  A weight listed twice is solved once.
    The curve keeps one point per distortion (``_dedup_sorted``); of points
    with exactly equal distortion and rate, the larger weight's is kept.

    ``config`` supplies everything but the weight (tolerance, iteration cap,
    delay, feed-forward map); ``initial_context`` is passed to the
    distortion-tensor builder for windowed measures.  An empty grid, or a
    weight that is negative or not finite, raises ``ValueError`` before
    anything is solved.
    """
    if lambda_grid is None:
        lambda_grid = default_lambda_grid()
    lams = [float(lam) for lam in lambda_grid]
    if not lams:
        raise ValueError("lambda_grid must hold at least one weight")
    base = config if config is not None else SolverConfig(lam=0.0)
    configs = [replace(base, lam=lam) for lam in sorted(set(lams), reverse=True)]
    source = block_pmf(source_spec, n)
    dist = distortion_tensor(distortion_spec, n, initial_context)
    deduped = _dedup_sorted(_solve_lockstep(source, dist, configs, [None] * len(configs)))
    return RdCurve(n=source.n, points=tuple(deduped),
                   configs=tuple(replace(base, lam=pt.lam) for pt in deduped))


def _converged_rd(curve: RdCurve):
    """(R, D) rows of the converged points, D ascending."""
    pts = curve.converged_points()
    if len(pts) < 2:
        raise ValueError("curve needs at least two converged points")
    return np.array([[pt.R, pt.D] for pt in pts]).T


def _interp(x: float, xs: np.ndarray, ys: np.ndarray, what: str) -> float:
    """Piecewise-linear interpolation of ys over xs ascending at x; of equal
    xs the first is kept."""
    keep = np.concatenate([[True], np.diff(xs) > 0])
    xs, ys = xs[keep], ys[keep]
    if not xs[0] <= x <= xs[-1]:
        raise ValueError(f"{what} {x} outside curve range [{xs[0]:.6g}, {xs[-1]:.6g}]")
    return float(np.interp(x, xs, ys))


def distortion_at_rate(curve: RdCurve, rate: float) -> float:
    """Piecewise-linear interpolation of D as a function of R."""
    R, D = _converged_rd(curve)[:, ::-1]  # D ascending => R descending
    return _interp(rate, R, D, "rate")


def rate_at_distortion(curve: RdCurve, D: float) -> float:
    """Piecewise-linear interpolation of R as a function of D."""
    R, Ds = _converged_rd(curve)
    return _interp(D, Ds, R, "distortion")


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
