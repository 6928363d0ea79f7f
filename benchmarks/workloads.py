"""The benchmark's workloads: their inputs, the timed library calls, and the
correctness check on every operation.

An operation is one solved lambda point, one certificate, one reconstruction
or one ``monte_carlo`` call.  ``run`` makes the library calls and is the
only timed part; ``check`` turns their results into ``Op`` records and
notes each failed check without raising.  Reference values come from a
``References`` object so that a test can hand in a wrong one.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

import ffrd

MARKOV = ffrd.SourceSpec.binary_markov(0.3, 0.2)
TERNARY = ffrd.SourceSpec.markov([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]])
HAMMING = ffrd.DistortionSpec.hamming()
STOCK = ffrd.DistortionSpec.stock()

# Distance allowed between the closed-form Markov curve and the certified
# sandwich [lower, upper]; they agree to about 1e-8 at n = 8.
MARKOV_RN_SLACK = 1e-8
# Rounding allowed in identities that hold exactly in real arithmetic.
FLOAT_SLACK = 1e-12
# The lambda bisection stops within 1e-4 of the target distortion; the iid
# curve's slope at D = 0.25 is log2(3), so the rate is good to 1.6e-4.
SIM_RATE_TOL = 2e-4
# Empirical distortion of a finite-length code may miss the target by up to
# this share of it, plus four standard errors.
SIM_DISTORTION_SHARE = 0.15
# A reconstructed channel must match the solver's entrywise to this.
RECONSTRUCT_TOL = 1e-6


@dataclass(frozen=True)
class References:
    """Closed-form curves the checks compare against."""

    markov_rn: Callable = ffrd.markov_rn
    iid_binary_rd: Callable = ffrd.iid_binary_rd


@dataclass
class Op:
    """One checked operation: the values it produced and the failed checks."""

    key: str
    seconds: float
    record: dict
    failures: list = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[], object]  # builds the inputs
    run: Callable[[object, int], list]  # (inputs, seed) -> [(key, seconds, result)]
    check: Callable[[list, object, References], list]  # -> [Op]
    known_defects: dict = field(default_factory=dict)  # op key -> reason


def _call(calls: list, key: str, fn, *args):
    """Time one library call; an exception becomes its result, not a crash."""
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # a failed operation is counted, never fatal
        result = exc
    calls.append((key, time.perf_counter() - t0, result))
    return result


def _point_op(key: str, seconds: float, pt, source, dist, config) -> Op:
    """Record a solved point and check convergence, the bound gap identity
    and that D is the distortion of the returned channel."""
    n = source.n
    op = Op(key, seconds, {
        "lam": pt.lam, "R": pt.R, "D": pt.D, "F_final": pt.F_final,
        "lower_bound": pt.lower_bound, "upper_bound": pt.upper_bound,
        "iterations": pt.iterations, "converged": pt.converged,
        "rate_tol": config.epsilon / n,
    })
    if not pt.converged:
        op.failures.append(f"not converged after {pt.iterations} iterations")
    gap = (pt.upper_bound - pt.lower_bound) - pt.F_final / n
    if abs(gap) > FLOAT_SLACK:
        op.failures.append(f"upper - lower differs from F/n by {gap:.3e}")
    D = float((source.probs[:, None] * pt.channel.probs * dist.values).sum())
    if abs(D - pt.D) > FLOAT_SLACK:
        op.failures.append(f"reported D {pt.D} but the channel gives {D}")
    return op


def _markov_check(op: Op, n: int, refs: References) -> None:
    """Markov(0.3, 0.2)/Hamming: the closed form lies in the sandwich for D <= 0.2."""
    r = op.record
    if r["D"] > 0.2:
        return
    ref = refs.markov_rn(0.3, 0.2, n, r["D"])
    if not r["lower_bound"] - MARKOV_RN_SLACK <= ref <= r["upper_bound"] + MARKOV_RN_SLACK:
        op.failures.append(f"markov_rn {ref} outside [{r['lower_bound']}, {r['upper_bound']}]")


# --- sweep ---------------------------------------------------------------------

@dataclass(frozen=True)
class Curve:
    key: str
    source: ffrd.SourceSpec
    dist: ffrd.DistortionSpec
    n: int
    grid: np.ndarray
    config: ffrd.SolverConfig
    initial_context: object = None
    markov_hamming: bool = False  # Markov(0.3, 0.2) source, Hamming distortion


def _sweep_curves(tiny: bool) -> tuple[Curve, ...]:
    eps = ffrd.SolverConfig(lam=0.0, epsilon=1e-6)
    n_bin, n_ter = (3, 2) if tiny else (6, 3)
    grid = ffrd.default_lambda_grid(6 if tiny else 24)
    return (
        Curve(f"markov-hamming-n{n_bin}", MARKOV, HAMMING, n_bin, grid, eps,
              markov_hamming=True),
        Curve(f"markov-stock-n{n_bin}-delay2", MARKOV, STOCK, n_bin, grid,
              replace(eps, delay=2), initial_context=[0.4, 0.6]),
        Curve(f"ternary-parity-n{n_ter}", TERNARY, ffrd.DistortionSpec.hamming(3), n_ter,
              ffrd.default_lambda_grid(4 if tiny else 8),
              replace(eps, feedforward_map=ffrd.FeedForwardMap.parity(3))),
    )


def sweep_workload(tiny: bool = False) -> Workload:
    curves = _sweep_curves(tiny)

    def setup():
        return [(ffrd.block_pmf(c.source, c.n),
                 ffrd.distortion_tensor(c.dist, c.n, c.initial_context)) for c in curves]

    def run(inputs, seed):
        calls: list = []
        for c in curves:
            _call(calls, c.key, ffrd.sweep, c.source, c.dist, c.n, c.grid, c.config,
                  c.initial_context)
        return calls

    def check(calls, inputs, refs):
        ops = []
        for c, (source, dist), (key, seconds, curve) in zip(curves, inputs, calls):
            if isinstance(curve, Exception):
                ops.append(Op(key, seconds, {}, [f"sweep raised {curve!r}"]))
                continue
            curve_ops = []
            for pt, cfg in zip(curve.points, curve.configs):
                op = _point_op(f"{key}/lam={pt.lam:.6g}", seconds, pt, source, dist, cfg)
                if c.markov_hamming:
                    _markov_check(op, c.n, refs)
                curve_ops.append(op)
            # Points come sorted by D; R may not rise by more than the
            # certified precision between neighbours.
            for prev, op in zip(curve_ops, curve_ops[1:]):
                rise = op.record["R"] - prev.record["R"]
                if rise > op.record["rate_tol"]:
                    op.failures.append(f"R rises by {rise:.3e} as D grows")
            ops.extend(curve_ops)
        return ops

    return Workload("sweep", setup, run, check)


# --- certify -------------------------------------------------------------------

def certify_workload(tiny: bool = False) -> Workload:
    n, n_rec = (3, 3) if tiny else (8, 5)
    # (block length, solver config, check of the steps after the solve)
    cases = [(n, ffrd.SolverConfig(lam=lam, epsilon=1e-6), _certificate_op)
             for lam in (4.0, 9.216, 24.0)]
    cases.append((n_rec, ffrd.SolverConfig(lam=9.0, epsilon=1e-10), _reconstruct_op))

    def setup():
        return {m: (ffrd.block_pmf(MARKOV, m), ffrd.distortion_tensor(HAMMING, m))
                for m in {n, n_rec}}

    def run(inputs, seed):
        calls: list = []
        for m, cfg, follow in cases:
            source, dist = inputs[m]
            key = f"n{m}/lam={cfg.lam:g}"
            pt = _call(calls, key, ffrd.solve, source, dist, cfg)
            if isinstance(pt, Exception):
                continue
            cert = _call(calls, key + "/certificate", ffrd.certificate_from_solution,
                         pt, source, dist)
            if isinstance(cert, Exception):
                continue
            if follow is _certificate_op:
                _call(calls, key + "/feasibility", ffrd.check_feasibility, cert, source, dist)
                _call(calls, key + "/objective", ffrd.dual_objective, cfg.lam, cert.gamma,
                      source, pt.D)
            else:
                _call(calls, key + "/reconstruct", ffrd.reconstruct_channel, cert, source)
        return calls

    def check(calls, inputs, refs):
        results = {key: (seconds, value) for key, seconds, value in calls}
        ops = []
        for m, cfg, follow in cases:
            source, dist = inputs[m]
            key = f"n{m}/lam={cfg.lam:g}"
            seconds, pt = results[key]
            if isinstance(pt, Exception):
                ops.append(Op(key, seconds, {}, [f"solve raised {pt!r}"]))
                continue
            op = _point_op(key, seconds, pt, source, dist, cfg)
            _markov_check(op, m, refs)
            ops.extend([op, follow(key, results, pt, source)])
        return ops

    known = {} if tiny else {
        "n8/lam=4/certificate":
            "gamma is all NaN: q_next / q_star is 0/0 on underflowed kernel entries, "
            "yet check_feasibility reports feasible",
        "n5/lam=9/reconstruct":
            "ROADMAP defect (a): NonTightCertificateError on a tight certificate",
    }
    return Workload("certify", setup, run, check, known)


def _certificate_op(key: str, results: dict, pt, source) -> Op:
    """A certificate must have finite gamma, be feasible, and have a dual
    objective in [R - F/n, R]; check_feasibility alone is not trusted."""
    parts = [results.get(f"{key}/{step}", (0.0, None))
             for step in ("certificate", "feasibility", "objective")]
    seconds = sum(s for s, _ in parts)
    (_, cert), (_, feas), (_, obj) = parts
    op = Op(key + "/certificate", seconds, {})
    for (_, value), step in zip(parts, ("certificate", "feasibility", "objective")):
        if isinstance(value, Exception):
            op.failures.append(f"{step} raised {value!r}")
    if op.failures:
        return op
    finite = bool(np.all(np.isfinite(cert.gamma)))
    low = pt.R - pt.F_final / source.n
    op.record = {"lam": cert.lam, "gamma_finite": finite, "feasible": feas.feasible,
                 "max_violation": feas.max_violation, "dual_objective": obj,
                 "objective_window": [low, pt.R]}
    if not finite:
        op.failures.append("gamma has non-finite entries")
    if not feas.feasible:
        op.failures.append(f"infeasible (max violation {feas.max_violation:.3e})")
    if not low - FLOAT_SLACK <= obj <= pt.R + FLOAT_SLACK:
        op.failures.append(f"dual objective {obj} outside [{low}, {pt.R}]")
    return op


def _reconstruct_op(key: str, results: dict, pt, source) -> Op:
    """Reconstruction must succeed and give back the solver's channel."""
    cert_s, cert = results.get(key + "/certificate", (0.0, None))
    rec_s, channel = results.get(key + "/reconstruct", (0.0, None))
    op = Op(key + "/reconstruct", cert_s + rec_s, {})
    for value, step in ((cert, "certificate"), (channel, "reconstruct")):
        if isinstance(value, Exception):
            op.failures.append(f"{step} raised {value!r}")
    if not op.failures:
        err = float(np.max(np.abs(channel.probs - pt.channel.probs)))
        op.record = {"max_channel_error": err}
        if err > RECONSTRUCT_TOL:
            op.failures.append(f"channel differs from the solver's by {err:.3e}")
    return op


# --- simulate ------------------------------------------------------------------

@dataclass(frozen=True)
class Simulation:
    key: str
    source: ffrd.SourceSpec
    dist: ffrd.DistortionSpec
    n: int
    L: int
    delta: float
    trials: int
    target_D: float
    iid_half: bool = False  # iid(0.5) source with Hamming distortion


def simulate_workload(tiny: bool = False) -> Workload:
    L_iid, L_stock = (8, 8) if tiny else (18, 12)
    sims = (
        Simulation(f"iid-hamming-L{L_iid}", ffrd.SourceSpec.iid(0.5), HAMMING, 2, L_iid,
                   0.15, 200 if tiny else 2000, 0.25, iid_half=True),
        Simulation(f"markov-stock-L{L_stock}", MARKOV, STOCK, 2, L_stock, 0.1,
                   200 if tiny else 1000, 0.08),
    )

    def setup():
        return [(ffrd.block_pmf(s.source, s.n), ffrd.distortion_tensor(s.dist, s.n))
                for s in sims]

    def run(inputs, seed):
        calls: list = []
        for s in sims:
            _call(calls, s.key, ffrd.monte_carlo, s.source, s.dist, s.n, s.L, s.delta,
                  s.trials, seed, s.target_D)
        return calls

    def check(calls, inputs, refs):
        ops = []
        for s, (key, seconds, rep) in zip(sims, calls):
            if isinstance(rep, Exception):
                ops.append(Op(key, seconds, {}, [f"monte_carlo raised {rep!r}"]))
                continue
            op = Op(key, seconds, {
                "R": rep.rate, "rate_tol": SIM_RATE_TOL, "codebook_size": rep.codebook_size,
                "mean_distortion": rep.mean_distortion, "stderr": rep.stderr,
                "target_D": rep.target_D})
            size = max(math.floor(2.0 ** (s.L * (rep.rate + s.delta))), 1)
            if rep.codebook_size != size:
                op.failures.append(f"codebook_size {rep.codebook_size}, expected {size}")
            margin = SIM_DISTORTION_SHARE * s.target_D + 4 * rep.stderr
            if abs(rep.mean_distortion - s.target_D) > margin:
                op.failures.append(f"mean distortion {rep.mean_distortion} is more than "
                                   f"{margin:.4f} from {s.target_D}")
            if s.iid_half:
                ref = refs.iid_binary_rd(0.5, s.target_D)
                if abs(rep.rate - ref) > SIM_RATE_TOL:
                    op.failures.append(f"rate {rep.rate} differs from iid_binary_rd {ref}")
            ops.append(op)
        return ops

    return Workload("simulate", setup, run, check)


BUILDERS = {"sweep": sweep_workload, "certify": certify_workload,
            "simulate": simulate_workload}
