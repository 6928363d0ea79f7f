"""Closed-form rate-distortion baselines used as ground truth in tests.

All formulas clamp at zero rate: rates are nonnegative by definition, and each
expression goes negative past its zero-rate distortion threshold.
"""

from __future__ import annotations

import numpy as np

from .prob import binary_entropy


def _check_probabilities(**values: float) -> None:
    for name, value in values.items():
        # every comparison with NaN is false, so NaN is refused too
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


def iid_binary_rd(p: float, D: float) -> float:
    """R(D) = H_b(p) - H_b(D) for a Bernoulli(p) source under Hamming
    distortion, valid (and clamped at) 0 <= D <= min(p, 1-p)."""
    _check_probabilities(bias=p)
    if D < 0:
        raise ValueError("distortion must be >= 0")
    if D >= min(p, 1.0 - p):
        return 0.0
    return max(binary_entropy(p) - binary_entropy(D), 0.0)


def markov_rn(p: float, q: float, n: int, D: float) -> float:
    """Block rate-distortion of a binary Markov source with feed-forward at
    delay 1.

    For the chain with P(0->1) = p, P(1->0) = q and stationary pi, under
    Hamming distortion,

        R_n(D) = (1/n) H_b(pi_1) + ((n-1)/n)(pi_0 H_b(p) + pi_1 H_b(q)) - H_b(D),

    clamped at zero.  That is H(X^n)/n - H_b(D), a lower bound on the rate
    at every delay.  It is attained only at delay 1, for small enough D (the
    tests check D <= 0.2 on the 0.3/0.2 chain).  At longer delays the
    decoder sees less of the source and the rate is higher: at n=2, delay 2,
    lam=4.26 the certified lower bound is 0.25261 against 0.24955 here.
    ``n`` is a whole number >= 1, or np.inf for the limiting curve.
    """
    _check_probabilities(p=p, q=q)
    if p + q == 0.0:
        raise ValueError("p + q must be > 0: a chain that never moves has no stationary pi")
    if not (n == np.inf or (float(n).is_integer() and n >= 1)):
        raise ValueError(f"block length must be a whole number >= 1 or inf, got {n!r}")
    if D < 0:
        raise ValueError("distortion must be >= 0")
    if D > 0.5:
        return 0.0
    pi0 = q / (p + q)
    pi1 = p / (p + q)
    ent_rate = pi0 * binary_entropy(p) + pi1 * binary_entropy(q)
    if np.isinf(n):
        val = ent_rate - binary_entropy(D)
    else:
        val = binary_entropy(pi1) / n + (n - 1) / n * ent_rate - binary_entropy(D)
    return max(val, 0.0)


def stock_market_rd(q: float, pi0: float, D: float) -> float:
    """Limiting rate-distortion for the drop-warning source.

    (1 - pi0)(H_b(q) - H_b(D / (1 - pi0))) for D <= (1 - pi0) * min(q, 1-q),
    zero otherwise; ``q`` is the drop probability and ``pi0`` the stationary
    mass of the state from which no drop can occur.  At pi0 = 1 there is no
    active state and the rate is 0.
    """
    _check_probabilities(q=q, pi0=pi0)
    if D < 0:
        raise ValueError("distortion must be >= 0")
    if pi0 == 1.0:
        return 0.0
    active = 1.0 - pi0
    eps = D / active
    if eps >= min(q, 1.0 - q):
        return 0.0
    return max(active * (binary_entropy(q) - binary_entropy(eps)), 0.0)


def inverse_binary_entropy(h: float) -> float:
    """The p in [0, 1/2] with H_b(p) = h, to within 1e-14.

    H_b increases on [0, 1/2], so the root is bisected there until the
    bracket is at most 1e-14 wide, about 46 halvings."""
    if not 0.0 <= h <= 1.0:
        raise ValueError("entropy must lie in [0, 1]")
    if h == 0.0:
        return 0.0
    if h == 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if binary_entropy(mid) < h:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
