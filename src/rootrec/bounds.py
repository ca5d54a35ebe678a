"""Closed-form error bounds.

The reconstruction-probability sandwich, the leaf-count variance bound,
the weighted-norm Chebyshev bound, the explicit (proof-level) forms of
the two headline error bounds, the exact pinched-star majority error,
and the Wilson interval that empirical error rates are compared through.
Where a bound exceeds 1 it is vacuous; callers can clamp via ``clamp``.
This module is arithmetic alone: it draws no trials.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add
from typing import NamedTuple

from .ctmc import Distribution, total_variation

__all__ = [
    "BoundInputs",
    "recon_upper",
    "recon_lower",
    "variance_bound",
    "chebyshev_star_bound",
    "thm2_general_bound",
    "thm2_valid",
    "prop54_uniform_bound",
    "prop54_valid",
    "clamp",
    "pinched_star_majority_error",
    "wilson_interval",
]


class _Inputs(NamedTuple):
    epsilon: float = 0.0
    n_epsilon: int = 0
    delta_epsilon: float = 0.0
    q_star_epsilon: float = 1.0
    s: float = 0.0
    m: int = 1
    f_star: float = 1.0
    delta_q_hstar: float = 0.0
    q_star: float = 1.0


class BoundInputs(_Inputs):
    """Scalar inputs of the explicit error bounds."""

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if not 0.0 <= self.delta_epsilon <= 1.0:
            raise ValueError("delta_epsilon must lie in [0, 1]")
        if not 0.0 <= self.delta_q_hstar <= 1.0:
            raise ValueError("delta_q_hstar must lie in [0, 1]")
        if not 0.0 < self.f_star <= 1.0:
            raise ValueError("f_star must lie in (0, 1]")
        return self

    @classmethod
    def _make(cls, iterable):
        # through __new__, so that _replace checks its fields too
        return cls(*iterable)


def clamp(value: float) -> float:
    """Clamp a vacuous bound to 1 (error probabilities never exceed it)."""
    return min(value, 1.0)


def recon_upper(prior: Distribution, conditionals: dict) -> float:
    """Best achievable reconstruction probability is at most
    1 - max over state pairs of min prior mass times (1 - TV)."""
    states = sorted(prior.support, key=repr)
    if len(states) < 2:
        raise ValueError("need at least 2 prior-support states")
    worst = 0.0
    for a in range(len(states)):
        for b in range(a + 1, len(states)):
            i1, i2 = states[a], states[b]
            tv = total_variation(conditionals[i1], conditionals[i2])
            worst = max(worst,
                        min(prior.mass(i1), prior.mass(i2)) * (1.0 - tv))
    return 1.0 - worst


def recon_lower(prior: Distribution, conditionals: dict, lam) -> float:
    """Best achievable reconstruction probability is at least the prior
    mass of ``lam``, added in turn (builtin ``sum`` compensates from
    Python 3.12), minus the ordered-pair overlap terms."""
    lam = list(lam)
    if not lam:
        raise ValueError("state subset must be nonempty")
    value = reduce(add, map(prior.mass, lam), 0.0)
    for i1 in lam:
        for i2 in lam:
            if i1 == i2:
                continue
            tv = total_variation(conditionals[i1], conditionals[i2])
            value -= max(prior.mass(i1), prior.mass(i2)) * (1.0 - tv)
    return value


def variance_bound(leaf_count: int, spread: float, q_i: float) -> float:
    """Upper bound on the variance of a leaf-state count:
    |leaves|/4 + 2 (q_i or 1) spread |leaves|^2."""
    if leaf_count < 0 or spread < 0 or q_i < 0:
        raise ValueError("inputs must be nonnegative")
    return leaf_count / 4.0 + 2.0 * max(q_i, 1.0) * spread * leaf_count ** 2


def chebyshev_star_bound(delta_star: float, m: int, q_i: float,
                         s: float) -> float:
    """Chebyshev bound on the weighted-norm deviation of the stretched
    restriction frequencies: 4/delta*^2 [1/(4m) + 2 (q_i or 1) s]."""
    if delta_star <= 0:
        raise ValueError("delta_star must be positive")
    return 4.0 / delta_star ** 2 * (1.0 / (4.0 * m)
                                    + 2.0 * max(q_i, 1.0) * s)


def thm2_valid(inp: BoundInputs) -> bool:
    return 1.0 - math.exp(-inp.q_star_epsilon * inp.s) <= inp.delta_epsilon / 4.0


def thm2_general_bound(inp: BoundInputs) -> float:
    """Explicit proof-level error bound for the frequency-test estimator:
    eps + (1 - e^(-q* s))/d^2 + n exp(-2 d^2 m / (1+d)) with d = Delta/8.
    Returns 1 when the small-s validity condition fails (the bound is then
    trivially true)."""
    if not thm2_valid(inp):
        return 1.0
    d = inp.delta_epsilon / 8.0
    if d == 0.0:
        return 1.0
    return (inp.epsilon
            + (1.0 - math.exp(-inp.q_star_epsilon * inp.s)) / d ** 2
            + inp.n_epsilon * math.exp(-2.0 * d ** 2 * inp.m / (1.0 + d)))


def prop54_valid(inp: BoundInputs) -> bool:
    gap = min(inp.f_star, inp.delta_q_hstar)
    return 1.0 - math.exp(-inp.q_star * inp.s) <= gap / 4.0


def prop54_uniform_bound(inp: BoundInputs) -> float:
    """Explicit minimax error bound for uniform chains:
    (1 - e^(-q* s))/d^2 + 11 f*^-1 exp(-(f* ^ Delta)^2 m / 64) with
    d = (f* ^ Delta)/8; returns 1 when the validity condition fails."""
    if not prop54_valid(inp):
        return 1.0
    gap = min(inp.f_star, inp.delta_q_hstar)
    d = gap / 8.0
    if d == 0.0:
        return 1.0
    return ((1.0 - math.exp(-inp.q_star * inp.s)) / d ** 2
            + 11.0 / inp.f_star * math.exp(-gap ** 2 * inp.m / 64.0))


def pinched_star_majority_error(m: int, q: float, s: float,
                                h: float) -> float:
    """Exact error of the majority vote on the two-state pinched star:
    the binomial sum with alpha = p11(s) and beta = p12(h - s), each term
    taken from its logarithm, as C(m, n) overflows a float past m = 1029."""
    if m % 2 == 0:
        raise ValueError("m must be odd")
    alpha = (1.0 + math.exp(-2.0 * q * s)) / 2.0
    beta = (1.0 - math.exp(-2.0 * q * (h - s))) / 2.0

    def log(x, k):
        # log(x^k), with 0^0 = 1
        return k * math.log(x) if x > 0 else (-math.inf if k else 0.0)

    total = 0.0
    for n in range(0, m // 2 + 1):
        comb = math.lgamma(m + 1) - math.lgamma(n + 1) - math.lgamma(m - n + 1)
        total += alpha * math.exp(comb + log(1.0 - beta, n) + log(beta, m - n))
        total += (1.0 - alpha) * math.exp(comb + log(beta, n)
                                          + log(1.0 - beta, m - n))
    return total


def pinched_star_hoeffding_bound(m: int, q: float, s: float,
                                 h: float) -> float:
    """(1 - alpha) + alpha exp(-2 m (1/2 - beta)^2)."""
    alpha = (1.0 + math.exp(-2.0 * q * s)) / 2.0
    beta = (1.0 - math.exp(-2.0 * q * (h - s))) / 2.0
    return (1.0 - alpha) + alpha * math.exp(-2.0 * m * (0.5 - beta) ** 2)


def wilson_interval(errors: int, trials: int) -> tuple:
    """Wilson score interval for an error rate at the 99% level."""
    z = 2.5758293035489004  # the normal quantile of the 99% level
    if trials < 1:
        raise ValueError("trials must be at least 1")
    p = errors / trials
    denom = 1.0 + z ** 2 / trials
    center = (p + z ** 2 / (2 * trials)) / denom
    half = z / denom * math.sqrt(p * (1 - p) / trials
                                 + z ** 2 / (4 * trials ** 2))
    return max(center - half, 0.0), min(center + half, 1.0)

