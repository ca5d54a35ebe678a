"""Finite-state continuous-time Markov chain machinery.

Rate matrices, each holding its chain's one cache of transition
matrices; tolerance-controlled transition matrices via uniformization,
total variation distance, pairwise identifiability margins, and the
weighted norm used by the Chebyshev bound.  States of a finite chain are
labelled 1..n.  A rate matrix is a process that ``treechain`` draws
trials of; the draws themselves are made there, a block at a time.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "RateMatrix",
    "Distribution",
    "CtmcError",
    "transition_matrix",
    "row_distribution",
    "total_variation",
    "identifiability_margin",
    "star_norm",
    "two_state_symmetric",
    "jukes_cantor",
    "load_rate_matrix",
]

MASS_TOL = 1e-12


class CtmcError(ValueError):
    pass


class RateMatrix:
    """Conservative rate matrix over states 1..n, the process of its
    chain.

    Off-diagonal entries are nonnegative rates; each diagonal entry is minus
    the row's off-diagonal sum.  The rates are immutable after
    construction.  The package's one transition-matrix cache lives here:
    matrices are kept per duration, so the handful of distinct edge
    lengths of a tree are uniformized once each.
    """

    def __init__(self, q):
        q = np.asarray(q, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise CtmcError("rate matrix must be square")
        off = q - np.diag(np.diag(q))
        if np.any(off < 0):
            raise CtmcError("off-diagonal rates must be nonnegative")
        if not np.allclose(q.sum(axis=1), 0.0, atol=1e-9):
            raise CtmcError("rate matrix rows must sum to zero")
        if not np.all(np.isfinite(q)):
            raise CtmcError("rates must be finite")
        self.q = q
        self.q.setflags(write=False)
        self.n = q.shape[0]
        self.exit_rates = -np.diag(q)
        self.states = tuple(range(1, self.n + 1))
        self._mats: dict[float, np.ndarray] = {}

    @property
    def norm(self) -> float:
        """Operator norm sup_i sum_j |q_ij| (= 2 max_i q_i)."""
        return float(np.abs(self.q).sum(axis=1).max())

    @property
    def q_star(self) -> float:
        """max_i (q_i or 1)."""
        return float(max(self.exit_rates.max(), 1.0))

    def matrix(self, t: float) -> np.ndarray:
        """exp(tQ), computed once per duration; read-only, as it is shared."""
        P = self._mats.get(t)
        if P is None:
            P = transition_matrix(self, t)
            P.setflags(write=False)
            self._mats[t] = P
        return P

    def row(self, state, t) -> Distribution:
        """The exact time-t distribution started from ``state``."""
        return row_distribution(self.matrix(t), state)

    def __reduce__(self):
        # pickle the rates alone: the cache is rebuilt on demand
        return RateMatrix, (self.q,)

    def __repr__(self):
        return f"RateMatrix(n={self.n})"


class Distribution:
    """Sparse probability mass function over hashable states."""

    def __init__(self, masses: dict):
        total = 0.0
        clean = {}
        for state, p in masses.items():
            if p < 0:
                raise CtmcError(f"negative mass {p} for state {state!r}")
            if p > 0:
                clean[state] = float(p)
                total += p
        if abs(total - 1.0) > MASS_TOL:
            raise CtmcError(f"masses sum to {total}, not 1")
        if total != 1.0:
            clean = {s: p / total for s, p in clean.items()}
        self._m = clean

    def mass(self, state) -> float:
        return self._m.get(state, 0.0)

    def items(self):
        return self._m.items()

    @property
    def support(self):
        return self._m.keys()

    def __eq__(self, other):
        if not isinstance(other, Distribution):
            return NotImplemented
        return self._m == other._m

    def __repr__(self):
        return f"Distribution({self._m!r})"

    @classmethod
    def point_mass(cls, state):
        return cls({state: 1.0})


# Largest uniformization rate lambda = rate * t summed directly.  Longer
# times are halved k times to get below it and the result squared k times
# (P(t) = P(t / 2^k)^(2^k)): exp(-lambda) underflows to 0 near 745, where
# the Poisson tail test could never pass.
UNIFORMIZATION_CAP = 16.0


def transition_matrix(Q: RateMatrix, t: float, tol: float = 1e-12) -> np.ndarray:
    """Row-stochastic exp(tQ) by uniformization with scaling and squaring.

    The Poissonized jump-chain series is truncated when the remaining
    Poisson tail mass drops below ``tol``; rows are renormalized.  When
    rate * t exceeds ``UNIFORMIZATION_CAP`` the series is summed at
    t / 2^k and squared k times.
    """
    if not 0 <= t < math.inf:
        raise CtmcError(f"time must be nonnegative and finite, got {t}")
    n = Q.n
    rate = float(Q.exit_rates.max())
    if t == 0 or rate == 0.0:
        return np.eye(n)
    lam = rate * t
    squarings = 0
    while lam > UNIFORMIZATION_CAP:
        lam /= 2.0
        squarings += 1
    R = np.eye(n) + Q.q / rate
    term = math.exp(-lam)
    acc = term
    P = term * np.eye(n)
    power = np.eye(n)
    k = 0
    while 1.0 - acc >= tol:
        k += 1
        power = power @ R
        term *= lam / k
        acc += term
        P += term * power
    sums = P.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > max(tol, 1e-9) * 10):
        raise CtmcError("uniformization failed to produce stochastic rows")
    P = P / sums[:, None]
    for _ in range(squarings):
        P = P @ P
        P /= P.sum(axis=1)[:, None]
    return P


def row_distribution(P: np.ndarray, i: int) -> Distribution:
    """Row of a transition matrix as a Distribution over 1..n."""
    return Distribution({j + 1: p for j, p in enumerate(P[i - 1]) if p > 0})


def total_variation(a: Distribution, b: Distribution) -> float:
    """Half the L1 distance between two sparse distributions, summed over
    ``a``'s support in its order and then the states only ``b`` holds, so
    that the rounding does not depend on the hash seed."""
    held = a.support
    states = [*held, *(s for s in b.support if s not in held)]
    return 0.5 * sum(abs(a.mass(s) - b.mass(s)) for s in states)


def _label_key(state):
    # canonical ordering used by the tie rule; state labels within one
    # process are mutually comparable (ints, or strings via length+lex)
    if isinstance(state, str):
        return (len(state), state)
    return state


def identifiability_margin(Q: RateMatrix, t: float, state_subset=None) -> float:
    """Minimum pairwise total variation between rows of exp(tQ) over the
    subset; +inf for singletons (no pairs)."""
    if t <= 0:
        raise CtmcError("time must be positive")
    subset = sorted(state_subset) if state_subset is not None else list(Q.states)
    if not subset:
        raise CtmcError("state subset must be nonempty")
    if len(subset) == 1:
        return math.inf
    P = Q.matrix(t)
    best = math.inf
    for ii, i in enumerate(subset):
        for j in subset[ii + 1:]:
            best = min(best, 0.5 * np.abs(P[i - 1] - P[j - 1]).sum())
    return float(best)


def star_norm(v) -> float:
    """Weighted l1 norm sum_i 2^-i |v_i| with 1-based indexing."""
    return float(sum(2.0 ** -(i + 1) * abs(x) for i, x in enumerate(v)))


def star_norm_diff(a: Distribution, b: Distribution, n: int) -> float:
    """star norm of the difference of two distributions over states 1..n."""
    return star_norm([a.mass(i) - b.mass(i) for i in range(1, n + 1)])


# ---------------------------------------------------------------------------
# named chains and file input


def two_state_symmetric(q: float = 1.0) -> RateMatrix:
    return RateMatrix([[-q, q], [q, -q]])


def jukes_cantor(total_rate: float = 1.0, n: int = 4) -> RateMatrix:
    """Uniform n-state chain with exit rate ``total_rate`` from every state."""
    if n < 2:
        raise CtmcError(f"a uniform chain needs at least 2 states, got {n}")
    r = total_rate / (n - 1)
    q = np.full((n, n), r)
    np.fill_diagonal(q, -total_rate)
    return RateMatrix(q)


def load_rate_matrix(path) -> RateMatrix:
    """Rate matrix from a whitespace-separated plain-text file."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                rows.append([float(x) for x in line.split()])
    return RateMatrix(rows)
