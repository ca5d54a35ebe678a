"""Root-state estimators.

Maximum a posteriori estimation over all root states or a subset of them,
from leaf likelihoods by Felsenstein pruning; the frequency-test
estimator on stretched well-spread restrictions, its data-driven variant
for chains with uniformly bounded rates, and the two-state majority vote.
The frequency-test estimators are handed a run's ``stretch_plan`` and
``RowTable`` of time-h* rows, which the caller builds once.  The MAP and
the frequency tests also take a block of trials at once: rows of leaf
states, or of stretched leaf states as ``treechain.simulated_trials``
draws them.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .ctmc import (Distribution, RateMatrix, total_variation,
                   tv_achieving_set, _label_key)
from .tree import Tree, chosen_leaves, restrict, spread
from .treechain import DURATION_TOL, block_leaf_likelihoods

__all__ = [
    "EstimatorError",
    "EstimatorReport",
    "RowTable",
    "StretchPlan",
    "stretch_plan",
    "map_estimate",
    "map_estimates",
    "block_counts",
    "frequency_test",
    "frequency_estimate",
    "uniform_chain_test",
    "uniform_chain_estimate",
    "majority_estimate",
    "lambda_epsilon",
    "exclusivity_stats",
]

# suite-wide tally of frequency-test invocations and of violations of the
# at-most-one-passing-state guarantee (expected to stay at zero)
_EXCLUSIVITY = {"invocations": 0, "violations": 0}


def exclusivity_stats() -> dict:
    return dict(_EXCLUSIVITY)


class EstimatorError(ValueError):
    pass


@dataclass
class EstimatorReport:
    """Outcome of one frequency-test estimation."""

    state: object
    fallback: bool
    plan: StretchPlan
    lam: tuple
    passed: tuple
    margins: dict = field(default_factory=dict)


class RowTable:
    """Time-h* transition rows for a set of states, with cached pairwise
    total variation distances, achieving sets, and set masses."""

    def __init__(self, rows: dict):
        self.rows = dict(rows)
        self._tv: dict = {}
        self._sets: dict = {}
        self._masses: dict = {}
        self._deltas: dict = {}

    def tv(self, i, j) -> float:
        key = (i, j) if _label_key(i) < _label_key(j) else (j, i)
        v = self._tv.get(key)
        if v is None:
            v = total_variation(self.rows[i], self.rows[j])
            self._tv[key] = v
        return v

    def delta(self, lam) -> float:
        """Minimum pairwise TV over a state subset; +inf for singletons."""
        lam = tuple(lam)
        best = self._deltas.get(lam)
        if best is None:
            best = math.inf
            for a in range(len(lam)):
                for b in range(a + 1, len(lam)):
                    best = min(best, self.tv(lam[a], lam[b]))
            self._deltas[lam] = best
        return best

    def achieving(self, i, j):
        key = (i, j)
        v = self._sets.get(key)
        if v is None:
            v = tv_achieving_set(self.rows[i], self.rows[j], (i, j))
            self._sets[key] = v
        return v

    def threshold_mass(self, i, j) -> float:
        """Mass of row i on the achieving set for the ordered pair (i, j)."""
        key = (i, j)
        v = self._masses.get(key)
        if v is None:
            v = self.achieving(i, j).mass_under(self.rows[i])
            self._masses[key] = v
        return v


# ---------------------------------------------------------------------------
# maximum a posteriori


def map_estimates(tree: Tree, Q: RateMatrix, prior: Distribution,
                  leaf_states, lam=None) -> list:
    """Posterior argmax over the root states ``lam`` (default: all states
    of the chain) of each row of ``leaf_states``, an observation in
    ``tree.leaves`` order, with the leaf likelihoods from Felsenstein
    pruning, so it runs on trees of any size.  Ties go to the smallest
    label.  When an observation is impossible under all of ``lam`` but
    not under every state, ``lam``'s smallest label is returned (the
    restricted argmax is then a free choice)."""
    lam = Q.states if lam is None else sorted(lam)
    if not lam or not set(lam) <= set(Q.states):
        raise EstimatorError(f"state subset {lam} is not a nonempty subset "
                             f"of 1..{Q.n}")
    post = (np.array([prior.mass(i) for i in Q.states])
            * block_leaf_likelihoods(tree, Q, leaf_states))
    if not (post.max(1) > 0.0).all():
        raise EstimatorError("observation impossible under every root state")
    # argmax takes the first of equal maxima, the smallest label
    return [lam[j] for j in post[:, np.array(lam) - 1].argmax(1).tolist()]


def map_estimate(tree: Tree, Q: RateMatrix, prior: Distribution,
                 observed: dict, lam=None) -> int:
    """``map_estimates`` of the one observation ``observed``, leaf id ->
    state."""
    return map_estimates(tree, Q, prior, [[observed[x] for x in tree.leaves]],
                         lam)[0]


def lambda_epsilon(prior: Distribution, epsilon: float) -> tuple:
    """High-prior state set: the shortest label-ordered prefix whose
    complement has prior mass below epsilon."""
    if epsilon <= 0:
        raise EstimatorError("epsilon must be positive")
    states = sorted(prior.support, key=_label_key)
    tail = 1.0
    out = []
    for s in states:
        if tail < epsilon:
            break
        out.append(s)
        tail -= prior.mass(s)
    return tuple(out)


# ---------------------------------------------------------------------------
# frequency-test estimators


@dataclass(frozen=True)
class StretchPlan:
    """The stretched restriction at scale s: the ``m`` chosen leaves, the
    spread of their restriction, and each leaf's duration up to depth
    h*."""

    s: float
    h_star: float
    m: int
    spread: float
    leaves: tuple
    durations: tuple


def stretch_plan(tree: Tree, s: float, h_star: float) -> StretchPlan:
    """Lay out the stretched restriction of ``tree`` at scale ``s``; an h*
    above a chosen leaf, or a scale with no boundary points, raises
    ``EstimatorError``."""
    leaves = chosen_leaves(tree, s)
    m = len(leaves)
    if m == 0:
        raise EstimatorError(f"truncation at s={s} has no boundary points")
    spr = spread(restrict(tree, leaves)) if m >= 2 else 0.0
    durations = []
    for x in leaves:
        d = h_star - tree.depth[x]
        if d < -DURATION_TOL:
            raise EstimatorError(f"h_star={h_star} below depth of leaf {x}")
        durations.append(max(d, 0.0))
    return StretchPlan(s, h_star, m, spr, leaves, tuple(durations))


def _stretched_counts(plan: StretchPlan, process, observed: dict,
                      rng) -> Counter:
    """Leaf-state frequencies of the stretched restriction: the selected
    leaves' observed states, each run forward to depth h*."""
    counts: Counter = Counter()
    for leaf, dur in zip(plan.leaves, plan.durations):
        state = observed[leaf]
        if dur > DURATION_TOL:
            state = process.sample(state, dur, rng)
        counts[state] += 1
    return counts


def block_counts(stretched) -> list:
    """The stretched-state frequencies of a block of trials: for each row
    of ``stretched``, a (trials × m) array of finite-chain states, the
    count of each state the row holds."""
    labels = np.arange(1, int(stretched.max()) + 1)
    counts = (stretched[:, :, None] == labels).sum(1).tolist()
    return [{s: c for s, c in enumerate(row, 1) if c} for row in counts]


def frequency_test(plan: StretchPlan, counts: dict, lam, rows: RowTable,
                   rng) -> EstimatorReport:
    """The frequency tests on one trial's stretched-state ``counts``
    (state -> count).

    ``rows`` holds each state of ``lam``'s time-h* distribution (exact
    rows for finite chains, Monte Carlo plug-in rows otherwise).  The
    unique state whose achieving-set frequencies all clear their
    thresholds is returned; absent one, a uniform random member of
    ``lam``, drawn from ``rng``, is returned with the fallback flag set.
    """
    if not lam:
        raise EstimatorError("state subset must be nonempty")
    lam = tuple(sorted(lam, key=_label_key))
    if len(lam) == 1:
        return EstimatorReport(state=lam[0], fallback=False, plan=plan,
                               lam=lam, passed=lam)
    delta = rows.delta(lam)
    passed = []
    margins: dict = {}
    _EXCLUSIVITY["invocations"] += 1
    for i in lam:
        row_margins = {}
        for j in lam:
            if j == i:
                continue
            aset = rows.achieving(i, j)
            freq = sum(c for st, c in counts.items() if st in aset) / plan.m
            margin = freq - (rows.threshold_mass(i, j) - delta / 2.0)
            if margin <= 0.0:
                break
            row_margins[(i, j)] = margin
        else:
            passed.append(i)
            margins.update(row_margins)
    if len(passed) > 1:
        _EXCLUSIVITY["violations"] += 1
        raise AssertionError(
            f"multiple states passed the frequency tests: {passed}")
    if passed:
        return EstimatorReport(state=passed[0], fallback=False, plan=plan,
                               lam=lam, passed=tuple(passed),
                               margins=margins)
    choice = lam[rng.integers(len(lam))]
    return EstimatorReport(state=choice, fallback=True, plan=plan, lam=lam,
                           passed=())


def frequency_estimate(plan: StretchPlan, process, observed: dict, lam,
                       rows: RowTable, rng) -> EstimatorReport:
    """Frequency-test root estimate on the stretched restriction ``plan``:
    ``frequency_test`` on the observed leaves run forward to depth h*
    with draws from ``rng``."""
    return frequency_test(plan, _stretched_counts(plan, process, observed,
                                                  rng), lam, rows, rng)


def uniform_chain_test(plan: StretchPlan, counts: dict, q_star: float,
                       rows: RowTable, rng) -> EstimatorReport:
    """The frequency tests with the data-driven candidate set for chains
    whose rates are bounded by ``q_star``: candidates are the states
    whose stretched-restriction frequency in ``counts`` reaches half of
    e^(-q* h*), and ``rows``, as in ``frequency_test``, must cover
    them."""
    if q_star < 1.0:
        raise EstimatorError("q_star must be at least 1")
    f_star = math.exp(-q_star * plan.h_star)
    lam_hat = sorted((st for st, c in counts.items()
                      if c / plan.m >= 0.5 * f_star), key=_label_key)
    if not lam_hat:
        observed_states = sorted(set(counts), key=_label_key)
        choice = observed_states[rng.integers(len(observed_states))]
        return EstimatorReport(state=choice, fallback=True, plan=plan,
                               lam=(), passed=())
    return frequency_test(plan, counts, lam_hat, rows, rng)


def uniform_chain_estimate(plan: StretchPlan, process, observed: dict,
                           q_star: float, rows: RowTable,
                           rng) -> EstimatorReport:
    """``uniform_chain_test`` on the observed leaves of the stretched
    restriction ``plan`` run forward to depth h* with draws from
    ``rng``."""
    return uniform_chain_test(plan, _stretched_counts(plan, process,
                                                      observed, rng),
                              q_star, rows, rng)


def majority_estimate(observed: dict) -> int:
    """Majority vote over a two-state leaf assignment; requires an odd
    number of leaves."""
    m = len(observed)
    if m % 2 == 0:
        raise EstimatorError("majority vote needs an odd leaf count")
    bad = set(observed.values()) - {1, 2}
    if bad:
        raise EstimatorError(f"majority vote is two-state only, got {bad}")
    n1 = sum(1 for v in observed.values() if v == 1)
    return 1 if n1 > m / 2 else 2
