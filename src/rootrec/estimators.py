"""Root-state estimators.

Maximum a posteriori estimation over all root states or a subset of them,
from leaf likelihoods by Felsenstein pruning; the frequency-test
estimator on stretched well-spread restrictions, its data-driven variant
for chains with uniformly bounded rates, and the two-state majority vote.
The MAP and the frequency tests take a block of trials from
``treechain.simulated_trials`` at once; the tests are handed a run's
``stretch_plan`` and ``RowTable`` of time-h* rows, built once, and test
the integer keys of a block's stretched leaf states, read through the
block's ``keys``.  ``RowTable`` keys each row once through the process's
``keys`` and reads a block's masses, the achieving-set thresholds and the
tie rule from those keys.  The one-trial ``map_estimate`` is a test
reference (``tests/oracles.py``).
"""

from __future__ import annotations

import math
from itertools import compress
from typing import NamedTuple

import numpy as np

from .ctmc import Distribution, RateMatrix, total_variations, _label_key
from .tree import Tree, chosen_leaves
from .treechain import DURATION_TOL, block_leaf_likelihoods

__all__ = [
    "EstimatorError",
    "RowTable",
    "StretchPlan",
    "stretch_plan",
    "map_estimates",
    "MAP_TIE_RTOL",
    "frequency_tests",
    "uniform_chain_tests",
    "majority_estimates",
    "lambda_epsilon",
    "exclusivity_stats",
]

# posteriors within this relative distance of the largest count as tied
# and go to the smallest label: far above the rounding of pruning (about
# 1e-16 per edge), so the rounding of numpy's products decides no tie,
# and far below any difference between posteriors that matters
MAP_TIE_RTOL = 1e-9

# suite-wide tally of frequency-test invocations and of violations of the
# at-most-one-passing-state guarantee (expected to stay at zero)
_EXCLUSIVITY = {"invocations": 0, "violations": 0}


def exclusivity_stats() -> dict:
    return dict(_EXCLUSIVITY)


class EstimatorError(ValueError):
    pass


def _achieves(mine, theirs, first):
    """The tie rule: a state is in A(i, j) where row i's mass ``mine``
    exceeds row j's ``theirs``, or ties it and i sorts ``first``."""
    return (mine > theirs) | ((mine == theirs) & first)


class RowTable:
    """Time-h* transition rows for a set of states, with cached minimum
    TV distances, and achieving-set masses read from each row's keys,
    made by the process's ``keys``."""

    def __init__(self, rows: dict, keys):
        self.rows, self.keys = dict(rows), keys
        self._masses, self._deltas, self._keys = {}, {}, {}

    def delta(self, lam) -> float:
        """Minimum pairwise TV over a state subset; +inf for singletons."""
        lam = tuple(lam)
        if lam not in self._deltas:
            self._deltas[lam] = float(total_variations(
                [self.rows[i] for i in lam]).min(initial=math.inf))
        return self._deltas[lam]

    def _row_keys(self, i) -> tuple:
        """Row i's sorted keys closed by one above all others of mass 0,
        their masses, the keys that read them and where each state of its
        support sorts: made on first use."""
        if i not in self._keys:
            states, mass = zip(*self.rows[i].items())
            keyed, keys = self.keys.key(states)
            order = np.argsort(keyed)
            self._keys[i] = (
                np.append(keyed[order], np.iinfo(np.int64).max),
                np.append(np.array(mass)[order], 0.0), keys,
                np.argsort(order))
        return self._keys[i]

    def threshold_mass(self, i, j) -> float:
        """Mass of row i on A(i, j), the states where it outweighs row j
        and, if i sorts first, the ties: there it exceeds row j by their
        TV.  The terms are added in row i's order, one after another."""
        if (i, j) not in self._masses:
            keyed, mass, keys, place = self._row_keys(i)
            mine = mass[:-1]
            theirs = self.masses((j,), keyed[:-1], keys)[:, 0]
            inside = _achieves(mine, theirs, _label_key(i) < _label_key(j))
            self._masses[i, j] = float(np.add.accumulate(
                np.where(inside, mine, 0.0)[place])[-1])
        return self._masses[i, j]

    def masses(self, lam, keyed, keys) -> np.ndarray:
        """(keys × ``lam``): each row of ``lam`` at ``keyed``, keys that
        ``keys`` reads (a finite chain's in any order, TKF91's sorted), a
        long one looked up by its sequence."""
        cut, long = keys.split(keyed)
        out = np.empty((len(keyed), len(lam)))
        for c, i in enumerate(lam):
            held, mass = self._row_keys(i)[:2]
            # a key off the row's support finds another key, no mass
            at = np.searchsorted(held, keyed[:cut])
            out[:cut, c] = np.where(held[at] == keyed[:cut], mass[at], 0.0)
            out[cut:, c] = [self.rows[i].mass(s) for s in long]
        return out


# ---------------------------------------------------------------------------
# maximum a posteriori


def map_estimates(tree: Tree, Q: RateMatrix, prior: Distribution,
                  leaf_states, lam=None) -> list:
    """Posterior argmax over the root states ``lam`` (default: all states
    of the chain) of each row of ``leaf_states``, an observation in
    ``tree.leaves`` order, with the leaf likelihoods from Felsenstein
    pruning, so it runs on trees of any size.  Ties go to the smallest
    label: the estimate is the first state of ``lam`` whose posterior is
    within a relative ``MAP_TIE_RTOL`` of the largest.  When an
    observation is impossible under all of ``lam`` but not under every
    state, ``lam``'s smallest label is returned (the restricted argmax is
    then a free choice)."""
    lam = Q.states if lam is None else sorted(lam)
    if not lam or not set(lam) <= set(Q.states):
        raise EstimatorError(f"state subset {lam} is not a nonempty subset "
                             f"of 1..{Q.n}")
    post = (np.array([prior.mass(i) for i in Q.states])
            * block_leaf_likelihoods(tree, Q, leaf_states))
    if not (post.max(1) > 0.0).all():
        raise EstimatorError("observation impossible under every root state")
    post = post[:, np.array(lam) - 1]
    near = post >= post.max(1, keepdims=True) * (1.0 - MAP_TIE_RTOL)
    # argmax takes the first True, the smallest label
    return [lam[j] for j in near.argmax(1).tolist()]


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


class StretchPlan(NamedTuple):
    """The stretched restriction at scale s: the ``m`` chosen leaves and
    each leaf's duration up to depth h*."""

    s: float
    h_star: float
    m: int
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
    durations = []
    for x in leaves:
        d = h_star - tree.depth[x]
        if d < -DURATION_TOL:
            raise EstimatorError(f"h_star={h_star} below depth of leaf {x}")
        durations.append(max(d, 0.0))
    return StretchPlan(s, h_star, m, leaves, tuple(durations))


def frequency_tests(plan: StretchPlan, lam, rows: RowTable, block) -> list:
    """(estimate, fallback flag) of each trial of ``block``, a
    ``treechain.TrialBlock`` stretched by ``plan``: the unique state of
    ``lam`` whose achieving-set frequencies all clear their thresholds,
    else a uniform random one from the block's generator, flagged 1.
    ``rows`` holds their time-h* rows (exact for finite chains, Monte
    Carlo plug-in rows otherwise).  The keys are looked up in the block's
    ``keys.vocabulary``: a finite chain's states, with no sort."""
    if not lam:
        raise EstimatorError("state subset must be nonempty")
    lams = [tuple(sorted(lam, key=_label_key))] * len(block.roots)
    return _test_block(plan, rows, block,
                       *block.keys.vocabulary(block.stretched), lams, lams)


def uniform_chain_tests(plan: StretchPlan, q_star: float, rows: RowTable,
                        block) -> list:
    """``frequency_tests`` against each trial's candidates, for rates
    bounded by ``q_star``: its states of frequency at least e^(-q* h*) / 2
    (``rows`` must cover them), else a fallback to one of its states."""
    if q_star < 1.0:
        raise EstimatorError("q_star must be at least 1")
    vocab, inverse = block.keys.vocabulary(block.stretched)
    n, size = inverse.shape[0], len(vocab)
    # bincount reads no order: ravel in memory order, with no copy
    counts = np.bincount(
        (inverse + size * np.arange(n)[:, None]).ravel(order="K"),
        minlength=n * size).reshape(n, size)
    states = block.keys.states(vocab)
    lams = [tuple(compress(states, row)) for row in (
        counts / plan.m >= 0.5 * math.exp(-q_star * plan.h_star)).tolist()]
    pools = [lam or list(compress(states, row))
             for lam, row in zip(lams, (counts > 0).tolist())]
    return _test_block(plan, rows, block, vocab, inverse, lams, pools)


def _test_block(plan, rows, block, vocab, inverse, lams, pools) -> list:
    """Trial t of ``block`` tested against the sorted candidates
    ``lams[t]``, falling back to ``pools[t]``: all trials of the same
    candidates at once, i against each j in turn on the trials still
    passing, by which ``vocab`` keys lie in A(i, j), the candidates'
    distance read once.  It counts, and raises on a clash, in
    ``exclusivity_stats`` as trial by trial would."""
    states, groups, clash = [None] * len(lams), {}, {}
    for t, lam in enumerate(lams):
        groups.setdefault(lam, []).append(t)
    for lam, trials in groups.items():
        mass, keyed = rows.masses(lam, vocab, block.keys), inverse[trials]
        half = rows.delta(lam) / 2.0
        passed = np.zeros((len(trials), len(lam)), dtype=bool)
        for a, i in enumerate(lam):
            alive = np.arange(len(trials))
            for b, j in enumerate(lam):
                if b != a and len(alive):
                    inside = _achieves(mass[:, a], mass[:, b], a < b)
                    bar = rows.threshold_mass(i, j) - half
                    alive = alive[inside[keyed[alive]].sum(1) / plan.m
                                  - bar > 0.0]
            passed[alive, a] = True
        for t, row in zip(trials, passed.tolist()):
            if row.count(True) == 1:
                states[t] = lam[row.index(True)]
            elif any(row):
                clash[t] = [s for s, p in zip(lam, row) if p]
    stop = min(clash, default=len(lams))
    _EXCLUSIVITY["invocations"] += sum(len(lam) > 1 for lam in lams[:stop + 1])
    out = [(s, 0) if s is not None else
           (pools[t][block.rng.integers(len(pools[t]))], 1)
           for t, s in enumerate(states[:stop])]
    if clash:
        _EXCLUSIVITY["violations"] += 1
        raise AssertionError(
            f"multiple states passed the frequency tests: {clash[stop]}")
    return out


def majority_estimates(leaf_states) -> list:
    """The majority vote of each row of ``leaf_states``, a two-state
    observation of an odd number of leaves: 1 where more than half of
    them hold state 1, else 2."""
    leaf_states = np.asarray(leaf_states)
    m = leaf_states.shape[1]
    if m % 2 == 0:
        raise EstimatorError("majority vote needs an odd leaf count")
    bad = (leaf_states < 1) | (leaf_states > 2)
    if bad.any():
        raise EstimatorError(f"majority vote is two-state only, got "
                             f"{set(leaf_states[bad].tolist())}")
    return np.where(2 * (leaf_states == 1).sum(1) > m, 1, 2).tolist()
