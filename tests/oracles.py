"""Oracles for the tests: exact joint leaf laws of small trees, an eager
builder of random ultrametric families, the TKF91 law by events and by
slots, and per-trial estimators.

``exact_leaf_law`` lists every leaf outcome with its probability, so it
only serves small trees; the package itself computes likelihoods by
pruning (``treechain.leaf_likelihoods``), which these laws cross-check.
``eager_random_ultrametric`` builds every member of a family from the
one before it, as the package first did; the package now replays
recorded growth steps per member, which it cross-checks.
``tkf91_beta`` gives the length law of TKF91 after any time t.
``tkf91_evolve_per_edge`` simulates TKF91 event by event (Gillespie),
the process itself, and ``tkf91_tree_per_edge`` runs it edge by edge
down a tree: the package's time-t sampler must draw the same law.
``tkf91_children_reference`` is that sampler written one slot at a time
in plain Python, and ``tkf91_tree_reference`` runs it down a tree batch
by batch: the package's draws must equal theirs, uniform for uniform.
``frequency_estimate`` and ``uniform_chain_estimate`` run the frequency
tests on one trial's observed leaves, stretching them one at a time
with ``process.sample``; the package stretches a block of trials at
once.  ``sample_endpoint`` is a finite chain's Gillespie jump
simulation, the reference for ``RateMatrix.sample``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from types import SimpleNamespace

import numpy as np

from rootrec import tkf91
from rootrec.ctmc import CtmcError, Distribution, RateMatrix, total_variation
from rootrec.estimators import (StretchPlan, frequency_test,
                                uniform_chain_test)
from rootrec.tree import DEPTH_TOL, Tree
from rootrec.treechain import DURATION_TOL

# largest outcome count the enumerating oracle exact_leaf_law builds
SIZE_GUARD = 10 ** 6


@dataclass(frozen=True)
class LeafLaw:
    """Sparse joint distribution of the leaf states of one tree.

    Outcomes are tuples of states in ``leaf_order``.
    """

    leaf_order: tuple
    probs: dict

    def mass(self, outcome) -> float:
        return self.probs.get(tuple(outcome), 0.0)

    def outcome_of(self, assignment: dict) -> tuple:
        return tuple(assignment[x] for x in self.leaf_order)

    def total(self) -> float:
        return sum(self.probs.values())

    def as_distribution(self) -> Distribution:
        return Distribution(self.probs)


def exact_leaf_law(tree: Tree, Q: RateMatrix, root_state: int) -> LeafLaw:
    """Exact joint leaf distribution by dynamic programming over the tree:
    sum over internal states, product over edges.  It enumerates every
    leaf outcome, so it serves as the oracle for ``leaf_likelihoods``."""
    n_out = Q.n ** len(tree.leaves)
    if n_out > SIZE_GUARD:
        raise CtmcError(
            f"{Q.n}^{len(tree.leaves)} outcomes exceeds the size guard")
    trans = Q.matrix
    cache: dict = {}

    def law_below(v: str, state: int) -> dict:
        # joint law of the leaves under v given state at v, keyed by
        # tuples over those leaves in DFS order
        key = (v, state)
        hit = cache.get(key)
        if hit is not None:
            return hit
        if not tree.children[v]:
            out = {(state,): 1.0}
        else:
            out = {(): 1.0}
            for c in tree.children[v]:
                row = trans(tree.length[c])[state - 1]
                mixed: dict = {}
                for y in range(1, Q.n + 1):
                    p = row[y - 1]
                    if p == 0.0:
                        continue
                    for tup, pr in law_below(c, y).items():
                        mixed[tup] = mixed.get(tup, 0.0) + p * pr
                out = {ta + tb: pa * pb
                       for ta, pa in out.items()
                       for tb, pb in mixed.items()}
        cache[key] = out
        return out

    def dfs_leaves(v):
        if not tree.children[v]:
            return [v]
        return [x for c in tree.children[v] for x in dfs_leaves(c)]

    raw = law_below(tree.root, root_state)
    # permute outcomes from DFS order to the sorted global leaf order
    dfs = dfs_leaves(tree.root)
    perm = [dfs.index(x) for x in tree.leaves]
    probs: dict = {}
    for tup, p in raw.items():
        if p > 0.0:
            key = tuple(tup[i] for i in perm)
            probs[key] = probs.get(key, 0.0) + p
    law = LeafLaw(tuple(tree.leaves), probs)
    if abs(law.total() - 1.0) > 1e-10:
        raise CtmcError(f"leaf law mass {law.total()} drifted from 1")
    return law


def exact_leaf_tv(tree: Tree, Q: RateMatrix, i: int, j: int) -> float:
    """Total variation between the exact leaf laws for root states i and j."""
    if i == j:
        return 0.0
    a = exact_leaf_law(tree, Q, i)
    b = exact_leaf_law(tree, Q, j)
    return total_variation(a.as_distribution(), b.as_distribution())


def eager_random_ultrametric(k: int, h: float, seed: int) -> list:
    """Members 1..k of ``generate_family("random_ultrametric", ...)``,
    each grown from a copy of the edge list of the one before."""
    rng = np.random.default_rng(seed)
    edges = [("rho", "L0001", h)]
    trees = [Tree("rho", list(edges))]
    counter = 0
    for n in range(2, k + 1):
        tree = trees[-1]
        leaf = tree.leaves[rng.integers(len(tree.leaves))]
        d = float(rng.uniform(0.0, h))
        path = []
        u = leaf
        while u != "rho":
            path.append(u)
            u = tree.parent[u]
        path.reverse()
        new_edges = list(edges)
        for v in path:
            du, dv = tree.depth[tree.parent[v]], tree.depth[v]
            if du < d <= dv:
                if abs(dv - d) <= DEPTH_TOL:
                    attach = v
                else:
                    counter += 1
                    split = f"u{counter:04d}"
                    new_edges.remove((tree.parent[v], v, tree.length[v]))
                    new_edges.append((tree.parent[v], split, d - du))
                    new_edges.append((split, v, dv - d))
                    attach = split
                new_edges.append((attach, f"L{n:04d}", h - d))
                break
        edges = new_edges
        trees.append(Tree("rho", list(edges)))
    return trees


def tkf91_beta(lam: float, mu: float, t: float) -> float:
    """beta(t) = (1 - e^((lam - mu) t)) / (mu - lam e^((lam - mu) t)) of
    the TKF91 length process (Thorne, Kishino & Felsenstein 1991).

    From the empty sequence the length after time t is n with
    probability (1 - lam beta) (lam beta)^n; a single site leaves no
    descendant with probability (1 - lam beta) mu beta."""
    e = math.exp((lam - mu) * t)
    return (1.0 - e) / (mu - lam * e)


def uniform_stream(rng, chunk: int = 4096):
    """A stand-in generator whose ``random()`` returns the floats of
    ``rng.random(chunk)``, one call after another: the event loop's
    uniforms at a fraction of the cost of one numpy call each."""
    chunks = iter(lambda: rng.random(chunk).tolist(), None)
    return SimpleNamespace(random=chain.from_iterable(chunks).__next__)


def tkf91_evolve_per_edge(params, seq: str, t: float, rng) -> str:
    """The sequence after duration ``t`` from ``seq``, by exact event
    simulation from ``rng.random()``: per event a waiting time, then its
    kind and site, then the letter of a substitution or insertion.  With
    current length M the total event rate is M nu + M mu + (M+1) lam:
    every ordinary site can be substituted or deleted, and every site
    including the immortal link can give birth immediately to its
    right."""
    if t < 0:
        raise CtmcError("time must be nonnegative")
    nu, lam, mu = params.nu, params.lam, params.mu
    random = rng.random

    def letter():
        return tkf91.ALPHABET[bisect_right(params.letter_cdf, random())]

    sites = list(seq)
    clock = 0.0
    while True:
        m = len(sites)
        total = m * (nu + mu) + (m + 1) * lam
        clock -= math.log1p(-random()) / total
        if clock > t:
            return "".join(sites)
        u = random() * total
        if u < m * nu:
            sites[int(u / nu)] = letter()
        elif u < m * (nu + mu):
            del sites[int((u - m * nu) / mu)]
        else:
            sites.insert(int((u - m * (nu + mu)) / lam), letter())
            if len(sites) > tkf91.LENGTH_CAP:
                raise CtmcError(
                    f"sequence length exceeded the cap {tkf91.LENGTH_CAP}")


def tkf91_tree_per_edge(tree: Tree, params, root: str, rng) -> dict:
    """Leaf id -> sequence of one TKF91 run down ``tree`` from ``root``,
    one ``tkf91_evolve_per_edge`` call per edge in topological order."""
    seqs = {tree.root: root}
    for v in tree.topo_order[1:]:
        seqs[v] = tkf91_evolve_per_edge(params, seqs[tree.parent[v]],
                                        tree.length[v], rng)
    return {x: seqs[x] for x in tree.leaves}


def tkf91_children_reference(params, parents, durations, rng) -> list:
    """The children of the lanes ``parents`` (strings) over ``durations``
    by TKF91's time-t law, one slot at a time, from the draws of one
    sampler call: a (2 × slots) array of uniforms, a row of fates and a
    row of runs over each lane's immortal link and then its sites, then
    one uniform per new letter, lanes in order and letters in sequence
    order."""
    lam, mu, nu = params.lam, params.mu, params.nu
    fates, runs = rng.random((2, sum(len(p) + 1 for p in parents))).tolist()
    slot = iter(range(len(fates)))
    lanes = []
    for parent, t in zip(parents, durations):
        e = math.expm1((lam - mu) * t)
        beta = -e / ((mu - lam) - lam * e)
        alpha = math.exp(-mu * t)
        ratio = lam * beta

        def run(s):
            # None marks a new letter
            g = 0 if ratio <= 0 else math.floor(-math.log1p(-runs[s])
                                                / -math.log(ratio))
            return [None] * g

        child = run(next(slot))
        for letter in parent:
            s = next(slot)
            if fates[s] < alpha:
                keep = fates[s] < alpha * math.exp(-nu * t)
                child += [letter if keep else None, *run(s)]
            elif fates[s] >= alpha + mu * beta:
                child += [None, *run(s)]
        lanes.append(child)
    fresh = iter(rng.random(sum(c.count(None) for c in lanes)).tolist())
    return ["".join(tkf91.ALPHABET[bisect_right(params.letter_cdf,
                                                next(fresh))]
                    if x is None else x for x in child) for child in lanes]


def tkf91_tree_reference(tree: Tree, params, roots, rng,
                         stretch=None) -> tuple:
    """Leaf id -> sequence of the trials whose roots are ``roots``, and
    each trial's sequences of the leaves of ``stretch`` (a
    ``StretchPlan``) run forward to their durations (None without one).
    The edges run in batches: the edges into inner vertices one batch
    per depth, then every edge into a leaf, then the stretched leaves'
    edges of duration above ``DURATION_TOL``.  A batch's edges go
    ``tkf91.LANES`` // trials (at least one) to a
    ``tkf91_children_reference`` call, whose lanes go edge by edge, then
    trial by trial."""
    depth = {tree.root: 0}
    for v in tree.topo_order[1:]:
        depth[v] = depth[tree.parent[v]] + 1
    inner = [v for v in tree.topo_order[1:] if tree.children[v]]
    batches = [[(v, tree.parent[v], tree.length[v]) for v in inner
                if depth[v] == d] for d in sorted({depth[v] for v in inner})]
    batches.append([(v, tree.parent[v], tree.length[v])
                    for v in tree.topo_order[1:] if not tree.children[v]])
    picks = []
    if stretch is not None:
        batches.append([(("stretched", x), x, d) for x, d in
                        zip(stretch.leaves, stretch.durations)
                        if d > DURATION_TOL])
        picks = [("stretched", x) if d > DURATION_TOL else x
                 for x, d in zip(stretch.leaves, stretch.durations)]
    seqs = {(tree.root, b): root for b, root in enumerate(roots)}
    step = max(1, tkf91.LANES // len(roots))
    for batch in batches:
        for lo in range(0, len(batch), step):
            lanes = [(v, p, d, b) for v, p, d in batch[lo:lo + step]
                     for b in range(len(roots))]
            children = tkf91_children_reference(
                params, [seqs[p, b] for _, p, _, b in lanes],
                [d for _, _, d, _ in lanes], rng)
            seqs.update(((v, b), child)
                        for (v, _, _, b), child in zip(lanes, children))
    return ([{x: seqs[x, b] for x in tree.leaves}
             for b in range(len(roots))],
            None if stretch is None else [[seqs[v, b] for v in picks]
                                          for b in range(len(roots))])


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


def frequency_estimate(plan: StretchPlan, process, observed: dict, lam,
                       rows, rng):
    """Frequency-test root estimate on the stretched restriction ``plan``:
    ``frequency_test`` on the observed leaves run forward to depth h*
    with draws from ``rng``."""
    return frequency_test(plan, _stretched_counts(plan, process, observed,
                                                  rng), lam, rows, rng)


def uniform_chain_estimate(plan: StretchPlan, process, observed: dict,
                           q_star: float, rows, rng):
    """``uniform_chain_test`` on the observed leaves of the stretched
    restriction ``plan`` run forward to depth h* with draws from
    ``rng``."""
    return uniform_chain_test(plan, _stretched_counts(plan, process,
                                                      observed, rng),
                              q_star, rows, rng)


def sample_endpoint(Q: RateMatrix, start: int, t: float, rng) -> int:
    """State at time t of a Gillespie jump simulation started at ``start``."""
    if t < 0:
        raise CtmcError("time must be nonnegative")
    state = start
    clock = 0.0
    while True:
        q_i = Q.exit_rates[state - 1]
        if q_i == 0.0:
            return state
        clock += rng.exponential(1.0 / q_i)
        if clock > t:
            return state
        rates = Q.q[state - 1].copy()
        rates[state - 1] = 0.0
        state = int(rng.choice(Q.n, p=rates / rates.sum())) + 1
