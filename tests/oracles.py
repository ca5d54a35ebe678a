"""Oracles for the tests: exact joint leaf laws of small trees, an eager
builder of random ultrametric families, and the closed-form transient
length law of TKF91.

``exact_leaf_law`` lists every leaf outcome with its probability, so it
only serves small trees; the package itself computes likelihoods by
pruning (``treechain.leaf_likelihoods``), which these laws cross-check.
``eager_random_ultrametric`` builds every member of a family from the
one before it, as the package first did; the package now replays
recorded growth steps per member, which it cross-checks.
``tkf91_beta`` gives the length law of TKF91 after any time t, which
checks the event simulation away from stationarity.
``tkf91_evolve_per_edge`` is the TKF91 event loop of one edge, as the
package ran it before all of a tree's edges went through one
``tkf91.evolve_edges`` call; ``tkf91_tree_per_edge`` runs it edge by
edge down a tree.  The package's draws must equal theirs, uniform for
uniform.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from rootrec import tkf91
from rootrec.ctmc import CtmcError, Distribution, RateMatrix, total_variation
from rootrec.tree import DEPTH_TOL, Tree

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


def tkf91_evolve_per_edge(params, seq: str, t: float, rng,
                          events=None) -> str:
    """The sequence after duration ``t`` from ``seq``, by exact event
    simulation from ``rng.random()``: per event a waiting time, then its
    kind and site, then the letter of a substitution or insertion.  More
    than ``tkf91.EVENT_CAP`` events raise ``CtmcError``.  ``events``, a
    list if given, gets the run's event count appended."""
    if t < 0:
        raise CtmcError("time must be nonnegative")
    nu, lam, mu = params.nu, params.lam, params.mu
    random = rng.random

    def letter():
        return tkf91.ALPHABET[bisect_right(params.letter_cdf, random())]

    sites = list(seq)
    clock = 0.0
    for count in range(tkf91.EVENT_CAP + 1):
        m = len(sites)
        total = m * (nu + mu) + (m + 1) * lam
        clock -= math.log1p(-random()) / total
        if clock > t:
            if events is not None:
                events.append(count)
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
    raise CtmcError(f"more than {tkf91.EVENT_CAP} events in one run of "
                    f"duration {t}: the rates are too large to simulate")


def tkf91_tree_per_edge(tree: Tree, params, root: str, rng,
                        events=None) -> dict:
    """Leaf id -> sequence of one TKF91 run down ``tree`` from ``root``,
    one ``tkf91_evolve_per_edge`` call per edge in topological order."""
    seqs = {tree.root: root}
    for v in tree.topo_order[1:]:
        seqs[v] = tkf91_evolve_per_edge(params, seqs[tree.parent[v]],
                                        tree.length[v], rng, events)
    return {x: seqs[x] for x in tree.leaves}
