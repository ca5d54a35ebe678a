"""The Markov chain propagated down a tree.

Forward simulation of leaf states (single realization for any generative
process, vectorized batches for finite chains), the seeded trial loop
that every experiment draws its trials from, leaf likelihoods of one
observation by Felsenstein pruning, and exact leaf-distribution
computation on small trees, which serves as the brute-force oracle.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .ctmc import (CtmcError, Distribution, FiniteChainProcess, RateMatrix,
                   total_variation)
from .tree import Tree

__all__ = [
    "LeafLaw",
    "simulate",
    "simulated_trials",
    "simulate_batch",
    "leaf_likelihoods",
    "exact_leaf_law",
    "exact_leaf_tv",
]

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


def _as_process(process):
    """The generative process for ``process``: a rate matrix's one cached
    FiniteChainProcess, or the process itself."""
    if isinstance(process, RateMatrix):
        return process.process
    return process


@dataclass(frozen=True)
class _CompiledTree:
    """A tree laid out for one finite chain: edges in topological order,
    each edge's parent as an index into that order (the root is 0, edge
    e's child is e + 1), each edge's transition matrix and cumulative
    rows, each edge's child if it is a leaf (else None), and the leaves
    with their indices."""

    parents: list
    mats: list
    cum: list
    leaf_of: list
    leaves: list


def _compile(tree: Tree, proc: FiniteChainProcess) -> _CompiledTree:
    c = proc.compiled.get(tree)
    if c is None:
        index = {v: i for i, v in enumerate(tree.topo_order)}
        edges = tree.topo_order[1:]
        c = _CompiledTree(
            parents=[index[tree.parent[v]] for v in edges],
            mats=[proc.matrix(tree.length[v]) for v in edges],
            cum=[proc.cum_rows(tree.length[v]) for v in edges],
            leaf_of=[None if tree.children[v] else v for v in edges],
            leaves=[(x, index[x]) for x in tree.leaves])
        proc.compiled[tree] = c
    return c


def simulate(tree: Tree, process, root_state, rng) -> dict:
    """One realization of the chain on the tree; returns leaf id -> state.

    Sibling subtrees evolve independently given the parent state.  Each
    edge in topological order draws one uniform from ``rng``; a finite
    chain draws them all at once and inverts its cached cumulative rows,
    which consumes the stream exactly as the per-edge loop does.
    """
    proc = _as_process(process)
    if isinstance(proc, FiniteChainProcess):
        c = _compile(tree, proc)
        last = proc.Q.n - 1
        states = [root_state]
        for p, rows, u in zip(c.parents, c.cum,
                              rng.random(len(c.parents)).tolist()):
            j = bisect_right(rows[states[p] - 1], u)
            states.append((j if j < last else last) + 1)
        return {x: states[i] for x, i in c.leaves}
    states = {tree.root: root_state}
    for v in tree.topo_order:
        if v == tree.root:
            continue
        states[v] = proc.sample(states[tree.parent[v]], tree.length[v], rng)
    return {x: states[x] for x in tree.leaves}


def simulated_trials(tree: Tree, process, draw_root, key, stop: int,
                     start: int = 0):
    """The trials ``start`` to ``stop - 1`` of one experiment.

    Trial t seeds its own substream from ``[*key, t]``, draws its
    root with ``draw_root(rng)`` and its leaves with ``simulate``, and
    yields ``(t, root, leaves, rng)``; the caller's estimator continues
    that stream.  Trials depend only on their key and index, so any split
    of the index range yields the same trials.
    """
    for t in range(start, stop):
        rng = np.random.default_rng([*key, t])
        root = draw_root(rng)
        yield t, root, simulate(tree, process, root, rng), rng


def simulate_batch(tree: Tree, Q: RateMatrix, root_state: int, n: int,
                   rng) -> np.ndarray:
    """``n`` independent realizations of a finite chain on the tree.

    Returns an (n, len(leaves)) int array in ``tree.leaves`` order.  Edge
    transitions are drawn from the chain's cached cumulative rows,
    vectorized over trials, so large trial counts stay cheap.
    """
    proc = _as_process(Q)
    states = {tree.root: np.full(n, root_state, dtype=np.int64)}
    for v in tree.topo_order:
        if v == tree.root:
            continue
        c = proc.cum_rows(tree.length[v])
        parent = states[tree.parent[v]]
        u = rng.random(n)
        out = np.empty(n, dtype=np.int64)
        for s in np.unique(parent):
            mask = parent == s
            out[mask] = np.searchsorted(c[s - 1], u[mask], side="right") + 1
        states[v] = np.minimum(out, Q.n)
    return np.column_stack([states[x] for x in tree.leaves])


def leaf_likelihoods(tree: Tree, Q: RateMatrix, observed: dict) -> np.ndarray:
    """P(leaves = observed | root = i) for i = 1..n, up to one common
    positive factor, by Felsenstein pruning.

    One pass over the edges in reverse topological order multiplies each
    child's message into its parent's vector: a leaf sends the column
    of its edge's transition matrix at its observed state, an inner
    vertex the matrix times its own vector.  Every product is rescaled
    by its maximum, so deep or wide trees do not underflow.  All zeros
    means the observation is impossible under every root state.
    """
    proc = _as_process(Q)
    c = _compile(tree, proc)
    vecs: list = [None] * (len(c.parents) + 1)
    for e in range(len(c.parents) - 1, -1, -1):
        x = c.leaf_of[e]
        if x is None:
            msg = c.mats[e] @ vecs[e + 1]
        else:
            msg = c.mats[e][:, observed[x] - 1]
        p = c.parents[e]
        acc = msg if vecs[p] is None else vecs[p] * msg
        # on vectors of a few states the builtin max beats ndarray.max
        top = max(acc.tolist())
        vecs[p] = acc / top if top > 0.0 else acc
    if vecs[0] is None:
        # a single-vertex tree: its root is its one leaf
        return np.eye(proc.Q.n)[observed[tree.root] - 1]
    return vecs[0]


def exact_leaf_law(tree: Tree, Q: RateMatrix, root_state: int) -> LeafLaw:
    """Exact joint leaf distribution by dynamic programming over the tree:
    sum over internal states, product over edges.  It enumerates every
    leaf outcome, so it serves as the oracle for ``leaf_likelihoods``."""
    n_out = Q.n ** len(tree.leaves)
    if n_out > SIZE_GUARD:
        raise CtmcError(
            f"{Q.n}^{len(tree.leaves)} outcomes exceeds the size guard")
    trans = _as_process(Q).matrix
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
