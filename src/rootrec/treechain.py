"""The Markov chain propagated down a tree.

Forward simulation of leaf states (single realization for any generative
process, vectorized batches for finite chains), the seeded trial loop
that every experiment draws its trials from, and leaf likelihoods of one
observation by Felsenstein pruning, the package's one likelihood engine.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .ctmc import RateMatrix
from .tree import Tree

__all__ = [
    "simulate",
    "simulated_trials",
    "simulate_batch",
    "leaf_likelihoods",
]


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


def _compile(tree: Tree, Q: RateMatrix) -> _CompiledTree:
    c = Q.compiled.get(tree)
    if c is None:
        index = {v: i for i, v in enumerate(tree.topo_order)}
        edges = tree.topo_order[1:]
        c = _CompiledTree(
            parents=[index[tree.parent[v]] for v in edges],
            mats=[Q.matrix(tree.length[v]) for v in edges],
            cum=[Q.cum_rows(tree.length[v]) for v in edges],
            leaf_of=[None if tree.children[v] else v for v in edges],
            leaves=[(x, index[x]) for x in tree.leaves])
        Q.compiled[tree] = c
    return c


def simulate(tree: Tree, process, root_state, rng) -> dict:
    """One realization of the chain on the tree; returns leaf id -> state.

    Sibling subtrees evolve independently given the parent state.  Each
    edge in topological order draws one uniform from ``rng``; a finite
    chain draws them all at once and inverts its cached cumulative rows,
    which consumes the stream exactly as the per-edge loop does.
    """
    if isinstance(process, RateMatrix):
        c = _compile(tree, process)
        last = process.n - 1
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
        states[v] = process.sample(states[tree.parent[v]], tree.length[v],
                                   rng)
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
    states = {tree.root: np.full(n, root_state, dtype=np.int64)}
    for v in tree.topo_order:
        if v == tree.root:
            continue
        c = Q.cum_rows(tree.length[v])
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
    c = _compile(tree, Q)
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
        return np.eye(Q.n)[observed[tree.root] - 1]
    return vecs[0]
