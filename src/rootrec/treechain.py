"""The Markov chain propagated down a tree.

Forward simulation of leaf states, the seeded trial loop that every
experiment draws its trials from, and leaf likelihoods by Felsenstein
pruning, the package's one likelihood engine.  Both engines work on a
block of trials at once: simulation draws each edge (for TKF91, each
batch of edges) for the whole block, and pruning passes a finite chain's
message row per trial, the site-pattern batching of BEAGLE (Ayres et
al., Syst. Biol. 2012).  Trials come in blocks of ``BLOCK``, and block b
draws from the one substream keyed ``[*key, b]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .ctmc import RateMatrix
from . import tkf91
from .tkf91 import Tkf91Params, decode, encode, evolve_lanes
from .tree import Tree

__all__ = [
    "BLOCK",
    "DURATION_TOL",
    "TrialBlock",
    "simulate",
    "simulated_trials",
    "leaf_likelihoods",
    "block_leaf_likelihoods",
]

# a finite chain's trials b·BLOCK to b·BLOCK + BLOCK - 1 draw from one
# generator, keyed by b; a constant, so no worker count or split of the
# trial range on block boundaries changes how a trial is drawn
BLOCK = 256
# a stretched leaf runs forward only for a duration above this
DURATION_TOL = 1e-12
# at most this many edges are drawn in one step, which bounds the memory
# a wide tree's block takes
_STEP = 32


class _Layout(NamedTuple):
    """A tree's vertices indexed in topological order: the root is 0 and
    edge e's child is e + 1.  For each edge: its parent's index, its
    length, and its child as a position in ``tree.leaves`` if that is a
    leaf (else None); the leaves' indices in ``tree.leaves`` order; and
    each vertex's depth in edges from the root."""

    parents: list
    lengths: list
    leaf_of: list
    leaves: list
    depth: list


def _layout(tree: Tree) -> _Layout:
    index = {v: i for i, v in enumerate(tree.topo_order)}
    position = {x: i for i, x in enumerate(tree.leaves)}
    edges = tree.topo_order[1:]
    parents = [index[tree.parent[v]] for v in edges]
    depth = [0]
    for p in parents:
        depth.append(depth[p] + 1)
    return _Layout(parents, [tree.length[v] for v in edges],
                   [None if tree.children[v] else position[v]
                    for v in edges],
                   [index[x] for x in tree.leaves], depth)


@dataclass(frozen=True)
class _CompiledTree:
    """A tree laid out for one finite chain: the ``_Layout``'s parents,
    leaf positions and leaves, each edge's transition matrix, and the
    edges grouped by the depth of their child, in edges from the root,
    as ``_levels``."""

    parents: list
    mats: list
    leaf_of: list
    leaves: list
    levels: list


def _compile(tree: Tree, Q: RateMatrix) -> _CompiledTree:
    c = Q.compiled.get(tree)
    if c is None:
        lay = _layout(tree)
        mats = [Q.matrix(t) for t in lay.lengths]
        c = _CompiledTree(
            parents=lay.parents,
            mats=mats,
            leaf_of=lay.leaf_of,
            leaves=lay.leaves,
            levels=_levels(Q.n, mats, range(1, len(lay.depth)), lay.parents,
                           lay.depth[1:]))
        Q.compiled[tree] = c
    return c


def _levels(n: int, mats, children, parents, depth) -> list:
    """Edges, each with its n-state transition matrix in ``mats``,
    grouped by the ``depth`` of their child, at most ``_STEP`` to a group,
    so that every parent is drawn before any of its children.  Each group
    holds slices of arrays sorted once by depth: the children's and the
    parents' indices, each edge's offset (its place in the group times n),
    and the group's cumulative rows without their last column, one
    contiguous (edges × n) array per column.  A uniform u lands in state
    j (0-based) where j of the row's cumulative sums lie at or below u;
    leaving out the last sum, which rounding may put below 1, caps j at
    n - 1."""
    depth = np.asarray(depth, dtype=np.int64)
    order = np.argsort(depth, kind="stable")
    depth = depth[order]
    children = np.asarray(children, dtype=np.int64)[order]
    parents = np.asarray(parents, dtype=np.int64)[order]
    cuts = np.cumsum(np.array(mats).reshape(-1, n, n)[order], 2)
    columns = cuts[:, :, :-1].transpose(2, 0, 1)
    offsets = np.arange(0, _STEP * n, n)[:, None]
    runs = [0, *(np.flatnonzero(np.diff(depth)) + 1).tolist(), len(depth)]
    return [(children[lo:hi], parents[lo:hi], offsets[:hi - lo],
             np.ascontiguousarray(columns[:, lo:hi]))
            for a, b in zip(runs, runs[1:]) for lo in range(a, b, _STEP)
            for hi in (min(lo + _STEP, b),)]


def _descend(n: int, levels, roots, u) -> np.ndarray:
    """0-based states of a block of trials of an n-state chain, in the
    smallest integer type that holds them, one row per vertex: row 0 the
    roots, row v > 0 drawn from its parent's row by inverting the
    cumulative rows of v's edge with the uniforms ``u[v - 1]``, a level
    at a time.  A level counts the cumulative sums at or below u one
    column at a time, in the states' own type."""
    states = np.zeros((len(u) + 1, len(roots)), dtype=np.min_scalar_type(n))
    states[0] = roots
    states[0] -= 1
    # a one-state chain has no column to count: its states stay 0
    for children, parents, offsets, columns in levels if n > 1 else ():
        at, below = offsets + states[parents], u[children - 1]
        count = columns[0].take(at) <= below
        for column in columns[1:]:
            count = np.add(count, column.take(at) <= below,
                           dtype=states.dtype)
        states[children] = count
    return states


def simulate(tree: Tree, process, root_state, rng) -> dict:
    """One realization of the chain on the tree; returns leaf id -> state.

    Sibling subtrees evolve independently given the parent state, edge
    by edge in topological order.  A finite chain draws one uniform per
    edge from ``rng``, all at once as a one-row block, which consumes the
    stream exactly as a per-edge loop does.  TKF91 is a one-trial block:
    it draws its batches of edges from ``rng`` as ``simulated_trials``
    says.  Any other process samples each edge from ``rng`` itself.
    """
    if isinstance(process, RateMatrix):
        c = _compile(tree, process)
        leaves, _ = _draw_block(process.n, c.levels, [root_state],
                                rng.random((1, len(c.parents))), c.leaves,
                                [])
    elif isinstance(process, Tkf91Params):
        batches, vertices = _tkf91_plan(tree, process)
        leaves, _ = _draw_tkf91(process, batches, vertices, [],
                                [root_state], rng)
    else:
        leaves, _ = _draw_each(_layout(tree), process, [root_state], rng)
    return dict(zip(tree.leaves, leaves[0].tolist()))


def _tkf91_plan(tree: Tree, params: Tkf91Params) -> tuple:
    """A tree's leaves' indices, and its edges in batches of parent and
    child indices (as in ``_Layout``) and lengths, built once per tree:
    the edges into inner vertices one batch per depth of their child,
    then every edge into a leaf, each batch in topological order."""
    plan = params.compiled.get(tree)
    if plan is None:
        lay = _layout(tree)
        groups: dict = {}
        for e, x in enumerate(lay.leaf_of):
            groups.setdefault(np.inf if x is not None else lay.depth[e + 1],
                              []).append(e)
        plan = params.compiled[tree] = (
            [([lay.parents[e] for e in es], [e + 1 for e in es],
              np.array([lay.lengths[e] for e in es], dtype=float))
             for _, es in sorted(groups.items())], lay.leaves)
    return plan


def _draw_tkf91(params, batches, leaves, picks, roots, rng) -> tuple:
    """The sequences of the vertices ``leaves`` and ``picks`` (None for no
    ``picks``) of the trials whose roots are ``roots``, as (trials ×
    vertices) object arrays.  The edges of each of ``batches`` in turn go
    ``tkf91.LANES`` // trials (at least one) to an ``evolve_lanes`` call
    on ``rng``, lanes edge by edge, then trial by trial, so that memory
    stays bounded however wide the tree."""
    trials = len(roots)
    step = max(1, tkf91.LANES // trials)
    seqs = {0: encode(roots)}
    for parents, children, lengths in batches:
        for lo in range(0, len(parents), step):
            group = parents[lo:lo + step]
            codes, lens = evolve_lanes(
                params, np.concatenate([seqs[p][0] for p in group]),
                np.concatenate([seqs[p][1] for p in group]),
                np.repeat(lengths[lo:lo + step], trials), rng)
            lens = lens.reshape(len(group), trials)
            seqs.update(zip(children[lo:lo + step], zip(np.split(
                codes, np.cumsum(lens.sum(1))[:-1]), lens)))
    read = list(dict.fromkeys([*leaves, *picks]))
    states = np.array(decode(np.concatenate([seqs[v][0] for v in read]),
                             np.concatenate([seqs[v][1] for v in read])),
                      dtype=object).reshape(len(read), trials).T
    column = {v: i for i, v in enumerate(read)}
    return (states[:, :len(leaves)],
            states[:, [column[v] for v in picks]] if picks else None)


class TrialBlock(NamedTuple):
    """Trials ``start`` to ``start + len(roots) - 1`` of one experiment:
    their root states, their leaf states as a (trials × leaves) array in
    ``tree.leaves`` order, the states of a stretch's leaves at their
    durations as a (trials × m) array (None without a stretch), and each
    trial's generator, left where its estimator continues the stream: the
    block's one generator, which the estimators draw from in trial order.
    TKF91 states are strings, in object arrays."""

    start: int
    roots: list
    leaves: np.ndarray
    stretched: object
    rngs: list

    def trials(self, tree: Tree):
        """(t, root, leaf id -> state, rng) of each trial in the block."""
        for b, (root, row, rng) in enumerate(zip(
                self.roots, self.leaves.tolist(), self.rngs)):
            yield self.start + b, root, dict(zip(tree.leaves, row)), rng


def simulated_trials(tree: Tree, process, draw_root, key, stop: int,
                     start: int = 0, stretch=None):
    """The trials ``start`` to ``stop - 1`` of one experiment, as
    ``TrialBlock``s of at most ``BLOCK`` trials; ``start`` must be a
    multiple of ``BLOCK`` (else ``ValueError``).

    Block b (trials b·BLOCK to b·BLOCK + BLOCK - 1) seeds one generator
    from ``[*key, b]`` and draws from it its roots with
    ``draw_root(rng)``, one trial after another, then the block's edges,
    then the leaves of ``stretch`` (a ``StretchPlan``, or None) whose
    duration exceeds ``DURATION_TOL``, as extra edges below their leaves.
    A finite chain draws ``BLOCK`` roots, then a (BLOCK × w) array of
    uniforms, a row per trial of one per edge in topological order and
    one per stretched leaf, and inverts each edge's cumulative rows for
    the whole block at once; a last, short block draws as much as a full
    one, so trial t is the same in every run that reaches it.  Any other
    block draws the roots of its own trials only, so its trials depend on
    the run's trial count only inside the last, short block.  TKF91 then
    draws its batches of edges (``_tkf91_plan``, and the stretched
    leaves' edges last) as ``_draw_tkf91`` says.  Any other process
    simulates one trial after another, as ``simulate`` does, and takes
    no stretch (``TypeError``).
    """
    if start % BLOCK:
        raise ValueError(f"trials start at a multiple of {BLOCK}, "
                         f"not at {start}")
    if isinstance(process, RateMatrix):
        c = _compile(tree, process)
        starts, ends, durations, picks = _stretch_edges(
            tree, c.leaves, len(c.parents) + 1, stretch)
        # the stretched leaves' edges hang below the leaves: a last level
        levels = c.levels + _levels(process.n, [process.matrix(d)
                                                for d in durations],
                                    ends, starts, [0] * len(ends))
        return _trial_blocks(process.n, levels, len(c.parents) + len(ends),
                             c.leaves, picks, draw_root, key, stop, start)
    if isinstance(process, Tkf91Params):
        batches, leaves = _tkf91_plan(tree, process)
        starts, ends, durations, picks = _stretch_edges(
            tree, leaves, len(tree.topo_order), stretch)
        if ends:
            batches = batches + [(starts, ends, np.array(durations))]
        draw = partial(_draw_tkf91, process, batches, leaves, picks)
    elif stretch is not None:
        raise TypeError("only a finite chain's or TKF91's trials take a "
                        "stretch")
    else:
        draw = partial(_draw_each, _layout(tree), process)
    return _own_blocks(draw, draw_root, key, stop, start)


def _stretch_edges(tree, leaves, size, stretch) -> tuple:
    """The edges that run forward the leaves of ``stretch`` (or None)
    whose duration exceeds ``DURATION_TOL``: parents, children (indices
    from ``size`` on) and durations; and each stretched leaf's index.
    ``leaves`` holds the indices of ``tree.leaves``."""
    column = dict(zip(tree.leaves, leaves))
    starts, ends, durations, picks = [], [], [], []
    for x, dur in zip(() if stretch is None else stretch.leaves,
                      () if stretch is None else stretch.durations):
        if dur > DURATION_TOL:
            starts.append(column[x])
            ends.append(size + len(durations))
            durations.append(dur)
        picks.append(ends[-1] if dur > DURATION_TOL else column[x])
    return starts, ends, durations, picks


def _trial_blocks(n, levels, width, leaves, picks, draw_root, key, stop,
                  start):
    for lo in range(start, stop, BLOCK):
        rng = np.random.default_rng([*key, lo // BLOCK])
        roots = [draw_root(rng) for _ in range(BLOCK)]
        u = rng.random((BLOCK, width))
        count = min(BLOCK, stop - lo)
        yield TrialBlock(lo, roots[:count], *_draw_block(
            n, levels, roots[:count], u[:count], leaves, picks),
            [rng] * count)


def _own_blocks(draw, draw_root, key, stop, start):
    for lo in range(start, stop, BLOCK):
        rng = np.random.default_rng([*key, lo // BLOCK])
        roots = [draw_root(rng) for _ in range(min(BLOCK, stop - lo))]
        yield TrialBlock(lo, roots, *draw(roots, rng), [rng] * len(roots))


def _draw_each(lay: _Layout, process, roots, rng) -> tuple:
    """The leaf states of the trials whose roots are ``roots``, of a
    process other than a finite chain or TKF91 on the tree laid out as
    ``lay``, trial after trial and edge by edge; and no stretch."""
    rows = []
    for root in roots:
        states = [root]
        for p, t in zip(lay.parents, lay.lengths):
            states.append(process.sample(states[p], t, rng))
        rows.append([states[i] for i in lay.leaves])
    return np.array(rows, dtype=object), None


def _draw_block(n, levels, roots, u, leaves, picks) -> tuple:
    """The 1-based states of the vertices ``leaves`` and ``picks`` as
    (trials × vertices) arrays, None for no ``picks``, of the trials
    whose roots are ``roots`` and whose uniforms are the rows of ``u``."""
    states = _descend(n, levels, roots, u.T)
    states += 1
    return states[leaves].T, states[picks].T if picks else None


def block_leaf_likelihoods(tree: Tree, Q: RateMatrix,
                           leaf_states) -> np.ndarray:
    """Row b: P(leaves = row b of ``leaf_states`` | root = i) for
    i = 1..n, up to one positive factor per row, by Felsenstein pruning.

    ``leaf_states`` holds one observation per row, in ``tree.leaves``
    order.  One pass over the edges in reverse topological order
    multiplies each child's message into its parent's rows: a leaf sends
    the column of its edge's transition matrix at its observed state, an
    inner vertex the matrix times its own vector.  Every product row is
    rescaled by its maximum, so deep or wide trees do not underflow.  An
    all-zero row means its observation is impossible under every root
    state.
    """
    c = _compile(tree, Q)
    obs = np.asarray(leaf_states, dtype=np.int64) - 1
    vecs: list = [None] * (len(c.parents) + 1)
    for e in range(len(c.parents) - 1, -1, -1):
        x = c.leaf_of[e]
        if x is None:
            # one matrix-vector product per row, not one matrix product
            # for the block: the rounding of a row, and so which of two
            # tied root states wins, cannot depend on the block it is in
            msg = np.matmul(c.mats[e], vecs[e + 1][:, :, None])[:, :, 0]
        else:
            msg = c.mats[e].T.take(obs[:, x], 0)
        p = c.parents[e]
        acc = msg if vecs[p] is None else vecs[p] * msg
        top = acc.max(1, keepdims=True)
        vecs[p] = np.divide(acc, top, out=acc, where=top > 0.0)
    if vecs[0] is None:
        # a single-vertex tree: its root is its one leaf
        return np.eye(Q.n)[obs[:, 0]]
    return vecs[0]


def leaf_likelihoods(tree: Tree, Q: RateMatrix, observed: dict) -> np.ndarray:
    """P(leaves = observed | root = i) for i = 1..n, up to one common
    positive factor: the one-row ``block_leaf_likelihoods``.  All zeros
    means the observation is impossible under every root state."""
    return block_leaf_likelihoods(
        tree, Q, [[observed[x] for x in tree.leaves]])[0]
