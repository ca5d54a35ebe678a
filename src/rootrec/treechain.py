"""The Markov chain propagated down a tree.

Forward simulation of leaf states, the seeded trial loop that every
experiment draws its trials from, and leaf likelihoods by Felsenstein
pruning, the package's one likelihood engine.  Both work on a block of
trials at once: simulation draws each edge (for TKF91, each batch of
edges) for the block and holds its states as integer keys (TKF91's
``tkf91.keys``), and pruning passes a finite chain's message row per
trial, the site-pattern batching of BEAGLE (Ayres et al., Syst. Biol.
2012).  Block b of ``BLOCK`` trials draws from the one substream keyed
``[*key, b]``.  Every per-tree plan is kept here, once per tree and
process, and dropped with its tree; processes carry no tree state.
"""

from __future__ import annotations

import weakref
from functools import partial
from typing import NamedTuple

import numpy as np

from .ctmc import RateMatrix
from . import tkf91
from .tkf91 import Tkf91Params, encode, evolve_lanes, lane_law
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


# the plans of each tree, dropped with it: under (build, *args), the
# value of build(tree, *args), which holds no reference to the tree
_PLANS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _plan(build, tree: Tree, *args):
    """``build(tree, *args)``, built once per tree and ``(build, *args)``:
    the tree's ``_layout``, its TKF91 batches (``_tkf91_plan``), its
    ``_compile``d form for a finite chain, and a process's ``_drawer``."""
    plans = _PLANS.get(tree)
    if plans is None:
        plans = _PLANS[tree] = {}
    key = (build, *args)
    plan = plans.get(key)
    if plan is None:
        plan = plans[key] = build(tree, *args)
    return plan


def _compile(tree: Tree, Q: RateMatrix) -> tuple:
    """The tree laid out for the finite chain ``Q``: each edge's
    transition matrix, and the edges grouped by the depth of their child,
    in edges from the root, as ``_levels``."""
    lay = _plan(_layout, tree)
    mats = [Q.matrix(t) for t in lay.lengths]
    return mats, _levels(Q.n, mats, range(1, len(lay.depth)), lay.parents,
                         lay.depth[1:])


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


def _drawer(tree: Tree, process, stretch):
    """The block draw of ``process`` on ``tree``, the one place that
    tells the process kinds apart: ``draw(draw_root, count, size, rng)``
    returns the roots, leaf states and ``stretch``ed states (None without
    a stretch) of ``count`` trials drawn from ``rng`` as
    ``simulated_trials`` says, a finite chain's as if ``size`` trials
    were drawn, and ``TrialBlock.long``."""
    lay = _plan(_layout, tree)
    starts, ends, durations, picks = _stretch_edges(tree, lay, stretch)
    if isinstance(process, RateMatrix):
        # the stretched leaves' edges hang below the leaves: a last level
        levels = _plan(_compile, tree, process)[1] + _levels(
            process.n, [process.matrix(d) for d in durations], ends, starts,
            [0] * len(ends))
        return partial(_draw_chain, process.n, levels,
                       len(lay.parents) + len(ends), lay.leaves, picks)
    if isinstance(process, Tkf91Params):
        batches = _plan(_tkf91_plan, tree, process)
        if ends:
            batches = batches + [(starts, ends, lane_law(process, durations))]
        return partial(_draw_tkf91, process, batches, lay.leaves, picks)
    if stretch is not None:
        raise TypeError("only a finite chain's or TKF91's trials take a "
                        "stretch")
    return partial(_draw_each, lay, process)


def simulate(tree: Tree, process, root_state, rng) -> dict:
    """One realization of the chain on the tree; returns leaf id -> state.

    Sibling subtrees evolve independently given the parent state, edge
    by edge in topological order: a one-trial block, drawn from ``rng`` as
    ``simulated_trials`` says.  A finite chain draws one uniform per edge,
    all at once, which consumes the stream exactly as a per-edge loop
    does.
    """
    block = TrialBlock(0, *_plan(_drawer, tree, process, None)(
        lambda rng: root_state, 1, 1, rng), [rng])
    return next(block.trials(tree))[2]


def _tkf91_plan(tree: Tree, params: Tkf91Params) -> list:
    """A tree's edges in batches of parent and child indices (as in
    ``_Layout``) and of each edge's ``tkf91.lane_law`` under ``params``:
    the edges into inner vertices one batch per depth of their child,
    then every edge into a leaf, each batch in topological order."""
    lay = _plan(_layout, tree)
    law = lane_law(params, lay.lengths)
    groups: dict = {}
    for e, x in enumerate(lay.leaf_of):
        groups.setdefault(np.inf if x is not None else lay.depth[e + 1],
                          []).append(e)
    return [([lay.parents[e] for e in es], [e + 1 for e in es], law[:, es])
            for _, es in sorted(groups.items())]


def _draw_tkf91(params, batches, leaves, picks, draw_root, count, size,
                rng) -> tuple:
    """TKF91's draw: ``count`` roots, then the ``tkf91.keys`` of the
    vertices ``leaves`` and ``picks`` (None for no ``picks``) as (trials
    × vertices) arrays, and their long sequences.  The edges of each of
    ``batches`` in turn go ``tkf91.LANES`` // trials (at least one) to an
    ``evolve_lanes`` call on ``rng``, lanes edge by edge, then trial by
    trial, so that memory stays bounded however wide the tree."""
    roots = [draw_root(rng) for _ in range(count)]
    step = max(1, tkf91.LANES // count)
    seqs = {0: encode(roots)}
    for parents, children, law in batches:
        for lo in range(0, len(parents), step):
            group = parents[lo:lo + step]
            law_lo = np.repeat(law[:, lo:lo + step], count, axis=1)
            if len(group) == 1:
                seqs[children[lo]] = evolve_lanes(params, *seqs[group[0]],
                                                  law_lo, rng)
                continue
            codes, lens = evolve_lanes(
                params, np.concatenate([seqs[p][0] for p in group]),
                np.concatenate([seqs[p][1] for p in group]), law_lo, rng)
            lens = lens.reshape(len(group), count)
            seqs.update(zip(children[lo:lo + step], zip(np.split(
                codes, np.cumsum(lens.sum(1))[:-1]), lens)))
    read = list(dict.fromkeys([*leaves, *picks]))
    keyed, long = tkf91.keys(np.concatenate([seqs[v][0] for v in read]),
                             np.concatenate([seqs[v][1] for v in read]))
    keyed = keyed.reshape(len(read), count).T
    column = {v: i for i, v in enumerate(read)}
    return (roots, keyed[:, :len(leaves)],
            keyed[:, [column[v] for v in picks]] if picks else None, long)


class TrialBlock(NamedTuple):
    """Trials ``start`` to ``start + len(roots) - 1`` of one experiment:
    their root states, their leaf states as a (trials × leaves) array in
    ``tree.leaves`` order, the states of a stretch's leaves at their
    durations as a (trials × m) array (None without a stretch), ``long``,
    and each trial's generator, left where its estimator continues the
    stream: the block's one generator, which the estimators draw from in
    trial order.  TKF91 blocks hold ``tkf91.keys``, whose long sequences
    are ``long`` (else None), as strings only where ``states`` reads."""

    start: int
    roots: list
    leaves: np.ndarray
    stretched: object
    long: tuple
    rngs: list

    def states(self, keyed) -> list:
        """The states of the keys ``keyed``, as (nested) lists."""
        return (keyed.tolist() if self.long is None
                else tkf91.strings(keyed, self.long))

    def trials(self, tree: Tree):
        """(t, root, leaf id -> state, rng) of each trial in the block."""
        for b, (root, row, rng) in enumerate(zip(
                self.roots, self.states(self.leaves), self.rngs)):
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
    draw = _plan(_drawer, tree, process, stretch)
    return (_block(draw, draw_root, key, lo, min(BLOCK, stop - lo))
            for lo in range(start, stop, BLOCK))


def _block(draw, draw_root, key, lo: int, count: int) -> TrialBlock:
    rng = np.random.default_rng([*key, lo // BLOCK])
    return TrialBlock(lo, *draw(draw_root, count, BLOCK, rng), [rng] * count)


def _stretch_edges(tree: Tree, lay: _Layout, stretch) -> tuple:
    """The edges that run forward the leaves of ``stretch`` (or None)
    whose duration exceeds ``DURATION_TOL``: parents, children (indices
    after the tree's vertices) and durations; and each stretched leaf's
    index."""
    column = dict(zip(tree.leaves, lay.leaves))
    starts, ends, durations, picks = [], [], [], []
    for x, dur in zip(() if stretch is None else stretch.leaves,
                      () if stretch is None else stretch.durations):
        if dur > DURATION_TOL:
            starts.append(column[x])
            ends.append(len(lay.depth) + len(durations))
            durations.append(dur)
        picks.append(ends[-1] if dur > DURATION_TOL else column[x])
    return starts, ends, durations, picks


def _draw_chain(n, levels, width, leaves, picks, draw_root, count, size,
                rng) -> tuple:
    """An n-state chain's draw: ``size`` roots and a (size × ``width``)
    array of uniforms, of which the first ``count`` trials descend
    ``levels``; their roots, and the 1-based states of the vertices
    ``leaves`` and ``picks`` as (trials × vertices) arrays, None for no
    ``picks``; and no ``long``."""
    roots = [draw_root(rng) for _ in range(size)][:count]
    states = _descend(n, levels, roots, rng.random((size, width))[:count].T)
    states += 1
    return roots, states[leaves].T, states[picks].T if picks else None, None


def _draw_each(lay: _Layout, process, draw_root, count, size, rng) -> tuple:
    """Any other process's draw on the tree laid out as ``lay``: ``count``
    roots, then each trial's leaf states, trial after trial and edge by
    edge; and no stretch or ``long``."""
    roots = [draw_root(rng) for _ in range(count)]
    rows = []
    for root in roots:
        states = [root]
        for p, t in zip(lay.parents, lay.lengths):
            states.append(process.sample(states[p], t, rng))
        rows.append([states[i] for i in lay.leaves])
    return roots, np.array(rows, dtype=object), None, None


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
    lay = _plan(_layout, tree)
    mats = _plan(_compile, tree, Q)[0]
    obs = np.asarray(leaf_states, dtype=np.int64) - 1
    vecs: list = [None] * len(lay.depth)
    for e in range(len(lay.parents) - 1, -1, -1):
        x = lay.leaf_of[e]
        if x is None:
            # one matrix-vector product per row, not one matrix product
            # for the block: the rounding of a row, and so which of two
            # tied root states wins, cannot depend on the block it is in
            msg = np.matmul(mats[e], vecs[e + 1][:, :, None])[:, :, 0]
        else:
            msg = mats[e].T.take(obs[:, x], 0)
        p = lay.parents[e]
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
