"""The Markov chain propagated down a tree.

Forward simulation of leaf states, the seeded trial loop that every
experiment draws its trials from, and leaf likelihoods by Felsenstein
pruning, the package's one likelihood engine.  Both work on a block of
trials at once: simulation draws each edge (for TKF91, each batch of
edges) for the block and holds its states as integer keys (TKF91's
``tkf91.keys``), and pruning passes a finite chain's message row per
trial, the site-pattern batching of BEAGLE (Ayres et al., Syst. Biol.
2012).  Simulation does no work on an edge that cannot move a state (a
finite chain's identity matrix, a ``tkf91.identity`` law, as on the
short edges near the root of a deep family) beyond reading the uniforms
its draw would read.  Block b of ``BLOCK`` trials draws from the one
substream keyed ``[*key, b]``.  A process is a finite chain
(``ctmc.RateMatrix``) or TKF91 (``tkf91.Tkf91Params``), whose draw is
``tkf91``'s code: that module is imported only where a TKF91 process is
drawn or its keys read, so a finite chain never loads it; it gets
the tree's layout from here and imports nothing of this module.  Every
per-tree plan is kept here, once per tree and process, and dropped with
its tree; processes carry no tree state.
"""

from __future__ import annotations

import weakref
from functools import partial
from typing import NamedTuple

import numpy as np

from .ctmc import RateMatrix
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
# a finite chain's block draws at most this many uniforms at once (but
# at least one trial's row), so its memory is bounded on a tree of any
# width; a step of fewer trials holds proportionally more edges
_UNIFORMS = 2 ** 21


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
    the tree's ``_layout``, its ``_compile``d form for a finite chain,
    and a process's ``_drawer`` (which holds TKF91's batches of edges,
    ``tkf91.edge_batches``)."""
    plans = _PLANS.get(tree)
    if plans is None:
        plans = _PLANS[tree] = {}
    key = (build, *args)
    plan = plans.get(key)
    if plan is None:
        plan = plans[key] = build(tree, *args)
    return plan


class _Compiled(NamedTuple):
    """A tree laid out for a finite chain: each edge's transition matrix;
    the edges whose matrix is not the identity, as ``_levels`` by the
    depth of their child in such edges; and each vertex's ``alias``, the
    vertex whose drawn state it holds: itself if such an edge enters it,
    else its parent's alias.  An identity edge's child is its parent's
    state whatever its uniform, so it is not drawn."""

    mats: list
    levels: list
    alias: list


def _compile(tree: Tree, Q: RateMatrix) -> _Compiled:
    """The tree laid out for the finite chain ``Q``, its matrices from one
    ``Q.matrices`` pass and the identity decided once per distinct
    length."""
    lay = _plan(_layout, tree)
    lengths = list(dict.fromkeys(lay.lengths))
    still = dict(zip(lengths, (np.reshape(Q.matrices(lengths), (-1, Q.n, Q.n))
                               == np.eye(Q.n)).all((1, 2)).tolist()))
    alias, depth, moves = [0], [0], []
    for e, (p, t) in enumerate(zip(lay.parents, lay.lengths)):
        p = alias[p]
        if still[t]:
            alias.append(p)
            depth.append(depth[p])
        else:
            alias.append(e + 1)
            depth.append(depth[p] + 1)
            moves.append(e)
    mats = Q.matrices(lay.lengths)
    return _Compiled(mats, _levels(
        Q.n, [mats[e] for e in moves], [e + 1 for e in moves],
        [alias[lay.parents[e]] for e in moves],
        [depth[e + 1] for e in moves], len(lay.parents)), alias)


def _levels(n: int, mats, children, parents, depth, width: int) -> list:
    """Edges, each with its n-state transition matrix in ``mats``,
    grouped by the ``depth`` of their child, so that every parent is
    drawn before any of its children: at most ``_STEP`` to a group, or
    more on a tree of ``width`` uniforms a trial whose block
    ``_draw_chain`` draws fewer than ``BLOCK`` trials at a time, so that
    a group holds about ``_STEP`` × ``BLOCK`` edge-trials.  Each group
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
    step = max(_STEP, _STEP * BLOCK * width // _UNIFORMS)
    offsets = np.arange(0, step * n, n)[:, None]
    runs = [0, *(np.flatnonzero(np.diff(depth)) + 1).tolist(), len(depth)]
    return [(children[lo:hi], parents[lo:hi], offsets[:hi - lo],
             np.ascontiguousarray(columns[:, lo:hi]))
            for a, b in zip(runs, runs[1:]) for lo in range(a, b, step)
            for hi in (min(lo + step, b),)]


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
    tells the two process kinds apart, a ``RateMatrix`` and
    ``Tkf91Params`` (anything else raises ``TypeError``):
    ``draw(draw_roots, count, size, rng)`` returns the roots, leaf states
    and ``stretch``ed states (None without a stretch) of ``count`` trials
    drawn from ``rng`` as ``simulated_trials`` says, a finite chain's as
    if ``size`` trials were drawn, and ``TrialBlock.long``: a finite
    chain takes its ``size`` roots from one ``draw_roots(rng, size)``
    call, TKF91 its ``count`` roots."""
    lay = _plan(_layout, tree)
    starts, ends, durations, picks = _stretch_edges(tree, lay, stretch)
    if isinstance(process, RateMatrix):
        _, levels, alias = _plan(_compile, tree, process)
        # the stretched leaves' edges hang below the leaves' aliases: a
        # last level
        width = len(lay.parents) + len(ends)
        levels = levels + _levels(process.n, process.matrices(durations),
                                  ends, [alias[v] for v in starts],
                                  [0] * len(ends), width)
        alias = alias + ends
        return partial(_draw_chain, process.n, levels, width,
                       [alias[v] for v in lay.leaves],
                       [alias[v] for v in picks])
    from . import tkf91
    if isinstance(process, tkf91.Tkf91Params):
        batches = tkf91.edge_batches(lay, process)
        if ends:
            law = tkf91.lane_law(process, durations)
            batches = batches + [(starts, ends, law,
                                  tkf91.identity(law).tolist())]
        return partial(tkf91.draw_block, process, batches, lay.leaves,
                       picks)
    raise TypeError(f"no trials of {process!r}: the process must be a "
                    "RateMatrix or Tkf91Params")


def simulate(tree: Tree, process, root_state, rng) -> dict:
    """One realization of the chain on the tree; returns leaf id -> state.

    Sibling subtrees evolve independently given the parent state.  Each
    call draws a whole one-trial block from ``rng`` as
    ``simulated_trials`` says, so it pays a block's fixed cost per trial
    (a few numpy calls per depth of the tree, counted in the edges that
    can move a state): loops over many trials should draw them from
    ``simulated_trials``.  A finite chain draws one
    uniform per edge, all at once, which consumes the stream exactly as
    a per-edge loop does.
    """
    block = TrialBlock(0, *_plan(_drawer, tree, process, None)(
        lambda rng, size: [root_state] * size, 1, 1, rng), rng)
    return next(block.trials(tree))[2]


class TrialBlock(NamedTuple):
    """Trials ``start`` to ``start + len(roots) - 1`` of one experiment:
    their root states, their leaf states as a (trials × leaves) array in
    ``tree.leaves`` order, the states of a stretch's leaves at their
    durations as a (trials × m) array (None without a stretch), ``long``,
    and the block's one generator, left where the estimators continue
    the stream in trial order.  TKF91 blocks hold ``tkf91.keys``, whose
    long sequences are ``long`` (else None), as strings only where
    ``states`` reads."""

    start: int
    roots: list
    leaves: np.ndarray
    stretched: object
    long: tuple
    rng: np.random.Generator

    def states(self, keyed) -> list:
        """The states of the keys ``keyed``, as (nested) lists."""
        if self.long is None:
            return keyed.tolist()
        from . import tkf91
        return tkf91.strings(keyed, self.long)

    def vocabulary(self, keyed) -> tuple:
        """The keys that the frequency tests of ``keyed`` look up, in
        order, and each key's index there: a finite chain's states 1 to
        the largest in ``keyed``, indexed by ``keyed`` - 1 with no sort
        (a state that no trial holds is counted by none); TKF91's
        ``tkf91.distinct`` keys."""
        if self.long is None:
            return np.arange(1, int(keyed.max()) + 1), keyed - 1
        from . import tkf91
        return tkf91.distinct(keyed)

    def trials(self, tree: Tree):
        """(t, root, leaf id -> state) of each trial in the block."""
        for t, (root, row) in enumerate(zip(self.roots,
                                            self.states(self.leaves)),
                                        self.start):
            yield t, root, dict(zip(tree.leaves, row))


def simulated_trials(tree: Tree, process, draw_roots, key, stop: int,
                     start: int = 0, stretch=None):
    """The trials ``start`` to ``stop - 1`` of one experiment, as
    ``TrialBlock``s of at most ``BLOCK`` trials; ``start`` must be a
    multiple of ``BLOCK`` (else ``ValueError``).

    Block b (trials b·BLOCK to b·BLOCK + BLOCK - 1) seeds one generator
    from ``[*key, b]`` and draws from it its roots with one
    ``draw_roots(rng, size)`` call, which returns a list of ``size``
    roots, then the block's edges, then the leaves of ``stretch`` (a
    ``StretchPlan``, or None) whose duration exceeds ``DURATION_TOL``,
    as extra edges below their leaves.  A finite chain draws ``BLOCK``
    roots (uniform ones from one ``Generator.integers`` call, which reads
    the stream as ``BLOCK`` one-root calls do: ``cli._root_draw``), then
    a (BLOCK × w) array of uniforms, a row per trial of one per edge in
    topological order and one per stretched leaf, and inverts each edge's
    cumulative rows for the whole block at once; a last, short block
    draws as much as a full one, so trial t is the same in every run that
    reaches it.  A TKF91
    block draws the roots of its own trials only, so its trials depend on
    the run's trial count only inside the last, short block, then its
    batches of edges (``tkf91.edge_batches``, and the stretched leaves'
    edges last) as ``tkf91.draw_block`` says.  Any other process raises
    ``TypeError``.
    """
    if start % BLOCK:
        raise ValueError(f"trials start at a multiple of {BLOCK}, "
                         f"not at {start}")
    draw = _plan(_drawer, tree, process, stretch)
    return (_block(draw, draw_roots, key, lo, min(BLOCK, stop - lo))
            for lo in range(start, stop, BLOCK))


def _block(draw, draw_roots, key, lo: int, count: int) -> TrialBlock:
    rng = np.random.default_rng([*key, lo // BLOCK])
    return TrialBlock(lo, *draw(draw_roots, count, BLOCK, rng), rng)


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


def _draw_chain(n, levels, width, leaves, picks, draw_roots, count, size,
                rng) -> tuple:
    """An n-state chain's draw: ``size`` roots from one
    ``draw_roots(rng, size)`` call and a (size × ``width``) array of
    uniforms, of which the first ``count`` trials descend ``levels``;
    their roots, and the 1-based states of the vertices ``leaves`` and
    ``picks`` as (trials × vertices) arrays, None for no ``picks``; and
    no ``long``.  The uniforms are drawn, and descend, a
    slice of whole trials at a time, at most ``_UNIFORMS`` floats (but
    one trial's row at least) to a slice: the stream is read as one
    draw of the whole array reads it."""
    roots = draw_roots(rng, size)[:count]
    rows = max(1, _UNIFORMS // max(width, 1))
    read = np.array([*leaves, *picks], dtype=np.intp)
    parts = []
    for lo in range(0, size, rows):
        u = rng.random((min(rows, size - lo), width))
        if lo < count:
            parts.append(_descend(n, levels, roots[lo:lo + rows],
                                  u[:count - lo].T)[read])
    states = np.concatenate(parts, axis=1).T
    states += 1
    return (roots, states[:, :len(leaves)],
            states[:, len(leaves):] if picks else None, None)


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
    mats = _plan(_compile, tree, Q).mats
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
