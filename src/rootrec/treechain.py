"""The Markov chain propagated down a tree.

Forward simulation of leaf states, the seeded trial loop that every
experiment draws its trials from, and leaf likelihoods by Felsenstein
pruning, the package's one likelihood engine.  For a finite chain both
engines work on a block of trials at once: simulation draws each edge
for the whole block, and pruning passes one message row per trial, the
site-pattern batching of BEAGLE (Ayres et al., Syst. Biol. 2012).  A
finite chain's trials come in blocks of ``BLOCK``, and block b draws
from the one substream keyed ``[*key, b]``; a last, short block draws
as much as a full one, so trial t does not depend on how many trials a
run has.  A trial of any other process reads its own substream
``[*key, t]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ctmc import RateMatrix
from .tkf91 import Tkf91Params, Uniforms
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


@dataclass(frozen=True)
class _CompiledTree:
    """A tree laid out for one finite chain.  Vertices are indexed in
    topological order (the root is 0, edge e's child is e + 1); for each
    edge: its parent's index, its transition matrix, and its child as a
    position in ``tree.leaves`` if that is a leaf (else None); the
    leaves' indices in ``tree.leaves`` order; and the edges grouped by
    the depth of their child, in edges from the root, as ``_levels``."""

    parents: list
    mats: list
    leaf_of: list
    leaves: list
    levels: list


def _compile(tree: Tree, Q: RateMatrix) -> _CompiledTree:
    c = Q.compiled.get(tree)
    if c is None:
        index = {v: i for i, v in enumerate(tree.topo_order)}
        position = {x: i for i, x in enumerate(tree.leaves)}
        edges = tree.topo_order[1:]
        parents = [index[tree.parent[v]] for v in edges]
        mats = [Q.matrix(tree.length[v]) for v in edges]
        depth = [0]
        for p in parents:
            depth.append(depth[p] + 1)
        c = _CompiledTree(
            parents=parents,
            mats=mats,
            leaf_of=[None if tree.children[v] else position[v]
                     for v in edges],
            leaves=[index[x] for x in tree.leaves],
            levels=_levels(Q.n, mats, range(1, len(depth)), parents,
                           depth[1:]))
        Q.compiled[tree] = c
    return c


def _levels(n: int, mats, children, parents, depth) -> list:
    """Edges, each with its n-state transition matrix in ``mats``,
    grouped by the ``depth`` of their child, at most ``_STEP`` to a group,
    so that every parent is drawn before any of its children.  Each group
    holds slices of four arrays sorted once by depth: the children's and
    the parents' indices, a column of row numbers, and each edge's
    cumulative rows without their last column.  A uniform u lands in
    state j (0-based) where j of the row's cumulative sums lie at or below
    u; leaving out the last sum, which rounding may put below 1, caps j at
    n - 1."""
    depth = np.asarray(depth, dtype=np.int64)
    order = np.argsort(depth, kind="stable")
    depth = depth[order]
    children = np.asarray(children, dtype=np.int64)[order]
    parents = np.asarray(parents, dtype=np.int64)[order]
    cuts = np.cumsum(np.array(mats).reshape(-1, n, n)[order], 2)[:, :, :-1]
    rows = np.arange(_STEP)[:, None]
    runs = [0, *(np.flatnonzero(np.diff(depth)) + 1).tolist(), len(depth)]
    return [(children[lo:hi], parents[lo:hi], rows[:hi - lo], cuts[lo:hi])
            for a, b in zip(runs, runs[1:]) for lo in range(a, b, _STEP)
            for hi in (min(lo + _STEP, b),)]


def _descend(n: int, levels, roots, u) -> np.ndarray:
    """0-based states of a block of trials of an n-state chain, in the
    smallest integer type that holds them, one row per vertex: row 0 the
    roots, row v > 0 drawn from its parent's row by inverting the
    cumulative rows of v's edge with the uniforms ``u[v - 1]``, a level
    at a time."""
    states = np.empty((len(u) + 1, len(roots)), dtype=np.min_scalar_type(n))
    states[0] = roots
    states[0] -= 1
    for children, parents, rows, cuts in levels:
        states[children] = (cuts[rows, states[parents]]
                            <= u[children - 1, :, None]).sum(2)
    return states


def simulate(tree: Tree, process, root_state, rng) -> dict:
    """One realization of the chain on the tree; returns leaf id -> state.

    Sibling subtrees evolve independently given the parent state, edge
    by edge in topological order.  A finite chain draws one uniform per
    edge from ``rng``, all at once as a one-row block, which consumes the
    stream exactly as a per-edge loop does.  TKF91 reads ``rng`` through
    one ``tkf91.Uniforms``, in chunks of ``tkf91.CHUNK`` uniforms, and
    leaves it after the last chunk.  Any other process samples each edge
    from ``rng`` itself.
    """
    if isinstance(process, RateMatrix):
        c = _compile(tree, process)
        leaves, _ = _draw_block(process.n, c.levels, [root_state],
                                rng.random((1, len(c.parents))), c.leaves,
                                [])
        return dict(zip(tree.leaves, leaves[0].tolist()))
    if isinstance(process, Tkf91Params):
        rng = Uniforms(rng)
    states = {tree.root: root_state}
    for v in tree.topo_order[1:]:
        states[v] = process.sample(states[tree.parent[v]], tree.length[v],
                                   rng)
    return {x: states[x] for x in tree.leaves}


class TrialBlock(NamedTuple):
    """Trials ``start`` to ``start + len(roots) - 1`` of one experiment:
    their root states, their leaf states as a (trials × leaves) array in
    ``tree.leaves`` order, the states of a stretch's leaves at their
    durations as a (trials × m) array (None without a stretch), and each
    trial's generator, left where its estimator continues the stream.  A
    finite chain's trials share their block's one generator, so their
    estimators draw from it in trial order."""

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

    For a finite chain, block b (trials b·BLOCK to b·BLOCK + BLOCK - 1)
    seeds one generator from ``[*key, b]``.  From it the block draws its
    ``BLOCK`` roots with ``draw_root(rng)``, one trial after another,
    then in one call a (BLOCK × w) array of uniforms: a row per trial, of
    one uniform per edge in topological order and one per leaf of
    ``stretch`` (a ``StretchPlan``, or None) whose duration exceeds
    ``DURATION_TOL``.  Each edge's cumulative rows are inverted for the
    whole block at once.  A last, short block draws as many roots and
    uniforms as a full one and descends only the rows it keeps, so trial
    t is the same in every run of the same key that reaches it.  Any
    other process seeds trial t's own generator from ``[*key, t]``, draws
    its root and then its leaves with ``simulate`` (TKF91 in chunks of
    ``tkf91.CHUNK`` uniforms), and takes no stretch.
    """
    if start % BLOCK:
        raise ValueError(f"trials start at a multiple of {BLOCK}, "
                         f"not at {start}")
    if not isinstance(process, RateMatrix):
        if stretch is not None:
            raise TypeError("only a finite chain's trials take a stretch")
        return _trials_one_by_one(tree, process, draw_root, key, stop,
                                  start)
    # the stretched leaves' edges hang below the leaves: a last level
    c = _compile(tree, process)
    size, picks = len(c.parents) + 1, []
    column = dict(zip(tree.leaves, c.leaves))
    ends, starts, durations = [], [], []
    for x, dur in zip(() if stretch is None else stretch.leaves,
                      () if stretch is None else stretch.durations):
        if dur > DURATION_TOL:
            ends.append(size + len(ends))
            starts.append(column[x])
            durations.append(dur)
        picks.append(ends[-1] if dur > DURATION_TOL else column[x])
    levels = c.levels + _levels(process.n, [process.matrix(d)
                                            for d in durations],
                                ends, starts, [0] * len(ends))
    return _trial_blocks(process.n, levels, size - 1 + len(ends), c.leaves,
                         picks, draw_root, key, stop, start)


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


def _trials_one_by_one(tree, process, draw_root, key, stop, start):
    for lo in range(start, stop, BLOCK):
        rngs = [np.random.default_rng([*key, t])
                for t in range(lo, min(lo + BLOCK, stop))]
        roots = [draw_root(rng) for rng in rngs]
        leaves = np.array([[obs[x] for x in tree.leaves] for obs in (
            simulate(tree, process, root, rng)
            for root, rng in zip(roots, rngs))], dtype=object)
        yield TrialBlock(lo, roots, leaves, None, rngs)


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
