"""The Markov chain propagated down a tree.

Forward simulation of leaf states, the seeded trial loop that every
experiment draws its trials from, and leaf likelihoods by Felsenstein
pruning, the package's one likelihood engine.  Both work on a block of
trials at once: simulation holds a block's states as integer keys, and
pruning passes a finite chain's message row per trial, the site-pattern
batching of BEAGLE (Ayres et al., Syst. Biol. 2012).  Block b of
``BLOCK`` trials draws from the one substream keyed ``[*key, b]``.  The
process builds its draw of a tree from the tree's index layout, once per
``simulated_trials`` call (``block_draw``), and reads its keys
(``keys``), so no process kind is told apart here; processes carry no
tree state.  The one-trial calls ``simulate`` and ``leaf_likelihoods``
are test references (``tests/oracles.py``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .ctmc import RateMatrix
from .tree import Tree

__all__ = [
    "BLOCK",
    "DURATION_TOL",
    "TrialBlock",
    "simulated_trials",
    "block_leaf_likelihoods",
]

# a finite chain's trials b·BLOCK to b·BLOCK + BLOCK - 1 draw from one
# generator, keyed by b; a constant, so no worker count or split of the
# trial range on block boundaries changes how a trial is drawn
BLOCK = 256
# a stretched leaf runs forward only for a duration above this
DURATION_TOL = 1e-12


class TrialBlock(NamedTuple):
    """Trials ``start`` to ``start + len(roots) - 1`` of one experiment:
    their root states, their leaf states as a (trials × leaves) array of
    keys in ``tree.leaves`` order, the keys of a stretch's leaves at their
    durations as a (trials × m) array (None without a stretch), the
    ``keys`` that read them (the process's ``keys`` or, for TKF91, its
    block's long sequences), and the block's one generator, left where
    the estimators continue the stream in trial order."""

    start: int
    roots: list
    leaves: np.ndarray
    stretched: object
    keys: object
    rng: np.random.Generator

    def trials(self, tree: Tree):
        """(t, root, leaf id -> state) of each trial in the block."""
        for t, (root, row) in enumerate(zip(
                self.roots, self.keys.states(self.leaves)), self.start):
            yield t, root, dict(zip(tree.leaves, row))


def simulated_trials(tree: Tree, process, draw_roots, key, stop: int,
                     start: int = 0, stretch=None):
    """The trials ``start`` to ``stop - 1`` of one experiment, as
    ``TrialBlock``s of at most ``BLOCK`` trials; ``start`` must be a
    multiple of ``BLOCK`` (else ``ValueError``).

    Block b (trials b·BLOCK to b·BLOCK + BLOCK - 1) seeds one generator
    from ``[*key, b]`` and draws from it, by the process's
    ``block_draw``, its roots with one ``draw_roots(rng, size)`` call,
    which returns a list of ``size`` roots, then the block's edges, then
    the leaves of ``stretch`` (a ``StretchPlan``, or None) whose duration
    exceeds ``DURATION_TOL``, as extra edges below their leaves; the
    process builds that draw once per call.  A finite chain's last, short
    block draws as much as a full one (``ctmc._draw_chain``), so trial t
    is the same in every run that reaches it; a TKF91 block draws for its
    own trials only (``tkf91.draw_block``).  A process with no block draw
    raises ``TypeError``.
    """
    if start % BLOCK:
        raise ValueError(f"trials start at a multiple of {BLOCK}, "
                         f"not at {start}")
    draw = _drawer(tree, process, stretch)
    return (_block(draw, draw_roots, key, lo, min(BLOCK, stop - lo))
            for lo in range(start, stop, BLOCK))


def _drawer(tree: Tree, process, stretch):
    """``process``'s ``block_draw`` of ``tree`` and ``stretch``:
    ``draw(draw_roots, count, size, rng)`` returns the roots, leaf states
    and ``stretch``ed states (None without a stretch) of ``count`` trials
    drawn from ``rng`` as ``simulated_trials`` says, and their keys."""
    if not hasattr(process, "block_draw"):
        raise TypeError(f"no trials of {process!r}: the process must be a "
                        "RateMatrix or Tkf91Params")
    return process.block_draw(tree, *_stretch_edges(tree, stretch))


def _block(draw, draw_roots, key, lo: int, count: int) -> TrialBlock:
    rng = np.random.default_rng([*key, lo // BLOCK])
    return TrialBlock(lo, *draw(draw_roots, count, BLOCK, rng), rng)


def _stretch_edges(tree: Tree, stretch) -> tuple:
    """The edges that run forward the leaves of ``stretch`` (or None)
    whose duration exceeds ``DURATION_TOL``: parents, children (indices
    after the tree's vertices) and durations; and each stretched leaf's
    index."""
    column = dict(zip(tree.leaves, tree.leaf_vertices))
    starts, ends, durations, picks = [], [], [], []
    for x, dur in zip(() if stretch is None else stretch.leaves,
                      () if stretch is None else stretch.durations):
        if dur > DURATION_TOL:
            starts.append(column[x])
            ends.append(len(tree.topo_order) + len(durations))
            durations.append(dur)
        picks.append(ends[-1] if dur > DURATION_TOL else column[x])
    return starts, ends, durations, picks


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
    mats = Q.matrices(tree.edge_lengths)
    obs = np.asarray(leaf_states, dtype=np.int64) - 1
    vecs: list = [None] * len(tree.topo_order)
    for e in range(len(tree.edge_parents) - 1, -1, -1):
        x = tree.edge_leaves[e]
        if x is None:
            # one matrix-vector product per row, not one matrix product
            # for the block: the rounding of a row, and so which of two
            # tied root states wins, cannot depend on the block it is in
            msg = np.matmul(mats[e], vecs[e + 1][:, :, None])[:, :, 0]
        else:
            msg = mats[e].T.take(obs[:, x], 0)
        p = tree.edge_parents[e]
        acc = msg if vecs[p] is None else vecs[p] * msg
        top = acc.max(1, keepdims=True)
        vecs[p] = np.divide(acc, top, out=acc, where=top > 0.0)
    if vecs[0] is None:
        # a single-vertex tree: its root is its one leaf
        return np.eye(Q.n)[obs[:, 0]]
    return vecs[0]
