"""Finite-state continuous-time Markov chain machinery.

Rate matrices, each holding its chain's one cache of transition
matrices; tolerance-controlled transition matrices via uniformization,
all the missing durations of a request (``RateMatrix.matrices``, a
tree's edge lengths) in one pass that shares the powers of the
uniformized jump chain; total variation distance, of one pair or of
every pair of a list at once.  States of a finite chain are
labelled 1..n.  A rate matrix is a process (README), so its block draws,
a depth of edges at a time, and the ``keys`` they hold are made here.
"""

from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple

import numpy as np

__all__ = [
    "RateMatrix",
    "Distribution",
    "CtmcError",
    "transition_matrix",
    "row_distribution",
    "total_variation",
    "total_variations",
    "two_state_symmetric",
    "jukes_cantor",
    "load_rate_matrix",
]

MASS_TOL = 1e-12
# at most this many edges are drawn in one step, which bounds the memory
# a wide tree's block takes
_STEP = 32
# a block draws at most this many uniforms at once (but at least one
# trial's row), so its memory is bounded on a tree of any width; a step
# of fewer than 256 trials holds proportionally more edges
_UNIFORMS = 2 ** 21


class CtmcError(ValueError):
    pass


class _States:
    """A finite chain's ``keys``: its states, none long.  A block's
    ``vocabulary`` is the states 1 to the largest in ``keyed``, indexed by
    ``keyed`` - 1 with no sort (a state no trial holds is counted by none)."""

    def key(self, states) -> tuple:
        return np.asarray(states), self

    def states(self, keyed) -> list:
        return keyed.tolist()

    def vocabulary(self, keyed) -> tuple:
        return np.arange(1, int(keyed.max()) + 1), keyed - 1

    def split(self, keyed) -> tuple:
        return len(keyed), ()


STATE_KEYS = _States()


class RateMatrix:
    """Conservative rate matrix over states 1..n, the process of its
    chain.

    Off-diagonal entries are nonnegative rates; each diagonal entry is minus
    the row's off-diagonal sum.  The rates are immutable after
    construction.  The package's one transition-matrix cache lives here:
    matrices are kept per duration, so the handful of distinct edge
    lengths of a tree are uniformized once each, in one pass.
    """

    keys = STATE_KEYS

    def __init__(self, q):
        q = np.asarray(q, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise CtmcError("rate matrix must be square")
        off = q - np.diag(np.diag(q))
        if np.any(off < 0):
            raise CtmcError("off-diagonal rates must be nonnegative")
        if not np.allclose(q.sum(axis=1), 0.0, atol=1e-9):
            raise CtmcError("rate matrix rows must sum to zero")
        if not np.all(np.isfinite(q)):
            raise CtmcError("rates must be finite")
        self.q = q
        self.q.setflags(write=False)
        self.n = q.shape[0]
        self.exit_rates = -np.diag(q)
        self.states = tuple(range(1, self.n + 1))
        self._mats: dict[float, np.ndarray] = {}

    @property
    def norm(self) -> float:
        """Operator norm sup_i sum_j |q_ij| (= 2 max_i q_i)."""
        return float(np.abs(self.q).sum(axis=1).max())

    @property
    def q_star(self) -> float:
        """max_i (q_i or 1)."""
        return float(max(self.exit_rates.max(), 1.0))

    def matrices(self, lengths) -> list:
        """exp(tQ) at each of ``lengths``, each duration computed once:
        those not yet held in one uniformization pass, to the bits of
        ``transition_matrix``; read-only, as they are shared."""
        missing = [t for t in dict.fromkeys(lengths) if t not in self._mats]
        if missing:
            for t, P in zip(missing, _uniformize(self, missing)):
                P.setflags(write=False)
                self._mats[t] = P
        return [self._mats[t] for t in lengths]

    def matrix(self, t: float) -> np.ndarray:
        """exp(tQ): the one-duration ``matrices``."""
        return self.matrices([t])[0]

    def row(self, state, t) -> Distribution:
        """The exact time-t distribution started from ``state``."""
        return row_distribution(self.matrix(t), state)

    def roots(self, root):
        """The root draw ``(rng, size) -> list`` of ``size`` states: uniform
        ones from one ``Generator.integers`` call, which reads the stream as
        ``size`` one-state calls do, or the state ``root`` each time."""
        if root == "uniform":
            root = None
        elif type(root) is not int or not 1 <= root <= self.n:
            raise CtmcError(f'root must be "uniform" or a state 1..{self.n},'
                            f" got {root!r}")
        return partial(_draw_roots, self.n, root)

    def tree_plan(self, lay) -> _Compiled:
        return _compile(lay, self)

    def block_draw(self, plan, lay, starts, ends, durations, picks):
        """``_draw_chain`` on ``plan``, the ``_compile``d ``lay``, and a last
        level of the edges of ``durations`` below the aliases of ``starts``
        to the new ``ends``; it reads ``lay.leaves`` and ``picks``."""
        _, levels, alias = plan
        width = len(lay.parents) + len(ends)
        levels = levels + _levels(self.n, self.matrices(durations), ends,
                                  [alias[v] for v in starts],
                                  [0] * len(ends), width)
        alias = alias + ends
        return partial(_draw_chain, self.n, levels, width,
                       [alias[v] for v in lay.leaves],
                       [alias[v] for v in picks])

    def __reduce__(self):
        # pickle the rates alone: the cache is rebuilt on demand
        return RateMatrix, (self.q,)

    def __repr__(self):
        return f"RateMatrix(n={self.n})"


class Distribution:
    """Sparse probability mass function over hashable states."""

    def __init__(self, masses: dict):
        total = 0.0
        clean = {}
        for state, p in masses.items():
            if p < 0:
                raise CtmcError(f"negative mass {p} for state {state!r}")
            if p > 0:
                clean[state] = float(p)
                total += p
        if abs(total - 1.0) > MASS_TOL:
            raise CtmcError(f"masses sum to {total}, not 1")
        if total != 1.0:
            clean = {s: p / total for s, p in clean.items()}
        self._m = clean

    def mass(self, state) -> float:
        return self._m.get(state, 0.0)

    def items(self):
        return self._m.items()

    @property
    def support(self):
        return self._m.keys()

    def __eq__(self, other):
        if not isinstance(other, Distribution):
            return NotImplemented
        return self._m == other._m

    def __repr__(self):
        return f"Distribution({self._m!r})"


# Largest uniformization rate lambda = rate * t summed directly.  Longer
# times are halved k times to get below it and the result squared k times
# (P(t) = P(t / 2^k)^(2^k)): exp(-lambda) underflows to 0 near 745, where
# the Poisson tail test could never pass.
UNIFORMIZATION_CAP = 16.0
TAIL_TOL = 1e-12  # the Poisson tail mass at which a series stops


def transition_matrix(Q: RateMatrix, t: float) -> np.ndarray:
    """Row-stochastic exp(tQ) by uniformization with scaling and squaring.

    The Poissonized jump-chain series is truncated when the remaining
    Poisson tail mass drops below ``TAIL_TOL``; rows are renormalized.  When
    rate * t exceeds ``UNIFORMIZATION_CAP`` the series is summed at
    t / 2^k and squared k times.  The one-duration call of the pass
    that ``RateMatrix.matrices`` makes over many.
    """
    return _uniformize(Q, [t])[0]


def _uniformize(Q: RateMatrix, lengths) -> np.ndarray:
    """``transition_matrix`` at each of ``lengths``, as an (L × n × n)
    array, in one pass: the powers of R = I + Q / rate are shared across
    the lengths, and each length's floats are those of its own series
    (its own ``math.exp``, terms added while its own tail is at least
    ``TAIL_TOL``, its own squarings)."""
    for t in lengths:
        if not 0 <= t < math.inf:
            raise CtmcError(f"time must be nonnegative and finite, got {t}")
    n = Q.n
    rate = float(Q.exit_rates.max())
    lam = rate * np.array(lengths, dtype=float)
    squarings = np.zeros(len(lam), dtype=int)
    while (over := lam > UNIFORMIZATION_CAP).any():
        lam[over] /= 2.0
        squarings += over
    # where rate * t is 0 no term is added and P is the identity, so a
    # chain that never jumps needs no R
    R = np.eye(n) + Q.q / (rate or 1.0)
    term = np.array([math.exp(-x) for x in lam.tolist()])
    acc = term.copy()
    P = term[:, None, None] * np.eye(n)
    power = np.eye(n)
    k = 0
    live = np.flatnonzero(1.0 - acc >= TAIL_TOL)
    while len(live):
        k += 1
        power = power @ R
        term[live] *= lam[live] / k
        acc[live] += term[live]
        P[live] += term[live, None, None] * power
        live = live[1.0 - acc[live] >= TAIL_TOL]
    sums = P.sum(axis=2)
    if np.any(np.abs(sums - 1.0) > 1e-8):
        raise CtmcError("uniformization failed to produce stochastic rows")
    P /= sums[:, :, None]
    for i in np.flatnonzero(squarings).tolist():
        M = P[i].copy()
        for _ in range(squarings[i]):
            M = M @ M
            M /= M.sum(axis=1)[:, None]
        P[i] = M
    return P


def row_distribution(P: np.ndarray, i: int) -> Distribution:
    """Row of a transition matrix as a Distribution over 1..n."""
    return Distribution({j + 1: p for j, p in enumerate(P[i - 1]) if p > 0})


def total_variation(a: Distribution, b: Distribution) -> float:
    """Half the L1 distance between two sparse distributions, summed over
    ``a``'s support in its order and then the states only ``b`` holds, one
    term after another, so that the rounding does not depend on the hash
    seed: the one-pair ``total_variations``."""
    return float(total_variations([a, b])[0])


def total_variations(dists) -> np.ndarray:
    """``total_variation`` of each pair of ``dists`` in
    ``itertools.combinations`` order, to the last bit.  Each distribution
    is a row of its states' columns (in the union of the supports) and a
    row of their masses, in its order; a pair's terms, the first's
    support and then the second's with zeros for the states the first
    holds, are added in order by one ``np.add.accumulate`` (adding a zero
    changes no sum).  Memory grows with the pairs of one distribution
    times the largest support, not with the union."""
    if len(dists) < 2:
        return np.empty(0)
    states = list(dict.fromkeys(s for d in dists for s in d.support))
    column = {s: c for c, s in enumerate(states)}
    width = max(len(d.support) for d in dists)
    # padded with the column past the last state, of no mass
    held = np.full((len(dists), width), len(states))
    mass = np.zeros((len(dists), width))
    for cols, row, d in zip(held, mass, dists):
        cols[:len(d.support)] = [column[s] for s in d.support]
        row[:len(d.support)] = [p for _, p in d.items()]
    # each column's place in the first distribution's row, width if none
    place = np.full(len(states) + 1, width)
    out = []
    for i in range(len(dists) - 1):
        place[held[i]] = np.arange(width)
        place[-1] = width
        at, theirs = place[held[i + 1:]], mass[i + 1:]
        # the later distributions' masses on the first's support
        shared = np.zeros((len(at), width + 1))
        np.put_along_axis(shared, at, theirs, 1)
        terms = np.concatenate([np.abs(mass[i] - shared[:, :width]),
                                np.where(at == width, theirs, 0.0)], axis=1)
        out.append(0.5 * np.add.accumulate(terms, axis=1)[:, -1])
        place[held[i]] = width
    return np.concatenate(out)


def _label_key(state):
    # canonical ordering used by the tie rule; state labels within one
    # process are mutually comparable (ints, or strings via length+lex)
    if isinstance(state, str):
        return (len(state), state)
    return state


# ---------------------------------------------------------------------------
# block draws


def _draw_roots(n: int, root, rng, size: int) -> list:
    if root is None:
        return (rng.integers(n, size=size) + 1).tolist()
    return [root] * size


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


def _compile(lay, Q: RateMatrix) -> _Compiled:
    """The tree laid out as ``lay`` (``treechain``'s layout) for the finite
    chain ``Q``, its matrices from one ``Q.matrices`` pass and the
    identity decided once per distinct length."""
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
    more on a tree of ``width`` uniforms a trial that ``_draw_chain``
    draws fewer than 256 trials at a time, so that a group holds about
    2^13 edge-trials, ``_STEP`` edges of 256 trials.  Each group
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
    step = max(_STEP, 2 ** 13 * width // _UNIFORMS)
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


def _draw_chain(n, levels, width, leaves, picks, draw_roots, count, size,
                rng) -> tuple:
    """An n-state chain's draw: ``size`` roots from one
    ``draw_roots(rng, size)`` call and a (size × ``width``) array of
    uniforms, of which the first ``count`` trials descend ``levels``;
    their roots, and the 1-based states of the vertices ``leaves`` and
    ``picks`` as (trials × vertices) arrays, None for no ``picks``; and
    their ``STATE_KEYS``.  The uniforms are drawn, and descend, a slice of
    whole trials at a time, at most ``_UNIFORMS`` floats (but one trial's
    row at least) to a slice: the stream is read as one draw of the whole
    array reads it."""
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
            states[:, len(leaves):] if picks else None, STATE_KEYS)


# ---------------------------------------------------------------------------
# named chains and file input


def two_state_symmetric(q: float = 1.0) -> RateMatrix:
    return RateMatrix([[-q, q], [q, -q]])


def jukes_cantor(total_rate: float = 1.0, n: int = 4) -> RateMatrix:
    """Uniform n-state chain with exit rate ``total_rate`` from every state."""
    if n < 2:
        raise CtmcError(f"a uniform chain needs at least 2 states, got {n}")
    r = total_rate / (n - 1)
    q = np.full((n, n), r)
    np.fill_diagonal(q, -total_rate)
    return RateMatrix(q)


def load_rate_matrix(path) -> RateMatrix:
    """Rate matrix from a whitespace-separated plain-text file."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                rows.append([float(x) for x in line.split()])
    return RateMatrix(rows)
