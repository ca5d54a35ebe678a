"""Oracles for the tests: exact joint leaf laws of small trees, an eager
builder of random ultrametric families, per-draw samplers and a per-edge
tree walk, the TKF91 law by events and by slots, per-trial estimators,
and a Monte Carlo error harness.

``exact_leaf_law`` lists every leaf outcome with its probability, so it
only serves small trees; the package itself computes likelihoods by
pruning (``treechain.block_leaf_likelihoods``), which these laws
cross-check.
``eager_random_ultrametric`` builds every member of a family from the
one before it, as the package first did; the package now replays
recorded growth steps per member, which it cross-checks.
``layout`` lays a tree out in index lists from its dicts, after it is
built, as the package first did; a ``Tree`` now records the same lists
in the walk that builds it, which it cross-checks.
``tree_per_edge`` runs one trial down a tree edge by edge with a
per-draw sampler: ``chain_step`` inverts a finite chain's cumulative
row with one uniform, as the package's block draw does for every
trial's row of uniforms, ``sample_endpoint`` is the chain's Gillespie
jump simulation, and ``tkf91_evolve`` is the one-lane call of
``tkf91.evolve_lanes``.
``tkf91_beta`` gives the length law of TKF91 after any time t.
``tkf91_evolve_per_edge`` simulates TKF91 event by event (Gillespie),
the process itself: the package's time-t sampler must draw the same law.
``tkf91_children_reference`` is that sampler written one slot at a time
in plain Python, and ``tkf91_tree_reference`` runs it down a tree batch
by batch: the package's draws must equal theirs, uniform for uniform.
``tv_achieving_set`` is the event on which one distribution outweighs
another by their total variation, as sets of states
(``AchievingSet``); ``frequency_test`` and ``uniform_chain_test`` are
the frequency tests of one trial against these sets, on its
stretched-state counts (``block_counts``), and ``frequency_estimate``
and ``uniform_chain_estimate`` run them on one trial's observed leaves,
stretching them one draw at a time; the package stretches
and tests a block of trials at once, on integer keys.
``evolve_lanes_reference`` draws TKF91 children from their durations,
each lane's law (``tkf91_law_reference``) computed with its draw, as the
package did before it kept each edge's law in the tree's plan, and in
full even where nothing moves.
``monte_carlo_error`` counts an estimator's errors over
``simulated_trials`` keyed by its master seed, with a root drawn by
``draw_state`` or fixed; ``block_draw`` lifts such a one-root draw to
the block draw that ``simulated_trials`` takes.
``Delegate`` is a process of a third kind: it has only the members by
which the package draws and reads a process, each passed on to a
finite chain, so that a new kind is shown to need no edit of the package.
``transition_matrix_reference`` uniformizes one length at a time and
``total_variation_reference`` adds one pair's terms in a loop, as the
package first did; the package now does both for many lengths or pairs
at once, to the same bits.
The last section holds what no command calls, kept as references that
the tests check: the tree's ``spread``, ``shared_path_length``,
``restrict``, ``extract_well_spread_restriction``,
``stretch_to_height``, ``validate_family`` (a family's nestedness, by
restricting each member to its predecessor's leaves),
``big_bang_profile`` (each member's boundary counts, by one ``truncate``
per member and scale) and ``to_newick``; the one-trial calls
``simulate``, ``leaf_likelihoods``, ``map_estimate`` and
``majority_estimate`` of the package's block functions;
``point_mass``, ``identifiability_margin`` (``RowTable.delta`` of exact
rows) and the weighted ``star_norm``; and
the bounds of the lemma chain (``variance_bound``,
``chebyshev_star_bound``) and of the pinched star's majority vote.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import chain
from operator import add
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from rootrec import tkf91, treechain
from rootrec.bounds import wilson_interval
from rootrec.ctmc import (UNIFORMIZATION_CAP, CtmcError, Distribution,
                          RateMatrix, _label_key, total_variation,
                          total_variations)
from rootrec.estimators import (_EXCLUSIVITY, EstimatorError, RowTable,
                                StretchPlan, map_estimates)
from rootrec.tree import (DEPTH_TOL, Tree, TreeError, chosen_leaves,
                          truncate)
from rootrec.treechain import (DURATION_TOL, TrialBlock,
                               block_leaf_likelihoods, simulated_trials)

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


class Layout(NamedTuple):
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


def layout(tree: Tree) -> Layout:
    index = {v: i for i, v in enumerate(tree.topo_order)}
    position = {x: i for i, x in enumerate(tree.leaves)}
    edges = tree.topo_order[1:]
    parents = [index[tree.parent[v]] for v in edges]
    depth = [0]
    for p in parents:
        depth.append(depth[p] + 1)
    return Layout(parents, [tree.length[v] for v in edges],
                  [None if tree.children[v] else position[v]
                   for v in edges],
                  [index[x] for x in tree.leaves], depth)


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


def tree_per_edge(tree: Tree, step, root, rng) -> dict:
    """Leaf id -> state of one run down ``tree`` from ``root``, one
    ``step(state, duration, rng)`` call per edge in topological order:
    ``partial(chain_step, Q)`` walks as a finite chain's block draw
    inverts each edge, and ``partial(tkf91_evolve_per_edge, params)``
    runs TKF91 event by event."""
    states = {tree.root: root}
    for v in tree.topo_order[1:]:
        states[v] = step(states[tree.parent[v]], tree.length[v], rng)
    return {x: states[x] for x in tree.leaves}


def chain_step(Q, state: int, duration: float, rng) -> int:
    """The state of the chain ``Q`` (its ``n`` and ``matrix``) after
    ``duration`` from ``state``, by inverting the cumulative row of
    exp(tQ) with one uniform from ``rng``: the count of the row's sums at
    or below the uniform, capped at n - 1, is the 0-based state.  A zero
    duration draws nothing."""
    if duration == 0.0:
        return state
    row = np.cumsum(Q.matrix(duration), axis=1)[state - 1]
    return min(int(np.count_nonzero(row <= rng.random())), Q.n - 1) + 1


def tkf91_evolve(params, seq: str, t: float, rng) -> str:
    """The sequence after duration ``t`` from ``seq``: the one-lane call
    of ``tkf91.evolve_lanes``, which says how it reads ``rng``."""
    if t < 0:
        raise CtmcError("time must be nonnegative")
    return tkf91.decode(*tkf91.evolve_lanes(
        params, *tkf91.encode([seq]), tkf91.lane_law(params, [float(t)]),
        rng))[0]


def draw_state(d: Distribution, rng):
    """One state of ``d`` drawn with ``Generator.choice`` over its
    support, in its order."""
    states = list(d.support)
    probs = np.fromiter((p for _, p in d.items()), dtype=float,
                        count=len(states))
    return states[rng.choice(len(states), p=probs / probs.sum())]


def block_draw(draw):
    """The block draw ``(rng, size) -> size roots`` of the one-root draw
    ``draw``: ``size`` calls of ``draw(rng)`` in turn, so that a reference
    draws its roots one at a time whatever the package's draws do."""
    return lambda rng, size: [draw(rng) for _ in range(size)]


class Delegate:
    """A process that is neither a ``RateMatrix`` nor ``Tkf91Params``: its
    ``keys``, ``roots``, ``tree_plan`` and ``block_draw`` are those of
    ``chain``."""

    def __init__(self, chain):
        self.keys = chain.keys
        self.roots = chain.roots
        self.tree_plan = chain.tree_plan
        self.block_draw = chain.block_draw


def monte_carlo_error(estimate, tree: Tree, process, root, trials: int,
                      master_seed: int) -> dict:
    """Empirical error rate of an estimator over independent trials.

    ``root`` is either a fixed root state or a Distribution to draw from
    (``draw_state``).  ``estimate`` maps (leaf assignment, rng) to a
    state.  The trials are ``simulated_trials`` keyed by (master_seed,):
    the trials of block b share the substream seeded by (master_seed,
    b), and ``estimate`` continues it after the block's leaves, in trial
    order."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    draw = (partial(draw_state, root) if isinstance(root, Distribution)
            else lambda rng: root)
    errors = sum(1 for block in simulated_trials(tree, process,
                                                 block_draw(draw),
                                                 (master_seed,), trials)
                 for _, truth, observed in block.trials(tree)
                 if estimate(observed, block.rng) != truth)
    lo, hi = wilson_interval(errors, trials)
    return {"errors": errors, "trials": trials, "rate": errors / trials,
            "ci99": (lo, hi)}


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


def tkf91_law_reference(params, durations) -> np.ndarray:
    """Keep, live, empty and decay (rows) of each lane's duration in
    ``durations``, computed over the lanes' own array as the package first
    did: the reference, bit for bit, for ``tkf91.lane_law``."""
    lam, mu, t = params.lam, params.mu, np.asarray(durations, dtype=float)
    # a rate times t may overflow to inf, whose limits below are right;
    # -log(lam beta) is +inf at t = 0, where every run is empty
    with np.errstate(divide="ignore", over="ignore"):
        e = np.expm1((lam - mu) * t)
        beta = -e / ((mu - lam) - lam * e)
        alpha = np.exp(-mu * t)
        return np.array([alpha * np.exp(-params.nu * t), alpha,
                         alpha + mu * beta, -np.log(lam * beta)])


def evolve_lanes_reference(params, codes, lens, durations, rng) -> tuple:
    """``tkf91.evolve_lanes`` with each lane's law computed from its
    duration in ``durations`` with the draw, as the package first did,
    and every call computed in full: the reference for the laws it keeps
    in its per-tree plans and for its return of unmoved parents."""
    if len(lens) > tkf91.LANES:
        ends = np.cumsum(lens)
        parts = [evolve_lanes_reference(
            params, codes[ends[lo] - lens[lo]:ends[hi - 1]], lens[lo:hi],
            durations[lo:hi], rng)
            for lo in range(0, len(lens), tkf91.LANES)
            for hi in (min(lo + tkf91.LANES, len(lens)),)]
        return (np.concatenate([c for c, _ in parts]),
                np.concatenate([n for _, n in parts]))
    slots = lens + 1
    first = np.cumsum(slots) - slots
    keep, live, empty, decay = np.repeat(
        tkf91_law_reference(params, durations), slots, axis=1)
    fate, run = rng.random((2, len(keep)))
    kept, head, full = fate < keep, fate < live, fate >= empty
    # the immortal link has no letter of its own and is always followed
    # by a run
    kept[first] = head[first] = full[first] = False
    grows = head | full
    grows[first] = True
    size = np.where(grows, np.floor(-np.log1p(-run) / decay), 0.0) + head
    size += full
    out = np.add.reduceat(size, first)
    if not (out <= tkf91.LENGTH_CAP).all():
        raise CtmcError("sequence length exceeded the cap")
    size = size.astype(np.int64)
    at = (np.cumsum(size) - size)[kept]
    child = np.empty(int(size.sum()), dtype=np.uint8)
    fresh = np.ones(len(child), dtype=bool)
    fresh[at] = False
    child[fresh] = np.searchsorted(params.letter_cdf,
                                   rng.random(len(child) - len(at)),
                                   side="right")
    child[at] = codes[np.delete(kept, first)]
    return child, out.astype(np.int32)


class AchievingSet:
    """A state set A with a(A) - b(A) = TV(a, b).

    Stored as the states where a exceeds b, the states where b exceeds a,
    and a tie rule deciding membership of everything else (including states
    outside both supports).  ``complement`` of the reversed orientation is
    exact under this representation.
    """

    def __init__(self, strict_in: frozenset, strict_out: frozenset,
                 include_ties: bool):
        self.strict_in = strict_in
        self.strict_out = strict_out
        self.include_ties = include_ties

    def __contains__(self, state) -> bool:
        if state in self.strict_in:
            return True
        if state in self.strict_out:
            return False
        return self.include_ties

    def mass_under(self, d: Distribution) -> float:
        # in ``d``'s order, one term after another, as the code adds them
        # (builtin sum compensates from Python 3.12)
        total = 0.0
        for s, p in d.items():
            if s in self:
                total += p
        return total

    def explicit(self, universe) -> frozenset:
        return frozenset(s for s in universe if s in self)


def tv_achieving_set(a: Distribution, b: Distribution,
                     orientation: tuple) -> AchievingSet:
    """The event on which ``a`` dominates ``b`` by exactly their total
    variation distance.  Ties (including states unseen by both) go to the
    set when the orientation's first label sorts before its second, which
    makes the reversed orientation yield the exact complement."""
    i1, i2 = orientation
    strict_in = []
    strict_out = []
    for s in set(a.support) | set(b.support):
        pa, pb = a.mass(s), b.mass(s)
        if pa > pb:
            strict_in.append(s)
        elif pb > pa:
            strict_out.append(s)
    return AchievingSet(frozenset(strict_in), frozenset(strict_out),
                        _label_key(i1) < _label_key(i2))


@dataclass
class EstimatorReport:
    """Outcome of one frequency-test estimation."""

    state: object
    fallback: bool
    plan: StretchPlan
    lam: tuple
    passed: tuple
    margins: dict = field(default_factory=dict)


def block_counts(stretched) -> list:
    """The stretched-state frequencies of a block of trials: for each row
    of ``stretched``, a (trials × m) array of finite-chain states or of
    objects (TKF91 sequences), the count of each state the row holds."""
    if stretched.dtype == object:
        return [Counter(row) for row in stretched.tolist()]
    labels = np.arange(1, int(stretched.max()) + 1)
    counts = (stretched[:, :, None] == labels).sum(1).tolist()
    return [{s: c for s, c in enumerate(row, 1) if c} for row in counts]


def frequency_test(plan: StretchPlan, counts: dict, lam, rows: RowTable,
                   rng) -> EstimatorReport:
    """The frequency tests on one trial's stretched-state ``counts``
    (state -> count).

    ``rows`` holds each state of ``lam``'s time-h* distribution (exact
    rows for finite chains, Monte Carlo plug-in rows otherwise).  The
    unique state whose achieving-set frequencies all clear their
    thresholds is returned; absent one, a uniform random member of
    ``lam``, drawn from ``rng``, is returned with the fallback flag set.
    """
    if not lam:
        raise EstimatorError("state subset must be nonempty")
    lam = tuple(sorted(lam, key=_label_key))
    if len(lam) == 1:
        return EstimatorReport(state=lam[0], fallback=False, plan=plan,
                               lam=lam, passed=lam)
    delta = rows.delta(lam)
    passed = []
    margins: dict = {}
    _EXCLUSIVITY["invocations"] += 1
    for i in lam:
        row_margins = {}
        for j in lam:
            if j == i:
                continue
            aset = tv_achieving_set(rows.rows[i], rows.rows[j], (i, j))
            freq = sum(c for st, c in counts.items() if st in aset) / plan.m
            margin = freq - (rows.threshold_mass(i, j) - delta / 2.0)
            if margin <= 0.0:
                break
            row_margins[(i, j)] = margin
        else:
            passed.append(i)
            margins.update(row_margins)
    if len(passed) > 1:
        _EXCLUSIVITY["violations"] += 1
        raise AssertionError(
            f"multiple states passed the frequency tests: {passed}")
    if passed:
        return EstimatorReport(state=passed[0], fallback=False, plan=plan,
                               lam=lam, passed=tuple(passed),
                               margins=margins)
    choice = lam[rng.integers(len(lam))]
    return EstimatorReport(state=choice, fallback=True, plan=plan, lam=lam,
                           passed=())


def uniform_chain_test(plan: StretchPlan, counts: dict, q_star: float,
                       rows: RowTable, rng) -> EstimatorReport:
    """The frequency tests with the data-driven candidate set for chains
    whose rates are bounded by ``q_star``: candidates are the states
    whose stretched-restriction frequency in ``counts`` reaches half of
    e^(-q* h*), and ``rows``, as in ``frequency_test``, must cover
    them."""
    if q_star < 1.0:
        raise EstimatorError("q_star must be at least 1")
    f_star = math.exp(-q_star * plan.h_star)
    lam_hat = sorted((st for st, c in counts.items()
                      if c / plan.m >= 0.5 * f_star), key=_label_key)
    if not lam_hat:
        observed_states = sorted(set(counts), key=_label_key)
        choice = observed_states[rng.integers(len(observed_states))]
        return EstimatorReport(state=choice, fallback=True, plan=plan,
                               lam=(), passed=())
    return frequency_test(plan, counts, lam_hat, rows, rng)


def _stretched_counts(plan: StretchPlan, process, observed: dict,
                      rng) -> Counter:
    """Leaf-state frequencies of the stretched restriction: the selected
    leaves' observed states, each run forward to depth h* one draw at a
    time (``tkf91_evolve`` for TKF91, else ``chain_step``)."""
    step = (tkf91_evolve if isinstance(process, tkf91.Tkf91Params)
            else chain_step)
    counts: Counter = Counter()
    for leaf, dur in zip(plan.leaves, plan.durations):
        state = observed[leaf]
        if dur > DURATION_TOL:
            state = step(process, state, dur, rng)
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


def transition_matrix_reference(Q: RateMatrix, t: float,
                                tol: float = 1e-12) -> np.ndarray:
    """exp(tQ) by uniformization, one length at a time, as the package
    first computed it: the series summed while its Poisson tail is at
    least ``tol``, rows renormalized, and past rate·t =
    ``UNIFORMIZATION_CAP`` summed at t / 2^k and squared k times.  The
    reference, bit for bit, for ``ctmc.transition_matrix`` and
    ``RateMatrix.matrices``, which share the powers of R across
    lengths."""
    if not 0 <= t < math.inf:
        raise CtmcError(f"time must be nonnegative and finite, got {t}")
    n = Q.n
    rate = float(Q.exit_rates.max())
    if t == 0 or rate == 0.0:
        return np.eye(n)
    lam = rate * t
    squarings = 0
    while lam > UNIFORMIZATION_CAP:
        lam /= 2.0
        squarings += 1
    R = np.eye(n) + Q.q / rate
    term = math.exp(-lam)
    acc = term
    P = term * np.eye(n)
    power = np.eye(n)
    k = 0
    while 1.0 - acc >= tol:
        k += 1
        power = power @ R
        term *= lam / k
        acc += term
        P += term * power
    sums = P.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > max(tol, 1e-9) * 10):
        raise CtmcError("uniformization failed to produce stochastic rows")
    P = P / sums[:, None]
    for _ in range(squarings):
        P = P @ P
        P /= P.sum(axis=1)[:, None]
    return P


def total_variation_reference(a: Distribution, b: Distribution) -> float:
    """Half the L1 distance of ``a`` and ``b``, added one term at a time
    in an explicit loop over ``a``'s support in its order and then the
    states only ``b`` holds: sequential on every Python version (``sum``
    of floats is compensated from Python 3.12).  The reference, bit for
    bit, for ``ctmc.total_variations``, which adds every pair's terms
    from arrays."""
    held = a.support
    total = 0.0
    for s in [*held, *(s for s in b.support if s not in held)]:
        total += abs(a.mass(s) - b.mass(s))
    return 0.5 * total


# ---------------------------------------------------------------------------
# functions that no command calls: tree statistics and transforms, Newick
# output, one-trial wrappers of the block functions, identifiability
# margins, the weighted norm and the bounds of the lemma chain


def _lca_depth(tree: Tree, x: str, y: str) -> float:
    """Depth of the lowest common ancestor of two vertices."""
    ax = {}
    u = x
    while True:
        ax[u] = tree.depth[u]
        if u == tree.root:
            break
        u = tree.parent[u]
    u = y
    while u not in ax:
        u = tree.parent[u]
    return tree.depth[u]


def shared_path_length(tree: Tree, x: str, y: str) -> float:
    """Total length of the edges shared by the root-to-x and root-to-y paths."""
    if x == y:
        raise TreeError("leaves must be distinct")
    for z in (x, y):
        if z not in tree.leaves:
            raise TreeError(f"unknown leaf {z}")
    return _lca_depth(tree, x, y)


def spread(tree: Tree) -> float:
    """Average of min(shared path length, 1) over ordered pairs of
    distinct leaves.

    A pair's shared path ends at its lowest common ancestor u.  With k_u
    leaves below u, k_u^2 - sum over children c of k_c^2 ordered pairs
    have their ancestor at u, so one bottom-up pass over the leaf counts
    sums every pair.
    """
    n = len(tree.leaves)
    if n < 2:
        raise TreeError("spread requires at least 2 leaves")
    below: dict[str, int] = {}
    total = 0.0
    for u in reversed(tree.topo_order):
        cs = tree.children[u]
        if not cs:
            below[u] = 1
            continue
        k = sum(below[c] for c in cs)
        below[u] = k
        total += (min(tree.depth[u], 1.0)
                  * (k * k - sum(below[c] ** 2 for c in cs)))
    return total / (n * (n - 1))


def restrict(tree: Tree, leaf_subset) -> Tree:
    """Restriction to a leaf subset: keep only root-to-leaf paths, merging
    suppressed degree-2 vertices with summed edge lengths."""
    selected = set(leaf_subset)
    subset = sorted(selected)
    if not subset:
        raise TreeError("leaf subset must be nonempty")
    unknown = selected.difference(tree.leaves)
    if unknown:
        raise TreeError(f"unknown leaf {min(unknown)}")
    kept = set()
    for x in subset:
        u = x
        while u not in kept:
            kept.add(u)
            if u == tree.root:
                break
            u = tree.parent[u]
    kept_children = {u: [c for c in tree.children[u] if c in kept]
                     for u in kept}
    edges = []
    # depth-first with an explicit stack, so deep trees do not exhaust
    # the interpreter's recursion limit
    stack = [(tree.root, c, tree.length[c])
             for c in reversed(kept_children[tree.root])]
    while stack:
        parent_kept, v, acc = stack.pop()
        # follow chains of suppressed degree-2 vertices
        while len(kept_children[v]) == 1 and v not in selected:
            (w,) = kept_children[v]
            acc += tree.length[w]
            v = w
        edges.append((parent_kept, v, acc))
        stack.extend((v, c, tree.length[c])
                     for c in reversed(kept_children[v]))
    return Tree(tree.root, edges)


def extract_well_spread_restriction(tree: Tree, s: float) -> Tree:
    """Restriction to one descendant leaf per boundary point of the
    truncation at ``s``; the result has spread at most s."""
    return restrict(tree, chosen_leaves(tree, s))


def stretch_to_height(tree: Tree, h_star: float) -> Tree:
    """Lengthen every leaf edge so all leaves sit at depth ``h_star``.
    Topology, internal lengths and shared path lengths are unchanged."""
    if h_star < tree.height - DEPTH_TOL:
        raise TreeError(f"h_star={h_star} below tree height {tree.height}")
    edges = []
    for v in tree.parent:
        ln = tree.length[v]
        if not tree.children[v]:
            ln += h_star - tree.depth[v]
        edges.append((tree.parent[v], v, ln))
    return Tree(tree.root, edges)


def validate_family(family) -> list[str]:
    """Nestedness violations of ``family``, one message per offending
    index.  It builds and restricts every member, O(k²) work, so no
    command runs it."""
    problems = []
    for k in range(1, len(family)):
        prev, cur = family[k - 1], family[k]
        if cur.root != prev.root:
            problems.append(f"tree {k}: root differs from tree {k - 1}")
            continue
        if len(cur.leaves) != len(prev.leaves) + 1:
            problems.append(
                f"tree {k}: adds {len(cur.leaves) - len(prev.leaves)} "
                "leaves instead of 1")
            continue
        if not set(prev.leaves) <= set(cur.leaves):
            problems.append(f"tree {k}: leaf set not nested")
            continue
        # restriction suppresses degree-2 vertices such as the pinch
        if restrict(cur, prev.leaves) != restrict(prev, prev.leaves):
            problems.append(f"tree {k}: restriction to tree {k - 1} "
                            "leaves differs from it")
    return problems


def big_bang_profile(trees, s_grid) -> dict:
    """Boundary-point counts |bd T^k(s)| for each of ``trees`` (a family's
    members in order) and each s, with a heuristic flag for scales whose
    count is constant over the last half of the family.  Diagnostic
    only."""
    s_grid = list(s_grid)
    if not len(trees) or not s_grid:
        raise TreeError("family and grid must be nonempty")
    if any(s <= 0 for s in s_grid):
        raise TreeError("grid values must be positive")
    counts = {s: [len(truncate(t, s)) for t in trees] for s in s_grid}
    flagged = []
    for s in s_grid:
        tail = counts[s][len(trees) // 2:]
        if len(trees) >= 2 and len(set(tail)) == 1:
            flagged.append(s)
    return {"counts": counts, "flagged": flagged}


def to_newick(tree: Tree) -> str:
    out = []
    # vertices still to write, as 1-tuples, interleaved with the text that
    # follows them; an explicit stack, as in parse_newick
    stack: list = [";", (tree.root,)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        (v,) = item
        cs = tree.children[v]
        if not cs:
            out.append(v)
            continue
        out.append("(")
        stack.append(f"){v}")
        for i, c in enumerate(reversed(cs)):
            stack.append(f":{tree.length[c]:.17g}" + ("," if i else ""))
            stack.append((c,))
    return "".join(out)


def simulate(tree: Tree, process, root_state, rng) -> dict:
    """One realization of the chain on the tree; returns leaf id -> state.

    Sibling subtrees evolve independently given the parent state.  Each
    call draws a whole one-trial block from ``rng`` as
    ``simulated_trials`` says, so it pays a block's fixed cost per trial
    (a few numpy calls per depth of the tree, counted in the edges that
    can move a state): loops over many trials should draw them from
    ``simulated_trials``.
    """
    block = TrialBlock(0, *treechain._plan(
        treechain._drawer, tree, process, None)(
        lambda rng, size: [root_state] * size, 1, 1, rng), rng)
    return next(block.trials(tree))[2]


def leaf_likelihoods(tree: Tree, Q: RateMatrix, observed: dict) -> np.ndarray:
    """P(leaves = observed | root = i) for i = 1..n, up to one common
    positive factor: the one-row ``block_leaf_likelihoods``.  All zeros
    means the observation is impossible under every root state."""
    return block_leaf_likelihoods(
        tree, Q, [[observed[x] for x in tree.leaves]])[0]


def map_estimate(tree: Tree, Q: RateMatrix, prior: Distribution,
                 observed: dict, lam=None) -> int:
    """``map_estimates`` of the one observation ``observed``, leaf id ->
    state."""
    return map_estimates(tree, Q, prior, [[observed[x] for x in tree.leaves]],
                         lam)[0]


def majority_estimate(observed: dict) -> int:
    """Majority vote over a two-state leaf assignment; requires an odd
    number of leaves: the reference that ``majority_estimates`` votes
    on a block as."""
    m = len(observed)
    if m % 2 == 0:
        raise EstimatorError("majority vote needs an odd leaf count")
    bad = set(observed.values()) - {1, 2}
    if bad:
        raise EstimatorError(f"majority vote is two-state only, got {bad}")
    n1 = sum(1 for v in observed.values() if v == 1)
    return 1 if n1 > m / 2 else 2


def point_mass(state) -> Distribution:
    return Distribution({state: 1.0})


def identifiability_margin(Q: RateMatrix, t: float, state_subset=None) -> float:
    """``total_variations``' minimum over the rows of exp(tQ) of the
    sorted subset; +inf for singletons (no pairs)."""
    if t <= 0:
        raise CtmcError("time must be positive")
    subset = sorted(state_subset) if state_subset is not None else list(Q.states)
    if not subset:
        raise CtmcError("state subset must be nonempty")
    return float(total_variations([Q.row(i, t) for i in subset]).min(
        initial=math.inf))


def star_norm(v) -> float:
    """Weighted l1 norm sum_i 2^-i |v_i| with 1-based indexing, added one
    term after another (builtin ``sum`` compensates from Python 3.12)."""
    return float(reduce(add, (2.0 ** -(i + 1) * abs(x)
                              for i, x in enumerate(v)), 0.0))


def star_norm_diff(a: Distribution, b: Distribution, n: int) -> float:
    """star norm of the difference of two distributions over states 1..n."""
    return star_norm([a.mass(i) - b.mass(i) for i in range(1, n + 1)])


def variance_bound(leaf_count: int, spread: float, q_i: float) -> float:
    """Upper bound on the variance of a leaf-state count:
    |leaves|/4 + 2 (q_i or 1) spread |leaves|^2."""
    if leaf_count < 0 or spread < 0 or q_i < 0:
        raise ValueError("inputs must be nonnegative")
    return leaf_count / 4.0 + 2.0 * max(q_i, 1.0) * spread * leaf_count ** 2


def chebyshev_star_bound(delta_star: float, m: int, q_i: float,
                         s: float) -> float:
    """Chebyshev bound on the weighted-norm deviation of the stretched
    restriction frequencies: 4/delta*^2 [1/(4m) + 2 (q_i or 1) s]."""
    if delta_star <= 0:
        raise ValueError("delta_star must be positive")
    return 4.0 / delta_star ** 2 * (1.0 / (4.0 * m)
                                    + 2.0 * max(q_i, 1.0) * s)


def pinched_star_majority_error(m: int, q: float, s: float,
                                h: float) -> float:
    """Exact error of the majority vote on the two-state pinched star:
    the binomial sum with alpha = p11(s) and beta = p12(h - s), each term
    taken from its logarithm, as C(m, n) overflows a float past m = 1029."""
    if m % 2 == 0:
        raise ValueError("m must be odd")
    alpha = (1.0 + math.exp(-2.0 * q * s)) / 2.0
    beta = (1.0 - math.exp(-2.0 * q * (h - s))) / 2.0

    def log(x, k):
        # log(x^k), with 0^0 = 1
        return k * math.log(x) if x > 0 else (-math.inf if k else 0.0)

    total = 0.0
    for n in range(0, m // 2 + 1):
        comb = math.lgamma(m + 1) - math.lgamma(n + 1) - math.lgamma(m - n + 1)
        total += alpha * math.exp(comb + log(1.0 - beta, n) + log(beta, m - n))
        total += (1.0 - alpha) * math.exp(comb + log(beta, n)
                                          + log(1.0 - beta, m - n))
    return total


def pinched_star_hoeffding_bound(m: int, q: float, s: float,
                                 h: float) -> float:
    """(1 - alpha) + alpha exp(-2 m (1/2 - beta)^2)."""
    alpha = (1.0 + math.exp(-2.0 * q * s)) / 2.0
    beta = (1.0 - math.exp(-2.0 * q * (h - s))) / 2.0
    return (1.0 - alpha) + alpha * math.exp(-2.0 * m * (0.5 - beta) ** 2)
