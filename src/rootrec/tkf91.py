"""Insertion-deletion-substitution sequence process with an immortal link.

Sequences over {A, T, C, G} are plain strings, or in draws letter codes
and int64 keys (``keys``); "" is the empty sequence consisting of the
immortal link alone.  The immortal link is implicit as position 0: it is
never deleted or substituted, but it can give birth.
The stationary length law is geometric with ratio lambda/mu.  The
parameters ``Tkf91Params`` are the process itself.  Estimators use Monte
Carlo plug-in rows (``mc_rows``), as exact time-t rows (a pair hidden
Markov model) are not implemented yet.

Draws come from TKF91's time-t law (Thorne, Kishino & Felsenstein 1991;
Holmes & Bruno 2001), so their cost grows with the sequences' lengths,
not with the rates.  Over a duration t, with alpha = e^(-mu t),
beta = (1 - e^((lam-mu)t)) / (mu - lam e^((lam-mu)t)) and G a fresh
draw with P(G = g) = (1 - lam beta)(lam beta)^g: the immortal link is
followed by G new letters; an ancestral site survives with probability
alpha, keeping its letter with probability e^(-nu t) (else it gets a new
one), followed by G new letters; otherwise it leaves nothing with
probability mu beta, or else 1 + G new letters.  New letters are
independent draws from pi.  At t = 0 the child is its parent.

``evolve_lanes`` draws the children of a batch of lanes (a parent and the
``lane_law`` of a duration each; sequences as ``encode`` holds them),
``LANES`` lanes to a call, which bounds its memory.  Each call draws

1. a (2 x S) array of uniforms over the S slots, each lane's immortal
   link and then its sites, lanes in order.  Row 0 is a site's fate:
   u < alpha e^(-nu t) keeps its letter, u < alpha substitutes it,
   u < alpha + mu beta leaves nothing, and the rest leave letters (the
   immortal link's fate is unused).  Row 1 is each slot's run,
   G = floor(log1p(-u) / log(lam beta));
2. one uniform per new letter, lanes in order and letters in sequence
   order, mapped by ``letter_cdf`` as ``Generator.choice(4, p=freqs)``
   maps it.

A call whose fates keep every site and whose runs are all empty returns
the parents themselves and draws no letter.  A lane whose law is the
``identity`` (a duration so short that this holds whatever the uniforms)
may be skipped by drawing and dropping its 2 uniforms per slot instead;
``edge_batches`` makes a run of depths of such edges one batch.

TKF91's part of ``treechain`` (``edge_batches``, ``draw_block``,
``distinct``) and the ``keys`` that ``estimators.RowTable`` reads rows by
are here, so that a finite chain's command never compiles them.
``treechain`` hands them the tree layouts they read, so this module does
not import it.
"""

from __future__ import annotations

import functools
import heapq
from itertools import accumulate, pairwise
from typing import NamedTuple

import numpy as np

from .ctmc import CtmcError, Distribution, _label_key

__all__ = [
    "Tkf91Params",
    "ALPHABET",
    "LANES",
    "LENGTH_CAP",
    "MAX_STATES",
    "KEY_LETTERS",
    "LONG_KEY",
    "encode",
    "decode",
    "keys",
    "distinct",
    "strings",
    "lane_law",
    "identity",
    "evolve_lanes",
    "stationary_sample",
    "stationary_pmf",
    "stationary_length_pmf",
    "top_states",
    "mc_rows",
]

ALPHABET = "ATCG"
_LETTERS = np.frombuffer(ALPHABET.encode("ascii"), dtype=np.uint8)
_CODES = np.zeros(256, dtype=np.uint8)
_CODES[_LETTERS] = np.arange(len(ALPHABET))
# a sequence of at most KEY_LETTERS letters is keyed by its letters as
# base-5 digits, A, C, G and T as 1 to 4 (``_DIGITS`` by code), so that
# keys sort as ``_label_key`` sorts sequences
KEY_LETTERS = 27
LONG_KEY = 5 ** KEY_LETTERS
_DIGITS = np.array([1, 4, 2, 3], dtype=np.uint8)
_POWERS = np.array([5 ** i for i in range(KEY_LETTERS)], dtype=np.int64)

# guard against runaway growth from misconfigured rates; with lambda < mu
# the length process is positive recurrent and never gets near this
LENGTH_CAP = 10 ** 4
# lanes that one sampler call draws at most
LANES = 4096
MAX_STATES = 10 ** 6  # sequences that ``top_states`` enumerates at most


class _Rates(NamedTuple):
    nu: float
    lam: float
    mu: float
    pi_A: float = 0.25
    pi_T: float = 0.25
    pi_C: float = 0.25
    pi_G: float = 0.25


class Tkf91Params(_Rates):
    """Substitution rate nu, insertion rate lam, deletion rate mu, and the
    nucleotide frequencies, all per unit time."""

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (self.nu > 0 and self.lam > 0 and self.mu > 0):
            raise CtmcError("rates must be positive")
        if not self.lam < self.mu:
            raise CtmcError("lambda must be < mu")
        freqs = self.freqs
        if any(f < 0 for f in freqs):
            raise CtmcError("nucleotide frequencies must be nonnegative")
        if abs(sum(freqs) - 1.0) > 1e-12:
            raise CtmcError(f"frequencies sum to {sum(freqs)}, not 1")
        return self

    @classmethod
    def _make(cls, iterable):
        # through __new__, so that _replace checks its fields too
        return cls(*iterable)

    @property
    def freqs(self) -> tuple:
        return (self.pi_A, self.pi_T, self.pi_C, self.pi_G)

    @property
    def ratio(self) -> float:
        return self.lam / self.mu

    @functools.cached_property
    def letter_cdf(self) -> list:
        """Cumulative letter frequencies, normalized to end at 1, exactly
        as ``Generator.choice(4, p=freqs)`` computes them."""
        cdf = np.cumsum(self.freqs)
        cdf /= cdf[-1]
        return cdf.tolist()


def encode(seqs: list) -> tuple:
    """The strings ``seqs`` over ``ALPHABET`` as their concatenated codes
    (``uint8`` indices into ``ALPHABET``) and their lengths."""
    text = "".join(seqs)
    if text.strip(ALPHABET):
        raise CtmcError(f"sequences must be strings over {ALPHABET}")
    codes = _CODES[np.frombuffer(text.encode("ascii"), dtype=np.uint8)]
    return codes, np.fromiter(map(len, seqs), dtype=np.int32,
                              count=len(seqs))


def decode(codes, lens) -> list:
    """The strings of concatenated ``codes`` cut at ``lens``."""
    text = _LETTERS[codes].tobytes().decode("ascii")
    # the cuts are made one at a time, not held as a list of integers
    return [text[a:b] for a, b in pairwise(accumulate(lens.tolist(),
                                                      initial=0))]


def keys(codes, lens) -> tuple:
    """The int64 key of each sequence of ``codes`` cut at ``lens``, and
    the sequences longer than ``KEY_LETTERS`` in label order, keyed
    ``LONG_KEY`` plus their index: the keys sort as their sequences."""
    ends = np.cumsum(lens, dtype=np.int64)
    out = np.empty(len(lens), dtype=np.int64)
    # LANES lanes at a time, for memory; a letter's place value is 5 **
    # (letters after it), and a long sequence's sum, which wraps, is replaced
    for lo in range(0, len(lens), LANES):
        size = lens[lo:lo + LANES]
        start = ends[lo] - size[0]
        cut = ends[lo:lo + LANES] - start
        sums = np.zeros(cut[-1] + 1, dtype=np.int64)
        place = np.repeat(cut, size) - np.arange(1, len(sums))
        _POWERS.take(np.minimum(place, KEY_LETTERS - 1), out=sums[1:])
        sums[1:] *= _DIGITS[codes[start:start + cut[-1]]]
        np.cumsum(sums, out=sums)
        out[lo:lo + LANES] = sums[cut] - sums[cut - size]
    long = lens > KEY_LETTERS
    seqs = decode(codes[np.repeat(long, lens)], lens[long])
    rank = {s: i for i, s in enumerate(sorted(set(seqs), key=_label_key))}
    out[long] = [LONG_KEY + rank[s] for s in seqs]
    return out, tuple(rank)


def distinct(keyed) -> tuple:
    """The distinct keys of ``keyed`` in order and each one's index there,
    by one sort (``np.unique`` would import numpy.ma on its first call):
    a TKF91 block's vocabulary."""
    vocab = np.sort(keyed, axis=None)
    # each key unlike the one before it, the first too (~k differs from k)
    vocab = vocab[np.diff(vocab, prepend=~vocab[:1]) != 0]
    return vocab, np.searchsorted(vocab, keyed)


def strings(keyed, names=()) -> list:
    """The sequences of ``keyed``, keys of any shape that ``keys`` gave
    with ``names``, as (nested) lists, decoding each distinct key once."""
    vocab, inverse = distinct(keyed)
    short = vocab[vocab < LONG_KEY]
    digits = short[:, None] // _POWERS[::-1] % 5
    seqs = decode(_CODES[np.frombuffer(b"ACGT", np.uint8)][
        digits[digits > 0] - 1], (digits > 0).sum(1))
    seqs += [names[k - LONG_KEY] for k in vocab[len(short):].tolist()]
    return np.array(seqs, dtype=object)[inverse].reshape(
        np.shape(keyed)).tolist()


def lane_law(params: Tkf91Params, durations) -> np.ndarray:
    """TKF91's time-t law at each of ``durations``, as the module docstring
    uses it: rows alpha e^(-nu t), alpha, alpha + mu beta, -log(lam beta)."""
    lam, mu, t = params.lam, params.mu, np.asarray(durations, dtype=float)
    # a rate times t may overflow to inf, whose limits below are right;
    # -log(lam beta) is +inf at t = 0, where every run is empty
    with np.errstate(divide="ignore", over="ignore"):
        e = np.expm1((lam - mu) * t)
        beta = -e / ((mu - lam) - lam * e)
        alpha = np.exp(-mu * t)
        return np.array([alpha * np.exp(-params.nu * t), alpha,
                         alpha + mu * beta, -np.log(lam * beta)])


def identity(law) -> np.ndarray:
    """Which columns of ``law`` (``lane_law``) are the identity for
    ``evolve_lanes``, whatever its uniforms: those that keep every site
    (alpha e^(-nu t) rounds to 1) and whose runs are all empty
    (-log(lam beta) exceeds the longest run's -log1p(-u)), so that a
    lane's child is its parent and no letter is drawn; the call still
    reads the 2 uniforms of each slot."""
    # the longest run: u is at most 1 - 2^-53 (36.7368...)
    longest = -np.log1p(-np.nextafter(1.0, 0.0))
    return (law[0] == 1.0) & (law[3] > longest)


def evolve_lanes(params: Tkf91Params, codes, lens, law, rng) -> tuple:
    """The children, as (codes, lengths), of the lanes whose parents are
    the concatenated ``codes`` cut at ``lens`` and whose laws are the
    columns of ``law`` (``lane_law``), drawn from ``rng`` as the module
    docstring says; a child above ``LENGTH_CAP`` raises ``CtmcError``."""
    if len(lens) > LANES:
        ends = np.cumsum(lens)
        parts = [evolve_lanes(params, codes[ends[lo] - lens[lo]:ends[hi - 1]],
                              lens[lo:hi], law[:, lo:hi], rng)
                 for lo in range(0, len(lens), LANES)
                 for hi in (min(lo + LANES, len(lens)),)]
        return (np.concatenate([c for c, _ in parts]),
                np.concatenate([n for _, n in parts]))
    slots = lens + 1
    first = np.cumsum(slots) - slots
    keep, live, empty, decay = np.repeat(law, slots, axis=1)
    fate, run = rng.random((2, len(keep)))
    grow, kept = -np.log1p(-run) / decay, fate < keep
    kept[first] = True
    # every site kept its letter and every run is empty: no letter is
    # drawn, and the children are their parents
    if kept.all() and (grow < 1.0).all() and (lens <= LENGTH_CAP).all():
        return codes, lens
    head, full = fate < live, fate >= empty
    # the immortal link has no letter of its own and is always followed
    # by a run
    kept[first] = head[first] = full[first] = False
    grows = head | full
    grows[first] = True
    size = np.where(grows, np.floor(grow), 0.0) + head
    size += full
    out = np.add.reduceat(size, first)
    if not (out <= LENGTH_CAP).all():
        raise CtmcError(f"sequence length exceeded the cap {LENGTH_CAP}")
    size = size.astype(np.int64)
    at = (np.cumsum(size) - size)[kept]
    child = np.empty(int(size.sum()), dtype=np.uint8)
    fresh = np.ones(len(child), dtype=bool)
    fresh[at] = False
    child[fresh] = np.searchsorted(params.letter_cdf,
                                   rng.random(len(child) - len(at)),
                                   side="right")
    site = np.ones(len(kept), dtype=bool)
    site[first] = False
    child[at] = codes[kept[site]]
    return child, out.astype(np.int32)


def edge_batches(lay, params: Tkf91Params) -> list:
    """The edges of a tree laid out as ``lay`` (``treechain``'s layout)
    in batches of parent and child indices, of each edge's ``lane_law``
    under ``params`` and of whether that law is the ``identity``: the
    edges into inner vertices one batch per depth of their child, then
    every edge into a leaf, each batch in topological order, and a run of
    batches of identity edges only as one batch."""
    law = lane_law(params, lay.lengths)
    same = identity(law).tolist()
    groups: dict = {}
    for e, x in enumerate(lay.leaf_of):
        groups.setdefault(np.inf if x is not None else lay.depth[e + 1],
                          []).append(e)
    runs, still = [], False
    for _, es in sorted(groups.items()):
        if still and all(same[e] for e in es):
            runs[-1] += es
        else:
            runs.append(es)
            still = all(same[e] for e in es)
    return [([lay.parents[e] for e in es], [e + 1 for e in es], law[:, es],
             [same[e] for e in es]) for es in runs]


def draw_block(params: Tkf91Params, batches, leaves, picks, draw_roots,
               count, size, rng) -> tuple:
    """A block's draw for ``treechain.simulated_trials``: ``count`` roots
    (``draw_roots(rng, count)``), then the ``keys`` of the vertices
    ``leaves`` and ``picks`` (None for no ``picks``) as (trials ×
    vertices) arrays, and their long sequences.  The edges of each of
    ``batches`` in turn go ``LANES`` // trials (at least one) to an
    ``evolve_lanes`` call on ``rng``, lanes edge by edge, then trial by
    trial, so that memory stays bounded however wide the tree.  A group
    of identity edges only makes no call: its children are their
    parents, and the 2 uniforms of each slot that the call would read
    (it would draw no letter) are drawn and dropped, in one draw for the
    group, which reads the stream as a draw per edge does."""
    roots = draw_roots(rng, count)
    step = max(1, LANES // count)
    seqs = {0: encode(roots)}
    for parents, children, law, same in batches:
        for lo in range(0, len(parents), step):
            group = parents[lo:lo + step]
            if all(same[lo:lo + step]):
                # a run's parent may be a child in the same group: each
                # child is set before the next parent is read
                seqs.update(zip(children[lo:lo + step], map(seqs.get, group)))
                rng.random(2 * sum(len(seqs[p][0]) + len(seqs[p][1])
                                   for p in group))
                continue
            law_lo = np.repeat(law[:, lo:lo + step], count, axis=1)
            if len(group) == 1:
                seqs[children[lo]] = evolve_lanes(
                    params, *seqs[group[0]], law_lo, rng)
                continue
            codes, lens = evolve_lanes(
                params, np.concatenate([seqs[p][0] for p in group]),
                np.concatenate([seqs[p][1] for p in group]), law_lo, rng)
            lens = lens.reshape(len(group), count)
            seqs.update(zip(children[lo:lo + step], zip(np.split(
                codes, np.cumsum(lens.sum(1))[:-1]), lens)))
    read = list(dict.fromkeys([*leaves, *picks]))
    keyed, long = keys(np.concatenate([seqs[v][0] for v in read]),
                       np.concatenate([seqs[v][1] for v in read]))
    keyed = keyed.reshape(len(read), count).T
    column = {v: i for i, v in enumerate(read)}
    return (roots, keyed[:, :len(leaves)],
            keyed[:, [column[v] for v in picks]] if picks else None, long)


def stationary_sample(params: Tkf91Params, rng) -> str:
    """Draw from the stationary law: geometric length (success 1 - lam/mu,
    support 0, 1, ...) with i.i.d. letters, one uniform each, mapped by
    ``letter_cdf`` as ``evolve_lanes`` maps its new letters."""
    m = int(rng.geometric(1.0 - params.ratio)) - 1
    if m == 0:
        return ""
    return _LETTERS[np.searchsorted(params.letter_cdf, rng.random(m),
                                    side="right")].tobytes().decode("ascii")


def stationary_length_pmf(params: Tkf91Params, m: int) -> float:
    if m < 0:
        return 0.0
    return (1.0 - params.ratio) * params.ratio ** m


def stationary_pmf(params: Tkf91Params, seq: str) -> float:
    """Exact stationary mass of one sequence:
    (1 - lam/mu) (lam/mu)^M prod pi."""
    p = stationary_length_pmf(params, len(seq))
    for ch in seq:
        p *= params.freqs[ALPHABET.index(ch)]
    return p


def top_states(params: Tkf91Params, epsilon: float) -> tuple:
    """Smallest set of highest-stationary-mass sequences whose complement
    has mass below ``epsilon``, in decreasing mass order (ties by length
    then lexicographic).

    Best-first search over the append tree: every extension of a sequence
    has strictly smaller mass, so a max-heap seeded with "" enumerates the
    whole space in mass order.
    """
    if epsilon <= 0:
        raise CtmcError("epsilon must be positive")
    heap = [(-stationary_pmf(params, ""), _label_key(""), "")]
    out = []
    tail = 1.0
    while tail >= epsilon:
        if not heap or len(out) >= MAX_STATES:
            raise CtmcError("state enumeration exceeded MAX_STATES")
        neg, _, seq = heapq.heappop(heap)
        out.append(seq)
        tail += neg
        for ch in ALPHABET:
            child = seq + ch
            heapq.heappush(heap, (-stationary_pmf(params, child),
                                  _label_key(child), child))
    return tuple(out)


def mc_rows(params: Tkf91Params, states, t: float, n_samples: int,
            rng) -> dict:
    """Monte Carlo plug-in time-t rows: empirical endpoint distribution of
    ``n_samples`` independent runs from each state.  A state's runs are
    one ``evolve_lanes`` batch of ``n_samples`` lanes, and the states
    draw from ``rng`` in turn.  A row counts its runs' ``keys``, in the
    order of their first occurrence."""
    if n_samples < 1:
        raise CtmcError("n_samples must be at least 1")
    if t < 0:
        raise CtmcError("time must be nonnegative")
    law = lane_law(params, np.full(n_samples, float(t)))
    rows = {}
    for state in states:
        codes, lens = encode([state])
        ends, names = keys(*evolve_lanes(params, np.tile(codes, n_samples),
                                         np.tile(lens, n_samples), law, rng))
        vocab, inverse = distinct(ends)
        counts = np.bincount(inverse)
        # each key's first run, and the keys in the order of those runs
        first = np.argsort(inverse, kind="stable")[np.cumsum(counts)
                                                    - counts]
        order = np.argsort(first)
        rows[state] = Distribution(dict(zip(
            strings(vocab[order], names),
            (counts[order] / n_samples).tolist())))
    return rows

