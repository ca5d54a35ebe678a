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
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass
from itertools import accumulate, pairwise

import numpy as np

from .ctmc import CtmcError, Distribution, _label_key

__all__ = [
    "Tkf91Params",
    "ALPHABET",
    "LANES",
    "LENGTH_CAP",
    "KEY_LETTERS",
    "LONG_KEY",
    "encode",
    "decode",
    "keys",
    "distinct",
    "strings",
    "lane_law",
    "evolve_lanes",
    "stationary_sample",
    "stationary_pmf",
    "stationary_length_pmf",
    "top_states",
    "mc_rows",
    "write_experiment_csv",
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


@dataclass(frozen=True)
class Tkf91Params:
    """Substitution rate nu, insertion rate lam, deletion rate mu, and the
    nucleotide frequencies, all per unit time."""

    nu: float
    lam: float
    mu: float
    pi_A: float = 0.25
    pi_T: float = 0.25
    pi_C: float = 0.25
    pi_G: float = 0.25

    def __post_init__(self):
        if not (self.nu > 0 and self.lam > 0 and self.mu > 0):
            raise CtmcError("rates must be positive")
        if not self.lam < self.mu:
            raise CtmcError("lambda must be < mu")
        freqs = self.freqs
        if any(f < 0 for f in freqs):
            raise CtmcError("nucleotide frequencies must be nonnegative")
        if abs(sum(freqs) - 1.0) > 1e-12:
            raise CtmcError(f"frequencies sum to {sum(freqs)}, not 1")

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
    by one sort (``np.unique`` would import numpy.ma on its first call)."""
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
    kept, head, full = fate < keep, fate < live, fate >= empty
    # the immortal link has no letter of its own and is always followed
    # by a run
    kept[first] = head[first] = full[first] = False
    grows = head | full
    grows[first] = True
    size = np.where(grows, np.floor(-np.log1p(-run) / decay), 0.0) + head
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


def stationary_sample(params: Tkf91Params, rng) -> str:
    """Draw from the stationary law: geometric length (success 1 - lam/mu,
    support 0, 1, ...) with i.i.d. letters, one uniform each, mapped by
    ``letter_cdf`` as ``evolve_lanes`` maps its new letters."""
    m = int(rng.geometric(1.0 - params.ratio)) - 1
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


def top_states(params: Tkf91Params, epsilon: float,
               max_states: int = 10 ** 6) -> tuple:
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
        if not heap or len(out) >= max_states:
            raise CtmcError("state enumeration exceeded max_states")
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
        ends, names = keys(*evolve_lanes(params, *encode([state] * n_samples),
                                         law, rng))
        vocab, inverse = distinct(ends)
        order = list(dict.fromkeys(inverse.tolist()))
        rows[state] = Distribution(dict(zip(
            strings(vocab[order], names),
            (np.bincount(inverse)[order] / n_samples).tolist())))
    return rows


def write_experiment_csv(results, fh) -> None:
    fh.write("k,trials,errors,rate,ci_low,ci_high\n")
    for r in results:
        fh.write(f"{r['k']},{r['trials']},{r['errors']},"
                 f"{r['rate']:.10g},{r['ci_low']:.10g},{r['ci_high']:.10g}\n")
