"""Insertion-deletion-substitution sequence process with an immortal link.

Sequences over {A, T, C, G} are plain strings; "" is the empty sequence
consisting of the immortal link alone.  The immortal link is implicit as
position 0: it is never deleted or substituted, but it can give birth.
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

``evolve_lanes`` draws the children of a batch of lanes (a parent and a
duration each; sequences as ``encode`` holds them), ``LANES`` lanes to a
call, which bounds its memory.  Each call draws

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
import weakref
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, pairwise

import numpy as np

from .ctmc import CtmcError, Distribution, _label_key

__all__ = [
    "Tkf91Params",
    "ALPHABET",
    "LANES",
    "LENGTH_CAP",
    "encode",
    "decode",
    "evolve_lanes",
    "tkf91_evolve",
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
    # per-tree batch plans built by treechain
    compiled: weakref.WeakKeyDictionary = field(
        default_factory=weakref.WeakKeyDictionary, init=False, repr=False,
        compare=False)

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

    def __reduce__(self):
        # pickle the rates alone: the caches are rebuilt on demand, and the
        # per-tree one holds weak references, which do not pickle
        return Tkf91Params, (self.nu, self.lam, self.mu, *self.freqs)

    @property
    def freqs(self) -> tuple:
        return (self.pi_A, self.pi_T, self.pi_C, self.pi_G)

    @property
    def ratio(self) -> float:
        return self.lam / self.mu

    def sample(self, state: str, duration: float, rng) -> str:
        """The sequence after ``duration`` from ``state``, as
        ``tkf91_evolve`` draws it."""
        return tkf91_evolve(self, state, duration, rng)

    @functools.cached_property
    def letter_cdf(self) -> list:
        """Cumulative letter frequencies, normalized to end at 1, exactly
        as ``Generator.choice(4, p=freqs)`` computes them."""
        cdf = np.cumsum(self.freqs)
        cdf /= cdf[-1]
        return cdf.tolist()


def _draw_letter(params: Tkf91Params, rng) -> str:
    # the letter rng.choice(4, p=freqs) draws, from the same one uniform
    return ALPHABET[bisect_right(params.letter_cdf, rng.random())]


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


def tkf91_evolve(params: Tkf91Params, seq: str, t: float, rng) -> str:
    """The sequence after duration ``t`` from ``seq``: the one-lane call
    of ``evolve_lanes``, which says how it reads ``rng``."""
    if t < 0:
        raise CtmcError("time must be nonnegative")
    return decode(*evolve_lanes(params, *encode([seq]), np.array([t], float),
                                rng))[0]


def evolve_lanes(params: Tkf91Params, codes, lens, durations,
                 rng) -> tuple:
    """The children, as (codes, lengths), of the lanes whose parents are
    the concatenated ``codes`` cut at ``lens`` and whose durations are
    ``durations``, drawn from ``rng`` as the module docstring says.  A
    child longer than ``LENGTH_CAP`` raises ``CtmcError``."""
    if len(lens) > LANES:
        ends = np.cumsum(lens)
        parts = [evolve_lanes(params, codes[ends[lo] - lens[lo]:ends[hi - 1]],
                              lens[lo:hi], durations[lo:hi], rng)
                 for lo in range(0, len(lens), LANES)
                 for hi in (min(lo + LANES, len(lens)),)]
        return (np.concatenate([c for c, _ in parts]),
                np.concatenate([n for _, n in parts]))
    lam, mu, t = params.lam, params.mu, np.asarray(durations, dtype=float)
    slots = lens + 1
    first = np.cumsum(slots) - slots
    # a rate times t may overflow to inf, whose limits below are right;
    # -log(lam beta) is +inf at t = 0, where every run is empty
    with np.errstate(divide="ignore", over="ignore"):
        e = np.expm1((lam - mu) * t)
        beta = -e / ((mu - lam) - lam * e)
        alpha = np.exp(-mu * t)
        keep, live, empty, decay = np.repeat(
            [alpha * np.exp(-params.nu * t), alpha, alpha + mu * beta,
             -np.log(lam * beta)], slots, axis=1)
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
    child[at] = codes[np.delete(kept, first)]
    return child, out.astype(np.int32)


def stationary_sample(params: Tkf91Params, rng) -> str:
    """Draw from the stationary law: geometric length (success 1 - lam/mu,
    support 0, 1, ...) with i.i.d. letters."""
    m = int(rng.geometric(1.0 - params.ratio)) - 1
    return "".join(_draw_letter(params, rng) for _ in range(m))


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
    draw from ``rng`` in turn."""
    if n_samples < 1:
        raise CtmcError("n_samples must be at least 1")
    if t < 0:
        raise CtmcError("time must be nonnegative")
    durations = np.full(n_samples, float(t))
    rows = {}
    for state in states:
        ends = decode(*evolve_lanes(params, *encode([state] * n_samples),
                                    durations, rng))
        rows[state] = Distribution({s: c / n_samples
                                    for s, c in Counter(ends).items()})
    return rows


def write_experiment_csv(results, fh) -> None:
    fh.write("k,trials,errors,rate,ci_low,ci_high\n")
    for r in results:
        fh.write(f"{r['k']},{r['trials']},{r['errors']},"
                 f"{r['rate']:.10g},{r['ci_low']:.10g},{r['ci_high']:.10g}\n")
