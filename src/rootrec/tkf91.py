"""Insertion-deletion-substitution sequence process with an immortal link.

Sequences over {A, T, C, G} are plain strings; "" is the empty sequence
consisting of the immortal link alone.  The immortal link is implicit as
position 0: it is never deleted or substituted, but it can give birth.
The stationary length law is geometric with ratio lambda/mu.  The
parameters ``Tkf91Params`` are the process itself: their ``sample`` runs
it down a tree edge by exact event simulation.  ``evolve_edges`` is the
package's one event loop: it runs every edge of a tree, in topological
order, in one call, and ``tkf91_evolve`` (one edge), a tree simulation
(``treechain.simulate``) and ``mc_rows`` (a star per state) all call it.
Exact time-t rows exist, as the forward recursion of a pair hidden
Markov model, but are not implemented yet, so estimators use Monte
Carlo plug-in rows (``mc_rows``).  The CLI's ``tkf91`` command runs the
reconstruction experiment.

The simulation draws only uniforms, through ``rng.random()``.  Calling
numpy once per uniform costs far more than the event it draws, so a tree
simulation and ``mc_rows`` read their generator through ``Uniforms``,
which takes ``CHUNK`` floats per call; the uniforms of a chunk that no
event used are dropped.
"""

from __future__ import annotations

import functools
import heapq
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice
from math import log1p

import numpy as np

from .ctmc import CtmcError, Distribution, _label_key

__all__ = [
    "Tkf91Params",
    "Uniforms",
    "ALPHABET",
    "CHUNK",
    "LENGTH_CAP",
    "EVENT_CAP",
    "tkf91_evolve",
    "evolve_edges",
    "stationary_sample",
    "stationary_pmf",
    "stationary_length_pmf",
    "top_states",
    "mc_rows",
    "write_experiment_csv",
]

ALPHABET = "ATCG"

# guard against runaway growth from misconfigured rates; with lambda < mu
# the length process is positive recurrent and never gets near this
LENGTH_CAP = 10 ** 4
# guard against rates too large to simulate event by event: one edge of
# evolve_edges stops after this many events (0.2-1.2 s on a shared 2-core
# Xeon VM; a tkf91 command that reaches it exits after 1.0-1.3 s)
EVENT_CAP = 10 ** 6
# uniforms that ``Uniforms`` draws from its generator in one call
CHUNK = 256


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

    def sample(self, state: str, duration: float, rng) -> str:
        """The sequence after ``duration`` from ``state``, as
        ``tkf91_evolve`` draws it."""
        return tkf91_evolve(self, state, duration, rng)

    @functools.cached_property
    def event_rates(self) -> dict:
        """Current length M -> (M nu, M (nu + mu), M (nu + mu) + (M+1) lam):
        where the substitution and the deletion shares of the total event
        rate end, and that total, each computed on first use."""
        return _EventRates(self.nu, self.lam, self.mu)

    @functools.cached_property
    def letter_cdf(self) -> list:
        """Cumulative letter frequencies, normalized to end at 1, exactly
        as ``Generator.choice(4, p=freqs)`` computes them."""
        cdf = np.cumsum(self.freqs)
        cdf /= cdf[-1]
        return cdf.tolist()


class _EventRates(dict):
    __slots__ = ("nu", "lam", "sub")

    def __init__(self, nu: float, lam: float, mu: float):
        super().__init__()
        self.nu, self.lam, self.sub = nu, lam, nu + mu

    def __missing__(self, m: int) -> tuple:
        to_del = m * self.sub
        rates = self[m] = (m * self.nu, to_del, to_del + (m + 1) * self.lam)
        return rates


class Uniforms:
    """Uniforms on [0, 1) from ``rng``, drawn ``CHUNK`` at a time.

    ``random()`` returns the next float of the current chunk, in the
    order ``rng.random(CHUNK)`` drew them, and draws a new chunk when the
    last one is used up.  The floats of a chunk that no call took are
    dropped, so ``rng`` is left after the last chunk drawn."""

    __slots__ = ("random",)

    def __init__(self, rng):
        # a builtin iterator's __next__, so a call runs no Python code
        # until a chunk is used up
        chunks = iter(lambda: rng.random(CHUNK).tolist(), None)
        self.random = chain.from_iterable(chunks).__next__


def _draw_letter(params: Tkf91Params, rng) -> str:
    # the letter rng.choice(4, p=freqs) draws, from the same one uniform
    return ALPHABET[bisect_right(params.letter_cdf, rng.random())]


def tkf91_evolve(params: Tkf91Params, seq: str, t: float, rng) -> str:
    """Run the process from ``seq`` for duration ``t``: the one-edge call
    of ``evolve_edges``, which says how the run reads ``rng``."""
    if t < 0:
        raise CtmcError("time must be nonnegative")
    return evolve_edges(params, (0,), (t,), seq, rng)[1]


def evolve_edges(params: Tkf91Params, parents, lengths, root: str,
                 rng) -> list:
    """The sequences of every vertex of a tree, by exact event simulation
    down its edges: vertex 0 holds ``root``, and edge e runs from vertex
    ``parents[e]`` (below e + 1) for ``lengths[e]`` to vertex e + 1.

    With current length M the total event rate is M nu + M mu + (M+1) lam:
    every ordinary site can be substituted or deleted, and every site
    including the immortal link can give birth immediately to its right.
    Edge after edge, each event takes uniforms from ``rng.random()`` (a
    ``Generator`` or ``Uniforms``): one for its waiting time, by
    inversion as -log(1 - u) / rate, one for its kind and site, and one
    for the letter of a substitution or insertion.  An edge whose first
    waiting time exceeds its length passes its parent's string on as it
    is.  An edge that runs more than ``EVENT_CAP`` events, or grows a
    sequence longer than ``LENGTH_CAP``, raises ``CtmcError``.
    """
    nu, lam, mu = params.nu, params.lam, params.mu
    rates, cdf, random = params.event_rates, params.letter_cdf, rng.random
    seqs = [root]
    for p, t in zip(parents, lengths):
        seq = seqs[p]
        m = len(seq)
        to_sub, to_del, total = rates[m]
        clock = -log1p(-random()) / total
        if clock > t:
            seqs.append(seq)
            continue
        sites = list(seq)
        for _ in range(EVENT_CAP):
            u = random() * total
            if u < to_sub:
                sites[int(u / nu)] = ALPHABET[bisect_right(cdf, random())]
            elif u < to_del:
                del sites[int((u - to_sub) / mu)]
                m -= 1
            else:
                # parent site index 0 is the immortal link; the child
                # lands immediately to the parent's right
                sites.insert(int((u - to_del) / lam),
                             ALPHABET[bisect_right(cdf, random())])
                m += 1
                if m > LENGTH_CAP:
                    raise CtmcError(
                        f"sequence length exceeded the cap {LENGTH_CAP}")
            to_sub, to_del, total = rates[m]
            clock -= log1p(-random()) / total
            if clock > t:
                break
        else:
            raise CtmcError(f"more than {EVENT_CAP} events in one run of "
                            f"duration {t}: the rates are too large to "
                            "simulate")
        seqs.append("".join(sites))
    return seqs


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
    the edges of one ``n_samples``-edge star rooted at it, one
    ``evolve_edges`` call, and all stars read ``rng`` through one
    ``Uniforms``."""
    if n_samples < 1:
        raise CtmcError("n_samples must be at least 1")
    if t < 0:
        raise CtmcError("time must be nonnegative")
    rng = Uniforms(rng)
    rows = {}
    for state in states:
        ends = evolve_edges(params, [0] * n_samples, [t] * n_samples, state,
                            rng)
        counts = Counter(islice(ends, 1, None))
        rows[state] = Distribution({s: c / n_samples
                                    for s, c in counts.items()})
    return rows


def write_experiment_csv(results, fh) -> None:
    fh.write("k,trials,errors,rate,ci_low,ci_high\n")
    for r in results:
        fh.write(f"{r['k']},{r['trials']},{r['errors']},"
                 f"{r['rate']:.10g},{r['ci_low']:.10g},{r['ci_high']:.10g}\n")
