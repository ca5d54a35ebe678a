import collections
import hashlib
import itertools
import json
import math
import os
import pickle
import subprocess
import sys
import time
from functools import partial

import numpy as np
import pytest

from oracles import (block_draw, evolve_lanes_reference, frequency_estimate,
                     simulate, tkf91_beta, tkf91_children_reference,
                     tkf91_evolve, tkf91_evolve_per_edge, tkf91_law_reference,
                     tkf91_tree_reference, tree_per_edge, uniform_stream)
from rootrec import tkf91, treechain
from rootrec.cli import EXIT_OK, main
from rootrec.ctmc import CtmcError, Distribution, _label_key
from rootrec.estimators import RowTable, StretchPlan, stretch_plan
from rootrec.tkf91 import (ALPHABET, KEY_LETTERS, LONG_KEY, Tkf91Params,
                           decode, encode, evolve_lanes, keys, lane_law,
                           mc_rows, stationary_length_pmf, stationary_pmf,
                           stationary_sample, strings, top_states)
from rootrec.tree import Tree, generate_family
from rootrec.treechain import BLOCK, simulated_trials

STD = Tkf91Params(nu=1.0, lam=1.0, mu=2.0)


def lanes(params, parents, t, rng) -> list:
    """The children of the strings ``parents`` after ``t``: one
    ``evolve_lanes`` batch."""
    return decode(*evolve_lanes(params, *encode(parents), lane_law(
        params, np.full(len(parents), float(t))), rng))


class TestParams:
    def test_lambda_below_mu_required(self):
        with pytest.raises(CtmcError):
            Tkf91Params(nu=1.0, lam=2.0, mu=2.0)

    def test_positive_rates_required(self):
        with pytest.raises(CtmcError):
            Tkf91Params(nu=0.0, lam=1.0, mu=2.0)

    def test_frequencies_must_sum_to_one(self):
        with pytest.raises(CtmcError):
            Tkf91Params(nu=1.0, lam=1.0, mu=2.0, pi_A=0.5, pi_T=0.5,
                        pi_C=0.5, pi_G=0.5)

    def test_replace_checks_its_fields(self):
        # _replace builds through _make, which goes through __new__
        with pytest.raises(CtmcError, match="lambda must be < mu"):
            Tkf91Params(1.0, 0.5, 1.0)._replace(lam=2.0)
        with pytest.raises(CtmcError, match="positive"):
            Tkf91Params._make([1.0, 0.5, -1.0])
        params = STD._replace(lam=1.5)
        assert params == (1.0, 1.5, 2.0, *STD.freqs)
        assert type(params) is Tkf91Params
        assert pickle.loads(pickle.dumps(params)) == params


class TestEvolve:
    def test_zero_time_unchanged(self):
        rng = np.random.default_rng(0)
        assert tkf91_evolve(STD, "ATCG", 0.0, rng) == "ATCG"

    def test_near_zero_insertion_keeps_empty(self):
        p = Tkf91Params(nu=1.0, lam=1e-12, mu=1.0)
        rng = np.random.default_rng(1)
        assert all(tkf91_evolve(p, "", 5.0, rng) == "" for _ in range(50))

    def test_alphabet_preserved(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            out = tkf91_evolve(STD, "ATCG", 0.5, rng)
            assert set(out) <= set(ALPHABET)

    def test_length_cap_stops_a_run(self, monkeypatch):
        monkeypatch.setattr(tkf91, "LENGTH_CAP", 50)
        with pytest.raises(CtmcError, match="exceeded the cap 50"):
            tkf91_evolve(STD, "A" * 60, 1e-9, np.random.default_rng(0))
        # a child under the cap ends as it would without the cap
        a, b = np.random.default_rng(1), np.random.default_rng(1)
        out = tkf91_evolve(STD, "ATCG", 0.5, a)
        monkeypatch.undo()
        assert out == tkf91_evolve(STD, "ATCG", 0.5, b)

    def test_stationarity_of_length_law(self):
        rng = np.random.default_rng(3)
        n = 20000
        starts = [stationary_sample(STD, rng) for _ in range(n)]
        counts = collections.Counter(map(len, lanes(STD, starts, 1.0, rng)))
        tv = 0.5 * sum(abs(counts.get(m, 0) / n
                           - stationary_length_pmf(STD, m))
                       for m in range(31))
        assert tv < 0.02

    def test_letter_frequencies_at_stationarity(self):
        p = Tkf91Params(nu=1.0, lam=1.0, mu=2.0, pi_A=0.4, pi_T=0.3,
                        pi_C=0.2, pi_G=0.1)
        rng = np.random.default_rng(4)
        letters = collections.Counter()
        for _ in range(20000):
            letters.update(stationary_sample(p, rng))
        total = sum(letters.values())
        for ch, f in zip(ALPHABET, p.freqs):
            assert abs(letters[ch] / total - f) < 4 * math.sqrt(
                f * (1 - f) / total)


class TestOneEventLoop:
    """``simulate``, ``simulated_trials`` and ``mc_rows`` draw every edge
    through the one loop of ``tkf91.evolve_lanes`` calls, batch by batch;
    each must draw what the slot-by-slot reference of tests/oracles.py
    draws, sequence for sequence, and leave its generator where the
    reference leaves it."""

    P = Tkf91Params(nu=1.0, lam=0.5, mu=1.0)
    TREES = {
        "figure1": lambda: generate_family("figure1", {"k": 30})[29],
        "random_ultrametric": lambda: generate_family(
            "random_ultrametric", {"k": 20}, seed=5)[19],
        "star": lambda: generate_family("star", {"k": 7, "h": 1.0})[6],
        "single_vertex": lambda: Tree("rho", []),
    }

    @pytest.mark.parametrize("kind", sorted(TREES))
    def test_simulate(self, kind):
        tree = self.TREES[kind]()
        for seed in range(200):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            root = stationary_sample(self.P, a)
            assert stationary_sample(self.P, b) == root
            assert simulate(tree, self.P, root, a) == tkf91_tree_reference(
                tree, self.P, [root], b)[0][0]
            assert a.random() == b.random()

    @pytest.mark.parametrize("kind", sorted(TREES))
    def test_simulated_trials(self, kind):
        tree = self.TREES[kind]()
        draw = lambda rng: stationary_sample(self.P, rng)
        (block,) = simulated_trials(tree, self.P, block_draw(draw), (9, 2),
                                    200)
        ref = np.random.default_rng([9, 2, 0])
        roots = [draw(ref) for _ in range(200)]
        leaves, _ = tkf91_tree_reference(tree, self.P, roots, ref)
        assert [row[1:3] for row in block.trials(tree)] == list(zip(roots,
                                                                    leaves))
        assert block.rng.random() == ref.random()

    def test_mc_rows(self):
        states = ("", "A", "GT", "ACGTA")
        for seed in range(200):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            rows = mc_rows(self.P, states, 0.6, 12, a)
            for state in states:
                ends = collections.Counter(tkf91_children_reference(
                    self.P, [state] * 12, [0.6] * 12, b))
                assert list(rows[state].items()) == list(Distribution(
                    {end: c / 12 for end, c in ends.items()}).items())
            assert a.random() == b.random()


class TestLengthCap:
    """``LENGTH_CAP`` bounds each child sequence, not a tree or a batch."""

    P = Tkf91Params(nu=5.0, lam=0.5, mu=1.0)

    def test_caps_each_edge_not_the_tree(self, monkeypatch):
        monkeypatch.setattr(tkf91, "LENGTH_CAP", 50)
        tree = generate_family("star", {"k": 6, "h": 0.01})[5]
        root = "ACGT" * 10
        want = tkf91_tree_reference(tree, self.P, [root],
                                    np.random.default_rng(3))[0][0]
        assert max(map(len, want.values())) < 50 < sum(map(len,
                                                           want.values()))
        assert simulate(tree, self.P, root, np.random.default_rng(3)) == want

    def test_one_edge_over_the_cap_stops_the_tree(self, monkeypatch):
        monkeypatch.setattr(tkf91, "LENGTH_CAP", 50)
        tree = Tree("rho", [("rho", "a", 10.0), ("rho", "b", 10.0),
                            ("rho", "c", 1e-6)])
        with pytest.raises(CtmcError, match="exceeded the cap 50"):
            simulate(tree, self.P, "ACGT" * 15, np.random.default_rng(3))


class TestUniforms:
    def test_chunk_floats_in_generator_order(self, monkeypatch):
        # a batch of more than LANES lanes is drawn LANES lanes at a time,
        # each call reading the generator after the one before it
        monkeypatch.setattr(tkf91, "LANES", 3)
        parents = ["", "A", "AT", "G", "CC", "", "TTT"]
        a, b = np.random.default_rng(6), np.random.default_rng(6)
        got = lanes(STD, parents, 0.8, a)
        want = [child for lo in range(0, 7, 3)
                for child in tkf91_children_reference(
                    STD, parents[lo:lo + 3], [0.8] * 3, b)]
        assert got == want
        assert a.random() == b.random()


class TestTransientLaw:
    """Lengths after time t against the closed form (tests/oracles.py),
    away from stationarity, from one batch of N lanes: drawn in chunks
    of ``LANES`` lanes, or in one call on the generator."""

    N = 20000

    @pytest.mark.parametrize("chunked", [True, False],
                             ids=["chunked", "generator"])
    @pytest.mark.parametrize("lam,mu,t", [(0.5, 1.0, 0.7), (1.0, 2.0, 0.3),
                                          (0.5, 1.0, 3.0)])
    def test_lengths_from_empty_and_single_site(self, monkeypatch, chunked,
                                                lam, mu, t):
        assert tkf91.LANES < self.N
        if not chunked:
            monkeypatch.setattr(tkf91, "LANES", self.N)
        p = Tkf91Params(nu=1.0, lam=lam, mu=mu)
        rng = np.random.default_rng([13, int(100 * t)])
        lb = lam * tkf91_beta(lam, mu, t)
        lengths = collections.Counter(map(len, lanes(p, [""] * self.N, t,
                                                     rng)))
        empty = lanes(p, ["A"] * self.N, t, rng).count("")
        expected = [((1 - lb) * lb ** n, lengths[n]) for n in range(5)]
        expected.append(((1 - lb) * mu * tkf91_beta(lam, mu, t), empty))
        for prob, count in expected:
            assert abs(count / self.N - prob) < 4 * math.sqrt(
                prob * (1 - prob) / self.N)


def assert_same_law(a, b, top=8, z=4.5):
    """The samples ``a`` and ``b`` agree, by a two-sample z-test at ``z``,
    on the frequency of each of the ``top`` likeliest outcomes of the
    pooled sample and on that of all the others together; a frequency's
    variance is floored at that of one pooled outcome."""
    ca, cb = collections.Counter(a), collections.Counter(b)
    keys = [k for k, _ in (ca + cb).most_common(top)]
    pairs = [(ca[k], cb[k]) for k in keys]
    pairs.append((len(a) - sum(x for x, _ in pairs),
                  len(b) - sum(y for _, y in pairs)))
    for x, y in pairs:
        p = (x + y) / (len(a) + len(b))
        var = (max(p * (1 - p), 1 / (len(a) + len(b)))
               * (1 / len(a) + 1 / len(b)))
        assert abs(x / len(a) - y / len(b)) <= z * math.sqrt(var), (x, y)


LONG = "".join(np.random.default_rng(0).choice(list(ALPHABET), 200))


class TestExactLaw:
    """The time-t sampler against the event simulation of
    tests/oracles.py (``assert_same_law``: 20000 sampler lanes, 4000
    event runs, or 1000 from the 200-letter parent), and against closed
    forms.  From the 200-letter parent every sequence is rare after
    t = 1, so there the outcome is the child's length."""

    P = Tkf91Params(nu=1.0, lam=0.5, mu=1.0)

    @pytest.mark.parametrize("t", [1e-9, 1.0, 2.5])
    @pytest.mark.parametrize("parent", ["", "A", "AT", LONG],
                             ids=["empty", "A", "AT", "long"])
    def test_matches_event_simulation(self, parent, t):
        rng = np.random.default_rng([21, len(parent), int(10 * t)])
        runs = 1000 if parent == LONG else 4000
        src = uniform_stream(rng)
        events = [tkf91_evolve_per_edge(self.P, parent, t, src)
                  for _ in range(runs)]
        law = lanes(self.P, [parent] * 20000, t, rng)
        if parent == LONG and t >= 1:
            events, law = map(len, events), map(len, law)
        assert_same_law(list(law), list(events))

    @pytest.mark.parametrize("parent", ["T", "TC"])
    def test_letters_in_sequence_order(self, parent):
        # with almost every new letter an A, the likeliest children tell
        # where new letters land: "AT" and "TA" differ only in order
        p = Tkf91Params(nu=1.0, lam=0.5, mu=1.0, pi_A=0.97, pi_T=0.01,
                        pi_C=0.01, pi_G=0.01)
        rng = np.random.default_rng([28, len(parent)])
        src = uniform_stream(rng)
        events = [tkf91_evolve_per_edge(p, parent, 0.5, src)
                  for _ in range(4000)]
        assert_same_law(lanes(p, [parent] * 20000, 0.5, rng), events)

    @pytest.mark.parametrize("parent", ["A", "AT"])
    def test_saturated_substitutions(self, parent):
        # at nu = 1e7 a survivor keeps its letter with probability
        # e^-(10^7), as good as 0: the law is that of nu = 50 (e^-50 <
        # 2e-22), which the event simulation can reach
        rng = np.random.default_rng([22, len(parent)])
        fast = Tkf91Params(nu=1e7, lam=0.5, mu=1.0)
        slow = Tkf91Params(nu=50.0, lam=0.5, mu=1.0)
        src = uniform_stream(rng)
        events = [tkf91_evolve_per_edge(slow, parent, 1.0, src)
                  for _ in range(4000)]
        assert_same_law(lanes(fast, [parent] * 20000, 1.0, rng), events)

    def test_near_critical_ratio(self):
        # lam / mu = 0.99 over t = 50: long runs, compared by length
        p = Tkf91Params(nu=1.0, lam=0.99, mu=1.0)
        rng = np.random.default_rng(23)
        src = uniform_stream(rng)
        events = [len(tkf91_evolve_per_edge(p, "A", 50.0, src))
                  for _ in range(300)]
        assert_same_law(list(map(len, lanes(p, ["A"] * 20000, 50.0, rng))),
                        events)

    @pytest.mark.parametrize("parent", ["", "A", "AT", LONG])
    def test_zero_time_is_identity(self, parent):
        rng = np.random.default_rng(24)
        assert lanes(self.P, [parent] * 1000, 0.0, rng) == [parent] * 1000

    @pytest.mark.parametrize("lam,mu,t", [(0.5, 1.0, 1e-9), (0.5, 1.0, 2.5),
                                          (0.99, 1.0, 50.0)])
    def test_closed_forms(self, lam, mu, t):
        # P(length n | "") = (1 - lam beta)(lam beta)^n and
        # P("" | "A") = (1 - lam beta) mu beta, at 4.5 sigma
        p, n = Tkf91Params(nu=1.0, lam=lam, mu=mu), 200000
        rng = np.random.default_rng([25, int(t)])
        beta = tkf91_beta(lam, mu, t)
        lengths = collections.Counter(map(len, lanes(p, [""] * n, t, rng)))
        expected = [((1 - lam * beta) * (lam * beta) ** k, lengths[k])
                    for k in range(0, 60, 5)]
        expected.append(((1 - lam * beta) * mu * beta,
                         lanes(p, ["A"] * n, t, rng).count("")))
        for prob, count in expected:
            assert abs(count / n - prob) <= 4.5 * math.sqrt(
                max(prob * (1 - prob), 1 / n) / n)

    def test_two_leaves_of_a_tree(self):
        # the joint law of two leaves below one inner edge, against the
        # event simulation edge by edge
        tree = Tree("rho", [("rho", "u", 0.5), ("u", "a", 0.5),
                            ("u", "b", 0.7)])
        rng = np.random.default_rng(26)
        src = uniform_stream(rng)
        step = partial(tkf91_evolve_per_edge, self.P)
        events = [tuple(tree_per_edge(tree, step, "AT", src).values())
                  for _ in range(4000)]
        law = [tuple(row) for block in simulated_trials(
            tree, self.P, block_draw(lambda rng: "AT"), (27,), 20000)
            for row in block.keys.states(block.leaves)]
        assert_same_law(law, events)


class TestTrialBlocks:
    """TKF91 trials come in blocks of ``BLOCK``, each from the generator
    seeded ``[*key, b]``."""

    P = Tkf91Params(nu=1.0, lam=0.5, mu=1.0)

    @staticmethod
    def tree():
        return generate_family("figure1", {"k": 6, "h": 1.0})[5]

    @staticmethod
    def plan(tree):
        # one leaf runs forward for 0.5, the other stays as it is
        return StretchPlan(0.1, 1.5, 2, tree.leaves[:2], (0.5, 0.0))

    def run(self, stop, start=0):
        tree = self.tree()
        # the last entry is where the estimator would continue the stream
        return [(t, root, leaves, tuple(stretched), block.rng.random())
                for block in simulated_trials(
                    tree, self.P,
                    block_draw(lambda rng: stationary_sample(self.P, rng)),
                    (5,), stop, start, self.plan(tree))
                for (t, root, leaves), stretched in zip(
                    block.trials(tree), block.keys.states(block.stretched))]

    def test_split_range_yields_the_same_trials(self):
        whole = self.run(2 * BLOCK + 3)
        assert [row[0] for row in whole] == list(range(2 * BLOCK + 3))
        for cut in (BLOCK, 2 * BLOCK):
            assert self.run(cut) + self.run(2 * BLOCK + 3, cut) == whole

    def test_first_block_does_not_depend_on_the_run_length(self):
        assert self.run(BLOCK + 7)[:BLOCK] == self.run(2 * BLOCK)[:BLOCK]

    def test_start_inside_a_block_is_refused(self):
        for start in (1, BLOCK - 1, BLOCK + 7):
            with pytest.raises(ValueError, match="multiple of"):
                self.run(2 * BLOCK, start)

    def test_block_reads_roots_then_batches_then_estimators(self):
        # roots in trial order, the tree's batches, the stretched leaves'
        # batch, then the estimators' draws in trial order
        tree = self.tree()
        ref = np.random.default_rng([5, 0])
        roots = [stationary_sample(self.P, ref) for _ in range(10)]
        leaves, stretched = tkf91_tree_reference(tree, self.P, roots, ref,
                                                 self.plan(tree))
        after = [ref.random() for _ in range(10)]
        assert self.run(10) == [
            (t, *row) for t, row in enumerate(zip(
                roots, leaves, map(tuple, stretched), after))]

    def test_plan_built_once(self, monkeypatch):
        calls = []
        real = treechain._tree_plan

        def counted(tree, process):
            calls.append(tree)
            return real(tree, process)

        monkeypatch.setattr(treechain, "_tree_plan", counted)
        params = Tkf91Params(nu=1.0, lam=0.5, mu=1.0)
        tree = self.tree()
        simulate(tree, params, "AT", np.random.default_rng(1))
        simulate(tree, params, "AT", np.random.default_rng(2))
        list(simulated_trials(tree, params, block_draw(lambda rng: "A"), (3,),
                              10))
        assert calls == [tree]

    def test_pickles_without_tree_state(self):
        # the plans stay in treechain when the process goes to a worker
        params = Tkf91Params(nu=1.0, lam=0.5, mu=1.0)
        simulate(self.tree(), params, "AT", np.random.default_rng(1))
        fresh = Tkf91Params(nu=1.0, lam=0.5, mu=1.0)
        # drawing caches the letter cdf on the process, which may travel
        assert fresh.letter_cdf == params.letter_cdf
        assert pickle.dumps(params) == pickle.dumps(fresh)
        assert pickle.loads(pickle.dumps(params)) == params


class TestKeys:
    """A sequence's key is exact: its letters as base-5 digits up to
    ``KEY_LETTERS`` letters, its place among one call's longer sequences
    past that."""

    SEQS = ["", *("".join(c) for n in range(1, 5)
                  for c in itertools.product(ALPHABET, repeat=n)),
            "T" * KEY_LETTERS, "ACGT" * 6 + "GTA", "G" * (KEY_LETTERS + 1),
            "ACGT" * 10]

    def test_exact_injective_and_ordered(self):
        keyed, long = keys(*encode(self.SEQS))
        assert len(set(keyed.tolist())) == len(self.SEQS)
        assert keyed[:5].tolist() == [0, 1, 4, 2, 3]  # "", A, T, C, G
        assert keyed[-4] == 5 ** KEY_LETTERS - 1 < LONG_KEY
        assert long == ("G" * (KEY_LETTERS + 1), "ACGT" * 10)
        assert keyed[-2:].tolist() == [LONG_KEY, LONG_KEY + 1]
        assert np.argsort(keyed, kind="stable").tolist() == sorted(
            range(len(self.SEQS)), key=lambda i: _label_key(self.SEQS[i]))

    def test_strings_are_decode(self):
        rng = np.random.default_rng(2)
        seqs = [self.SEQS[i]
                for i in rng.integers(len(self.SEQS), size=5000)]
        codes, lens = encode(seqs)
        keyed, long = keys(codes, lens)
        assert strings(keyed, long) == decode(codes, lens) == seqs
        assert strings(keyed.reshape(100, 50), long) == [
            seqs[i:i + 50] for i in range(0, 5000, 50)]
        # equal sequences, equal keys: one call's keys are its own
        assert len(set(keyed.tolist())) == len(set(seqs))
        assert strings(keyed[:0]) == [] and strings(
            keyed[:0].reshape(2, 0), long) == [[], []]

    def test_long_root_down_a_tree(self):
        # a 40-letter root, little changed: most leaves pass 27 letters
        slow = Tkf91Params(nu=0.05, lam=0.02, mu=0.05)
        tree = generate_family("figure1", {"k": 6, "h": 1.0})[5]
        root = "ACGT" * 10
        for seed in range(20):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            leaves = simulate(tree, slow, root, a)
            assert leaves == tkf91_tree_reference(tree, slow, [root], b)[0][0]
            assert a.random() == b.random()
        assert max(map(len, leaves.values())) > KEY_LETTERS

    @pytest.mark.parametrize("params", [STD, Tkf91Params(1.0, 0.95, 1.0)])
    def test_mc_rows_are_counted_strings(self, params):
        # the same sequences, masses and order as counting decoded
        # strings, as the package first did
        states = ("", "A", "ACGT" * 7, "ACGT" * 10)
        for seed in range(10):
            rows = mc_rows(params, states, 1.0, 300,
                           np.random.default_rng(seed))
            ref = np.random.default_rng(seed)
            for state in states:
                ends = decode(*evolve_lanes_reference(
                    params, *encode([state] * 300), np.ones(300), ref))
                want = Distribution({s: c / 300 for s, c in
                                     collections.Counter(ends).items()})
                assert [(s, p.hex()) for s, p in rows[state].items()] == [
                    (s, p.hex()) for s, p in want.items()]


class TestPlanLaw:
    """Each edge's law is computed once, in the tree's plan; draws from it
    must be bit for bit the draws from each lane's own law."""

    DURATIONS = (0.0, 1e-12, 2.0 ** -40, 0.3, 1.0, 40.0)

    @pytest.mark.parametrize("t", DURATIONS)
    def test_law_is_the_lanes_law(self, t):
        got = lane_law(STD, [t, 0.5, t])
        assert got.tobytes() == tkf91_law_reference(STD, [t, 0.5, t]
                                                    ).tobytes()
        assert np.repeat(got[:, :1], 300, 1).tobytes() == \
            tkf91_law_reference(STD, np.full(300, t)).tobytes()

    @pytest.mark.parametrize("t", DURATIONS)
    def test_draws_are_the_lanes_draws(self, t):
        rng = np.random.default_rng(7)
        codes, lens = encode([stationary_sample(STD, rng)
                              for _ in range(300)] + ["ACGT" * 10])
        a, b = np.random.default_rng(8), np.random.default_rng(8)
        got = evolve_lanes(STD, codes, lens,
                           np.repeat(lane_law(STD, [t]), 301, 1), a)
        want = evolve_lanes_reference(STD, codes, lens, np.full(301, t), b)
        assert got[0].tolist() == want[0].tolist()
        assert got[1].tolist() == want[1].tolist()
        assert a.random() == b.random()

    def test_plans_hold_each_edges_law(self):
        lengths = [t for t in self.DURATIONS if t > 0]
        tree = Tree("r", [("r", f"u{i}", t) for i, t in enumerate(lengths)]
                    + [(f"u{i}", f"x{i}", t) for i, t in enumerate(lengths)])
        plan = StretchPlan(0.1, 100.0, len(lengths),
                           tuple(f"x{i}" for i in range(len(lengths))),
                           tuple(100.0 - 2 * t for t in lengths))
        draw = treechain._plan(treechain._drawer, tree, STD, plan)
        batches = draw.args[1]
        assert len(batches) == 3
        for parents, children, law, same in batches[:2]:
            length = [tree.length[tree.topo_order[c]] for c in children]
            assert law.tobytes() == tkf91_law_reference(STD, length).tobytes()
            assert same == tkf91.identity(law).tolist()
        assert batches[2][2].tobytes() == tkf91_law_reference(
            STD, plan.durations).tobytes()


class TestIdentityLaw:
    """``tkf91.identity``: the laws under which ``evolve_lanes`` returns
    every parent whatever its uniforms, so that a tree's draw may skip
    them; the threshold on -log(lam beta) is tight."""

    TOP = float(np.nextafter(1.0, 0.0))

    class Fixed:
        """A stand-in generator whose every uniform is ``u``."""

        def __init__(self, u):
            self.u = u

        def random(self, size=None):
            return np.full(size, self.u)

    PARENTS = ["", "A", "ACGTTGCA", "G" * 40]

    def lanes(self, law, u):
        codes, lens = encode(self.PARENTS)
        law = np.repeat(np.asarray(law, dtype=float).reshape(4, 1),
                        len(lens), axis=1)
        return decode(*evolve_lanes(STD, codes, lens, law, self.Fixed(u)))

    @pytest.mark.parametrize("t", [0.0, 1e-17, 2.0 ** -60])
    def test_short_laws_return_the_parents(self, t):
        law = lane_law(STD, [t])
        assert tkf91.identity(law).tolist() == [True]
        for u in (0.0, 0.5, self.TOP):
            assert self.lanes(law[:, 0], u) == self.PARENTS

    @pytest.mark.parametrize("t", [1e-12, 2.0 ** -40, 0.3])
    def test_longer_laws_are_not_the_identity(self, t):
        assert tkf91.identity(lane_law(STD, [t])).tolist() == [False]

    def test_threshold_is_tight(self):
        # a run of -log1p(-u) / decay: at decay = -log1p(-TOP) the
        # largest uniform makes a run of one letter after every slot
        cap = float(-np.log1p(-self.TOP))
        assert tkf91.identity(np.array([[1.0], [1.0], [1.0], [cap]])
                              ).tolist() == [False]
        assert self.lanes([1.0, 1.0, 1.0, cap], 0.0) == self.PARENTS
        grown = self.lanes([1.0, 1.0, 1.0, cap], self.TOP)
        assert [len(c) for c in grown] == [2 * len(p) + 1
                                           for p in self.PARENTS]
        above = float(np.nextafter(cap, np.inf))
        assert tkf91.identity(np.array([[1.0], [1.0], [1.0], [above]])
                              ).tolist() == [True]
        assert self.lanes([1.0, 1.0, 1.0, above], self.TOP) == self.PARENTS
        # and a site that may change its letter is never the identity
        below = float(np.nextafter(1.0, 0.0))
        assert tkf91.identity(np.array([[below], [1.0], [1.0], [np.inf]])
                              ).tolist() == [False]


class TestNoMove:
    """``evolve_lanes`` returns its parents when its fates and runs move
    nothing, and ``edge_batches`` merges runs of identity depths; both
    draw what tests/oracles.py's full computation draws."""

    @staticmethod
    def parents(n):
        rng = np.random.default_rng(7)
        return encode([stationary_sample(STD, rng) for _ in range(n)]
                      + ["ACGT" * 10])

    @pytest.mark.parametrize("durations,still", [
        ([1e-9], True), ([1e-9, 0.3], False), ([1e-2], False)])
    def test_lanes_match_the_full_computation(self, durations, still):
        codes, lens = self.parents(299)
        t = np.resize(durations, len(lens))
        for seed in range(20):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            got = evolve_lanes(STD, codes, lens, lane_law(STD, t), a)
            want = evolve_lanes_reference(STD, codes, lens, t, b)
            assert got[0].tolist() == want[0].tolist()
            assert got[1].tolist() == want[1].tolist()
            assert a.bit_generator.state == b.bit_generator.state
            # the parents themselves when nothing moved
            assert (got[0] is codes) == still

    def test_identity_depths_merge(self):
        tree = generate_family("figure1", {"k": 200})[199]
        batches = tkf91.edge_batches(tree, Tkf91Params(1.0, 0.5, 1.0))
        assert len(batches) == 55
        runs = [len(parents) for parents, _, _, same in batches
                if all(same)]
        assert runs == [147]

    @pytest.mark.parametrize("lam,states,seed,digest", [
        (0.5, ("", "A", "C", "G", "T"), 11,
         "2a31f66f0be32467426779975653b09d"),
        # most children pass the 27 letters of a key
        (0.95, ("", "A", "ACGT" * 7, "ACGT" * 10), 12,
         "79c5d79eaaf9c893c8dbca4fd207b4a9")])
    def test_mc_rows_pinned(self, lam, states, seed, digest):
        # each row's sequences in the order of their first run, and their
        # masses, as exact hex floats
        rows = mc_rows(Tkf91Params(1.0, lam, 1.0), states, 1.0, 4000,
                       np.random.default_rng([seed, 10 ** 9]))
        items = [[s, [[y, p.hex()] for y, p in rows[s].items()]]
                 for s in states]
        assert hashlib.sha256(json.dumps(items).encode()).hexdigest()[
            :32] == digest


class TestHashSeed:
    # the plug-in rows' Δ over 20 streams, as exact hex floats
    SCRIPT = """
from numpy.random import default_rng
from rootrec.estimators import RowTable
from rootrec.tkf91 import Tkf91Params, mc_rows, top_states
STD = Tkf91Params(nu=1.0, lam=1.0, mu=2.0)
lam = top_states(STD, 0.3)
print(*(RowTable(mc_rows(STD, lam, 1.0, 4000, default_rng([s, 10**9])),
                 STD.keys)
        .delta(lam).hex() for s in range(5, 25)))
"""

    # the plug-in rows' Δ as the package first computed them, from strings
    # counted with collections.Counter
    PINNED = ["0x1.8624dd2f1aa20p-4", "0x1.820c49ba5e360p-4",
              "0x1.9a9fbe76c8b5dp-4", "0x1.9fbe76c8b4398p-4",
              "0x1.9ba5e353f7d04p-4", "0x1.9fbe76c8b43b7p-4",
              "0x1.9ba5e353f7d18p-4", "0x1.90624dd2f1ab0p-4",
              "0x1.9a9fbe76c8b4cp-4", "0x1.a2d0e560418acp-4",
              "0x1.ad0e56041895bp-4", "0x1.851eb851eb870p-4",
              "0x1.83126e978d50ep-4", "0x1.ac083126e97b2p-4",
              "0x1.74bc6a7ef9dbfp-4", "0x1.8c49ba5e35401p-4",
              "0x1.99999999999aep-4", "0x1.99999999999acp-4",
              "0x1.a1cac083126f2p-4", "0x1.9a9fbe76c8b5fp-4"]

    def test_delta_does_not_depend_on_the_hash_seed(self):
        # string states sit in hash-ordered sets; a sum over one in its
        # iteration order rounds differently under each PYTHONHASHSEED
        src = os.path.dirname(os.path.dirname(tkf91.__file__))
        out = [subprocess.run(
            [sys.executable, "-c", self.SCRIPT], capture_output=True,
            text=True, check=True, env={**os.environ, "PYTHONPATH": src,
                                        "PYTHONHASHSEED": seed}).stdout
            for seed in ("1", "2")]
        assert out[0].split() == self.PINNED
        assert out[0] == out[1]


class TestDrawLetter:
    """The one letter rule of ``evolve_lanes`` and ``stationary_sample``:
    a uniform u is the letter ``searchsorted(letter_cdf, u, "right")``,
    the letter ``Generator.choice(4, p=freqs)`` draws from u."""

    FREQS = [(0.25, 0.25, 0.25, 0.25), (0.1, 0.2, 0.3, 0.4),
             (0.5, 0.0, 0.5, 0.0), (0.0, 0.0, 0.0, 1.0)]

    @staticmethod
    def params(freqs):
        return Tkf91Params(nu=1.0, lam=1.0, mu=2.0, **dict(zip(
            ("pi_A", "pi_T", "pi_C", "pi_G"), freqs)))

    @pytest.mark.parametrize("freqs", FREQS)
    def test_same_letter_as_generator_choice(self, freqs):
        p = self.params(freqs)
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        letters = np.searchsorted(p.letter_cdf, a.random(100_000),
                                  side="right")
        assert letters.tolist() == [b.choice(4, p=p.freqs)
                                    for _ in range(100_000)]
        # both consumed the stream identically
        assert a.random() == b.random()

    @pytest.mark.parametrize("freqs", FREQS)
    def test_stationary_sample_draws_choice_letters(self, freqs):
        # a geometric length, then one choice per letter
        p = self.params(freqs)
        a, b = np.random.default_rng(6), np.random.default_rng(6)
        for _ in range(2000):
            m = int(b.geometric(1.0 - p.ratio)) - 1
            assert stationary_sample(p, a) == "".join(
                ALPHABET[b.choice(4, p=p.freqs)] for _ in range(m))
        assert a.random() == b.random()


class TestStationaryLaw:
    def test_empty_probability(self):
        assert stationary_pmf(STD, "") == pytest.approx(0.5)

    def test_single_letter(self):
        assert stationary_pmf(STD, "A") == pytest.approx(0.0625)

    def test_length_law_matches_geometric(self):
        rng = np.random.default_rng(5)
        n = 30000
        counts = collections.Counter(len(stationary_sample(STD, rng))
                                     for _ in range(n))
        for m in range(6):
            p = stationary_length_pmf(STD, m)
            assert abs(counts[m] / n - p) < 4 * math.sqrt(p * (1 - p) / n)

    def test_ratio_to_zero_always_empty(self):
        p = Tkf91Params(nu=1.0, lam=1e-9, mu=1.0)
        rng = np.random.default_rng(6)
        assert all(stationary_sample(p, rng) == "" for _ in range(100))

    # lam: (seed, sha256 of 20,000 roots joined by commas, the next
    # uniform), recorded when an empty root still drew random(0) and went
    # through the decode; 9846 and 1004 of the roots are empty
    PINNED = {0.5: (21, "62ab2be4f8fb36e0bc41929a56bb40f0"
                        "46de95945e66bf93300b93c93cc7de38",
                    0.26689240310935636),
              0.95: (22, "56a0ad97a41156b9d2df2c24fad45fee"
                         "da41b8edeb10389934513d13ab259ea0",
                     0.044533015157846356)}

    @pytest.mark.parametrize("lam", sorted(PINNED))
    def test_empty_roots_keep_strings_and_stream(self, lam):
        # an empty root returns "" at once: random(0) reads nothing, so
        # the roots and the generator's next draw stay as pinned
        seed, digest, after = self.PINNED[lam]
        p, rng = Tkf91Params(nu=1.0, lam=lam, mu=1.0), np.random.default_rng(
            seed)
        roots = [stationary_sample(p, rng) for _ in range(20000)]
        assert hashlib.sha256(",".join(roots).encode()).hexdigest() == digest
        assert rng.random() == after


class TestTopStates:
    def test_uniform_pi_order(self):
        assert top_states(STD, 0.3) == ("", "A", "C", "G", "T")

    def test_tail_mass_below_epsilon(self):
        for eps in (0.3, 0.1, 0.05):
            lam = top_states(STD, eps)
            tail = 1.0 - sum(stationary_pmf(STD, s) for s in lam)
            assert tail < eps
            # dropping the last element puts the tail back at or above eps
            tail_short = tail + stationary_pmf(STD, lam[-1])
            assert tail_short >= eps

    def test_known_count_at_005(self):
        assert len(top_states(STD, 0.05)) == 188

    def test_enumeration_guard(self, monkeypatch):
        # 188 sequences are needed at epsilon 0.05: a guard of 100 fires
        monkeypatch.setattr(tkf91, "MAX_STATES", 100)
        with pytest.raises(CtmcError, match="MAX_STATES"):
            top_states(STD, 0.05)
        assert len(top_states(STD, 0.1)) <= 100

    @pytest.mark.parametrize("params,eps", [
        (STD, 1e-5), (STD, 2.0 ** -52), (Tkf91Params(1.0, 0.99999, 1.0), 0.3),
        (Tkf91Params(1.0, 0.9, 1.0), 0.3)])
    def test_hopeless_enumeration_fails_within_budget(self, params, eps):
        # each needs more than MAX_STATES sequences, far more candidates
        # than a frequency test could compare pairwise; under a guard of
        # 10^6 each took 20 s or more to fail
        start = time.perf_counter()
        with pytest.raises(CtmcError, match="MAX_STATES"):
            top_states(params, eps)
        assert time.perf_counter() - start < 2.0

    def test_masses_nonincreasing(self):
        lam = top_states(STD, 0.02)
        masses = [stationary_pmf(STD, s) for s in lam]
        assert all(masses[i] >= masses[i + 1] - 1e-15
                   for i in range(len(masses) - 1))

    def test_nonuniform_pi_best_first(self):
        p = Tkf91Params(nu=1.0, lam=1.0, mu=2.0, pi_A=0.7, pi_T=0.1,
                        pi_C=0.1, pi_G=0.1)
        lam = top_states(p, 0.2)
        # "A" (mass 0.175) outranks every other single letter (0.025)
        assert lam[0] == ""
        assert lam[1] == "A"
        assert "AA" in lam  # 0.06125 beats "T" at 0.025
        assert lam.index("AA") < lam.index("T")


class TestProcessInterface:
    def test_plugs_into_tree_simulation(self):
        t = generate_family("pinched_star", {"m": 4, "s": 0.1, "h": 0.5})[3]
        rng = np.random.default_rng(7)
        obs = simulate(t, STD, "AT", rng)
        assert set(obs) == set(t.leaves)
        assert all(isinstance(v, str) for v in obs.values())

    def test_mc_rows_are_distributions(self):
        rng = np.random.default_rng(8)
        rows = mc_rows(STD, ["", "A"], 0.3, 500, rng)
        assert set(rows) == {"", "A"}
        for d in rows.values():
            assert isinstance(d, Distribution)
            assert abs(sum(p for _, p in d.items()) - 1.0) < 1e-9

    def test_mc_rows_concentrate_at_small_t(self):
        rng = np.random.default_rng(9)
        rows = mc_rows(STD, ["AT"], 0.01, 2000, rng)
        assert rows["AT"].mass("AT") > 0.9


def tkf91_command(tmp_path, family, process, estimator, ks, trials,
                  seed) -> list:
    """The rows of the ``tkf91`` command's CSV for this config, each a
    dict of the CSV's columns."""
    cfg = {"family": family, "process": {"kind": "tkf91", **process},
           "estimator": estimator, "ks": ks, "trials": trials,
           "seed": seed, "output": str(tmp_path / "out.csv")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["tkf91", str(path)]) == EXIT_OK
    header, *lines = (tmp_path / "out.csv").read_text().splitlines()
    return [dict(zip(header.split(","), map(float, line.split(","))))
            for line in lines]


class TestRootExperiment:
    NEAR_ZERO = {"nu": 1e-4, "lam": 1e-4, "mu": 2e-4}

    def test_near_zero_rates_error_within_candidate_tail(self, tmp_path):
        # leaves copy the root, so the only losses are roots outside the
        # epsilon candidate set (stationary tail mass 0.25 here)
        p = Tkf91Params(**self.NEAR_ZERO)
        res = tkf91_command(
            tmp_path, {"kind": "star", "k": 9, "h": 1.0}, self.NEAR_ZERO,
            {"s": 0.5, "h_star": 1.0, "epsilon": 0.3, "row_samples": 300},
            ks=[9], trials=100, seed=11)
        tail = 1.0 - sum(stationary_pmf(p, s) for s in top_states(p, 0.3))
        assert res[0]["rate"] <= tail + 3 * math.sqrt(
            tail * (1 - tail) / 100) + 0.01

    def test_near_zero_rates_recover_candidate_roots(self):
        p = Tkf91Params(**self.NEAR_ZERO)
        t = generate_family("star", {"k": 9, "h": 1.0})[8]
        plan, lam = stretch_plan(t, 0.5, 1.0), top_states(p, 0.3)
        rng = np.random.default_rng(12)
        rows = RowTable(mc_rows(p, lam, 1.0, 300, rng), p.keys)
        for truth in lam:
            obs = simulate(t, p, truth, rng)
            rep = frequency_estimate(plan, p, obs, lam, rows, rng)
            assert rep.state == truth

    def test_row_tables_built_once(self, monkeypatch, tmp_path):
        # pairwise TVs of the plug-in rows are computed once per run, not
        # once per trial
        from rootrec import estimators
        calls = []
        real = estimators.total_variations

        def counted(dists):
            calls.append(1)
            return real(dists)

        monkeypatch.setattr(estimators, "total_variations", counted)
        counts = []
        for trials in (2, 6):
            calls.clear()
            tkf91_command(
                tmp_path, {"kind": "figure1", "k": 5, "h": 1.0},
                {"nu": STD.nu, "lam": STD.lam, "mu": STD.mu},
                {"s": 0.05, "h_star": 1.0, "epsilon": 0.3,
                 "row_samples": 50}, ks=[3, 5], trials=trials, seed=3)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_strings_only_for_distinct_row_sequences(self, monkeypatch,
                                                      tmp_path):
        # the trials test keys: the command decodes each plug-in row's
        # sequences once and no trial's
        built, rows = [], []
        decoded, counted = tkf91.decode, tkf91.mc_rows
        monkeypatch.setattr(tkf91, "decode", lambda codes, lens: built.append(
            decoded(codes, lens)) or built[-1])
        monkeypatch.setattr(tkf91, "mc_rows", lambda *args: rows.append(
            counted(*args)) or rows[-1])
        tkf91_command(
            tmp_path, {"kind": "figure1", "k": 10, "h": 1.0},
            {"nu": 1.0, "lam": 0.5, "mu": 1.0},
            {"s": 0.05, "h_star": 1.0, "epsilon": 0.3, "row_samples": 400},
            ks=[3, 10], trials=300, seed=4)
        assert sum(map(len, built)) == sum(
            len(row.support) for row in rows[0].values())
