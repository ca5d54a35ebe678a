import collections
import json
import math

import numpy as np
import pytest

from oracles import tkf91_beta, tkf91_evolve_per_edge, tkf91_tree_per_edge
from rootrec import tkf91
from rootrec.cli import EXIT_OK, main
from rootrec.ctmc import CtmcError, total_variation, Distribution
from rootrec.estimators import RowTable, frequency_estimate, stretch_plan
from rootrec.tkf91 import (ALPHABET, Tkf91Params, mc_rows,
                           stationary_length_pmf, stationary_pmf,
                           stationary_sample, tkf91_evolve, top_states,
                           write_experiment_csv, Uniforms, _draw_letter)
from rootrec.tree import Tree, generate_family
from rootrec.treechain import simulate, simulated_trials

STD = Tkf91Params(nu=1.0, lam=1.0, mu=2.0)


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

    def test_event_cap_stops_a_run(self, monkeypatch):
        monkeypatch.setattr(tkf91, "EVENT_CAP", 50)
        p = Tkf91Params(nu=1e6, lam=0.5, mu=1.0)
        with pytest.raises(CtmcError, match="more than 50 events"):
            tkf91_evolve(p, "A", 1.0, np.random.default_rng(0))
        # a run of a few events ends as it would without the cap
        a, b = np.random.default_rng(1), np.random.default_rng(1)
        out = tkf91_evolve(STD, "ATCG", 0.5, a)
        monkeypatch.undo()
        assert out == tkf91_evolve(STD, "ATCG", 0.5, b)

    def test_sample_is_evolve(self):
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        assert STD.sample("ATCG", 0.7, a) == tkf91_evolve(STD, "ATCG", 0.7, b)
        assert a.random() == b.random()

    def test_stationarity_of_length_law(self):
        rng = np.random.default_rng(3)
        n = 20000
        counts = collections.Counter()
        for _ in range(n):
            seq = stationary_sample(STD, rng)
            counts[len(tkf91_evolve(STD, seq, 1.0, rng))] += 1
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
    """``simulate``, ``simulated_trials`` and ``mc_rows`` run every edge
    through ``evolve_edges``; each must draw what the per-edge loop of
    tests/oracles.py draws, sequence for sequence, and leave its
    generator where that loop leaves it."""

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
            assert simulate(tree, self.P, root, a) == tkf91_tree_per_edge(
                tree, self.P, root, Uniforms(b))
            assert a.random() == b.random()

    @pytest.mark.parametrize("kind", sorted(TREES))
    def test_simulated_trials(self, kind):
        tree = self.TREES[kind]()
        draw = lambda rng: stationary_sample(self.P, rng)
        seen = 0
        for block in simulated_trials(tree, self.P, draw, (9, 2), 200):
            for t, root, leaves, rng in block.trials(tree):
                ref = np.random.default_rng([9, 2, t])
                assert root == draw(ref)
                assert leaves == tkf91_tree_per_edge(tree, self.P, root,
                                                     Uniforms(ref))
                assert rng.random() == ref.random()
                seen += 1
        assert seen == 200

    def test_mc_rows(self):
        states = ("", "A", "GT", "ACGTA")
        for seed in range(200):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            rows = mc_rows(self.P, states, 0.6, 12, a)
            src = Uniforms(b)
            for state in states:
                ends = collections.Counter(
                    tkf91_evolve_per_edge(self.P, state, 0.6, src)
                    for _ in range(12))
                assert list(rows[state].items()) == list(Distribution(
                    {end: c / 12 for end, c in ends.items()}).items())
            assert a.random() == b.random()


class TestEventCap:
    """``EVENT_CAP`` bounds the events of one edge, not of a tree."""

    P = Tkf91Params(nu=5.0, lam=0.5, mu=1.0)

    def test_caps_each_edge_not_the_tree(self, monkeypatch):
        monkeypatch.setattr(tkf91, "EVENT_CAP", 50)
        tree = generate_family("star", {"k": 6, "h": 1.0})[5]
        events: list = []
        want = tkf91_tree_per_edge(tree, self.P, "ACGT",
                                   Uniforms(np.random.default_rng(3)),
                                   events)
        assert max(events) < 50 < sum(events)
        assert simulate(tree, self.P, "ACGT",
                        np.random.default_rng(3)) == want

    def test_one_edge_over_the_cap_stops_the_tree(self, monkeypatch):
        monkeypatch.setattr(tkf91, "EVENT_CAP", 50)
        tree = Tree("rho", [("rho", "a", 0.1), ("rho", "b", 0.1),
                            ("rho", "c", 10.0)])
        with pytest.raises(CtmcError, match="more than 50 events"):
            simulate(tree, self.P, "ACGT", np.random.default_rng(3))


class TestUniforms:
    def test_chunk_floats_in_generator_order(self):
        a, b = np.random.default_rng(6), np.random.default_rng(6)
        src = Uniforms(a)
        got = [src.random() for _ in range(2 * tkf91.CHUNK + 3)]
        assert got == b.random(3 * tkf91.CHUNK)[:len(got)].tolist()
        # the rest of the third chunk is dropped
        assert a.random() == b.random()


class TestTransientLaw:
    """Lengths after time t against the closed form (tests/oracles.py),
    away from stationarity, with the chunked source and a raw Generator."""

    N = 20000

    @pytest.mark.parametrize("chunked", [True, False],
                             ids=["chunked", "generator"])
    @pytest.mark.parametrize("lam,mu,t", [(0.5, 1.0, 0.7), (1.0, 2.0, 0.3),
                                          (0.5, 1.0, 3.0)])
    def test_lengths_from_empty_and_single_site(self, chunked, lam, mu, t):
        p = Tkf91Params(nu=1.0, lam=lam, mu=mu)
        rng = np.random.default_rng([13, int(100 * t)])
        src = Uniforms(rng) if chunked else rng
        lb = lam * tkf91_beta(lam, mu, t)
        lengths = collections.Counter(len(tkf91_evolve(p, "", t, src))
                                      for _ in range(self.N))
        empty = sum(tkf91_evolve(p, "A", t, src) == ""
                    for _ in range(self.N))
        expected = [((1 - lb) * lb ** n, lengths[n]) for n in range(5)]
        expected.append(((1 - lb) * mu * tkf91_beta(lam, mu, t), empty))
        for prob, count in expected:
            assert abs(count / self.N - prob) < 4 * math.sqrt(
                prob * (1 - prob) / self.N)


class TestDrawLetter:
    @pytest.mark.parametrize("freqs", [
        (0.25, 0.25, 0.25, 0.25), (0.1, 0.2, 0.3, 0.4),
        (0.5, 0.0, 0.5, 0.0), (0.0, 0.0, 0.0, 1.0)])
    def test_same_letter_as_generator_choice(self, freqs):
        p = Tkf91Params(nu=1.0, lam=1.0, mu=2.0,
                        **dict(zip(("pi_A", "pi_T", "pi_C", "pi_G"), freqs)))
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(100_000):
            assert _draw_letter(p, a) == ALPHABET[b.choice(4, p=p.freqs)]
        # both consumed the stream identically
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
        rows = RowTable(mc_rows(p, lam, 1.0, 300, rng))
        for truth in lam:
            obs = simulate(t, p, truth, rng)
            rep = frequency_estimate(plan, p, obs, lam, rows, rng)
            assert rep.state == truth

    def test_row_tables_built_once(self, monkeypatch, tmp_path):
        # pairwise TVs of the plug-in rows are computed once per run, not
        # once per trial
        from rootrec import estimators
        calls = []
        real = estimators.total_variation

        def counted(a, b):
            calls.append(1)
            return real(a, b)

        monkeypatch.setattr(estimators, "total_variation", counted)
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

    def test_csv_shape(self, tmp_path):
        rows = [{"k": 10, "trials": 5, "errors": 1, "rate": 0.2,
                 "ci_low": 0.0, "ci_high": 0.9}]
        out = tmp_path / "r.csv"
        with open(out, "w") as fh:
            write_experiment_csv(rows, fh)
        lines = out.read_text().splitlines()
        assert lines[0] == "k,trials,errors,rate,ci_low,ci_high"
        assert lines[1].startswith("10,5,1,0.2,")
