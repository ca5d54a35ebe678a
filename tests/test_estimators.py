import itertools
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from rootrec.ctmc import (STATE_KEYS, Distribution, RateMatrix,
                          row_distribution,
                          total_variation, transition_matrix,
                          two_state_symmetric, jukes_cantor)
from rootrec import estimators
from rootrec.bounds import recon_lower
from rootrec.cli import _build_process, _root_draw
from oracles import (block_counts, block_draw, exact_leaf_law,
                     frequency_estimate, frequency_test, map_estimate,
                     pinched_star_majority_error, restrict, simulate, spread,
                     total_variation_reference, tv_achieving_set,
                     uniform_chain_estimate, uniform_chain_test)
from rootrec.estimators import (MAP_TIE_RTOL, EstimatorError, RowTable,
                                StretchPlan, exclusivity_stats,
                                frequency_tests, lambda_epsilon,
                                majority_estimate, map_estimates,
                                stretch_plan, uniform_chain_tests)
from rootrec.tkf91 import (Tkf91Params, distinct, encode, keys, mc_rows,
                           stationary_sample, strings, top_states)
from rootrec.tree import Tree, generate_family
from rootrec.treechain import TrialBlock, simulated_trials


def pinched(m, s=0.05, h=1.0):
    return generate_family("pinched_star", {"m": m, "s": s, "h": h})[m - 1]


def rows_at(Q, h_star, states=None):
    P = transition_matrix(Q, h_star)
    states = states or Q.states
    return RowTable({i: row_distribution(P, i) for i in states}, Q.keys)


def best_success(prior, laws):
    """Brute-force optimum over all estimator functions: for each outcome
    pick the root with the largest posterior mass."""
    outcomes = set()
    for law in laws.values():
        outcomes |= set(law.probs)
    return sum(max(prior.mass(i) * laws[i].mass(y) for i in laws)
               for y in outcomes)


def map_success(tree, Q, prior, laws):
    outcomes = set()
    for law in laws.values():
        outcomes |= set(law.probs)
    order = next(iter(laws.values())).leaf_order
    total = 0.0
    for y in outcomes:
        i = map_estimate(tree, Q, prior, dict(zip(order, y)))
        total += prior.mass(i) * laws[i].mass(y)
    return total


class TestMapEstimate:
    def test_point_prior_wins_when_feasible(self):
        t = pinched(3)
        Q = two_state_symmetric(1.0)
        prior = Distribution({1: 1.0})
        obs = {x: 2 for x in t.leaves}
        assert map_estimate(t, Q, prior, obs) == 1

    def test_two_state_pinched_star_is_majority(self):
        t = pinched(5)
        Q = two_state_symmetric(1.0)
        prior = Distribution({1: 0.5, 2: 0.5})
        for combo in itertools.product((1, 2), repeat=5):
            obs = dict(zip(t.leaves, combo))
            assert map_estimate(t, Q, prior, obs) == majority_estimate(obs)

    def test_equals_brute_force_optimum(self):
        rng = np.random.default_rng(21)
        t = Tree("rho", [("rho", "a", 0.7), ("rho", "b", 0.4)])
        for _ in range(50):
            q = rng.uniform(0.1, 1.5, size=(3, 3))
            np.fill_diagonal(q, 0.0)
            np.fill_diagonal(q, -q.sum(axis=1))
            Q = RateMatrix(q)
            prior = Distribution(dict(enumerate(rng.dirichlet(np.ones(3)), 1)))
            laws = {i: exact_leaf_law(t, Q, i) for i in (1, 2, 3)}
            assert map_success(t, Q, prior, laws) == pytest.approx(
                best_success(prior, laws), abs=1e-12)

    def test_impossible_observation_rejected(self):
        t = Tree("rho", [("rho", "a", 1.0)])
        Q = RateMatrix(np.zeros((2, 2)))
        prior = Distribution({1: 1.0})
        with pytest.raises(EstimatorError):
            map_estimate(t, Q, prior, {"a": 2})

    @pytest.mark.parametrize("lam", [None, [2, 3]])
    def test_near_ties_go_to_the_smaller_label(self, lam):
        # leaves in states 2 and 3 of a 3-state Jukes-Cantor chain are
        # equally likely from roots 2 and 3, and less likely from root 1,
        # so the posteriors of 2 and 3 differ by their priors alone: by
        # about 1e-13 relative they tie, either way round
        t = Tree("rho", [("rho", "a", 0.8), ("rho", "b", 0.8)])
        Q = jukes_cantor(1.0, 3)
        obs = [[2, 3], [3, 2]]
        def prior(rel):
            # root 3's prior is root 2's times 1 + rel
            return Distribution({1: 0.1 - 0.45 * rel, 2: 0.45,
                                 3: 0.45 * (1 + rel)})

        for rel in (1e-13, -1e-13):
            assert prior(rel).mass(3) != prior(rel).mass(2)
            assert map_estimates(t, Q, prior(rel), obs, lam) == [2, 2]
        # well beyond the tolerance the larger posterior wins
        assert map_estimates(t, Q, prior(1000 * MAP_TIE_RTOL), obs,
                             lam) == [3, 3]


class TestRestrictedMap:
    def test_full_set_equals_map(self):
        t = pinched(3)
        Q = jukes_cantor(1.0)
        prior = Distribution({i: 0.25 for i in Q.states})
        rng = np.random.default_rng(2)
        for _ in range(20):
            obs = simulate(t, Q, int(rng.integers(4)) + 1, rng)
            assert map_estimate(t, Q, prior, obs, Q.states) == \
                map_estimate(t, Q, prior, obs)

    def test_singleton_is_constant(self):
        t = Tree("rho", [("rho", "a", 1.0)])
        Q = RateMatrix(np.zeros((2, 2)))
        prior = Distribution({1: 0.5, 2: 0.5})
        assert map_estimate(t, Q, prior, {"a": 1}, [2]) == 2
        assert map_estimate(t, Q, prior, {"a": 2}, [2]) == 2

    def test_restricted_success_meets_lower_bound(self):
        rng = np.random.default_rng(22)
        t = Tree("rho", [("rho", "a", 0.6), ("rho", "b", 0.9)])
        for _ in range(20):
            q = rng.uniform(0.1, 1.2, size=(3, 3))
            np.fill_diagonal(q, 0.0)
            np.fill_diagonal(q, -q.sum(axis=1))
            Q = RateMatrix(q)
            prior = Distribution(dict(enumerate(rng.dirichlet(np.ones(3)), 1)))
            laws = {i: exact_leaf_law(t, Q, i) for i in (1, 2, 3)}
            lam = [1, 2]
            conds = {i: laws[i].as_distribution() for i in (1, 2, 3)}
            success = 0.0
            order = laws[1].leaf_order
            outcomes = set().union(*(set(l.probs) for l in laws.values()))
            for y in outcomes:
                i = map_estimate(t, Q, prior, dict(zip(order, y)), lam)
                success += prior.mass(i) * laws[i].mass(y)
            assert success >= recon_lower(prior, conds, lam) - 1e-12

    def test_empty_set_rejected(self):
        t = Tree("rho", [("rho", "a", 1.0)])
        with pytest.raises(EstimatorError):
            map_estimate(t, two_state_symmetric(1.0), Distribution({1: 1.0}),
                         {"a": 1}, [])

    def test_impossible_under_every_state_rejected(self):
        # the restriction is a free choice only when some state explains
        # the observation
        t = Tree("rho", [("rho", "a", 1.0)])
        Q = RateMatrix(np.zeros((3, 3)))
        prior = Distribution({1: 0.5, 3: 0.5})
        for lam in ([1, 2], [2]):
            with pytest.raises(EstimatorError, match="impossible"):
                map_estimate(t, Q, prior, {"a": 2}, lam)

    def test_states_outside_the_chain_rejected(self):
        t = Tree("rho", [("rho", "a", 1.0)])
        with pytest.raises(EstimatorError, match="subset of 1..2"):
            map_estimate(t, two_state_symmetric(1.0), Distribution({1: 1.0}),
                         {"a": 1}, [0, 1])


class TestLambdaEpsilon:
    def test_prefix_by_mass(self):
        prior = Distribution({1: 0.6, 2: 0.3, 3: 0.1})
        assert lambda_epsilon(prior, 0.5) == (1,)
        assert lambda_epsilon(prior, 0.2) == (1, 2)
        assert lambda_epsilon(prior, 0.05) == (1, 2, 3)

    def test_bad_epsilon(self):
        with pytest.raises(EstimatorError):
            lambda_epsilon(Distribution({1: 1.0}), 0.0)


class TestFrequencyEstimate:
    def test_singleton_lambda_constant(self):
        t = pinched(7)
        Q = two_state_symmetric(1.0)
        rng = np.random.default_rng(1)
        obs = simulate(t, Q, 1, rng)
        rep = frequency_estimate(stretch_plan(t, 0.03, 1.0), Q, obs, [2],
                                 rows_at(Q, 1.0), rng)
        assert rep.state == 2 and not rep.fallback

    def test_below_pinch_single_boundary_point(self):
        t = pinched(7, s=0.5)
        Q = two_state_symmetric(1.0)
        rng = np.random.default_rng(1)
        obs = simulate(t, Q, 1, rng)
        rep = frequency_estimate(stretch_plan(t, 0.2, 1.0), Q, obs, [1, 2],
                                 rows_at(Q, 1.0), rng)
        assert rep.plan.m == 1

    def test_zero_rates_perfect(self):
        Q = RateMatrix(np.zeros((2, 2)))
        t = pinched(9)
        plan, rows = stretch_plan(t, 0.03, 1.0), rows_at(Q, 1.0)
        rng = np.random.default_rng(3)
        for truth in (1, 2):
            obs = simulate(t, Q, truth, rng)
            rep = frequency_estimate(plan, Q, obs, [1, 2], rows, rng)
            assert rep.state == truth and not rep.fallback

    def test_report_metadata(self):
        t = pinched(11, s=0.02)
        Q = two_state_symmetric(1.0)
        rng = np.random.default_rng(4)
        obs = simulate(t, Q, 1, rng)
        plan = stretch_plan(t, 0.03, 1.0)
        rep = frequency_estimate(plan, Q, obs, [1, 2], rows_at(Q, 1.0), rng)
        assert rep.plan is plan
        assert (plan.m, plan.s, plan.h_star) == (11, 0.03, 1.0)
        assert spread(restrict(t, plan.leaves)) == pytest.approx(0.02)
        if rep.passed:
            assert all(v > 0 for v in rep.margins.values())

    @pytest.mark.parametrize("Q,m", [(jukes_cantor(1.0), 31),
                                     (two_state_symmetric(1.0), 8)])
    def test_margins_are_the_passing_states_full_row(self, Q, m):
        # the report keeps every margin of the state that passed and none
        # of a fallback; at s above the pinch every leaf is chosen and sits
        # at depth h*, so the test counts are the leaves' own
        t = pinched(m, s=0.02)
        plan, table = stretch_plan(t, 0.03, 1.0), rows_at(Q, 1.0)
        delta = table.delta(Q.states)
        rng = np.random.default_rng(23)
        passes = 0
        for _ in range(200):
            obs = simulate(t, Q, int(rng.integers(Q.n)) + 1, rng)
            rep = frequency_estimate(plan, Q, obs, Q.states, table, rng)
            if rep.fallback:
                assert rep.margins == {}
                continue
            passes += 1
            assert rep.plan.m == m
            i = rep.state
            counts = {st: list(obs.values()).count(st) for st in Q.states}
            expect = {}
            for j in Q.states:
                if j != i:
                    aset = tv_achieving_set(table.rows[i], table.rows[j],
                                            (i, j))
                    freq = sum(c for st, c in counts.items()
                               if st in aset) / m
                    expect[(i, j)] = freq - (table.threshold_mass(i, j)
                                             - delta / 2.0)
            assert rep.margins == pytest.approx(expect, abs=1e-12)
            assert all(v > 0 for v in rep.margins.values())
        assert passes > 0
        if Q.n == 2:
            # 4-4 ties make the two-state star fall back at times
            assert passes < 200

    def test_deterministic_given_stream(self):
        t = pinched(21)
        Q = two_state_symmetric(1.0)
        obs = simulate(t, Q, 1, np.random.default_rng(9))
        plan, rows = stretch_plan(t, 0.03, 1.5), rows_at(Q, 1.0)
        a = frequency_estimate(plan, Q, obs, [1, 2], rows,
                               np.random.default_rng(42))
        b = frequency_estimate(plan, Q, obs, [1, 2], rows,
                               np.random.default_rng(42))
        assert (a.state, a.fallback, a.margins) == \
            (b.state, b.fallback, b.margins)

    def test_empty_lambda_rejected(self):
        t = pinched(3)
        Q = two_state_symmetric(1.0)
        rng = np.random.default_rng(0)
        with pytest.raises(EstimatorError):
            frequency_estimate(stretch_plan(t, 0.03, 1.0), Q,
                               {x: 1 for x in t.leaves}, [], rows_at(Q, 1.0),
                               rng)

    def test_exclusivity_never_violated_in_suite(self):
        t = pinched(31)
        Q = jukes_cantor(1.0)
        plan, rows = stretch_plan(t, 0.03, 1.0), rows_at(Q, 1.0)
        rng = np.random.default_rng(17)
        before = exclusivity_stats()
        for _ in range(500):
            truth = int(rng.integers(4)) + 1
            obs = simulate(t, Q, truth, rng)
            frequency_estimate(plan, Q, obs, Q.states, rows, rng)
        after = exclusivity_stats()
        assert after["invocations"] - before["invocations"] == 500
        assert after["violations"] == 0


class TestUniformChainEstimate:
    def test_zero_rates_recovers_root(self):
        Q = RateMatrix(np.zeros((3, 3)))
        t = pinched(9)
        plan, rows = stretch_plan(t, 0.03, 1.0), rows_at(Q, 1.0, Q.states)
        rng = np.random.default_rng(6)
        for truth in (1, 2, 3):
            obs = simulate(t, Q, truth, rng)
            rep = uniform_chain_estimate(plan, Q, obs, 1.0, rows, rng)
            assert rep.state == truth and not rep.fallback
            assert rep.lam == (truth,)

    def test_candidate_threshold(self):
        # q* = 1, h* = 1: states kept iff frequency >= e^{-1}/2 ~ 0.1839;
        # a zero-rate chain makes the stretch a no-op, so the candidate
        # set is read straight off the observed frequencies
        Q = RateMatrix(np.zeros((2, 2)))
        t = pinched(100, s=0.01)
        rng = np.random.default_rng(7)
        obs = {x: 1 for x in t.leaves}
        obs[t.leaves[0]] = 2  # frequency 0.01
        rep = uniform_chain_estimate(stretch_plan(t, 0.02, 1.0), Q, obs, 1.0,
                                     rows_at(Q, 1.0, Q.states), rng)
        assert rep.lam == (1,)
        assert rep.state == 1

    def test_q_star_floor(self):
        t = pinched(3)
        Q = two_state_symmetric(1.0)
        rng = np.random.default_rng(8)
        with pytest.raises(EstimatorError):
            uniform_chain_estimate(stretch_plan(t, 0.03, 1.0), Q,
                                   {x: 1 for x in t.leaves}, 0.5,
                                   rows_at(Q, 1.0, Q.states), rng)


class Bars(RowTable):
    """Rows whose achieving-set thresholds are set by hand, low enough
    that two states can pass at once."""

    def __init__(self, rows, bars):
        super().__init__(rows, STATE_KEYS)
        self.bars = bars

    def threshold_mass(self, i, j):
        return self.bars[i, j]


class TestBlockTests:
    """``frequency_tests`` and ``uniform_chain_tests`` test a block at once
    on its stretched keys; each must give the per-trial tests' (state,
    fallback) rows (tests/oracles.py), count the same in
    ``exclusivity_stats``, and leave the block's generator where the
    per-trial tests leave theirs.  A finite block, whose vocabulary is
    its states with no sort, must do all that as it does with the
    distinct keys of one sort (``tkf91.distinct``), on blocks that
    miss states too."""

    Q = jukes_cantor(1.0, 4)
    # rows for the edge cases: m = 4 and two leaves on each state put a
    # margin at exactly 0.0
    EVEN = {1: Distribution({1: 0.75, 2: 0.25}),
            2: Distribution({1: 0.25, 2: 0.75})}
    # rows and thresholds under which trial (0, 1, 0, 5) passes states 1
    # and 2 and trial (0, 0, 3, 3) none (counts of states 1..4 of m = 6)
    THREE = {i: Distribution({j: 0.6 if i == j else 0.2 for j in (1, 2, 3)})
             for i in (1, 2, 3)}
    BARS = {(1, 2): 0.3, (1, 3): 0.7, (2, 1): 0.3, (2, 3): 0.3,
            (3, 1): 0.3, (3, 2): 0.7}
    P = Tkf91Params(nu=1.0, lam=0.95, mu=1.0)

    @staticmethod
    def plan(m, h_star=0.5):
        return StretchPlan(0.1, h_star, m, tuple(range(m)), (0.0,) * m)

    @staticmethod
    def outcome(run):
        """``run()``'s rows or its assertion, and what it added to
        ``exclusivity_stats``."""
        before = exclusivity_stats()
        try:
            got = run()
        except AssertionError as e:
            got = ("raised", str(e))
        after = exclusivity_stats()
        return got, {k: after[k] - before[k] for k in after}

    def compare(self, block_test, trial_test, plan, arg, rows, keyed,
                states=None, long=None, seed=5):
        """The block test of the keys ``keyed`` (trials × m) against the
        per-trial test of their ``states`` (default: the keys)."""
        keyed = np.asarray(keyed)
        states = keyed if states is None else np.array(states, dtype=object)
        block = TrialBlock(0, [None] * len(keyed), None, keyed,
                           STATE_KEYS if long is None else long,
                           np.random.default_rng(seed))
        rng = np.random.default_rng(seed)

        def per_trial():
            return [(rep.state, int(rep.fallback)) for rep in (
                trial_test(plan, counts, arg, rows, rng)
                for counts in block_counts(states))]

        got = self.outcome(lambda: block_test(plan, arg, rows, block))
        want = self.outcome(per_trial)
        assert got == want
        if long is None:
            # a finite block's vocabulary is its states 1 to the largest
            # it holds, with no sort: the rows, the counts and the stream
            # end as with the distinct keys of one sort
            vocab, inverse = block.keys.vocabulary(keyed)
            assert vocab.tolist() == list(range(1, int(keyed.max()) + 1))
            assert (vocab[inverse] == keyed).all()
            other = block._replace(rng=np.random.default_rng(seed))
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(STATE_KEYS, "vocabulary", distinct)
                assert self.outcome(lambda: block_test(plan, arg, rows,
                                                       other)) == got
            assert (other.rng.bit_generator.state
                    == block.rng.bit_generator.state)
        assert block.rng.random() == rng.random()
        return got[0]

    @staticmethod
    def draw(rng, rows, trials, m):
        """``trials`` rows of m leaves, each row drawn from the row of a
        uniform random state."""
        labels = list(rows)
        out = []
        for _ in range(trials):
            row = rows[labels[rng.integers(len(labels))]]
            states = list(row.support)
            p = np.array([row.mass(s) for s in states])
            out.append([states[k] for k in rng.choice(len(states), m,
                                                      p=p / p.sum())])
        return out

    @pytest.mark.parametrize("lam", [(1, 2, 3, 4), (2, 4), (4, 1, 3),
                                     (1, 2)])
    @pytest.mark.parametrize("h_star", [0.2, 1.0])
    def test_random_finite_blocks(self, lam, h_star):
        # a two-state chain's even splits fall back
        Q = jukes_cantor(1.0, max(lam))
        rows = rows_at(Q, h_star)
        rng = np.random.default_rng(int(h_star * 10) + len(lam))
        flags = set()
        for m in (1, 4, 5, 8, 9):
            keyed = np.array(self.draw(rng, rows.rows, 200, m),
                             dtype=np.uint8)
            flags |= {f for _, f in self.compare(
                frequency_tests, frequency_test, self.plan(m, h_star),
                list(lam), rows, keyed)}
        assert 0 in flags and (1 in flags or Q.n > 2)

    @pytest.mark.parametrize("h_star", [1e-3, 0.2, 1.0])
    def test_random_uniform_blocks(self, h_star):
        rows = rows_at(self.Q, h_star)
        rng = np.random.default_rng(int(h_star * 100))
        for m in (1, 4, 9):
            keyed = np.array(self.draw(rng, rows.rows, 200, m),
                             dtype=np.uint8)
            self.compare(uniform_chain_tests, uniform_chain_test,
                         self.plan(m, h_star), self.Q.q_star, rows, keyed)

    def tkf91_block(self):
        """Plug-in rows of the candidates ``lam``, with two sequences past
        27 letters in the rows of "" and "C", and 300 trials of 7 leaves,
        a quarter of them past 27 letters, as sequences and as keys."""
        lam = top_states(self.P, 0.9)
        plug = mc_rows(self.P, lam, 1.0, 200, np.random.default_rng(3))
        for state, extra in (("", "ACGT" * 8), ("C", "G" * 28)):
            plug[state] = Distribution({**{s: 0.9 * p for s, p in
                                           plug[state].items()},
                                        extra: 0.1})
        rng = np.random.default_rng(4)
        seqs = [[stationary_sample(self.P, rng) for _ in range(7)]
                for _ in range(250)]
        seqs += self.draw(rng, plug, 50, 7)
        seqs[3][2] = seqs[9][0] = "G" * 28
        keyed, long = keys(*encode([s for row in seqs for s in row]))
        assert {"G" * 28, "ACGT" * 8} <= set(long) and len(long) > 20
        return (lam, RowTable(plug, self.P.keys), seqs, keyed.reshape(300, 7),
                long)

    def test_random_tkf91_blocks(self):
        lam, rows, seqs, keyed, long = self.tkf91_block()
        got = self.compare(frequency_tests, frequency_test, self.plan(7, 1.0),
                           list(lam), rows, keyed, seqs, long)
        assert {f for _, f in got} == {0, 1}

    def test_masses_by_key(self):
        # each key, long ones too, gets its sequence's masses, so its
        # membership is that of tests/oracles.py's achieving sets; a
        # finite chain's keys come in any order, and in a reducible chain
        # with absorbing states 1 and 4 the rows drop their zero entries:
        # rows 1 and 2 hold neither 3 nor 4
        lam, rows, _, keyed, long = self.tkf91_block()
        vocab = np.unique(keyed)
        Q = RateMatrix([[0, 0, 0, 0], [1, -1, 0, 0], [0, 1, -2, 1],
                        [0, 0, 0, 0]])
        finite = RowTable({i: Q.row(i, 0.7) for i in Q.states}, Q.keys)
        assert set(finite.rows[1].support) | set(finite.rows[2].support) \
            == {1, 2}
        for lam, rows, vocab, states, long in (
                (lam, rows, vocab, strings(vocab, long), long),
                ((1, 2, 3), finite, np.array([3, 4, 1, 2]), [3, 4, 1, 2],
                 Q.keys)):
            mass = rows.masses(lam, vocab, long)
            assert mass.tolist() == [[rows.rows[i].mass(s) for i in lam]
                                     for s in states]
            for a, b in itertools.permutations(range(len(lam)), 2):
                aset = tv_achieving_set(rows.rows[lam[a]],
                                        rows.rows[lam[b]], (lam[a], lam[b]))
                inside = (mass[:, a] > mass[:, b]) | (
                    (mass[:, a] == mass[:, b]) & (a < b))
                assert inside.tolist() == [s in aset for s in states]

    def test_delta_is_the_least_pairwise_loop(self):
        # Δ of many plug-in rows, each pair summed from arrays, is the
        # least of the pairs' explicit loops, to the last bit
        P = Tkf91Params(nu=1.0, lam=0.5, mu=1.0)
        lam = top_states(P, 0.1)
        rows = RowTable(mc_rows(P, lam, 1.0, 100, np.random.default_rng(4)),
                        P.keys)
        assert len(lam) > 30
        assert rows.delta(lam) == min(
            total_variation_reference(rows.rows[i], rows.rows[j])
            for i, j in itertools.combinations(lam, 2))
        assert rows.delta(lam[3:9]) == min(
            total_variation_reference(rows.rows[i], rows.rows[j])
            for i, j in itertools.combinations(lam[3:9], 2))
        assert rows.delta(lam[:1]) == math.inf

    def test_small_epsilon_masses_span_the_block(self):
        # at epsilon 0.05 the candidates' plug-in rows hold far more
        # sequences between them than a block's stretched leaves show:
        # testing the block allocates less than one float per candidate
        # and sequence of the rows, as a table over the block's own
        # distinct sequences does
        P = Tkf91Params(nu=1.0, lam=0.5, mu=1.0)
        tree = generate_family("figure1", {"k": 20, "h": 1.0})[19]
        plan = stretch_plan(tree, 0.05, 1.0)
        lam = top_states(P, 0.05)
        rows = RowTable(mc_rows(P, lam, 1.0, 100, np.random.default_rng(1)),
                        P.keys)
        (block,) = simulated_trials(tree, P,
                                    block_draw(partial(stationary_sample, P)),
                                    (2,), 64, stretch=plan)
        tracemalloc.start()
        try:
            frequency_tests(plan, lam, rows, block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        support = {s for row in rows.rows.values() for s in row.support}
        assert len(lam) > 100
        assert len(distinct(block.stretched)[0]) * 4 < len(support)
        assert peak < 8 * len(lam) * len(support)

    def test_zero_margin_fails(self):
        # freq 2/4 against the bar 0.75 - 0.5 / 2: a margin of 0.0
        rows = RowTable(self.EVEN, STATE_KEYS)
        keyed = [[1, 1, 2, 2], [1, 1, 1, 2], [2, 2, 1, 2]]
        got = self.compare(frequency_tests, frequency_test, self.plan(4),
                           [1, 2], rows, keyed)
        assert [f for _, f in got] == [1, 0, 0]
        assert [s for s, _ in got[1:]] == [1, 2]

    def test_all_fallback_block(self):
        rows = RowTable(self.EVEN, STATE_KEYS)
        keyed = [[1, 2, 2, 1], [2, 1, 1, 2]] * 40
        got = self.compare(frequency_tests, frequency_test, self.plan(4),
                           [2, 1], rows, keyed)
        assert all(f == 1 for _, f in got)
        assert {s for s, _ in got} == {1, 2}

    def test_singleton_lambda_tests_nothing(self):
        rows = RowTable(self.EVEN, STATE_KEYS)
        keyed = [[1, 1, 2, 2], [2, 2, 2, 2]]
        block = TrialBlock(0, [1, 2], None, np.array(keyed), STATE_KEYS,
                           np.random.default_rng(8))
        got = self.outcome(lambda: frequency_tests(self.plan(4), [2], rows,
                                                   block))
        assert got == ([(2, 0), (2, 0)], {"invocations": 0,
                                          "violations": 0})
        assert block.rng.random() == np.random.default_rng(8).random()
        self.compare(frequency_tests, frequency_test, self.plan(4), [2],
                     rows, keyed)

    def test_empty_candidates(self):
        rows = rows_at(self.Q, 1e-3)
        with pytest.raises(EstimatorError, match="nonempty"):
            frequency_tests(self.plan(4), [], rows, TrialBlock(
                0, [1], None, np.ones((1, 4), np.uint8), STATE_KEYS, None))
        # at h* = 1e-3 a candidate needs two of the four leaves: none,
        # one (a singleton), and two candidates
        keyed = [[1, 2, 3, 4], [1, 1, 1, 2], [3, 3, 4, 4], [4, 3, 2, 1]]
        got = self.compare(uniform_chain_tests, uniform_chain_test,
                           self.plan(4, 1e-3), self.Q.q_star, rows, keyed)
        assert got[0][1] == got[3][1] == 1 and got[1] == (1, 0)
        # of five leaves a candidate needs three: fallbacks to three and to
        # four observed states, drawn in trial order
        keyed = [[1, 1, 2, 2, 3], [1, 2, 3, 4, 4], [2, 2, 2, 1, 1],
                 [4, 4, 3, 3, 1], [1, 2, 3, 4, 1]] * 8
        got = self.compare(uniform_chain_tests, uniform_chain_test,
                           self.plan(5, 1e-3), self.Q.q_star, rows, keyed)
        assert [f for _, f in got] == [1, 1, 0, 1, 1] * 8

    def test_two_passing_states_raise(self, monkeypatch):
        # the block stops where trial after trial would: after the
        # fallbacks before the clash, which alone counts as a violation
        monkeypatch.setitem(estimators._EXCLUSIVITY, "violations",
                            exclusivity_stats()["violations"])
        rows = Bars(self.THREE, self.BARS)
        counts = [(0, 0, 3, 3), (6, 0, 0, 0), (0, 0, 3, 3), (0, 1, 0, 5),
                  (0, 0, 3, 3)]
        keyed = [[s for s, n in zip((1, 2, 3, 4), c) for _ in range(n)]
                 for c in counts]
        block = TrialBlock(0, [1] * 5, None, np.array(keyed), STATE_KEYS,
                           np.random.default_rng(2))
        got = self.outcome(lambda: frequency_tests(self.plan(6), [1, 2, 3],
                                                   rows, block))
        assert got == (("raised", "multiple states passed the frequency "
                                  "tests: [1, 2]"),
                       {"invocations": 4, "violations": 1})
        self.compare(frequency_tests, frequency_test, self.plan(6),
                     [1, 2, 3], rows, keyed)

    def test_block_of_states_1_and_3(self):
        # a four-state chain's block that holds states 1 and 3 alone;
        # under the asymmetric chain at h* = 0.5 some trials pass none
        # and fall back, to states no trial holds too
        q = np.random.default_rng(0).uniform(0.0, 3.0, (4, 4))
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(1))
        rng, got = np.random.default_rng(7), set()
        for Q, h_star in ((self.Q, 1e-3), (self.Q, 1.0),
                          (RateMatrix(q), 0.5)):
            rows = rows_at(Q, h_star)
            for m in (1, 4, 8):
                keyed = 1 + 2 * rng.integers(2, size=(200, m), dtype=np.uint8)
                got |= set(self.compare(frequency_tests, frequency_test,
                                        self.plan(m, h_star), Q.states, rows,
                                        keyed))
                got |= set(self.compare(uniform_chain_tests,
                                        uniform_chain_test,
                                        self.plan(m, h_star), Q.q_star, rows,
                                        keyed))
        assert {s for s, f in got if f} == {1, 2, 3, 4}
        assert {s for s, f in got if not f} == {1, 3}

    def test_block_of_state_4_alone(self):
        rows = rows_at(self.Q, 0.2)
        keyed = np.full((30, 5), 4, dtype=np.uint8)
        assert self.compare(frequency_tests, frequency_test, self.plan(5, 0.2),
                            self.Q.states, rows, keyed) == [(4, 0)] * 30
        assert self.compare(uniform_chain_tests, uniform_chain_test,
                            self.plan(5, 0.2), self.Q.q_star, rows,
                            keyed) == [(4, 0)] * 30

    def test_one_state_matrix_file_chain(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("0\n")
        Q = _build_process({"process": {"kind": "matrix_file",
                                        "path": str(path)}})
        tree = pinched(9)
        plan = StretchPlan(0.1, 1.5, 4, tree.leaves[:4],
                           (0.5, 0.0, 0.2, 1.0))
        (block,) = simulated_trials(tree, Q, _root_draw({}, Q), (4,), 40,
                                    stretch=plan)
        assert Q.n == 1 and block.roots == [1] * 40
        rows = rows_at(Q, 1.5)
        assert self.compare(frequency_tests, frequency_test, plan, Q.states,
                            rows, block.stretched) == [(1, 0)] * 40
        assert self.compare(uniform_chain_tests, uniform_chain_test, plan,
                            Q.q_star, rows, block.stretched) == [(1, 0)] * 40

    def test_fallbacks_then_a_clash_without_state_1(self, monkeypatch):
        # no trial holds state 1: trials 0 and 2 fall back, and trial 3
        # passes states 1 and 2
        monkeypatch.setitem(estimators._EXCLUSIVITY, "violations",
                            exclusivity_stats()["violations"])
        rows = Bars(self.THREE, self.BARS)
        counts = [(0, 0, 3, 3), (0, 6, 0, 0), (0, 0, 3, 3), (0, 1, 0, 5),
                  (0, 0, 3, 3)]
        keyed = [[s for s, n in zip((1, 2, 3, 4), c) for _ in range(n)]
                 for c in counts]
        assert self.compare(frequency_tests, frequency_test, self.plan(6),
                            [1, 2, 3], rows, keyed) == (
            "raised", "multiple states passed the frequency tests: [1, 2]")

    def test_threshold_masses_are_the_achieving_sets(self):
        # bit for bit the mass of tests/oracles.py's achieving set
        rng = np.random.default_rng(6)
        for n in (2, 3, 5):
            # eighths, for ties and for states off a row's support
            rows = RowTable({i: Distribution(dict(enumerate(
                rng.dirichlet(np.ones(n)) if i % 2 else
                np.bincount(rng.integers(n, size=8), minlength=n) / 8, 1)))
                for i in range(1, n + 1)}, STATE_KEYS)
            for i in rows.rows:
                for j in rows.rows:
                    if i != j:
                        assert rows.threshold_mass(i, j).hex() == \
                            tv_achieving_set(rows.rows[i], rows.rows[j], (
                                i, j)).mass_under(rows.rows[i]).hex()


    @pytest.mark.parametrize("labels", [(1, 2), ("", "A")],
                             ids=["finite", "tkf91"])
    def test_threshold_masses_add_in_turn(self, labels):
        # 0.1 + 0.2 + 0.3 rounds up when added in turn, but builtin sum
        # compensates from Python 3.12 and gives fsum's 0.6, as adding the
        # states in key order would: the threshold is the sum in the row's
        # order, one term after another, on every Python and for both
        # process kinds
        i, j = labels
        states = (4, 3, 2, 1) if i == 1 else ("T", "G", "C", "A")
        mine = Distribution(dict(zip(states, (0.1, 0.2, 0.3, 0.4))))
        rows = RowTable({i: mine, j: Distribution({states[3]: 1.0})},
                        STATE_KEYS if i == 1 else Tkf91Params.keys)
        terms = [p for s, p in mine.items() if s != states[3]]
        assert terms == [0.1, 0.2, 0.3]
        in_turn = (0.1 + 0.2) + 0.3
        assert math.fsum(terms) != in_turn
        assert rows.threshold_mass(i, j).hex() == in_turn.hex()


class TestMajorityEstimate:
    def test_unanimous(self):
        assert majority_estimate({"a": 1, "b": 1, "c": 1}) == 1

    def test_51_of_101(self):
        obs = {f"L{i:04d}": (1 if i <= 51 else 2) for i in range(1, 102)}
        assert majority_estimate(obs) == 1

    def test_even_count_rejected(self):
        with pytest.raises(EstimatorError):
            majority_estimate({"a": 1, "b": 2})

    def test_non_two_state_rejected(self):
        with pytest.raises(EstimatorError):
            majority_estimate({"a": 1, "b": 3, "c": 1})

    def test_exact_error_matches_binomial_formula(self):
        t = pinched(3, s=0.05, h=1.0)
        Q = two_state_symmetric(1.0)
        laws = {i: exact_leaf_law(t, Q, i) for i in (1, 2)}
        err = 0.0
        for i in (1, 2):
            for y, p in laws[i].probs.items():
                obs = dict(zip(laws[i].leaf_order, y))
                if majority_estimate(obs) != i:
                    err += 0.5 * p
        assert err == pytest.approx(
            pinched_star_majority_error(3, 1.0, 0.05, 1.0), abs=1e-12)
