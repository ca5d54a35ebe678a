import itertools
import math

import numpy as np
import pytest

from rootrec.ctmc import (Distribution, RateMatrix, row_distribution,
                          total_variation, transition_matrix,
                          two_state_symmetric, jukes_cantor)
from rootrec.bounds import recon_lower
from oracles import exact_leaf_law
from rootrec.estimators import (EstimatorError, RowTable, exclusivity_stats,
                                frequency_estimate, lambda_epsilon,
                                majority_estimate, map_estimate,
                                stretch_plan, uniform_chain_estimate)
from rootrec.tree import Tree, generate_family
from rootrec.treechain import simulate


def pinched(m, s=0.05, h=1.0):
    return generate_family("pinched_star", {"m": m, "s": s, "h": h})[m - 1]


def rows_at(Q, h_star, states=None):
    P = transition_matrix(Q, h_star)
    states = states or Q.states
    return RowTable({i: row_distribution(P, i) for i in states})


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
        assert plan.spread == pytest.approx(0.02)
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
                    aset = table.achieving(i, j)
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
        from rootrec.bounds import pinched_star_majority_error
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
