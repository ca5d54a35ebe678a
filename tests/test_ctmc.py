import itertools
import math
import pickle

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (draw_state, sample_endpoint, total_variation_reference,
                     transition_matrix_reference, tv_achieving_set)
from rootrec import ctmc
from rootrec.estimators import RowTable
from rootrec.ctmc import (UNIFORMIZATION_CAP, CtmcError, Distribution,
                          RateMatrix, identifiability_margin, jukes_cantor,
                          load_rate_matrix, row_distribution, star_norm,
                          star_norm_diff, total_variation, total_variations,
                          transition_matrix, two_state_symmetric)


def random_rate_matrix(rng, n):
    q = rng.uniform(0.0, 2.0, size=(n, n))
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return RateMatrix(q)


def sup_subset_tv(a, b):
    # brute-force sup over all subsets of the joint support
    states = sorted(set(a.support) | set(b.support), key=repr)
    best = 0.0
    for r in range(len(states) + 1):
        for sub in itertools.combinations(states, r):
            best = max(best, sum(a.mass(s) - b.mass(s) for s in sub))
    return best


class TestRateMatrix:
    def test_validation(self):
        with pytest.raises(CtmcError):
            RateMatrix([[-1.0, 0.5], [1.0, -1.0]])
        with pytest.raises(CtmcError):
            RateMatrix([[-1.0, -1.0], [1.0, -1.0]])
        with pytest.raises(CtmcError):
            RateMatrix([[1.0, 2.0, 3.0]])

    def test_norm_and_q_star(self):
        Q = two_state_symmetric(1.5)
        assert Q.norm == pytest.approx(3.0)
        assert Q.q_star == pytest.approx(1.5)
        assert jukes_cantor(0.3).q_star == 1.0  # floor at 1

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "q.txt"
        p.write_text("# two state\n-1 1\n1 -1\n")
        Q = load_rate_matrix(p)
        assert Q.n == 2
        assert Q.exit_rates[0] == pytest.approx(1.0)


class TestDistribution:
    def test_mass_must_sum_to_one(self):
        with pytest.raises(CtmcError):
            Distribution({1: 0.5, 2: 0.4})
        with pytest.raises(CtmcError):
            Distribution({1: 1.5, 2: -0.5})

    def test_tiny_drift_renormalized(self):
        d = Distribution({1: 0.5, 2: 0.5 + 1e-14})
        assert d.mass(1) + d.mass(2) == pytest.approx(1.0, abs=1e-15)

    def test_point_mass_sampling(self):
        rng = np.random.default_rng(0)
        d = Distribution.point_mass("x")
        assert draw_state(d, rng) == "x"


class TestTransitionMatrix:
    def test_identity_at_zero(self):
        Q = jukes_cantor(1.0)
        assert np.allclose(transition_matrix(Q, 0.0), np.eye(4))

    def test_two_state_closed_form(self):
        # p11(t) = (1 + e^{-2qt})/2; at t = ln2/2 this is 0.75
        P = transition_matrix(two_state_symmetric(1.0), math.log(2) / 2)
        assert P[0, 0] == pytest.approx(0.75, abs=1e-12)
        assert P[0, 1] == pytest.approx(0.25, abs=1e-12)

    def test_matches_expm_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            Q = random_rate_matrix(rng, 4)
            t = float(rng.uniform(0.05, 2.0))
            assert np.abs(transition_matrix(Q, t)
                          - scipy.linalg.expm(t * Q.q)).max() < 1e-9

    def test_chapman_kolmogorov(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            Q = random_rate_matrix(rng, 3)
            s, t = rng.uniform(0.1, 1.0, size=2)
            lhs = transition_matrix(Q, float(s + t))
            rhs = transition_matrix(Q, float(s)) @ transition_matrix(
                Q, float(t))
            assert np.abs(lhs - rhs).max() < 1e-8

    def test_diagonal_sandwich(self):
        # e^{-q_i t} <= p_ii(t) <= 1
        rng = np.random.default_rng(9)
        for _ in range(5):
            Q = random_rate_matrix(rng, 4)
            t = float(rng.uniform(0.0, 3.0))
            P = transition_matrix(Q, t)
            for i in range(4):
                assert math.exp(-Q.exit_rates[i] * t) - 1e-12 <= P[i, i] <= 1.0

    def test_negative_time_rejected(self):
        with pytest.raises(CtmcError):
            transition_matrix(two_state_symmetric(), -0.1)

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_non_finite_time_rejected(self, t):
        # at t = inf the halving below the uniformization cap never ends
        with pytest.raises(CtmcError):
            transition_matrix(two_state_symmetric(), t)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 9), st.integers(2, 5),
           st.floats(-3.0, 4.0))
    def test_matches_expm_up_to_long_times(self, seed, n, log_rate_time):
        # rate * t from 1e-3 to 1e4, far past the ~745 where exp(-rate t)
        # underflows; sparse rows make some chains reducible
        rng = np.random.default_rng(seed)
        q = rng.uniform(0.0, 2.0, size=(n, n)) * (rng.random((n, n)) < 0.7)
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1))
        Q = RateMatrix(q)
        rate = float(Q.exit_rates.max())
        if rate == 0.0:
            return
        t = 10.0 ** log_rate_time / rate
        assert np.abs(transition_matrix(Q, t)
                      - scipy.linalg.expm(t * Q.q)).max() < 1e-9

    def test_returns_past_exp_underflow(self):
        # exp(-760) underflows to 0, so unscaled uniformization never ends
        P = transition_matrix(two_state_symmetric(1.0), 760.0)
        assert np.abs(P - 0.5).max() < 1e-12


class TestMatrices:
    """``RateMatrix.matrices`` uniformizes many lengths in one pass, to
    the bits of ``oracles.transition_matrix_reference``, one length at a
    time."""

    CHAINS = {
        "one-state": lambda: RateMatrix([[0.0]]),
        "zero-rate": lambda: RateMatrix(np.zeros((3, 3))),
        "two-state": lambda: two_state_symmetric(1.0),
        "three-state": lambda: random_rate_matrix(np.random.default_rng(3),
                                                  3),
        "four-state": lambda: jukes_cantor(0.05, 4),
        "seven-state": lambda: random_rate_matrix(np.random.default_rng(7),
                                                  7),
    }

    @staticmethod
    def lengths(Q):
        rate = float(Q.exit_rates.max()) or 1.0
        cap = UNIFORMIZATION_CAP / rate
        edges = [0.0, 1e-13, 2.0 ** -60, 1e-9, 40.0, 100.0, cap,
                 float(np.nextafter(cap, 0.0)), float(np.nextafter(cap, 1e9)),
                 0.5 * cap, 2.0 * cap, 3.3 * cap]
        rng = np.random.default_rng(11)
        spread = (10.0 ** rng.uniform(-14.0, 2.5, 60)).tolist()
        # repeated lengths, the figure1 spine's halvings among them
        return edges + spread + [2.0 ** -(j + 1) for j in range(50)] + edges

    @pytest.mark.parametrize("kind", sorted(CHAINS))
    def test_matches_the_one_length_reference(self, kind):
        Q = self.CHAINS[kind]()
        lengths = self.lengths(Q)
        got = Q.matrices(lengths)
        assert len(got) == len(lengths)
        for t, P in zip(lengths, got):
            want = transition_matrix_reference(Q, t)
            assert P.tobytes() == want.tobytes(), t
            assert transition_matrix(Q, t).tobytes() == want.tobytes(), t

    def test_one_pass_per_missing_set(self, monkeypatch):
        passes = []
        real = ctmc._uniformize
        monkeypatch.setattr(ctmc, "_uniformize", lambda Q, ts: passes.append(
            list(ts)) or real(Q, ts))
        Q = jukes_cantor(1.0)
        Q.matrices([0.3, 0.1, 0.3, 2.0])
        Q.matrices([2.0, 0.1])
        Q.matrices([0.1, 5.0, 5.0])
        assert passes == [[0.3, 0.1, 2.0], [5.0]]

    def test_shares_the_cache_with_matrix(self):
        Q = jukes_cantor(1.0)
        a = Q.matrix(0.3)
        got = Q.matrices([0.3, 0.7, 0.3])
        assert got[0] is a and got[2] is a
        assert Q.matrix(0.7) is got[1]
        assert not got[1].flags.writeable
        with pytest.raises(ValueError):
            got[1][0, 0] = 1.0

    @pytest.mark.parametrize("t", [-0.1, math.inf, math.nan])
    def test_bad_length_rejected(self, t):
        Q = jukes_cantor(1.0)
        with pytest.raises(CtmcError, match="nonnegative and finite"):
            Q.matrices([0.3, t])
        assert not Q._mats


class TestTotalVariation:
    SUPPORTS = {
        # (support, masses drawn over it) of each distribution
        "overlapping": [(1, 2, 3), (2, 3, 4), (4, 1), (3,)],
        "nested": [(1, 2, 3, 4, 5), (2, 4), (4,), (5, 4, 3, 2, 1)],
        "disjoint": [(1, 2), (3, 4), (5,), (6, 7, 8)],
        "strings": [("", "A", "AC"), ("AC", "G"), ("T", "", "GG", "A"),
                    ("GG",)],
        # long supports in shuffled orders, where the order of the terms
        # decides the rounding
        "long": [tuple(np.random.default_rng(s).permutation(60)[:40].tolist())
                 for s in range(6)],
    }

    @pytest.mark.parametrize("kind", sorted(SUPPORTS))
    def test_all_pairs_match_the_loop(self, kind):
        rng = np.random.default_rng(len(kind))
        dists = [Distribution(dict(zip(s, rng.dirichlet(np.ones(len(s))))))
                 for s in self.SUPPORTS[kind]]
        # and an equal pair, whose terms are all zero
        dists.append(dists[1])
        want = [total_variation_reference(a, b)
                for a, b in itertools.combinations(dists, 2)]
        assert total_variations(dists).tolist() == want
        assert [total_variation(a, b) for a, b in itertools.combinations(
            dists, 2)] == want

    def test_no_pair(self):
        d = Distribution({1: 0.5, 2: 0.5})
        assert total_variations([d]).shape == (0,)
        assert total_variations([]).shape == (0,)

    def test_basics(self):
        a = Distribution({1: 0.9, 2: 0.1})
        b = Distribution({1: 0.1, 2: 0.9})
        assert total_variation(a, a) == 0.0
        assert total_variation(a, b) == pytest.approx(0.8)
        assert total_variation(Distribution.point_mass(1),
                               Distribution.point_mass(2)) == 1.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 9), st.integers(2, 8))
    def test_three_forms_agree(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.dirichlet(np.ones(n))
        b = rng.dirichlet(np.ones(n))
        da = Distribution(dict(enumerate(a, 1)))
        db = Distribution(dict(enumerate(b, 1)))
        half_l1 = total_variation(da, db)
        one_minus_min = 1.0 - sum(min(da.mass(i), db.mass(i))
                                  for i in range(1, n + 1))
        assert abs(half_l1 - one_minus_min) < 1e-12
        assert abs(half_l1 - sup_subset_tv(da, db)) < 1e-12


class TestAchievingSet:
    def test_two_state_rows(self):
        a = Distribution({1: 0.75, 2: 0.25})
        b = Distribution({1: 0.25, 2: 0.75})
        A = tv_achieving_set(a, b, (1, 2))
        assert 1 in A and 2 not in A
        assert A.mass_under(a) - A.mass_under(b) == pytest.approx(0.5)

    def test_three_state(self):
        a = Distribution({1: 0.5, 2: 0.3, 3: 0.2})
        b = Distribution({1: 0.2, 2: 0.3, 3: 0.5})
        A = tv_achieving_set(a, b, (1, 2))
        assert A.explicit([1, 2, 3]) == {1, 2}
        assert A.mass_under(a) - A.mass_under(b) == pytest.approx(0.3)
        assert total_variation(a, b) == pytest.approx(0.3)

    def test_equal_distributions_tie_rule(self):
        a = Distribution({1: 0.5, 2: 0.5})
        A12 = tv_achieving_set(a, a, (1, 2))
        A21 = tv_achieving_set(a, a, (2, 1))
        assert 1 in A12 and 2 in A12
        assert 1 not in A21 and 2 not in A21
        assert A12.mass_under(a) - A12.mass_under(a) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 9), st.integers(2, 6))
    def test_complement_symmetry_and_gap(self, seed, n):
        rng = np.random.default_rng(seed)
        da = Distribution(dict(enumerate(rng.dirichlet(np.ones(n)), 1)))
        db = Distribution(dict(enumerate(rng.dirichlet(np.ones(n)), 1)))
        A = tv_achieving_set(da, db, (1, 2))
        B = tv_achieving_set(db, da, (2, 1))
        universe = list(range(1, n + 1)) + [n + 1]  # n+1 unseen by both
        for s in universe:
            assert (s in A) == (s not in B)
        gap = A.mass_under(da) - A.mass_under(db)
        assert gap == pytest.approx(total_variation(da, db), abs=1e-12)


class TestIdentifiabilityMargin:
    def test_two_state_closed_form(self):
        Q = two_state_symmetric(1.0)
        assert identifiability_margin(Q, 1.0) == pytest.approx(
            math.exp(-2.0), abs=1e-10)

    def test_singleton_is_infinite(self):
        assert identifiability_margin(two_state_symmetric(), 1.0,
                                      [1]) == math.inf

    def test_uniform_chain_lower_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            rate = float(rng.uniform(0.1, 1.5))
            n = int(rng.integers(2, 6))
            Q = jukes_cantor(rate, n)
            t = float(rng.uniform(0.1, 1.5))
            assert identifiability_margin(Q, t) >= math.exp(
                -t * Q.norm) - 1e-9
            # to the bit the Δ of a row table of the sorted subset, given
            # in any order (a pair's TV adds the first row's support first),
            # on these chains and on one with unequal rates
            R = RateMatrix(Q.q * np.arange(1, n + 1)[:, None])
            for P, subset in ((Q, Q.states), (R, R.states[::-1]),
                              (R, R.states[::2])):
                assert identifiability_margin(P, t, subset) == RowTable(
                    {i: P.row(i, t) for i in subset}, P.keys).delta(
                        sorted(subset))


class TestSampling:
    def test_zero_time(self):
        rng = np.random.default_rng(0)
        assert sample_endpoint(two_state_symmetric(), 1, 0.0, rng) == 1

    def test_absorbing_state(self):
        Q = RateMatrix([[0.0, 0.0], [1.0, -1.0]])
        rng = np.random.default_rng(0)
        assert sample_endpoint(Q, 1, 10.0, rng) == 1

    def test_two_state_frequency(self):
        Q = two_state_symmetric(1.0)
        rng = np.random.default_rng(5)
        n = 10 ** 5
        hits = sum(sample_endpoint(Q, 1, 0.5, rng) == 1 for _ in range(n))
        p = (1 + math.exp(-1.0)) / 2
        assert abs(hits / n - p) < 3 * math.sqrt(p * (1 - p) / n)

    def test_one_process_per_rate_matrix(self):
        # a rate matrix is its chain's process and keeps one matrix cache
        Q = jukes_cantor(1.0)
        assert Q.matrix(0.3) is Q.matrix(0.3)
        assert jukes_cantor(1.0).matrix(0.3) is not Q.matrix(0.3)

    def test_pickles_without_its_caches(self):
        Q = jukes_cantor(1.0)
        Q.matrix(0.3)
        copy = pickle.loads(pickle.dumps(Q))
        assert np.array_equal(copy.q, Q.q) and not copy._mats
        assert np.array_equal(copy.matrix(0.3), Q.matrix(0.3))

    def test_process_view_matches_rows(self):
        Q = jukes_cantor(1.0)
        row = Q.row(2, 0.7)
        P = transition_matrix(Q, 0.7)
        for j in range(1, 5):
            assert row.mass(j) == pytest.approx(P[1, j - 1])


class TestStarNorm:
    def test_weights(self):
        assert star_norm([1.0]) == 0.5
        assert star_norm([0.0, 1.0]) == 0.25

    def test_two_state_row_difference(self):
        P = transition_matrix(two_state_symmetric(1.0), 1.0)
        a, b = row_distribution(P, 1), row_distribution(P, 2)
        assert star_norm_diff(a, b, 2) == pytest.approx(
            0.75 * math.exp(-2.0), abs=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 9), st.integers(2, 8))
    def test_dominated_by_tv(self, seed, n):
        rng = np.random.default_rng(seed)
        da = Distribution(dict(enumerate(rng.dirichlet(np.ones(n)), 1)))
        db = Distribution(dict(enumerate(rng.dirichlet(np.ones(n)), 1)))
        assert star_norm_diff(da, db, n) <= total_variation(da, db) + 1e-12
