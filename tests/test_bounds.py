import itertools
import math
import pickle

import numpy as np
import pytest
from scipy.stats import binom

from rootrec.bounds import (BoundInputs, clamp, prop54_uniform_bound,
                            prop54_valid, recon_lower, recon_upper,
                            thm2_general_bound, thm2_valid, wilson_interval)
from rootrec.ctmc import Distribution, RateMatrix, two_state_symmetric
from oracles import (chebyshev_star_bound, exact_leaf_law, monte_carlo_error,
                     pinched_star_hoeffding_bound,
                     pinched_star_majority_error, spread, variance_bound)
from rootrec.tree import generate_family
from rootrec.estimators import majority_estimate


BINARY = {
    "prior": Distribution({1: 0.5, 2: 0.5}),
    "conds": {1: Distribution({1: 0.9, 2: 0.1}),
              2: Distribution({1: 0.1, 2: 0.9})},
}


def brute_force_optimum(prior, conds):
    outcomes = set()
    for d in conds.values():
        outcomes |= set(d.support)
    return sum(max(prior.mass(i) * conds[i].mass(y) for i in conds)
               for y in outcomes)


class TestReconSandwich:
    def test_identical_conditionals(self):
        prior = Distribution({1: 0.5, 2: 0.5})
        d = Distribution({1: 1.0})
        assert recon_upper(prior, {1: d, 2: d}) == pytest.approx(0.5)

    def test_binary_symmetric_values(self):
        assert recon_upper(BINARY["prior"], BINARY["conds"]) == \
            pytest.approx(0.9, abs=1e-12)
        assert recon_lower(BINARY["prior"], BINARY["conds"], [1, 2]) == \
            pytest.approx(0.8, abs=1e-12)

    def test_singleton_lower_is_prior_mass(self):
        assert recon_lower(BINARY["prior"], BINARY["conds"], [1]) == \
            pytest.approx(0.5)

    def test_sandwich_on_random_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(120):
            n0 = int(rng.integers(2, 4))
            n1 = int(rng.integers(1, 4))
            prior = Distribution(dict(enumerate(rng.dirichlet(np.ones(n0)),
                                                1)))
            conds = {i: Distribution(dict(enumerate(
                rng.dirichlet(np.ones(n1)), 1))) for i in range(1, n0 + 1)}
            opt = brute_force_optimum(prior, conds)
            assert recon_lower(prior, conds, prior.support) <= opt + 1e-12
            assert opt <= recon_upper(prior, conds) + 1e-12

    def test_too_few_states_rejected(self):
        with pytest.raises(ValueError):
            recon_upper(Distribution({1: 1.0}), {1: Distribution({1: 1.0})})


class TestVarianceBound:
    def test_star_is_quarter_m(self):
        assert variance_bound(8, 0.0, 1.0) == 2.0

    def test_arithmetic_example(self):
        assert variance_bound(10, 0.3, 1.0) == pytest.approx(62.5)

    def test_dominates_exact_variance(self):
        # exhaustive check on small trees x small chains
        rng = np.random.default_rng(32)
        from rootrec.tree import Tree
        trees = [
            Tree("rho", [("rho", "a", 0.5), ("rho", "b", 0.5)]),
            Tree("rho", [("rho", "v", 0.3), ("v", "a", 0.7), ("v", "b", 0.7)]),
            Tree("rho", [("rho", "v", 0.3), ("v", "a", 0.7), ("v", "b", 0.7),
                         ("v", "c", 0.7)]),
            Tree("rho", [("rho", "a", 0.2), ("a", "b", 0.3), ("a", "x", 0.8),
                         ("b", "y", 0.5), ("b", "z", 0.5)]),
        ]
        cases = 0
        for tree in trees:
            for n in (2, 3):
                for _ in range(10):
                    q = rng.uniform(0.1, 1.5, size=(n, n))
                    np.fill_diagonal(q, 0.0)
                    np.fill_diagonal(q, -q.sum(axis=1))
                    Q = RateMatrix(q)
                    spr = spread(tree)
                    for i in Q.states:
                        law = exact_leaf_law(tree, Q, i)
                        for j in Q.states:
                            mean = sum(p * sum(1 for x in y if x == j)
                                       for y, p in law.probs.items())
                            second = sum(
                                p * sum(1 for x in y if x == j) ** 2
                                for y, p in law.probs.items())
                            var = second - mean ** 2
                            qi = Q.exit_rates[i - 1]
                            bound = variance_bound(len(tree.leaves), spr, qi)
                            assert var <= bound + 1e-10
                            cases += 1
        assert cases >= 200


class TestChebyshevStarBound:
    def test_vacuous_example(self):
        v = chebyshev_star_bound(0.1, 100, 1.0, 0.01)
        assert v == pytest.approx(9.0)
        assert clamp(v) == 1.0

    def test_limits(self):
        assert chebyshev_star_bound(0.5, 10 ** 9, 1.0, 1e-12) < 1e-6

    def test_zero_delta_rejected(self):
        with pytest.raises(ValueError):
            chebyshev_star_bound(0.0, 10, 1.0, 0.1)


class TestThm2Bound:
    def test_spec_arithmetic(self):
        inp = BoundInputs(epsilon=0.01, n_epsilon=2, delta_epsilon=0.8,
                          q_star_epsilon=1.0, s=0.01, m=1000)
        d = 0.1
        expect = (0.01 + (1 - math.exp(-0.01)) / d ** 2
                  + 2 * math.exp(-2 * d ** 2 * 1000 / 1.1))
        assert thm2_valid(inp)
        assert thm2_general_bound(inp) == pytest.approx(expect, rel=1e-12)

    def test_s_zero(self):
        inp = BoundInputs(epsilon=0.05, n_epsilon=3, delta_epsilon=0.4,
                          q_star_epsilon=2.0, s=0.0, m=500)
        d = 0.05
        assert thm2_general_bound(inp) == pytest.approx(
            0.05 + 3 * math.exp(-2 * d ** 2 * 500 / (1 + d)))

    def test_invalid_condition_returns_one(self):
        inp = BoundInputs(epsilon=0.01, n_epsilon=2, delta_epsilon=0.1,
                          q_star_epsilon=1.0, s=2.0, m=1000)
        assert not thm2_valid(inp)
        assert thm2_general_bound(inp) == 1.0

    def test_dominates_derived_bound(self):
        # eps + eta/d + (n-1) exp(-2 d^2 m), derived for the implemented
        # frequency test in docs/frequency_test_bound.md, is never above it
        checked = 0
        for delta, s, n, m in itertools.product(
                (0.05, 0.2, 0.8, 1.0), (0.0, 0.001, 0.01, 0.1),
                (2, 3, 10), (10, 200, 5000)):
            inp = BoundInputs(epsilon=0.01, n_epsilon=n, delta_epsilon=delta,
                              q_star_epsilon=1.0, s=s, m=m)
            if not thm2_valid(inp):
                continue
            d = delta / 8.0
            derived = (0.01 + (1 - math.exp(-s)) / d
                       + (n - 1) * math.exp(-2 * d ** 2 * m))
            assert thm2_general_bound(inp) >= derived
            checked += 1
        assert checked > 100

    def test_monotone_in_m_and_s(self):
        base = dict(epsilon=0.01, n_epsilon=2, delta_epsilon=0.8,
                    q_star_epsilon=1.0)
        vals_m = [thm2_general_bound(BoundInputs(s=0.01, m=m, **base))
                  for m in (100, 500, 2000)]
        assert vals_m[0] >= vals_m[1] >= vals_m[2]
        vals_s = [thm2_general_bound(BoundInputs(s=s, m=500, **base))
                  for s in (0.001, 0.01, 0.05)]
        assert vals_s[0] <= vals_s[1] <= vals_s[2]


class TestProp54Bound:
    def test_s_zero(self):
        inp = BoundInputs(f_star=0.5, delta_q_hstar=0.4, q_star=1.0,
                          s=0.0, m=600)
        gap = 0.4
        assert prop54_uniform_bound(inp) == pytest.approx(
            11 / 0.5 * math.exp(-gap ** 2 * 600 / 64))

    def test_arithmetic(self):
        f = math.exp(-1.0)
        inp = BoundInputs(f_star=f, delta_q_hstar=0.5, q_star=1.0,
                          s=0.01, m=2000)
        gap = min(f, 0.5)
        d = gap / 8
        expect = ((1 - math.exp(-0.01)) / d ** 2
                  + 11 / f * math.exp(-gap ** 2 * 2000 / 64))
        assert prop54_valid(inp)
        assert prop54_uniform_bound(inp) == pytest.approx(expect, rel=1e-12)

    def test_invalid_returns_one(self):
        inp = BoundInputs(f_star=math.exp(-1.0), delta_q_hstar=0.5,
                          q_star=1.0, s=1.0, m=2000)
        assert prop54_uniform_bound(inp) == 1.0


class TestPinchedStarFormulas:
    def test_known_value(self):
        # m = 101, q = 1, s = 0.05, h = 1
        err = pinched_star_majority_error(101, 1.0, 0.05, 1.0)
        assert err == pytest.approx(0.10624586157323758, abs=1e-12)

    @pytest.mark.parametrize("m", [1031, 4001])
    def test_past_a_float_binomial(self, m):
        # C(m, m // 2) overflows a float from m = 1031 on; the error is
        # the root kept through the pinch and more than half the leaves
        # flipped, or the root flipped and at most half flipped back
        q, s, h = 1.0, 0.01, 1.0
        alpha = (1.0 + math.exp(-2.0 * q * s)) / 2.0
        beta = (1.0 - math.exp(-2.0 * q * (h - s))) / 2.0
        want = (alpha * binom.cdf(m // 2, m, 1.0 - beta)
                + (1.0 - alpha) * binom.cdf(m // 2, m, beta))
        assert pinched_star_majority_error(m, q, s, h) == pytest.approx(
            want, rel=1e-9)

    def test_hoeffding_dominates(self):
        for m in (3, 11, 101):
            err = pinched_star_majority_error(m, 1.0, 0.05, 1.0)
            assert err <= pinched_star_hoeffding_bound(m, 1.0, 0.05, 1.0)

    def test_even_m_rejected(self):
        with pytest.raises(ValueError):
            pinched_star_majority_error(4, 1.0, 0.05, 1.0)


class TestMonteCarlo:
    def test_wilson_interval(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and 0 < hi < 0.07
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi

    def test_perfect_estimator(self):
        Q = RateMatrix(np.zeros((2, 2)))
        t = generate_family("star", {"k": 3, "h": 1.0})[2]

        def est(obs, rng):
            return next(iter(obs.values()))

        res = monte_carlo_error(est, t, Q, Distribution({1: 0.5, 2: 0.5}),
                                trials=200, master_seed=1)
        assert res["errors"] == 0

    def test_blind_guess_rate(self):
        Q = two_state_symmetric(1.0)
        t = generate_family("star", {"k": 3, "h": 1.0})[2]

        def est(obs, rng):
            return int(rng.integers(2)) + 1

        res = monte_carlo_error(est, t, Q, 1, trials=4000, master_seed=2)
        assert abs(res["rate"] - 0.5) < 3 * math.sqrt(0.25 / 4000)

    def test_majority_matches_closed_form(self):
        Q = two_state_symmetric(1.0)
        t = generate_family("pinched_star",
                            {"m": 11, "s": 0.05, "h": 1.0})[10]
        res = monte_carlo_error(lambda obs, rng: majority_estimate(obs),
                                t, Q, Distribution({1: 0.5, 2: 0.5}),
                                trials=20000, master_seed=3)
        expect = pinched_star_majority_error(11, 1.0, 0.05, 1.0)
        assert res["ci99"][0] <= expect <= res["ci99"][1]

    def test_deterministic(self):
        Q = two_state_symmetric(1.0)
        t = generate_family("star", {"k": 5, "h": 1.0})[4]

        def est(obs, rng):
            return int(rng.integers(2)) + 1

        a = monte_carlo_error(est, t, Q, 1, trials=300, master_seed=9)
        b = monte_carlo_error(est, t, Q, 1, trials=300, master_seed=9)
        assert a == b


class TestBoundInputsValidation:
    def test_ranges(self):
        with pytest.raises(ValueError):
            BoundInputs(m=0)
        with pytest.raises(ValueError):
            BoundInputs(delta_epsilon=1.5)
        with pytest.raises(ValueError):
            BoundInputs(f_star=0.0)

    def test_replace_checks_its_fields(self):
        # _replace builds through _make, which goes through __new__
        with pytest.raises(ValueError, match="m must be"):
            BoundInputs()._replace(m=0)
        with pytest.raises(ValueError, match="f_star"):
            BoundInputs._make([0.0, 0, 0.0, 1.0, 0.0, 1, 2.0, 0.0, 1.0])
        inp = BoundInputs(s=0.1)._replace(m=7)
        assert (inp.s, inp.m) == (0.1, 7) and type(inp) is BoundInputs
        assert pickle.loads(pickle.dumps(inp)) == inp
