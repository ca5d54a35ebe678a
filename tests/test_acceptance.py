"""Acceptance suite: one test per quantitative criterion, run at the
stated tolerances.  Each test carries its runtime budget as an inline
assertion.  Where a criterion checks an explicit bound, its configuration
lies inside the bound's hypotheses, so that the bound is below 1 and the
check is not vacuous.  The deep-family frequency check (c07) uses a
two-state chain with q = 0.1 and s = 0.005: with h* = 1 that gives
Delta = e^-0.2 and a Theorem 2 bound of 0.536 at k = 200.  At q = 1,
s = 0.05 the chance 1 - e^-s = 0.049 that a path has jumped by depth s
takes most of the estimator's test margin Delta/2 = 0.068, so no split of
that margin gives a bound below 1; with the implemented constants the
bound is vacuous at q = 1 for every s on the figure1 family.
docs/frequency_test_bound.md derives the bound and gives the arithmetic.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from oracles import block_draw, exact_leaf_law, frequency_estimate
from rootrec import cli
from rootrec.bounds import (BoundInputs, prop54_uniform_bound, recon_lower,
                            recon_upper, variance_bound, wilson_interval)
from rootrec.cli import (_build_estimator, _build_process, _build_tree,
                         _trial_setup, main, run_trials)
from rootrec.ctmc import (Distribution, RateMatrix, identifiability_margin,
                          jukes_cantor, row_distribution, total_variation,
                          transition_matrix, two_state_symmetric)
from rootrec.estimators import (RowTable, exclusivity_stats, map_estimate,
                                stretch_plan, uniform_chain_tests)
from rootrec.tkf91 import (Tkf91Params, decode, encode, evolve_lanes,
                           lane_law, stationary_length_pmf, stationary_pmf,
                           stationary_sample)
from rootrec.tree import Tree, generate_family, spread
from rootrec.treechain import simulated_trials


def random_chain(rng, n):
    q = rng.uniform(0.1, 1.5, size=(n, n))
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return RateMatrix(q)


def test_c01_tv_identity_suite():
    # three expressions of the total variation distance agree within
    # 1e-12 on 200 random sparse pairs, support size up to 12
    start = time.monotonic()
    rng = np.random.default_rng(101)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        a = rng.dirichlet(np.ones(n))
        b = rng.dirichlet(np.ones(n))
        da = Distribution(dict(enumerate(a, 1)))
        db = Distribution(dict(enumerate(b, 1)))
        half_l1 = total_variation(da, db)
        one_minus_min = 1.0 - np.minimum(a, b).sum()
        masks = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
        sup_subsets = (masks @ (a - b)).max()
        assert abs(half_l1 - one_minus_min) < 1e-12
        assert abs(half_l1 - sup_subsets) < 1e-12
    assert time.monotonic() - start < 1.0


def test_c02_information_sandwich():
    # brute force over every estimator function on small instances sits
    # between the two closed-form reconstruction bounds
    start = time.monotonic()
    rng = np.random.default_rng(102)
    checked = 0
    for _ in range(110):
        n0 = int(rng.integers(2, 4))
        n1 = int(rng.integers(1, 4))
        prior = Distribution(dict(enumerate(rng.dirichlet(np.ones(n0)), 1)))
        conds = {i: Distribution(dict(enumerate(
            rng.dirichlet(np.ones(n1)), 1))) for i in range(1, n0 + 1)}
        outcomes = sorted(set().union(*(set(c.support)
                                        for c in conds.values())))
        opt = max(
            sum(prior.mass(f[k]) * conds[f[k]].mass(y)
                for k, y in enumerate(outcomes))
            for f in itertools.product(range(1, n0 + 1),
                                       repeat=len(outcomes)))
        assert recon_lower(prior, conds, prior.support) <= opt + 1e-12
        assert opt <= recon_upper(prior, conds) + 1e-12
        checked += 1
    assert checked >= 100
    prior = Distribution({1: 0.5, 2: 0.5})
    conds = {1: Distribution({1: 0.9, 2: 0.1}),
             2: Distribution({1: 0.1, 2: 0.9})}
    assert recon_upper(prior, conds) == pytest.approx(0.9, abs=1e-12)
    assert recon_lower(prior, conds, [1, 2]) == pytest.approx(0.8, abs=1e-12)
    assert time.monotonic() - start < 30.0


def test_c03_map_optimality():
    # the posterior argmax achieves the optimum over all estimator
    # functions on random 2-leaf, 3-state instances; the optimum
    # decomposes outcome by outcome, which is what the enumeration over
    # all 3^9 functions would maximize
    start = time.monotonic()
    rng = np.random.default_rng(103)
    for _ in range(50):
        t = Tree("rho", [("rho", "a", float(rng.uniform(0.2, 1.0))),
                         ("rho", "b", float(rng.uniform(0.2, 1.0)))])
        Q = random_chain(rng, 3)
        prior = Distribution(dict(enumerate(rng.dirichlet(np.ones(3)), 1)))
        laws = {i: exact_leaf_law(t, Q, i) for i in (1, 2, 3)}
        outcomes = set().union(*(set(l.probs) for l in laws.values()))
        opt = sum(max(prior.mass(i) * laws[i].mass(y) for i in (1, 2, 3))
                  for y in outcomes)
        achieved = 0.0
        for y in outcomes:
            i = map_estimate(t, Q, prior, dict(zip(laws[1].leaf_order, y)))
            achieved += prior.mass(i) * laws[i].mass(y)
        assert achieved == pytest.approx(opt, abs=1e-12)
    assert time.monotonic() - start < 30.0


def test_c04_pinched_star_example():
    # closed-form majority error for m=101, q=1, s=0.05, h=1 vs Monte
    # Carlo at 1e5 trials, plus the Hoeffding-style domination
    from rootrec.bounds import (pinched_star_hoeffding_bound,
                                pinched_star_majority_error)
    start = time.monotonic()
    m, q, s, h = 101, 1.0, 0.05, 1.0
    exact = pinched_star_majority_error(m, q, s, h)
    t = generate_family("pinched_star", {"m": m, "s": s, "h": h})[m - 1]
    Q = two_state_symmetric(q)
    n = 10 ** 5
    errors = 0
    for block in simulated_trials(t, Q, block_draw(
            lambda rng: int(rng.integers(2)) + 1), (104,), n):
        votes = np.where((block.leaves == 1).sum(axis=1) > m / 2, 1, 2)
        errors += int((votes != np.array(block.roots)).sum())
    lo, hi = wilson_interval(errors, n)
    assert lo <= exact <= hi
    assert exact <= pinched_star_hoeffding_bound(m, q, s, h)
    assert time.monotonic() - start < 60.0


def test_c05_variance_bound_exhaustive():
    # exact leaf-count variances never exceed the closed-form bound on
    # the small-tree, small-chain fixture set
    start = time.monotonic()
    rng = np.random.default_rng(105)
    trees = [
        Tree("rho", [("rho", "a", 0.5), ("rho", "b", 0.5)]),
        Tree("rho", [("rho", "v", 0.3), ("v", "a", 0.7), ("v", "b", 0.7)]),
        Tree("rho", [("rho", "v", 0.3), ("v", "a", 0.7), ("v", "b", 0.7),
                     ("v", "c", 0.7)]),
        Tree("rho", [("rho", "a", 0.2), ("a", "b", 0.3), ("a", "x", 0.8),
                     ("b", "y", 0.5), ("b", "z", 0.5)]),
        Tree("rho", [("rho", "v", 1.5), ("v", "a", 0.5), ("v", "b", 0.5)]),
    ]
    cases = violations = 0
    for tree in trees:
        spr = spread(tree)
        for n in (2, 3):
            for _ in range(4):
                Q = random_chain(rng, n)
                for i in Q.states:
                    law = exact_leaf_law(tree, Q, i)
                    for j in Q.states:
                        counts = {y: sum(1 for x in y if x == j)
                                  for y in law.probs}
                        mean = sum(p * counts[y]
                                   for y, p in law.probs.items())
                        var = sum(p * counts[y] ** 2
                                  for y, p in law.probs.items()) - mean ** 2
                        bound = variance_bound(len(tree.leaves), spr,
                                               Q.exit_rates[i - 1])
                        cases += 1
                        if var > bound + 1e-10:
                            violations += 1
    assert cases >= 200
    assert violations == 0
    assert time.monotonic() - start < 60.0


def _deep_family_config(k, trials=1, seed=0):
    # c07 configuration, inside the regime where the Theorem 2 bound is
    # below 1 (see the module notes)
    return {"family": {"kind": "figure1", "k": k, "h": 1.0},
            "process": {"kind": "two_state", "q": 0.1},
            "estimator": {"kind": "frequency", "s": 0.005, "h_star": 1.0,
                          "epsilon": 0.01},
            "trials": trials, "seed": seed}


def _deep_family_bound(k):
    """The Theorem 2 bound that `rootrec experiment` reports for member k
    of the figure1 family in the c07 configuration."""
    cfg = _deep_family_config(k)
    _, _, bound = _build_estimator(cfg, _build_tree(cfg),
                                   _build_process(cfg))
    return bound


def test_c07a_deep_family_error_below_bound():
    # frequency estimator on the deep nested family, 1e4 trials at
    # k in {50, 200}: empirical error below the explicit bound (3 sigma)
    start = time.monotonic()
    trials = 10 ** 4
    for k in (50, 200):
        rows = run_trials(
            _trial_setup(_deep_family_config(k, trials, seed=1070 + k))[0])
        rate = sum(truth != state for _, truth, state, _ in rows) / trials
        sigma = math.sqrt(max(rate * (1 - rate), 1e-12) / trials)
        assert rate - 3 * sigma <= _deep_family_bound(k)
    assert time.monotonic() - start < 300.0


def test_c07b_deep_family_bound_nonvacuous_at_k200():
    # the explicit bound drops below 1 at k = 200 (m = 194 chosen leaves):
    # the validity condition 1 - e^{-q* s} <= Delta/4 holds for s = 0.005,
    # Delta = e^{-0.2}, and the closed form gives 0.536.  The bound is 1
    # when that condition fails, so a value below 1 is the formula itself.
    assert _deep_family_bound(200) < 1.0


def test_c08_uniform_chain_minimax():
    # slow 4-state uniform chain on a 201-leaf pinched star: for every
    # root state the empirical error stays below the minimax bound
    start = time.monotonic()
    Q = jukes_cantor(0.05, 4)
    t = generate_family("pinched_star",
                        {"m": 201, "s": 0.002, "h": 0.02})[200]
    s, h_star = 0.005, 0.02
    P = transition_matrix(Q, h_star)
    table = RowTable({i: row_distribution(P, i) for i in Q.states},
                     Q.keys)
    plan = stretch_plan(t, s, h_star)
    inp = BoundInputs(f_star=math.exp(-Q.q_star * h_star),
                      delta_q_hstar=min(table.delta(list(Q.states)), 1.0),
                      q_star=Q.q_star, s=s, m=plan.m)
    bound = prop54_uniform_bound(inp)
    assert bound < 1.0  # configuration chosen to make the check non-vacuous
    trials = 10 ** 4
    for truth in Q.states:
        errors = 0
        # block b draws from the substream [108, truth, b]
        for block in simulated_trials(t, Q, block_draw(
                lambda rng, root=truth: root), (108, truth), trials,
                stretch=plan):
            errors += sum(state != truth for state, _ in uniform_chain_tests(
                plan, Q.q_star, table, block))
        rate = errors / trials
        sigma = math.sqrt(max(rate * (1 - rate), 1e-12) / trials)
        assert rate - 3 * sigma <= bound
    assert time.monotonic() - start < 600.0


def test_c09_identifiability_margin_bound():
    # 50 random uniform chains: minimum pairwise row distance at time h*
    # dominates exp(-h* * operator norm), and the self-transition floor
    # squared is below the margin
    start = time.monotonic()
    rng = np.random.default_rng(109)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        rate = float(rng.uniform(0.1, 2.0))
        Q = jukes_cantor(rate, n)
        h_star = float(rng.uniform(0.1, 1.5))
        margin = identifiability_margin(Q, h_star)
        assert margin >= math.exp(-h_star * Q.norm) - 1e-9
        f_star = math.exp(-Q.q_star * h_star)
        assert f_star ** 2 <= margin + 1e-12
    assert time.monotonic() - start < 30.0


def test_c10_tkf91_stationarity():
    start = time.monotonic()
    params = Tkf91Params(nu=1.0, lam=1.0, mu=2.0)
    # (a) exact: total stationary mass per length is the geometric law
    for m in range(5):
        level = sum(stationary_pmf(params, "".join(c))
                    for c in itertools.product("ATCG", repeat=m))
        assert level == pytest.approx(stationary_length_pmf(params, m),
                                      abs=1e-12)
    # (b) evolve stationary starts for t = 1, in one batch: the length law
    # stays put
    rng = np.random.default_rng(110)
    n = 10 ** 5
    starts = [stationary_sample(params, rng) for _ in range(n)]
    counts = {}
    for seq in decode(*evolve_lanes(params, *encode(starts),
                                    lane_law(params, np.ones(n)), rng)):
        counts[len(seq)] = counts.get(len(seq), 0) + 1
    tv = 0.5 * sum(abs(counts.get(m, 0) / n - stationary_length_pmf(params, m))
                   for m in range(31))
    assert tv <= 0.02
    assert time.monotonic() - start < 300.0


def test_c11_tkf91_consistency_trend(tmp_path):
    # empirical reconstruction error of the tkf91 command strictly
    # decreasing over k in {10, 50, 200}, with 3 sigma separation between
    # the endpoints
    start = time.monotonic()
    trials = 2000
    cfg = {"family": {"kind": "figure1", "k": 200, "h": 1.0},
           "ks": [10, 50, 200],
           "process": {"kind": "tkf91", "nu": 1.0, "lam": 0.5, "mu": 1.0},
           "estimator": {"s": 0.05, "h_star": 1.0, "epsilon": 0.3,
                         "row_samples": 4000},
           "trials": trials, "seed": 111, "output": str(tmp_path / "out")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["tkf91", str(path)]) == 0
    lines = (tmp_path / "out").read_text().splitlines()[1:]
    rates = [float(line.split(",")[3]) for line in lines]
    assert len(rates) == 3
    assert rates[0] > rates[1] > rates[2]
    sigma = math.sqrt(sum(r * (1 - r) / trials for r in (rates[0], rates[2])))
    assert rates[0] - rates[2] > 3 * sigma
    assert time.monotonic() - start < 900.0


def test_c12_determinism_across_workers(tmp_path, monkeypatch):
    # the deep-family experiment config emits byte-identical CSV for
    # repeated runs and for different worker counts: its 2000 trials are
    # 8 blocks, split into 2 and 3 ranges of whole blocks on any host
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    cfg = {
        "family": {"kind": "figure1", "k": 50, "h": 1.0},
        "process": {"kind": "two_state", "q": 1.0},
        "estimator": {"kind": "frequency", "s": 0.05, "h_star": 1.0,
                      "epsilon": 0.01},
        "trials": 2000,
        "seed": 112,
        "output": str(tmp_path / "out"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    outputs = []
    for workers in (1, 1, 2, 3):
        assert main(["experiment", str(path), "--workers",
                     str(workers)]) == 0
        outputs.append(((tmp_path / "out.trials.csv").read_bytes(),
                        (tmp_path / "out.summary.csv").read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2] == outputs[3]


def test_c06_frequency_test_exclusivity():
    # across the whole suite (the runs above plus a dedicated stress
    # batch) at least 1e5 frequency-test invocations happen and the
    # at-most-one-passing-state assertion never fires
    t = generate_family("pinched_star", {"m": 3, "s": 0.02, "h": 1.0})[2]
    Q = two_state_symmetric(1.0)
    P = transition_matrix(Q, 1.0)
    table = RowTable({i: row_distribution(P, i) for i in Q.states},
                     Q.keys)
    plan = stretch_plan(t, 0.03, 1.0)
    rng = np.random.default_rng(106)
    needed = 10 ** 5 - exclusivity_stats()["invocations"]
    for _ in range(max(needed, 10 ** 4)):
        obs = {x: int(rng.integers(2)) + 1 for x in t.leaves}
        frequency_estimate(plan, Q, obs, [1, 2], table, rng)
    stats = exclusivity_stats()
    assert stats["invocations"] >= 10 ** 5
    assert stats["violations"] == 0
