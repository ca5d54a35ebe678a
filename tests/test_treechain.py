import itertools
import math
import pickle
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import (block_draw, chain_step, exact_leaf_law, exact_leaf_tv,
                     leaf_likelihoods, map_estimate, simulate,
                     tkf91_tree_reference, tree_per_edge)
from rootrec import ctmc, tkf91
from rootrec.ctmc import (CtmcError, Distribution, RateMatrix, _compile,
                          _descend, transition_matrix, two_state_symmetric,
                          jukes_cantor)
from rootrec.estimators import StretchPlan
from rootrec.tkf91 import Tkf91Params, stationary_sample
from rootrec import tree as tree_module
from rootrec import treechain
from rootrec.tree import Tree, generate_family
from rootrec.treechain import (BLOCK, DURATION_TOL, block_leaf_likelihoods,
                               simulated_trials)


def naive_leaf_law(tree, Q, root_state):
    """Test-only oracle: enumerate every assignment of states to all
    vertices and sum edge-product probabilities."""
    verts = [v for v in tree.topo_order if v != tree.root]
    P = {v: transition_matrix(Q, tree.length[v]) for v in verts}
    probs = {}
    for combo in itertools.product(range(1, Q.n + 1), repeat=len(verts)):
        states = dict(zip(verts, combo))
        states[tree.root] = root_state
        p = 1.0
        for v in verts:
            p *= P[v][states[tree.parent[v]] - 1, states[v] - 1]
        key = tuple(states[x] for x in tree.leaves)
        probs[key] = probs.get(key, 0.0) + p
    return probs


def pinched2(s=0.5, h=1.0):
    return Tree("rho", [("rho", "v", s), ("v", "a", h - s),
                        ("v", "b", h - s)])


def fixed_root_rows(tree, Q, root, key, n):
    """The leaf rows of n trials from ``root``, drawn a block at a time."""
    return np.concatenate([block.leaves for block in simulated_trials(
        tree, Q, block_draw(lambda rng: root), key, n)])


class TestSimulate:
    def test_zero_rates_copy_root(self):
        Q = RateMatrix(np.zeros((3, 3)))
        t = generate_family("star", {"k": 4, "h": 1.0})[3]
        rng = np.random.default_rng(0)
        obs = simulate(t, Q, 2, rng)
        assert all(v == 2 for v in obs.values())

    def test_single_edge_matches_row(self):
        t = Tree("rho", [("rho", "x", 0.5)])
        Q = two_state_symmetric(1.0)
        n = 10 ** 5
        hits = int((fixed_root_rows(t, Q, 1, (3,), n)[:, 0] == 1).sum())
        p = (1 + math.exp(-1.0)) / 2
        assert abs(hits / n - p) < 3 * math.sqrt(p * (1 - p) / n)

    def test_sibling_independence_given_pinch(self):
        # under a fixed pinch state the two leaves are independent; the
        # unconditional product-law check below captures exactly that
        t = Tree("rho", [("rho", "a", 0.6), ("rho", "b", 0.6)])
        Q = two_state_symmetric(1.0)
        n = 40000
        assert t.leaves == ("a", "b")
        pairs, hits = np.unique(fixed_root_rows(t, Q, 1, (4,), n), axis=0,
                                return_counts=True)
        counts = dict(zip(map(tuple, pairs.tolist()), hits.tolist()))
        P = transition_matrix(Q, 0.6)
        for (x, y), c in counts.items():
            expect = P[0, x - 1] * P[0, y - 1]
            assert abs(c / n - expect) < 4 * math.sqrt(expect / n)


def uniform_row(u):
    """A stand-in generator whose ``random()`` returns the floats of
    ``u`` in turn: one trial's row of its block's uniforms."""
    return SimpleNamespace(random=iter(u.tolist()).__next__)


def random_chain(n):
    rng = np.random.default_rng([n, 17])
    q = rng.uniform(0.0, 3.0, size=(n, n))
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return RateMatrix(q)


class TestCompiledSimulate:
    TREES = {
        "figure1": lambda: generate_family("figure1", {"k": 30})[29],
        "random_ultrametric": lambda: generate_family(
            "random_ultrametric", {"k": 25}, seed=4)[24],
        "pinched_star": lambda: generate_family(
            "pinched_star", {"m": 9, "s": 0.3})[8],
    }

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("kind", sorted(TREES))
    def test_matches_per_edge_loop(self, kind, n):
        tree = self.TREES[kind]()
        Q = random_chain(n)
        step = partial(chain_step, Q)
        for seed in range(200):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            root = seed % n + 1
            assert simulate(tree, Q, root, a) == tree_per_edge(tree, step,
                                                               root, b)
            # both consumed the stream identically
            assert a.random() == b.random()

    def test_second_trial_computes_no_matrix(self, monkeypatch):
        # the first trial uniformizes every distinct length in one pass
        passes = []
        real = ctmc._uniformize

        def counted(Q, lengths, *args, **kwargs):
            passes.append(sorted(lengths))
            return real(Q, lengths, *args, **kwargs)

        monkeypatch.setattr(ctmc, "_uniformize", counted)
        tree = generate_family("figure1", {"k": 30})[29]
        Q = two_state_symmetric(1.0)
        simulate(tree, Q, 1, np.random.default_rng(0))
        assert passes == [sorted(set(tree.length.values()))]
        passes.clear()
        simulate(tree, Q, 2, np.random.default_rng(1))
        assert passes == []

    def test_cache_lookup_skips_edge_comparison(self, monkeypatch):
        # the compiled-tree cache finds a tree by comparing it with itself
        tree = generate_family("figure1", {"k": 30})[29]
        Q = two_state_symmetric(1.0)
        simulate(tree, Q, 1, np.random.default_rng(0))

        def compared(*args, **kwargs):
            raise AssertionError("edge-by-edge tree comparison")

        monkeypatch.setattr(tree_module, "math",
                            SimpleNamespace(isclose=compared))
        simulate(tree, Q, 2, np.random.default_rng(1))


class TestPlans:
    """Every per-tree plan lives in treechain, built once per tree and
    process, and never travels with the process."""

    @staticmethod
    def count(monkeypatch, name):
        calls = []
        real = getattr(treechain, name)

        def counted(tree, *args):
            calls.append((tree, *args))
            return real(tree, *args)

        monkeypatch.setattr(treechain, name, counted)
        return calls

    def test_finite_chain_plans_built_once(self, monkeypatch):
        compiled = self.count(monkeypatch, "_tree_plan")
        tree = pinched2()
        Q = two_state_symmetric(1.0)
        plan = StretchPlan(0.1, 2.0, 1, ("a",), (1.0,))
        for _ in range(2):
            simulate(tree, Q, 1, np.random.default_rng(0))
            list(simulated_trials(tree, Q, block_draw(lambda rng: 1), (0,),
                                  3))
            list(simulated_trials(tree, Q, block_draw(lambda rng: 1), (0,),
                                  3, stretch=plan))
            block_leaf_likelihoods(tree, Q, [[1, 2]])
        assert compiled == [(tree, Q)]
        # a second chain on the same tree compiles its own matrices
        R = two_state_symmetric(2.0)
        simulate(tree, R, 1, np.random.default_rng(0))
        assert compiled == [(tree, Q), (tree, R)]

    @pytest.mark.parametrize("process, root", [
        (two_state_symmetric(1.0), 1),
        (Tkf91Params(nu=1.0, lam=0.5, mu=1.0), "AT")])
    def test_plans_go_with_their_tree(self, process, root):
        # no plan refers to its tree, so the tree's entry dies with it
        tree = pinched2()
        simulate(tree, process, root, np.random.default_rng(0))
        assert tree in treechain._PLANS
        size = len(treechain._PLANS)
        del tree
        assert len(treechain._PLANS) == size - 1

    def test_pickled_chain_carries_no_tree_state(self):
        Q = two_state_symmetric(1.0)
        simulate(pinched2(), Q, 1, np.random.default_rng(0))
        assert pickle.dumps(Q) == pickle.dumps(two_state_symmetric(1.0))


class TestDescend:
    """``_descend`` against ``oracles.chain_step`` on the same uniforms,
    vertex by vertex, on edges with random stochastic matrices."""

    # below 1, and above a cumulative row that rounding left below 1
    TOP = float(np.nextafter(1.0, 0.0))

    @staticmethod
    def tree(n):
        # a level of 33 edges, more than one group of edges, under a
        # path; 300 states get a small tree, their matrices being large
        m = 3 if n > 4 else 33
        return Tree("r", [("r", "a", 0.5), ("a", "b", 0.25),
                          ("b", "p", 0.125),
                          *((("p", f"x{i:02d}", 1.0 + i) for i in range(m)))])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 300])
    def test_matches_per_edge_chain(self, n):
        tree = self.tree(n)
        rng = np.random.default_rng([n, 23])
        mats = {ln: rng.dirichlet(np.ones(n), size=n)
                for ln in tree.length.values()}
        # the first and the last edge: every row's cumulative sums end
        # below 1, and every trial's uniform lies between that end and 1
        row = rng.dirichlet(np.ones(n))
        row[-1] = 1.0 - row[:-1].sum() - 4e-16
        assert np.cumsum(row)[-1] < self.TOP
        rounded = (tree.length[tree.topo_order[1]],
                   tree.length[tree.topo_order[-1]])
        for ln in rounded:
            mats[ln] = np.tile(row, (n, 1))
        chain = SimpleNamespace(n=n, matrix=mats.__getitem__,
                                matrices=lambda ts: [mats[t] for t in ts])
        levels = _compile(tree, chain).levels
        parents = tree.edge_parents
        trials = 50
        roots = (np.arange(trials) % n + 1).tolist()
        u = rng.random((len(parents), trials))
        for e in (0, len(parents) - 1):
            u[e] = self.TOP
        states = _descend(n, levels, roots, u)
        assert states.dtype == (np.uint16 if n > 255 else np.uint8)
        lengths = [tree.length[v] for v in tree.topo_order[1:]]
        for b, root in enumerate(roots):
            src, ref = uniform_row(u[:, b]), [root]
            for p, ln in zip(parents, lengths):
                ref.append(chain_step(chain, ref[p], ln, src))
            assert (states[:, b] + 1).tolist() == ref
            assert ref[1] == ref[-1] == n


class TestTrialBlocks:
    def test_matches_single_trial_law(self):
        t = pinched2()
        Q = jukes_cantor(1.0)
        rows = np.concatenate([block.leaves for block in simulated_trials(
            t, Q, block_draw(lambda rng: 1), (5,), 30000)])
        law = exact_leaf_law(t, Q, 1)
        emp = {}
        for row in map(tuple, rows.tolist()):
            emp[row] = emp.get(row, 0) + 1
        tv = 0.5 * sum(abs(emp.get(k, 0) / len(rows) - p)
                       for k, p in law.probs.items())
        assert tv < 0.02

    def test_columns_follow_leaf_order(self):
        t = Tree("rho", [("rho", "b", 1.0), ("rho", "a", 1.0)])
        Q = RateMatrix(np.zeros((2, 2)))
        (block,) = simulated_trials(t, Q, block_draw(lambda rng: 2), (0,), 5)
        assert t.leaves == ("a", "b")
        assert block.leaves.shape == (5, 2)
        assert (block.leaves == 2).all()

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("kind", sorted(TestCompiledSimulate.TREES))
    def test_matches_per_trial_reference(self, kind, n):
        # block b's generator is seeded [*key, b]; it draws BLOCK roots,
        # then a (BLOCK × uniforms) array.  Leaves and stretched states of
        # every trial equal those drawn edge by edge and leaf by leaf from
        # the trial's row of that array, and the block's trials share one
        # generator, left just after the array; the last block is short
        tree = TestCompiledSimulate.TREES[kind]()
        Q = random_chain(n)
        step = partial(chain_step, Q)
        # durations at, just below and above DURATION_TOL, and positive
        chosen = tree.leaves[::2]
        durations = [(0.0, DURATION_TOL / 2, 2 * DURATION_TOL, 0.3, 1.1)[i % 5]
                     for i in range(len(chosen))]
        plan = StretchPlan(0.1, 2.0, len(chosen), chosen,
                           tuple(durations))
        draw = lambda rng: int(rng.integers(n)) + 1
        width = (len(tree.topo_order) - 1
                 + sum(d > DURATION_TOL for d in durations))
        blocks = list(simulated_trials(tree, Q, block_draw(draw), (n, 17),
                                       BLOCK + 20, stretch=plan))
        assert [len(block.roots) for block in blocks] == [BLOCK, 20]
        for i, block in enumerate(blocks):
            ref = np.random.default_rng([n, 17, i])
            roots = [draw(ref) for _ in range(BLOCK)]
            u = ref.random((BLOCK, width))
            assert block.roots == roots[:len(block.roots)]
            for b in range(len(block.roots)):
                row = uniform_row(u[b])
                leaves = tree_per_edge(tree, step, roots[b], row)
                stretched = [step(leaves[x], d, row)
                             if d > DURATION_TOL else leaves[x]
                             for x, d in zip(chosen, durations)]
                assert block.leaves[b].tolist() == [leaves[x]
                                                    for x in tree.leaves]
                assert block.stretched[b].tolist() == stretched
            assert block.rng.random() == ref.random()

    @pytest.mark.parametrize("kind", ["figure1", "pinched_star"])
    def test_slices_of_one_trial_draw_the_same_blocks(self, kind,
                                                      monkeypatch):
        # a block's uniforms drawn and descended one trial's row at a
        # time read the stream as the whole array does
        tree = TestCompiledSimulate.TREES[kind]()
        Q = jukes_cantor(1.0, 3)
        plan = StretchPlan(0.1, 2.0, 3, tree.leaves[:3], (0.2, 0.0, 1.0))
        draw = lambda rng: int(rng.integers(3)) + 1

        def blocks():
            return [(b.roots, b.leaves.tolist(), b.stretched.tolist(),
                     b.rng.random()) for b in simulated_trials(
                         tree, Q, block_draw(draw), (8,), BLOCK + 20,
                         stretch=plan)]

        whole = blocks()
        monkeypatch.setattr(ctmc, "_UNIFORMS", 1)
        assert blocks() == whole

    def test_blocks_hold_block_trials(self):
        tree = TestCompiledSimulate.TREES["figure1"]()
        Q = two_state_symmetric(1.0)
        blocks = list(simulated_trials(tree, Q, block_draw(lambda rng: 1),
                                       (3,), 3 * BLOCK + 2, start=BLOCK))
        assert [b.start for b in blocks] == [BLOCK, 2 * BLOCK, 3 * BLOCK]
        assert [len(b.roots) for b in blocks] == [BLOCK, BLOCK, 2]
        assert all(b.stretched is None for b in blocks)
        # one generator per block
        assert len({id(b.rng) for b in blocks}) == 3

    @pytest.mark.parametrize("process", [two_state_symmetric(1.0),
                                         Tkf91Params(nu=1.0, lam=0.5,
                                                     mu=1.0)])
    def test_start_inside_a_block_is_refused(self, process):
        tree = pinched2()
        for start in (1, BLOCK - 1, BLOCK + 7):
            with pytest.raises(ValueError, match="multiple of"):
                list(simulated_trials(tree, process, block_draw(lambda rng: 1),
                                      (3,), 2 * BLOCK, start=start))

    def test_other_processes_are_refused(self):
        # a finite chain and TKF91 are the only processes; a chain seen
        # through another object draws no trials, with or without a stretch
        class Chain:
            n, matrix = 2, two_state_symmetric(1.0).matrix

        tree, other = pinched2(), Chain()
        plan = StretchPlan(0.1, 2.0, 1, ("a",), (1.0,))
        with pytest.raises(TypeError, match="RateMatrix or Tkf91Params"):
            simulate(tree, other, 1, np.random.default_rng(0))
        for stretch in (None, plan):
            with pytest.raises(TypeError, match="RateMatrix or Tkf91Params"):
                next(simulated_trials(tree, other, block_draw(lambda rng: 1),
                                      (0,), 3, stretch=stretch))


class TestIdentityEdges:
    """Edges that cannot move a state are not drawn: a finite chain's
    identity matrices, and TKF91's identity laws (``tkf91.identity``).
    Blocks still equal the per-edge and per-slot references trial by
    trial, uniform for uniform, and the tests check that edges were
    skipped."""

    TREES = {
        # spine edge j has length 2^-(j+1): an identity for a two-state
        # chain past j = 38, and for TKF91 past j = 52
        "figure1": lambda: generate_family("figure1", {"k": 70})[69],
        # a hub 1e-20 below the root with 20 long and 20 identity twigs,
        # and an identity leaf below a moving vertex: a block's TKF91 leaf
        # batch goes to evolve_lanes 16 edges at a time, so it holds
        # moving, mixed and identity-only groups
        "twigs": lambda: Tree("r", [
            ("r", "a", 0.5), ("a", "b", 1e-20), ("r", "h", 1e-20),
            *((("h", f"x{i:02d}", 0.4 if i < 20 else 1e-20)
               for i in range(40)))]),
        # a spine whose identity runs, of 2 and 20 depths, lie between
        # moving depths, a leaf on each spine vertex: TKF91 draws each
        # run as one batch, the long one in two groups at BLOCK trials
        "runs": lambda: Tree("s0", [
            *((f"s{j}", f"s{j + 1}", t) for j, t in enumerate(
                [0.5, 1e-20, 1e-20, 0.3, *[1e-20] * 20, 0.4, 1e-20])),
            *((f"s{j}", f"y{j}", 0.2) for j in range(26))]),
    }

    @staticmethod
    def plan(tree):
        # stretched identity and moving leaves, at and past DURATION_TOL
        chosen = tree.leaves[::3]
        durations = [(0.3, 0.0, 1e-13, 2e-12)[i % 4]
                     for i in range(len(chosen))]
        return StretchPlan(0.1, 2.0, len(chosen), chosen,
                           tuple(durations))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("kind", sorted(TREES))
    def test_chain_blocks_match_per_edge_walk(self, kind, n):
        tree, Q = self.TREES[kind](), (two_state_symmetric(1.0) if n == 2
                                       else jukes_cantor(1.0, 3))
        compiled = _compile(tree, Q)
        drawn = sum(len(children) for children, *_ in compiled.levels)
        assert 0 < drawn < len(tree.topo_order) - 1
        assert drawn == sum(a == v for v, a in enumerate(compiled.alias)) - 1
        plan, step = self.plan(tree), partial(chain_step, Q)
        draw = lambda rng: int(rng.integers(n)) + 1
        width = len(tree.topo_order) - 1 + sum(
            d > DURATION_TOL for d in plan.durations)
        blocks = list(simulated_trials(tree, Q, block_draw(draw), (n, 70),
                                       BLOCK + 20, stretch=plan))
        for i, block in enumerate(blocks):
            ref = np.random.default_rng([n, 70, i])
            roots = [draw(ref) for _ in range(BLOCK)]
            u = ref.random((BLOCK, width))
            assert block.roots == roots[:len(block.roots)]
            for b in range(len(block.roots)):
                row = uniform_row(u[b])
                leaves = tree_per_edge(tree, step, roots[b], row)
                assert block.leaves[b].tolist() == [leaves[x]
                                                    for x in tree.leaves]
                assert block.stretched[b].tolist() == [
                    step(leaves[x], d, row) if d > DURATION_TOL else leaves[x]
                    for x, d in zip(plan.leaves, plan.durations)]
            assert block.rng.random() == ref.random()

    @pytest.mark.parametrize("kind", sorted(TREES))
    def test_tkf91_blocks_match_per_slot_reference(self, kind, monkeypatch):
        tree, P = self.TREES[kind](), Tkf91Params(nu=1.0, lam=0.5, mu=1.0)
        lanes = []
        real = tkf91.evolve_lanes
        monkeypatch.setattr(tkf91, "evolve_lanes", lambda *a: lanes.append(
            len(a[2])) or real(*a))
        plan, draw = self.plan(tree), partial(stationary_sample, P)
        stretched = sum(d > DURATION_TOL for d in plan.durations)
        blocks = list(simulated_trials(tree, P, block_draw(draw), (5, 70),
                                       BLOCK + 20, stretch=plan))
        edges = len(tree.topo_order) - 1 + stretched
        assert 0 < sum(lanes) < edges * (BLOCK + 20)
        for i, block in enumerate(blocks):
            ref = np.random.default_rng([5, 70, i])
            roots = [draw(ref) for _ in range(len(block.roots))]
            leaves, picks = tkf91_tree_reference(tree, P, roots, ref, plan)
            assert [trial[1:] for trial in block.trials(tree)] == list(
                zip(roots, leaves))
            assert block.keys.states(block.stretched) == picks
            assert block.rng.random() == ref.random()


class TestExactLeafLaw:
    def test_single_edge_is_row(self):
        t = Tree("rho", [("rho", "x", 0.8)])
        Q = two_state_symmetric(1.0)
        law = exact_leaf_law(t, Q, 1)
        P = transition_matrix(Q, 0.8)
        assert law.mass((1,)) == pytest.approx(P[0, 0], abs=1e-12)
        assert law.mass((2,)) == pytest.approx(P[0, 1], abs=1e-12)

    def test_two_leaf_star_is_product(self):
        t = Tree("rho", [("rho", "a", 0.4), ("rho", "b", 0.4)])
        Q = two_state_symmetric(1.0)
        law = exact_leaf_law(t, Q, 1)
        P = transition_matrix(Q, 0.4)
        for x in (1, 2):
            for y in (1, 2):
                assert law.mass((x, y)) == pytest.approx(
                    P[0, x - 1] * P[0, y - 1], abs=1e-12)

    def test_pinched_star_two_term_sum(self):
        t = pinched2()
        Q = two_state_symmetric(1.0)
        law = exact_leaf_law(t, Q, 1)
        Ps = transition_matrix(Q, 0.5)
        for x in (1, 2):
            for y in (1, 2):
                expect = sum(Ps[0, w - 1] * Ps[w - 1, x - 1] * Ps[w - 1, y - 1]
                             for w in (1, 2))
                assert law.mass((x, y)) == pytest.approx(expect, abs=1e-12)

    def test_against_naive_enumeration(self):
        rng = np.random.default_rng(12)
        trees = [
            pinched2(),
            Tree("rho", [("rho", "a", 0.2), ("a", "b", 0.3),
                         ("a", "x", 0.8), ("b", "y", 0.5), ("b", "z", 0.5)]),
            generate_family("figure1", {"k": 2, "h": 1.0})[1],
        ]
        for tree in trees:
            q = rng.uniform(0.2, 1.5, size=(3, 3))
            np.fill_diagonal(q, 0.0)
            np.fill_diagonal(q, -q.sum(axis=1))
            Q = RateMatrix(q)
            for i in (1, 3):
                law = exact_leaf_law(tree, Q, i)
                oracle = naive_leaf_law(tree, Q, i)
                for key, p in oracle.items():
                    assert law.mass(key) == pytest.approx(p, abs=1e-10)

    def test_size_guard(self):
        t = generate_family("star", {"k": 25, "h": 1.0})[24]
        with pytest.raises(CtmcError):
            exact_leaf_law(t, jukes_cantor(1.0), 1)

    def test_empirical_convergence(self):
        t = pinched2()
        Q = two_state_symmetric(1.0)
        law = exact_leaf_law(t, Q, 1)
        n = 10 ** 5
        rows, hits = np.unique(fixed_root_rows(t, Q, 1, (6,), n), axis=0,
                               return_counts=True)
        emp = {law.outcome_of(dict(zip(t.leaves, row))): c
               for row, c in zip(rows.tolist(), hits.tolist())}
        tv = 0.5 * sum(abs(emp.get(k, 0) / n - p)
                       for k, p in law.probs.items())
        assert tv < 0.02


def random_rate_matrix(rng, n):
    q = rng.uniform(0.1, 2.0, size=(n, n))
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return RateMatrix(q)


def caterpillar(depth, length=0.5):
    """A spine of ``depth`` edges with one pendant leaf per spine vertex."""
    edges = [(f"s{i}", f"s{i + 1}", length) for i in range(depth)]
    edges += [(f"s{i}", f"x{i}", length) for i in range(1, depth)]
    return Tree("s0", edges)


class TestLeafLikelihoods:
    TREES = {
        "single_vertex": lambda: Tree("a", []),
        "single_edge": lambda: Tree("rho", [("rho", "x", 0.8)]),
        "star": lambda: generate_family("star", {"k": 5})[4],
        "pinched": lambda: pinched2(),
        "caterpillar": lambda: Tree("rho", [
            ("rho", "a", 0.2), ("a", "b", 0.3), ("a", "x", 0.8),
            ("b", "y", 0.5), ("b", "z", 0.5)]),
        "caterpillar_6": lambda: caterpillar(6),
        "figure1": lambda: generate_family("figure1", {"k": 6})[5],
        "random_ultrametric": lambda: generate_family(
            "random_ultrametric", {"k": 8}, seed=7)[7],
    }

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("kind", sorted(TREES))
    def test_matches_enumeration(self, kind, n):
        tree = self.TREES[kind]()
        rng = np.random.default_rng([n, len(tree.leaves)])
        Q = random_rate_matrix(rng, n)
        laws = [exact_leaf_law(tree, Q, i) for i in Q.states]
        # a separate stream for the MAP inputs leaves the observations be
        map_rng = np.random.default_rng([n, len(tree.leaves), 1])
        prior = Distribution(dict(zip(Q.states, map_rng.dirichlet(
            np.ones(n)))))
        for _ in range(20):
            obs = dict(zip(tree.leaves,
                           rng.integers(1, n + 1, len(tree.leaves)).tolist()))
            enum = np.array([law.mass(law.outcome_of(obs)) for law in laws])
            lik = leaf_likelihoods(tree, Q, obs)
            assert np.abs(lik / lik.sum() - enum / enum.sum()).max() < 1e-12
            lam = map_rng.permutation(Q.states)[
                :map_rng.integers(1, n + 1)].tolist()
            post = {i: prior.mass(i) * enum[i - 1] for i in Q.states}
            for subset in (lam, None):
                got = map_estimate(tree, Q, prior, obs, subset)
                # the label-ordered argmax of the enumerated posterior
                expected = max(sorted(subset or Q.states), key=post.get)
                # only a tie between the two best root states may differ
                assert got == expected or post[got] == pytest.approx(
                    post[expected], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("kind", sorted(TREES))
    def test_block_rows_equal_one_row_calls(self, kind, n):
        tree = self.TREES[kind]()
        rng = np.random.default_rng([n, len(tree.leaves), 2])
        Q = random_rate_matrix(rng, n)
        rows = rng.integers(1, n + 1, (37, len(tree.leaves)))
        block = block_leaf_likelihoods(tree, Q, rows)
        one = np.array([leaf_likelihoods(tree, Q, dict(zip(tree.leaves, r)))
                        for r in rows.tolist()])
        assert block.shape == (37, n)
        assert np.abs(block - one).max() <= 1e-12

    def test_impossible_observation_is_all_zero(self):
        Q = RateMatrix(np.zeros((2, 2)))
        tree = pinched2()
        assert not leaf_likelihoods(tree, Q, {"a": 1, "b": 2}).any()

    def test_deep_caterpillar_neither_recurses_nor_underflows(self):
        # 3000 pendant leaves: the unscaled product is below 1e-900
        tree = caterpillar(3000)
        Q = two_state_symmetric(1.0)
        rng = np.random.default_rng(3)
        obs = simulate(tree, Q, 1, rng)
        lik = leaf_likelihoods(tree, Q, obs)
        assert np.isfinite(lik).all() and lik.max() == 1.0
        # every leaf in state 1 favours root state 1
        lik = leaf_likelihoods(tree, Q, {x: 1 for x in tree.leaves})
        assert lik[0] == 1.0 and 0.0 <= lik[1] < 1.0


class TestExactLeafTv:
    def test_same_root_zero(self):
        t = pinched2()
        assert exact_leaf_tv(t, two_state_symmetric(1.0), 1, 1) == 0.0

    def test_single_edge_closed_form(self):
        t = Tree("rho", [("rho", "x", 1.0)])
        assert exact_leaf_tv(t, two_state_symmetric(1.0), 1, 2) == \
            pytest.approx(math.exp(-2.0), abs=1e-10)

    def test_figure1_prefix_nondecreasing(self):
        Q = two_state_symmetric(1.0)
        fam = generate_family("figure1", {"k": 6, "h": 1.0})
        tvs = [exact_leaf_tv(fam[k], Q, 1, 2) for k in range(6)]
        assert all(tvs[i + 1] >= tvs[i] - 1e-12 for i in range(5))
        assert tvs[-1] <= 1.0

    def test_data_processing_single_leaf(self):
        # joint-leaf TV dominates any single leaf's marginal TV
        t = pinched2()
        Q = two_state_symmetric(1.0)
        joint = exact_leaf_tv(t, Q, 1, 2)
        P = transition_matrix(Q, 1.0)
        marginal = 0.5 * np.abs(P[0] - P[1]).sum()
        assert joint >= marginal - 1e-12


class TestSimulatedTrials:
    @staticmethod
    def run(key, stop, start=0):
        t = generate_family("figure1", {"k": 8, "h": 1.0})[7]
        Q = jukes_cantor(1.0)
        # the last entry is where the estimator would continue the stream
        return [(i, root, leaves, block.rng.random())
                for block in simulated_trials(
                    t, Q, block_draw(lambda rng: int(rng.integers(4)) + 1),
                    key, stop, start)
                for i, root, leaves in block.trials(t)]

    def test_split_range_yields_the_same_trials(self):
        # a split on a block boundary, and any shorter run, give the same
        # trials: a short last block draws as much as a full one
        whole = self.run((5,), 2 * BLOCK + 3)
        assert [row[0] for row in whole] == list(range(2 * BLOCK + 3))
        for cut in (BLOCK, 2 * BLOCK):
            assert (self.run((5,), cut)
                    + self.run((5,), 2 * BLOCK + 3, start=cut)) == whole
        for stop in (1, 11, BLOCK + 7):
            assert self.run((5,), stop) == whole[:stop]

    def test_block_b_reads_the_substream_key_then_b(self):
        # block b: BLOCK roots, then one uniform array, then the estimators'
        # draws in trial order, all from the generator seeded [*key, b]
        t = generate_family("figure1", {"k": 8, "h": 1.0})[7]
        Q = jukes_cantor(1.0)
        rows = self.run((5, 3), BLOCK + 4)
        for b, block in enumerate((rows[:BLOCK], rows[BLOCK:])):
            rng = np.random.default_rng([5, 3, b])
            roots = [int(rng.integers(4)) + 1 for _ in range(BLOCK)]
            u = rng.random((BLOCK, len(t.topo_order) - 1))
            for (i, root, leaves, after), r, us in zip(block, roots, u):
                assert root == r
                assert leaves == tree_per_edge(t, partial(chain_step, Q),
                                               root, uniform_row(us))
                assert after == rng.random()
