import math
import time

import pytest

from oracles import (big_bang_profile, eager_random_ultrametric,
                     extract_well_spread_restriction, layout, restrict,
                     shared_path_length, spread, stretch_to_height,
                     to_newick, validate_family)
from rootrec.tree import (Tree, TreeError, chosen_leaves, generate_family,
                          parse_newick, truncate)
from rootrec.tree import _figure1_edges


def star3():
    return Tree("rho", [("rho", "a", 1.0), ("rho", "b", 1.0),
                        ("rho", "c", 1.0)])


def pinched(s=0.5, h=1.0, leaves=("a", "b", "c")):
    edges = [("rho", "v", s)]
    edges += [("v", x, h - s) for x in leaves]
    return Tree("rho", edges)


def caterpillar():
    return Tree("rho", [("rho", "a", 0.2), ("a", "b", 0.3),
                        ("a", "x", 0.8), ("b", "y", 0.5), ("b", "z", 0.5)])


class TestTreeBasics:
    def test_positive_lengths_required(self):
        with pytest.raises(TreeError):
            Tree("rho", [("rho", "a", 0.0)])
        with pytest.raises(TreeError):
            Tree("rho", [("rho", "a", -1.0)])

    @pytest.mark.parametrize("length", [math.inf, math.nan])
    def test_finite_lengths_required(self, length):
        with pytest.raises(TreeError):
            Tree("rho", [("rho", "a", 1.0), ("rho", "b", length)])

    def test_cycle_rejected(self):
        with pytest.raises(TreeError):
            Tree("rho", [("rho", "a", 1.0), ("a", "rho", 1.0)])

    def test_cycle_off_the_root_rejected(self):
        with pytest.raises(TreeError):
            Tree("rho", [("rho", "a", 1.0), ("b", "c", 1.0),
                         ("c", "b", 1.0)])

    def test_disconnected_rejected(self):
        with pytest.raises(TreeError):
            Tree("rho", [("rho", "a", 1.0), ("x", "y", 1.0)])

    def test_long_path_builds_in_linear_time(self):
        # a check walking each vertex to the root is quadratic here
        edges = [(f"p{i}", f"p{i + 1}", 1.0) for i in range(20000)]
        start = time.perf_counter()
        t = Tree("p0", edges)
        assert time.perf_counter() - start < 2.0
        assert t.leaves == ("p20000",)
        assert t.height == 20000.0

    def test_two_parents_rejected(self):
        with pytest.raises(TreeError):
            Tree("rho", [("rho", "a", 1.0), ("rho", "b", 1.0),
                         ("b", "a", 1.0)])

    def test_depths(self):
        t = caterpillar()
        assert t.depth["y"] == pytest.approx(1.0)
        assert t.depth["x"] == pytest.approx(1.0)
        assert t.height == pytest.approx(1.0)


class TestSharedPathLength:
    def test_star_pairs_share_nothing(self):
        t = star3()
        assert shared_path_length(t, "a", "b") == 0.0
        assert shared_path_length(t, "b", "c") == 0.0

    def test_pinched_star_shares_pinch_edge(self):
        t = pinched(0.5)
        assert shared_path_length(t, "a", "b") == pytest.approx(0.5)

    def test_caterpillar_prefix(self):
        t = caterpillar()
        assert shared_path_length(t, "x", "y") == pytest.approx(0.2)
        assert shared_path_length(t, "y", "z") == pytest.approx(0.5)

    def test_same_leaf_rejected(self):
        with pytest.raises(TreeError):
            shared_path_length(star3(), "a", "a")


def pairwise_spread(tree):
    """Test-only oracle: min(shared path length, 1) averaged over ordered
    pairs of distinct leaves, each pair's ancestor found by walking up."""
    def ancestors(x):
        out = [x]
        while out[-1] != tree.root:
            out.append(tree.parent[out[-1]])
        return out

    leaves = tree.leaves
    total = 0.0
    for i, x in enumerate(leaves):
        above_x = set(ancestors(x))
        for y in leaves[i + 1:]:
            lca = next(u for u in ancestors(y) if u in above_x)
            total += 2.0 * min(tree.depth[lca], 1.0)
    return total / (len(leaves) * (len(leaves) - 1))


class TestSpread:
    TREES = {
        "star": star3,
        "pinched": pinched,
        "caterpillar": caterpillar,
        "pinched_above_one": lambda: pinched(2.0, h=3.0,
                                             leaves=("a", "b", "c", "d")),
        "figure1": lambda: generate_family("figure1", {"k": 12})[11],
        "figure2": lambda: generate_family("figure2", {"k": 9})[8],
        "random_ultrametric": lambda: generate_family(
            "random_ultrametric", {"k": 60}, seed=2)[59],
        "random_ultrametric_h3": lambda: generate_family(
            "random_ultrametric", {"k": 60, "h": 3.0}, seed=5)[59],
    }

    @pytest.mark.parametrize("kind", sorted(TREES))
    def test_matches_pairwise_oracle(self, kind):
        t = self.TREES[kind]()
        assert abs(spread(t) - pairwise_spread(t)) <= 1e-12

    def test_star_zero(self):
        assert spread(star3()) == 0.0

    def test_pinched_star(self):
        assert spread(pinched(0.3)) == pytest.approx(0.3)

    def test_capped_at_one(self):
        t = pinched(2.0, h=3.0, leaves=("a", "b"))
        assert spread(t) == pytest.approx(1.0)

    def test_single_leaf_rejected(self):
        with pytest.raises(TreeError):
            spread(Tree("rho", [("rho", "a", 1.0)]))


class TestTruncate:
    def test_below_pinch_single_point(self):
        assert len(truncate(pinched(0.5), 0.2)) == 1

    def test_above_pinch_three_points(self):
        assert len(truncate(pinched(0.5), 0.7)) == 3

    def test_beyond_height_gives_leaves(self):
        t = caterpillar()
        pts = truncate(t, 5.0)
        assert sorted(p.vertex for p in pts) == ["x", "y", "z"]

    def test_vertex_depth_coincidence_counted_once(self):
        # boundary exactly at the pinch vertex: one point, not one per child
        assert len(truncate(pinched(0.5), 0.5)) == 1

    def test_nonpositive_s_rejected(self):
        with pytest.raises(TreeError):
            truncate(star3(), 0.0)


class TestRestrict:
    def test_full_leafset_identity(self):
        t = caterpillar()
        assert restrict(t, t.leaves) == t

    def test_single_leaf_path_merged(self):
        r = restrict(pinched(0.5), ["a"])
        assert r.leaves == ("a",)
        assert r.depth["a"] == pytest.approx(1.0)
        assert r.parent["a"] == "rho"

    def test_caterpillar_pair_keeps_prefix(self):
        r = restrict(caterpillar(), ["y", "z"])
        assert sorted(r.leaves) == ["y", "z"]
        assert shared_path_length(r, "y", "z") == pytest.approx(0.5)

    def test_idempotent(self):
        t = caterpillar()
        r = restrict(t, ["x", "y"])
        assert restrict(r, ["x", "y"]) == r

    def test_deeper_than_recursion_limit(self):
        n = 3000
        edges = [(f"s{i}", f"s{i + 1}", 1.0) for i in range(n)]
        edges += [(f"s{i}", f"x{i}", 1.0) for i in range(n)]
        t = Tree("s0", edges)
        assert restrict(t, t.leaves) == t
        r = restrict(t, [f"x{n - 1}", f"s{n}"])
        assert r.parent == {f"s{n - 1}": "s0", f"x{n - 1}": f"s{n - 1}",
                            f"s{n}": f"s{n - 1}"}
        assert r.depth[f"s{n}"] == n

    def test_unknown_leaf_rejected(self):
        with pytest.raises(TreeError):
            restrict(star3(), ["nope"])
        with pytest.raises(TreeError):
            restrict(star3(), [])


class TestWellSpreadExtraction:
    def test_star_unchanged(self):
        r = extract_well_spread_restriction(star3(), 0.5)
        assert sorted(r.leaves) == ["a", "b", "c"]
        assert spread(r) == 0.0

    def test_pinched_small_s_single_leaf(self):
        r = extract_well_spread_restriction(pinched(0.5), 0.2)
        assert r.leaves == ("a",)  # smallest label wins

    def test_leaf_count_matches_boundary(self):
        fam = generate_family("figure2", {"k": 8, "n_spine": 3, "h": 1.0})
        t = fam[7]
        for s in (0.1, 0.3):
            r = extract_well_spread_restriction(t, s)
            assert len(r.leaves) == len(truncate(t, s))
            if len(r.leaves) >= 2:
                assert spread(r) <= s + 1e-12


class TestStretch:
    def test_already_at_height_unchanged(self):
        t = pinched(0.5)
        assert stretch_to_height(t, 1.0) == t

    def test_single_edge(self):
        t = Tree("rho", [("rho", "a", 0.4)])
        assert stretch_to_height(t, 1.0).depth["a"] == pytest.approx(1.0)

    def test_two_leaf_star_depths_equalized(self):
        t = Tree("rho", [("rho", "a", 0.3), ("rho", "b", 0.8)])
        st = stretch_to_height(t, 1.0)
        assert st.depth["a"] == pytest.approx(1.0)
        assert st.depth["b"] == pytest.approx(1.0)
        assert spread(st) == 0.0

    def test_shared_paths_preserved(self):
        t = caterpillar()
        st = stretch_to_height(t, 2.0)
        for x in t.leaves:
            for y in t.leaves:
                if x < y:
                    assert shared_path_length(st, x, y) == pytest.approx(
                        shared_path_length(t, x, y))

    def test_below_height_rejected(self):
        with pytest.raises(TreeError):
            stretch_to_height(caterpillar(), 0.5)


class TestFamilies:
    def test_star_family(self):
        fam = generate_family("star", {"k": 5, "h": 1.0})
        assert len(fam[4].leaves) == 5
        assert spread(fam[4]) == 0.0
        assert validate_family(fam) == []

    def test_figure1_attachment_depths(self):
        fam = generate_family("figure1", {"k": 3, "h": 1.0})
        t = fam[2]
        assert t.depth["v0001"] == pytest.approx(0.5)
        assert t.depth["v0002"] == pytest.approx(0.25)
        assert t.depth["v0003"] == pytest.approx(0.125)
        assert all(t.depth[x] == pytest.approx(1.0) for x in t.leaves)

    def test_figure1_truncation_count(self):
        fam = generate_family("figure1", {"k": 3, "h": 1.0})
        assert len(truncate(fam[2], 0.3)) == 3

    def test_pinched_star_family_geometry(self):
        fam = generate_family("pinched_star", {"m": 101, "s": 0.05, "h": 1.0})
        t = fam[100]
        assert len(t.leaves) == 101
        assert spread(t) == pytest.approx(0.05)

    def test_families_nested(self):
        for kind, params in [("star", {"k": 6, "h": 1.0}),
                             ("pinched_star", {"m": 6, "s": 0.1, "h": 1.0}),
                             ("figure1", {"k": 6, "h": 1.0}),
                             ("figure2", {"k": 6, "n_spine": 3, "h": 1.0}),
                             ("random_ultrametric", {"k": 8, "h": 1.0})]:
            fam = generate_family(kind, params, seed=3)
            assert validate_family(fam) == [], kind
        one = Tree("rho", [("rho", "a", 1.0)])
        for trees, problem in [
                ([one, Tree("rho", [("rho", "a", 2.0), ("rho", "b", 2.0)])],
                 "restriction to tree 0 leaves differs from it"),
                ([one, Tree("x", [("x", "a", 1.0), ("x", "b", 1.0)])],
                 "root differs from tree 0"),
                ([one, Tree("rho", [("rho", c, 1.0) for c in "abc"])],
                 "adds 2 leaves instead of 1"),
                ([one, Tree("rho", [("rho", "b", 1.0), ("rho", "c", 1.0)])],
                 "leaf set not nested")]:
            assert validate_family(trees) == [
                f"tree 1: {problem}"]

    @pytest.mark.parametrize("kind,params", [
        ("star", {"h": 1.0}), ("pinched_star", {"s": 0.1, "h": 1.0}),
        ("figure1", {"h": 1.0}), ("figure2", {"n_spine": 3, "h": 1.0}),
        ("random_ultrametric", {"h": 1.0})])
    def test_member_j_is_the_last_tree_of_size_j(self, kind, params):
        # a config names a tree by k alone: member j of a larger family
        # is the last member of the family of size j, edge for edge
        fam = generate_family(kind, {**params, "k": 60}, seed=3)
        for j in (1, 2, 7, 30, 60):
            last = generate_family(kind, {**params, "k": j}, seed=3)[-1]
            member = fam[j - 1]
            assert (member.root, member.topo_order, member.leaves) == \
                (last.root, last.topo_order, last.leaves)
            assert list(member.parent.items()) == list(last.parent.items())
            assert list(member.length.items()) == list(last.length.items())
            assert member.depth == last.depth

    def test_random_ultrametric_is_ultrametric(self):
        fam = generate_family("random_ultrametric", {"k": 10, "h": 2.0},
                              seed=1)
        t = fam[9]
        assert all(t.depth[x] == pytest.approx(2.0) for x in t.leaves)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_ultrametric_members_match_the_eager_builder(self, seed):
        h = 1.0 + seed / 2
        fam = generate_family("random_ultrametric", {"k": 50, "h": h}, seed)
        for k, eager in enumerate(eager_random_ultrametric(50, h, seed)):
            lazy = fam[k]
            # exact lengths, and the edges in the same order
            assert lazy.root == eager.root
            assert list(lazy.parent.items()) == list(eager.parent.items())
            assert list(lazy.length.items()) == list(eager.length.items())
            assert lazy.leaves == eager.leaves

    def test_random_ultrametric_members_built_on_demand(self):
        # the growth is replayed, not rebuilt for every member: O(k) for
        # the last member of k = 1075, not O(k^2) for all of them
        start = time.perf_counter()
        fam = generate_family("random_ultrametric", {"k": 1075}, seed=0)
        last = fam[-1]
        assert time.perf_counter() - start < 1.0
        assert len(last.leaves) == 1075 and fam[1074] is last

    @pytest.mark.parametrize("kind,params,name", [
        ("figure1", {"k": 1075}, "k"), ("figure1", {"m": 10 ** 6}, "k"),
        ("figure2", {"k": 2, "n_spine": 1075}, "n_spine")])
    def test_underflowing_spine_refused(self, kind, params, name):
        # spine depths 2^-j reach 0 from j = 1075 on
        with pytest.raises(TreeError, match=f"^{kind} {name} must be at "
                                            "most 1074: "):
            generate_family(kind, params)
        assert len(generate_family(kind, {**params, name: 1074})) >= 2

    @pytest.mark.parametrize("params,message", [
        ({"n_spine": 0}, "figure2 n_spine must be at least 1, got 0"),
        ({"n_spine": -3}, "figure2 n_spine must be at least 1, got -3"),
        ({"h": 0.5}, "figure2 h must exceed 0.5, got 0.5"),
        ({"h": 0.4}, "figure2 h must exceed 0.5, got 0.4")])
    def test_figure2_refusals_name_the_key(self, params, message):
        # without a spine vertex the heavy subtree hangs off no vertex,
        # and at h <= 0.5 its edges have no positive length
        with pytest.raises(TreeError) as refused:
            generate_family("figure2", {"k": 3, **params})
        assert str(refused.value) == message
        assert len(generate_family("figure2", {"k": 3, **params,
                                               "n_spine": 1, "h": 0.6})) == 3

    def test_unknown_kind(self):
        with pytest.raises(TreeError):
            generate_family("nope", {"k": 2})

    def test_members_built_on_demand(self):
        # only the indexed member is built; all 1000 would cost O(k^3)
        fam = generate_family("figure1", {"k": 1000, "h": 1.0})
        assert len(fam) == 1000
        assert fam[999] == Tree("rho", _figure1_edges(1000, 1.0))
        assert fam[-1] is fam[999]


class TestLayout:
    """The index layout that a tree records in the walk that builds it is
    the one ``oracles.layout`` reads from its dicts afterwards."""

    @staticmethod
    def check(tree):
        ref = layout(tree)
        assert tree.edge_parents == tuple(ref.parents)
        assert tree.edge_lengths == tuple(ref.lengths)
        assert tree.edge_leaves == tuple(ref.leaf_of)
        assert tree.leaf_vertices == tuple(ref.leaves)
        assert tree.generations == tuple(ref.depth)

    @pytest.mark.parametrize("kind,params", [
        ("star", {"h": 1.0}), ("pinched_star", {"s": 0.1, "h": 1.0}),
        ("figure1", {"h": 1.0}), ("figure2", {"n_spine": 3, "h": 1.0}),
        ("random_ultrametric", {"h": 1.0})])
    def test_family_members(self, kind, params):
        fam = generate_family(kind, {**params, "k": 40}, seed=3)
        for j in (1, 2, 7, 40):
            self.check(fam[j - 1])

    def test_newick_and_hand_built_trees(self):
        self.check(parse_newick("(((y:0.5,z:0.5)b:0.3,x:0.8)a:0.2)rho;"))
        self.check(caterpillar())
        one = Tree("r", [])
        self.check(one)
        assert one.leaf_vertices == (0,) and one.edge_parents == ()


class TestBigBangProfile:
    def test_star_family_counts_grow(self):
        fam = generate_family("star", {"k": 6, "h": 1.0})
        prof = big_bang_profile(fam, [0.3])
        assert prof["counts"][0.3] == [1, 2, 3, 4, 5, 6]
        assert prof["flagged"] == []

    def test_constant_family_flagged(self):
        prof = big_bang_profile([star3()] * 4, [0.5])
        assert prof["flagged"] == [0.5]

    def test_figure2_eventually_constant_near_root(self):
        fam = generate_family("figure2", {"k": 12, "n_spine": 3, "h": 1.0})
        prof = big_bang_profile(fam, [0.05])
        # attachments below depth 0.05 are fixed; the growing subtree hangs
        # deeper, so the near-root count saturates
        assert prof["flagged"] == [0.05]


class TestFigure2SpreadFloor:
    def test_spread_floor_when_truncation_saturates(self):
        # when the boundary at s0 is eventually m0 points, any growing
        # restriction family has spread bounded below by s0/m0^2
        fam = generate_family("figure2", {"k": 40, "n_spine": 3, "h": 1.0})
        t = fam[39]
        s0 = 0.05
        m0 = len(truncate(t, s0))
        floor = s0 / m0 ** 2
        assert spread(t) >= floor - 1e-12


class TestNewick:
    def test_roundtrip(self):
        t = caterpillar()
        assert parse_newick(to_newick(t)) == t

    def test_parse_named(self):
        t = parse_newick("(((y:0.5,z:0.5)b:0.3,x:0.8)a:0.2)rho;")
        assert sorted(t.leaves) == ["x", "y", "z"]
        assert t.depth["y"] == pytest.approx(1.0)

    def test_parse_unnamed_internal(self):
        t = parse_newick("(a:1.0,(b:0.5,c:0.5):0.5);")
        assert sorted(t.leaves) == ["a", "b", "c"]
        assert shared_path_length(t, "b", "c") == pytest.approx(0.5)

    def test_bad_input(self):
        with pytest.raises(TreeError):
            parse_newick("((a:1.0;")

    def test_roundtrip_deeper_than_recursion_limit(self):
        depth = 5000
        edges = [(f"s{i}", f"s{i + 1}", 0.5) for i in range(depth)]
        edges += [(f"s{i}", f"x{i}", 0.25) for i in range(1, depth)]
        t = Tree("s0", edges)
        assert parse_newick(to_newick(t)) == t


class TestChosenLeaves:
    def test_deterministic_smallest_label(self):
        fam = generate_family("figure1", {"k": 5, "h": 1.0})
        assert chosen_leaves(fam[4], 0.3) == (
            "L0000", "L0002", "L0003", "L0004", "L0005")
