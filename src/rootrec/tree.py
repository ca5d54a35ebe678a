"""Edge-weighted rooted trees.

Trees are immutable after construction.  Vertex ids are opaque strings;
every edge carries a strictly positive length (time units).  The module
provides truncation at a distance from the root, restriction to a leaf
subset, spread, well-spread restriction extraction, stretching to a
common leaf depth, nested families and their density profile, and
Newick I/O.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Sequence
from typing import NamedTuple

__all__ = [
    "Tree",
    "TreePoint",
    "NestedFamily",
    "TreeError",
    "DEPTH_TOL",
    "shared_path_length",
    "spread",
    "truncate",
    "restrict",
    "extract_well_spread_restriction",
    "stretch_to_height",
    "big_bang_profile",
    "generate_family",
    "parse_newick",
    "to_newick",
]

# Absolute tolerance for depth comparisons at truncation boundaries.
DEPTH_TOL = 1e-12


class TreeError(ValueError):
    pass


class Tree:
    """Finite rooted tree with positive edge lengths.

    Built from ``(parent, child, length)`` triples.  Derived structure
    (children lists, depths, leaf set, height) is computed once; instances
    are never mutated afterwards, so they are safe to share across
    concurrent workers.
    """

    def __init__(self, root: str, edges):
        self.root = root
        parent: dict[str, str] = {}
        length: dict[str, float] = {}
        children: dict[str, list[str]] = {root: []}
        for u, v, ln in edges:
            if not 0 < ln < math.inf:
                raise TreeError(f"edge {u}->{v} has length {ln}; lengths "
                                "must be positive and finite")
            if v in parent or v == root:
                raise TreeError(f"vertex {v} has more than one parent")
            parent[v] = u
            length[v] = float(ln)
            children.setdefault(u, []).append(v)
            children.setdefault(v, [])
        self.parent = parent
        self.length = length
        self.children = {u: tuple(sorted(cs)) for u, cs in children.items()}
        self.vertices = frozenset(children)
        depth: dict[str, float] = {root: 0.0}
        order = [root]
        stack = [root]
        while stack:
            u = stack.pop()
            for c in self.children[u]:
                depth[c] = depth[u] + length[c]
                order.append(c)
                stack.append(c)
        if len(order) < len(self.vertices):
            # every vertex but the root has one parent, so what the search
            # from the root misses lies on a cycle or in a detached piece
            lost = min(self.vertices - set(order))
            raise TreeError(f"vertex {lost} is not connected to the root "
                            "(cycle or disconnected piece)")
        self.depth = depth
        self.topo_order = tuple(order)
        self.leaves = tuple(sorted(v for v in self.vertices
                                   if not self.children[v] and v != root)
                            or ([root] if not self.children[root] else []))
        self.height = max((depth[x] for x in self.leaves), default=0.0)

    def subtree_leaves(self, v: str) -> tuple[str, ...]:
        """Leaves at or below vertex v, sorted."""
        if v not in self.vertices:
            raise TreeError(f"unknown vertex {v}")
        if not self.children[v]:
            return (v,)
        out = []
        stack = [v]
        while stack:
            u = stack.pop()
            cs = self.children[u]
            if not cs:
                out.append(u)
            else:
                stack.extend(cs)
        return tuple(sorted(out))

    def __eq__(self, other):
        if not isinstance(other, Tree):
            return NotImplemented
        # caches keyed by tree compare a tree with itself on every lookup
        if self is other:
            return True
        if self.root != other.root or self.parent.keys() != other.parent.keys():
            return False
        return all(self.parent[v] == other.parent[v]
                   and math.isclose(self.length[v], other.length[v],
                                    rel_tol=0.0, abs_tol=1e-9)
                   for v in self.parent)

    def __hash__(self):
        # identity hash: trees are immutable, caches key on the instance
        return id(self)

    def __repr__(self):
        return (f"Tree(root={self.root!r}, leaves={len(self.leaves)}, "
                f"height={self.height:.6g})")


class TreePoint(NamedTuple):
    """A point on the tree: ``offset`` along the incoming edge of ``vertex``,
    measured from the parent endpoint.  A vertex itself is represented with
    offset equal to its incoming edge length; the root has offset 0."""

    vertex: str
    offset: float


def _lca_depth(tree: Tree, x: str, y: str) -> float:
    """Depth of the lowest common ancestor of two vertices."""
    ax = {}
    u = x
    while True:
        ax[u] = tree.depth[u]
        if u == tree.root:
            break
        u = tree.parent[u]
    u = y
    while u not in ax:
        u = tree.parent[u]
    return tree.depth[u]


def shared_path_length(tree: Tree, x: str, y: str) -> float:
    """Total length of the edges shared by the root-to-x and root-to-y paths."""
    if x == y:
        raise TreeError("leaves must be distinct")
    for z in (x, y):
        if z not in tree.leaves:
            raise TreeError(f"unknown leaf {z}")
    return _lca_depth(tree, x, y)


def spread(tree: Tree) -> float:
    """Average of min(shared path length, 1) over ordered pairs of
    distinct leaves.

    A pair's shared path ends at its lowest common ancestor u.  With k_u
    leaves below u, k_u^2 - sum over children c of k_c^2 ordered pairs
    have their ancestor at u, so one bottom-up pass over the leaf counts
    sums every pair.
    """
    n = len(tree.leaves)
    if n < 2:
        raise TreeError("spread requires at least 2 leaves")
    below: dict[str, int] = {}
    total = 0.0
    for u in reversed(tree.topo_order):
        cs = tree.children[u]
        if not cs:
            below[u] = 1
            continue
        k = sum(below[c] for c in cs)
        below[u] = k
        total += (min(tree.depth[u], 1.0)
                  * (k * k - sum(below[c] ** 2 for c in cs)))
    return total / (n * (n - 1))


def truncate(tree: Tree, s: float) -> tuple[TreePoint, ...]:
    """Boundary points at distance ``s`` from the root.

    Returns the points at depth exactly s on root-to-leaf paths together
    with the leaves at depth below s.  When s reaches the height of the
    tree this is exactly the leaf set.  A boundary falling on a vertex
    yields the vertex itself, once.
    """
    if s <= 0:
        raise TreeError("truncation distance must be positive")
    points = []
    for v in tree.parent:
        du = tree.depth[tree.parent[v]]
        dv = tree.depth[v]
        if abs(dv - s) <= DEPTH_TOL:
            points.append(TreePoint(v, tree.length[v]))
        elif du < s - DEPTH_TOL < dv:
            points.append(TreePoint(v, s - du))
        elif dv < s - DEPTH_TOL and not tree.children[v]:
            points.append(TreePoint(v, tree.length[v]))
    return tuple(sorted(points))


def restrict(tree: Tree, leaf_subset) -> Tree:
    """Restriction to a leaf subset: keep only root-to-leaf paths, merging
    suppressed degree-2 vertices with summed edge lengths."""
    selected = set(leaf_subset)
    subset = sorted(selected)
    if not subset:
        raise TreeError("leaf subset must be nonempty")
    unknown = selected.difference(tree.leaves)
    if unknown:
        raise TreeError(f"unknown leaf {min(unknown)}")
    kept = set()
    for x in subset:
        u = x
        while u not in kept:
            kept.add(u)
            if u == tree.root:
                break
            u = tree.parent[u]
    kept_children = {u: [c for c in tree.children[u] if c in kept]
                     for u in kept}
    edges = []
    # depth-first with an explicit stack, so deep trees do not exhaust
    # the interpreter's recursion limit
    stack = [(tree.root, c, tree.length[c])
             for c in reversed(kept_children[tree.root])]
    while stack:
        parent_kept, v, acc = stack.pop()
        # follow chains of suppressed degree-2 vertices
        while len(kept_children[v]) == 1 and v not in selected:
            (w,) = kept_children[v]
            acc += tree.length[w]
            v = w
        edges.append((parent_kept, v, acc))
        stack.extend((v, c, tree.length[c])
                     for c in reversed(kept_children[v]))
    return Tree(tree.root, edges)


def extract_well_spread_restriction(tree: Tree, s: float) -> Tree:
    """Restriction to one descendant leaf per boundary point of the
    truncation at ``s``; the result has spread at most s."""
    return restrict(tree, chosen_leaves(tree, s))


def chosen_leaves(tree: Tree, s: float) -> tuple[str, ...]:
    """The lexicographically smallest descendant leaf of each boundary
    point of the truncation at ``s``, sorted."""
    return tuple(sorted(tree.subtree_leaves(p.vertex)[0]
                        for p in truncate(tree, s)))


def stretch_to_height(tree: Tree, h_star: float) -> Tree:
    """Lengthen every leaf edge so all leaves sit at depth ``h_star``.
    Topology, internal lengths and shared path lengths are unchanged."""
    if h_star < tree.height - DEPTH_TOL:
        raise TreeError(f"h_star={h_star} below tree height {tree.height}")
    edges = []
    for v in tree.parent:
        ln = tree.length[v]
        if not tree.children[v]:
            ln += h_star - tree.depth[v]
        edges.append((tree.parent[v], v, ln))
    return Tree(tree.root, edges)


class _LazyMembers(Sequence):
    """Members 1..k of a family, each built on first access and then kept,
    so a command that needs one member of a large family builds one."""

    def __init__(self, k: int, build):
        self._k = k
        self._build = build
        self._built: dict[int, Tree] = {}

    def __len__(self):
        return self._k

    def __getitem__(self, i):
        i = range(self._k)[i]
        tree = self._built.get(i)
        if tree is None:
            tree = self._built[i] = self._build(i + 1)
        return tree


class NestedFamily:
    """An ordered sequence of trees sharing a root, each obtained from the
    previous by adding one leaf edge."""

    def __init__(self, trees: Sequence[Tree] = ()):
        self.trees = trees

    def __len__(self):
        return len(self.trees)

    def __getitem__(self, k):
        return self.trees[k]

    def validate(self) -> list[str]:
        """Nestedness violations, one message per offending index."""
        problems = []
        for k in range(1, len(self.trees)):
            prev, cur = self.trees[k - 1], self.trees[k]
            if cur.root != prev.root:
                problems.append(f"tree {k}: root differs from tree {k - 1}")
                continue
            if len(cur.leaves) != len(prev.leaves) + 1:
                problems.append(
                    f"tree {k}: adds {len(cur.leaves) - len(prev.leaves)} "
                    "leaves instead of 1")
                continue
            if not set(prev.leaves) <= set(cur.leaves):
                problems.append(f"tree {k}: leaf set not nested")
                continue
            # restriction suppresses degree-2 vertices such as the pinch
            if restrict(cur, prev.leaves) != restrict(prev, prev.leaves):
                problems.append(f"tree {k}: restriction to tree {k - 1} "
                                "leaves differs from it")
        return problems


def big_bang_profile(family: NestedFamily, s_grid) -> dict:
    """Boundary-point counts |bd T^k(s)| for each tree and each s, with a
    heuristic flag for scales whose count is constant over the last half
    of the family.  Diagnostic only."""
    s_grid = list(s_grid)
    if not family.trees or not s_grid:
        raise TreeError("family and grid must be nonempty")
    if any(s <= 0 for s in s_grid):
        raise TreeError("grid values must be positive")
    counts = {s: [len(truncate(t, s)) for t in family.trees] for s in s_grid}
    flagged = []
    for s in s_grid:
        tail = counts[s][len(family.trees) // 2:]
        if len(family.trees) >= 2 and len(set(tail)) == 1:
            flagged.append(s)
    return {"counts": counts, "flagged": flagged}


# ---------------------------------------------------------------------------
# family generators


def _star_family(k: int, h: float) -> NestedFamily:
    return NestedFamily(_LazyMembers(k, lambda n: Tree(
        "rho", [("rho", f"L{i:04d}", h) for i in range(1, n + 1)])))


def _pinched_star_family(m: int, s: float, h: float) -> NestedFamily:
    if not 0 < s < h:
        raise TreeError("pinched star needs 0 < s < h")
    return NestedFamily(_LazyMembers(m, lambda n: Tree(
        "rho", [("rho", "pinch", s)]
        + [("pinch", f"L{i:04d}", h - s) for i in range(1, n + 1)])))


# figure1 attaches leaf j at depth 2^-j; from j = 1075 on that underflows
# to 0 and the first spine edge has length 0.  figure2 builds on the
# figure1 spine of n_spine vertices, so the same limit holds for it.
FIGURE1_MAX_K = 1074


def _spine(kind: str, name: str, n: int) -> int:
    """``n``, the vertex count of a figure1 spine, if it has a vertex and
    its depths do not underflow."""
    if n < 1:
        raise TreeError(f"{kind} {name} must be at least 1, got {n}")
    if n > FIGURE1_MAX_K:
        raise TreeError(f"{kind} {name} must be at most {FIGURE1_MAX_K}: "
                        f"deeper spine depths 2^-{name} underflow to 0")
    return n


def _figure1_edges(k: int, h: float):
    """Spine leaf at depth h plus pendant leaves attached on the spine at
    depths 2^-1 .. 2^-k, all leaves at depth h."""
    edges = []
    # spine vertices ordered by increasing depth: v_k (2^-k) .. v_1 (2^-1)
    prev, prev_depth = "rho", 0.0
    for j in range(k, 0, -1):
        d = 2.0 ** -j
        edges.append((prev, f"v{j:04d}", d - prev_depth))
        prev, prev_depth = f"v{j:04d}", d
    edges.append((prev, "L0000", h - prev_depth))
    for j in range(1, k + 1):
        edges.append((f"v{j:04d}", f"L{j:04d}", h - 2.0 ** -j))
    return edges


def _figure1_family(k: int, h: float) -> NestedFamily:
    return NestedFamily(_LazyMembers(
        k, lambda n: Tree("rho", _figure1_edges(n, h))))


def _figure2_family(k: int, n_spine: int, h: float) -> NestedFamily:
    """Fixed near-root attachments plus a growing heavy subtree hanging off
    the deepest spine vertex: the truncation near the root is eventually
    constant while the leaf count grows."""
    base = _figure1_edges(n_spine, h)
    return NestedFamily(_LazyMembers(k, lambda n: Tree(
        "rho", base + [("v0001", f"K{i:04d}", h - 0.5)
                       for i in range(1, n + 1)])))


def _random_ultrametric_family(k: int, h: float, seed: int) -> NestedFamily:
    """Member n + 1 hangs a leaf L<n+1> reaching depth h off member n: at
    a uniform depth d on the path to a uniformly chosen leaf, splitting
    the path's edge there unless d falls on its lower end.  The growth is
    drawn once, as each step's removed and added edges; a member replays
    the steps before it, so building one member is linear in its size."""
    import numpy as np

    rng = np.random.default_rng(seed)
    parent, length = {"L0001": "rho"}, {"L0001": h}
    leaves = ["L0001"]      # sorted, as Tree.leaves
    steps = []              # (removed child or None, added edges)
    counter = 0
    for n in range(2, k + 1):
        leaf = leaves[rng.integers(len(leaves))]
        d = float(rng.uniform(0.0, h))
        path = [leaf]
        while parent[path[-1]] != "rho":
            path.append(parent[path[-1]])
        # depths summed from the root, as Tree computes them
        du = 0.0
        for v in reversed(path):
            dv = du + length[v]
            if du < d <= dv:
                break
            du = dv
        else:
            steps.append((None, ()))    # d = 0 lies on no edge
            continue
        new = f"L{n:04d}"
        if abs(dv - d) <= DEPTH_TOL:
            removed, added = None, [(v, new, h - d)]
            if v == leaf:
                leaves.remove(v)
        else:
            counter += 1
            split = f"u{counter:04d}"
            removed, added = v, [(parent[v], split, d - du), (split, v, dv - d),
                                 (split, new, h - d)]
        for u, c, ln in added:
            parent[c], length[c] = u, ln
        bisect.insort(leaves, new)
        steps.append((removed, added))

    def build(n: int) -> Tree:
        # a dict keeps the builder's edge order: a split edge moves last
        edges = {"L0001": ("rho", h)}
        for removed, added in steps[:n - 1]:
            if removed is not None:
                del edges[removed]
            for u, v, ln in added:
                edges[v] = (u, ln)
        return Tree("rho", [(u, v, ln) for v, (u, ln) in edges.items()])

    return NestedFamily(_LazyMembers(k, build))


def generate_family(kind: str, params: dict, seed: int = 0) -> NestedFamily:
    """Deterministic named families.  ``kind`` is one of star, pinched_star,
    figure1, figure2, random_ultrametric.  Member j of a family of size k
    is the last member of the family of size j.  A figure1 or figure2
    spine of no vertex or of more than ``FIGURE1_MAX_K`` vertices, and a
    figure2 of h at most 0.5 (its heavy subtree's edges), are refused."""
    p = dict(params)
    k = int(p.get("k", p.get("m", 1)))
    h = float(p.get("h", 1.0))
    if k < 1 or h <= 0:
        raise TreeError("counts must be >= 1 and lengths positive")
    if kind == "star":
        return _star_family(k, h)
    if kind == "pinched_star":
        return _pinched_star_family(k, float(p.get("s", 0.05)), h)
    if kind == "figure1":
        return _figure1_family(_spine(kind, "k", k), h)
    if kind == "figure2":
        if h <= 0.5:
            raise TreeError(f"figure2 h must exceed 0.5, got {h}")
        return _figure2_family(
            k, _spine(kind, "n_spine", int(p.get("n_spine", 3))), h)
    if kind == "random_ultrametric":
        return _random_ultrametric_family(k, h, seed)
    raise TreeError(f"unknown family kind {kind!r}")


# ---------------------------------------------------------------------------
# Newick I/O


def parse_newick(text: str) -> Tree:
    """Parse a Newick string with branch lengths.  Leaf names are required;
    unnamed internal vertices get generated ids.  The parse keeps its open
    clades on an explicit stack, so deep trees do not exhaust the
    interpreter's recursion limit."""
    text = text.strip()
    if text.endswith(";"):
        text = text[:-1]
    pos = 0
    counter = 0
    # clades are (name, length or None, list of child clades)
    open_kids: list = []  # child lists of the clades whose ")" is to come
    kids: list = []       # children of the clade whose label comes next
    fresh = True          # whether that clade may still open with "("
    while True:
        if fresh:
            while pos < len(text) and text[pos] == "(":
                open_kids.append([])
                pos += 1
        start = pos
        while pos < len(text) and text[pos] not in ":,()":
            pos += 1
        name = text[start:pos].strip()
        if not name:
            if not kids:
                raise TreeError("leaf without a name in newick input")
            counter += 1
            name = f"n{counter:04d}"
        ln = None
        if pos < len(text) and text[pos] == ":":
            pos += 1
            start = pos
            while pos < len(text) and text[pos] not in ",()":
                pos += 1
            ln = float(text[start:pos])
        clade = (name, ln, kids)
        if not open_kids:
            break
        open_kids[-1].append(clade)
        if pos >= len(text):
            raise TreeError("unbalanced parentheses in newick input")
        if text[pos] == ",":
            kids, fresh = [], True
        elif text[pos] == ")":
            kids, fresh = open_kids.pop(), False
        else:
            raise TreeError(f"newick parse error at offset {pos}")
        pos += 1
    if pos != len(text):
        raise TreeError(f"trailing newick input at offset {pos}")
    edges = []
    # (parent name, clade) in preorder
    stack = [(clade[0], kid) for kid in reversed(clade[2])]
    while stack:
        parent, (name, ln, kids) = stack.pop()
        if ln is None:
            raise TreeError(f"missing branch length for {name}")
        edges.append((parent, name, ln))
        stack.extend((name, kid) for kid in reversed(kids))
    return Tree(clade[0], edges)


def to_newick(tree: Tree) -> str:
    out = []
    # vertices still to write, as 1-tuples, interleaved with the text that
    # follows them; an explicit stack, as in parse_newick
    stack: list = [";", (tree.root,)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        (v,) = item
        cs = tree.children[v]
        if not cs:
            out.append(v)
            continue
        out.append("(")
        stack.append(f"){v}")
        for i, c in enumerate(reversed(cs)):
            stack.append(f":{tree.length[c]:.17g}" + ("," if i else ""))
            stack.append((c,))
    return "".join(out)
