"""Edge-weighted rooted trees.

Trees are immutable after construction and carry the index layout that
every draw reads.  Vertex ids are opaque strings; every edge carries a
strictly positive length (time units).  The module provides truncation
at a distance from the root and the chosen leaves of its boundary
points, nested families built a member at a time, and Newick input.
Restriction, spread, stretching, the families' density profile and
Newick output are test references (``tests/oracles.py``): no command
calls them.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Sequence
from functools import partial
from typing import NamedTuple

__all__ = [
    "Tree",
    "TreePoint",
    "NestedFamily",
    "TreeError",
    "DEPTH_TOL",
    "truncate",
    "generate_family",
    "parse_newick",
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
    concurrent workers.  The walk in ``topo_order`` also records the
    index layout that every draw reads: vertex i is ``topo_order[i]``, so
    the root is 0 and edge e's child is e + 1.  For each edge: its
    parent's index (``edge_parents``), its length (``edge_lengths``) and
    its child as a position in ``leaves`` if that is a leaf, else None
    (``edge_leaves``); each leaf's index, in ``leaves`` order
    (``leaf_vertices``); and each vertex's depth in edges from the root
    (``generations``).
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
        order, parents, generations = [root], [], [0]
        stack = [0]
        while stack:
            i = stack.pop()
            u = order[i]
            for c in self.children[u]:
                depth[c] = depth[u] + length[c]
                stack.append(len(order))
                order.append(c)
                parents.append(i)
                generations.append(generations[i] + 1)
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
        index = {v: i for i, v in enumerate(order)}
        position = {x: i for i, x in enumerate(self.leaves)}
        self.edge_parents = tuple(parents)
        self.edge_lengths = tuple(length[v] for v in order[1:])
        self.edge_leaves = tuple(position.get(v) for v in order[1:])
        self.leaf_vertices = tuple(index[x] for x in self.leaves)
        self.generations = tuple(generations)

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


def chosen_leaves(tree: Tree, s: float) -> tuple[str, ...]:
    """The lexicographically smallest descendant leaf of each boundary
    point of the truncation at ``s``, sorted."""
    return tuple(sorted(tree.subtree_leaves(p.vertex)[0]
                        for p in truncate(tree, s)))


class NestedFamily(Sequence):
    """Members 1..k of a family: trees sharing a root, each obtained from
    the previous by adding one leaf edge.  Member n is ``member(n)``,
    built on first access and then kept, so a command that needs one
    member of a large family builds one."""

    def __init__(self, k: int, member):
        self._k = k
        self._member = member
        self._built: dict[int, Tree] = {}

    def __len__(self):
        return self._k

    def __getitem__(self, i):
        i = range(self._k)[i]
        tree = self._built.get(i)
        if tree is None:
            tree = self._built[i] = self._member(i + 1)
        return tree


# ---------------------------------------------------------------------------
# family members: each kind's member n, given the kind's parameters


def _star(h: float, n: int) -> Tree:
    return Tree("rho", [("rho", f"L{i:04d}", h) for i in range(1, n + 1)])


def _pinched_star(s: float, h: float, n: int) -> Tree:
    return Tree("rho", [("rho", "pinch", s)]
                + [("pinch", f"L{i:04d}", h - s) for i in range(1, n + 1)])


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


def _figure1(h: float, n: int) -> Tree:
    return Tree("rho", _figure1_edges(n, h))


def _figure2(spine: list, h: float, n: int) -> Tree:
    """Fixed near-root attachments (the figure1 ``spine``) plus a growing
    heavy subtree hanging off the deepest spine vertex: the truncation
    near the root is eventually constant while the leaf count grows."""
    return Tree("rho", spine + [("v0001", f"K{i:04d}", h - 0.5)
                                for i in range(1, n + 1)])


def _random_ultrametric(k: int, h: float, seed: int):
    """The member builder of a family of k: member n + 1 hangs a leaf
    L<n+1> reaching depth h off member n, at a uniform depth d on the
    path to a uniformly chosen leaf, splitting the path's edge there
    unless d falls on its lower end.  The growth is drawn once, as each step's
    removed and added edges; a member replays the steps before it, so
    building one member is linear in its size."""
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

    return build


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
        member = partial(_star, h)
    elif kind == "pinched_star":
        s = float(p.get("s", 0.05))
        if not 0 < s < h:
            raise TreeError("pinched star needs 0 < s < h")
        member = partial(_pinched_star, s, h)
    elif kind == "figure1":
        _spine(kind, "k", k)
        member = partial(_figure1, h)
    elif kind == "figure2":
        if h <= 0.5:
            raise TreeError(f"figure2 h must exceed 0.5, got {h}")
        member = partial(_figure2, _figure1_edges(
            _spine(kind, "n_spine", int(p.get("n_spine", 3))), h), h)
    elif kind == "random_ultrametric":
        member = _random_ultrametric(k, h, seed)
    else:
        raise TreeError(f"unknown family kind {kind!r}")
    return NestedFamily(k, member)


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
