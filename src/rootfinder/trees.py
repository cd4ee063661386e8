"""Tree representations and subtree-size machinery.

Two views of a tree on vertices 1..n:

* :class:`GrowthTree` — the chronologically labeled tree produced by an
  attachment process, stored as a parent array with ``parent[i] < i``.
* :class:`ShapeTree` — an unlabeled observed tree; labels 1..n are opaque.
  It keeps its n-1 edges as two endpoint arrays, as they were given, and
  reads degrees and walks straight off them.

All structures are immutable after construction and safe to share across
worker processes.  A tree oriented away from a root is a
:class:`LevelWalk`, and the estimators read subtree sizes off it rather
than re-deriving them: ``size(w -> u)``, the component of u once w is
deleted, is ``subtree_sizes(shape, w).down_size[u]``.

Two walks orient a tree away from vertex 1, and one turns a walk round.
The two walks only find an order and the parents, and
:meth:`LevelWalk.from_order` sums the subtree sizes bottom-up, one
scatter-add per level or one loop over a topological order:

* the peel (``_peel_walk``) strips a shape's leaves round by round with
  numpy, from each vertex's degree and the sum of its neighbours' ids, so
  it needs no adjacency.  :func:`build_shape` makes it as its tree check,
  and the shape keeps it (:attr:`ShapeTree.walk_from_1`) for the ``psi``
  and ``phi`` scores and every rooted view.
* the growth walk (``_growth_walk``) orients a :class:`GrowthTree` from
  vertex 1 without building a shape: depths come from pointer jumping on
  ``parent``, levels from a small-integer sort of the depths.  The Monte
  Carlo trials score each sampled tree on it (:attr:`GrowthTree.walk`)
  before, and mostly instead of, relabelling it.
* :meth:`LevelWalk.reroot` orients the tree from any other vertex u by
  turning round only the path from u up to the walk's root, where each
  vertex takes the one before it as parent, and n less that one's old
  size as its own.  It is how
  :func:`subtree_sizes` roots a shape anywhere, and so how
  ``canonical_code``, ``aut_log`` and the oracles see each rooted view.

A tree with many narrow levels, such as a path, leaves the two numpy walks
for a topological order without levels (the rest of the peel done in a
loop, or label order for a growth tree), so deep trees stay linear.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadSizeError,
    CycleOrDisconnectedError,
    DuplicateEdgeError,
    SelfLoopError,
)
from .rng import as_generator

# the numpy walks hand a tree with more than this many levels narrower than
# this to a loop: there numpy's per-call cost outweighs the loop's
_NARROW = 64
# build_shape's duplicate test packs an edge into lo * (n + 1) + hi in int64
_KEY_LIMIT = 2**31

__all__ = [
    "GrowthTree",
    "ShapeTree",
    "LevelWalk",
    "build_shape",
    "shape_of_growth",
    "forget_labels",
    "label_permutation",
    "subtree_sizes",
    "read_edge_list",
    "write_edge_list",
    "read_growth",
    "write_growth",
    "format_growth",
]


@dataclass(frozen=True)
class GrowthTree:
    """Chronologically labeled tree: vertex i+1 attached to ``parent[i+1]``.

    ``parent`` has length n+1; slots 0 and 1 are unused (vertex 1 is the
    root/first vertex).  ``parent[i] < i`` for every i in 2..n, which is
    exactly the increasing-labeling property.
    """

    parent: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.parent, dtype=np.int64)
        object.__setattr__(self, "parent", p)
        n = p.shape[0] - 1
        if n < 2:
            raise BadSizeError(f"growth tree needs at least 2 vertices, got n={n}")
        idx = np.arange(2, n + 1)
        if np.any(p[2:] < 1) or np.any(p[2:] >= idx):
            raise ValueError("parent[i] must lie in 1..i-1 for every i in 2..n")
        p.flags.writeable = False

    @classmethod
    def from_attachments(cls, parents: Sequence[int]) -> "GrowthTree":
        """Build from the attachment list ``parents[j] = parent of vertex j+2``."""
        p = np.zeros(len(parents) + 2, dtype=np.int64)
        p[2:] = parents
        return cls(p)

    @property
    def n(self) -> int:
        return self.parent.shape[0] - 1

    def edges(self) -> list[tuple[int, int]]:
        return [(int(self.parent[i]), i) for i in range(2, self.n + 1)]

    def degrees(self) -> np.ndarray:
        """Degree of each vertex (index 0 unused)."""
        deg = np.bincount(self.parent[2:], minlength=self.n + 1)
        deg[2:] += 1  # every vertex but 1 has a parent edge
        return deg

    @cached_property
    def walk(self) -> "LevelWalk":
        """The growth walk from vertex 1, on the tree's own labels."""
        return _growth_walk(self.parent)


@dataclass(frozen=True)
class ShapeTree:
    """Unlabeled tree kept as its n-1 edges: edge i joins ``src[i]`` and
    ``dst[i]``, in the order they were given.  Labels carry no
    chronological meaning.

    Degrees and walks are read off the edges, and no package function
    needs more.  The CSR adjacency (:attr:`xadj`, :attr:`adjncy`: the
    neighbours of v are ``adjncy[xadj[v]:xadj[v+1]]``, slot 0 of ``xadj``
    unused) is built on first read and cached; in it, a vertex's
    neighbours come in the order of its edges, those where it is the
    ``src`` end first.
    """

    src: np.ndarray
    dst: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "src", _frozen(self.src))
        object.__setattr__(self, "dst", _frozen(self.dst))

    @property
    def n(self) -> int:
        return self.src.shape[0] + 1

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray]:
        xadj = np.zeros(self.n + 2, dtype=np.int64)
        np.cumsum(self._degrees[1:], out=xadj[2:])
        src = np.concatenate([self.src, self.dst])
        dst = np.concatenate([self.dst, self.src])
        return _frozen(xadj), _frozen(dst[np.argsort(src, kind="stable")])

    @property
    def xadj(self) -> np.ndarray:
        return self._csr[0]

    @property
    def adjncy(self) -> np.ndarray:
        return self._csr[1]

    @cached_property
    def _degrees(self) -> np.ndarray:
        deg = np.bincount(self.src, minlength=self.n + 1)
        deg += np.bincount(self.dst, minlength=self.n + 1)
        return _frozen(deg)

    def degrees(self) -> np.ndarray:
        """Degree array indexed by vertex (index 0 unused, set to 0),
        computed once per shape and read-only."""
        return self._degrees

    @cached_property
    def walk_from_1(self) -> "LevelWalk":
        """The peel from vertex 1, made once per shape and shared by
        ``psi``, ``phi`` and every :func:`subtree_sizes`."""
        return _peel_walk(self)

    def edges(self) -> list[tuple[int, int]]:
        """Undirected edges as (min, max) pairs, sorted."""
        lo = np.minimum(self.src, self.dst)
        hi = np.maximum(self.src, self.dst)
        order = np.lexsort((hi, lo))
        return list(zip(lo[order].tolist(), hi[order].tolist()))


@dataclass(frozen=True)
class LevelWalk:
    """A tree oriented away from ``root``: what a walk from it found,
    without a reference to the tree, so a tree can keep its walk from
    vertex 1 without a cycle.

    ``parent`` maps each vertex to its parent (0 for the root), and
    ``down_size[v]`` is the size of the subtree hanging below v, so
    ``down_size[root] == n`` (slot 0 holds 0).  The children of v are the
    vertices whose parent is v; the leaves are no vertex's parent.  ``order``
    lists the vertices level by level, and ``bounds`` holds where each
    level starts in it, then ``len(order)``.  The root sits alone in level
    0, and every vertex's parent lies in an earlier level, so a level's
    vertices can be handled at once.  The growth walk's levels are depths
    (by label within a level); the peel's are its rounds, last first, so
    level d holds the vertices of height h - d, where a vertex's height is
    the distance down to its deepest descendant and h is the root's.  When
    a deep tree sent the walk to a loop, or the walk was turned round to
    another root (:meth:`reroot`), it has no levels: ``bounds`` is None and
    ``order`` is only a topological order, every parent before its
    children.
    """

    root: int
    order: np.ndarray
    parent: np.ndarray
    down_size: np.ndarray
    bounds: tuple | None

    @classmethod
    def from_order(cls, root: int, order, parent, bounds: tuple | None = None) -> "LevelWalk":
        """The walk a search found (``order`` and ``parent``, arrays or
        lists), with the one bottom-up subtree-size pass behind every walk:
        a scatter-add per level, deepest first, or without ``bounds`` a loop
        over ``order`` reversed.  Unreached vertices keep size 1."""
        if bounds is None:
            down = [1] * len(parent)
            par = parent.tolist() if isinstance(parent, np.ndarray) else parent
            seq = order.tolist() if isinstance(order, np.ndarray) else order
            for v in reversed(seq):
                down[par[v]] += down[v]
        else:
            down = np.ones(len(parent), dtype=np.int64)
            for a, b in zip(reversed(bounds[:-1]), reversed(bounds[1:])):
                level = order[a:b]
                np.add.at(down, parent[level], down[level])
        down[0] = 0  # the root's parent is slot 0, which took the root's size
        return cls(root, *map(_frozen, (order, parent, down)), bounds=bounds)

    def reroot(self, u: int) -> "LevelWalk":
        """The same tree oriented away from ``u``, turned round along the
        path p_0 = u, ..., p_k = root: p_i's parent becomes p_(i-1), and its
        subtree becomes everything but p_(i-1)'s old one, of size
        n - down_size[p_(i-1)].  Off the path nothing changes.  The order is
        the path, then the old order without it, which puts every parent
        first, so the walk has no levels.  A few O(n) array passes, no
        search.  A ``u`` outside 1..n raises ValueError."""
        n = int(self.down_size[self.root])
        if not 1 <= u <= n:
            raise ValueError(f"root {u} out of range 1..{n}")
        if u == self.root:
            return self
        old = self.parent
        path = [u]
        while path[-1] != self.root:
            path.append(int(old[path[-1]]))
        path = np.array(path)
        parent = old.copy()
        parent[path[1:]] = path[:-1]
        parent[u] = 0
        down = self.down_size.copy()
        down[path[1:]] = n - self.down_size[path[:-1]]
        down[u] = n
        on_path = np.zeros(old.shape[0], dtype=bool)
        on_path[path] = True
        order = np.concatenate([path, self.order[~on_path[self.order]]])
        return LevelWalk(u, *map(_frozen, (order, parent, down)), bounds=None)

    def descend(self, first: float, step: np.ndarray) -> np.ndarray:
        """Sums down the tree: ``values[root] = first`` and
        ``values[v] = values[parent[v]] + step[v]``, one float add per
        vertex, level by level (or along ``order`` when ``bounds`` is
        None); slot 0 holds +inf."""
        values = np.full(self.parent.shape[0], np.inf)
        values[self.root] = first
        order, parent = self.order, self.parent
        if self.bounds is None:
            acc, par, inc = values.tolist(), parent.tolist(), step.tolist()
            for v in order.tolist()[1:]:
                acc[v] = acc[par[v]] + inc[v]
            return np.array(acc)
        for a, b in zip(self.bounds[1:-1], self.bounds[2:]):
            level = order[a:b]
            values[level] = values[parent[level]] + step[level]
        return values


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def build_shape(edges: Iterable[tuple[int, int]] | np.ndarray) -> ShapeTree:
    """Validate an edge list and return the ShapeTree.

    ``edges`` is an iterable of vertex pairs or an (m, 2) integer array.
    Vertex identifiers must be the integers 1..n; a float, even 2.0, raises
    ValueError rather than being truncated.  Raises SelfLoopError,
    DuplicateEdgeError, or CycleOrDisconnectedError for non-trees, checked
    in that order.  The tree check is the peel from vertex 1, which the
    shape keeps as :attr:`ShapeTree.walk_from_1`: with m = n - 1 edges,
    peeling all n - 1 other vertices proves a tree.  Only when it fails
    are the edges sorted to tell a duplicate edge from a cycle.
    """
    arr = edges if isinstance(edges, np.ndarray) else np.array(list(edges))
    if arr.size == 0:
        raise CycleOrDisconnectedError("empty edge list does not define a tree (n >= 2)")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("an edge array must have shape (m, 2)")
    if arr.dtype.kind not in "iu":  # a float id would be truncated by astype
        raise ValueError(f"vertex identifiers must be integers, not {arr.dtype}")
    arr = arr.astype(np.int64, copy=False)
    m = arr.shape[0]
    if arr.min() < 1:
        raise ValueError("vertex identifiers must be positive integers")
    a, b = arr.T.copy()
    if np.any(a == b):
        raise SelfLoopError("edge joins a vertex to itself")
    n = int(arr.max())
    if m == n - 1:
        shape = ShapeTree(a, b)
        try:
            shape.walk_from_1  # the peel is the tree check
        except CycleOrDisconnectedError:
            pass
        else:
            return shape
    _check_no_duplicates(arr, n)
    if m != n - 1:
        raise CycleOrDisconnectedError(f"{m} edges on {n} vertices is not a tree")
    raise CycleOrDisconnectedError("edge set is cyclic or disconnected")


def _check_no_duplicates(arr: np.ndarray, n: int) -> None:
    """Raise DuplicateEdgeError if two rows of ``arr`` join the same pair."""
    lo, hi = arr.min(axis=1), arr.max(axis=1)
    if n > _KEY_LIMIT:  # lo * (n + 1) + hi would overflow: number the vertices densely
        ids, dense = np.unique(arr, return_inverse=True)
        dense = dense.reshape(arr.shape)
        lo, hi, n_keys = dense.min(axis=1), dense.max(axis=1), ids.shape[0]
    else:
        n_keys = n + 1
    keys = np.sort(lo * n_keys + hi)
    if np.any(keys[1:] == keys[:-1]):
        raise DuplicateEdgeError("duplicate undirected edge")


def shape_of_growth(t: GrowthTree) -> ShapeTree:
    """The shape of a growth tree with labels kept as-is (no shuffling)."""
    return ShapeTree(np.arange(2, t.n + 1), t.parent[2:])


def label_permutation(n: int, rng) -> np.ndarray:
    """The uniformly random relabelling :func:`forget_labels` draws from
    ``rng``: old label i becomes ``perm[i-1]``."""
    return as_generator(rng).permutation(np.arange(1, n + 1))


def forget_labels(t: GrowthTree, rng=None, permutation=None):
    """Relabel a GrowthTree with a uniformly random permutation.

    Returns ``(shape, true_root)`` where ``true_root`` is the new identity
    of original vertex 1.  Pass ``permutation`` (a sequence mapping old
    label i to ``permutation[i-1]``) to fix the relabeling explicitly,
    e.g. the identity for tests, or the draw of :func:`label_permutation`.
    """
    n = t.n
    if permutation is not None:
        perm = np.asarray(permutation, dtype=np.int64)
        if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(1, n + 1)):
            raise ValueError("permutation must rearrange 1..n")
    else:
        if rng is None:
            raise ValueError("need an rng or an explicit permutation")
        perm = label_permutation(n, rng)
    relabel = np.zeros(n + 1, dtype=np.int64)
    relabel[1:] = perm
    return ShapeTree(relabel[2:], relabel[t.parent[2:]]), int(relabel[1])


# ---------------------------------------------------------------------------
# Traversal
# ---------------------------------------------------------------------------


def _peel_walk(shape: ShapeTree) -> LevelWalk:
    """Orient a shape away from vertex 1 by peeling its leaves.

    Each vertex starts with its degree and the sum of its neighbours' ids,
    so once it is down to one edge, the sum that remains is its parent.
    A round peels every current leaf but vertex 1: it takes each leaf off
    its parent's degree and sum with one scatter-subtract each, and the
    parents left with one edge are the next round's leaves (a parent of
    several leaves is kept once, where a scratch array says its last copy
    is).  The rounds, last first, are the walk's levels after the root's,
    since a vertex is peeled only after all its children.  Once more than
    ``_NARROW`` rounds have been narrower than ``_NARROW``, the tree is
    deep and numpy's per-round cost would outweigh a loop, so a loop peels
    the rest one leaf at a time; the walk then has no levels.  On anything
    but a tree some vertex never becomes a leaf, and the walk raises
    CycleOrDisconnectedError.
    """
    n = shape.n
    deg = shape.degrees().copy()
    deg[1] += n  # the root never becomes a leaf
    id_sum = np.zeros(n + 1, dtype=np.int64)
    np.add.at(id_sum, shape.src, shape.dst)
    np.add.at(id_sum, shape.dst, shape.src)
    parent = np.zeros(n + 1, dtype=np.int64)
    order = np.empty(n, dtype=np.int64)  # filled from its end, a round at a time
    last = np.empty(n + 1, dtype=np.int64)
    starts = [n]  # where each round starts in order
    narrow = 0
    leaves = np.flatnonzero(deg == 1)
    while leaves.size:
        if leaves.size < _NARROW:
            narrow += 1
            if narrow > _NARROW:
                return _peel_rest(leaves, deg, id_sum, parent, order[starts[-1] :])
        up = id_sum[leaves]
        parent[leaves] = up
        order[starts[-1] - leaves.size : starts[-1]] = leaves
        starts.append(starts[-1] - leaves.size)
        np.subtract.at(deg, up, 1)
        np.subtract.at(id_sum, up, leaves)
        hit = up.compress(deg[up] == 1)
        slot = np.arange(hit.size)
        last[hit] = slot
        leaves = hit.compress(last[hit] == slot)
    if starts[-1] != 1:
        raise CycleOrDisconnectedError("peeling stopped short of the root: not a tree")
    order[0] = 1
    return LevelWalk.from_order(1, order, parent, (0, *reversed(starts)))


def _peel_rest(leaves, deg, id_sum, parent, peeled) -> LevelWalk:
    """Finish :func:`_peel_walk` in a loop from ``leaves``, ``peeled``
    holding the vertices the rounds took, last round first."""
    d, up, par = deg.tolist(), id_sum.tolist(), parent.tolist()
    n = len(par) - 1
    stack = leaves.tolist()
    rest = []
    while stack:
        v = stack.pop()
        p = up[v]
        par[v] = p
        rest.append(v)
        d[p] -= 1
        up[p] -= v
        if d[p] == 1:
            stack.append(p)
    if 1 + len(rest) + len(peeled) != n:
        raise CycleOrDisconnectedError("peeling stopped short of the root: not a tree")
    return LevelWalk.from_order(1, [1, *reversed(rest), *peeled.tolist()], par)


def _growth_walk(parent: np.ndarray) -> LevelWalk:
    """The levels of a growth tree from vertex 1.

    ``parent[i] < i``, so no search is needed.  Each vertex's depth comes
    from pointer jumping (a vertex and the ancestor it points at add their
    distances, then it points at that ancestor's ancestor), and the levels
    from a stable sort of the depths as 16-bit keys.  A tree with more
    than ``_NARROW`` levels narrower than ``_NARROW`` (or more levels than
    the keys hold) gets label order instead, which is a topological order.
    """
    n = parent.shape[0] - 1
    par = parent.copy()
    par[:2] = 0
    up = par.copy()
    up[1] = 1
    depth = np.ones(n + 1, dtype=np.int64)
    depth[:2] = 0
    while up.max() > 1:
        depth += depth[up]
        up = up[up]
    width = np.bincount(depth[1:])
    if width.shape[0] > 2**16 or np.count_nonzero(width < _NARROW) > _NARROW:
        return LevelWalk.from_order(1, np.arange(1, n + 1), par)
    order = np.argsort(depth[1:].astype(np.uint16), kind="stable") + 1
    bounds = (0, *np.cumsum(width).tolist())
    return LevelWalk.from_order(1, order, par, bounds)


def _frozen(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64)
    arr.flags.writeable = False
    return arr


def subtree_sizes(shape: ShapeTree, root: int) -> LevelWalk:
    """The tree oriented away from ``root`` with all its subtree sizes: the
    shape's walk from vertex 1, turned round (:meth:`LevelWalk.reroot`).
    A ``root`` outside 1..n raises ValueError."""
    return shape.walk_from_1.reroot(root)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def read_edge_list(path) -> ShapeTree:
    """Edge-list text: one edge per line, two whitespace-separated positive
    integers; lines starting with '#' (and blank lines) are ignored.  Any
    other line, including one with a comment after its edge, raises
    ValueError."""
    text = Path(path).read_text()
    # np.loadtxt would drop an inline comment; a line's first '#' must open it
    i = text.find("#")
    while i >= 0:
        if text[text.rfind("\n", 0, i) + 1 : i].strip():
            line = text.count("\n", 0, i) + 1
            raise ValueError(f"line {line}: a comment may not follow an edge")
        i = text.find("\n", i)
        i = text.find("#", i) if i >= 0 else -1
    with warnings.catch_warnings():
        # a file without edges is reported by build_shape, not as a warning
        warnings.simplefilter("ignore", UserWarning)
        arr = np.loadtxt(io.StringIO(text), dtype=np.int64, comments="#", ndmin=2)
    if arr.size and arr.shape[1] != 2:
        raise ValueError(f"an edge line holds two integers, found {arr.shape[1]}")
    return build_shape(arr.reshape(-1, 2))


def write_edge_list(shape: ShapeTree, path) -> None:
    lines = [f"{u} {v}" for u, v in shape.edges()]
    Path(path).write_text("\n".join(lines) + "\n")


def read_growth(path) -> GrowthTree:
    """GrowthTree file: header line "n", then n-1 lines "i parent[i]", one
    for each i in 2..n.  A file that breaks this raises ValueError; the
    line count is checked before anything of size n is allocated."""
    lines = [ln.split() for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines or len(lines[0]) != 1:
        raise ValueError("a growth file starts with a header line holding n")
    n = int(lines[0][0])
    if len(lines) != n:
        raise ValueError(f"expected {n - 1} parent lines, found {len(lines) - 1}")
    if any(len(ln) != 2 for ln in lines[1:]):
        raise ValueError("a parent line holds two integers: i parent[i]")
    pairs = np.array(lines[1:], dtype=np.int64).reshape(-1, 2)
    if not np.array_equal(np.sort(pairs[:, 0]), np.arange(2, n + 1)):
        raise ValueError(f"the parent lines must name each of 2..{n} once")
    parent = np.zeros(n + 1, dtype=np.int64)
    parent[pairs[:, 0]] = pairs[:, 1]
    return GrowthTree(parent)


def format_growth(t: GrowthTree) -> str:
    """The GrowthTree file text :func:`read_growth` reads."""
    lines = [str(t.n)]
    lines += [f"{i} {p}" for i, p in enumerate(t.parent[2:].tolist(), start=2)]
    return "\n".join(lines) + "\n"


def write_growth(t: GrowthTree, path) -> None:
    Path(path).write_text(format_growth(t))
