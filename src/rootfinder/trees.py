"""Tree representations and subtree-size machinery.

Two views of a tree on vertices 1..n:

* :class:`GrowthTree` — the chronologically labeled tree produced by an
  attachment process, stored as a parent array with ``parent[i] < i``.
* :class:`ShapeTree` — an unlabeled observed tree; labels 1..n are opaque.
  Adjacency is stored CSR-style in two flat arrays so traversals stay
  iterative and survive path graphs of a million vertices.  Every shape
  (:func:`build_shape`, :func:`shape_of_growth`, :func:`forget_labels`)
  is made by ``_csr_from_endpoints`` from both directions of each edge:
  one sort of packed (source, slot) keys, so a vertex's neighbours keep
  the order their edges were given in.

All structures are immutable after construction and safe to share across
worker processes.  A tree oriented away from a root is a
:class:`LevelWalk`, and the estimators read subtree sizes off it rather
than re-deriving them: ``size(w -> u)``, the component of u once w is
deleted, is ``subtree_sizes(shape, w).down_size[u]``.

Three walks orient a tree away from a root.  Each only finds an order and
the parents, and :meth:`LevelWalk.from_order` sums the subtree sizes
bottom-up, one scatter-add per level or one loop over a topological order:

* the level walk (``_level_walk``) gathers a whole level of a shape's CSR
  adjacency with numpy, in the list walk's BFS order.  It serves the
  passes made once per shape at any n: :func:`subtree_sizes` and the
  ``psi``/``phi`` scores of a shape, which share the walk from vertex 1
  that :func:`build_shape` makes while validating and the shape keeps
  (:attr:`ShapeTree.walk_from_1`).
* the growth walk (``_growth_walk``) orients a :class:`GrowthTree` from
  vertex 1 without building a shape: depths come from pointer jumping on
  ``parent``, levels from a small-integer sort of the depths.  The Monte
  Carlo trials score each sampled tree on it (:attr:`GrowthTree.walk`)
  before, and mostly instead of, relabelling it.  Its levels hold the
  level walk's vertex sets, in label order within a level.
* the list walk (:func:`rooted_lists`) returns plain lists.  It serves the
  loops that walk a small tree once per candidate root and consume lists
  anyway: ``canonical_code``, ``aut_log``, the exact ``zeta``/``xi``
  scores and the oracles.  On trees of a few hundred vertices it is two to
  three times as fast as the level walk.

A tree with many narrow levels, such as a path, leaves the two numpy walks
for a topological order without levels (the list walk's BFS order, or
label order for a growth tree), so deep trees stay linear.
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
    "rooted_lists",
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

    def degree_of(self, v: int) -> int:
        return int(self.degrees()[v])

    @cached_property
    def walk(self) -> "LevelWalk":
        """The growth walk from vertex 1, on the tree's own labels."""
        return _growth_walk(self.parent)


@dataclass(frozen=True)
class ShapeTree:
    """Unlabeled tree in CSR adjacency form.

    Neighbors of v are ``adjncy[xadj[v]:xadj[v+1]]``; ``xadj`` has length
    n+2 with slot 0 unused.  Labels carry no chronological meaning.
    """

    xadj: np.ndarray
    adjncy: np.ndarray

    def __post_init__(self):
        xa = np.asarray(self.xadj, dtype=np.int64)
        ad = np.asarray(self.adjncy, dtype=np.int64)
        object.__setattr__(self, "xadj", xa)
        object.__setattr__(self, "adjncy", ad)
        xa.flags.writeable = False
        ad.flags.writeable = False

    @property
    def n(self) -> int:
        return self.xadj.shape[0] - 2

    def neighbors(self, v: int) -> np.ndarray:
        return self.adjncy[self.xadj[v] : self.xadj[v + 1]]

    def degrees(self) -> np.ndarray:
        """Degree array indexed by vertex (index 0 unused, set to 0)."""
        out = np.zeros(self.n + 1, dtype=np.int64)
        out[1:] = np.diff(self.xadj[1:])
        return out

    def degree_of(self, v: int) -> int:
        return int(self.xadj[v + 1] - self.xadj[v])

    @cached_property
    def walk_from_1(self) -> "LevelWalk":
        """The level walk from vertex 1, made once per shape and shared by
        ``psi``, ``phi`` and ``subtree_sizes(shape, 1)``."""
        return _level_walk(self, 1)

    def edges(self) -> list[tuple[int, int]]:
        """Undirected edges as (min, max) pairs, sorted."""
        src = np.repeat(np.arange(1, self.n + 1), np.diff(self.xadj[1:]))
        dst = self.adjncy[self.xadj[1] : self.xadj[-1]]
        keep = src < dst
        lo, hi = src[keep], dst[keep]
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
    lists the vertices level by level, root first (in BFS order from the
    level walk, by label within a level from the growth walk), and
    ``bounds`` holds where each level starts in it, then ``len(order)``.
    When a deep tree sent the walk to a loop, ``bounds`` is None and
    ``order`` is only a topological order: every parent before its
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


def _csr_from_endpoints(src: np.ndarray, dst: np.ndarray, n: int) -> ShapeTree:
    """Build CSR adjacency from directed endpoint arrays (both directions given).

    The slots are ordered by a stable sort on ``src``: one sort of the
    int64 keys ``src << shift | slot``, whose low bits hold each slot's
    index, so no two keys are equal and the sorted keys give the stable
    order back in their low bits.  That is several times faster than
    numpy's stable sort of int64 keys.  Keys that would pass 63 bits
    (n >= 2**31) take the stable sort instead.
    """
    deg = np.bincount(src, minlength=n + 1)
    xadj = np.zeros(n + 2, dtype=np.int64)
    np.cumsum(deg[1:], out=xadj[2:])
    slots = src.shape[0]
    shift = (slots - 1).bit_length()
    if n.bit_length() + shift > 63:
        return ShapeTree(xadj=xadj, adjncy=dst[np.argsort(src, kind="stable")])
    keys = src << shift
    keys |= np.arange(slots)
    keys.sort()
    keys &= (1 << shift) - 1
    return ShapeTree(xadj=xadj, adjncy=dst[keys])


def build_shape(edges: Iterable[tuple[int, int]] | np.ndarray) -> ShapeTree:
    """Validate an edge list and return the ShapeTree.

    ``edges`` is an iterable of vertex pairs or an (m, 2) integer array.
    Vertex identifiers must be the integers 1..n.  Raises SelfLoopError,
    DuplicateEdgeError, or CycleOrDisconnectedError for non-trees, checked
    in that order.  The connectivity check is the walk from vertex 1,
    which the shape keeps as :attr:`ShapeTree.walk_from_1`.
    """
    if isinstance(edges, np.ndarray):
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError("an edge array must have shape (m, 2)")
        arr = edges.astype(np.int64, copy=False)
    else:
        arr = np.array([(int(a), int(b)) for a, b in edges], dtype=np.int64).reshape(-1, 2)
    m = arr.shape[0]
    if m == 0:
        raise CycleOrDisconnectedError("empty edge list does not define a tree (n >= 2)")
    if arr.min() < 1:
        raise ValueError("vertex identifiers must be positive integers")
    a, b = arr[:, 0], arr[:, 1]
    if np.any(a == b):
        raise SelfLoopError("edge joins a vertex to itself")
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    n = int(hi.max())
    if n > _KEY_LIMIT:  # lo * (n + 1) + hi would overflow: number the vertices densely
        ids, dense = np.unique(arr, return_inverse=True)
        dense = dense.reshape(arr.shape)
        lo, hi, n_keys = dense.min(axis=1), dense.max(axis=1), ids.shape[0]
    else:
        n_keys = n + 1
    keys = np.sort(lo * n_keys + hi)
    if np.any(keys[1:] == keys[:-1]):
        raise DuplicateEdgeError("duplicate undirected edge")
    if m != n - 1:
        raise CycleOrDisconnectedError(f"{m} edges on {n} vertices is not a tree")
    shape = _csr_from_endpoints(np.concatenate([a, b]), np.concatenate([b, a]), n)
    if shape.walk_from_1.order.shape[0] != n:
        raise CycleOrDisconnectedError("edge set is cyclic or disconnected")
    return shape


def shape_of_growth(t: GrowthTree) -> ShapeTree:
    """The shape of a growth tree with labels kept as-is (no shuffling)."""
    n = t.n
    kids = np.arange(2, n + 1, dtype=np.int64)
    pars = t.parent[2:]
    return _csr_from_endpoints(
        np.concatenate([kids, pars]), np.concatenate([pars, kids]), n
    )


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
    kids = relabel[np.arange(2, n + 1)]
    pars = relabel[t.parent[2:]]
    shape = _csr_from_endpoints(
        np.concatenate([kids, pars]), np.concatenate([pars, kids]), n
    )
    return shape, int(relabel[1])


# ---------------------------------------------------------------------------
# Traversal
# ---------------------------------------------------------------------------


def rooted_lists(shape: ShapeTree, root: int):
    """The list walk: BFS from ``root`` as ``(order, parent)`` plain lists.

    parent[root] is 0.  Only the component containing root is visited.  For
    loops that walk a small tree once per root; ``LevelWalk.from_order``
    adds the subtree sizes.
    """
    n = shape.n
    if not (1 <= root <= n):
        raise ValueError(f"root {root} out of range 1..{n}")
    xa = shape.xadj.tolist()
    ad = shape.adjncy.tolist()
    parent = [0] * (n + 1)
    seen = bytearray(n + 1)
    seen[root] = 1
    order = [root]
    head = 0
    while head < len(order):
        u = order[head]
        head += 1
        for k in range(xa[u], xa[u + 1]):
            v = ad[k]
            if not seen[v]:
                seen[v] = 1
                parent[v] = u
                order.append(v)
    return order, parent


def _level_walk(shape: ShapeTree, root: int) -> LevelWalk:
    """Level-synchronous BFS from ``root``.

    Each level's CSR slices are gathered at once (``np.repeat`` over
    ``xadj``) and each vertex's parent is dropped from them by
    ``ndarray.compress``, several times faster than a boolean-mask index
    on numpy 2.4, so the order is the list walk's: level by level, each
    vertex's children in adjacency order.  Once more than ``_NARROW``
    levels have been narrower than ``_NARROW``, the tree is deep and
    numpy's per-level cost would outweigh a loop, so the list walk starts
    again from the root.  The walk keeps only the parent out of each
    frontier, so on a cyclic component it would not end: it stops with
    CycleOrDisconnectedError once it has met more than n vertices.  A
    disconnected graph gives a walk of root's component only.
    """
    n = shape.n
    xadj, adjncy = shape.xadj, shape.adjncy
    order = np.empty(n, dtype=np.int64)
    parent = np.zeros(n + 1, dtype=np.int64)
    order[0] = root
    bounds = [0]
    narrow = 0
    a, b = 0, 1  # the current level is order[a:b]
    while a < b:
        if b - a < _NARROW:
            narrow += 1
            if narrow > _NARROW:
                return LevelWalk.from_order(root, *rooted_lists(shape, root))
        level = order[a:b]
        starts = xadj[level]
        counts = xadj[level + 1] - starts
        total = int(counts.sum())
        # every vertex but the root drops one slot, its parent: the walk
        # will have met a + total vertices, checked before the gather
        if a + total > n:
            raise CycleOrDisconnectedError("walk met more than n vertices: not a tree")
        owner = np.repeat(level, counts)
        slots = np.arange(total) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
        nb = adjncy[slots]
        keep = nb != parent[owner]
        nxt = nb.compress(keep)
        e = b + nxt.shape[0]
        order[b:e] = nxt
        parent[nxt] = owner.compress(keep)
        bounds.append(b)
        a, b = b, e
    return LevelWalk.from_order(root, order[:b], parent, tuple(bounds))


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
    """Orient the tree away from ``root`` and compute all subtree sizes."""
    n = shape.n
    if not (1 <= root <= n):
        raise ValueError(f"root {root} out of range 1..{n}")
    return shape.walk_from_1 if root == 1 else _level_walk(shape, root)


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
