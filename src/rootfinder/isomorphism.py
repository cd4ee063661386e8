"""Rooted-tree canonical codes, automorphism factors, and orbit counts.

The canonical code is the classic sorted-parenthesization form: a leaf is
``()`` and an internal vertex wraps the lexicographically sorted codes of
its child subtrees.  Two rooted trees get equal codes iff they are
isomorphic, and the code of a tree on n vertices is exactly 2n bytes.
Every code but the leaf's begins ``((``, and ``(`` sorts before ``)``, so
in a sorted list of child codes the leaves' ``()`` all come last: a
vertex's code is ``(``, its non-leaf children's codes sorted, ``()`` once
per leaf child, and ``)``.  So :func:`canonical_code` and :func:`aut_log`
visit only the vertices that are not leaves (about a third of a
preferential-attachment tree, half of a uniform-attachment one), each
with a count of its leaf children made by one numpy step over the rooted
walk; the leaves are counted, never built, sorted or joined.

The automorphism factor Aut(v) of a vertex v in a rooted tree is the
product of factorials of the multiplicities of isomorphic child subtrees
at v; the orbit count of u is the number of vertices whose rooted view of
the whole tree is isomorphic to u's, and :func:`orbit_counts` gives it for
every u at once.  The exact likelihood scores need only one :func:`aut_log`
pass, whose type ids also tell whether the two centroids' halves of the
tree are isomorphic; :func:`orbit_counts` serves the exact oracles, so it
is deliberately the naive all-roots method (n codes, O(n^2) worst case)
and is capped at moderate n rather than approximated.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import TooLargeError
from .trees import LevelWalk, ShapeTree, subtree_sizes

__all__ = [
    "canonical_code",
    "aut_log",
    "orbit_counts",
    "log_factorials",
    "NAIVE_ORBIT_LIMIT",
]

# cap on the naive all-roots orbit_counts
NAIVE_ORBIT_LIMIT = 5000

_logfact = np.zeros(1)


def log_factorials(m: int) -> np.ndarray:
    """Array of log(k!) for k = 0..m, cached across calls."""
    global _logfact
    if _logfact.shape[0] <= m:
        grow = np.zeros(m + 1)
        np.cumsum(np.log(np.arange(1, m + 1)), out=grow[1:])
        grow.flags.writeable = False
        _logfact = grow
    return _logfact[: m + 1]


def _inner_vertices(walk: LevelWalk) -> tuple[list, list, list]:
    """The vertices of a rooted walk that are not leaves, in walk order
    (the root first), with each one's parent and its number of leaf
    children, as three lists.  A leaf is a vertex of subtree size 1, so
    the root, of size n >= 2, is never one."""
    down = walk.down_size
    leaf = down == 1
    inner = walk.order[~leaf[walk.order]]
    leaf_kids = np.bincount(walk.parent[leaf], minlength=down.shape[0])
    return inner.tolist(), walk.parent[inner].tolist(), leaf_kids[inner].tolist()


def canonical_code(shape: ShapeTree, root: int) -> bytes:
    """Canonical byte code of the tree rooted at ``root``.

    Only the vertices that are not leaves are visited, children first
    (:func:`_inner_vertices` on :func:`subtree_sizes`).  Each one's code
    is ``(``, its non-leaf children's codes sorted, ``()`` once per leaf
    child, then ``)``: every non-leaf code begins ``((`` and so sorts
    before the leaf code ``()``, which makes this the sorted-children code
    byte for byte.  A vertex's list of child codes is made, with ``(`` in
    front, when its first non-leaf child finishes (``(`` is a prefix of
    every code, so it stays first when the list is sorted), and the
    root's code lands in slot 0, its parent's.  Codes of finished subtrees are
    released as soon as the parent consumes them, so peak memory follows
    the widest antichain, not the tree size.
    """
    inner, parent, leaves = _inner_vertices(subtree_sizes(shape, root))
    pending: list = [None] * (shape.n + 1)
    tails: dict[int, bytes] = {}  # "()" * m + ")" by leaf-child count m
    for v, p, m in zip(reversed(inner), reversed(parent), reversed(leaves)):
        tail = tails.get(m)
        if tail is None:
            tail = tails[m] = b"()" * m + b")"
        parts = pending[v]
        if parts is None:
            code = b"(" + tail
        else:
            parts.sort()
            parts.append(tail)
            code = b"".join(parts)
            pending[v] = None
        if pending[p] is None:
            pending[p] = [b"(", code]
        else:
            pending[p].append(code)
    return pending[0][1]


def _aut_pass(shape: ShapeTree, root: int) -> tuple[np.ndarray, list, list]:
    """:func:`aut_log`'s pass: log Aut per vertex, each vertex's type id
    (0 for a leaf; two vertices share an id iff their subtrees are
    isomorphic) and the key of each id, by id.  A key is a vertex's
    non-leaf child ids, sorted, and its number of leaf children."""
    inner, parent, leaves = _inner_vertices(subtree_sizes(shape, root))
    n = shape.n
    lf = log_factorials(n).tolist()
    logs = [0.0] * (n + 1)
    types = [0] * (n + 1)
    intern: dict[tuple, int] = {((), 0): 0}
    pending: list = [None] * (n + 1)
    for v, p, m in zip(reversed(inner), reversed(parent), reversed(leaves)):
        ids = pending[v]
        total = lf[m]
        if ids is None:
            key = ((), m)
        else:
            ids.sort()
            run = 1
            for i in range(1, len(ids)):
                if ids[i] == ids[i - 1]:
                    run += 1
                else:
                    total += lf[run]
                    run = 1
            total += lf[run]
            key = (tuple(ids), m)
            pending[v] = None
        logs[v] = total
        tid = types[v] = intern.setdefault(key, len(intern))
        if pending[p] is None:
            pending[p] = [tid]
        else:
            pending[p].append(tid)
    return np.array(logs), types, list(intern)


def aut_log(shape: ShapeTree, root: int) -> np.ndarray:
    """log Aut(v, (T, root)) for every vertex v (index 0 unused).

    Child subtrees are grouped by interned integer type ids (one shared
    table per call), so no byte codes are materialized.  As in
    :func:`canonical_code`, only the vertices that are not leaves are
    visited: a vertex's m leaf children are one class of isomorphic
    subtrees, and no other child is isomorphic to a leaf, so its factor
    is exactly log m! plus log k! for each run of k equal ids among its
    other children.  Leaves keep Aut 0.
    """
    return _aut_pass(shape, root)[0]


def _unrooted_aut_log(shape: ShapeTree, centroids) -> float:
    """log |Aut(T)|, the order of the unrooted tree's automorphism group,
    given its centroids (the vertices of least ``psi``), one vertex c or
    two adjacent ones c and d.

    Every automorphism fixes the set of centroids, so |Aut(T)| is the
    rooted group at c, one :func:`aut_log` pass, doubled when an
    automorphism swaps c and d: when the half below d is isomorphic to c
    with its other children.  The pass's type ids tell: c's key less d's
    id is then the key of d's id.
    """
    c = centroids[0]
    logs, types, keys = _aut_pass(shape, c)
    total = float(np.sum(logs[1:]))
    if len(centroids) == 2:
        t = types[centroids[1]]
        ids, leaves = keys[types[c]]
        if t:
            i = ids.index(t)
            rest = (ids[:i] + ids[i + 1 :], leaves)
        else:  # d is a leaf: the tree is one edge
            rest = (ids, leaves - 1)
        if rest == keys[t]:
            total += math.log(2)
    return total


def orbit_counts(shape: ShapeTree) -> np.ndarray:
    """For every u, the number of vertices v with (T,v) isomorphic to (T,u).

    Buckets the n rooted codes by the codes themselves, one code per
    vertex.  At the cap the codes hold at most 2 * NAIVE_ORBIT_LIMIT**2
    bytes (50 MB).
    """
    n = shape.n
    if n > NAIVE_ORBIT_LIMIT:
        raise TooLargeError(
            f"all-roots orbit computation is capped at n={NAIVE_ORBIT_LIMIT} (got n={n})"
        )
    buckets: dict[bytes, list[int]] = {}
    for u in range(1, n + 1):
        buckets.setdefault(canonical_code(shape, u), []).append(u)
    out = np.zeros(n + 1, dtype=np.int64)
    for members in buckets.values():
        out[members] = len(members)
    return out
