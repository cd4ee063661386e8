"""Rooted-tree canonical codes, automorphism factors, and orbit counts.

The canonical code is the classic sorted-parenthesization form: a leaf is
``()`` and an internal vertex wraps the lexicographically sorted codes of
its child subtrees.  Two rooted trees get equal codes iff they are
isomorphic, and the code of a tree on n vertices is exactly 2n bytes.

The automorphism factor Aut(v) of a vertex v in a rooted tree is the
product of factorials of the multiplicities of isomorphic child subtrees
at v; the orbit count of u is the number of vertices whose rooted view of
the whole tree is isomorphic to u's, and :func:`orbit_counts` gives it for
every u at once.  The exact likelihood scores need only one :func:`aut_log`
pass; :func:`orbit_counts` serves the exact oracles, so it is deliberately
the naive all-roots method (n codes, O(n^2) worst case) and is capped at
moderate n rather than approximated.
"""

from __future__ import annotations

import numpy as np

from .errors import TooLargeError
from .trees import ShapeTree, subtree_sizes

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


def canonical_code(shape: ShapeTree, root: int) -> bytes:
    """Canonical byte code of the tree rooted at ``root``.

    The walk is :func:`subtree_sizes`, read children first.  Codes of
    finished subtrees are released as soon as the parent consumes them, so
    peak memory follows the widest antichain, not the tree size.
    """
    walk = subtree_sizes(shape, root)
    parent = walk.parent.tolist()
    pending: list = [[] for _ in range(shape.n + 1)]
    for v in reversed(walk.order.tolist()):
        parts = pending[v]
        parts.sort()
        code = b"(" + b"".join(parts) + b")"
        pending[v] = None
        if v == root:
            return code
        pending[parent[v]].append(code)
    raise AssertionError("unreachable: the root is last in a walk's order reversed")


def aut_log(shape: ShapeTree, root: int) -> np.ndarray:
    """log Aut(v, (T, root)) for every vertex v (index 0 unused).

    Child subtrees are grouped by interned integer type ids (one shared
    table per call), so no byte codes are materialized; leaves get 0.
    """
    walk = subtree_sizes(shape, root)
    parent = walk.parent.tolist()
    n = shape.n
    lf = log_factorials(n).tolist()
    out = np.zeros(n + 1)
    intern: dict[tuple, int] = {}
    pending: list = [[] for _ in range(n + 1)]
    for v in reversed(walk.order.tolist()):
        ids = pending[v]
        ids.sort()
        total = 0.0
        run = 1
        for i in range(1, len(ids)):
            if ids[i] == ids[i - 1]:
                run += 1
            else:
                total += lf[run]
                run = 1
        if ids:
            total += lf[run]
        out[v] = total
        if v == root:
            break
        key = tuple(ids)
        tid = intern.get(key)
        if tid is None:
            tid = len(intern)
            intern[key] = tid
        pending[v] = None
        pending[parent[v]].append(tid)
    return out


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
