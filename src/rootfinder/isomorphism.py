"""Rooted-tree canonical codes, automorphism factors, and orbit counts.

The canonical code is the classic sorted-parenthesization form: a leaf is
``()`` and an internal vertex wraps the lexicographically sorted codes of
its child subtrees.  Two rooted trees get equal codes iff they are
isomorphic, and the code of a tree on n vertices is exactly 2n bytes.
:func:`canonical_code` hands every leaf the constant ``()`` and gives a
vertex a list of child codes only when its first child finishes, so the
leaves (about two thirds of a preferential-attachment tree) cost no list,
sort or join.

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

    The walk is :func:`subtree_sizes`, read children first.  A vertex
    whose list of child codes was never made is a leaf, and its code is
    the constant ``()``; the list is made when the first child finishes.
    Codes of finished subtrees are released as soon as the parent consumes
    them, so peak memory follows the widest antichain, not the tree size.
    """
    walk = subtree_sizes(shape, root)
    parent = walk.parent.tolist()
    pending: list = [None] * (shape.n + 1)
    for v in reversed(walk.order.tolist()):
        parts = pending[v]
        if parts is None:
            code = b"()"
        else:
            parts.sort()
            code = b"(" + b"".join(parts) + b")"
            pending[v] = None
        if v == root:
            return code
        p = parent[v]
        if pending[p] is None:
            pending[p] = [code]
        else:
            pending[p].append(code)
    raise AssertionError("unreachable: the root is last in a walk's order reversed")


def aut_log(shape: ShapeTree, root: int) -> np.ndarray:
    """log Aut(v, (T, root)) for every vertex v (index 0 unused).

    Child subtrees are grouped by interned integer type ids (one shared
    table per call), so no byte codes are materialized.  As in
    :func:`canonical_code`, a leaf is the constant type 0 (the empty
    tuple), keeps Aut 0 and has no list of child ids; a vertex's list is
    made when its first child finishes.
    """
    walk = subtree_sizes(shape, root)
    parent = walk.parent.tolist()
    n = shape.n
    lf = log_factorials(n).tolist()
    out = np.zeros(n + 1)
    intern: dict[tuple, int] = {(): 0}
    pending: list = [None] * (n + 1)
    for v in reversed(walk.order.tolist()):
        ids = pending[v]
        if ids is not None:
            ids.sort()
            total = 0.0
            run = 1
            for i in range(1, len(ids)):
                if ids[i] == ids[i - 1]:
                    run += 1
                else:
                    total += lf[run]
                    run = 1
            out[v] = total + lf[run]
            pending[v] = None
        if v == root:
            break
        tid = 0 if ids is None else intern.setdefault(tuple(ids), len(intern))
        p = parent[v]
        if pending[p] is None:
            pending[p] = [tid]
        else:
            pending[p].append(tid)
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
