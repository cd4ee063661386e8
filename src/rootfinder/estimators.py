"""Root estimators and confidence-set selection.

Four per-vertex scores, all oriented so that lower means more root-like:

* psi  — size of the largest component left by deleting the vertex.
* phi  — log of the product of all other vertices' subtree sizes when the
         tree is rooted at the candidate (1/phi is rumor centrality).
* zeta — exact uniform-attachment likelihood objective: orbit count times
         the product of subtree-size x automorphism factors.
* xi   — the preferential-attachment analogue: zeta with the candidate's
         degree divided out.

All four run in O(n), from one walk from vertex 1 (a :class:`LevelWalk`)
scored by one private function: a shape's :attr:`ShapeTree.walk_from_1`
for :func:`score_tree`, a growth tree's own :attr:`GrowthTree.walk` for
:func:`score_growth`, which scores a sampled tree on its growth labels.
zeta is phi plus the per-tree constant log n + log |Aut(T)| (one
automorphism pass at a centroid), and xi subtracts log-degree.  The
constant moves no rank and cancels in a posterior, so it is added only
where a score is printed, by :func:`score_tree`; growth scores and
:func:`root_posterior` omit it.  Multiplicative scores live in
natural-log domain throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from hashlib import blake2b

import numpy as np

from .generators import ModelSpec
from .isomorphism import _unrooted_aut_log, canonical_code
from .trees import GrowthTree, LevelWalk, ShapeTree

__all__ = [
    "ScoreVector",
    "ConfidenceSet",
    "psi_scores",
    "phi_scores",
    "zeta_scores",
    "xi_scores",
    "score_tree",
    "score_growth",
    "select_smallest",
    "tie_order",
    "tie_runs",
    "rank_interval",
    "root_posterior",
    "ESTIMATOR_TAGS",
]

ESTIMATOR_TAGS = ("psi", "phi", "zeta", "xi")

# scores within this relative difference are treated as tied
TIE_RTOL = 1e-9

# tie-breaking compares full canonical codes up to here, 128-bit digests above
_EXACT_CODE_LIMIT = 10_000


@dataclass(frozen=True)
class ScoreVector:
    """Per-vertex scores for one estimator on one shape.

    ``values`` has length n+1; slot 0 is unused and holds +inf so it can
    never be selected.  psi values are exact small integers stored as
    floats; phi/zeta/xi are natural logs of the defining products.
    """

    estimator: str
    shape: ShapeTree
    values: np.ndarray

    def __post_init__(self):
        if self.estimator not in ESTIMATOR_TAGS:
            raise ValueError(f"unknown estimator {self.estimator!r}")
        vals = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", vals)
        vals.flags.writeable = False


@dataclass(frozen=True)
class ConfidenceSet:
    """The min(K, n) lowest-scoring vertices of one estimator's scores.

    ``vertices`` is in ascending score order, each tied run in
    :func:`tie_order`; ``v in cs`` is a set lookup.
    """

    estimator: str
    k: int
    vertices: tuple[int, ...]
    _members: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_members", frozenset(self.vertices))

    def __contains__(self, v) -> bool:
        return v in self._members

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)


def _psi_values(walk: LevelWalk, n: int) -> np.ndarray:
    """psi(u) = max(n - down[u], largest down[c] over u's children c)."""
    kids = walk.order[1:]
    down = walk.down_size
    biggest = np.zeros(n + 1, dtype=np.int64)
    np.maximum.at(biggest, walk.parent[kids], down[kids])
    values = np.maximum(n - down, biggest).astype(np.float64)
    values[0] = np.inf
    return values


def _phi_values(walk: LevelWalk, n: int) -> np.ndarray:
    """log phi(u) for all u by rerooting down a walk from vertex 1.

    phi(1) is summed directly from subtree sizes; stepping the root to a
    child of subtree size s multiplies phi by (n - s)/s.
    """
    down = walk.down_size
    logs = np.zeros(n + 1)
    np.log(down[1:], out=logs[1:])
    up = n - down[1:].astype(np.float64)
    up[0] = 1.0  # vertex 1 is the walk's root; its entry is never read
    step = np.zeros(n + 1)
    step[1:] = np.log(up) - logs[1:]
    return walk.descend(float(np.sum(logs[2:])), step)


def _scores(walk: LevelWalk, n: int, degrees, estimator: str, constant: float = 0.0) -> np.ndarray:
    """One estimator's scores from a walk from vertex 1: psi, or phi plus
    ``constant``, minus log-degree for xi.  ``degrees`` returns the degree
    array and is called for xi alone.  Every tree kind and the posterior
    score through here; only :func:`score_tree` passes zeta's constant."""
    if estimator == "psi":
        return _psi_values(walk, n)
    if estimator not in ESTIMATOR_TAGS:
        raise ValueError(f"unknown estimator {estimator!r}; expected one of {ESTIMATOR_TAGS}")
    values = _phi_values(walk, n)
    if constant:
        values += constant
    if estimator == "xi":
        values[1:] -= np.log(degrees()[1:])
    return values


def _log_aut(shape: ShapeTree, walk: LevelWalk) -> float:
    """log |Aut(T)|, the order of the unrooted tree's automorphism group,
    from its centroids, the vertices of least psi."""
    psi = _psi_values(walk, shape.n)
    return _unrooted_aut_log(shape, np.flatnonzero(psi == psi.min()).tolist())


def score_tree(shape: ShapeTree, estimator: str) -> ScoreVector:
    """One estimator's scores on a shape, from :attr:`ShapeTree.walk_from_1`.

    zeta and xi add the per-tree constant log n + log |Aut(T)|: rooted at
    u, zeta's defining sum is phi(u) + log n (the root's own subtree size)
    plus log |Aut(T, u)|, and the orbit-stabilizer identity
    |Aut(T)| = orbit(u) |Aut(T, u)| folds in the orbit count.
    """
    walk = shape.walk_from_1
    constant = math.log(shape.n) + _log_aut(shape, walk) if estimator in ("zeta", "xi") else 0.0
    return ScoreVector(estimator, shape, _scores(walk, shape.n, shape.degrees, estimator, constant))


def psi_scores(shape: ShapeTree) -> ScoreVector:
    """psi(u) = largest component size after deleting u; O(n)."""
    return score_tree(shape, "psi")


def phi_scores(shape: ShapeTree) -> ScoreVector:
    """log phi(u) for all u in O(n), rerooting level by level."""
    return score_tree(shape, "phi")


def zeta_scores(shape: ShapeTree) -> ScoreVector:
    """log zeta(u): orbit count times product over v of size(v) * Aut(v),
    with the tree rooted at u.

    The defining product runs over non-leaves; leaves contribute log 1
    twice.  It equals n |Aut(T)| phi(u), which is how it is computed.
    """
    return score_tree(shape, "zeta")


def xi_scores(shape: ShapeTree) -> ScoreVector:
    """log xi(u) = log zeta(u) - log degree(u)."""
    return score_tree(shape, "xi")


def score_growth(tree: GrowthTree, estimator: str) -> np.ndarray:
    """Scores of a growth tree's vertices on its own labels, vertex 1 being
    the first vertex, as an array of length n+1 with slot 0 at +inf.

    The scores depend on the shape alone, so relabelling the tree moves
    them with their vertices.  They are read off the tree's own walk and
    no shape is built.  zeta and xi omit the per-tree constant
    log n + log |Aut(T)| that :func:`score_tree` adds, so zeta scores here
    equal phi's.  The constant moves no rank, though under the relative
    ``TIE_RTOL`` it could in principle change which near-equal scores tie.
    """
    return _scores(tree.walk, tree.n, tree.degrees, estimator)


def tie_order(shape: ShapeTree, members) -> list[int]:
    """The vertices ``members`` of one tied run in the order that breaks
    their tie: by the canonical code of the tree rooted at each vertex
    (compared whole up to ``_EXACT_CODE_LIMIT`` vertices and as a 128-bit
    blake2b digest above), then by label.  So labels decide only between
    vertices whose rooted views are isomorphic.  One code per member."""
    digest = shape.n > _EXACT_CODE_LIMIT

    def key(u):
        code = canonical_code(shape, u)
        return (blake2b(code, digest_size=16).digest() if digest else code), u

    return sorted(members, key=key)


def _tied(a, b):
    """Whether scores ``a`` and ``b`` (arrays or scalars) tie: they are
    equal, or both finite and apart by at most ``TIE_RTOL`` times the
    larger of their magnitudes and 1.  So equal infinities tie, and a
    finite score never ties an infinite one."""
    with np.errstate(invalid="ignore"):  # inf - inf: equal, so a == b holds
        gap = np.abs(a - b)
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return (a == b) | ((gap <= TIE_RTOL * scale) & (scale < np.inf))


def tie_runs(scores, m: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Vertices in ascending score order and the boundaries of their tied runs.

    ``scores`` is a :class:`ScoreVector` or its ``values`` array (slot 0
    unused); only the values are read.  ``order`` lists vertex labels by
    ascending score; run r is ``order[bounds[r]:bounds[r + 1]]``, so
    ``bounds`` rises from 0 to ``len(order)``.
    Two neighbours in that order tie when :func:`_tied` says so, and ties
    chain: a run ends only where two neighbours do not tie.  This is the
    one statement of the tie rule; selection and the rank interval both
    read it from here.  Equal scores may come in any order (the sort need
    not be stable), since callers treat each run as a set.

    Given ``m`` below n, only the runs that start below rank m are
    wanted, and ``order`` may stop where the last of them ends: a
    partition finds the m-th lowest score x, and when x is finite and the
    next higher score does not tie with it, the run holding x ends at the
    scores at most x, so only those are sorted.  Otherwise all n are.
    """
    values = np.asarray(getattr(scores, "values", scores))[1:]
    n = values.shape[0]
    order = None
    if m is not None and m < n:
        x = np.partition(values, m - 1)[m - 1]
        if np.isfinite(x) and not _tied(x, values.min(initial=np.inf, where=values > x)):
            picked = np.flatnonzero(values <= x)
            order = picked[np.argsort(values[picked])]
    if order is None:
        order = np.argsort(values)
    vals = values[order]
    tied = _tied(vals[1:], vals[:-1])
    bounds = np.concatenate(([0], np.flatnonzero(~tied) + 1, [order.shape[0]]))
    return order + 1, bounds


def rank_interval(scores, v: int) -> tuple[int, int]:
    """The ranks ``[start, end)`` of the tied run holding vertex ``v``.

    ``scores`` is as in :func:`tie_runs`, and ranks count from 0 in its
    order.  ``v`` is in ``select_smallest(scores, k)`` when
    ``end <= min(k, n)`` and not when ``start >= min(k, n)``; otherwise its
    run straddles rank k, and v's rank is ``start`` plus its position in
    the run's :func:`tie_order`.

    No sort is needed when v's run is just the scores equal to v's: then
    ``start`` counts the lower scores and ``end`` the scores at most v's.
    That holds unless the nearest score on either side ties with v's (or
    v's score is NaN); only then is the run read off :func:`tie_runs`,
    so a chain of near-ties costs one O(n log n) sort.  A ``v`` outside
    1..n raises ValueError.
    """
    values = np.asarray(getattr(scores, "values", scores))[1:]
    n = values.shape[0]
    if not 1 <= v <= n:
        raise ValueError(f"vertex {v} is not in 1..{n}")
    x = values[v - 1]
    below = values < x
    start = int(np.count_nonzero(below))
    end = int(np.count_nonzero(values <= x))
    above = values > x
    widens = (
        not _tied(x, x)
        or (start > 0 and _tied(x, values.max(initial=-np.inf, where=below)))
        or (end < n and _tied(x, values.min(initial=np.inf, where=above)))
    )
    if not widens:
        return start, end
    order, bounds = tie_runs(scores)
    rank = int(np.flatnonzero(order == v)[0])
    r = int(np.searchsorted(bounds, rank, side="right")) - 1
    return int(bounds[r]), int(bounds[r + 1])


def select_smallest(scores: ScoreVector, k: int) -> ConfidenceSet:
    """The min(k, n) lowest-scoring vertices, deterministically ordered.

    Order is score, then :func:`tie_order` within each tied run
    (:func:`tie_runs`), so label order only ever separates vertices whose
    rooted views are isomorphic.  Only the runs that start below rank
    min(k, n) are read, so for k well below n tie_runs sorts just those
    scores; each of them with two or more members is tie-ordered, and the
    one straddling rank min(k, n) is cut there.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    shape = scores.shape
    m = min(k, shape.n)
    order, bounds = tie_runs(scores, m)
    # runs [0, last) start below rank m; run last - 1 may straddle it
    last = int(np.searchsorted(bounds, m))
    ranked = order[: bounds[last]].tolist()
    cuts = bounds[: last + 1].tolist()
    picked: list[int] = []
    for i, j in zip(cuts, cuts[1:]):
        picked += ranked[i:j] if j - i == 1 else tie_order(shape, ranked[i:j])
    return ConfidenceSet(scores.estimator, k, tuple(picked[:m]))


def root_posterior(shape: ShapeTree, model: ModelSpec) -> np.ndarray:
    """Posterior root probabilities: p(u) proportional to 1/zeta(u) under
    uniform attachment, 1/xi(u) under preferential attachment.

    zeta is phi and xi is phi minus log-degree, each plus the per-tree
    constant log n + log |Aut(T)|, which cancels in the normalization; so
    the constant is never computed.  Normalized by log-sum-exp; returns an
    array of length n+1 whose slot 0 is 0.  Only the two attachment rules
    with an exact likelihood are supported; other alpha values raise
    UnsupportedModelError.
    """
    estimator = "zeta" if model.posterior_kind() == "uniform" else "xi"
    w = -_scores(shape.walk_from_1, shape.n, shape.degrees, estimator)[1:]
    w = w - np.max(w)
    p = np.exp(w)
    p /= p.sum()
    out = np.zeros(shape.n + 1)
    out[1:] = p
    return out
