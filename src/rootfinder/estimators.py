"""Root estimators and confidence-set selection.

Four per-vertex scores, all oriented so that lower means more root-like:

* psi  — size of the largest component left by deleting the vertex.
* phi  — log of the product of all other vertices' subtree sizes when the
         tree is rooted at the candidate (1/phi is rumor centrality).
* zeta — exact uniform-attachment likelihood objective: orbit count times
         the product of subtree-size x automorphism factors.
* xi   — the preferential-attachment analogue: zeta with the candidate's
         degree divided out.

psi and phi run in O(n) and are the at-scale estimators.  Each is written
once, as a function of a walk from vertex 1 (a :class:`LevelWalk`): a
shape's :attr:`ShapeTree.walk_from_1` for :func:`psi_scores` and
:func:`phi_scores`, a growth tree's own :attr:`GrowthTree.walk` for
:func:`score_growth`, which scores a sampled tree on its growth labels.
zeta and xi re-evaluate automorphism factors per candidate root (O(n^2)
worst case) and are capped at moderate n; they are exact-likelihood
tools, not bulk ones.  Multiplicative scores live in natural-log domain
throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import blake2b

import numpy as np

from .errors import TooLargeError
from .generators import ModelSpec
from .isomorphism import NAIVE_ORBIT_LIMIT, aut_log, canonical_code, orbit_counts
from .trees import GrowthTree, LevelWalk, ShapeTree, rooted_lists, shape_of_growth

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


class ConfidenceSet:
    """The min(K, n) lowest-scoring vertices.

    ``vertices`` is ordered by (score, canonical code of the rooted view,
    vertex label) ascending.  The code-based ordering is deferred: score-tied
    runs that sit wholly inside the set are sorted only when ``vertices``
    (or iteration, ``==``, ``hash``, ``repr``) needs the order, and the run
    straddling rank K, whose members compete for the remaining slots, is
    code-sorted only then or when ``in`` asks about one of that run's own
    vertices.  So ``len`` and ``v in cs`` for any other vertex compute no
    canonical code; each sort is cached once done.
    """

    __slots__ = (
        "estimator",
        "k",
        "_shape",
        "_groups",
        "_members",
        "_boundary",
        "_need",
        "_chosen",
        "_ordered",
    )

    def __init__(self, estimator: str, k: int, shape: ShapeTree, groups, boundary=(), need=0):
        self.estimator = estimator
        self.k = k
        self._shape = shape
        # runs wholly inside the set, in ascending score order
        self._groups = tuple(tuple(g) for g in groups)
        self._members = frozenset(v for g in self._groups for v in g)
        # the run straddling rank K: ``need`` of its members make the set
        self._boundary = frozenset(boundary)
        self._need = need
        self._chosen: tuple[int, ...] | None = None
        self._ordered: tuple[int, ...] | None = None

    def _code_sorted(self, members) -> list[int]:
        shape = self._shape
        return sorted(members, key=lambda u: (_tie_key(shape, u), u))

    def _boundary_chosen(self) -> tuple[int, ...]:
        if self._chosen is None:
            self._chosen = tuple(self._code_sorted(self._boundary)[: self._need])
        return self._chosen

    @property
    def vertices(self) -> tuple[int, ...]:
        if self._ordered is None:
            out: list[int] = []
            for members in self._groups:
                out.extend(members if len(members) == 1 else self._code_sorted(members))
            out.extend(self._boundary_chosen())
            self._ordered = tuple(out)
        return self._ordered

    def __contains__(self, v) -> bool:
        if v in self._members:
            return True
        return v in self._boundary and v in self._boundary_chosen()

    def __len__(self) -> int:
        return len(self._members) + self._need

    def __iter__(self):
        return iter(self.vertices)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConfidenceSet):
            return NotImplemented
        return (
            self.estimator == other.estimator
            and self.k == other.k
            and self.vertices == other.vertices
        )

    def __hash__(self) -> int:
        return hash((self.estimator, self.k, self.vertices))

    def __repr__(self) -> str:
        return f"ConfidenceSet(estimator={self.estimator!r}, k={self.k}, vertices={self.vertices})"


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


def psi_scores(shape: ShapeTree) -> ScoreVector:
    """psi(u) = largest component size after deleting u; O(n)."""
    return ScoreVector("psi", shape, _psi_values(shape.walk_from_1, shape.n))


def phi_scores(shape: ShapeTree) -> ScoreVector:
    """log phi(u) for all u in O(n), rerooting level by level."""
    return ScoreVector("phi", shape, _phi_values(shape.walk_from_1, shape.n))


def _exact_score(shape: ShapeTree, degree_correction: bool) -> np.ndarray:
    """Shared zeta/xi evaluation: per-root subtree-size and Aut products."""
    n = shape.n
    if n > NAIVE_ORBIT_LIMIT:
        raise TooLargeError(
            f"exact-likelihood scores are capped at n={NAIVE_ORBIT_LIMIT} (got n={n})"
        )
    orbit = orbit_counts(shape)
    values = np.full(n + 1, np.inf)
    log_orbit = np.log(orbit[1:].astype(np.float64))
    log_deg = np.log(shape.degrees()[1:].astype(np.float64)) if degree_correction else None
    for u in range(1, n + 1):
        down = LevelWalk.from_order(u, *rooted_lists(shape, u)).down_size
        total = float(np.sum(np.log(down[1:]))) + float(np.sum(aut_log(shape, u)[1:]))
        values[u] = total + log_orbit[u - 1]
        if degree_correction:
            values[u] -= log_deg[u - 1]
    return values


def zeta_scores(shape: ShapeTree) -> ScoreVector:
    """log zeta(u): orbit count times product over v of size(v) * Aut(v).

    The defining product runs over non-leaves; leaves contribute log 1
    twice, so the implementation sums over all vertices.
    """
    return ScoreVector(estimator="zeta", shape=shape, values=_exact_score(shape, False))


def xi_scores(shape: ShapeTree) -> ScoreVector:
    """log xi(u) = log zeta(u) - log degree(u)."""
    return ScoreVector(estimator="xi", shape=shape, values=_exact_score(shape, True))


_SCORE_FNS = {
    "psi": psi_scores,
    "phi": phi_scores,
    "zeta": zeta_scores,
    "xi": xi_scores,
}


def score_tree(shape: ShapeTree, estimator: str) -> ScoreVector:
    """Dispatch by estimator tag."""
    try:
        fn = _SCORE_FNS[estimator]
    except KeyError:
        raise ValueError(f"unknown estimator {estimator!r}; expected one of {ESTIMATOR_TAGS}")
    return fn(shape)


def score_growth(tree: GrowthTree, estimator: str) -> np.ndarray:
    """Scores of a growth tree's vertices on its own labels, vertex 1 being
    the first vertex, as an array of length n+1 with slot 0 at +inf.

    The scores depend on the shape alone, so relabelling the tree moves
    them with their vertices.  psi and phi need no shape; zeta and xi score
    :func:`shape_of_growth`.
    """
    if estimator == "psi":
        return _psi_values(tree.walk, tree.n)
    if estimator == "phi":
        return _phi_values(tree.walk, tree.n)
    return score_tree(shape_of_growth(tree), estimator).values


def _tie_key(shape: ShapeTree, u: int):
    code = canonical_code(shape, u)
    if shape.n > _EXACT_CODE_LIMIT:
        return blake2b(code, digest_size=16).digest()
    return code


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
    run straddles rank k and the canonical-code order decides.

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

    Order is (score, canonical code of the tree rooted at the vertex,
    vertex label): equal-score runs (:func:`tie_runs`) that reach the
    output are re-sorted by rooted-isomorphism class, so label order only
    ever separates vertices whose rooted views are isomorphic.  Only the
    runs reaching below rank min(k, n) are read, so for k well below n
    tie_runs sorts just those scores.  No run is code-sorted here: runs
    that fit entirely, and the run that straddles the k-th rank (whose
    members compete for the remaining slots), are handed over unsorted and
    ordered lazily by the ``ConfidenceSet``.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    shape = scores.shape
    m = min(k, shape.n)
    order, bounds = tie_runs(scores, m)
    # runs [0, full) fit wholly; run ``full`` straddles rank m if it starts below m
    full = int(np.searchsorted(bounds, m, side="right")) - 1
    edge = int(bounds[full])
    ranked = order[: bounds[full + 1] if edge < m else edge].tolist()
    cuts = bounds[: full + 1].tolist()
    groups = [ranked[i:j] for i, j in zip(cuts, cuts[1:])]
    if edge < m:
        return ConfidenceSet(scores.estimator, k, shape, groups, ranked[edge:], m - edge)
    return ConfidenceSet(scores.estimator, k, shape, groups)


def root_posterior(shape: ShapeTree, model: ModelSpec) -> np.ndarray:
    """Posterior root probabilities: p(u) proportional to 1/zeta(u) under
    uniform attachment, 1/xi(u) under preferential attachment.

    Normalized by log-sum-exp; returns an array of length n+1 whose slot 0
    is 0.  Only the two attachment rules with an exact likelihood are
    supported; other alpha values raise UnsupportedModelError.
    """
    score = zeta_scores if model.posterior_kind() == "uniform" else xi_scores
    w = -score(shape).values[1:]
    w = w - np.max(w)
    p = np.exp(w)
    p /= p.sum()
    out = np.zeros(shape.n + 1)
    out[1:] = p
    return out
