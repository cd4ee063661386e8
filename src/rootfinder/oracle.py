"""Exact small-n ground truth and probabilistic-bound validators.

Counting side: streams of all increasing-labeled trees (and their
plane-oriented variants), closed-form embedding counts for a rooted shape,
and exact rational root posteriors computed two independent ways — from
the counting formulas and from raw enumeration.  Everything here uses
Python integers and fractions; floats never touch the exact path.

Probabilistic side: Monte Carlo validators for two tail inequalities (a
Gamma-sum lower tail and the tail of an infinite product of clipped
exponential partial sums) plus the exact integer-partition count with its
exponential upper bound.  The validators report an empirical tail, the
claimed bound, and a one-sided 3-sigma margin; a bound of 1 or more makes
a check vacuous by construction, since sampling can only falsify an
inequality, never confirm it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .errors import (
    BadSizeError,
    BadTError,
    NonIntegerResultError,
    TooLargeError,
)
from .generators import ModelSpec
from .isomorphism import canonical_code, orbit_counts
from .rng import as_generator
from .trees import GrowthTree, LevelWalk, ShapeTree, rooted_lists, shape_of_growth

__all__ = [
    "PlaneGrowthTree",
    "PartitionVector",
    "TailCheckResult",
    "enumerate_recursive",
    "enumerate_plane_recursive",
    "embedding_count",
    "embedding_count_plane",
    "exact_posterior",
    "enumeration_posterior",
    "partition_count",
    "hardy_ramanujan_bound",
    "gamma_tail_check",
    "product_tail_check",
    "double_factorial_odd",
]

MAX_ENUM_N = 9
MAX_PLANE_ENUM_N = 8
MAX_EMBED_N = 20
MAX_PLANE_EMBED_N = 16
MAX_POSTERIOR_N = 8        # uniform model
MAX_PLANE_POSTERIOR_N = 7  # preferential model
MAX_PARTITION_S = 500


@dataclass(frozen=True)
class PlaneGrowthTree:
    """A growth tree plus, for each vertex, its children in plane order."""

    tree: GrowthTree
    orders: tuple[tuple[int, ...], ...]  # index v -> ordered children of v


@dataclass(frozen=True)
class PartitionVector:
    """Multiplicities (j_1, ..., j_l): j_k parts of size k; s = sum k*j_k."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(j) for j in self.parts)
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise ValueError("need at least one multiplicity entry")
        if any(j < 0 for j in parts):
            raise ValueError("multiplicities must be non-negative")
        if self.s < 1:
            raise ValueError("weighted size s must be at least 1")

    @property
    def s(self) -> int:
        return sum(k * j for k, j in enumerate(self.parts, start=1))


@dataclass(frozen=True)
class TailCheckResult:
    """Outcome of one Monte Carlo tail-vs-bound comparison."""

    empirical: float
    bound: float
    margin: float  # one-sided 3-sigma allowance on the empirical proportion
    trials: int
    vacuous: bool  # bound >= 1: nothing to falsify

    @property
    def passed(self) -> bool:
        return self.vacuous or self.empirical <= self.bound + self.margin


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def enumerate_recursive(n: int) -> Iterator[GrowthTree]:
    """Every increasing-labeled tree on n vertices, exactly once ((n-1)! total)."""
    if n < 2:
        raise BadSizeError(f"need n >= 2, got n={n}")
    if n > MAX_ENUM_N:
        raise TooLargeError(f"enumeration is capped at n={MAX_ENUM_N} (got n={n})")
    parents = [0, 0, 1] + [0] * (n - 2)

    def rec(i: int) -> Iterator[GrowthTree]:
        if i > n:
            yield GrowthTree(np.array(parents, dtype=np.int64))
            return
        for p in range(1, i):
            parents[i] = p
            yield from rec(i + 1)

    yield from rec(3)


def enumerate_plane_recursive(n: int) -> Iterator[PlaneGrowthTree]:
    """Every plane-oriented increasing-labeled tree, exactly once ((2n-3)!! total).

    Each arriving vertex picks an existing vertex and an insertion slot
    among that vertex's current children (child-count + 1 slots); this is
    a bijection with plane-oriented trees because deleting the largest
    label recovers the choice.
    """
    if n < 2:
        raise BadSizeError(f"need n >= 2, got n={n}")
    if n > MAX_PLANE_ENUM_N:
        raise TooLargeError(f"plane enumeration is capped at n={MAX_PLANE_ENUM_N} (got n={n})")
    parents = [0, 0, 1] + [0] * (n - 2)
    children: list[list[int]] = [[] for _ in range(n + 1)]
    children[1].append(2)

    def rec(i: int) -> Iterator[PlaneGrowthTree]:
        if i > n:
            yield PlaneGrowthTree(
                tree=GrowthTree(np.array(parents, dtype=np.int64)),
                orders=tuple(tuple(c) for c in children),
            )
            return
        for v in range(1, i):
            slots = children[v]
            for g in range(len(slots) + 1):
                slots.insert(g, i)
                parents[i] = v
                yield from rec(i + 1)
                slots.pop(g)

    yield from rec(3)


# ---------------------------------------------------------------------------
# Counting formulas
# ---------------------------------------------------------------------------


def _exact_aut(shape: ShapeTree, root: int) -> list[int]:
    """Exact integer Aut(v, (T, root)) per vertex: product of multiplicity
    factorials over isomorphic child subtrees.  Independent of the float
    log-domain pass used by the estimators."""
    order, parent = rooted_lists(shape, root)
    n = shape.n
    out = [1] * (n + 1)
    intern: dict[tuple, int] = {}
    pending: list = [[] for _ in range(n + 1)]
    for v in reversed(order):
        ids = pending[v]
        ids.sort()
        aut = 1
        run = 1
        for i in range(1, len(ids)):
            if ids[i] == ids[i - 1]:
                run += 1
            else:
                aut *= math.factorial(run)
                run = 1
        if ids:
            aut *= math.factorial(run)
        out[v] = aut
        if v == root:
            break
        key = tuple(ids)
        tid = intern.get(key)
        if tid is None:
            tid = len(intern)
            intern[key] = tid
        pending[v].clear()
        pending[parent[v]].append(tid)
    return out


def _shape_denominator(shape: ShapeTree, root: int) -> int:
    """Product over non-leaves of subtree size times Aut factor (exact)."""
    down = LevelWalk.from_order(root, *rooted_lists(shape, root)).down_size.tolist()
    aut = _exact_aut(shape, root)
    denom = 1
    for v in range(1, shape.n + 1):
        denom *= down[v] * aut[v]  # leaves contribute 1 * 1
    return denom


def embedding_count(shape: ShapeTree, root: int) -> int:
    """Number of increasing labelings of the tree rooted at ``root``:
    n! over the product of subtree sizes and Aut factors."""
    n = shape.n
    if n > MAX_EMBED_N:
        raise TooLargeError(f"embedding counts are capped at n={MAX_EMBED_N} (got n={n})")
    num = math.factorial(n)
    denom = _shape_denominator(shape, root)
    count, rem = divmod(num, denom)
    if rem:
        raise NonIntegerResultError(
            f"count formula did not divide exactly: {num} / {denom}"
        )
    return count


def embedding_count_plane(shape: ShapeTree, root: int) -> int:
    """Number of plane-oriented increasing labelings of the rooted tree:
    n! * d(root)! * prod over v != root of (d(v)-1)!, over the same
    size-times-Aut denominator."""
    n = shape.n
    if n > MAX_PLANE_EMBED_N:
        raise TooLargeError(
            f"plane embedding counts are capped at n={MAX_PLANE_EMBED_N} (got n={n})"
        )
    deg = shape.degrees().tolist()
    num = math.factorial(n) * math.factorial(deg[root])
    for v in range(1, n + 1):
        if v != root:
            num *= math.factorial(deg[v] - 1)
    denom = _shape_denominator(shape, root)
    count, rem = divmod(num, denom)
    if rem:
        raise NonIntegerResultError(
            f"plane count formula did not divide exactly: {num} / {denom}"
        )
    return count


def double_factorial_odd(n: int) -> int:
    """(2n-3)!! with the empty-product convention for n <= 2."""
    out = 1
    for k in range(3, 2 * n - 2, 2):
        out *= k
    return out


# ---------------------------------------------------------------------------
# Posteriors
# ---------------------------------------------------------------------------


def _normalize(weights: list[Fraction]) -> list[Fraction]:
    total = sum(weights[1:], start=Fraction(0))
    return [Fraction(0)] + [w / total for w in weights[1:]]


def exact_posterior(shape: ShapeTree, model: ModelSpec) -> list[Fraction]:
    """Exact rational root posterior from the counting formulas.

    p(u) is proportional to the embedding count of the tree rooted at u
    divided by u's orbit count.  Index 0 of the result is unused (0).
    """
    kind = model.posterior_kind()
    n = shape.n
    limit = MAX_POSTERIOR_N if kind == "uniform" else MAX_PLANE_POSTERIOR_N
    if n > limit:
        raise TooLargeError(f"exact posterior ({kind}) is capped at n={limit} (got n={n})")
    counter = embedding_count if kind == "uniform" else embedding_count_plane
    orbit = orbit_counts(shape).tolist()
    weights = [Fraction(0)]
    weights += [Fraction(counter(shape, u), orbit[u]) for u in range(1, n + 1)]
    return _normalize(weights)


def enumeration_posterior(shape: ShapeTree, model: ModelSpec) -> list[Fraction]:
    """Root posterior from raw enumeration, independent of the formulas.

    Streams every increasing-labeled (or plane-oriented) tree on n
    vertices, buckets them by the canonical code of their shape rooted at
    vertex 1, and reads off, for each candidate u, how many trees realize
    the observed tree rooted at u.  The orbit division then matches the
    formula route's weighting.
    """
    kind = model.posterior_kind()
    n = shape.n
    limit = MAX_POSTERIOR_N if kind == "uniform" else MAX_PLANE_POSTERIOR_N
    if n > limit:
        raise TooLargeError(f"enumeration posterior ({kind}) is capped at n={limit} (got n={n})")
    buckets: dict[bytes, int] = {}
    if kind == "uniform":
        for t in enumerate_recursive(n):
            key = canonical_code(shape_of_growth(t), 1)
            buckets[key] = buckets.get(key, 0) + 1
    else:
        for pt in enumerate_plane_recursive(n):
            key = canonical_code(shape_of_growth(pt.tree), 1)
            buckets[key] = buckets.get(key, 0) + 1
    orbit = orbit_counts(shape).tolist()
    weights = [Fraction(0)]
    weights += [
        Fraction(buckets.get(canonical_code(shape, u), 0), orbit[u])
        for u in range(1, n + 1)
    ]
    return _normalize(weights)


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------

_partition_table: list[int] = [1]


def partition_count(s: int) -> int:
    """Exact number of integer partitions p(s) by the standard DP; cached."""
    if not (1 <= s <= MAX_PARTITION_S):
        raise ValueError(f"s must be in 1..{MAX_PARTITION_S}, got {s}")
    global _partition_table
    if len(_partition_table) <= s:
        table = [1] + [0] * MAX_PARTITION_S
        for k in range(1, MAX_PARTITION_S + 1):
            for j in range(k, MAX_PARTITION_S + 1):
                table[j] += table[j - k]
        _partition_table = table
    return _partition_table[s]


def hardy_ramanujan_bound(s: int) -> float:
    """exp(pi * sqrt(2s/3)), the classical upper bound on p(s)."""
    return math.exp(math.pi * math.sqrt(2.0 * s / 3.0))


# ---------------------------------------------------------------------------
# Tail validators
# ---------------------------------------------------------------------------


def _tail_margin(empirical: float, bound: float, trials: int) -> float:
    """One-sided 3-sigma margin; variance taken at the larger of the
    empirical rate and the (clipped) bound so a lucky zero count cannot
    shrink the allowance."""
    b = min(bound, 1.0)
    var = max(empirical * (1.0 - empirical), b * (1.0 - b))
    return 3.0 * math.sqrt(var / trials)


def gamma_tail_check(parts: PartitionVector, t: float, trials: int, rng) -> TailCheckResult:
    """Empirical P(sum of Gamma(j_k, scale k) < t) against
    exp(-sqrt(s/2) * log(s/(e t))).

    Gamma variates with integer shape are generated as sums of unit
    exponentials scaled by k, so the sampler needs nothing beyond the
    exponential primitive.
    """
    s = parts.s
    if not (0.0 < t < s):
        raise BadTError(f"need 0 < t < s={s}, got t={t}")
    if trials < 1:
        raise ValueError("trials must be positive")
    gen = as_generator(rng)
    total = np.zeros(trials)
    for k, j in enumerate(parts.parts, start=1):
        if j == 0:
            continue
        total += k * gen.standard_exponential((trials, j)).sum(axis=1)
    empirical = float(np.mean(total < t))
    bound = math.exp(-math.sqrt(s / 2.0) * math.log(s / (math.e * t)))
    return TailCheckResult(
        empirical=empirical,
        bound=bound,
        margin=_tail_margin(empirical, bound, trials),
        trials=trials,
        vacuous=bound >= 1.0,
    )


def product_tail_check(t: float, trials: int, rng) -> TailCheckResult:
    """Empirical P(X <= t) against 6 t^(1/4), where X is the product over i
    of min(partial sum of i unit exponentials, 1).

    Factors become exactly 1 once a partial sum reaches 1, so X is sampled
    exactly by multiplying partial sums below 1.
    """
    if not (0.0 < t < 1.0):
        raise BadTError(f"need t in (0, 1), got t={t}")
    if trials < 1:
        raise ValueError("trials must be positive")
    gen = as_generator(rng)
    x = np.ones(trials)
    running = np.zeros(trials)
    active = np.arange(trials)
    while active.size:
        draw = gen.standard_exponential(active.size)
        running[active] += draw
        below = running[active] < 1.0
        hit = active[below]
        x[hit] *= running[hit]
        active = hit
    empirical = float(np.mean(x <= t))
    bound = 6.0 * t**0.25
    return TailCheckResult(
        empirical=empirical,
        bound=bound,
        margin=_tail_margin(empirical, bound, trials),
        trials=trials,
        vacuous=bound >= 1.0,
    )
