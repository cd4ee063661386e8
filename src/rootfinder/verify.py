"""Named verification suites over the exact oracles.

Each suite returns a list of CheckLine records (name, passed, detail) so
the CLI can print one report line per check and tests can assert on the
same outcomes without duplicating the checking logic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .generators import ModelSpec
from .isomorphism import canonical_code
from .oracle import (
    PartitionVector,
    double_factorial_odd,
    embedding_count,
    embedding_count_plane,
    enumerate_plane_recursive,
    enumerate_recursive,
    enumeration_posterior,
    exact_posterior,
    gamma_tail_check,
    hardy_ramanujan_bound,
    partition_count,
    product_tail_check,
)
from .rng import DEFAULT_SEED, RngStream
from .trees import GrowthTree, shape_of_growth

__all__ = [
    "CheckLine",
    "SUITES",
    "GAMMA_GRID",
    "PRODUCT_TAIL_GRID",
    "counting_suite",
    "plane_counting_suite",
    "posterior_suite",
    "partitions_suite",
    "gamma_suite",
    "product_tail_suite",
    "run_suite",
]


@dataclass(frozen=True)
class CheckLine:
    name: str
    passed: bool
    detail: str

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.name}: {status} — {self.detail}"


# Gamma-tail grid: (multiplicities, t).  Every point has bound < 1 so none
# of the checks is vacuous; values chosen to mix pure and mixed part sizes.
GAMMA_GRID: tuple[tuple[tuple[int, ...], float], ...] = (
    ((25,), 5.0),
    ((25,), 2.0),
    ((16,), 3.0),
    ((36,), 6.0),
    ((10,), 1.0),
    ((2, 3), 1.0),
    ((2, 3), 2.0),
    ((0, 0, 0, 1), 0.5),
    ((1, 1), 0.4),
    ((4, 2, 1), 2.0),
)

PRODUCT_TAIL_GRID: tuple[float, ...] = (1e-2, 1e-4, 1e-6, 1e-8)


def _class_buckets(n: int, plane: bool):
    """Bucket enumerated trees by canonical code of their shape rooted at
    vertex 1; keep one exemplar GrowthTree per class."""
    buckets: dict[bytes, int] = {}
    exemplar: dict[bytes, GrowthTree] = {}
    if plane:
        stream = (pt.tree for pt in enumerate_plane_recursive(n))
    else:
        stream = enumerate_recursive(n)
    for t in stream:
        key = canonical_code(shape_of_growth(t), 1)
        buckets[key] = buckets.get(key, 0) + 1
        exemplar.setdefault(key, t)
    return buckets, exemplar


def counting_suite(n_max: int = 7) -> list[CheckLine]:
    """Per-class and total counts of increasing labelings vs enumeration."""
    lines = []
    for n in range(2, n_max + 1):
        buckets, exemplar = _class_buckets(n, plane=False)
        total = sum(buckets.values())
        expected = math.factorial(n - 1)
        mismatches = 0
        for key, count in buckets.items():
            shape = shape_of_growth(exemplar[key])
            if embedding_count(shape, 1) != count:
                mismatches += 1
        ok = total == expected and mismatches == 0
        lines.append(
            CheckLine(
                name=f"counting n={n}",
                passed=ok,
                detail=(
                    f"classes={len(buckets)} total={total} expected={expected} "
                    f"class-mismatches={mismatches}"
                ),
            )
        )
    return lines


def plane_counting_suite(n_max: int = 6) -> list[CheckLine]:
    """Per-class and total plane-oriented counts vs plane enumeration."""
    lines = []
    for n in range(2, n_max + 1):
        buckets, exemplar = _class_buckets(n, plane=True)
        total = sum(buckets.values())
        expected = double_factorial_odd(n)
        mismatches = 0
        for key, count in buckets.items():
            shape = shape_of_growth(exemplar[key])
            if embedding_count_plane(shape, 1) != count:
                mismatches += 1
        ok = total == expected and mismatches == 0
        lines.append(
            CheckLine(
                name=f"plane-counting n={n}",
                passed=ok,
                detail=(
                    f"classes={len(buckets)} total={total} expected={expected} "
                    f"class-mismatches={mismatches}"
                ),
            )
        )
    return lines


def posterior_suite(n_max: int = 6) -> list[CheckLine]:
    """Formula posterior vs enumeration posterior, exact rationals.

    The preferential model is one size smaller than the uniform model at
    each n_max because its enumeration is (2n-3)!!-sized.
    """
    lines = []
    for model, limit in (
        (ModelSpec("uniform"), n_max),
        (ModelSpec("preferential"), max(2, n_max - 1)),
    ):
        for n in range(2, limit + 1):
            _, exemplar = _class_buckets(n, plane=False)
            bad = 0
            checked = 0
            for t in exemplar.values():
                shape = shape_of_growth(t)
                if exact_posterior(shape, model) != enumeration_posterior(shape, model):
                    bad += 1
                checked += 1
            lines.append(
                CheckLine(
                    name=f"posterior {model.label} n={n}",
                    passed=bad == 0,
                    detail=f"shapes={checked} mismatches={bad}",
                )
            )
    return lines


def partitions_suite(s_max: int = 500) -> list[CheckLine]:
    """Exact partition counts against the exponential upper bound."""
    worst = 0.0
    violations = 0
    for s in range(1, s_max + 1):
        ratio = partition_count(s) / hardy_ramanujan_bound(s)
        worst = max(worst, ratio)
        if ratio > 1.0:
            violations += 1
    lines = [
        CheckLine(
            name=f"partition bound s<={s_max}",
            passed=violations == 0,
            detail=f"violations={violations} worst-ratio={worst:.3e}",
        )
    ]
    increasing = all(
        partition_count(s) <= partition_count(s + 1) for s in range(1, s_max)
    )
    lines.append(
        CheckLine(
            name="partition monotonicity",
            passed=increasing,
            detail=f"p(s) non-decreasing on 1..{s_max}",
        )
    )
    return lines


def gamma_suite(trials: int = 100_000, seed: int = DEFAULT_SEED) -> list[CheckLine]:
    """Gamma-sum lower-tail bound on the fixed grid; every point non-vacuous."""
    lines = []
    for idx, (parts, t) in enumerate(GAMMA_GRID):
        res = gamma_tail_check(PartitionVector(parts), t, trials, RngStream(seed, idx))
        lines.append(
            CheckLine(
                name=f"gamma-tail parts={parts} t={t:g}",
                passed=res.passed and not res.vacuous,
                detail=(
                    f"empirical={res.empirical:.5f} bound={res.bound:.5f} "
                    f"margin={res.margin:.5f} trials={res.trials}"
                ),
            )
        )
    return lines


def product_tail_suite(trials: int = 100_000, seed: int = DEFAULT_SEED) -> list[CheckLine]:
    """Clipped-product tail bound 6 t^(1/4) on the fixed t grid."""
    lines = []
    for idx, t in enumerate(PRODUCT_TAIL_GRID):
        res = product_tail_check(t, trials, RngStream(seed, 1000 + idx))
        lines.append(
            CheckLine(
                name=f"product-tail t={t:g}",
                passed=res.passed,
                detail=(
                    f"empirical={res.empirical:.5f} bound={res.bound:.5f} "
                    f"margin={res.margin:.5f} trials={res.trials}"
                    + (" (vacuous: bound >= 1)" if res.vacuous else "")
                ),
            )
        )
    return lines


SUITES = {
    "counting": counting_suite,
    "plane-counting": plane_counting_suite,
    "posterior": posterior_suite,
    "partitions": partitions_suite,
    "gamma": gamma_suite,
    "product-tail": product_tail_suite,
}

# the smallest n_max that gives a suite something to check: trees have at
# least 2 vertices, partition counts start at s = 1
_MIN_N_MAX = {"counting": 2, "plane-counting": 2, "posterior": 2, "partitions": 1}


def run_suite(name: str, n_max: int | None = None, trials: int = 100_000,
              seed: int = DEFAULT_SEED) -> list[CheckLine]:
    """Run one named suite with the applicable subset of the knobs: the
    sampled suites take ``trials`` and ``seed``, the others ``n_max`` when
    it is given (each suite keeps its own default).  An ``n_max`` below a
    suite's smallest size raises ValueError, since the suite would check
    nothing."""
    try:
        suite = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; expected one of {sorted(SUITES)}") from None
    if name in ("gamma", "product-tail"):
        return suite(trials=trials, seed=seed)
    if n_max is None:
        return suite()
    if n_max < _MIN_N_MAX[name]:
        raise ValueError(f"suite {name!r} needs n_max >= {_MIN_N_MAX[name]}, got {n_max}")
    return suite(n_max)
