"""Monte Carlo harness for root-finding success rates.

A trial samples a growth tree, scores it on its growth labels (vertex 1 is
the true first vertex), and reads off that vertex's rank: a size-K
confidence set of the tree with its labels shuffled holds the first vertex
exactly when its rank is below K, so one number settles every K.  The
scores, and so the true root's run of tied scores, do not depend on
labels; only the order within that run does.  So the rank is the run's
start unless some K falls strictly inside the run, and only then are the
labels shuffled and the run put in :func:`tie_order` on the shuffled
shape, once per trial.  Trial i always uses the stream (seed, i), and the
shuffle is the stream's next draw after sampling whether or not it is
made, so results are bit-identical whether trials run serially or across
worker processes, and two configs sharing a seed see the same trees —
which makes success rates exactly monotone in K and lets different
estimators be compared pairwise on identical inputs.

``sweep`` exploits the shared trees: cells that differ only in K form a
K-family whose trials are sampled, scored and ranked once, so adding a K
to a sweep costs almost nothing.
"""

from __future__ import annotations

import csv
import io
import math
import os
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import BadSizeError
from .estimators import ESTIMATOR_TAGS, rank_interval, score_growth, tie_order, tie_runs
from .generators import ModelSpec, parse_model
from .rng import DEFAULT_SEED, RngStream
from .trees import forget_labels, label_permutation

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "run_trials",
    "sweep",
    "parse_sweep_grid",
    "root_leaf_frequency",
    "wilson_interval",
    "results_csv",
    "CSV_COLUMNS",
]

_Z95 = 1.959963984540054

CSV_COLUMNS = (
    "model",
    "estimator",
    "n",
    "k",
    "trials",
    "successes",
    "rate",
    "lo95",
    "hi95",
    "seconds",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo cell: which model/estimator/size/set-size/seed."""

    model: ModelSpec
    estimator: str
    n: int
    k: int
    trials: int
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.estimator not in ESTIMATOR_TAGS:
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.n < 2:
            raise BadSizeError(f"need n >= 2, got n={self.n}")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")


@dataclass(frozen=True)
class ExperimentResult:
    """Success tally with a Wilson 95% interval.

    ``outcomes[i]`` is trial i's success flag; ``seconds`` is wall time.
    Equality compares the statistical fields only — wall time is
    environment noise, and outcomes are summarized by the tally.
    """

    successes: int
    trials: int
    rate: float
    lo95: float
    hi95: float
    seconds: float = field(compare=False)
    outcomes: np.ndarray = field(compare=False, repr=False)


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if not (0 <= successes <= trials):
        raise ValueError("successes must lie in 0..trials")
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z2 / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _result_from_outcomes(outcomes: np.ndarray, seconds: float) -> ExperimentResult:
    successes = int(np.count_nonzero(outcomes))
    trials = int(outcomes.shape[0])
    lo, hi = wilson_interval(successes, trials)
    return ExperimentResult(
        successes=successes,
        trials=trials,
        rate=successes / trials,
        lo95=lo,
        hi95=hi,
        seconds=seconds,
        outcomes=outcomes,
    )


def _family_trial(config: ExperimentConfig, ks: tuple[int, ...], trial: int) -> tuple[bool, ...]:
    """Trial ``trial`` of a K-family: one outcome per K in ``ks``.

    The tree is sampled and scored once, on its growth labels; ``config.k``
    is not read.  Each K's outcome is whether the true root's rank is below
    min(K, n).  The rank is the start of the root's run of tied scores
    unless some K falls strictly inside that run: then, and only then, the
    labels are shuffled with the permutation :func:`forget_labels` would
    have drawn right after sampling, and the root's position in the run's
    :func:`tie_order` on the shuffled shape is added.
    """
    gen = RngStream(config.seed, trial).generator()
    tree = config.model.sample(config.n, gen)
    values = score_growth(tree, config.estimator)
    rank, end = rank_interval(values, 1)
    if any(rank < min(k, config.n) < end for k in ks):  # the root's run straddles a K
        perm = label_permutation(config.n, gen)
        shape, true_root = forget_labels(tree, permutation=perm)
        # the run's members on the shuffled labels: growth label v became perm[v - 1]
        run = perm[tie_runs(values, end)[0][rank:end] - 1]
        rank += tie_order(shape, run.tolist()).index(true_root)
    return tuple(rank < min(k, config.n) for k in ks)


def _leaf_trial(model: ModelSpec, n: int, seed: int, trial: int) -> bool:
    tree = model.sample(n, RngStream(seed, trial))
    return int(np.count_nonzero(tree.parent[2:] == 1)) == 1


def _trial_range(args) -> list:
    trial_fn, start, stop = args
    return [trial_fn(t) for t in range(start, stop)]


def _chunks(trials: int, jobs: int) -> list[tuple[int, int]]:
    size = max(1, math.ceil(trials / (jobs * 4)))
    return [(s, min(s + size, trials)) for s in range(0, trials, size)]


def ProcessPoolExecutor(max_workers: int):
    """``concurrent.futures.ProcessPoolExecutor``, imported only when a pool
    starts: the import loads ``multiprocessing``, which a ``jobs=1`` run
    never needs."""
    from concurrent.futures import ProcessPoolExecutor as pool_class

    return pool_class(max_workers=max_workers)


def _map_trials(trial_fn, trials: int, jobs: int) -> np.ndarray:
    """``trial_fn(t)`` for t in 0..trials-1 as a bool array, one row per trial.

    With ``jobs > 1`` the trials are split into (start, stop) chunks and
    mapped over processes; the pool starts all its workers up front, so
    their number is capped by the cores and the chunks, whatever ``jobs``
    asks for.
    """
    if jobs <= 1:
        return np.array([trial_fn(t) for t in range(trials)], dtype=bool)
    tasks = [(trial_fn, start, stop) for start, stop in _chunks(trials, jobs)]
    workers = min(jobs, os.cpu_count() or 1, len(tasks))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return np.array([f for chunk in pool.map(_trial_range, tasks) for f in chunk], dtype=bool)


def _run_family(cells: list[ExperimentConfig], jobs: int) -> list[ExperimentResult]:
    """Run cells that differ only in k on shared trials, one scoring per trial.

    Each cell's ``seconds`` is the family's wall time split evenly over its
    cells.
    """
    ks = tuple(c.k for c in cells)
    t0 = time.perf_counter()
    outcomes = _map_trials(partial(_family_trial, cells[0], ks), cells[0].trials, jobs)
    seconds = (time.perf_counter() - t0) / len(cells)
    return [_result_from_outcomes(outcomes[:, i].copy(), seconds) for i in range(len(cells))]


def run_trials(config: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """Run one cell; identical results for every ``jobs`` value."""
    return sweep([config], jobs)[0][1]


def root_leaf_frequency(
    model: ModelSpec,
    n: int,
    trials: int,
    seed: int = DEFAULT_SEED,
    jobs: int = 1,
) -> ExperimentResult:
    """Frequency with which the first vertex ends up with degree 1."""
    if n < 3:
        raise BadSizeError(f"need n >= 3, got n={n}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    t0 = time.perf_counter()
    outcomes = _map_trials(partial(_leaf_trial, model, n, seed), trials, jobs)
    return _result_from_outcomes(outcomes, time.perf_counter() - t0)


def sweep(
    configs: list[ExperimentConfig], jobs: int = 1
) -> list[tuple[ExperimentConfig, ExperimentResult]]:
    """Run a list of cells; rows come back in the order given.

    Cells with equal (model, estimator, n, trials, seed) form a K-family,
    whether or not they are adjacent in the list.  A family runs one trial
    loop (parallelism lives inside it): each trial's tree is sampled and
    scored once, and every K's outcome is read off the true root's rank
    interval.  Families run in order of first appearance.
    """
    if not configs:
        raise ValueError("empty sweep grid")
    families: dict[tuple, list[int]] = {}
    for i, c in enumerate(configs):
        families.setdefault((c.model, c.estimator, c.n, c.trials, c.seed), []).append(i)
    results: list[ExperimentResult | None] = [None] * len(configs)
    for members in families.values():
        for i, res in zip(members, _run_family([configs[i] for i in members], jobs)):
            results[i] = res
    return list(zip(configs, results))


def parse_sweep_grid(text: str) -> list[ExperimentConfig]:
    """Parse a key=value grid file into the cartesian product of cells.

    Keys: model, estimator, n, k (comma-separated lists allowed) and
    trials, seed (single values; seed optional).  Model tokens are
    ua/uniform, pa/preferential, or alpha:<value>.  '#' starts a comment.
    Cells are produced in model -> estimator -> n -> k nesting order.
    """
    entries: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        if key in entries:
            raise ValueError(f"duplicate key {key!r}")
        entries[key] = value.strip()
    required = {"model", "estimator", "n", "k", "trials"}
    missing = required - entries.keys()
    if missing:
        raise ValueError(f"sweep grid is missing keys: {sorted(missing)}")
    unknown = entries.keys() - (required | {"seed"})
    if unknown:
        raise ValueError(f"unknown sweep keys: {sorted(unknown)}")

    models = [parse_model(tok) for tok in entries["model"].split(",")]
    estimators = [e.strip() for e in entries["estimator"].split(",")]
    ns = [int(v) for v in entries["n"].split(",")]
    ks = [int(v) for v in entries["k"].split(",")]
    trials = int(entries["trials"])
    seed = int(entries.get("seed", DEFAULT_SEED))
    return [
        ExperimentConfig(model=m, estimator=e, n=n, k=k, trials=trials, seed=seed)
        for m in models
        for e in estimators
        for n in ns
        for k in ks
    ]


def results_csv(rows: list[tuple[ExperimentConfig, ExperimentResult]]) -> str:
    """Render (config, result) pairs as the standard CSV table.

    ``seconds`` is wall time; in a ``sweep``, cells of one K-family share
    their trials, and each gets the family's wall time split evenly over
    its cells.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for config, res in rows:
        writer.writerow(
            [
                config.model.label,
                config.estimator,
                config.n,
                config.k,
                res.trials,
                res.successes,
                repr(res.rate),
                repr(res.lo95),
                repr(res.hi95),
                f"{res.seconds:.3f}",
            ]
        )
    return buf.getvalue()
