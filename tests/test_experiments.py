"""Monte Carlo harness: reproducibility, K-monotonicity, Wilson intervals,
root-leaf frequencies, sweep grids, and the CSV table.

Determinism claims are checked the strong way — per-trial outcome arrays
must match bit for bit across repeat runs and across worker counts, and
K-monotonicity must hold trial by trial, not just in the aggregate rate.
"""

import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats

from rootfinder import (
    BadSizeError,
    ExperimentConfig,
    ExperimentResult,
    ModelSpec,
    RngStream,
    forget_labels,
    parse_model,
    parse_sweep_grid,
    results_csv,
    root_leaf_frequency,
    run_trials,
    score_tree,
    select_smallest,
    sweep,
    wilson_interval,
)
from rootfinder import estimators, experiments
from rootfinder.estimators import rank_interval
from rootfinder.experiments import CSV_COLUMNS
from rootfinder.rng import DEFAULT_SEED

UA = ModelSpec("uniform")
PA = ModelSpec("preferential")


def small_config(**overrides):
    base = dict(model=UA, estimator="psi", n=40, k=5, trials=60, seed=31)
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config and result invariants


def test_config_rejects_unknown_estimator():
    with pytest.raises(ValueError):
        small_config(estimator="chi")


def test_config_rejects_tiny_n():
    with pytest.raises(BadSizeError):
        small_config(n=1)


def test_config_rejects_bad_k_and_trials():
    with pytest.raises(ValueError):
        small_config(k=0)
    with pytest.raises(ValueError):
        small_config(trials=0)


def test_result_fields_are_consistent():
    res = run_trials(small_config())
    assert res.trials == 60
    assert 0 <= res.successes <= res.trials
    assert res.rate == res.successes / res.trials
    assert res.lo95 <= res.rate <= res.hi95
    assert res.outcomes.dtype == np.bool_
    assert res.outcomes.shape == (60,)
    assert int(np.count_nonzero(res.outcomes)) == res.successes
    assert res.seconds >= 0.0


def test_result_equality_ignores_wall_time():
    res = run_trials(small_config())
    twin = ExperimentResult(
        successes=res.successes,
        trials=res.trials,
        rate=res.rate,
        lo95=res.lo95,
        hi95=res.hi95,
        seconds=res.seconds + 123.0,
        outcomes=res.outcomes.copy(),
    )
    assert twin == res


def test_k_equal_n_saturates():
    # the confidence set is all of 1..n, so every trial succeeds
    res = run_trials(small_config(n=12, k=12, trials=50))
    assert res.rate == 1.0
    assert res.successes == 50


# ---------------------------------------------------------------------------
# determinism


def test_rerun_is_bit_identical():
    a = run_trials(small_config())
    b = run_trials(small_config())
    assert a == b
    assert np.array_equal(a.outcomes, b.outcomes)


def test_different_seeds_differ():
    a = run_trials(small_config(seed=1))
    b = run_trials(small_config(seed=2))
    assert not np.array_equal(a.outcomes, b.outcomes)


def test_jobs_do_not_change_outcomes():
    config = small_config(trials=48)
    serial = run_trials(config, jobs=1)
    parallel = run_trials(config, jobs=2)
    assert serial == parallel
    assert np.array_equal(serial.outcomes, parallel.outcomes)


class _SerialPool:
    """Stands in for ProcessPoolExecutor: runs the tasks in this process and
    records the worker count it was asked for, so no process is started."""

    def __init__(self, max_workers, requests):
        requests.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize(
    "jobs, trials, cores, workers",
    [(64, 3, 8, 3), (64, 100, 2, 2), (3, 100, None, 1), (2, 48, 4, 2)],
)
def test_worker_count_is_capped_by_cores_and_chunks(monkeypatch, jobs, trials, cores, workers):
    requests = []
    monkeypatch.setattr(
        experiments, "ProcessPoolExecutor", lambda max_workers: _SerialPool(max_workers, requests)
    )
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cores)
    config = small_config(trials=trials)
    capped = run_trials(config, jobs=jobs)
    leaf = root_leaf_frequency(UA, 20, trials=trials, seed=3, jobs=jobs)
    assert requests == [workers, workers]
    assert np.array_equal(capped.outcomes, run_trials(config, jobs=1).outcomes)
    assert np.array_equal(leaf.outcomes, root_leaf_frequency(UA, 20, trials, seed=3).outcomes)


def test_success_monotone_in_k_per_trial():
    # shared seed => shared trees, and the K lowest scores nest as K grows,
    # so each individual trial's outcome can only flip False -> True
    results = [
        run_trials(small_config(n=60, k=k, trials=150, seed=5)) for k in (1, 2, 4, 8, 16)
    ]
    for tight, loose in zip(results, results[1:]):
        assert np.all(loose.outcomes >= tight.outcomes)
        assert loose.successes >= tight.successes


# ---------------------------------------------------------------------------
# wilson interval


def test_wilson_matches_reference_implementation():
    for successes, trials in [(0, 10), (7, 10), (50, 100), (999, 1000), (1, 3)]:
        lo, hi = wilson_interval(successes, trials)
        ref = scipy.stats.binomtest(successes, trials).proportion_ci(
            confidence_level=0.95, method="wilson"
        )
        assert math.isclose(lo, ref.low, rel_tol=0, abs_tol=1e-12)
        assert math.isclose(hi, ref.high, rel_tol=0, abs_tol=1e-12)


def test_wilson_brackets_the_point_estimate():
    for successes, trials in [(0, 1), (1, 1), (3, 7), (250, 1000)]:
        lo, hi = wilson_interval(successes, trials)
        assert 0.0 <= lo <= successes / trials <= hi <= 1.0


def test_wilson_rejects_bad_counts():
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    with pytest.raises(ValueError):
        wilson_interval(-1, 10)
    with pytest.raises(ValueError):
        wilson_interval(11, 10)


def test_wilson_calibration_on_bernoulli_streams():
    # nominal 95% coverage; 400 repetitions at p=0.3 should rarely dip
    # below 90% (binomial 3-sigma around 0.95 is ~0.92)
    rng = np.random.default_rng(2024)
    covered = 0
    reps, trials, p = 400, 100, 0.3
    for _ in range(reps):
        successes = int(rng.binomial(trials, p))
        lo, hi = wilson_interval(successes, trials)
        covered += lo <= p <= hi
    assert covered / reps >= 0.90


# ---------------------------------------------------------------------------
# root-leaf frequency


def test_root_leaf_uniform_n3_is_half():
    # vertex 3 hides vertex 1 as a leaf iff it attaches to vertex 2
    res = root_leaf_frequency(UA, 3, trials=20_000, seed=9)
    sigma = math.sqrt(0.25 / 20_000)
    assert abs(res.rate - 0.5) <= 3 * sigma


def test_root_leaf_uniform_matches_closed_form():
    # P(vertex 1 stays a leaf) = prod_{i=3..n} (1 - 1/(i-1)) = 1/(n-1)
    n, trials = 50, 30_000
    res = root_leaf_frequency(UA, n, trials=trials, seed=11)
    p = 1 / (n - 1)
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(res.rate - p) <= 3 * sigma


def test_root_leaf_preferential_scales_like_inverse_sqrt():
    # Theta(1/sqrt(n)): quadrupling n should roughly halve the frequency
    trials = 20_000
    small = root_leaf_frequency(PA, 100, trials=trials, seed=13)
    large = root_leaf_frequency(PA, 400, trials=trials, seed=13)
    assert large.rate > 0
    assert 1.4 <= small.rate / large.rate <= 2.6


def test_root_leaf_rejects_tiny_trees():
    with pytest.raises(BadSizeError):
        root_leaf_frequency(UA, 2, trials=10)
    with pytest.raises(ValueError):
        root_leaf_frequency(UA, 5, trials=0)


def test_root_leaf_jobs_parity():
    a = root_leaf_frequency(UA, 20, trials=64, seed=3, jobs=1)
    b = root_leaf_frequency(UA, 20, trials=64, seed=3, jobs=2)
    assert a == b
    assert np.array_equal(a.outcomes, b.outcomes)


# ---------------------------------------------------------------------------
# exact estimators at any n


# These four keep the names they had when zeta and xi cells were capped
# (max_exact_n, DEFAULT_MAX_EXACT_N = 2000). Both estimators are O(n) now and
# the cap is deleted, so each checks that the request it once covered runs.


def test_zeta_cell_above_cap_is_refused():
    # the n = 150 cell was refused under max_exact_n = 100; zeta is phi plus
    # one constant per tree, so on the same trees it succeeds where phi does
    zeta = run_trials(small_config(estimator="zeta", n=150, trials=3))
    phi = run_trials(small_config(estimator="phi", n=150, trials=3))
    assert zeta.trials == 3
    assert np.array_equal(zeta.outcomes, phi.outcomes)


def test_zeta_cell_under_cap_runs():
    res = run_trials(small_config(estimator="zeta", n=80, trials=2))
    assert res.trials == 2


def test_default_cap_blocks_big_xi_cells():
    # n = 2001 was one past the old default cap; the xi cell now runs
    res = run_trials(small_config(estimator="xi", n=2001, trials=1))
    assert res.trials == 1
    assert res.outcomes.shape == (1,)


def test_linear_estimators_ignore_the_cap():
    for estimator in ("psi", "phi"):
        res = run_trials(small_config(estimator=estimator, n=2001, k=1, trials=1))
        assert res.trials == 1


# ---------------------------------------------------------------------------
# sweep grids


GRID = """\
# two models, two set sizes
model = ua, pa
estimator = psi
n = 30
k = 2, 8
trials = 25
seed = 7
"""


def test_parse_sweep_grid_orders_cells():
    configs = parse_sweep_grid(GRID)
    assert [(c.model.label, c.estimator, c.n, c.k) for c in configs] == [
        ("uniform", "psi", 30, 2),
        ("uniform", "psi", 30, 8),
        ("preferential", "psi", 30, 2),
        ("preferential", "psi", 30, 8),
    ]
    assert all(c.trials == 25 and c.seed == 7 for c in configs)


def test_parse_sweep_grid_seed_is_optional():
    configs = parse_sweep_grid("model=ua\nestimator=phi\nn=10\nk=1\ntrials=5\n")
    assert len(configs) == 1
    assert configs[0].seed == DEFAULT_SEED


def test_parse_sweep_grid_nesting_order():
    text = "model=ua\nestimator=psi,phi\nn=10,20\nk=1,2\ntrials=5\n"
    cells = [(c.estimator, c.n, c.k) for c in parse_sweep_grid(text)]
    assert cells == [
        ("psi", 10, 1),
        ("psi", 10, 2),
        ("psi", 20, 1),
        ("psi", 20, 2),
        ("phi", 10, 1),
        ("phi", 10, 2),
        ("phi", 20, 1),
        ("phi", 20, 2),
    ]


def test_parse_sweep_grid_rejects_missing_keys():
    with pytest.raises(ValueError, match="missing"):
        parse_sweep_grid("model=ua\nestimator=psi\nn=10\nk=1\n")


def test_parse_sweep_grid_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown"):
        parse_sweep_grid(GRID + "alpha = 2\n")


def test_parse_sweep_grid_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        parse_sweep_grid(GRID + "n = 40\n")


def test_parse_sweep_grid_rejects_non_assignments():
    with pytest.raises(ValueError, match="key=value"):
        parse_sweep_grid("model=ua\nestimator psi\n")


def test_sweep_matches_individual_runs():
    configs = parse_sweep_grid(GRID)
    rows = sweep(configs)
    assert [c for c, _ in rows] == configs
    for config, result in rows:
        assert result == run_trials(config)


ALPHA = parse_model("alpha:1.5")


def selection_outcomes(config):
    """Per-trial outcomes the direct way: sample, relabel, score and ask
    the confidence set, once per trial and K."""
    flags = []
    for t in range(config.trials):
        gen = RngStream(config.seed, t).generator()
        shape, root = forget_labels(config.model.sample(config.n, gen), gen)
        flags.append(root in select_smallest(score_tree(shape, config.estimator), config.k))
    return np.array(flags)


def root_runs(config):
    """Per trial of ``config``, the root's tied run ``(start, end)``, found
    the relabel-first way."""
    runs = []
    for t in range(config.trials):
        gen = RngStream(config.seed, t).generator()
        shape, root = forget_labels(config.model.sample(config.n, gen), gen)
        runs.append(rank_interval(score_tree(shape, config.estimator), root))
    return runs


def straddling(family):
    """Per trial of a K-family, whether the root's tied run straddles one
    of the family's K."""
    c = family[0]
    return [any(start < min(f.k, c.n) < end for f in family) for start, end in root_runs(c)]


def test_process_pool_is_imported_only_when_a_pool_starts():
    # importing multiprocessing costs every run memory; a jobs=1 run needs none
    probe = (
        "import sys, rootfinder\n"
        "rootfinder.run_trials(rootfinder.ExperimentConfig("
        "rootfinder.ModelSpec('uniform'), 'phi', 20, 3, trials=2), jobs=1)\n"
        "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])"
    )
    src = str(Path(experiments.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("model", [UA, PA, ALPHA])
@pytest.mark.parametrize("estimator, n", [("psi", 30), ("phi", 30), ("zeta", 12), ("xi", 20)])
def test_sweep_outcomes_match_per_cell_runs(monkeypatch, jobs, model, estimator, n):
    # psi and phi ask every K, so some K falls inside the root's tie run
    ks = range(1, n + 2) if estimator in ("psi", "phi") else (1, 2, 5, n, n + 7)
    configs = [ExperimentConfig(model, estimator, n, k, trials=16, seed=23) for k in ks]
    monkeypatch.setattr(
        experiments, "ProcessPoolExecutor", lambda max_workers: _SerialPool(max_workers, [])
    )
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    rows = sweep(configs, jobs=jobs)
    assert [c for c, _ in rows] == configs
    for config, result in rows:
        assert np.array_equal(result.outcomes, run_trials(config, jobs=jobs).outcomes)
        assert np.array_equal(result.outcomes, selection_outcomes(config))
    # so the carried-over scores are checked too; xi's roots straddle a K
    # only on the alpha trees here
    if estimator != "xi" or model == ALPHA:
        assert any(straddling(configs))


def counting_calls(monkeypatch, name):
    """Patch ``experiments.<name>`` to record each call's second positional
    argument (the estimator, for ``score_growth``), or None."""
    calls = []
    real = getattr(experiments, name)

    def counting(tree, *args, **kwargs):
        calls.append(args[0] if args else None)
        return real(tree, *args, **kwargs)

    monkeypatch.setattr(experiments, name, counting)
    return calls


def test_sweep_scores_each_trial_once_per_family(monkeypatch):
    calls = counting_calls(monkeypatch, "score_growth")
    relabels = counting_calls(monkeypatch, "forget_labels")
    psi = [small_config(n=20, k=k, trials=7) for k in (1, 3, 5)]
    phi = [small_config(model=PA, estimator="phi", n=20, k=k, trials=7) for k in (2, 4)]
    sweep(psi + phi)
    assert sorted(calls) == ["phi"] * 7 + ["psi"] * 7
    assert len(relabels) == sum(straddling(psi)) + sum(straddling(phi))


@pytest.mark.parametrize("estimator", ["psi", "phi"])
def test_sweep_relabels_only_trials_whose_root_run_straddles(monkeypatch, estimator):
    family = [small_config(estimator=estimator, n=30, k=k, trials=40) for k in range(1, 32)]
    want = straddling(family)
    assert 0 < sum(want) < len(want)
    relabels = counting_calls(monkeypatch, "forget_labels")
    calls = counting_calls(monkeypatch, "score_growth")
    sweep(family)
    assert len(calls) == 40
    assert len(relabels) == sum(want)


def test_sweep_code_sorts_a_straddling_run_once(monkeypatch):
    # every K from 1 to n + 1, so every tied root run straddles several
    family = [small_config(n=30, k=k, trials=40, seed=5) for k in range(1, 32)]
    runs = [end - start for (start, end), s in zip(root_runs(family[0]), straddling(family)) if s]
    real = estimators.canonical_code
    codes = []

    def counting(shape, root):
        codes.append(root)
        return real(shape, root)

    monkeypatch.setattr(estimators, "canonical_code", counting)
    rows = sweep(family)
    assert len(codes) == sum(runs) == 72
    assert sum(res.successes for _, res in rows) == 1089


def test_sweep_families_need_not_be_adjacent(monkeypatch):
    a = [small_config(n=25, k=k, trials=9) for k in (1, 5, 2)]
    b = [small_config(n=25, k=k, trials=9, seed=32) for k in (1, 3)]
    configs = [a[0], b[0], a[1], b[1], a[2]]
    expected = [run_trials(c).outcomes for c in configs]
    calls = counting_calls(monkeypatch, "score_growth")
    relabels = counting_calls(monkeypatch, "forget_labels")
    rows = sweep(configs)
    assert len(calls) == 18
    assert len(relabels) == sum(straddling(a)) + sum(straddling(b))
    assert [c for c, _ in rows] == configs
    for (_, result), want in zip(rows, expected):
        assert np.array_equal(result.outcomes, want)


def test_sweep_splits_family_wall_time_evenly(monkeypatch):
    clock = iter([0.0, 6.0, 10.0, 11.0])
    monkeypatch.setattr(experiments, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    configs = [small_config(k=k, trials=3) for k in (1, 2)]
    configs.insert(1, small_config(k=1, trials=3, estimator="phi"))
    configs.append(small_config(k=4, trials=3))
    rows = sweep(configs)
    assert [res.seconds for _, res in rows] == [2.0, 1.0, 2.0, 2.0]


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValueError):
        sweep([])


# ---------------------------------------------------------------------------
# CSV rendering


def test_results_csv_layout():
    config = ExperimentConfig(
        model=parse_model("alpha:1.5"), estimator="phi", n=12, k=3, trials=40, seed=2
    )
    rows = sweep([config])
    text = results_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "alpha:1.5"
    assert fields[1] == "phi"
    assert [int(f) for f in fields[2:6]] == [12, 3, 40, rows[0][1].successes]
    # floats are rendered with repr so they round-trip exactly
    assert float(fields[6]) == rows[0][1].rate
    assert float(fields[7]) == rows[0][1].lo95
    assert float(fields[8]) == rows[0][1].hi95
    assert fields[9] == f"{rows[0][1].seconds:.3f}"


def test_results_csv_is_deterministic_apart_from_seconds():
    configs = parse_sweep_grid(GRID)
    first = results_csv(sweep(configs))
    second = results_csv(sweep(configs))
    strip = lambda text: [line.rsplit(",", 1)[0] for line in text.splitlines()]
    assert strip(first) == strip(second)


# ---------------------------------------------------------------------------
# headline success rates (small-scale smoke versions)


def test_argmin_phi_alone_finds_the_root_sometimes():
    # even a singleton set has a visibly positive hit rate on big trees
    config = ExperimentConfig(model=UA, estimator="phi", n=10_000, k=1, trials=300, seed=41)
    res = run_trials(config)
    assert res.rate >= 0.01


def test_psi_beats_chance_on_uniform_trees():
    config = small_config(n=500, k=10, trials=200, seed=17)
    res = run_trials(config)
    # K/n = 2% by chance; psi should clear 50% easily at this size
    assert res.rate >= 0.5
