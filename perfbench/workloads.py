"""The four workloads: set-up, one round of operations, and the checks.

Every workload calls rootfinder's public API in this process with
``jobs=1``.  A workload's inputs form ``groups`` groups made from the
seed; round r runs the operations of group r mod ``groups``, and
``run.py`` repeats rounds until the run length is spent.  Outputs are
kept and checked after timing against ``reference`` (independent of
rootfinder's fast paths).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
from reference import Tree, rank_interval, runs_of

# relative precision of every score check: agreement with the reference,
# order, and the band either side of rank k
REL = 1e-9
DEGREE_SIGMAS = 5.0  # mc-pa-psi: allowed distance of mean deg(first) from its expectation


def derived_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1, np.uint64)[0])


@dataclass
class Work:
    """What one operation asked of the program, from the benchmark's own scan."""

    vertices: int = 0
    tied_in_set: int = 0
    boundary_run: int = 0
    root_in_boundary: int = 0
    inversions: int = 0


@dataclass
class Verdict:
    failed: int = 0
    correct: bool = True
    work: list[Work] = field(default_factory=list)  # one per operation, in order
    notes: list[str] = field(default_factory=list)


def set_composition(run_sizes: np.ndarray, k: int) -> tuple[int, int]:
    """(tied_in_set, boundary_run) for the k lowest of a sorted score vector.

    ``run_sizes`` are the sizes of its runs of equal scores, in order.
    ``tied_in_set`` counts set slots held by members of tied runs of two or
    more; ``boundary_run`` is the size of the run straddling rank k (0 if
    none straddles).
    """
    ends = np.cumsum(run_sizes)
    starts = ends - run_sizes
    inside = (starts < k) & (run_sizes >= 2)
    tied = int((np.minimum(ends[inside], k) - starts[inside]).sum())
    straddle = (starts < k) & (ends > k)
    return tied, int(run_sizes[straddle].sum())


# ---------------------------------------------------------------------------
# mc-pa-psi


class MonteCarlo:
    """``experiments.sweep`` over PA trees, psi, one cell per K.

    An operation is one (trial, K) outcome.  Each round runs the three
    cells on the trials of one group (its own derived seed), so every
    trial's tree is scored once per K, as a user's success-against-K curve
    does; round r runs group r mod ``groups``.
    """

    N = 10_000
    KS = (10, 50, 200)
    TRIALS = 2  # per cell per round
    groups = 16

    def __init__(self, rf, seed: int):
        self.rf = rf
        self.seed = seed
        self.results: list[tuple[int, list[np.ndarray]]] = []  # (cell seed, outcomes per K)
        self.next_round = 0

    def _configs(self, cell_seed: int, trials: int):
        spec = self.rf.generators.ModelSpec("preferential")
        return [
            self.rf.experiments.ExperimentConfig(spec, "psi", self.N, k, trials, seed=cell_seed)
            for k in self.KS
        ]

    def setup(self) -> None:
        # warm-up: one round on trials that are not timed
        self.rf.experiments.sweep(self._configs(derived_seed(self.seed, 1 << 32), self.TRIALS), jobs=1)

    def round(self) -> int:
        cell_seed = derived_seed(self.seed, self.next_round % self.groups)
        self.next_round += 1
        rows = self.rf.experiments.sweep(self._configs(cell_seed, self.TRIALS), jobs=1)
        self.results.append((cell_seed, [np.asarray(res.outcomes) for _, res in rows]))
        return self.TRIALS * len(self.KS)

    def _trial(self, cell_seed: int, t: int):
        """Regenerate trial t of a cell: (deg(first), facts), facts None if the shape is wrong.

        facts are the true root's (#lower, #tied) by reference psi and the
        sizes of the runs of equal psi in ascending order.
        """
        rf = self.rf
        gen = rf.rng.RngStream(cell_seed, t).generator()
        tree = rf.generators.sample_preferential_attachment(self.N, gen)
        shape, root = rf.trees.forget_labels(tree, gen)
        deg_first = int(np.count_nonzero(tree.parent[2:] == 1))
        ref = _shape_tree(shape)
        if (
            ref is None
            or int(ref.deg[root]) != deg_first
            or not np.array_equal(np.sort(ref.deg[1:]), np.sort(tree.degrees()[1:]))
        ):
            return deg_first, None
        psi = ref.psi()
        return deg_first, (rank_interval(psi, root), np.unique(psi[1:], return_counts=True)[1])

    def check(self) -> Verdict:
        verdict = Verdict()
        trials: dict[tuple[int, int], tuple] = {}  # a replayed round is regenerated once
        for cell_seed, outcomes in self.results:
            for t in range(self.TRIALS):
                if (cell_seed, t) not in trials:
                    trials[cell_seed, t] = self._trial(cell_seed, t)
                facts = trials[cell_seed, t][1]
                previous = False
                for k, flags in zip(self.KS, outcomes):
                    hit = bool(flags[t])
                    if facts is None:
                        verdict.failed += 1
                        verdict.work.append(Work(self.N))
                        continue
                    (lower, tied), run_sizes = facts
                    # success when the root's whole run fits, failure when none of
                    # it does, either inside the run straddling K; monotone in K
                    ok = (hit or lower + tied > k) and (not hit or lower < k) and (hit or not previous)
                    verdict.failed += not ok
                    in_set, boundary = set_composition(run_sizes, k)
                    verdict.work.append(Work(self.N, in_set, boundary, int(lower < k < lower + tied)))
                    previous = hit
        degrees = [deg for deg, _ in trials.values()]
        mean = float(np.mean(degrees))
        sem = float(np.std(degrees, ddof=1) / math.sqrt(len(degrees))) if len(degrees) > 1 else math.inf
        expect = math.prod(1.0 + 1.0 / (2 * (i - 2)) for i in range(3, self.N + 1))
        verdict.correct = abs(mean - expect) <= DEGREE_SIGMAS * sem
        verdict.notes.append(
            f"mean deg(first) {mean:.3f} over {len(degrees)} trees; PA expectation {expect:.3f}, "
            f"{abs(mean - expect) / sem:.2f} standard errors apart (allowed {DEGREE_SIGMAS:g})"
        )
        return verdict


def _shape_tree(shape) -> Tree | None:
    """The benchmark's Tree from a ShapeTree's CSR arrays, or None if not a tree."""
    xadj = np.asarray(shape.xadj)
    adj = np.asarray(shape.adjncy)
    n = xadj.shape[0] - 2
    owner = np.repeat(np.arange(1, n + 1), np.diff(xadj[1:]))
    forward = owner < adj
    if 2 * int(forward.sum()) != adj.shape[0] or adj.shape[0] != 2 * (n - 1):
        return None
    try:
        return Tree(owner[forward], adj[forward])
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# score-*: one observed tree through ``rootfinder score`` per operation


@dataclass(frozen=True)
class Job:
    """One scoring operation's inputs."""

    model: str
    estimator: str
    n: int
    k: int


class Score:
    """``cli.main(["score", ...])`` in process on edge-list files.

    Input group g is one tree for job g mod ``len(jobs)``, drawn by
    ``inputs`` from the seed and written during set-up; round r scores
    group r mod ``groups``.
    """

    def __init__(self, rf, seed: int, workdir: Path, jobs: list[Job], groups: int, warm: Job):
        self.rf = rf
        self.seed = seed
        self.dir = workdir
        self.jobs = jobs
        self.groups = groups
        self.warm = warm
        self.inputs: list[tuple[Job, inputs.Observed, Path]] = []  # one per group
        self.outputs: list[tuple[int, bytes | None]] = []  # (group, output)
        self.next_round = 0

    def _draw(self, job: Job, *path: int) -> inputs.Observed:
        gen = np.random.default_rng([self.seed, *path])
        draw = inputs.uniform_parents if job.model == "ua" else inputs.preferential_parents
        return inputs.observe(draw(job.n, gen), gen)

    def setup(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        for g in range(self.groups):
            job = self.jobs[g % len(self.jobs)]
            obs = self._draw(job, g)
            path = self.dir / f"tree-{g}.edges"
            inputs.write_edge_list(obs, path)
            self.inputs.append((job, obs, path))
        warm_path = self.dir / "warm.edges"
        inputs.write_edge_list(self._draw(self.warm, 1 << 32), warm_path)
        self._score(self.warm, warm_path, self.dir / "warm.json")

    def _score(self, job: Job, path: Path, out: Path) -> bytes | None:
        argv = ["score", "--estimator", job.estimator, "--k", str(job.k)]
        argv += ["--in", str(path), "--out", str(out)]
        if self.rf.cli.main(argv) != 0:
            return None
        return out.read_bytes()

    def round(self) -> int:
        g = self.next_round % self.groups
        self.next_round += 1
        job, _, path = self.inputs[g]
        self.outputs.append((g, self._score(job, path, self.dir / f"out-{g}.json")))
        return 1

    def check(self) -> Verdict:
        verdict = Verdict()
        seen: dict[tuple[int, bytes | None], tuple[bool, Work]] = {}
        for key in self.outputs:
            if key not in seen:
                g, data = key
                job, obs, _ = self.inputs[g]
                seen[key] = check_listing(job, obs, data, verdict.notes)
            ok, work = seen[key]
            verdict.failed += not ok
            verdict.work.append(work)
        return verdict


def check_listing(job: Job, obs: inputs.Observed, data: bytes | None, notes: list[str]):
    """Check one ``score`` output against the reference; return (ok, work)."""
    n, k = obs.n, job.k
    work = Work(vertices=n)

    def fail(why: str):
        notes.append(f"{job.model}/{job.estimator} n={n} k={k}: {why}")
        return False, work

    if data is None:
        return fail("score exited with an error")
    try:
        payload = json.loads(data)
        listed = [int(v) for v in payload["vertices"]]
        scores = [float(s) for s in payload["scores"]]
    except (ValueError, KeyError, TypeError):
        return fail("output is not the score command's JSON")
    m = min(k, n)
    if len(listed) != m or len(scores) != m or len(set(listed)) != m:
        return fail(f"expected {m} distinct vertices and scores")
    if min(listed) < 1 or max(listed) > n:
        return fail("vertex outside 1..n")

    tree = Tree(obs.a, obs.b)
    phi = tree.phi()
    ref = phi.copy()
    if job.estimator in ("zeta", "xi"):
        # zeta(u) = phi(u) + log n + log|Aut(T)|; xi(u) = zeta(u) - log deg(u)
        ref[1:] += math.log(n) + tree.log_aut()
        if job.estimator == "xi":
            ref[1:] -= np.log(tree.deg[1:].astype(np.float64))
    elif job.estimator != "phi":
        return fail(f"no reference for estimator {job.estimator}")

    def exact(u: int):
        r = tree.phi_ratio(u)
        return r / int(tree.deg[u]) if job.estimator == "xi" else r

    got = np.asarray(scores)
    want = ref[listed]
    worst = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    if worst.max() > REL:
        i = int(worst.argmax())
        return fail(f"vertex {listed[i]} scored {got[i]!r}, reference {want[i]!r}")

    # the k lowest, up to a rounding band on either side of rank k
    kth = float(np.partition(ref[1:], m - 1)[m - 1])
    band = REL * max(1.0, abs(kth))
    members = np.zeros(n + 1, dtype=bool)
    members[listed] = True
    below = np.flatnonzero(ref[1:] < kth - band) + 1
    if not members[below].all() or want.max() > kth + band:
        return fail("listed set is not the k lowest by reference score")

    keys = [exact(u) for u in listed]
    for i in range(m - 1):
        if got[i] - got[i + 1] > REL * max(1.0, abs(got[i])):
            return fail(f"scores fall at rank {i + 2}: {got[i]!r} then {got[i + 1]!r}")
        # closer than REL the order is not checked, only counted when inverted
        work.inversions += keys[i + 1] < keys[i]

    # the run straddling rank k: unlisted vertices tied exactly with the last
    near = np.flatnonzero(np.abs(ref[1:] - ref[listed[-1]]) <= band) + 1
    outside = sum(1 for u in near.tolist() if not members[u] and exact(u) == keys[-1])
    runs = runs_of(keys)
    for start, stop in runs:
        size = stop - start + (outside if stop == m else 0)
        if size >= 2:
            work.tied_in_set += stop - start
    if outside:
        start, stop = runs[-1]
        work.boundary_run = stop - start + outside

    # within a tied run, one isomorphism class sits together, labels ascending
    for start, stop in runs:
        if stop - start < 2:
            continue
        run = listed[start:stop]
        cls = {u: tree.orbit_key(u) for u in run}
        seen_cls = set()
        for i, u in enumerate(run):
            c = cls[u]
            if i and c == cls[run[i - 1]]:
                if u < run[i - 1]:
                    return fail(f"labels not ascending within a class at rank {start + i + 1}")
            elif c in seen_cls:
                return fail(f"isomorphism class split within the tied run at rank {start + i + 1}")
            seen_cls.add(c)
    return True, work


# ---------------------------------------------------------------------------


WORKLOADS = {
    "mc-pa-psi": lambda rf, seed, workdir: MonteCarlo(rf, seed),
    "score-ua-large": lambda rf, seed, workdir: Score(
        rf, seed, workdir, [Job("ua", "phi", 100_000, 10)], groups=2, warm=Job("ua", "phi", 10_000, 10)
    ),
    "score-pa-ties": lambda rf, seed, workdir: Score(
        rf, seed, workdir, [Job("pa", "phi", 300, 300)], groups=12, warm=Job("pa", "phi", 100, 100)
    ),
    "score-exact": lambda rf, seed, workdir: Score(
        rf,
        seed,
        workdir,
        [Job("ua", "zeta", 250, 250), Job("pa", "xi", 250, 250)],
        groups=4,
        warm=Job("pa", "xi", 60, 60),
    ),
}
