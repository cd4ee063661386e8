"""Benchmark for rootfinder: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload mc-pa-psi --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; rootfinder is imported from its ``src``.
With ``--trace 0`` the run is timed untraced and prints the end-to-end
metrics, its times scaled by a host-speed probe (``Probe``).  With
``--trace 1`` every round runs twice, untraced and with every layer
function wrapped (see ``tracing.py``); the run prints the per-layer
metrics and writes the spans to ``.perfbench-out/``.  See README.md for
the workloads.
"""

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import inputs
from reference import Tree
from tracing import LAYERS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"


def since_process_start() -> float:
    """Seconds since this process was started, interpreter start-up included.

    The kernel keeps the start time in clock ticks since boot.
    """
    stat = Path("/proc/self/stat").read_text()
    ticks = int(stat.rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - ticks / os.sysconf("SC_CLK_TCK")


def cpu_seconds() -> float:
    own = time.process_time()
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own + kids.ru_utime + kids.ru_stime


class Probe:
    """A fixed piece of the benchmark's own code that gauges the host's speed.

    On this shared host the same round, on the same inputs, takes from 1x
    to 2x its best time, in CPU time as much as in wall time, in spells
    that last from under a second to minutes.  A probe timed right after
    each round slows with it: half of it is an interpreter loop, half the
    reference's numpy BFS, because rootfinder's layers mix the two.  The
    probe never calls rootfinder, so a change to the program leaves it
    as it is.
    """

    REF_S = 0.010  # figures read as on a host where one probe takes this long, about this host when quiet

    def __init__(self):
        gen = np.random.default_rng(0)
        obs = inputs.observe(inputs.preferential_parents(250, gen), gen)
        self.tree = Tree(obs.a, obs.b)

    def _work(self) -> None:
        s = 0
        for i in range(60_000):
            s += i * i % 7
        for u in range(1, 26):
            self.tree.bfs(u)

    def time(self) -> tuple[float, float]:
        """(wall s, cpu s) of one probe."""
        w0, c0 = time.perf_counter(), cpu_seconds()
        self._work()
        return time.perf_counter() - w0, cpu_seconds() - c0


def measure(workload, seconds: float, probe: Probe, tracer=None) -> list[tuple]:
    """Whole rounds until ``seconds`` have passed.

    Returns [(group, ops, wall s, cpu s, traced, probe wall s, probe cpu s)].
    Round r runs the workload's input group r mod ``workload.groups``, so
    every group is repeated, in turn, all through the run; the run ends at
    a round's end once the time is spent and every group has run.  The
    probe runs after every round.  With a tracer, every round runs twice
    on the same inputs, untraced and traced, the first of the two
    alternating, so that neither side gains from running second.
    """
    rounds = []
    start = time.perf_counter()
    while True:
        r = workload.next_round
        plan = (False,) if tracer is None else ((False, True), (True, False))[len(rounds) // 2 % 2]
        for traced in plan:
            workload.next_round = r
            if traced:
                tracer.install()
            try:
                w0, c0 = time.perf_counter(), cpu_seconds()
                ops = workload.round()
                wall, cpu = time.perf_counter() - w0, cpu_seconds() - c0
            finally:
                if traced:
                    tracer.restore()
            rounds.append((r % workload.groups, ops, wall, cpu, traced, *probe.time()))
        if workload.next_round >= workload.groups and time.perf_counter() - start >= seconds:
            return rounds


def pass_cost(rounds) -> tuple[int, float, float]:
    """(ops, wall, cpu) of one pass over the input groups, in probe times.

    A group's cost is the median over its repeats of round time / the
    probe's time after it.
    """
    groups: dict[int, list] = {}
    for group, ops, wall, cpu, _, probe_wall, probe_cpu in rounds:
        groups.setdefault(group, []).append((ops, wall / probe_wall, cpu / probe_cpu))
    ops = sum(g[0][0] for g in groups.values())
    wall = sum(statistics.median(x[1] for x in g) for g in groups.values())
    cpu = sum(statistics.median(x[2] for x in g) for g in groups.values())
    return ops, wall, cpu


def ops_per_s(rounds) -> float:
    """Operations per second, scaled to a host on which one probe takes ``Probe.REF_S``."""
    ops, wall, _ = pass_cost(rounds)
    return ops / (wall * Probe.REF_S)


def cpu_s_per_op(rounds) -> float:
    ops, _, cpu = pass_cost(rounds)
    return cpu * Probe.REF_S / ops


def raw_ops_per_s(rounds) -> float:
    """Operations per wall-clock second over all timed rounds, probes left out."""
    return sum(r[1] for r in rounds) / sum(r[2] for r in rounds)


def load_program():
    """Import rootfinder from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "rootfinder" / "__init__.py").is_file():
        raise SystemExit(f"error: no rootfinder package under {src}")
    sys.path.insert(0, str(src))
    import rootfinder

    if Path(rootfinder.__file__).resolve().parent != (src / "rootfinder").resolve():
        raise SystemExit(f"error: rootfinder was imported from {rootfinder.__file__}")
    for name in ("cli", "estimators", "experiments", "generators", "isomorphism", "rng", "trees"):
        importlib.import_module(f"rootfinder.{name}")
    return rootfinder


def layer_metrics(tracer, rounds, work) -> dict:
    """Per-operation layer figures over the traced rounds; ``work`` is per operation, in run order."""
    traced_work = []
    done = 0
    for _, ops, _, _, traced, *_ in rounds:
        if traced:
            traced_work += work[done : done + ops]
        done += ops
    ops = len(traced_work)
    self_s = tracer.self_seconds()
    metrics = {}
    for name, _, _ in LAYERS:
        metrics[f"{name}.s"] = (self_s.get(name, 0.0) / ops, "s/op")
    for name in ("trees.subtree_sizes", "isomorphism.canonical_code", "isomorphism.aut_log"):
        metrics[f"{name}.calls"] = (tracer.calls.get(name, 0) / ops, "calls/op")
    for field in ("vertices", "tied_in_set", "boundary_run", "root_in_boundary", "inversions"):
        metrics[f"work.{field}"] = (sum(getattr(w, field) for w in traced_work) / ops, "count/op")
    # codes computed to order ties, not those orbit_counts computes
    tied = sum(w.tied_in_set for w in traced_work)
    codes = tracer.calls_under(
        "isomorphism.canonical_code", {"estimators.vertices", "estimators.contains"}
    )
    metrics["work.codes_per_tied"] = (codes / tied if tied else 0.0, "ratio")
    plain = ops_per_s([r for r in rounds if not r[4]])
    traced = ops_per_s([r for r in rounds if r[4]])
    metrics["trace.overhead"] = (100.0 * (1.0 - traced / plain), "%")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    rf = load_program()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workload = WORKLOADS[args.workload](rf, args.seed, workdir)
    try:
        workload.setup()
        setup_wall_s = since_process_start()
        probe = Probe()
        probe.time()  # warm-up
        setup_probe_s = statistics.median(probe.time()[0] for _ in range(5))
        setup_s = setup_wall_s * Probe.REF_S / setup_probe_s
        tracer = Tracer() if args.trace else None
        rounds = measure(workload, args.seconds, probe, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        verdict = workload.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r[1] for r in rounds)
    for note in verdict.notes:
        print(f"# {note}", file=sys.stderr)
    if args.trace:
        metrics = layer_metrics(tracer, rounds, verdict.work)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(
            trace_file,
            {
                "workload": args.workload,
                "seed": args.seed,
                "rounds": [
                    dict(zip(("group", "ops", "wall_s", "cpu_s", "traced", "probe_wall_s", "probe_cpu_s"), r))
                    for r in rounds
                ],
            },
        )
        print(f"# spans written to {trace_file}", file=sys.stderr)
    else:
        print(
            f"# as measured, probes left out: {raw_ops_per_s(rounds):.4g} op/s over all rounds, "
            f"set-up {setup_wall_s:.3f} s; "
            f"probe median {statistics.median(r[5] for r in rounds) * 1e3:.2f} ms "
            f"(reference {Probe.REF_S * 1e3:g} ms)",
            file=sys.stderr,
        )
        metrics = {
            "ops_per_s": (ops_per_s(rounds), "op/s"),
            "cpu_s_per_op": (cpu_s_per_op(rounds), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
    result = {
        "correct": verdict.correct,
        "attempted": attempted,
        "failed": verdict.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
