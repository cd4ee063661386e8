"""Command-line interface.

Thin adapters only: every subcommand parses flags, calls into the library,
and renders text.  The resolved configuration (including the seed actually
used) is echoed to stderr before any results, so output on stdout stays
machine-readable while every run remains attributable to its inputs.

Exit codes: 0 success, 1 failed verification assertions, 2 usage errors,
including a size (such as ``--n``) whose arrays cannot be allocated.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import secrets
import sys
from pathlib import Path

from .errors import RootfinderError
from .estimators import ESTIMATOR_TAGS, score_tree, select_smallest
from .experiments import (
    DEFAULT_MAX_EXACT_N,
    ExperimentConfig,
    parse_sweep_grid,
    results_csv,
    run_trials,
    sweep,
)
from .generators import parse_model
from .oracle import enumerate_plane_recursive, enumerate_recursive
from .rng import DEFAULT_SEED, RngStream
from .trees import format_growth, read_edge_list
from .verify import SUITES, run_suite

__all__ = ["main"]


def _resolve_jobs(jobs: int | None) -> int:
    """``--jobs`` when given, else ``ROOTFINDER_JOBS``, else 1.  Read only
    by the commands that run trials, so a bad value breaks no other
    command; it is a usage error (exit code 2)."""
    if jobs is not None:
        return jobs
    env = os.environ.get("ROOTFINDER_JOBS", "").strip()
    if not env:
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        print(f"error: ROOTFINDER_JOBS must be an integer, got {env!r}", file=sys.stderr)
        raise SystemExit(2)


def _resolve_seed(text: str) -> int:
    if text.strip().lower() == "random":
        return secrets.randbits(63)
    return int(text)


def _echo_config(command: str, pairs: dict) -> None:
    rendered = " ".join(f"{k}={v}" for k, v in pairs.items())
    print(f"# {command} {rendered}", file=sys.stderr)


def _emit(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_generate(args) -> int:
    model = parse_model(args.model, args.alpha)
    seed = _resolve_seed(args.seed)
    _echo_config(
        "generate",
        {"model": model.label, "n": args.n, "seed": seed, "out": args.out},
    )
    _emit(format_growth(model.sample(args.n, RngStream(seed, 0))), args.out)
    return 0


def _cmd_score(args) -> int:
    shape = read_edge_list(args.infile)
    _echo_config(
        "score",
        {
            "estimator": args.estimator,
            "k": args.k,
            "in": args.infile,
            "format": args.format,
            "n": shape.n,
        },
    )
    scores = score_tree(shape, args.estimator)
    picked = select_smallest(scores, args.k)
    values = [float(scores.values[v]) for v in picked.vertices]
    if args.format == "json":
        payload = {
            "estimator": args.estimator,
            "n": shape.n,
            "k": args.k,
            "vertices": list(picked.vertices),
            "scores": values,
        }
        _emit(json.dumps(payload) + "\n", args.out)
    else:
        rows = ["vertex,score"]
        rows += [f"{v},{s!r}" for v, s in zip(picked.vertices, values)]
        _emit("\n".join(rows) + "\n", args.out)
    return 0


def _cmd_experiment(args) -> int:
    jobs = _resolve_jobs(args.jobs)
    model = parse_model(args.model, args.alpha)
    seed = _resolve_seed(args.seed)
    config = ExperimentConfig(
        model=model,
        estimator=args.estimator,
        n=args.n,
        k=args.k,
        trials=args.trials,
        seed=seed,
    )
    _echo_config(
        "experiment",
        {
            "model": model.label,
            "estimator": args.estimator,
            "n": args.n,
            "k": args.k,
            "trials": args.trials,
            "seed": seed,
            "jobs": jobs,
        },
    )
    result = run_trials(config, jobs=jobs, max_exact_n=args.max_exact_n)
    _emit(results_csv([(config, result)]), args.out)
    return 0


def _cmd_sweep(args) -> int:
    jobs = _resolve_jobs(args.jobs)
    text = Path(args.config).read_text()
    configs = parse_sweep_grid(text)
    _echo_config(
        "sweep",
        {"config": args.config, "cells": len(configs), "jobs": jobs},
    )
    rows = sweep(configs, jobs=jobs, max_exact_n=args.max_exact_n)
    _emit(results_csv(rows), args.out)
    return 0


def _cmd_verify(args) -> int:
    seed = _resolve_seed(args.seed)
    _echo_config(
        "verify",
        {"suite": args.suite, "n_max": args.n_max, "trials": args.trials, "seed": seed},
    )
    lines = run_suite(args.suite, n_max=args.n_max, trials=args.trials, seed=seed)
    for line in lines:
        print(line.render())
    return 0 if all(line.passed for line in lines) else 1


def _cmd_enumerate(args) -> int:
    _echo_config("enumerate", {"kind": args.kind, "n": args.n})
    out = []
    if args.kind == "recursive":
        for t in enumerate_recursive(args.n):
            out.append(" ".join(str(int(p)) for p in t.parent[2:]))
    else:
        for pt in enumerate_plane_recursive(args.n):
            parents = " ".join(str(int(p)) for p in pt.tree.parent[2:])
            orders = ";".join(
                f"{v}:{','.join(map(str, kids))}"
                for v, kids in enumerate(pt.orders)
                if kids
            )
            out.append(f"{parents}|{orders}")
    _emit("\n".join(out) + "\n", args.out)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: it reads nothing but
    its own arguments, so every call of :func:`main` can share it."""
    parser = argparse.ArgumentParser(
        prog="rootfinder",
        description="Random growing trees: generation, root inference, exact checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_out(p):
        p.add_argument("--out", default="-", help="output path ('-' = stdout)")

    p = sub.add_parser("generate", help="sample a growth tree and write it")
    p.add_argument("--model", required=True, help="ua|pa|alpha (or alpha:X)")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", default=str(DEFAULT_SEED), help="integer or 'random'")
    add_common_out(p)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("score", help="score a tree and select the lowest-K vertices")
    p.add_argument("--estimator", required=True, choices=ESTIMATOR_TAGS)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--in", dest="infile", required=True, help="edge-list file")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    add_common_out(p)
    p.set_defaults(fn=_cmd_score)

    p = sub.add_parser("experiment", help="Monte Carlo success rate for one cell")
    p.add_argument("--model", required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--estimator", required=True, choices=ESTIMATOR_TAGS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", default=str(DEFAULT_SEED))
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--max-exact-n", type=int, default=DEFAULT_MAX_EXACT_N)
    add_common_out(p)
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("sweep", help="run a grid of experiment cells from a file")
    p.add_argument("--config", required=True, help="key=value grid file")
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--max-exact-n", type=int, default=DEFAULT_MAX_EXACT_N)
    add_common_out(p)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("verify", help="run an exact/Monte-Carlo verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", default=str(DEFAULT_SEED))
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("enumerate", help="stream all labeled trees of a given size")
    p.add_argument("--kind", choices=("recursive", "plane"), default="recursive")
    p.add_argument("--n", type=int, required=True)
    add_common_out(p)
    p.set_defaults(fn=_cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (RootfinderError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
