"""Per-layer spans taken from outside the program.

Each traced function is replaced, under every name a rootfinder module
holds it by, with a wrapper that records a span (name, start, end, parent
span) and a call count; ``Tracer.restore`` puts the originals back.  No
program file changes.  A layer's self time is its spans' durations minus
the time covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (layer name, defining module, attribute path); layers are rootfinder's modules
LAYERS = [
    ("generators.sample", "generators", "ModelSpec.sample"),
    ("trees.forget_labels", "trees", "forget_labels"),
    ("trees.read_edge_list", "trees", "read_edge_list"),
    ("trees.subtree_sizes", "trees", "subtree_sizes"),
    ("trees.split_sizes", "trees", "split_sizes"),
    ("estimators.score_tree", "estimators", "score_tree"),
    ("estimators.select_smallest", "estimators", "select_smallest"),
    ("estimators.contains", "estimators", "ConfidenceSet.__contains__"),
    ("estimators.vertices", "estimators", "ConfidenceSet.vertices"),
    ("isomorphism.canonical_code", "isomorphism", "canonical_code"),
    ("isomorphism.orbit_counts", "isomorphism", "orbit_counts"),
    ("isomorphism.aut_log", "isomorphism", "aut_log"),
    ("experiments.sweep", "experiments", "sweep"),
    ("cli.main", "cli", "main"),
]


class Tracer:
    """Spans and call counts of the LAYERS functions while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, child seconds]
        self.calls: Counter = Counter()
        self._stack: list[int] = []
        self.missing: list[str] = []
        self._targets: list[tuple] = []  # (owner, attribute, original, wrapped)
        modules = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "rootfinder"]
        for name, home, path in LAYERS:
            owner = importlib.import_module(f"rootfinder.{home}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(name)
            elif isinstance(raw, property):
                self._targets.append((owner, attr, raw, property(self._wrap(name, raw.fget))))
            elif outer:
                self._targets.append((owner, attr, raw, self._wrap(name, raw)))
            else:
                traced = self._wrap(name, raw)
                for mod in modules:
                    if mod.__dict__.get(attr) is raw:
                        self._targets.append((mod, attr, raw, traced))

    def _wrap(self, name: str, fn):
        spans, stack, calls = self.spans, self._stack, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, clock(), 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(span)
            calls[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = end = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += end - span[1]

        return traced

    def install(self) -> None:
        """Put each wrapper under every name that refers to its function."""
        for owner, attr, _, wrapped in self._targets:
            setattr(owner, attr, wrapped)

    def restore(self) -> None:
        for owner, attr, original, _ in self._targets:
            setattr(owner, attr, original)

    def self_seconds(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, child in self.spans:
            out[name] += end - start - child
        return out

    def calls_under(self, name: str, parents: set[str]) -> int:
        """Calls of ``name`` made directly from a span named in ``parents``."""
        spans = self.spans
        return sum(1 for s in spans if s[0] == name and s[3] >= 0 and spans[s[3]][0] in parents)

    def dump(self, path: Path, extra: dict) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        payload = {
            "spans": [[s[0], s[1] - t0, s[2] - t0, s[3]] for s in self.spans],
            "span_fields": ["name", "start_s", "end_s", "parent"],
            "calls": dict(self.calls),
            "self_s": self.self_seconds(),
            "missing": self.missing,
            **extra,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))
