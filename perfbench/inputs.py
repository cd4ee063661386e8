"""Observed trees for the scoring workloads, drawn with the benchmark's own numpy code.

A growth tree is a parent array (vertex i joined vertex parent[i] < i);
``observe`` hides the arrival order behind a random relabelling, random
edge order and random endpoint order, and remembers where vertex 1 went.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Observed:
    """A shuffled tree: edges (a[i], b[i]) on 1..n; ``first`` is the old vertex 1."""

    a: np.ndarray
    b: np.ndarray
    first: int

    @property
    def n(self) -> int:
        return self.a.shape[0] + 1


def uniform_parents(n: int, gen: np.random.Generator) -> np.ndarray:
    parent = np.zeros(n + 1, dtype=np.int64)
    parent[2:] = gen.integers(1, np.arange(2, n + 1))
    return parent


def preferential_parents(n: int, gen: np.random.Generator) -> np.ndarray:
    """Vertex i >= 3 joins j with probability deg(j) / (2(i - 2)).

    ``ends`` lists every edge endpoint; a uniform pick from it is a
    degree-biased vertex.
    """
    parent = np.zeros(n + 1, dtype=np.int64)
    parent[2] = 1
    ends = np.zeros(2 * (n - 1), dtype=np.int64)
    ends[:2] = (1, 2)
    picks = gen.integers(0, 2 * np.arange(1, n - 1)).tolist()
    for i in range(3, n + 1):
        j = ends[picks[i - 3]]
        parent[i] = j
        ends[2 * i - 4] = j
        ends[2 * i - 3] = i
    return parent


def observe(parent: np.ndarray, gen: np.random.Generator) -> Observed:
    n = parent.shape[0] - 1
    relabel = np.zeros(n + 1, dtype=np.int64)
    relabel[1:] = gen.permutation(n) + 1
    a = relabel[np.arange(2, n + 1)]
    b = relabel[parent[2:]]
    swap = gen.random(n - 1) < 0.5
    a, b = np.where(swap, b, a), np.where(swap, a, b)
    order = gen.permutation(n - 1)
    return Observed(a=a[order], b=b[order], first=int(relabel[1]))


def write_edge_list(obs: Observed, path: Path) -> None:
    text = "\n".join(map("{} {}".format, obs.a.tolist(), obs.b.tolist()))
    path.write_text(f"# observed tree, n={obs.n}\n{text}\n")
