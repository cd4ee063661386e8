"""Random growing-tree samplers.

Three attachment rules, all starting from the single edge 1-2 and adding
vertex i (for i = 3..n) with an edge to an existing vertex j:

* uniform       — j chosen uniformly from 1..i-1;
* preferential  — j chosen with probability degree(j) / (2(i-2));
* alpha         — j chosen with probability degree(j)**alpha / sum of same.

alpha = 0 coincides with uniform and alpha = 1 with preferential in
distribution; the alpha sampler deliberately keeps its own generic code
path (a Fenwick tree over vertex weights) so those coincidences can be
tested rather than being true by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadSizeError, UnsupportedModelError
from .rng import as_generator
from .trees import GrowthTree

__all__ = [
    "ModelSpec",
    "parse_model",
    "sample_uniform_attachment",
    "sample_preferential_attachment",
    "sample_alpha_attachment",
    "chain_probability",
]

_KINDS = ("uniform", "preferential", "alpha")


@dataclass(frozen=True)
class ModelSpec:
    """Which attachment rule to sample from.

    ``alpha`` is only consulted when ``kind == "alpha"``.
    """

    kind: str
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind == "alpha" and not math.isfinite(self.alpha):
            raise ValueError("alpha must be a finite float")

    @property
    def label(self) -> str:
        """Stable identifier used in CSV output and filenames."""
        if self.kind == "alpha":
            return f"alpha:{self.alpha:g}"
        return self.kind

    def posterior_kind(self) -> str:
        """The attachment rule whose exact root posterior this model has:
        "uniform" (alpha 0) or "preferential" (alpha 1).  Any other alpha
        has none and raises UnsupportedModelError."""
        if self.kind == "uniform" or (self.kind == "alpha" and self.alpha == 0.0):
            return "uniform"
        if self.kind == "preferential" or (self.kind == "alpha" and self.alpha == 1.0):
            return "preferential"
        raise UnsupportedModelError(
            f"exact posterior is defined only for alpha in {{0, 1}}, got {self.label}"
        )

    def sample(self, n: int, rng) -> GrowthTree:
        if self.kind == "uniform":
            return sample_uniform_attachment(n, rng)
        if self.kind == "preferential":
            return sample_preferential_attachment(n, rng)
        return sample_alpha_attachment(n, self.alpha, rng)


def parse_model(token: str, alpha: float | None = None) -> ModelSpec:
    """Turn a CLI/config token into a ModelSpec.

    Accepts ua/uniform, pa/preferential, alpha:<value>, or a bare "alpha"
    combined with an explicit ``alpha`` argument.
    """
    t = token.strip().lower()
    if t in ("ua", "uniform"):
        return ModelSpec("uniform")
    if t in ("pa", "preferential"):
        return ModelSpec("preferential")
    if t.startswith("alpha:"):
        return ModelSpec("alpha", float(t.split(":", 1)[1]))
    if t == "alpha":
        if alpha is None:
            raise ValueError("model 'alpha' needs a value: pass --alpha or use 'alpha:X'")
        return ModelSpec("alpha", float(alpha))
    raise ValueError(f"unknown model {token!r} (expected ua, pa, or alpha[:X])")


def _check_n(n: int) -> None:
    if n < 2:
        raise BadSizeError(f"need n >= 2, got n={n}")


def sample_uniform_attachment(n: int, rng) -> GrowthTree:
    """Uniform attachment tree on n vertices (one vectorized draw)."""
    _check_n(n)
    gen = as_generator(rng)
    parent = np.zeros(n + 1, dtype=np.int64)
    # vertex i picks uniformly from 1..i-1; integers() is half-open
    parent[2:] = gen.integers(1, np.arange(2, n + 1, dtype=np.int64))
    return GrowthTree(parent)


def sample_preferential_attachment(n: int, rng) -> GrowthTree:
    """Degree-proportional attachment tree on n vertices.

    Draws from the classical endpoint list in which every vertex appears
    once per unit of degree, so a uniform index is a degree-biased vertex.
    The list is never built: it starts [1, 2] and vertex i appends
    [parent[i], i], so an odd index p holds vertex (p-1)/2 + 2 and an even
    index 2m holds parent[m+2], an earlier vertex's parent.  Index draws
    are vectorized up front.  Vertex i's pick names ``link = pick // 2 + 2``:
    an odd pick is terminal, with parent ``link``; an even one copies the
    parent of vertex ``link``.  Pointer doubling over the whole array
    (``ptr = ptr[ptr]`` until nothing changes) takes every vertex to the
    terminal vertex at the end of its chain, whose link is the parent.
    """
    _check_n(n)
    gen = as_generator(rng)
    # vertex 2 is terminal, its link (and parent) vertex 1
    link = np.zeros(n + 1, dtype=np.int64)
    link[2] = 1
    # before vertex i arrives the list holds 2(i-2) endpoints
    picks = gen.integers(0, 2 * np.arange(1, n - 1, dtype=np.int64))
    link[3:] = (picks >> 1) + 2
    # terminal vertices (0, 1, 2 and odd picks) point at themselves, the
    # others at their link (an arithmetic select: np.where branches per item)
    ptr = np.arange(n + 1, dtype=np.int64)
    ptr[3:] -= (~picks & 1) * (ptr[3:] - link[3:])
    while True:
        nxt = ptr[ptr]
        if np.array_equal(nxt, ptr):
            return GrowthTree(link[ptr])
        ptr = nxt


class _Fenwick:
    """Binary indexed tree over float weights with prefix-sum descent."""

    __slots__ = ("n", "tree")

    def __init__(self, n: int):
        self.n = n
        self.tree = [0.0] * (n + 1)

    def add(self, i: int, delta: float) -> None:
        tree = self.tree
        while i <= self.n:
            tree[i] += delta
            i += i & (-i)

    def find(self, target: float) -> int:
        """Smallest index whose prefix sum exceeds ``target``."""
        pos = 0
        bit = 1 << self.n.bit_length()
        tree = self.tree
        while bit:
            nxt = pos + bit
            if nxt <= self.n and tree[nxt] <= target:
                pos = nxt
                target -= tree[nxt]
            bit >>= 1
        return pos + 1


def sample_alpha_attachment(n: int, alpha: float, rng) -> GrowthTree:
    """Attachment with probability proportional to degree**alpha.

    Generic for any finite alpha (negative values penalize hubs).  Runs in
    O(n log n) via a Fenwick tree over per-vertex weights.  alpha = 0 is
    routed through the uniform sampler so the two agree tree-for-tree on a
    shared stream; alpha = 1 keeps the generic path and matches the
    degree-proportional sampler in distribution only.
    """
    _check_n(n)
    if not math.isfinite(alpha):
        raise ValueError("alpha must be a finite float")
    if alpha == 0.0:
        return sample_uniform_attachment(n, rng)
    gen = as_generator(rng)
    parent = np.zeros(n + 1, dtype=np.int64)
    parent[2] = 1
    if n == 2:
        return GrowthTree(parent)
    fen = _Fenwick(n)
    degree = [0] * (n + 1)
    degree[1] = degree[2] = 1
    fen.add(1, 1.0)  # 1**alpha
    fen.add(2, 1.0)
    total = 2.0
    uniforms = gen.random(n - 2).tolist()
    for i in range(3, n + 1):
        j = fen.find(uniforms[i - 3] * total)
        if j >= i:  # float rounding can push the target to the total sum
            j = i - 1
        parent[i] = j
        d = degree[j]
        bump = (d + 1.0) ** alpha - d**alpha
        degree[j] = d + 1
        fen.add(j, bump)
        fen.add(i, 1.0)
        degree[i] = 1
        total += bump + 1.0
    return GrowthTree(parent)


def chain_probability(t: GrowthTree, model: ModelSpec) -> float:
    """Exact probability that ``model`` produces the labeled tree ``t``.

    Replays the attachment chain step by step; useful as an independent
    oracle when checking sampler frequencies on small n.
    """
    n = t.n
    parent = t.parent
    degree = [0] * (n + 1)
    degree[1] = degree[2] = 1
    prob = 1.0
    total = 2.0  # running sum of weights for the alpha model
    for i in range(3, n + 1):
        j = int(parent[i])
        if model.kind == "uniform":
            prob /= i - 1
        elif model.kind == "preferential":
            prob *= degree[j] / (2 * (i - 2))
        else:
            prob *= degree[j] ** model.alpha / total
            total += (degree[j] + 1.0) ** model.alpha - degree[j] ** model.alpha + 1.0
        degree[j] += 1
        degree[i] = 1
    return prob
