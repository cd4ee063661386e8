"""Reference computations that the benchmark checks rootfinder against.

Written apart from rootfinder's code paths: trees are plain endpoint
arrays, traversal is level by level with numpy gathers, and the rooted
canonical form uses AHU integer labels.  Scores follow the program's
conventions, lower meaning more root-like:

* ``psi(u)``: size of the largest component left by deleting u.
* ``phi(u)``: sum over v != u of log s_u(v), where s_u(v) is the size of
  v's subtree when the tree hangs from u (1/phi is rumour centrality up to
  the constant n!/n).

Exact ties in ``phi`` are decided with rationals: stepping the root from
a vertex to its child w multiplies the product of subtree sizes by
(n - s(w)) / s(w), with s taken in the orientation from vertex 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

import numpy as np


class Tree:
    """A tree on vertices 1..n from its n-1 edges, oriented from vertex 1.

    ``levels[d]`` holds the vertices at depth d, ``parent[v]`` is v's
    neighbour one level up (0 for vertex 1) and ``down[v]`` the size of
    the subtree below v.
    """

    def __init__(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        n = a.shape[0] + 1
        if n < 2 or b.shape != a.shape:
            raise ValueError("need n-1 >= 1 edges given as two equal-length arrays")
        if a.min() < 1 or b.min() < 1 or max(a.max(), b.max()) > n:
            raise ValueError("vertices must be 1..n")
        src = np.concatenate([a, b])
        dst = np.concatenate([b, a])
        self.n = n
        self.deg = np.bincount(src, minlength=n + 1)
        self.xadj = np.zeros(n + 2, dtype=np.int64)
        np.cumsum(self.deg[1:], out=self.xadj[2:])
        self.adj = dst[np.argsort(src, kind="stable")]
        self.levels, self.parent = self.bfs(1)
        if sum(lv.shape[0] for lv in self.levels) != n:
            raise ValueError("edges do not form a tree")
        self.down = self._down_sizes()

    def bfs(self, root: int):
        """Level-synchronous BFS from ``root``: (levels, parent)."""
        n, xadj, adj = self.n, self.xadj, self.adj
        parent = np.zeros(n + 1, dtype=np.int64)
        seen = np.zeros(n + 1, dtype=bool)
        seen[root] = True
        frontier = np.array([root], dtype=np.int64)
        levels = [frontier]
        while True:
            starts = xadj[frontier]
            counts = xadj[frontier + 1] - starts
            total = int(counts.sum())
            if total == 0:
                break
            offsets = np.cumsum(counts) - counts
            slots = np.arange(total) - np.repeat(offsets - starts, counts)
            owner = np.repeat(frontier, counts)
            nb = adj[slots]
            fresh = ~seen[nb]
            nb, owner = nb[fresh], owner[fresh]
            if nb.shape[0] == 0:
                break
            seen[nb] = True
            parent[nb] = owner
            levels.append(nb)
            frontier = nb
        return levels, parent

    def _down_sizes(self) -> np.ndarray:
        down = np.ones(self.n + 1, dtype=np.int64)
        down[0] = 0
        for lv in reversed(self.levels[1:]):
            np.add.at(down, self.parent[lv], down[lv])
        return down

    def psi(self) -> np.ndarray:
        """psi for every vertex; slot 0 is unused."""
        n, down, parent = self.n, self.down, self.parent
        below = np.zeros(n + 1, dtype=np.int64)
        kids = np.arange(2, n + 1)
        np.maximum.at(below, parent[kids], down[kids])
        out = np.maximum(below, n - down)
        out[0] = 0
        return out

    def phi(self) -> np.ndarray:
        """phi for every vertex, rerooted level by level; slot 0 is unused."""
        n, down, parent = self.n, self.down, self.parent
        logs = np.log(down[1:].astype(np.float64))
        out = np.zeros(n + 1)
        out[1] = math.fsum(logs[1:])
        for lv in self.levels[1:]:
            out[lv] = out[parent[lv]] + np.log((n - down[lv]).astype(np.float64)) - logs[lv - 1]
        return out

    def phi_ratio(self, u: int) -> Fraction:
        """exp(phi(u) - phi(1)) exactly: product of (n - s)/s along 1 -> u."""
        n, down, parent = self.n, self.down, self.parent
        num = den = 1
        while u != 1:
            s = int(down[u])
            num *= n - s
            den *= s
            u = int(parent[u])
        return Fraction(num, den)

    def centroids(self) -> list[int]:
        p = self.psi()[1:]
        return [int(v) + 1 for v in np.flatnonzero(p == p.min())]

    def ahu(self, root: int, table: dict):
        """AHU labels of the tree hanging from ``root``.

        Returns (label, parent, log|Aut(T, root)|).  ``label[v]`` stands for
        the sorted tuple of v's children's labels in ``table``, so two
        rooted subtrees share a label iff they are isomorphic, also across
        calls that share the table.  log|Aut(T, root)| sums log m! over
        every group of m isomorphic siblings.
        """
        levels, parent = self.bfs(root)
        par = parent.tolist()
        label = [0] * (self.n + 1)
        pending: list = [[] for _ in range(self.n + 1)]
        log_aut = 0.0
        for lv in reversed(levels):
            for v in lv.tolist():
                kids = pending[v]
                pending[v] = None
                kids.sort()
                run = 1
                for i in range(1, len(kids)):
                    if kids[i] == kids[i - 1]:
                        run += 1
                    else:
                        log_aut += math.lgamma(run + 1)
                        run = 1
                if kids:
                    log_aut += math.lgamma(run + 1)
                key = tuple(kids)
                lab = table.get(key)
                if lab is None:
                    lab = table[key] = len(table)
                label[v] = lab
                if v != root:
                    pending[par[v]].append(lab)
        return label, par, log_aut

    @cached_property
    def _centred(self):
        """AHU pass from the first centroid: (centroids, label, parent, log|Aut|, halves).

        Every automorphism maps the centroid set (one vertex, or two
        adjacent ones) onto itself.  ``halves`` gives, for two centroids
        c1, c2, the labels of the two halves left by cutting the edge c1-c2
        (equal iff an automorphism swaps them); it is None for one centroid.
        """
        cs = self.centroids()
        table: dict = {}
        label, par, log_aut = self.ahu(cs[0], table)
        halves = None
        if len(cs) == 2:
            c1, c2 = cs
            nbrs = self.adj[self.xadj[c1] : self.xadj[c1 + 1]].tolist()
            rest = tuple(sorted(label[w] for w in nbrs if w != c2))
            halves = (table.get(rest, -1), label[c2])
        return cs, label, par, log_aut, halves

    def log_aut(self) -> float:
        """log|Aut(T)| = log|Aut(T, c1)| + log(size of c1's orbit among the centroids)."""
        _, _, _, log_aut, halves = self._centred
        return log_aut + (math.log(2) if halves and halves[0] == halves[1] else 0.0)

    def orbit_key(self, u: int) -> tuple:
        """A key equal for u and v iff an automorphism maps u to v.

        That is, iff the trees hanging from u and from v are isomorphic.
        Automorphisms fix the centroids (or swap two isomorphic halves) and
        map each vertex to one with the same label, so u's orbit is read
        off the labels along the path down from its centroid.
        """
        cs, label, par, _, halves = self._centred
        path = []
        while u != cs[0] and not (halves and u == cs[1]):
            path.append(label[u])
            u = par[u]
        if halves is None:
            top = label[u]
        else:
            top = halves[0] if u == cs[0] else halves[1]
        return (top, *reversed(path))


def rank_interval(values: np.ndarray, v: int) -> tuple[int, int]:
    """(#strictly lower, #tied) for vertex v; slot 0 of ``values`` is ignored."""
    vals = values[1:]
    x = values[v]
    return int(np.count_nonzero(vals < x)), int(np.count_nonzero(vals == x))


def runs_of(keys: list) -> list[tuple[int, int]]:
    """Maximal [start, stop) runs of equal consecutive keys."""
    out = []
    start = 0
    for i in range(1, len(keys) + 1):
        if i == len(keys) or keys[i] != keys[start]:
            out.append((start, i))
            start = i
    return out
