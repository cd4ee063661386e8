"""Brute-force oracles shared across test modules.

Permutation searches and enumerations are exponential-time and intended
for n <= 6; the list walks and the per-root scores are slow, plain
recomputations.  Tests use these as independent routes to the same
quantities the library computes cleverly.
"""

import math
from itertools import permutations

import numpy as np

from rootfinder import aut_log, canonical_code, orbit_counts, shape_of_growth
from rootfinder.oracle import enumerate_recursive


def edge_set(shape):
    return frozenset(map(frozenset, shape.edges()))


def brute_rooted_isomorphic(shape_a, root_a, shape_b, root_b):
    """Exhaustive permutation search for rooted isomorphism."""
    n = shape_a.n
    if shape_b.n != n:
        return False
    ea, eb = edge_set(shape_a), edge_set(shape_b)
    for perm in permutations(range(1, n + 1)):
        sigma = {i + 1: perm[i] for i in range(n)}
        if sigma[root_a] != root_b:
            continue
        if frozenset(frozenset(sigma[v] for v in e) for e in ea) == eb:
            return True
    return False


def brute_automorphism_count(shape, fixed_root=None):
    """Count edge-preserving permutations, optionally fixing one vertex."""
    n = shape.n
    e = edge_set(shape)
    hits = 0
    for perm in permutations(range(1, n + 1)):
        sigma = {i + 1: perm[i] for i in range(n)}
        if fixed_root is not None and sigma[fixed_root] != fixed_root:
            continue
        if frozenset(frozenset(sigma[v] for v in ed) for ed in e) == e:
            hits += 1
    return hits


def distinct_shapes(n, limit=None):
    """Pairwise non-isomorphic shapes among all recursive trees on n vertices."""
    out = []
    seen = set()
    for t in enumerate_recursive(n):
        shape = shape_of_growth(t)
        key = min(canonical_code(shape, u) for u in range(1, n + 1))
        if key not in seen:
            seen.add(key)
            out.append(shape)
            if limit and len(out) >= limit:
                break
    return out


def list_walk(shape, root):
    """Queue-based BFS over the CSR adjacency in Python lists, the one list
    walk and the slow check on the library's walks: (order, parent,
    down_size) as lists, parent[root] = 0 and down_size[0] = 0."""
    xa, ad = shape.xadj.tolist(), shape.adjncy.tolist()
    parent = [0] * (shape.n + 1)
    seen = {root}
    order = [root]
    for u in order:
        for v in ad[xa[u] : xa[u + 1]]:
            if v not in seen:
                seen.add(v)
                parent[v] = u
                order.append(v)
    down = [1] * (shape.n + 1)
    down[0] = 0
    for v in reversed(order[1:]):
        down[parent[v]] += down[v]
    return order, parent, down


def code_on_list_walk(shape, root):
    """The canonical code of ``shape`` rooted at ``root``, built children
    first along :func:`list_walk`."""
    order, parent, _ = list_walk(shape, root)
    parts = [[] for _ in range(shape.n + 1)]
    for v in reversed(order):
        code = b"(" + b"".join(sorted(parts[v])) + b")"
        if v == root:
            return code
        parts[parent[v]].append(code)


def phi_by_list_rerooting(shape):
    """log phi for every vertex, rerooted one vertex at a time along the
    list walk from vertex 1 (slot 0 is +inf)."""
    n = shape.n
    order, parent, down = list_walk(shape, 1)
    logs = np.zeros(n + 1)
    np.log(np.array(down[1:]), out=logs[1:])
    up = n - np.array(down[1:], dtype=np.float64)
    up[0] = 1.0
    step = (np.log(up) - logs[1:]).tolist()
    values = np.full(n + 1, np.inf)
    values[1] = float(np.sum(logs[2:]))
    for v in order[1:]:
        values[v] = values[parent[v]] + step[v - 1]
    return values


def pa_by_endpoint_list(n, gen):
    """Preferential attachment from the same draw as the library's sampler
    on the numpy Generator ``gen``, growing the explicit endpoint list in a
    loop; returns the parent array."""
    parent = np.zeros(n + 1, dtype=np.int64)
    parent[2] = 1
    if n == 2:
        return parent
    picks = gen.integers(0, 2 * np.arange(1, n - 1, dtype=np.int64)).tolist()
    endpoints = [1, 2]
    for i in range(3, n + 1):
        j = endpoints[picks[i - 3]]
        parent[i] = j
        endpoints.append(j)
        endpoints.append(i)
    return parent


def exact_score_by_roots(shape, degree_correction=False):
    """log zeta (log xi with ``degree_correction``) for every vertex by the
    defining formula, one rooting per candidate u: the sum of log subtree
    sizes, the sum of log Aut factors and log of u's orbit count, less log
    deg(u) for xi (slot 0 is +inf).  Quadratic; the slow check on the
    library's phi-plus-constant evaluation."""
    n = shape.n
    orbit = orbit_counts(shape).tolist()
    degree = shape.degrees().tolist()
    values = np.full(n + 1, np.inf)
    for u in range(1, n + 1):
        down = np.array(list_walk(shape, u)[2])
        total = float(np.sum(np.log(down[1:]))) + float(np.sum(aut_log(shape, u)[1:]))
        values[u] = total + math.log(orbit[u])
        if degree_correction:
            values[u] -= math.log(degree[u])
    return values
