"""Tests of the benchmark's reference code: hand-computed trees, brute force,
and rootfinder's exact enumeration oracle at n <= 7.

    python3 -m pytest perfbench/test_reference.py -q
"""

import math
import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from reference import Tree, rank_interval, runs_of  # noqa: E402
from workloads import set_composition  # noqa: E402


def path(n):
    return Tree(np.arange(1, n), np.arange(2, n + 1))


def star(n):
    return Tree(np.ones(n - 1, dtype=np.int64), np.arange(2, n + 1))


def edges_of(tree):
    return {frozenset((u, int(tree.parent[u]))) for u in range(2, tree.n + 1)}


def automorphisms(tree):
    """Every edge-preserving permutation, by brute force."""
    n, edges = tree.n, edges_of(tree)
    for perm in permutations(range(1, n + 1)):
        sigma = (0,) + perm
        if {frozenset((sigma[a], sigma[b])) for a, b in map(tuple, edges)} == edges:
            yield sigma


def brute_psi(tree, u):
    """Largest component after deleting u, by search."""
    edges = edges_of(tree)
    nbrs = {v: [w for e in edges if v in e for w in e if w != v] for v in range(1, tree.n + 1)}
    seen, best = {u}, 0
    for start in nbrs[u]:
        stack, size = [start], 0
        seen.add(start)
        while stack:
            v = stack.pop()
            size += 1
            for w in nbrs[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        best = max(best, size)
    return best


def test_path_by_hand():
    t = path(5)
    assert t.psi()[1:].tolist() == [4, 3, 2, 3, 4]
    # products of the other vertices' subtree sizes: 24, 6, 4, 6, 24
    assert np.allclose(np.exp(t.phi()[1:]), [24, 6, 4, 6, 24])
    assert t.phi_ratio(3) == Fraction(4, 24) and t.phi_ratio(2) == t.phi_ratio(4)
    assert t.centroids() == [3]
    assert math.isclose(t.log_aut(), math.log(2))
    assert t.orbit_key(1) == t.orbit_key(5) != t.orbit_key(2) == t.orbit_key(4) != t.orbit_key(3)
    assert rank_interval(t.psi(), 2) == (1, 2)


def test_even_path_has_two_swapped_centroids():
    t = path(4)
    assert t.centroids() == [2, 3]
    assert math.isclose(t.log_aut(), math.log(2))
    assert t.orbit_key(2) == t.orbit_key(3) and t.orbit_key(1) == t.orbit_key(4)
    assert t.orbit_key(1) != t.orbit_key(2)


def test_star_by_hand():
    t = star(6)
    assert t.psi()[1:].tolist() == [1, 5, 5, 5, 5, 5]
    # from a leaf, only the centre's subtree (5 vertices) is bigger than 1
    assert np.allclose(t.phi()[1:], [0.0] + [math.log(5)] * 5)
    assert math.isclose(t.log_aut(), math.log(math.factorial(5)))
    assert len({t.orbit_key(u) for u in range(2, 7)}) == 1 != t.orbit_key(1)
    assert rank_interval(t.psi(), 4) == (1, 5)


def test_edges_in_any_order_and_labelling_give_the_same_scores():
    rng = np.random.default_rng(3)
    t = Tree([1, 1, 2, 2, 3], [2, 3, 4, 5, 6])
    perm = np.concatenate([[0], rng.permutation(6) + 1])
    order = rng.permutation(5)
    u = Tree(perm[[2, 3, 4, 5, 6]][order], perm[[1, 1, 2, 2, 3]][order])
    assert np.allclose(u.phi()[perm[1:]], t.phi()[1:])
    assert np.array_equal(u.psi()[perm[1:]], t.psi()[1:])


def test_not_a_tree_is_refused():
    with pytest.raises(ValueError):
        Tree([1, 2, 3], [2, 3, 1])  # a cycle on 1..3 leaves 4 out


def test_runs_and_set_composition():
    assert runs_of([1, 1, 2, 3, 3, 3]) == [(0, 2), (2, 3), (3, 6)]
    sizes = np.array([2, 1, 3])  # scores a a b c c c
    assert set_composition(sizes, 4) == (3, 3)  # 2 from the first run, 1 of the straddling run
    assert set_composition(sizes, 3) == (2, 0)
    assert set_composition(sizes, 6) == (5, 0)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_against_brute_force(n):
    from rootfinder.oracle import enumerate_recursive

    for growth in enumerate_recursive(n):
        t = Tree(np.arange(2, n + 1), growth.parent[2:])
        auts = list(automorphisms(t))
        assert math.isclose(t.log_aut(), math.log(len(auts)))
        for u in range(1, n + 1):
            assert t.psi()[u] == brute_psi(t, u)
            orbit = {sigma[u] for sigma in auts}
            assert orbit == {v for v in range(1, n + 1) if t.orbit_key(v) == t.orbit_key(u)}


@pytest.mark.parametrize("n", [3, 5, 7])
def test_against_enumeration(n):
    """(T, u) arises from exactly n! / (prod of subtree sizes * |Aut(T, u)|)
    of the (n-1)! histories, counted by enumerating them all."""
    from rootfinder.oracle import embedding_count, enumerate_recursive
    from rootfinder.trees import shape_of_growth

    table: dict = {}
    counts: dict[int, int] = {}
    growths = list(enumerate_recursive(n))
    for growth in growths:
        t = Tree(np.arange(2, n + 1), growth.parent[2:])
        lab = t.ahu(1, table)[0][1]
        counts[lab] = counts.get(lab, 0) + 1
    for growth in growths[:: max(1, len(growths) // 40)]:
        t = Tree(np.arange(2, n + 1), growth.parent[2:])
        phi = t.phi()
        for u in range(1, n + 1):
            orbit = sum(t.orbit_key(v) == t.orbit_key(u) for v in range(1, n + 1))
            log_rooted_aut = t.log_aut() - math.log(orbit)
            # phi leaves out u's own subtree size, n
            expect = math.lgamma(n + 1) - phi[u] - math.log(n) - log_rooted_aut
            lab, _, log_aut_u = t.ahu(u, table)
            assert math.isclose(log_aut_u, log_rooted_aut, abs_tol=1e-9)
            assert math.isclose(math.log(counts[lab[u]]), expect, abs_tol=1e-9)
            assert counts[lab[u]] == embedding_count(shape_of_growth(growth), u)
