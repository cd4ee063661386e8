"""Canonical codes, automorphism factors, and orbit counts.

Brute-force oracles:

* rooted isomorphism — search all label permutations mapping one root to
  the other and preserving the edge set;
* automorphism counts — count edge-preserving permutations outright
  (optionally fixing the root).

These are only feasible for n <= 6, which is exactly where they are used.
"""

import math
from itertools import combinations

import numpy as np
import pytest
from helpers import (
    brute_automorphism_count,
    brute_rooted_isomorphic,
    code_on_list_walk,
    distinct_shapes,
)

from rootfinder import (
    GrowthTree,
    RngStream,
    aut_log,
    build_shape,
    canonical_code,
    forget_labels,
    log_factorials,
    orbit_counts,
    sample_preferential_attachment,
    sample_uniform_attachment,
    shape_of_growth,
    subtree_sizes,
)

PATH3 = build_shape([(1, 2), (2, 3)])
PATH5 = build_shape([(1, 2), (2, 3), (3, 4), (4, 5)])
STAR4 = build_shape([(1, 2), (1, 3), (1, 4)])
# root 1 with a leaf child and a path-2 child
MIXED4 = build_shape([(1, 2), (1, 3), (3, 4)])


# ---------------------------------------------------------------------------
# canonical_code
# ---------------------------------------------------------------------------


def test_code_path3_symmetry():
    assert canonical_code(PATH3, 1) == canonical_code(PATH3, 3)
    assert canonical_code(PATH3, 1) != canonical_code(PATH3, 2)


def test_code_exact_bytes():
    assert canonical_code(PATH3, 1) == b"((()))"
    assert canonical_code(PATH3, 2) == b"(()())"
    assert canonical_code(STAR4, 1) == b"(()()())"


def _code_shapes():
    path = GrowthTree.from_attachments(list(range(1, 50)))
    yield build_shape([(2, 1)])
    yield build_shape([(7, k) for k in range(1, 41) if k != 7])  # a star centred on 7
    yield forget_labels(path, rng=RngStream(9, 1).generator())[0]
    for i, sample in enumerate((sample_uniform_attachment, sample_preferential_attachment)):
        tree = sample(200, RngStream(9, 2 + i).generator())
        yield forget_labels(tree, rng=RngStream(9, 4 + i).generator())[0]
    # leaf-heavy shapes, where most codes are the constant leaf code: a PA
    # tree of the size the score-pa-ties workload scores, and a caterpillar
    # whose 12 spine vertices carry 1 to 4 leaves each and nothing else
    tree = sample_preferential_attachment(300, RngStream(9, 6).generator())
    yield forget_labels(tree, rng=RngStream(9, 7).generator())[0]
    spine = list(range(1, 12))
    legs = [s for s in range(1, 13) for _ in range(1 + s % 4)]
    caterpillar = GrowthTree.from_attachments(spine + legs)
    yield forget_labels(caterpillar, rng=RngStream(9, 8).generator())[0]


def test_code_at_every_root_matches_a_code_on_the_list_walk():
    # canonical_code reads the walk from vertex 1 turned round; the list
    # walk is an independent BFS over the CSR adjacency
    for shape in _code_shapes():
        for u in range(1, shape.n + 1):
            assert canonical_code(shape, u) == code_on_list_walk(shape, u)


def test_code_length_is_twice_n():
    for shape in (PATH3, PATH5, STAR4, MIXED4):
        for u in range(1, shape.n + 1):
            assert len(canonical_code(shape, u)) == 2 * shape.n


@pytest.mark.parametrize("fn", [canonical_code, aut_log])
def test_rooted_passes_reject_out_of_range_root(fn):
    for root in (0, PATH3.n + 1):
        with pytest.raises(ValueError):
            fn(PATH3, root)


@pytest.mark.parametrize("n", [4, 5])
def test_code_classes_match_permutation_oracle(n):
    rooted = []
    for shape in distinct_shapes(n):
        for u in range(1, n + 1):
            rooted.append((shape, u, canonical_code(shape, u)))
    for (sa, ra, ca), (sb, rb, cb) in combinations(rooted, 2):
        assert (ca == cb) == brute_rooted_isomorphic(sa, ra, sb, rb), (
            sa.edges(),
            ra,
            sb.edges(),
            rb,
        )


def test_code_invariant_under_relabeling():
    gen = RngStream(31, 0).generator()
    t = sample_uniform_attachment(40, gen)
    base = shape_of_growth(t)
    code1 = canonical_code(base, 1)
    for _ in range(10):
        shape, root = forget_labels(t, rng=gen)
        assert canonical_code(shape, root) == code1


# ---------------------------------------------------------------------------
# aut_log
# ---------------------------------------------------------------------------


def test_aut_star_center():
    logs = aut_log(STAR4, 1)
    assert math.isclose(logs[1], math.log(6))  # 3! identical leaf children
    assert logs[2] == logs[3] == logs[4] == 0.0


def test_aut_star_rooted_at_leaf():
    logs = aut_log(STAR4, 2)
    assert logs[2] == 0.0  # root has a single child
    assert math.isclose(logs[1], math.log(2))  # center keeps 2 leaf children


def test_aut_path_rooted_at_endpoint_is_trivial():
    logs = aut_log(PATH5, 1)
    assert np.all(logs[1:] == 0.0)


def test_aut_path_rooted_at_center():
    logs = aut_log(PATH5, 3)
    assert math.isclose(logs[3], math.log(2))  # two isomorphic arms
    assert float(np.sum(logs[1:])) == pytest.approx(math.log(2))


def test_aut_mixed_root_has_distinct_child_classes():
    logs = aut_log(MIXED4, 1)
    assert np.all(logs[1:] == 0.0)


def test_aut_bounded_by_child_count_factorial():
    gen = RngStream(31, 1).generator()
    for _ in range(5):
        t = sample_uniform_attachment(60, gen)
        shape, _ = forget_labels(t, rng=gen)
        root = int(gen.integers(1, 61))
        logs = aut_log(shape, root)
        # the children of v are the vertices whose parent is v
        kids = np.bincount(subtree_sizes(shape, root).parent, minlength=61)
        fact = log_factorials(60)
        for v in range(1, 61):
            assert logs[v] >= 0.0
            assert logs[v] <= fact[kids[v]] + 1e-12


@pytest.mark.parametrize("n", [4, 5, 6])
def test_rooted_aut_product_matches_brute_force(n):
    # product over vertices of Aut(v,(T,u)) = number of automorphisms fixing u
    for shape in distinct_shapes(n):
        for u in range(1, n + 1):
            total = float(np.sum(aut_log(shape, u)[1:]))
            assert round(math.exp(total)) == brute_automorphism_count(shape, u)


def test_path_inequality_along_root_swap():
    # for u_i on the path from u to v:
    #   Aut(u_i,(T,v)) <= subtree_size(u_i under v) * Aut(u_i,(T,u))
    gen = RngStream(31, 2).generator()
    for _ in range(20):
        n = int(gen.integers(5, 51))
        t = sample_uniform_attachment(n, gen)
        shape, _ = forget_labels(t, rng=gen)
        u, v = gen.choice(np.arange(1, n + 1), size=2, replace=False).tolist()
        view_u = subtree_sizes(shape, u)
        view_v = subtree_sizes(shape, v)
        logs_u = aut_log(shape, u)
        logs_v = aut_log(shape, v)
        # walk the u-v path by following BFS parents from v's side
        path = [u]
        parent = view_v.parent
        while path[-1] != v:
            path.append(int(parent[path[-1]]))
        for w in path:
            bound = math.log(view_v.down_size[w]) + logs_u[w]
            assert logs_v[w] <= bound + 1e-9


# ---------------------------------------------------------------------------
# orbit counts
# ---------------------------------------------------------------------------


def test_orbit_examples():
    assert orbit_counts(PATH3)[1:].tolist() == [2, 1, 2]
    assert orbit_counts(STAR4)[1:].tolist() == [1, 3, 3, 3]
    assert orbit_counts(PATH5)[1:].tolist() == [2, 2, 1, 2, 2]


def test_orbit_star_at_scale():
    star = build_shape([(1, k) for k in range(2, 101)])
    counts = orbit_counts(star)
    assert counts[1] == 1
    assert np.all(counts[2:] == 99)


def test_orbit_representatives_sum_to_n():
    gen = RngStream(31, 3).generator()
    for _ in range(10):
        t = sample_uniform_attachment(50, gen)
        shape, _ = forget_labels(t, rng=gen)
        counts = orbit_counts(shape)
        # each orbit of size m contributes m * (1/m)
        assert float(np.sum(1.0 / counts[1:])) == pytest.approx(
            len({canonical_code(shape, u) for u in range(1, 51)})
        )
        assert int(np.sum(1.0 / counts[1:]).round()) <= 50


@pytest.mark.parametrize("n", [4, 5, 6])
def test_orbit_counts_match_brute_force(n):
    for shape in distinct_shapes(n):
        counts = orbit_counts(shape)
        unrooted_aut = brute_automorphism_count(shape)
        for u in range(1, n + 1):
            fixed = brute_automorphism_count(shape, u)
            # orbit-stabilizer: |Aut| = |orbit(u)| * |stabilizer(u)|
            assert counts[u] * fixed == unrooted_aut


def test_orbit_on_repeated_branches():
    # four identical path-2 branches: leaves form one orbit of 4, middles one of 4
    edges = []
    v = 2
    for _ in range(4):
        edges += [(1, v), (v, v + 1)]
        v += 2
    broom = build_shape(edges)
    counts = orbit_counts(broom)
    assert counts[1] == 1
    mids = [2, 4, 6, 8]
    tips = [3, 5, 7, 9]
    assert all(counts[m] == 4 for m in mids)
    assert all(counts[t] == 4 for t in tips)


# ---------------------------------------------------------------------------
# log_factorials
# ---------------------------------------------------------------------------


def test_log_factorials_values():
    lf = log_factorials(10)
    assert lf[0] == 0.0
    assert lf[1] == 0.0
    for m in range(2, 11):
        assert lf[m] == pytest.approx(math.lgamma(m + 1), rel=1e-13)
