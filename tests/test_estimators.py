"""Estimator scores, selection, and the exact root posterior.

Hand-evaluated reference values (all verifiable on paper):

  path3 = 1-2-3:
      psi  (2, 1, 2)
      phi  (2, 1, 2)            products of the other vertices' subtree sizes
      zeta (12, 6, 12)          orbit * prod(size * aut)
      xi   (12, 3, 12)          zeta / degree
  path5 = 1-2-3-4-5:
      psi  (4, 3, 2, 3, 4)
      phi  (24, 6, 4, 6, 24)
  star4, center first:
      zeta(center) = 1 * (4 * 3!) = 24,  xi(center) = 24/3 = 8
      zeta(leaf)   = 3 * (4*1)(3*2!)(1)(1) = 72
"""

import math
import time
from hashlib import blake2b

import numpy as np
import pytest
from helpers import distinct_shapes, exact_score_by_roots

from rootfinder import (
    GrowthTree,
    ModelSpec,
    RngStream,
    UnsupportedModelError,
    build_shape,
    forget_labels,
    phi_scores,
    psi_scores,
    root_posterior,
    sample_preferential_attachment,
    sample_uniform_attachment,
    score_tree,
    select_smallest,
    subtree_sizes,
    xi_scores,
    zeta_scores,
)
from rootfinder import estimators
from rootfinder.estimators import (
    ESTIMATOR_TAGS,
    TIE_RTOL,
    ScoreVector,
    _tied,
    rank_interval,
    tie_runs,
)
from rootfinder.isomorphism import NAIVE_ORBIT_LIMIT
from rootfinder.oracle import exact_posterior

PATH3 = build_shape([(1, 2), (2, 3)])
PATH5 = build_shape([(1, 2), (2, 3), (3, 4), (4, 5)])
STAR4 = build_shape([(1, 2), (1, 3), (1, 4)])

UA = ModelSpec("uniform")
PA = ModelSpec("preferential")


def random_shape(n, stream_id, model=UA):
    gen = RngStream(5150, stream_id).generator()
    t = model.sample(n, gen)
    shape, root = forget_labels(t, rng=gen)
    return shape, root


def logs(*values):
    return [math.log(v) for v in values]


# ---------------------------------------------------------------------------
# psi
# ---------------------------------------------------------------------------


def test_psi_path3():
    assert psi_scores(PATH3).values[1:].tolist() == [2, 1, 2]


def test_psi_path5():
    assert psi_scores(PATH5).values[1:].tolist() == [4, 3, 2, 3, 4]


def test_psi_star():
    star = build_shape([(1, k) for k in range(2, 9)])
    vals = psi_scores(star).values
    assert vals[1] == 1
    assert np.all(vals[2:] == 7)


def test_psi_integer_range_invariant():
    shape, _ = random_shape(400, 0)
    vals = psi_scores(shape).values[1:]
    deg = shape.degrees()[1:]
    n = shape.n
    assert np.array_equal(vals, np.floor(vals))
    assert np.all(vals <= n - 1)
    assert np.all(vals >= np.ceil((n - 1) / deg))


# ---------------------------------------------------------------------------
# phi
# ---------------------------------------------------------------------------


def test_phi_path3():
    assert phi_scores(PATH3).values[1:] == pytest.approx(logs(2, 1, 2))


def test_phi_path5():
    assert phi_scores(PATH5).values[1:] == pytest.approx(logs(24, 6, 4, 6, 24))


def test_phi_rerooting_identity_on_edges():
    # log phi(u) - log phi(w) = log(n - s) - log(s) with s = size(w -> u)
    shape, _ = random_shape(300, 1)
    n = shape.n
    vals = phi_scores(shape).values
    for u, w in shape.edges():
        s = subtree_sizes(shape, w).down_size[u]
        assert vals[u] - vals[w] == pytest.approx(math.log(n - s) - math.log(s), abs=1e-9)


@pytest.mark.parametrize("stream", [2, 3])
def test_phi_matches_quadratic_recomputation(stream):
    shape, _ = random_shape(120, stream)
    vals = phi_scores(shape).values
    for u in range(1, shape.n + 1):
        down = subtree_sizes(shape, u).down_size
        direct = float(np.sum(np.log(down[1:]))) - math.log(shape.n)
        assert vals[u] == pytest.approx(direct, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("n", list(range(3, 9)))
def test_phi_minimizer_is_never_a_leaf(n):
    for shape in distinct_shapes(n):
        vals = phi_scores(shape).values
        psi = psi_scores(shape).values
        best = int(np.argmin(vals[1:]) + 1)
        assert psi[best] < n - 1, shape.edges()


# ---------------------------------------------------------------------------
# zeta and xi
# ---------------------------------------------------------------------------


def test_zeta_path3():
    assert zeta_scores(PATH3).values[1:] == pytest.approx(logs(12, 6, 12))


def test_xi_path3():
    assert xi_scores(PATH3).values[1:] == pytest.approx(logs(12, 3, 12))


def test_zeta_xi_star4():
    zeta = zeta_scores(STAR4).values
    xi = xi_scores(STAR4).values
    assert zeta[1] == pytest.approx(math.log(24))
    assert zeta[2] == pytest.approx(math.log(72))
    assert xi[1] == pytest.approx(math.log(8))
    assert xi[2] == pytest.approx(math.log(72))


def test_zeta_is_phi_plus_constant():
    # zeta(u) = n * |Aut(T)| * phi(u): the gap to phi is constant in u
    for stream in (4, 5):
        shape, _ = random_shape(150, stream)
        gap = zeta_scores(shape).values[1:] - phi_scores(shape).values[1:]
        assert float(np.ptp(gap)) < 1e-8


def _joined(left, right):
    """Two edge lists on 1..a and 1..b joined by an edge between their
    vertex 1s; the right half is relabelled a+1..a+b."""
    a = max(max(e) for e in left)
    edges = list(left) + [(u + a, v + a) for u, v in right]
    return build_shape(edges + [(1, a + 1)])


def _perfect_binary(depth):
    return [(v // 2, v) for v in range(2, 2 ** (depth + 1))]


_STAR8 = [(1, k) for k in range(2, 9)]
_PATH8 = [(k, k + 1) for k in range(1, 8)]
_SYMMETRY_CASES = {
    "n=2": build_shape([(1, 2)]),
    "path4": build_shape([(1, 2), (2, 3), (3, 4)]),
    "path7": build_shape([(k, k + 1) for k in range(1, 7)]),
    "star6": build_shape([(1, k) for k in range(2, 7)]),
    # two centroids, swapped by an automorphism
    "double-star-equal": _joined([(1, 2), (1, 3), (1, 4)], [(1, 2), (1, 3), (1, 4)]),
    "double-star-unequal": _joined([(1, 2), (1, 3), (1, 4)], [(1, 2), (1, 3)]),
    "binary15+binary15": _joined(_perfect_binary(3), _perfect_binary(3)),
    # two centroids, rooted views not isomorphic, so no swap
    "star8+path8": _joined(_STAR8, _PATH8),
}


def _centroid_count(shape):
    psi = psi_scores(shape).values
    return int(np.count_nonzero(psi == psi.min()))


def test_symmetry_cases_cover_both_centroid_kinds():
    counts = {name: _centroid_count(shape) for name, shape in _SYMMETRY_CASES.items()}
    for name in ("n=2", "path4", "double-star-equal", "binary15+binary15", "star8+path8"):
        assert counts[name] == 2, name
    assert counts["path7"] == counts["star6"] == counts["double-star-unequal"] == 1


_RANDOM_SYMMETRY_CASES = {
    f"{model.kind}-n{n}-s{stream}": random_shape(n, 700 + stream, model=model)[0]
    for model in (UA, PA)
    for n in (30, 200)
    for stream in range(3)
}


@pytest.mark.parametrize("name", [*_SYMMETRY_CASES, *_RANDOM_SYMMETRY_CASES])
def test_zeta_xi_match_per_root_formula(name):
    # phi plus one log|Aut(T)| against the sum over each rooting, with
    # the orbit count from n canonical codes
    shape = {**_SYMMETRY_CASES, **_RANDOM_SYMMETRY_CASES}[name]
    for score, degree_correction in ((zeta_scores, False), (xi_scores, True)):
        fast = score(shape).values
        slow = exact_score_by_roots(shape, degree_correction)
        assert fast[0] == slow[0] == np.inf
        assert fast[1:] == pytest.approx(slow[1:], rel=1e-12, abs=0)


def test_xi_is_zeta_minus_log_degree():
    shape, _ = random_shape(150, 6, model=PA)
    diff = zeta_scores(shape).values[1:] - xi_scores(shape).values[1:]
    assert diff == pytest.approx(np.log(shape.degrees()[1:]), abs=1e-10)


def test_zeta_argmin_matches_enumeration_posterior():
    for stream in range(25):
        shape, _ = random_shape(8, stream + 100)
        vals = zeta_scores(shape).values
        post = exact_posterior(shape, UA)
        best_score = {u for u in range(1, 9) if vals[u] <= vals[1:].min() + 1e-9}
        top = max(post[1:])
        best_post = {u for u in range(1, 9) if post[u] == top}
        assert best_score == best_post


def test_xi_argmin_matches_enumeration_posterior():
    for stream in range(25):
        shape, _ = random_shape(7, stream + 200, model=PA)
        vals = xi_scores(shape).values
        post = exact_posterior(shape, PA)
        best_score = {u for u in range(1, 8) if vals[u] <= vals[1:].min() + 1e-9}
        top = max(post[1:])
        best_post = {u for u in range(1, 8) if post[u] == top}
        assert best_score == best_post


def test_exact_scores_past_the_orbit_limit_on_a_star():
    # |Aut| of a star on n vertices is (n - 1)!, so zeta = phi + log n + log (n - 1)!
    big = build_shape([(1, k) for k in range(2, NAIVE_ORBIT_LIMIT + 3)])
    n = big.n
    zeta = phi_scores(big).values + math.log(n) + math.lgamma(n)
    np.testing.assert_allclose(zeta_scores(big).values, zeta, rtol=1e-12, atol=0)
    xi = zeta - np.log(np.concatenate(([1], big.degrees()[1:])))
    np.testing.assert_allclose(xi_scores(big).values, xi, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# ScoreVector / score_tree
# ---------------------------------------------------------------------------


def test_score_vector_slot_zero_and_finiteness():
    for tag in ESTIMATOR_TAGS:
        sv = score_tree(PATH5, tag)
        assert sv.estimator == tag
        assert np.isinf(sv.values[0])
        assert np.all(np.isfinite(sv.values[1:]))


def test_score_vector_immutable_and_validated():
    sv = psi_scores(PATH3)
    with pytest.raises(ValueError):
        sv.values[1] = 0
    with pytest.raises(ValueError):
        ScoreVector(estimator="median", shape=PATH3, values=sv.values)


def test_score_tree_rejects_unknown_tag():
    with pytest.raises(ValueError):
        score_tree(PATH3, "psi2")


def test_scores_are_label_invariant():
    gen = RngStream(5151, 0).generator()
    t = sample_uniform_attachment(90, gen)
    ref = {tag: np.sort(score_tree(forget_labels(t, permutation=range(1, 91))[0], tag).values[1:])
           for tag in ESTIMATOR_TAGS}
    for _ in range(5):
        shape, _ = forget_labels(t, rng=gen)
        for tag in ESTIMATOR_TAGS:
            got = np.sort(score_tree(shape, tag).values[1:])
            assert got == pytest.approx(ref[tag], rel=1e-12, abs=1e-9)


# ---------------------------------------------------------------------------
# select_smallest
# ---------------------------------------------------------------------------


def test_select_path3_center():
    cs = select_smallest(psi_scores(PATH3), 1)
    assert cs.vertices == (2,)
    assert 2 in cs and 1 not in cs


def test_select_path5_phi_top3():
    cs = select_smallest(phi_scores(PATH5), 3)
    assert cs.vertices == (3, 2, 4)


def test_select_saturates_at_n():
    cs = select_smallest(psi_scores(PATH5), 99)
    assert len(cs) == 5
    assert sorted(cs.vertices) == [1, 2, 3, 4, 5]
    assert cs.k == 99


def test_select_rejects_bad_k():
    with pytest.raises(ValueError):
        select_smallest(psi_scores(PATH3), 0)


def test_select_prefix_property():
    shape, _ = random_shape(80, 7, model=PA)
    sv = psi_scores(shape)
    full = select_smallest(sv, 80).vertices
    for k in (1, 2, 5, 17, 48, 79):
        assert select_smallest(sv, k).vertices == full[:k]


def test_select_ties_ordered_by_rooted_class_then_label():
    # star: all leaves tie; within one isomorphism class label order rules
    sv = psi_scores(STAR4)
    cs = select_smallest(sv, 4)
    assert cs.vertices == (1, 2, 3, 4)
    # spider with two leaf branches and one path branch at the same psi?
    # build scores with a controlled tie instead: path4 endpoints tie
    path4 = build_shape([(1, 2), (2, 3), (3, 4)])
    got = select_smallest(psi_scores(path4), 4).vertices
    assert got in ((2, 3, 1, 4), (3, 2, 1, 4))  # ends last, label order within
    assert got == (2, 3, 1, 4)


def relabelled_path(p, leaf_on=None, seed=0):
    """A path 1..p (plus a leaf p+1 on vertex ``leaf_on``) under a random
    relabelling, with the map from old labels to new ones (slot 0 unused)."""
    parents = list(range(1, p)) + ([leaf_on] if leaf_on else [])
    tree = GrowthTree.from_attachments(parents)
    perm = np.random.default_rng(seed).permutation(np.arange(1, tree.n + 1))
    shape, _ = forget_labels(tree, permutation=perm)
    return shape, np.concatenate(([0], perm))


# one side of estimators._EXACT_CODE_LIMIT compares full codes, the other digests
@pytest.mark.parametrize("p", [9001, 10001])
def test_tie_between_shapes_is_broken_the_same_under_any_labels(p):
    # the two middle path vertices have psi (p + 1) / 2 and differ in shape
    picked = set()
    for seed in range(3):
        shape, relabel = relabelled_path(p, leaf_on=3, seed=seed)
        sv = psi_scores(shape)
        middle = {int(relabel[(p - 1) // 2]), int(relabel[(p + 1) // 2])}
        assert set(np.flatnonzero(sv.values == sv.values.min()).tolist()) == middle
        (v,) = select_smallest(sv, 1).vertices
        picked.add(int(np.flatnonzero(relabel == v)[0]))
    assert len(picked) == 1


@pytest.mark.parametrize("p", [9002, 10002])
def test_tie_within_an_orbit_goes_to_the_lower_label(p):
    for seed in range(3):
        shape, relabel = relabelled_path(p, seed=seed)
        centroids = (int(relabel[p // 2]), int(relabel[p // 2 + 1]))
        assert select_smallest(psi_scores(shape), 1).vertices == (min(centroids),)


def test_select_deterministic_across_calls():
    shape, _ = random_shape(500, 8)
    sv = phi_scores(shape)
    assert select_smallest(sv, 25).vertices == select_smallest(sv, 25).vertices


def tie_order_cases():
    """Tie-heavy shapes under random labels, with the estimators to order
    each by: a PA tree whose hub leaves tie, a star, a double star whose
    centres tie in one orbit, and even paths."""
    pa = sample_preferential_attachment(300, RngStream(13, 0).generator())
    yield forget_labels(pa, rng=RngStream(13, 1).generator())[0], ("psi", "phi")
    small = [
        [1] * 39,
        [1] * 20 + [2] * 19,
        [1],
        list(range(1, 10)),
        list(range(1, 50)),
    ]
    for i, parents in enumerate(small, start=2):
        tree = GrowthTree.from_attachments(parents)
        yield forget_labels(tree, rng=RngStream(13, i).generator())[0], ESTIMATOR_TAGS


# recorded while canonical codes still walked each root by a BFS of its own
TIE_ORDER_DIGEST = "c43953d74bb565042f6cb0784860c4e1"


def test_tie_order_of_whole_sets_is_pinned():
    # every vertex of each case in score, code and label order: a change
    # to the walks or the codes that moves a tie fails here
    sets = [
        list(select_smallest(score_tree(shape, tag), shape.n).vertices)
        for shape, tags in tie_order_cases()
        for tag in tags
    ]
    assert blake2b(repr(sets).encode(), digest_size=16).hexdigest() == TIE_ORDER_DIGEST


def test_confidence_set_equality_and_iteration():
    a = select_smallest(psi_scores(PATH5), 3)
    b = select_smallest(psi_scores(PATH5), 3)
    c = select_smallest(psi_scores(PATH5), 2)
    assert a == b
    assert a != c
    assert list(a) == list(a.vertices)
    assert len(a) == 3
    assert repr(a) == "ConfidenceSet(estimator='psi', k=3, vertices=(3, 2, 4))"
    assert hash(a) == hash(b) == hash(("psi", 3, (3, 2, 4)))
    assert (a == tuple(a.vertices)) is False
    # K past n keeps every vertex and only them
    d = select_smallest(psi_scores(PATH5), 99)
    assert len(d) == 5 and d.k == 99
    assert all(v in d for v in range(1, 6))
    assert 0 not in d and 6 not in d


STRADDLE_K = 200


@pytest.fixture(scope="module")
def psi_straddle():
    """A PA tree whose psi tie run straddles rank K: 152 lower, 57 tied."""
    shape, _ = random_shape(1000, 12, model=PA)
    sv = psi_scores(shape)
    cut = np.sort(sv.values[1:])[STRADDLE_K - 1]
    run = [int(v) for v in np.flatnonzero(sv.values == cut)]
    lower = int(np.count_nonzero(sv.values < cut))
    assert lower < STRADDLE_K < lower + len(run)
    return shape, sv, run, lower


def test_select_straddling_run_membership_matches_order(psi_straddle):
    shape, sv, run, _ = psi_straddle
    n = shape.n
    cs = select_smallest(sv, STRADDLE_K)
    assert len(cs) == min(STRADDLE_K, n)
    in_run = set(run)
    # membership first for everything outside the run, then inside it,
    # so the order is forced only part-way through
    asked = {v: v in cs for v in range(0, n + 2) if v not in in_run}
    asked.update({v: v in cs for v in run})
    assert len(cs) == min(STRADDLE_K, n)
    listed = set(cs.vertices)
    assert asked == {v: v in listed for v in range(0, n + 2)}
    assert 0 < sum(asked[v] for v in run) < len(run)
    assert len(cs) == min(STRADDLE_K, n)
    assert cs.vertices == select_smallest(sv, n).vertices[:STRADDLE_K]


def test_selection_codes_each_member_of_a_tied_run_below_rank_k_once(psi_straddle, monkeypatch):
    shape, sv, run, lower = psi_straddle
    real = estimators.canonical_code
    calls = []

    def counting(shape, root):
        calls.append(root)
        return real(shape, root)

    monkeypatch.setattr(estimators, "canonical_code", counting)
    cs = select_smallest(sv, STRADDLE_K)
    order, bounds = tie_runs(sv)
    cuts = bounds.tolist()
    tied = [
        v
        for i, j in zip(cuts, cuts[1:])
        if i < STRADDLE_K and j - i > 1
        for v in order[i:j].tolist()
    ]
    assert set(run) <= set(tied)
    assert sorted(calls) == sorted(tied)
    # membership is a lookup: asking it computes no further code
    in_run = set(run)
    assert len(cs) == STRADDLE_K
    hits = sum(v in cs for v in range(1, shape.n + 1) if v not in in_run)
    assert hits == lower
    member = run[0] in cs
    assert sorted(calls) == sorted(tied)
    assert member == (run[0] in cs.vertices)


def test_rank_interval_of_straddling_run(psi_straddle):
    _, sv, run, lower = psi_straddle
    for v in run:
        assert rank_interval(sv, v) == (lower, lower + len(run))


@pytest.mark.parametrize("model", [UA, PA])
@pytest.mark.parametrize("tag", ["psi", "phi"])
def test_rank_interval_settles_membership_outside_its_run(model, tag):
    # v is in the k-set when its whole run fits, out when none of it does
    for stream_id in range(3):
        shape, _ = random_shape(40, stream_id, model=model)
        sv = score_tree(shape, tag)
        order, bounds = tie_runs(sv)
        assert sorted(order.tolist()) == list(range(1, 41))
        assert bounds[0] == 0 and bounds[-1] == 40 and np.all(np.diff(bounds) > 0)
        for k in (1, 2, 5, 13, 39, 40, 41):
            cs = select_smallest(sv, k)
            m = min(k, 40)
            for v in range(1, 41):
                start, end = rank_interval(sv, v)
                assert order[start:end].tolist().count(v) == 1
                if end <= m:
                    assert v in cs
                elif start >= m:
                    assert v not in cs


def test_tie_runs_chain_neighbouring_ties():
    # 1000 and 1000 + 1.2e-6 differ by more than TIE_RTOL * 1000, but each
    # ties with the score between them, so all three form one run
    sv = ScoreVector("phi", PATH3, [np.inf, 1000.0, 1000.0 + 1.2e-6, 1000.0 + 6e-7])
    order, bounds = tie_runs(sv)
    assert order.tolist() == [1, 3, 2]
    assert bounds.tolist() == [0, 3]
    assert rank_interval(sv, 2) == (0, 3)
    assert len(select_smallest(sv, 2)) == 2


def runs_by_vertex(scores) -> dict[int, tuple[int, int]]:
    """Each vertex's run ``[start, end)`` as :func:`tie_runs` lists it."""
    order, bounds = tie_runs(scores)
    cuts = bounds.tolist()
    return {
        int(v): (i, j) for i, j in zip(cuts, cuts[1:]) for v in order[i:j]
    }


@pytest.mark.parametrize("model", [UA, PA])
@pytest.mark.parametrize("tag", ["psi", "phi"])
def test_rank_interval_is_the_vertex_run_of_tie_runs(model, tag):
    for stream_id in range(3):
        shape, _ = random_shape(40, stream_id, model=model)
        sv = score_tree(shape, tag)
        want = runs_by_vertex(sv)
        assert {v: rank_interval(sv, v) for v in range(1, 41)} == want


def test_rank_interval_of_exact_ties():
    values = np.array([np.inf, 3.0, 1.0, 3.0, 2.0, 3.0, 2.0])
    got = [rank_interval(values, v) for v in range(1, 7)]
    assert got == [(3, 6), (0, 1), (3, 6), (1, 3), (3, 6), (1, 3)]
    assert dict(enumerate(got, start=1)) == runs_by_vertex(values)


def test_rank_interval_follows_a_long_chain_of_near_ties():
    # each score ties with the next and none with one two steps on, so the
    # 10^4 scores are one run; reading it must not widen one step at a time
    n = 10_000
    chain = 1000.0 * np.cumprod(np.full(n, 1.0 + 0.6 * TIE_RTOL))
    assert np.all(chain[2:] - chain[:-2] > TIE_RTOL * chain[2:])
    values = np.empty(n + 1)
    values[0] = np.inf
    values[1:] = RngStream(77, 0).generator().permutation(chain)
    begun = time.perf_counter()
    for v in (1, 2, n // 2, n - 1, n):
        assert rank_interval(values, v) == (0, n)
    assert time.perf_counter() - begun < 1.0
    assert tie_runs(values)[1].tolist() == [0, n]


@pytest.mark.filterwarnings("error")
def test_infinite_scores_tie_only_with_equal_infinities():
    values = np.array([np.inf, 1.0, 5.0, np.inf, np.inf])
    order, bounds = tie_runs(values)
    assert order[:2].tolist() == [1, 2]
    assert bounds.tolist() == [0, 1, 2, 4]
    assert [rank_interval(values, v) for v in (1, 2, 3, 4)] == [(0, 1), (1, 2), (2, 4), (2, 4)]
    assert _tied(np.inf, np.inf) and _tied(-np.inf, -np.inf)
    assert not _tied(5.0, np.inf) and not _tied(-np.inf, np.inf) and not _tied(1e300, np.inf)
    assert not _tied(np.nan, np.nan)
    cs = select_smallest(ScoreVector("phi", PATH5, [np.inf, *values[1:], 7.0]), 3)
    assert cs.vertices[:2] == (1, 2) and len(cs) == 3


def select_by_full_sort(sv, k, monkeypatch):
    """select_smallest with tie_runs made to sort all n scores."""
    real = tie_runs
    with monkeypatch.context() as patch:
        patch.setattr(estimators, "tie_runs", lambda scores, m=None: real(scores))
        return select_smallest(sv, k)


def assert_selects_as_full_sort(sv, k, monkeypatch):
    got, want = select_smallest(sv, k), select_by_full_sort(sv, k, monkeypatch)
    assert len(got) == len(want) == min(k, sv.shape.n)
    assert got.vertices == want.vertices


def sorted_prefix(sv, k):
    """How many scores tie_runs sorts for selection at k."""
    return tie_runs(sv, min(k, sv.shape.n))[0].shape[0]


@pytest.mark.parametrize("seed", range(4))
def test_partition_first_selection_matches_full_sort_on_integer_ties(seed, monkeypatch):
    shape, _ = random_shape(300, seed)
    gen = np.random.default_rng(seed)
    values = np.concatenate([[np.inf], gen.integers(0, 25, 300).astype(float)])
    sv = ScoreVector("psi", shape, values)
    for k in (1, 7, 12, 40, 150):
        x = np.sort(values[1:])[k - 1]
        # the run straddling rank k is cut off at the scores equal to x
        assert sorted_prefix(sv, k) == np.count_nonzero(values <= x)
        assert_selects_as_full_sort(sv, k, monkeypatch)
    pa_shape, _ = random_shape(1000, seed, model=PA)
    for k in (10, 50, 200):
        assert_selects_as_full_sort(psi_scores(pa_shape), k, monkeypatch)


@pytest.mark.parametrize("seed", range(4))
def test_partition_first_selection_matches_full_sort_across_a_chain_of_near_ties(seed, monkeypatch):
    # 20 scores each within 0.6 TIE_RTOL of the next form one run; the
    # others are far apart.  The run crosses rank k, ends just below it,
    # or starts just above it.
    n, k, length = 200, 30, 20
    shape, _ = random_shape(n, seed)
    gen = np.random.default_rng(100 + seed)
    for first in (k - 10, k - length, k):
        scores = 10.0 * np.arange(n, dtype=float)
        scores[first : first + length] = scores[first] * np.cumprod(
            np.full(length, 1.0 + 0.6 * TIE_RTOL)
        )
        sv = ScoreVector("phi", shape, np.concatenate([[np.inf], gen.permutation(scores)]))
        assert tie_runs(sv)[1].tolist().count(first) == 1
        crosses = first < k < first + length
        assert sorted_prefix(sv, k) == (n if crosses else k)
        assert_selects_as_full_sort(sv, k, monkeypatch)


@pytest.mark.parametrize("seed", range(4))
def test_partition_first_selection_at_the_extremes(seed, monkeypatch):
    n = 60
    shape, _ = random_shape(n, seed)
    gen = np.random.default_rng(200 + seed)
    values = np.concatenate([[np.inf], gen.integers(0, 8, n).astype(float)])
    values[gen.choice(np.arange(1, n + 1), 5, replace=False)] = np.inf
    sv = ScoreVector("psi", shape, values)
    for k in (1, 2, n - 6, n - 5, n - 3, n, n + 1, 10 * n):
        cs = select_smallest(sv, k)
        assert 0 not in cs and 0 not in cs.vertices
        assert_selects_as_full_sort(sv, k, monkeypatch)
    # the m-th score at +inf leaves no prefix to cut: all n are sorted
    assert sorted_prefix(sv, n - 3) == n
    assert set(select_smallest(sv, n).vertices) == set(range(1, n + 1))
    # nor does a NaN, which sorts after +inf
    values = values.copy()
    values[gen.choice(np.flatnonzero(values[1:] == np.inf) + 1, 2, replace=False)] = np.nan
    sv = ScoreVector("psi", shape, values)
    assert sorted_prefix(sv, n - 1) == n
    assert_selects_as_full_sort(sv, n - 1, monkeypatch)


@pytest.mark.parametrize("v", [0, 41, -1])
def test_rank_interval_rejects_vertices_outside_the_tree(v):
    shape, _ = random_shape(40, 0)
    with pytest.raises(ValueError):
        rank_interval(psi_scores(shape), v)


# ---------------------------------------------------------------------------
# root_posterior
# ---------------------------------------------------------------------------


def test_posterior_path3_uniform():
    post = root_posterior(PATH3, UA)
    assert post[1:] == pytest.approx([0.25, 0.5, 0.25], abs=1e-12)
    assert post[0] == 0.0


def test_posterior_path3_preferential():
    post = root_posterior(PATH3, PA)
    assert post[1:] == pytest.approx([1 / 6, 2 / 3, 1 / 6], abs=1e-12)


def test_posterior_star_center_dominates():
    post = root_posterior(STAR4, UA)
    assert post[1] > post[2] == post[3] == post[4]


def test_posterior_sums_to_one():
    for stream, model in ((9, UA), (10, PA)):
        shape, _ = random_shape(200, stream, model=model)
        post = root_posterior(shape, model)
        assert abs(float(post.sum()) - 1.0) < 1e-12


def test_posterior_alpha_endpoints_reuse_exact_rules():
    shape, _ = random_shape(30, 11)
    assert root_posterior(shape, ModelSpec("alpha", 0.0)) == pytest.approx(
        root_posterior(shape, UA)
    )
    assert root_posterior(shape, ModelSpec("alpha", 1.0)) == pytest.approx(
        root_posterior(shape, PA)
    )


def test_posterior_rejects_general_alpha():
    with pytest.raises(UnsupportedModelError):
        root_posterior(PATH3, ModelSpec("alpha", 0.5))
