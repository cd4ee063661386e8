"""Tree representations: construction, validation, sizes, file I/O, and
the package's exported names.

Hand-checked fixtures used throughout:

  path5   1-2-3-4-5
  star4   center 1, leaves 2..4
  mixed5  1-2, 2-3, 2-4, 4-5 (one internal vertex of degree 3)
"""

import importlib
import math
import os
import pkgutil
import threading
import warnings

import numpy as np
import pytest

import rootfinder
from rootfinder import (
    BadSizeError,
    CycleOrDisconnectedError,
    DuplicateEdgeError,
    GrowthTree,
    RngStream,
    SelfLoopError,
    build_shape,
    forget_labels,
    parse_model,
    phi_scores,
    psi_scores,
    read_edge_list,
    read_growth,
    sample_preferential_attachment,
    sample_uniform_attachment,
    shape_of_growth,
    subtree_sizes,
    write_edge_list,
    write_growth,
    xi_scores,
    zeta_scores,
)

from rootfinder.estimators import rank_interval, score_growth, score_tree, select_smallest, tie_runs
from rootfinder.isomorphism import aut_log, canonical_code, orbit_counts
from rootfinder.oracle import embedding_count
from rootfinder.trees import LevelWalk, label_permutation

from helpers import list_walk, phi_by_list_rerooting

PATH5 = [(1, 2), (2, 3), (3, 4), (4, 5)]
STAR4 = [(1, 2), (1, 3), (1, 4)]
MIXED5 = [(1, 2), (2, 3), (2, 4), (4, 5)]


def random_shape(n, stream_id):
    gen = RngStream(20260814, stream_id).generator()
    t = sample_uniform_attachment(n, gen)
    shape, _ = forget_labels(t, rng=gen)
    return shape


# ---------------------------------------------------------------------------
# GrowthTree
# ---------------------------------------------------------------------------


def test_growth_tree_basic():
    t = GrowthTree.from_attachments([1, 2, 2])  # 1-2, 2-3, 2-4
    assert t.n == 4
    assert t.edges() == [(1, 2), (2, 3), (2, 4)]
    assert t.degrees().tolist() == [0, 1, 3, 1, 1]
    assert t.degrees()[2] == 3


def test_growth_tree_rejects_bad_parents():
    with pytest.raises(ValueError):
        GrowthTree.from_attachments([1, 3])  # vertex 3 cannot attach to itself
    with pytest.raises(ValueError):
        GrowthTree.from_attachments([1, 0])
    with pytest.raises(ValueError):
        GrowthTree.from_attachments([2])  # vertex 2 must attach to 1
    with pytest.raises(BadSizeError):
        GrowthTree(np.zeros(1, dtype=np.int64))  # n = 0


def test_growth_tree_immutable():
    t = GrowthTree.from_attachments([1, 1])
    with pytest.raises(ValueError):
        t.parent[2] = 2


# ---------------------------------------------------------------------------
# build_shape validation
# ---------------------------------------------------------------------------


def test_build_shape_accepts_tree():
    shape = build_shape(MIXED5)
    assert shape.n == 5
    assert shape.edges() == sorted(MIXED5)
    assert shape.degrees().tolist() == [0, 1, 3, 1, 2, 1]
    assert shape.degrees()[2] == 3
    assert sorted(shape.adjncy[shape.xadj[2] : shape.xadj[3]].tolist()) == [1, 3, 4]


def test_build_shape_vertex_order_does_not_matter():
    a = build_shape(PATH5)
    b = build_shape([(5, 4), (2, 1), (3, 4), (3, 2)])
    assert a.edges() == b.edges()


def test_build_shape_self_loop():
    with pytest.raises(SelfLoopError):
        build_shape([(1, 2), (3, 3), (2, 3)])


def test_build_shape_duplicate_edge_either_orientation():
    with pytest.raises(DuplicateEdgeError):
        build_shape([(1, 2), (2, 3), (2, 1)])
    with pytest.raises(DuplicateEdgeError):
        build_shape([(1, 2), (2, 3), (1, 2)])
    # identifiers too large for the packed duplicate key
    with pytest.raises(DuplicateEdgeError):
        build_shape([(1, 2**40), (2**40, 1)])
    with pytest.raises(CycleOrDisconnectedError):
        build_shape([(1, 2**40), (2**40, 3)])


def test_build_shape_cycle():
    # 3 edges on 3 vertices: one too many
    with pytest.raises(CycleOrDisconnectedError):
        build_shape([(1, 2), (2, 3), (3, 1)])


def test_build_shape_disconnected_with_tree_edge_count():
    # triangle on {2,3,4} plus isolated vertex 1: exactly n-1 edges but no tree
    with pytest.raises(CycleOrDisconnectedError):
        build_shape([(2, 3), (3, 4), (2, 4)])


def test_build_shape_forest():
    with pytest.raises(CycleOrDisconnectedError):
        build_shape([(1, 2), (3, 4)])


@pytest.mark.parametrize("as_array", [False, True])
def test_build_shape_cycle_through_vertex_1_with_tree_edge_count(as_array):
    # n - 1 edges; a walk that skipped only each vertex's parent would go
    # round the cycle through vertex 1 forever
    edges = [(1, 2), (2, 3), (3, 1), (4, 5)]
    with pytest.raises(CycleOrDisconnectedError):
        build_shape(np.array(edges) if as_array else edges)
    # the same past a path of 100 narrow levels
    edges = [(i, i + 1) for i in range(1, 100)] + [(100, 101), (101, 102), (102, 100), (103, 104)]
    with pytest.raises(CycleOrDisconnectedError):
        build_shape(np.array(edges) if as_array else edges)
    # K4 on {1, 2, 3, 7} and isolated 4..6: the walk's levels double in width
    edges = [(1, 2), (1, 3), (1, 7), (2, 3), (2, 7), (3, 7)]
    with pytest.raises(CycleOrDisconnectedError):
        build_shape(np.array(edges) if as_array else edges)
    with pytest.raises(DuplicateEdgeError):
        build_shape(np.array([(1, 2), (2, 3), (2, 1)]) if as_array else [(1, 2), (2, 3), (2, 1)])


TAIL = [(i, i + 1) for i in range(4, 201)]  # a path long enough to send the peel to its loop


@pytest.mark.parametrize(
    "edges, error",
    [
        ([(1, 2), (1, 2), (3, 4), (3, 5)], DuplicateEdgeError),
        ([(1, 2), (2, 3), (3, 1), (4, 5)], CycleOrDisconnectedError),
        ([(1, 2), (3, 4), (4, 5), (5, 3)], CycleOrDisconnectedError),
        # the same once the peel has gone on in a loop, vertex 2 isolated
        ([(1, 3), (1, 3), (3, 4)] + TAIL, DuplicateEdgeError),
        ([(1, 3), (3, 4), (4, 1)] + TAIL, CycleOrDisconnectedError),
    ],
)
def test_non_tree_with_tree_edge_count_keeps_its_error_class(edges, error):
    # n - 1 edges: only when the peel from vertex 1 stops short are the
    # edges sorted to tell a duplicate from a cycle
    with pytest.raises(error):
        build_shape(edges)


def test_build_shape_rejects_nonpositive_and_empty():
    with pytest.raises(ValueError):
        build_shape([(0, 1)])
    # non-integer ids are refused, not truncated to the path 1-2-3
    with pytest.raises(ValueError):
        build_shape([(1.7, 2.9), (2.2, 3)])
    with pytest.raises(ValueError):
        build_shape(np.array([[1.7, 2.9], [2.2, 3.0]]))
    with pytest.raises(CycleOrDisconnectedError):
        build_shape([])


@pytest.mark.parametrize("code", sorted(set(np.typecodes["AllInteger"])))
def test_build_shape_accepts_every_integer_dtype(code):
    edges = np.array([(2, 1), (3, 2)], dtype=code)
    expected = build_shape([(2, 1), (3, 2)]).edges()
    assert build_shape(edges).edges() == expected
    assert build_shape([tuple(e) for e in edges]).edges() == expected


def test_shape_immutable():
    shape = build_shape(PATH5)
    with pytest.raises(ValueError):
        shape.adjncy[0] = 9


# ---------------------------------------------------------------------------
# Subtree sizes
# ---------------------------------------------------------------------------


def children(walk, v):
    """The vertices whose parent is v, by label."""
    return np.flatnonzero(walk.parent == v).tolist()


def leaves(walk):
    """The vertices that are no vertex's parent."""
    return set(range(1, walk.parent.shape[0])) - set(walk.parent.tolist())


def test_subtree_sizes_path_rooted_at_end():
    walk = subtree_sizes(build_shape(PATH5), 1)
    assert walk.down_size.tolist() == [0, 5, 4, 3, 2, 1]
    assert walk.order.tolist() == [1, 2, 3, 4, 5]
    assert walk.parent.tolist() == [0, 0, 1, 2, 3, 4]
    assert children(walk, 2) == [3]
    assert leaves(walk) == {5}


def test_subtree_sizes_path_rooted_in_middle():
    walk = subtree_sizes(build_shape(PATH5), 3)
    down = walk.down_size
    assert down[3] == 5
    assert down[2] == 2 and down[4] == 2
    assert down[1] == 1 and down[5] == 1
    assert leaves(walk) == {1, 5}


def test_subtree_sizes_star():
    walk = subtree_sizes(build_shape(STAR4), 1)
    assert walk.down_size.tolist() == [0, 4, 1, 1, 1]
    walk = subtree_sizes(build_shape(STAR4), 2)
    assert walk.down_size.tolist() == [0, 3, 4, 1, 1]


def test_subtree_sizes_root_out_of_range():
    shape = build_shape(STAR4)
    with pytest.raises(ValueError):
        subtree_sizes(shape, 0)
    with pytest.raises(ValueError):
        subtree_sizes(shape, 5)


def test_children_sum_is_n_minus_one():
    shape = random_shape(137, 0)
    walk = subtree_sizes(shape, 42)
    kids = [children(walk, v) for v in range(1, shape.n + 1)]
    assert sum(map(len, kids)) == shape.n - 1
    # down sizes of each vertex = 1 + sum over children
    for v, below in enumerate(kids, start=1):
        assert walk.down_size[v] == 1 + sum(walk.down_size[c] for c in below)


def _deep_shape(n, seed):
    """Vertex i joins i - 1 with probability 0.9, else a uniform earlier
    vertex: hundreds of levels, mostly narrow, some wide."""
    gen = np.random.default_rng(seed)
    parents = np.arange(1, n)
    jump = gen.random(n - 1) < 0.1
    parents[jump] = gen.integers(1, np.arange(2, n + 1))[jump]
    return forget_labels(GrowthTree.from_attachments(parents), rng=gen)[0]


def _broom(handle, bristles, tail):
    """A path, a wide level of leaves at its end, then a path off one leaf."""
    edges = [(i, i + 1) for i in range(1, handle)]
    edges += [(handle, handle + j) for j in range(1, bristles + 1)]
    last = handle + bristles
    edges += [(last + j - 1 if j > 1 else handle + 1, last + j) for j in range(1, tail + 1)]
    return build_shape(edges)


WALK_SHAPES = {
    "ua": lambda: random_shape(3000, 7),
    "pa": lambda: forget_labels(
        sample_preferential_attachment(3000, RngStream(5, 1).generator()), rng=RngStream(5, 2).generator()
    )[0],
    "alpha1.5": lambda: forget_labels(
        parse_model("alpha:1.5").sample(2000, RngStream(5, 3).generator()), rng=RngStream(5, 4).generator()
    )[0],
    "deep": lambda: _deep_shape(4000, 11),
    "broom": lambda: _broom(150, 200, 300),
    "star": lambda: build_shape([(1, k) for k in range(2, 501)]),
    "path": lambda: shape_of_growth(GrowthTree.from_attachments(list(range(1, 3000)))),
}

# shapes small enough to root at every vertex
SMALL_SHAPES = {
    "two": lambda: build_shape([(2, 1)]),
    "path50": lambda: forget_labels(
        GrowthTree.from_attachments(list(range(1, 50))), rng=RngStream(5, 5).generator()
    )[0],
    "ua200": lambda: random_shape(200, 10),
    "pa200": lambda: forget_labels(
        sample_preferential_attachment(200, RngStream(5, 6).generator()), rng=RngStream(5, 7).generator()
    )[0],
}


@pytest.mark.parametrize("name", sorted(WALK_SHAPES) + sorted(SMALL_SHAPES))
def test_level_walk_matches_list_walk(name):
    shape = {**WALK_SHAPES, **SMALL_SHAPES}[name]()
    n = shape.n
    # every root up to the 500-vertex star, else a few; off vertex 1 the
    # walk is walk_from_1 turned round
    roots = range(1, n + 1) if n <= 500 else sorted({1, 2, n // 3, n // 2 + 1, n})
    for root in roots:
        walk = subtree_sizes(shape, root)
        order, parent, down = list_walk(shape, root)
        assert walk.parent.tolist() == parent
        assert walk.down_size.tolist() == down
        # the levels partition 1..n, the root alone in level 0, and every
        # vertex's parent lies in an earlier level
        assert sorted(walk.order.tolist()) == list(range(1, n + 1))
        level = walk_depths(walk)
        assert (np.flatnonzero(level[1:] == 0) + 1).tolist() == [root]
        others = np.flatnonzero(level > 0)
        assert np.all(level[walk.parent[others]] < level[others])


@pytest.mark.parametrize("name", ["ua", "pa", "deep", "broom", "path"])
def test_phi_is_bit_identical_to_list_rerooting(name):
    shape = WALK_SHAPES[name]()
    assert np.array_equal(phi_scores(shape).values, phi_by_list_rerooting(shape))


def test_phi_is_bit_identical_to_list_rerooting_at_ten_thousand():
    for shape in (random_shape(10_000, 8), _deep_shape(10_000, 12)):
        assert np.array_equal(phi_scores(shape).values, phi_by_list_rerooting(shape))


def test_deep_path_survives_without_recursion():
    n = 200_000
    t = GrowthTree.from_attachments(list(range(1, n)))  # pure path
    shape = shape_of_growth(t)
    walk = subtree_sizes(shape, 1)
    assert walk.down_size[1] == n
    assert walk.down_size[n] == 1


GROWTH_TREES = {
    "ua": lambda: sample_uniform_attachment(3000, RngStream(6, 1).generator()),
    "pa": lambda: sample_preferential_attachment(3000, RngStream(6, 2).generator()),
    "alpha1.5": lambda: parse_model("alpha:1.5").sample(2000, RngStream(6, 3).generator()),
    "star": lambda: GrowthTree.from_attachments([1] * 499),
    # a path of 17 edges under vertex 2 beside 300 leaves: the deepest
    # vertex sits 2**4 + 1 below the root, under vertex 2
    "broom": lambda: GrowthTree.from_attachments([1, *range(2, 18), *[1] * 300]),
    "path3000": lambda: GrowthTree.from_attachments(list(range(1, 3000))),
    "path": lambda: GrowthTree.from_attachments(list(range(1, 200_000))),
}


def walk_depths(walk):
    """Each vertex's level in a walk: from its bounds, or, without them,
    summed along its order, which must then put parents first."""
    depth = np.zeros(walk.parent.shape[0], dtype=np.int64)
    if walk.bounds is not None:
        for i, (a, b) in enumerate(zip(walk.bounds, walk.bounds[1:])):
            depth[walk.order[a:b]] = i
        return depth
    d, par = depth.tolist(), walk.parent.tolist()
    seen = {walk.root}
    for v in walk.order.tolist()[1:]:
        assert par[v] in seen
        seen.add(v)
        d[v] = d[par[v]] + 1
    return np.array(d)


@pytest.mark.parametrize("name", sorted(GROWTH_TREES))
def test_growth_walk_matches_level_walk_of_its_shape(name):
    tree = GROWTH_TREES[name]()
    shape = shape_of_growth(tree)
    walk, level = tree.walk, subtree_sizes(shape, 1)
    # both numpy walks hand the same trees, the paths, to a loop
    assert (walk.bounds is None) == (shape.walk_from_1.bounds is None) == name.startswith("path")
    assert walk.root == 1
    assert sorted(walk.order.tolist()) == list(range(1, tree.n + 1))
    assert np.array_equal(walk.parent, level.parent)
    assert np.array_equal(walk.down_size, level.down_size)
    order, parent, _ = list_walk(shape, 1)
    assert np.array_equal(walk_depths(walk), walk_depths(LevelWalk.from_order(1, order, parent)))
    assert np.array_equal(score_growth(tree, "psi"), psi_scores(shape).values)
    phi = score_growth(tree, "phi")
    np.testing.assert_allclose(phi, phi_scores(shape).values, rtol=1e-12, atol=0)
    # growth scores omit zeta's per-tree constant log n + log |Aut(T)|; the
    # 200 000-vertex path is left to path3000, as log_aut_at_1's codes are
    # quadratic on it (its zeta is checked alone, in test_estimators.py)
    estimators = ["psi", "phi"] if tree.n > 10_000 else ["psi", "phi", "zeta", "xi"]
    for estimator in estimators:
        grown, scored = score_growth(tree, estimator), score_tree(shape, estimator)
        gap = scored.values[1:] - grown[1:]
        want = 0.0 if estimator in ("psi", "phi") else math.log(tree.n) + log_aut_at_1(shape)
        np.testing.assert_allclose(gap, want, rtol=1e-12, atol=1e-12 * np.abs(grown[1:]).max())
        assert rank_interval(grown, 1) == rank_interval(scored, 1)


def log_aut_at_1(shape):
    """log |Aut(T)| by orbit-stabilizer at vertex 1: the rooted group there
    times the number of vertices whose rooted view has vertex 1's code,
    sought among those whose phi (an invariant of the rooted view) ties."""
    phi = phi_scores(shape).values
    code = canonical_code(shape, 1)
    alike = np.flatnonzero(np.isclose(phi, phi[1], rtol=1e-12, atol=0)).tolist()
    orbit = sum(canonical_code(shape, v) == code for v in alike)
    return math.log(orbit) + float(np.sum(aut_log(shape, 1)[1:]))


# ---------------------------------------------------------------------------
# CSR adjacency
# ---------------------------------------------------------------------------


def csr_reference(src, dst, n):
    """CSR arrays with the slots in numpy's stable sort of ``src``."""
    xadj = np.zeros(n + 2, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n + 1)[1:], out=xadj[2:])
    return xadj, dst[np.argsort(src, kind="stable")]


def growth_endpoints(t, relabel):
    """Both directions of every edge of ``t``, vertex v renamed relabel[v]."""
    kids, pars = relabel[np.arange(2, t.n + 1)], relabel[t.parent[2:]]
    return np.concatenate([kids, pars]), np.concatenate([pars, kids])


CSR_TREES = {
    "ua": lambda n, gen: sample_uniform_attachment(n, gen),
    "pa": lambda n, gen: sample_preferential_attachment(n, gen),
    "path": lambda n, gen: GrowthTree.from_attachments(list(range(1, n))),
    "star": lambda n, gen: GrowthTree.from_attachments([1] * (n - 1)),
}


@pytest.mark.parametrize("n", [2, 50, 5_000, 70_000])  # 70_000 > 2**16
@pytest.mark.parametrize("name", sorted(CSR_TREES))
def test_csr_matches_a_stable_argsort_of_the_sources(name, n):
    gen = RngStream(31, n).generator()
    t = CSR_TREES[name](n, gen)

    def same(shape, src, dst):
        xadj, adjncy = csr_reference(src, dst, n)
        assert np.array_equal(shape.xadj, xadj)
        assert np.array_equal(shape.adjncy, adjncy)

    same(shape_of_growth(t), *growth_endpoints(t, np.arange(n + 1)))
    perm = label_permutation(n, gen)
    shape, _ = forget_labels(t, permutation=perm)
    src, dst = growth_endpoints(t, np.concatenate([[0], perm]))
    same(shape, src, dst)
    # the edges of an edge file, and their ends, in any order
    edges = np.stack([src[: n - 1], dst[: n - 1]], axis=1)[gen.permutation(n - 1)]
    swap = gen.random(n - 1) < 0.5
    edges[swap] = edges[swap, ::-1]
    same(build_shape(edges), np.concatenate(edges.T), np.concatenate(edges.T[::-1]))


def test_phi_and_a_set_without_ties_build_no_csr():
    shape = random_shape(10_000, 9)
    scores = score_tree(shape, "phi")
    # no tie among the 10 lowest, nor between the 10th and the 11th
    assert tie_runs(scores, 10)[1][:11].tolist() == list(range(11))
    assert len(select_smallest(scores, 10).vertices) == 10
    assert "_csr" not in shape.__dict__
    # nor do canonical codes, the exact scores or the oracles: every rooted
    # view is the peel from vertex 1 turned round
    pa = forget_labels(
        sample_preferential_attachment(300, RngStream(5, 8).generator()), rng=RngStream(5, 9).generator()
    )[0]
    phi = score_tree(pa, "phi")
    assert len(np.unique(phi.values)) < pa.n  # tied runs, so the whole set is code-sorted
    assert len(select_smallest(phi, pa.n).vertices) == pa.n
    for build in (zeta_scores, xi_scores, orbit_counts):
        build(pa)
    small = random_shape(12, 11)
    assert sum(embedding_count(small, u) for u in range(1, 13)) > 0
    assert "_csr" not in pa.__dict__ and "_csr" not in small.__dict__
    # the first read builds the CSR and caches it
    assert shape.xadj[-1] == shape.adjncy.shape[0] == 2 * (shape.n - 1)
    assert shape.__dict__["_csr"][0] is shape.xadj


# ---------------------------------------------------------------------------
# forget_labels
# ---------------------------------------------------------------------------


def test_forget_labels_identity_permutation():
    t = GrowthTree.from_attachments([1, 2, 2])
    shape, root = forget_labels(t, permutation=[1, 2, 3, 4])
    assert root == 1
    assert shape.edges() == t.edges()


def test_forget_labels_explicit_permutation():
    t = GrowthTree.from_attachments([1, 2])  # path 1-2-3
    shape, root = forget_labels(t, permutation=[3, 1, 2])
    assert root == 3
    assert shape.edges() == [(1, 2), (1, 3)]
    assert shape.degrees()[1] == 2  # old vertex 2 is the new middle


def test_forget_labels_validates_permutation():
    t = GrowthTree.from_attachments([1, 2])
    with pytest.raises(ValueError):
        forget_labels(t, permutation=[1, 2, 2])
    with pytest.raises(ValueError):
        forget_labels(t, permutation=[0, 1, 2])
    with pytest.raises(ValueError):
        forget_labels(t)  # neither rng nor permutation


def test_forget_labels_preserves_degree_multiset():
    gen = RngStream(7, 0).generator()
    t = sample_uniform_attachment(64, gen)
    shape, _ = forget_labels(t, rng=gen)
    assert sorted(shape.degrees()[1:].tolist()) == sorted(t.degrees()[1:].tolist())


def test_forget_labels_root_is_uniform():
    # on a path of 3, the relabeled identity of vertex 1 must be uniform
    t = GrowthTree.from_attachments([1, 2])
    gen = RngStream(11, 0).generator()
    counts = np.zeros(4)
    trials = 6000
    for _ in range(trials):
        _, root = forget_labels(t, rng=gen)
        counts[root] += 1
    expected = trials / 3
    chi2 = float(np.sum((counts[1:] - expected) ** 2 / expected))
    assert chi2 < 13.82  # chi-square(2 dof) at the 0.1% level


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def test_edge_list_round_trip(tmp_path):
    shape = random_shape(40, 5)
    p = tmp_path / "t.edges"
    write_edge_list(shape, p)
    again = read_edge_list(p)
    assert again.edges() == shape.edges()


def test_edge_list_comments_and_blanks(tmp_path):
    p = tmp_path / "t.edges"
    p.write_text("# a path\n\n1 2\n  2 3\n\n# done\n")
    shape = read_edge_list(p)
    assert shape.edges() == [(1, 2), (2, 3)]


def test_edge_list_malformed_line(tmp_path):
    p = tmp_path / "t.edges"
    p.write_text("1 2 3\n")
    with pytest.raises(ValueError):
        read_edge_list(p)


@pytest.mark.parametrize(
    "text", ["1 2 # note\n2 3\n", "1 2.0\n2 3\n", "1 x\n2 3\n", "1 2\n3\n", "1\n", "2 3\n1 2 #"]
)
def test_edge_list_rejects_lines_that_are_not_two_integers(tmp_path, text):
    p = tmp_path / "t.edges"
    p.write_text(text)
    with pytest.raises(ValueError):
        read_edge_list(p)


@pytest.mark.parametrize("text", ["", "# a comment\n\n   # another # one\n"])
def test_edge_list_without_edges_is_not_a_tree(tmp_path, text):
    p = tmp_path / "t.edges"
    p.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CycleOrDisconnectedError):
            read_edge_list(p)


@pytest.mark.parametrize("text", ["1 2\n", "2 1", "## a # b\n\t2  1 \n#"])
def test_edge_list_single_edge(tmp_path, text):
    p = tmp_path / "t.edges"
    p.write_text(text)
    assert read_edge_list(p).edges() == [(1, 2)]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_edge_list_reads_its_file_once(tmp_path):
    # a pipe, such as bash's <(...), can be read only once
    fifo = tmp_path / "t.edges"
    os.mkfifo(fifo)
    result = []
    reader = threading.Thread(target=lambda: result.append(read_edge_list(fifo)), daemon=True)
    reader.start()
    fifo.write_text("1 2\n2 3\n")
    reader.join(timeout=30)
    if reader.is_alive():  # blocked opening the pipe again: release it
        fifo.write_text("")
        reader.join(timeout=30)
    assert not reader.is_alive() and len(result) == 1 and result[0].edges() == [(1, 2), (2, 3)]


def test_growth_round_trip(tmp_path):
    gen = RngStream(7, 1).generator()
    t = sample_uniform_attachment(33, gen)
    p = tmp_path / "t.growth"
    write_growth(t, p)
    again = read_growth(p)
    assert np.array_equal(again.parent, t.parent)


def test_growth_file_wrong_line_count(tmp_path):
    p = tmp_path / "t.growth"
    p.write_text("4\n2 1\n3 1\n")
    with pytest.raises(ValueError):
        read_growth(p)


@pytest.mark.parametrize(
    "text",
    [
        "5\n2 1\n3 1\n4 2\n-1 2\n",  # -1 is no vertex, and vertex 5 has no line
        "4\n2 1\n3 1\n9 2\n",  # child id above n
        "",
        "1000000000000\n2 1\n",  # a header far beyond the lines that follow
    ],
    ids=["negative-child", "child-above-n", "empty", "huge-header"],
)
def test_growth_file_rejects_malformed(tmp_path, text):
    p = tmp_path / "t.growth"
    p.write_text(text)
    with pytest.raises(ValueError):
        read_growth(p)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name", sorted(f"rootfinder.{m.name}" for m in pkgutil.iter_modules(rootfinder.__path__))
)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)] == []
