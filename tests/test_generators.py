"""Attachment samplers: structural invariants, exact chain probabilities,
empirical frequencies, and cross-model coincidences.

The degree-proportional sampler is checked against `chain_probability`,
which replays the attachment chain step by step; for n = 4 the six
possible parent arrays have probabilities (in parent[3], parent[4] order)

    (1,1) 1/4   (1,2) 1/8   (1,3) 1/8
    (2,1) 1/8   (2,2) 1/4   (2,3) 1/8

obtained by multiplying per-step degree fractions by hand.
"""

import math

import numpy as np
import pytest
from helpers import pa_by_endpoint_list
from scipy import stats

from rootfinder import (
    BadSizeError,
    GrowthTree,
    ModelSpec,
    RngStream,
    chain_probability,
    parse_model,
    sample_alpha_attachment,
    sample_preferential_attachment,
    sample_uniform_attachment,
    shape_of_growth,
)
from rootfinder.estimators import psi_scores
from rootfinder.oracle import enumerate_recursive

UA = ModelSpec("uniform")
PA = ModelSpec("preferential")


def stream(i):
    return RngStream(424242, i).generator()


# ---------------------------------------------------------------------------
# ModelSpec / parse_model
# ---------------------------------------------------------------------------


def test_parse_model_tokens():
    assert parse_model("ua") == ModelSpec("uniform")
    assert parse_model("uniform") == ModelSpec("uniform")
    assert parse_model("pa") == ModelSpec("preferential")
    assert parse_model("PREFERENTIAL") == ModelSpec("preferential")
    assert parse_model("alpha:1.5") == ModelSpec("alpha", 1.5)
    assert parse_model("alpha", alpha=-2.0) == ModelSpec("alpha", -2.0)


def test_parse_model_rejects_garbage():
    with pytest.raises(ValueError):
        parse_model("erdos")
    with pytest.raises(ValueError):
        parse_model("alpha")  # no value given
    with pytest.raises(ValueError):
        parse_model("alpha:inf")


def test_model_labels():
    assert UA.label == "uniform"
    assert PA.label == "preferential"
    assert ModelSpec("alpha", 0.5).label == "alpha:0.5"
    assert ModelSpec("alpha", -1.0).label == "alpha:-1"


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("geometric")
    with pytest.raises(ValueError):
        ModelSpec("alpha", math.inf)


# ---------------------------------------------------------------------------
# Structural invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "model",
    [UA, PA, ModelSpec("alpha", 0.5), ModelSpec("alpha", -1.0), ModelSpec("alpha", 3.0)],
)
def test_parents_precede_children(model):
    t = model.sample(300, stream(0))
    assert t.n == 300
    p = t.parent
    assert np.all(p[2:] >= 1)
    assert np.all(p[2:] < np.arange(2, 301))


@pytest.mark.parametrize("model", [UA, PA, ModelSpec("alpha", 1.7)])
def test_n2_is_the_unique_tree(model):
    t = model.sample(2, stream(1))
    assert t.parent.tolist() == [0, 0, 1]
    with pytest.raises(BadSizeError):
        model.sample(1, stream(1))


@pytest.mark.parametrize("model", [UA, PA, ModelSpec("alpha", 0.5)])
def test_determinism_per_stream(model):
    a = model.sample(200, RngStream(55, 3).generator())
    b = model.sample(200, RngStream(55, 3).generator())
    c = model.sample(200, RngStream(55, 4).generator())
    assert np.array_equal(a.parent, b.parent)
    assert not np.array_equal(a.parent, c.parent)


# ---------------------------------------------------------------------------
# chain_probability is a valid distribution
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "model",
    [UA, PA, ModelSpec("alpha", 0.5), ModelSpec("alpha", 2.0), ModelSpec("alpha", -1.0)],
)
def test_chain_probability_sums_to_one(model):
    total = sum(chain_probability(t, model) for t in enumerate_recursive(5))
    assert math.isclose(total, 1.0, rel_tol=1e-12)


def test_chain_probability_examples():
    # uniform: every recursive tree on n vertices has probability 1/(n-1)!
    t = GrowthTree.from_attachments([1, 2, 3])
    assert math.isclose(chain_probability(t, UA), 1 / 6)
    # degree-proportional path 1-2-3-4: (1/2) * (1/4)
    assert math.isclose(chain_probability(t, PA), 1 / 8)
    # star: second step picks the degree-2 hub with probability 1/2
    star = GrowthTree.from_attachments([1, 1, 1])
    assert math.isclose(chain_probability(star, PA), 1 / 4)
    # path 1-2-3 then attach to 2: degree 2 of total 4
    mid = GrowthTree.from_attachments([1, 2, 2])
    assert math.isclose(chain_probability(mid, PA), 1 / 2 * 2 / 4)


# ---------------------------------------------------------------------------
# Uniform attachment frequencies
# ---------------------------------------------------------------------------


def test_uniform_n3_split():
    gen = stream(2)
    trials = 100_000
    hits = sum(int(sample_uniform_attachment(3, gen).parent[3] == 1) for _ in range(trials))
    sigma = math.sqrt(0.25 / trials)
    assert abs(hits / trials - 0.5) <= 3 * sigma


def test_uniform_n4_all_six_trees_equally_likely():
    gen = stream(3)
    trials = 100_000
    counts = {}
    for _ in range(trials):
        t = sample_uniform_attachment(4, gen)
        key = (int(t.parent[3]), int(t.parent[4]))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    sigma = math.sqrt((1 / 6) * (5 / 6) / trials)
    for key, c in counts.items():
        assert abs(c / trials - 1 / 6) <= 3 * sigma, (key, c / trials)


# ---------------------------------------------------------------------------
# Degree-proportional attachment frequencies
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5, 17, 1000, 10_000])
def test_preferential_matches_endpoint_list_loop(n):
    # same draw, same tree: the pointer jumping resolves exactly the list lookups
    for i in range(30 if n < 10_000 else 3):
        got = sample_preferential_attachment(n, RngStream(91, i).generator())
        want = pa_by_endpoint_list(n, RngStream(91, i).generator())
        assert got.parent.tolist() == want.tolist()


def test_preferential_n3_uniform_over_two():
    gen = stream(4)
    trials = 50_000
    hits = sum(
        int(sample_preferential_attachment(3, gen).parent[3] == 1) for _ in range(trials)
    )
    sigma = math.sqrt(0.25 / trials)
    assert abs(hits / trials - 0.5) <= 3 * sigma


def test_preferential_n4_matches_exact_chain():
    gen = stream(5)
    trials = 100_000
    counts = {}
    for _ in range(trials):
        t = sample_preferential_attachment(4, gen)
        key = (int(t.parent[3]), int(t.parent[4]))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    for key, c in counts.items():
        t = GrowthTree.from_attachments([1, *key])
        p = chain_probability(t, PA)
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(c / trials - p) <= 3 * sigma, (key, c / trials, p)


def test_preferential_conditional_step_probability():
    # among n=4 draws whose first three vertices form the path 1-2-3,
    # vertex 4 picks the middle vertex with conditional probability 2/4
    gen = stream(6)
    path, mid = 0, 0
    for _ in range(60_000):
        t = sample_preferential_attachment(4, gen)
        if t.parent[3] == 2:
            path += 1
            mid += int(t.parent[4] == 2)
    rate = mid / path
    sigma = math.sqrt(0.25 / path)
    assert abs(rate - 0.5) <= 3 * sigma


def test_preferential_hub_degree_scaling():
    # paired streams: the same trial stream grown to n and to 4n, so the
    # d(1)/sqrt(n) comparison rides the same attachment history
    trials = 1200
    small = np.empty(trials)
    large = np.empty(trials)
    for i in range(trials):
        small[i] = sample_preferential_attachment(
            1000, RngStream(77, i).generator()
        ).degrees()[1] / math.sqrt(1000)
        large[i] = sample_preferential_attachment(
            4000, RngStream(77, i).generator()
        ).degrees()[1] / math.sqrt(4000)
    assert abs(small.mean() - large.mean()) <= 0.05 * small.mean()


# ---------------------------------------------------------------------------
# General-alpha sampler
# ---------------------------------------------------------------------------


def test_alpha_zero_identical_to_uniform():
    for i in range(5):
        a = sample_alpha_attachment(500, 0.0, RngStream(9, i).generator())
        b = sample_uniform_attachment(500, RngStream(9, i).generator())
        assert np.array_equal(a.parent, b.parent)


def test_alpha_one_matches_preferential_in_distribution():
    # two-sample KS on the root's largest-component statistic
    draws = 10_000
    n = 100
    gen_a = stream(7)
    gen_b = stream(8)
    psi_a = np.empty(draws)
    psi_b = np.empty(draws)
    for i in range(draws):
        ta = sample_alpha_attachment(n, 1.0, gen_a)
        tb = sample_preferential_attachment(n, gen_b)
        psi_a[i] = psi_scores(shape_of_growth(ta)).values[1]
        psi_b[i] = psi_scores(shape_of_growth(tb)).values[1]
    result = stats.ks_2samp(psi_a, psi_b)
    assert result.pvalue > 0.01


def test_alpha_large_gives_star():
    gen = stream(9)
    star = 0
    trials = 1000
    for _ in range(trials):
        t = sample_alpha_attachment(10, 50.0, gen)
        star += int(np.max(t.degrees()) == 9)
    assert star / trials >= 0.99


def test_alpha_negative_prefers_leaves():
    # strong negative alpha at n=4: vertex 4 should avoid the degree-2 hub
    gen = stream(10)
    hub_hits = 0
    path_cases = 0
    for _ in range(20_000):
        t = sample_alpha_attachment(4, -8.0, gen)
        if t.parent[3] == 2:  # path 1-2-3, hub is vertex 2
            path_cases += 1
            hub_hits += int(t.parent[4] == 2)
    # weight 2^-8 against two weight-1 leaves: P(hub) = (1/256)/(2 + 1/256)
    p = (2.0**-8) / (2 + 2.0**-8)
    sigma = math.sqrt(p * (1 - p) / path_cases)
    assert abs(hub_hits / path_cases - p) <= 4 * sigma


def test_alpha_chain_probability_agrees_with_frequencies():
    model = ModelSpec("alpha", 2.0)
    gen = stream(11)
    trials = 60_000
    counts = {}
    for _ in range(trials):
        t = sample_alpha_attachment(4, 2.0, gen)
        key = (int(t.parent[3]), int(t.parent[4]))
        counts[key] = counts.get(key, 0) + 1
    for key, c in counts.items():
        p = chain_probability(GrowthTree.from_attachments([1, *key]), model)
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(c / trials - p) <= 3.5 * sigma, (key, c / trials, p)
