"""Discretization, mutual information, feature scoring, and population seeding."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xorpso import (
    FeatureDataset,
    MiScores,
    SynthSpec,
    discretize,
    generate_synthetic,
    mutual_information,
    score_features,
    seed_masks,
)
from xorpso.rank import BLOCK_CELLS, MAX_SWARM_CELLS, check_swarm_size


# --- discretize -----------------------------------------------------------

def test_equal_width_bins_by_hand():
    codes = discretize(np.array([0.0, 1.0, 2.0, 3.0]), bin_count=2)
    assert list(codes) == [0, 0, 1, 1]


def test_maximum_lands_in_top_bin():
    codes = discretize(np.array([0.0, 10.0]), bin_count=10)
    assert codes[0] == 0
    assert codes[1] == 9


def test_constant_column_collapses_to_bin_zero():
    codes = discretize(np.full(7, 3.25), bin_count=10)
    assert np.all(codes == 0)


def test_discretize_codes_stay_in_range():
    rng = np.random.default_rng(1)
    for _ in range(20):
        col = rng.normal(size=50) * rng.uniform(0.1, 100)
        for bins in (2, 5, 10):
            codes = discretize(col, bins)
            assert codes.min() >= 0
            assert codes.max() <= bins - 1


def test_discretize_is_shift_and_scale_invariant():
    rng = np.random.default_rng(2)
    col = rng.normal(size=40)
    base = discretize(col, 8)
    assert np.array_equal(discretize(col * 3.5 - 12.0, 8), base)


def test_discretize_validation():
    with pytest.raises(ValueError, match="bin_count"):
        discretize(np.array([1.0, 2.0]), 1)
    # beyond 2**53 float64 cannot hold every bin index and the int64 cast
    # overflows at 2**63
    discretize(np.array([1.0, 2.0]), 2**53)
    for bins in (2**53 + 1, 2**63, 10**20):
        with pytest.raises(ValueError, match=f"got {bins}$"):
            discretize(np.array([1.0, 2.0]), bins)
    with pytest.raises(ValueError, match="finite"):
        discretize(np.array([1.0, np.inf]), 4)
    assert discretize(np.arange(4.0), np.int64(2)).tolist() == [0, 0, 1, 1]


@pytest.mark.parametrize("bins", [3.5, 3.0, True, np.float64(4.0)])
def test_a_non_integer_bin_count_is_rejected(bins):
    with pytest.raises(ValueError, match="bin_count must be an integer"):
        discretize(np.arange(10.0), bins)
    train = FeatureDataset(features=np.arange(8.0).reshape(4, 2), labels=[0, 1, 0, 1])
    with pytest.raises(ValueError, match="bin_count must be an integer"):
        score_features(train, bin_count=bins)


def test_columns_whose_binning_overflows_are_binned_at_a_smaller_scale():
    # max - min overflows at any bin count; the product overflows at 2**53
    assert list(discretize(np.array([-1e308, 1e308, 0, 5, 1, 2]), 10)) == [0, 9, 5, 5, 5, 5]
    codes = discretize(np.array([0.0, 1e300, 5e299, 2e299]), 2**53)
    assert list(codes) == [0, 2**53 - 1, 2**52, int(0.2 * 2**53)]


@st.composite
def _matrices(draw):
    """Real matrices whose columns may be constant, integer-valued, tiny or
    near the float64 limit, with a bin count from 2 to 2**53."""
    n = draw(st.integers(1, 12))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        values = draw(st.sampled_from([
            st.just(draw(st.floats(-1e308, 1e308))),
            st.integers(-3, 3).map(float),
            st.floats(-1e6, 1e6),
            st.floats(-1e308, 1e308),
            st.sampled_from([-1e308, -5e307, 0.0, 1e-300, 5e307, 1e308]),
        ]))
        columns.append(draw(st.lists(values, min_size=n, max_size=n)))
    bins = draw(st.sampled_from([2, 3, 10, n + 1, 1000, 2**52 + 1, 2**53]))
    return np.array(columns).T.reshape(n, len(columns)), bins


@settings(max_examples=300, deadline=None)
@given(_matrices())
def test_discretize_on_a_matrix_equals_one_call_per_column(case):
    features, bins = case
    codes = discretize(features, bins)
    assert codes.shape == features.shape and codes.dtype == np.int64
    for j in range(features.shape[1]):
        assert np.array_equal(codes[:, j], discretize(features[:, j], bins))
    assert codes.min() >= 0 and codes.max() <= bins - 1


# --- mutual information ---------------------------------------------------

def test_identical_binary_vectors_give_ln2():
    x = np.array([0, 0, 1, 1])
    assert abs(mutual_information(x, x) - math.log(2)) < 1e-12


def test_independent_vectors_give_zero():
    x = np.array([0, 0, 1, 1])
    y = np.array([0, 1, 0, 1])
    assert abs(mutual_information(x, y)) < 1e-12


def test_hand_computed_joint_table():
    # joint counts: (0,0) twice, (1,0) once, (1,1) once out of four
    x = np.array([0, 0, 1, 1])
    y = np.array([0, 0, 0, 1])
    want = (
        0.5 * math.log(0.5 / (0.5 * 0.75))
        + 0.25 * math.log(0.25 / (0.5 * 0.75))
        + 0.25 * math.log(0.25 / (0.5 * 0.25))
    )
    got = mutual_information(x, y)
    assert abs(got - want) < 1e-12
    assert abs(got - 0.215762) < 1e-6


def test_mutual_information_is_symmetric_and_non_negative():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(4, 40))
        x = rng.integers(0, 4, size=n)
        y = rng.integers(0, 3, size=n)
        mi_xy = mutual_information(x, y)
        assert mi_xy >= 0.0
        assert abs(mi_xy - mutual_information(y, x)) < 1e-12


def test_mutual_information_bounded_by_entropy():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(8, 40))
        x = rng.integers(0, 3, size=n)
        y = rng.integers(0, 3, size=n)
        _, counts = np.unique(x, return_counts=True)
        p = counts / n
        entropy = -np.sum(p * np.log(p))
        assert mutual_information(x, y) <= entropy + 1e-12


def test_mutual_information_validation():
    with pytest.raises(ValueError, match="equal-length"):
        mutual_information(np.array([0, 1]), np.array([0, 1, 1]))
    with pytest.raises(ValueError, match="empty"):
        mutual_information(np.array([]), np.array([]))


# --- score_features -------------------------------------------------------

def test_constant_feature_scores_zero():
    ds = FeatureDataset(
        features=np.array([[5.0, 0.0], [5.0, 1.0], [5.0, 0.0], [5.0, 1.0]]),
        labels=[0, 1, 0, 1],
    )
    scores = score_features(ds, bin_count=4)
    assert scores.scores[0] == 0.0
    assert scores.scores[1] > 0.5


def test_informative_columns_rank_highest():
    ds = generate_synthetic(SynthSpec(300, 12, 4, class_separation=3.0, seed=5))
    scores = score_features(ds, bin_count=10)
    top4 = set(int(j) for j in scores.ranking()[:4])
    assert top4 == set(ds.provenance.informative_indices)


def test_planted_features_reach_top_quartile_at_scale():
    from xorpso import standardize_split, stratified_split

    ds = generate_synthetic(SynthSpec(400, 64, 8, class_separation=2.0, seed=7))
    split = standardize_split(stratified_split(ds, 0.2, 0))
    scores = score_features(split.train, bin_count=10)
    top_quartile = set(int(j) for j in scores.ranking()[:16])
    assert set(ds.provenance.informative_indices) <= top_quartile


def test_ranking_breaks_ties_by_lower_index():
    scores = MiScores(scores=np.array([0.2, 0.5, 0.2, 0.5]))
    assert list(scores.ranking()) == [1, 3, 0, 2]


def test_mi_scores_validation():
    with pytest.raises(ValueError, match="negative"):
        MiScores(scores=np.array([0.1, -0.2]))
    with pytest.raises(ValueError, match="1-D"):
        MiScores(scores=np.zeros((2, 2)))


@pytest.mark.parametrize("values,message", [
    # an inf would rank first, and seeding's empty-mask repair would take a NaN
    pytest.param([np.nan, 0.5, 0.1, np.inf], "score 0 is nan", id="nan"),
    pytest.param([0.2, 0.5, 0.1, np.inf], "score 3 is inf", id="inf"),
    pytest.param([0.2, -np.inf, np.nan], "score 1 is -inf", id="-inf"),
])
def test_mi_scores_reject_non_finite_scores(values, message):
    with pytest.raises(ValueError, match=f"^{message}; scores must be finite$"):
        MiScores(scores=np.array(values))


def _reference_discretize(col, bin_count):
    """Reference: the 1-D binning expression scoring keeps for finite products."""
    lo, hi = col.min(), col.max()
    if hi == lo:
        return np.zeros(col.shape[0], dtype=np.int64)
    idx = np.floor((col - lo) * bin_count / (hi - lo)).astype(np.int64)
    return np.clip(idx, 0, bin_count - 1)


def _reference_mi(x, y):
    """Reference: one joint table for one column, summed in cell order."""
    _, xi = np.unique(x, return_inverse=True)
    _, yi = np.unique(y, return_inverse=True)
    nx = int(xi.max()) + 1
    ny = int(yi.max()) + 1
    joint = np.bincount(xi * ny + yi, minlength=nx * ny).reshape(nx, ny) / x.size
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    i, j = np.nonzero(joint)
    p = joint[i, j]
    terms = p * (np.log(p) - np.log(px[i]) - np.log(py[j]))
    return max(0.0, float(terms.sum()))


def _reference_scores(dataset, bin_count):
    """Reference: the per-column loop, one binning and one MI call a column."""
    return np.array([
        _reference_mi(_reference_discretize(col, bin_count), dataset.labels)
        for col in dataset.features.T
    ])


@st.composite
def _scoring_cases(draw):
    """Datasets of 1 to 20 classes with non-contiguous label values, and
    constant, integer-valued and real columns, at bin counts on both sides
    of the row count."""
    n = draw(st.integers(2, 60))
    class_values = draw(st.lists(st.integers(0, 10**6), min_size=1,
                                 max_size=20, unique=True))
    labels = draw(st.lists(st.sampled_from(class_values), min_size=n, max_size=n))
    columns = []
    for _ in range(draw(st.integers(1, 6))):
        values = draw(st.sampled_from([
            st.just(draw(st.floats(-1e6, 1e6))),
            st.integers(-4, 4).map(float),
            st.floats(-1e6, 1e6),
        ]))
        columns.append(draw(st.lists(values, min_size=n, max_size=n)))
    bins = draw(st.sampled_from(
        [b for b in (2, 10, n - 1, n, n + 1, 1000, 2**53) if b >= 2]
    ))
    features = np.array(columns).T.reshape(n, len(columns))
    return FeatureDataset(features=features, labels=labels), bins


@settings(max_examples=500, deadline=None)
@given(_scoring_cases())
def test_score_features_equals_the_per_column_loop(case):
    dataset, bins = case
    got = score_features(dataset, bin_count=bins).scores
    want = _reference_scores(dataset, bins)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    x = _reference_discretize(dataset.features[:, 0], bins)
    got_one = np.float64(mutual_information(x, dataset.labels))
    assert got_one.view(np.int64) == np.float64(_reference_mi(x, dataset.labels)).view(np.int64)


def test_one_class_scores_equal_the_per_column_loop():
    # a one-class table is a column: its class sum is numpy's pairwise sum
    # over every held bin, so a table that kept empty bins would drift
    rng = np.random.default_rng(8)
    dataset = FeatureDataset(features=rng.normal(size=(50, 40)), labels=[3] * 50)
    for bins in (10, 30, 2**53):
        got = score_features(dataset, bin_count=bins).scores
        want = _reference_scores(dataset, bins)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_scoring_memory_does_not_grow_with_bin_count():
    # at 2**53 bins a table as wide as the bin count could never be built, and
    # one pass over the whole 600 x 800 matrix would hold several 3.7 MiB arrays
    dataset = generate_synthetic(SynthSpec(600, 800, 20, seed=4))
    tracemalloc.start()
    try:
        score_features(dataset, bin_count=2**53)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 96 * BLOCK_CELLS  # 12 float64 arrays of one block


# --- seed_masks -----------------------------------------------------------

def _scores(values):
    return MiScores(scores=np.array(values, dtype=float))


def test_seeded_count_rounds_half_up():
    # 3 * 0.2 = 0.6 and 8 * 0.2 = 1.6 round up; population // 5 would give
    # 0 and 1.  Bit 0 is the top quarter of 4 features: over 400 draws an
    # unseeded mask leaves it off at least once
    s = _scores([0.4, 0.3, 0.2, 0.1])
    rng = np.random.default_rng(0)
    for population, seeded in ((3, 1), (8, 2)):
        masks = np.array([seed_masks(s, population, rng=rng) for _ in range(400)])
        assert np.all(masks[:, :seeded, 0] == 1)
        assert not np.all(masks[:, seeded, 0] == 1)


def test_default_fraction_of_hundred_gives_twenty_seeded_masks():
    rng = np.random.default_rng(5)
    scores = _scores(list(np.linspace(1.0, 0.1, 10)))
    masks = seed_masks(scores, population=100, rng=rng)
    assert len(masks) == 100
    forced = [bool(mask[0] and mask[1]) for mask in masks]
    assert all(forced[:20])
    # the unseeded remainder is unbiased, so the forced pattern cannot persist
    assert not all(forced[20:])


def test_default_top_m_is_quarter_of_features():
    s = _scores([0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1])
    masks = seed_masks(s, population=4, rng=np.random.default_rng(2))
    assert np.all(masks[0, :2] == 1)  # 8 // 4 = 2 forced bits


def test_no_mask_is_all_zero():
    s = _scores([0.0, 0.0, 0.3])
    rng = np.random.default_rng(3)
    for _ in range(50):
        masks = seed_masks(s, population=8, rng=rng)
        for mask in masks:
            assert mask.sum() >= 1


def test_masks_are_binary_and_deterministic():
    s = _scores([0.5, 0.1, 0.9, 0.3])
    a = seed_masks(s, population=12, rng=np.random.default_rng(7))
    b = seed_masks(s, population=12, rng=np.random.default_rng(7))
    for ma, mb in zip(a, b):
        assert np.array_equal(ma, mb)
        assert set(np.unique(ma)) <= {0, 1}


def test_seed_masks_validation():
    s = _scores([0.5, 0.1])
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="population"):
        seed_masks(s, population=0, rng=rng)


def test_swarm_size_limit_is_checked_before_the_seeding_draw(fixed_rng_cls):
    check_swarm_size(MAX_SWARM_CELLS // 2, 2)
    with pytest.raises(ValueError, match="exceeds the limit"):
        check_swarm_size(MAX_SWARM_CELLS + 1, 1)
    # a generator with no scripted block fails if the masks are drawn at all
    with pytest.raises(ValueError, match=f"{2 * 10**8} swarm cells"):
        seed_masks(_scores([0.5, 0.1]), population=10**8, rng=fixed_rng_cls([]))


def test_seed_masks_requires_a_generator():
    # no unseeded fallback: two identical calls must never differ
    with pytest.raises(TypeError, match="rng"):
        seed_masks(_scores([0.5, 0.1]), population=4)


def _seed_masks_per_mask(scores, population, rng):
    """Reference: one length-n draw per mask, seeded masks first."""
    n = scores.feature_count
    top = scores.ranking()[:max(1, n // 4)]
    best_bit = int(np.argmax(scores.scores))
    n_seeded = int(population * 0.2 + 0.5)
    masks = []
    for i in range(population):
        u = rng.random(n)
        if i < n_seeded:
            bits = (u < 0.1).astype(np.int8)
            bits[top] = 1
        else:
            bits = (u < 0.5).astype(np.int8)
        if bits.sum() == 0:
            bits[best_bit] = 1
        masks.append(bits)
    return masks


@st.composite
def _seeding_cases(draw):
    # narrow masks often come out empty, so the repair is exercised
    n = draw(st.integers(1, 3) | st.integers(1, 30))
    # few distinct values, so scores tie and may all be zero
    values = draw(st.lists(st.sampled_from([0.0, 0.0, 0.1, 0.5, 2.0]),
                           min_size=n, max_size=n))
    return (
        _scores(values),
        draw(st.integers(1, 40)),
        draw(st.integers(0, 2**64 - 1)),
    )


@settings(max_examples=300, deadline=None)
@given(_seeding_cases())
def test_seed_masks_equals_one_draw_per_mask(case):
    scores, population, seed = case
    got = seed_masks(scores, population, rng=np.random.default_rng(seed))
    want = _seed_masks_per_mask(scores, population, np.random.default_rng(seed))
    assert isinstance(got, np.ndarray) and got.dtype == np.int8
    assert got.shape == (population, scores.feature_count)
    for g, w in zip(got, want):
        assert g.dtype == np.int8 and g.shape == w.shape
        assert np.array_equal(g, w)
