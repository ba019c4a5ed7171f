"""Discretization, mutual information, feature scoring, and population seeding."""

import math

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
    with pytest.raises(ValueError, match="finite"):
        discretize(np.array([1.0, np.inf]), 4)


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


# --- seed_masks -----------------------------------------------------------

def _scores(values):
    return MiScores(scores=np.array(values, dtype=float))


def test_seeded_count_rounds_half_up():
    s = _scores([0.4, 0.3, 0.2, 0.1])
    rng = np.random.default_rng(0)
    masks = seed_masks(s, population=10, seeded_fraction=0.25, top_m=2, rng=rng)
    assert len(masks) == 10
    # 10 * 0.25 = 2.5 rounds to 3 seeded masks, each with the top-2 bits on
    for mask in masks[:3]:
        assert mask[0] == 1 and mask[1] == 1


def test_default_fraction_of_hundred_gives_twenty_seeded_masks():
    rng = np.random.default_rng(5)
    scores = _scores(list(np.linspace(1.0, 0.1, 10)))
    masks = seed_masks(scores, population=100, seeded_fraction=0.2, top_m=2, rng=rng)
    assert len(masks) == 100
    forced = [bool(mask[0] and mask[1]) for mask in masks]
    assert all(forced[:20])
    # the unseeded remainder is unbiased, so the forced pattern cannot persist
    assert not all(forced[20:])


def test_seeded_fraction_extremes():
    s = _scores([0.4, 0.3, 0.2, 0.1])
    all_seeded = seed_masks(
        s, population=5, seeded_fraction=1.0, top_m=1, rng=np.random.default_rng(1)
    )
    assert all(mask[0] == 1 for mask in all_seeded)
    none_seeded = seed_masks(
        s, population=200, seeded_fraction=0.0, top_m=1, rng=np.random.default_rng(1)
    )
    # unseeded masks are unbiased: bit 0 should not always be on
    assert any(mask[0] == 0 for mask in none_seeded)


def test_default_top_m_is_quarter_of_features():
    s = _scores([0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1])
    masks = seed_masks(s, population=4, seeded_fraction=1.0, rng=np.random.default_rng(2))
    for mask in masks:
        assert np.all(mask[:2] == 1)  # 8 // 4 = 2 forced bits


def test_no_mask_is_all_zero():
    s = _scores([0.0, 0.0, 0.3])
    rng = np.random.default_rng(3)
    for _ in range(50):
        masks = seed_masks(s, population=8, seeded_fraction=0.2, rng=rng)
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
    with pytest.raises(ValueError, match="seeded_fraction"):
        seed_masks(s, population=4, seeded_fraction=1.5, rng=rng)
    with pytest.raises(ValueError, match="top_m"):
        seed_masks(s, population=4, top_m=3, rng=rng)
    with pytest.raises(ValueError, match="top_m"):
        seed_masks(s, population=4, top_m=0, rng=rng)


def test_seed_masks_requires_a_generator():
    # no unseeded fallback: two identical calls must never differ
    with pytest.raises(TypeError, match="rng"):
        seed_masks(_scores([0.5, 0.1]), population=4)


def _seed_masks_per_mask(scores, population, seeded_fraction, top_m, rng):
    """Reference: one length-n draw per mask, seeded masks first."""
    n = scores.feature_count
    if top_m is None:
        top_m = max(1, n // 4)
    top = scores.ranking()[:top_m]
    best_bit = int(np.argmax(scores.scores))
    n_seeded = int(population * seeded_fraction + 0.5)
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
        draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))),
        draw(st.one_of(st.none(), st.integers(1, n))),
        draw(st.integers(0, 2**64 - 1)),
    )


@settings(max_examples=300, deadline=None)
@given(_seeding_cases())
def test_seed_masks_equals_one_draw_per_mask(case):
    scores, population, fraction, top_m, seed = case
    got = seed_masks(scores, population, fraction, top_m,
                     rng=np.random.default_rng(seed))
    want = _seed_masks_per_mask(scores, population, fraction, top_m,
                                np.random.default_rng(seed))
    assert len(got) == population
    for g, w in zip(got, want):
        assert g.dtype == np.int8 and g.shape == w.shape
        assert np.array_equal(g, w)
