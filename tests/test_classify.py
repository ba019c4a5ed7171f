"""k-NN mask evaluation against hand computations and reference implementations."""

import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import xorpso
import xorpso.classify
from xorpso import (
    SYNCHRONOUS,
    FeatureDataset,
    KnnConfig,
    PsoConfig,
    SplitDataset,
    evaluate_particle,
    knn_accuracy,
    run_xor_pso,
)
from xorpso.classify import CHUNK_ROWS, _nearest_exact, ordered_sqeuclidean


def naive_knn(train_x, train_y, val_x, k, mask):
    """Pure-Python reference: sort by (squared distance, train row index),
    majority vote, vote ties to the smallest class label."""
    cols = [j for j, bit in enumerate(mask) if bit]
    preds = []
    for row in val_x:
        scored = sorted(
            (sum((row[j] - tr[j]) ** 2 for j in cols), i)
            for i, tr in enumerate(train_x)
        )
        votes = {}
        for _, i in scored[:k]:
            votes[train_y[i]] = votes.get(train_y[i], 0) + 1
        top = max(votes.values())
        preds.append(min(lab for lab, count in votes.items() if count == top))
    return preds


def argsort_rows(dist, k):
    """Reference selection: the first k columns of a stable sort of each row."""
    return np.argsort(dist, axis=1, kind="stable")[:, :k]


def argsort_predict(split, mask, k):
    """Reference prediction: stable-sort neighbours, vote ties to the lowest label."""
    cols = np.flatnonzero(mask)
    dist = cdist(split.validation.features[:, cols], split.train.features[:, cols],
                 metric="sqeuclidean")
    preds = []
    for row in split.train.labels[argsort_rows(dist, k)]:
        labels, counts = np.unique(row, return_counts=True)
        preds.append(labels[np.argmax(counts)])
    return preds


def _make_split(train_x, train_y, val_x, val_y):
    return SplitDataset(
        train=FeatureDataset(features=train_x, labels=train_y),
        validation=FeatureDataset(features=val_x, labels=val_y),
    )


def check_against_the_oracle(split, mask, k):
    """Assert that _nearest_exact and the predictions match a stable sort of
    scipy's distances: equal distances prefer the lower training row."""
    cols = np.flatnonzero(mask)
    valid, train = split.validation.features[:, cols], split.train.features[:, cols]
    exact = cdist(valid, train, metric="sqeuclidean")
    work = (np.empty(exact.shape), np.empty(exact.shape), np.empty(exact.shape, bool))
    got = _nearest_exact(valid, train, k, *work)
    assert np.array_equal(got, np.sort(argsort_rows(exact, k), axis=1))
    assert list(predict(split, mask, KnnConfig(k=k))) == argsort_predict(split, mask, k)


def predict(split, mask, config):
    """Each validation row's predicted class, read from knn_accuracy's misses.

    One full evaluation per training class, with every validation label set
    to that class: a row predicted as class c ends c's evaluation with no
    miss, and every other evaluation with one.
    """
    n_val = split.validation.sample_count
    preds, hits = np.zeros(n_val, dtype=np.int64), np.zeros(n_val, dtype=np.int64)
    for c in split.train.classes:
        as_c = _make_split(split.train.features, split.train.labels,
                           split.validation.features, np.full(n_val, c))
        misses = np.zeros(n_val, dtype=np.int64)
        knn_accuracy(as_c, mask, config, misses=misses)
        preds[misses == 0] = c
        hits += misses == 0
    assert np.all(hits == 1)
    return preds


# --- hand-computed cases --------------------------------------------------

def test_informative_feature_alone_is_perfect(tiny_split):
    config = KnnConfig(k=1)
    assert knn_accuracy(tiny_split, np.array([1, 0]), config) == 1.0


def test_constant_feature_alone_predicts_first_row_label(tiny_split):
    # all distances are equal, so the lowest train row, row 0 (label 1), wins
    config = KnnConfig(k=1)
    preds = predict(tiny_split, np.array([0, 1]), config)
    assert list(preds) == [1, 1]
    assert knn_accuracy(tiny_split, np.array([0, 1]), config) == 0.5


def test_constant_feature_does_not_perturb_informative_one(tiny_split):
    config = KnnConfig(k=1)
    assert knn_accuracy(tiny_split, np.array([1, 1]), config) == 1.0


def test_distance_tie_goes_to_lower_train_row():
    split = _make_split(
        train_x=[[1.0], [3.0]], train_y=[1, 0], val_x=[[2.0], [2.0]], val_y=[1, 1]
    )
    preds = predict(split, np.array([1]), KnnConfig(k=1))
    assert list(preds) == [1, 1]


def test_vote_tie_goes_to_lower_class_label():
    split = _make_split(
        train_x=[[0.0], [2.0], [4.0]],
        train_y=[2, 1, 0],
        val_x=[[1.9], [1.9]],
        val_y=[0, 0],
    )
    # k=3 collects one vote per class; the tie resolves to class 0
    preds = predict(split, np.array([1]), KnnConfig(k=3))
    assert list(preds) == [0, 0]


def test_predictions_ignore_masked_out_columns(tiny_split):
    config = KnnConfig(k=1)
    with_noise = predict(tiny_split, np.array([1, 0]), config)
    # feature 1 masked out: identical to evaluating on feature 0 alone
    only_f0 = _make_split(
        train_x=tiny_split.train.features[:, :1],
        train_y=tiny_split.train.labels,
        val_x=tiny_split.validation.features[:, :1],
        val_y=tiny_split.validation.labels,
    )
    alone = predict(only_f0, np.array([1]), config)
    assert np.array_equal(with_noise, alone)


# --- input validation -----------------------------------------------------

def test_knn_config_validation():
    with pytest.raises(ValueError, match="odd"):
        KnnConfig(k=2)
    with pytest.raises(ValueError, match=">= 1"):
        KnnConfig(k=0)
    assert KnnConfig(k=np.int64(3)).k == 3


@pytest.mark.parametrize("k", [3.0, 2.5, True, np.float64(5.0)])
def test_knn_config_rejects_a_non_integer_k(k):
    with pytest.raises(ValueError, match="k must be an integer"):
        KnnConfig(k=k)


def test_empty_mask_raises(tiny_split):
    with pytest.raises(ValueError, match="mask selects no features") as raised:
        knn_accuracy(tiny_split, np.array([0, 0]), KnnConfig(k=1))
    assert type(raised.value) is ValueError


def test_k_larger_than_train_rejected(tiny_split):
    with pytest.raises(ValueError, match="exceeds training sample count"):
        knn_accuracy(tiny_split, np.array([1, 0]), KnnConfig(k=5))


def test_wrong_mask_length_rejected(tiny_split):
    with pytest.raises(ValueError, match="does not match feature count"):
        knn_accuracy(tiny_split, np.array([1, 0, 1]), KnnConfig(k=1))


# --- cross-check against the naive reference ------------------------------

def test_matches_naive_reference_on_random_integer_instances():
    # integer-valued features make squared distances exact in both
    # implementations, so ties occur often and must break identically;
    # the second pass maps the classes onto sparse label values
    rng = np.random.default_rng(42)
    for trial, label_values in enumerate(
        [np.arange(3)] * 25 + [np.array([0, 7, 10**6])] * 25
    ):
        n_train = int(rng.integers(5, 20))
        n_val = int(rng.integers(2, 8))
        n_feat = int(rng.integers(1, 5))
        n_classes = int(rng.integers(2, 4))
        train_x = rng.integers(0, 4, size=(n_train, n_feat)).astype(float)
        train_y = label_values[rng.integers(0, n_classes, size=n_train)]
        val_x = rng.integers(0, 4, size=(n_val, n_feat)).astype(float)
        val_y = label_values[rng.integers(0, n_classes, size=n_val)]
        mask = np.zeros(n_feat, dtype=np.int8)
        mask[rng.integers(0, n_feat)] = 1
        extra = rng.random(n_feat) < 0.5
        mask[extra] = 1
        k = int(rng.choice([1, 3, 5]))
        if k > n_train:
            k = 1
        split = _make_split(train_x, train_y, val_x, val_y)
        got = predict(split, mask, KnnConfig(k=k))
        want = naive_knn(train_x, train_y, val_x, k, mask)
        assert list(got) == want, f"trial {trial} diverged"


def test_accuracy_is_mean_agreement(tiny_split):
    config = KnnConfig(k=1)
    preds = predict(tiny_split, np.array([0, 1]), config)
    expected = np.mean(preds == tiny_split.validation.labels)
    assert knn_accuracy(tiny_split, np.array([0, 1]), config) == expected


# --- neighbour selection against the stable-sort reference ----------------

# value pools that make exact distance ties common: small integers, and
# finite values so large that squared differences overflow to inf
INTEGER_VALUES = [0.0, 1.0, 2.0, 3.0]
HUGE_VALUES = [-1.7e308, -1e200, 0.0, 1e154, 1e200, 1.7e308]


@st.composite
def _tie_heavy_instances(draw, n_val=st.integers(2, 6)):
    k = draw(st.sampled_from([1, 3, 5]))
    # no extra rows gives k == n_train (a dataset holds at least two rows)
    n_train = max(2, k + draw(st.integers(0, 8)))
    n_val = draw(n_val)
    n_feat = draw(st.integers(1, 4))
    values = draw(st.sampled_from([INTEGER_VALUES, HUGE_VALUES]))

    def rows(n):
        return draw(st.lists(
            st.lists(st.sampled_from(values), min_size=n_feat, max_size=n_feat),
            min_size=n, max_size=n))

    train_x = np.array(rows(n_train))
    if draw(st.booleans()):
        # duplicate training rows: every row copies one of a few originals
        picks = draw(st.lists(st.integers(0, 2), min_size=n_train, max_size=n_train))
        train_x = train_x[np.minimum(picks, n_train - 1)]
    train_y = draw(st.lists(st.integers(0, 2), min_size=n_train, max_size=n_train))
    mask = draw(st.lists(st.integers(0, 1), min_size=n_feat, max_size=n_feat)
                .filter(any))
    split = _make_split(train_x, train_y, np.array(rows(n_val)), [0] * n_val)
    return split, np.array(mask), k


@settings(max_examples=300, deadline=None)
@given(_tie_heavy_instances())
def test_partial_selection_matches_stable_sort(instance):
    check_against_the_oracle(*instance)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_early_stopping_count_is_exact_or_below_target(data):
    # around one chunk of rows, and several; a dataset holds at least two
    # rows, so the smallest validation set is 2
    split, mask, k = data.draw(_tie_heavy_instances(
        n_val=st.sampled_from([2, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1,
                               3 * CHUNK_ROWS + 1])))
    n_val = split.validation.sample_count
    labels = data.draw(st.lists(st.integers(0, 2), min_size=n_val, max_size=n_val))
    split = _make_split(split.train.features, split.train.labels,
                        split.validation.features, labels)
    target = data.draw(st.integers(0, n_val + 1))
    # few distinct counts, so the visit order is full of ties
    before = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n_val,
                                         max_size=n_val)), dtype=np.int64)
    wrong = np.array(argsort_predict(split, mask, k)) != split.validation.labels
    full = n_val - np.count_nonzero(wrong)
    config = KnnConfig(k=k)
    # a full evaluation visits the rows in the counts' order too
    misses = before.copy()
    assert (knn_accuracy(split, mask, config, misses=misses)
            == knn_accuracy(split, mask, config) == full / n_val)
    assert np.array_equal(misses, before + wrong)
    misses = before.copy()
    got = knn_accuracy(split, mask, config, target, misses=misses)
    if got is not None:
        assert got == full / n_val == knn_accuracy(split, mask, config)
        assert np.array_equal(misses, before + wrong)
        return
    assert full < target
    # the rows most missed before come first, ties in file order; it stops
    # after the first chunk whose rows leave the target out of reach
    order = np.argsort(-before, kind="stable")
    ends = [*range(CHUNK_ROWS, n_val, CHUNK_ROWS), n_val]
    visited = next(end for end in ends
                   if np.count_nonzero(wrong[order[:end]]) > n_val - target)
    want = before.copy()
    want[order[:visited]] += wrong[order[:visited]]
    assert np.array_equal(misses, want)


def _repro_split(synth_split):
    return synth_split(n_samples=200, n_features=8, n_informative=2,
                       class_separation=0.5, data_seed=3, split_seed=1)


def _read_only(array):
    array.flags.writeable = False
    return array


@pytest.mark.parametrize("misses", [
    np.zeros(39, dtype=np.int64), np.zeros(41, dtype=np.int64),
    np.zeros((40, 1), dtype=np.int64), np.zeros(40, dtype=bool), np.zeros(40),
    np.zeros(40, dtype=np.uint64), [0] * 40, _read_only(np.zeros(40, dtype=np.int64)),
], ids=["short", "long", "2-D", "bool", "float", "unsigned", "list", "read-only"])
def test_malformed_misses_is_rejected_before_any_row(misses, synth_split,
                                                     monkeypatch):
    split = _repro_split(synth_split)
    assert split.validation.sample_count == 40
    monkeypatch.setattr(xorpso.classify, "cdist", None)  # no row may be classified
    before = np.copy(misses)
    with pytest.raises(ValueError, match="misses"):
        knn_accuracy(split, np.ones(8, dtype=np.int8), KnnConfig(k=5), 1, misses=misses)
    assert np.array_equal(misses, before)


@pytest.mark.parametrize("target, message", [
    (-1, "target must be >= 0, got -1"), (2.5, "target must be an integer"),
    (True, "target must be an integer"), (np.float64(3.0), "target must be an integer"),
    (None, "target must be an integer"),
], ids=["negative", "float", "bool", "numpy-float", "None"])
def test_malformed_target_is_rejected_before_any_row(target, message, synth_split,
                                                     monkeypatch):
    split = _repro_split(synth_split)
    mask, config = np.ones(8, dtype=np.int8), KnnConfig(k=5)
    # a numpy integer is a target, and one above the row count is unreachable
    assert knn_accuracy(split, mask, config, np.int64(1)) == 0.55
    assert knn_accuracy(split, mask, config, 41) is None
    monkeypatch.setattr(xorpso.classify, "cdist", None)  # no row may be classified
    misses = np.zeros(40, dtype=np.int64)
    with pytest.raises(ValueError, match=message):
        knn_accuracy(split, mask, config, target, misses=misses)
    assert not misses.any()


def test_a_visit_order_is_no_positional_argument(synth_split):
    # a permutation passed where a row order used to go is refused, not
    # read as counts; the old order 0..34 of 40 rows gave 0.575, not 0.55
    split, mask, config = _repro_split(synth_split), np.ones(8, dtype=np.int8), KnnConfig(5)
    assert knn_accuracy(split, mask, config) == 0.55
    with pytest.raises(TypeError):
        knn_accuracy(split, mask, config, 1, np.arange(35))
    with pytest.raises(TypeError):
        evaluate_particle(mask, split, PsoConfig(), 0.5, np.arange(40))


def test_threads_sharing_misses_end_with_exact_counts(synth_split):
    split = synth_split(n_samples=400, n_features=16, n_informative=4,
                        data_seed=5, split_seed=1, class_separation=0.8)
    n_val = split.validation.sample_count
    assert n_val > CHUNK_ROWS
    masks = [(np.random.default_rng(t).random(16) < 0.5).astype(np.int8)
             for t in range(4)]
    for t, mask in enumerate(masks):
        mask[t] = 1
    config = KnnConfig(k=5)
    wrong = [predict(split, mask, config) != split.validation.labels
             for mask in masks]
    # targets 0 and 1 both classify every row here, in chunks, in the order
    # the shared counts give at the call
    assert all(np.count_nonzero(w) < n_val for w in wrong)
    rounds = 25
    misses = np.zeros(n_val, dtype=np.int64)
    start = threading.Barrier(4)

    def work(t):
        start.wait(timeout=30)
        for r in range(rounds):
            knn_accuracy(split, masks[t], config, r % 2, misses=misses)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert np.array_equal(misses, rounds * np.sum(wrong, axis=0))


@settings(max_examples=100, deadline=None)
@given(st.lists(_tie_heavy_instances(), min_size=2, max_size=6))
def test_calls_in_sequence_each_match_the_oracle(calls):
    # shapes repeat and change from call to call, so a call that read memory
    # an earlier call of the same or another shape left filled would show
    for split, mask, k in calls:
        got = predict(split, mask, KnnConfig(k=k))
        assert list(got) == argsort_predict(split, mask, k)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_tie_fill_on_some_rows_only_matches_stable_sort(data):
    # training values 4j, j < n, and a block of equal values far beyond
    # them, all shuffled.  A validation value 4c + 1 or 4c + 3 is at a
    # distinct distance from every training value; 4c + 2 ties each value
    # 4c - 4i with 4c + 4 + 4i, so its k-th place (k odd) ties with the
    # (k + 1)-th; the block's own value ties the whole block at the k-th place
    k = data.draw(st.sampled_from([1, 3, 5]))
    n = data.draw(st.integers(2 * k + 3, 24))
    # more than 16 tied candidates: numpy sorts up to 16 elements by
    # insertion, which keeps equal keys in order, so only a longer tie shows
    # an unstable sort
    block = data.draw(st.integers(17, 24))
    far = 4.0 * n + 1000
    values = np.concatenate([4.0 * np.arange(n), np.full(block, far)])
    train = values[data.draw(st.permutations(range(n + block)))]
    odd = st.builds(lambda c, r: 4.0 * c + r, st.integers(0, n - 1), st.sampled_from([1, 3]))
    pair = st.builds(lambda c: 4.0 * c + 2, st.integers(k, n - k - 2))
    # one row with no tie and one on the block, so the tied rows are a
    # strict, non-empty subset, in more than one chunk
    valid = [data.draw(odd), far] + data.draw(st.lists(
        odd | pair | st.just(far), min_size=CHUNK_ROWS, max_size=3 * CHUNK_ROWS))
    valid = np.array(data.draw(st.permutations(valid)))
    n_train, n_val = train.size, valid.size
    # a constant second column adds nothing to any distance
    train_x = np.column_stack([train, np.full(n_train, 7.0)])
    val_x = np.column_stack([valid, np.full(n_val, 7.0)])
    train_y = data.draw(st.lists(st.integers(0, 2), min_size=n_train, max_size=n_train))
    split = _make_split(train_x, train_y, val_x, [0] * n_val)
    check_against_the_oracle(split, np.array([1, 1]), k)


# --- the GEMM filter and the exact re-check against scipy's cdist ----------

# scale factors: plain values, squares that are subnormal, values that are
# themselves subnormal, and values whose squares (or their sums) overflow
SCALES = [1.0, 2.0**-530, 2.0**-1060, 1e154, 1e300, 4e307]


@st.composite
def _near_tie_instances(draw):
    """Rows at or near exact distance ties: duplicates, rows 1 ulp apart,
    a large common offset, subnormal and overflowing values."""
    k = draw(st.sampled_from([1, 3, 5]))
    # no extra rows gives k == n_train (a dataset holds at least two rows)
    n_train = max(2, k + draw(st.integers(0, 8)))
    n_val = draw(st.integers(2, 5))
    m = draw(st.sampled_from([1, 2, 3, 8]))
    values = st.sampled_from([0.0, 1.0, -1.0, 3.0]) | st.floats(-4, 4)

    def rows(n):
        return np.array(draw(st.lists(st.lists(values, min_size=m, max_size=m),
                                      min_size=n, max_size=n)))

    scale = draw(st.sampled_from(SCALES))
    offset = draw(st.sampled_from([0.0, 1e8])) if scale < 1e8 else 0.0
    train, valid = rows(n_train) * scale + offset, rows(n_val) * scale + offset
    for i in range(1, n_train):
        kind = draw(st.sampled_from(["own", "duplicate", "ulp"]))
        if kind != "own":
            train[i] = train[draw(st.integers(0, i - 1))]
        if kind == "ulp":
            j = draw(st.integers(0, m - 1))
            train[i, j] = np.nextafter(train[i, j], draw(st.sampled_from([-1e308, 1e308])))
    for i in range(n_val):
        if draw(st.booleans()):
            valid[i] = train[draw(st.integers(0, n_train - 1))]
    train_y = draw(st.lists(st.integers(0, 2), min_size=n_train, max_size=n_train))
    return _make_split(train, train_y, valid, [0] * n_val), k


@settings(max_examples=400, deadline=None)
@given(_near_tie_instances())
def test_gemm_filter_neighbours_match_the_oracle(instance):
    split, k = instance
    valid, train = split.validation.features, split.train.features
    exact = cdist(valid, train, metric="sqeuclidean")
    # the bound covers every entry of a row whose bound is finite
    approx = np.empty(exact.shape)
    bound = xorpso.classify.cdist(valid, train, approx)
    finite = np.isfinite(bound)
    assert np.all(np.abs(approx[finite] - exact[finite]) <= bound[finite, None])
    check_against_the_oracle(split, np.ones(split.feature_count, dtype=np.int8), k)


def test_rows_whose_sums_could_overflow_take_every_column():
    # |v|² + max|t|² is finite but above a quarter of the float64 maximum, and
    # 2|v·t| + |v|² overflows for the first pair
    split = _make_split(train_x=[[-9.4e153], [0.0], [1.0]], train_y=[0, 1, 1],
                        val_x=[[9.4e153], [1.0]], val_y=[0, 1])
    valid, train = split.validation.features, split.train.features
    approx = np.empty((2, 3))
    bound = xorpso.classify.cdist(valid, train, approx)
    assert np.isinf(bound).all()
    assert approx[0, 0] == np.inf
    exact = cdist(valid, train, metric="sqeuclidean")
    work = (np.empty((2, 3)), np.empty((2, 3)), np.empty((2, 3), bool))
    assert np.array_equal(_nearest_exact(valid, train, 1, *work), argsort_rows(exact, 1))


@pytest.mark.parametrize("n_val,n_train,m", [(80, 320, 18), (24, 96, 740),
                                             (160, 640, 16)])
def test_recheck_sum_equals_scipy_bit_for_bit(n_val, n_train, m):
    rng = np.random.default_rng(m)
    valid = rng.standard_normal((n_val, m))
    train = rng.standard_normal((n_train, m))
    rows = rng.integers(0, n_val, size=3000)
    cols = rng.integers(0, n_train, size=3000)
    want = cdist(valid, train, metric="sqeuclidean")[rows, cols]
    got = ordered_sqeuclidean(valid[rows], train[cols])
    assert got.tobytes() == want.tobytes()
    # one validation row, broadcast against every training row
    want = cdist(valid[:1], train, metric="sqeuclidean")[0]
    assert ordered_sqeuclidean(valid[0], train).tobytes() == want.tobytes()


def _loaded_by_fresh_import(package):
    """Names of ``package`` and its submodules that a fresh ``import xorpso`` loads."""
    src = Path(xorpso.classify.__file__).resolve().parents[1]
    code = ("import sys, xorpso; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_fresh_import_loads_no_scipy():
    assert _loaded_by_fresh_import("scipy") == "[]"


def test_fresh_import_loads_no_secrets():
    # secrets pulls in hmac and OpenSSL's _hashlib; write_atomic names its
    # temporary file from os.urandom instead
    assert _loaded_by_fresh_import("secrets") == "[]"


def test_a_whole_pipeline_never_imports_numpy_ma():
    # numpy's plain np.unique loads all of numpy.ma on its first call
    src = Path(xorpso.classify.__file__).resolve().parents[1]
    code = """
import sys
import numpy as np
from xorpso import (PsoConfig, SynthSpec, generate_synthetic, run_xor_pso,
                    score_features, seed_masks, standardize_split, stratified_split)
data = generate_synthetic(SynthSpec(n_samples=60, n_features=8, n_informative=2))
split = standardize_split(stratified_split(data, 0.2, 0))
masks = seed_masks(score_features(split.train), 4, rng=np.random.default_rng(0))
run_xor_pso(split, PsoConfig(population=4, iterations=2), masks,
            rng=np.random.default_rng(1))
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"]))
"""
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# GEMM bits differ between OpenBLAS kernels and thread counts;
# OPENBLAS_CORETYPE takes effect only in a DYNAMIC_ARCH build, as numpy's
# wheels are
_SWAPPED_KERNEL = {"OPENBLAS_CORETYPE": "Prescott", "OPENBLAS_NUM_THREADS": "1"}
_GEMM_DIGEST = """
import hashlib
import numpy as np
rng = np.random.default_rng(0)
product = rng.standard_normal((160, 300)) @ rng.standard_normal((300, 640))
print(hashlib.sha256(product.tobytes()).hexdigest())
"""


def _gemm_digest(env):
    proc = subprocess.run([sys.executable, "-c", _GEMM_DIGEST], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_golden_digests_hold_under_another_blas_kernel_and_one_thread():
    # cdist's bound holds for any summation order, so no digest may depend
    # on how the GEMM sums; tests/test_golden.py is run, not this file, so
    # the subprocess never starts another
    env = {**os.environ, **_SWAPPED_KERNEL}
    if _gemm_digest(os.environ) == _gemm_digest(env):
        swap = " ".join(f"{name}={value}" for name, value in _SWAPPED_KERNEL.items())
        pytest.skip(f"{swap} gives this environment's GEMM bytes, so the "
                    "golden run would show nothing: OpenBLAS is not a "
                    "DYNAMIC_ARCH build, or that kernel already runs here")
    tests = Path(__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(tests / "test_golden.py")],
        cwd=tests.parent, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]


def test_public_names_resolve_and_removed_ones_are_gone():
    assert all(hasattr(xorpso, name) for name in xorpso.__all__)
    assert len(set(xorpso.__all__)) == len(xorpso.__all__)
    for name in ("knn_predict", "EmptyMaskError", "_predict_chunks", "nearest_rows",
                 "_chosen_columns"):
        assert name not in xorpso.__all__
        assert not hasattr(xorpso, name)
        assert not hasattr(xorpso.classify, name)


def test_threads_evaluating_at_once_match_sequential_results(synth_split):
    # a split with tall_sync_compare's 160x640 distance matrix
    split = synth_split(n_samples=800, n_features=32, n_informative=6,
                        data_seed=11, split_seed=3, class_separation=1.0)
    assert (split.validation.sample_count, split.train.sample_count) == (160, 640)
    rng = np.random.default_rng(0)
    masks = [(rng.random(32) < 0.5).astype(np.int8) for _ in range(2)]
    config = KnnConfig(k=5)
    want = [predict(split, mask, config) for mask in masks]
    rounds = 20
    got = [[], []]
    start = threading.Barrier(2)

    def work(t):
        start.wait(timeout=30)
        for _ in range(rounds):
            got[t].append(predict(split, masks[t], config))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for t in range(2):
        assert len(got[t]) == rounds
        assert all(np.array_equal(preds, want[t]) for preds in got[t])


def test_warm_evaluation_allocates_less_than_one_distance_matrix(synth_split):
    split = synth_split(n_samples=800, n_features=32, n_informative=6,
                        data_seed=11, split_seed=3, class_separation=1.0)
    mask = np.zeros(32, dtype=np.int8)
    mask[::2] = 1
    config = KnnConfig(k=5)
    knn_accuracy(split, mask, config)
    tracemalloc.start()
    try:
        knn_accuracy(split, mask, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 160 * 640 * 8


def _tall_case(synth_split):
    """The 800 x 32 split (160 validation x 640 training rows), a mask and
    a misses array."""
    split = synth_split(n_samples=800, n_features=32, n_informative=6,
                        data_seed=11, split_seed=3, class_separation=1.0)
    mask = np.zeros(32, dtype=np.int8)
    mask[::2] = 1
    return split, mask, np.random.default_rng(0).integers(0, 4, 160)


def test_an_evaluation_holds_no_memory_after_it_returns(synth_split):
    split, mask, misses = _tall_case(synth_split)
    config = KnnConfig(k=5)
    # warm on another split, so a work matrix kept from call to call would
    # be remade in the traced calls and still be held after them
    knn_accuracy(_repro_split(synth_split), np.ones(8, dtype=np.int8), config)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert knn_accuracy(split, mask, config) is not None
        assert knn_accuracy(split, mask, config, 160, misses=misses) is None
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before < 64 * 2**10


def test_an_evaluation_peaks_below_two_chunk_sets_of_work_matrices(synth_split):
    split, mask, misses = _tall_case(synth_split)
    config = KnnConfig(k=5)
    peaks = []
    tracemalloc.start()
    try:
        # a full evaluation, one that stops late and one that stops after
        # one chunk; each makes one chunk's set (CHUNK_ROWS x 640 at 17 B
        # per entry) beside its column gathers, far below a 160-row set
        for target, counts in ((0, None), (1, misses), (160, misses)):
            tracemalloc.reset_peak()
            knn_accuracy(split, mask, config, target, misses=counts)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert max(peaks) < 2 * CHUNK_ROWS * 640 * 17


def test_a_fully_tied_evaluation_rechecks_one_row_at_a_time(synth_split):
    split, mask, _ = _tall_case(synth_split)
    # the 16 selected columns are constant, so every distance ties and every
    # row re-checks all 640 training rows
    train_x, val_x = np.array(split.train.features), np.array(split.validation.features)
    train_x[:, mask == 1], val_x[:, mask == 1] = 1.0, 1.0
    split = _make_split(train_x, split.train.labels, val_x, split.validation.labels)
    config = KnnConfig(k=5)
    want = np.mean(argsort_predict(split, mask, 5) == split.validation.labels)
    assert knn_accuracy(split, mask, config) == want
    tracemalloc.start()
    try:
        knn_accuracy(split, mask, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one chunk's work matrices beside the column gathers, and a few copies
    # of one row's 640 x 16 candidate block; a chunk-wide re-check (CHUNK_ROWS
    # x 640 pairs of 16-column rows) took 8.8 MB
    assert peak < 2 * CHUNK_ROWS * 640 * 17 + 4 * 640 * 16 * 8


def test_full_evaluation_memory_does_not_grow_with_the_square_of_the_rows(synth_split):
    # 2000 x 8000 work matrices would take 272 MB; chunks of CHUNK_ROWS rows
    # take 4.4 MB
    split = synth_split(n_samples=10_000, n_features=2, n_informative=1)
    assert (split.validation.sample_count, split.train.sample_count) == (2000, 8000)
    mask, config = np.ones(2, dtype=np.int8), KnnConfig(k=5)
    # warm, but on another split, so the traced call makes its work matrices
    knn_accuracy(_repro_split(synth_split), np.ones(8, dtype=np.int8), config)
    tracemalloc.start()
    try:
        knn_accuracy(split, mask, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.fixture
def cdist_layouts(monkeypatch):
    """Record whether both operands of every k-NN distance step are
    C-contiguous, and how many validation rows it gets."""
    seen = []
    distance_step = xorpso.classify.cdist

    def recording(valid, train, out):
        seen.append((valid.flags.c_contiguous, train.flags.c_contiguous, len(valid)))
        return distance_step(valid, train, out)

    monkeypatch.setattr(xorpso.classify, "cdist", recording)
    return seen


def _every_operand_c_contiguous(seen):
    return bool(seen) and all(a and b for a, b, _ in seen)


def test_cdist_gets_c_contiguous_columns_in_file_order(synth_split, cdist_layouts):
    split = synth_split(n_samples=400, n_features=40, n_informative=4)
    assert split.validation.sample_count == 2 * CHUNK_ROWS + 16
    mask = np.zeros(40, dtype=np.int8)
    mask[::3] = 1
    knn_accuracy(split, mask, KnnConfig(k=5))
    assert _every_operand_c_contiguous(cdist_layouts)
    # a full evaluation works in chunks too, so no work matrix is taller
    assert [rows for *_, rows in cdist_layouts] == [CHUNK_ROWS, CHUNK_ROWS, 16]


def test_cdist_gets_c_contiguous_columns_in_ordered_chunks(synth_split, cdist_layouts):
    split = synth_split(n_samples=400, n_features=40, n_informative=4)
    n_val = split.validation.sample_count
    assert n_val > CHUNK_ROWS
    mask = np.zeros(40, dtype=np.int8)
    mask[1::2] = 1
    misses = np.random.default_rng(0).integers(0, 4, n_val)
    knn_accuracy(split, mask, KnnConfig(k=5), 1, misses=misses)
    assert len(cdist_layouts) > 1
    assert _every_operand_c_contiguous(cdist_layouts)


def test_cdist_gets_c_contiguous_columns_of_fortran_ordered_data(cdist_layouts):
    rng = np.random.default_rng(1)
    train, valid = (
        FeatureDataset(features=np.asfortranarray(rng.random((rows, 12))),
                       labels=np.arange(rows) % 2)
        for rows in (30, 10)
    )
    assert train.features.flags.f_contiguous
    split = SplitDataset(train=train, validation=valid)
    mask = np.zeros(12, dtype=np.int8)
    mask[[0, 4, 5, 9]] = 1
    knn_accuracy(split, mask, KnnConfig(k=3))
    assert _every_operand_c_contiguous(cdist_layouts)


def test_cdist_gets_c_contiguous_columns_in_a_whole_run(synth_split, cdist_layouts):
    split = synth_split(n_samples=120, n_features=20, n_informative=4)
    config = PsoConfig(population=6, iterations=2, update_mode=SYNCHRONOUS)
    masks = list((np.random.default_rng(2).random((6, 20)) < 0.5).astype(np.int8))
    for mask in masks:
        mask[0] = 1
    run_xor_pso(split, config, masks, rng=np.random.default_rng(3))
    assert len(cdist_layouts) >= 6
    assert _every_operand_c_contiguous(cdist_layouts)
