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

import xorpso.classify
from xorpso import (
    SYNCHRONOUS,
    EmptyMaskError,
    FeatureDataset,
    KnnConfig,
    PsoConfig,
    SplitDataset,
    evaluate_particle,
    knn_accuracy,
    knn_predict,
    run_xor_pso,
)
from xorpso.classify import (
    CHUNK_ROWS,
    _nearest_exact,
    nearest_rows,
    ordered_sqeuclidean,
)


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


# --- hand-computed cases --------------------------------------------------

def test_informative_feature_alone_is_perfect(tiny_split):
    config = KnnConfig(k=1)
    assert knn_accuracy(tiny_split, np.array([1, 0]), config) == 1.0


def test_constant_feature_alone_predicts_first_row_label(tiny_split):
    # all distances are equal, so the lowest train row, row 0 (label 1), wins
    config = KnnConfig(k=1)
    preds = knn_predict(tiny_split, np.array([0, 1]), config)
    assert list(preds) == [1, 1]
    assert knn_accuracy(tiny_split, np.array([0, 1]), config) == 0.5


def test_constant_feature_does_not_perturb_informative_one(tiny_split):
    config = KnnConfig(k=1)
    assert knn_accuracy(tiny_split, np.array([1, 1]), config) == 1.0


def test_distance_tie_goes_to_lower_train_row():
    split = _make_split(
        train_x=[[1.0], [3.0]], train_y=[1, 0], val_x=[[2.0], [2.0]], val_y=[1, 1]
    )
    preds = knn_predict(split, np.array([1]), KnnConfig(k=1))
    assert list(preds) == [1, 1]


def test_vote_tie_goes_to_lower_class_label():
    split = _make_split(
        train_x=[[0.0], [2.0], [4.0]],
        train_y=[2, 1, 0],
        val_x=[[1.9], [1.9]],
        val_y=[0, 0],
    )
    # k=3 collects one vote per class; the tie resolves to class 0
    preds = knn_predict(split, np.array([1]), KnnConfig(k=3))
    assert list(preds) == [0, 0]


def test_predictions_ignore_masked_out_columns(tiny_split):
    config = KnnConfig(k=1)
    with_noise = knn_predict(tiny_split, np.array([1, 0]), config)
    # feature 1 masked out: identical to evaluating on feature 0 alone
    only_f0 = _make_split(
        train_x=tiny_split.train.features[:, :1],
        train_y=tiny_split.train.labels,
        val_x=tiny_split.validation.features[:, :1],
        val_y=tiny_split.validation.labels,
    )
    alone = knn_predict(only_f0, np.array([1]), config)
    assert np.array_equal(with_noise, alone)


# --- input validation -----------------------------------------------------

def test_knn_config_validation():
    with pytest.raises(ValueError, match="odd"):
        KnnConfig(k=2)
    with pytest.raises(ValueError, match=">= 1"):
        KnnConfig(k=0)


def test_empty_mask_raises(tiny_split):
    with pytest.raises(EmptyMaskError):
        knn_predict(tiny_split, np.array([0, 0]), KnnConfig(k=1))


def test_k_larger_than_train_rejected(tiny_split):
    with pytest.raises(ValueError, match="exceeds training sample count"):
        knn_predict(tiny_split, np.array([1, 0]), KnnConfig(k=5))


def test_wrong_mask_length_rejected(tiny_split):
    with pytest.raises(ValueError):
        knn_predict(tiny_split, np.array([1, 0, 1]), KnnConfig(k=1))


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
        got = knn_predict(split, mask, KnnConfig(k=k))
        want = naive_knn(train_x, train_y, val_x, k, mask)
        assert list(got) == want, f"trial {trial} diverged"


def test_accuracy_is_mean_agreement(tiny_split):
    config = KnnConfig(k=1)
    preds = knn_predict(tiny_split, np.array([0, 1]), config)
    expected = np.mean(preds == tiny_split.validation.labels)
    assert knn_accuracy(tiny_split, np.array([0, 1]), config) == expected


# --- partial selection against the stable-sort reference ------------------

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
    split, mask, k = instance
    cols = np.flatnonzero(mask)
    dist = cdist(split.validation.features[:, cols], split.train.features[:, cols],
                 metric="sqeuclidean")
    chosen = nearest_rows(dist, k)
    assert chosen.shape == (dist.shape[0], k)
    assert np.array_equal(chosen, np.sort(argsort_rows(dist, k), axis=1))
    got = knn_predict(split, mask, KnnConfig(k=k))
    assert list(got) == argsort_predict(split, mask, k)


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


@pytest.mark.parametrize("misses", [
    np.zeros(39, dtype=np.int64), np.zeros(41, dtype=np.int64),
    np.zeros((40, 1), dtype=np.int64), np.zeros(40, dtype=bool), np.zeros(40),
    np.zeros(40, dtype=np.uint64), [0] * 40,
], ids=["short", "long", "2-D", "bool", "float", "unsigned", "list"])
def test_malformed_misses_is_rejected_before_any_row(misses, synth_split,
                                                     monkeypatch):
    split = _repro_split(synth_split)
    assert split.validation.sample_count == 40
    monkeypatch.setattr(xorpso.classify, "cdist", None)  # no row may be classified
    before = np.copy(misses)
    with pytest.raises(ValueError, match="misses"):
        knn_accuracy(split, np.ones(8, dtype=np.int8), KnnConfig(k=5), 1, misses=misses)
    assert np.array_equal(misses, before)


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
    wrong = [knn_predict(split, mask, config) != split.validation.labels
             for mask in masks]
    # a target of 1 classifies every row here, in chunks, in the order the
    # shared counts give at the call; a target of 0 takes one chunk
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


@st.composite
def _dist_matrices(draw):
    """A distance matrix with many exact ties, and a k it has room for."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    k = draw(st.integers(1, cols))
    values = draw(st.sampled_from([INTEGER_VALUES, [0.0, 1.0], [0.0, 1e300, np.inf]]))
    dist = draw(st.lists(st.lists(st.sampled_from(values), min_size=cols,
                                  max_size=cols), min_size=rows, max_size=rows))
    return np.array(dist), k


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(_dist_matrices(), _tie_heavy_instances()),
                min_size=2, max_size=6))
def test_calls_in_sequence_each_match_the_oracle(calls):
    # shapes repeat and change from call to call, so a call may find work
    # memory that an earlier call of the same or another shape left filled
    for call in calls:
        if isinstance(call[0], SplitDataset):
            split, mask, k = call
            got = knn_predict(split, mask, KnnConfig(k=k))
            assert list(got) == argsort_predict(split, mask, k)
        else:
            dist, k = call
            assert np.array_equal(nearest_rows(dist, k),
                                  np.sort(argsort_rows(dist, k), axis=1))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_tie_fill_on_some_rows_only_matches_stable_sort(data):
    # distinct distances in every row, then a tie across the k-th place
    # planted in a strict, non-empty subset of the rows
    n_rows = data.draw(st.integers(2, 8))
    n_cols = data.draw(st.integers(2, 12))
    k = data.draw(st.integers(1, n_cols - 1))
    dist = np.array([data.draw(st.permutations(range(n_cols))) for _ in range(n_rows)],
                    dtype=np.float64)
    tie_rows = data.draw(st.sets(st.integers(0, n_rows - 1), min_size=1,
                                 max_size=n_rows - 1))
    for r in tie_rows:
        # the rank k-1 column and one beyond it, chosen at random, tie
        order = np.argsort(dist[r])
        beyond = data.draw(st.integers(k, n_cols - 1))
        dist[r, order[beyond]] = dist[r, order[k - 1]]
    assert np.array_equal(nearest_rows(dist, k), np.sort(argsort_rows(dist, k), axis=1))


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
    work = (np.empty(exact.shape), np.empty(exact.shape), np.empty(exact.shape, bool))
    got = _nearest_exact(valid, train, k, *work)
    assert np.array_equal(got, np.sort(argsort_rows(exact, k), axis=1))
    mask = np.ones(split.feature_count, dtype=np.int8)
    assert list(knn_predict(split, mask, KnnConfig(k=k))) == argsort_predict(split, mask, k)


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


def test_fresh_import_loads_no_scipy():
    src = Path(xorpso.classify.__file__).resolve().parents[1]
    code = ("import sys, xorpso; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_threads_evaluating_at_once_match_sequential_results(synth_split):
    # a split with tall_sync_compare's 160x640 distance matrix
    split = synth_split(n_samples=800, n_features=32, n_informative=6,
                        data_seed=11, split_seed=3, class_separation=1.0)
    assert (split.validation.sample_count, split.train.sample_count) == (160, 640)
    rng = np.random.default_rng(0)
    masks = [(rng.random(32) < 0.5).astype(np.int8) for _ in range(2)]
    config = KnnConfig(k=5)
    want = [knn_predict(split, mask, config) for mask in masks]
    rounds = 20
    got = [[], []]
    start = threading.Barrier(2)

    def work(t):
        start.wait(timeout=30)
        for _ in range(rounds):
            got[t].append(knn_predict(split, masks[t], config))

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


def test_stopping_evaluation_chunks_reuse_the_full_size_buffers(synth_split):
    split = synth_split(n_samples=800, n_features=32, n_informative=6,
                        data_seed=11, split_seed=3, class_separation=1.0)
    mask = np.zeros(32, dtype=np.int8)
    mask[::2] = 1
    config = KnnConfig(k=5)
    misses = np.random.default_rng(0).integers(0, 4, 160)
    assert knn_accuracy(split, mask, config, 160, misses=misses) is None
    tracemalloc.start()
    try:
        # one chunk after another, then stops; no buffer of chunk shape is made
        assert knn_accuracy(split, mask, config, 1, misses=misses) is not None
        assert knn_accuracy(split, mask, config, 160, misses=misses) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 160 * 640 * 8


@pytest.fixture
def cdist_layouts(monkeypatch):
    """Record whether both operands of every k-NN distance step are C-contiguous."""
    seen = []
    distance_step = xorpso.classify.cdist

    def recording(valid, train, out):
        seen.append((valid.flags.c_contiguous, train.flags.c_contiguous))
        return distance_step(valid, train, out)

    monkeypatch.setattr(xorpso.classify, "cdist", recording)
    return seen


def _every_operand_c_contiguous(seen):
    return bool(seen) and all(a and b for a, b in seen)


def test_cdist_gets_c_contiguous_columns_in_file_order(synth_split, cdist_layouts):
    split = synth_split(n_samples=120, n_features=40, n_informative=4)
    mask = np.zeros(40, dtype=np.int8)
    mask[::3] = 1
    knn_accuracy(split, mask, KnnConfig(k=5))
    assert _every_operand_c_contiguous(cdist_layouts)


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


def test_cdist_gets_c_contiguous_columns_in_a_threaded_run(synth_split, cdist_layouts):
    split = synth_split(n_samples=120, n_features=20, n_informative=4)
    config = PsoConfig(population=6, iterations=2, update_mode=SYNCHRONOUS)
    masks = list((np.random.default_rng(2).random((6, 20)) < 0.5).astype(np.int8))
    for mask in masks:
        mask[0] = 1
    run_xor_pso(split, config, masks, rng=np.random.default_rng(3), workers=2)
    assert len(cdist_layouts) >= 6
    assert _every_operand_c_contiguous(cdist_layouts)
