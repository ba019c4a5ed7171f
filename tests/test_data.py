"""Dataset construction, synthetic generation, CSV round trips, and splitting."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import xorpso.data
from xorpso import (
    DatasetError,
    FeatureDataset,
    SplitDataset,
    SynthSpec,
    generate_synthetic,
    load_dataset,
    provenance_path,
    save_dataset,
    standardize_split,
    stratified_split,
)
from xorpso.data import write_atomic


# --- FeatureDataset validation -------------------------------------------

def test_dataset_basic_properties():
    ds = FeatureDataset(
        features=[[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]], labels=[0, 1, 0]
    )
    assert ds.sample_count == 3
    assert ds.feature_count == 2
    assert ds.features.dtype == np.float64
    assert ds.labels.dtype == np.int64
    assert list(ds.classes) == [0, 1]


def test_dataset_arrays_are_frozen():
    ds = FeatureDataset(features=[[0.0], [1.0]], labels=[0, 1])
    with pytest.raises(ValueError):
        ds.features[0, 0] = 99.0
    with pytest.raises(ValueError):
        ds.labels[0] = 99


def test_dataset_classes_are_ascending_unique_and_read_only():
    ds = FeatureDataset(features=np.zeros((5, 1)), labels=[7, 0, 7, 3, 0])
    assert list(ds.classes) == [0, 3, 7]
    assert ds.classes is ds.classes
    with pytest.raises(ValueError):
        ds.classes[0] = 99


def test_dataset_rejects_label_length_mismatch():
    with pytest.raises(DatasetError, match="does not match"):
        FeatureDataset(features=[[0.0], [1.0]], labels=[0, 1, 0])


def test_dataset_rejects_non_finite_and_names_cell():
    with pytest.raises(DatasetError, match="row 1, column 0"):
        FeatureDataset(features=[[0.0, 1.0], [np.nan, 2.0]], labels=[0, 1])


def test_dataset_rejects_fractional_labels():
    with pytest.raises(DatasetError, match="integer"):
        FeatureDataset(features=[[0.0], [1.0]], labels=[0.5, 1.0])


def test_dataset_rejects_negative_labels():
    with pytest.raises(DatasetError, match="non-negative"):
        FeatureDataset(features=[[0.0], [1.0]], labels=[-1, 1])


@pytest.mark.parametrize("label", [1e30, -1e19, 2.0**63, np.inf])
def test_dataset_rejects_float_labels_outside_int64(label):
    with pytest.raises(DatasetError, match="int64 range"):
        FeatureDataset(features=[[0.0], [1.0]], labels=[0.0, label])


def test_dataset_rejects_features_that_are_not_a_2d_matrix_with_columns():
    with pytest.raises(DatasetError, match="must be 2-D, got ndim=3"):
        FeatureDataset(features=np.zeros((3, 2, 1)), labels=[0, 1, 0])
    with pytest.raises(DatasetError, match="at least one feature column"):
        FeatureDataset(features=np.zeros((3, 0)), labels=[0, 1, 0])


def test_split_rejects_parts_of_different_widths():
    def part(width):
        return FeatureDataset(features=np.zeros((2, width)), labels=[0, 1])

    with pytest.raises(DatasetError, match="disagree on feature count"):
        SplitDataset(train=part(2), validation=part(3))


def test_dataset_rejects_single_sample():
    with pytest.raises(DatasetError, match="two samples"):
        FeatureDataset(features=[[0.0, 1.0]], labels=[0])


# --- SynthSpec and generation --------------------------------------------

def test_synth_spec_validation():
    with pytest.raises(DatasetError):
        SynthSpec(n_samples=2, n_features=4, n_informative=1)
    with pytest.raises(DatasetError, match="n_features must be >= 1, got 0"):
        SynthSpec(n_samples=10, n_features=0, n_informative=1)
    with pytest.raises(DatasetError):
        SynthSpec(n_samples=10, n_features=4, n_informative=5)
    with pytest.raises(DatasetError):
        SynthSpec(n_samples=10, n_features=4, n_informative=0)
    with pytest.raises(DatasetError):
        SynthSpec(n_samples=10, n_features=4, n_informative=1, class_separation=0.0)
    with pytest.raises(DatasetError):
        SynthSpec(n_samples=10, n_features=4, n_informative=1, noise_std=-1.0)


@pytest.mark.parametrize("field", ["n_samples", "n_features", "n_informative", "seed"])
@pytest.mark.parametrize("value", [2.5, 2.0, True])
def test_synth_spec_rejects_a_non_integer_count_and_names_field(field, value):
    spec = {"n_samples": 10, "n_features": 4, "n_informative": 1, "seed": 0}
    with pytest.raises(DatasetError, match=f"{field} must be an integer"):
        SynthSpec(**{**spec, field: value})
    assert SynthSpec(**{**spec, field: np.int64(spec[field] or 2)})


@pytest.mark.parametrize("field", ["class_separation", "noise_std"])
@pytest.mark.parametrize("value", [True, False, "2", None])
def test_synth_spec_rejects_a_non_real_setting_and_names_field(field, value):
    with pytest.raises(DatasetError, match=f"{field} must be a real number"):
        SynthSpec(10, 4, 1, **{field: value})
    assert SynthSpec(10, 4, 1, **{field: np.float32(2.0)})
    assert SynthSpec(10, 4, 1, **{field: np.int64(2)})


@pytest.mark.parametrize("field", ["class_separation", "noise_std"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_synth_spec_rejects_non_finite_and_names_field(field, value):
    with pytest.raises(DatasetError, match=f"{field} must be finite"):
        SynthSpec(n_samples=10, n_features=4, n_informative=1, **{field: value})


@pytest.mark.filterwarnings("error")
def test_generate_overflow_is_one_error_naming_the_spec():
    spec = SynthSpec(n_samples=10, n_features=4, n_informative=1, noise_std=1e308)
    with pytest.raises(DatasetError, match="noise_std=1e[+]308, class_separation=2.0"):
        generate_synthetic(spec)


def test_generate_beyond_memory_fails_before_any_per_row_array():
    # the labels and class shifts of 10**7 rows alone take 160 MB; the
    # 80-petabyte matrix must fail to allocate before them
    code = """
import resource
from xorpso import SynthSpec, generate_synthetic
spec = SynthSpec(n_samples=10**7, n_features=10**10, n_informative=1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
try:
    generate_synthetic(spec)
except MemoryError:
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""
    src = Path(xorpso.data.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 32 * 1024  # ru_maxrss is in KiB on Linux


def test_synth_spec_round_trips_through_dict():
    spec = SynthSpec(50, 8, 3, class_separation=1.5, noise_std=0.5, seed=9)
    assert SynthSpec.from_dict(spec.to_dict()) == spec


def test_generate_shapes_labels_and_provenance():
    spec = SynthSpec(n_samples=21, n_features=7, n_informative=3, seed=4)
    ds = generate_synthetic(spec)
    assert ds.features.shape == (21, 7)
    # first half of the rows (rounded up) is class 0, the rest class 1
    assert list(ds.labels) == [0] * 11 + [1] * 10
    prov = ds.provenance
    assert prov.spec == spec
    assert len(prov.informative_indices) == 3
    assert len(set(prov.informative_indices)) == 3
    assert all(0 <= j < 7 for j in prov.informative_indices)
    assert list(prov.informative_indices) == sorted(prov.informative_indices)


def test_generate_is_deterministic_per_seed():
    spec = SynthSpec(30, 5, 2, seed=11)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    assert np.array_equal(a.features, b.features)
    assert a.provenance == b.provenance
    c = generate_synthetic(SynthSpec(30, 5, 2, seed=12))
    assert not np.array_equal(a.features, c.features)


def test_generate_zero_noise_is_exactly_separable():
    spec = SynthSpec(20, 6, 2, class_separation=3.0, noise_std=0.0, seed=1)
    ds = generate_synthetic(spec)
    informative = list(ds.provenance.informative_indices)
    noise_cols = [j for j in range(6) if j not in informative]
    # noise columns collapse to zero, informative ones to the class means
    assert np.all(ds.features[:, noise_cols] == 0.0)
    for j in informative:
        col = ds.features[:, j]
        assert np.all(col[ds.labels == 0] == -1.5)
        assert np.all(col[ds.labels == 1] == 1.5)


def test_generate_class_means_differ_by_separation():
    spec = SynthSpec(4000, 10, 4, class_separation=2.0, noise_std=1.0, seed=3)
    ds = generate_synthetic(spec)
    informative = list(ds.provenance.informative_indices)
    gap = (
        ds.features[ds.labels == 1][:, informative].mean(axis=0)
        - ds.features[ds.labels == 0][:, informative].mean(axis=0)
    )
    assert np.all(np.abs(gap - 2.0) < 0.2)
    noise_cols = [j for j in range(10) if j not in informative]
    gap_noise = (
        ds.features[ds.labels == 1][:, noise_cols].mean(axis=0)
        - ds.features[ds.labels == 0][:, noise_cols].mean(axis=0)
    )
    assert np.all(np.abs(gap_noise) < 0.2)


def test_informative_columns_carry_the_signal():
    # a classifier on the full feature set must beat one restricted to the
    # pure-noise columns, otherwise the planted structure is meaningless
    from xorpso import KnnConfig, knn_accuracy

    ds = generate_synthetic(SynthSpec(400, 64, 8, class_separation=2.0, seed=7))
    split = standardize_split(stratified_split(ds, 0.2, 0))
    informative = list(ds.provenance.informative_indices)
    full_mask = np.ones(64, dtype=np.int8)
    noise_mask = np.ones(64, dtype=np.int8)
    noise_mask[informative] = 0
    config = KnnConfig(k=5)
    full_acc = knn_accuracy(split, full_mask, config)
    noise_acc = knn_accuracy(split, noise_mask, config)
    assert full_acc > noise_acc
    assert noise_acc < 0.75  # noise columns alone are near chance


# --- CSV save/load --------------------------------------------------------

def test_save_load_round_trip_is_exact(tmp_path):
    ds = generate_synthetic(SynthSpec(12, 3, 1, seed=8))
    path = tmp_path / "data.csv"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    assert back.provenance == ds.provenance
    assert provenance_path(path).is_file()


def test_split_parts_save_and_load_without_provenance(tmp_path):
    ds = generate_synthetic(SynthSpec(40, 5, 2, seed=8))
    split = stratified_split(ds, 0.2, 0)
    scaled = standardize_split(split)
    for part in (split.train, split.validation, scaled.train, scaled.validation):
        assert part.provenance is None
        path = tmp_path / "part.csv"
        save_dataset(part, path)
        back = load_dataset(path)
        assert np.array_equal(back.features, part.features)
        assert back.provenance is None


def test_save_without_provenance_removes_an_old_sidecar(tmp_path):
    path = tmp_path / "data.csv"
    save_dataset(generate_synthetic(SynthSpec(12, 3, 1, seed=8)), path)
    plain = FeatureDataset(features=np.ones((4, 2)), labels=[0, 1, 0, 1])
    save_dataset(plain, path)
    back = load_dataset(path)
    assert back.feature_count == 2
    assert back.provenance is None
    assert not provenance_path(path).exists()


def test_failed_write_leaves_the_old_file_and_no_temporary_file(tmp_path):
    path = tmp_path / "out" / "data.csv"
    write_atomic(path, "old\n")
    with pytest.raises(UnicodeEncodeError):
        write_atomic(path, "\ud800")  # a lone surrogate cannot be encoded
    assert path.read_text() == "old\n"
    assert list(path.parent.iterdir()) == [path]


def test_load_respects_label_column_position(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,target,b\n1.0,0,2.0\n3.0,1,4.0\n")
    ds = load_dataset(path, label_column="target")
    # features keep header order with the label column removed
    assert np.array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])
    assert list(ds.labels) == [0, 1]


def test_load_missing_file_names_path(tmp_path):
    missing = tmp_path / "nope.csv"
    with pytest.raises(DatasetError, match="nope.csv"):
        load_dataset(missing)
    # a directory exists, so it is not called missing
    with pytest.raises(DatasetError, match="^dataset path is not a regular file: "):
        load_dataset(tmp_path)


def test_load_missing_label_column(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b\n1,2\n3,4\n")
    with pytest.raises(DatasetError, match="'label'"):
        load_dataset(path)


def test_load_rejects_repeated_label_column(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("f0,label,label\n1,0,0\n2,1,1\n")
    with pytest.raises(DatasetError, match="'label' appears 2 times"):
        load_dataset(path)


def test_load_reports_bad_cell_with_line_and_column(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("f0,label\n1.0,0\noops,1\n")
    with pytest.raises(DatasetError, match=r"line 3, column 'f0'.*'oops'"):
        load_dataset(path)


def test_load_names_the_line_a_record_starts_on_after_a_multi_line_cell(tmp_path):
    path = tmp_path / "data.csv"
    # the quoted label spans lines 2 and 3, so the third record is on line 5
    path.write_text('a,label\n1,"0\n"\n3,1\nbad,0\n')
    with pytest.raises(DatasetError, match=r"line 5, column 'a'.*'bad'"):
        load_dataset(path)
    path.write_text('a,label\n1,"0\n"\n3,1\n4,0,9\n')
    with pytest.raises(DatasetError, match="row at line 5 has 3 cells, expected 2"):
        load_dataset(path)


def test_load_skips_blank_lines(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("f0,label\n1.0,0\n\n2.0,1\n\n")
    ds = load_dataset(path)
    assert ds.features.tolist() == [[1.0], [2.0]]
    assert ds.labels.tolist() == [0, 1]


def test_load_rejects_a_file_with_only_the_label_column(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("label\n0\n1\n")
    with pytest.raises(DatasetError, match="no feature columns besides 'label'"):
        load_dataset(path)


def test_load_rejects_non_finite_feature(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("f0,label\n1.0,0\ninf,1\n")
    with pytest.raises(DatasetError, match="line 3.*not finite"):
        load_dataset(path)


def test_load_rejects_fractional_label(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("f0,label\n1.0,0.5\n2.0,1\n")
    with pytest.raises(DatasetError, match="line 2.*not an integer"):
        load_dataset(path)


@pytest.mark.parametrize(
    "label", ["1000000000000000000000000000000", "-9223372036854775809", "1e30"]
)
def test_load_rejects_label_outside_int64_naming_its_cell(tmp_path, label):
    path = tmp_path / "data.csv"
    path.write_text(f"f0,label\n1.0,0\n2.0,{label}\n")
    with pytest.raises(DatasetError, match=r"line 3, column 'label'.*int64 range"):
        load_dataset(path)


def test_load_reads_integer_labels_exactly(tmp_path):
    path = tmp_path / "data.csv"
    # 2**53 + 1 is the first integer a float64 cannot hold
    path.write_text("f0,label\n1.0,9007199254740993\n2.0,9223372036854775807\n"
                    "3.0,2e3\n")
    assert load_dataset(path).labels.tolist() == [2**53 + 1, 2**63 - 1, 2000]


def test_load_rejects_ragged_row(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("f0,f1,label\n1.0,2.0,0\n1.0,1\n")
    with pytest.raises(DatasetError, match="line 3 has 2 cells, expected 3"):
        load_dataset(path)


def test_load_rejects_empty_and_single_row(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DatasetError, match="empty"):
        load_dataset(empty)
    one = tmp_path / "one.csv"
    one.write_text("f0,label\n1.0,0\n")
    with pytest.raises(DatasetError, match="at least 2 data rows"):
        load_dataset(one)


# --- stratified_split -----------------------------------------------------

def test_split_partitions_without_overlap_or_loss():
    ds = generate_synthetic(SynthSpec(50, 4, 2, seed=2))
    split = stratified_split(ds, 0.2, seed=5)
    n_train = split.train.sample_count
    n_val = split.validation.sample_count
    assert n_train + n_val == ds.sample_count
    # every source row appears exactly once across the two partitions
    all_rows = {tuple(r) for r in ds.features}
    got_rows = [tuple(r) for r in split.train.features] + [
        tuple(r) for r in split.validation.features
    ]
    assert len(got_rows) == ds.sample_count
    assert set(got_rows) == all_rows


def test_split_is_stratified_per_class():
    ds = generate_synthetic(SynthSpec(100, 4, 2, seed=2))
    split = stratified_split(ds, 0.25, seed=3)
    for cls in (0, 1):
        n_val = int(np.sum(split.validation.labels == cls))
        assert n_val == 12  # floor(50 * 0.25)


def test_split_takes_at_least_one_per_class():
    ds = generate_synthetic(SynthSpec(20, 3, 1, seed=0))
    split = stratified_split(ds, 0.01, seed=0)
    for cls in (0, 1):
        assert np.sum(split.validation.labels == cls) == 1


def test_split_deterministic_and_seed_sensitive():
    ds = generate_synthetic(SynthSpec(40, 4, 2, seed=6))
    a = stratified_split(ds, 0.2, seed=1)
    b = stratified_split(ds, 0.2, seed=1)
    c = stratified_split(ds, 0.2, seed=2)
    assert np.array_equal(a.validation.features, b.validation.features)
    assert not np.array_equal(a.validation.features, c.validation.features)


@pytest.mark.parametrize("fraction", ["0.2", True, None])
def test_split_rejects_a_non_real_fraction(fraction):
    ds = generate_synthetic(SynthSpec(20, 3, 1, seed=0))
    with pytest.raises(DatasetError, match="validation_fraction must be a real number"):
        stratified_split(ds, fraction, seed=0)


@pytest.mark.parametrize(
    "seed, message",
    [(True, "seed must be an integer"), (1.5, "seed must be an integer"),
     (1.0, "seed must be an integer"), (-1, "seed must be >= 0, got -1")],
)
def test_split_rejects_a_seed_that_is_not_a_non_negative_integer(seed, message):
    ds = generate_synthetic(SynthSpec(20, 3, 1, seed=0))
    with pytest.raises(DatasetError, match=message):
        stratified_split(ds, 0.2, seed)


def test_split_takes_numpy_numbers():
    ds = generate_synthetic(SynthSpec(40, 4, 2, seed=6))
    a = stratified_split(ds, 0.25, 3)
    b = stratified_split(ds, np.float64(0.25), np.int64(3))
    assert np.array_equal(a.validation.features, b.validation.features)


def test_split_keeps_original_row_order():
    ds = FeatureDataset(
        features=np.arange(20, dtype=np.float64).reshape(10, 2),
        labels=np.array([0, 1] * 5),
    )
    split = stratified_split(ds, 0.3, seed=4)
    for part in (split.train, split.validation):
        first_col = part.features[:, 0]
        assert np.all(np.diff(first_col) > 0)


def test_split_rejects_bad_fraction_and_tiny_class():
    ds = generate_synthetic(SynthSpec(20, 3, 1, seed=0))
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(DatasetError, match="validation_fraction"):
            stratified_split(ds, bad, seed=0)
    lopsided = FeatureDataset(
        features=np.zeros((4, 2)) + np.arange(4)[:, None], labels=[0, 0, 0, 1]
    )
    with pytest.raises(DatasetError, match="class 1 has 1 sample"):
        stratified_split(lopsided, 0.5, seed=0)
    one_class = FeatureDataset(features=np.arange(6.0).reshape(3, 2), labels=[3, 3, 3])
    with pytest.raises(DatasetError, match="class 3; .* 2 classes"):
        stratified_split(one_class, 0.2, seed=0)


# --- standardize_split ----------------------------------------------------

def test_standardize_centers_train_and_reuses_train_moments():
    ds = generate_synthetic(SynthSpec(60, 5, 2, seed=9))
    split = stratified_split(ds, 0.2, seed=0)
    std_split = standardize_split(split)
    assert np.allclose(std_split.train.features.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(std_split.train.features.std(axis=0), 1.0, atol=1e-12)
    # validation transformed with train moments, not its own
    mean = split.train.features.mean(axis=0)
    std = split.train.features.std(axis=0)
    assert np.allclose(
        std_split.validation.features, (split.validation.features - mean) / std
    )


def test_standardize_leaves_constant_columns_finite():
    train = FeatureDataset(
        features=np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]), labels=[0, 1, 0]
    )
    val = FeatureDataset(features=np.array([[7.0, 2.0], [5.0, 1.0]]), labels=[1, 0])
    split = standardize_split(
        SplitDataset(train=train, validation=val)
    )
    assert np.all(np.isfinite(split.train.features))
    assert np.all(np.isfinite(split.validation.features))
    # constant column: centered, scale left at one
    assert np.all(split.train.features[:, 0] == 0.0)
    assert split.validation.features[0, 0] == 2.0
