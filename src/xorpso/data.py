"""Dataset loading, stratified splitting, and synthetic data generation.

All datasets are plain labeled feature matrices: float64 features, integer
class labels.  Arrays are frozen after construction, so a dataset's cached
``classes`` stay valid for as long as the dataset lives.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, asdict
from functools import cached_property
from pathlib import Path

import numpy as np


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


class DatasetError(ValueError):
    """Raised for unreadable, malformed, or internally inconsistent datasets."""


def check_integer(
    name: str, value, error: type[ValueError] = ValueError, *, minimum: int | None = None
) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is an int or numpy integer.

    A bool is refused although Python counts it as an int.  With a
    ``minimum``, a value below it is refused too; this is the one place
    that words an integer setting's floor.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value}")


def check_real(name: str, value, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is an int or a float.

    numpy's integers and floats are accepted; a bool is refused although
    Python counts it as an int.
    """
    real = (int, float, np.integer, np.floating)
    if isinstance(value, bool) or not isinstance(value, real):
        raise error(f"{name} must be a real number, got {value!r}")


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a two-class synthetic dataset with planted informative columns.

    Every column has standard deviation ``noise_std``.  Informative columns
    additionally get a class-dependent mean shift of ``+/- class_separation/2``,
    so the class means differ by exactly ``class_separation``; the remaining
    columns are pure zero-mean noise.  With ``noise_std=0`` the informative
    columns collapse onto the two class means and the classes are exactly
    separable.  Generation is a pure function of the recipe.
    """

    n_samples: int
    n_features: int
    n_informative: int
    class_separation: float = 2.0
    noise_std: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("n_samples", 4), ("n_features", 1),
                              ("n_informative", None), ("seed", 0)):
            check_integer(name, getattr(self, name), DatasetError, minimum=minimum)
        if not 1 <= self.n_informative <= self.n_features:
            raise DatasetError(
                f"n_informative must be in [1, n_features={self.n_features}], "
                f"got {self.n_informative}"
            )
        for name in ("class_separation", "noise_std"):
            check_real(name, getattr(self, name), DatasetError)
            if not math.isfinite(getattr(self, name)):
                raise DatasetError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.class_separation > 0:
            raise DatasetError("class_separation must be positive")
        if self.noise_std < 0:
            raise DatasetError("noise_std must be non-negative")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SynthSpec":
        return cls(**d)


@dataclass(frozen=True)
class SynthProvenance:
    """Ground truth attached to a synthetic dataset: the recipe and which columns carry signal."""

    spec: SynthSpec
    informative_indices: tuple[int, ...]

    def __post_init__(self):
        indices, spec = self.informative_indices, self.spec
        for i in indices:
            check_integer("informative index", i, DatasetError)
        if (
            len(set(indices)) != len(indices)
            or len(indices) != spec.n_informative
            or not all(0 <= i < spec.n_features for i in indices)
        ):
            raise DatasetError(
                f"informative_indices {list(indices)} must be {spec.n_informative} "
                f"distinct indices in [0, {spec.n_features})"
            )

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "informative_indices": list(self.informative_indices),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SynthProvenance":
        return cls(
            spec=SynthSpec.from_dict(d["spec"]),
            informative_indices=tuple(d["informative_indices"]),
        )


@dataclass(frozen=True)
class FeatureDataset:
    """Labeled feature matrix: samples are rows, features are columns.

    Parameters
    ----------
    features : array_like, shape (n_samples, n_features)
        Real-valued feature matrix; all values must be finite.
    labels : array_like, shape (n_samples,)
        Non-negative integer class indices, one per row.
    provenance : SynthProvenance, optional
        Present on generated datasets, not on their split parts; records
        the generating spec and the planted informative column indices.
    """

    features: np.ndarray
    labels: np.ndarray
    provenance: SynthProvenance | None = None

    def __post_init__(self):
        feats = np.atleast_2d(np.asarray(self.features, dtype=np.float64))
        labels = np.asarray(self.labels)
        if feats.ndim != 2:
            raise DatasetError(f"features must be 2-D, got ndim={feats.ndim}")
        if feats.shape[0] != labels.shape[0]:
            raise DatasetError(
                f"labels length {labels.shape[0]} does not match "
                f"{feats.shape[0]} sample rows"
            )
        if feats.shape[1] < 1:
            raise DatasetError("dataset must have at least one feature column")
        if feats.shape[0] < 2:
            raise DatasetError("dataset must have at least two samples")
        if not np.all(np.isfinite(feats)):
            bad = np.argwhere(~np.isfinite(feats))[0]
            raise DatasetError(
                f"non-finite feature value at row {bad[0]}, column {bad[1]}"
            )
        if not np.issubdtype(labels.dtype, np.integer):
            as_float = labels.astype(np.float64)
            if not np.all(as_float == np.floor(as_float)):
                raise DatasetError("labels must be integers")
            # the cast below would wrap these; 2**63 itself is a float64
            if not np.all((as_float >= INT64_MIN) & (as_float < 2.0**63)):
                raise DatasetError("labels must lie in the int64 range")
        labels = labels.astype(np.int64)
        if labels.min() < 0:
            raise DatasetError("labels must be non-negative class indices")
        object.__setattr__(self, "features", _frozen_array(feats, np.float64))
        object.__setattr__(self, "labels", _frozen_array(labels, np.int64))

    @property
    def sample_count(self) -> int:
        return self.features.shape[0]

    @property
    def feature_count(self) -> int:
        return self.features.shape[1]

    @cached_property
    def classes(self) -> np.ndarray:
        """Distinct label values, ascending and read-only; worked out once."""
        # plain np.unique asks np.ma.is_masked, whose first call imports all of
        # numpy.ma (about 10 ms); asking for counts takes the sort path instead
        return _frozen_array(np.unique(self.labels, return_counts=True)[0], np.int64)


@dataclass(frozen=True)
class SplitDataset:
    """A stratified train/validation partition of a single source dataset."""

    train: FeatureDataset
    validation: FeatureDataset

    def __post_init__(self):
        if self.train.feature_count != self.validation.feature_count:
            raise DatasetError(
                "train and validation partitions disagree on feature count"
            )

    @property
    def feature_count(self) -> int:
        return self.train.feature_count


def write_atomic(path, text: str) -> None:
    """Write ``text`` as the whole of ``path``; the one writer of output files.

    Makes the parent directory, writes a temporary file beside ``path`` with
    the mode :func:`open` would give it, and renames it over ``path``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def provenance_path(path) -> Path:
    """Sidecar JSON path for a dataset file (``data.csv`` -> ``data.provenance.json``)."""
    return Path(path).with_suffix(".provenance.json")


def _parse_number(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ValueError(f"could not parse {cell.strip()!r} as a number") from None


def _parse_feature(cell: str) -> float:
    value = _parse_number(cell)
    if not math.isfinite(value):
        raise ValueError(f"feature value {cell.strip()!r} is not finite")
    return value


def _parse_label(cell: str) -> int:
    """A label cell as an int64 value.

    An integer literal is read as an int, so no digit is rounded away; a
    float literal must hold an integral value, such as ``1.0`` or ``1e3``.
    """
    try:
        label = int(cell)
    except ValueError:
        value = _parse_number(cell)
        if not math.isfinite(value) or value != math.floor(value):
            raise ValueError(f"label {cell.strip()!r} is not an integer") from None
        label = int(value)
    if not INT64_MIN <= label <= INT64_MAX:
        raise ValueError(f"label {cell.strip()!r} is outside the int64 range")
    return label


def load_dataset(path, label_column: str = "label") -> FeatureDataset:
    """Load a labeled feature matrix from a headered CSV file.

    The label column is removed from the features; the remaining columns
    become features in header order, so feature index j is the j-th
    non-label column.  A provenance sidecar written by :func:`save_dataset`
    is restored when present.

    Parameters
    ----------
    path : str or Path
        CSV file: UTF-8 (a byte-order mark is skipped), header row, ``.``
        decimal separator.
    label_column : str
        Header name of the integer class-label column.

    Raises
    ------
    DatasetError
        Missing file or a path that is not a regular file, text that is
        not UTF-8, absent label column, a non-numeric or non-finite cell, a
        non-integer label or one outside int64 (the message names the
        offending row and column), fewer than two data rows, or a
        provenance sidecar that is malformed, contradicts itself (see
        :class:`SynthProvenance`) or contradicts the file's sample or
        feature count.
    """
    path = Path(path)
    if not path.is_file():
        what = "path is not a regular file" if path.exists() else "file not found"
        raise DatasetError(f"dataset {what}: {path}")
    try:
        text = path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DatasetError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    with io.StringIO(text, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        if label_column not in header:
            raise DatasetError(
                f"{path}: label column {label_column!r} not in header {header}"
            )
        if header.count(label_column) > 1:
            raise DatasetError(
                f"{path}: label column {label_column!r} appears "
                f"{header.count(label_column)} times in the header"
            )
        label_pos = header.index(label_column)
        feature_names = [h for h in header if h != label_column]

        rows: list[list[float]] = []
        labels: list[int] = []
        # a record starts on the line after the last line of the one before
        end = reader.line_num
        for cells in reader:
            line_no, end = end + 1, reader.line_num
            if not cells:
                continue
            if len(cells) != len(header):
                raise DatasetError(
                    f"{path}: row at line {line_no} has {len(cells)} cells, "
                    f"expected {len(header)}"
                )
            feats_row = []
            for pos, cell in enumerate(cells):
                try:
                    if pos == label_pos:
                        labels.append(_parse_label(cell))
                    else:
                        feats_row.append(_parse_feature(cell))
                except ValueError as exc:
                    raise DatasetError(
                        f"{path}: line {line_no}, column {header[pos]!r}: {exc}"
                    ) from None
            rows.append(feats_row)

    if not feature_names:
        raise DatasetError(f"{path}: no feature columns besides {label_column!r}")
    if len(rows) < 2:
        raise DatasetError(f"{path}: need at least 2 data rows, found {len(rows)}")

    provenance = None
    sidecar = provenance_path(path)
    if sidecar.is_file():
        try:
            record = json.loads(sidecar.read_text(encoding="utf-8"))
            provenance = SynthProvenance.from_dict(record)
        except (ValueError, KeyError, TypeError) as exc:
            raise DatasetError(f"{sidecar}: malformed provenance sidecar: {exc!r}") from None
        spec = provenance.spec
        if (spec.n_samples, spec.n_features) != (len(rows), len(feature_names)):
            raise DatasetError(
                f"{sidecar}: provenance sidecar contradicts {path.name}: it claims "
                f"{spec.n_samples} samples and {spec.n_features} features, "
                f"the file has {len(rows)} samples and {len(feature_names)} features"
            )
    return FeatureDataset(
        features=np.array(rows, dtype=np.float64),
        labels=np.array(labels, dtype=np.int64),
        provenance=provenance,
    )


def save_dataset(dataset: FeatureDataset, path, label_column: str = "label") -> None:
    """Write a dataset as CSV (columns ``f0..fN`` plus the label column).

    Floats are written with ``repr`` so a save/load round trip reproduces
    every value exactly.  Synthetic provenance, when present, goes to a
    JSON sidecar next to the CSV, written first; without provenance, an
    old sidecar there is deleted.
    """
    path = Path(path)
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow([f"f{j}" for j in range(dataset.feature_count)] + [label_column])
    for row, label in zip(dataset.features, dataset.labels):
        writer.writerow([repr(float(v)) for v in row] + [str(int(label))])
    sidecar = provenance_path(path)
    if dataset.provenance is not None:
        write_atomic(sidecar, json.dumps(dataset.provenance.to_dict(), indent=2) + "\n")
    else:
        sidecar.unlink(missing_ok=True)
    write_atomic(path, text.getvalue())


def generate_synthetic(spec: SynthSpec) -> FeatureDataset:
    """Generate a two-class dataset from a :class:`SynthSpec`.

    The first half of the rows are class 0, the rest class 1.  The
    informative column indices are drawn without replacement from the
    spec's seed and recorded in the dataset's provenance.  Identical specs
    produce byte-identical matrices.
    """
    rng = np.random.default_rng(spec.seed)
    informative = np.sort(
        rng.choice(spec.n_features, size=spec.n_informative, replace=False)
    )
    # the matrix comes first, so a spec too large for memory fails before any
    # per-row array is built
    features = rng.standard_normal((spec.n_samples, spec.n_features))
    n1 = spec.n_samples // 2
    n0 = spec.n_samples - n1
    labels = np.concatenate(
        [np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)]
    )
    shift = np.where(labels == 1, spec.class_separation / 2.0, -spec.class_separation / 2.0)
    try:
        with np.errstate(over="raise"):
            features *= spec.noise_std
            features[:, informative] += shift[:, None]
    except FloatingPointError:
        raise DatasetError(
            f"synthetic spec noise_std={spec.noise_std}, class_separation="
            f"{spec.class_separation} overflows float64 feature values"
        ) from None
    return FeatureDataset(
        features=features,
        labels=labels,
        provenance=SynthProvenance(
            spec=spec, informative_indices=tuple(int(i) for i in informative)
        ),
    )


def require_two_classes(dataset: FeatureDataset) -> np.ndarray:
    """Return the dataset's classes; raise :class:`DatasetError` if there is only one."""
    classes = dataset.classes
    if classes.size < 2:
        raise DatasetError(
            f"every sample has class {classes[0]}; classification needs at "
            "least 2 classes"
        )
    return classes


def stratified_split(
    dataset: FeatureDataset, validation_fraction: float, seed: int
) -> SplitDataset:
    """Partition a dataset into disjoint train/validation subsets, stratified by class.

    Per class, ``floor(count * validation_fraction)`` samples (at least one)
    go to validation; both partitions keep the original row order and
    carry no provenance.  The assignment is a pure function of (dataset,
    fraction, seed).

    Raises
    ------
    DatasetError
        Fraction not a real number in (0, 1), seed not a non-negative
        integer, fewer than two classes, or a class with fewer than two
        samples.  With two or more classes of at least two samples each,
        both partitions hold at least two rows.
    """
    check_real("validation_fraction", validation_fraction, DatasetError)
    check_integer("seed", seed, DatasetError, minimum=0)
    if not 0.0 < validation_fraction < 1.0:
        raise DatasetError(
            f"validation_fraction must be in (0, 1), got {validation_fraction}"
        )
    labels = dataset.labels
    classes = require_two_classes(dataset)
    rng = np.random.default_rng(seed)
    val_rows = np.zeros(dataset.sample_count, dtype=bool)
    for cls in classes:
        idx = np.flatnonzero(labels == cls)
        if idx.size < 2:
            raise DatasetError(
                f"class {cls} has {idx.size} sample(s); stratified splitting "
                "needs at least 2 per class"
            )
        n_val = max(1, int(math.floor(idx.size * validation_fraction)))
        perm = rng.permutation(idx.size)
        val_rows[idx[perm[:n_val]]] = True
    train, validation = (
        FeatureDataset(features=dataset.features[rows], labels=labels[rows])
        for rows in (~val_rows, val_rows)
    )
    return SplitDataset(train=train, validation=validation)


def standardize_split(split: SplitDataset) -> SplitDataset:
    """Standardize features to zero mean, unit variance, fit on train only.

    The train partition's per-column mean and standard deviation are applied
    to both partitions; zero-variance columns are centered and left at scale
    one.  Distance-based classification needs comparable column scales.
    A column whose train mean, train standard deviation or any standardized
    value overflows float64 is a :class:`DatasetError`.
    """
    parts = (split.train, split.validation)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = split.train.features.mean(axis=0)
        std = split.train.features.std(axis=0)
        std = np.where(std == 0.0, 1.0, std)
        scaled = [(ds.features - mean) / std for ds in parts]
    finite = np.isfinite(mean) & np.isfinite(std)
    for values in scaled:
        finite &= np.isfinite(values).all(axis=0)
    bad = np.flatnonzero(~finite)
    if bad.size:
        raise DatasetError(
            f"cannot standardize feature column {bad[0]}: its train mean, train "
            "standard deviation or a standardized value overflows float64"
        )
    train, validation = (
        FeatureDataset(features=values, labels=ds.labels)
        for values, ds in zip(scaled, parts)
    )
    return SplitDataset(train=train, validation=validation)
