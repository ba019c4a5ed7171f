"""k-nearest-neighbor wrapper evaluator.

Fits on the training rows restricted to a mask's selected columns and
scores accuracy on the validation rows.  Search is brute-force and exact,
with deterministic tie-breaking, so repeated evaluations of the same mask
are bit-for-bit identical.  An evaluation given a target count of correct
rows classifies them in chunks and stops once the target is out of reach.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .data import SplitDataset


# validation rows classified per step of an evaluation that may stop early
CHUNK_ROWS = 32


class EmptyMaskError(ValueError):
    """Signals a mask that selects no features; callers decide how to score it."""


@dataclass(frozen=True)
class KnnConfig:
    """Neighbor count for the wrapper classifier (distance is Euclidean)."""

    k: int = 5

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.k % 2 == 0:
            raise ValueError(f"k must be odd to limit vote ties, got {self.k}")


def knn_predict(
    split: SplitDataset, mask: np.ndarray, config: KnnConfig
) -> np.ndarray:
    """Predict a label for every validation row using selected columns only.

    For each validation row the k nearest training rows (Euclidean distance
    over the mask's columns) vote; ties are deterministic: equal distances
    prefer the lower training-row index, equal votes prefer the lower class
    index.

    Raises
    ------
    EmptyMaskError
        If the mask selects no features.
    ValueError
        Mask length mismatch, or k larger than the training sample count.
    """
    n_val = split.validation.sample_count
    (predictions,) = _predict_chunks(split, mask, config, None, n_val)
    return predictions


def _predict_chunks(split, mask, config, order, chunk):
    """Predictions of the validation rows in ``order``, ``chunk`` rows per yield.

    ``order`` None is file order.  Each chunk's distance and selection
    matrices are row views of this thread's full-size work buffers, so
    chunking allocates nothing new.  ``cdist`` and the selection act row
    by row, so a row's prediction does not depend on its chunk.
    """
    mask = np.asarray(mask)
    if mask.shape != (split.feature_count,):
        raise ValueError(
            f"mask length {mask.shape} does not match feature count "
            f"{split.feature_count}"
        )
    selected = np.flatnonzero(mask != 0)
    if selected.size == 0:
        raise EmptyMaskError("mask selects no features")
    if config.k > split.train.sample_count:
        raise ValueError(
            f"k={config.k} exceeds training sample count "
            f"{split.train.sample_count}"
        )
    # take returns a new C-ordered copy; a fancy column index would come back
    # Fortran-ordered, and cdist reads such rows at a stride, about 1.5x slower
    train = np.take(split.train.features, selected, axis=1)
    valid = np.take(split.validation.features, selected, axis=1)
    if order is not None:
        valid = valid[order]
    buffers = _scratch((valid.shape[0], train.shape[0]))
    # votes are counted per present class, so no cost depends on label
    # values; argmax takes the first maximum, so ties go to the lower class
    classes = split.train.classes
    for start in range(0, valid.shape[0], chunk):
        rows = slice(start, start + chunk)
        dist, part, chosen = (buffer[rows] for buffer in buffers)
        # squared Euclidean keeps the same neighbor ordering and skips the sqrt
        cdist(valid[rows], train, metric="sqeuclidean", out=dist)
        votes = split.train.labels[_nearest(dist, config.k, part, chosen)]
        counts = (votes[:, :, None] == classes).sum(axis=1)
        yield classes[np.argmax(counts, axis=1)]


def nearest_rows(dist: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the k smallest entries of each row of ``dist``.

    Equal distances prefer the lower column index.  Within a row the
    columns come in ascending index order, not by distance.  The selection
    is partial: an in-place partition of a copy finds each row's k-th
    smallest distance, and every column at or below it is chosen.  A row
    with exactly k such columns is done.  Only the rows with more, those
    with a tie at the k-th distance, are filled again: every strictly
    nearer column, then the lowest-index columns at exactly that distance
    for the remaining places.  Entries must not be NaN; ``inf`` ties like
    any other value.
    """
    _, part, chosen = _scratch(dist.shape)
    return _nearest(dist, k, part, chosen)


def _nearest(dist, k, part, chosen):
    """:func:`nearest_rows` with given work matrices of ``dist``'s shape."""
    np.copyto(part, dist)
    part.partition(k - 1, axis=1)
    kth = part[:, k - 1 : k]
    np.less_equal(dist, kth, out=chosen)
    tie_rows = np.flatnonzero(np.count_nonzero(chosen, axis=1) != k)
    if tie_rows.size:
        rows, kth = dist[tie_rows], kth[tie_rows]
        nearer = rows < kth
        tied = rows == kth
        room = k - np.count_nonzero(nearer, axis=1, keepdims=True)
        chosen[tie_rows] = nearer | (
            tied & (np.cumsum(tied, axis=1, dtype=np.int32) <= room))
    # every row holds exactly k chosen columns, so row-major flat indices reshape
    return np.flatnonzero(chosen).reshape(-1, k) % dist.shape[1]


_local = threading.local()


def _scratch(shape: tuple[int, int]):
    """This thread's distance, partition and chosen matrices of ``shape``.

    Reused from call to call while the shape holds, so an evaluation
    writes into pages it already owns (17 B per entry).  Each thread has
    its own, so pool threads never share one; none may escape a call.
    """
    buffers = getattr(_local, "buffers", None)
    if buffers is None or buffers[0].shape != shape:
        buffers = (np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool))
        _local.buffers = buffers
    return buffers


def knn_accuracy(
    split: SplitDataset,
    mask: np.ndarray,
    config: KnnConfig,
    target: int = 0,
    order: np.ndarray | None = None,
    missed: np.ndarray | None = None,
) -> float | None:
    """Fraction of validation rows predicted correctly; in [0, 1].

    With a ``target`` (a count of rows), the rows are classified in
    ``order`` (default: file order), ``CHUNK_ROWS`` at a time, and the
    evaluation stops, returning None, once the rows already wrong leave
    fewer than ``target`` that can be right.  A result that is not None is
    exact whatever the order, since every row is predicted on its own.  A
    target of 0 never stops and classifies all rows at once.  ``missed``,
    when given, is a bool array over the validation rows in file order:
    each visited row is set to whether it was predicted wrong, and rows
    never visited keep their value.  Raises as :func:`knn_predict`.
    """
    n_val = split.validation.sample_count
    if not target:
        order = None  # never stops, so no order can save time
    labels = split.validation.labels
    if order is not None:
        labels = labels[order]
    allowed = n_val - target  # the most wrong rows that can still reach target
    chunk = CHUNK_ROWS if target else n_val
    errors = 0
    for start, predictions in zip(
        range(0, n_val, chunk), _predict_chunks(split, mask, config, order, chunk)
    ):
        rows = slice(start, start + chunk)
        wrong = predictions != labels[rows]
        if missed is not None:
            missed[rows if order is None else order[rows]] = wrong
        errors += int(np.count_nonzero(wrong))
        if errors > allowed:
            return None
    return (n_val - errors) / n_val
