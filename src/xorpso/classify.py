"""k-nearest-neighbor wrapper evaluator.

Fits on the training rows restricted to a mask's selected columns and
scores accuracy on the validation rows.  Search is brute-force and exact,
with deterministic tie-breaking, so repeated evaluations of the same mask
are bit-for-bit identical.  One GEMM gives every distance to within a
proven bound; only the pairs the bound cannot order are summed again
exactly, column by column.  An evaluation given a target count of correct
rows classifies them in chunks and stops once the target is out of reach.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .data import SplitDataset


# validation rows classified per step of an evaluation that may stop early
CHUNK_ROWS = 32

# unit roundoff of float64, u in Higham's notation
_UNIT_ROUNDOFF = 2.0**-53
# 8x the largest error of one product that underflows (2**-1075)
_UNDERFLOW_SLACK = 2.0**-1072
# below this, no sum of squared norms in the distance step overflows
_NORM_LIMIT = np.finfo(np.float64).max / 4


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
    ((_, predictions),) = _predict_chunks(split, mask, config, None, n_val)
    return predictions


def _predict_chunks(split, mask, config, order, chunk):
    """Row indices and predictions of the validation rows, ``chunk`` per yield.

    Rows come in ``order`` (None: file order, indexed by slices), and the
    indices are file-order rows.  Each chunk's distance and selection
    matrices are row views of this thread's full-size work buffers, so
    chunking allocates nothing new.  The distance step and the selection
    act row by row, so a row's prediction does not depend on its chunk.
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
    # Fortran-ordered, and the distance step would read its rows at a stride
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
        nearest = _nearest_exact(valid[rows], train, config.k, dist, part, chosen)
        votes = split.train.labels[nearest]
        counts = (votes[:, :, None] == classes).sum(axis=1)
        yield rows if order is None else order[rows], classes[np.argmax(counts, axis=1)]


def nearest_rows(dist: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the k smallest entries of each row of ``dist``.

    Equal distances prefer the lower column index.  Within a row the
    columns come in ascending index order, not by distance.  A partitioned
    copy gives each row's k-th smallest distance; every strictly nearer
    column is chosen, then the lowest-index columns at exactly that
    distance fill the remaining places.  Entries must not be NaN; ``inf``
    ties like any other value.
    """
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1 : k]
    nearer = dist < kth
    tied = dist == kth
    room = k - np.count_nonzero(nearer, axis=1, keepdims=True)
    chosen = nearer | (tied & (np.cumsum(tied, axis=1, dtype=np.int32) <= room))
    return _chosen_columns(chosen, k)


def cdist(valid: np.ndarray, train: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Squared distances from one GEMM into ``out``; returns a bound per row.

    Writes ``|v|² + |t|² − 2·v·t`` for every row v of ``valid`` and t of
    ``train`` into ``out`` (a ``valid`` rows × ``train`` rows matrix), the
    product from one ``np.matmul``.  Returns E, one entry per row of
    ``valid``, with ``|out[i, l] − S[i, l]| ≤ E[i]`` for every l, where
    S is :func:`ordered_sqeuclidean`.  E[i] is ``inf`` where the entries
    could overflow; ``out[i]`` may then hold ``inf`` or NaN.

    E[i] = (5m + 16)·u·s_i + m·2⁻¹⁰⁷² with s_i = |v_i|² + max_l |t_l|²
    (computed), m columns and u = 2⁻⁵³.  The derivation holds for any BLAS
    summation order, with or without FMA, and under gradual underflow.  Let
    a = |v|², b = |t|², g = v·t and D = a + b − 2g in exact arithmetic,
    γ_n = nu/(1 − nu), and assume (m + 2)u ≤ 0.01 (any m below 10¹³).

    1. A dot product of length m, summed in any order, with or without
       FMA, is within γ_m·Σ|x_j·y_j| of the exact one (Higham, *Accuracy
       and Stability of Numerical Algorithms*, 2nd ed., 2002, §3.1): each
       product passes through at most m roundings in any summation tree.
       So the computed norms satisfy |â − a| ≤ γ_m·a and |b̂ − b| ≤ γ_m·b.
       Scaling by −2 is exact, so the GEMM entry of (−2v)·t is within
       2γ_m·|v|·|t| ≤ γ_m(a + b) of −2g.
    2. The two additions that assemble ``out`` have operands of at most
       2(1 + γ_m)(a + b) and 3(1 + γ_m)(1 + u)(a + b), so they add at most
       5u(1 + u)(1 + γ_m)(a + b).
    3. S rounds each difference, each square and m − 1 additions of
       non-negative terms, so |S − D| ≤ γ_{m+2}·D ≤ 2γ_{m+2}(a + b).

    Together |out − S| ≤ (4γ_{m+2} + 5.1u)(a + b) ≤ (4.1m + 13.4)u·s_i,
    since a + b ≤ (â + b̂)/(1 − γ_m) ≤ 1.011·s_i.  The caller's limit
    ``kth + 2·E[i]`` rounds once more, by at most 2.2u·s_i, and E[i] itself
    rounds twice; (5m + 16)u·s_i covers all of it.  Under gradual
    underflow a product may also be off by up to 2⁻¹⁰⁷⁵ in absolute terms,
    while sums and differences stay exact.  â, b̂, the GEMM entry and S
    hold m products each, so their underflow errors total about
    4m·2⁻¹⁰⁷⁵, within m·2⁻¹⁰⁷² = 8m·2⁻¹⁰⁷⁵.  When 4·s_i is finite, no
    partial sum, GEMM entry or entry of ``out`` overflows (each is at most
    3.2·s_i); otherwise E[i] is ``inf``.
    """
    m = valid.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        valid_sq = np.einsum("ij,ij->i", valid, valid)
        train_sq = np.einsum("ij,ij->i", train, train)
        np.matmul(valid * -2.0, train.T, out=out)
        out += valid_sq[:, None]
        out += train_sq
        scale = valid_sq + train_sq.max()
    bound = (5 * m + 16) * _UNIT_ROUNDOFF * scale + m * _UNDERFLOW_SLACK
    bound[scale > _NORM_LIMIT] = np.inf
    return bound


def ordered_sqeuclidean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise ``((0 + d₀²) + d₁²) + …`` of ``d = a − b``, summed in column order.

    This is scipy's ``cdist(..., metric="sqeuclidean")`` entry bit for bit.
    """
    with np.errstate(over="ignore"):
        d = a - b
        np.square(d, out=d)
        return np.cumsum(d, axis=1, out=d)[:, -1]


def _nearest_exact(valid, train, k, dist, part, chosen):
    """Column indices of the k nearest ``train`` rows to each ``valid`` row.

    Exactly :func:`nearest_rows` of the :func:`ordered_sqeuclidean`
    distances, using ``dist``, ``part`` and ``chosen`` as work matrices.
    :func:`cdist` gives every distance within E[i] of the exact one, so
    the k-th exact distance is at most ``kth + E[i]``, with ``kth`` the k-th
    GEMM distance.  Every training row at or below the k-th exact distance
    is thus a candidate: GEMM distance at most ``kth + 2·E[i]``.  A row with
    exactly k candidates is done.  A row with more gets each candidate's
    exact distance and the tie rules of :func:`nearest_rows`.  A row whose
    bound is ``inf`` takes every column as a candidate.
    """
    bound = cdist(valid, train, out=dist)
    np.copyto(part, dist)
    part.partition(k - 1, axis=1)
    with np.errstate(invalid="ignore"):  # a row with an inf bound may hold -inf
        limit = part[:, k - 1] + 2.0 * bound
    np.less_equal(dist, limit[:, None], out=chosen)
    chosen[np.isinf(bound)] = True
    # every row has at least k candidates, so a total of k per row means
    # that no row needs the re-check
    if np.count_nonzero(chosen) != k * len(chosen):
        recheck = np.flatnonzero(np.count_nonzero(chosen, axis=1) != k)
        rows, cols = np.nonzero(chosen[recheck])
        exact = np.full((recheck.size, train.shape[0]), np.inf)
        exact[rows, cols] = ordered_sqeuclidean(valid[recheck[rows]], train[cols])
        chosen[recheck] = False
        chosen[recheck[:, None], nearest_rows(exact, k)] = True
    return _chosen_columns(chosen, k)


def _chosen_columns(chosen, k):
    # every row holds exactly k chosen columns, so row-major flat indices reshape
    return np.flatnonzero(chosen).reshape(-1, k) % chosen.shape[1]


_local = threading.local()


def _scratch(shape: tuple[int, int]):
    """This thread's distance, partition and chosen matrices of ``shape``.

    The evaluation's GEMM filter works in them, and reuses them from call
    to call while the shape holds, so it writes into pages it already owns
    (17 B per entry).  Each thread has its own, so pool threads never
    share one; none may escape a call.
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
    *,
    misses: np.ndarray | None = None,
) -> float | None:
    """Fraction of validation rows predicted correctly; in [0, 1].

    With a ``target`` (a count of rows), the rows are classified
    ``CHUNK_ROWS`` at a time, and the evaluation stops, returning None,
    once the rows already wrong leave fewer than ``target`` that can be
    right.  A result that is not None is exact whatever the order, since
    every row is predicted on its own.  A target of 0 never stops and
    classifies all rows at once.  ``misses``, when given, holds one count
    per validation row (1-D signed integers, file order): a target visits
    the rows in ``np.argsort(-misses, kind="stable")`` order (else file
    order), and each row classified wrong adds 1 to its count.  Threads
    may share it unlocked, since a lost increment changes only the visit
    order, never an accuracy.  Raises ValueError on a malformed ``misses``
    before classifying a row, otherwise as :func:`knn_predict`.
    """
    n_val = split.validation.sample_count
    if misses is not None and (not isinstance(misses, np.ndarray)
                               or misses.dtype.kind != "i" or misses.shape != (n_val,)):
        raise ValueError(f"misses must be a 1-D signed integer array of length {n_val}")
    # a target of 0 never stops, so no order can save time
    order = np.argsort(-misses, kind="stable") if target and misses is not None else None
    allowed = n_val - target  # the most wrong rows that can still reach target
    errors = 0
    for rows, predictions in _predict_chunks(
        split, mask, config, order, CHUNK_ROWS if target else n_val
    ):
        wrong = predictions != split.validation.labels[rows]
        if misses is not None:
            misses[rows] += wrong
        errors += int(np.count_nonzero(wrong))
        if errors > allowed:
            return None
    return (n_val - errors) / n_val
