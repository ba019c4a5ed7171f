"""k-nearest-neighbor wrapper evaluator.

Fits on the training rows restricted to a mask's selected columns and
scores accuracy on the validation rows.  Search is brute-force and exact,
with deterministic tie-breaking, so repeated evaluations of the same mask
are bit-for-bit identical.  One GEMM gives every distance to within a
proven bound; only the pairs the bound cannot order are summed again
exactly, column by column.  Every evaluation classifies the validation
rows ``CHUNK_ROWS`` at a time in work matrices of its own, so its memory
grows linearly in the row count and nothing outlives the call; one given
a target count of correct rows stops once the target is out of reach.
:func:`knn_accuracy` is the one evaluation routine; a mask that selects no
feature is a ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SplitDataset, check_integer


# validation rows classified per step of an evaluation
CHUNK_ROWS = 32

# unit roundoff of float64, u in Higham's notation
_UNIT_ROUNDOFF = 2.0**-53
# 8x the largest error of one product that underflows (2**-1075)
_UNDERFLOW_SLACK = 2.0**-1072
# below this, no sum of squared norms in the distance step overflows
_NORM_LIMIT = np.finfo(np.float64).max / 4


@dataclass(frozen=True)
class KnnConfig:
    """Neighbor count for the wrapper classifier (distance is Euclidean)."""

    k: int = 5

    def __post_init__(self):
        check_integer("k", self.k, minimum=1)
        if self.k % 2 == 0:
            raise ValueError(f"k must be odd to limit vote ties, got {self.k}")


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

    ``a`` may be one row, broadcast against the rows of ``b``.  This is
    scipy's ``cdist(..., metric="sqeuclidean")`` entry bit for bit.
    """
    with np.errstate(over="ignore"):
        d = a - b
        np.square(d, out=d)
        return np.cumsum(d, axis=1, out=d)[:, -1]


def _nearest_exact(valid, train, k, dist, part, chosen):
    """Column indices of the k nearest ``train`` rows to each ``valid`` row.

    The k nearest by :func:`ordered_sqeuclidean`, equal distances preferring
    the lower training row; within a row the columns come in ascending index
    order.  ``dist``, ``part`` and ``chosen`` are work matrices.
    :func:`cdist` gives every distance within E[i] of the exact one, so the
    k-th exact distance is at most ``kth + E[i]``, with ``kth`` the k-th
    GEMM distance.  Every training row at or below the k-th exact distance
    is thus a candidate: GEMM distance at most ``kth + 2·E[i]``.  A row with
    exactly k candidates is done.  A row with more is re-checked on its own:
    a stable sort of its candidates' exact distances, taken in column order,
    keeps the first k.  A row whose bound is ``inf`` takes every column as a
    candidate.
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
        for row in np.flatnonzero(np.count_nonzero(chosen, axis=1) != k):
            cols = np.flatnonzero(chosen[row])
            exact = ordered_sqeuclidean(valid[row], train[cols])
            chosen[row, cols[np.argsort(exact, kind="stable")[k:]]] = False
    # every row holds exactly k chosen columns, so row-major flat indices reshape
    return np.flatnonzero(chosen).reshape(-1, k) % chosen.shape[1]


def knn_accuracy(
    split: SplitDataset,
    mask: np.ndarray,
    config: KnnConfig,
    target: int = 0,
    *,
    misses: np.ndarray | None = None,
) -> float | None:
    """Fraction of validation rows predicted correctly; in [0, 1].

    Each validation row is predicted by a vote of its k nearest training
    rows (Euclidean distance over the mask's columns).  Ties are
    deterministic: equal distances prefer the lower training row, equal
    votes the lower class.  The rows are classified ``CHUNK_ROWS`` at a
    time.  With a ``target`` (a count of rows), the evaluation stops,
    returning None, once the rows already wrong leave fewer than
    ``target`` that can be right; a target of 0 never stops.  A result
    that is not None is exact whatever the order, since every row is
    predicted on its own.  ``misses``, when given, holds one count per
    validation row (a writeable 1-D signed integer array, file order): the
    rows are visited in ``np.argsort(-misses, kind="stable")`` order (else
    file order), and each row classified wrong adds 1 to its count.
    Threads may share it unlocked, since a lost increment changes only the
    visit order, never an accuracy.  A target above the row count is
    unreachable: the first chunk returns None.  Raises ValueError, before
    any row is classified, on a target that is not a non-negative integer,
    a malformed ``misses``, a mask of the wrong length or with no feature
    selected, or a k above the training row count.
    """
    check_integer("target", target, minimum=0)
    n_val = split.validation.sample_count
    if misses is not None and (not isinstance(misses, np.ndarray)
                               or misses.dtype.kind != "i" or misses.shape != (n_val,)
                               or not misses.flags.writeable):
        raise ValueError(
            f"misses must be a writeable 1-D signed integer array of length {n_val}")
    mask = np.asarray(mask)
    if mask.shape != (split.feature_count,):
        raise ValueError(
            f"mask length {mask.shape} does not match feature count "
            f"{split.feature_count}"
        )
    selected = np.flatnonzero(mask != 0)
    if selected.size == 0:
        raise ValueError("mask selects no features")
    if config.k > split.train.sample_count:
        raise ValueError(
            f"k={config.k} exceeds training sample count "
            f"{split.train.sample_count}"
        )
    # take returns a new C-ordered copy; a fancy column index would come back
    # Fortran-ordered, and the distance step would read its rows at a stride
    train = np.take(split.train.features, selected, axis=1)
    valid = np.take(split.validation.features, selected, axis=1)
    visit = np.arange(n_val) if misses is None else np.argsort(-misses, kind="stable")
    # the distance step and the selection act row by row, so a row's
    # prediction depends neither on its chunk nor on the visit order; each
    # chunk works in row views of this call's own matrices (17 B per entry).
    # The two float ones share one allocation: glibc's malloc then keeps its
    # pages from call to call, where two would be handed back to the OS and
    # faulted in again (a one-chunk call at 20,000 x 16 took twice as long)
    shape = (min(CHUNK_ROWS, n_val), train.shape[0])
    buffers = *np.empty((2, *shape)), np.empty(shape, dtype=bool)
    # votes are counted per present class, so no cost depends on label
    # values; argmax takes the first maximum, so ties go to the lower class
    classes = split.train.classes
    allowed = n_val - target  # the most wrong rows that can still reach target
    errors = 0
    for start in range(0, n_val, CHUNK_ROWS):
        rows = visit[start : start + CHUNK_ROWS]
        dist, part, chosen = (buffer[: rows.size] for buffer in buffers)
        nearest = _nearest_exact(valid[rows], train, config.k, dist, part, chosen)
        counts = (split.train.labels[nearest][:, :, None] == classes).sum(axis=1)
        wrong = classes[np.argmax(counts, axis=1)] != split.validation.labels[rows]
        if misses is not None:
            misses[rows] += wrong
        errors += int(np.count_nonzero(wrong))
        if errors > allowed:
            return None
    return (n_val - errors) / n_val
