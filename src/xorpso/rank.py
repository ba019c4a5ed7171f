"""Mutual-information feature scoring and swarm seeding.

Continuous features are discretized by equal-width binning, scored against
the labels with mutual information (natural log, nats), and the scores bias
part of the initial particle population toward the strongest features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FeatureDataset, check_integer


@dataclass(frozen=True)
class MiScores:
    """Per-feature mutual information against the labels, in nats."""

    scores: np.ndarray

    def __post_init__(self):
        arr = np.array(self.scores, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("scores must be a 1-D vector")
        finite = np.isfinite(arr)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise ValueError(f"score {bad} is {float(arr[bad])!r}; scores must be finite")
        if np.any(arr < 0):
            raise ValueError("mutual information scores cannot be negative")
        arr.flags.writeable = False
        object.__setattr__(self, "scores", arr)

    @property
    def feature_count(self) -> int:
        return self.scores.shape[0]

    def ranking(self) -> np.ndarray:
        """Feature indices sorted by descending score; ties keep ascending index."""
        return np.argsort(-self.scores, kind="stable")


def discretize(values, bin_count: int) -> np.ndarray:
    """Equal-width binning of each column of a real array over its [min, max].

    A 1-D ``values`` is one column.  The maximum value lands in the top bin;
    a constant column maps entirely to bin 0.  A column whose top product
    ``(max - min) * bin_count`` overflows is binned with every operand
    scaled by 2**-56 first, which keeps that product finite; every other
    column keeps the unscaled expression bit for bit.
    """
    check_integer("bin_count", bin_count)
    # float64 holds every bin index up to 2**53, so the int64 cast is exact
    if not 2 <= bin_count <= 2**53:
        raise ValueError(f"bin_count must be in [2, 2**53], got {bin_count}")
    x = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("column contains non-finite values")
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    with np.errstate(over="ignore"):
        # scaling by a power of two changes no rounding above the subnormals,
        # and at 2**-56 even (max - min) * 2**53 stays below a quarter of the
        # largest float
        scale = np.where(np.isfinite((hi - lo) * bin_count), 1.0, 2.0**-56)
    lo = lo * scale
    span = hi * scale - lo
    # a constant column has every x - lo == 0, so any nonzero span bins it at 0
    span = np.where(span == 0, 1.0, span)
    idx = np.floor((x * scale - lo) * bin_count / span).astype(np.int64)
    return np.clip(idx, 0, bin_count - 1)


def _distinct_codes(values) -> tuple[np.ndarray, int]:
    """Each value's index among the sorted distinct values, and their count."""
    _, codes = np.unique(np.asarray(values), return_inverse=True)
    return codes, int(codes.max()) + 1


def _dense_ranks(codes: np.ndarray) -> np.ndarray:
    """Each code's index among its column's sorted distinct codes."""
    order = np.argsort(codes, axis=0)
    ranked = np.take_along_axis(codes, order, axis=0)
    steps = np.zeros(codes.shape, dtype=np.int64)
    steps[1:] = ranked[1:] != ranked[:-1]
    ranks = np.empty_like(steps)
    np.put_along_axis(ranks, order, np.cumsum(steps, axis=0), axis=0)
    return ranks


def _run_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Sum each run of ``lengths[k]`` consecutive rows of ``values``.

    Runs of one length are stacked and summed in one call, which adds each
    run in the order numpy gives a lone array of that length.
    """
    starts = np.cumsum(lengths) - lengths
    out = np.empty((lengths.shape[0],) + values.shape[1:])
    # counts keep np.unique off np.ma.is_masked, which imports numpy.ma
    for length in np.unique(lengths, return_counts=True)[0]:
        runs = np.flatnonzero(lengths == length)
        out[runs] = values[starts[runs, None] + np.arange(length)].sum(axis=1)
    return out


def _column_mi(bins: np.ndarray, width: int, classes: np.ndarray, class_count: int) -> np.ndarray:
    """Mutual information of every column of ``bins`` against ``classes``, in nats.

    ``bins`` is ``(n, columns)`` with codes in ``[0, width)``.  One bincount
    counts every column's joint (bin, class) table; bins that no row holds
    are dropped, so a column's table has one row per distinct code, in code
    order.  Probabilities are empirical frequencies; cells with zero joint
    probability contribute nothing.  Each column's terms are summed in cell
    order, as one sum, and the result is clamped at zero to absorb sub-1e-15
    rounding in the log terms.
    """
    n, columns = bins.shape
    rows = np.arange(columns) * width + bins
    cells = (rows * class_count + classes[:, None]).ravel()
    counts = np.bincount(cells, minlength=columns * width * class_count)
    held = np.flatnonzero(np.bincount(rows.ravel(), minlength=columns * width))
    joint = counts.reshape(columns * width, class_count).take(held, axis=0) / n
    rows_per_column = np.bincount(held // width, minlength=columns)
    px = joint.sum(axis=1)
    py = _run_sums(joint, rows_per_column)
    i, j = np.divmod(np.flatnonzero(joint), class_count)
    column = np.repeat(np.arange(columns), rows_per_column)[i]
    p = joint[i, j]
    terms = p * (np.log(p) - np.log(px[i]) - np.log(py[column, j]))
    return np.maximum(_run_sums(terms, np.bincount(column, minlength=columns)), 0.0)


def mutual_information(x, y) -> float:
    """Mutual information between two discrete vectors, in nats.

    The one-column case of the formula ``score_features`` applies to every
    column; the result is clamped at zero.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"x and y must be equal-length vectors, got {x.shape} and {y.shape}")
    if x.size == 0:
        raise ValueError("cannot compute mutual information of empty vectors")
    xi, x_count = _distinct_codes(x)
    return float(_column_mi(xi[:, None], x_count, *_distinct_codes(y))[0])


# score_features takes as many columns at a time as fit this many (row,
# column) cells and this many joint-table cells, and at least one, so its
# memory grows with neither the feature count nor the bin count
BLOCK_CELLS = 2**16


def score_features(train: FeatureDataset, bin_count: int = 10) -> MiScores:
    """Score every feature: discretize it, then take MI against the labels.

    Columns are scored a block at a time, each block binned by one array
    expression and counted by one bincount, with the scores of one table
    per column bit for bit.
    """
    check_integer("bin_count", bin_count)
    classes, class_count = _distinct_codes(train.labels)
    n, features = train.features.shape
    # no column holds more than n distinct bins: past n bins, rank them
    width = min(bin_count, n)
    block = max(1, BLOCK_CELLS // max(n, width * class_count))
    scores = np.empty(features, dtype=np.float64)
    for start in range(0, features, block):
        bins = discretize(train.features[:, start:start + block], bin_count)
        if bin_count > n:
            bins = _dense_ranks(bins)
        scores[start:start + block] = _column_mi(bins, width, classes, class_count)
    return MiScores(scores=scores)


# the largest population x features a swarm may have: the baseline's
# per-iteration draw takes 24 B a cell (3 float64 uniforms), 1 GiB at the limit
MAX_SWARM_CELLS = 2**30 // 24


def check_swarm_size(population: int, n_features: int) -> None:
    """Reject a swarm of more than ``MAX_SWARM_CELLS`` particle bits.

    The one size check, made before any ``(population, n_features)`` array
    is drawn, so an oversized swarm is a ValueError, not gigabytes filled.
    """
    cells = population * n_features
    if cells > MAX_SWARM_CELLS:
        raise ValueError(
            f"population {population} x {n_features} features = {cells} swarm "
            f"cells exceeds the limit of {MAX_SWARM_CELLS} (24 B per cell per "
            "iteration)"
        )


# the share of the population that MI seeding biases toward the top
# quarter of the features
SEEDED_FRACTION = 0.2


def seed_masks(
    scores: MiScores, population: int, *, rng: np.random.Generator
) -> np.ndarray:
    """Build the initial particle positions, part MI-seeded, part uniform.

    Returns one ``(population, n)`` int8 array of 0/1 bits, row i for mask i.

    ``round(population * SEEDED_FRACTION)`` masks come first, rounding half
    up: the ``max(1, n // 4)`` highest-MI features are forced on and every
    other bit is Bernoulli(0.1), keeping seeded particles sparse.  The
    remaining masks are uniform Bernoulli(0.5).  Any all-zero mask is
    repaired by switching on its single highest-MI bit, so no emitted mask
    is empty.

    ``rng`` is required; one ``(population, n)`` uniform block is consumed,
    row i for mask i, which is the same stream as one length-n draw per
    mask in emission order.
    """
    check_integer("population", population)
    if population < 1:
        raise ValueError(f"population must be >= 1, got {population}")
    n = scores.feature_count
    check_swarm_size(population, n)
    n_seeded = int(population * SEEDED_FRACTION + 0.5)
    bit_rate = np.where(np.arange(population) < n_seeded, 0.1, 0.5)
    masks = (rng.random((population, n)) < bit_rate[:, None]).astype(np.int8)
    masks[:n_seeded, scores.ranking()[: max(1, n // 4)]] = 1
    masks[~masks.any(axis=1), np.argmax(scores.scores)] = 1
    return masks
