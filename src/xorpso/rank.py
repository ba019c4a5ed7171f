"""Mutual-information feature scoring and swarm seeding.

Continuous features are discretized by equal-width binning, scored against
the labels with mutual information (natural log, nats), and the scores bias
part of the initial particle population toward the strongest features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FeatureDataset


@dataclass(frozen=True)
class MiScores:
    """Per-feature mutual information against the labels, in nats."""

    scores: np.ndarray

    def __post_init__(self):
        arr = np.array(self.scores, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("scores must be a 1-D vector")
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


def discretize(column, bin_count: int) -> np.ndarray:
    """Equal-width binning of a real vector over [min, max].

    The maximum value lands in the top bin; a constant column maps entirely
    to bin 0.
    """
    if bin_count < 2:
        raise ValueError(f"bin_count must be >= 2, got {bin_count}")
    col = np.asarray(column, dtype=np.float64)
    if not np.all(np.isfinite(col)):
        raise ValueError("column contains non-finite values")
    lo = col.min()
    hi = col.max()
    if hi == lo:
        return np.zeros(col.shape[0], dtype=np.int64)
    idx = np.floor((col - lo) * bin_count / (hi - lo)).astype(np.int64)
    return np.clip(idx, 0, bin_count - 1)


def mutual_information(x, y) -> float:
    """Mutual information between two discrete vectors, in nats.

    Probabilities are empirical frequencies; cells with zero joint
    probability contribute nothing.  The result is clamped at zero to
    absorb sub-1e-15 rounding in the log terms.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"x and y must be equal-length vectors, got {x.shape} and {y.shape}")
    if x.size == 0:
        raise ValueError("cannot compute mutual information of empty vectors")
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


def score_features(train: FeatureDataset, bin_count: int = 10) -> MiScores:
    """Score every feature: discretize it, then take MI against the labels."""
    scores = np.empty(train.feature_count, dtype=np.float64)
    for j in range(train.feature_count):
        binned = discretize(train.features[:, j], bin_count)
        scores[j] = mutual_information(binned, train.labels)
    return MiScores(scores=scores)


def seed_masks(
    scores: MiScores,
    population: int,
    seeded_fraction: float = 0.2,
    top_m: int | None = None,
    *,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Build the initial particle positions, part MI-seeded, part uniform.

    ``round(population * seeded_fraction)`` masks come first: the ``top_m``
    highest-MI features are forced on and every other bit is Bernoulli(0.1),
    keeping seeded particles sparse.  The remaining masks are uniform
    Bernoulli(0.5).  Any all-zero mask is repaired by switching on its
    single highest-MI bit, so no emitted mask is empty.

    Parameters
    ----------
    top_m : int, optional
        Defaults to a quarter of the feature count (at least 1).
    rng : numpy Generator
        Draw source, required; one ``(population, n)`` uniform block is
        consumed, row i for mask i, which is the same stream as one
        length-n draw per mask in emission order.
    """
    if population < 1:
        raise ValueError(f"population must be >= 1, got {population}")
    if not 0.0 <= seeded_fraction <= 1.0:
        raise ValueError(f"seeded_fraction must be in [0, 1], got {seeded_fraction}")
    n = scores.feature_count
    if top_m is None:
        top_m = max(1, n // 4)
    if not 1 <= top_m <= n:
        raise ValueError(f"top_m must be in [1, {n}], got {top_m}")

    n_seeded = int(population * seeded_fraction + 0.5)
    bit_rate = np.where(np.arange(population) < n_seeded, 0.1, 0.5)
    masks = (rng.random((population, n)) < bit_rate[:, None]).astype(np.int8)
    masks[:n_seeded, scores.ranking()[:top_m]] = 1
    masks[~masks.any(axis=1), np.argmax(scores.scores)] = 1
    return list(masks)
