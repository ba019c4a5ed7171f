"""Shared fixtures: hand-checkable datasets and a scripted RNG stub."""

import numpy as np
import pytest

from xorpso import (
    FeatureDataset,
    SplitDataset,
    SynthSpec,
    generate_synthetic,
    standardize_split,
    stratified_split,
)


class FixedRng:
    """Stand-in for numpy's Generator returning scripted uniform blocks.

    Each ``random(shape)`` call pops the next queued array and checks the
    requested shape, so a test can hand-compute exactly what an update rule
    must produce.
    """

    def __init__(self, blocks):
        self._blocks = [np.asarray(b, dtype=np.float64) for b in blocks]
        self.calls = 0

    def random(self, shape=None):
        if not self._blocks:
            raise AssertionError("FixedRng ran out of scripted blocks")
        block = self._blocks.pop(0)
        if shape is not None and tuple(np.atleast_1d(block).shape) != tuple(
            np.atleast_1d(np.empty(shape)).shape
        ):
            raise AssertionError(
                f"scripted block has shape {block.shape}, caller asked for {shape}"
            )
        self.calls += 1
        return block


@pytest.fixture
def fixed_rng_cls():
    return FixedRng


@pytest.fixture
def tiny_split():
    """Two-feature instance small enough to evaluate by hand.

    Feature 0 equals the label exactly; feature 1 is the constant 7.  With
    k=1, the mask [1, 0] classifies the validation rows perfectly, [0, 1]
    degenerates to always predicting the first training row's label, and
    [1, 1] matches [1, 0] because the constant column adds zero distance.
    """
    train = FeatureDataset(
        features=np.array([[1.0, 7.0], [1.0, 7.0], [0.0, 7.0], [1.0, 7.0]]),
        labels=np.array([1, 1, 0, 1]),
    )
    validation = FeatureDataset(
        features=np.array([[1.0, 7.0], [0.0, 7.0]]),
        labels=np.array([1, 0]),
    )
    return SplitDataset(train=train, validation=validation)


@pytest.fixture
def duplicate_column_split():
    """Both features are identical copies of the label.

    Every single-feature mask scores perfect accuracy, forcing fitness ties
    that exercise deterministic tie-breaking.
    """
    train = FeatureDataset(
        features=np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]]),
        labels=np.array([1, 1, 0, 1]),
    )
    validation = FeatureDataset(
        features=np.array([[1.0, 1.0], [0.0, 0.0]]),
        labels=np.array([1, 0]),
    )
    return SplitDataset(train=train, validation=validation)


@pytest.fixture
def synth_split():
    """Factory for standardized splits of freshly generated synthetic data."""

    def build(
        n_samples=60,
        n_features=6,
        n_informative=2,
        data_seed=0,
        split_seed=0,
        validation_fraction=0.2,
        class_separation=2.0,
        noise_std=1.0,
    ):
        dataset = generate_synthetic(
            SynthSpec(
                n_samples=n_samples,
                n_features=n_features,
                n_informative=n_informative,
                class_separation=class_separation,
                noise_std=noise_std,
                seed=data_seed,
            )
        )
        return standardize_split(
            stratified_split(dataset, validation_fraction, split_seed)
        )

    return build
