"""Sigmoid-transfer baseline optimizer: transfer function, clamping, driver behavior."""

import numpy as np
import pytest

from xorpso import (
    BaselineConfig,
    KnnConfig,
    PsoConfig,
    evaluate_particle,
    run_baseline_bpso,
    run_xor_pso,
    sigmoid,
)
from xorpso.swarm import C1, C2, V_CLAMP


# --- transfer function ----------------------------------------------------

def test_sigmoid_at_zero_is_half():
    assert sigmoid(0.0) == 0.5


def test_sigmoid_at_clamp_bound():
    assert abs(sigmoid(4.0) - 0.9820137900379085) < 1e-15
    assert abs(sigmoid(-4.0) - (1.0 - 0.9820137900379085)) < 1e-15


def test_sigmoid_symmetry_and_monotonicity():
    v = np.linspace(-6, 6, 25)
    s = sigmoid(v)
    assert np.allclose(s + sigmoid(-v), 1.0, atol=1e-15)
    assert np.all(np.diff(s) > 0)
    assert np.all((s > 0) & (s < 1))


# --- config ---------------------------------------------------------------

def test_baseline_defaults():
    assert (C1, C2, V_CLAMP) == (2.0, 2.0, 4.0)


def test_baseline_config_validation():
    with pytest.raises(ValueError):
        BaselineConfig(population=0)


def test_baseline_requires_its_own_config(tiny_split):
    masks = [np.array([1, 0], dtype=np.int8)]
    with pytest.raises(TypeError):
        run_baseline_bpso(
            tiny_split,
            PsoConfig(population=1, iterations=1, knn=KnnConfig(k=1)),
            masks,
            rng=np.random.default_rng(0),
        )


# --- scripted single steps ------------------------------------------------

def test_position_resampled_through_sigmoid(fixed_rng_cls, tiny_split):
    # a lone particle has zero disparities, so velocity stays 0 and each bit
    # is redrawn with probability sigmoid(0) = 0.5 against column 2 of the
    # iteration's (P, n, 3) uniform block
    config = BaselineConfig(population=1, iterations=1, knn=KnnConfig(k=1))
    rng = fixed_rng_cls([[[[0.9, 0.9, 0.3], [0.9, 0.9, 0.7]]]])
    captured = {}

    def grab(record, state):
        captured["position"] = state.position[0].copy()
        captured["velocity"] = state.velocity[0].copy()

    run_baseline_bpso(
        tiny_split,
        config,
        [np.array([1, 1], dtype=np.int8)],
        rng=rng,
        on_record=grab,
    )
    assert list(captured["position"]) == [1, 0]
    assert list(captured["velocity"]) == [0.0, 0.0]


def test_velocity_clamped_exactly(fixed_rng_cls, duplicate_column_split):
    # particle B sits at [0,1] with gbest [1,0]; R1=0 and R2=1 add
    # C2*(gbest - x) = [2, -2] each iteration, and inertia 1 carries the
    # velocity to [4, -4] and then to a raw [6, -6], which must land exactly
    # on the clamp bound
    config = BaselineConfig(population=2, iterations=3, knn=KnnConfig(k=1))
    # A stays at [1,0] with zero velocity: u < sigmoid(0) keeps bit 0, not bit 1
    stay_a = [[0.5, 0.5, 0.01], [0.5, 0.5, 0.99]]

    def block(b_sample):
        return [stay_a, [[0.0, 1.0, b_sample[0]], [0.0, 1.0, b_sample[1]]]]

    # B stays at [0,1] for two iterations: 0.99 >= sigmoid(4) clears bit 0,
    # 0.01 < sigmoid(-4) sets bit 1
    rng = fixed_rng_cls([block([0.99, 0.01]), block([0.99, 0.01]), block([0.5, 0.5])])
    velocities, positions = [], []

    def grab(record, state):
        velocities.append(list(state.velocity[1]))
        positions.append(list(state.position[1]))

    masks = [np.array([1, 0], dtype=np.int8), np.array([0, 1], dtype=np.int8)]
    run_baseline_bpso(duplicate_column_split, config, masks, rng=rng, on_record=grab)
    assert velocities == [[2.0, -2.0], [4.0, -4.0], [4.0, -4.0]]
    # sampling: u=0.5 < sigmoid(4) sets the bit, 0.5 < sigmoid(-4) does not
    assert positions == [[0, 1], [0, 1], [1, 0]]


# --- driver invariants ----------------------------------------------------

def _random_masks(rng, population, n_features):
    masks = (rng.random((population, n_features)) < 0.5).astype(np.int8)
    for row in masks:
        if row.sum() == 0:
            row[0] = 1
    return list(masks)


@pytest.mark.parametrize("mode", ["asynchronous", "synchronous"])
def test_baseline_invariants(synth_split, mode):
    split = synth_split(n_samples=60, n_features=6, n_informative=2)
    config = BaselineConfig(population=8, iterations=10, update_mode=mode)
    masks = _random_masks(np.random.default_rng(4), 8, 6)

    def check(record, state):
        assert set(np.unique(state.position)) <= {0, 1}
        assert state.velocity.dtype == np.float64
        assert np.all(np.abs(state.velocity) <= V_CLAMP)
        acc, fit = evaluate_particle(state.gbest_position, split, config)
        assert fit == record.gbest_fitness
        assert acc == record.gbest_accuracy

    best, trace = run_baseline_bpso(
        split, config, masks, rng=np.random.default_rng(11), on_record=check
    )
    fits = [r.gbest_fitness for r in trace]
    assert all(b >= a for a, b in zip(fits, fits[1:]))
    assert evaluate_particle(best, split, config)[1] == trace[-1].gbest_fitness


def test_baseline_is_deterministic(synth_split):
    split = synth_split(n_samples=60, n_features=6, n_informative=2)
    config = BaselineConfig(population=6, iterations=8, update_mode="synchronous")
    masks = _random_masks(np.random.default_rng(7), 6, 6)

    def run():
        best, trace = run_baseline_bpso(
            split, config, masks, rng=np.random.default_rng(13)
        )
        return list(best), [
            (r.gbest_fitness, r.gbest_accuracy, r.gbest_selected) for r in trace
        ]

    assert run() == run()


def test_both_optimizers_accept_the_same_starting_population(synth_split):
    # a shared starting population is what makes head-to-head comparisons fair
    split = synth_split(n_samples=40, n_features=5, n_informative=2)
    masks = _random_masks(np.random.default_rng(9), 5, 5)
    xor_best, xor_trace = run_xor_pso(
        split,
        PsoConfig(population=5, iterations=5),
        masks,
        rng=np.random.default_rng(1),
    )
    base_best, base_trace = run_baseline_bpso(
        split,
        BaselineConfig(population=5, iterations=5),
        masks,
        rng=np.random.default_rng(1),
    )
    # both start from the same evaluated population, so the iteration-0
    # records can only improve on the same initial best
    assert len(xor_trace) == len(base_trace) == 5
