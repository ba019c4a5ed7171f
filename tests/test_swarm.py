"""XOR optimizer: update rules, driver invariants, oracle, and trace files."""

import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xorpso.classify
import xorpso.swarm

from xorpso import (
    BaselineConfig,
    FeatureDataset,
    IterationRecord,
    KnnConfig,
    PsoConfig,
    SplitDataset,
    SynthSpec,
    TraceWriter,
    brute_force_best,
    evaluate_particle,
    fitness,
    generate_synthetic,
    inertia_at,
    knn_accuracy,
    position_update,
    read_trace,
    run_baseline_bpso,
    run_seeded,
    run_xor_pso,
    score_features,
    seed_masks,
    selected_count,
    selected_indices,
    standardize_split,
    stratified_split,
    xor_velocity_update,
)
from xorpso.swarm import TRACE_FIELDS


def _bits(*values):
    return np.array(values, dtype=np.int8)


# --- fitness --------------------------------------------------------------

def test_fitness_above_threshold_rewards_sparsity():
    assert fitness(0.99, 163, 512, threshold=0.98) == 1.681640625


def test_fitness_below_threshold_is_accuracy():
    assert fitness(0.95, 163, 512, threshold=0.98) == 0.95
    assert fitness(0.95, 3, 512, threshold=0.98) == 0.95


def test_fitness_at_threshold_switches_phase():
    assert fitness(0.98, 5, 10, threshold=0.98) == 1.5


def test_fitness_empty_selection_is_sentinel():
    assert fitness(0.99, 0, 512, threshold=0.98) == -1.0


def test_fitness_sparser_wins_within_phase_two():
    crowded = fitness(0.99, 400, 512, threshold=0.98)
    sparse = fitness(0.985, 100, 512, threshold=0.98)
    assert sparse > crowded > 1.0


# --- truth tables ---------------------------------------------------------

def test_position_update_truth_table():
    for x in (0, 1):
        for v in (0, 1):
            out = position_update(
                np.array([x], dtype=np.int8), np.array([v], dtype=np.int8)
            )
            assert out[0] == (x ^ v)


def test_position_update_is_involution():
    rng = np.random.default_rng(0)
    x = (rng.random(32) < 0.5).astype(np.int8)
    v = (rng.random(32) < 0.5).astype(np.int8)
    assert np.array_equal(position_update(position_update(x, v), v), x)


def test_position_update_rejects_length_mismatch():
    with pytest.raises(ValueError):
        position_update(np.zeros(3, dtype=np.int8), np.zeros(2, dtype=np.int8))


# --- inertia schedule -----------------------------------------------------

def test_inertia_defaults_at_key_iterations():
    config = PsoConfig()
    assert inertia_at(0, config) == 1.0
    assert inertia_at(4, config) == 1.0
    assert inertia_at(5, config) == 0.95
    assert abs(inertia_at(99, config) - 0.05) < 1e-12


def test_inertia_clamps_at_floor():
    config = PsoConfig(w_initial=0.3)
    assert inertia_at(0, config) == 0.3
    assert abs(inertia_at(10, config) - 0.2) < 1e-12
    assert inertia_at(30, config) == 0.0
    assert inertia_at(1000, config) == 0.0


def test_inertia_rejects_negative_iteration():
    with pytest.raises(ValueError):
        inertia_at(-1, PsoConfig())


# --- velocity update, hand-computed ---------------------------------------

def test_velocity_update_by_hand():
    # u -> R1 = 2u-1 in [-1,1), R2 = u in [0,1); one (n, 2) block per particle
    u = np.array([[0.65, 0.4], [0.1, 0.9], [0.75, 0.5]])
    x, v, pbest = _bits(0, 1, 0), _bits(1, 0, 1), _bits(0, 0, 1)
    gbest = _bits(1, 1, 0)
    # disparities: pbest^x = [0,1,1], gbest^x = [1,0,0]
    # raw = 0.9*[1,0,1] + [0.3,-0.8,0.5]*[0,1,1] + [0.4,0.9,0.5]*[1,0,0]
    #     = [1.3, -0.8, 1.4]
    vel = xor_velocity_update(x, v, pbest, gbest, w=0.9, u=u)
    assert list(vel) == [1, 0, 1]
    assert list(position_update(x, vel)) == [1, 1, 1]


def test_velocity_update_with_pinned_r1_r2():
    # X=0, Pbest=1, Gbest=1, V=0, w=0.5 with R1=0.3 (u=0.65) and R2=0.4:
    # raw = 0.5*0 + 0.3*1 + 0.4*1 = 0.7 >= 0.5, so the bit flips on
    vel = xor_velocity_update(
        _bits(0), _bits(0), _bits(1), _bits(1), w=0.5, u=np.array([[0.65, 0.4]])
    )
    assert list(vel) == [1]


def test_velocity_threshold_is_inclusive():
    # zero disparities leave raw = w * v = 0.5 exactly, which flips the bit
    vel = xor_velocity_update(
        _bits(0), _bits(1), _bits(0), _bits(0), w=0.5, u=np.array([[0.0, 0.0]])
    )
    assert list(vel) == [1]


def test_velocity_r1_spans_negative_range():
    # u=0 maps to R1=-1: a pbest disparity alone can only push raw to -1
    x, v, pbest, gbest = _bits(0), _bits(0), _bits(1), _bits(0)
    vel = xor_velocity_update(x, v, pbest, gbest, w=1.0, u=np.array([[0.0, 0.7]]))
    assert list(vel) == [0]
    # u=1 maps to R1=+1 and the same disparity sets the bit
    vel = xor_velocity_update(x, v, pbest, gbest, w=1.0, u=np.array([[1.0, 0.7]]))
    assert list(vel) == [1]


def test_velocity_r2_is_non_negative_weight():
    # gbest disparity weighted by R2 = u in [0,1)
    x, v, pbest, gbest = _bits(0), _bits(0), _bits(0), _bits(1)
    below = xor_velocity_update(x, v, pbest, gbest, w=1.0, u=np.array([[0.5, 0.4]]))
    assert list(below) == [0]
    above = xor_velocity_update(x, v, pbest, gbest, w=1.0, u=np.array([[0.5, 0.6]]))
    assert list(above) == [1]


def test_velocity_update_rejects_length_mismatch():
    x = _bits(0, 1)
    with pytest.raises(ValueError):
        xor_velocity_update(x, _bits(0, 0), x, _bits(1), 1.0, np.zeros((2, 2)))


# --- config validation ----------------------------------------------------

def test_pso_config_validation():
    with pytest.raises(ValueError):
        PsoConfig(population=0)
    with pytest.raises(ValueError):
        PsoConfig(iterations=0)
    with pytest.raises(ValueError):
        PsoConfig(w_initial=0.0)
    with pytest.raises(ValueError):
        PsoConfig(w_initial=1.5)
    with pytest.raises(ValueError):
        PsoConfig(accuracy_threshold=0.0)
    with pytest.raises(ValueError):
        PsoConfig(update_mode="eventual")


@pytest.mark.parametrize("field", ["population", "iterations"])
@pytest.mark.parametrize("value", [2.5, 4.0, True])
def test_pso_config_rejects_a_non_integer_count(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        PsoConfig(**{field: value})
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        BaselineConfig(**{field: value})


@pytest.mark.parametrize("field", ["w_initial", "accuracy_threshold"])
@pytest.mark.parametrize("value", [True, "0.5", None])
def test_pso_config_rejects_a_non_real_setting(field, value):
    with pytest.raises(ValueError, match=f"{field} must be a real number"):
        PsoConfig(**{field: value})
    assert PsoConfig(**{field: np.float32(0.5)})


def test_pso_config_takes_numpy_integers(tiny_split):
    config = PsoConfig(population=np.int64(2), iterations=np.int32(3), knn=KnnConfig(k=1))
    masks = [[1, 0], [0, 1]]
    best, trace = run_xor_pso(tiny_split, config, masks, rng=np.random.default_rng(0))
    assert len(trace) == 3


def test_initial_mask_validation(tiny_split):
    config = PsoConfig(population=2, iterations=1, knn=KnnConfig(k=1))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="initial masks"):
        run_xor_pso(tiny_split, config, [np.array([1, 0], dtype=np.int8)], rng=rng)
    with pytest.raises(ValueError, match="shape"):
        run_xor_pso(
            tiny_split,
            config,
            [np.array([1, 0, 1], dtype=np.int8), np.array([1, 0], dtype=np.int8)],
            rng=rng,
        )
    # checked before the int8 cast, which would read 0.5 and 1.9 as bits
    for bad in ([2, 0], [0.5, 1], [1.9, 0], [float("nan"), 1]):
        with pytest.raises(ValueError, match="initial mask 0 has bits"):
            run_xor_pso(tiny_split, config, [bad, [1, 0]], rng=rng)


def test_initial_mask_array_is_checked_whole_and_copied(tiny_split):
    config = PsoConfig(population=3, iterations=1, knn=KnnConfig(k=1))
    masks = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.int8)
    for bad, row in ((2, 1), (-1, 2)):
        broken = masks.copy()
        broken[row, 0] = bad
        with pytest.raises(ValueError, match=f"initial mask {row} has bits"):
            run_xor_pso(tiny_split, config, broken, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"initial mask 2 has shape \(3,\)"):
        run_xor_pso(tiny_split, config, [[1, 0], [0, 1], [1, 1, 0]],
                    rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"initial mask 0 has shape \(3,\)"):
        run_xor_pso(tiny_split, config, np.ones((3, 3)), rng=np.random.default_rng(0))
    original = masks.copy()
    run_xor_pso(tiny_split, config, masks, rng=np.random.default_rng(0))
    assert np.array_equal(masks, original)


def test_generator_is_required(tiny_split):
    config = PsoConfig(population=1, iterations=1, knn=KnnConfig(k=1))
    with pytest.raises(TypeError, match="rng"):
        run_xor_pso(tiny_split, config, [np.array([1, 0], dtype=np.int8)])


# --- driver invariants ----------------------------------------------------

def _random_masks(rng, population, n_features):
    masks = (rng.random((population, n_features)) < 0.5).astype(np.int8)
    for row in masks:
        if row.sum() == 0:
            row[0] = 1
    return list(masks)


@pytest.mark.parametrize("mode", ["asynchronous", "synchronous"])
def test_run_invariants_and_trace_consistency(synth_split, mode):
    split = synth_split(n_samples=60, n_features=6, n_informative=2)
    config = PsoConfig(population=8, iterations=12, update_mode=mode)
    masks = _random_masks(np.random.default_rng(1), 8, 6)
    seen = []

    def check(record, state):
        seen.append(record)
        assert record.iteration == len(seen) - 1
        assert record.inertia == inertia_at(record.iteration, config)
        assert record.gbest_selected == selected_count(state.gbest_position)
        # the reported best reproduces exactly under re-evaluation
        acc, fit = evaluate_particle(state.gbest_position, split, config)
        assert fit == record.gbest_fitness
        assert acc == record.gbest_accuracy
        assert state.position.shape == state.velocity.shape == (8, 6)
        assert state.pbest_position.shape == (8, 6)
        assert state.pbest_fitness.shape == state.pbest_accuracy.shape == (8,)
        assert set(np.unique(state.position)) <= {0, 1}
        assert set(np.unique(state.velocity)) <= {0, 1}
        # the global best is one of the best personal bests
        tops = state.pbest_fitness == state.pbest_fitness.max()
        assert state.gbest_fitness == state.pbest_fitness.max()
        assert (state.pbest_position[tops] == state.gbest_position).all(axis=1).any()

    best, trace = run_xor_pso(
        split, config, masks, rng=np.random.default_rng(5), on_record=check
    )
    assert len(trace) == 12
    fits = [r.gbest_fitness for r in trace]
    assert all(b >= a for a, b in zip(fits, fits[1:]))
    final_acc, final_fit = evaluate_particle(best, split, config)
    assert final_fit == trace[-1].gbest_fitness
    assert final_acc == trace[-1].gbest_accuracy


@st.composite
def _small_runs(draw, config_cls, mode, n_samples=st.integers(20, 40)):
    """A small split, config and starting masks, some of them possibly empty."""
    n_features = draw(st.integers(2, 6))
    spec = SynthSpec(n_samples=draw(n_samples), n_features=n_features,
                     n_informative=draw(st.integers(1, n_features)),
                     seed=draw(st.integers(0, 2**16)))
    split = standardize_split(
        stratified_split(generate_synthetic(spec), 0.25, draw(st.integers(0, 2**16))))
    population = draw(st.integers(1, 5))
    config = config_cls(
        population=population, iterations=draw(st.integers(1, 6)),
        accuracy_threshold=draw(st.sampled_from([0.01, 0.7, 1.0])),
        knn=KnnConfig(k=draw(st.sampled_from([1, 3]))),
        update_mode=mode,
    )
    masks = draw(st.lists(
        st.lists(st.integers(0, 1), min_size=n_features, max_size=n_features),
        min_size=population, max_size=population))
    return split, config, masks, draw(st.integers(0, 2**16))


@pytest.mark.parametrize("mode", ["asynchronous", "synchronous"])
@pytest.mark.parametrize("optimizer", ["xor", "baseline"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_positions_and_xor_velocities_stay_binary_and_gbest_never_worsens(
        optimizer, mode, data):
    baseline = optimizer == "baseline"
    split, config, masks, seed = data.draw(
        _small_runs(BaselineConfig if baseline else PsoConfig, mode))
    bests = []

    def check(record, state):
        assert set(np.unique(state.position)) <= {0, 1}
        if not baseline:
            assert set(np.unique(state.velocity)) <= {0, 1}
        assert record.gbest_fitness == state.gbest_fitness
        bests.append(state.gbest_fitness)

    runner = run_baseline_bpso if baseline else run_xor_pso
    runner(split, config, masks, rng=np.random.default_rng(seed), on_record=check)
    assert len(bests) == config.iterations
    assert all(b >= a for a, b in zip(bests, bests[1:]))


# --- early stopping against full evaluation ---------------------------------

FULL_EVALUATE = xorpso.swarm.evaluate_particle


def _full_evaluation(mask, split, config, bar=None, **kwargs):
    """``evaluate_particle`` with the bar ignored, so every row is classified."""
    return FULL_EVALUATE(mask, split, config, **kwargs)


def _observed_run(runner, split, config, masks, seed):
    """The trace without ``elapsed_ms`` and a copy of the state at every record."""
    states = []

    def keep(record, state):
        states.append((record, {
            name: np.copy(getattr(state, name))
            for name in ("position", "velocity", "pbest_position", "pbest_fitness",
                         "pbest_accuracy", "gbest_position", "gbest_fitness",
                         "gbest_accuracy")}))

    best, trace = runner(split, config, masks, rng=np.random.default_rng(seed),
                         on_record=keep)
    assert [record for record, _ in states] == trace
    return best, _without_elapsed(trace), [state for _, state in states]


def _assert_same_runs(got, want):
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1]
    for got_state, want_state in zip(got[2], want[2], strict=True):
        for name, value in want_state.items():
            assert np.array_equal(got_state[name], value), name


@pytest.mark.parametrize("mode", ["asynchronous", "synchronous"])
@pytest.mark.parametrize("optimizer", ["xor", "baseline"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_early_stopping_driver_equals_full_evaluation(optimizer, mode, data):
    baseline = optimizer == "baseline"
    # 45 to 50 validation rows: two chunks, so an evaluation can stop early
    split, config, masks, seed = data.draw(_small_runs(
        BaselineConfig if baseline else PsoConfig, mode,
        n_samples=st.integers(180, 200)))
    if data.draw(st.booleans()):
        masks[data.draw(st.integers(0, len(masks) - 1))] = [0] * split.feature_count
    runner = run_baseline_bpso if baseline else run_xor_pso
    got = _observed_run(runner, split, config, masks, seed)
    with mock.patch.object(xorpso.swarm, "evaluate_particle", _full_evaluation):
        want = _observed_run(runner, split, config, masks, seed)
    _assert_same_runs(got, want)


def _tall_run_inputs(synth_split):
    """A 40-row validation set and masks whose swarm stops some evaluations."""
    split = synth_split(n_samples=200, n_features=8, n_informative=2,
                        class_separation=0.8)
    masks = _random_masks(np.random.default_rng(4), 6, 8)
    masks[2][:] = 0
    return split, masks


@pytest.mark.parametrize("mode", ["asynchronous", "synchronous"])
def test_stopped_evaluations_reach_no_best_trace_or_callback(synth_split, mode):
    split, masks = _tall_run_inputs(synth_split)
    config = PsoConfig(population=6, iterations=8, update_mode=mode)
    results = []

    def recording(*args, **kwargs):
        results.append(FULL_EVALUATE(*args, **kwargs))
        return results[-1]

    with mock.patch.object(xorpso.swarm, "evaluate_particle", recording):
        got = _observed_run(run_xor_pso, split, config, masks, 0)
    assert 0 < results.count(None) < len(results)
    # every best the callback saw is a full evaluation of its mask
    for state in got[2]:
        for mask, accuracy, fit in zip(state["pbest_position"], state["pbest_accuracy"],
                                       state["pbest_fitness"]):
            assert evaluate_particle(mask, split, config) == (accuracy, fit)
        assert evaluate_particle(state["gbest_position"], split, config) == (
            state["gbest_accuracy"], state["gbest_fitness"])
    with mock.patch.object(xorpso.swarm, "evaluate_particle", _full_evaluation):
        want = _observed_run(run_xor_pso, split, config, masks, 0)
    _assert_same_runs(got, want)


@pytest.mark.parametrize("mode", ["asynchronous", "synchronous"])
def test_every_nonempty_mask_reaches_the_wrapped_calls(synth_split, mode):
    # a benchmark wraps these three module globals by name and counts calls
    split, masks = _tall_run_inputs(synth_split)
    config = PsoConfig(population=6, iterations=5, update_mode=mode)
    evaluations, knn_calls, cdist_rows = [], [], []

    def wrap(module, name, log, entry):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            result = inner(*args, **kwargs)
            log.append(entry(args, result))
            return result

        return mock.patch.object(module, name, wrapper)

    with wrap(xorpso.swarm, "evaluate_particle", evaluations,
              lambda args, result: (selected_count(args[0]), result)), \
         wrap(xorpso.swarm, "knn_accuracy", knn_calls, lambda args, result: result), \
         wrap(xorpso.classify, "cdist", cdist_rows, lambda args, result: len(args[0])):
        run_xor_pso(split, config, masks, rng=np.random.default_rng(0))
    assert len(evaluations) == config.population * (config.iterations + 1)
    nonempty = [result for selected, result in evaluations if selected]
    assert len(nonempty) < len(evaluations)
    assert len(knn_calls) == len(nonempty)
    assert len(cdist_rows) >= len(nonempty)
    # an evaluation stopped early (None) reaches knn_accuracy too
    assert sum(result is None for result in knn_calls) == nonempty.count(None) > 0


@pytest.mark.parametrize("mode", ["asynchronous", "synchronous"])
def test_every_evaluation_of_a_run_updates_one_miss_count_array(synth_split, mode):
    split, masks = _tall_run_inputs(synth_split)
    config = PsoConfig(population=6, iterations=5, update_mode=mode)
    arrays, deltas = [], []
    inner = xorpso.swarm.knn_accuracy

    def wrapper(*args, misses, **kwargs):
        before = misses.copy()
        result = inner(*args, misses=misses, **kwargs)
        arrays.append(misses)
        deltas.append(misses - before)
        return result

    with mock.patch.object(xorpso.swarm, "knn_accuracy", wrapper):
        run_xor_pso(split, config, masks, rng=np.random.default_rng(0))
    assert arrays and all(array is arrays[0] for array in arrays)
    assert arrays[0].shape == (split.validation.sample_count,)
    assert arrays[0].sum() > 0
    # no other evaluation runs during a call, so each delta is its own
    assert np.array_equal(np.sum(deltas, axis=0), arrays[0])
    assert all(delta.min() >= 0 and delta.max() <= 1 for delta in deltas)


def test_evaluation_without_a_bar_classifies_every_row(synth_split, monkeypatch):
    split, _ = _tall_run_inputs(synth_split)
    rows = []
    cdist = xorpso.classify.cdist

    def counting(valid, *args, **kwargs):
        rows.append(len(valid))
        return cdist(valid, *args, **kwargs)

    monkeypatch.setattr(xorpso.classify, "cdist", counting)
    mask = np.ones(8, dtype=np.int8)
    acc, fit = evaluate_particle(mask, split, PsoConfig())
    assert sum(rows) == split.validation.sample_count == 40
    assert acc == knn_accuracy(split, mask, KnnConfig())


def test_bar_at_the_full_fitness_stops_and_below_it_does_not(synth_split):
    split, _ = _tall_run_inputs(synth_split)
    phases = set()
    for threshold in (0.5, 0.99):
        config = PsoConfig(accuracy_threshold=threshold)
        for bits in ([1, 1, 0, 0, 0, 0, 0, 0], [0, 0, 0, 1, 1, 1, 0, 0], [1] * 8):
            mask = np.array(bits, dtype=np.int8)
            full = evaluate_particle(mask, split, config)
            # equal fitness never replaces a best, so it is not worth finishing;
            # above the threshold no accuracy beats it, so it runs in full
            above = full[0] >= threshold
            phases.add(above)
            at_bar = evaluate_particle(mask, split, config, full[1])
            assert at_bar == (full if above else None)
            below = np.nextafter(full[1], -np.inf)
            assert evaluate_particle(mask, split, config, below) == full
            # no accuracy beats a bar of 2, so the evaluation runs in full
            assert evaluate_particle(mask, split, config, 2.0) == full
    assert phases == {False, True}


TARGET_SPLIT = standardize_split(stratified_split(
    generate_synthetic(SynthSpec(n_samples=40, n_features=6, n_informative=2, seed=7)),
    0.25, 3))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_stop_target_is_the_first_count_whose_fitness_beats_the_bar(data):
    split, n = TARGET_SPLIT, TARGET_SPLIT.feature_count
    n_val = split.validation.sample_count
    mask = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)
                              .filter(any)), dtype=np.int8)
    selected = selected_count(mask)
    threshold = data.draw(st.one_of(
        st.floats(0.0, 1.0, exclude_min=True),
        st.integers(1, n_val).map(lambda c: c / n_val)))
    config = PsoConfig(accuracy_threshold=threshold)
    fits = [fitness(c / n_val, selected, n, threshold) for c in range(n_val + 1)]
    # bars on a count's fitness, one ulp either side of it, or anywhere
    bar = data.draw(st.one_of(
        st.just(-np.inf),
        st.sampled_from(fits),
        st.tuples(st.sampled_from(fits), st.sampled_from([-np.inf, np.inf]))
        .map(lambda pair: np.nextafter(*pair)),
        st.floats(-1.0, 2.0),
    ))
    targets = []
    inner = xorpso.swarm.knn_accuracy

    def spy(split, mask, config, target=0, **kwargs):
        targets.append(target)
        return inner(split, mask, config, target, **kwargs)

    with mock.patch.object(xorpso.swarm, "knn_accuracy", spy):
        evaluate_particle(mask, split, config, bar)
    # no count beats the bar: target 0, the evaluation runs in full
    assert targets == [next((c for c, fit in enumerate(fits) if fit > bar), 0)]


def test_same_seed_reproduces_different_seed_diverges(synth_split):
    split = synth_split(n_samples=60, n_features=6, n_informative=2)
    config = PsoConfig(population=6, iterations=10)
    masks = _random_masks(np.random.default_rng(2), 6, 6)

    def run(seed):
        best, trace = run_xor_pso(
            split, config, masks, rng=np.random.default_rng(seed)
        )
        return list(best), [
            (r.iteration, r.gbest_fitness, r.gbest_selected) for r in trace
        ]

    assert run(3) == run(3)
    assert run(3) != run(4)


# --- seeded runs ----------------------------------------------------------

def _without_elapsed(trace):
    return [(r.iteration, r.gbest_fitness, r.gbest_accuracy, r.gbest_selected,
             r.inertia) for r in trace]


@pytest.mark.parametrize("mode", ["asynchronous", "synchronous"])
@pytest.mark.parametrize("optimizer", ["xor", "baseline"])
def test_run_seeded_equals_the_explicit_stream_sequence(synth_split, optimizer, mode):
    # on this instance every case's trace depends on which stream drives it,
    # so a swapped stream shows
    split = synth_split(n_samples=80, n_features=16, n_informative=3)
    scores = score_features(split.train)
    cls = BaselineConfig if optimizer == "baseline" else PsoConfig
    config = cls(population=6, iterations=6, update_mode=mode)
    for seed in (0, 1):
        seeding, xor_rng, baseline_rng = (
            np.random.Generator(np.random.PCG64(child))
            for child in np.random.SeedSequence(seed).spawn(3)
        )
        masks = seed_masks(scores, 6, rng=seeding)
        if optimizer == "baseline":
            best, trace = run_baseline_bpso(split, config, masks, rng=baseline_rng)
        else:
            best, trace = run_xor_pso(split, config, masks, rng=xor_rng)
        seen = []
        got_best, got_trace = run_seeded(
            split, scores, config, seed,
            on_record=lambda record, state: seen.append(record),
        )
        assert np.array_equal(got_best, best)
        assert _without_elapsed(got_trace) == _without_elapsed(trace)
        assert seen == got_trace


@pytest.mark.parametrize(
    "seed, message",
    [(True, "seed must be an integer"), (1.5, "seed must be an integer"),
     (np.float64(2.0), "seed must be an integer"), (-1, "seed must be >= 0, got -1")],
)
def test_run_seeded_rejects_a_seed_that_is_not_a_non_negative_integer(
    synth_split, seed, message
):
    split = synth_split()
    scores = score_features(split.train)
    with pytest.raises(ValueError, match=message):
        run_seeded(split, scores, PsoConfig(population=4, iterations=2), seed)


@pytest.mark.parametrize("optimizer", ["xor", "baseline"])
def test_oversized_swarm_is_rejected_before_the_driver_allocates(synth_split, optimizer):
    split = synth_split(n_samples=60, n_features=6, n_informative=2)
    config = (BaselineConfig if optimizer == "baseline" else PsoConfig)(
        population=10**8, iterations=1)
    runner = run_baseline_bpso if optimizer == "baseline" else run_xor_pso
    # checked before the initial masks, so none need to exist
    with pytest.raises(ValueError, match="600000000 swarm cells exceeds the limit"):
        runner(split, config, [], rng=np.random.default_rng(0))


def test_initial_population_is_evaluated_before_first_iteration(tiny_split):
    # the optimum [1, 0] is present from the start, so iteration 0 must
    # already report it and no later iteration can move away
    config = PsoConfig(population=2, iterations=4, knn=KnnConfig(k=1))
    masks = [np.array([1, 0], dtype=np.int8), np.array([0, 1], dtype=np.int8)]
    best, trace = run_xor_pso(tiny_split, config, masks, rng=np.random.default_rng(0))
    assert all(r.gbest_fitness == 1.5 for r in trace)
    assert evaluate_particle(best, tiny_split, config)[1] == 1.5


def test_tied_fitness_keeps_incumbent_best(duplicate_column_split):
    # both single-bit masks score 1.5; the first one seen must stay gbest
    config = PsoConfig(population=2, iterations=6, knn=KnnConfig(k=1))
    masks = [np.array([1, 0], dtype=np.int8), np.array([0, 1], dtype=np.int8)]
    best, trace = run_xor_pso(
        duplicate_column_split, config, masks, rng=np.random.default_rng(8)
    )
    assert list(best) == [1, 0]
    assert trace[-1].gbest_fitness == 1.5


def test_lone_particle_is_a_fixed_point(synth_split):
    # with one particle, pbest == gbest == position, both disparities vanish,
    # and the zero-initialized velocity can never reach the 0.5 threshold
    split = synth_split(n_samples=40, n_features=5, n_informative=2)
    config = PsoConfig(population=1, iterations=8)
    start = np.array([1, 0, 1, 0, 0], dtype=np.int8)
    best, trace = run_xor_pso(split, config, [start], rng=np.random.default_rng(3))
    assert np.array_equal(best, start)
    assert len({r.gbest_fitness for r in trace}) == 1


def test_all_zero_initial_masks_are_the_bests_of_the_run(synth_split):
    # -1 beats the -inf a best starts at, so every all-zero initial mask
    # becomes its particle's personal best; with zero disparities and zero
    # velocity no particle moves, so the run ends on an empty global best
    split = synth_split(n_samples=40, n_features=6, n_informative=2)
    config = PsoConfig(population=3, iterations=1)
    pbests = []
    best, trace = run_xor_pso(
        split, config, np.zeros((3, 6), dtype=np.int8), rng=np.random.default_rng(0),
        on_record=lambda record, state: pbests.append(
            (state.pbest_fitness.copy(), state.pbest_position.copy())),
    )
    pbest_fitness, pbest_position = pbests[0]
    assert list(pbest_fitness) == [-1.0] * 3
    assert not pbest_position.any()
    assert (trace[-1].gbest_fitness, trace[-1].gbest_selected) == (-1.0, 0)
    assert not best.any()


# --- evaluate_particle ----------------------------------------------------

def test_evaluate_composes_accuracy_and_fitness(tiny_split):
    config = PsoConfig(knn=KnnConfig(k=1))
    mask = np.array([1, 0], dtype=np.int8)
    acc, fit = evaluate_particle(mask, tiny_split, config)
    assert acc == knn_accuracy(tiny_split, mask, config.knn)
    assert fit == fitness(acc, 1, 2, config.accuracy_threshold)


def test_evaluate_empty_mask_returns_sentinel(tiny_split):
    acc, fit = evaluate_particle(
        np.array([0, 0], dtype=np.int8), tiny_split, PsoConfig(knn=KnnConfig(k=1))
    )
    assert (acc, fit) == (0.0, -1.0)


def test_all_ones_mask_on_exactly_separable_data():
    from xorpso import SynthSpec, generate_synthetic, standardize_split, stratified_split

    ds = generate_synthetic(SynthSpec(40, 6, 2, class_separation=2.0, noise_std=0.0))
    split = standardize_split(stratified_split(ds, 0.25, 0))
    config = PsoConfig(knn=KnnConfig(k=1))
    acc, fit = evaluate_particle(np.ones(6, dtype=np.int8), split, config)
    assert acc == 1.0
    assert fit == 1.0  # 2 - 6/6: perfect accuracy, zero sparsity credit


def test_selected_helpers():
    mask = np.array([0, 1, 0, 1, 1], dtype=np.int8)
    assert selected_count(mask) == 3
    assert selected_indices(mask) == [1, 3, 4]


# --- exhaustive oracle ----------------------------------------------------

def test_brute_force_finds_known_optimum(tiny_split):
    config = PsoConfig(knn=KnnConfig(k=1))
    mask, fit = brute_force_best(tiny_split, config)
    assert list(mask) == [1, 0]
    assert fit == 1.5


def test_brute_force_with_permissive_threshold():
    # with threshold 0.5 the constant feature must stay below threshold
    # (accuracy 1/3 here), so [1, 0] is the unique optimum at 2 - 1/2
    train = FeatureDataset(
        features=np.array([[1.0, 7.0], [1.0, 7.0], [0.0, 7.0], [1.0, 7.0]]),
        labels=[1, 1, 0, 1],
    )
    validation = FeatureDataset(
        features=np.array([[1.0, 7.0], [0.0, 7.0], [0.0, 7.0]]),
        labels=[1, 0, 0],
    )
    split = SplitDataset(train=train, validation=validation)
    config = PsoConfig(knn=KnnConfig(k=1), accuracy_threshold=0.5)
    mask, fit = brute_force_best(split, config)
    assert list(mask) == [1, 0]
    assert fit == 1.5
    _, constant_only = evaluate_particle(
        np.array([0, 1], dtype=np.int8), split, config
    )
    assert constant_only == pytest.approx(1 / 3)


def test_brute_force_breaks_ties_deterministically(duplicate_column_split):
    # [1,0] and [0,1] tie at 1.5 with one bit each; the lexicographically
    # smaller bit vector wins
    config = PsoConfig(knn=KnnConfig(k=1))
    mask, fit = brute_force_best(duplicate_column_split, config)
    assert fit == 1.5
    assert list(mask) == [0, 1]


def test_brute_force_prefers_fewer_features_on_tied_fitness(tiny_split):
    # fitness ordering alone already prefers [1,0] (1.5) over [1,1] (1.0);
    # confirm the oracle agrees with direct evaluation of all masks
    config = PsoConfig(knn=KnnConfig(k=1))
    mask, fit = brute_force_best(tiny_split, config)
    for m in ([1, 0], [0, 1], [1, 1]):
        _, other = evaluate_particle(np.array(m, dtype=np.int8), tiny_split, config)
        assert fit >= other


def test_brute_force_guard_refuses_wide_datasets():
    wide = FeatureDataset(features=np.zeros((2, 21)), labels=[0, 1])
    split = SplitDataset(train=wide, validation=wide)
    with pytest.raises(ValueError, match="20"):
        brute_force_best(split, PsoConfig(knn=KnnConfig(k=1)))


def test_brute_force_matches_exhaustive_reference(synth_split):
    split = synth_split(n_samples=40, n_features=5, n_informative=2)
    config = PsoConfig(knn=KnnConfig(k=3))
    mask, fit = brute_force_best(split, config)
    best = max(
        evaluate_particle(
            np.array([(m >> j) & 1 for j in range(5)], dtype=np.int8), split, config
        )[1]
        for m in range(1, 32)
    )
    assert fit == best
    assert evaluate_particle(mask, split, config)[1] == fit


@pytest.mark.parametrize("threshold", [0.5, 0.9, 1.0])
def test_brute_force_skips_only_masks_that_cannot_tie_the_best(synth_split, threshold):
    split = synth_split(n_samples=60, n_features=6, n_informative=2)
    config = PsoConfig(knn=KnnConfig(k=3), accuracy_threshold=threshold)
    masks = [np.array([(m >> j) & 1 for j in range(6)], dtype=np.int8)
             for m in range(1, 64)]
    # reference: every mask evaluated, the smallest (-fitness, selected, bits) wins
    want_key, want_mask = min(
        ((-evaluate_particle(mask, split, config)[1], selected_count(mask), tuple(mask)),
         mask) for mask in masks)
    evaluated = []

    def recording(mask, *args):
        evaluated.append(tuple(mask))
        return evaluate_particle(mask, *args)

    with mock.patch.object(xorpso.swarm, "evaluate_particle", recording):
        mask, fit = brute_force_best(split, config)
    assert (fit, list(mask)) == (-want_key[0], list(want_mask))
    # a mask left out has a ceiling below the best fitness
    for skipped in {tuple(m) for m in masks} - set(evaluated):
        assert 2.0 - sum(skipped) / 6 < fit
    if fit > 1:
        assert len(evaluated) < len(masks)


# --- trace serialization --------------------------------------------------

def _records():
    return [
        IterationRecord(0, 0.9, 0.9, 4, 1.0, 12.5),
        IterationRecord(1, 1.5, 0.99, 3, 1.0, 11.25),
    ]


def _write(records, path):
    with TraceWriter(path) as writer:
        for record in records:
            writer.write(record)


def test_trace_round_trip(tmp_path):
    path = tmp_path / "trace.jsonl"
    _write(_records(), path)
    assert read_trace(path) == _records()


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.builds(IterationRecord, st.integers(), FINITE, FINITE,
                          st.integers(), FINITE, FINITE), min_size=1, max_size=5))
def test_any_finite_records_survive_a_trace_round_trip(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        _write(records, path)
        assert read_trace(path) == records
        keys = [tuple(json.loads(line))
                for line in path.read_text(encoding="utf-8").splitlines()]
        assert keys == [TRACE_FIELDS] * len(records)


def test_trace_line_key_order(tmp_path):
    path = tmp_path / "trace.jsonl"
    _write(_records(), path)
    first = path.read_text().splitlines()[0]
    assert list(json.loads(first).keys()) == list(TRACE_FIELDS)


def test_record_to_dict_field_order():
    d = _records()[0].to_dict()
    assert list(d.keys()) == [
        "iteration",
        "gbest_fitness",
        "gbest_accuracy",
        "gbest_selected",
        "inertia",
        "elapsed_ms",
    ]


def test_reader_drops_unterminated_final_line(tmp_path):
    path = tmp_path / "trace.jsonl"
    _write(_records(), path)
    full = path.read_text()
    # even a syntactically complete final line is suspect without a newline
    path.write_text(full.rstrip("\n"))
    assert read_trace(path) == _records()[:1]
    # a half-written fragment is likewise dropped
    path.write_text(full + '{"iteration": 2, "gbest_f')
    assert read_trace(path) == _records()


def test_reader_rejects_malformed_interior_line(tmp_path):
    path = tmp_path / "trace.jsonl"
    lines = [json.dumps(r.to_dict()) for r in _records()]
    # not JSON, then JSON values that are not objects
    for bad in ["not json", "5", "null", "[1, 2]", '"x"']:
        path.write_text(lines[0] + "\n" + bad + "\n" + lines[1] + "\n")
        with pytest.raises(ValueError, match="malformed trace line 2"):
            read_trace(path)


@pytest.mark.parametrize("name", TRACE_FIELDS)
def test_reader_rejects_a_field_of_the_wrong_type(tmp_path, name):
    path = tmp_path / "trace.jsonl"
    good = [json.dumps(r.to_dict()) for r in _records()]
    # every field refuses a bool; a count refuses a float too
    integral = name in ("iteration", "gbest_selected")
    for value in ["1", None, [1], {}, True, *([2.0] if integral else [])]:
        bad = json.dumps({**_records()[0].to_dict(), name: value})
        path.write_text(f"{good[0]}\n{bad}\n{good[1]}\n")
        with pytest.raises(ValueError, match=f"malformed trace line 2: {name} must be"):
            read_trace(path)


def test_reader_rejects_missing_fields(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"iteration": 0}\n')
    with pytest.raises(ValueError, match="line 1"):
        read_trace(path)


def test_reader_handles_empty_file(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text("")
    assert read_trace(path) == []


def test_trace_writer_streams_complete_lines(tmp_path):
    path = tmp_path / "trace.jsonl"
    records = _records()
    with TraceWriter(path) as writer:
        writer.write(records[0])
        # flushed immediately: the file is already readable mid-run
        assert read_trace(path) == records[:1]
        writer.write(records[1])
    assert read_trace(path) == records


def test_trace_writer_without_records_makes_no_file(tmp_path):
    # a run rejected before its first iteration must not leave a trace file
    path = tmp_path / "trace.jsonl"
    with TraceWriter(path):
        pass
    assert not path.exists()


def test_math_sanity_of_example_record():
    # 2 - 3/6 with accuracy above threshold
    assert fitness(0.99, 3, 6, 0.98) == 1.5
    assert math.isclose(fitness(0.99, 163, 512, 0.98), 2 - 163 / 512)
