"""Golden traces: pinned digests of short optimizer runs, and array-vs-row moves.

Each digest is the SHA-256 of a run's trace lines without ``elapsed_ms``
followed by the bytes of its best mask.  The runs are seeded as
``xorpso compare`` seeds them: ``SeedSequence(seed).spawn(3)`` gives the
seeding, XOR and baseline streams.  A refactor or fast path that changes
any trace value, or the order of the random draws, changes a digest.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_acceptance import SMALL_SPEC, SMALL_SPLIT_SEED, WIDE_SPEC, WIDE_SPLIT_SEED
from xorpso import (
    BaselineConfig,
    PsoConfig,
    generate_synthetic,
    position_update,
    run_baseline_bpso,
    run_xor_pso,
    score_features,
    seed_masks,
    standardize_split,
    stratified_split,
    xor_velocity_update,
)
from xorpso.swarm import baseline_move

POPULATION = 12
ITERATIONS = 12
# instance -> (spec, split seed, accuracy threshold); at 0.95 the small
# instance's initial population already holds the best mask 12 iterations
# can find, so its traces would not depend on the moves
SPECS = {
    "small": (SMALL_SPEC, SMALL_SPLIT_SEED, 0.9),
    "wide": (WIDE_SPEC, WIDE_SPLIT_SEED, 0.95),
}

GOLDEN = {
    "small/xor/asynchronous/0": "e0c301afda9937730ea4f7b181121a971316fbb25a195bcc78dcf072b38d8d9c",
    "small/xor/asynchronous/1": "4c440b8f679ffe3f6a9c1148cdb3cabbf952ebfe8edf05c9ec51d3809881baa2",
    "small/xor/asynchronous/2": "9e74730318ae7dc65f5b61aa916d8c271c4ab7ef3d7c34a3694999c9cf121fef",
    "small/xor/synchronous/0": "e0c301afda9937730ea4f7b181121a971316fbb25a195bcc78dcf072b38d8d9c",
    "small/xor/synchronous/1": "4c440b8f679ffe3f6a9c1148cdb3cabbf952ebfe8edf05c9ec51d3809881baa2",
    "small/xor/synchronous/2": "4c310e11d20d2468b746acb81b99751a9e4bcf414ffffb476e7377a2c338f643",
    "small/baseline/asynchronous/0": "107e3cad82524ec4fc2bb1c91fe6ad6c18785c539f611baec097fba4069db480",
    "small/baseline/asynchronous/1": "9244830a900f2595809cf2ee189471750869b4c844befb2b25d5a1dc2ad23593",
    "small/baseline/asynchronous/2": "9b79c186d613c3d3e62b1dbba922f136dd26d5c75807baf86d8b2fcfd8746d34",
    "small/baseline/synchronous/0": "107e3cad82524ec4fc2bb1c91fe6ad6c18785c539f611baec097fba4069db480",
    "small/baseline/synchronous/1": "9244830a900f2595809cf2ee189471750869b4c844befb2b25d5a1dc2ad23593",
    "small/baseline/synchronous/2": "9b79c186d613c3d3e62b1dbba922f136dd26d5c75807baf86d8b2fcfd8746d34",
    "wide/xor/asynchronous/0": "0151cd127d84af433d8f97303fd0cba34315fa387b22455044179ff1c9e9f53e",
    "wide/xor/asynchronous/1": "1d9a8a9b7ebd351e62440f98d8c3ec2b01f23cb4a119ede4667d1eeb9f10656d",
    "wide/xor/asynchronous/2": "1398268405e28c2b1d6bab200cd8c2dd730f3aa48386372e5ed7db5cf852511a",
    "wide/xor/synchronous/0": "1fc503dea7379c27973a09c40953cf18c80b792e857f92c5af9ef06c343fca6a",
    "wide/xor/synchronous/1": "656e9273d7429a0d60294cc72124a991e56615e55779e96d3c31b67a6fd7167a",
    "wide/xor/synchronous/2": "44364b1fdf0fa9cc5738872f553d66aeb98c388eb061f9aa76c9bcc6ffcbc572",
    "wide/baseline/asynchronous/0": "2c3e6a5f1814f64aa0698906650d6aa34377665b6a57416e7d78868ad0cd31e0",
    "wide/baseline/asynchronous/1": "56695e383256119f905f0baedf42e293fc63fe2c5a97d5f3fc79422478a573a5",
    "wide/baseline/asynchronous/2": "fbc594849c9582f9a30f269cc076f5165e9f9b45d0d2907e7b5ad0591ca925a9",
    "wide/baseline/synchronous/0": "76e52d3928762b1b7f7b8f7e03dc7c5295d66d1c84665a466068449bcb7b03e8",
    "wide/baseline/synchronous/1": "56695e383256119f905f0baedf42e293fc63fe2c5a97d5f3fc79422478a573a5",
    "wide/baseline/synchronous/2": "8af36d771a3faee540a182cdb5abc75cca2756bcdede56277069eeef8ee58707",
}


@pytest.fixture(scope="module")
def prepared():
    """Split and MI scores per instance, built once for all cases."""
    out = {}
    for name, (spec, split_seed, _) in SPECS.items():
        split = standardize_split(
            stratified_split(generate_synthetic(spec), 0.2, split_seed)
        )
        out[name] = (split, score_features(split.train, bin_count=10))
    return out


def _digest(trace, best) -> str:
    h = hashlib.sha256()
    for record in trace:
        row = record.to_dict()
        del row["elapsed_ms"]
        h.update((json.dumps(row) + "\n").encode())
    h.update(np.asarray(best, dtype=np.int8).tobytes())
    return h.hexdigest()


def _golden_run(prepared, instance, optimizer, mode, seed) -> str:
    split, scores = prepared[instance]
    seeding_rng, xor_rng, baseline_rng = (
        np.random.Generator(np.random.PCG64(child))
        for child in np.random.SeedSequence(seed).spawn(3)
    )
    masks = seed_masks(scores, POPULATION, rng=seeding_rng)
    shared = dict(
        population=POPULATION, iterations=ITERATIONS,
        accuracy_threshold=SPECS[instance][2], update_mode=mode,
    )
    workers = 2 if mode == "synchronous" else 1
    if optimizer == "xor":
        best, trace = run_xor_pso(
            split, PsoConfig(**shared), masks, rng=xor_rng, workers=workers
        )
    else:
        best, trace = run_baseline_bpso(
            split, BaselineConfig(**shared), masks, rng=baseline_rng,
            workers=workers,
        )
    return _digest(trace, best)


CASES = [
    (instance, optimizer, mode, seed)
    for instance in SPECS
    for optimizer in ("xor", "baseline")
    for mode in ("asynchronous", "synchronous")
    for seed in range(3)
]


@pytest.mark.parametrize("instance,optimizer,mode,seed", CASES)
def test_trace_matches_golden_digest(prepared, instance, optimizer, mode, seed):
    key = f"{instance}/{optimizer}/{mode}/{seed}"
    assert _golden_run(prepared, instance, optimizer, mode, seed) == GOLDEN[key]


# --- array moves equal row-by-row moves ----------------------------------

@st.composite
def _swarms(draw, columns):
    p = draw(st.integers(1, 6))
    n = draw(st.integers(1, 9))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    bits = lambda shape: (rng.random(shape) < 0.5).astype(np.int8)  # noqa: E731
    return (
        bits((p, n)),
        bits((p, n)),
        bits(n),
        rng.uniform(-6.0, 6.0, (p, n)),
        rng.random((p, n, columns)),
        draw(st.floats(0.0, 1.0)),
    )


@settings(max_examples=200, deadline=None)
@given(_swarms(columns=2))
def test_xor_move_on_matrix_equals_rows(swarm):
    x, pbest, gbest, real_v, u, w = swarm
    v = (real_v > 0).astype(np.int8)
    vel = xor_velocity_update(x, v, pbest, gbest, w, u)
    pos = position_update(x, vel)
    for i in range(x.shape[0]):
        row_vel = xor_velocity_update(x[i], v[i], pbest[i], gbest, w, u[i])
        assert np.array_equal(vel[i], row_vel)
        assert np.array_equal(pos[i], position_update(x[i], row_vel))


@settings(max_examples=200, deadline=None)
@given(_swarms(columns=3))
def test_baseline_move_on_matrix_equals_rows(swarm):
    x, pbest, gbest, v, u, w = swarm
    config = BaselineConfig()
    vel, pos = baseline_move(x, v, pbest, gbest, w, u, config)
    for i in range(x.shape[0]):
        row_vel, row_pos = baseline_move(x[i], v[i], pbest[i], gbest, w, u[i], config)
        assert np.array_equal(vel[i], row_vel)
        assert np.array_equal(pos[i], row_pos)
