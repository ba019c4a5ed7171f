"""Head-to-head: XOR velocity update vs. the classic sigmoid-transfer update.

Both optimizers get the identical split, identical starting populations,
and the same budget on every seed; only the movement rule differs.  The
XOR variant usually compresses harder once past the accuracy threshold.
"""

import statistics

from xorpso import (
    BaselineConfig,
    PsoConfig,
    SynthSpec,
    generate_synthetic,
    run_seeded,
    score_features,
    standardize_split,
    stratified_split,
)


def main():
    ds = generate_synthetic(
        SynthSpec(n_samples=400, n_features=48, n_informative=8,
                  class_separation=2.0, seed=19)
    )
    split = standardize_split(stratified_split(ds, 0.2, seed=2))
    shared = dict(population=24, iterations=40, accuracy_threshold=0.95)
    configs = {"xor": PsoConfig(**shared), "baseline": BaselineConfig(**shared)}
    scores = score_features(split.train, bin_count=10)

    finals = {name: [] for name in configs}
    print(f"{'seed':>4}  {'xor fit':>9} {'sel':>4}   {'base fit':>9} {'sel':>4}")
    for seed in range(5):
        row = {}
        for name, config in configs.items():
            # the same seed gives both optimizers the same starting masks
            _, trace = run_seeded(split, scores, config, seed)
            finals[name].append(trace[-1])
            row[name] = trace[-1]
        print(
            f"{seed:>4}  {row['xor'].gbest_fitness:>9.4f} "
            f"{row['xor'].gbest_selected:>4}   "
            f"{row['baseline'].gbest_fitness:>9.4f} "
            f"{row['baseline'].gbest_selected:>4}"
        )

    print()
    for name, records in finals.items():
        print(
            f"{name:>8}: median fitness "
            f"{statistics.median(r.gbest_fitness for r in records):.4f}, "
            f"median selected "
            f"{statistics.median(r.gbest_selected for r in records):g} of 48"
        )


if __name__ == "__main__":
    main()
