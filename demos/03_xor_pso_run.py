"""One full XOR-PSO feature-selection run with its convergence trace.

The fitness is two-phase: a particle below the accuracy threshold scores
its raw validation accuracy (< 1), while a particle at or above it scores
2 - selected/total (> 1).  Watch the trace cross from the accuracy phase
into the sparsity phase and then shrink the subset.
"""

from xorpso import (
    PsoConfig,
    SynthSpec,
    evaluate_particle,
    generate_synthetic,
    run_seeded,
    score_features,
    selected_indices,
    standardize_split,
    stratified_split,
)


def main():
    ds = generate_synthetic(
        SynthSpec(n_samples=400, n_features=32, n_informative=6,
                  class_separation=2.0, seed=10)
    )
    split = standardize_split(stratified_split(ds, 0.2, seed=0))
    config = PsoConfig(population=24, iterations=40, accuracy_threshold=0.95)
    scores = score_features(split.train, bin_count=10)

    print(f"{'iter':>4} {'fitness':>9} {'accuracy':>9} {'selected':>9} {'inertia':>8}")
    last = None

    def show(record, state):
        nonlocal last
        key = (record.gbest_fitness, record.gbest_selected)
        if key != last or record.iteration in (0, config.iterations - 1):
            phase = "sparsity" if record.gbest_fitness > 1 else "accuracy"
            print(
                f"{record.iteration:>4} {record.gbest_fitness:>9.4f} "
                f"{record.gbest_accuracy:>9.4f} {record.gbest_selected:>9} "
                f"{record.inertia:>8.2f}  ({phase} phase)"
            )
        last = key

    best, trace = run_seeded(split, scores, config, 5, on_record=show)

    chosen = selected_indices(best)
    planted = list(ds.provenance.informative_indices)
    acc, fit = evaluate_particle(best, split, config)
    print()
    overlap = len(set(chosen) & set(planted))
    print(f"final mask: {chosen}  ({len(chosen)} of {split.feature_count} features)")
    print(f"planted informative columns: {planted}")
    print(f"{overlap} of the {len(chosen)} chosen columns are planted; past the "
          "threshold the optimizer keeps only as many as the accuracy bar needs")
    print(f"validation accuracy {acc:.4f}, fitness {fit:.4f}")


if __name__ == "__main__":
    main()
