"""Pit the swarm against exhaustive enumeration on a small instance.

With 10 features all 1023 non-empty masks can be scored outright, giving
the true optimum.  The swarm should land on (or within a hair of) it from
most seeds while evaluating only a fraction of the subsets.
"""

from xorpso import (
    PsoConfig,
    SynthSpec,
    brute_force_best,
    generate_synthetic,
    run_seeded,
    score_features,
    selected_indices,
    standardize_split,
    stratified_split,
)


def main():
    ds = generate_synthetic(
        SynthSpec(n_samples=200, n_features=10, n_informative=3,
                  class_separation=2.0, seed=7)
    )
    split = standardize_split(stratified_split(ds, 0.2, seed=0))
    config = PsoConfig(population=20, iterations=30)

    oracle_mask, oracle_fitness = brute_force_best(split, config)
    print(f"exhaustive optimum: fitness {oracle_fitness:.6f}, "
          f"mask {selected_indices(oracle_mask)} "
          f"(planted: {list(ds.provenance.informative_indices)})")
    budget = config.population * (config.iterations + 1)
    print(f"swarm budget: {budget} evaluations vs 1023 exhaustive\n")

    scores = score_features(split.train, bin_count=10)
    matched = 0
    for seed in range(10):
        best, trace = run_seeded(split, scores, config, seed)
        gap = oracle_fitness - trace[-1].gbest_fitness
        hit = gap <= 0.02
        matched += hit
        print(f"seed {seed}: fitness {trace[-1].gbest_fitness:.6f} "
              f"(gap {gap:+.6f}) {'hit' if hit else 'miss'}")
    print(f"\nwithin 0.02 of the oracle on {matched}/10 seeds")


if __name__ == "__main__":
    main()
