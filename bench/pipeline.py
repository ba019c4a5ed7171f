"""One run of one benchmark workload, in a fresh process.

The run drives xorpso the way ``xorpso compare`` does, through the public
calls of the README quick start: generate the data, split and standardize
it, score features by mutual information, seed the masks, then run the XOR
optimizer (and on ``tall_sync_compare`` the sigmoid baseline from the same
masks), streaming every iteration through ``TraceWriter``.  The split seed
is fixed per workload; the run seed feeds ``SeedSequence(seed).spawn(3)``
for the seeding, XOR and baseline streams, as in the CLI.

Run as a script it prints one JSON object: the end-to-end metrics, the
output checks and, with ``--trace 1``, the per-layer metrics::

    python3 bench/pipeline.py --workload wide_xor --seed 0 --trace 0 --work DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from spans import Tracer, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_PATH = BENCH_DIR / "golden.json"

# the seed whose traces must match the digests in golden.json
DEFAULT_SEED = 0

VAL_FRACTION = 0.2
KNN_K = 5
MI_BINS = 10
THRESHOLD = 0.95


@dataclass(frozen=True)
class Workload:
    """A frozen instance: synthetic data spec, split seed and swarm settings."""

    synth: dict
    split_seed: int
    update_mode: str
    population: int
    iterations: int
    optimizers: tuple = ("xor",)


WORKLOADS = {
    "wide_xor": Workload(
        synth=dict(n_samples=400, n_features=64, n_informative=8, seed=19),
        split_seed=2, update_mode="asynchronous", population=30, iterations=50,
    ),
    "many_features": Workload(
        synth=dict(n_samples=120, n_features=2000, n_informative=20, seed=5),
        split_seed=1, update_mode="asynchronous", population=30, iterations=50,
    ),
    "tall_sync_compare": Workload(
        synth=dict(n_samples=800, n_features=32, n_informative=6,
                   class_separation=1.0, seed=11),
        split_seed=3, update_mode="synchronous", population=20, iterations=15,
        optimizers=("xor", "baseline"),
    ),
}


def trace_digest(lines) -> str:
    """SHA-256 of trace JSON lines with ``elapsed_ms`` dropped."""
    h = hashlib.sha256()
    for line in lines:
        record = json.loads(line)
        record.pop("elapsed_ms")
        h.update((json.dumps(record) + "\n").encode())
    return h.hexdigest()


def import_package():
    """Import xorpso from this checkout's ``src``, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import xorpso

    if Path(xorpso.__file__).resolve().parent != SRC / "xorpso":
        raise ImportError(f"xorpso imported from {xorpso.__file__}, not {SRC}")
    return xorpso


def run_once(name: str, seed: int, work_dir: Path, tracer: Tracer,
             trace_layers: bool = False) -> dict:
    """Run one workload once; return its end-to-end metrics and checks.

    Time starts before the package import, so the first call in a process
    includes it.  With ``trace_layers`` the four public calls are wrapped
    for the run's duration and ``tracer`` also collects their spans.
    """
    w = WORKLOADS[name]
    started = time.perf_counter()
    with tracer.span("xorpso.import"):
        xorpso = import_package()
        import numpy as np
    if trace_layers:
        tracer.install(xorpso)
    try:
        with tracer.span("data.generate"):
            dataset = xorpso.generate_synthetic(xorpso.SynthSpec(**w.synth))
        with tracer.span("data.split"):
            split = xorpso.standardize_split(
                xorpso.stratified_split(dataset, VAL_FRACTION, w.split_seed))
        with tracer.span("rank.score") as attrs:
            scores = xorpso.score_features(split.train, bin_count=MI_BINS)
            attrs["features"] = scores.feature_count
        with tracer.span("rank.seed"):
            seeding_rng, *swarm_rngs = (
                np.random.Generator(np.random.PCG64(child))
                for child in np.random.SeedSequence(seed).spawn(3)
            )
            masks = xorpso.seed_masks(scores, w.population, rng=seeding_rng)
        setup_done = time.perf_counter()

        settings = dict(population=w.population, iterations=w.iterations,
                        accuracy_threshold=THRESHOLD,
                        knn=xorpso.KnnConfig(k=KNN_K), update_mode=w.update_mode)
        runs = {}
        for optimizer, rng in zip(("xor", "baseline"), swarm_rngs):
            if optimizer not in w.optimizers:
                continue
            if optimizer == "xor":
                runner, config = xorpso.run_xor_pso, xorpso.PsoConfig(**settings)
            else:
                runner, config = (xorpso.run_baseline_bpso,
                                  xorpso.BaselineConfig(**settings))
            path = work_dir / f"trace_{optimizer}_{seed}.jsonl"
            with xorpso.TraceWriter(path) as writer:
                on_record = lambda record, state: writer.write(record)  # noqa: E731
                if trace_layers:
                    on_record = tracer.timed("swarm.on_record", on_record)
                with tracer.span(f"swarm.{optimizer}"):
                    best, trace = runner(split, config, masks, rng=rng,
                                         on_record=on_record)
            runs[optimizer] = (config, best, trace, path)
        finished = time.perf_counter()
    finally:
        tracer.unpatch()

    swarm_s = sum(s["end"] - s["start"] for s in tracer.spans
                  if s["name"] in ("swarm.xor", "swarm.baseline"))
    evals = sum(w.population * (len(trace) + 1) for _, _, trace, _ in runs.values())
    final = runs["xor"][2][-1]
    result = {
        "metrics": {
            "total_s": finished - started,
            "setup_s": setup_done - started,
            "evals_per_s": evals / swarm_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "final_fitness": final.gbest_fitness,
        },
    }
    result["failures"], result["digests"] = check_outputs(xorpso, split, runs, seed,
                                                          name)
    if trace_layers:
        result["layers"] = layer_metrics(
            tracer, [f"swarm.{o}" for o in runs], w.population)
        result["layers"]["swarm.final_selected"] = final.gbest_selected
    return result


def check_outputs(xorpso, split, runs, seed: int, name: str):
    """Checks that hold for every seed, plus the golden digests at the default seed.

    Returns one message per failed check, and each trace's digest.
    """
    failures = []
    digests = {}
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[name]
    for optimizer, (config, best, trace, path) in runs.items():
        lines = path.read_text(encoding="utf-8").splitlines()
        digests[optimizer] = trace_digest(lines)
        records = [json.loads(line) for line in lines]
        last = records[-1]
        _, fit = xorpso.evaluate_particle(best, split, config)
        if fit != last["gbest_fitness"]:
            failures.append(f"{optimizer}: best mask re-evaluates to {fit!r}, "
                            f"trace ends at {last['gbest_fitness']!r}")
        if xorpso.selected_count(best) != last["gbest_selected"]:
            failures.append(f"{optimizer}: best mask has {xorpso.selected_count(best)} "
                            f"bits set, trace says {last['gbest_selected']}")
        if len(records) != len(trace):
            failures.append(f"{optimizer}: {len(records)} trace lines for "
                            f"{len(trace)} iterations")
        fits = [r["gbest_fitness"] for r in records]
        if any(b < a for a, b in zip(fits, fits[1:])):
            failures.append(f"{optimizer}: gbest_fitness decreased")
        if seed == DEFAULT_SEED and digests[optimizer] != golden[optimizer]:
            failures.append(f"{optimizer}: trace digest differs from golden.json")
    return failures, digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True,
                        help="directory for the run's temporary files")
    parser.add_argument("--spans", type=Path,
                        help="with --trace 1, write the spans here as JSON lines")
    args = parser.parse_args(argv)
    tracer = Tracer()
    with tempfile.TemporaryDirectory(dir=args.work) as tmp:
        result = run_once(args.workload, args.seed, Path(tmp), tracer,
                          trace_layers=bool(args.trace))
    if args.trace and args.spans:
        tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
