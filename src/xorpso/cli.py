"""Command-line driver for reproducible feature-selection runs.

Subcommands
-----------
select
    Run one optimizer (``xor``, ``baseline``, or ``oracle``) on a CSV or
    synthetic dataset; writes ``trace.jsonl``, ``result.json``, and
    ``selected.csv`` into the output directory.
compare
    Run the XOR optimizer and the sigmoid baseline over a list of seeds on
    the identical split; writes per-run traces and ``summary.csv``.
mi-report
    Rank every feature by mutual information with the label; writes
    ``mi.csv`` sorted by score.
synth-gen
    Materialize a synthetic dataset as ``synth.csv`` plus its provenance
    sidecar.

Configuration is resolved as: command-line flag > ``--config`` JSON file >
built-in default.  A ``result.json`` from a previous run can be passed
straight to ``--config``; its embedded config echo reproduces the run.
Traces stream to disk one line per iteration; every other output file is
written atomically.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import typing
from dataclasses import dataclass, asdict, fields
from pathlib import Path

from .classify import KnnConfig
from .data import (
    FeatureDataset,
    SplitDataset,
    SynthSpec,
    check_integer,
    generate_synthetic,
    load_dataset,
    require_two_classes,
    save_dataset,
    standardize_split,
    stratified_split,
    write_atomic,
)
from .rank import MiScores, score_features
from .swarm import (
    ASYNCHRONOUS,
    SYNCHRONOUS,
    BaselineConfig,
    PsoConfig,
    TraceWriter,
    brute_force_best,
    evaluate_particle,
    run_seeded,
    selected_indices,
)

DEFAULT_SEED = 42

OPTIMIZERS = ("xor", "baseline", "oracle")


class CliError(ValueError):
    """User-facing configuration or input problem; printed without a traceback."""


@dataclass
class RunConfig:
    """Flat, JSON-serializable record of everything that defines a run.

    Each field is one ``select`` flag (dashes as underscores) so flag
    values, config files, and the ``result.json`` echo merge mechanically;
    a config key with no flag is rejected.  Swarm and k-NN defaults are the
    library's: ``threshold`` is ``accuracy_threshold`` and ``knn_k`` is
    ``KnnConfig.k``.  The baseline runs at the fixed coefficients and
    velocity clamp of :mod:`xorpso.swarm` (``C1``, ``C2``, ``V_CLAMP``), and
    MI seeding at the fixed settings of :func:`xorpso.rank.seed_masks`.
    """

    data: str | None = None
    label_column: str = "label"
    synth: str | None = None
    optimizer: str = "xor"
    population: int = PsoConfig.population
    iterations: int = PsoConfig.iterations
    w_initial: float = PsoConfig.w_initial
    threshold: float = PsoConfig.accuracy_threshold
    knn_k: int = KnnConfig.k
    val_fraction: float = 0.2
    seed: int = DEFAULT_SEED
    bins: int = 10
    out: str = "."
    update_mode: str = PsoConfig.update_mode

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise CliError(
                f"optimizer must be one of {', '.join(OPTIMIZERS)}, "
                f"got {self.optimizer!r}"
            )
        check_integer("seed", self.seed, CliError, minimum=0)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, values: dict) -> "RunConfig":
        annotations = typing.get_type_hints(cls)
        unknown = sorted(set(values) - set(annotations))
        if unknown:
            # quoted, so a key holding a newline cannot split the error line
            raise CliError(f"unknown config key(s): {', '.join(map(repr, unknown))}")
        for key, value in values.items():
            _check_type(key, value, annotations[key])
        return cls(**values)

    def swarm_config(self, optimizer: str) -> PsoConfig:
        """A :class:`BaselineConfig` for ``"baseline"``, else a :class:`PsoConfig`."""
        cls = BaselineConfig if optimizer == "baseline" else PsoConfig
        # swarm-config fields with a RunConfig namesake are copied by name
        shared = {
            f.name: getattr(self, f.name) for f in fields(cls) if hasattr(self, f.name)
        }
        return cls(
            **shared, accuracy_threshold=self.threshold, knn=KnnConfig(k=self.knn_k)
        )


def _check_type(key: str, value, annotation) -> None:
    """Reject a config value of a type its field does not allow.

    The check is on the exact type, so ``true`` is never an int; an int is
    accepted where a float is expected.
    """
    expected = typing.get_args(annotation) or (annotation,)
    allowed = set(expected) | ({int} if float in expected else set())
    if type(value) not in allowed:
        names = " or ".join("null" if t is type(None) else t.__name__ for t in expected)
        raise CliError(f"config key {key!r} must be {names}, got {value!r}")


# synth spec key -> (SynthSpec field, conversion)
SYNTH_KEYS = {
    "n": ("n_samples", int), "f": ("n_features", int), "inf": ("n_informative", int),
    "sep": ("class_separation", float), "noise": ("noise_std", float),
    "seed": ("seed", int),
}


def parse_synth(text: str) -> SynthSpec:
    """Parse a ``key=value`` synthetic-data spec.

    Required keys: ``n`` (samples), ``f`` (features), ``inf`` (informative
    count).  Optional: ``sep`` (class separation), ``noise`` (noise std),
    ``seed`` (independent of the run seed so re-seeding an optimizer never
    changes the data); an absent one takes its :class:`SynthSpec` default.
    A key given twice is an error.
    """
    values, repeated = {}, set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise CliError(f"synth spec {text!r}: expected key=value, got {part!r}")
        key, _, raw = part.partition("=")
        key = key.strip()
        if key in values:
            repeated.add(key)
        values[key] = raw.strip()
    if repeated:
        raise CliError(f"synth spec {text!r}: repeated key(s) {', '.join(sorted(repeated))}")
    unknown = sorted(set(values) - set(SYNTH_KEYS))
    if unknown:
        raise CliError(f"synth spec {text!r}: unknown key(s) {', '.join(unknown)}")
    missing = sorted({"n", "f", "inf"} - set(values))
    if missing:
        raise CliError(f"synth spec {text!r}: missing key(s) {', '.join(missing)}")
    try:
        return SynthSpec(**{
            name: convert(values[key])
            for key, (name, convert) in SYNTH_KEYS.items()
            if key in values
        })
    except ValueError as exc:
        raise CliError(f"synth spec {text!r}: {exc}") from None


def _load_config_file(path: str) -> dict:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise CliError(
            f"config file {path} is not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    except json.JSONDecodeError as exc:
        raise CliError(f"config file {path} is not valid JSON: {exc}") from None
    if isinstance(obj, dict) and isinstance(obj.get("config"), dict):
        obj = obj["config"]  # a result.json works directly as a config file
    if not isinstance(obj, dict):
        raise CliError(f"config file {path} must hold a JSON object")
    return obj


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Lay the flags over the config file's values; RunConfig fills in the rest."""
    config_path = getattr(args, "config", None)
    values = {} if config_path is None else _load_config_file(config_path)
    RunConfig.from_dict(values)  # a bad file value is an error even under a flag
    values.update(
        (f.name, getattr(args, f.name)) for f in fields(RunConfig)
        if getattr(args, f.name, None) is not None
    )
    return RunConfig.from_dict(values)


def _load_or_generate(config: RunConfig) -> FeatureDataset:
    if (config.data is None) == (config.synth is None):
        raise CliError("exactly one of --data and --synth is required")
    if config.data is not None:
        return load_dataset(config.data, label_column=config.label_column)
    return generate_synthetic(parse_synth(config.synth))


def _prepare(config: RunConfig) -> tuple[SplitDataset, MiScores]:
    """Load, split and MI-score the data."""
    dataset = _load_or_generate(config)
    split = standardize_split(stratified_split(dataset, config.val_fraction, config.seed))
    return split, score_features(split.train, bin_count=config.bins)


def _traced_run(split, scores, swarm_config, seed, trace_path):
    """One :func:`run_seeded` run, streaming its trace to ``trace_path``.

    Returns the best mask, the trace and the run's wall time in ms, the
    initial evaluation included.
    """
    with TraceWriter(trace_path) as writer:
        started = time.perf_counter()
        mask, trace = run_seeded(
            split, scores, swarm_config, seed,
            on_record=lambda record, state: writer.write(record),
        )
        return mask, trace, (time.perf_counter() - started) * 1000.0


def cmd_select(config: RunConfig) -> int:
    swarm_config = config.swarm_config(config.optimizer)
    split, scores = _prepare(config)
    out_dir = Path(config.out)
    trace_path = out_dir / "trace.jsonl"

    if config.optimizer == "oracle":
        started = time.perf_counter()
        mask, best_fitness = brute_force_best(split, swarm_config)
        wall_ms = (time.perf_counter() - started) * 1000.0
        accuracy, _ = evaluate_particle(mask, split, swarm_config)
        write_atomic(trace_path, "")  # no iterations to trace
        iterations_run = 0
    else:
        mask, trace, wall_ms = _traced_run(
            split, scores, swarm_config, config.seed, trace_path
        )
        final = trace[-1]
        best_fitness, accuracy = final.gbest_fitness, final.gbest_accuracy
        iterations_run = len(trace)

    indices = selected_indices(mask)
    result = {
        "selected_indices": indices,
        "selected_count": len(indices),
        "feature_count": split.feature_count,
        "fitness": best_fitness,
        "accuracy": accuracy,
        "seed": config.seed,
        "optimizer": config.optimizer,
        "iterations_run": iterations_run,
        "wall_ms": wall_ms,
        "config": config.to_dict(),
    }
    write_atomic(out_dir / "result.json", json.dumps(result, indent=2) + "\n")
    lines = ["index,feature,mi_score"]
    lines += [f"{j},f{j},{float(scores.scores[j])!r}" for j in indices]
    write_atomic(out_dir / "selected.csv", "\n".join(lines) + "\n")
    print(
        f"{config.optimizer}: fitness={best_fitness:.6f} accuracy={accuracy:.4f} "
        f"selected={len(indices)}/{split.feature_count} -> {out_dir / 'result.json'}"
    )
    return 0


def cmd_compare(config: RunConfig, seeds: list[int]) -> int:
    if not seeds:
        raise CliError("compare needs at least one seed")
    finals = {"xor": [], "baseline": []}
    swarm_configs = {name: config.swarm_config(name) for name in finals}
    # one split for every run: differences in the summary come from the
    # optimizers and their seeds, never from resampled data
    split, scores = _prepare(config)
    out_dir = Path(config.out)
    for seed in seeds:
        for optimizer, swarm_config in swarm_configs.items():
            _, trace, wall_ms = _traced_run(
                split, scores, swarm_config, seed,
                out_dir / f"trace_{optimizer}_{seed}.jsonl",
            )
            finals[optimizer].append((trace[-1], wall_ms))

    lines = ["optimizer,runs,median_fitness,median_accuracy,median_selected,mean_wall_ms"]
    for optimizer, runs in finals.items():
        last = [final for final, _ in runs]
        median_fitness = statistics.median(r.gbest_fitness for r in last)
        median_accuracy = statistics.median(r.gbest_accuracy for r in last)
        median_selected = statistics.median(r.gbest_selected for r in last)
        mean_wall = statistics.mean(wall_ms for _, wall_ms in runs)
        lines.append(
            f"{optimizer},{len(runs)},{median_fitness!r},{median_accuracy!r},"
            f"{median_selected!r},{mean_wall!r}"
        )
        print(
            f"{optimizer}: median_fitness={median_fitness:.6f} "
            f"median_accuracy={median_accuracy:.4f} "
            f"median_selected={median_selected:g} over {len(runs)} seed(s)"
        )
    write_atomic(out_dir / "summary.csv", "\n".join(lines) + "\n")
    print(f"wrote {out_dir / 'summary.csv'}")
    return 0


def cmd_mi_report(config: RunConfig) -> int:
    dataset = _load_or_generate(config)
    require_two_classes(dataset)  # one class carries no information to rank by
    scores = score_features(dataset, bin_count=config.bins)
    out_dir = Path(config.out)
    lines = ["rank,feature_index,feature,score"]
    for rank, j in enumerate(scores.ranking()):
        lines.append(f"{rank},{j},f{j},{float(scores.scores[j])!r}")
    write_atomic(out_dir / "mi.csv", "\n".join(lines) + "\n")
    top = scores.ranking()[0]
    print(
        f"wrote {out_dir / 'mi.csv'} ({scores.feature_count} features, "
        f"top: f{top}={scores.scores[top]:.6f})"
    )
    return 0


def cmd_synth_gen(config: RunConfig) -> int:
    if config.synth is None:
        raise CliError("synth-gen requires --synth")
    spec = parse_synth(config.synth)
    dataset = generate_synthetic(spec)
    target = Path(config.out) / "synth.csv"
    save_dataset(dataset, target)
    informative = dataset.provenance.informative_indices
    print(
        f"wrote {target} ({spec.n_samples} samples, {spec.n_features} features, "
        f"{len(informative)} informative)"
    )
    return 0


def _add_synth_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--synth",
        help="synthetic data spec, e.g. n=400,f=64,inf=8"
        f"[,sep={SynthSpec.class_separation}][,noise={SynthSpec.noise_std}]"
        f"[,seed={SynthSpec.seed}]",
    )
    parser.add_argument("--config", help="JSON config file (flags override it)")
    parser.add_argument("--out", help="output directory (default: current directory)")


def _add_data_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", help="CSV dataset path")
    parser.add_argument("--label-column", help="label column name (default: label)")
    _add_synth_flags(parser)


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--population", type=int, help="swarm size")
    parser.add_argument("--iterations", type=int, help="iteration count")
    parser.add_argument("--w-initial", type=float, help="starting inertia weight")
    parser.add_argument("--threshold", type=float, help="accuracy threshold")
    parser.add_argument("--knn-k", type=int, help="k for the k-NN evaluator (odd)")
    parser.add_argument("--val-fraction", type=float, help="validation fraction")
    parser.add_argument("--seed", type=int, help="run seed")
    parser.add_argument("--bins", type=int, help="discretization bins for MI")
    parser.add_argument(
        "--update-mode",
        choices=[ASYNCHRONOUS, SYNCHRONOUS],
        help="global-best update discipline",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xorpso",
        description="Wrapper feature selection with XOR-based binary particle swarms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_select = sub.add_parser("select", help="run one optimizer and save its result")
    _add_data_flags(p_select)
    _add_run_flags(p_select)
    p_select.add_argument(
        "--optimizer", choices=list(OPTIMIZERS), help="xor, baseline, or oracle"
    )

    p_compare = sub.add_parser(
        "compare", help="run XOR and baseline optimizers across seeds"
    )
    _add_data_flags(p_compare)
    _add_run_flags(p_compare)
    p_compare.add_argument(
        "--seeds", help="comma-separated run seeds (default: the single run seed)"
    )

    p_mi = sub.add_parser("mi-report", help="rank features by mutual information")
    _add_data_flags(p_mi)
    p_mi.add_argument("--bins", type=int, help="discretization bins for MI")

    p_synth = sub.add_parser("synth-gen", help="write a synthetic dataset to disk")
    _add_synth_flags(p_synth)
    return parser


def _parse_seeds(args: argparse.Namespace, config: RunConfig) -> list[int]:
    raw = getattr(args, "seeds", None)
    if raw is None:
        return [config.seed]
    try:
        seeds = [int(part.strip()) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise CliError(f"--seeds must be comma-separated integers, got {raw!r}") from None
    # each seed writes its own traces, so a repeat would overwrite one
    if min(seeds, default=0) < 0 or len(set(seeds)) != len(seeds):
        raise CliError(f"--seeds must be distinct and >= 0, got {raw!r}")
    return seeds


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
        if args.command == "select":
            return cmd_select(config)
        if args.command == "compare":
            return cmd_compare(config, _parse_seeds(args, config))
        if args.command == "mi-report":
            return cmd_mi_report(config)
        return cmd_synth_gen(config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # e.g. a synthetic spec whose matrix cannot be allocated
        print(f"error: not enough memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
