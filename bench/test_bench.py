"""Tests of the benchmark itself; run with ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pipeline  # noqa: E402
from spans import CDIST, EVALUATE, KNN, TRACE_WRITE, Tracer, layer_metrics  # noqa: E402

pipeline.import_package()
from xorpso import cli  # noqa: E402

# SynthSpec field -> key of the CLI's --synth spec
SYNTH_KEYS = {"n_samples": "n", "n_features": "f", "n_informative": "inf",
              "class_separation": "sep", "seed": "seed"}


def _records(path: Path) -> list[dict]:
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for record in records:
        record.pop("elapsed_ms")
    return records


def test_default_seed_traces_match_cli_compare(tmp_path):
    """The benchmark's call sequence gives the traces ``xorpso compare`` writes."""
    seed = pipeline.DEFAULT_SEED
    for name, w in pipeline.WORKLOADS.items():
        bench_dir = tmp_path / name / "bench"
        cli_dir = tmp_path / name / "cli"
        bench_dir.mkdir(parents=True)
        result = pipeline.run_once(name, seed, bench_dir, Tracer())
        assert result["failures"] == []
        synth = ",".join(f"{SYNTH_KEYS[k]}={v}" for k, v in w.synth.items())
        assert cli.main([
            "compare", "--synth", synth, "--seed", str(w.split_seed),
            "--seeds", str(seed), "--val-fraction", str(pipeline.VAL_FRACTION),
            "--knn-k", str(pipeline.KNN_K), "--bins", str(pipeline.MI_BINS),
            "--population", str(w.population), "--iterations", str(w.iterations),
            "--threshold", str(pipeline.THRESHOLD), "--update-mode", w.update_mode,
            "--out", str(cli_dir),
        ]) == 0
        for optimizer in w.optimizers:
            trace = f"trace_{optimizer}_{seed}.jsonl"
            assert _records(bench_dir / trace) == _records(cli_dir / trace), (name, trace)


def test_layer_without_calls_is_missing_not_zero():
    tracer = Tracer()
    with tracer.span("swarm.xor"):
        with tracer.span(EVALUATE, selected=3, mask="a"):
            with tracer.span(KNN):
                pass
        with tracer.span(TRACE_WRITE):
            pass
    metrics = layer_metrics(tracer, ["swarm.xor"], population=1)
    assert metrics["classify.evals"] == 1
    assert metrics["swarm.evals_requested"] == 1
    for name in ("classify.distance_s", "classify.select_vote_s",
                 "classify.distance_gflop", "swarm.velocity_s"):
        assert name not in metrics
    assert not any(s["name"] == CDIST for s in tracer.spans)


def test_run_fails_without_package_source(tmp_path):
    """Beside BENCHMARK.json and bench/ alone, run.py exits non-zero, printing no result."""
    shutil.copy(pipeline.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(pipeline.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "wide_xor", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_trace_digest_ignores_elapsed_ms():
    lines = ['{"iteration": 0, "elapsed_ms": 2.5}']
    assert pipeline.trace_digest(lines) == pipeline.trace_digest(
        ['{"iteration": 0, "elapsed_ms": 9.0}'])
    assert pipeline.trace_digest(lines) != pipeline.trace_digest(
        ['{"iteration": 1, "elapsed_ms": 2.5}'])
