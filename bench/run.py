"""Benchmark entry point: repeated fresh-process runs of one workload.

    python3 bench/run.py --workload wide_xor --seed 0 --seconds 35 --trace 0

Starts ``pipeline.py`` in a fresh process, one run at a time, until
``--seconds`` have passed (and at least ``MIN_RUNS`` runs are done), and
checks every run's outputs.  A fresh process per run makes every run pay the
package import, as a command-line user does.

With ``--trace 0`` the metrics are the ``end_to_end`` metrics of
BENCHMARK.json, each the median over the runs.  With ``--trace 1`` untraced
and traced runs alternate; the metrics are the ``per_layer`` ones, each the
median over the traced runs, and ``trace_overhead_share`` compares the
median traced ``total_s`` with the median untraced one.  A per-layer metric
that some traced run could not measure is left out.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every run passed its checks, 1 when one did not, and 2, with no result
printed, when the package source is not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"
PACKAGE = ROOT / "src" / "xorpso" / "__init__.py"

MIN_RUNS = 3
RUN_TIMEOUT_S = 120


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_child(workload: str, seed: int, traced: bool) -> dict:
    """One pipeline run in a fresh process; its result, or its failure."""
    cmd = [sys.executable, str(BENCH_DIR / "pipeline.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--work", str(WORK_DIR)]
    if traced:
        cmd += ["--spans", str(WORK_DIR / f"spans_{workload}.jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"failures": [f"run exceeded {RUN_TIMEOUT_S} s"]}
    if proc.returncode != 0:
        return {"failures": [f"run exited with {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}"]}
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"failures": [f"run printed no result: {proc.stdout[-200:]!r}"]}


def medians(results, key: str) -> dict:
    """Median of every metric under ``key`` that all ``results`` report."""
    names = set.intersection(*(set(r[key]) for r in results)) if results else set()
    return {n: statistics.median(r[key][n] for r in results) for n in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not PACKAGE.is_file():
        print(f"error: package source {PACKAGE} not found", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    WORK_DIR.mkdir(exist_ok=True)

    runs = {False: [], True: []}
    modes = (False, True) if args.trace else (False,)
    attempted = failed = 0
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or min(len(runs[m]) for m in modes) < MIN_RUNS:
        traced = modes[attempted % len(modes)]
        attempted += 1
        result = run_child(args.workload, args.seed, traced)
        if result["failures"]:
            failed += 1
            for failure in result["failures"]:
                print(f"check failed: {failure}", file=sys.stderr)
            break
        runs[traced].append(result)

    if args.trace:
        defined = spec["per_layer"]
        values = medians(runs[True], "layers")
        if runs[True] and runs[False]:
            values["trace_overhead_share"] = (
                medians(runs[True], "metrics")["total_s"]
                / medians(runs[False], "metrics")["total_s"] - 1.0)
    else:
        defined = spec["end_to_end"]
        values = medians(runs[False], "metrics")
    metrics = {}
    for m in defined:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        elif not failed:
            print(f"missing metric: {m['name']} (no call reached its wrapper)",
                  file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
