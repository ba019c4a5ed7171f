"""Every benchmark metric of every workload, over several seeds.

    python3 bench/report.py --seeds 0-9
    python3 bench/report.py --seeds 0-9 --write bench/baseline.json

For each workload, runs ``bench/run.py --trace 0`` once per seed, as the
benchmark command, and prints each end-to-end metric with its unit: the
median over seeds, the quartiles, their spread as a share of the median next
to the metric's bound, and the sample count.  ``fail_share`` is the share of
pipeline runs that raised or failed an output check.  Then one traced run
per workload, at the first seed, gives the per-layer table and checks the
role each workload was chosen for.  ``--write`` saves all of it, with the
machine it ran on, as JSON.  The exit code is 1 when any run failed or any
role check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# (workload, metric expected to be larger, metric expected to be smaller)
ROLE_CHECKS = (
    ("wide_xor", "classify.select_vote_s", "classify.distance_s"),
    ("tall_sync_compare", "classify.select_vote_s", "classify.distance_s"),
    ("many_features", "classify.distance_s", "classify.select_vote_s"),
)
SETUP_PHASES_MS = ("data.generate_ms", "data.split_ms", "rank.score_ms", "rank.seed_ms")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else {}
    return proc.returncode, result


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return ""


def machine() -> dict:
    """The machine and software the numbers come from (Linux)."""
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "")
    return {
        "cpu": model or platform.processor(),
        "nproc": os.cpu_count(),
        "l2_per_core": _read("/sys/devices/system/cpu/cpu0/cache/index2/size").strip(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def setup_share_of_score(layers: dict) -> float:
    """``rank.score_ms`` as a share of the traced set-up time."""
    setup_s = layers["xorpso.import_s"] + sum(layers[k] for k in SETUP_PHASES_MS) / 1e3
    return layers["rank.score_ms"] / 1e3 / setup_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-9"),
                        help="seeds as a list and ranges, e.g. 0-9 or 0,3,5")
    parser.add_argument("--write", type=Path, help="save the report as JSON here")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    ok = True
    report = {"machine": machine(), "run_seconds": seconds, "seeds": args.seeds,
              "workloads": {}}
    for name in names:
        attempted = failed = 0
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in args.seeds:
            code, result = bench(name, seed, seconds, 0)
            ok &= code == 0 and result.get("correct", False)
            attempted += result.get("attempted", 1)
            failed += result.get("failed", 1)
            for metric, value in result.get("metrics", {}).items():
                values[metric].append(value["value"])
        table = {}
        print(f"\n{name}: {len(args.seeds)} seeds, {attempted} runs of "
              f"{seconds} s each, fail_share {failed / attempted:.3g} "
              f"({failed}/{attempted})")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                print(f"  {m['name']:<16} missing")
                continue
            q1, _, q3 = statistics.quantiles(v, n=4)
            median = statistics.median(v)
            spread = (q3 - q1) / median
            table[m["name"]] = {"unit": m["unit"], "better": m["better"],
                                "median": median, "q1": q1, "q3": q3,
                                "spread": spread, "bound": m["bound"], "n": len(v),
                                "values": v}
            flag = "" if spread < m["bound"] / 3 else "  <- spread above bound/3"
            print(f"  {m['name']:<16} {median:>12.5g} {m['unit']:<8} "
                  f"q1 {q1:.5g}  q3 {q3:.5g}  spread {spread:.3f} "
                  f"(bound {m['bound']})  n={len(v)}{flag}")

        code, traced = bench(name, args.seeds[0], seconds, 1)
        ok &= code == 0 and traced.get("correct", False)
        layers = {k: v["value"] for k, v in traced.get("metrics", {}).items()}
        print(f"  per-layer, traced, seed {args.seeds[0]}:")
        for m in spec["per_layer"]:
            shown = (f"{layers[m['name']]:.6g} {m['unit']}" if m["name"] in layers
                     else "missing")
            print(f"    {m['name']:<26} {shown}")
        report["workloads"][name] = {
            "attempted": attempted, "failed": failed,
            "fail_share": failed / attempted, "end_to_end": table,
            "per_layer": {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                          for m in spec["per_layer"] if m["name"] in layers},
        }

    roles = {}
    layers = {n: {k: v["value"] for k, v in w["per_layer"].items()}
              for n, w in report["workloads"].items()}
    # a role whose metrics are missing fails
    for name, larger, smaller in ROLE_CHECKS:
        lay = layers[name]
        roles[f"{name}: {larger} > {smaller}"] = (
            larger in lay and smaller in lay and lay[larger] > lay[smaller])
    setup_keys = ("xorpso.import_s", *SETUP_PHASES_MS)
    shares = {n: setup_share_of_score(lay) for n, lay in layers.items()
              if all(k in lay for k in setup_keys)}
    roles["many_features: rank.score_ms is the largest share of set-up"] = (
        len(shares) == len(layers) and max(shares, key=shares.get) == "many_features")
    report["roles"] = roles
    ok &= all(roles.values())
    print("\nroles:")
    for check, passed in roles.items():
        print(f"  {'PASS' if passed else 'FAIL'}  {check}")
    if args.write:
        args.write.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {args.write}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
