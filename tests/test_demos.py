"""The demos run to completion in-process.

Demos 02, 03 and 05 are the only callers, outside the CLI, of
``seed_masks``, ``run_seeded`` and ``brute_force_best``.  Demo 04 (about
8 s) is left out: the XOR-vs-baseline comparison it prints is already run
through ``compare`` by the acceptance tests.  The README's library quick
start runs too, so a renamed public name cannot leave it stale.
"""

import re
import runpy
from pathlib import Path

import pytest

from xorpso import selected_indices

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


@pytest.mark.parametrize(
    "name",
    ["01_synthetic_data", "02_mi_ranking", "03_xor_pso_run", "05_oracle_check"],
)
def test_demo_runs_to_completion(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    out, err = capsys.readouterr()
    assert out.strip()
    assert err == ""
    # a self-check prints its verdict last on its line
    assert not [line for line in out.splitlines() if line.rstrip().endswith("False")]


def test_readme_quick_start_runs(capsys):
    section = (ROOT / "README.md").read_text(encoding="utf-8").split(
        "\n## Library quick start\n", 1)[1]
    code = re.search(r"^```python\n(.*?)^```$", section, re.S | re.M).group(1)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    *progress, last = capsys.readouterr().out.splitlines()
    best, trace = namespace["best"], namespace["trace"]
    assert [line.split()[0] for line in progress] == ["0", "10", "20", "30", "40"]
    assert last == f"{selected_indices(best)} {trace[-1].gbest_accuracy}"
    assert trace[-1].gbest_accuracy >= namespace["config"].accuracy_threshold
