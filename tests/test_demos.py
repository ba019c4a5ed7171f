"""The demos run to completion in-process.

Demos 02, 03 and 05 are the only callers, outside the CLI, of
``seed_masks``, ``run_seeded`` and ``brute_force_best``.  Demo 04 (about
8 s) is left out: the XOR-vs-baseline comparison it prints is already run
through ``compare`` by the acceptance tests.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "name",
    ["01_synthetic_data", "02_mi_ranking", "03_xor_pso_run", "05_oracle_check"],
)
def test_demo_runs_to_completion(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    out, err = capsys.readouterr()
    assert out.strip()
    assert err == ""
