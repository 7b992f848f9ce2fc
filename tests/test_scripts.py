"""Smoke tests: each CSV script runs end to end on a tiny configuration."""

import csv
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv, header, n_rows",
    [
        ("run_batch_certification", ["--grid", "2", "3"], ["phi1", "phi2", "mu", "verdict"], 6),
        (
            "run_convergence_study",
            ["--grid", "1", "2", "--trials", "2"],
            ["n_states", "value", "error"],
            2,
        ),
        ("run_mub_design_study", ["--trials", "2"], ["design", "value", "error"], 2),
    ],
)
def test_script_writes_csv(name, argv, header, n_rows, tmp_path, capsys):
    out = tmp_path / f"{name}.csv"
    assert load_script(name).main([*argv, "--out", str(out)]) == 0
    with out.open(newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == header
    assert len(rows) == n_rows + 1
    assert f"wrote {out}" in capsys.readouterr().out
