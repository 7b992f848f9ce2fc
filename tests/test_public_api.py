"""The package's public surface: every module's ``__all__`` names only what
the module itself defines, and importing it loads no more than it needs."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qutrit_teleport

# ``__main__`` runs the CLI on import.
MODULES = [
    name
    for _, name, _ in pkgutil.iter_modules(qutrit_teleport.__path__)
    if name != "__main__"
]
PUBLIC = [
    name
    for name in MODULES
    if hasattr(importlib.import_module(f"qutrit_teleport.{name}"), "__all__")
]


def test_modules_found():
    assert {"algebra", "optics", "tomography"} <= set(PUBLIC)


@pytest.mark.parametrize("name", PUBLIC)
def test_all_entries_exist_and_are_unique(name):
    module = importlib.import_module(f"qutrit_teleport.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert not missing


@pytest.mark.parametrize("name", PUBLIC)
def test_callable_entries_defined_in_module(name):
    module = importlib.import_module(f"qutrit_teleport.{name}")
    foreign = [
        entry
        for entry in module.__all__
        if callable(getattr(module, entry))
        and getattr(getattr(module, entry), "__module__", None) != module.__name__
    ]
    assert not foreign


# Records, after each step, whether scipy.optimize is loaded.
SCIPY_PROBE = """
import contextlib, io, json, sys
import qutrit_teleport.cli as cli
loaded = ["scipy.optimize" in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["full_reproduction"]) == 0
loaded.append("scipy.optimize" in sys.modules)
from qutrit_teleport import tomography
counts = tomography.CountsTable((50, 30, 20, 40, 35, 30, 25, 45, 30))
tomography.reconstruct_state(counts, "mle")
loaded.append("scipy.optimize" in sys.modules)
print(json.dumps(loaded))
"""


def test_scipy_loaded_only_by_the_state_mle(tmp_path):
    # a fresh interpreter, since this one has imported scipy already
    src = str(Path(qutrit_teleport.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(proc.stdout) == [False, False, True]
