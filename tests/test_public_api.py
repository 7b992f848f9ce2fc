"""The package's public surface: every module's ``__all__`` names only what
the module itself defines, no module imports a private name of another
package, and importing it loads no more than it needs."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qutrit_teleport
from qutrit_teleport import tomography

from helpers import random_density_matrix

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


def imported_names(tree):
    """The dotted names each absolute import statement in ``tree`` reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module != "__future__":
                yield node.module
                yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_no_private_imports_of_other_packages():
    # scipy's L-BFGS-B extension, the one private dependency, is loaded by
    # path in tomography._lbfgsb, not by an import statement
    package = Path(qutrit_teleport.__file__).parent
    private = [
        f"{path.name}: {name}"
        for path in sorted(package.rglob("*.py"))
        for name in imported_names(ast.parse(path.read_text(), filename=str(path)))
        if name.split(".")[0] != "qutrit_teleport"
        and any(part.startswith("_") for part in name.split("."))
    ]
    assert not private


# Records, after each step, whether scipy.optimize and its compiled L-BFGS-B
# extension are loaded. The first state MLEs run in two threads at once and
# print their estimates' bytes; a later import of scipy.optimize must find the
# extension the MLE loaded, and its minimize must still run.
SCIPY_PROBE = """
import contextlib, io, json, sys, threading
import qutrit_teleport.cli as cli
EXTENSION = "scipy.optimize._lbfgsb"
optimize, extension = [], []

def record():
    optimize.append("scipy.optimize" in sys.modules)
    extension.append(EXTENSION in sys.modules)

record()
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["full_reproduction"]) == 0
record()
from qutrit_teleport import tomography
tables = [tomography.CountsTable(t) for t in json.loads(sys.argv[1])]
barrier = threading.Barrier(2)
rhos = [None, None]

def run(k):
    barrier.wait(timeout=60)
    rhos[k] = [tomography.reconstruct_state(t, "mle").tobytes().hex() for t in tables]

sys.setswitchinterval(1e-5)
threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=120)
assert not any(thread.is_alive() for thread in threads)
record()
loaded = sys.modules[EXTENSION]
from scipy.optimize import _lbfgsb, minimize
res = minimize(lambda x: ((x - 1.5) ** 2).sum(), [0.0, 0.0], method="L-BFGS-B")
print(json.dumps({
    "optimize": optimize,
    "extension": extension,
    "rhos": rhos,
    "same_module": _lbfgsb is loaded,
    "minimize": [bool(res.success), res.x.tolist()],
}))
"""


def test_scipy_loaded_only_by_the_state_mle(tmp_path):
    rng = np.random.default_rng(24)
    tables = [
        tomography.simulate_counts(random_density_matrix(rng, rank), 150.0, rng).counts
        for rank in (1, 2, 3, 3)
    ]
    # a fresh interpreter, since this one has imported scipy already
    src = str(Path(qutrit_teleport.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, json.dumps(tables)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    probe = json.loads(proc.stdout)
    # nothing loads scipy.optimize, the MLE included; its extension comes
    # with the first MLE
    assert probe["optimize"] == [False, False, False]
    assert probe["extension"] == [False, False, True]
    # the first fits, racing to load the extension, give this process's bits
    expected = [
        tomography.reconstruct_state(tomography.CountsTable(t), "mle").tobytes().hex()
        for t in tables
    ]
    assert probe["rhos"] == [expected, expected]
    assert probe["same_module"]
    success, x = probe["minimize"]
    assert success and np.allclose(x, 1.5)
