"""Import the program under test from this checkout's ``src`` directory.

The benchmark must measure the code next to it, never a copy installed
elsewhere, so the import fails when ``src/qutrit_teleport`` is absent.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))

import qutrit_teleport  # noqa: E402

if Path(qutrit_teleport.__file__).resolve().parent != SRC / "qutrit_teleport":
    raise ImportError(f"qutrit_teleport imported from {qutrit_teleport.__file__}, not {SRC}")

from qutrit_teleport import (  # noqa: E402
    algebra,
    certify,
    cli,
    dataset,
    mc,
    optics,
    protocol,
    tomography,
)

__all__ = [
    "algebra",
    "certify",
    "cli",
    "dataset",
    "mc",
    "optics",
    "protocol",
    "tomography",
]
