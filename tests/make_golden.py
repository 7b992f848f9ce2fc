"""Write, or check, the golden CLI reports that the suite and CI compare byte for byte.

For each command below, ``tests/golden/<name>.stdout``, ``.stderr`` and
``.exit`` hold what ``qutrit-teleport <command>`` prints and returns, and
``<name>.csv`` the CSV that ``--out`` writes, where the command writes one.
This script is the only way they change. Regenerate them from the
repository root, with one BLAS thread, on the commit whose reports are the
record:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/make_golden.py

and list in CHANGES.md every field that the regeneration moved. With
``--check COMMAND ...`` the script compares the named commands with their
records instead, and exits 1 on the first difference. ``tests/test_golden.py``
replays ``FAST`` in the suite; CI checks ``SLOW``, the three slow defaults
and the largest design study.
"""

import argparse
import contextlib
import io
import sys
import tempfile
from pathlib import Path

from qutrit_teleport import cli

GOLDEN = Path(__file__).with_name("golden")

FAST = (
    "full_reproduction",
    "full_reproduction --check",
    "process",
    "certify --batch",
    "tomography --seed 0",
    "teleport_sim --visibility 0.9",
    "mc_errors --trials 6",
    "mc_errors --exposure 0.5 --trials 2",
    "convergence --trials 3",
    "convergence --trials 3 --statistic mean_mu",
    "convergence --exposure 2000 --trials 50",
    "mub_study --trials 8",
    # crosses two of the linear design study's block boundaries
    "mub_study --trials 2500",
    # some state gets no basis counts: exit 4
    "mub_study --exposure 1",
)
SLOW = (
    "mc_errors",
    "mc_errors --exposure 20",
    "convergence --exposure 2000",
    # the largest design study that --trials allows
    "mub_study --trials 100000",
)
SUFFIXES = ("stdout", "stderr", "exit", "csv")


def name(command):
    """The file stem of a command: its words joined by '_', dashes dropped."""
    return "_".join(word.lstrip("-") for word in command.split())


def _read(path):
    with open(path, encoding="utf-8", newline="") as f:
        return f.read()


def record(command):
    """Suffix -> text of what ``command`` prints, returns and writes, run through ``cli.main``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as out_dir:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([*command.split(), "--out", out_dir])
        files = {"stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "exit": f"{code}\n"}
        for csv in Path(out_dir).glob("*.csv"):
            files["csv"] = _read(csv)
    return files


def golden(command):
    """Suffix -> text of the committed record of ``command``."""
    paths = {suffix: GOLDEN / f"{name(command)}.{suffix}" for suffix in SUFFIXES}
    return {suffix: _read(path) for suffix, path in paths.items() if path.exists()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", nargs="+", metavar="COMMAND", help="compare, do not write")
    args = parser.parse_args(argv)
    if args.check:
        for command in args.check:
            if record(command) != golden(command):
                print(f"{command}: differs from its golden record", file=sys.stderr)
                return 1
            print(f"{command}: same bytes")
        return 0
    GOLDEN.mkdir(exist_ok=True)
    for command in FAST + SLOW:
        for suffix, text in record(command).items():
            (GOLDEN / f"{name(command)}.{suffix}").write_text(text, encoding="utf-8", newline="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
