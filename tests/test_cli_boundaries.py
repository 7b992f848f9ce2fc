"""Generated boundary inputs for the CLI: matrix files and option values.

Each example runs ``cli.main`` in this process and must end with a
documented exit code, at most one line on stderr, no warning, no
exception out of ``main`` (a traceback on the command line), a
strict-JSON report on success, and no ``--out`` directory after a parse
error (exit 2). The examples are derandomized, so every run tries the
same inputs.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qutrit_teleport import cli, tomography

from helpers import matrix_to_json

BOUNDARY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

# extreme JSON numbers, and JSON values that are no number
EXTREME_NUMBERS = [1e308, -1e308, 5e-324, -5e-324, 0.0, -0.0, 10**400, -(10**400), 2**63]
NON_NUMBERS = [float("nan"), float("inf"), -float("inf"), True, False, None, "0.5", "", [], {}]
VALUES = st.one_of(
    st.floats(-1, 1),
    st.sampled_from(EXTREME_NUMBERS + NON_NUMBERS),
    st.integers(-(10**30), 10**30),
    st.text(max_size=3),
)
# a whole matrix multiplied by these: overflowing, underflowing, unphysical
SCALES = [1.0, 1.0, 1e308, -1.0, 0.9, 1e-320, 5e-324, 0.0]
NON_INTEGERS = EXTREME_NUMBERS + NON_NUMBERS + [3.0]
RAW_FILES = [b"", b"{", b"[" * 100_000, b"\xff\xfe{}", b"\xef\xbb\xbf", b"1e999", b"null"]


@st.composite
def matrix_documents(draw):
    """The bytes of a matrix file near the 3x3 or 9x9 schema."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(RAW_FILES))
    base = tomography.noisy_model_chi() if draw(st.booleans()) else np.eye(3) / 3
    doc = matrix_to_json(base * draw(st.sampled_from(SCALES)))
    dim, entries = doc["dim"], doc["entries"]
    index = st.integers(0, dim - 1)
    for _ in range(draw(st.integers(0, 3))):
        entries[draw(index)][draw(index)][draw(st.integers(0, 1))] = draw(VALUES)
    faults = ["cell", "short-row", "long-row", "few-rows", "many-rows", "dim", "top"]
    fault = draw(st.sampled_from(["none"] * 4 + faults))
    row, cell = entries[draw(index)], entries[0][0]
    if fault == "cell":
        row[0] = draw(st.sampled_from([[cell], cell[:1], cell + [0], 0.5]))
    elif fault == "short-row":
        row.pop()
    elif fault == "long-row":
        row.append([0, 0])
    elif fault == "few-rows":
        entries.pop()
    elif fault == "many-rows":
        entries.append(entries[0])
    elif fault == "dim":
        doc["dim"] = draw(st.one_of(st.integers(-2, 12), st.sampled_from(NON_INTEGERS)))
    elif fault == "top":
        tops = [[doc], {"dim": dim}, {"entries": entries}, {**doc, "entries": 3}]
        doc = draw(st.sampled_from(tops))
    text = json.dumps(doc).encode()
    return b"\xef\xbb\xbf" + text if draw(st.integers(0, 9)) == 0 else text


def _no_constant(name):
    raise ValueError(f"{name} in a report")


def run_cli(argv, allowed=(0, 2, 3, 4)):
    """Run ``argv`` with a fresh --out path and check the outcome."""
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main([*argv, "--out", str(out_dir)])
        out, err = stdout.getvalue(), stderr.getvalue()
        # a warning would print lines of its own on stderr
        assert [str(w.message) for w in caught] == []
        assert code in allowed, (code, err)
        assert len(err.splitlines()) <= 1, err
        assert "Traceback" not in err
        if code in (0, cli.EXIT_CHECK_FAILED):
            assert err == ""
            json.loads(out, parse_constant=_no_constant)
        else:
            assert out == ""
            assert err.endswith("\n")
        if code == cli.EXIT_PARSE:
            assert not out_dir.exists()


@BOUNDARY
@given(contents=matrix_documents(), batch=st.booleans())
def test_matrix_files(contents, batch):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        path.write_bytes(contents)
        batch_options = ["--batch", "--grid", "1x1"] if batch else []
        run_cli(["certify", "--matrix", str(path), *batch_options])


# Option texts: numbers at and past each bound, and text that int() and
# float() reject (no decimal digits) or read leniently (spaces, "_", "٣").
NO_DIGITS = st.text(st.characters(blacklist_categories=("Cs", "Nd")), max_size=4)
INTEGERS = st.one_of(
    st.integers(-(10**30), 10**30).map(str),
    st.sampled_from(["0", "-1", " 7 ", "1_0", "٣", "1e3", "0x10", "9" * 5000]),
    NO_DIGITS,
)
FLOATS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["1e18", "1.0000001e18", "5e-324", "-0.0", "1_0", " 2 ", "nan", "-inf"]),
    NO_DIGITS,
)
# trials that parse are 2 or 3, so a study stays short; the rest must not parse
TRIALS = st.one_of(
    st.sampled_from(["2", "3", " 2 ", "٣"]),
    st.one_of(st.integers(max_value=1), st.integers(min_value=cli.MAX_TRIALS + 1)).map(str),
    NO_DIGITS,
)
# grids that parse have at most 9 states; the rest must not parse
GRIDS = st.one_of(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).map(lambda ab: f"{ab[0]}x{ab[1]}"),
    st.sampled_from(["1001x1000", "1x1000001", "-1x-1", "2X2", "1x1x1", "x", "٢x٢"]),
    st.just("9" * 5000 + "x1"),
    NO_DIGITS,
)
OPTION_VALUES = {
    "seed": INTEGERS,
    "trials": TRIALS,
    "visibility": FLOATS,
    "exposure": FLOATS,
    "grid": GRIDS,
    "statistic": st.one_of(st.sampled_from(["average_fidelity", "mean_mu"]), NO_DIGITS),
}
FLAGS = {"closed_interval", "batch", "check"}
# the default 100 trials and 20x20 grid take seconds, so these are always given
ALWAYS_GIVEN = {"trials", "grid"}


@st.composite
def command_lines(draw):
    """A command with some of its options, each given a generated value."""
    name, _, options = draw(st.sampled_from(cli._COMMANDS))
    argv = [name]
    for option in options:
        if option == "matrix" or option not in ALWAYS_GIVEN and not draw(st.booleans()):
            continue
        flag = cli._OPTIONS[option][0]
        argv += [flag] if option in FLAGS else [flag, draw(OPTION_VALUES[option])]
    return argv


@BOUNDARY
@given(argv=command_lines())
def test_option_values(argv):
    # full_reproduction --check exits 5 when a check fails, as it does on a
    # grid smaller than the published 20x20
    run_cli(argv, allowed=(0, 2, 3, 4, *([5] if "--check" in argv else [])))

