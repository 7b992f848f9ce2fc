"""Every checked CLI report is byte-identical to its golden record.

``make_golden.py`` writes the records; a change that moves a reported
number regenerates them there and declares the moved fields.
"""

import pytest

import make_golden


@pytest.mark.parametrize("command", make_golden.FAST)
def test_report_matches_golden_record(command):
    assert make_golden.record(command) == make_golden.golden(command)


def test_every_command_has_a_record():
    for command in make_golden.FAST + make_golden.SLOW:
        assert {"stdout", "stderr", "exit"} <= make_golden.golden(command).keys()
