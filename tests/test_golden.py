"""CLI transcripts pinned byte for byte.

Each file under ``tests/golden/`` holds the stdout of one fast command; the
acceptance battery's report is pinned the same way in ``test_acceptance.py``.
A change that alters any of these bytes has to replace the file on purpose.
"""

from pathlib import Path

import pytest

from gquot.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "mackey_normal": ("mackey decompose --group C6xC6 --cocycle nd_C6xC6 --normal 0,3,18,21", 0),
    "mackey_not_normal": ("mackey decompose --group S3 --normal 0,1", 2),
    "twisted_wedderburn_S4": ("twisted wedderburn --group S4", 0),
    "theoremD_C4xC4": ("lagrangian theoremD --group C4xC4 --cocycle nd_C4xC4", 0),
    "cohomologous_C4xC4": ("cocycle cohomologous --group C4xC4 --cocycle nd_C4xC4 --cocycle2 nd_C4xC4", 0),
    "pi1_report_4": ("pi1 report --n 4", 0),
    "group_info_C6xC6": ("group info --group C6xC6", 0),
    "iyb_D4": ("lagrangian iyb --group D4", 0),
}


@pytest.mark.parametrize("name", list(COMMANDS))
def test_cli_output_matches_golden(capsys, name):
    command, code = COMMANDS[name]
    assert main(command.split()) == code
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()
