"""The CI workflow runs every slow test in one step, and no step holds a program."""

import re
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_one_step_runs_every_slow_test_and_no_step_holds_a_program():
    # The marker is the only list of slow tests: a new one needs no workflow
    # edit, and a failing one hides none of the others.
    text = WORKFLOW.read_text()
    commands = [line.strip() for line in text.splitlines() if not line.lstrip().startswith("- name:")]
    narrowing = [line for line in commands if re.search(r"slow|::| -k", line)]
    assert narrowing == ["run: PYTHONPATH=src python -m pytest -q -m slow"]
    assert "<<" not in text and re.search(r"python3? -c", text) is None
