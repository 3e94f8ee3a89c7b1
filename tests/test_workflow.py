"""The CI workflow runs its cross-checks as the suite's slow tests."""

import os
import subprocess
import sys
from pathlib import Path

import lcd2

ROOT = Path(__file__).resolve().parents[1]
STEP = " python -m pytest -q -m slow "


def test_every_slow_test_runs_in_a_workflow_step_and_no_step_holds_a_program():
    # A renamed or deleted slow test fails here, not only in CI.
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    assert "<<" not in workflow and "python -c" not in workflow
    ids = [node for line in workflow.splitlines() if STEP in line for node in line.partition(STEP)[2].split()]
    # Collecting needs no plugin and no assertion rewriting, and starts in a
    # third of the time without them.
    env = dict(os.environ, PYTHONPATH=str(Path(lcd2.__file__).resolve().parents[1]))
    env["PYTEST_DISABLE_PLUGIN_AUTOLOAD"] = "1"
    collect = ["--collect-only", "-q", "--assert=plain", "-p", "no:cacheprovider", "-m", "slow", "tests"]
    run = subprocess.run(
        [sys.executable, "-m", "pytest", *collect], cwd=ROOT, env=env, capture_output=True, text=True
    )
    collected = [line for line in run.stdout.splitlines() if "::" in line]
    assert run.returncode == 0 and ids and collected, run.stdout + run.stderr
    assert [node for node in ids if not any(c == node or c.startswith(node + "[") for c in collected)] == []
    assert [c for c in collected if c.partition("[")[0] not in ids and c not in ids] == []
