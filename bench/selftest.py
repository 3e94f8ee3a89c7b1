"""Self-test of the benchmark: python3 bench/selftest.py

Runs every workload at a tiny size, traced and untraced, and checks that
each metric named in BENCHMARK.json is reported with its unit.  Then it
corrupts outputs and checks that every corrupted request is counted as
failed, and that the benchmark refuses to run without the program's
sources.  Exits 0 when all checks hold.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check_metrics(workload: str) -> None:
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run(workload, seed=0, seconds=0, trace=trace, tiny=True)["result"]
        assert result["correct"] and result["failed"] == 0, result
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == {m["name"]: m["unit"] for m in SPEC[key]}, (workload, key, got)
        for name, m in result["metrics"].items():
            assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (name, m)
        if not trace:
            assert result["metrics"]["ok_ratio"]["value"] == 1
            assert all(result["metrics"][n]["value"] > 0 for n in ("setup_s", "wall_s", "peak_rss_mb"))


def check_corruption(workload: str, work: Path) -> None:
    requests = WORKLOADS[workload](0, tiny=True)
    session = run.run_session(work, workload, requests, 0, False, time.monotonic() + 120)
    passes = len(session["passes"])
    attempted = passes * len(requests)
    final = session["passes"][-1]["requests"]
    recorded = {" ".join(a): r["sha256"] for a, r in zip(requests, final)}
    assert run.check_session(session, requests, recorded) == []

    # One changed byte is caught by the recorded digest, in every pass.
    path = session["out_dir"] / "r0.out"
    data = bytearray(path.read_bytes())
    data[-2] = ord("7") if data[-2] != ord("7") else ord("8")
    path.write_bytes(bytes(data))
    failures = run.check_session(session, requests, recorded)
    assert len(failures) == passes, failures
    metrics, detail = run.e2e_metrics(session, [0.1], attempted, len(failures))
    assert metrics["ok_ratio"] < 1 and detail["failed_ratio"] == passes / attempted

    # Empty outputs are caught by the content checks alone.
    for i in range(len(requests)):
        (session["out_dir"] / f"r{i}.out").write_text("")
    failures = run.check_session(session, requests, {})
    assert len(failures) == attempted, failures


def check_refuses_without_sources(work: Path) -> None:
    bare = work / "bare"
    bare.mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", next(iter(WORKLOADS)), "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc


def main() -> int:
    work = run.ROOT / ".bench_run" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        for workload in WORKLOADS:
            check_metrics(workload)
            check_corruption(workload, work)
            print(f"ok  {workload}")
        check_refuses_without_sources(work)
        print("ok  refuses to run without src/lcd2")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while a benchmark run uses it
            work.parent.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
