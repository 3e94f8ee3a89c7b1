"""lcd2 benchmark: drive the public CLI with a seeded request list.

    python3 bench/run.py --workload census-bulk --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One client sends the workload's requests in a closed loop to
``lcd2.cli.main`` inside one fresh child process (bench/host.py), which
keeps the CLI's default worker count (``LCD2_JOBS`` is cleared).  The
child repeats the request list until ``--seconds`` have passed, and at
least three times; each request's time is the least over those passes,
and ``wall_s`` is the sum of these times.  Every output is checked
(bench/checks.py) and compared with the digests recorded at the seed
commit (bench/digests.json).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced, and reports the per-layer metrics and
the tracing overhead.  The last line of stdout is the result object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are
a readable summary and one JSON object with the environment and details.
The exit code is 0 whenever a result was printed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from checks import check_output  # noqa: E402
from host import TRACED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 0
SETUP_PROBES = 5  # fresh imports before and again after the measured session
RUN_LIMIT_S = 170.0
DIGESTS = BENCH / "digests.json"

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "request_p50_s": "s",
    "request_tail_s": "s",
    "peak_rss_mb": "MB",
    "cpu_s": "s",
    "ok_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def layer_units() -> dict[str, str]:
    units = {}
    for module, names in TRACED.items():
        for fname in names:
            units[f"{module}.{fname}.calls"] = "count"
            units[f"{module}.{fname}.self_s"] = "s"
    units.update({
        "cli.stdout_bytes": "bytes",
        "classify.census.rows": "count",
        "classify.census.classes": "count",
        "classify.census.useful_ratio": "ratio",
        "classify.census.cpu_s": "s",
        "code.codewords.words": "count",
        "trace.overhead_s": "s",
    })
    return units


def quantile(values: list[float], q: float) -> float:
    """Linearly interpolated quantile of ``values`` (0 <= q <= 1)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(requests_per_pass: int) -> int:
    """Highest whole percentile with at least ten requests of one pass beyond it."""
    return max(50, math.floor(100 * (1 - 10 / requests_per_pass)))


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "LCD2_JOBS"}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(deadline: float) -> list[float]:
    """Seconds from spawning fresh interpreters until lcd2.cli is imported."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "host.py"), "--ready"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(), cwd=ROOT,
        )
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        try:
            _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("importing lcd2.cli exceeded the time limit") from None
        if proc.returncode != 0 or line.strip() != b"ready":
            raise BenchError(f"lcd2.cli did not import: {err.decode(errors='replace')[-2000:]}")
        samples.append(t1 - t0)
    return samples


def run_session(work: Path, name: str, requests: list[list[str]], seconds: float,
                trace: bool, deadline: float) -> dict:
    out_dir = work / name
    out_dir.mkdir()
    job_path = work / f"{name}.json"
    job_path.write_text(json.dumps({"requests": requests, "seconds": seconds,
                                    "trace": trace, "out_dir": str(out_dir)}))
    with open(work / f"{name}.log", "w+b") as log:
        # A session of its own, so that a timeout also ends the pool workers.
        proc = subprocess.Popen([sys.executable, str(BENCH / "host.py"), str(job_path)],
                                stdout=log, stderr=log, env=child_env(), cwd=ROOT, start_new_session=True)
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError(f"session {name} exceeded the time limit") from None
        if rc != 0:
            log.seek(0)
            raise BenchError(f"host exited {rc}: {log.read().decode(errors='replace')[-2000:]}")
    result = json.loads(Path(str(job_path) + ".result").read_text())
    result["out_dir"] = out_dir
    return result


def check_session(session: dict, requests: list[list[str]], recorded: dict[str, str]) -> list[str]:
    """One entry per failed request execution, naming the request and the reason."""
    failures = []
    final = session["passes"][-1]["requests"]
    for i, argv in enumerate(requests):
        data = (session["out_dir"] / f"r{i}.out").read_bytes()
        reason = check_output(argv, data.decode("utf-8")) if final[i]["rc"] == 0 else None
        key = " ".join(argv)
        if reason is None and key in recorded and recorded[key] != hashlib.sha256(data).hexdigest():
            reason = "stdout differs from the digest recorded at the seed commit"
        for p, record in enumerate(session["passes"]):
            res = record["requests"][i]
            why = reason
            if res["exc"]:
                why = "exception: " + res["exc"].strip().splitlines()[-1]
            elif res["rc"] != 0:
                why = f"exit code {res['rc']}: {res['stderr'].strip()[-200:]}"
            elif res["sha256"] != final[i]["sha256"]:
                why = "stdout differs between passes"
            if why:
                failures.append(f"pass {p} request {i} ({key[:80]}): {why}")
    return failures


def request_minima(session: dict, key: str) -> list[float]:
    """Per request, the least ``key`` over the session's passes.

    Every pass runs the same request on the same input, and load from
    other processes on a shared machine only ever adds time, so the least
    of the passes is the steadiest estimate of the request's own cost.
    """
    passes = session["passes"]
    return [min(p["requests"][i][key] for p in passes) for i in range(len(passes[0]["requests"]))]


def e2e_metrics(session: dict, setup: list[float], attempted: int, failed: int) -> tuple[dict, dict]:
    times = request_minima(session, "wall_s")
    pct = tail_percentile(len(times))
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(times),
        "request_p50_s": quantile(times, 0.5),
        "request_tail_s": quantile(times, pct / 100),
        # Later passes inherit a heap shaped by the seeded request order; the
        # first pass starts from a fresh import, like a CLI invocation.
        "peak_rss_mb": session["passes"][0]["peak_rss_mb"],
        "cpu_s": sum(request_minima(session, "cpu_s")),
        "ok_ratio": 1 - failed / attempted,
    }
    detail = {"tail_percentile": pct, "requests": len(times), "passes": len(session["passes"]),
              "pass_wall_s": [p["wall_s"] for p in session["passes"]], "setup_samples_s": setup,
              "pass_peak_rss_mb": [p["peak_rss_mb"] for p in session["passes"]],
              "failed_ratio": failed / attempted}
    return values, detail


def layer_metrics(traced: dict, untraced: dict) -> tuple[dict, dict]:
    units = layer_units()
    per_pass: dict[str, list[float]] = {name: [] for name in units}
    coverage = []
    for record in traced["passes"]:
        tr = record["trace"]
        values = {name: 0 for name in units}
        for fname, (calls, self_s) in tr["stats"].items():
            values[f"{fname}.calls"] = calls
            values[f"{fname}.self_s"] = self_s
        values.update(tr["counters"])
        rows = values["classify.census.rows"]
        values["classify.census.useful_ratio"] = values["classify.census.classes"] / rows if rows else 0.0
        values["cli.stdout_bytes"] = sum(r["bytes"] for r in record["requests"])
        for name in units:
            if name != "trace.overhead_s":
                per_pass[name].append(values[name])
        coverage.append(tr["main_span_s"] / record["wall_s"])
    # Counts repeat exactly in every pass; times take the least, as in e2e_metrics.
    out = {name: min(v) for name, v in per_pass.items() if v}
    traced_wall = sum(request_minima(traced, "wall_s"))
    untraced_wall = sum(request_minima(untraced, "wall_s"))
    out["trace.overhead_s"] = traced_wall - untraced_wall
    detail = {"traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall,
              "overhead_ratio": (traced_wall - untraced_wall) / untraced_wall,
              "cli_main_coverage": statistics.median(coverage), "traced_passes": len(traced["passes"])}
    return out, detail


def run(workload: str, seed: int, seconds: float, trace: bool, record: bool = False,
        tiny: bool = False) -> dict:
    """One benchmark run; ``tiny`` shrinks the request list for the self-test."""
    if not (ROOT / "src" / "lcd2" / "cli.py").is_file():
        raise BenchError(f"no lcd2 sources under {ROOT / 'src'}; run from a source checkout")
    deadline = time.monotonic() + RUN_LIMIT_S
    requests = WORKLOADS[workload](seed, tiny=tiny)
    recorded = json.loads(DIGESTS.read_text()).get(workload, {}) if DIGESTS.is_file() else {}
    work = ROOT / ".bench_run" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup = [] if trace else measure_setup(deadline)
        sessions = {"untraced": run_session(work, "untraced", requests, seconds, False, deadline)}
        if trace:
            sessions["traced"] = run_session(work, "traced", requests, seconds, True, deadline)
        else:
            setup += measure_setup(deadline)
        failures = []
        for session in sessions.values():
            failures += check_session(session, requests, recorded)
        attempted = sum(len(s["passes"]) * len(requests) for s in sessions.values())
        base = sessions["untraced"]
        if trace:
            metrics, detail = layer_metrics(sessions["traced"], base)
            units = layer_units()
        else:
            metrics, detail = e2e_metrics(base, setup, attempted, len(failures))
            units = E2E_UNITS
        if record:
            if failures:
                raise BenchError("refusing to record digests from a run with failed requests")
            table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
            final = base["passes"][-1]["requests"]
            table.setdefault(workload, {}).update({" ".join(a): r["sha256"] for a, r in zip(requests, final)})
            DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            work.parent.rmdir()
    detail.update({
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "failures": failures[:20],
        "env": {"nproc": os.cpu_count(), "cli_jobs": base["cli_jobs"], "python": base["python"],
                "numpy": base["numpy"], "platform": platform.platform()},
    })
    return {
        "summary": detail,
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store each request's stdout digest in bench/digests.json")
    args = parser.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.record_digests)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    summary, result = out["summary"], out["result"]
    print(f"lcd2 benchmark  workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
