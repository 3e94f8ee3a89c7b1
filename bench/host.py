"""Child process that hosts ``lcd2.cli`` for one benchmark run.

    python3 bench/host.py --ready        import lcd2.cli, print "ready", exit
    python3 bench/host.py JOB.json       run the job, write JOB.json.result

A job names the request list, the minimum measuring time, an output
directory and whether to trace.  The host imports ``lcd2.cli`` once, then
runs the whole request list in passes until the measuring time is used
up, and at least MIN_PASSES times, so that for every request at least
one pass is likely to miss the bursts of load on a shared machine.  Each request's
stdout goes to its own file, and its wall time and CPU time (this
process plus reaped pool workers) are recorded, and after each pass the
peak RSS so far.  Digests of the outputs are taken after each pass,
outside the timed region.

With tracing on, the public functions of the lcd2 modules are wrapped in
every module namespace that binds them, and each pass reports, per
function, its call count and self time (span duration minus the time of
the traced calls it made).  ``cli.main`` is the outermost span of each
request, so its self time is parsing, formatting and printing.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import io
import json
import math
import os
import resource
import sys
import time
import traceback

MIN_PASSES = 3

TRACED = {
    "cli": ("main",),
    "classify": (
        "census",
        "classify_optimal",
        "verify_classification",
        "representative_atuple",
        "canonical_form",
    ),
    "code": ("codewords", "min_weight", "weight_enumerator", "is_hermitian_lcd", "hull_dimension"),
    "linalg": ("parse_matrix", "rank", "gram", "det", "format_matrix"),
    "family": ("enumerate_optimal", "family_tuples", "build_generator", "parse_atuple"),
}


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    """Largest peak RSS so far of this process or any reaped child (pool worker)."""
    return max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


class Tracer:
    """Per-function call counts and self times, plus census and codeword counters."""

    def __init__(self) -> None:
        self._stack: list[list[float]] = []
        self.reset()

    def reset(self) -> None:
        self.stats: dict[str, list[float]] = {}  # name -> [calls, self_s]
        self.counters: dict[str, float] = {}
        self.main_spans: list[tuple[float, float]] = []

    def _count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, name: str, fn):
        tracer = self
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]  # time spent in traced children
            tracer._stack.append(frame)
            cpu0 = cpu_seconds() if name == "classify.census" else 0.0
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += t1 - t0
                stat = tracer.stats.setdefault(name, [0, 0.0])
                stat[0] += 1
                stat[1] += (t1 - t0) - frame[0]
                if name == "cli.main":
                    tracer.main_spans.append((t0, t1))
                elif name == "classify.census":
                    tracer._count("classify.census.cpu_s", cpu_seconds() - cpu0)
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    n, zero = bound.arguments["n"], bound.arguments["include_zero_columns"]
                    m0_values = range(0, n - 1) if zero else (0,)
                    tracer._count("classify.census.rows", sum(math.comb(n - m0 + 4, 4) for m0 in m0_values))
                    if result is not None:
                        tracer._count("classify.census.classes", len(result))
                elif name == "code.codewords":
                    tracer._count("code.codewords.words", 4 ** args[0].k)

        return span

    def install(self) -> None:
        """Replace every binding of each traced function in the lcd2 modules."""
        import importlib

        modules = [importlib.import_module("lcd2")] + [
            importlib.import_module(f"lcd2.{m}") for m in ("gf4", "linalg", "code", "family", "classify", "cli")
        ]
        for short, names in TRACED.items():
            home = importlib.import_module(f"lcd2.{short}")
            for fname in names:
                orig = getattr(home, fname)
                wrapped = self.wrap(f"{short}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)


def _run_request(cli, argv: list[str], path: str) -> dict:
    err = io.StringIO()
    rc, exc = None, None
    # The file is created outside the timed region, as the shell opens a
    # CLI's stdout before the program starts; writing it is timed.
    with open(path, "w", encoding="utf-8") as out:
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except Exception:  # a crashing request is a failed request, not a failed run
                exc = traceback.format_exc(limit=3)
            out.flush()
        t1 = time.perf_counter()
        cpu1 = cpu_seconds()
    return {"wall_s": t1 - t0, "cpu_s": cpu1 - cpu0, "rc": rc, "exc": exc, "stderr": err.getvalue()[-500:]}


def _digest(path: str) -> tuple[str, int]:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest(), os.path.getsize(path)


def run_job(job: dict) -> dict:
    import lcd2.cli as cli

    tracer = Tracer() if job["trace"] else None
    if tracer:
        tracer.install()
    requests, out_dir = job["requests"], job["out_dir"]
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < job["seconds"]:
        if tracer:
            tracer.reset()
        t0 = time.perf_counter()
        results = [_run_request(cli, argv, os.path.join(out_dir, f"r{i}.out")) for i, argv in enumerate(requests)]
        wall = time.perf_counter() - t0
        for i, res in enumerate(results):
            res["sha256"], res["bytes"] = _digest(os.path.join(out_dir, f"r{i}.out"))
        record = {"wall_s": wall, "requests": results, "peak_rss_mb": peak_rss_mb()}
        if tracer:
            record["trace"] = {
                "stats": tracer.stats,
                "counters": tracer.counters,
                "main_span_s": sum(t1 - t0 for t0, t1 in tracer.main_spans),
            }
        passes.append(record)
    resolve = getattr(cli, "_resolve_jobs", None)  # the CLI's own default-worker rule
    jobs = resolve(cli.build_parser().parse_args(["bound", "2"])) if resolve else None
    return {
        "passes": passes,
        "cli_jobs": jobs,
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__ if "numpy" in sys.modules else None,
    }


def main(argv: list[str]) -> int:
    if argv == ["--ready"]:
        import lcd2.cli  # noqa: F401

        print("ready", flush=True)
        return 0
    with open(argv[0]) as f:
        job = json.load(f)
    result = run_job(job)
    with open(argv[0] + ".result", "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
