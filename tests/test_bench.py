"""The benchmark's pinned outputs, checked without the benchmark.

``bench/run.py`` refuses a run whose stdout differs from the digest that
``bench/digests.json`` records for its request.  These tests run the same
seed-0 request lists through ``lcd2.cli.main`` in-process, so a change
that the benchmark would refuse fails here first.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from lcd2.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _workload(name):
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS[name]


@pytest.mark.parametrize("name, count", [("census-bulk", 31), ("classify-sweep", 55)])
def test_seed_0_requests_print_the_recorded_digests(name, count):
    recorded = json.loads((BENCH / "digests.json").read_text())[name]
    requests = _workload(name)(0)
    assert len(requests) == count
    for argv in requests:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0, argv
        key = " ".join(argv)
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == recorded[key], key
