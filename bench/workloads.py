"""Seeded request lists for the benchmark workloads.

Each workload is a fixed design grid of request shapes (command, options,
length, output format).  The seed picks the concrete inputs inside each
shape: a small length offset applied as an antithetic pair (n - j, n + j),
random generator matrices and parameter tuples, and the request order.
The grid keeps the total work of a request list nearly independent of the
seed, so runs with different seeds measure the same amount of work.

A request is the argv list handed to ``lcd2.cli.main``.
"""

from __future__ import annotations

import random

FORMATS = ("text", "json", "csv")

# GF(4) as 0, 1, w, w2 = 0..3 (addition is XOR); used only to build
# full-rank generator matrices for `check` requests.
_MUL = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))
_TOKENS = ("0", "1", "w", "w2")

# Each workload starts every pass with a fixed anchor request that needs
# the most memory, so the first pass, which starts from a fresh import,
# reaches the same peak for every seed.
#
# census-bulk: (filter, include_zero_columns, format, base length).  Each
# row yields the pair n = base - j, base + j.
_CENSUS_PAIRS = (
    ("all", False, "text", 42),
    ("all", False, "json", 42),
    ("all", False, "csv", 40),
    ("lcd", False, "text", 48),
    ("lcd", False, "json", 44),
    ("lcd", False, "csv", 40),
    ("optimal_lcd", False, "text", 68),
    ("optimal_lcd", False, "json", 58),
    ("optimal_lcd", False, "csv", 50),
    ("optimal_lcd", False, "text", 40),
    ("optimal_lcd", False, "json", 44),
    ("optimal_lcd", False, "csv", 48),
    ("optimal_lcd", True, "text", 40),
    ("optimal_lcd", True, "json", 42),
    ("optimal_lcd", True, "csv", 42),
)
_CENSUS_ANCHOR = ("optimal_lcd", True, "json", 56)

# classify-sweep: each length is requested with and without zero columns.
# The lengths are fixed because the requests are small: a shift of one in
# n moves the median and tail requests by more than the machine's noise.
_CLASSIFY_LENGTHS = (8, 9, 11, 12, 14, 15, 17, 18, 20, 21, 23, 24, 26, 27, 29, 30, 32, 33, 35, 36)
_CLASSIFY_ANCHOR = 38
_VERIFY_N_MAX = 32
# Light requests that reach code, linalg and family: `check` on a random
# k x 24 generator matrix for each k, and `construct` / `enumerate` calls.
# Codeword enumeration stops at 4^5 words: larger lists made whole runs
# swing by 25% with the load of other tenants on a shared machine.
_CHECK_DIMENSIONS = (1, 2, 3, 4, 5)
_CONSTRUCT_REQUESTS = 4
_ENUMERATE_REQUESTS = 4


def _pair(rnd: random.Random, base: int) -> tuple[int, int]:
    j = rnd.randint(0, 1)
    return base - j, base + j


def census_bulk(seed: int, tiny: bool = False) -> list[list[str]]:
    """Large `census` calls over all three filters and output formats."""
    rnd = random.Random(f"census-bulk/{seed}")
    rows = _CENSUS_PAIRS[:4] if tiny else _CENSUS_PAIRS
    shrink = (lambda n: n // 5) if tiny else (lambda n: n)
    reqs = []
    for filt, zero, fmt, base in rows:
        for n in _pair(rnd, shrink(base)):
            reqs.append(_census_argv(n, filt, zero, fmt))
    rnd.shuffle(reqs)
    filt, zero, fmt, base = _CENSUS_ANCHOR
    return [_census_argv(shrink(base), filt, zero, fmt)] + reqs


def _census_argv(n: int, filt: str, zero: bool, fmt: str) -> list[str]:
    argv = ["census", str(n), "--filter", filt, "--format", fmt]
    if zero:
        argv.append("--include-zero-columns")
    return argv


def classify_sweep(seed: int, tiny: bool = False) -> list[list[str]]:
    """Many small `classify` calls, one `verify`, and light check/construct/enumerate calls."""
    rnd = random.Random(f"classify-sweep/{seed}")
    lengths = _CLASSIFY_LENGTHS[:4] if tiny else _CLASSIFY_LENGTHS
    reqs = []
    for n in lengths:
        reqs.append(["classify", str(n), "--format", rnd.choice(FORMATS)])
        reqs.append(["classify", str(n), "--format", rnd.choice(FORMATS), "--include-zero-columns"])
    n_max = 8 if tiny else _VERIFY_N_MAX
    reqs.append(["verify", "--n-max", str(n_max), "--format", rnd.choice(FORMATS)])
    for k in _CHECK_DIMENSIONS[:3] if tiny else _CHECK_DIMENSIONS:
        reqs.append(_check_argv(rnd, k, 24))
    for _ in range(_CONSTRUCT_REQUESTS):
        text = ",".join(str(rnd.randint(0, 12)) for _ in range(5))
        if rnd.random() < 0.5:
            text = f"a0={rnd.randint(1, 4)};{text}"
        reqs.append(["construct", text, "--format", rnd.choice(FORMATS)])
    for _ in range(_ENUMERATE_REQUESTS):
        reqs.append(["enumerate", str(rnd.randint(2, 400)), "--format", rnd.choice(FORMATS)])
    rnd.shuffle(reqs)
    anchor = 12 if tiny else _CLASSIFY_ANCHOR
    return [["classify", str(anchor), "--format", rnd.choice(FORMATS), "--include-zero-columns"]] + reqs


def random_full_rank(rnd: random.Random, k: int, n: int) -> list[list[int]]:
    """A k x n generator matrix of rank k over GF(4).

    Built as [I | R], then row-mixed by elementary operations (which keep
    the rank), with columns permuted and scaled by nonzero elements.
    """
    rows = [[1 if j == i else 0 for j in range(k)] + [rnd.randrange(4) for _ in range(n - k)]
            for i in range(k)]
    for _ in range(2 * k):
        src, dst = rnd.sample(range(k), 2) if k > 1 else (0, 0)
        if src != dst:
            c = rnd.randrange(1, 4)
            rows[dst] = [a ^ _MUL[c][b] for a, b in zip(rows[dst], rows[src])]
    perm = list(range(n))
    rnd.shuffle(perm)
    scale = [rnd.randrange(1, 4) for _ in range(n)]
    return [[_MUL[scale[j]][row[perm[j]]] for j in range(n)] for row in rows]


def _check_argv(rnd: random.Random, k: int, n: int) -> list[str]:
    gen = random_full_rank(rnd, k, n)
    text = ";".join(",".join(_TOKENS[e] for e in row) for row in gen)
    return ["check", text, "--format", rnd.choice(FORMATS)]


WORKLOADS = {
    "census-bulk": census_bulk,
    "classify-sweep": classify_sweep,
}
