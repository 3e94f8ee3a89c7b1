"""Output checks for benchmark requests.

Each check reads the stdout of one ``lcd2`` request and returns ``None``
when it is consistent, or a one-line reason.  The checks recompute what
they compare against from the request itself (field tables, the bound
d_max, the known class counts, the multiplicity formulas for d and the
weight enumerator) and never import the program under test.
"""

from __future__ import annotations

import csv
import io
import json

# GF(4) as 0, 1, w, w2 = 0..3; addition is XOR.
_MUL = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))
_CONJ = (0, 1, 3, 2)
# Projective points of the line over GF(4), in the order of the `mp` field.
_POINTS = ((1, 0), (0, 1), (1, 1), (1, 2), (1, 3))


class Mismatch(Exception):
    """An output that does not agree with its request."""


def _expect(cond: bool, reason: str) -> None:
    if not cond:
        raise Mismatch(reason)


def dmax(n: int) -> int:
    """Largest minimum weight of a Hermitian LCD [n, 2] code."""
    return 4 * n // 5 - (0 if n % 5 in (1, 2, 3) else 1)


def optimal_class_count(n: int, zero_columns: bool) -> int:
    """Published number of optimal classes at length n (headline table)."""
    m, r = divmod(n, 5)
    if r in (0, 1):
        count = 1 if m == 1 else 2
    elif r in (2, 3):
        count = 1
    else:
        count = {0: 1, 1: 3, 2: 4}.get(m, 5)
    return count + (1 if zero_columns and r == 4 else 0)


def _lcd(mp: tuple[int, ...]) -> bool:
    """Hermitian LCD test from the Gram matrix of the column multiplicities."""
    g = [[0, 0], [0, 0]]
    for (x, y), mult in zip(_POINTS, mp):
        if mult % 2:
            col = (x, y)
            for i in range(2):
                for j in range(2):
                    g[i][j] ^= _MUL[col[i]][_CONJ[col[j]]]
    return (_MUL[g[0][0]][g[1][1]] ^ _MUL[g[0][1]][g[1][0]]) != 0


def _parse_poly(text: str) -> dict[int, int]:
    counts = {}
    for term in text.split("+"):
        if "y^" in term:
            c, w = term.split("y^")
            counts[int(w)] = int(c)
        else:
            counts[0] = int(term)
    return counts


def _ints(text: str, sep: str) -> list[int]:
    return [int(x) for x in text.split(sep)]


# --- classify / census --------------------------------------------------


def _classes(out: str, fmt: str) -> tuple[list[dict], int | None]:
    """Class records and the class count stated in the header (text only)."""
    if fmt == "json":
        return [
            {
                "n": c["n"], "d": c["d"], "m0": c["canonical"]["m0"],
                "mp": tuple(c["canonical"]["mp"]), "a": tuple(c["representative_a"]),
                "a0": c["a0"], "label": c["label"], "we": {int(w): v for w, v in c["weight_enumerator"].items()},
                "zero": c["dual_min_weight_one"],
            }
            for c in json.loads(out)
        ], None
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        _expect(rows[0][:2] == ["n", "d"], "csv header")
        return [
            {
                "n": int(r[0]), "d": int(r[1]), "m0": int(r[2]), "mp": tuple(_ints(r[3], " ")),
                "a": tuple(_ints(r[4], " ")), "a0": int(r[5]), "label": r[6] or None,
                "we": _parse_poly(r[7]), "zero": r[8] == "true",
            }
            for r in rows[1:]
        ], None
    lines = out.splitlines()
    header = dict(kv.split("=", 1) for kv in lines[0].split(" ") if "=" in kv)
    out_classes = []
    for line in lines[1:]:
        f = dict(kv.split("=", 1) for kv in line.split(" "))
        out_classes.append({
            "n": None, "d": int(f["d"]), "m0": int(f["m0"]), "mp": tuple(_ints(f["mp"], ",")),
            "a": tuple(_ints(f["a"], ",")), "a0": int(f["m0"]),
            "label": None if f["label"] == "-" else f["label"], "we": _parse_poly(f["we"]),
            "zero": f["dual_min_weight_one"] == "true",
        })
    return out_classes, int(header["classes"])


def _check_classes(n: int, filt: str, zero_columns: bool, out: str, fmt: str) -> list[dict]:
    classes, stated = _classes(out, fmt)
    _expect(stated is None or stated == len(classes), f"header says {stated} classes, {len(classes)} listed")
    keys = [(c["m0"], c["mp"]) for c in classes]
    _expect(keys == sorted(set(keys)), "classes not distinct and sorted")
    for c in classes:
        m0, mp = c["m0"], c["mp"]
        _expect(c["n"] in (None, n), f"class length {c['n']} != {n}")
        _expect(len(mp) == 5 and m0 + sum(mp) == n and min(mp) >= 0, f"bad multiplicities {m0} {mp}")
        _expect(zero_columns or m0 == 0, f"zero columns in {mp}")
        _expect(sum(1 for x in mp if x) >= 2, f"rank < 2 at {mp}")
        # The point group acts 3-transitively, so a canonical (minimal) image
        # starts with the three smallest multiplicities in order.
        _expect(list(mp[:3]) == sorted(mp)[:3], f"{mp} is not a canonical image")
        _expect(c["d"] == n - m0 - max(mp), f"d={c['d']} disagrees with mp {mp}")
        we = {0: 1}
        for p in mp:
            we[n - m0 - p] = we.get(n - m0 - p, 0) + 3
        _expect(c["we"] == we, f"weight enumerator disagrees with mp {mp}")
        _expect(c["zero"] == (m0 > 0) and c["a0"] == m0, f"zero-column fields wrong at {m0} {mp}")
        a = c["a"]
        _expect(sorted(mp) == sorted((1 + a[1], 1 + a[0], a[2], a[3], a[4])),
                f"representative {a} not in the class of {mp}")
        if filt != "all":
            _expect(_lcd(mp), f"{mp} is not Hermitian LCD")
        if filt == "optimal_lcd":
            _expect(c["d"] == dmax(n), f"d={c['d']} below d_max={dmax(n)}")
    return classes


def _flags(argv: list[str]) -> tuple[str, bool]:
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
    return fmt, "--include-zero-columns" in argv


def check_census(argv: list[str], out: str) -> None:
    fmt, zero = _flags(argv)
    filt = argv[argv.index("--filter") + 1] if "--filter" in argv else "lcd"
    _check_classes(int(argv[1]), filt, zero, out, fmt)


def check_classify(argv: list[str], out: str) -> None:
    fmt, zero = _flags(argv)
    n = int(argv[1])
    classes = _check_classes(n, "optimal_lcd", zero, out, fmt)
    expected = optimal_class_count(n, zero)
    _expect(len(classes) == expected, f"{len(classes)} optimal classes, expected {expected}")
    _expect(all(c["label"] for c in classes if c["m0"] == 0), "unlabelled optimal class")


def check_verify(argv: list[str], out: str) -> None:
    fmt, _ = _flags(argv)
    n_max = int(argv[argv.index("--n-max") + 1])
    if fmt == "json":
        rows = [(c["id"], c["pass"]) for c in json.loads(out)["checks"]]
    elif fmt == "csv":
        rows = [(r[0], r[2] == "true") for r in list(csv.reader(io.StringIO(out)))[1:]]
    else:
        lines = out.splitlines()
        _expect(lines[-1].startswith("RESULT: PASS"), lines[-1])
        rows = [(line.split(" ")[0], line.split(" ")[2] == "PASS") for line in lines[:-1]]
    _expect(all(ok for _, ok in rows), "a verification check failed")
    _expect(sum(1 for cid, _ in rows if cid == "T4") == n_max - 1, "T4 missing for some length")


# --- check / construct / enumerate ---------------------------------------


def check_check(argv: list[str], out: str) -> None:
    fmt, _ = _flags(argv)
    rows = argv[1].split(";")
    k, n = len(rows), len(rows[0].split(","))
    if fmt == "json":
        p = json.loads(out)
        got = (p["n"], p["k"], p["d"], p["hull_dimension"], p["hermitian_lcd"])
        we = {int(w): c for w, c in p["weight_enumerator"].items()}
        _expect(we == _parse_poly(p["weight_enumerator_poly"]), "enumerator fields disagree")
    else:
        if fmt == "csv":
            f = dict(zip(*csv.reader(io.StringIO(out))))
        else:
            f = dict(line.split(" = ") for line in out.splitlines())
        got = (int(f["n"]), int(f["k"]), int(f["d"]), int(f["hull_dimension"]), f["hermitian_lcd"] == "true")
        we = _parse_poly(f["weight_enumerator"])
    gn, gk, d, hull, lcd = got
    _expect((gn, gk) == (n, k), f"reported [{gn}, {gk}] for a {k} x {n} matrix")
    _expect(sum(we.values()) == 4**k, f"enumerator total {sum(we.values())} != 4^{k}")
    _expect(we.get(0) == 1 and d == min(w for w in we if w), f"d={d} disagrees with the enumerator")
    _expect(0 <= hull <= k and lcd == (hull == 0), f"hull {hull} and LCD {lcd} disagree")


def _construct_matrix(a0: int, a: list[int]) -> str:
    a1, a2, a3, a4, a5 = a
    top = ["1", "0"] + ["0"] * (a0 + a1) + ["1"] * (a2 + a3 + a4 + a5)
    bot = ["0", "1"] + ["0"] * a0 + ["1"] * a1 + ["0"] * a2 + ["1"] * a3 + ["w"] * a4 + ["w2"] * a5
    return ",".join(top) + ";" + ",".join(bot)


def check_construct(argv: list[str], out: str) -> None:
    fmt, _ = _flags(argv)
    text = argv[1]
    a0 = 0
    if ";" in text:
        head, text = text.split(";")
        a0 = int(head[3:])
    a = _ints(text, ",")
    expected = _construct_matrix(a0, a)
    if fmt == "json":
        p = json.loads(out)
        _expect((p["a0"], p["a"], p["n"]) == (a0, a, 2 + a0 + sum(a)), "construct fields")
        got = p["matrix"]
    elif fmt == "csv":
        row = list(csv.reader(io.StringIO(out)))[1]
        _expect(row[:3] == [str(a0), " ".join(map(str, a)), str(2 + a0 + sum(a))], "construct fields")
        got = row[3]
    else:
        got = out.rstrip("\n")
    _expect(got == expected, "generator matrix differs from the construction")


def check_enumerate(argv: list[str], out: str) -> None:
    fmt, _ = _flags(argv)
    n = int(argv[1])
    d = dmax(n)
    if fmt == "json":
        p = json.loads(out)
        _expect((p["n"], p["d"], p["count"]) == (n, d, len(p["tuples"])), "enumerate header")
        tuples = [tuple(t["a"]) for t in p["tuples"]]
    elif fmt == "csv":
        tuples = [tuple(int(x) for x in r[:5]) for r in list(csv.reader(io.StringIO(out)))[1:]]
    else:
        lines = out.splitlines()
        _expect(lines[0] == f"n = {n}, d = {d}, count = {len(lines) - 1}", f"header {lines[0]!r}")
        tuples = [tuple(_ints(line.split()[0], ",")) for line in lines[1:]]
    _expect(tuples and tuples == sorted(set(tuples)), "tuples not distinct and sorted")
    for a in tuples:
        _expect(2 + sum(a) == n and 1 + sum(a[1:]) == d and min(a) >= 0, f"tuple {a} off length or weight")
        _expect(_lcd((1 + a[1], 1 + a[0], a[2], a[3], a[4])), f"tuple {a} is not Hermitian LCD")


CHECKERS = {
    "census": check_census,
    "classify": check_classify,
    "verify": check_verify,
    "check": check_check,
    "construct": check_construct,
    "enumerate": check_enumerate,
}


def check_output(argv: list[str], out: str) -> str | None:
    """None when ``out`` is a correct answer to ``argv``, else the reason."""
    try:
        CHECKERS[argv[0]](argv, out)
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparseable output: {type(exc).__name__}: {exc}"
    return None
