"""Shared brute-force oracles for the test suite.

Everything here recomputes from first principles (full codeword
enumeration, exhaustive search over row transforms) so the library's
closed-form and vectorised paths are checked against an independent
route, not against themselves.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import random

from lcd2 import gf4
from lcd2 import classify as cls
from lcd2.classify import EquivClass, MultVector, _atuple_mp, _canonical_mp, representative_atuple
from lcd2.code import LinearCode
from lcd2.family import (
    CLASSIFICATION,
    ATuple,
    Family,
    _parity_condition,
    delta,
    dmax,
    family_catalog,
    family_tuples,
)
from lcd2.linalg import Mat, mat, rank
from lcd2.verify import VerificationReport


def matmul(a: Mat, b: Mat) -> Mat:
    """Schoolbook product over GF(4)."""
    if a.ncols != b.nrows:
        raise ValueError(f"shape mismatch: {a.nrows}x{a.ncols} @ {b.nrows}x{b.ncols}")
    out = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            acc = 0
            for t in range(a.ncols):
                acc ^= gf4.MUL[a.rows[i][t]][b.rows[t][j]]
            row.append(acc)
        out.append(tuple(row))
    return Mat(tuple(out), b.ncols)


def brute_codewords(gen: Mat) -> list[tuple[int, ...]]:
    """All GF(4)-combinations of the rows, expanded coefficient by coefficient."""
    words = []
    for msg in itertools.product(range(4), repeat=gen.nrows):
        word = [0] * gen.ncols
        for coeff, row in zip(msg, gen.rows):
            for j, e in enumerate(row):
                word[j] ^= gf4.MUL[coeff][e]
        words.append(tuple(word))
    return words


def brute_weight_enumerator(gen: Mat) -> dict[int, int]:
    counts: dict[int, int] = {}
    for w in brute_codewords(gen):
        wt = sum(1 for e in w if e)
        counts[wt] = counts.get(wt, 0) + 1
    return counts


def brute_min_weight(gen: Mat) -> int:
    return min(sum(1 for e in w if e) for w in brute_codewords(gen) if any(w))


def brute_inner(u, v) -> int:
    """sum_i u_i * conj(v_i), read entry by entry from the tables."""
    acc = 0
    for x, y in zip(u, v):
        acc ^= gf4.MUL[x][gf4.CONJ[y]]
    return acc


def brute_hull_dimension(c: LinearCode) -> int:
    """log4 of |C intersect C_dual|, testing dual membership word by word.

    A word lies in the Hermitian dual iff it pairs to zero with every
    generator row, so the intersection is counted without ever forming
    the dual code.
    """
    size = sum(
        1
        for w in brute_codewords(c.gen)
        if all(brute_inner(w, row) == 0 for row in c.gen.rows)
    )
    dim = 0
    while 4**dim < size:
        dim += 1
    assert 4**dim == size, "hull is not a subspace?"
    return dim


def all_invertible_2x2() -> list[Mat]:
    out = []
    for a, b, c, d in itertools.product(range(4), repeat=4):
        if gf4.MUL[a][d] ^ gf4.MUL[b][c]:
            out.append(mat([(a, b), (c, d)]))
    return out


ALL_GL2 = all_invertible_2x2()


def normalized_column_multiset(gen: Mat) -> tuple:
    cols = []
    for j in range(gen.ncols):
        x, y = gen.rows[0][j], gen.rows[1][j]
        if x:
            s = gf4.INV[x]
        elif y:
            s = gf4.INV[y]
        else:
            cols.append((0, 0))
            continue
        cols.append((gf4.MUL[s][x], gf4.MUL[s][y]))
    return tuple(sorted(cols))


def equivalent_by_search(c1: LinearCode, c2: LinearCode) -> bool:
    """Monomial equivalence by trying all 180 row transforms of c1."""
    if c1.n != c2.n or c1.k != c2.k:
        return False
    target = normalized_column_multiset(c2.gen)
    return any(
        normalized_column_multiset(matmul(t, c1.gen)) == target for t in ALL_GL2
    )


def random_rank2_matrix(rng: random.Random, n: int) -> Mat:
    """Uniform-ish random 2 x n matrix with two independent columns."""
    while True:
        rows = [tuple(rng.randrange(4) for _ in range(n)) for _ in range(2)]
        has_minor = any(
            gf4.MUL[rows[0][i]][rows[1][j]] ^ gf4.MUL[rows[0][j]][rows[1][i]]
            for i in range(n)
            for j in range(i + 1, n)
        )
        if has_minor:
            return mat(rows)


def random_monomial_image(rng: random.Random, gen: Mat) -> Mat:
    """Permute columns and scale each by a random nonzero element."""
    perm = list(range(gen.ncols))
    rng.shuffle(perm)
    scales = [rng.choice((1, 2, 3)) for _ in range(gen.ncols)]
    rows = tuple(
        tuple(gf4.MUL[scales[j]][row[perm[j]]] for j in range(gen.ncols))
        for row in gen.rows
    )
    return Mat(rows, gen.ncols)


def random_equivalent_image(rng: random.Random, gen: Mat) -> Mat:
    """Random row transform followed by a random monomial map."""
    return random_monomial_image(rng, matmul(rng.choice(ALL_GL2), gen))


def random_full_rank(rng: random.Random, k: int, n: int) -> Mat:
    """Random k x n matrix of rank k, by rejection."""
    while True:
        gen = mat([tuple(rng.randrange(4) for _ in range(n)) for _ in range(k)])
        if rank(gen) == k:
            return gen


def cube_optimal_tuples(n: int) -> list[ATuple]:
    """``enumerate_optimal`` by the full cube 0 <= b3 <= b4, b5 <= delta,
    skipping the cells where b2 = delta + 1 - (b3 + b4 + b5) < 1."""
    d = dmax(n)
    dl = delta(n, d)
    t = n - d
    out = []
    for b3 in range(dl + 1):
        for b4 in range(b3, dl + 1):
            for b5 in range(b3, dl + 1):
                if not _parity_condition(b3, b4, b5, d):
                    continue
                b2 = dl + 1 - (b3 + b4 + b5)
                if b2 < 1:
                    continue
                entries = (t - 1, t - b2, t - b3, t - b4, t - b5)
                if min(entries) < 0:
                    continue
                out.append(ATuple(*entries))
    out.sort(key=lambda a: a.entries)
    return out


def catalog_family(label: str) -> Family:
    """The catalog row named ``label``."""
    return next(f for f in family_catalog() if f.label == label)


def atuple_multvector(a: ATuple) -> MultVector:
    """The zero columns and point multiplicities of ``build_generator(a)``."""
    return MultVector(a.a0, _atuple_mp(a.entries))


def catalog_view_reference(n: int) -> dict:
    """``classify._catalog_view`` rebuilt row by row: each catalog tuple
    instantiated at n as an ``ATuple``, reported by its entries, with the
    canonical form of its own point multiplicities as the class key."""
    return {
        f.label: (a.entries, (a.a0, _canonical_mp(_atuple_mp(a.entries))))
        for f, a in family_tuples(n)
    }


def label_map_reference(n: int) -> dict:
    """``classify._label_map`` by the rule applied to ``catalog_view_reference``:
    class key -> label, taking the designated rows of n's residue first, then
    the rows in catalog order, and the first label of each class."""
    view = catalog_view_reference(n)
    names = {f.index: f.label for f in family_catalog() if f.residue == n % 5}
    out = {}
    for label in itertools.chain((names[row] for _, row, _ in CLASSIFICATION[n % 5]), view):
        if label in view:
            out.setdefault(view[label][1], label)
    return out


# Reference rendering of class lists: the dicts fed to json.dumps(indent=2),
# the CSV rows fed to csv.writer, and the text lines printed one by one.
CLASS_CSV_HEADER = [
    "n", "d", "m0", "mp", "representative_a", "a0", "label",
    "weight_enumerator", "dual_min_weight_one",
]


def class_to_jsonable(c: EquivClass) -> dict:
    rep = representative_atuple(c.canon)
    return {
        "n": c.n,
        "d": c.d,
        "canonical": {"m0": c.canon.m0, "mp": list(c.canon.mp)},
        "representative_a": list(rep.entries),
        "a0": c.canon.m0,
        "label": c.label,
        "weight_enumerator": {str(w): count for w, count in c.we.counts},
        "dual_min_weight_one": c.zero_col,
    }


def class_csv_row(c: EquivClass) -> list:
    rep = representative_atuple(c.canon)
    return [
        c.n,
        c.d,
        c.canon.m0,
        " ".join(str(x) for x in c.canon.mp),
        " ".join(str(x) for x in rep.entries),
        c.canon.m0,
        c.label or "",
        c.we.poly_string(),
        str(c.zero_col).lower(),
    ]


def class_text_line(c: EquivClass) -> str:
    rep = representative_atuple(c.canon)
    label = c.label or "-"
    return (
        f"m0={c.canon.m0} mp={','.join(str(x) for x in c.canon.mp)} d={c.d} "
        f"a={','.join(str(x) for x in rep.entries)} label={label} "
        f"dual_min_weight_one={str(c.zero_col).lower()} we={c.we.poly_string()}"
    )


def render_classes(classes: list[EquivClass], fmt: str, header: str) -> str:
    """What ``census``/``classify`` print for ``classes`` in format ``fmt``."""
    buf = io.StringIO()
    if fmt == "json":
        print(json.dumps([class_to_jsonable(c) for c in classes], indent=2), file=buf)
    elif fmt == "csv":
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CLASS_CSV_HEADER)
        writer.writerows(class_csv_row(c) for c in classes)
    else:
        print(header, file=buf)
        for c in classes:
            print(class_text_line(c), file=buf)
    return buf.getvalue()


def render_class_pieces(classes, fmt: str, header: str):
    """``render_classes(list(classes), fmt, header)`` as consecutive pieces,
    one per class plus the framing, so a census of any size is compared
    while only one class is held.  A JSON piece is its class's
    ``json.dumps(indent=2)``, indented by two more spaces as the list's
    item; no string in a class holds a newline."""
    if fmt == "json":
        opener = "[\n  "
        for c in classes:
            yield opener + json.dumps(class_to_jsonable(c), indent=2).replace("\n", "\n  ")
            opener = ",\n  "
        yield "[]\n" if opener == "[\n  " else "\n]\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CLASS_CSV_HEADER)
        for c in classes:
            writer.writerow(class_csv_row(c))
            yield buf.getvalue()
            buf.seek(0)
            buf.truncate()
        yield buf.getvalue()
    else:
        yield header + "\n"
        for c in classes:
            yield class_text_line(c) + "\n"


def render_report(report: VerificationReport, fmt: str) -> str:
    """What ``verify`` printed for ``report`` in format ``fmt`` when it went
    out line by line: ``json.dumps(indent=2)``, ``csv.writer`` rows, or one
    ``print`` per check and the result line."""
    buf = io.StringIO()
    if fmt == "json":
        print(json.dumps(report.to_jsonable(), indent=2), file=buf)
    elif fmt == "csv":
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["id", "n", "pass", "detail"])
        for c in report.checks:
            writer.writerow([c.id, c.n, str(c.passed).lower(), c.detail])
    else:
        for c in report.checks:
            status = "PASS" if c.passed else "FAIL"
            print(f"{c.id} n={c.n} {status} {c.detail}", file=buf)
        failures = report.failures()
        if failures:
            print(f"RESULT: FAIL ({len(failures)} of {len(report.checks)} checks failed)", file=buf)
        else:
            print(f"RESULT: PASS ({len(report.checks)} checks)", file=buf)
    return buf.getvalue()


def reference_parser() -> argparse.ArgumentParser:
    """The argparse tree the command line was first parsed with, kept as
    the oracle for ``lcd2.cli``'s table-driven parser."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="output format (default: text)",
    )
    parser = argparse.ArgumentParser(
        prog="lcd2",
        description=(
            "Construct, test and exhaustively classify optimal quaternary "
            "Hermitian LCD codes of dimension 2."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", parents=[common], help="largest minimum weight at length n")
    p.add_argument("n", type=int)

    p = sub.add_parser("check", parents=[common], help="analyse a generator matrix")
    p.add_argument("matrix", help="rows by ';', entries by ',' (e.g. '1,0;0,w'); '-' reads stdin")

    p = sub.add_parser("construct", parents=[common], help="build the parametric generator matrix")
    p.add_argument("atuple", help="'a1,a2,a3,a4,a5', optionally prefixed 'a0=K;'")

    p = sub.add_parser("enumerate", parents=[common], help="optimal parameter tuples at length n")
    p.add_argument("n", type=int)

    p = sub.add_parser("classify", parents=[common], help="optimal classes up to equivalence")
    p.add_argument("n", type=int)
    p.add_argument("--include-zero-columns", action="store_true")

    p = sub.add_parser("census", parents=[common], help="equivalence classes at length n")
    p.add_argument("n", type=int)
    p.add_argument("--filter", choices=cls.VALID_FILTERS, default="lcd")
    p.add_argument("--include-zero-columns", action="store_true")

    p = sub.add_parser("verify", parents=[common], help="re-check the known classification")
    p.add_argument("--n-max", type=int, default=32)

    return parser


# Per command: a valid positional (None: the command takes none) and each
# option with two valid values (None for a flag).
_GRID_COMMANDS = {
    "bound": ("7", {"--format": ("json", "csv")}),
    "check": ("1,0;0,1", {"--format": ("json", "csv")}),
    "construct": ("1,1,1,1,1", {"--format": ("json", "csv")}),
    "enumerate": ("7", {"--format": ("json", "csv")}),
    "classify": ("7", {"--format": ("json", "csv"), "--include-zero-columns": None}),
    "census": (
        "7",
        {"--format": ("json", "csv"), "--filter": ("all", "optimal_lcd"), "--include-zero-columns": None},
    ),
    "verify": (None, {"--format": ("json", "csv"), "--n-max": ("9", "-5")}),
}


def parser_grid() -> list[list[str]]:
    """Command lines for the parser parity check, for every command: the
    positional before, between and after options; ``--opt value`` and
    ``--opt=value`` under every prefix of every long option (ambiguous ones
    included); repeated options; ``--`` in each place, with ``-`` and
    negative numbers as positionals; missing and extra positionals; bad
    choices, non-int numbers and unknown options; and ``-h``, ``--help``
    and ``--he`` at the top level and per command.  argparse 3.10 to 3.12
    and 3.13 all agree on these; the lines they read differently (``-hx``,
    ``--format=--``) are left out."""
    grid = [
        [], ["-h"], ["--help"], ["--he"], ["--h"], ["--help=x"], ["-hh"], ["-h="], ["--=x"],
        ["bogus"], ["-"], ["-5"], [""], ["--"], ["--", "bound", "7"], ["-x"], ["-x", "bound", "7"],
        ["--format", "json", "bound", "7"], ["--format", "bound", "7"], ["-h", "bogus"],
        ["bogus", "-h"], ["-x", "--help"], ["-x", "bound", "7", "--help"], ["bound 7"],
    ]
    for command, (positional, options) in _GRID_COMMANDS.items():
        pos = [positional] if positional else []
        settings = [[flag] if values is None else [flag, values[0]] for flag, values in options.items()]
        cases = [[], ["-h"], ["--help"], ["--he"], ["-hh"], ["-h="], ["--help=1"], ["--"], ["-"]]
        cases += [["--", "--"], ["-5"], ["--", "-5"], ["-1.5"], ["-.5"], ["-5\n"], ["x"], ["7.0"], [""]]
        cases += [["+7"], [" 7 "], ["7_0"], ["1,0"], ["-1,0"], ["- 1"], ["--x y"], ["--jobs", "2"]]
        cases += [["--jobs=2"], ["-j"], ["--format", "xml"], ["--format"], ["--format", "--"]]
        cases += [["--format", "-5"], ["--filter", "nope"], ["--n-max", "x"], ["--n-max", "-"]]
        cases += [["--n-max", ""], ["--n-max=-5"], ["--include-zero-columns=1"], ["--=x"]]
        cases += [["--include-zero-columns="], ["-x=1"], ["--format", "json", "--format", "csv"]]
        for case in list(cases):
            cases += [pos + case, case + pos, ["x", *pos, *case], [*pos, *case, "x"], [*pos, *pos, *case]]
        cases += [[*pos, "--"], ["--", *pos], [*pos, "--", "--"], ["--", *pos, "--"]]
        cases += [["--", *pos, "-h"], [*pos, "--", "-h"], ["-h", "--", *pos], [*pos, "-h", "--"]]
        for setting in settings:
            flag, *value = setting
            cases += [pos + setting, setting + pos, [*setting, "--", *pos], [*pos, *setting, "--"]]
            cases += [["--", *pos, *setting], [*pos, "--", *setting], [*setting, *pos, "--"]]
            cases += [[*pos, *setting, *setting], [*setting, *pos, *setting], [flag, *pos]]
            cases += [[*pos, *setting, "-h"], ["-h", *pos, *setting], [*setting, "--help", *pos]]
            for end in range(3, len(flag) + 1):
                prefix = flag[:end]
                cases += [[*pos, prefix, *value], [prefix, *value, *pos]]
                cases += [[*pos, "=".join([prefix, *value]) + "="], [*pos, prefix + "=" + "x"]]
                if value:
                    cases += [[*pos, f"{prefix}={value[0]}"], [f"{prefix}={value[0]}", *pos]]
            if value:
                values = options[flag]
                cases += [[*pos, flag, values[0], flag, values[1]], [flag, values[1], *pos, flag, values[0]]]
                cases += [[*pos, flag, values[0], f"{flag}={values[1]}"], [*pos, f"{flag}=", "x"]]
        for order in itertools.permutations(settings):
            flat = [arg for setting in order for arg in setting]
            cases += [flat + pos, pos + flat, flat[:2] + pos + flat[2:]]
        for prefix in ("--he", "--hel", "--h", "--f", "--fo", "--fi", "--i", "--n", "--in"):
            cases += [[*pos, prefix], [prefix, *pos]]
        grid += [[command, *case] for case in cases]
    unique = {tuple(argv): None for argv in grid}
    return [list(argv) for argv in unique]


def parse_outcome(parse, argv: list[str]) -> tuple:
    """(exit code or None, the namespace's vars or None, stdout, stderr) of
    ``parse(argv)``; an exit code means help (0) or a usage error (2)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ns = parse(argv)
        except SystemExit as exc:
            return int(exc.code or 0), None, out.getvalue(), err.getvalue()
    return None, vars(ns), out.getvalue(), err.getvalue()


def parser_mismatches(parse, grid: list[list[str]]) -> list[tuple]:
    """The command lines of ``grid`` on which ``parse`` and the reference
    parser disagree: on the namespace where the reference accepts, and on
    the exit code where it exits; after an error stdout must be empty.
    Each entry is (argv, reference outcome, outcome)."""
    reference = reference_parser().parse_args
    bad = []
    for argv in grid:
        want = parse_outcome(reference, argv)
        got = parse_outcome(parse, argv)
        if want[:2] != got[:2] or (got[0] == 2 and got[2]) or (want[0] == 0) != bool(got[2]):
            bad.append((argv, want, got))
    return bad
