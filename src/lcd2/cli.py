"""Command-line front end.

Commands: bound, check, construct, enumerate, classify, census, verify.
Every command accepts --format {text,json,csv}.
Exit codes: 0 on success, 1 when verification finds a failing check,
2 on usage or parse errors and on check, construct, census or verify
requests over the work budget, 141 when the reader closes stdout early.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Iterable
from itertools import starmap

from . import classify as cls
from . import code as codeops
from . import family as fam
from .code import LinearCode
from .linalg import format_matrix, parse_matrix


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    ``main`` call in the process (parsing leaves it unchanged)."""
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


def _print_csv(header: list[str], rows: Iterable[list]) -> None:
    for row in (header, *rows):
        sys.stdout.write(",".join(_csv_field(str(x)) for x in row) + "\n")


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _we_jsonable(we: codeops.WeightEnumerator) -> dict[str, int]:
    return {str(w): c for w, c in we.counts}


_CLASS_CSV_HEADER = "n,d,m0,mp,representative_a,a0,label,weight_enumerator,dual_min_weight_one\n"


def _csv_field(field: str) -> str:
    """``field`` as ``csv.writer(..., lineterminator="\\n")`` writes it under
    its default QUOTE_MINIMAL: quoted, with quotes doubled, when it holds
    the delimiter, the quote character or the line terminator."""
    if "," in field or '"' in field or "\n" in field:
        return '"' + field.replace('"', '""') + '"'
    return field


def _emit_classes(n: int, runs: Iterable, labels: dict, fmt: str, header: str):
    """Write the classes of the runs (m0, p0, p1, p2, xs) of ``census_runs``
    to stdout in ``fmt``, one string per class, labelled by ``labels``.

    A run fixes t = n - m0, r = t - p0 - p1 - p2, its prefix text, the
    terms of (p2, p1, p0) and, when p1 > 0, the first three entries of
    ``representative_entries`` (the last two are x and r - x); a form
    (p0, p1, p2, x, r - x) adds d, the terms of its last two parts
    (``_we_terms`` of all five where parts coincide) and, when p1 = 0,
    its own ``representative_entries``.  Each distinct term is formatted
    once per call.  JSON is byte for byte ``json.dumps(classes, indent=2)``
    of the README schema's class objects; CSV is what ``csv.writer``
    writes; text is the header and one line per class.
    """
    term = functools.cache((',\n      "{0}": {1}' if fmt == "json" else "+{1}y^{0}").format)
    out = sys.stdout
    if fmt == "csv":
        out.write(_CLASS_CSV_HEADER)
    elif fmt == "text":
        out.write(header + "\n")
    sep = "[\n"
    head = f'  {{\n    "n": {n},\n    "d": '
    for m0, p0, p1, p2, xs in runs:
        t = n - m0
        r = t - p0 - p1 - p2
        zero_col = "true" if m0 else "false"
        tail = "".join(starmap(term, cls._we_terms(t, (p2, p1, p0))))
        if p1:
            a1, a2, a3 = cls.representative_entries((p0, p1, p2, xs[0], r - xs[0]))[:3]
        if fmt == "json":
            prefix = (
                f',\n    "canonical": {{\n      "m0": {m0},\n      "mp": [\n'
                f"        {p0},\n        {p1},\n        {p2},\n        "
            )
            after_a = f'\n    ],\n    "a0": {m0},\n    "label": '
            close = f'\n    }},\n    "dual_min_weight_one": {zero_col}\n  }}'
        elif fmt == "csv":
            prefix = f",{m0},{p0} {p1} {p2} "
            close = f",{zero_col}\n"
        else:
            prefix = f"m0={m0} mp={p0},{p1},{p2},"
        for x in xs:
            y = r - x
            lo, hi = (x, y) if x < y else (y, x)
            d = t - hi
            if lo == p2 or lo == hi:
                we = "".join(starmap(term, cls._we_terms(t, (hi, lo, p2, p1, p0))))
            else:
                we = term(d, 3) + term(t - lo, 3) + tail
            if p1:
                a4, a5 = x, y
            else:
                a1, a2, a3, a4, a5 = cls.representative_entries((p0, p1, p2, x, y))
            label = labels.get((m0, (p0, p1, p2, x, y))) if labels else None
            if fmt == "json":
                out.write(
                    f"{sep}{head}{d}{prefix}{x},\n        {y}\n      ]\n    }},\n"
                    f'    "representative_a": [\n      {a1},\n      {a2},\n      {a3},\n'
                    f"      {a4},\n      {a5}{after_a}"
                    f'{"null" if label is None else json.dumps(label)},\n'
                    f'    "weight_enumerator": {{\n      "0": 1{we}{close}'
                )
                sep = ",\n"
            elif fmt == "csv":
                out.write(
                    f"{n},{d}{prefix}{x} {y},{a1} {a2} {a3} {a4} {a5},{m0},"
                    f"{_csv_field(label or '')},1{we}{close}"
                )
            else:
                out.write(
                    f"{prefix}{x},{y} d={d} a={a1},{a2},{a3},{a4},{a5} "
                    f"label={label or '-'} dual_min_weight_one={zero_col} we=1{we}\n"
                )
    if fmt == "json":
        out.write("[]\n" if sep == "[\n" else "\n]\n")


def cmd_bound(args: argparse.Namespace) -> int:
    d = fam.dmax(args.n)
    delta = fam.delta(args.n, d)
    if args.format == "json":
        _print_json({"n": args.n, "d": d, "delta": delta})
    elif args.format == "csv":
        _print_csv(["n", "d", "delta"], [[args.n, d, delta]])
    else:
        print(f"n = {args.n}")
        print(f"d_max = {d}")
        print(f"delta = {delta}")
    return 0


# Longest matrix text ``check`` reads: a code the codeword budget admits
# has at most that many entries, each at most 3 characters ("w2,").
_TEXT_BUDGET = 4 * codeops.CODEWORD_BUDGET


def cmd_check(args: argparse.Namespace) -> int:
    text = sys.stdin.read(_TEXT_BUDGET + 1) if args.matrix == "-" else args.matrix
    if len(text) > _TEXT_BUDGET:
        raise ValueError(f"matrix text longer than the budget of {_TEXT_BUDGET} characters")
    gen = parse_matrix(text)
    code = LinearCode(gen)
    # One codeword walk and one Gram matrix: d is the enumerator's least
    # positive weight, and the code is LCD iff its hull is trivial.
    we = codeops.weight_enumerator(code)
    d = we.min_positive_weight() if code.k >= 1 else 0
    hull = codeops.hull_dimension(code)
    lcd = hull == 0
    if args.format == "json":
        _print_json(
            {
                "n": code.n,
                "k": code.k,
                "d": d,
                "hull_dimension": hull,
                "hermitian_lcd": lcd,
                "weight_enumerator": _we_jsonable(we),
                "weight_enumerator_poly": we.poly_string(),
            }
        )
    elif args.format == "csv":
        _print_csv(
            ["n", "k", "d", "hull_dimension", "hermitian_lcd", "weight_enumerator"],
            [[code.n, code.k, d, hull, str(lcd).lower(), we.poly_string()]],
        )
    else:
        print(f"n = {code.n}")
        print(f"k = {code.k}")
        print(f"d = {d}")
        print(f"hull_dimension = {hull}")
        print(f"hermitian_lcd = {str(lcd).lower()}")
        print(f"weight_enumerator = {we.poly_string()}")
    return 0


def cmd_construct(args: argparse.Namespace) -> int:
    a = fam.parse_atuple(args.atuple)
    gen = fam.build_generator(a)
    text = format_matrix(gen)
    if args.format == "json":
        _print_json({"a0": a.a0, "a": list(a.entries), "n": a.n, "matrix": text})
    elif args.format == "csv":
        _print_csv(
            ["a0", "a", "n", "matrix"],
            [[a.a0, " ".join(str(x) for x in a.entries), a.n, text]],
        )
    else:
        print(text)
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    tuples = fam.enumerate_optimal(args.n)
    d = fam.dmax(args.n)
    labels = {entries: label for label, (entries, _) in cls._catalog_view(args.n).items()}
    if args.format == "json":
        _print_json(
            {
                "n": args.n,
                "d": d,
                "count": len(tuples),
                "tuples": [
                    {"a": list(a.entries), "label": labels.get(a.entries)} for a in tuples
                ],
            }
        )
    elif args.format == "csv":
        _print_csv(
            ["a1", "a2", "a3", "a4", "a5", "label"],
            [list(a.entries) + [labels.get(a.entries, "")] for a in tuples],
        )
    else:
        print(f"n = {args.n}, d = {d}, count = {len(tuples)}")
        for a in tuples:
            label = labels.get(a.entries, "-")
            print(f"{','.join(str(x) for x in a.entries)}  {label}")
    return 0


def _write_census(args: argparse.Namespace, filt: str, labels: dict, kind: str) -> int:
    """The census of ``args.n`` under ``filt``, labelled by ``labels``, after
    a header whose class count follows ``kind``."""
    runs = list(cls.census_runs(args.n, filt, args.include_zero_columns))
    count = sum(len(run[4]) for run in runs)
    header = (
        f"n={args.n} {kind} classes={count} "
        f"include_zero_columns={str(args.include_zero_columns).lower()}"
    )
    _emit_classes(args.n, runs, labels, args.format, header)
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    labels = cls._label_map(cls._catalog_view(args.n))
    return _write_census(args, "optimal_lcd", labels, "optimal")


def cmd_census(args: argparse.Namespace) -> int:
    return _write_census(args, args.filter, {}, f"filter={args.filter}")


def cmd_verify(args: argparse.Namespace) -> int:
    report = cls.verify_classification(args.n_max)
    if args.format == "json":
        _print_json(report.to_jsonable())
    elif args.format == "csv":
        _print_csv(
            ["id", "n", "pass", "detail"],
            [[c.id, c.n, str(c.passed).lower(), c.detail] for c in report.checks],
        )
    else:
        for c in report.checks:
            status = "PASS" if c.passed else "FAIL"
            print(f"{c.id} n={c.n} {status} {c.detail}")
        failures = report.failures()
        if failures:
            print(f"RESULT: FAIL ({len(failures)} of {len(report.checks)} checks failed)")
        else:
            print(f"RESULT: PASS ({len(report.checks)} checks)")
    return 0 if report.passed else 1


_COMMANDS = {
    "bound": cmd_bound,
    "check": cmd_check,
    "construct": cmd_construct,
    "enumerate": cmd_enumerate,
    "classify": cmd_classify,
    "census": cmd_census,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    try:
        rc = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone (e.g. `| head`).  Point stdout at /dev/null so
        # the flush at interpreter exit stays silent, and exit as a SIGPIPE
        # kill would (128 + 13).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
    sys.exit(rc)


if __name__ == "__main__":
    run()
