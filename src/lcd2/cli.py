"""Command-line front end.

Commands: bound, check, construct, enumerate, classify, census, verify.
Every command accepts --format {text,json,csv}.  ``_write`` writes a
command's record (a JSON object, CSV rows, text lines) with one write;
verify's JSON comes from a template, and census and classify write their
classes in batches of whole rows (``_emit_classes``).  ``_COMMANDS`` is the
whole grammar: per command its handler, help line, positional and
options.  Options may come before, between or after the positional, as
``--opt value`` or ``--opt=value``, cut to any prefix no other option of
the command shares; the last of a repeated option wins, ``--`` ends the
options, and ``-`` and negative numbers are positionals.  ``-h`` or
``--help``, before the command or after it, prints the commands or that
command's usage and options.  The parser accepts and refuses what the
argparse tree it replaced did (``tests/helpers.py::reference_parser``).
Exit codes: 0 on success and after help, 1 when verification finds a
failing check, 2 on usage errors (stdout empty; stderr holds a
``usage: lcd2 ...`` line and a ``lcd2 ...: error: ...`` line), on parse
errors and on check, construct, census or verify requests over the work
budget, 74 (EX_IOERR) when writing stdout fails (e.g. on a full disk;
stderr holds one ``error: ...`` line), 141 when the reader closes stdout
early.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from . import classify as cls
from . import family as fam


_CLASS_CSV_HEADER = "n,d,m0,mp,representative_a,a0,label,weight_enumerator,dual_min_weight_one\n"


def _csv_field(field: str) -> str:
    """``field`` as ``csv.writer(..., lineterminator="\\n")`` writes it under
    its default QUOTE_MINIMAL: quoted, with quotes doubled, when it holds
    the delimiter, the quote character or the line terminator."""
    if "," in field or '"' in field or "\n" in field:
        return '"' + field.replace('"', '""') + '"'
    return field


def _write(fmt: str, obj, header: list, rows: list[list], text: list[str]) -> None:
    """Write one command's record in ``fmt`` with one write: for JSON
    ``json.dumps(obj, indent=2)``, for CSV ``header`` and ``rows`` as
    ``csv.writer`` writes them, for text the ``text`` lines."""
    if fmt == "json":
        import json

        text = [json.dumps(obj, indent=2)]
    elif fmt == "csv":
        text = [",".join(_csv_field(str(x)) for x in row) for row in (header, *rows)]
    sys.stdout.write("".join(line + "\n" for line in text))


class _Memo(dict):
    """Values by key, each made by ``make(key)`` on its first lookup."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


# _emit_classes joins and writes its rows once it holds at least this many,
# so a census takes a few writes; the bound keeps the text held small
# (one write of a whole census was 11% slower and raised peak RSS by 10%).
_BATCH_ROWS = 512


def _emit_classes(n: int, runs: list, labels: dict, fmt: str, header: str):
    """Write the classes of the runs (m0, p0, p1, p2, xs) of ``census_runs``
    to stdout in ``fmt``, labelled by ``labels``: one write per batch of
    whole runs holding at least ``_BATCH_ROWS`` rows, and one for the rest.

    A walked census, whose runs outnumber the numbers 0..n, formats every
    number and term up front into the lists ``num`` and ``terms``, and none
    per run; a table census memoises the few it writes in ``num`` and
    ``terms``, on the same keys.  A change of m0 builds the text that
    depends on m0 alone, and ``mid``, the text from the label to a common
    row's first term, with no label.  A run with a new (m0, p0, p1, p2)
    builds its prefix, its enumerator tail (the terms of p2 >= p1 >= p0:
    (t - p2, c0), c0 = 3, 6 or 9 by how many parts equal p2, then the
    rest), ``end``, the text after a common row's second term, and, when
    p1 > 0, its representative head; a mirrored run, which comes right
    after the sorted run of its prefix, reuses them.  lo, the smaller of x
    and r - x, is x throughout a sorted run and r - x throughout a
    mirrored one.  A row writes d = t - (r - lo) and its terms, merging
    coinciding parts: 3y^d, 3y^(t - lo) and the tail for a common row,
    written into the row's one string; 3y^d, (t - p2, c0 + 3) and the rest
    for lo = p2; 6y^(t - lo) and the tail for x = r - x; (t - p2, c0 + 6)
    and the rest for both.  When p1 = 0 a row adds its own
    ``representative_entries``; a row in ``labels`` adds its label.  Only
    ``classify`` passes labels, and no row of its table census is a common
    row, so ``mid`` needs none.  JSON is ``json.dumps(classes, indent=2)``
    of the README schema's class objects; CSV is what ``csv.writer``
    writes; text is the header and one line per class.
    """
    out = sys.stdout
    json_fmt, text = fmt == "json", fmt == "text"
    # Every number written lies in 0..n; the term c y^w (c = 3, 6, 9, 12 or
    # 15) has the key w << 4 | c.  A walked census writes nearly all of them,
    # so it formats them up front (by f-string: str.format took three times
    # as long).  A table census (at most 6 runs, n up to 10^20) writes a few,
    # many of its numbers more than once, so it memoises them: taking ints
    # from range(n + 1) instead, to be formatted at each use, made its
    # writer about 5% slower than with the memo.
    if len(runs) > n:
        num = list(map(str, range(n + 1)))
        terms = [""] * (16 * n + 16)
        for c in ("3", "6", "9", "12", "15"):
            terms[int(c)::16] = [f',\n      "{w}": {c}' if json_fmt else f"+{c}y^{w}" for w in num]
    else:
        num = _Memo(str)
        if json_fmt:
            terms = _Memo(lambda k: f',\n      "{k >> 4}": {k & 15}')
        else:
            terms = _Memo(lambda k: f"+{k & 15}y^{k >> 4}")
    # Every label holds a comma and no quote, backslash or non-ASCII
    # character, so the literal quotes are what json.dumps and csv.writer write.
    quote = str if text else '"{}"'.format
    # open3 + w + next3 + v + end3 writes the terms 3y^w and 3y^v.
    if json_fmt:
        lead = f'  {{\n    "n": {n},\n    "d": '
        sep, joiner = "[\n" + lead, ",\n" + lead
        mp_sep, a_sep, none = ",\n        ", ",\n      ", "null"
        head_open = '\n      ]\n    },\n    "representative_a": [\n      '
        open3, next3, end3 = ',\n      "', '": 3,\n      "', '": 3'
    else:
        out.write(header + "\n" if text else _CLASS_CSV_HEADER)
        sep = joiner = f"{n},"  # CSV rows open with n; text rows with their run's prefix
        mp_sep = a_sep = "," if text else " "
        none = "-" if text else ""
        head_open = " a=" if text else ","
        open3, next3, end3 = "+3y^", "+3y^", ""
    label = none
    last_m0 = None
    rows = []
    for m0, p0, p1, p2, xs in runs:
        if m0 != last_m0:
            last_m0, t = m0, n - m0
            last_p2 = -1  # the next run builds its prefix
            zero_col = "true" if m0 else "false"
            if json_fmt:
                mp_open = f',\n    "canonical": {{\n      "m0": {m0},\n      "mp": [\n        '
                before = f'\n    ],\n    "a0": {m0},\n    "label": '
                after = ',\n    "weight_enumerator": {\n      "0": 1'
                close = f'\n    }},\n    "dual_min_weight_one": {zero_col}\n  }}'
            elif text:
                mp_open = f"m0={m0} mp="
                before, after, close = " label=", f" dual_min_weight_one={zero_col} we=1", "\n"
            else:
                mp_open = before = f",{m0},"
                after, close = ",1", f",{zero_col}\n"
            mid = before + none + after + open3
        q = p0 + p1 + p2
        r = t - q
        if p2 != last_p2 or p1 != last_p1 or p0 != last_p0:
            last_p0, last_p1, last_p2 = p0, p1, p2
            prefix = f"{mp_open}{num[p0]}{mp_sep}{num[p1]}{mp_sep}{num[p2]}{mp_sep}"
            c0 = 3 + 3 * (p1 == p2) + 3 * (p0 == p2)
            k0 = (t - p2) << 4 | c0  # the key of (t - p2, c0)
            rest = terms[(t - p1) << 4 | (6 if p0 == p1 else 3)] if p1 < p2 else ""
            if p0 < p1:
                rest += terms[(t - p0) << 4 | 3]
            tail = terms[k0] + rest
            end = end3 + tail + close
            if p1:
                # representative_entries' rotation, which with at most one
                # zero part moves (p1, p2) ahead of p0 = 0 and leaves p0 > 0
                # in place.
                a1, a2, a3 = (p2 - 1, p1 - 1, 0) if p0 == 0 else (p1 - 1, p0 - 1, p2)
                head = f"{head_open}{num[a1]}{a_sep}{num[a2]}{a_sep}{num[a3]}{a_sep}"
        lo_is_x = 2 * xs[0] <= r
        for x in xs:
            y = r - x
            lo = x if lo_is_x else y
            sx, sy, sd = num[x], num[y], num[q + lo]
            if p1:
                a4, a5 = sx, sy
            else:
                a1, a2, a3, a4, a5 = cls.representative_entries((p0, p1, p2, x, y))
                head = f"{head_open}{a1}{a_sep}{a2}{a_sep}{a3}{a_sep}"
            if labels:
                found = labels.get((m0, (p0, p1, p2, x, y)))
                label = none if found is None else quote(found)
            if x == y or lo == p2:
                if x == y:
                    we = terms[k0 + 6] + rest if lo == p2 else terms[(t - lo) << 4 | 6] + tail
                else:
                    we = f"{open3}{sd}{end3}{terms[k0 + 3]}{rest}"
                if text:
                    rows.append(
                        f"{prefix}{sx}{mp_sep}{sy} d={sd}{head}{a4}{a_sep}{a5}"
                        f"{before}{label}{after}{we}{close}"
                    )
                else:
                    rows.append(
                        f"{sep}{sd}{prefix}{sx}{mp_sep}{sy}{head}{a4}{a_sep}{a5}"
                        f"{before}{label}{after}{we}{close}"
                    )
            elif text:
                rows.append(
                    f"{prefix}{sx}{mp_sep}{sy} d={sd}{head}{a4}{a_sep}{a5}"
                    f"{mid}{sd}{next3}{num[t - lo]}{end}"
                )
            else:
                rows.append(
                    f"{sep}{sd}{prefix}{sx}{mp_sep}{sy}{head}{a4}{a_sep}{a5}"
                    f"{mid}{sd}{next3}{num[t - lo]}{end}"
                )
            sep = joiner
        if len(rows) >= _BATCH_ROWS:
            out.write("".join(rows))
            rows = []
    out.write("".join(rows))
    if json_fmt:
        out.write("\n]\n" if sep == joiner else "[]\n")


def cmd_bound(args: SimpleNamespace) -> int:
    d = fam.dmax(args.n)
    delta = fam.delta(args.n, d)
    obj = {"n": args.n, "d": d, "delta": delta}
    lines = [f"n = {args.n}", f"d_max = {d}", f"delta = {delta}"]
    _write(args.format, obj, list(obj), [list(obj.values())], lines)
    return 0


def cmd_check(args: SimpleNamespace) -> int:
    from . import code as codeops, linalg

    # Longest matrix text read: a code the codeword budget admits has at
    # most that many entries, each at most 3 characters ("w2,").
    budget = 4 * codeops.CODEWORD_BUDGET
    text = sys.stdin.read(budget + 1) if args.matrix == "-" else args.matrix
    if len(text) > budget:
        raise ValueError(f"matrix text longer than the budget of {budget} characters")
    gen = linalg.parse_matrix(text)
    code = codeops.LinearCode(gen)
    # One codeword walk and one Gram matrix: d is the enumerator's least
    # positive weight, and the code is LCD iff its hull is trivial.
    we = codeops.weight_enumerator(code)
    hull = codeops.hull_dimension(code)
    lcd, poly = hull == 0, we.poly_string()
    fields = dict(
        n=code.n, k=code.k, d=we.min_positive_weight(), hull_dimension=hull,
        hermitian_lcd=str(lcd).lower(), weight_enumerator=poly,
    )
    # JSON keeps the fields in order, with a bool and the enumerator's
    # terms, and adds the polynomial.
    terms = {str(w): c for w, c in we.counts}
    obj = dict(fields, hermitian_lcd=lcd, weight_enumerator=terms, weight_enumerator_poly=poly)
    lines = [f"{name} = {value}" for name, value in fields.items()]
    _write(args.format, obj, list(fields), [list(fields.values())], lines)
    return 0


def cmd_construct(args: SimpleNamespace) -> int:
    from . import linalg

    a = fam.parse_atuple(args.atuple)
    text = linalg.format_matrix(fam.build_generator(a))
    obj = {"a0": a.a0, "a": list(a.entries), "n": a.n, "matrix": text}
    row = [a.a0, " ".join(map(str, a.entries)), a.n, text]
    _write(args.format, obj, list(obj), [row], [text])
    return 0


def cmd_enumerate(args: SimpleNamespace) -> int:
    d = fam.dmax(args.n)
    # Each optimal tuple once, labelled; T1 checks it against enumerate_optimal.
    tuples = sorted((a, label) for label, (a, _) in cls._catalog_view(args.n).items())
    pairs = [{"a": list(a), "label": label} for a, label in tuples]
    obj = {"n": args.n, "d": d, "count": len(tuples), "tuples": pairs}
    rows = [[*a, label] for a, label in tuples]
    lines = [f"n = {args.n}, d = {d}, count = {len(tuples)}"]
    lines += [f"{','.join(map(str, a))}  {label}" for a, label in tuples]
    _write(args.format, obj, ["a1", "a2", "a3", "a4", "a5", "label"], rows, lines)
    return 0


def _write_census(args: SimpleNamespace, filt: str, labels: dict, kind: str) -> int:
    """The census of ``args.n`` under ``filt``, labelled by ``labels``, after
    a header whose class count follows ``kind``."""
    runs = list(cls.census_runs(args.n, filt, args.include_zero_columns))
    header = ""  # only text prints it
    if args.format == "text":
        count = sum(len(run[4]) for run in runs)
        header = (
            f"n={args.n} {kind} classes={count} "
            f"include_zero_columns={str(args.include_zero_columns).lower()}"
        )
    _emit_classes(args.n, runs, labels, args.format, header)
    return 0


def cmd_classify(args: SimpleNamespace) -> int:
    labels = cls._label_map(args.n)
    return _write_census(args, "optimal_lcd", labels, "optimal")


def cmd_census(args: SimpleNamespace) -> int:
    return _write_census(args, args.filter, {}, f"filter={args.filter}")


def cmd_verify(args: SimpleNamespace) -> int:
    # classify forwards this name to lcd2.verify, importing it on first use;
    # bench/host.py traces it under classify's name.
    report = cls.verify_classification(args.n_max)
    checks = report.checks
    if args.format == "json":
        # The bytes of json.dumps(report.to_jsonable(), indent=2), from a
        # template: given an indent, json.dumps runs its pure-Python encoder.
        # n_max >= 7 gives at least one check, so the list is never empty.
        from json.encoder import encode_basestring_ascii as quote

        entries = ",\n".join(
            f'    {{\n      "id": {quote(c.id)},\n      "n": {c.n},\n      "pass": '
            f'{"true" if c.passed else "false"},\n      "detail": {quote(c.detail)}\n    }}'
            for c in checks
        )
        sys.stdout.write(f'{{\n  "n_max": {report.n_max},\n  "checks": [\n{entries}\n  ]\n}}\n')
    elif args.format == "csv":
        rows = [[c.id, c.n, "true" if c.passed else "false", c.detail] for c in checks]
        _write("csv", None, ["id", "n", "pass", "detail"], rows, [])
    else:
        lines = [f"{c.id} n={c.n} {'PASS' if c.passed else 'FAIL'} {c.detail}" for c in checks]
        failed = len(report.failures())
        if failed:
            lines.append(f"RESULT: FAIL ({failed} of {len(checks)} checks failed)")
        else:
            lines.append(f"RESULT: PASS ({len(checks)} checks)")
        _write("text", None, [], [], lines)
    return 0 if report.passed else 1


_FORMAT = {"--format": (("text", "json", "csv"), "text", "output format (default: text)")}
_ZERO_COLUMNS = {"--include-zero-columns": (bool, False, "count codes with zero columns too")}
_N = ("n", int, "")

# command -> (handler, help, positional (name, type, help) or None, options
# {flag: (kind, default, help)}), kind being int, bool for a flag that takes
# no value, or the values accepted.  No flag is a prefix of another.
_COMMANDS = {
    "bound": (cmd_bound, "largest minimum weight at length n", _N, _FORMAT),
    "check": (
        cmd_check,
        "analyse a generator matrix",
        ("matrix", str, "rows by ';', entries by ',' (e.g. '1,0;0,w'); '-' reads stdin"),
        _FORMAT,
    ),
    "construct": (
        cmd_construct,
        "build the parametric generator matrix",
        ("atuple", str, "'a1,a2,a3,a4,a5', optionally prefixed 'a0=K;'"),
        _FORMAT,
    ),
    "enumerate": (cmd_enumerate, "optimal parameter tuples at length n", _N, _FORMAT),
    "classify": (cmd_classify, "optimal classes up to equivalence", _N, {**_FORMAT, **_ZERO_COLUMNS}),
    "census": (
        cmd_census,
        "equivalence classes at length n",
        _N,
        {
            **_FORMAT,
            "--filter": (cls.VALID_FILTERS, "lcd", "classes kept (default: lcd)"),
            **_ZERO_COLUMNS,
        },
    ),
    "verify": (
        cmd_verify,
        "re-check the known classification",
        None,
        {**_FORMAT, "--n-max": (int, 32, "largest length checked (default: 32)")},
    ),
}

# Built once from _COMMANDS: per command, {flag: (kind, attribute)} with
# "--help" first, and the namespace its options give when none is set.
_FLAGS = {
    command: {
        "--help": (bool, None),
        **{flag: (kind, flag[2:].replace("-", "_")) for flag, (kind, _, _) in row[3].items()},
    }
    for command, row in _COMMANDS.items()
}
_DEFAULTS = {
    command: {flag[2:].replace("-", "_"): default for flag, (_, default, _) in row[3].items()}
    for command, row in _COMMANDS.items()
}

_DESCRIPTION = (
    "Construct, test and exhaustively classify optimal quaternary "
    "Hermitian LCD codes of dimension 2."
)


def _metavar(flag: str, kind) -> str:
    if kind is bool:
        return ""
    return " " + (flag[2:].upper().replace("-", "_") if kind is int else "{" + ",".join(kind) + "}")


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: lcd2 [-h] {{{','.join(_COMMANDS)}}} ..."
    _, _, positional, options = _COMMANDS[command]
    words = [f"usage: lcd2 {command} [-h]"]
    words += (f"[{flag}{_metavar(flag, kind)}]" for flag, (kind, _, _) in options.items())
    return " ".join(words + ([positional[0]] if positional else []))


def _help(command: str | None) -> str:
    """What ``-h`` prints: the usage line, then the commands, or the
    command's positional and options, one per line."""
    if command is None:
        summary, rows = _DESCRIPTION, [(name, row[1]) for name, row in _COMMANDS.items()]
    else:
        _, summary, positional, options = _COMMANDS[command]
        rows = [(positional[0], positional[2])] if positional else []
        rows += [(flag + _metavar(flag, kind), text) for flag, (kind, _, text) in options.items()]
    rows.append(("-h, --help", "show this help message and exit"))
    width = max(len(left) for left, _ in rows)
    lines = [f"  {left:<{width}}  {text}".rstrip() for left, text in rows]
    return "\n".join([_usage(command), "", summary, "", *lines])


def _refuse(command: str | None, message: str):
    """Write the usage of ``command`` (the top level when None) and
    ``message`` to stderr, and exit 2."""
    prog = "lcd2" if command is None else f"lcd2 {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _read_arg(arg: str, flags, command: str | None):
    """``arg`` read against ``flags`` (``--help`` first): None for a
    positional, else (flag, the value after '=' or None), with flag None
    for an unknown option.  A long flag may be cut to any prefix no other
    flag shares.  ``-h`` is ``--help``; so is ``-hh...``, bundled flags
    all being ``-h``.  ``-``, ``--`` and negative numbers are positionals."""
    if arg[:1] != "-" or arg in ("-", "--"):
        return None
    if arg[1] != "-":
        if arg[:2] != "-h":
            import re

            return None if re.match(r"-\d+$|-\d*\.\d+$", arg) or " " in arg else (None, None)
        value = arg[3:] if arg[2:3] == "=" else arg[2:]
        return "--help", value if value.strip("h") or arg == "-h=" else None
    name, eq, value = arg.partition("=")
    if name in flags:
        # No flag is a prefix of another, so the scan would find this one alone.
        return name, value if eq else None
    matches = [flag for flag in flags if flag.startswith(name)]
    if len(matches) > 1:
        _refuse(command, f"ambiguous option: {arg} could match {', '.join(matches)}")
    if matches:
        return matches[0], value if eq else None
    return None if " " in arg else (None, None)


def _convert(command: str, name: str, kind, value: str):
    if kind is int:
        try:
            return int(value)
        except ValueError:
            _refuse(command, f"argument {name}: invalid int value: {value!r}")
    if kind is not str and value not in kind:
        choices = ", ".join(map(repr, kind))
        _refuse(command, f"argument {name}: invalid choice: {value!r} (choose from {choices})")
    return value


def _parse_command(command: str, args: list[str]) -> tuple[SimpleNamespace, list[str]]:
    """The namespace ``args`` give ``command``, and the strings that no
    option or positional took.

    Strings are read left to right, so ``-h`` answers unless an error
    comes before it.  An option takes its value after '=' or as the next
    string, which must be a positional.  The first ``--`` ends the options;
    the positional takes a ``--`` right before or after it, and any other
    ``--`` is left over.  The last of a repeated option wins."""
    positional = _COMMANDS[command][2]
    ns = SimpleNamespace(command=command, **_DEFAULTS[command])
    flags = _FLAGS[command]
    stop = args.index("--") if "--" in args else len(args)
    # A token per string: (flag, value) for an option, None for a
    # positional, "--" for the end of the options; "--" again past the end.
    tokens = [_read_arg(arg, flags, command) for arg in args[:stop]]
    tokens += ["--", *[None] * (len(args) - stop - 1), "--"]
    extras = []
    i = 0
    while i < len(args):
        token = tokens[i]
        i += 1
        if not isinstance(token, tuple):
            start = i - 1 + (token == "--")
            if positional is None or tokens[start] is not None:
                extras.append(args[i - 1])
                continue
            name, kind, _ = positional
            setattr(ns, name, _convert(command, name, kind, args[start]))
            positional = None
            i = start + 1 + (tokens[start + 1] == "--")
            continue
        flag, value = token
        if flag is None:
            extras.append(args[i - 1])
            continue
        kind, attribute = flags[flag]
        if kind is bool:
            if value is not None:
                name = "-h/--help" if flag == "--help" else flag
                _refuse(command, f"argument {name}: ignored explicit argument {value!r}")
            if flag == "--help":
                print(_help(command))
                raise SystemExit(0)
            setattr(ns, attribute, True)
        else:
            if value is None:
                if tokens[i] is not None:
                    _refuse(command, f"argument {flag}: expected one argument")
                value = args[i]
                i += 1
            setattr(ns, attribute, _convert(command, flag, kind, value))
    if positional is not None:
        _refuse(command, f"the following arguments are required: {positional[0]}")
    return ns, extras


def _parse(argv: list[str]) -> SimpleNamespace:
    """The namespace of the command line ``argv``; exits 0 after help and
    2 after a usage error, as ``argparse`` would."""
    extras = []
    for i, arg in enumerate(argv):
        token = _read_arg(arg, ("--help",), None)
        if token is None:
            break
        flag, value = token
        if flag is None:
            extras.append(arg)
        elif value is not None:
            _refuse(None, f"argument -h/--help: ignored explicit argument {value!r}")
        else:
            print(_help(None))
            raise SystemExit(0)
    else:
        _refuse(None, "the following arguments are required: command")
    if arg not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        _refuse(None, f"argument command: invalid choice: {arg!r} (choose from {choices})")
    ns, more = _parse_command(arg, argv[i + 1 :])
    if extras or more:
        _refuse(None, f"unrecognized arguments: {' '.join(extras + more)}")
    return ns


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command][0](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _silence_stdout() -> None:
    """Point stdout at /dev/null, so that the flush at interpreter exit
    stays silent."""
    import os

    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def run() -> None:
    try:
        rc = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone (e.g. `| head`): exit as a SIGPIPE kill would
        # (128 + 13).
        _silence_stdout()
        sys.exit(141)
    except OSError as exc:
        # Any other write error, e.g. a full disk: one line, and EX_IOERR.
        _silence_stdout()
        sys.stderr.write(f"error: {exc}\n")
        sys.exit(74)
    sys.exit(rc)


if __name__ == "__main__":
    run()
