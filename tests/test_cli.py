import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import lcd2
import lcd2.classify as classify_module
import lcd2.verify as verify_module
from helpers import (
    brute_hull_dimension,
    brute_min_weight,
    parse_outcome,
    parser_grid,
    parser_mismatches,
    random_full_rank,
    reference_parser,
    render_class_pieces,
    render_classes,
    render_report,
)
from lcd2 import code as codeops
from lcd2.classify import (
    EquivClass,
    MultVector,
    canonical_form,
    census,
    census_forms,
    census_runs,
    classify_optimal,
    code_to_multvector,
)
from lcd2.cli import _BATCH_ROWS, _COMMANDS, _csv_field, _emit_classes, _parse, main
from lcd2.code import LinearCode
from lcd2.family import ATuple, build_generator, dmax, enumerate_optimal, family_catalog
from lcd2.linalg import format_matrix
from lcd2.verify import CheckResult, verify_classification


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# A fresh interpreter imports the package under test.
CLI_ENV = dict(os.environ, PYTHONPATH=str(Path(lcd2.__file__).resolve().parents[1]))
LCD2 = [sys.executable, "-m", "lcd2.cli"]


def fresh_cli(*argv, flags=()):
    """``python [flags] -m lcd2.cli argv`` in a fresh process, which reads
    sys.argv as the installed ``lcd2`` does."""
    return subprocess.run(
        [sys.executable, *flags, "-m", "lcd2.cli", *argv], env=CLI_ENV, capture_output=True, text=True
    )


# Runs lcd2 on its arguments, reaps it with os.wait4 and appends its peak
# RSS in KB to stderr.  Linux starts a child's peak at the peak of the
# process that started it, which for pytest exceeds the bounds, so this
# small interpreter starts the measured process; and RUSAGE_CHILDREN would
# hold the largest peak of every child reaped so far.
PEAK_RSS_PROBE = (
    "import os, sys\n"
    "pid = os.posix_spawn(sys.executable, [sys.executable, '-m', 'lcd2.cli', *sys.argv[1:]], os.environ)\n"
    "_, status, usage = os.wait4(pid, 0)\n"
    "print(usage.ru_maxrss, file=sys.stderr)\n"
    "sys.exit(os.waitstatus_to_exitcode(status))\n"
)


def peak_rss_run(*argv, **run):
    """lcd2 argv under PEAK_RSS_PROBE: the completed run, lcd2's stderr and
    its peak RSS in MB."""
    probe = [sys.executable, "-S", "-c", PEAK_RSS_PROBE, *argv]
    done = subprocess.run(probe, env=CLI_ENV, stderr=subprocess.PIPE, **run)
    err, _, peak_kb = done.stderr.decode().rstrip("\n").rpartition("\n")
    return done, err, int(peak_kb) / 1024


def test_bound_text(capsys):
    rc, out, _ = run_cli(capsys, "bound", "10")
    assert rc == 0
    assert out == "n = 10\nd_max = 7\ndelta = 5\n"


def test_bound_json_and_csv(capsys):
    rc, out, _ = run_cli(capsys, "bound", "3", "--format", "json")
    assert rc == 0
    assert json.loads(out) == {"n": 3, "d": 2, "delta": 2}
    rc, out, _ = run_cli(capsys, "bound", "3", "--format", "csv")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["n", "d", "delta"], ["3", "2", "2"]]


def test_bound_rejects_length_one(capsys):
    rc, out, err = run_cli(capsys, "bound", "1")
    assert (rc, out, err) == (2, "", "error: n must be >= 2 (no [n, 2] code exists for n = 1)\n")


def test_check_lcd_code(capsys):
    rc, out, _ = run_cli(capsys, "check", "1,0,0,1,1,1,1;0,1,1,0,1,w,w2")
    assert rc == 0
    assert "d = 5" in out
    assert "hermitian_lcd = true" in out
    assert "weight_enumerator = 1+6y^5+9y^6" in out


def test_check_non_lcd_code(capsys):
    rc, out, _ = run_cli(capsys, "check", "1,1,1;1,0,0", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["hermitian_lcd"] is False
    assert payload["hull_dimension"] == 1


def test_check_identity(capsys):
    rc, out, _ = run_cli(capsys, "check", "1,0;0,1")
    assert rc == 0
    assert "d = 1" in out and "hermitian_lcd = true" in out


def test_check_rejects_bad_input(capsys):
    rc, _, err = run_cli(capsys, "check", "1,0;1")
    assert rc == 2 and "error" in err
    rc, _, err = run_cli(capsys, "check", "1,w;w,w2")  # rank deficient
    assert rc == 2 and "rank deficient" in err
    rc, out, err = run_cli(capsys, "check", "1,0;0")
    assert (rc, out, err) == (2, "", "error: ragged rows in matrix\n")


def test_check_matches_the_separate_measurements(capsys):
    rng = random.Random(97)
    for k in range(1, 7):
        for _ in range(3):
            code = LinearCode(random_full_rank(rng, k, rng.randrange(k, k + 5)))
            rc, out, _ = run_cli(capsys, "check", format_matrix(code.gen), "--format", "json")
            assert rc == 0
            payload = json.loads(out)
            assert payload["d"] == codeops.min_weight(code)
            assert payload["hermitian_lcd"] == codeops.is_hermitian_lcd(code)
            # The library reads d from the same enumerator as cmd_check;
            # the brute-force helpers keep the check independent.
            assert payload["d"] == brute_min_weight(code.gen)
            assert payload["hull_dimension"] == brute_hull_dimension(code)


def test_construct(capsys):
    rc, out, _ = run_cli(capsys, "construct", "1,1,1,1,1")
    assert rc == 0
    assert out.strip() == "1,0,0,1,1,1,1;0,1,1,0,1,w,w2"
    rc, out, _ = run_cli(capsys, "construct", "a0=1;0,0,1,0,0", "--format", "json")
    payload = json.loads(out)
    assert payload == {"a0": 1, "a": [0, 0, 1, 0, 0], "n": 4, "matrix": "1,0,0,1;0,1,0,1"}
    rc, _, err = run_cli(capsys, "construct", "1,2")
    assert rc == 2 and "error" in err
    rc, out, err = run_cli(capsys, "construct", "x,0,0,0,0")
    assert (rc, out, err) == (2, "", "error: invalid literal for int() with base 10: 'x'\n")


def test_enumerate_json(capsys):
    rc, out, _ = run_cli(capsys, "enumerate", "7", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["n"] == 7 and payload["d"] == 5 and payload["count"] == 2
    assert [t["a"] for t in payload["tuples"]] == [[1, 0, 2, 1, 1], [1, 1, 1, 1, 1]]
    assert [t["label"] for t in payload["tuples"]] == ["C_{5m+2,2}", "C_{5m+2,1}"]


@pytest.mark.parametrize("n", [*range(2, 81), *range(10**9, 10**9 + 5)])
def test_enumerate_prints_the_window_walk_with_catalog_labels(capsys, n):
    # The reference rendering walks the window (enumerate_optimal) and looks
    # each tuple's label up in the catalog.
    tuples = [a.entries for a in enumerate_optimal(n)]
    labels = {a: label for label, (a, _) in classify_module._catalog_view(n).items()}
    d = dmax(n)
    expected = {
        "text": f"n = {n}, d = {d}, count = {len(tuples)}\n"
        + "".join(f"{','.join(map(str, a))}  {labels[a]}\n" for a in tuples),
        "json": json.dumps(
            {
                "n": n,
                "d": d,
                "count": len(tuples),
                "tuples": [{"a": list(a), "label": labels[a]} for a in tuples],
            },
            indent=2,
        )
        + "\n",
    }
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [["a1", "a2", "a3", "a4", "a5", "label"], *([*a, labels[a]] for a in tuples)]
    )
    expected["csv"] = buf.getvalue()
    for fmt, text in expected.items():
        assert run_cli(capsys, "enumerate", str(n), "--format", fmt) == (0, text, ""), fmt


def test_classify_text_and_counts(capsys):
    rc, out, _ = run_cli(capsys, "classify", "19", "--include-zero-columns")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n=19 optimal classes=6 include_zero_columns=true"
    assert sum(1 for line in lines[1:] if "dual_min_weight_one=true" in line) == 1


def test_classify_json_schema_and_round_trip(capsys):
    rc, out, _ = run_cli(capsys, "classify", "9", "--format", "json", "--include-zero-columns")
    assert rc == 0
    classes = json.loads(out)
    assert len(classes) == 4
    for entry in classes:
        assert set(entry) == {
            "n",
            "d",
            "canonical",
            "representative_a",
            "a0",
            "label",
            "weight_enumerator",
            "dual_min_weight_one",
        }
        # rebuilding from the representative reproduces the canonical form
        a = ATuple(*entry["representative_a"], a0=entry["a0"])
        mv = code_to_multvector(LinearCode(build_generator(a)))
        assert canonical_form(mv) == MultVector(
            entry["canonical"]["m0"], tuple(entry["canonical"]["mp"])
        )
        total = sum(entry["weight_enumerator"].values())
        assert total == 16


def test_census_csv(capsys):
    rc, out, _ = run_cli(capsys, "census", "7", "--filter", "optimal_lcd", "--format", "csv")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:4] == ["n", "d", "m0", "mp"]
    assert len(rows) == 2
    assert rows[1][0] == "7" and rows[1][7] == "1+6y^5+9y^6"


def test_census_filters(capsys):
    rc, out, _ = run_cli(capsys, "census", "6", "--filter", "all")
    all_count = len(out.strip().splitlines()) - 1
    rc, out, _ = run_cli(capsys, "census", "6", "--filter", "lcd")
    lcd_count = len(out.strip().splitlines()) - 1
    rc, out, _ = run_cli(capsys, "census", "6", "--filter", "optimal_lcd")
    opt_count = len(out.strip().splitlines()) - 1
    assert all_count > lcd_count > opt_count == 1


FORMATS = ("text", "json", "csv")
FILTERS = ("all", "lcd", "optimal_lcd")
# Lengths the census and classify reference-rendering tests walk.
CENSUS_LENGTHS = range(2, 31)
CLASSIFY_LENGTHS = range(2, 41)
# Classify labels a table census, whose rows all merge terms; this walked
# census, with mirror runs and more rows, is written with labels on its rows
# of that kind.
LABELLED_CENSUS = (24, "lcd", True)


def merged_row_labels(n, filt, zero):
    """Labels, each holding a comma as catalog labels do, for the forms
    (m0, (p0, p1, p2, x, y)) of the census that merge terms: x = y or
    min(x, y) = p2."""
    forms = census_forms(n, filt, zero)
    return {
        (m0, mp): f"t{i},x"
        for i, (m0, mp) in enumerate(forms)
        if mp[3] == mp[4] or min(mp[3], mp[4]) == mp[2]
    }


def test_no_row_of_a_table_census_is_a_common_row():
    # _emit_classes writes a common row (x != y, neither equal to p2) with
    # no label, and only classify, which writes a table census, passes
    # labels.  A table form of residue r is m plus offsets
    # (m0; o0, o1, o2, ox, oy) with oy = r - m0 - o0 - o1 - o2 - ox, so
    # whether it merges does not depend on m.
    count = 0
    for r, table in enumerate(classify_module._TABLES):
        for forms, _, _ in table:
            for m0, o0, o1, o2, ox in forms:
                oy = r - m0 - o0 - o1 - o2 - ox
                assert ox == oy or min(ox, oy) == o2, (r, m0, o0, o1, o2, ox)
                count += 1
    assert count == 40


# The CI censuses (n, filter, zero columns, formats): the benchmark's
# lengths, past the mirror and p1 = 0 runs of CENSUS_LENGTHS, and both ends
# of the census budget.
SLOW_CENSUSES = (
    (43, "all", False, FORMATS), (49, "lcd", False, FORMATS), (40, "lcd", True, FORMATS),
    (56, "optimal_lcd", True, FORMATS), (100, "all", False, FORMATS), (60, "all", True, FORMATS),
    (161, "lcd", False, ("json",)), (78, "lcd", True, ("csv",)),
    (161, "all", False, ("text",)), (78, "all", True, ("json",)),
)


@pytest.mark.parametrize(
    "filt, zero, lengths, formats",
    [pytest.param(f, z, CENSUS_LENGTHS, FORMATS, id=f"{f}-{z}") for f in FILTERS for z in (False, True)]
    + [
        pytest.param(f, z, (n,), fs, id=f"{f}-{z}-n{n}", marks=pytest.mark.slow)
        for n, f, z, fs in SLOW_CENSUSES
    ],
)
def test_census_output_matches_the_reference_rendering(filt, zero, lengths, formats):
    # The output and the reference are hashed as they stream, one class at a
    # time, so that neither is held whole.
    for n in lengths:
        count = sum(len(xs) for *_, xs in census_runs(n, filt, zero))
        header = f"n={n} filter={filt} classes={count} include_zero_columns={str(zero).lower()}"
        for fmt in formats:
            argv = ["census", str(n), "--filter", filt, "--format", fmt]
            argv += ["--include-zero-columns"] if zero else []
            got, want = hashlib.sha256(), hashlib.sha256()
            with contextlib.redirect_stdout(SimpleNamespace(write=lambda text: got.update(text.encode()))):
                assert main(argv) == 0, argv
            classes = (EquivClass(MultVector(m0, mp)) for m0, mp in census_forms(n, filt, zero))
            for piece in render_class_pieces(classes, fmt, header):
                want.update(piece.encode())
            assert got.digest() == want.digest(), argv


def test_classify_output_matches_the_reference_rendering(capsys):
    labels = set()
    for n in CLASSIFY_LENGTHS:
        for zero in (False, True):
            classes = classify_optimal(n, zero)
            labels.update(c.label for c in classes)
            header = (
                f"n={n} optimal classes={len(classes)} "
                f"include_zero_columns={str(zero).lower()}"
            )
            for fmt in FORMATS:
                argv = ["classify", str(n), "--format", fmt]
                rc, out, _ = run_cli(capsys, *argv, *(["--include-zero-columns"] if zero else []))
                assert rc == 0
                assert out == render_classes(classes, fmt, header), (n, zero, fmt)
    assert None in labels and len(labels) > 10


def test_classify_at_huge_lengths_matches_the_reference_rendering(capsys):
    # Labelled rows with zero columns and weights near 10^9 and 10^20, beyond
    # the lengths the reference test above reaches; the writer's numbers at
    # 10^20 lie past the machine word.
    for n, zero in ((1000000004, True), (1000001, False), (10**20 + 4, True)):
        classes = classify_optimal(n, zero)
        assert any(c.label for c in classes) and any(c.canon.m0 for c in classes) == zero
        header = f"n={n} optimal classes={len(classes)} include_zero_columns={str(zero).lower()}"
        for fmt in FORMATS:
            argv = ["classify", str(n), "--format", fmt]
            rc, out, _ = run_cli(capsys, *argv, *(["--include-zero-columns"] if zero else []))
            assert rc == 0
            assert out == render_classes(classes, fmt, header), (n, zero, fmt)


def test_labelled_census_matches_the_reference_rendering(capsys):
    n, filt, zero = LABELLED_CENSUS
    labels = merged_row_labels(n, filt, zero)
    classes = [
        EquivClass(c.canon, labels.get((c.canon.m0, c.canon.mp))) for c in census(n, filt, zero)
    ]
    runs = list(census_runs(n, filt, zero))
    for fmt in FORMATS:
        _emit_classes(n, runs, labels, fmt, "header")
        assert capsys.readouterr().out == render_classes(classes, fmt, "header"), fmt


def test_reference_renderings_reach_every_case_the_writer_treats_apart():
    # The runs the census and classify reference tests above walk hold each
    # case _emit_classes writes differently (each prefix, head and run shape,
    # each merge of a row's terms, labels, the reuse of a prefix's text and
    # its rebuilding at a new m0, a census in one batch and one whose batch
    # ends inside a run), so their byte-identity, in every format, reaches
    # every branch of the writer.  The labelled census test adds labels to
    # a walked census, on the rows that merge terms.  A walked census
    # (more runs than n) reads its terms from a table filled per count, so
    # the walks write each count; a table census reads them from a memo.
    walks = [
        (n, filt, zero, {}) for n in CENSUS_LENGTHS for filt in FILTERS for zero in (False, True)
    ]
    walks += [
        (n, "optimal_lcd", zero, classify_module._label_map(n))
        for n in CLASSIFY_LENGTHS
        for zero in (False, True)
    ]
    walks.append((*LABELLED_CENSUS, merged_row_labels(*LABELLED_CENSUS)))
    seen = set()
    for n, filt, zero, labels in walks:
        last = None
        held = count = 0  # rows the writer holds, and in all
        runs = list(census_runs(n, filt, zero))
        for m0, p0, p1, p2, xs in runs:
            r = n - m0 - p0 - p1 - p2
            # The counts of the terms of the run's tail: (t - p2, c0), then the rest.
            c0 = 3 + 3 * (p1 == p2) + 3 * (p0 == p2)
            rest = [6 if p0 == p1 else 3] * (p1 < p2) + [3] * (p0 < p1)
            count += len(xs)
            if held + len(xs) > _BATCH_ROWS:
                seen.add("run inside which the rows held pass a batch's bound")
            held = 0 if held + len(xs) >= _BATCH_ROWS else held + len(xs)
            if last is not None and m0 != last[0]:
                seen.add("run whose m0 differs from the previous run's")
                if (p0, p1, p2) == last[1:]:
                    seen.add("run at a new m0 whose (p0, p1, p2) equals the previous run's")
            if 2 * xs[0] > r and (m0, p0, p1, p2) == last:
                seen.add("mirrored run that reuses its sorted run's text")
            last = (m0, p0, p1, p2)
            seen.add(
                "prefix p0 = p1 = p2" if p0 == p2
                else "prefix p1 = p2 > p0" if p1 == p2
                else "prefix p2 > p1 = p0" if p0 == p1
                else "prefix with three distinct parts"
            )
            if 2 * xs[0] > r:
                seen.add("mirror run")
            if p1 == 0:
                seen.add(f"p1 = 0 run with {'three' if p2 == 0 else 'two'} zero parts")
            else:
                seen.add("head with p0 = 0 < p1" if p0 == 0 else "head with p0 > 0")
            for x in xs:
                if min(x, r - x) == p2:
                    seen.add("row with lo == p2")
                if x == r - x:
                    seen.add("row with x == y")
                    if x == p2:
                        seen.add("row with x == y == p2")
                elif min(x, r - x) != p2:
                    seen.add("row with no merge")
                if min(x, r - x) == p2:
                    written = [c0 + 3 + 3 * (x == r - x), *rest]
                else:
                    written = [6] * (x == r - x) + [c0, *rest]
                if len(runs) > n:
                    seen.update(f"term of count {c} in a walked census" for c in written)
                else:
                    seen.add("term written through the memo in a table census")
                if labels:
                    key = (m0, (p0, p1, p2, x, r - x))
                    seen.add("labelled row" if key in labels else "unlabelled row")
        if 0 < count < _BATCH_ROWS:
            seen.update(f"census shorter than one batch, in {fmt}" for fmt in FORMATS)
    assert seen == {
        "run whose m0 differs from the previous run's",
        "run at a new m0 whose (p0, p1, p2) equals the previous run's",
        "mirrored run that reuses its sorted run's text",
        "prefix p0 = p1 = p2",
        "prefix p1 = p2 > p0",
        "prefix p2 > p1 = p0",
        "prefix with three distinct parts",
        "head with p0 = 0 < p1",
        "head with p0 > 0",
        "row with no merge",
        "mirror run",
        "row with lo == p2",
        "row with x == y",
        "row with x == y == p2",
        "p1 = 0 run with two zero parts",
        "p1 = 0 run with three zero parts",
        "labelled row",
        "unlabelled row",
        "run inside which the rows held pass a batch's bound",
        *(f"census shorter than one batch, in {fmt}" for fmt in FORMATS),
        *(f"term of count {c} in a walked census" for c in (3, 6, 9, 12, 15)),
        "term written through the memo in a table census",
    }


def test_csv_field_quotes_as_csv_writer_does():
    fields = [f.label for f in family_catalog()] + ["", 'a"b', "a\nb", "a\rb"]
    for field in fields:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(["x", field, "y"])
        assert buf.getvalue() == f"x,{_csv_field(field)},y\n", field


def test_csv_output_reads_back_as_the_json_values(capsys):
    # Verify details, labels and matrix texts hold commas, so their CSV
    # fields are quoted; csv.reader must recover every field as JSON has it.
    def text(value):
        return str(value).lower() if isinstance(value, bool) else str(value)

    cases = [
        (
            ("verify", "--n-max", "12"),
            ["id", "n", "pass", "detail"],
            lambda o: [[c["id"], c["n"], c["pass"], c["detail"]] for c in o["checks"]],
        ),
        (
            ("construct", "a0=1;0,0,1,0,0"),
            ["a0", "a", "n", "matrix"],
            lambda o: [[o["a0"], " ".join(map(str, o["a"])), o["n"], o["matrix"]]],
        ),
        (
            ("enumerate", "19"),
            ["a1", "a2", "a3", "a4", "a5", "label"],
            lambda o: [[*t["a"], t["label"] or ""] for t in o["tuples"]],
        ),
        (
            ("check", "1,0,0,1,1,1,1;0,1,1,0,1,w,w2"),
            ["n", "k", "d", "hull_dimension", "hermitian_lcd", "weight_enumerator"],
            lambda o: [[o[key] for key in ("n", "k", "d", "hull_dimension", "hermitian_lcd")]
                       + [o["weight_enumerator_poly"]]],
        ),
        (("bound", "7"), ["n", "d", "delta"], lambda o: [[o["n"], o["d"], o["delta"]]]),
    ]
    for argv, header, rows_of in cases:
        rc, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert rc == 0
        expected = [header] + [[text(v) for v in row] for row in rows_of(json.loads(out))]
        rc, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert rc == 0
        assert list(csv.reader(io.StringIO(out))) == expected, argv
        if argv[0] == "verify":
            assert any("," in row[3] for row in expected[1:])


def test_empty_class_list_output(capsys):
    for fmt in FORMATS:
        _emit_classes(2, [], {}, fmt, "header")
        assert capsys.readouterr().out == render_classes([], fmt, "header")
    _emit_classes(2, [], {}, "json", "header")
    assert capsys.readouterr().out == "[]\n"


def test_census_writes_its_rows_in_bounded_batches(monkeypatch):
    # Each write but the last two ends a batch of whole runs holding at least
    # _BATCH_ROWS rows, so a census goes out in a few writes while no write
    # holds more than a batch and one run.
    class Recorder:
        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)
            return len(text)

    runs = list(census_runs(42, "all"))
    classes = census(42, "all")
    assert len(classes) == 2892 > 2 * _BATCH_ROWS
    header = f"n=42 filter=all classes={len(classes)} include_zero_columns=false"
    out = Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["census", "42", "--filter", "all", "--format", "json"]) == 0
    assert "".join(out.writes) == render_classes(classes, "json", header)
    assert len(out.writes) <= math.ceil(len(classes) / _BATCH_ROWS) + 2
    longest = max(len(xs) for *_, xs in runs)
    # Each JSON class object holds one '"n": ' key.
    assert max(write.count('"n": ') for write in out.writes) <= _BATCH_ROWS + longest


def test_streamed_reference_rendering_equals_render_classes():
    # test_census_output_matches_the_reference_rendering compares every
    # census against the streamed form, its slow cases at the benchmark's
    # lengths and both ends of the census budget too, so it must give
    # render_classes' bytes: empty lists, labelled classes, zero columns.
    lists = [[], census(20, "all", True), census(25, "lcd"), classify_optimal(24, True)]
    assert any(c.label for c in lists[3]) and any(c.canon.m0 for c in lists[1])
    for classes in lists:
        for fmt in FORMATS:
            pieces = list(render_class_pieces(iter(classes), fmt, "header"))
            assert len(pieces) == len(classes) + 1
            assert "".join(pieces) == render_classes(classes, fmt, "header"), (len(classes), fmt)


def test_census_writes_p1_zero_rows_without_representative_entries(capsys, monkeypatch):
    # Every row takes its representative from its run's parts: p1 > 0 from
    # the prefix and x, y; p1 = 0 (two or three zero parts) from x, y and p2.
    runs = list(census_runs(30, "all"))
    per_form = [len(xs) for _, _, p1, p2, xs in runs if p1 == 0]
    assert {p2 == 0 for _, _, p1, p2, _ in runs if p1 == 0} == {False, True}
    assert len(per_form) < len(runs) and sum(per_form) == 90
    classes = census(30, "all")
    header = f"n=30 filter=all classes={len(classes)} include_zero_columns=false"
    outputs = {fmt: render_classes(classes, fmt, header) for fmt in FORMATS}

    def refuse(mp):
        raise AssertionError(f"representative_entries({mp})")

    monkeypatch.setattr(classify_module, "representative_entries", refuse)
    for fmt, out in outputs.items():
        assert run_cli(capsys, "census", "30", "--filter", "all", "--format", fmt) == (0, out, ""), fmt


def test_census_and_classify_build_no_class_objects(capsys, monkeypatch):
    # Expected bytes come from the class objects; the CLI then runs with
    # both constructors refusing, so it must render from (m0, mp) alone.
    cases = [
        (
            ["census", "30", "--filter", "all"],
            census(30, "all"),
            "n=30 filter=all classes={} include_zero_columns=false",
        ),
        (
            ["classify", "29", "--include-zero-columns"],
            classify_optimal(29, True),
            "n=29 optimal classes={} include_zero_columns=true",
        ),
    ]
    expected = {
        (*argv, "--format", fmt): render_classes(classes, fmt, header.format(len(classes)))
        for argv, classes, header in cases
        for fmt in FORMATS
    }

    def refuse(self):
        raise AssertionError(f"built a {type(self).__name__}")

    monkeypatch.setattr(EquivClass, "__post_init__", refuse)
    monkeypatch.setattr(MultVector, "__post_init__", refuse)
    for argv, out in expected.items():
        assert run_cli(capsys, *argv) == (0, out, ""), argv


def test_classify_and_enumerate_read_the_catalog_without_tuples_or_canonical_forms(monkeypatch):
    # The catalog view adds m to offsets fixed at import: classify builds
    # no ATuple and no canonical form, and enumerate reads its enumeration
    # as entry tuples, building no ATuple either.
    counts = {"ATuple": 0, "canonical": 0}
    post_init, canonical_mp = ATuple.__post_init__, classify_module._canonical_mp

    def counted_post_init(self):
        counts["ATuple"] += 1
        post_init(self)

    def counted_canonical_mp(mp):
        counts["canonical"] += 1
        return canonical_mp(mp)

    monkeypatch.setattr(ATuple, "__post_init__", counted_post_init)
    monkeypatch.setattr(classify_module, "_canonical_mp", counted_canonical_mp)
    assert main(["classify", "29", "--include-zero-columns"]) == 0
    assert counts == {"ATuple": 0, "canonical": 0}
    assert main(["enumerate", "29"]) == 0
    assert counts == {"ATuple": 0, "canonical": 0}


def test_census_rejects_bad_length(capsys):
    rc, out, err = run_cli(capsys, "census", "1")
    assert (rc, out, err) == (2, "", "error: n must be >= 2, got 1\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["enumerate", "1"], "n must be >= 2 (no [n, 2] code exists for n = 1)"),
        (["classify", "1"], "n must be >= 2, got 1"),
        (["verify", "--n-max", "6"], "n_max must be >= 7, got 6"),
    ],
)
def test_value_errors_exit_2_with_only_the_message(capsys, argv, message):
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.slow
def test_the_largest_census_walks_peak_at_most_30_mb():
    for argv in (
        ["census", "150", "--filter", "all", "--format", "json"],
        ["census", "161", "--filter", "all", "--format", "csv"],
        ["census", "78", "--filter", "all", "--include-zero-columns", "--format", "csv"],
    ):
        run, err, peak_mb = peak_rss_run(*argv, stdout=subprocess.DEVNULL)
        assert run.returncode == 0 and peak_mb <= 30, (argv, run.returncode, peak_mb, err)


# The long lengths in the two tests below give estimates past the
# interpreter's 4300-digit limit on integer string conversion.
def test_census_over_budget_exits_2_promptly(capsys):
    for argv in (["4096"], ["1" + "0" * 1100], ["1" + "0" * 900, "--include-zero-columns"]):
        start = time.perf_counter()
        rc, out, err = run_cli(capsys, "census", *argv)
        assert rc == 2 and out == ""
        assert "budget" in err, err
        assert time.perf_counter() - start < 2.0


def test_classify_beyond_the_census_budget(capsys):
    start = time.perf_counter()
    rc, out, _ = run_cli(capsys, "classify", "204", "--include-zero-columns")
    assert time.perf_counter() - start < 2.0
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "n=204 optimal classes=6 include_zero_columns=true"
    assert len(lines) == 7


def test_verify_over_budget_exits_2_promptly(capsys):
    for n_max in ("1000000000", "1" + "0" * 2200):
        start = time.perf_counter()
        rc, out, err = run_cli(capsys, "verify", "--n-max", n_max)
        assert rc == 2 and out == ""
        assert "budget" in err, err
        assert time.perf_counter() - start < 2.0


def test_construct_over_budget_exits_2_promptly(capsys):
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "construct", "1000000000000000,0,0,0,0")
    assert rc == 2 and out == ""
    assert "budget" in err
    assert time.perf_counter() - start < 2.0


def test_check_over_budget_exits_2_promptly(capsys):
    identity = ";".join(",".join("1" if j == i else "0" for j in range(14)) for i in range(12))
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "check", identity)
    assert rc == 2 and out == ""
    assert "budget" in err
    assert time.perf_counter() - start < 2.0


def test_check_admits_a_nine_dimensional_code(capsys):
    # [I_9 | 0]: 4^9 codewords, but (4^9 - 1)/3 scalar classes of length 10
    # fit the budget.
    matrix = ";".join(",".join("1" if j == i else "0" for j in range(10)) for i in range(9))
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "check", matrix)
    assert time.perf_counter() - start < 2.0
    poly = "+".join(["1"] + [f"{math.comb(9, w) * 3**w}y^{w}" for w in range(1, 10)])
    assert (rc, err) == (0, "")
    assert out == (
        "n = 10\nk = 9\nd = 1\nhull_dimension = 0\nhermitian_lcd = true\n"
        f"weight_enumerator = {poly}\n"
    )


def test_check_reads_a_matrix_over_the_argument_limit_from_stdin(capsys):
    # 2 x 40,000 is about 180 KB of text, over the 128 KiB a single
    # command-line argument may hold.
    rng = random.Random(40)
    text = format_matrix(random_full_rank(rng, 2, 40_000))
    result = subprocess.run(
        [*LCD2, "check", "-"], input=text + "\n", env=CLI_ENV, capture_output=True, text=True
    )
    rc, out, err = run_cli(capsys, "check", text)
    assert (result.returncode, result.stdout, result.stderr) == (0, out, "")
    assert (rc, err) == (0, "") and out.startswith("n = 40000\nk = 2\n")


def test_check_refuses_stdin_over_its_cap_before_parsing(capsys, monkeypatch):
    # Each "w2," is 3 characters: one entry more than the cap admits.
    cap = 4 * codeops.CODEWORD_BUDGET
    stdin = io.StringIO("w2," * (cap // 3 + 1))
    monkeypatch.setattr(sys, "stdin", stdin)
    rc, out, err = run_cli(capsys, "check", "-")
    assert (rc, out) == (2, "")
    assert err == f"error: matrix text longer than the budget of {cap} characters\n"
    assert stdin.tell() == cap + 1


@pytest.mark.slow
def test_check_refuses_a_20_mb_matrix_on_stdin_with_exit_2_and_at_most_100_mb_peak_rss():
    # 21 MB; the run stops writing once the CLI stops reading at its cap.
    run, err, peak_mb = peak_rss_run("check", "-", input=b"w2," * 7_000_000 + b"w2\n", stdout=subprocess.PIPE)
    assert (run.returncode, run.stdout) == (2, b"") and peak_mb <= 100, (run.returncode, peak_mb, err)


def test_repeated_main_calls_share_one_parser_without_leaking_state(capsys):
    rc, out, _ = run_cli(capsys, "census", "7", "--filter", "all")
    assert rc == 0 and out.startswith("n=7 filter=all ")
    rc, out, _ = run_cli(capsys, "census", "7", "--filter", "nope")
    assert rc == 2 and out == ""
    rc, out, _ = run_cli(capsys, "census", "7")
    assert rc == 0 and out.startswith("n=7 filter=lcd ")
    rc, out, _ = run_cli(capsys, "--help")
    assert rc == 0 and "census" in out


def test_import_loads_no_numpy_or_process_pool():
    probe = (
        "import sys, lcd2.cli; "
        "print(sorted({'numpy', 'concurrent.futures', 'argparse', 'gettext'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=CLI_ENV, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


_STARTUP_MODULES = ["lcd2", "lcd2._frozen", "lcd2.classify", "lcd2.cli", "lcd2.family", "lcd2.gf4"]
# json imports re, which imports enum and functools; functools imports collections.
_JSON = ["collections", "enum", "functools", "json", "re"]


@pytest.mark.parametrize(
    "argv, loaded",
    [
        ([], []),
        (["bound", "12"], []),
        (["census", "12", "--filter", "all", "--format", "json"], []),
        (["classify", "24", "--include-zero-columns", "--format", "csv"], []),
        (["enumerate", "14"], []),
        (["construct", "a0=1;1,2,3,4,5"], ["lcd2.linalg"]),
        (["check", "1,0,1;0,1,w"], ["lcd2.code", "lcd2.linalg"]),
        (["verify", "--n-max", "7"], ["lcd2.code", "lcd2.linalg", "lcd2.verify"]),
        (["bound", "12", "--format", "csv"], []),
        (["bound", "12", "--format", "json"], _JSON),
        (["census", "12", "--filter", "all"], []),
        (["census", "12", "--filter", "all", "--format", "csv"], []),
        (["classify", "24", "--include-zero-columns"], []),
        (["classify", "24", "--include-zero-columns", "--format", "json"], []),
        (["enumerate", "14", "--format", "json"], _JSON),
        (["construct", "a0=1;1,2,3,4,5", "--format", "json"], ["lcd2.linalg", *_JSON]),
        (["check", "1,0,1;0,1,w", "--format", "json"], ["lcd2.code", "lcd2.linalg", *_JSON]),
        (
            ["verify", "--n-max", "7", "--format", "json"],
            ["lcd2.code", "lcd2.linalg", "lcd2.verify", *_JSON],
        ),
    ],
)
def test_commands_import_only_the_modules_they_use(argv, loaded):
    # A fresh interpreter without site imports (-S): importing the command
    # line loads the parser, the census walker and its tables, and no
    # dataclasses; code, linalg and verify load with the commands using
    # them, and the watched standard modules only where a command uses them.
    watched = (
        "json", "re", "os", "functools", "collections", "importlib", "enum", "dataclasses", "typing"
    )
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from lcd2.cli import main\n"
        "if sys.argv[1:]:\n"
        "    sys.stdout = open('/dev/null', 'w')\n"
        "    assert main(sys.argv[1:]) == 0\n"
        "    sys.stdout = sys.__stdout__\n"
        f"watched = {watched!r}\n"
        "new = set(sys.modules) - before\n"
        "print(' '.join(sorted(m for m in new if m.split('.')[0] == 'lcd2' or m in watched)))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe, *argv], env=CLI_ENV, capture_output=True, text=True, check=True
    )
    assert result.stdout.split() == sorted(_STARTUP_MODULES + loaded)


@pytest.mark.slow
def test_each_command_in_a_fresh_process_prints_what_main_prints(capsys):
    # So that no command misses a module it imports on demand; again under
    # -S, so that no module preloaded by site-packages hides a missing import.
    commands = (
        ["bound", "12"],
        ["check", "1,0,1,w;0,1,w2,1"],
        ["construct", "a0=1;1,2,3,4,5"],
        ["enumerate", "14"],
        ["classify", "24", "--include-zero-columns"],
        ["census", "9", "--filter", "all"],
        # 865 classes: more than one batch of rows.
        ["census", "30", "--filter", "all"],
        ["verify", "--n-max", "12"],
    )
    argvs = [[*argv, "--format", fmt] for argv in commands for fmt in FORMATS]
    # One error path for each command that imports modules on demand.
    argvs += [["construct", "a0=-1;1,2,3,4,5"], ["check", "1,0;1,0"], ["verify", "--n-max", "6"]]
    # Negative numbers as positionals and values, read with the lazily imported re.
    argvs += [["verify", "--n-max", "-5"], ["bound", "-5"]]
    for argv in argvs:
        in_process = run_cli(capsys, *argv)
        for flags in ([], ["-S"]):
            fresh = fresh_cli(*argv, flags=flags)
            assert (fresh.returncode, fresh.stdout, fresh.stderr) == in_process, (flags, argv)


def test_verify_small(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--n-max", "9", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["n_max"] == 9
    assert all(check["pass"] for check in payload["checks"])
    rc, out, _ = run_cli(capsys, "verify", "--n-max", "8")
    assert rc == 0
    assert "RESULT: PASS" in out


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_verify_writes_what_the_reference_renderer_prints(capsys, fmt):
    for n_max in range(7, 41):
        expected = render_report(verify_classification(n_max), fmt)
        assert run_cli(capsys, "verify", "--n-max", str(n_max), "--format", fmt) == (0, expected, ""), n_max


# sha256 of the stdout of `lcd2 verify --n-max N --format F` as first
# recorded.  The reference renderer above renders the same report the CLI
# writes, so only a fixed digest sees a change to a check's detail.
_VERIFY_SHA256 = {
    (32, "text"): "c62d0f8b70828df51668998d3445f9ce6a7103b5dbcd17e9b213dd179a9dc95b",
    (32, "json"): "89ab9bbb0325be41ae428b2988c61d66d254c3f2e7032dbdaa6d4e3958711e64",
    (32, "csv"): "999f8fa9294de3235d94400eef9243cbd26daf7c1daaf63c7dee701eddc09425",
    (100, "text"): "50af6a2aeaf17c519d6a402fbff37effd0ccaa51801f4eea3288503b31efb981",
    (100, "json"): "b1b85439c50a8c5afa6e24a6e892bb90e506d8816b3e8eeae023d0a3c887149e",
    (100, "csv"): "7aa2c0423dac60aeb2d6e2d2446a2c10d69db0c11bf952a9f37de6915d6f3ae0",
}


@pytest.mark.parametrize("n_max, fmt", list(_VERIFY_SHA256))
def test_verify_output_keeps_its_recorded_digest(capsys, n_max, fmt):
    rc, out, err = run_cli(capsys, "verify", "--n-max", str(n_max), "--format", fmt)
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _VERIFY_SHA256[n_max, fmt]


@pytest.mark.slow
def test_verify_at_the_longest_admitted_length_makes_the_same_checks_in_every_format():
    # Each format builds its rows on its own branch of cmd_verify.
    out = {}
    for fmt in FORMATS:
        run = fresh_cli("verify", "--n-max", "1999", "--format", fmt)
        assert run.returncode == 0, (fmt, run.stderr)
        out[fmt] = run.stdout
    lines = out["text"].splitlines()
    assert lines[-1] == f"RESULT: PASS ({len(lines) - 1} checks)", lines[-1]
    text = [(i, int(n[2:]), s == "PASS") for i, n, s, _ in (line.split(" ", 3) for line in lines[:-1])]
    js = [(c["id"], c["n"], c["pass"]) for c in json.loads(out["json"])["checks"]]
    rows = list(csv.reader(io.StringIO(out["csv"])))
    assert rows[0] == ["id", "n", "pass", "detail"], rows[0]
    cs = [(i, int(n), p == "true") for i, n, p, _ in rows[1:]]
    assert text == js == cs and all(p for _, _, p in text)


def test_verify_writes_a_failing_check_as_the_reference_renderer_does(capsys, monkeypatch):
    # A detail that csv.writer must quote and json.dumps must escape.
    detail = 'a "quoted" word, a back\\slash,\nan accent \u00e9'
    check_headline = verify_module._check_headline

    def failing_at_11(n, plain, zero):
        return CheckResult("THM", n, False, detail) if n == 11 else check_headline(n, plain, zero)

    monkeypatch.setattr(verify_module, "_check_headline", failing_at_11)
    report = verify_classification(12)
    assert [(c.id, c.n, c.detail) for c in report.failures()] == [("THM", 11, detail)]
    out = {}
    for fmt in ("text", "json", "csv"):
        rc, out[fmt], err = run_cli(capsys, "verify", "--n-max", "12", "--format", fmt)
        assert (rc, out[fmt], err) == (1, render_report(report, fmt), ""), fmt
    assert out["text"].endswith(f"RESULT: FAIL (1 of {len(report.checks)} checks failed)\n")
    assert [c["detail"] for c in json.loads(out["json"])["checks"] if not c["pass"]] == [detail]
    assert [row[3] for row in csv.reader(io.StringIO(out["csv"])) if row[2] == "false"] == [detail]


def test_usage_errors_exit_2(capsys):
    for argv in (["bogus"], ["bound"], ["census", "7", "--filter", "nope"], ["census", "7", "--jobs", "2"]):
        rc, out, err = run_cli(capsys, *argv)
        usage, error = err.splitlines()
        assert (rc, out) == (2, "")
        assert usage.startswith("usage: lcd2 ") and error.startswith("lcd2")
        assert ": error: " in error


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "census" in out and "verify" in out


@pytest.mark.slow
def test_the_entry_point_prints_help_with_exit_0_and_refuses_usage_errors_with_exit_2():
    for argv, needle in ((["--help"], "census"), (["census", "--help"], "--include-zero-columns")):
        run = fresh_cli(*argv)
        assert run.returncode == 0 and needle in run.stdout, (argv, run.returncode, run.stdout, run.stderr)
    for argv in (["bogus"], ["bound"], ["census", "7", "--filter", "nope"], ["census", "7", "--jobs", "2"]):
        run = fresh_cli(*argv)
        assert (run.returncode, run.stdout) == (2, ""), (argv, run.stderr)
        assert run.stderr.startswith("usage: lcd2 "), (argv, run.stderr)
    # A help flag given a value is named as argparse names it.
    run = fresh_cli("bound", "7", "--help=1")
    assert (run.returncode, run.stdout) == (2, "") and "argument -h/--help: " in run.stderr, run.stderr


def test_parser_matches_the_reference_argparse_tree():
    grid = parser_grid()
    assert len(grid) > 2000
    assert parser_mismatches(_parse, grid) == []


def test_no_flag_of_a_command_is_a_prefix_of_another():
    # The parser returns a flag given in full before it scans for prefixes,
    # which finds the same flag only while this holds.
    for command, (_, _, _, options) in _COMMANDS.items():
        flags = ["--help", *options]
        assert len(set(flags)) == len(flags), command
        assert [(a, b) for a in flags for b in flags if a != b and b.startswith(a)] == [], command


def test_help_flag_given_a_value_is_refused_as_argparse_refuses_it():
    # -h=, --help=1, --he=1, ... before or after the command: argparse names
    # the flag -h/--help.  Only the error line is compared, as argparse wraps
    # the usage line to the terminal's width.
    reference = reference_parser().parse_args
    cases = [argv for argv in parser_grid() if "-h/--help:" in parse_outcome(reference, argv)[3]]
    assert len(cases) > 70 and any(argv[0] in _COMMANDS for argv in cases)
    for argv in cases:
        want, got = parse_outcome(reference, argv), parse_outcome(_parse, argv)
        assert (got[0], got[3].splitlines()[-1]) == (2, want[3].splitlines()[-1]), argv


@pytest.mark.parametrize(
    "argv",
    [
        # argparse 3.10 to 3.12.1 refuses -hx; 3.13.0 prints help.
        ["census", "7", "-hx"],
        # argparse 3.10 to 3.12.1 stores an empty list for a value of "--"
        # given after "=" (census then loses its header line and verify
        # fails with a traceback); 3.13.0 refuses it.
        ["census", "7", "--format=--"],
        ["census", "7", "--fi=--"],
        ["verify", "--n-max=--"],
    ],
)
def test_parser_refuses_what_argparse_versions_read_differently(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.startswith("usage: lcd2 ") and "error: " in err


def test_help_per_command_lists_its_options(capsys):
    for command, flags in [
        ("census", ["--format", "--filter", "--include-zero-columns"]),
        ("verify", ["--format", "--n-max"]),
        ("check", ["--format"]),
    ]:
        for help_flag in ("-h", "--help", "--he"):
            rc, out, err = run_cli(capsys, command, help_flag)
            assert (rc, err) == (0, "")
            assert out.startswith(f"usage: lcd2 {command} [-h] ")
            assert all(flag in out for flag in flags)


def test_closed_stdout_exits_141_without_a_traceback():
    # census 60 --filter all writes far more than a 64 KB pipe buffer, so
    # a write after the reader closes the pipe fails.
    proc = subprocess.Popen(
        [*LCD2, "census", "60", "--filter", "all"],
        env=CLI_ENV,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert first.startswith(b"n=60 filter=all ")
    assert (proc.wait(timeout=60), err) == (141, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["bound", "12"], ["verify", "--n-max", "8", "--format", "json"]])
def test_write_error_exits_74_with_one_line_and_no_traceback(argv):
    # Every write to /dev/full fails with ENOSPC.
    with open("/dev/full", "w") as full:
        run = subprocess.run([*LCD2, *argv], env=CLI_ENV, stdout=full, stderr=subprocess.PIPE, text=True)
    assert "Traceback" not in run.stderr
    assert (run.returncode, run.stderr) == (74, "error: [Errno 28] No space left on device\n")


@pytest.mark.slow
def test_every_readme_command_exits_0_and_the_library_snippet_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## Command line$.*?^```sh$(.*?)^```$", readme, re.M | re.S).group(1)
    snippet = re.search(r"^## Library$.*?^```python$(.*?)^```$", readme, re.M | re.S).group(1)
    # A line's trailing comment, and the comment lines that continue it, are not arguments.
    argvs = [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("lcd2 ")]
    assert len(argvs) >= 8 and ["verify", "--n-max", "32"] in argvs and "import" in snippet, (argvs, snippet)
    for argv in argvs:
        run = fresh_cli(*argv)
        last = run.stdout.rstrip("\n").rpartition("\n")[2]
        assert run.returncode == 0, (argv, run.returncode, run.stderr[-500:])
        assert argv[0] != "verify" or last.startswith("RESULT: PASS"), (argv, last)
    run = subprocess.run([sys.executable, "-c", snippet], env=CLI_ENV, capture_output=True, text=True)
    assert run.returncode == 0, (run.stdout[-500:], run.stderr[-500:])
