import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import lcd2
import lcd2.classify as classify_module
from helpers import (
    brute_hull_dimension,
    brute_min_weight,
    parser_grid,
    parser_mismatches,
    random_full_rank,
    render_classes,
)
from lcd2 import code as codeops
from lcd2.classify import (
    EquivClass,
    MultVector,
    canonical_form,
    census,
    census_runs,
    classify_optimal,
    code_to_multvector,
)
from lcd2.cli import _csv_field, _emit_classes, _parse, main
from lcd2.code import LinearCode
from lcd2.family import ATuple, build_generator, family_catalog
from lcd2.linalg import format_matrix


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


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


@pytest.mark.parametrize("zero", [False, True])
@pytest.mark.parametrize("filt", FILTERS)
def test_census_output_matches_the_reference_rendering(capsys, filt, zero):
    for n in CENSUS_LENGTHS:
        classes = census(n, filt, zero)
        header = (
            f"n={n} filter={filt} classes={len(classes)} "
            f"include_zero_columns={str(zero).lower()}"
        )
        for fmt in FORMATS:
            argv = ["census", str(n), "--filter", filt, "--format", fmt]
            rc, out, _ = run_cli(capsys, *argv, *(["--include-zero-columns"] if zero else []))
            assert rc == 0
            assert out == render_classes(classes, fmt, header), (n, fmt)


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
    # Labelled rows with zero columns and weights near 10^9, beyond the
    # lengths the reference test above reaches.
    for n, zero in ((1000000004, True), (1000001, False)):
        classes = classify_optimal(n, zero)
        assert any(c.label for c in classes) and any(c.canon.m0 for c in classes) == zero
        header = f"n={n} optimal classes={len(classes)} include_zero_columns={str(zero).lower()}"
        for fmt in FORMATS:
            argv = ["classify", str(n), "--format", fmt]
            rc, out, _ = run_cli(capsys, *argv, *(["--include-zero-columns"] if zero else []))
            assert rc == 0
            assert out == render_classes(classes, fmt, header), (n, zero, fmt)


def test_reference_renderings_reach_every_case_the_writer_treats_apart():
    # The runs the census and classify reference tests above walk hold each
    # case _emit_classes writes differently, so their byte-identity reaches
    # every branch of the writer.
    walks = [
        (n, filt, zero, {}) for n in CENSUS_LENGTHS for filt in FILTERS for zero in (False, True)
    ]
    walks += [
        (n, "optimal_lcd", zero, classify_module._label_map(classify_module._catalog_view(n)))
        for n in CLASSIFY_LENGTHS
        for zero in (False, True)
    ]
    seen = set()
    for n, filt, zero, labels in walks:
        last_m0 = None
        for m0, p0, p1, p2, xs in census_runs(n, filt, zero):
            if last_m0 is not None and m0 != last_m0:
                seen.add("run whose m0 differs from the previous run's")
            last_m0 = m0
            r = n - m0 - p0 - p1 - p2
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
                elif p1 and not labels and min(x, r - x) != p2:
                    seen.add("common row")
                if labels:
                    key = (m0, (p0, p1, p2, x, r - x))
                    seen.add("labelled row" if key in labels else "unlabelled row")
    assert seen == {
        "run whose m0 differs from the previous run's",
        "prefix p0 = p1 = p2",
        "prefix p1 = p2 > p0",
        "prefix p2 > p1 = p0",
        "prefix with three distinct parts",
        "head with p0 = 0 < p1",
        "head with p0 > 0",
        "common row",
        "mirror run",
        "row with lo == p2",
        "row with x == y",
        "p1 = 0 run with two zero parts",
        "p1 = 0 run with three zero parts",
        "labelled row",
        "unlabelled row",
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


def test_census_calls_representative_entries_once_per_form_of_a_p1_zero_run(capsys, monkeypatch):
    # A run whose prefix has p1 > 0 takes its representative's first three
    # entries from the prefix, with no call; a run with p1 = 0 calls once
    # per form.
    runs = list(census_runs(30, "all"))
    per_form = [len(xs) for _, _, p1, _, xs in runs if p1 == 0]
    assert per_form and len(per_form) < len(runs)
    assert sum(per_form) == 90
    classes = census(30, "all")
    header = f"n=30 filter=all classes={len(classes)} include_zero_columns=false"
    outputs = {fmt: render_classes(classes, fmt, header) for fmt in FORMATS}
    calls = []
    original = classify_module.representative_entries

    def counted(mp):
        calls.append(mp)
        return original(mp)

    monkeypatch.setattr(classify_module, "representative_entries", counted)
    for fmt, out in outputs.items():
        calls.clear()
        assert run_cli(capsys, "census", "30", "--filter", "all", "--format", fmt) == (0, out, "")
        assert len(calls) == 90 and all(mp[1] == 0 for mp in calls), fmt


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


def test_census_over_budget_exits_2_promptly(capsys):
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "census", "4096")
    assert rc == 2 and out == ""
    assert "budget" in err
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
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "verify", "--n-max", "1000000000")
    assert rc == 2 and out == ""
    assert "budget" in err
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
    src = str(Path(lcd2.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-m", "lcd2.cli", "check", "-"],
        input=text + "\n", env=env, capture_output=True, text=True,
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
    src = str(Path(lcd2.__file__).resolve().parents[1])
    probe = (
        "import sys, lcd2.cli; "
        "print(sorted({'numpy', 'concurrent.futures', 'argparse', 'gettext'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


_STARTUP_MODULES = ["lcd2", "lcd2._frozen", "lcd2.classify", "lcd2.cli", "lcd2.family", "lcd2.gf4"]


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
    ],
)
def test_commands_import_only_the_modules_they_use(argv, loaded):
    # A fresh interpreter without site imports (-S): importing the command
    # line loads the parser, the census walker and its tables, and no
    # dataclasses; code, linalg and verify load with the commands using them.
    src = str(Path(lcd2.__file__).resolve().parents[1])
    probe = (
        "import contextlib, io, sys\n"
        "from lcd2.cli import main\n"
        "if sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(sys.argv[1:]) == 0\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] in ('lcd2', 'dataclasses'))))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe, *argv], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.split() == sorted(_STARTUP_MODULES + loaded)


def test_verify_small(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--n-max", "9", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["n_max"] == 9
    assert all(check["pass"] for check in payload["checks"])
    rc, out, _ = run_cli(capsys, "verify", "--n-max", "8")
    assert rc == 0
    assert "RESULT: PASS" in out


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


def test_parser_matches_the_reference_argparse_tree():
    grid = parser_grid()
    assert len(grid) > 2000
    assert parser_mismatches(_parse, grid) == []


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
    src = str(Path(lcd2.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "lcd2.cli", "census", "60", "--filter", "all"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert first.startswith(b"n=60 filter=all ")
    assert (proc.wait(timeout=60), err) == (141, b"")
