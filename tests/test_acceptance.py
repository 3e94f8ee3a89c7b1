"""Acceptance suite: the ten exit criteria, one test and one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines as they are produced.
"""

import json
import random

from helpers import (
    atuple_multvector,
    equivalent_by_search,
    random_equivalent_image,
    random_rank2_matrix,
)
from lcd2.classify import (
    MultVector,
    _lcd_from_mult,
    _min_weight_from_mult,
    are_equivalent,
    canonical_form,
    census,
    classify_optimal,
    code_to_multvector,
    induced_point_permutations,
    multvector_to_code,
)
from lcd2.cli import main
from lcd2.code import (
    LinearCode,
    has_zero_coordinate,
    is_hermitian_lcd,
    min_weight,
    weight_enumerator,
)
from lcd2.family import (
    CLASSIFICATION,
    ATuple,
    a_to_b,
    build_generator,
    check_lcd_conditions_a,
    check_lcd_conditions_b,
    dmax,
    enumerate_optimal,
    family_catalog,
    family_tuples,
)
from lcd2.verify import _weight_form_counts


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def test_c01_bound_reproduction():
    mismatches = []
    for n in range(2, 61):
        best = max(c.d for c in census(n, "lcd"))
        if best != dmax(n):
            mismatches.append((n, best, dmax(n)))
    _report(
        "C1 bound reproduction n=2..60",
        not mismatches,
        f"mismatches={mismatches}" if mismatches else "census maximum equals the bound at every length",
    )


def test_c02_headline_classification_counts():
    failures = []
    for n in (10, 15, 20, 25, 30):
        if len(classify_optimal(n)) != 2:
            failures.append((n, "expected 2"))
    for n in (11, 16, 21, 26, 31):
        if len(classify_optimal(n)) != 2:
            failures.append((n, "expected 2"))
    for n in (7, 12, 17, 22, 27, 32):
        if len(classify_optimal(n)) != 1:
            failures.append((n, "expected 1"))
    for n in (3, 8, 13, 18, 23, 28):
        if len(classify_optimal(n)) != 1:
            failures.append((n, "expected 1"))
    for n in (19, 24, 29):
        classes = classify_optimal(n, include_zero_columns=True)
        zero = [c for c in classes if c.zero_col]
        if len(classes) != 6 or len(zero) != 1:
            failures.append((n, f"{len(classes)} classes, {len(zero)} zero-column"))
        elif not has_zero_coordinate(multvector_to_code(zero[0].canon)):
            failures.append((n, "zero-column flag not confirmed on the code"))
    _report(
        "C2 headline class counts",
        not failures,
        f"failures={failures}" if failures else "all residue-class counts match",
    )


def test_c03_small_length_edge_counts():
    failures = []
    for n, expected in ((5, 1), (6, 1), (2, 1)):
        got = len(classify_optimal(n))
        if got != expected:
            failures.append((n, got, expected))
    for n, plain, with_zero in ((4, 1, 2), (9, 3, 4), (14, 4, 5)):
        got_plain = len(classify_optimal(n))
        classes = classify_optimal(n, include_zero_columns=True)
        zero = [c for c in classes if c.zero_col]
        if got_plain != plain or len(classes) != with_zero or len(zero) != with_zero - plain:
            failures.append((n, got_plain, len(classes), len(zero)))
    _report(
        "C3 small-length edge counts",
        not failures,
        f"failures={failures}" if failures else "n in {2,4,5,6,9,14} all as classified",
    )


def test_c04_catalog_reproduction():
    mismatched = []
    for n in range(2, 58):
        enumerated = {a.entries for a in enumerate_optimal(n)}
        catalog = {a.entries for _, a in family_tuples(n)}
        if enumerated != catalog:
            mismatched.append(n)
    _report(
        "C4 catalog vs enumeration n=2..57",
        not mismatched,
        f"mismatched={mismatched}" if mismatched else "set equality at every length",
    )


def test_c05_equivalence_chain_reproduction():
    by_key = {(f.residue, f.index): f for f in family_catalog()}
    problems = []
    for residue, classes in CLASSIFICATION.items():
        chains = [chain for chain, _, _ in classes]
        covered = sorted(i for chain in chains for i in chain)
        expected = sorted(f.index for f in family_catalog() if f.residue == residue)
        if covered != expected:
            problems.append((residue, "chains do not partition the catalog"))
        chain_m_min = [min(by_key[(residue, i)].m_min for i in chain) for chain in chains]
        for m in range(0, 11):
            canons = []
            for chain, m_min in zip(chains, chain_m_min):
                if m < m_min:
                    continue
                members = {
                    canonical_form(atuple_multvector(by_key[(residue, i)].tuple_at(m)))
                    for i in chain
                    if by_key[(residue, i)].tuple_at(m) is not None
                }
                if len(members) != 1:
                    problems.append((residue, m, chain, "chain does not collapse"))
                canons.extend(members)
            if len(set(canons)) != len(canons):
                problems.append((residue, m, "distinct chains share a canonical form"))
    _report(
        "C5 equivalence chains collapse, m<=10",
        not problems,
        f"problems={problems}" if problems else "each chain is one class, chains stay distinct",
    )


def test_c06_weight_enumerator_forms():
    by_key = {(f.residue, f.index): f for f in family_catalog()}
    problems = []
    for residue, classes in CLASSIFICATION.items():
        designated = [(by_key[(residue, row)], form) for _, row, form in classes]
        for fam, form in designated:
            for m in range(fam.m_min, 11):
                a = fam.tuple_at(m)
                computed = weight_enumerator(LinearCode(build_generator(a)))
                if computed.counts != _weight_form_counts(form, m):
                    problems.append((fam.label, m, computed.poly_string()))
        # forms valid at the same length stay pairwise distinct
        for m in range(0, 11):
            forms = [
                _weight_form_counts(form, m)
                for fam, form in designated
                if fam.tuple_at(m) is not None
            ]
            if len(set(forms)) != len(forms):
                problems.append((residue, m, "representative forms collide"))
    # and the census classes themselves have pairwise distinct enumerators
    for n in range(2, 33):
        classes = census(n, "optimal_lcd", include_zero_columns=True)
        if len({c.we.counts for c in classes}) != len(classes):
            problems.append((n, "census classes share a weight enumerator"))
    _report(
        "C6 weight enumerator closed forms, m<=10",
        not problems,
        f"problems={problems}" if problems else "all representative forms match and stay distinct",
    )


def test_c07_equivalence_oracle_agreement():
    rng = random.Random(20260810)
    trials = 1000
    disagreements = 0
    for _ in range(trials):
        n = rng.randrange(2, 11)
        g1 = random_rank2_matrix(rng, n)
        if rng.random() < 0.5:
            g2 = random_equivalent_image(rng, g1)
        else:
            g2 = random_rank2_matrix(rng, n)
        c1, c2 = LinearCode(g1), LinearCode(g2)
        if are_equivalent(c1, c2) != equivalent_by_search(c1, c2):
            disagreements += 1
    _report(
        "C7 canonical form vs exhaustive search",
        disagreements == 0,
        f"{trials} random pairs, {disagreements} disagreements",
    )


def test_c08_criteria_consistency():
    checked_conditions = 0
    problems = []
    for n in range(2, 16):
        for entries in _compositions(n - 2, 5):
            a = ATuple(*entries)
            code = LinearCode(build_generator(a))
            d = min_weight(code)
            if 1 + a.a2 + a.a3 + a.a4 + a.a5 != d:
                continue
            checked_conditions += 1
            expected = is_hermitian_lcd(code)
            if check_lcd_conditions_a(a, n, d) != expected:
                problems.append(("a-conditions", a))
            if check_lcd_conditions_b(a_to_b(a, n, d)) != expected:
                problems.append(("b-conditions", a))
    checked_mult = 0
    for n in range(2, 16):
        for mp in _compositions(n, 5):
            if sum(1 for x in mp if x) < 2:
                continue
            checked_mult += 1
            code = multvector_to_code(MultVector(0, mp))
            if _min_weight_from_mult(n, 0, mp) != min_weight(code):
                problems.append(("multiplicity-d", n, mp))
            if _lcd_from_mult(mp) != is_hermitian_lcd(code):
                problems.append(("multiplicity-lcd", n, mp))
    _report(
        "C8 condition and fast-path consistency n<=15",
        not problems,
        f"problems={problems[:4]}"
        if problems
        else f"{checked_conditions} reduced tuples and {checked_mult} census candidates agree",
    )


def test_c09_invariance_suite():
    rng = random.Random(97)
    transforms = 10_000
    problems = 0
    bases = [random_rank2_matrix(rng, rng.randrange(3, 13)) for _ in range(100)]
    measured = [
        (
            min_weight(LinearCode(g)),
            weight_enumerator(LinearCode(g)),
            is_hermitian_lcd(LinearCode(g)),
            canonical_form(code_to_multvector(LinearCode(g))),
        )
        for g in bases
    ]
    per_base = transforms // len(bases)
    for g, reference in zip(bases, measured):
        for _ in range(per_base):
            image = LinearCode(random_equivalent_image(rng, g))
            got = (
                min_weight(image),
                weight_enumerator(image),
                is_hermitian_lcd(image),
                canonical_form(code_to_multvector(image)),
            )
            if got != reference:
                problems += 1
    perms = induced_point_permutations()
    group_ok = len(perms) == 60
    perm_set = set(perms)
    group_ok &= all(
        sum(1 for i in range(5) for j in range(i + 1, 5) if p[i] > p[j]) % 2 == 0
        for p in perms
    )
    group_ok &= all(
        tuple(p[q[i]] for i in range(5)) in perm_set for p in perms for q in perms
    )
    _report(
        "C9 invariance under 10,000 transforms + induced group",
        problems == 0 and group_ok,
        f"{transforms} transforms, {problems} violations; group order {len(perms)}",
    )


def test_c10_determinism_across_repeated_runs(capsys):
    commands = [
        ["census", "20", "--filter", "optimal_lcd", "--include-zero-columns", "--format", "json"],
        ["classify", "23", "--format", "json"],
    ]
    identical = True
    for command in commands:
        outputs = []
        for _ in range(3):
            rc = main(command)
            out = capsys.readouterr().out
            assert rc == 0
            outputs.append(out.encode())
        identical &= all(o == outputs[0] for o in outputs)
    with capsys.disabled():
        _report(
            "C10 byte-identical output across repeated runs",
            identical,
            "census and classify repeated runs compared",
        )
