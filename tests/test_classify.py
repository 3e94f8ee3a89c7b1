import itertools
import math
import random

import pytest

from helpers import (
    catalog_view_reference,
    equivalent_by_search,
    random_equivalent_image,
    random_rank2_matrix,
)
import lcd2.classify as classify_module
import lcd2.family as family_module
import lcd2.verify as verify_module
from lcd2 import gf4
from lcd2.classify import (
    EquivClass,
    MultVector,
    _catalog_view,
    _census_enumerated,
    _iter_compositions,
    _lcd_form,
    _lcd_from_mult,
    _min_weight_from_mult,
    _we_from_mult,
    _sorted_runs,
    are_equivalent,
    canonical_form,
    census,
    census_forms,
    census_runs,
    classify_optimal,
    code_to_multvector,
    induced_point_permutations,
    multvector_of_atuple,
    multvector_to_code,
    representative_atuple,
    representative_entries,
)
from lcd2.code import (
    LinearCode,
    WeightEnumerator,
    has_zero_coordinate,
    is_hermitian_lcd,
    min_weight,
    weight_enumerator,
)
from lcd2.family import ATuple, build_generator, dmax, family_catalog
from lcd2.linalg import identity, mat
from lcd2.verify import EQUIV_CHAINS, expected_optimal_class_count, verify_classification


def test_code_to_multvector_examples():
    c = LinearCode(build_generator(ATuple(1, 1, 1, 1, 1)))
    assert code_to_multvector(c) == MultVector(0, (2, 2, 1, 1, 1))
    assert code_to_multvector(LinearCode(identity(2))) == MultVector(0, (1, 1, 0, 0, 0))
    # (w, w) normalises to the same point as (1, 1)
    c = LinearCode(mat([[1, 0, gf4.OMEGA], [0, 1, gf4.OMEGA]]))
    assert code_to_multvector(c).mp == (1, 1, 1, 0, 0)
    with pytest.raises(ValueError):
        code_to_multvector(LinearCode(mat([[1, 0]])))


def test_multvector_round_trip():
    rng = random.Random(71)
    for _ in range(100):
        n = rng.randrange(2, 10)
        mv = code_to_multvector(LinearCode(random_rank2_matrix(rng, n)))
        assert code_to_multvector(multvector_to_code(mv)) == mv
    mv = MultVector(1, (1, 1, 1, 0, 0))
    assert multvector_to_code(mv).n == 4
    with pytest.raises(ValueError):
        multvector_to_code(MultVector(0, (3, 0, 0, 0, 0)))
    with pytest.raises(ValueError):
        MultVector(0, (1, -1, 0, 0, 0))


def test_induced_point_permutations_group():
    perms = induced_point_permutations()
    assert len(perms) == 60
    assert tuple(range(5)) in perms

    def parity(p):
        inversions = sum(
            1 for i in range(5) for j in range(i + 1, 5) if p[i] > p[j]
        )
        return inversions % 2

    assert all(parity(p) == 0 for p in perms)
    perm_set = set(perms)
    for p in perms:
        for q in perms:
            assert tuple(p[q[i]] for i in range(5)) in perm_set
    # scaling the second row by w fixes the unit points and 3-cycles the rest
    assert (0, 1, 3, 4, 2) in perm_set or (0, 1, 4, 2, 3) in perm_set
    # transitivity on the 5 points
    for target in range(5):
        assert any(p[0] == target for p in perms)


def test_canonical_form_examples():
    c1 = canonical_form(multvector_of_atuple(ATuple(1, 1, 1, 1, 1)))
    c2 = canonical_form(multvector_of_atuple(ATuple(1, 0, 2, 1, 1)))
    assert c1 == c2 == MultVector(0, (1, 1, 1, 2, 2))
    # the two classes at n = 5m split for m = 3
    a7 = canonical_form(multvector_of_atuple(ATuple(3, 1, 3, 3, 3)))
    a8 = canonical_form(multvector_of_atuple(ATuple(3, 0, 4, 3, 3)))
    assert a7 != a8


def test_canonical_form_is_idempotent_and_orbit_constant():
    rng = random.Random(73)
    perms = induced_point_permutations()
    for _ in range(200):
        mv = code_to_multvector(LinearCode(random_rank2_matrix(rng, rng.randrange(2, 10))))
        canon = canonical_form(mv)
        assert canonical_form(canon) == canon
        p = rng.choice(perms)
        image = MultVector(mv.m0, tuple(mv.mp[p[i]] for i in range(5)))
        assert canonical_form(image) == canon


def test_closed_forms_match_the_group_minimum():
    # Reference: the lexicographic minimum over all 60 induced permutations.
    perms = induced_point_permutations()
    for t in range(15):
        for mp in _iter_compositions(t):
            images = [tuple(mp[p[i]] for i in range(5)) for p in perms]
            mv = MultVector(3, mp)
            assert canonical_form(mv) == MultVector(3, min(images)), mp
            if not mv.spans():
                with pytest.raises(ValueError):
                    representative_atuple(mv)
                continue
            best = min(img for img in images if img[0] >= 1 and img[1] >= 1)
            expected = ATuple(best[1] - 1, best[0] - 1, best[2], best[3], best[4], a0=3)
            assert representative_atuple(mv) == expected, mp


def test_representative_atuple_depends_only_on_the_class():
    for m0 in (0, 2):
        for t in range(15):
            for mp in _iter_compositions(t):
                mv = MultVector(m0, mp)
                if not mv.spans():
                    for arg in (mv, canonical_form(mv)):
                        with pytest.raises(ValueError):
                            representative_atuple(arg)
                    continue
                assert representative_atuple(mv) == representative_atuple(canonical_form(mv)), mp


def test_representative_entries_end_in_the_last_two_parts_when_p1_is_positive():
    # The census writer takes the first three entries from the prefix
    # (p0, p1, p2), as (p2 - 1, p1 - 1, 0) when p0 = 0 and (p1 - 1, p0 - 1,
    # p2) otherwise, and appends (x, r - x); that needs this for every
    # canonical form with at most one zero part, mirrors (last two parts
    # descending) included.
    heads = {}
    mirrors = 0
    for t in range(21):
        for mp in _iter_compositions(t):
            mv = canonical_form(MultVector(0, mp))
            if not mv.spans() or mv.mp[1] == 0:
                continue
            entries = representative_entries(mv.mp)
            assert entries[3:] == mv.mp[3:], mv
            p0, p1, p2 = mv.mp[:3]
            assert entries[:3] == ((p2 - 1, p1 - 1, 0) if p0 == 0 else (p1 - 1, p0 - 1, p2)), mv
            assert heads.setdefault(mv.mp[:3], entries[:3]) == entries[:3], mv
            mirrors += mv.mp[3] > mv.mp[4]
    assert mirrors and any(head[0] == 0 for head in heads)


def test_we_from_mult_matches_the_dict_build():
    def dict_build(n, m0, mp):
        counts = {0: 1}
        for p in mp:
            counts[n - m0 - p] = counts.get(n - m0 - p, 0) + 3
        return WeightEnumerator.from_dict(counts)

    for m0 in (0, 2):
        for t in range(15):
            for mp in _iter_compositions(t):
                canon = canonical_form(MultVector(m0, mp))
                if canon.spans():
                    n = m0 + t
                    assert _we_from_mult(n, m0, canon.mp) == dict_build(n, m0, canon.mp), mp


def _a5_orbits(t):
    """Burnside count of A5-orbits on the 5-part compositions of t."""
    fixed_221 = sum(s + 1 for s in range(t // 2 + 1))  # 2a + 2b + c = t
    fixed_311 = sum(t - 3 * a + 1 for a in range(t // 3 + 1))  # 3a + b + c = t
    fixed_5 = 1 if t % 5 == 0 else 0
    total = math.comb(t + 4, 4) + 15 * fixed_221 + 20 * fixed_311 + 24 * fixed_5
    assert total % 60 == 0
    return total // 60


def _census_count(n: int, filter: str, include_zero_columns: bool = False) -> int:
    """``len(census(...))`` from the run lengths, with no class objects."""
    return sum(len(xs) for *_, xs in census_runs(n, filter, include_zero_columns))


def test_census_all_matches_burnside_count():
    # One orbit per length has a single point type (rank < 2).
    for n in range(2, 13):
        assert len(census(n, "all")) == _census_count(n, "all") == _a5_orbits(n) - 1, n
    for n in (60, 100, 150):
        assert _census_count(n, "all") == _a5_orbits(n) - 1, n
    n = 50
    expected = sum(_a5_orbits(n - m0) - 1 for m0 in range(n - 1))
    assert _census_count(n, "all", include_zero_columns=True) == expected


def test_census_refuses_walks_over_budget():
    with pytest.raises(ValueError, match="budget"):
        census(162, "all")
    with pytest.raises(ValueError, match="budget"):
        census_forms(162, "all")
    with pytest.raises(ValueError, match="budget"):
        census_runs(162, "all")
    with pytest.raises(ValueError, match="budget"):
        census(79, "lcd", include_zero_columns=True)


def test_sorted_forms_match_the_sorted_group_minima():
    # Reference: the minima over the 60 induced permutations of the rank-2
    # compositions of t, bucketed by d = t - max part, for every d range.
    perms = induced_point_permutations()
    for t in range(17):
        by_d: dict[int, set] = {}
        for head in itertools.product(range(t + 1), repeat=4):
            last = t - sum(head)
            mp = (*head, last)
            if last < 0 or max(mp) == t:
                continue
            image = min(tuple(mp[p[i]] for i in range(5)) for p in perms)
            by_d.setdefault(t - max(mp), set()).add(image)
        for d_lo in range(1, t + 1):
            for d_hi in range(d_lo, t + 1):
                expected = sorted(set().union(*(by_d.get(d, ()) for d in range(d_lo, d_hi + 1))))
                assert _expand(t, _sorted_runs(t, d_lo, d_hi)) == expected, (t, d_lo, d_hi)


def _expand(t, runs):
    """The forms of the runs (p0, p1, p2, xs) of t, each run checked non-empty."""
    forms = []
    for p0, p1, p2, xs in runs:
        assert len(xs) > 0, (t, p0, p1, p2)
        forms += [(p0, p1, p2, x, t - p0 - p1 - p2 - x) for x in xs]
    return forms


def test_sorted_runs_match_the_group_minima_up_to_t_40():
    # Reference: the sorted 5-part partitions of t and their last-two swaps
    # represent both A5 cosets of S5, so the minima over the 60 induced
    # permutations of the two are the orbit minima of every composition.
    perms = induced_point_permutations()
    for t in range(2, 41):
        by_d: dict[int, set] = {}
        for p0 in range(t // 5 + 1):
            for p1 in range(p0, (t - p0) // 4 + 1):
                for p2 in range(p1, (t - p0 - p1) // 3 + 1):
                    for p3 in range(p2, (t - p0 - p1 - p2) // 2 + 1):
                        p4 = t - p0 - p1 - p2 - p3
                        if p4 == t:
                            continue
                        for mp in ((p0, p1, p2, p3, p4), (p0, p1, p2, p4, p3)):
                            image = min(tuple(mp[p[i]] for i in range(5)) for p in perms)
                            by_d.setdefault(t - p4, set()).add(image)
        for d_lo, d_hi in ((1, t), (1, t // 2), (t // 2, t), (dmax(t), dmax(t))):
            expected = sorted(set().union(*(by_d.get(d, ()) for d in range(d_lo, d_hi + 1))))
            assert _expand(t, _sorted_runs(t, d_lo, d_hi)) == expected, (t, d_lo, d_hi)


def test_census_runs_equal_the_filtered_full_walk():
    # The LCD stride against the per-form parity test, and the optimal
    # window against the d = dmax(n) forms of the full walk.
    for n in range(2, 41):
        for z in (False, True):
            full = list(census_forms(n, "all", z))
            lcd = [(m0, mp) for m0, mp in full if _lcd_from_mult(mp)]
            expected = {
                "all": full,
                "lcd": lcd,
                "optimal_lcd": [(m0, mp) for m0, mp in lcd if n - m0 - max(mp) == dmax(n)],
            }
            for filt, forms in expected.items():
                got = []
                for m0, p0, p1, p2, xs in census_runs(n, filt, z):
                    assert len(xs) > 0, (n, filt, z, m0, p0, p1, p2)
                    got += [(m0, (p0, p1, p2, x, n - m0 - p0 - p1 - p2 - x)) for x in xs]
                assert got == forms, (n, filt, z)


def test_optimal_window_equals_full_lcd_walk():
    # The full walk, filtered to d = dmax(n), stays the cross-check.
    cases = [(n, z) for n in range(2, 46) for z in (False, True)]
    cases += [(100, False), (161, False)]
    for n, z in cases:
        d = dmax(n)
        full = [(m0, mp) for m0, mp in census_forms(n, "lcd", z) if n - m0 - max(mp) == d]
        window = census(n, "optimal_lcd", include_zero_columns=z)
        assert [(c.canon.m0, c.canon.mp) for c in window] == full, (n, z)


def test_optimal_rows_equal_the_window_walk():
    lengths = [*range(2, 1001), *(base + r for base in (10**6, 10**9) for r in range(5))]
    for n in lengths:
        walk = classify_module._window_forms(n)
        for z in (False, True):
            got = []
            for m0, p0, p1, p2, xs in census_runs(n, "optimal_lcd", z):
                assert len(xs) == 1, (n, z, m0, p0, p1, p2)
                got.append((m0, (p0, p1, p2, xs[0], n - m0 - p0 - p1 - p2 - xs[0])))
            assert got == [form for form in walk if z or not form[0]], (n, z)


def test_optimal_rows_hold_the_headline_counts():
    # 2, 2, 1, 1 and 5 classes for n = 5m + r, r = 0..4, once m is large
    # enough, plus one zero-column class at r = 4.
    rows = classify_module._OPTIMAL_ROWS
    assert {r: len(rows[r]) for r in range(5)} == {0: 2, 1: 2, 2: 1, 3: 1, 4: 6}
    assert [r for r in range(5) for row in rows[r] if row[0]] == [4]
    assert [row[0] for row in rows[4]] == [0, 0, 0, 0, 0, 1]


def test_optimal_rows_do_not_depend_on_the_reference_length():
    assert classify_module._optimal_rows(9) == classify_module._OPTIMAL_ROWS
    assert max(row[5] for rows in classify_module._OPTIMAL_ROWS.values() for row in rows) == 3


def test_classify_optimal_at_large_lengths():
    for n in (*range(10**6, 10**6 + 10), *range(10**9, 10**9 + 5)):
        plain = classify_optimal(n)
        assert len(plain) == expected_optimal_class_count(n), n
        assert all(c.label is not None and not c.zero_col for c in plain), n
        with_zero = classify_optimal(n, include_zero_columns=True)
        zero_classes = [c for c in with_zero if c.zero_col]
        assert len(zero_classes) == (1 if n % 5 == 4 else 0), n
        assert [c for c in with_zero if not c.zero_col] == plain, n
        assert all(c.d == dmax(n) for c in with_zero), n


def test_are_equivalent_on_chain_links():
    for residue, chains in EQUIV_CHAINS.items():
        for chain in chains:
            for m in range(0, 7):
                members = []
                for index in chain:
                    fam = next(
                        f for f in family_catalog()
                        if f.residue == residue and f.index == index
                    )
                    a = fam.tuple_at(m)
                    if a is not None:
                        members.append(LinearCode(build_generator(a)))
                for c in members[1:]:
                    assert are_equivalent(members[0], c)


def test_are_equivalent_distinguishes_classes():
    classes = classify_optimal(14)
    codes = [multvector_to_code(c.canon) for c in classes]
    for i in range(len(codes)):
        for j in range(i + 1, len(codes)):
            assert not are_equivalent(codes[i], codes[j])


def test_are_equivalent_matches_exhaustive_search():
    rng = random.Random(79)
    for _ in range(120):
        n = rng.randrange(2, 9)
        g1 = random_rank2_matrix(rng, n)
        if rng.random() < 0.5:
            g2 = random_equivalent_image(rng, g1)
        else:
            g2 = random_rank2_matrix(rng, n)
        c1, c2 = LinearCode(g1), LinearCode(g2)
        assert are_equivalent(c1, c2) == equivalent_by_search(c1, c2)


def test_census_fast_equals_enumerated_oracle():
    for n in range(2, 13):
        for filt in ("all", "lcd", "optimal_lcd"):
            for izc in (False, True):
                fast = census(n, filt, include_zero_columns=izc)
                slow = _census_enumerated(n, filt, izc)
                assert [(c.canon, c.d, c.we, c.zero_col) for c in fast] == [
                    (c.canon, c.d, c.we, c.zero_col) for c in slow
                ], (n, filt, izc)


def test_enumerated_oracle_checks_the_derived_enumerator(monkeypatch):
    def drop_last_term(n, m0, mp):
        return WeightEnumerator(_we_from_mult(n, m0, mp).counts[:-1])

    monkeypatch.setattr(classify_module, "_we_from_mult", drop_last_term)
    with pytest.raises(AssertionError):
        _census_enumerated(9, "all", False)


def test_enumerated_oracle_checks_the_derived_min_weight(monkeypatch):
    def shift_by_one(n, m0, mp):
        return _min_weight_from_mult(n, m0, mp) + 1

    monkeypatch.setattr(classify_module, "_min_weight_from_mult", shift_by_one)
    with pytest.raises(AssertionError):
        _census_enumerated(9, "all", False)


def test_census_examples():
    classes = census(7, "optimal_lcd")
    assert len(classes) == 1
    assert classes[0].we.as_dict() == {0: 1, 5: 6, 6: 9}
    assert len(census(10, "optimal_lcd")) == 2
    nineteen = census(19, "optimal_lcd", include_zero_columns=True)
    assert len(nineteen) == 6
    assert sum(1 for c in nineteen if c.zero_col) == 1
    with pytest.raises(ValueError):
        census(1)
    with pytest.raises(ValueError):
        census_forms(1)
    with pytest.raises(TypeError):
        census(7, method="fast")
    with pytest.raises(TypeError):
        classify_optimal(7, method="fast")
    with pytest.raises(ValueError):
        census(7, "bogus")
    with pytest.raises(ValueError):
        census_forms(7, "bogus")


def test_census_validates_multiplicity_fast_paths():
    for n in range(2, 11):
        for mv_class in census(n, "all"):
            code = multvector_to_code(mv_class.canon)
            assert _min_weight_from_mult(n, mv_class.canon.m0, mv_class.canon.mp) == min_weight(code)
            assert _lcd_from_mult(mv_class.canon.mp) == is_hermitian_lcd(code)


def test_census_is_deterministic_and_sorted():
    a = census(16, "optimal_lcd", include_zero_columns=True)
    b = census(16, "optimal_lcd", include_zero_columns=True)
    assert a == b
    keys = [(c.canon.m0, c.canon.mp) for c in a]
    assert keys == sorted(keys)


def test_classify_labels():
    assert [c.label for c in classify_optimal(5)] == ["C_{5m,5}"]
    assert [c.label for c in classify_optimal(3)] == ["C_{5m+3,2}"]
    assert {c.label for c in classify_optimal(15)} == {"C_{5m,7}", "C_{5m,8}"}
    assert {c.label for c in classify_optimal(24)} == {
        "C_{5m+4,8}",
        "C_{5m+4,6}",
        "C_{5m+4,21}",
        "C_{5m+4,23}",
        "C_{5m+4,24}",
    }
    with_zero = classify_optimal(24, include_zero_columns=True)
    zero_classes = [c for c in with_zero if c.zero_col]
    assert len(zero_classes) == 1 and zero_classes[0].label is None
    assert has_zero_coordinate(multvector_to_code(zero_classes[0].canon))


def test_expected_optimal_class_count_table():
    expected = {2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1, 8: 1, 9: 3, 10: 2,
                11: 2, 12: 1, 13: 1, 14: 4, 15: 2, 19: 5, 24: 5}
    for n, count in expected.items():
        assert expected_optimal_class_count(n) == count
        assert len(classify_optimal(n)) == count


def test_representative_atuple_reconstructs_class():
    rng = random.Random(83)
    for _ in range(80):
        mv = code_to_multvector(LinearCode(random_rank2_matrix(rng, rng.randrange(2, 10))))
        canon = canonical_form(mv)
        rep = representative_atuple(canon)
        rebuilt = code_to_multvector(LinearCode(build_generator(rep)))
        assert canonical_form(rebuilt).mp == canon.mp
        assert rep.a0 == mv.m0


def test_class_weight_enumerator_matches_any_representative():
    for cls in census(11, "lcd"):
        code = multvector_to_code(cls.canon)
        assert weight_enumerator(code) == cls.we
        assert min_weight(code) == cls.d


def test_verify_classification_small():
    report = verify_classification(12)
    assert report.passed
    assert not report.failures()
    ids = {c.id for c in report.checks}
    assert ids == {"T1", "T2", "T3", "T4", "THM"}
    payload = report.to_jsonable()
    assert payload["n_max"] == 12
    assert all(set(c) == {"id", "n", "pass", "detail"} for c in payload["checks"])
    with pytest.raises(ValueError):
        verify_classification(6)


def _failures(n_max):
    return [(c.id, c.n, c.passed, c.detail) for c in verify_classification(n_max).failures()]


def test_verify_reports_a_tuple_missing_from_the_enumeration(monkeypatch):
    # T1 reads the enumeration's entry tuples, not its ATuples.
    optimal_entries = family_module._optimal_entries
    monkeypatch.setattr(
        family_module, "_optimal_entries", lambda n: optimal_entries(n)[1 if n == 9 else 0:]
    )
    assert _failures(14) == [("T1", 9, False, "missing=[(2, 0, 2, 1, 2)] extra=[]")]


def test_verify_reports_a_chain_that_splits(monkeypatch):
    first, second = EQUIV_CHAINS[0]
    monkeypatch.setitem(EQUIV_CHAINS, 0, (first + second,))
    assert _failures(14) == [
        (
            "T2",
            10,
            False,
            "chain (7, 6, 5, 8, 3, 2, 1, 4) splits into 2 classes; 1 nonempty chains, expected 2",
        )
    ]


def test_verify_reports_a_wrong_weight_form(monkeypatch):
    monkeypatch.setitem(verify_module.REPRESENTATIVE_WEIGHT_FORMS, "C_{5m+2,1}", ((1, 6), (2, 10)))
    assert _failures(14) == [
        ("T3", n, False, f"C_{{5m+2,1}}: computed 1+6y^{w}+9y^{w + 1} != form 1+6y^{w}+10y^{w + 1}")
        for n, w in ((2, 1), (7, 5), (12, 9))
    ]


def test_verify_reports_a_wrong_class_count(monkeypatch):
    monkeypatch.setattr(
        verify_module, "expected_optimal_class_count",
        lambda n: expected_optimal_class_count(n) + (n == 12),
    )
    assert _failures(14) == [
        ("T2", 12, False, "1 nonempty chains, expected 2"),
        ("T4", 12, False, "1 classes, expected 2; 1 classes with zero columns allowed, expected 2"),
    ]


def test_verify_reports_a_missing_optimal_class(monkeypatch):
    # (2, 3, 4, 5, 5) is the class C_{5m+4,21} at n = 19, the row with
    # offsets (-1, 0, 1, 2, 2) from m and m_min = 1; dropped from the optimal
    # rows, its class goes missing at n = 9, 14 and 19, and the window walk
    # still finds it.
    rows = classify_module._OPTIMAL_ROWS[4]
    assert rows[3] == (0, -1, 0, 1, 2, 1)
    monkeypatch.setitem(classify_module._OPTIMAL_ROWS, 4, rows[:3] + rows[4:])
    expected = []
    for m, (count, zero) in enumerate(((2, 3), (3, 4), (4, 5)), start=1):
        missing = (0, (m - 1, m, m + 1, m + 2, m + 2))
        expected.append(
            (
                "T4",
                5 * m + 4,
                False,
                f"{count} classes, expected {count + 1}; {zero} classes with zero columns "
                f"allowed, expected {zero + 1}; optimal rows differ from the window walk: "
                f"rows only=[] walk only=[{missing}]",
            )
        )
    expected.append(
        (
            "THM",
            19,
            False,
            "5 classes including zero columns (1 with a zero coordinate), headline count 6 (1)",
        )
    )
    assert _failures(20) == expected


def test_verify_reports_optimal_rows_the_window_walk_does_not_find(monkeypatch):
    # The rows are read at import, so an LCD test that drops (2, 3, 4, 5, 5),
    # the only form of its optimal run at n = 19, reaches only the walk that
    # T4 compares them with.
    def corrupt(p0, p1, p2, r, x):
        return (p0, p1, p2, x, r - x) != (2, 3, 4, 5, 5) and _lcd_form(p0, p1, p2, r, x)

    monkeypatch.setattr(classify_module, "_lcd_form", corrupt)
    assert _failures(20) == [
        (
            "T4",
            19,
            False,
            "optimal rows differ from the window walk: rows only=[(0, (2, 3, 4, 5, 5))] walk only=[]",
        )
    ]


def test_verify_reports_a_census_without_zero_columns_that_disagrees(monkeypatch):
    # T4 compares the census without zero columns with the m0 = 0 classes of
    # the census with them, which guards census_runs' filter of the zero
    # columns: a dropped form shows as a count problem and the disagreement,
    # a form repeated in place of another as the disagreement alone.
    census_forms = classify_module.census_forms

    def corrupt(substitute):
        def forms(n, filt, zero):
            found = list(census_forms(n, filt, zero))
            return found[:-1] + substitute(found) if n == 19 and not zero else found

        return forms

    monkeypatch.setattr(classify_module, "census_forms", corrupt(lambda found: []))
    assert _failures(20) == [
        ("T4", 19, False, "4 classes, expected 5; zero-column census disagrees on the m0 = 0 classes")
    ]
    monkeypatch.setattr(classify_module, "census_forms", corrupt(lambda found: found[:1]))
    assert _failures(20) == [("T4", 19, False, "zero-column census disagrees on the m0 = 0 classes")]


def test_verify_builds_no_class_objects(monkeypatch):
    def refuse(self):
        raise AssertionError(f"built a {type(self).__name__}")

    monkeypatch.setattr(EquivClass, "__post_init__", refuse)
    monkeypatch.setattr(MultVector, "__post_init__", refuse)
    assert verify_classification(60).passed


def test_verify_instantiates_the_catalog_once_per_length(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return _catalog_view(n)

    monkeypatch.setattr(classify_module, "_catalog_view", counted)
    assert verify_classification(60).passed
    assert sorted(calls) == list(range(2, 61))


def test_catalog_view_matches_the_catalog_rebuilt_row_by_row():
    lengths = [*range(2, 3001), *(base + r for base in (10**6, 10**9, 10**20) for r in range(5))]
    for n in lengths:
        assert list(_catalog_view(n).items()) == list(catalog_view_reference(n).items()), n
    for n in (-1, 0, 1):
        errors = []
        for view in (_catalog_view, catalog_view_reference):
            with pytest.raises(ValueError) as exc:
                view(n)
            errors.append(str(exc.value))
        assert errors == [f"n must be >= 2, got {n}"] * 2


def test_verify_reports_a_corrupt_catalog_row(monkeypatch):
    # The view reads the rows fixed at import, so the corruption goes into
    # that table: C_{5m+4,8} gets the offsets (2, 0, 0, 0, 0) but keeps its
    # class key, which T2 and T4 read.
    rows = list(classify_module._CATALOG_ROWS[4])
    label, _, m_min, key = rows[7]
    assert label == "C_{5m+4,8}"
    rows[7] = (label, (2, 0, 0, 0, 0), m_min, key)
    monkeypatch.setitem(classify_module._CATALOG_ROWS, 4, tuple(rows))
    # (2, 0, 0, 0, 0) + m has point multiplicities (1, 3, 0, 0, 0) + m: at
    # t = 4m + 4 nonzero columns, 3 words each of weights t - 1 - m and
    # t - 3 - m, and 9 of weight t - m.
    expected = []
    for m in range(3):
        n, w = 5 * m + 4, 4 * m
        catalog, enumerated = (m + 2, m, m, m, m), (m + 1, m, m + 1, m, m)
        expected += [
            ("T1", n, False, f"missing=[{catalog}] extra=[{enumerated}]"),
            (
                "T3",
                n,
                False,
                f"C_{{5m+4,8}}: computed 1+3y^{w + 1}+3y^{w + 3}+9y^{w + 4} "
                f"!= form 1+3y^{w + 2}+6y^{w + 3}+6y^{w + 4}",
            ),
        ]
    assert _failures(14) == expected


def test_verify_classification_beyond_the_census_budget():
    assert verify_classification(200).passed
    with pytest.raises(ValueError, match="budget"):
        verify_classification(2000)


def test_equivclass_is_frozen():
    cls = census(7, "optimal_lcd")[0]
    assert isinstance(cls, EquivClass)
    with pytest.raises(AttributeError):
        cls.d = 99


def test_equivclass_stores_only_its_canonical_form_and_label():
    assert EquivClass.__slots__ == ("canon", "label")
    cls = EquivClass(MultVector(2, (1, 1, 1, 2, 2)), "x")
    assert (cls.n, cls.d, cls.zero_col) == (9, 5, True)
    assert cls.we == weight_enumerator(multvector_to_code(cls.canon))


def test_equivclass_accepts_exactly_the_rank2_canonical_forms():
    # One point type: d and the enumerator would describe no rank-2 code.
    for mp in ((5, 0, 0, 0, 0), (0, 0, 0, 0, 5)):
        with pytest.raises(ValueError, match="rank-2 canonical form"):
            EquivClass(MultVector(0, mp))
    for t in range(9):
        for mp in _iter_compositions(t):
            mv = MultVector(1, mp)
            if mv.spans() and canonical_form(mv) == mv:
                assert EquivClass(mv).canon == mv
            else:
                with pytest.raises(ValueError):
                    EquivClass(mv)
