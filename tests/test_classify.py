import itertools
import math
import random

import pytest

from helpers import (
    atuple_multvector,
    catalog_view_reference,
    equivalent_by_search,
    label_map_reference,
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
    VALID_FILTERS,
    _catalog_view,
    _census_enumerated,
    _iter_compositions,
    _label_map,
    _lcd_form,
    _lcd_from_mult,
    _min_weight_from_mult,
    _we_from_mult,
    _runs,
    are_equivalent,
    canonical_form,
    census,
    census_forms,
    census_runs,
    classify_optimal,
    code_to_multvector,
    induced_point_permutations,
    multvector_to_code,
    representative_atuple,
    representative_entries,
)
from lcd2.cli import main
from lcd2.code import (
    CODEWORD_BUDGET,
    LinearCode,
    WeightEnumerator,
    has_zero_coordinate,
    is_hermitian_lcd,
    min_weight,
    weight_enumerator,
)
from lcd2.family import CLASSIFICATION, ATuple, build_generator, dmax, family_catalog
from lcd2.linalg import identity, mat
from lcd2.verify import expected_optimal_class_count, verify_classification


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
    c1 = canonical_form(atuple_multvector(ATuple(1, 1, 1, 1, 1)))
    c2 = canonical_form(atuple_multvector(ATuple(1, 0, 2, 1, 1)))
    assert c1 == c2 == MultVector(0, (1, 1, 1, 2, 2))
    # the two classes at n = 5m split for m = 3
    a7 = canonical_form(atuple_multvector(ATuple(3, 1, 3, 3, 3)))
    a8 = canonical_form(atuple_multvector(ATuple(3, 0, 4, 3, 3)))
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
        return WeightEnumerator(tuple(sorted(counts.items())))

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
                assert _expand(t, _runs(t, 0, d_lo, d_hi, False)) == expected, (t, d_lo, d_hi)


def _expand(t, runs):
    """The forms of the runs (m0, p0, p1, p2, xs) of t, m0 dropped, each run
    checked non-empty."""
    forms = []
    for _, p0, p1, p2, xs in runs:
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
            assert _expand(t, _runs(t, 0, d_lo, d_hi, False)) == expected, (t, d_lo, d_hi)


def _run_forms(n, runs):
    """The forms (m0, mp) of the runs (m0, p0, p1, p2, xs) of n, one at a
    time, each run checked non-empty."""
    for m0, p0, p1, p2, xs in runs:
        assert len(xs) > 0, (n, m0, p0, p1, p2)
        for x in xs:
            yield m0, (p0, p1, p2, x, n - m0 - p0 - p1 - p2 - x)


def test_census_runs_equal_the_filtered_full_walk(
    cases=tuple((n, z) for n in range(2, 41) for z in (False, True)), filters=VALID_FILTERS
):
    # The LCD stride against the per-form parity test, and the optimal
    # window against the d = dmax(n) forms of the full walk, streamed form
    # by form, so that no list is built at the budget ends.
    for n, z in cases:
        for filt in filters:
            expected = (
                (m0, mp)
                for m0, mp in census_forms(n, "all", z)
                if filt == "all" or _lcd_from_mult(mp) and (filt == "lcd" or n - m0 - max(mp) == dmax(n))
            )
            pairs = itertools.zip_longest(_run_forms(n, census_runs(n, filt, z)), expected)
            first = next((pair for pair in pairs if pair[0] != pair[1]), None)
            assert first is None, (n, filt, z, first)


@pytest.mark.slow
def test_lcd_stride_equals_the_filtered_full_walk_near_the_budget():
    cases = ((100, False), (101, False), (160, False), (161, False), (77, True), (78, True))
    test_census_runs_equal_the_filtered_full_walk(cases, ("lcd",))


def test_window_runs_with_zero_columns_equal_the_filtered_full_walk():
    # Every d window of the walker, zero columns included, with and without
    # the LCD cut, against the full walk cut by d and the per-form parity
    # test: this reaches the loop bounds at m0 > 0 and with lcd=True, which
    # the window tests above leave out.
    for n in range(2, 15):
        full = [
            (m0, mp, n - m0 - max(mp), _lcd_from_mult(mp))
            for m0, mp in census_forms(n, "all", True)
        ]
        for d_lo in range(1, n + 1):
            for d_hi in range(d_lo, n + 1):
                for lcd in (False, True):
                    expected = [
                        (m0, mp) for m0, mp, d, is_lcd in full
                        if d_lo <= d <= d_hi and (is_lcd or not lcd)
                    ]
                    got = list(_run_forms(n, _runs(n, n - 2, d_lo, d_hi, lcd)))
                    assert got == expected, (n, d_lo, d_hi, lcd)


def _mirrored_runs_following_their_sorted_run(n, runs):
    """The number of mirrored runs among the runs (m0, p0, p1, p2, xs) of n,
    each checked to come right after the sorted run of its (m0, p0, p1, p2):
    the class writer reuses that run's text for it."""
    mirrored = 0
    last = None
    for run in runs:
        m0, p0, p1, p2, xs = run
        r = n - m0 - p0 - p1 - p2
        if 2 * xs[0] > r:
            assert last is not None and last[:4] == run[:4], (n, last, run)
            assert 2 * last[4][0] <= r, (n, last, run)
            mirrored += 1
        last = run
    return mirrored


def test_every_mirrored_run_follows_the_sorted_run_of_its_prefix():
    mirrored = 0
    for n in range(2, 61):
        for filt in VALID_FILTERS:
            for z in (False, True) if n <= 40 else (False,):
                mirrored += _mirrored_runs_following_their_sorted_run(n, census_runs(n, filt, z))
    # The optimal table past each residue's last index and past 10^6.
    lengths = [
        5 * (len(table) - 1 + k) + residue
        for residue, table in enumerate(classify_module._TABLES)
        for k in (1, 2, 3)
    ]
    lengths += [10**6 + residue for residue in range(5)]
    for n in lengths:
        for z in (False, True):
            runs = census_runs(n, "optimal_lcd", z)
            mirrored += _mirrored_runs_following_their_sorted_run(n, runs)
    for n in range(2, 21):
        for d_lo in range(1, n + 1):
            for d_hi in range(d_lo, n + 1):
                for lcd in (False, True):
                    runs = _runs(n, n - 2, d_lo, d_hi, lcd)
                    mirrored += _mirrored_runs_following_their_sorted_run(n, runs)
    assert mirrored > 0


def test_optimal_window_equals_full_lcd_walk():
    # The full walk, filtered to d = dmax(n), stays the cross-check.
    cases = [(n, z) for n in range(2, 46) for z in (False, True)]
    cases += [(100, False), (161, False)]
    for n, z in cases:
        d = dmax(n)
        full = [(m0, mp) for m0, mp in census_forms(n, "lcd", z) if n - m0 - max(mp) == d]
        window = census(n, "optimal_lcd", include_zero_columns=z)
        assert [(c.canon.m0, c.canon.mp) for c in window] == full, (n, z)


def test_window_walk_equals_the_optimal_forms_of_the_full_lcd_walk():
    # The walker's d_lo = d_hi path against its d = 1..n path, zero columns
    # included.
    for n in range(2, 46):
        d = dmax(n)
        full = [(m0, mp) for m0, mp in census_forms(n, "lcd", True) if n - m0 - max(mp) == d]
        assert classify_module._window_forms(n) == full, n


def test_optimal_rows_equal_the_window_walk(
    lengths=(*range(2, 1001), *(base + r for base in (10**6, 10**9) for r in range(5)))
):
    for n in lengths:
        walk = classify_module._window_forms(n)
        for z in (False, True):
            got = []
            for m0, p0, p1, p2, xs in census_runs(n, "optimal_lcd", z):
                assert len(xs) == 1, (n, z, m0, p0, p1, p2)
                got.append((m0, (p0, p1, p2, xs[0], n - m0 - p0 - p1 - p2 - xs[0])))
            assert got == [form for form in walk if z or not form[0]], (n, z)


def test_optimal_rows_hold_the_headline_counts():
    # 2, 2, 1, 1 and 5 classes for n = 5m + r, r = 0..4, from the last entry
    # of each residue's table on, plus one zero-column class at r = 4.
    rows = {r: table[-1][0] for r, table in enumerate(classify_module._TABLES)}
    assert {r: len(rows[r]) for r in range(5)} == {0: 2, 1: 2, 2: 1, 3: 1, 4: 6}
    assert [r for r in range(5) for row in rows[r] if row[0]] == [4]
    assert [row[0] for row in rows[4]] == [0, 0, 0, 0, 0, 1]


def _table_entry_reference(n):
    """A ``_TABLES`` entry at n = 5m + r rebuilt without the table, as offsets
    from m: the forms of the window walk, the rows of the catalog view
    rebuilt row by row, and the label map by the rule applied to that view."""
    m = n // 5
    forms = tuple(
        (m0, p0 - m, p1 - m, p2 - m, x - m)
        for m0, (p0, p1, p2, x, _) in classify_module._window_forms(n)
    )
    rows = tuple(
        (label, tuple(a - m for a in entries), tuple(k - m for k in key[1]))
        for label, (entries, key) in catalog_view_reference(n).items()
    )
    labels = tuple(
        (tuple(k - m for k in key[1]), label) for key, label in label_map_reference(n).items()
    )
    return forms, rows, labels


def test_residue_tables_equal_direct_walks_and_the_rebuilt_catalog():
    # The last index is derived per residue; every entry is the state at its
    # m, and the last one the state at every larger m.
    for r, table in enumerate(classify_module._TABLES):
        last = len(table) - 1
        assert last == (4, 3, 2, 1, 4)[r], r
        for m, entry in enumerate(table):
            if 5 * m + r >= 2:
                assert entry == _table_entry_reference(5 * m + r), (r, m)
        for m in (last + 1, last + 2, last + 3, 10**6 + 3):
            assert table[-1] == _table_entry_reference(5 * m + r), (r, m)


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
    for residue, classes in CLASSIFICATION.items():
        for chain, _, _ in classes:
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


def test_census_fast_equals_enumerated_oracle(lengths=range(2, 13)):
    for n in lengths:
        for izc in (False, True):
            slow = _census_enumerated(n, izc)
            assert list(slow) == ["all", "lcd", "optimal_lcd"], (n, izc)
            for filt, classes in slow.items():
                fast = census(n, filt, include_zero_columns=izc)
                assert [(c.canon, c.d, c.we, c.zero_col) for c in fast] == [
                    (c.canon, c.d, c.we, c.zero_col) for c in classes
                ], (n, filt, izc)


@pytest.mark.slow
def test_census_fast_equals_enumerated_oracle_at_n_13_to_18():
    test_census_fast_equals_enumerated_oracle(range(13, 19))


def test_enumerated_oracle_checks_the_derived_enumerator(monkeypatch):
    def drop_last_term(n, m0, mp):
        return WeightEnumerator(_we_from_mult(n, m0, mp).counts[:-1])

    monkeypatch.setattr(classify_module, "_we_from_mult", drop_last_term)
    with pytest.raises(AssertionError):
        _census_enumerated(9, False)


def test_enumerated_oracle_checks_the_derived_min_weight(monkeypatch):
    def shift_by_one(n, m0, mp):
        return _min_weight_from_mult(n, m0, mp) + 1

    monkeypatch.setattr(classify_module, "_min_weight_from_mult", shift_by_one)
    with pytest.raises(AssertionError):
        _census_enumerated(9, False)


def test_census_examples():
    classes = census(7, "optimal_lcd")
    assert len(classes) == 1
    assert dict(classes[0].we.counts) == {0: 1, 5: 6, 6: 9}
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
    with pytest.raises(ValueError, match="^n must be >= 2, got 1$"):
        expected_optimal_class_count(1)


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


def _merged_chains_of_residue_0():
    """Residue 0's classes as one, whose chain holds both chains."""
    first, second = CLASSIFICATION[0]
    return ((first[0] + second[0], *first[1:]),)


def test_verify_reports_a_chain_that_splits(monkeypatch):
    monkeypatch.setitem(CLASSIFICATION, 0, _merged_chains_of_residue_0())
    assert _failures(14) == [
        (
            "T2",
            10,
            False,
            "chain (7, 6, 5, 8, 3, 2, 1, 4) splits into 2 classes; 1 nonempty chains, expected 2",
        )
    ]


def test_verify_reads_the_chains_afresh_on_every_call(monkeypatch):
    # A chain table kept from the first call would hide the split.
    assert _failures(10) == []
    monkeypatch.setitem(CLASSIFICATION, 0, _merged_chains_of_residue_0())
    assert _failures(10) == [
        (
            "T2",
            10,
            False,
            "chain (7, 6, 5, 8, 3, 2, 1, 4) splits into 2 classes; 1 nonempty chains, expected 2",
        )
    ]


def test_verify_reports_a_wrong_weight_form(monkeypatch):
    [(chain, designated, _)] = CLASSIFICATION[2]
    monkeypatch.setitem(CLASSIFICATION, 2, ((chain, designated, ((1, 6), (2, 10))),))
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
    # (2, 3, 4, 5, 5) is the class C_{5m+4,21} at n = 19, the form with
    # offsets (-1, 0, 1, 2, 2) from m in the entries m = 1..4 of residue 4;
    # dropped from them, its class goes missing at n = 9, 14 and 19, and the
    # window walk still finds it.
    form = (0, -1, 0, 1, 2)
    tables = classify_module._TABLES
    assert [form in forms for forms, _, _ in tables[4]] == [False, True, True, True, True]
    dropped = tuple(
        (tuple(f for f in forms if f != form), rows, labels) for forms, rows, labels in tables[4]
    )
    monkeypatch.setattr(classify_module, "_TABLES", (*tables[:4], dropped))
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


def _verify_failures(capsys, n_max):
    """The exit code of ``lcd2 verify --n-max n_max`` and its FAIL and
    RESULT lines."""
    rc = main(["verify", "--n-max", str(n_max)])
    lines = capsys.readouterr().out.splitlines()
    return rc, [line for line in lines if " FAIL " in line or line.startswith("RESULT")]


def test_verify_reports_two_chains_with_one_canonical_form(capsys, monkeypatch):
    # The first chain of residue 0 in both of its classes: at n = 5 one
    # class is expected, so the count is off as well.  Each class keeps its
    # designated row and weight form, so T3 still passes.
    first, second = CLASSIFICATION[0]
    monkeypatch.setitem(CLASSIFICATION, 0, (first, (first[0], *second[1:])))
    assert _verify_failures(capsys, 10) == (
        1,
        [
            "T2 n=5 FAIL two chains share a canonical form; 2 nonempty chains, expected 1",
            "T2 n=10 FAIL two chains share a canonical form",
            "RESULT: FAIL (2 of 41 checks failed)",
        ],
    )


def test_verify_reports_a_repeated_weight_enumerator(capsys, monkeypatch):
    # A second class of residue 2 with the designated row and form of the
    # first and no chain rows, which T2 skips.
    [(_, designated, form)] = CLASSIFICATION[2]
    monkeypatch.setitem(CLASSIFICATION, 2, (*CLASSIFICATION[2], ((), designated, form)))
    assert _verify_failures(capsys, 8) == (
        1,
        [
            "T3 n=2 FAIL C_{5m+2,1}: weight enumerator repeats at n=2",
            "T3 n=7 FAIL C_{5m+2,1}: weight enumerator repeats at n=7",
            "RESULT: FAIL (2 of 32 checks failed)",
        ],
    )


def test_verify_reports_a_missing_zero_column_class(capsys, monkeypatch):
    # The census with zero columns and the window walk agree, but both put
    # a copy of an m0 = 0 class in place of the zero-column class at n = 9.
    def corrupt(forms):
        def patched(n, *args):
            found = list(forms(n, *args))
            return [found[0] if key[0] else key for key in found] if n == 9 else found

        return patched

    monkeypatch.setattr(classify_module, "census_forms", corrupt(classify_module.census_forms))
    monkeypatch.setattr(classify_module, "_window_forms", corrupt(classify_module._window_forms))
    assert _verify_failures(capsys, 10) == (
        1,
        ["T4 n=9 FAIL 0 zero-column classes, expected 1", "RESULT: FAIL (1 of 41 checks failed)"],
    )


def test_verify_reports_a_class_without_a_catalog_label(capsys, monkeypatch):
    label_map = classify_module._label_map

    def without_length_12(n):
        return {key: label for key, label in label_map(n).items() if sum(key[1]) != 12}

    monkeypatch.setattr(classify_module, "_label_map", without_length_12)
    assert _verify_failures(capsys, 14) == (
        1,
        ["T4 n=12 FAIL 1 classes without a catalog label", "RESULT: FAIL (1 of 60 checks failed)"],
    )


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


# The tables' lengths: the catalog view and the label map, each read at n,
# against their rebuilds.
TABLE_LENGTHS = (*range(2, 3001), *(base + r for base in (10**6, 10**9, 10**20) for r in range(5)))


def test_catalog_view_matches_the_catalog_rebuilt_row_by_row(lengths=TABLE_LENGTHS):
    for n in lengths:
        assert list(_catalog_view(n).items()) == list(catalog_view_reference(n).items()), n
    for n in (-1, 0, 1):
        errors = []
        for view in (_catalog_view, catalog_view_reference):
            with pytest.raises(ValueError) as exc:
                view(n)
            errors.append(str(exc.value))
        assert errors == [f"n must be >= 2, got {n}"] * 2


def test_label_map_matches_the_rule_applied_to_the_rebuilt_catalog(lengths=TABLE_LENGTHS):
    # Keys, labels and their order: the table read at n against the first
    # label per class, designated representatives first, of the row-by-row view.
    for n in lengths:
        assert list(_label_map(n).items()) == list(label_map_reference(n).items()), n
    for n in (-1, 0, 1):
        with pytest.raises(ValueError, match=f"n must be >= 2, got {n}"):
            _label_map(n)


# Lengths past the verify budget: T3 alone sets VERIFY_BUDGET, and the
# other checks cost the same at every length.
PAST_THE_BUDGET = (*range(2000, 20001), *(base + r for base in (10**6, 10**9) for r in range(5)))


@pytest.mark.slow
def test_verify_checks_and_their_rebuilds_agree_past_the_budget():
    test_catalog_view_matches_the_catalog_rebuilt_row_by_row(PAST_THE_BUDGET)
    test_label_map_matches_the_rule_applied_to_the_rebuilt_catalog(PAST_THE_BUDGET)
    test_optimal_rows_equal_the_window_walk(PAST_THE_BUDGET)
    classes = verify_module._classes()
    for n in PAST_THE_BUDGET:
        view = _catalog_view(n)
        plain, zero = (list(census_forms(n, "optimal_lcd", z)) for z in (False, True))
        walk = classify_module._window_forms(n)
        checks = [
            verify_module._check_catalog(n, view),
            verify_module._check_chains(n, view, classes[n % 5]),
            verify_module._check_classification(n, plain, zero, walk, _label_map(n)),
            verify_module._check_headline(n, plain, zero),
        ]
        assert [c for c in checks if c is not None and not c.passed] == [], n


def test_verify_reports_a_corrupt_catalog_row(monkeypatch):
    # The view reads the table fixed at import, so the corruption goes into
    # it: C_{5m+4,8} gets the offsets (2, 0, 0, 0, 0) in every entry of
    # residue 4 but keeps its class key, which T2 and T4 read.
    def corrupt(rows):
        return tuple(
            (label, (2, 0, 0, 0, 0) if label == "C_{5m+4,8}" else c, key) for label, c, key in rows
        )

    tables = classify_module._TABLES
    assert all("C_{5m+4,8}" in [row[0] for row in rows] for _, rows, _ in tables[4])
    corrupted = tuple((forms, corrupt(rows), labels) for forms, rows, labels in tables[4])
    monkeypatch.setattr(classify_module, "_TABLES", (*tables[:4], corrupted))
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


def test_the_verify_budget_bounds_the_columns_t3_builds(monkeypatch):
    # One cumulative pass over T3 at n = 2..2000, counting the generator
    # columns it builds, against the bound the budget is compared with.
    built = []

    def counted(a):
        gen = build_generator(a)
        built.append(gen.ncols)
        return gen

    monkeypatch.setattr(family_module, "build_generator", counted)
    classes = verify_module._classes()
    total = 0
    for n in range(2, 2001):
        assert verify_module._check_weight_forms(n, _catalog_view(n), classes[n % 5]).passed, n
        total += sum(built)
        built.clear()
        if n >= 7:
            assert verify_module._t3_columns(n) >= total, n
        if n == 1999:
            # The old estimate, 11 * n_max * (n_max + 1) // 10 = 4,397,800, fell short.
            assert total == 4_399_673
    assert verify_module._t3_columns(1999) == 4_399_798 <= verify_module.VERIFY_BUDGET
    assert verify_module._t3_columns(2000) == 4_403_798 > verify_module.VERIFY_BUDGET


def test_t3_builds_and_measures_the_representatives_far_past_the_verify_budget(
    lengths=range(10**4, 10**4 + 5)
):
    classes = verify_module._classes()
    for n in lengths:
        check = verify_module._check_weight_forms(n, _catalog_view(n), classes[n % 5])
        assert (check.id, check.n, check.passed) == ("T3", n, True), check
        assert not check.detail.startswith("0 "), check


@pytest.mark.slow
def test_t3_at_the_longest_lengths_both_budgets_admit():
    # A [n, 2] code walks 5 scalar classes of codewords, so the codeword
    # budget admits n <= CODEWORD_BUDGET / 5, below GENERATOR_BUDGET.
    longest = min(CODEWORD_BUDGET // 5, family_module.GENERATOR_BUDGET)
    lengths = range(longest - 4, longest + 1)
    test_t3_builds_and_measures_the_representatives_far_past_the_verify_budget(lengths)


def test_representative_weight_forms_shift_into_sorted_enumerators():
    # _weight_form_counts shifts the stored pairs without a sort or a merge,
    # so each form's offsets must increase, and stay positive from the
    # least m at which its residue has length n >= 2.
    for residue, classes in CLASSIFICATION.items():
        for _, designated, pairs in classes:
            offsets = [offset for offset, _ in pairs]
            assert offsets == sorted(set(offsets)), (residue, designated)
            for m in range(1 if residue < 2 else 0, 12):
                shifted = {0: 1, **{4 * m + offset: count for offset, count in pairs}}
                assert min(shifted) == 0 and len(shifted) == len(pairs) + 1, (residue, m)
                expected = tuple(sorted(shifted.items()))
                assert verify_module._weight_form_counts(pairs, m) == expected, (residue, m)


def test_each_designated_row_lies_in_its_own_chain():
    # classify labels a class by its designated row and T3 measures that
    # row for the class's weight form, so the row must lie in the chain.
    rows = 0
    for residue, classes in CLASSIFICATION.items():
        for chain, designated, _ in classes:
            assert designated in chain, (residue, chain, designated)
            rows += 1
    assert rows == 11


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
