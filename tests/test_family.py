import random

import pytest

import lcd2.family as family_module
from helpers import catalog_family, cube_optimal_tuples
from lcd2 import gf4
from lcd2.code import LinearCode, is_hermitian_lcd, min_weight, weight_enumerator
from lcd2.family import (
    ATuple,
    a_to_b,
    b_to_a,
    build_generator,
    check_lcd_conditions_a,
    check_lcd_conditions_b,
    delta,
    dmax,
    enumerate_optimal,
    family_catalog,
    family_tuples,
    move_add_row,
    move_swap345,
    move_swap_rows,
    parse_atuple,
)
from lcd2.linalg import format_matrix, mat

W, W2 = gf4.OMEGA, gf4.OMEGA2


def test_dmax_examples():
    assert dmax(10) == 7
    assert dmax(7) == 5
    assert dmax(4) == 2
    assert dmax(2) == 1
    assert dmax(3) == 2
    with pytest.raises(ValueError):
        dmax(1)


def test_delta_examples_and_residue_table():
    assert delta(10, 7) == 5
    assert delta(7, 5) == 3
    by_residue = {0: 5, 1: 4, 2: 3, 3: 2, 4: 6}
    for n in range(2, 61):
        assert delta(n, dmax(n)) == by_residue[n % 5]


def test_build_generator_examples():
    assert build_generator(ATuple(0, 0, 0, 0, 0)) == mat([[1, 0], [0, 1]])
    g = build_generator(ATuple(1, 1, 1, 1, 1))
    assert format_matrix(g) == "1,0,0,1,1,1,1;0,1,1,0,1,w,w2"
    g = build_generator(ATuple(0, 0, 1, 0, 0, a0=1))
    assert g.ncols == 4
    assert list(zip(*g.rows))[2] == (0, 0)


def test_atuple_validation():
    with pytest.raises(ValueError):
        ATuple(1, -1, 0, 0, 0)


def test_a_to_b_examples():
    b = a_to_b(ATuple(1, 1, 1, 1, 1), 7, 5)
    assert b.entries == (1, 1, 1, 1, 1) and b.delta == 3
    b = a_to_b(ATuple(1, 0, 2, 1, 1), 7, 5)
    assert b.entries == (1, 2, 0, 1, 1)
    assert b.b2 == b.delta + 1 - (b.b3 + b.b4 + b.b5)
    with pytest.raises(ValueError, match="^b-coordinates are defined for a0 = 0$"):
        a_to_b(ATuple(1, 1, 1, 1, 1, a0=1), 8, 5)
    with pytest.raises(ValueError, match="^inconsistent length: tuple gives n = 7, got 8$"):
        a_to_b(ATuple(1, 1, 1, 1, 1), 8, 5)


def test_a_b_round_trip_random():
    rng = random.Random(61)
    for _ in range(200):
        a = ATuple(*(rng.randrange(5) for _ in range(5)))
        n = a.n
        d = rng.randrange(1, n)
        assert b_to_a(a_to_b(a, n, d)) == a


def test_check_lcd_conditions_a_examples():
    assert check_lcd_conditions_a(ATuple(1, 1, 1, 1, 1), 7, 5) is True
    assert check_lcd_conditions_a(ATuple(2, 2, 2, 2, 0), 10, 7) is True
    # b = (1, 2, 0, 0, 2): d is odd and the pair products sum to 0
    assert check_lcd_conditions_a(ATuple(1, 0, 2, 2, 0), 7, 5) is False
    # b2 = 2 - 4 < 1
    assert check_lcd_conditions_a(ATuple(1, 4, 0, 0, 0), 7, 5) is False


def test_check_lcd_conditions_a_preconditions():
    with pytest.raises(ValueError):
        check_lcd_conditions_a(ATuple(1, 1, 1, 1, 1), 7, 4)  # row weight is not d
    with pytest.raises(ValueError):
        check_lcd_conditions_a(ATuple(0, 1, 1, 1, 1, a0=1), 8, 5)  # a0 != 0
    with pytest.raises(ValueError, match="^inconsistent length: tuple gives n = 7, got 8$"):
        check_lcd_conditions_a(ATuple(1, 1, 1, 1, 1), 8, 5)


def test_check_lcd_conditions_b_examples():
    assert check_lcd_conditions_b(a_to_b(ATuple(1, 1, 1, 1, 1), 7, 5)) is True
    assert check_lcd_conditions_b(a_to_b(ATuple(1, 0, 2, 1, 1), 7, 5)) is True
    # b = (1, 4, 0, 0, 0): all pair products vanish, parity fails
    from lcd2.family import BTuple

    assert check_lcd_conditions_b(BTuple(1, 4, 0, 0, 0, 3, 7, 5)) is False


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def test_conditions_a_and_b_agree_exhaustively():
    # all reduced tuples with n <= 12 whose first row is a minimum-weight word
    for n in range(2, 13):
        for entries in _compositions(n - 2, 5):
            a = ATuple(*entries)
            code = LinearCode(build_generator(a))
            d = min_weight(code)
            if 1 + a.a2 + a.a3 + a.a4 + a.a5 != d:
                continue
            expected = is_hermitian_lcd(code)
            assert check_lcd_conditions_a(a, n, d) == expected
            assert check_lcd_conditions_b(a_to_b(a, n, d)) == expected


def test_enumerate_optimal_examples():
    assert [a.entries for a in enumerate_optimal(7)] == [
        (1, 0, 2, 1, 1),
        (1, 1, 1, 1, 1),
    ]
    assert [a.entries for a in enumerate_optimal(2)] == [(0, 0, 0, 0, 0)]
    # n = 10 instantiates every catalog row except the one needing m >= 3
    tens = {a.entries for a in enumerate_optimal(10)}
    assert len(tens) == 7
    assert tens == {a.entries for _, a in family_tuples(10)}


def test_enumerate_optimal_tuples_are_optimal_lcd():
    for n in range(2, 31):
        tuples = enumerate_optimal(n)
        assert tuples, f"no optimal tuples at n={n}"
        d = dmax(n)
        for a in tuples:
            assert a.n == n
            assert 1 + a.a2 + a.a3 + a.a4 + a.a5 == d
            assert a.a3 >= a.a4 and a.a3 >= a.a5
            code = LinearCode(build_generator(a))
            assert min_weight(code) == d
            assert is_hermitian_lcd(code)


def test_enumerate_optimal_matches_the_cube_walk():
    lengths = [*range(2, 2001)]
    lengths += [base + r for base in (10**6, 10**9) for r in range(5)]
    for n in lengths:
        assert enumerate_optimal(n) == cube_optimal_tuples(n), n


def test_enumerate_optimal_tests_parity_only_inside_the_delta_window(monkeypatch):
    # The window 0 <= b3 <= b4, b5 with b3 + b4 + b5 <= delta has 27, 18,
    # 11, 6 and 39 cells for n = 0..4 (mod 5), where delta = 5, 4, 3, 2, 6;
    # the cube 0 <= b3 <= b4, b5 <= delta has 91, 55, 30, 14 and 140.
    calls = []
    parity = family_module._parity_condition

    def counted(*args):
        calls.append(args)
        return parity(*args)

    monkeypatch.setattr(family_module, "_parity_condition", counted)
    for n, cells in zip(range(30, 40), (27, 18, 11, 6, 39) * 2):
        monkeypatch.setattr(family_module, "_B_WINDOW", {})
        calls.clear()
        enumerate_optimal(n)
        assert len(calls) == cells, n
        # The window of a slack is walked once; a repeated call reads it.
        calls.clear()
        enumerate_optimal(n)
        assert not calls, n


def test_move_swap345():
    assert move_swap345(ATuple(2, 2, 2, 2, 0)) == ATuple(2, 2, 0, 2, 2)
    a = ATuple(3, 1, 4, 1, 5)
    assert move_swap345(move_swap345(move_swap345(a))) == a
    with pytest.raises(ValueError):
        move_swap345(ATuple(1, 1, 1, 1, 1, a0=1))


def test_move_add_row():
    assert move_add_row(ATuple(1, 1, 1, 1, 1)) == ATuple(1, 0, 2, 1, 1)
    with pytest.raises(ValueError):
        move_add_row(ATuple(1, 1, 0, 1, 1))


def test_move_swap_rows():
    assert move_swap_rows(ATuple(2, 2, 2, 1, 0), 6) == ATuple(2, 2, 2, 0, 1)
    a = ATuple(2, 2, 2, 1, 0)
    assert move_swap_rows(move_swap_rows(a, 6), 6) == a
    with pytest.raises(ValueError):
        move_swap_rows(ATuple(1, 0, 2, 1, 1), 5)  # second row weight is 6, not 5


def test_moves_preserve_weight_enumerator():
    rng = random.Random(67)
    pool = [a for n in range(4, 16) for a in enumerate_optimal(n)]
    for a in rng.sample(pool, 25):
        n = a.n
        d = dmax(n)
        we = weight_enumerator(LinearCode(build_generator(a)))
        images = [move_swap345(a)]
        if a.a3 >= 1:
            images.append(move_add_row(a))
        if 1 + a.a1 + a.a3 + a.a4 + a.a5 == d:
            images.append(move_swap_rows(a, d))
        for img in images:
            assert weight_enumerator(LinearCode(build_generator(img))) == we


def test_catalog_structure():
    catalog = family_catalog()
    assert len(catalog) == 49
    assert len({f.label for f in catalog}) == 49
    # The census writer quotes labels in JSON and CSV with literal quotes.
    for f in catalog:
        assert f.label.isascii() and "," in f.label and not {'"', "\\"} & set(f.label), f.label
    per_residue = {r: 0 for r in range(5)}
    for f in catalog:
        per_residue[f.residue] += 1
        assert sum(f.offsets) == f.residue - 2
        assert f.m_min == max(0, -min(f.offsets))
        assert f.tuple_at(f.m_min) is not None
        if f.m_min > 0:
            assert f.tuple_at(f.m_min - 1) is None
    assert per_residue == {0: 8, 1: 11, 2: 2, 3: 3, 4: 25}
    assert catalog_family("C_{5m,8}").m_min == 3


def test_catalog_tuples_are_optimal_lcd():
    for f in family_catalog():
        for m in range(f.m_min, f.m_min + 4):
            a = f.tuple_at(m)
            n = 5 * m + f.residue
            assert a is not None and a.n == n
            d = dmax(n)
            assert 1 + a.a2 + a.a3 + a.a4 + a.a5 == d
            assert check_lcd_conditions_a(a, n, d)


def test_family_tuples_matches_enumeration():
    for n in range(2, 43):
        assert {a.entries for _, a in family_tuples(n)} == {
            a.entries for a in enumerate_optimal(n)
        }


def test_parse_atuple_reads_the_text_form():
    for text, expected in [
        ("1,0,2,1,1", ATuple(1, 0, 2, 1, 1)),
        ("a0=1;1,0,2,1,1", ATuple(1, 0, 2, 1, 1, a0=1)),
    ]:
        assert parse_atuple(text) == expected
    with pytest.raises(ValueError):
        parse_atuple("1,2,3")
    with pytest.raises(ValueError):
        parse_atuple("b0=1;1,2,3,4,5")
