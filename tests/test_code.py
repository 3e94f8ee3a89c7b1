import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    brute_hull_dimension,
    brute_min_weight,
    brute_weight_enumerator,
    random_equivalent_image,
    random_full_rank,
    random_monomial_image,
    random_rank2_matrix,
)
from lcd2 import gf4, linalg
from lcd2.classify import _catalog_view
from lcd2.code import (
    LinearCode,
    WeightEnumerator,
    codewords,
    extend_with_zero,
    has_zero_coordinate,
    hull_dimension,
    is_hermitian_lcd,
    min_weight,
    weight_enumerator,
)
from lcd2.family import ATuple, build_generator
from lcd2.cli import main
from lcd2.linalg import Mat, format_matrix, identity, mat, rank

W, W2 = gf4.OMEGA, gf4.OMEGA2


def C(*entries, a0=0):
    return LinearCode(build_generator(ATuple(*entries, a0=a0)))


def test_linear_code_validation():
    with pytest.raises(ValueError):
        LinearCode(mat([[1, W], [W, W2]]))  # rank 1
    with pytest.raises(ValueError):
        LinearCode(mat([[1], [1]]))  # k > n
    zero = LinearCode(mat([], ncols=3))
    assert zero.k == 0 and zero.n == 3


def test_generators_opening_with_the_identity_are_accepted_without_elimination(monkeypatch):
    def refuse(m):
        raise AssertionError("eliminated a generator that opens with the identity")

    monkeypatch.setattr(linalg, "_eliminate", refuse)
    built = 0
    for n in range(2, 61):
        for entries, _ in _catalog_view(n).values():
            code = LinearCode(build_generator(ATuple(*entries)))
            assert (code.n, code.k) == (n, 2)
            built += 1
    assert built > 500
    # [I_9 | 0], the nine-dimensional code that check admits in tests/test_cli.py.
    code = LinearCode(mat([[1 if j == i else 0 for j in range(10)] for i in range(9)]))
    assert (code.n, code.k) == (10, 9)


@pytest.mark.parametrize("text", ["1,0;0,0", "1,w;w2,1", "0,1;0,w", "1,w,0;0,1,w2;1,w2,w2"])
def test_rank_deficient_generators_are_refused(text):
    gen = linalg.parse_matrix(text)
    assert rank(gen) < gen.nrows
    with pytest.raises(ValueError, match="^generator matrix is rank deficient$"):
        LinearCode(gen)


def test_dimension_over_length_is_refused_before_rank():
    with pytest.raises(ValueError, match="^dimension 3 exceeds length 2$"):
        LinearCode(linalg.parse_matrix("1,0;0,1;1,1"))


def test_codewords_examples():
    c = LinearCode(mat([[1, W]]))
    assert set(codewords(c)) == {(0, 0), (1, W), (W, W2), (W2, 1)}
    full = LinearCode(identity(2))
    words = codewords(full)
    assert len(words) == 16 and len(set(words)) == 16
    # closure under scaling
    for v in codewords(c):
        for s in gf4.NONZERO:
            assert tuple(gf4.MUL[s][e] for e in v) in set(codewords(c))
    # 16 codewords of length 62,501 hold 16 entries more than the budget
    wide = LinearCode(mat([[1] * 62_501, [0, 1] + [0] * 62_499]))
    message = "^4\\^2 codewords of length 62501 exceed the budget of 1000000$"
    with pytest.raises(ValueError, match=message):
        codewords(wide)


def test_min_weight_examples():
    assert min_weight(C(1, 1, 1, 1, 1)) == 5
    assert min_weight(LinearCode(identity(2))) == 1
    assert min_weight(C(0, 0, 1, 0, 0)) == 2
    with pytest.raises(ValueError):
        min_weight(LinearCode(mat([], ncols=2)))


def test_weight_enumerator_examples():
    # frozen values confirmed by the independent full-enumeration oracle
    cases = [
        (C(1, 1, 1, 1, 1), {0: 1, 5: 6, 6: 9}),
        (LinearCode(identity(2)), {0: 1, 1: 6, 2: 9}),
        (C(2, 0, 2, 2, 2), {0: 1, 7: 3, 8: 9, 9: 3}),
    ]
    for code, expected in cases:
        assert brute_weight_enumerator(code.gen) == expected
        assert dict(weight_enumerator(code).counts) == expected


def test_weight_enumerator_poly_string():
    we = weight_enumerator(C(1, 1, 1, 1, 1))
    assert we.poly_string() == "1+6y^5+9y^6"
    assert str(WeightEnumerator(((0, 1),))) == "1"
    with pytest.raises(ValueError, match="^no nonzero codewords$"):
        WeightEnumerator(((0, 1),)).min_positive_weight()


def test_weight_enumerator_invariants_random():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randrange(2, 9)
        code = LinearCode(random_rank2_matrix(rng, n))
        we = weight_enumerator(code)
        assert we.total() == 16
        assert dict(we.counts)[0] == 1
        assert we.min_positive_weight() == min_weight(code)
        assert all(c % 3 == 0 for w, c in we.counts if w > 0)
        assert dict(we.counts) == brute_weight_enumerator(code.gen)
        assert min_weight(code) == brute_min_weight(code.gen)


@st.composite
def full_rank_generators(draw) -> Mat:
    k = draw(st.integers(0, 5))
    n = draw(st.integers(max(k, 1), 10))
    row = st.tuples(*[st.sampled_from(gf4.ELEMENTS)] * n)
    gen = Mat(tuple(draw(st.lists(row, min_size=k, max_size=k))), n)
    assume(rank(gen) == k)
    return gen


@settings(max_examples=80, deadline=None)
@given(full_rank_generators(), st.randoms())
def test_weight_enumerator_matches_brute_force_and_monomial_images(gen, rng):
    we = weight_enumerator(LinearCode(gen))
    assert dict(we.counts) == brute_weight_enumerator(gen)
    assert weight_enumerator(LinearCode(random_monomial_image(rng, gen))) == we


@pytest.mark.slow
def test_weight_enumerator_matches_brute_force_at_k_6_and_7_and_check_admits_k_8(capsys):
    rng = random.Random(10)
    for i in range(20):
        k = 6 + i % 2
        gen = random_full_rank(rng, k, rng.randrange(k, k + 6))
        assert dict(weight_enumerator(LinearCode(gen)).counts) == brute_weight_enumerator(gen), gen
    # The largest dimension the codeword budget admits.
    assert main(["check", format_matrix(random_full_rank(random.Random(8), 8, 45))]) == 0
    assert capsys.readouterr().err == ""


def test_hull_dimension_examples():
    assert hull_dimension(LinearCode(identity(2))) == 0
    c = LinearCode(mat([[1, 1, 1], [1, 0, 0]]))
    assert hull_dimension(c) == 1
    assert brute_hull_dimension(c) == 1


def test_lcd_examples():
    assert is_hermitian_lcd(LinearCode(identity(2)))
    assert not is_hermitian_lcd(LinearCode(mat([[1, 1, 1], [1, 0, 0]])))
    assert is_hermitian_lcd(C(1, 1, 1, 1, 1))


def test_lcd_agrees_with_hull_and_intersection():
    rng = random.Random(41)
    for _ in range(80):
        n = rng.randrange(2, 13)
        code = LinearCode(random_rank2_matrix(rng, n))
        hull = hull_dimension(code)
        assert hull == brute_hull_dimension(code)
        assert is_hermitian_lcd(code) == (hull == 0)


def test_extend_with_zero():
    ext = extend_with_zero(LinearCode(identity(2)))
    assert ext.gen == mat([[1, 0, 0], [0, 1, 0]])
    base = C(0, 0, 1, 0, 0)
    ext = extend_with_zero(base)
    assert (ext.n, ext.k, min_weight(ext)) == (4, 2, 2)
    assert has_zero_coordinate(ext)
    rng = random.Random(43)
    for _ in range(40):
        code = LinearCode(random_rank2_matrix(rng, rng.randrange(2, 8)))
        ext = extend_with_zero(code)
        assert is_hermitian_lcd(ext) == is_hermitian_lcd(code)
        assert weight_enumerator(ext) == weight_enumerator(code)


def test_has_zero_coordinate_examples():
    assert not has_zero_coordinate(C(1, 1, 1, 1, 1))
    assert not has_zero_coordinate(LinearCode(identity(2)))
    assert has_zero_coordinate(C(0, 0, 1, 0, 0, a0=1))


def test_extend_then_puncture_recovers_weight_enumerator():
    rng = random.Random(47)
    for _ in range(20):
        code = LinearCode(random_rank2_matrix(rng, rng.randrange(2, 7)))
        ext = extend_with_zero(code)
        punctured = LinearCode(Mat(tuple(r[:-1] for r in ext.gen.rows), code.n))
        assert weight_enumerator(punctured) == weight_enumerator(code)


def test_measurements_invariant_under_equivalence_maps():
    rng = random.Random(53)
    for _ in range(60):
        code = LinearCode(random_rank2_matrix(rng, rng.randrange(2, 9)))
        image = LinearCode(random_equivalent_image(rng, code.gen))
        assert min_weight(image) == min_weight(code)
        assert weight_enumerator(image) == weight_enumerator(code)
        assert hull_dimension(image) == hull_dimension(code)
        assert is_hermitian_lcd(image) == is_hermitian_lcd(code)
