import pytest

from lcd2 import gf4
from lcd2.gf4 import CONJ, ELEMENTS, INV, MUL, OMEGA, OMEGA2, ONE, SYMBOLS, ZERO

# Addition is XOR in this encoding; multiplication, conjugation and
# inversion are the tables MUL, CONJ and INV.


def test_add_examples():
    assert OMEGA ^ OMEGA == ZERO
    assert OMEGA ^ ONE == OMEGA2
    assert ZERO ^ OMEGA2 == OMEGA2


def test_mul_examples():
    assert MUL[OMEGA][OMEGA2] == ONE
    assert MUL[OMEGA][OMEGA] == OMEGA2
    assert MUL[ZERO][OMEGA] == ZERO


def test_conj_examples():
    assert CONJ[OMEGA] == OMEGA2
    assert CONJ[ONE] == ONE
    assert CONJ[ZERO] == ZERO
    for x in ELEMENTS:
        assert CONJ[CONJ[x]] == x
        assert CONJ[x] == MUL[x][x]


def test_inv_examples():
    assert INV[ONE] == ONE
    assert INV[OMEGA] == OMEGA2
    assert INV[OMEGA2] == OMEGA
    for x in gf4.NONZERO:
        assert MUL[x][INV[x]] == ONE


def test_field_axioms_exhaustive():
    for x in ELEMENTS:
        assert x ^ ZERO == x
        assert MUL[x][ONE] == x
        assert MUL[x][ZERO] == ZERO
        assert x ^ x == ZERO  # characteristic 2
        for y in ELEMENTS:
            assert x ^ y in ELEMENTS
            assert x ^ y == y ^ x
            assert MUL[x][y] == MUL[y][x]
            for z in ELEMENTS:
                assert (x ^ y) ^ z == x ^ (y ^ z)
                assert MUL[MUL[x][y]][z] == MUL[x][MUL[y][z]]
                assert MUL[x][y ^ z] == MUL[x][y] ^ MUL[x][z]


def test_cubes_of_nonzero_elements_are_one():
    for x in gf4.NONZERO:
        assert MUL[MUL[x][x]][x] == ONE


def test_defining_relation():
    # w^2 + w + 1 = 0
    assert MUL[OMEGA][OMEGA] ^ OMEGA ^ ONE == ZERO


def test_conj_is_field_automorphism():
    for x in ELEMENTS:
        for y in ELEMENTS:
            assert CONJ[x ^ y] == CONJ[x] ^ CONJ[y]
            assert CONJ[MUL[x][y]] == MUL[CONJ[x]][CONJ[y]]


def test_norm_is_zero_or_one():
    for x in ELEMENTS:
        norm = MUL[x][CONJ[x]]
        assert norm == (ONE if x != ZERO else ZERO)


def test_symbols_round_trip():
    for x in ELEMENTS:
        assert gf4.parse_element(SYMBOLS[x]) == x
    assert gf4.parse_element("W2") == OMEGA2
    assert gf4.parse_element(" w ") == OMEGA
    with pytest.raises(ValueError):
        gf4.parse_element("omega")
    with pytest.raises(ValueError):
        gf4.parse_element("2")
