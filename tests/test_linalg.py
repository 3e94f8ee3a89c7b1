import itertools
import random

import pytest

from helpers import brute_hull_dimension, brute_inner, matmul, random_full_rank
from lcd2 import gf4
from lcd2.code import LinearCode, hull_dimension
from lcd2.linalg import (
    Mat,
    conj_transpose,
    det,
    format_matrix,
    gram,
    hermitian_inner,
    identity,
    mat,
    parse_matrix,
    rank,
)

W, W2 = gf4.OMEGA, gf4.OMEGA2


def test_hermitian_inner_examples():
    cases = [
        (((1, 0), (0, 1)), 0),
        (((W, 1), (W, 1)), 0),
        (((1, W), (1, 1)), W2),
    ]
    for (u, v), expected in cases:
        assert brute_inner(u, v) == expected  # oracle confirms the frozen value
        assert hermitian_inner(u, v) == expected


def test_hermitian_inner_conjugate_symmetry():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(6)
        u = tuple(rng.randrange(4) for _ in range(n))
        v = tuple(rng.randrange(4) for _ in range(n))
        assert hermitian_inner(v, u) == gf4.CONJ[hermitian_inner(u, v)]
        assert hermitian_inner(u, v) == brute_inner(u, v)


def test_hermitian_inner_length_mismatch():
    with pytest.raises(ValueError):
        hermitian_inner((1, 0), (1,))


def test_conj_transpose_examples():
    assert conj_transpose(identity(2)) == identity(2)
    assert conj_transpose(mat([[W]])) == mat([[W2]])
    m = mat([[1, W, 0], [0, 1, W2]])
    assert conj_transpose(m) == mat([[1, 0], [W2, 1], [0, W]])
    # applying twice recovers the original matrix
    assert conj_transpose(conj_transpose(m)) == m


def test_gram_examples():
    assert gram(identity(2)) == identity(2)
    g = mat([[1, 1, 1], [1, 0, 0]])
    assert gram(g) == mat([[1, 1], [1, 1]])
    # the 7-column generator with all five column types once each
    g = parse_matrix("1,0,0,1,1,1,1;0,1,1,0,1,w,w2")
    assert gram(g) == identity(2)
    for i in range(2):
        for j in range(2):
            assert gram(g)[i][j] == hermitian_inner(g.rows[i], g.rows[j])


def test_gram_monomial_invariance():
    rng = random.Random(11)
    for _ in range(100):
        k, n = rng.randrange(1, 4), rng.randrange(1, 7)
        m = mat([[rng.randrange(4) for _ in range(n)] for _ in range(k)])
        perm = list(range(n))
        rng.shuffle(perm)
        scales = [rng.choice((1, 2, 3)) for _ in range(n)]
        scrambled = mat(
            [[gf4.MUL[scales[j]][row[perm[j]]] for j in range(n)] for row in m.rows]
        )
        assert gram(scrambled) == gram(m)


def brute_rank(m: Mat) -> int:
    """log4 of the row-span size, counted by explicit enumeration."""
    span = set()
    for coeffs in itertools.product(range(4), repeat=m.nrows):
        v = [0] * m.ncols
        for c, row in zip(coeffs, m.rows):
            for j, e in enumerate(row):
                v[j] ^= gf4.MUL[c][e]
        span.add(tuple(v))
    r = 0
    while 4**r < len(span):
        r += 1
    assert 4**r == len(span)
    return r


def test_rank_examples():
    assert rank(identity(2)) == 2
    assert rank(mat([[1, W], [W, W2]])) == 1  # second row is w times the first
    assert rank(mat([[0] * 5, [0] * 5])) == 0


def test_rank_against_span_enumeration():
    rng = random.Random(13)
    for _ in range(150):
        k, n = rng.randrange(1, 4), rng.randrange(1, 6)
        m = mat([[rng.randrange(4) for _ in range(n)] for _ in range(k)])
        assert rank(m) == brute_rank(m)
        assert rank(m) == rank(conj_transpose(m))


def test_det_examples():
    assert det(identity(2)) == 1
    assert det(Mat((), 0)) == 1
    assert det(mat([[1, 1], [1, 1]])) == 0
    assert det(mat([[1, W], [W2, 1]])) == 0  # 1*1 + w*w2 = 0
    with pytest.raises(ValueError):
        det(mat([[1, 0, 0], [0, 1, 0]]))


def test_det_2x2_cofactor_exhaustive():
    for a, b, c, d in itertools.product(range(4), repeat=4):
        m = mat([[a, b], [c, d]])
        cofactor = gf4.MUL[a][d] ^ gf4.MUL[b][c]
        assert det(m) == cofactor


def test_det_multiplicative_on_random_3x3():
    rng = random.Random(17)
    for k in range(1, 5):
        for _ in range(60):
            a = mat([[rng.randrange(4) for _ in range(k)] for _ in range(k)])
            b = mat([[rng.randrange(4) for _ in range(k)] for _ in range(k)])
            assert det(matmul(a, b)) == gf4.MUL[det(a)][det(b)], (a, b)


def test_matrix_text_round_trip():
    m = parse_matrix("1,0,1;0,1,w")
    assert m == mat([[1, 0, 1], [0, 1, W]])
    assert parse_matrix(format_matrix(m)) == m
    assert format_matrix(mat([[0, W2]])) == "0,w2"
    with pytest.raises(ValueError):
        parse_matrix("1,0;1")
    with pytest.raises(ValueError):
        parse_matrix("1,x")


def test_rows_are_bytes_whatever_sequence_of_ints_builds_them():
    rows = ((1, 0, 2, 3), (0, 3, 1, 0))
    built = [
        Mat(rows, 4),
        Mat([list(r) for r in rows], 4),
        Mat([bytes(r) for r in rows], 4),
        mat(rows),
        mat([bytearray(r) for r in rows]),
        parse_matrix("1,0,w,w2;0,w2,1,0"),
    ]
    for m in built:
        assert m == built[0] and hash(m) == hash(built[0])
        assert repr(m) == "Mat(rows=((1, 0, 2, 3), (0, 3, 1, 0)), ncols=4)"
        assert all(type(row) is bytes for row in m.rows)
        assert m[1] == bytes((0, 3, 1, 0)) and m.column(2) == (2, 1)
    assert Mat([], 4) == Mat((), 4) == mat([], ncols=4)
    assert repr(Mat([], 4)) == "Mat(rows=(), ncols=4)"


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[1, 4]], "not a GF(4) element: 4"),
        ([[-1]], "not a GF(4) element: -1"),
        ([[256, 0]], "not a GF(4) element: 256"),
        ([["x"]], "not a GF(4) element: 'x'"),
        ([[" w3 "]], "not a GF(4) element: ' w3 '"),
        ([[1, 0], [1]], "ragged rows in matrix"),
    ],
)
def test_mat_refuses_what_it_refused_with_the_same_message(rows, message):
    with pytest.raises(ValueError) as exc:
        mat(rows)
    assert str(exc.value) == message


@pytest.mark.parametrize("entry", [1.0, 0.0, 3.0, 1 + 0j])
def test_mat_refuses_a_non_integer_equal_to_an_element(entry):
    with pytest.raises(ValueError) as exc:
        mat([[entry, 0]])
    assert str(exc.value) == f"not a GF(4) element: {entry!r}"


def test_mat_reads_bools_as_0_and_1():
    assert mat([[True, False], [False, True]]) == identity(2)


def test_mat_refuses_a_width_other_than_ncols():
    with pytest.raises(ValueError) as exc:
        mat([[1, 0]], ncols=3)
    assert str(exc.value) == "ncols=3 does not match row length 2"
    with pytest.raises(ValueError) as exc:
        mat([])
    assert str(exc.value) == "ncols is required for a matrix with no rows"


@pytest.mark.parametrize(
    "text, message",
    [
        ("1,4", "not a GF(4) element: '4'"),
        ("-1", "not a GF(4) element: '-1'"),
        ("256,0", "not a GF(4) element: '256'"),
        ("x", "not a GF(4) element: 'x'"),
        (" w3 ", "not a GF(4) element: 'w3'"),
        ("1, w3 ,0", "not a GF(4) element: ' w3 '"),
        ("1,,0", "not a GF(4) element: ''"),
        ("1,0;1", "ragged rows in matrix"),
        ("1,0;x;1", "not a GF(4) element: 'x'"),
    ],
)
def test_parse_matrix_refuses_what_it_refused_with_the_same_message(text, message):
    with pytest.raises(ValueError) as exc:
        parse_matrix(text)
    assert str(exc.value) == message


def test_parse_matrix_reads_upper_case_and_blanks_around_tokens():
    assert parse_matrix(" W2, w ;1 ,0\n") == mat([[W2, W], [1, 0]])


def _with_zero_columns(rng, gen, zeros):
    """gen with ``zeros`` all-zero columns inserted at random positions."""
    cols = gen.columns() + [(0,) * gen.nrows] * zeros
    rng.shuffle(cols)
    return mat(list(zip(*cols)))


def test_plane_gram_and_hull_agree_with_entrywise_products_and_brute_force():
    # A column takes 8 bits of a plane, so 8 and 9 columns sit on either
    # side of a 64-bit word, and 63..70 columns span eight or nine.  A code
    # whose columns come in equal pairs is self-orthogonal (u*conj(u) + the
    # same is 0 in characteristic 2), so doubling gives hull dimension k.
    rng = random.Random(31)
    hulls = set()
    for k in range(1, 7):
        for n in (k, 8, 9, 63, 64, 65, 70):
            if n < k:
                continue
            gen = random_full_rank(rng, k, k + rng.randrange((n - k) // 2 + 1))
            if rng.randrange(3) == 0 and 2 * gen.ncols <= n:
                gen = mat([row + row for row in gen.rows])
            gen = _with_zero_columns(rng, gen, n - gen.ncols)
            g = gram(gen)
            assert g.ncols == k and g.rows == tuple(
                bytes(hermitian_inner(u, v) for v in gen.rows) for u in gen.rows
            ), gen
            code = LinearCode(gen)
            hulls.add(hull_dimension(code))
            assert hull_dimension(code) == k - rank(g)
            assert hull_dimension(code) == brute_hull_dimension(code), gen
    assert len(hulls) >= 3
