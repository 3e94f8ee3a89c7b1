"""Dense vectors and matrices over GF(4) with the Hermitian pairing.

Vectors are sequences of field elements 0..3.  Matrices are immutable
``Mat`` values holding a tuple of rows plus an explicit column count (so
zero-row matrices keep their width); every operation returns a new
matrix.  A row is ``bytes``, one byte per element, whatever sequence of
ints it was built from.  Codes are measured on two bit planes per row:
read as one little-endian int, a row holds element j in bits 8j and
8j + 1, so masking every eighth bit gives its 1-coordinates (the b0 of
b0 + b1*w) and, shifted by one, its w-coordinates (b1).  Adding rows is
XOR on the planes and a weight is a bit count.

The Hermitian inner product of u and v is sum_i u_i * conj(v_i).  It is
conjugate-symmetric.
"""

from __future__ import annotations

from . import gf4
from ._frozen import Frozen, setfield

Vec = tuple[int, ...]


class Mat(Frozen):
    """Immutable k x n matrix over GF(4), row major."""

    __slots__ = ("rows", "ncols")

    def __init__(self, rows: Iterable[Sequence[int]], ncols: int) -> None:
        setfield(self, "rows", tuple(map(bytes, rows)))
        setfield(self, "ncols", ncols)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> bytes:
        return self.rows[i]

    def __str__(self) -> str:
        return format_matrix(self)

    def __repr__(self) -> str:
        return f"Mat(rows={tuple(map(tuple, self.rows))!r}, ncols={self.ncols!r})"


def mat(rows: Iterable[Sequence[int]], ncols: int | None = None) -> Mat:
    """Build a Mat, validating shape and entry range.

    ``ncols`` is required when ``rows`` is empty and must otherwise agree
    with the row length.
    """
    tup = tuple(tuple(r) for r in rows)
    if tup:
        width = len(tup[0])
        if any(len(r) != width for r in tup):
            raise ValueError("ragged rows in matrix")
        if ncols is not None and ncols != width:
            raise ValueError(f"ncols={ncols} does not match row length {width}")
        ncols = width
    elif ncols is None:
        raise ValueError("ncols is required for a matrix with no rows")
    for r in tup:
        for e in r:
            if not isinstance(e, int) or e not in (0, 1, 2, 3):
                raise ValueError(f"not a GF(4) element: {e!r}")
    return Mat(tup, ncols)


def planes(m: Mat) -> list[tuple[int, int]]:
    """The bit planes (1-coordinates, w-coordinates) of each row of m."""
    mask = int.from_bytes(b"\x01" * m.ncols, "little")
    out = []
    for row in m.rows:
        x = int.from_bytes(row, "little")
        out.append((x & mask, x >> 1 & mask))
    return out


def hermitian_inner(u: Vec, v: Vec) -> int:
    """(u, v)_h = sum_i u_i * conj(v_i)."""
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    acc = 0
    for x, y in zip(u, v):
        acc ^= gf4.MUL[x][gf4.CONJ[y]]
    return acc


def conj_transpose(m: Mat) -> Mat:
    """Entrywise conjugate of the transpose; result[i][j] = conj(m[j][i])."""
    return Mat(
        tuple(tuple(gf4.CONJ[m.rows[i][j]] for i in range(m.nrows)) for j in range(m.ncols)),
        m.nrows,
    )


def gram(m: Mat) -> Mat:
    """Hermitian Gram matrix G * conj(G)^T (k x k), from the bit planes.

    With u = u0 + u1*w and conj(v) = (v0 ^ v1) + v1*w, the product
    u*conj(v) has 1-part u0(v0 ^ v1) + u1v1 and w-part u0v1 + u1v0 (using
    w^2 = w + 1), so each part of an entry is the parity of a bit count.
    """
    rows = planes(m)
    return Mat(
        [
            bytes(
                ((ul & (vl ^ vh) ^ uh & vh).bit_count() & 1)
                | ((ul & vh ^ uh & vl).bit_count() & 1) << 1
                for vl, vh in rows
            )
            for ul, uh in rows
        ],
        m.nrows,
    )


def scale_planes(s: int, lo: int, hi: int) -> tuple[int, int]:
    """The planes of s times the row with planes (lo, hi), s nonzero:
    w*(b0 + b1*w) is b1 + (b0 + b1)*w, and w2*(b0 + b1*w) is
    (b0 + b1) + b0*w."""
    if s == 1:
        return lo, hi
    return (hi, lo ^ hi) if s == 2 else (lo ^ hi, lo)


def _eliminate(m: Mat) -> tuple[int, int]:
    """Forward elimination on the bit planes: the number of pivots and
    their product.

    Pivots are chosen as the first nonzero entry scanning columns left to
    right, rows top to bottom, so the result is identical on every
    platform.  The product is taken over the pivot values before each is
    scaled to 1.  Each step is a few operations per row on whole planes.
    """
    rows = planes(m)
    pivots = 0
    product = 1
    for r in range(len(rows)):
        rest = 0
        for lo, hi in rows[r:]:
            rest |= lo | hi
        if not rest:
            break
        bit = rest & -rest  # bit 8c of the first column c with a nonzero entry
        p = r
        while not (rows[p][0] & bit or rows[p][1] & bit):
            p += 1
        lo, hi = rows[p]
        rows[p] = rows[r]
        pivot = (1 if lo & bit else 0) | (2 if hi & bit else 0)
        if pivot != 1:
            product = gf4.MUL[product][pivot]
            lo, hi = scale_planes(gf4.INV[pivot], lo, hi)
        rows[r] = lo, hi
        for i in range(r + 1, len(rows)):
            l, h = rows[i]
            if l & bit or h & bit:
                fl, fh = scale_planes((1 if l & bit else 0) | (2 if h & bit else 0), lo, hi)
                rows[i] = l ^ fl, h ^ fh
        pivots += 1
    return pivots, product


def rank(m: Mat) -> int:
    return _eliminate(m)[0]


def det(m: Mat) -> int:
    """Determinant of a square matrix, read off its elimination.

    In characteristic 2 row swaps and row additions keep the
    determinant, and scaling a row by 1/p divides it by p, so a full set
    of pivots gives the product of the pivot values; fewer give 0.
    """
    if m.nrows != m.ncols:
        raise ValueError(f"determinant of a non-square {m.nrows}x{m.ncols} matrix")
    pivots, product = _eliminate(m)
    return product if pivots == m.nrows else 0


def format_matrix(m: Mat) -> str:
    """Rows joined by ';', entries by ',': e.g. "1,0,1;0,1,w"."""
    return ";".join(",".join(map(gf4.SYMBOLS.__getitem__, row)) for row in m.rows)


_ELEMENTS = {symbol: e for e, symbol in enumerate(gf4.SYMBOLS)}


def parse_matrix(text: str) -> Mat:
    """Inverse of format_matrix; raises ValueError on malformed input.

    A row of exact symbols maps through one dict; any other row goes
    token by token through ``gf4.parse_element``, which also reads upper
    case and surrounding blanks, and names the token it refuses.
    """
    rows = []
    for part in text.strip().split(";"):
        tokens = part.split(",")
        try:
            rows.append(bytes(map(_ELEMENTS.__getitem__, tokens)))
        except KeyError:
            rows.append(bytes(map(gf4.parse_element, tokens)))
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError("ragged rows in matrix")
    return Mat(rows, width)
