"""Dense vectors and matrices over GF(4) with the Hermitian pairing.

Vectors are plain tuples of field elements.  Matrices are immutable
``Mat`` values holding a tuple of row tuples plus an explicit column
count (so zero-row matrices keep their width); every operation returns a
new matrix.

The Hermitian inner product of u and v is sum_i u_i * conj(v_i).  It is
conjugate-symmetric, and a vector x is Hermitian-orthogonal to all rows
of G exactly when x lies in the ordinary right null space of the
entrywise conjugate of G; ``kernel_basis`` relies on that reduction.
"""

from __future__ import annotations

from . import gf4
from ._frozen import Frozen, setfield

Vec = tuple[int, ...]


class Mat(Frozen):
    """Immutable k x n matrix over GF(4), row major."""

    __slots__ = ("rows", "ncols")

    def __init__(self, rows: tuple[Vec, ...], ncols: int) -> None:
        setfield(self, "rows", rows)
        setfield(self, "ncols", ncols)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> Vec:
        return self.rows[i]

    def __iter__(self) -> Iterator[Vec]:
        return iter(self.rows)

    def column(self, j: int) -> Vec:
        return tuple(row[j] for row in self.rows)

    def columns(self) -> list[Vec]:
        return [self.column(j) for j in range(self.ncols)]

    def __str__(self) -> str:
        return format_matrix(self)


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
            if e not in (0, 1, 2, 3):
                raise ValueError(f"not a GF(4) element: {e!r}")
    return Mat(tup, ncols)


def identity(k: int) -> Mat:
    return Mat(tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k)), k)


def hermitian_inner(u: Vec, v: Vec) -> int:
    """(u, v)_h = sum_i u_i * conj(v_i)."""
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    acc = 0
    for x, y in zip(u, v):
        acc ^= gf4.MUL[x][gf4.CONJ[y]]
    return acc


def conj_entries(m: Mat) -> Mat:
    return Mat(tuple(tuple(gf4.CONJ[e] for e in row) for row in m.rows), m.ncols)


def conj_transpose(m: Mat) -> Mat:
    """Entrywise conjugate of the transpose; result[i][j] = conj(m[j][i])."""
    return Mat(
        tuple(tuple(gf4.CONJ[m.rows[i][j]] for i in range(m.nrows)) for j in range(m.ncols)),
        m.nrows,
    )


def gram(m: Mat) -> Mat:
    """Hermitian Gram matrix G * conj(G)^T (k x k)."""
    k = m.nrows
    return Mat(
        tuple(
            tuple(hermitian_inner(m.rows[i], m.rows[j]) for j in range(k))
            for i in range(k)
        ),
        k,
    )


def _eliminate(m: Mat) -> tuple[list[list[int]], list[int], int]:
    """Gauss-Jordan elimination: reduced rows, pivot columns, pivot product.

    Pivots are chosen as the first nonzero entry scanning columns left to
    right, rows top to bottom, so the result is identical on every
    platform.  The product is taken over the pivot values before each is
    scaled to 1.
    """
    rows = [list(r) for r in m.rows]
    pivots: list[int] = []
    product = 1
    r = 0
    for c in range(m.ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r][c]
        product = gf4.MUL[product][pivot]
        if pivot != 1:
            scale = gf4.MUL[gf4.INV[pivot]]
            rows[r] = [scale[e] for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                frow = gf4.MUL[f]
                rows[i] = [e ^ frow[p] for e, p in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots, product


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and its pivot columns."""
    rows, pivots, _ = _eliminate(m)
    return Mat(tuple(tuple(row) for row in rows), m.ncols), tuple(pivots)


def rank(m: Mat) -> int:
    return len(_eliminate(m)[1])


def det(m: Mat) -> int:
    """Determinant of a square matrix, read off its elimination.

    In characteristic 2 row swaps and row additions keep the
    determinant, and scaling a row by 1/p divides it by p, so a full set
    of pivots gives the product of the pivot values; fewer give 0.
    """
    if m.nrows != m.ncols:
        raise ValueError(f"determinant of a non-square {m.nrows}x{m.ncols} matrix")
    _, pivots, product = _eliminate(m)
    return product if len(pivots) == m.nrows else 0


def kernel_basis(m: Mat) -> Mat:
    """Basis of { x : (x, g)_h = 0 for every row g of m }, in RREF.

    Solving sum_i x_i * conj(g_i) = 0 means taking the ordinary right
    null space of the entrywise conjugate of m.  The returned matrix has
    n - rank(m) rows of length n.
    """
    n = m.ncols
    reduced, pivots = rref(conj_entries(m))
    pivot_set = set(pivots)
    free_cols = [c for c in range(n) if c not in pivot_set]
    basis = []
    for f in free_cols:
        x = [0] * n
        x[f] = 1
        for i, p in enumerate(pivots):
            x[p] = reduced.rows[i][f]
        basis.append(tuple(x))
    out, _ = rref(Mat(tuple(basis), n))
    return out


def format_matrix(m: Mat) -> str:
    """Rows joined by ';', entries by ',': e.g. "1,0,1;0,1,w"."""
    return ";".join(",".join(gf4.format_element(e) for e in row) for row in m.rows)


def parse_matrix(text: str) -> Mat:
    """Inverse of format_matrix; raises ValueError on malformed input."""
    rows = []
    for part in text.strip().split(";"):
        entries = [gf4.parse_element(tok) for tok in part.split(",")]
        rows.append(tuple(entries))
    return mat(rows)
