"""Quaternary linear codes presented by full-rank generator matrices.

A ``LinearCode`` wraps a k x n generator matrix of rank k.  The zero
code is allowed as a 0 x n matrix so that the Hermitian dual is total
and rank-nullity stays testable.  The weight enumerator walks one word
per scalar class {v, w*v, w2*v} of nonzero codewords, (4^k - 1)/3 words
held as two int bit planes in the basis {1, w} of ``gf4``: addition is
XOR, scaling swaps and XORs the planes, and a weight is the bit count
of their OR.  The minimum weight is the enumerator's least positive
weight, so both share this one walk.
"""

from __future__ import annotations

import itertools
from collections import Counter

from . import gf4
from ._frozen import Frozen, setfield
from .linalg import Mat, Vec, det, gram, kernel_basis, rank


class LinearCode(Frozen):
    __slots__ = ("gen",)

    def __init__(self, gen: Mat) -> None:
        setfield(self, "gen", gen)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.gen.nrows > self.gen.ncols:
            raise ValueError(f"dimension {self.gen.nrows} exceeds length {self.gen.ncols}")
        if rank(self.gen) != self.gen.nrows:
            raise ValueError("generator matrix is rank deficient")

    @property
    def n(self) -> int:
        return self.gen.ncols

    @property
    def k(self) -> int:
        return self.gen.nrows


class WeightEnumerator(Frozen):
    """Codeword counts by Hamming weight, stored as sorted (w, A_w) pairs."""

    __slots__ = ("counts",)

    def __init__(self, counts: tuple[tuple[int, int], ...]) -> None:
        setfield(self, "counts", counts)

    @classmethod
    def from_dict(cls, d: dict[int, int]) -> "WeightEnumerator":
        return cls(tuple(sorted((w, c) for w, c in d.items() if c)))

    def as_dict(self) -> dict[int, int]:
        return dict(self.counts)

    def total(self) -> int:
        return sum(c for _, c in self.counts)

    def min_positive_weight(self) -> int:
        positive = [w for w, _ in self.counts if w > 0]
        if not positive:
            raise ValueError("no nonzero codewords")
        return min(positive)

    def poly_string(self) -> str:
        """Polynomial form "1+6y^5+9y^6" with terms in weight order."""
        parts = []
        for w, c in self.counts:
            parts.append(str(c) if w == 0 else f"{c}y^{w}")
        return "+".join(parts) if parts else "0"

    def __str__(self) -> str:
        return self.poly_string()


# Largest walk ``codewords`` and ``weight_enumerator`` accept, in symbols:
# 4^k words of length n for the list (k = 8, n = 15 takes 0.75 s), and
# (4^k - 1)/3 for the enumerator, whose slowest admitted ``lcd2 check``,
# k = 9, n = 11, takes 0.07 s; both on a 2-vCPU x86-64 machine.
CODEWORD_BUDGET = 1_000_000


def codewords(c: LinearCode) -> list[Vec]:
    """All 4^k codewords, ordered by lexicographic message vectors."""
    n, k = c.n, c.k
    if 4**k * n > CODEWORD_BUDGET:
        raise ValueError(f"4^{k} codewords of length {n} exceed the budget of {CODEWORD_BUDGET}")
    out = []
    for msg in itertools.product(gf4.ELEMENTS, repeat=k):
        word = (0,) * n
        for coeff, row in zip(msg, c.gen.rows):
            if coeff:
                scale = gf4.MUL[coeff]
                word = tuple(x ^ scale[e] for x, e in zip(word, row))
        out.append(word)
    return out


def min_weight(c: LinearCode) -> int:
    """Minimum Hamming weight over nonzero codewords."""
    if c.k == 0:
        raise ValueError("the zero code has no minimum weight")
    return weight_enumerator(c).min_positive_weight()


# Each GF(4) element 0..3 is the bit pair (b0, b1) of b0 + b1*w, so a row
# is two bit planes: its 1-coordinates and its w-coordinates.
_LO_PLANE = bytes.maketrans(bytes(range(4)), b"0101")
_HI_PLANE = bytes.maketrans(bytes(range(4)), b"0011")


def weight_enumerator(c: LinearCode) -> WeightEnumerator:
    """Codeword counts by weight, from one word per scalar class: row i
    plus each word of the span of the later rows, counted three times.
    Raises ValueError when (4^k - 1)/3 words of length n exceed
    ``CODEWORD_BUDGET``."""
    n, k = c.n, c.k
    words = (4**k - 1) // 3
    if words * n > CODEWORD_BUDGET:
        raise ValueError(
            f"{words} scalar classes of codewords of length {n} "
            f"exceed the budget of {CODEWORD_BUDGET}"
        )
    classes: Counter[int] = Counter()
    los, his = [0], [0]  # the span of the rows after row i, as bit planes
    for i in range(k - 1, -1, -1):
        row = bytes(c.gen.rows[i])
        lo, hi = int(row.translate(_LO_PLANE), 2), int(row.translate(_HI_PLANE), 2)
        classes.update(((lo ^ l) | (hi ^ h)).bit_count() for l, h in zip(los, his))
        if i:
            lohi = lo ^ hi
            # 1*row = (lo, hi), w*row = (hi, lo ^ hi), w2*row = (lo ^ hi, lo).
            los = los + [lo ^ l for l in los] + [hi ^ l for l in los] + [lohi ^ l for l in los]
            his = his + [hi ^ h for h in his] + [lohi ^ h for h in his] + [lo ^ h for h in his]
    return WeightEnumerator.from_dict({0: 1, **{w: 3 * a for w, a in classes.items()}})


def hermitian_dual(c: LinearCode) -> LinearCode:
    """The (n-k)-dimensional code of vectors Hermitian-orthogonal to c."""
    return LinearCode(kernel_basis(c.gen))


def hull_dimension(c: LinearCode) -> int:
    """dim(C intersect C^perp_h) = k - rank of the Gram matrix."""
    return c.k - rank(gram(c.gen))


def is_hermitian_lcd(c: LinearCode) -> bool:
    """True iff det(G * conj(G)^T) != 0, i.e. the hull is trivial."""
    return det(gram(c.gen)) != 0


def extend_with_zero(c: LinearCode) -> LinearCode:
    """Append an identically-zero coordinate (length n+1, same k and d)."""
    rows = tuple(row + (0,) for row in c.gen.rows)
    return LinearCode(Mat(rows, c.n + 1))


def has_zero_coordinate(c: LinearCode) -> bool:
    """True iff some coordinate is zero in every codeword.

    Equivalent to the Hermitian dual having minimum weight 1 when k < n.
    """
    if c.n == 0:
        return False
    return any(all(row[j] == 0 for row in c.gen.rows) for j in range(c.n))
