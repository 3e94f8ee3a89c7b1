"""Quaternary linear codes presented by full-rank generator matrices.

A ``LinearCode`` wraps a k x n generator matrix of rank k.  The zero
code is allowed as a 0 x n matrix so that the Hermitian dual is total
and rank-nullity stays testable.  For k = 2 the fifteen nonzero
codewords split into five scalar classes of size three, one per
projective message class, which gives an O(n) weight enumerator; any
other dimension falls back to full codeword enumeration.  The minimum
weight is the enumerator's least positive weight, so both share one
codeword walk.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import gf4
from .linalg import Mat, Vec, det, gram, kernel_basis, rank, vec_add, vec_scale


@dataclass(frozen=True)
class LinearCode:
    gen: Mat

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


@dataclass(frozen=True)
class WeightEnumerator:
    """Codeword counts by Hamming weight, stored as sorted (w, A_w) pairs."""

    counts: tuple[tuple[int, int], ...]

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


def hamming_weight(v: Vec) -> int:
    return len(v) - v.count(0)


def _projective_reps(c: LinearCode) -> list[Vec]:
    """One codeword per scalar class of nonzero messages (k = 2 only)."""
    r1, r2 = c.gen.rows
    return [
        r1,
        r2,
        vec_add(r1, r2),
        vec_add(r1, vec_scale(gf4.OMEGA, r2)),
        vec_add(r1, vec_scale(gf4.OMEGA2, r2)),
    ]


# Largest walk ``codewords`` accepts, in symbols (4^k words of length n):
# k = 8, n = 15 takes 1.2 s in ``lcd2 check`` on a 2-vCPU x86-64 machine.
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
                word = vec_add(word, vec_scale(coeff, row))
        out.append(word)
    return out


def min_weight(c: LinearCode) -> int:
    """Minimum Hamming weight over nonzero codewords."""
    if c.k == 0:
        raise ValueError("the zero code has no minimum weight")
    return weight_enumerator(c).min_positive_weight()


def weight_enumerator(c: LinearCode) -> WeightEnumerator:
    counts: dict[int, int] = {0: 1}
    if c.k == 0:
        return WeightEnumerator.from_dict(counts)
    if c.k == 2:
        for v in _projective_reps(c):
            w = hamming_weight(v)
            counts[w] = counts.get(w, 0) + 3
        return WeightEnumerator.from_dict(counts)
    counts = {}
    for v in codewords(c):
        w = hamming_weight(v)
        counts[w] = counts.get(w, 0) + 1
    return WeightEnumerator.from_dict(counts)


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
