"""Quaternary linear codes presented by full-rank generator matrices.

A ``LinearCode`` wraps a k x n generator matrix of rank k.  Rows that
open with the identity block I_k have rank k, so such a generator (every
``family.build_generator`` output) is accepted without elimination; any
other generator is proven by ``linalg.rank``.  The zero code is allowed
as a 0 x n matrix, since it is a subspace like any other: it has the one
codeword 0, hull dimension 0 and every coordinate zero, and only
``min_weight`` refuses it.  The weight enumerator walks one word per
scalar class {v, w*v, w2*v} of nonzero codewords, (4^k - 1)/3 words
held as the two int bit planes of ``linalg.planes`` in the basis {1, w}
of ``gf4``: addition is XOR, scaling swaps and XORs the planes, and a
weight is the bit count of their OR.  The minimum weight is the
enumerator's least positive weight, so both share this one walk.
"""

from __future__ import annotations

import itertools

from . import gf4
from ._frozen import Frozen
from .linalg import Mat, Vec, det, gram, planes, rank, scale_planes


class LinearCode(Frozen):
    """The code spanned by the rows of ``gen``, which must have rank k.

    Rank k is proven without elimination when the first k columns are the
    identity, as in every ``family.build_generator`` output; any other
    generator is reduced by ``linalg.rank``."""

    __slots__ = ("gen",)

    def __post_init__(self) -> None:
        gen, k = self.gen, self.gen.nrows
        if k > gen.ncols:
            raise ValueError(f"dimension {k} exceeds length {gen.ncols}")
        # I_k row by row is (1, then k zeros) k times, cut to k^2 entries.
        leading = b"".join(row[:k] for row in gen.rows)
        if leading != ((b"\x01" + b"\x00" * k) * k)[: k * k] and rank(gen) != k:
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
# 4^k words of length n for the list (k = 8, n = 15 takes 0.6 s), and
# (4^k - 1)/3 for the enumerator, which adds and counts bit planes, so its
# time follows the word count: at the budget, k = 9, n = 11 takes 31 ms and
# k = 2, n = 200,000 takes 2 ms; both on a 2-vCPU x86-64 machine.
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
    tally: dict[int, int] = {}
    rows = planes(c.gen)
    span = [(0, 0)]  # the span of the rows after row i, as bit planes
    for i in range(k - 1, -1, -1):
        lo, hi = rows[i]
        for l, h in span:
            w = ((lo ^ l) | (hi ^ h)).bit_count()
            tally[w] = tally.get(w, 0) + 3
        if i:
            multiples = [scale_planes(s, lo, hi) for s in gf4.NONZERO]
            span += [(l ^ a, h ^ b) for a, b in multiples for l, h in span]
    # The rows are independent, so no word of the walk is zero.
    return WeightEnumerator(((0, 1), *sorted(tally.items())))


def hull_dimension(c: LinearCode) -> int:
    """dim(C intersect C^perp_h) = k - rank of the Gram matrix."""
    return c.k - rank(gram(c.gen))


def is_hermitian_lcd(c: LinearCode) -> bool:
    """True iff det(G * conj(G)^T) != 0, i.e. the hull is trivial."""
    return det(gram(c.gen)) != 0


def extend_with_zero(c: LinearCode) -> LinearCode:
    """Append an identically-zero coordinate (length n+1, same k and d)."""
    return LinearCode(Mat([row + b"\x00" for row in c.gen.rows], c.n + 1))


def has_zero_coordinate(c: LinearCode) -> bool:
    """True iff some coordinate is zero in every codeword.

    Equivalent to the Hermitian dual having minimum weight 1 when k < n.
    """
    used = 0
    for row in c.gen.rows:
        used |= int.from_bytes(row, "little")
    return 0 in used.to_bytes(c.n, "little")
