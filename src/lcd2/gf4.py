"""Arithmetic in GF(4), the field with four elements.

Elements are encoded as the integers 0..3 standing for {0, 1, w, w2},
where w satisfies w^2 + w + 1 = 0 and w2 = w^2 = w + 1.  In the basis
{1, w} this encoding is the pair of bit coordinates, so addition is
bitwise XOR; multiplication, conjugation and inversion are the
read-only lookup tables ``MUL``, ``CONJ`` and ``INV``, indexed by
element.
"""

from __future__ import annotations

ZERO = 0
ONE = 1
OMEGA = 2   # w
OMEGA2 = 3  # w2 = w + 1

ELEMENTS = (ZERO, ONE, OMEGA, OMEGA2)
NONZERO = (ONE, OMEGA, OMEGA2)

# MUL[x][y]; nonzero elements form a cyclic group of order 3, so x^3 = 1.
MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)

# Frobenius map x -> x^2: swaps w and w2, fixes 0 and 1.
CONJ = (0, 1, 3, 2)

# INV[x] = x^2 is the inverse of nonzero x; INV[0] is a placeholder that
# no reader indexes, since 0 has no inverse.
INV = (0, 1, 3, 2)

SYMBOLS = ("0", "1", "w", "w2")


def parse_element(text: str) -> int:
    """Parse "0" | "1" | "w" | "w2" (case-insensitive) into an element."""
    t = text.strip().lower()
    try:
        return SYMBOLS.index(t)
    except ValueError:
        raise ValueError(f"not a GF(4) element: {text!r}") from None
