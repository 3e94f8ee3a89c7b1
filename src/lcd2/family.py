"""The two-row parametric construction and its admissibility calculus.

Every [n, 2] code is equivalent to a code C(a1, .., a5) generated by

    ( 1 0 | 0 .. 0 | 0 .. 0 | 1 .. 1 | 1 .. 1 | 1  .. 1  | 1  .. 1  )
    ( 0 1 | 0 .. 0 | 1 .. 1 | 0 .. 0 | 1 .. 1 | w  .. w  | w2 .. w2 )
            a0        a1        a2        a3       a4         a5

with column-block multiplicities a0..a5, n = 2 + sum(a_i).  With the
normalisation that the first row has minimum weight d, i.e.

    1 + a2 + a3 + a4 + a5 = d,

the code is Hermitian LCD iff, in the coordinates b_i = (n - d) - a_i,
b1 = 1, b2 >= 1, b3, b4, b5 >= 0 and a parity rule on b3, b4, b5 and d
hold.  Then b2 = delta + 1 - (b3 + b4 + b5) for the slack
delta = 4n - 5d, so the distance-optimal codes lie in the window
0 <= b3 <= b4, b5 with b3 + b4 + b5 <= delta (at most 6 at d = dmax(n)).
The window depends on n only through delta, which fixes the parity of d
too, so ``_optimal_entries`` reads it from the b-window table
(``_b_window``: each of the five slacks walked once, its cells in
tuple order) and shifts it by t = n - d; ``family_catalog`` is the known
closed-form answer (49 one-parameter families in m = n div 5), kept as
data so the two can be cross-validated.  ``CLASSIFICATION``, next to the
catalog's offsets, is the paper's classification written once: per
residue of n, each optimal class's chain of catalog rows, its designated
row and that row's weight enumerator form.  ``classify`` resolves it to
catalog labels once, at import, beside its per-residue tables, labels
classes by that resolution, and ``verify`` checks it.
"""

from __future__ import annotations

# ``lcd2.Mat`` imports ``linalg`` with the first generator built, so that the
# census and classify commands never load it, and is an attribute lookup
# after that; an import statement in ``build_generator`` would cost about
# 0.45 us a call, a fifth of a small generator (2.1 us).
import lcd2

from ._frozen import Frozen


class ATuple(Frozen, defaults={"a0": 0}):
    """Column multiplicities (a1..a5) of the construction, plus optional a0."""

    __slots__ = ("a1", "a2", "a3", "a4", "a5", "a0")

    def __post_init__(self) -> None:
        if min(self.a1, self.a2, self.a3, self.a4, self.a5, self.a0) < 0:
            raise ValueError(f"negative multiplicity in {self!r}")

    @property
    def entries(self) -> tuple[int, int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4, self.a5)

    @property
    def n(self) -> int:
        return 2 + self.a0 + sum(self.entries)


class BTuple(Frozen):
    """Image of an ATuple under b_i = (n - d) - a_i, with its slack delta."""

    __slots__ = ("b1", "b2", "b3", "b4", "b5", "delta", "n", "d")

    @property
    def entries(self) -> tuple[int, int, int, int, int]:
        return (self.b1, self.b2, self.b3, self.b4, self.b5)


# Longest generator ``build_generator`` accepts: length 10^6 takes 0.25 s
# and 30 MB peak RSS in ``lcd2 construct`` on a 2-vCPU x86-64 machine.
GENERATOR_BUDGET = 1_000_000


def build_generator(a: ATuple) -> Mat:
    """Generator matrix of C(a): identity pair then the six column blocks."""
    if a.n > GENERATOR_BUDGET:
        raise ValueError(f"length {a.n} exceeds the generator budget of {GENERATOR_BUDGET}")
    top = b"\x01\x00" + b"\x00" * (a.a0 + a.a1) + b"\x01" * (a.a2 + a.a3 + a.a4 + a.a5)
    bot = (
        b"\x00\x01" + b"\x00" * a.a0 + b"\x01" * a.a1 + b"\x00" * a.a2
        + b"\x01" * a.a3 + b"\x02" * a.a4 + b"\x03" * a.a5
    )
    return lcd2.Mat((top, bot), len(top))


def dmax(n: int) -> int:
    """Largest minimum weight of a Hermitian LCD [n, 2] code.

    floor(4n/5) when n = 1, 2, 3 (mod 5), one less otherwise; attained
    for every n >= 2.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2 (no [n, 2] code exists for n = {n})")
    base = 4 * n // 5
    return base if n % 5 in (1, 2, 3) else base - 1


def delta(n: int, d: int) -> int:
    """Slack 4n - 5d; equals {5, 4, 3, 2, 6} at d = dmax(n) by residue of n."""
    return 4 * n - 5 * d


def a_to_b(a: ATuple, n: int, d: int) -> BTuple:
    if a.a0 != 0:
        raise ValueError("b-coordinates are defined for a0 = 0")
    if a.n != n:
        raise ValueError(f"inconsistent length: tuple gives n = {a.n}, got {n}")
    t = n - d
    return BTuple(*(t - ai for ai in a.entries), delta(n, d), n, d)


def b_to_a(b: BTuple) -> ATuple:
    t = b.n - b.d
    return ATuple(*(t - bi for bi in b.entries))


def _require_reduced(a: ATuple, d: int) -> None:
    if a.a0 != 0:
        raise ValueError(f"precondition violated: a0 = {a.a0}, expected 0")
    if 1 + a.a2 + a.a3 + a.a4 + a.a5 != d:
        raise ValueError(
            f"precondition violated: 1 + a2 + a3 + a4 + a5 = "
            f"{1 + a.a2 + a.a3 + a.a4 + a.a5}, expected d = {d}"
        )


def _parity_condition(b3: int, b4: int, b5: int, d: int) -> bool:
    """Parity part of the LCD test in b-coordinates, for minimum weight d."""
    prods = b3 * b4 + b4 * b5 + b5 * b3
    if d % 2 == 0:
        return (b3 + b4 + b5 + prods) % 2 != 0
    return prods % 2 != 0


def check_lcd_conditions_a(a: ATuple, n: int, d: int) -> bool:
    """LCD test for a reduced tuple of an [n, 2, d] code: the b-side test
    on b_i = (n - d) - a_i.

    Requires a0 = 0, the first row to realise the minimum weight
    (1 + a2 + a3 + a4 + a5 = d) and a.n = n; violations raise ValueError.
    The test matches the Gram determinant exactly when d really is the
    minimum weight of the constructed code of length n.
    """
    _require_reduced(a, d)
    return check_lcd_conditions_b(a_to_b(a, n, d))


def check_lcd_conditions_b(b: BTuple) -> bool:
    """The LCD test in b-coordinates: b1 = 1, b2 >= 1, b3, b4, b5 >= 0 and
    the parity rule for minimum weight b.d."""
    return (
        b.b1 == 1
        and b.b2 >= 1
        and min(b.b3, b.b4, b.b5) >= 0
        and _parity_condition(b.b3, b.b4, b.b5, b.d)
    )


def enumerate_optimal(n: int) -> list[ATuple]:
    """All reduced parameter tuples of optimal Hermitian LCD [n, 2] codes,
    in ascending lexicographic order on (a1, .., a5): ``_optimal_entries``
    as ``ATuple``s."""
    return [ATuple(*entries) for entries in _optimal_entries(n)]


def _optimal_entries(n: int) -> list[tuple[int, int, int, int, int]]:
    """The entries (a1, .., a5) of ``enumerate_optimal(n)``, sorted.

    Reads the window rows of ``_b_window`` for delta = 4n - 5d at
    d = dmax(n) and keeps the tuples whose a-coordinates t - b_i,
    t = n - d, are nonnegative: the rows whose largest b is at most t.
    """
    d = dmax(n)
    t = n - d
    return [
        (t - 1, t - b2, t - b3, t - b4, t - b5)
        for b2, b3, b4, b5, top in _b_window(delta(n, d), d)
        if top <= t
    ]


# The rows of ``_b_window`` by slack dl.  4n - 5d = d (mod 2), so dl fixes the
# parity of d, the only part of d the parity condition reads; at d = dmax(n),
# dl is 5, 4, 3, 2 or 6 by the residue of n: five keys.
_B_WINDOW: dict[int, tuple[tuple[int, int, int, int, int], ...]] = {}


def _b_window(dl: int, d: int) -> tuple[tuple[int, int, int, int, int], ...]:
    """The cells 0 <= b3 <= b4, b5 with b3 + b4 + b5 <= dl (the a3 >= a4, a5
    normalisation) that pass the parity condition for d, as rows
    (b2, b3, b4, b5, max b) with b2 = dl + 1 - (b3 + b4 + b5) >= 1, in
    descending order: ascending order of the a_i = t - b_i.  Each slack is
    walked once, testing each cell once."""
    rows = _B_WINDOW.get(dl)
    if rows is None:
        cells = []
        for b3 in range(dl // 3 + 1):
            for b4 in range(b3, dl - 2 * b3 + 1):
                for b5 in range(b3, dl - b3 - b4 + 1):
                    if _parity_condition(b3, b4, b5, d):
                        b2 = dl + 1 - (b3 + b4 + b5)
                        cells.append((b2, b3, b4, b5, max(b2, b3, b4, b5)))
        rows = _B_WINDOW[dl] = tuple(sorted(cells, reverse=True))
    return rows


def _require_move(a: ATuple) -> None:
    """The equivalence moves act on tuples without zero columns."""
    if a.a0 != 0:
        raise ValueError("move requires a0 = 0")


def move_swap345(a: ATuple) -> ATuple:
    """Equivalence move (a3, a4, a5) -> (a5, a3, a4).

    Realised by scaling the second generator row by w and renormalising
    columns; applying it three times is the identity.
    """
    _require_move(a)
    return ATuple(a.a1, a.a2, a.a5, a.a3, a.a4)


def move_add_row(a: ATuple) -> ATuple:
    """Equivalence move a -> (a1, a3 - 1, a2 + 1, a5, a4); needs a3 >= 1.

    Realised by adding the second generator row to the first and
    renormalising columns.
    """
    _require_move(a)
    if a.a3 < 1:
        raise ValueError(f"move requires a3 >= 1, got a3 = {a.a3}")
    return ATuple(a.a1, a.a3 - 1, a.a2 + 1, a.a5, a.a4)


def move_swap_rows(a: ATuple, d: int) -> ATuple:
    """Equivalence move a -> (a2, a1, a3, a5, a4).

    Realised by swapping the two generator rows; valid when the second
    row also has weight d, i.e. 1 + a1 + a3 + a4 + a5 = d.
    """
    _require_move(a)
    if 1 + a.a1 + a.a3 + a.a4 + a.a5 != d:
        raise ValueError(
            f"precondition violated: 1 + a1 + a3 + a4 + a5 = "
            f"{1 + a.a1 + a.a3 + a.a4 + a.a5}, expected d = {d}"
        )
    return ATuple(a.a2, a.a1, a.a3, a.a5, a.a4)


class Family(Frozen):
    """One-parameter family m -> (m + c1, .., m + c5) of optimal tuples."""

    __slots__ = ("label", "residue", "index", "offsets", "m_min")

    def tuple_at(self, m: int) -> ATuple | None:
        """Instantiate at m, or None when some multiplicity would go negative."""
        if m < self.m_min:
            return None
        return ATuple(*(m + c for c in self.offsets))


# Offsets per residue class of n, in catalog order.  Row i of residue r is
# the family named C_{5m+r, i}; sum(offsets) = residue - 2 so that
# n = 2 + sum(a_i) = 5m + residue.
_FAMILY_OFFSETS: dict[int, list[tuple[int, int, int, int, int]]] = {
    0: [
        (0, 0, 0, 0, -2),
        (0, 0, 0, -2, 0),
        (0, -1, 1, 0, -2),
        (0, -1, 1, -2, 0),
        (0, -1, 0, 0, -1),
        (0, -1, 0, -1, 0),
        (0, -2, 0, 0, 0),
        (0, -3, 1, 0, 0),
    ],
    1: [
        (0, 0, 1, 0, -2),
        (0, 0, 1, -2, 0),
        (0, 0, 0, 0, -1),
        (0, 0, 0, -1, 0),
        (0, -1, 1, 1, -2),
        (0, -1, 1, 0, -1),
        (0, -1, 1, -1, 0),
        (0, -1, 1, -2, 1),
        (0, -2, 1, 0, 0),
        (0, -3, 1, 1, 0),
        (0, -3, 1, 0, 1),
    ],
    2: [
        (0, 0, 0, 0, 0),
        (0, -1, 1, 0, 0),
    ],
    3: [
        (0, -1, 1, 1, 0),
        (0, 0, 1, 0, 0),
        (0, -1, 1, 0, 1),
    ],
    4: [
        (1, 1, 1, 1, -2),
        (1, 1, 1, 0, -1),
        (1, 1, 1, -1, 0),
        (1, 1, 1, -2, 1),
        (1, 1, 2, 1, -3),
        (1, 1, 2, -1, -1),
        (1, 1, 2, -3, 1),
        (1, 0, 1, 0, 0),
        (1, 0, 2, 1, -2),
        (1, 0, 2, 2, -3),
        (1, 0, 2, 0, -1),
        (1, 0, 2, -1, 0),
        (1, 0, 2, -2, 1),
        (1, 0, 2, -3, 2),
        (1, -1, 1, 1, 0),
        (1, -1, 1, 0, 1),
        (1, -1, 2, 1, -1),
        (1, -1, 2, -1, 1),
        (1, -2, 2, 1, 0),
        (1, -2, 2, 2, -1),
        (1, -2, 2, 0, 1),
        (1, -2, 2, -1, 2),
        (1, -3, 2, 1, 1),
        (1, -4, 2, 1, 2),
        (1, -4, 2, 2, 1),
    ],
}


# The known classification: per residue of n, its optimal classes in
# classification order, one row (chain, designated, form) each.  ``chain``
# lists the class's catalog rows, which the three moves carry into one
# another in that order; the chains of a residue partition its rows.
# ``designated`` is the row that represents the class (the first in its
# chain but for C_{5m+1,1}), and ``form`` its weight enumerator as
# (offset, count) pairs, meaning count codewords of weight 4m + offset,
# plus the zero word.  The C_{5m+2,1} form is stored as recomputed from the
# construction (1 + 6y^(4m+1) + 9y^(4m+2)); the variant with a 4m+3 term
# sometimes quoted for it cannot be right, since at m = 0 the code has
# length 2.
CLASSIFICATION: dict[int, tuple[tuple[tuple[int, ...], int, tuple[tuple[int, int], ...]], ...]] = {
    0: (
        ((7, 6, 5), 7, ((-1, 3), (0, 9), (1, 3))),
        ((8, 3, 2, 1, 4), 8, ((-1, 6), (0, 6), (2, 3))),
    ),
    1: (
        ((9, 6, 4, 3, 7), 9, ((0, 6), (1, 6), (2, 3))),
        ((11, 5, 1, 2, 8, 10), 1, ((0, 9), (1, 3), (3, 3))),
    ),
    2: (((1, 2), 1, ((1, 6), (2, 9))),),
    3: (((1, 2, 3), 1, ((2, 9), (3, 6))),),
    4: (
        ((8, 16, 15), 8, ((2, 3), (3, 6), (4, 6))),
        ((6, 22, 20), 6, ((2, 9), (5, 6))),
        ((21, 17, 12, 2, 3, 11, 19, 18), 21, ((2, 6), (3, 3), (4, 3), (5, 3))),
        ((23, 9, 4, 1, 13), 23, ((2, 6), (3, 6), (6, 3))),
        ((24, 10, 5, 7, 14, 25), 24, ((2, 9), (3, 3), (7, 3))),
    ),
}


def _family_label(residue: int, index: int) -> str:
    stem = "5m" if residue == 0 else f"5m+{residue}"
    return f"C_{{{stem},{index}}}"


_CATALOG = tuple(
    Family(_family_label(residue, index), residue, index, offsets, max(0, -min(offsets)))
    for residue, rows in _FAMILY_OFFSETS.items()
    for index, offsets in enumerate(rows, start=1)
)


def family_catalog() -> tuple[Family, ...]:
    """The 49 one-parameter families of optimal tuples, in catalog order."""
    return _CATALOG


def family_tuples(n: int) -> list[tuple[Family, ATuple]]:
    """Catalog rows valid at length n, instantiated at m = (n - residue) / 5."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    m, residue = divmod(n, 5)
    rows = (fam for fam in _CATALOG if fam.residue == residue)
    return [(fam, a) for fam in rows if (a := fam.tuple_at(m)) is not None]


def parse_atuple(text: str) -> ATuple:
    """The tuple of the text "a1,a2,a3,a4,a5", optionally prefixed by
    "a0=K;"; raises ValueError on malformed input."""
    t = text.strip()
    a0 = 0
    if ";" in t:
        head, t = t.split(";", 1)
        head = head.strip()
        if not head.startswith("a0="):
            raise ValueError(f"expected 'a0=K;' prefix, got {head!r}")
        a0 = int(head[3:])
    parts = t.split(",")
    if len(parts) != 5:
        raise ValueError(f"expected 5 multiplicities, got {len(parts)}")
    values = [int(p) for p in parts]
    return ATuple(*values, a0=a0)
