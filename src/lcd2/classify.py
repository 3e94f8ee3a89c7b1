"""Equivalence classification of dimension-2 quaternary codes.

Up to column scaling, every nonzero column of a 2 x n generator matrix
is one of the five points of the projective line over GF(4).  A code of
dimension 2 is therefore captured, up to column order and scaling, by a
multiplicity vector: the number of zero columns plus the five point
multiplicities.  Changing the generator basis acts on the points
through the 60-element group induced by invertible 2 x 2 matrices, so
two codes are equivalent exactly when their multiplicity vectors agree
up to that action on the points.  ``canonical_form`` takes the
lexicographically minimal image, a complete invariant.

The group is A5 (60 even permutations), which makes the canonical form
closed: sort the five multiplicities, and when all five differ and the
sorting permutation is odd, swap the last two.  ``census_runs`` uses
this for orderly generation with one walker, ``_runs``: the rank-2
canonical forms of t = n - m0 whose minimum weight t - max(mp) lies in a
range, in lexicographic order, as runs, cut to the LCD forms on request.
A run is a prefix (p0, p1, p2) and a range of x for the forms
(p0, p1, p2, x, r - x), with r the rest of t: first the sorted
partitions, then any mirrors of five-distinct ones, the other A5 orbit
of each such multiset.  The ``all`` and ``lcd`` census walk every
d >= 1.  The distance-optimal census is a table: at n = 5m + r its forms
are m plus fixed offsets, a few additions at any length.
The filters read the multiplicities alone: minimum weight is
n - m0 - max(mp) (each nonzero message class zeroes exactly one point
type), and the Gram determinant reduces to a parity formula in which
only the parity of p2 + x changes along a run.  The ``all`` and ``lcd``
walks grow as n^4 (n^5 with zero columns) and are capped by
``CENSUS_BUDGET``.  Class objects are built only by ``census`` and
``classify_optimal``; the command line renders the runs.  An
``EquivClass`` accepts only a rank-2 canonical form.  The oracle
``_census_enumerated`` recomputes everything from actual codewords and
serves as the cross-validating check.

One per-residue table, ``_TABLES``, built at import, holds for each m
from 0 to a last index derived from dmax and the catalog the optimal
forms, the catalog rows valid at m and their class labels (the designated
rows of ``family.CLASSIFICATION`` first), all as offsets from m; from the
last index on, nothing changes.  One reader, ``_table_at``, takes the
entry of a length, and ``census_runs``, the catalog view from label to
tuple and class key (``_catalog_view``, which ``enumerate`` and
``lcd2.verify`` read) and the labels (``_label_map``, which ``classify``
and ``verify`` read) add m to it.  The functions that build or measure
codes reach ``code`` and ``linalg`` through the package namespace
(``lcd2.LinearCode``, ``lcd2.Mat``, ...), which imports a module with the
first name read from it, so that the census and classify commands load
neither.
"""

from __future__ import annotations

import itertools
import math

import lcd2

from . import family as fam
from . import gf4
from ._frozen import Frozen
from .family import ATuple, dmax

# Projective points of the line over GF(4), in fixed order, each with
# its first nonzero entry 1; ``_POINT_OF`` maps every nonzero column
# (s*x, s*y), s != 0, to the index of its point (x, y).
POINTS = ((1, 0), (0, 1), (1, 1), (1, 2), (1, 3))
_POINT_OF = {
    (gf4.MUL[s][x], gf4.MUL[s][y]): i for i, (x, y) in enumerate(POINTS) for s in gf4.NONZERO
}

VALID_FILTERS = ("all", "lcd", "optimal_lcd")


class MultVector(Frozen):
    """Zero-column count plus the five projective column multiplicities."""

    __slots__ = ("m0", "mp")

    def __post_init__(self) -> None:
        if len(self.mp) != 5:
            raise ValueError(f"expected 5 point multiplicities, got {len(self.mp)}")
        if self.m0 < 0 or min(self.mp) < 0:
            raise ValueError(f"negative multiplicity in {self!r}")

    @property
    def n(self) -> int:
        return self.m0 + sum(self.mp)

    def spans(self) -> bool:
        """True iff at least two point types occur (the code has rank 2)."""
        return sum(1 for x in self.mp if x) >= 2


class EquivClass(Frozen, defaults={"label": None}):
    """One census class: a rank-2 canonical form and an optional catalog label.

    The canonical form is a complete invariant, so n, d, the weight
    enumerator and the zero-column flag are derived from it on access.
    Raises ValueError unless ``canon.mp`` is a canonical form of rank 2:
    sorted with at least two nonzero parts, or five distinct parts
    sorted but for the last two, which one transposition sorts.
    """

    __slots__ = ("canon", "label")

    def __post_init__(self) -> None:
        a, b, c, d, e = self.canon.mp
        if not (0 < d and (a <= b <= c <= d <= e or a < b < c < e < d)):
            raise ValueError(f"{self.canon!r} is not a rank-2 canonical form")

    @property
    def n(self) -> int:
        return self.canon.n

    @property
    def d(self) -> int:
        return _min_weight_from_mult(self.canon.n, self.canon.m0, self.canon.mp)

    @property
    def we(self) -> WeightEnumerator:
        return _we_from_mult(self.canon.n, self.canon.m0, self.canon.mp)

    @property
    def zero_col(self) -> bool:
        return self.canon.m0 > 0


def code_to_multvector(c: LinearCode) -> MultVector:
    """Column type counts of a generator matrix of a dimension-2 code."""
    if c.k != 2:
        raise ValueError(f"multiplicity vectors are defined for k = 2, got k = {c.k}")
    points = [_POINT_OF.get(col) for col in zip(*c.gen.rows)]
    return MultVector(points.count(None), tuple(map(points.count, range(5))))


def multvector_to_code(mv: MultVector) -> LinearCode:
    """A code whose generator matrix realises the given column counts."""
    if not mv.spans():
        raise ValueError(f"{mv!r} has rank < 2 (fewer than two point types)")
    cols = [(0, 0)] * mv.m0
    for i, count in enumerate(mv.mp):
        cols.extend([POINTS[i]] * count)
    top = tuple(x for x, _ in cols)
    bot = tuple(y for _, y in cols)
    return lcd2.LinearCode(lcd2.Mat((top, bot), len(cols)))


def _atuple_mp(entries: tuple[int, ...]) -> tuple[int, int, int, int, int]:
    """Point multiplicities (1+a2, 1+a1, a3, a4, a5) of the parametric
    generator of entries (a1, .., a5)."""
    a1, a2, a3, a4, a5 = entries
    return (1 + a2, 1 + a1, a3, a4, a5)


def induced_point_permutations() -> tuple[tuple[int, ...], ...]:
    """Permutations of the 5 points induced by invertible 2 x 2 matrices.

    All 180 invertible matrices induce exactly 60 permutations (scalar
    matrices act trivially); the set is a group and every element is an
    even permutation.
    """
    perms = set()
    for a, b, c, d in itertools.product(gf4.ELEMENTS, repeat=4):
        if gf4.MUL[a][d] ^ gf4.MUL[b][c] == 0:
            continue
        image = tuple(
            _POINT_OF[gf4.MUL[a][x] ^ gf4.MUL[b][y], gf4.MUL[c][x] ^ gf4.MUL[d][y]]
            for x, y in POINTS
        )
        perms.add(image)
    return tuple(sorted(perms))


def canonical_form(mv: MultVector) -> MultVector:
    """Lexicographically minimal point-multiplicity image over the group.

    The group is A5 acting on the five points, so the minimal image is
    the sorted tuple, except when all five parts differ and only an odd
    permutation sorts them: then the last two entries are swapped.
    Two dimension-2 codes are equivalent iff their canonical forms are
    equal; the zero-column count is invariant.
    """
    return MultVector(mv.m0, _canonical_mp(mv.mp))


def _canonical_mp(mp: tuple[int, ...]) -> tuple[int, ...]:
    """The sorted parts, the last two swapped if all differ and sorting is odd."""
    best = sorted(mp)
    if len(set(mp)) == 5 and sum(x > y for i, x in enumerate(mp) for y in mp[i + 1:]) % 2:
        best[3], best[4] = best[4], best[3]
    return tuple(best)


def are_equivalent(c1: LinearCode, c2: LinearCode) -> bool:
    """Equivalence under coordinate permutation and nonzero scaling."""
    return canonical_form(code_to_multvector(c1)) == canonical_form(code_to_multvector(c2))


def representative_entries(mp: tuple[int, ...]) -> tuple[int, int, int, int, int]:
    """(a1, ..., a5) of the representative tuple of a rank-2 canonical form.

    Taken from the lexicographically smallest orbit image that carries
    both unit points: the canonical form with its two smallest nonzero
    parts rotated ahead of its z zeros.  That rotation moves them past at
    most one zero when all five parts differ (an even permutation), so
    the parity swap of the canonical form carries over unchanged.  With
    at most one zero part (mp[1] > 0) the last two entries are mp[3:] and
    the first three depend on mp[:3] alone.
    """
    z = mp.count(0)
    best = mp[z:z + 2] + mp[:z] + mp[z + 2:]
    return (best[1] - 1, best[0] - 1, best[2], best[3], best[4])


def representative_atuple(mv: MultVector) -> ATuple:
    """A parameter tuple generating a member of the class of ``mv``."""
    mp = canonical_form(mv).mp
    if mp[3] == 0:
        raise ValueError(f"{mv!r} has rank < 2")
    return ATuple(*representative_entries(mp), a0=mv.m0)


# ---------------------------------------------------------------------------
# census: orderly partition walk and enumerated oracle path

# Largest walk the fast ``all`` and ``lcd`` census accepts, in partitions.
# The walk is estimated by C(t+4, 4)/120 summed over t = n - m0: the
# identity term of the Burnside count of sorted 5-part partitions of t,
# which the exact count exceeds by 14% at n = 150 and by 26% at n = 100
# with zero columns.  The budget admits n <= 161, or n <= 78 with zero
# columns; census(150, "all") walks 213k partitions into 378k classes (1.7
# s and 117 MB peak RSS on a 2-vCPU x86-64 machine; ``lcd2 census 150
# --filter all --format json``, which keeps only 19k runs, takes 0.31-0.41 s
# and peaks at 17 MB, least and median of 15 fresh processes: the walk
# takes 8-10 ms and writing 0.22-0.30 s, timed in each process, and the
# rest is start-up).  The ``optimal_lcd`` census reads at most 6 rows and
# needs no budget.
CENSUS_BUDGET = 250_000


def _lcd_form(p0: int, p1: int, p2: int, r: int, x: int) -> bool:
    """Gram determinant test of the form (p0, p1, p2, x, r - x) from parities.

    Column (x, y) contributes (x conj(x), x conj(y); y conj(x), y conj(y))
    to the Gram matrix and scaling leaves that contribution fixed, so only
    the parities e_i of the five multiplicities matter:

        det = (e1+e3+e4+e5)(e2+e3+e4+e5) + norm(e3 + e4*w2 + e5*w)

    over GF(2), where the norm term vanishes iff e3 = e4 = e5.  With
    s = p2 + r the product is k = (p0 + s)(p1 + s), the norm term is 1 when
    r is odd, else the parity of p2 + x, and the form is LCD iff they
    differ.  A run fixes p0, p1, p2 and r, so it is kept whole (r odd,
    k = 0), dropped (r odd, k = 1) or halved (r even: p2 + x odd iff k = 0).
    """
    s = p2 + r
    return (p0 + s) & (p1 + s) & 1 != (r | (p2 ^ x)) & 1


def _lcd_from_mult(mp: tuple[int, ...]) -> bool:
    """``_lcd_form`` of the multiplicities mp."""
    return _lcd_form(mp[0], mp[1], mp[2], mp[3] + mp[4], mp[3])


def _min_weight_from_mult(n: int, m0: int, mp: tuple[int, ...]) -> int:
    """d = n - m0 - max(mp): each message class zeroes one point type."""
    return n - m0 - max(mp)


def _we_terms(t: int, parts: tuple[int, ...]) -> list[tuple[int, int]]:
    """(w, A_w) of the nonzero codewords of t = n - m0, in weight order, from
    point types of multiplicities ``parts``, in descending order: each gives
    3 codewords of weight t - p, and equal parts merge into one term.  Rank 2
    keeps every part below t, so no weight is 0."""
    terms = []
    last = None
    for p in parts:
        if p == last:
            terms[-1] = (t - p, terms[-1][1] + 3)
        else:
            terms.append((t - p, 3))
            last = p
    return terms


def _we_from_mult(n: int, m0: int, mp: tuple[int, ...]) -> WeightEnumerator:
    """Weight enumerator of a rank-2 canonical form: the zero word, then
    ``_we_terms`` of its parts, largest first."""
    parts = (max(mp[3], mp[4]), min(mp[3], mp[4]), mp[2], mp[1], mp[0])
    return lcd2.WeightEnumerator(((0, 1), *_we_terms(n - m0, parts)))


def _iter_compositions(total: int):
    for c1 in range(total + 1):
        for c2 in range(total - c1 + 1):
            for c3 in range(total - c1 - c2 + 1):
                for c4 in range(total - c1 - c2 - c3 + 1):
                    yield (c1, c2, c3, c4, total - c1 - c2 - c3 - c4)


def _census_enumerated(n: int, include_zero_columns: bool) -> dict[str, list[EquivClass]]:
    """Oracle path: build every code and measure it by codeword enumeration,
    asserting that d and the enumerator match those its class derives.  One
    pass gives the classes of every filter, by filter name."""
    m0_values = range(0, n - 1) if include_zero_columns else (0,)
    found: dict[str, dict] = {filt: {} for filt in VALID_FILTERS}
    for m0 in m0_values:
        for mp in _iter_compositions(n - m0):
            mv = MultVector(m0, mp)
            if not mv.spans():
                continue
            c = multvector_to_code(mv)
            we = lcd2.weight_enumerator(c)
            d = we.min_positive_weight()
            cls = EquivClass(canonical_form(mv))
            if d != cls.d or we != cls.we:
                raise AssertionError(
                    f"{mv!r}: measured d={d}, we={we}; derived d={cls.d}, we={cls.we}"
                )
            key = (cls.canon.m0, cls.canon.mp)
            found["all"][key] = cls
            if lcd2.is_hermitian_lcd(c):
                found["lcd"][key] = cls
                if d == dmax(n):
                    found["optimal_lcd"][key] = cls
    return {filt: [classes[key] for key in sorted(classes)] for filt, classes in found.items()}


def census_runs(n: int, filter: str = "lcd", include_zero_columns: bool = False):
    """``census(n, filter, include_zero_columns)`` in census order, as non-empty
    runs (m0, p0, p1, p2, xs) of the forms (m0, (p0, p1, p2, x, r - x)), x in
    ``xs``, r = n - m0 - p0 - p1 - p2.  ``optimal_lcd`` reads one-form runs
    from ``_table_at(n)``; ``all`` and ``lcd`` walk.  Raises ``census``'s
    ValueErrors at the call."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if filter not in VALID_FILTERS:
        raise ValueError(f"filter must be one of {VALID_FILTERS}, got {filter!r}")
    if filter == "optimal_lcd":
        m, (forms, _, _) = _table_at(n)
        return [
            (m0, m + o0, m + o1, m + o2, range(m + ox, m + ox + 1))
            for m0, o0, o1, o2, ox in forms
            if include_zero_columns or not m0
        ]
    # C(t+4, 4)/120 over the walked t = n - m0; t = 2..n sums by the
    # hockey-stick identity.
    estimate = (math.comb(n + 5, 5) - 6 if include_zero_columns else math.comb(n + 4, 4)) // 120
    if estimate > CENSUS_BUDGET:
        raise ValueError(
            f"census of length {n} would walk about {estimate} partitions, "
            f"above the budget of {CENSUS_BUDGET}"
        )
    return _runs(n, n - 2 if include_zero_columns else 0, 1, n, filter != "all")


def _runs(n: int, m0_last: int, d_lo: int, d_hi: int, lcd: bool):
    """Rank-2 canonical forms (m0, mp) of n, m0 = 0..m0_last, with
    d = t - max part in d_lo..d_hi >= 1, t = n - m0, LCD only if ``lcd``, in
    census order, as runs (m0, p0, p1, p2, xs) of the forms
    (m0, (p0, p1, p2, x, r - x)), x in the range ``xs``, r = t - p0 - p1 - p2.

    d is the sum of the four smaller parts and no part exceeds t - d_lo,
    which bounds each loop so that no visited prefix (p0, p1, p2) is
    empty.  Under a prefix come the sorted partitions, x = p3 ascending,
    then any mirrors (p0, p1, p2, p4, p3) of the five-distinct ones, x = p4
    ascending: a mirror's fourth entry exceeds every unmirrored one's, and
    its run comes right after the sorted run of its prefix.  A mirror needs
    x > p2 and x < r - x, so its range is the sorted one without lo = p2
    and without hi = r / 2, mirrored.  ``_lcd_form`` cuts a prefix to its
    LCD forms: with r odd one call keeps or drops both ranges, and with r
    even one call per range says whether it starts at its first x or its
    second, and it takes every other x.  The bounds are conditional
    expressions: ``min`` and ``max`` calls took half the walk's time."""
    for m0 in range(m0_last + 1):
        t = n - m0
        top = t - d_lo
        lo0, hi0, cap0 = t - 4 * top, t // 5, d_hi // 4
        for p0 in range(lo0 if lo0 > 0 else 0, (hi0 if hi0 < cap0 else cap0) + 1):
            lo1, hi1, cap1 = t - 3 * top - p0, (t - p0) // 4, (d_hi - p0) // 3
            for p1 in range(lo1 if lo1 > p0 else p0, (hi1 if hi1 < cap1 else cap1) + 1):
                q1 = p0 + p1
                lo2, hi2, cap2 = t - 2 * top - q1, (t - q1) // 3, (d_hi - q1) // 2
                for p2 in range(lo2 if lo2 > p1 else p1, (hi2 if hi2 < cap2 else cap2) + 1):
                    q = q1 + p2
                    r = t - q
                    lo, hi = d_lo - q, d_hi - q
                    if lo < p2:
                        lo = p2
                    if hi > r >> 1:
                        hi = r >> 1
                    if p0 < p1 < p2:
                        mirror_lo, mirror_hi = r - hi + (hi + hi == r), r - lo - (lo == p2)
                    else:  # no mirror: an empty range
                        mirror_lo, mirror_hi = 1, 0
                    step = 1
                    if lcd:
                        if r & 1:
                            if not _lcd_form(p0, p1, p2, r, lo):
                                continue
                        else:
                            step = 2
                            lo += not _lcd_form(p0, p1, p2, r, lo)
                            if mirror_lo <= mirror_hi:
                                mirror_lo += not _lcd_form(p0, p1, p2, r, mirror_lo)
                    if lo <= hi:
                        yield (m0, p0, p1, p2, range(lo, hi + 1, step))
                    if mirror_lo <= mirror_hi:
                        yield (m0, p0, p1, p2, range(mirror_lo, mirror_hi + 1, step))


def _forms(n: int, runs):
    """The runs (m0, p0, p1, p2, xs) of length n expanded to their forms
    (m0, mp)."""
    for m0, p0, p1, p2, xs in runs:
        for x in xs:
            yield (m0, (p0, p1, p2, x, n - m0 - p0 - p1 - p2 - x))


def census_forms(n: int, filter: str = "lcd", include_zero_columns: bool = False):
    """``census_runs`` expanded to the canonical forms (m0, mp), in census
    order.  Raises ``census``'s ValueErrors at the call."""
    return _forms(n, census_runs(n, filter, include_zero_columns))


def census(n: int, filter: str = "lcd", include_zero_columns: bool = False) -> list[EquivClass]:
    """All equivalence classes of [n, 2] codes passing the filter.

    Covers every multiplicity vector with m0 + sum(mp) = n (m0 = 0
    unless ``include_zero_columns``) of rank 2 that passes the filter,
    one class per canonical form, sorted by (m0, canonical mp).  It
    walks the canonical forms directly and computes d, the weight
    enumerator and the LCD test from the multiplicities.  For ``all``
    and ``lcd`` it raises ValueError when its walk estimate exceeds
    ``CENSUS_BUDGET``; ``optimal_lcd`` shifts the at most 6 forms of
    ``_table_at(n)`` by m = n div 5, at any length.
    ``_census_enumerated`` rebuilds every code and measures it from its
    codewords, as the cross-checking oracle.
    """
    forms = census_forms(n, filter, include_zero_columns)
    return [EquivClass(MultVector(m0, mp)) for m0, mp in forms]


# ---------------------------------------------------------------------------
# the per-residue table: optimal forms, catalog rows and labels

def _window_forms(n: int) -> list[tuple[int, tuple[int, ...]]]:
    """The optimal LCD forms (m0, mp) of length n, zero columns included, in
    census order, from the d = dmax(n) window walk: the forms ``_TABLES`` is
    read from, and that ``verify`` checks it against."""
    d = dmax(n)
    # The largest part t - d of an optimal form is at least d/4.
    return list(_forms(n, _runs(n, n - d - (d + 3) // 4, d, d, True)))


# At n = 5m + r, dmax(n) = 4m + c with c = dmax(5 + r) - 4 = -1, 0, 1, 2, 2
# for r = 0..4.  Write the parts of an optimal form (m0, mp) as m + o_i: the
# offsets o_i sum to r - m0, and d, the sum of the four smaller parts, is
# 4m + c, so the largest offset is r - m0 - c <= 2 and the smallest at least
# (r - m0) - 4(r - m0 - c) >= 4c - 3r.  Adding 1 to all five parts keeps the
# sort, the parity swap (five distinct parts stay distinct), d = dmax(n) and
# ``_lcd_form`` (flipping all five parities keeps it), so a form is optimal at
# every m whose parts are >= 0, and only there.  The walk at any m >= 3r - 4c
# thus sees every offset vector, and a catalog row holds from its m_min on.
# So each residue's table runs up to last = max(3r - 4c, largest m_min) =
# 4, 3, 2, 1, 4, is read from one walk at m = last, and its last entry holds
# at every larger m: 2, 2, 1, 1 and 6 forms for r = 0..4, one of them (r = 4)
# with a zero column.
def _residue_table(residue: int) -> tuple[tuple[tuple, tuple, tuple], ...]:
    """The entries (forms, rows, labels) at m = 0..last of ``residue``, as
    offsets from m: the optimal forms (m0, o0, o1, o2, ox) in census order
    whose smallest part m + o0 is >= 0; the catalog rows (label, c, K) valid
    at m in catalog order, K the canonical form of the point multiplicities
    of c; and (K, label) per class of those rows, labelled by its first
    designated row in ``family.CLASSIFICATION``, else its first row."""
    c = dmax(5 + residue) - 4
    rows = [
        (f.m_min, f.label, f.offsets, _canonical_mp(_atuple_mp(f.offsets)))
        for f in fam.family_catalog()
        if f.residue == residue
    ]
    last = max(3 * residue - 4 * c, *(row[0] for row in rows))
    forms = [
        (m0, p0 - last, p1 - last, p2 - last, x - last)
        for m0, (p0, p1, p2, x, _) in _window_forms(5 * last + residue)
    ]
    reps = [fam._family_label(residue, row) for _, row, _ in fam.CLASSIFICATION[residue]]
    # The designated rows first, in classification order, then catalog
    # order: the first label set for a class key is its label.
    first = sorted(rows, key=lambda row: reps.index(row[1]) if row[1] in reps else len(reps))
    entries = []
    for m in range(last + 1):
        labels = {}
        for m_min, label, _, key in first:
            if m >= m_min:
                labels.setdefault(key, label)
        valid = tuple((label, offsets, key) for m_min, label, offsets, key in rows if m >= m_min)
        entries.append((tuple(f for f in forms if m + f[1] >= 0), valid, tuple(labels.items())))
    return tuple(entries)


_TABLES = tuple(_residue_table(residue) for residue in range(5))


def _table_at(n: int) -> tuple[int, tuple[tuple, tuple, tuple]]:
    """(m, entry) for n = 5m + r: the entry of ``_TABLES[r]`` at the lesser of m
    and its last index, whose offsets the readers add m to."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    m, residue = divmod(n, 5)
    table = _TABLES[residue]
    return m, table[min(m, len(table) - 1)]


def _catalog_view(n: int) -> dict[str, tuple[tuple[int, ...], tuple[int, tuple[int, ...]]]]:
    """Label -> (entries (a1, .., a5), class key (a0, canonical mp)) of the
    catalog rows valid at n = 5m + r, in catalog order: m + c and (0, m + K)
    for the rows (label, c, K) of ``_table_at(n)``, since sorting and the
    parity swap commute with adding m to every part."""
    m, (_, rows, _) = _table_at(n)
    return {
        label: (
            (m + c1, m + c2, m + c3, m + c4, m + c5),
            (0, (m + k1, m + k2, m + k3, m + k4, m + k5)),
        )
        for label, (c1, c2, c3, c4, c5), (k1, k2, k3, k4, k5) in rows
    }


def _label_map(n: int) -> dict[tuple[int, tuple[int, ...]], str]:
    """Class key -> catalog label for the catalog classes at n = 5m + r: the
    first designated row in the class, else its first row.  Adds
    m to the (K, label) pairs of ``_table_at(n)``."""
    m, (_, _, labels) = _table_at(n)
    return {
        (0, (m + k1, m + k2, m + k3, m + k4, m + k5)): label
        for (k1, k2, k3, k4, k5), label in labels
    }


def classify_optimal(n: int, include_zero_columns: bool = False) -> list[EquivClass]:
    """Census of optimal Hermitian LCD classes, labelled from the catalog.

    A class gets a label when some catalog tuple lies in its orbit;
    zero-column classes never do (the catalog has no zero columns).
    """
    forms = census_forms(n, "optimal_lcd", include_zero_columns)
    labels = _label_map(n)
    return [EquivClass(MultVector(m0, mp), labels.get((m0, mp))) for m0, mp in forms]


def __getattr__(name: str):
    """``verify_classification``, which moved to ``lcd2.verify``, read here
    on first use: ``bench/host.py`` traces it under this module's name."""
    if name == "verify_classification":
        from .verify import verify_classification

        globals()[name] = verify_classification
        return verify_classification
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
