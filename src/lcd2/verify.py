"""The ``verify`` command: the known classification, checked length by length.

``verify_classification`` replays the known classification data
(catalog, equivalence chains, weight enumerator forms, class counts)
against the independent census and returns a structured report.  At
n = 5m + r the catalog row with offsets c has the tuple m + c and the
class key (0, m + K), K the canonical form of the offsets' point
multiplicities: sorting and the parity swap commute with adding m to
every part.  ``classify`` reads the rows once, at import, so each
length's view from label to tuple and class key is additions alone; the
checks read that view and the census forms, and build no class object.
T4 also compares the optimal rows with the window walk at each length.
The checks reach the census, the catalog view and the rows through the
``classify`` and ``family`` modules.
"""

from __future__ import annotations

from . import classify as cls
from . import code as codeops
from . import family as fam
from ._frozen import Frozen, setfield
from .code import LinearCode, WeightEnumerator
from .family import ATuple

# Chains of catalog rows known to be pairwise equivalent (by the three
# moves); indices refer to rows within the residue class.
EQUIV_CHAINS: dict[int, tuple[tuple[int, ...], ...]] = {
    0: ((7, 6, 5), (8, 3, 2, 1, 4)),
    1: ((9, 6, 4, 3, 7), (11, 5, 1, 2, 8, 10)),
    2: ((1, 2),),
    3: ((1, 2, 3),),
    4: (
        (8, 16, 15),
        (6, 22, 20),
        (21, 17, 12, 2, 3, 11, 19, 18),
        (23, 9, 4, 1, 13),
        (24, 10, 5, 7, 14, 25),
    ),
}

# Closed-form weight enumerators of the representatives: (offset, count)
# pairs meaning count codewords of weight 4m + offset, plus the zero word.
# The C_{5m+2,1} row is stored as recomputed from the construction
# (1 + 6y^(4m+1) + 9y^(4m+2)); the variant with a 4m+3 term sometimes
# quoted for it cannot be right, since at m = 0 the code has length 2.
REPRESENTATIVE_WEIGHT_FORMS: dict[str, tuple[tuple[int, int], ...]] = {
    "C_{5m,7}": ((-1, 3), (0, 9), (1, 3)),
    "C_{5m,8}": ((-1, 6), (0, 6), (2, 3)),
    "C_{5m+1,9}": ((0, 6), (1, 6), (2, 3)),
    "C_{5m+1,1}": ((0, 9), (1, 3), (3, 3)),
    "C_{5m+2,1}": ((1, 6), (2, 9)),
    "C_{5m+3,1}": ((2, 9), (3, 6)),
    "C_{5m+4,8}": ((2, 3), (3, 6), (4, 6)),
    "C_{5m+4,6}": ((2, 9), (5, 6)),
    "C_{5m+4,21}": ((2, 6), (3, 3), (4, 3), (5, 3)),
    "C_{5m+4,23}": ((2, 6), (3, 6), (6, 3)),
    "C_{5m+4,24}": ((2, 9), (3, 3), (7, 3)),
}

_RESIDUE2_FORM_NOTE = (
    "C_{5m+2,1} form recomputed as 1+6y^(4m+1)+9y^(4m+2); the commonly quoted "
    "variant with a 4m+3 term is impossible at m=0 (length 2)"
)


def representative_weight_form(label: str, m: int) -> WeightEnumerator:
    counts = {0: 1}
    for off, cnt in REPRESENTATIVE_WEIGHT_FORMS[label]:
        counts[4 * m + off] = counts.get(4 * m + off, 0) + cnt
    return WeightEnumerator.from_dict(counts)


def expected_optimal_class_count(n: int) -> int:
    """Known number of optimal classes with no zero column at length n."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    m, residue = divmod(n, 5)
    if residue in (0, 1):
        return 1 if m == 1 else 2
    if residue in (2, 3):
        return 1
    return {0: 1, 1: 3, 2: 4}.get(m, 5)


class CheckResult(Frozen):
    __slots__ = ("id", "n", "passed", "detail")

    def __init__(self, id: str, n: int, passed: bool, detail: str) -> None:
        setfield(self, "id", id)
        setfield(self, "n", n)
        setfield(self, "passed", passed)
        setfield(self, "detail", detail)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.id, self.n, self.passed, self.detail) == (
                other.id, other.n, other.passed, other.detail
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.id, self.n, self.passed, self.detail))


class VerificationReport(Frozen):
    __slots__ = ("n_max", "checks")

    def __init__(self, n_max: int, checks: tuple[CheckResult, ...]) -> None:
        setfield(self, "n_max", n_max)
        setfield(self, "checks", checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_jsonable(self) -> dict:
        return {
            "n_max": self.n_max,
            "checks": [
                {"id": c.id, "n": c.n, "pass": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


def _check_catalog(n: int, view: dict) -> CheckResult:
    enumerated = set(fam._optimal_entries(n))
    catalog = {entries for entries, _ in view.values()}
    if enumerated == catalog:
        detail = f"{len(enumerated)} parameter tuples; cube enumeration matches catalog"
        return CheckResult("T1", n, True, detail)
    missing = sorted(catalog - enumerated)
    extra = sorted(enumerated - catalog)
    return CheckResult("T1", n, False, f"missing={missing} extra={extra}")


def _check_chains(n: int, view: dict) -> CheckResult:
    residue = n % 5
    rows = cls._CATALOG_ROWS[residue]
    problems = []
    chain_canons = []
    for chain in EQUIV_CHAINS[residue]:
        labels = (rows[index - 1][0] for index in chain)
        canons = {view[label][1] for label in labels if label in view}
        if not canons:
            continue
        if len(canons) > 1:
            problems.append(f"chain {chain} splits into {len(canons)} classes")
        chain_canons.append(min(canons))
    if len(set(chain_canons)) != len(chain_canons):
        problems.append("two chains share a canonical form")
    expected = expected_optimal_class_count(n)
    if len(chain_canons) != expected:
        problems.append(f"{len(chain_canons)} nonempty chains, expected {expected}")
    if problems:
        return CheckResult("T2", n, False, "; ".join(problems))
    return CheckResult(
        "T2", n, True, f"{len(chain_canons)} chains collapse to distinct classes"
    )


def _check_weight_forms(n: int, view: dict) -> CheckResult:
    m, residue = divmod(n, 5)
    problems = []
    seen: list[WeightEnumerator] = []
    checked = 0
    for label in cls.CLASS_REPRESENTATIVE_LABELS[residue]:
        if label not in view:
            continue
        gen = fam.build_generator(ATuple(*view[label][0]))
        computed = codeops.weight_enumerator(LinearCode(gen))
        expected = representative_weight_form(label, m)
        if computed != expected:
            problems.append(f"{label}: computed {computed} != form {expected}")
        if computed in seen:
            problems.append(f"{label}: weight enumerator repeats at n={n}")
        seen.append(computed)
        checked += 1
    if problems:
        return CheckResult("T3", n, False, "; ".join(problems))
    detail = f"{checked} representative enumerators match their closed forms"
    if residue == 2:
        detail += f" ({_RESIDUE2_FORM_NOTE})"
    return CheckResult("T3", n, True, detail)


def _check_classification(n: int, plain: list, zero: list, walk: list, labels: dict) -> CheckResult:
    """T4 on the class keys (m0, mp) of the optimal census without and with
    zero columns, labelled by ``labels``, and of the d = dmax(n) window walk
    with zero columns, which must equal ``zero``."""
    expected = expected_optimal_class_count(n)
    expected_extra = 1 if n % 5 == 4 else 0
    problems = []
    if len(plain) != expected:
        problems.append(f"{len(plain)} classes, expected {expected}")
    zero_classes = [key for key in zero if key[0]]
    if len(zero) != expected + expected_extra:
        problems.append(
            f"{len(zero)} classes with zero columns allowed, "
            f"expected {expected + expected_extra}"
        )
    if len(zero_classes) != expected_extra:
        problems.append(f"{len(zero_classes)} zero-column classes, expected {expected_extra}")
    unlabelled = [key for key in plain if key not in labels]
    if unlabelled:
        problems.append(f"{len(unlabelled)} classes without a catalog label")
    if set(plain) != {key for key in zero if not key[0]}:
        problems.append("zero-column census disagrees on the m0 = 0 classes")
    if walk != zero:
        rows_only = sorted(set(zero) - set(walk))
        walk_only = sorted(set(walk) - set(zero))
        problems.append(
            f"optimal rows differ from the window walk: rows only={rows_only} walk only={walk_only}"
        )
    if problems:
        return CheckResult("T4", n, False, "; ".join(problems))
    return CheckResult(
        "T4",
        n,
        True,
        f"{len(plain)} classes (+{expected_extra} with a zero column), all labelled",
    )


def _check_headline(n: int, plain: list, zero: list) -> CheckResult | None:
    m, residue = divmod(n, 5)
    if residue in (0, 1):
        if m < 2:
            return None
        ok = len(plain) == 2
        detail = f"{len(plain)} classes, headline count 2"
    elif residue in (2, 3):
        ok = len(plain) == 1
        detail = f"{len(plain)} classes, headline count 1"
    else:
        if m < 3:
            return None
        zero_classes = [key for key in zero if key[0]]
        ok = len(zero) == 6 and len(zero_classes) == 1
        detail = (
            f"{len(zero)} classes including zero columns "
            f"({len(zero_classes)} with a zero coordinate), headline count 6 (1)"
        )
    return CheckResult("THM", n, ok, detail)


# Largest T3 workload ``verify_classification`` accepts, in generator
# columns.  T3 builds the representative codes of every length and
# computes their weight enumerators in time linear in the length: 11
# codes per five lengths, so about
# 11 * n_max * (n_max + 1) / 10 columns in all.  The budget admits
# n_max <= 1999 (1 s on a 2-vCPU x86-64 machine); every other check costs
# the same at each length.
VERIFY_BUDGET = 4_400_000


def verify_classification(n_max: int) -> VerificationReport:
    """Re-derive and cross-check the known classification up to n_max.

    Runs, for every n in 2..n_max: T1 catalog vs fresh enumeration, T2
    equivalence-chain collapse, T3 weight enumerator forms, T4 class
    counts against the census (with and without zero columns), and THM
    headline counts where applicable.  A failing check becomes a report
    entry; n_max < 7, or a T3 estimate above ``VERIFY_BUDGET``, raises
    ValueError before any check runs.
    """
    if n_max < 7:
        raise ValueError(f"n_max must be >= 7, got {n_max}")
    estimate = 11 * n_max * (n_max + 1) // 10
    if estimate > VERIFY_BUDGET:
        raise ValueError(
            f"verify up to n_max = {n_max} would build about {estimate} generator "
            f"columns, above the budget of {VERIFY_BUDGET}"
        )
    checks: list[CheckResult] = []
    for n in range(2, n_max + 1):
        view = cls._catalog_view(n)
        checks.append(_check_catalog(n, view))
        checks.append(_check_chains(n, view))
        checks.append(_check_weight_forms(n, view))
        plain = list(cls.census_forms(n, "optimal_lcd", False))
        zero = list(cls.census_forms(n, "optimal_lcd", True))
        walk = cls._window_forms(n)
        checks.append(_check_classification(n, plain, zero, walk, cls._label_map(view)))
        headline = _check_headline(n, plain, zero)
        if headline is not None:
            checks.append(headline)
    return VerificationReport(n_max, tuple(checks))
