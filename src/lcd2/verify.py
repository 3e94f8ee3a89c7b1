"""The ``verify`` command: the known classification, checked length by length.

``verify_classification`` replays the known classification data (the
catalog, the chains and weight enumerator forms of
``family.CLASSIFICATION``, the class counts) against the independent
census and returns a structured report.  At n = 5m + r the catalog row
with offsets c has the tuple m + c and the class key (0, m + K), K the
canonical form of the offsets' point multiplicities: sorting and the
parity swap commute with adding m to every part.  ``classify`` builds one
per-residue table at import, so each length's view from label to tuple
and class key, its labels and its optimal forms are additions alone; the
checks read them and build no class object.  T1 compares the view with
``_optimal_entries``, which reads the b-window table of ``family``.  T2
and T3 read ``classify._CLASSES``, the classification resolved to catalog
labels at import beside that table: T2 names each chain's rows by their
labels, and T3 builds each designated row with ``build_generator``,
measures it with ``weight_enumerator`` and compares the counts with its
weight form shifted by 4m.  T4 reads the labels and compares the optimal
census with a fresh window walk at each length; THM, in the same
function, compares those counts with the paper's from the m after the
last small-m exception.  The other checks are computed at every length.
T3 skips a class whose designated row is not yet valid at n: one class
at n = 3, 5, 6 (their only one), 9, 10, 14 and 19.  Measuring another
row of its chain would change the output of ``verify --n-max 32``,
which ``bench/digests.json`` pins: that waits for the next change to
the benchmark.
"""

from __future__ import annotations

from . import classify as cls
from . import code as codeops
from . import family as fam
from ._frozen import Frozen
from .code import LinearCode, WeightEnumerator
from .family import ATuple

_RESIDUE2_FORM_NOTE = (
    "C_{5m+2,1} form recomputed as 1+6y^(4m+1)+9y^(4m+2); the commonly quoted "
    "variant with a 4m+3 term is impossible at m=0 (length 2)"
)


def _weight_form_counts(form: tuple[tuple[int, int], ...], m: int) -> tuple[tuple[int, int], ...]:
    """The (weight, count) pairs of the weight form ``form`` at m: the zero
    word, then each (offset, count) pair's weight 4m + offset.

    The offsets of each form increase, and only forms of residues 0 and 1,
    which need m >= 1 for n >= 2, hold offsets below 1; so the shifted
    weights are positive and sorted."""
    four_m = 4 * m
    return ((0, 1), *((four_m + off, cnt) for off, cnt in form))


# The paper's class counts at n = 5m + r, by r: the optimal classes with no
# zero column once every catalog row exists, the optimal classes with a zero
# column, and {m: classes with no zero column} at the small m before that.
# ``_check_classification`` reads a length's entry once for T4 and THM, which
# checks the first two from the m after the last exception.
_COUNTS = ((2, 0, {1: 1}), (2, 0, {1: 1}), (1, 0, {}), (1, 0, {}), (5, 1, {0: 1, 1: 3, 2: 4}))


def expected_optimal_class_count(n: int) -> int:
    """Known number of optimal classes with no zero column at length n."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    m, residue = divmod(n, 5)
    count, _, small = _COUNTS[residue]
    return small.get(m, count)


class CheckResult(Frozen):
    __slots__ = ("id", "n", "passed", "detail")


class VerificationReport(Frozen):
    __slots__ = ("n_max", "checks")

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


def _check_chains(n: int, view: dict, classes: tuple) -> CheckResult:
    """T2 on the classes of n's residue, as ``classify._CLASSES`` holds them."""
    problems = []
    chain_canons = []
    for chain, labels, _, _ in classes:
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


def _check_weight_forms(n: int, view: dict, classes: tuple) -> CheckResult:
    """T3 on the classes of n's residue, as ``classify._CLASSES`` holds them."""
    m, residue = divmod(n, 5)
    problems = []
    seen: list[tuple[tuple[int, int], ...]] = []
    checked = 0
    for _, _, label, form in classes:
        if label not in view:
            continue
        gen = fam.build_generator(ATuple(*view[label][0]))
        computed = codeops.weight_enumerator(LinearCode(gen))
        # The enumerator of the form is built only for the message.
        counts = _weight_form_counts(form, m)
        if computed.counts != counts:
            problems.append(f"{label}: computed {computed} != form {WeightEnumerator(counts)}")
        if computed.counts in seen:
            problems.append(f"{label}: weight enumerator repeats at n={n}")
        seen.append(computed.counts)
        checked += 1
    if problems:
        return CheckResult("T3", n, False, "; ".join(problems))
    detail = f"{checked} representative enumerators match their closed forms"
    if residue == 2:
        detail += f" ({_RESIDUE2_FORM_NOTE})"
    return CheckResult("T3", n, True, detail)


def _check_classification(
    n: int, plain: list, zero: list, walk: list, labels: dict
) -> list[CheckResult]:
    """T4 on the class keys (m0, mp) of the optimal census without and with
    zero columns, labelled by ``labels``, and of the d = dmax(n) window walk
    with zero columns, which must equal ``zero``; and, from the m after the
    last small-m exception, THM on the same counts against the paper's, read
    from ``_COUNTS`` and not through ``expected_optimal_class_count``."""
    m, residue = divmod(n, 5)
    count, extra, small = _COUNTS[residue]
    expected = expected_optimal_class_count(n)
    zeros = len([key for key in zero if key[0]])
    problems = []
    if len(plain) != expected:
        problems.append(f"{len(plain)} classes, expected {expected}")
    if len(zero) != expected + extra:
        problems.append(
            f"{len(zero)} classes with zero columns allowed, "
            f"expected {expected + extra}"
        )
    if zeros != extra:
        problems.append(f"{zeros} zero-column classes, expected {extra}")
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
    summary = f"{len(plain)} classes (+{extra} with a zero column), all labelled"
    checks = [CheckResult("T4", n, not problems, "; ".join(problems) or summary)]
    if m <= max(small, default=-1):
        return checks
    if not extra:
        detail = f"{len(plain)} classes, headline count {count}"
        return [*checks, CheckResult("THM", n, len(plain) == count, detail)]
    detail = (
        f"{len(zero)} classes including zero columns "
        f"({zeros} with a zero coordinate), headline count {count + extra} ({extra})"
    )
    return [*checks, CheckResult("THM", n, len(zero) == count + extra and zeros == extra, detail)]


# Largest T3 workload ``verify_classification`` accepts, in the generator
# columns ``_t3_columns`` bounds.  It admits n_max <= 1999 (``lcd2 verify
# --n-max 1999 --format csv`` takes 0.30 s at least and 0.34 s in the median
# of 15 fresh processes on a shared 2-vCPU x86-64 machine); every other
# check costs the same at each length.
VERIFY_BUDGET = 4_400_000


def _t3_columns(n_max: int) -> int:
    """An upper bound on the generator columns T3 builds at n = 2..n_max >= 7
    (its time is linear in them): per residue r, its representatives times
    the sum of the lengths n = r (mod 5) from r (r + 5 for r < 2) to n_max."""
    total = 0
    for residue, classes in enumerate(cls._CLASSES):
        first = residue if residue >= 2 else residue + 5
        count = (n_max - first) // 5 + 1
        total += len(classes) * count * (2 * first + 5 * (count - 1)) // 2
    return total


def verify_classification(n_max: int) -> VerificationReport:
    """Re-derive and cross-check the known classification up to n_max.

    Runs, for every n in 2..n_max: T1 catalog vs fresh enumeration, T2
    equivalence-chain collapse, T3 weight enumerator forms, T4 class
    counts against the census (with and without zero columns), and THM
    headline counts on T4's census where applicable.  A failing check
    becomes a report entry; n_max < 7, or a T3 bound above
    ``VERIFY_BUDGET``, raises ValueError before any check runs.
    """
    if n_max < 7:
        raise ValueError(f"n_max must be >= 7, got {n_max}")
    estimate = _t3_columns(n_max)
    if estimate > VERIFY_BUDGET:
        raise ValueError(
            f"verify up to n_max = {n_max} would build about {cls._about(estimate)} generator "
            f"columns, above the budget of {VERIFY_BUDGET}"
        )
    classes = cls._CLASSES
    checks: list[CheckResult] = []
    for n in range(2, n_max + 1):
        view = cls._catalog_view(n)
        checks.append(_check_catalog(n, view))
        checks.append(_check_chains(n, view, classes[n % 5]))
        checks.append(_check_weight_forms(n, view, classes[n % 5]))
        plain = list(cls.census_forms(n, "optimal_lcd", False))
        zero = list(cls.census_forms(n, "optimal_lcd", True))
        walk = cls._window_forms(n)
        checks += _check_classification(n, plain, zero, walk, cls._label_map(n))
    return VerificationReport(n_max, tuple(checks))
