"""Optimal quaternary Hermitian LCD codes of dimension 2.

Exact GF(4) arithmetic, Hermitian linear algebra, code measurements,
the two-row parametric construction with its admissibility calculus,
and an exhaustive equivalence census that re-derives the known
classification for any length.

The public names below are imported from their modules on first use
(PEP 562), so that ``import lcd2.cli`` loads only what a command needs.
``classify`` and ``family`` read the names of ``code`` and ``linalg``
through this namespace for the same reason.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "code": (
        "LinearCode",
        "WeightEnumerator",
        "codewords",
        "extend_with_zero",
        "has_zero_coordinate",
        "hermitian_dual",
        "hull_dimension",
        "is_hermitian_lcd",
        "min_weight",
        "weight_enumerator",
    ),
    "classify": (
        "EquivClass",
        "MultVector",
        "are_equivalent",
        "canonical_form",
        "census",
        "classify_optimal",
        "code_to_multvector",
        "induced_point_permutations",
        "multvector_to_code",
    ),
    "family": (
        "ATuple",
        "BTuple",
        "Family",
        "a_to_b",
        "b_to_a",
        "build_generator",
        "check_lcd_conditions_a",
        "check_lcd_conditions_b",
        "delta",
        "dmax",
        "enumerate_optimal",
        "family_catalog",
        "family_tuples",
        "move_add_row",
        "move_swap345",
        "move_swap_rows",
    ),
    "linalg": (
        "Mat",
        "conj_transpose",
        "det",
        "gram",
        "hermitian_inner",
        "kernel_basis",
        "mat",
        "parse_matrix",
        "rank",
    ),
    "verify": ("VerificationReport", "verify_classification"),
}

# Public name -> the module that defines it.
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
