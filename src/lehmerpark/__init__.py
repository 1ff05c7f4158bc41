"""Staircase parking functions, their outcomes, and bijections to set partitions.

A staircase (Lehmer) preference tuple satisfies a_i <= n - i + 1.  Parking all
n! of them yields Bell-many distinct outcome permutations; this package builds
the outcomes, the arm-leg diagrams that characterize them, the bijections to
g-augmented balanced spaced parenthesizations and to set partitions, and an
exhaustive small-n verification harness for every claim in between.

Importing the package loads no submodule: each name below is imported from its
module on first use (PEP 562), so a CLI verb loads only the modules it runs.

`_EXPORTS` is the one list of the names each module exports.  The six object
modules (`armleg`, `bijection`, `paren`, `parking`, `permutation`,
`setpartition`) set their `__all__` to their row of it.  `enumeration` keeps a
literal `__all__`, as it also re-exports the names of `counting` and its
ceiling `_DP_MAX_N`, and so does `render`, which the package does not export by
name.
"""

from importlib import import_module

# module -> the names the package exports from it
_EXPORTS = {
    "armleg": (
        "GridPoint",
        "PartialArmLegDiagram",
        "arms_legs",
        "depth_at",
        "is_intersecting",
        "peaks",
        "peaks_from_pairs",
    ),
    "bijection": (
        "OutcomePermutation",
        "fiber",
        "fiber_size",
        "outcome_to_partition",
        "partition_to_outcome",
        "phi",
        "phi_prime",
        "phi_prime_inv",
    ),
    "counting": (
        "bell",
        "catalan",
        "iter_outcome_words",
        "outcome_peak_counts",
        "outcome_words",
    ),
    "enumeration": (
        "VerificationReport",
        "all_lehmer",
        "outcome_set",
        "theorem_ids",
        "verify",
    ),
    "errors": ("GbspError", "LehmerError", "ParseError"),
    "paren": (
        "GBsp",
        "MatchedPairs",
        "SpacedParen",
        "depth",
        "depths",
        "enumerate_bsps",
        "enumerate_gbsps",
        "is_balanced",
        "matching_pairs",
        "parse",
        "render",
    ),
    "parking": (
        "ParkOutcome",
        "PrefTuple",
        "canonical_lehmer_preimage",
        "is_lehmer",
        "is_parking_function",
        "is_weakly_decreasing",
        "lehmer_from_inversion_table",
        "park",
    ),
    "permutation": (
        "InversionTable",
        "Permutation",
        "contains_armleg_pattern",
        "contains_pattern_132",
        "from_inversion_table",
        "identity",
        "inverse",
        "inversion_table",
    ),
    "setpartition": ("SetPartition", "enumerate_partitions", "from_gbsp", "min_max", "to_gbsp"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

# the modules too, as the eager imports once bound them
__all__ = sorted([*_MODULE_OF, *_EXPORTS])

__version__ = "0.1.0"


def __getattr__(name: str):
    # an exported name, or a module of the table not yet imported (`lehmerpark.paren`)
    module = _MODULE_OF.get(name)
    if module is not None:
        value = getattr(import_module(f".{module}", __name__), name)
    elif name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
