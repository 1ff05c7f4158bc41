"""Staircase parking functions, their outcomes, and bijections to set partitions.

A staircase (Lehmer) preference tuple satisfies a_i <= n - i + 1.  Parking all
n! of them yields Bell-many distinct outcome permutations; this package builds
the outcomes, the arm-leg diagrams that characterize them, the bijections to
g-augmented balanced spaced parenthesizations and to set partitions, and an
exhaustive small-n verification harness for every claim in between.
"""

from .armleg import (
    GridPoint,
    PartialArmLegDiagram,
    arms_legs,
    depth_at,
    is_intersecting,
    peaks,
    peaks_from_pairs,
)
from .bijection import (
    OutcomePermutation,
    fiber,
    fiber_size,
    outcome_to_partition,
    partition_to_outcome,
    phi,
    phi_prime,
    phi_prime_inv,
)
from .enumeration import (
    VerificationReport,
    all_lehmer,
    bell,
    catalan,
    iter_outcome_words,
    outcome_peak_counts,
    outcome_set,
    outcome_words,
    theorem_ids,
    verify,
)
from .errors import GbspError, LehmerError, ParseError
from .paren import (
    GBsp,
    MatchedPairs,
    SpacedParen,
    depth,
    depths,
    enumerate_bsps,
    enumerate_gbsps,
    is_balanced,
    matching_pairs,
    parse,
    render,
)
from .parking import (
    ParkOutcome,
    PrefTuple,
    canonical_lehmer_preimage,
    is_lehmer,
    is_parking_function,
    is_weakly_decreasing,
    lehmer_from_inversion_table,
    park,
)
from .permutation import (
    InversionTable,
    Permutation,
    contains_armleg_pattern,
    contains_pattern_132,
    from_inversion_table,
    identity,
    inverse,
    inversion_table,
)
from .setpartition import SetPartition, enumerate_partitions, from_gbsp, min_max, to_gbsp

__version__ = "0.1.0"
