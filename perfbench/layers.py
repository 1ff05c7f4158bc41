"""Names and units of the per-layer metrics that every traced run reports."""

from workloads import VERIFY_IDS

MODULES = ("parking", "permutation", "armleg", "paren", "setpartition", "bijection", "enumeration", "cli")
# constructor calls at the API boundary; their share of library time is validate_share
CONSTRUCTORS = ("parking.PrefTuple", "permutation.Permutation", "setpartition.SetPartition",
                "paren.GBsp", "bijection.certify")
SPANNED = ("enumeration.outcome_words", "setpartition.enumerate_partitions", "setpartition.to_gbsp",
           "setpartition.from_gbsp", "bijection.phi_prime", "bijection.phi_prime_inv",
           "permutation.inversion_table", "parking.park", "cli.parse", "cli.serialise",
           "cli.self") + CONSTRUCTORS
PROBED = ("parking.park", "permutation.inversion_table", "permutation.contains_armleg_pattern",
          "armleg.peaks", "armleg.peaks_from_pairs", "setpartition.to_gbsp", "setpartition.from_gbsp",
          "bijection.phi_prime", "bijection.phi_prime_inv", "bijection.certify")
PROBE_SIZES = (1000, 2000, 4000)

# Every traced run reports every one of these; a layer the workload bypasses reads 0.
PER_LAYER = {
    **{f"{m}.busy_s": "s" for m in MODULES},
    **{f"{m}.calls": "count" for m in MODULES},
    **{f"{m}.errors": "count" for m in MODULES},
    **{f"{name}.busy_s": "s" for name in SPANNED},
    "enumeration.outcome_words.outcomes_per_s": "1/s",
    **{f"enumeration.verify.{t}.busy_s": "s" for t in VERIFY_IDS},
    "enumeration.verify.objects": "count",
    "cli.lines_in": "count",
    "cli.lines_out": "count",
    "cli.import_s": "s",
    "validate_share": "ratio",
    "validate_base_s": "s",
    **{f"{name}.ms_per_obj": "ms" for name in PROBED},
    **{f"{name}.slope": "ratio" for name in PROBED},
    "replay.peak_rss_mb": "MB",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}
