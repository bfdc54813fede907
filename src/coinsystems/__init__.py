"""Tools for studying coin systems under greedy and optimal change-making.

A coin system is a strictly increasing tuple of denominations starting at 1
with an unlimited supply of each coin.  The package decides whether the
greedy algorithm is optimal for every amount (the system is then *orderly*),
locates minimal counterexamples, classifies small systems in closed form,
generates fixed-gap families with a prescribed orderliness pattern, and runs
exhaustive prefix-tree sweeps over bounded systems.
"""

from .core import (
    DEFAULT_VALUE_CAP,
    CoinSystem,
    Pattern,
    Representation,
    ResourceLimitError,
    greedy_count,
    greedy_representation,
    lex_smallest_optimal,
    opt_count,
)
from .canonicality import (
    InternalDisagreementError,
    disjoint_support_check,
    gap_filter,
    is_orderly,
    jump_filter,
    min_counterexample_oracle,
    one_point_check,
)
from .characterize import (
    classify6,
    implied_pattern,
    is_totally_orderly,
    orderly3,
    orderly4,
    orderly5,
    pattern,
    regenerate_six_value,
)
from .families import (
    FamilyParams,
    FixedGapSpec,
    family_membership,
    fixed_gap_prefix_check,
    gen_D,
    gen_E,
    gen_F,
    gen_fixed_gap,
    verify_target_pattern,
)
from .search import (
    ConjectureFinding,
    agreement_sweep,
    conjecture_scan,
    pattern_census,
    summarize_findings,
)

__all__ = [
    "CoinSystem",
    "ConjectureFinding",
    "DEFAULT_VALUE_CAP",
    "FamilyParams",
    "FixedGapSpec",
    "InternalDisagreementError",
    "Pattern",
    "Representation",
    "ResourceLimitError",
    "agreement_sweep",
    "classify6",
    "conjecture_scan",
    "disjoint_support_check",
    "family_membership",
    "fixed_gap_prefix_check",
    "gap_filter",
    "gen_D",
    "gen_E",
    "gen_F",
    "gen_fixed_gap",
    "greedy_count",
    "greedy_representation",
    "implied_pattern",
    "is_orderly",
    "is_totally_orderly",
    "jump_filter",
    "lex_smallest_optimal",
    "min_counterexample_oracle",
    "one_point_check",
    "opt_count",
    "orderly3",
    "orderly4",
    "orderly5",
    "pattern",
    "pattern_census",
    "regenerate_six_value",
    "summarize_findings",
    "verify_target_pattern",
]
