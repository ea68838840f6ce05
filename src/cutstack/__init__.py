"""Exact-arithmetic cutting-and-stacking towers.

Two rank-one constructions over an infinite measure space, with every
measure-theoretic question about finite unions of levels answered in exact
rational arithmetic: correlations, product-power return-time sets at
astronomically large horizons, synthesis of families realizing prescribed
sets of ergodic product directions, regime classification of two-fold
product powers, series-based ergodic-index classification, and the witness
constructions behind the negative directions.
"""

from .afs4 import (AfsParams, ConstRule, HScaleRule, PrefixRule, RatioCycleRule,
                   WMinimalRule, preset_infinite_ergodic_index, validate_V, validate_W)
from .measure import format_rational, parse_rational
from .products import (KIntervalTable, Verdict, classify, divisibility_condition,
                       gap_condition, k_intervals, lambda_set,
                       limit_ratio_membership, simultaneous_hits, triple_return_set)
from .runs import RunSet
from .synthesis import (DirectionSpec, SynthesisTrace, block_partition,
                        pair_schedule, separation, synthesize_R,
                        synthesize_three_way)
from .tower import (Column, Family, LevelSet, apply_power, build_column,
                    correlation, correlation_profile, decompose,
                    intersection_measure, product_correlation, return_support,
                    triple_correlation)
from .vl import (IndependenceReport, VlFamily, VlSpec, WitnessPair, build_vl,
                 enumerate_vectors, independence_check, s_index, series_index,
                 sweep_probe, t_times, witness_sets, witness_verify,
                 witness_violations)

__all__ = [
    "AfsParams", "Column", "ConstRule", "DirectionSpec", "Family",
    "HScaleRule", "IndependenceReport", "KIntervalTable", "LevelSet",
    "PrefixRule", "RatioCycleRule", "RunSet",
    "SynthesisTrace", "Verdict", "VlFamily", "VlSpec", "WMinimalRule",
    "WitnessPair", "apply_power", "block_partition", "build_column",
    "build_vl", "classify", "correlation", "correlation_profile", "decompose",
    "divisibility_condition", "enumerate_vectors", "format_rational",
    "gap_condition", "independence_check", "intersection_measure",
    "k_intervals", "lambda_set", "limit_ratio_membership", "pair_schedule",
    "parse_rational", "preset_infinite_ergodic_index", "product_correlation",
    "return_support", "s_index", "separation", "series_index",
    "simultaneous_hits", "sweep_probe", "synthesize_R", "synthesize_three_way",
    "t_times", "triple_correlation", "triple_return_set", "validate_V",
    "validate_W", "witness_sets", "witness_verify", "witness_violations",
]
