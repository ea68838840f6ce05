"""Command-line interface.

Subcommands: build, synthesize, classify, correlate, witness. Family files
in, deterministic reports and CSV out. Exit codes: 0 success (for classify:
ergodic), 2 parse/validation/precondition errors, and for classify the
regime encoding 0 / 3 / 4 / 5 (ergodic / conservative-not-ergodic /
not-conservative / unknown-at-horizon); re-check failures exit 1.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from math import prod
from pathlib import Path

from . import vl as vlmod
from .afs4 import AfsParams, validate_V
from .errors import CertificateError, CutstackError
from .familyfile import Report, csv_text, load_family, save_family
from .measure import format_rational, parse_reduced_unit_fraction
from .products import classify
from .synthesis import DirectionSpec, synthesize_R, synthesize_three_way
from .tower import LevelSet, build_column, correlation_profile


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_build(args) -> int:
    family = load_family(args.family)
    if args.stage < family.first_stage:
        raise CutstackError(f"--stage {args.stage} is below the family's first stage "
                            f"{family.first_stage}")
    report = Report(f"build stage={args.stage}", family)
    for n in range(family.first_stage, args.stage + 1):
        col = build_column(family, n)
        report.add(f"stage.{n}.height", col.height)
        if hasattr(family, "marker"):
            report.add(f"stage.{n}.marker", family.marker(n))
        report.add(f"stage.{n}.offsets", list(col.embed_offsets))
        report.add(f"stage.{n}.spacers", [list(r) for r in col.spacer_ranges])
    if isinstance(family, AfsParams):
        report.add("admissible.V", validate_V(family, args.stage).ok)
    _emit(report.finish("ok"), args.out)
    return 0


def _parse_ratio_list(items: list[str]) -> tuple[Fraction, ...]:
    return tuple(parse_reduced_unit_fraction(s) for s in items)


def cmd_synthesize(args) -> int:
    ratios = _parse_ratio_list(args.R or [])
    complement = _parse_ratio_list(args.S or [])
    if args.mode == "three-way":
        subset = _parse_ratio_list(args.R1 or [])
        spec = DirectionSpec(ratios=ratios, complement=complement,
                             ergodic_subset=subset,
                             complement_complete=args.S_complete)
        family, trace = synthesize_three_way(spec, args.stages)
    else:
        spec = DirectionSpec(ratios=ratios, complement=complement,
                             complement_complete=args.S_complete)
        family, trace = synthesize_R(spec, args.stages)
    save_family(family, args.out)
    report = Report(f"synthesize mode={args.mode} stages={args.stages}", family)
    for row in trace.rows:
        if row.mode == "preset":
            report.add(f"stage.{row.n}", "preset")
        else:
            report.add(
                f"stage.{row.n}",
                f"mode={row.mode} target={format_rational(row.target)} "
                f"i={row.i} j={row.j} k={row.k} l={row.l} "
                f"delta={format_rational(row.delta)} t={row.t} "
                f"p_n={row.p_n} q_n={row.q_n}")
    report.add("emitted", args.out)
    _emit(report.finish("ok"), args.report)
    return 0


def _parse_pair(text: str) -> tuple[int, int]:
    try:
        p_s, q_s = text.split("/")
        p, q = int(p_s), int(q_s)
    except ValueError:
        raise ValueError(f"--ratio {text!r}: expected p/q with integers p and q") from None
    if p < 1 or q < 1:
        raise ValueError("ratio must have positive parts")
    return p, q


def cmd_classify(args) -> int:
    family = load_family(args.family)
    if not isinstance(family, AfsParams):
        raise CutstackError("classification applies to four-cut families")
    p, q = _parse_pair(args.ratio)
    verdict = classify(family, p, q, horizon=args.horizon,
                       negative_first=args.negative_first)
    report = Report(f"classify ratio={args.ratio} horizon={args.horizon}", family)
    report.add("regime", verdict.regime)
    report.add("basis", verdict.basis)
    report.add("reduced", f"{verdict.reduced[0]}/{verdict.reduced[1]}")
    report.add("swapped", verdict.swapped)
    if verdict.threshold is not None:
        report.add("threshold", verdict.threshold)
    if verdict.exceptional_stages:
        report.add("exceptional_stages", list(verdict.exceptional_stages))
    for idx, fact in enumerate(verdict.facts):
        report.add(f"fact.{idx}", fact)
    _emit(report.finish(verdict.regime), args.out)
    return verdict.exit_code


def _parse_level_set(family, flag: str, text: str) -> LevelSet:
    """stage:idx1,idx2,... or stage:lo-hi for a contiguous block."""
    stage_s, colon, idx_s = text.partition(":")
    try:
        if not colon:
            raise ValueError
        stage = int(stage_s)
        ranges = []
        for chunk in idx_s.split(","):
            lo_s, dash, hi_s = chunk.partition("-")
            lo = int(lo_s)
            hi = int(hi_s) if dash else lo
            if hi < lo:
                raise ValueError
            ranges.append((lo, hi + 1))
    except ValueError:
        raise ValueError(f"{flag} {text!r}: expected stage:idx[,idx|lo-hi]") from None
    return LevelSet.from_ranges(family, stage, ranges)


def cmd_correlate(args) -> int:
    family = load_family(args.family)
    sets = [_parse_level_set(family, "--set", s) for s in args.set]
    targets = ([_parse_level_set(family, "--target", s) for s in args.target]
               if args.target else sets)
    powers = [int(s) for s in args.powers.split(",")]
    if len(targets) != len(sets) or len(powers) != len(sets):
        raise CutstackError("need matching --set/--target/--powers arities")
    if 0 in powers:
        raise ValueError("powers must be nonzero")
    try:
        lo_s, hi_s = args.range.split("..")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise ValueError(f"--range {args.range!r}: expected a..b with integers a and b") \
            from None
    if hi - lo + 1 > args.max_rows:
        raise CutstackError(f"range wider than {args.max_rows} rows; "
                            "narrow it or raise --max-rows")
    # one profile per coordinate over the lags p*[lo, hi], sampled at p*i
    columns = []
    for a, b, p in zip(sets, targets, powers):
        if p > 0:
            columns.append(correlation_profile(a, b, p * lo, p * hi, p))
        else:
            columns.append(correlation_profile(a, b, p * hi, p * lo, -p)[::-1])
    zero = format_rational(Fraction(0))
    rows = []
    for i, factors in zip(range(lo, hi + 1), zip(*columns)):
        if all(factors):
            rows.append([str(i), format_rational(prod(factors))])
        elif not args.positive_only:
            rows.append([str(i), zero])
    _emit(csv_text(["i", "correlation"], rows), args.out)
    return 0


def cmd_witness(args) -> int:
    family = load_family(args.family)
    if not isinstance(family, vlmod.VlFamily):
        raise CutstackError("witness construction applies to vl families")
    pair = vlmod.witness_sets(family, args.k, args.n, args.M)
    horizon = args.horizon if args.horizon is not None else family.height(args.M)
    violations = vlmod.witness_violations(pair, horizon)
    report = Report(f"witness k={args.k} n={args.n} M={args.M} horizon={horizon}",
                    family)
    report.add("mu_B", pair.measure_B())
    report.add("valid_horizon", pair.valid_horizon())
    report.add("violations", list(violations[:20]))
    text = report.finish("pass" if not violations else "fail")
    _emit(text, args.out)
    return 0 if not violations else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutstack",
        description="Exact-arithmetic cutting-and-stacking tower analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="materialize columns and report heights/offsets")
    p.add_argument("family")
    p.add_argument("--stage", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("synthesize", help="emit a family realizing a direction set")
    p.add_argument("--R", action="append", metavar="p/q",
                   help="target ratio (repeatable); R2 in three-way mode")
    p.add_argument("--R1", action="append", metavar="p/q",
                   help="ergodic subset for three-way mode (repeatable)")
    p.add_argument("--S", action="append", metavar="p/q",
                   help="complement enumeration prefix (repeatable)")
    p.add_argument("--S-complete", action="store_true",
                   help="declare the complement prefix complete")
    p.add_argument("--mode", choices=["ergodic-set", "three-way"],
                   default="ergodic-set")
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("classify", help="regime of T^p x T^q for a family")
    p.add_argument("family")
    p.add_argument("--ratio", required=True, metavar="p/q")
    p.add_argument("--horizon", type=int, default=0)
    p.add_argument("--negative-first", action="store_true",
                   help="classify T^-p x T^q instead")
    p.add_argument("--out")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("correlate", help="exact correlation CSV over a lag range")
    p.add_argument("family")
    p.add_argument("--set", action="append", required=True,
                   metavar="stage:idx[,idx|lo-hi]")
    p.add_argument("--target", action="append",
                   metavar="stage:idx[,idx|lo-hi]")
    p.add_argument("--powers", required=True, metavar="p1,p2,...")
    p.add_argument("--range", required=True, metavar="a..b",
                   help="inclusive lag range; a negative start needs --range=-a..b")
    p.add_argument("--positive-only", action="store_true")
    p.add_argument("--max-rows", type=int, default=100_000)
    p.add_argument("--out")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("witness", help="build and verify a non-ergodicity witness")
    p.add_argument("family")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--horizon", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_witness)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CertificateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CutstackError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
