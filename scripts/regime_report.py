#!/usr/bin/env python3
"""Regime atlas for two-fold product powers.

Synthesizes a family whose ergodic product directions are exactly {1/2, 1/3},
a three-regime family (conservative-not-ergodic at 1/2, nothing ergodic), and
the stock preset, then classifies a grid of ratios for each. Every verdict is
certificate-backed where the recipe pins the tail down; everything printed is
exact.

Run: python scripts/regime_report.py
"""

from fractions import Fraction

from cutstack import (DirectionSpec, classify, preset_infinite_ergodic_index,
                      synthesize_R, synthesize_three_way)

RATIOS = [(1, 2), (1, 3), (2, 3), (2, 5), (3, 4), (1, 1), (3, 2)]

COMPLEMENT = tuple(Fraction(p, q) for p, q in
                   [(2, 5), (1, 4), (2, 3), (3, 5), (1, 5), (3, 4), (1, 6),
                    (4, 5), (1, 7), (5, 6), (2, 7), (3, 7)])


def show(label, family):
    print(f"\n== {label} (digest {family.digest()}) ==")
    for p, q in RATIOS:
        v = classify(family, p, q)
        extras = []
        if v.swapped:
            extras.append("swapped")
        if v.threshold is not None:
            extras.append(f"threshold={v.threshold}")
        if v.exceptional_stages:
            extras.append(f"exceptions={list(v.exceptional_stages)}")
        suffix = f" [{', '.join(extras)}]" if extras else ""
        print(f"  T^{p} x T^{q}: {v.regime} ({v.basis}){suffix}")


def main():
    targets = (Fraction(1, 2), Fraction(1, 3))
    fam, _ = synthesize_R(
        DirectionSpec(ratios=targets, complement=COMPLEMENT), 14)
    show("ergodic directions exactly {1/2, 1/3}", fam)

    tri, _ = synthesize_three_way(
        DirectionSpec(ratios=(Fraction(1, 2),), ergodic_subset=(),
                      complement=COMPLEMENT), 12)
    show("three-regime: R1 = {}, R2 = {1/2}", tri)

    show("stock preset (infinite ergodic index)", preset_infinite_ergodic_index(8))


if __name__ == "__main__":
    main()
