#!/usr/bin/env python3
"""Exact return-time computations at astronomically large horizons.

For the stock preset family this prints, per stage M up to 14, the horizon
h_M / 2, the (empty) simultaneous return set of T x T^2 -- the computation
behind the non-conservativity verdict -- and, while M <= 8, the sizes of the
two coordinate return supports of the base block, which the simultaneous set
never builds. For a three-regime family it shows the plain returns appearing
while the one-level-slip variant stays empty, which is the non-ergodicity
mechanism. Everything is exact integer arithmetic; no horizon
is ever scanned lag by lag.

Run: python scripts/return_time_atlas.py
"""

import time
from fractions import Fraction

from cutstack import (DirectionSpec, LevelSet, apply_power, lambda_set,
                      preset_infinite_ergodic_index, return_support,
                      synthesize_three_way)
from cutstack.products import nonconservativity_base_stage


def preset_section():
    fam = preset_infinite_ergodic_index(9)
    N = nonconservativity_base_stage(fam, 1, 2)
    A = LevelSet.level(fam, N + 1, 0)
    print(f"preset family, base block at stage {N + 1}")
    t0 = time.time()
    for M in range(N + 1, 15):
        horizon = fam.marker(M) // 2
        sizes = ""
        if M <= 8:  # the coordinate supports themselves grow ~10x per stage
            sup1 = return_support(A, A, 1, horizon)
            sup2 = return_support(A, A, 2, 2 * horizon)
            sizes = f" supports |J_p|={len(sup1)} |J_q|={len(sup2)}"
        lam = lambda_set(fam, 1, 2, A, horizon)
        print(f"  M={M}: horizon={horizon}{sizes} "
              f"simultaneous={'EMPTY' if lam.is_empty() else sorted(lam)[:4]}")
    print(f"  elapsed {time.time() - t0:.3f}s")


def three_way_section():
    fam, trace = synthesize_three_way(
        DirectionSpec(ratios=(Fraction(1, 2),), ergodic_subset=()), 8)
    N = nonconservativity_base_stage(fam, 1, 2, allow_exact=True)
    A = LevelSet.level(fam, N + 1, 0)
    TA = apply_power(A, 1)
    print(f"\nthree-regime family, base block at stage {N + 1}")
    for M in range(N + 1, 8):
        horizon = fam.marker(M) // 2
        plain = lambda_set(fam, 1, 2, A, horizon)
        slip = lambda_set(fam, 1, 2, A, horizon, targets=(TA, A))
        head = "EMPTY" if plain.is_empty() else f"first={plain.min()}"
        print(f"  M={M}: plain {head}; slip variant "
              f"{'EMPTY' if slip.is_empty() else 'NONEMPTY'}")
    exact = [r.n for r in trace.rows if r.mode == "exact"]
    print(f"  exact-proportionality stages in the prefix: {exact}")


if __name__ == "__main__":
    preset_section()
    three_way_section()
