from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutstack.afs4 import preset_infinite_ergodic_index, validate_V
from cutstack.errors import PrefixExhausted, SchemaError
from cutstack.synthesis import (SECOND_ROUND_COVER, DirectionSpec,
                                block_partition, block_position, pair_schedule,
                                schedule_round, separation, synthesize_R,
                                synthesize_three_way)

half = Fraction(1, 2)
third = Fraction(1, 3)


def test_block_partition_examples():
    assert block_partition(1, 1) == 1
    assert block_partition(2, 1) == 2
    assert block_partition(1, 2) == 3
    assert block_partition(3, 2) == 12


def test_block_partition_bijection():
    seen = sorted(block_partition(i, j)
                  for i in range(1, 8) for j in range(1, 40)
                  if block_partition(i, j) <= 64)
    assert seen == list(range(1, 65))


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=50))
@settings(max_examples=50, deadline=None)
def test_block_position_inverse(i, j):
    assert block_position(block_partition(i, j)) == (i, j)


def test_pair_schedule_examples():
    assert pair_schedule(1) == (0, 0)
    assert pair_schedule(2) == (0, 1)
    assert pair_schedule(3) == (1, 0)
    counts = Counter(pair_schedule(j) for j in range(1, SECOND_ROUND_COVER + 1))
    for k in range(4):
        for l in range(4 - k):
            assert counts[(k, l)] >= 2


def test_schedule_fairness_over_rounds():
    # After J full rounds, a pair of offset sum s has appeared J - max(s, 1) + 1 times.
    J = 6
    end = sum((m + 1) * (m + 2) // 2 for m in range(1, J + 1))
    counts = Counter(pair_schedule(j) for j in range(1, end + 1))
    for k in range(3):
        for l in range(3 - k):
            s = k + l
            assert counts[(k, l)] == J - max(s, 1) + 1
    assert schedule_round(end) == J


def test_schedule_matches_round_enumeration():
    # round m lists every (k, l) with k + l <= m, by sum and then by k
    visits = [(m, (k, s - k)) for m in range(1, 20)
              for s in range(m + 1) for k in range(s + 1)]
    for j, (m, pair) in enumerate(visits[:500], start=1):
        assert (schedule_round(j), pair_schedule(j)) == (m, pair)


def test_separation_examples():
    S = [third, Fraction(2, 3), Fraction(1, 4)]
    assert separation([half], S, 1, 2) == Fraction(1, 6)
    assert separation([half], [], 1, 5) == 1
    assert separation([third], [half], 1, 1, s_complete=True) == Fraction(1, 6)
    with pytest.raises(PrefixExhausted):
        separation([half], [third], 1, 2)


def test_direction_spec_validation():
    with pytest.raises(SchemaError):
        DirectionSpec(ratios=(Fraction(1, 1),))
    with pytest.raises(SchemaError):
        DirectionSpec(ratios=(half,), complement=(half,))
    with pytest.raises(SchemaError):
        DirectionSpec(ratios=(half,), ergodic_subset=(third,))


def test_synthesize_R_basic():
    fam, trace = synthesize_R(DirectionSpec(ratios=(half,)), 9)
    assert validate_V(fam, 9).ok
    row = trace.row_for(1)
    assert row.mode == "ergodic" and (row.k, row.l) == (0, 0)
    assert row.q_n == 2 * row.p_n
    assert row.q_n > 2 * fam.marker(1)  # separation with delta = 1
    # stage 2 is unclaimed: preset filler
    assert trace.row_for(2).mode == "preset"
    trace.recheck(fam)


def test_synthesize_minimality():
    fam, trace = synthesize_R(DirectionSpec(ratios=(half,)), 5)
    row = trace.row_for(1)
    # any smaller t violates one of the recorded constraints
    t = row.t - 1
    p, q = t * row.j * 1, t * row.j * 2
    H, h = fam.height(1), fam.marker(1)
    assert (p < max(H, h)) or (q * row.delta <= 2 * h) or q < H


def test_synthesize_two_targets_with_complement():
    S = (Fraction(2, 5), Fraction(1, 4), Fraction(2, 3), Fraction(3, 5),
         Fraction(1, 5), Fraction(3, 4), Fraction(1, 6))
    spec = DirectionSpec(ratios=(half, third), complement=S)
    fam, trace = synthesize_R(spec, 12)
    assert validate_V(fam, 12).ok
    targets = {1: half, 2: third}
    for row in trace.rows:
        if row.mode == "ergodic":
            assert row.target == targets[row.i]
            P, Q = row.target.numerator, row.target.denominator
            assert (row.q_n + row.l) == row.t * row.j * Q
            assert (row.p_n + row.k) == row.t * row.j * P
    trace.recheck(fam)


def test_nonmember_gap_beyond_trace_threshold():
    # For s_v in the complement, synthesized stages past the (i + j <= v)
    # horizon keep |p q_n - q p_n| > (p + q) h_n.
    S = (Fraction(2, 5), Fraction(1, 4), Fraction(2, 3), Fraction(3, 5),
         Fraction(1, 5), Fraction(3, 4), Fraction(1, 6))
    fam, trace = synthesize_R(DirectionSpec(ratios=(half,), complement=S), 12)
    p, q = 2, 5
    for row in trace.rows:
        if row.mode == "ergodic" and row.i + row.j > 1:
            disc = abs(p * row.q_n - q * row.p_n)
            assert disc > (p + q) * fam.marker(row.n)


def test_three_way_modes():
    spec = DirectionSpec(ratios=(half, third), ergodic_subset=(third,))
    fam, trace = synthesize_three_way(spec, 10)
    for row in trace.rows:
        if row.target == half:
            assert row.mode == "exact" and (row.k, row.l) == (0, 0)
            assert row.q_n == 2 * row.p_n and row.q_n % 2 == 0
        elif row.target == third:
            assert row.mode == "ergodic"
    trace.recheck(fam)


def test_three_way_requires_subset():
    with pytest.raises(SchemaError):
        synthesize_three_way(DirectionSpec(ratios=(half,)), 4)


def test_degenerate_containment_matches_plain_synthesis():
    ratios = (half,)
    plain, _ = synthesize_R(DirectionSpec(ratios=ratios), 8)
    tri, trace = synthesize_three_way(
        DirectionSpec(ratios=ratios, ergodic_subset=ratios), 8)
    for n in range(9):
        assert plain.params(n) == tri.params(n)
    assert all(r.mode in ("ergodic", "preset") for r in trace.rows)


def test_growth_ratio_floor_on_synthesized():
    # The admissibility schema pins p_n/h_n >= n at every stage (the finite
    # certificate for unbounded growth); the ratio itself need not be
    # monotone, since target stages take the minimal admissible choice while
    # filler stages overshoot.
    fam, _ = synthesize_R(DirectionSpec(ratios=(half,)), 10)
    ratios = [Fraction(fam.params(n).p, fam.marker(n)) for n in range(1, 11)]
    assert all(r >= n for n, r in enumerate(ratios, start=1))
    assert not all(a <= b for a, b in zip(ratios, ratios[1:]))


def test_descriptor_rebuild_is_deterministic():
    spec = DirectionSpec(ratios=(half,), complement=(third,),
                         complement_complete=True)
    fam1, _ = synthesize_R(spec, 8)
    fam2, _ = synthesize_R(spec, 8)
    assert fam1.digest() == fam2.digest()
    for n in range(9):
        assert fam1.params(n) == fam2.params(n)


@pytest.mark.parametrize("family", ["preset", "ergodic-set", "three-way"])
def test_stage_params_are_w_minimal(family):
    """ell_n and m_n are the W-minimal values and preset stages take
    a_n = 3 h_n, c_n = a_n + 1 (validate_V checks only the inequalities)."""
    complement = (Fraction(2, 5), Fraction(1, 4))
    if family == "preset":
        fam, rows = preset_infinite_ergodic_index(12), None
    elif family == "ergodic-set":
        fam, trace = synthesize_R(DirectionSpec(ratios=(half, third), complement=complement,
                                                complement_complete=True), 12)
        rows = trace.rows
    else:
        fam, trace = synthesize_three_way(
            DirectionSpec(ratios=(half, third), ergodic_subset=(third,),
                          complement=complement, complement_complete=True), 12)
        rows = trace.rows
    for n in range(13):
        sp = fam.params(n)
        H, h = fam.height(n), fam.marker(n)
        assert sp.ell == max(H, n * (sp.p + sp.q + 2 * h) + 1)
        assert sp.m == max(H, n * fam.marker(n + 1) + 1)
        assert (sp.a, sp.b, sp.c, sp.d) == (sp.p - H, sp.ell - H, sp.q - H, sp.m - H)
        if rows is None or rows[n].mode == "preset":
            assert sp.a == 3 * h and sp.c == sp.a + 1
    if rows is not None:
        modes = {row.mode for row in rows}
        assert {"preset", "ergodic"} <= modes
        assert ("exact" in modes) == (family == "three-way")
