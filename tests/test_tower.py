import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutstack.afs4 import AfsParams, ConstRule
from cutstack import engine
from cutstack.errors import LiftError, SchemaError
from cutstack.tower import (LevelSet, apply_power, build_column, check_tiling,
                            correlation, correlation_profile, decompose, heights,
                            intersection_measure, product_correlation,
                            return_support, triple_correlation)


def test_build_column_example(example_family):
    col = build_column(example_family, 1)
    assert col.height == 41
    assert col.embed_offsets == (0, 4, 15, 20)
    assert col.cuts == 4
    assert col.spacer_ranges == ((1, 4), (5, 15), (16, 20), (21, 41))


def test_base_column(example_family, vl_small):
    for fam in (example_family, vl_small):
        col = build_column(fam, fam.first_stage)
        assert (col.height, col.embed_offsets, col.cuts) == (1, (), 0)


def test_tiling_through_stage_8(preset_family, example_family):
    for fam in (preset_family, example_family):
        for n in range(fam.first_stage + 1, 9):
            check_tiling(fam.column(n), fam.height(n - 1))


def test_heights_example(example_family, vl_small):
    assert heights(example_family, 2) == [(1, 1), (41, 21), (201, 181)]
    assert heights(vl_small, 4) == [1, 8, 52, 314]
    assert vl_small.stack_height(1) == 4


def test_level_width(example_family, vl_small):
    assert example_family.level_width(2) == Fraction(1, 16)
    assert vl_small.level_width(3) == Fraction(1, 4)


def test_decompose_examples(example_family, vl_small):
    base = LevelSet.level(example_family, 0, 0)
    assert decompose(base, 1).indices() == [0, 4, 15, 20]
    assert decompose(base, 0) is not None and decompose(base, 0).runs == base.runs
    vbase = LevelSet.level(vl_small, 1, 0)
    assert decompose(vbase, 2).indices() == [0, 3]


def test_decompose_preserves_measure(example_family):
    A = LevelSet.from_indices(example_family, 1, [0, 7, 40])
    assert decompose(A, 4).measure() == A.measure()


def test_apply_power_examples(example_family):
    A = LevelSet.from_indices(example_family, 1, [0, 4, 15, 20])
    assert apply_power(A, 0).runs == A.runs
    shifted = apply_power(A, 4)
    assert shifted.indices() == [4, 8, 19, 24]
    assert apply_power(shifted, -4).runs == decompose(A, shifted.stage).runs


def test_apply_power_measure_and_inverse(example_family):
    rng = random.Random(3)
    for _ in range(20):
        stage = rng.randint(1, 2)
        idx = rng.sample(range(example_family.height(stage)), rng.randint(1, 4))
        A = LevelSet.from_indices(example_family, stage, idx)
        j = rng.randint(0, 60)
        image = apply_power(A, j)
        assert image.measure() == A.measure()
        back = apply_power(image, -j)
        assert back.measure() == A.measure()
        assert back.runs == decompose(A, back.stage).runs


def test_apply_power_bottom_negative_raises(example_family):
    bottom = LevelSet.level(example_family, 2, 0)
    with pytest.raises(LiftError):
        apply_power(bottom, -1)


def test_cap_messages_name_stage_and_size(example_family, monkeypatch):
    from cutstack.products import lambda_set
    A = LevelSet.from_indices(example_family, 1, [0, 5, 22])
    monkeypatch.setattr(engine, "STATE_CAP", 3)
    explosion = r"state explosion at stage \d+: \d+ states exceed STATE_CAP=3"
    with pytest.raises(LiftError, match=explosion):  # pair_diff_counts
        return_support(A, A, 0, 3000)
    with pytest.raises(LiftError, match=explosion):  # multi_diff_counts
        triple_correlation(A, 1, 2, 900)
    with pytest.raises(LiftError, match=explosion):  # the lockstep walk
        lambda_set(example_family, 1, 1, A, 3000)
    monkeypatch.setattr(engine, "LIFT_STAGE_CAP", 2)
    with pytest.raises(LiftError, match=r"LIFT_STAGE_CAP=2 stages of n0=1 for need=10000"):
        engine.minimal_valid_stage(example_family, 1, 10_000)


def test_level_set_stage_cap_precedes_materialization(vl_small):
    cap = engine.LIFT_STAGE_CAP
    fam = AfsParams(ConstRule(3), ConstRule(10), ConstRule(4), ConstRule(20))
    with pytest.raises(SchemaError, match=f"stage {cap + 1}: more than LIFT_STAGE_CAP={cap}"):
        LevelSet.level(fam, cap + 1, 0)
    assert not fam._stages  # nothing was materialized
    # the cap counts from the first stage, which is 1 for vector families
    with pytest.raises(SchemaError, match=f"stage {cap + 2}: .* first stage 1"):
        LevelSet.level(vl_small, cap + 2, 0)


def test_correlation_frozen_values(example_family):
    I = LevelSet.level(example_family, 0, 0)
    expected = {0: Fraction(1), 1: Fraction(0), 4: Fraction(1, 4),
                5: Fraction(1, 4), 21: Fraction(0), 24: Fraction(1, 16),
                100: Fraction(171, 1024)}
    for j, value in expected.items():
        assert correlation(I, I, j) == value
    A = LevelSet.from_indices(example_family, 1, [0, 2])
    B = LevelSet.level(example_family, 1, 5)
    assert correlation(A, B, 3) == Fraction(1, 4)
    assert correlation(A, B, 5) == Fraction(1, 4)


def test_correlation_identity_and_flip(example_family):
    rng = random.Random(11)
    for _ in range(15):
        stage = rng.randint(0, 2)
        h = example_family.height(stage)
        A = LevelSet.from_indices(example_family, stage,
                                  rng.sample(range(h), min(3, h)))
        B = LevelSet.from_indices(example_family, stage,
                                  rng.sample(range(h), min(3, h)))
        assert correlation(A, A, 0) == A.measure()
        j = rng.randint(-80, 80)
        assert correlation(A, B, j) == correlation(B, A, -j)


def test_correlation_lift_stage_independence(example_family):
    A = LevelSet.from_indices(example_family, 1, [0, 7])
    B = LevelSet.from_indices(example_family, 1, [3, 15])
    for j in (0, 4, 9, 33):
        base = correlation(A, B, j)
        lifted = correlation(decompose(A, 3), decompose(B, 3), j)
        assert base == lifted


def test_product_correlation(example_family):
    I = LevelSet.level(example_family, 0, 0)
    J = LevelSet.level(example_family, 1, 3)
    single = product_correlation([I], [I], [1], 4)
    assert single == correlation(I, I, 4)
    pair = product_correlation([I, J], [I, J], [1, 2], 2)
    assert pair == correlation(I, I, 2) * correlation(J, J, 4)
    assert product_correlation([I, J], [I, J], [1, 2], 1) == 0
    with pytest.raises(ValueError):
        product_correlation([I], [I, J], [1], 0)
    with pytest.raises(ValueError):
        product_correlation([I], [I], [0], 0)


def test_triple_correlation_frozen(example_family):
    A = LevelSet.from_indices(example_family, 1, [0, 4, 8, 15, 20])
    assert triple_correlation(A, 1, 2, 4) == Fraction(1, 4)
    assert triple_correlation(A, 1, 3, 15) == Fraction(1, 16)
    assert triple_correlation(A, 2, 3, 38) == Fraction(5, 256)
    assert triple_correlation(A, 1, 2, 1) == 0
    assert triple_correlation(A, 1, 2, 0) == A.measure()
    D1 = LevelSet.bottom_block(example_family, 1, 21)
    assert triple_correlation(D1, 1, 2, 1) == Fraction(19, 4)
    assert triple_correlation(D1, 1, 2, 8) == Fraction(5, 4)


def test_intersection_measure_matches_pairwise(example_family):
    A = LevelSet.from_indices(example_family, 1, [0, 4])
    B = LevelSet.level(example_family, 1, 9)
    for j in (0, 3, 5, 12):
        assert intersection_measure([A, B], [j, 0]) == correlation(A, B, j)


def test_return_support_window(example_family, example_naive):
    I = LevelSet.level(example_family, 0, 0)
    sup = return_support(I, I, -60, 60)
    for j in range(-60, 61):
        assert (j in sup) == (example_naive.correlation(0, {0}, 0, {0}, j) > 0)


def _random_runs(rng, top, nruns):
    """nruns disjoint, non-touching runs of 1-3 levels inside [0, top)."""
    starts = sorted(rng.sample(range(0, top, 5), nruns))
    return [(s, s + rng.randint(1, 3)) for s in starts]


# (fixture name, stage, sets live in [0, top), every |j| <= reach stays valid)
@pytest.mark.parametrize("name, stage, top, reach",
                         [("roomy", 2, 1600, 780), ("example", 3, 500, 360)])
def test_wide_level_sets_match_naive(request, name, stage, top, reach):
    fam = request.getfixturevalue(f"{name}_family")
    naive = request.getfixturevalue(f"{name}_naive")
    rng = random.Random(11)
    for nruns in (10, 25, 40):
        A = LevelSet.from_ranges(fam, stage, _random_runs(rng, top, nruns))
        B = LevelSet.from_ranges(fam, stage, _random_runs(rng, top, rng.randint(10, 40)))
        a_idx, b_idx = set(A.indices()), set(B.indices())
        lo = rng.randint(-reach, reach - 60)
        for lo, hi in [(lo, lo + 60), (-30, 30), (-reach, -reach + 40)]:
            sup = return_support(A, B, lo, hi)
            for j in range(lo, hi + 1):
                want = naive.correlation(stage, a_idx, stage, b_idx, j)
                assert correlation(A, B, j) == want
                assert (j in sup) == (want > 0)


def test_cross_stage_correlation_vl(vl_small, vl_small_naive):
    rng = random.Random(5)
    for _ in range(25):
        sa, sb = rng.randint(1, 3), rng.randint(1, 4)
        ha, hb = vl_small.height(sa), vl_small.height(sb)
        A = sorted(rng.sample(range(ha), min(3, ha)))
        B = sorted(rng.sample(range(hb), min(4, hb)))
        j = rng.randint(-60, 120)
        got = correlation(LevelSet.from_indices(vl_small, sa, A),
                          LevelSet.from_indices(vl_small, sb, B), j)
        assert got == vl_small_naive.correlation(sa, set(A), sb, set(B), j)



def _profile_case(data, fam):
    """Two level sets (A possibly letter-constrained) and a lag grid."""
    def level_set(stage):
        h = fam.height(stage)
        idx = data.draw(st.sets(st.integers(0, min(h, 60) - 1), min_size=1, max_size=4))
        return LevelSet.from_indices(fam, stage, idx)
    first = fam.first_stage
    A = level_set(data.draw(st.integers(first, first + 2)))
    B = level_set(data.draw(st.integers(first, first + 2)))
    if data.draw(st.booleans()):
        t = data.draw(st.integers(A.stage, first + 3))
        r = fam.cuts_between(t)
        A = A.constrain(t, tuple(data.draw(st.sets(st.integers(0, r - 1),
                                                   min_size=1, max_size=r))))
    lo = data.draw(st.integers(-150, 120))
    hi = lo + data.draw(st.integers(-1, 160))
    return A, B, lo, hi, data.draw(st.integers(1, 3))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_correlation_profile_matches_per_lag(example_family, roomy_family, vl_small, data):
    fam = data.draw(st.sampled_from([example_family, roomy_family, vl_small]))
    A, B, lo, hi, step = _profile_case(data, fam)
    assert correlation_profile(A, B, lo, hi, step) == \
        [correlation(A, B, j) for j in range(lo, hi + 1, step)]


def test_correlation_profile_cases(example_family, vl_small):
    fam = example_family
    I = LevelSet.level(fam, 0, 0)
    A = LevelSet.from_indices(fam, 1, [0, 2, 30])
    B = LevelSet.from_ranges(fam, 2, [(5, 9), (100, 104)])
    C = A.constrain(1, (0, 3)).constrain(2, (1, 2))
    # the lift stage of the largest lag is not the one of the smallest
    n0 = A.stage
    M = [engine.minimal_valid_stage(fam, n0, A.max_index() + j) for j in range(400)]
    boundary = next(j for j in range(1, 400) if M[j] != M[j - 1])
    cases = [(I, I, -40, 40), (A, B, -90, 70), (B, A, -3, 0), (C, B, -60, 60),
             (B, C, 0, 120), (A, B, boundary - 20, boundary + 20), (A, A, 5, 4)]
    for X, Y, lo, hi in cases:
        for step in (1, 2, 7):
            assert correlation_profile(X, Y, lo, hi, step) == \
                [correlation(X, Y, j) for j in range(lo, hi + 1, step)]
    empty = LevelSet(fam, 1, ())
    assert correlation_profile(empty, A, -2, 2) == [0] * 5
    V = LevelSet.from_indices(vl_small, 2, [0, 3, 5])
    assert correlation_profile(V, V, -30, 30) == \
        [correlation(V, V, j) for j in range(-30, 31)]
    with pytest.raises(ValueError):
        correlation_profile(A, B, 0, 5, 0)


def test_correlation_profile_matches_naive(roomy_family, roomy_naive):
    rng = random.Random(17)
    for nruns in (1, 6, 20):
        A = LevelSet.from_ranges(roomy_family, 2, _random_runs(rng, 1600, nruns))
        B = LevelSet.from_ranges(roomy_family, 1, _random_runs(rng, 400, 4))
        a_idx, b_idx = set(A.indices()), set(B.indices())
        lo, hi = -300, 300
        got = correlation_profile(A, B, lo, hi)
        assert got == [roomy_naive.correlation(2, a_idx, 1, b_idx, j)
                       for j in range(lo, hi + 1)]

@given(st.integers(min_value=-40, max_value=40),
       st.sets(st.integers(min_value=0, max_value=40), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_measure_preserved_property(j, idx):
    fam = AfsParams(ConstRule(3), ConstRule(10), ConstRule(4), ConstRule(20))
    A = LevelSet.from_indices(fam, 1, idx)
    if j < 0 and min(idx) + j < 0:
        return
    assert apply_power(A, j).measure() == A.measure()


def test_concurrent_column_cache():
    from concurrent.futures import ThreadPoolExecutor

    fam = AfsParams(ConstRule(3), ConstRule(10), ConstRule(4), ConstRule(20))
    with ThreadPoolExecutor(max_workers=8) as pool:
        cols = list(pool.map(lambda n: fam.column(n % 7), range(56)))
    for col in cols:
        assert col is fam.column(col.stage)
