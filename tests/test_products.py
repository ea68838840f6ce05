from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutstack.afs4 import AfsParams, ConstRule, HScaleRule, RatioCycleRule
from cutstack.errors import CertificateError
from cutstack.products import (MEMBER, NON_MEMBER, REGIME_CONS_NOT_ERG,
                               REGIME_ERGODIC, REGIME_NOT_CONS, REGIME_UNKNOWN,
                               UNKNOWN, classify, divisibility_condition,
                               gap_condition, k_intervals, lambda_set,
                               limit_ratio_membership,
                               nonconservativity_base_stage, simultaneous_hits,
                               triple_return_set)
from cutstack.runs import RunSet
from cutstack.synthesis import DirectionSpec, synthesize_R, synthesize_three_way
from cutstack.tower import (LevelSet, apply_power, decompose, return_support,
                            triple_correlation)

half = Fraction(1, 2)
third = Fraction(1, 3)


def test_gap_condition_examples(example_family, preset_family):
    assert gap_condition(example_family, 0, 1, 2)  # |5 - 8| = 3 <= 3
    assert gap_condition(example_family, 0, 1, 1)  # zero-free |4-5|=1 <= 2
    fam = AfsParams(HScaleRule(1), ConstRule(10),
                    RatioCycleRule((Fraction(1, 2),)), ConstRule(20))
    # q_n = 2 p_n exactly: discrepancy 0
    assert gap_condition(fam, 2, 1, 2)
    # preset keeps |q_n - 2 p_n| = H_n + 3 h_n - 1 above 3 h_n from stage 1 on
    for n in range(1, 7):
        assert not gap_condition(preset_family, n, 1, 2)


def test_gap_condition_large_gap():
    fam = AfsParams(ConstRule(0), ConstRule(0), HScaleRule(4), ConstRule(0))
    # q_n - 2 p_n = 4 h_n - H_n + ... exceeds 3 h_n at stage 0: |q-2p|=|5-2|=3>3? check exact
    sp = fam.params(0)
    expect = abs(1 * sp.q - 2 * sp.p) <= 3 * fam.marker(0)
    assert gap_condition(fam, 0, 1, 2) == expect


def test_divisibility_examples(example_family):
    fam = example_family  # p_0 = 4, q_0 = 5
    assert divisibility_condition(fam, 0, 4, 5, 0, 0) == 1
    assert divisibility_condition(fam, 0, 1, 2, 0, 0) is None
    assert divisibility_condition(fam, 0, 2, 3, 2, 4) == 3  # (5+4)/3 = (4+2)/2


def test_divisibility_synthetic():
    fam = AfsParams(ConstRule(3), ConstRule(2), ConstRule(5), ConstRule(1))
    sp = fam.params(0)
    assert (sp.p, sp.q) == (4, 6)
    assert divisibility_condition(fam, 0, 2, 3, 0, 0) == 2
    assert divisibility_condition(fam, 0, 1, 2, 0, 0) is None  # 4/1 != 6/2
    assert divisibility_condition(fam, 0, 1, 2, 1, 4) == 5


def test_k_intervals_example(example_family):
    tbl = k_intervals(example_family, 0)
    assert tbl.off_diagonal == {(1, 2): (3, 5), (2, 3): (10, 12), (3, 4): (4, 6),
                                (1, 3): (14, 16), (2, 4): (15, 17), (1, 4): (19, 21)}
    assert tbl.diagonal == (0, 1)
    assert all(hi - lo == 2 * tbl.h for (lo, hi) in tbl.off_diagonal.values())


def test_simultaneous_hits_examples():
    assert set(simultaneous_hits(1, 2, (3, 5), (4, 6))) == {3}
    assert set(simultaneous_hits(1, 2, (3, 5), (19, 21))) == set()
    assert set(simultaneous_hits(1, 2, (10, 12), (19, 21))) == {10}
    dense = simultaneous_hits(1, 1, (5, 9), (7, 20))
    assert set(dense) == {7, 8, 9}


def test_simultaneous_hits_brute(roomy_family):
    for n in (0, 1):
        tbl = k_intervals(roomy_family, n)
        for (p, q) in [(1, 2), (2, 3), (1, 5)]:
            for ia in tbl.all_intervals():
                for ib in tbl.all_intervals():
                    got = set(simultaneous_hits(p, q, ia, ib))
                    brute = {i for i in range(1, ib[1] // q + 2)
                             if ia[0] <= i * p <= ia[1] and ib[0] <= i * q <= ib[1]}
                    assert got == brute


def test_lambda_set_matches_naive(roomy_family, roomy_naive):
    A = LevelSet.from_indices(roomy_family, 1, [0, 9])
    for (p, q) in [(1, 1), (1, 2), (2, 3)]:
        lam = lambda_set(roomy_family, p, q, A, 60)
        brute = roomy_naive.lambda_set(1, {0, 9}, p, q, 60)
        assert set(lam) == brute


def test_lambda_set_rigidity_returns(roomy_family):
    A = LevelSet.level(roomy_family, 1, 2)
    p0 = roomy_family.params(1).p
    lam = lambda_set(roomy_family, 1, 1, A, p0 + 5)
    assert p0 in lam
    assert lambda_set(roomy_family, 1, 2, A, 0).is_empty()


def test_lambda_set_variant_targets(roomy_family, roomy_naive):
    A = LevelSet.level(roomy_family, 1, 1)
    TA = apply_power(A, 1)
    lam = lambda_set(roomy_family, 1, 2, A, 50, targets=(TA, A))
    brute = roomy_naive.lambda_set(1, {1}, 1, 2, 50, target1=(1, {2}), target2=(1, {1}))
    assert set(lam) == brute


def test_triple_return_set(roomy_family, roomy_naive):
    A = LevelSet.from_indices(roomy_family, 1, [0, 4, 9])
    got = triple_return_set(roomy_family, 1, 2, A, 60)
    brute = {i for i in range(1, 61)
             if roomy_naive.triple_correlation(1, {0, 4, 9}, 1, 2, i) > 0}
    assert set(got) == brute


def _oracle_lambda(p, q, A, horizon, targets=None):
    """The support-intersection composition: both coordinate return supports
    in full, then the i whose p i and q i hit them."""
    B1, B2 = targets if targets is not None else (A, A)
    J1 = return_support(A, B1, p, p * horizon)
    J2 = return_support(A, B2, q, q * horizon)
    return RunSet.from_indices(i for i in range(1, horizon + 1)
                               if p * i in J1 and q * i in J2)


def _lambda_case(data, fam):
    """A (possibly letter-constrained), optional targets at their own stages,
    powers 1..4 in either order, and a horizon that may sit near an edge
    where a walk's lift stage changes."""
    first = fam.first_stage

    def level_set(stage):
        h = fam.height(stage)
        idx = data.draw(st.sets(st.integers(0, min(h, 50) - 1), min_size=1, max_size=3))
        S = LevelSet.from_indices(fam, stage, idx)
        if data.draw(st.booleans()):
            t = data.draw(st.integers(stage, first + 3))
            r = fam.cuts_between(t)
            S = S.constrain(t, tuple(data.draw(st.sets(st.integers(0, r - 1),
                                                       min_size=1, max_size=r - 1))))
        return S

    A = level_set(data.draw(st.integers(first, first + 2)))
    targets = None
    if data.draw(st.booleans()):
        targets = tuple(level_set(data.draw(st.integers(first, first + 2)))
                        for _ in range(2))
    p, q = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    if data.draw(st.booleans()):
        horizon = data.draw(st.integers(0, 400))
    else:
        # about where the walk of the larger power first lifts: A's top index
        # plus max(p, q) * horizon leaves the column of the highest stage
        n0 = max([A.stage] + [B.stage for B in targets or ()])
        top = decompose(A, n0).max_index()
        edge = -((top - fam.height(n0)) // max(p, q))
        horizon = max(0, edge + data.draw(st.integers(-15, max(edge, 0) + 15)))
    return p, q, A, horizon, targets


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_lambda_set_matches_support_oracle(example_family, roomy_family, vl_small,
                                           preset_family, data):
    fam = data.draw(st.sampled_from([example_family, roomy_family, vl_small,
                                     preset_family]))
    p, q, A, horizon, targets = _lambda_case(data, fam)
    assert lambda_set(fam, p, q, A, horizon, targets) == \
        _oracle_lambda(p, q, A, horizon, targets)


def test_lambda_set_lifts_each_coordinate_for_its_power(example_family):
    # 2 i leaves the stage-1 column while i still fits: each coordinate's
    # walk must start at the stage valid for its own power times the horizon
    A = LevelSet.level(example_family, 1, 0)
    for p, q in ((1, 2), (2, 1)):
        lam = lambda_set(example_family, p, q, A, 100)
        assert len(lam) == 5 and lam == _oracle_lambda(p, q, A, 100)


def test_triple_return_set_matches_support_oracle(example_family, roomy_family):
    def R(*idx):
        return LevelSet.from_indices(roomy_family, 1, idx)

    def E(*idx):
        return LevelSet.from_indices(example_family, 1, idx)

    # p = q, p < q, p > q; every case has candidates the refinement drops or keeps
    cases = [(roomy_family, R(0, 4, 9), 1, 1, 100), (roomy_family, R(0, 4, 9), 1, 2, 600),
             (roomy_family, LevelSet.from_ranges(roomy_family, 1, [(3, 12)]), 2, 3, 600),
             (example_family, E(0, 5, 22), 1, 3, 60), (example_family, E(0, 5, 22), 2, 1, 60)]
    for fam, A, p, q, horizon in cases:
        expect = {i for i in _oracle_lambda(p, q, A, horizon)
                  if triple_correlation(A, p, q, i) > 0}
        assert set(triple_return_set(fam, p, q, A, horizon)) == expect


def test_lambda_set_deep_horizon(preset_family, deadline):
    A = LevelSet.level(preset_family, 4, 0)
    with deadline(0.5):
        assert lambda_set(preset_family, 1, 2, A, preset_family.marker(14) // 2).is_empty()


def test_k_table_covers_lambda_window(preset_family, wmin_family):
    # The interval table is a statement about admissible families: the l and m
    # growth keeps every in-window shift resolvable one stage up, which is what
    # confines block meetings to the tabulated windows.
    pairs = [(p, q) for p in range(1, 7) for q in range(p + 1, 7) if p + q <= 7]
    for fam, top in ((preset_family, 5), (wmin_family, 5)):
        for n in range(1, top + 1):
            h_n, h_next = fam.marker(n), fam.marker(n + 1)
            D = LevelSet.bottom_block(fam, n, h_n)
            tbl = k_intervals(fam, n)
            for (p, q) in pairs:
                lam = lambda_set(fam, p, q, D, (h_next - 1) // q)
                window = lam.clamp(h_n // q + 1, (h_next - 1) // q)
                covered = RunSet(())
                for ia in tbl.all_intervals():
                    for ib in tbl.all_intervals():
                        covered = covered.union(simultaneous_hits(p, q, ia, ib))
                assert window.difference(covered).is_empty()


def test_nonconservativity_base_stage(preset_family):
    assert nonconservativity_base_stage(preset_family, 1, 2) == 3
    with pytest.raises(ValueError):
        nonconservativity_base_stage(preset_family, 2, 1)


def test_limit_ratio_membership():
    fam = AfsParams(HScaleRule(1), ConstRule(10),
                    RatioCycleRule((half, third)), ConstRule(20))
    assert limit_ratio_membership(fam, 1, 3)[0] == MEMBER
    assert limit_ratio_membership(fam, 1, 2)[0] == MEMBER
    assert limit_ratio_membership(fam, 1, 4)[0] == NON_MEMBER
    with pytest.raises(ValueError):
        limit_ratio_membership(fam, 3, 2)
    prefix_fam = AfsParams(ConstRule(3), ConstRule(10), ConstRule(4), ConstRule(20))
    fixed = AfsParams(HScaleRule(1), ConstRule(10),
                      RatioCycleRule((half,)), ConstRule(20))
    assert limit_ratio_membership(fixed, 1, 3)[0] == NON_MEMBER
    assert limit_ratio_membership(fixed, 1, 2)[0] == MEMBER
    # constant-spacer rules accumulate at 1 only
    assert limit_ratio_membership(prefix_fam, 1, 1)[0] == MEMBER
    assert limit_ratio_membership(prefix_fam, 1, 2)[0] == NON_MEMBER


def test_classify_preset(preset_family):
    v = classify(preset_family, 1, 2)
    assert v.regime == REGIME_NOT_CONS and v.basis == "certificate"
    assert v.exceptional_stages == (0,)
    v = classify(preset_family, 2, 4)
    assert v.regime == REGIME_NOT_CONS and v.reduced == (1, 2)
    v = classify(preset_family, 1, 1)
    assert v.regime == REGIME_ERGODIC and v.basis == "certificate"
    v = classify(preset_family, 1, 1, negative_first=True)
    assert v.regime == REGIME_UNKNOWN
    v = classify(preset_family, 3, 1)
    assert v.swapped and v.regime == REGIME_NOT_CONS
    v = classify(preset_family, 1, 2, negative_first=True)
    assert v.regime == REGIME_UNKNOWN


def test_classify_synthesized_ergodic():
    fam, trace = synthesize_R(DirectionSpec(ratios=(half,)), 8)
    v = classify(fam, 1, 2, trace=trace)
    assert v.regime == REGIME_ERGODIC and v.basis == "certificate"
    v = classify(fam, 1, 2, negative_first=True)
    assert v.regime == REGIME_ERGODIC  # certified for the inverse first power too
    v = classify(fam, 1, 3)
    assert v.regime == REGIME_UNKNOWN and v.basis == "prefix-evidence"


def test_classify_three_way():
    spec = DirectionSpec(ratios=(half,), ergodic_subset=())
    fam, _ = synthesize_three_way(spec, 8)
    v = classify(fam, 1, 2)
    assert v.regime == REGIME_CONS_NOT_ERG and v.basis == "certificate"


def test_classify_complement_certificate():
    S = (Fraction(2, 5), Fraction(1, 4), Fraction(2, 3), Fraction(3, 5),
         Fraction(1, 5), Fraction(3, 4), Fraction(1, 6))
    fam, _ = synthesize_R(DirectionSpec(ratios=(half, third), complement=S), 12)
    v = classify(fam, 2, 5)
    assert v.regime == REGIME_NOT_CONS and v.basis == "certificate"


def test_classify_prefix_evidence(example_family):
    v = classify(example_family, 1, 2, horizon=40)
    assert v.regime == REGIME_UNKNOWN and v.basis == "prefix-evidence"


def test_classify_rejects_bad_trace(example_family):
    fam, trace = synthesize_R(DirectionSpec(ratios=(half,)), 6)
    with pytest.raises(CertificateError):
        classify(example_family, 1, 2, trace=trace)
