from fractions import Fraction

import pytest

from cutstack.afs4 import (AfsParams, ConstRule, HScaleRule, PrefixRule,
                           RatioCycleRule, WMinimalRule, is_preset_rule,
                           preset_infinite_ergodic_index, rule_from_json,
                           validate_V, validate_W)
from cutstack.errors import PrefixExhausted, SchemaError
from cutstack.tower import LevelSet
from cutstack.vl import PrefixR, VlFamily, VlSpec


def test_derived_sequences(example_family):
    sp = example_family.params(0)
    assert (sp.p, sp.ell, sp.q, sp.m) == (4, 11, 5, 21)
    assert example_family.height(1) == 41
    assert example_family.marker(1) == 21
    sp1 = example_family.params(1)
    assert sp1.p == 41 + 3 and sp1.m == 41 + 20


def test_recurrences_match_internal_identity(example_family):
    for n in range(6):
        sp = example_family.params(n)
        assert example_family.marker(n + 1) == sp.p + sp.ell + sp.q + example_family.height(n)
        assert example_family.height(n + 1) == sp.p + sp.ell + sp.q + sp.m


def test_validate_W_boundary():
    # ell chosen exactly at the bound must fail the strict inequality.
    fam = AfsParams(ConstRule(3), PrefixRule((10, 131 - 41)), ConstRule(4),
                    ConstRule(20))
    report = validate_W(fam, 1)
    names = {(c.stage, c.name): c.passed for c in report.checks}
    assert names[(0, "ell_growth")] is True  # vacuous at stage 0
    assert names[(1, "ell_growth")] is False


def test_validate_V_ordering():
    ok = AfsParams(ConstRule(3), ConstRule(10), ConstRule(4), ConstRule(20))
    bad = AfsParams(ConstRule(4), ConstRule(10), ConstRule(3), ConstRule(20))
    assert all(c.passed for c in validate_V(ok, 0).checks if c.name == "p_le_q")
    assert not all(c.passed for c in validate_V(bad, 0).checks if c.name == "p_le_q")


def test_preset_examples():
    fam = preset_infinite_ergodic_index(6)
    sp0 = fam.params(0)
    assert (sp0.a, sp0.c) == (3, 4)
    assert (sp0.p, sp0.q) == (4, 5)
    assert abs(sp0.q - 2 * sp0.p) == 3 * fam.marker(0)
    assert validate_V(fam, 6).ok
    for n in range(7):
        sp = fam.params(n)
        assert sp.a == 3 * fam.marker(n) and sp.c == sp.a + 1
        assert abs(sp.q - 2 * sp.p) >= 3 * fam.marker(n)
    assert is_preset_rule(fam)


def test_p_ratio_nondecreasing_on_preset():
    fam = preset_infinite_ergodic_index(8)
    ratios = [Fraction(fam.params(n).p, fam.marker(n)) for n in range(1, 9)]
    assert all(a <= b for a, b in zip(ratios, ratios[1:]))


def test_prefix_rule_exhaustion():
    fam = AfsParams(PrefixRule((3, 3)), ConstRule(10), ConstRule(4), ConstRule(20))
    fam.ensure(2)
    with pytest.raises(PrefixExhausted):
        fam.ensure(3)


def test_constraint_past_a_prefix_is_refused():
    """A letter constraint names a transition the family must build, so one
    past the end of a prefix rule is refused, as for vl cut prefixes; it
    used to give a measure for a stage the family cannot build."""
    fam = AfsParams(PrefixRule((3, 3)), ConstRule(10), ConstRule(4), ConstRule(20))
    A = LevelSet.level(fam, 1, 0)
    assert A.constrain(1, (0,)).measure() == A.measure() / 4
    with pytest.raises(PrefixExhausted):
        A.constrain(2, (0,))
    vfam = VlFamily(VlSpec(2, PrefixR((4, 5))))
    with pytest.raises(SchemaError, match="cut prefix has 2 entries"):
        LevelSet.level(vfam, 1, 0).constrain(3, (0,))


def test_negative_rule_rejected():
    fam = AfsParams(ConstRule(3), ConstRule(10), RatioCycleRule((Fraction(2, 1),)),
                    ConstRule(20))
    with pytest.raises(SchemaError):
        fam.ensure(2)  # q_1 = p_1 / 2 is not an integer for odd p_1


def test_ratio_cycle_rule():
    fam = AfsParams(HScaleRule(1), ConstRule(10),
                    RatioCycleRule((Fraction(1, 2),)), ConstRule(20))
    for n in range(4):
        sp = fam.params(n)
        assert sp.q == 2 * sp.p
    assert fam.accumulation_ratios() == {Fraction(1, 2)}


def test_rule_json_round_trip():
    rules = [ConstRule(7), PrefixRule((1, 2, 3)), HScaleRule(3, 2, 1),
             WMinimalRule(), RatioCycleRule((Fraction(1, 2), Fraction(1, 3)))]
    for rule in rules:
        assert rule_from_json(rule.to_json()) == rule


def test_heights_match_oracle(example_naive, example_family):
    for n in range(1, 7):
        assert example_family.height(n) == example_naive.height(n)
        assert example_family.marker(n) == example_naive.marker_height(n)
        assert list(example_family.offsets_between(n - 1)) == \
            example_naive.copies_of_previous(n)
