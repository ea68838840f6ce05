from fractions import Fraction
from itertools import combinations, islice, product

import pytest

from cutstack import vl
from cutstack.errors import SchemaError, UnsupportedRule
from cutstack.tower import LevelSet, build_column, correlation
from cutstack.vl import (ConstR, GeometricR, PowerR, PrefixR, VlFamily, VlSpec,
                         WitnessPair, build_vl, enumerate_vectors,
                         independence_check, r_value, s_index, series_index,
                         sweep_probe, t_times, tail_bound, vector_index,
                         witness_sets, witness_verify, witness_violations,
                         _int_nth_root)


def test_enumerate_vectors():
    assert [enumerate_vectors(1, j) for j in range(1, 4)] == [(1,), (2,), (3,)]
    # sum-then-lex order: after (1,2), (1,3) the two sum-5 tuples follow in
    # lexicographic order
    assert [enumerate_vectors(2, j) for j in range(1, 6)] == \
        [(1, 2), (1, 3), (1, 4), (2, 3), (1, 5)]
    for j in range(1, 101):
        assert vector_index(2, enumerate_vectors(2, j)) == j
        assert vector_index(3, enumerate_vectors(3, j)) == j


def test_vectors_by_sum_then_lexicographic():
    for L in range(1, 5):
        want = sorted((c for c in combinations(range(1, 25), L) if sum(c) <= 24),
                      key=lambda c: (sum(c), c))
        assert list(islice(vl._vectors(L), len(want))) == want


def test_enumerate_vectors_past_the_recursion_limit():
    """One recursion level per coordinate ended L = 1000 in RecursionError."""
    first, second = tuple(range(1, 1501)), tuple(range(1, 1500)) + (1501,)
    assert [enumerate_vectors(1500, j) for j in (1, 2)] == [first, second]
    assert [vector_index(1500, v) for v in (first, second)] == [1, 2]


def test_s_index_examples():
    assert s_index(1) == (1, 0)
    assert s_index(3) == (1, 1)
    assert s_index(2) == (2, 0)
    assert s_index(4) == (3, 0)


def test_s_progression_count():
    # occurrences of slot j among stages 1..N follow the arithmetic count
    for j in range(1, 5):
        for N in (7, 33, 64):
            count = sum(1 for n in range(1, N + 1) if s_index(n)[0] == j)
            expected = (N - (1 << (j - 1))) // (1 << j) + 1 if N >= 1 << (j - 1) else 0
            assert count == expected


def test_build_examples(vl_small):
    col = build_column(vl_small, 2)
    assert col.height == 8
    assert col.embed_offsets == (0, 3)
    assert col.spacer_ranges == ((1, 3), (4, 8))
    fam2 = VlFamily(VlSpec(2, ConstR(3)))
    assert fam2.height(2) == 16
    cols = build_vl(VlSpec(1, ConstR(2)), 4)
    assert [c.height for c in cols] == [1, 8, 52, 314]
    assert all(fam2.height(n) % 2 == 0 for n in range(2, 6))


def test_build_matches_naive(vl_small, vl_small_naive):
    for n in range(1, 7):
        assert vl_small.height(n) == vl_small_naive.height(n)
    for n in range(1, 6):
        assert list(vl_small.offsets_between(n)) == vl_small_naive.copies_of_previous(n + 1)


def test_height_recurrence_formula():
    for spec in (VlSpec(1, ConstR(2)), VlSpec(2, ConstR(4)),
                 VlSpec(2, GeometricR(6, 2))):
        fam = VlFamily(spec)
        L = spec.L
        for n in range(1, 6):
            r = fam.cuts_between(n)
            h = fam.height(n)
            sigma = sum(spec.s_of(n)[1])
            g = r * h + (r - L - 1) * ((2 * L + 1) * h + sigma) + (L * h + sigma)
            assert fam.height(n + 1) == 2 * g


def test_r_rules():
    assert r_value(ConstR(5), 3) == 5
    assert [r_value(PowerR(Fraction(1), Fraction(1, 2)), n) for n in (1, 4, 9, 10)] == \
        [1, 2, 3, 4]
    assert r_value(GeometricR(6, 2), 3) == 48
    assert r_value(PrefixR((4, 5)), 2) == 5
    with pytest.raises(SchemaError):
        r_value(PrefixR((4,)), 2)


def test_int_nth_root_exact():
    for n in range(1, 6):
        for x in range(3000):
            r = _int_nth_root(x, n)
            assert r ** n <= x < (r + 1) ** n
    for n in (2, 3, 7):
        for root in (10 ** 60, 10 ** 60 + 1, 3 ** 200 - 1):
            assert _int_nth_root(root ** n, n) == root
            assert _int_nth_root(root ** n - 1, n) == root - 1


def test_int_nth_root_large_square_is_fast(deadline):
    x = 10 ** 150 + 10 ** 140
    with deadline(0.5):
        assert _int_nth_root(x * x, 2) == x


def test_power_rule_beyond_float_range(deadline):
    with deadline(0.5):
        assert r_value(PowerR(Fraction(10 ** 400), Fraction(1, 2)), 4) == 2 * 10 ** 400
        assert r_value(PowerR(Fraction(10 ** 400, 3), Fraction(1, 3)), 8) == \
            -(-2 * 10 ** 400 // 3)


def test_rejects_small_or_decreasing_r():
    with pytest.raises(SchemaError):
        VlFamily(VlSpec(2, ConstR(2))).ensure(2)
    with pytest.raises(SchemaError):
        VlFamily(VlSpec(1, PrefixR((3, 2)))).ensure(3)
    fam = VlFamily(VlSpec(1, PrefixR((3, 2))))
    fam.ensure(2)  # the decrease spans two calls
    with pytest.raises(SchemaError, match="^stage 2: cut counts must be nondecreasing$"):
        fam.ensure(3)


def test_horizon_cap():
    fam = VlFamily(VlSpec(1, ConstR(2), horizon=3))
    fam.ensure(3)
    with pytest.raises(SchemaError):
        fam.ensure(4)
    for horizon in (0, -3):
        with pytest.raises(SchemaError, match=f"^horizon {horizon} is below the first stage 1$"):
            VlFamily(VlSpec(1, ConstR(2), horizon=horizon))


def test_vector_order_override():
    fam = VlFamily(VlSpec(1, ConstR(2), vector_order=((2,), (5,))))
    assert fam.spec.s_of(1) == (1, (2,))
    assert fam.spec.s_of(2) == (2, (5,))
    with pytest.raises(SchemaError):
        fam.spec.s_of(4)  # slot 3 beyond the explicit order


def test_series_index_classification():
    rep = series_index(ConstR(2), 3)
    assert rep.verdicts == {2: "diverges", 3: "diverges"}
    rep = series_index(PowerR(Fraction(1), Fraction(1, 2)), 3)
    assert rep.verdicts == {2: "diverges", 3: "converges"}
    assert rep.ergodic_index == 2
    rep = series_index(GeometricR(1, 2), 3)
    assert rep.verdicts == {2: "converges", 3: "converges"}
    assert rep.ergodic_index is None
    with pytest.raises(UnsupportedRule):
        series_index(PrefixR((4, 5, 6)), 3)
    assert any("k = 1" in note for note in series_index(ConstR(3), 2).notes)


def test_t_times():
    fam = VlFamily(VlSpec(1, ConstR(3)))
    assert t_times(fam, 1, 1, 1) == 2 * fam.height(5)
    assert t_times(fam, 1, 2, 1) == 2 * fam.height(10)
    stages = [t_times(fam, 2, 1, i) for i in (1, 2, 3)]
    assert stages == sorted(stages) and len(set(stages)) == 3


def test_t_times_is_twice_the_height_at_the_progression_stage():
    fam = VlFamily(VlSpec(1, ConstR(3)))
    for n, j, i in product(range(1, 4), repeat=3):
        stage = (1 << (j - 1)) + (i + n) * (1 << j)
        assert t_times(fam, n, j, i) == 2 * fam.height(stage)


def test_independence_precondition():
    fam = VlFamily(VlSpec(1, ConstR(3)))
    I = LevelSet.level(fam, 1, 0)
    with pytest.raises(SchemaError):
        independence_check(fam, I, I, 1, 1, 2)  # u_L = 1 not below h_1 = 1
    with pytest.raises(SchemaError, match="^stage 0: stage below base$"):
        independence_check(fam, I, I, 0, 1, 2)  # vector families start at stage 1


def test_independence_exact_small():
    fam = VlFamily(VlSpec(1, ConstR(3)))
    h = fam.height(2)
    I = LevelSet.level(fam, 2, h - 2)
    J = LevelSet.level(fam, 2, h - 3)  # one below: u_1 = 1 alignment
    rep = independence_check(fam, I, J, 2, 1, 3)
    assert rep.ok and all(m == Fraction(1, 3) for m in rep.marginals)
    rep_f = independence_check(fam, I, J, 2, 1, 2, variant="forward")
    assert rep_f.ok
    single = independence_check(fam, I, J, 2, 1, 1)
    assert single.ok and not single.pairs  # vacuous with one time
    assert rep_f.lines() == ["variant=forward n=2 j=1", "marginal i=1: 1/3",
                             "marginal i=2: 1/3",
                             "pair (1,2): joint=1/9 product=1/9 equal=True"]


def test_independence_two_cut_family(vl_small):
    # the minimal family (two cuts, L = 1) at n = 2, slot 1, two times
    h = vl_small.height(2)
    I = LevelSet.level(vl_small, 2, h - 2)
    for J in (LevelSet.level(vl_small, 2, h - 3),
              LevelSet.level(vl_small, 2, 1)):
        for variant in ("backward", "forward"):
            rep = independence_check(vl_small, I, J, 2, 1, 2, variant=variant)
            assert rep.ok


def test_constrained_sets_match_explicit_expansion():
    # A subcolumn-restricted level set must agree, in measure and in every
    # correlation, with its literal expansion one stage up.
    from cutstack.tower import decompose

    fam = VlFamily(VlSpec(1, ConstR(3)))
    x = 5
    Y = LevelSet.level(fam, 2, x).constrain(2, (1, 2))
    offs = fam.offsets_between(2)
    explicit = LevelSet.from_indices(fam, 3, [offs[1] + x, offs[2] + x])
    assert Y.measure() == explicit.measure()
    A = LevelSet.level(fam, 2, 3)
    for j in (0, 2, 7, 15, 40, -9, 2 * fam.height(5)):
        assert correlation(A, Y, j) == correlation(A, explicit, j)
    # double constraint: two stages deep
    Y2 = Y.constrain(3, (0,))
    expl2 = decompose(explicit, 4)
    off3 = fam.offsets_between(3)[0]
    keep = [(off3, off3 + fam.height(3))]
    expl2 = LevelSet.from_ranges(
        fam, 4, [(max(s, keep[0][0]), min(t, keep[0][1])) for s, t in expl2.runs])
    assert Y2.measure() == expl2.measure()
    for j in (0, 7, 100):
        assert correlation(A, Y2, j) == correlation(A, expl2, j)


def test_tail_bound():
    assert tail_bound(GeometricR(6, 2), 2, 2, 2) == Fraction(1, 48)
    with pytest.raises(SchemaError):
        tail_bound(ConstR(4), 2, 2, 2)
    with pytest.raises(UnsupportedRule):
        tail_bound(PowerR(Fraction(1), Fraction(1, 2)), 2, 2, 2)


def test_geometric_rule_with_ratio_one_is_the_constant_rule():
    assert series_index(GeometricR(6, 1), 2).verdicts[2] == "diverges"
    for rule in (GeometricR(6, 1), ConstR(6)):
        with pytest.raises(SchemaError, match="tail sum diverges for constant cut count 6"):
            tail_bound(rule, 2, 2, 2)
    with pytest.raises(SchemaError, match="tail sum diverges"):
        witness_sets(VlFamily(VlSpec(2, GeometricR(6, 1))), 2, 2, 3)
    for c, beta in ((0, 2), (6, 0), (6, -2)):
        with pytest.raises(ValueError, match="geometric rule needs c >= 1 and beta >= 1"):
            GeometricR(c, beta)


def test_witness_tail_condition_false_reports_bound():
    # finite but too-large tail: L = 3, c = 1 gives sum 4/3 >= 1 at n = 2
    assert tail_bound(GeometricR(1, 2), 3, 2, 2) == Fraction(4, 3)
    fam = VlFamily(VlSpec(3, GeometricR(1, 2)))
    with pytest.raises(SchemaError) as err:
        witness_sets(fam, 2, 2, 4)
    assert "4/3" in str(err.value) and "not below 1" in str(err.value)


@pytest.fixture(scope="module")
def witness_family():
    return VlFamily(VlSpec(2, GeometricR(6, 2)))


def test_witness_sets(witness_family):
    pair = witness_sets(witness_family, 2, 2, 4)
    mu = pair.measure_B()
    top = LevelSet.level(witness_family, 2, witness_family.height(2) - 1)
    assert mu > 0
    # exact product formula: thinning by (1 - ((L+1)/r_m)^k) per stage
    expect = top.measure() ** 2
    for m in (2, 3, 4):
        expect *= 1 - Fraction(3, witness_family.cuts_between(m)) ** 2
    assert mu == expect
    # dual route: literal inclusion-exclusion over the constrained products
    _, outer = pair.coordinates()
    stages = pair.subtraction_stages()
    total = Fraction(0)
    for bits in range(1 << len(stages)):
        chosen = tuple(s for t, s in enumerate(stages) if bits >> t & 1)
        term = Fraction(1)
        for o_t in outer:
            term *= pair.constrained(o_t, chosen).measure()
        total += -term if len(chosen) % 2 else term
    assert total == mu
    with pytest.raises(SchemaError):
        witness_sets(witness_family, 3, 2, 4)  # k > L
    with pytest.raises(SchemaError):
        witness_sets(VlFamily(VlSpec(2, ConstR(4))), 2, 2, 4)  # divergent tail


def test_witness_verify_and_control(witness_family):
    pair = witness_sets(witness_family, 2, 2, 3)
    horizon = witness_family.height(4)  # = the truncation's full valid range
    assert witness_verify(pair, horizon)
    control = WitnessPair(witness_family, 2, 2, 3, corrupted=True)
    bad = witness_violations(control, horizon)
    assert bad, "corrupted witness must show a nonzero correlation"
    with pytest.raises(SchemaError):
        witness_verify(pair, pair.valid_horizon() + 1)


def test_scan_cap_names_count_and_cap(witness_family, monkeypatch):
    control = WitnessPair(witness_family, 2, 2, 3, corrupted=True)
    monkeypatch.setattr(vl, "SCAN_CAP", 1)
    with pytest.raises(SchemaError) as exc:
        witness_violations(control, witness_family.height(4))
    count, rest = str(exc.value).split(" ", 1)
    assert int(count) > 1 and rest == "candidate lags exceed SCAN_CAP=1"


def test_sweep_probe_hits_divergent():
    fam = VlFamily(VlSpec(1, ConstR(3)))
    E = [LevelSet.level(fam, 2, 10)]
    F = [LevelSet.level(fam, 2, 7)]
    assert sweep_probe(fam, E, F, 2, 6) == 1
    # reversed order: E below F has no admissible vector
    with pytest.raises(SchemaError):
        sweep_probe(fam, F, E, 2, 4)


def test_sweep_probe_witness_consistency(witness_family):
    pair = witness_sets(witness_family, 2, 2, 3)
    A, _ = pair.coordinates()
    assert sweep_probe(witness_family, A, pair, 2, 3) is None


def test_witness_matrix_convergent_specs():
    for spec in (VlSpec(2, GeometricR(6, 2)), VlSpec(2, GeometricR(8, 2)),
                 VlSpec(3, GeometricR(12, 2))):
        fam = VlFamily(spec)
        k = 2
        pair = witness_sets(fam, k, 2, 3)
        assert pair.measure_B() > 0
        assert witness_verify(pair, fam.height(3))
