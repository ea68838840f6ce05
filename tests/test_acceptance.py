"""Acceptance suite: one test per criterion, all tolerances exact (zero).

Each test prints a pass/fail line through the hook in conftest. Where a
criterion quantifies over every level or every lag up to an astronomically
large horizon, the test both verifies the closed-form/structural argument
that removes the quantifier and spot-checks the public operations on
explicit instances.
"""

import random
from fractions import Fraction

from cutstack import engine
from cutstack.afs4 import (AfsParams, ConstRule, WMinimalRule,
                           preset_infinite_ergodic_index, validate_V)
from cutstack.naive import NaiveTower
from cutstack.products import (REGIME_CONS_NOT_ERG, REGIME_ERGODIC,
                               REGIME_NOT_CONS, classify, divisibility_condition,
                               k_intervals, lambda_set,
                               nonconservativity_base_stage, simultaneous_hits,
                               triple_return_set)
from cutstack.runs import RunSet
from cutstack.synthesis import DirectionSpec, synthesize_R, synthesize_three_way
from cutstack.tower import (LevelSet, apply_power, correlation,
                            product_correlation, triple_correlation)
from cutstack.vl import (ConstR, GeometricR, PowerR, VlFamily, VlSpec,
                         WitnessPair, independence_check, series_index,
                         witness_sets, witness_violations)

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def test_criterion_01_quarter_rigidity():
    """Every level of G_n (n <= 6) returns at least a quarter of itself at
    lag +-p_n; bottom levels achieve exactly a quarter."""
    fam = preset_infinite_ergodic_index(7)
    for n in range(7):
        p_n = fam.params(n).p
        quarter = fam.level_width(n) / 4
        # For single levels the correlation is width(M) * (word pairs at
        # position difference p_n), which does not involve the level index:
        # one exact count certifies every level of the stage at once.
        M = engine.minimal_valid_stage(fam, n, fam.height(n) - 1 + p_n)
        dc = engine.pair_diff_counts(fam, n, M, [(p_n, p_n)], [{}, {}])
        value = dc.get(p_n, 0) * fam.level_width(M)
        assert value == quarter
        # Spot-check the public operation on explicit levels, both signs.
        H = fam.height(n)
        for x in {0, H // 2, H - 1}:
            I = LevelSet.level(fam, n, x)
            for j in (p_n, -p_n):
                got = correlation(I, I, j)
                assert got >= Fraction(1, 4) * I.measure()
                assert got == quarter


def test_criterion_02_ergodic_product_bound():
    """Synthesized R = {1/2}: at three certified stages the product shift by
    t_n carries at least 1/16 of mu(C) mu(D)."""
    fam, trace = synthesize_R(DirectionSpec(ratios=(HALF,)), 19)
    stages = [r.n for r in trace.rows if r.mode == "ergodic" and (r.k, r.l) == (0, 0)]
    assert stages == [1, 7, 19]
    A = LevelSet.level(fam, 1, 2)
    B = LevelSet.level(fam, 1, 5)
    C, D = A, B  # offset pair (0, 0)
    for n in stages:
        t_n = divisibility_condition(fam, n, 1, 2, 0, 0)
        assert t_n is not None
        value = product_correlation([A, B], [C, D], [1, 2], t_n)
        assert value >= Fraction(1, 16) * C.measure() * D.measure()


def test_criterion_03_not_conservative_lambda_empty():
    """Preset family, (p, q) = (1, 2): no product return of the base block up
    to floor(h_M / q) for every M <= 7."""
    fam = preset_infinite_ergodic_index(9)
    N = nonconservativity_base_stage(fam, 1, 2)
    assert N == 3
    A = LevelSet.level(fam, N + 1, 0)
    for M in range(N + 1, 8):
        horizon = fam.marker(M) // 2
        lam = lambda_set(fam, 1, 2, A, horizon)
        assert lam.is_empty(), f"return at {lam.min()} within h_{M}/2"
    assert classify(fam, 1, 2).regime == REGIME_NOT_CONS


def test_criterion_04_three_way_not_ergodic():
    """Three-regime family with R1 empty, R2 = {1/2}: the one-level-slip
    return set is empty while plain product returns exist."""
    spec = DirectionSpec(ratios=(HALF,), ergodic_subset=())
    fam, trace = synthesize_three_way(spec, 8)
    N = nonconservativity_base_stage(fam, 1, 2, allow_exact=True)
    A = LevelSet.level(fam, N + 1, 0)
    TA = apply_power(A, 1)
    plain_by_m = {}
    for M in range(N + 1, 8):
        horizon = fam.marker(M) // 2
        variant = lambda_set(fam, 1, 2, A, horizon, targets=(TA, A))
        assert variant.is_empty(), f"slip return at {variant.min()} within h_{M}/2"
        plain_by_m[M] = lambda_set(fam, 1, 2, A, horizon)
    assert not plain_by_m[7].is_empty()
    # the first certified exact-proportionality stage past A's stage returns
    row = trace.row_for(5)
    assert row.mode == "exact" and row.p_n in plain_by_m[7]
    assert classify(fam, 1, 2).regime == REGIME_CONS_NOT_ERG


def test_criterion_05_oracle_equivalence():
    """Independent array simulator agrees with correlation,
    triple_correlation, and lambda_set on 100+ randomized queries."""
    rng = random.Random(20260810)
    queries = 0

    four = AfsParams(ConstRule(2), ConstRule(5), ConstRule(7), ConstRule(400))
    four_naive = NaiveTower.four_cut([(2, 5, 7, 400)] * 5)
    vspec = VlSpec(1, ConstR(2))
    vfam = VlFamily(vspec)
    vnaive = NaiveTower.vector_spacers(1, [2] * 6,
                                       [vspec.s_of(n)[1] for n in range(1, 7)])

    def sample(fam, stage, k):
        h = fam.height(stage)
        return sorted(rng.sample(range(h), min(k, h)))

    for _ in range(40):
        sa, sb = rng.randint(1, 2), rng.randint(1, 2)
        A, B = sample(four, sa, rng.randint(1, 5)), sample(four, sb, rng.randint(1, 5))
        j = rng.randint(-900, 900)
        got = correlation(LevelSet.from_indices(four, sa, A),
                          LevelSet.from_indices(four, sb, B), j)
        assert got == four_naive.correlation(sa, set(A), sb, set(B), j)
        queries += 1

    for _ in range(15):
        s = rng.randint(2, 3)
        A = sample(vfam, s, rng.randint(1, 4))
        j = rng.randint(-150, 150)
        got = correlation(LevelSet.from_indices(vfam, s, A),
                          LevelSet.from_indices(vfam, s, A), j)
        assert got == vnaive.correlation(s, set(A), s, set(A), j)
        queries += 1

    for _ in range(30):
        s = rng.randint(1, 2)
        A = sample(four, s, rng.randint(1, 4))
        p, q, i = rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 150)
        got = triple_correlation(LevelSet.from_indices(four, s, A), p, q, i)
        assert got == four_naive.triple_correlation(s, set(A), p, q, i)
        queries += 1

    for _ in range(20):
        s = rng.randint(1, 2)
        A = sample(four, s, rng.randint(1, 3))
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        horizon = rng.randint(10, 60)
        lam = lambda_set(four, p, q, LevelSet.from_indices(four, s, A), horizon)
        assert set(lam) == four_naive.lambda_set(s, set(A), p, q, horizon)
        queries += 1

    assert queries >= 100


def test_criterion_06_k_table_soundness():
    """No exact simultaneous return escapes the interval table, against both
    the exact return sets and the brute-force simulator."""
    preset = preset_infinite_ergodic_index(7)
    wmin = AfsParams(ConstRule(2), WMinimalRule(), ConstRule(4), WMinimalRule())
    pairs = [(p, q) for p in range(1, 7) for q in range(p + 1, 7) if p + q <= 7]

    def covered_set(fam, n, p, q):
        tbl = k_intervals(fam, n)
        out = RunSet(())
        for ia in tbl.all_intervals():
            for ib in tbl.all_intervals():
                out = out.union(simultaneous_hits(p, q, ia, ib))
        return out

    for fam, top in ((preset, 5), (wmin, 5)):
        for n in range(1, top + 1):
            h_n, h_next = fam.marker(n), fam.marker(n + 1)
            D = LevelSet.bottom_block(fam, n, h_n)
            for (p, q) in pairs:
                lam = lambda_set(fam, p, q, D, (h_next - 1) // q)
                window = lam.clamp(h_n // q + 1, (h_next - 1) // q)
                assert window.difference(covered_set(fam, n, p, q)).is_empty()

    # brute-force grounding at naive-feasible stages
    wmin.ensure(4)
    spacers = [(wmin.params(n).a, wmin.params(n).b, wmin.params(n).c,
                wmin.params(n).d) for n in range(3)]
    naive = NaiveTower.four_cut(spacers)
    for n in (1, 2):
        h_n, h_next = wmin.marker(n), wmin.marker(n + 1)
        idx = set(range(h_n))
        D = LevelSet.bottom_block(wmin, n, h_n)
        for (p, q) in [(1, 2), (2, 3)]:
            horizon = (h_next - 1) // q
            brute = naive.lambda_set(n, idx, p, q, horizon)
            lam = lambda_set(wmin, p, q, D, horizon)
            assert set(lam) == brute
            window = {i for i in brute if h_n < i * q < h_next}
            cov = covered_set(wmin, n, p, q)
            assert all(i in cov for i in window)


def test_criterion_07_independence_identities():
    """All pairwise independence identities hold as exact rational equalities
    over the prescribed matrix; failures would be reported verbatim."""
    failures = []
    for L in (1, 2):
        for r in (3, 4):
            fam = VlFamily(VlSpec(L, ConstR(r)))
            for n in (2, 3):
                for j in (1, 2):
                    v = fam.spec.vector(j)
                    x = fam.height(n) - 2
                    cases = {
                        "aligned": LevelSet.level(fam, n, x - v[0]),
                        "generic": LevelSet.level(fam, n, x - v[0] - 1),
                    }
                    I = LevelSet.level(fam, n, x)
                    for tag, J in cases.items():
                        for variant in ("backward", "forward"):
                            rep = independence_check(fam, I, J, n, j, 3,
                                                     variant=variant)
                            if not rep.ok:
                                failures.append((L, r, n, j, tag, rep.lines()))
    if failures:
        for key in failures:
            print("INDEPENDENCE FAILURE", key[:5])
            for line in key[5]:
                print("   ", line)
    assert not failures


def test_criterion_08_witness_construction():
    """L = 2, k = 2, r_i = 6 * 2^i, n = 2: positive witness measure, zero
    correlation through |i| <= h_4, and the corrupted control fails."""
    fam = VlFamily(VlSpec(2, GeometricR(6, 2)))
    pair = witness_sets(fam, 2, 2, 4)
    mu = pair.measure_B()
    assert mu > 0
    top_measure = LevelSet.level(fam, 2, fam.height(2) - 1).measure()
    tail = sum(Fraction(3, fam.cuts_between(m)) ** 2 for m in range(2, 5))
    assert mu >= (1 - tail) * top_measure ** 2
    horizon = fam.height(4)
    assert not witness_violations(pair, horizon)
    control = WitnessPair(fam, 2, 2, 4, corrupted=True)
    assert witness_violations(control, horizon)


def test_criterion_09_series_classifier():
    """Series verdicts match the p-series and geometric ground truth."""
    rep = series_index(PowerR(Fraction(1), Fraction(1, 2)), 3)
    assert rep.verdicts == {2: "diverges", 3: "converges"}
    assert rep.ergodic_index == 2
    rep = series_index(ConstR(4), 3)
    assert all(v == "diverges" for v in rep.verdicts.values())
    rep = series_index(GeometricR(1, 2), 4)
    assert all(v == "converges" for v in rep.verdicts.values())


def test_criterion_10_synthesis_round_trip():
    """R = {1/2, 1/3} synthesis: admissible, trace re-checks, and the
    classifier certifies both members ergodic and 2/5 not conservative."""
    S = (Fraction(2, 5), Fraction(1, 4), Fraction(2, 3), Fraction(3, 5),
         Fraction(1, 5), Fraction(3, 4), Fraction(1, 6))
    fam, trace = synthesize_R(DirectionSpec(ratios=(HALF, THIRD), complement=S), 12)
    assert validate_V(fam, 12).ok
    trace.recheck(fam)
    v = classify(fam, 1, 2)
    assert (v.regime, v.basis) == (REGIME_ERGODIC, "certificate")
    v = classify(fam, 1, 3)
    assert (v.regime, v.basis) == (REGIME_ERGODIC, "certificate")
    v = classify(fam, 2, 5)
    assert (v.regime, v.basis) == (REGIME_NOT_CONS, "certificate")


def test_criterion_11_not_multiply_recurrent():
    """Preset family: the double return set of the base block is empty
    through h_5, so all triple correlations vanish there."""
    fam = preset_infinite_ergodic_index(8)
    A = LevelSet.level(fam, 4, 0)
    horizon = fam.marker(5)
    empty = triple_return_set(fam, 1, 2, A, horizon)
    assert empty.is_empty()
    for i in (1, 17, fam.params(4).p, fam.marker(4), horizon):
        assert triple_correlation(A, 1, 2, i) == 0
