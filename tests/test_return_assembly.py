"""Return supports and joint return sets against the composition they replace.

The oracle below is the old assembly, inlined: every (delta, cross-difference
run) pair becomes one lag run, ``RunSet.of`` sorts and merges them, and an
intersection with the window clamps the result. It runs the same engine walks,
so any difference is in the assembly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from cutstack import engine, tower
from cutstack import runs as rn
from cutstack.runs import RunSet
from cutstack.tower import LevelSet, joint_return_set, return_support


def _old_delta_runs(A0, B0, deltas, lo, hi):
    if not deltas:
        return []
    cd = rn.cross_difference_runs(A0.runs, B0.runs, min(deltas) - hi, max(deltas) - lo)
    return [(delta - (t - 1), delta - s + 1) for delta in deltas for s, t in cd]


def _old_clamp(J, lo, hi):
    return RunSet(rn.intersect(J.runs, ((lo, hi + 1),)))


def _old_return_support(A, B, lo, hi):
    if lo > hi or A.is_empty() or B.is_empty():
        return RunSet(())
    parts = []
    if lo < 0:
        neg = _old_return_support(B, A, max(1, -hi), -lo)
        parts.extend((-t + 1, -s + 1) for s, t in neg.runs)
    lo_nn = max(lo, 0)
    if hi >= lo_nn:
        (A0, B0), (n0, M, boxes, cons) = tower._walk([A, B], [(lo_nn, hi), (0, 0)])
        dc = engine.pair_diff_counts(A.family, n0, M, boxes, cons)
        parts.extend(_old_delta_runs(A0, B0, dc, lo_nn, hi))
    return _old_clamp(RunSet.of(parts), lo, hi)


def _old_divide(J, step):
    out = []
    for s, t in J.runs:
        lo, hi = -((-s) // step), (t - 1) // step
        if hi >= lo:
            out.append((lo, hi + 1))
    return RunSet.of(out)


def _old_joint_return_set(A, B1, B2, p, q, horizon):
    if horizon <= 0 or A.is_empty() or B1.is_empty() or B2.is_empty():
        return RunSet(())
    (A1, C1), walk_p = tower._walk([A, B1], [(p, p * horizon), (0, 0)])
    (A2, C2), walk_q = tower._walk([A, B2], [(q, q * horizon), (0, 0)])
    (_, _, [(dp_lo, dp_hi)], _), (_, _, [(dq_lo, dq_hi)], _) = walk_p, walk_q
    xp_lo, xp_hi = dp_lo - p, dp_hi - p * horizon
    xq_lo, xq_hi = dq_lo - q, dq_hi - q * horizon
    dp, dq = engine.lockstep_diff_states(
        A.family, p, q, walk_p, walk_q,
        (q * xp_lo - p * xq_hi, q * xp_hi - p * xq_lo))
    if not dp:
        return RunSet(())
    J1 = _old_divide(RunSet.of(_old_delta_runs(A1, C1, dp, p, p * horizon)), p)
    J2 = _old_divide(RunSet.of(_old_delta_runs(A2, C2, dq, q, q * horizon)), q)
    return _old_clamp(J1.intersect(J2), 1, horizon)


# fixture -> the widest lag the cases draw: the constant-spacer fixtures
# lift about one stage per top spacer's worth of lag past their columns
REACH = {"example_family": 400, "roomy_family": 2000, "vl_small": 2000,
         "preset_family": 20_000}


@st.composite
def level_sets(draw, fam):
    """One to four runs of one to three levels (adjacent levels give lags
    either side of 0), sometimes restricted to some subcolumn copies."""
    stage = draw(st.integers(fam.first_stage, fam.first_stage + 2))
    top = min(fam.height(stage), 120)
    starts = draw(st.sets(st.integers(0, top - 1), min_size=1, max_size=4))
    S = LevelSet.from_ranges(fam, stage, [(s, min(s + draw(st.integers(1, 3)), top))
                                          for s in starts])
    if draw(st.integers(0, 3)) == 0:
        t = draw(st.integers(stage, fam.first_stage + 3))
        r = fam.cuts_between(t)
        S = S.constrain(t, tuple(draw(st.sets(st.integers(0, r - 1),
                                              min_size=1, max_size=r - 1))))
    return S


@st.composite
def windows(draw, reach):
    """Windows across lag 0, on either side of it, narrow ones (often with
    no surviving delta) and inverted ones."""
    kind = draw(st.sampled_from(["seam", "positive", "negative", "narrow", "inverted"]))
    a, b = draw(st.integers(0, reach)), draw(st.integers(0, reach))
    if kind == "seam":
        return -a, b
    if kind == "positive":
        return min(a, b), max(a, b)
    if kind == "negative":
        return -max(a, b), -min(a, b)
    if kind == "narrow":
        lo = draw(st.integers(-reach, reach))
        return lo, lo + draw(st.integers(0, 3))
    return max(a, b) + 1, min(a, b)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_return_support_matches_old_assembly(request, data):
    name = data.draw(st.sampled_from(sorted(REACH)))
    fam = request.getfixturevalue(name)
    A = data.draw(level_sets(fam))
    B = data.draw(st.one_of(st.just(A), level_sets(fam)))
    lo, hi = data.draw(windows(REACH[name]))
    assert return_support(A, B, lo, hi).runs == _old_return_support(A, B, lo, hi).runs


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_joint_return_set_matches_old_assembly(request, data):
    name = data.draw(st.sampled_from(sorted(REACH)))
    fam = request.getfixturevalue(name)
    A = data.draw(level_sets(fam))
    B1, B2 = (data.draw(st.one_of(st.just(A), level_sets(fam))) for _ in range(2))
    p, q = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    horizon = data.draw(st.integers(0, REACH[name] // max(p, q)))
    assert joint_return_set(A, B1, B2, p, q, horizon).runs == \
        _old_joint_return_set(A, B1, B2, p, q, horizon).runs


def test_seam_and_empty_walks(example_family):
    # level 0 of stage 1 returns to itself at lags 0, +-1 only through
    # neighbouring levels: a two-level run puts lags -1, 0 and 1 in the
    # support, and the runs either side of 0 must join
    AB = LevelSet.from_ranges(example_family, 1, [(0, 2)])
    assert return_support(AB, AB, -1, 1).runs == ((-1, 2),)
    assert return_support(AB, AB, -5, 5).runs == _old_return_support(AB, AB, -5, 5).runs
    # lags 2..3 of level 0 land in the stage-1 spacers: the walk is empty
    L0 = LevelSet.level(example_family, 1, 0)
    assert return_support(L0, L0, 2, 3).is_empty()
    assert joint_return_set(L0, L0, L0, 2, 3, 1).is_empty()


@st.composite
def roomy_sets(draw, fam):
    idx = draw(st.sets(st.integers(0, 60), min_size=1, max_size=6))
    return LevelSet.from_indices(fam, 2, idx)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_return_support_and_joint_set_match_naive(roomy_family, roomy_naive, data):
    A, B = data.draw(roomy_sets(roomy_family)), data.draw(roomy_sets(roomy_family))
    lo = data.draw(st.integers(-700, 640))
    hi = lo + data.draw(st.integers(0, 60))
    a_idx, b_idx = set(A.indices()), set(B.indices())
    sup = return_support(A, B, lo, hi)
    assert set(sup) == {j for j in range(lo, hi + 1)
                        if roomy_naive.correlation(2, a_idx, 2, b_idx, j) > 0}
    p, q = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    horizon = data.draw(st.integers(0, 150 // max(p, q)))
    got = joint_return_set(A, A, B, p, q, horizon)
    assert set(got) == roomy_naive.lambda_set(2, a_idx, p, q, horizon,
                                              target1=(2, a_idx), target2=(2, b_idx))


def test_deepest_return_sets_support(preset_family, monkeypatch, deadline):
    """The heaviest return_support shape of the return_sets workload: two
    stage-4 levels over lags 1..h_9 - c, 95,135 walk deltas and 29,525 runs.
    The lag runs never pass through a tuple sort."""
    A = LevelSet.level(preset_family, 4, 17)
    B = LevelSet.level(preset_family, 4, 22)
    hi = preset_family.marker(9) - 7140
    want = _old_return_support(A, B, 1, hi)
    sorted_sizes = []
    normalize = rn.normalize

    def counted(pairs):
        pairs = list(pairs)
        sorted_sizes.append(len(pairs))
        return normalize(pairs)

    monkeypatch.setattr(rn, "normalize", counted)
    with deadline(0.5):
        got = return_support(A, B, 1, hi)
    assert len(got.runs) == 29_525 and got.runs == want.runs
    assert max(sorted_sizes, default=0) < 10
