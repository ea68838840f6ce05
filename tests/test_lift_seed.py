"""Pair and lockstep walks that start below their closed-form seed, and
the one-state stages that the pair and multi walks take without a step.

The oracle is the walk that starts at the zero state at stage M - 1 and
steps down through every stage, written out here with its own offset
differences, so a wrong seed state, weight or start stage, or a wrong
skipped stage or factor, shows as a different walk result.
"""

from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutstack import engine, tower
from cutstack.afs4 import AfsParams, ConstRule
from cutstack.products import lambda_set
from cutstack.synthesis import DirectionSpec, synthesize_R
from cutstack.tower import LevelSet, correlation, intersection_measure
from cutstack.vl import ConstR, VlFamily, VlSpec


@pytest.fixture(scope="module")
def zero_family():
    """No spacers but one on top: the lift climbs one stage per level of lag."""
    return AfsParams(ConstRule(0), ConstRule(0), ConstRule(0), ConstRule(1), label="zero")


@pytest.fixture(scope="module")
def vl_four():
    return VlFamily(VlSpec(1, ConstR(4)))


@pytest.fixture(scope="module")
def synth_family():
    return synthesize_R(DirectionSpec(ratios=(Fraction(1, 2),)), 6)[0]


# fixture -> the widest lag the cases draw; the zero-spacer family climbs one
# stage per lag, which the full walk pays for at every stage
REACH = {"example_family": 3000, "roomy_family": 3000, "zero_family": 300,
         "wmin_family": 3000, "vl_small": 3000, "vl_four": 3000}


def _full_walk(fam, n0, M, boxes, constraints):
    """Every stage from M - 1 down to n0, from the zero state, for a pair
    request: the states that end in the box."""
    [(lo, hi)], (ca, cb) = boxes, constraints
    if lo > hi:
        return {}
    top = fam._top_sums_to(M)
    cur = {0: 1}
    for i in range(M - 1, n0 - 1, -1):
        offs = fam.offsets_between(i)
        offs_a = [offs[u] for u in ca.get(i, range(len(offs)))]
        offs_b = [offs[u] for u in cb.get(i, range(len(offs)))]
        r = top[i] - top[n0]
        nxt = {}
        for s, ways in cur.items():
            for a in offs_a:
                for b in offs_b:
                    t = s + b - a
                    if lo - r <= t <= hi + r:
                        nxt[t] = nxt.get(t, 0) + ways
        cur = nxt
        if not cur:
            break
    return {d: ways for d, ways in cur.items() if lo <= d <= hi}


@st.composite
def level_sets(draw, fam):
    """One to three short runs, sometimes restricted to some subcolumn copies."""
    stage = draw(st.integers(fam.first_stage, fam.first_stage + 2))
    top = min(fam.height(stage), 60)
    starts = draw(st.sets(st.integers(0, top - 1), min_size=1, max_size=3))
    S = LevelSet.from_ranges(fam, stage, [(s, min(s + draw(st.integers(1, 3)), top))
                                          for s in starts])
    if draw(st.integers(0, 2)) == 0:
        t = draw(st.integers(stage, fam.first_stage + 3))
        r = fam.cuts_between(t)
        S = S.constrain(t, tuple(draw(st.sets(st.integers(0, r - 1),
                                              min_size=1, max_size=r - 1))))
    return S


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_pair_walk_matches_full_walk(request, data):
    name = data.draw(st.sampled_from(sorted(REACH)))
    fam = request.getfixturevalue(name)
    A, B = data.draw(level_sets(fam)), data.draw(level_sets(fam))
    lo = data.draw(st.integers(0, REACH[name]))
    hi = lo + data.draw(st.integers(0, 40))
    _, (n0, M, [(d_lo, d_hi)], cons) = tower._walk([A, B], [(lo, hi), (0, 0)])
    # a taller walk than the lift needs, and windows reaching below -height(n0)
    M += data.draw(st.integers(0, 2))
    d_lo -= data.draw(st.sampled_from([0, 0, 1, fam.height(n0), 2 * fam.height(n0)]))
    walk = (n0, M, [(d_lo, d_hi)], cons)
    full = _full_walk(fam, *walk)
    assert engine.pair_diff_counts(fam, *walk) == full
    assert engine.pair_diff_support(fam, *walk) == sorted(full)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_one_request_drives_the_pair_and_multi_walks(request, data):
    """A pair request is a multi request with one box and two constraint
    maps: the seeded pair walk and the unseeded multi walk count alike."""
    name = data.draw(st.sampled_from(sorted(REACH)))
    fam = request.getfixturevalue(name)
    A, B = data.draw(level_sets(fam)), data.draw(level_sets(fam))
    if data.draw(st.booleans()):
        # above the stages level_sets constrains, so no intersection is empty
        t = fam.first_stage + data.draw(st.integers(4, 5))
        every = range(fam.cuts_between(t))
        A = A.constrain(t, tuple(data.draw(st.sets(st.sampled_from(every), min_size=1))))
        B = B.constrain(t, tuple(data.draw(st.sets(st.sampled_from(every), min_size=1))))
    j = data.draw(st.integers(0, REACH[name]))
    _, walk = tower._walk([A, B], [(j, j), (0, 0)])
    multi = engine.multi_diff_counts(fam, *walk)
    assert engine.pair_diff_counts(fam, *walk) == {d: ways for (d,), ways in multi.items()}


def _partnered(dp, dq, p, q, gap):
    """The states of ``dp`` with a partner in ``dq`` under the exact gap."""
    g_lo, g_hi = gap
    return [d for d in sorted(dp) if any(g_lo <= q * d - p * e <= g_hi for e in dq)]


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_lockstep_walk_matches_full_walks(request, data):
    name = data.draw(st.sampled_from(sorted(REACH)))
    fam = request.getfixturevalue(name)
    A, B1, B2 = (data.draw(level_sets(fam)) for _ in range(3))
    p, q = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    horizon = data.draw(st.integers(1, REACH[name] // max(p, q)))
    _, walk_p = tower._walk([A, B1], [(p, p * horizon), (0, 0)])
    _, walk_q = tower._walk([A, B2], [(q, q * horizon), (0, 0)])
    (_, _, [(dp_lo, dp_hi)], _), (_, _, [(dq_lo, dq_hi)], _) = walk_p, walk_q
    xp_lo, xp_hi = dp_lo - p, dp_hi - p * horizon
    xq_lo, xq_hi = dq_lo - q, dq_hi - q * horizon
    gap = (q * xp_lo - p * xq_hi, q * xp_hi - p * xq_lo)
    dp, dq = engine.lockstep_diff_states(fam, p, q, walk_p, walk_q, gap)
    full_p, full_q = _full_walk(fam, *walk_p), _full_walk(fam, *walk_q)
    # survivors are sorted deltas of the walks, and every delta with a
    # partner under the exact gap survives
    assert dp == sorted(dp) and set(dp) <= full_p.keys()
    assert dq == sorted(dq) and set(dq) <= full_q.keys()
    assert _partnered(dp, dq, p, q, gap) == _partnered(full_p, full_q, p, q, gap)
    assert _partnered(dq, dp, -q, -p, gap) == _partnered(full_q, full_p, -q, -p, gap)


def test_correlation_matches_multi_walk_after_long_climbs(example_family, zero_family):
    """The multi walk has no seed: it walks every stage of the climb."""
    cases = [(example_family, 1, [(0, 3), (17, 18)], 2, [(5, 9)], [1100, 1777, 2604]),
             (zero_family, 0, [(0, 1)], 2, [(3, 7), (12, 20)], [57, 120, 211])]
    for fam, sa, ra, sb, rb, lags in cases:
        A, B = LevelSet.from_ranges(fam, sa, ra), LevelSet.from_ranges(fam, sb, rb)
        for j in lags:
            _, (n0, M, boxes, cons) = tower._walk([A, B], [(j, j), (0, 0)])
            S, _ = engine._seed(fam, n0, M, boxes, cons)
            assert M - S >= 50, (fam.label, j, M, S)
            want = intersection_measure([A, B], [j, 0])
            assert correlation(A, B, j) == want and want > 0
            assert correlation(B, A, -j) == want


@pytest.mark.parametrize("name, stage, lags", [
    ("example", 1, range(30, 150, 3)),
    ("roomy", 1, range(30, 1700, 23)),
])
def test_seeded_correlation_matches_naive(request, name, stage, lags):
    fam = request.getfixturevalue(f"{name}_family")
    naive = request.getfixturevalue(f"{name}_naive")
    a_idx, b_idx = {0, 2, 3}, {1, 4}
    A, B = LevelSet.from_indices(fam, stage, a_idx), LevelSet.from_indices(fam, stage, b_idx)
    seeded = 0
    for j in lags:
        _, (n0, M, boxes, cons) = tower._walk([A, B], [(j, j), (0, 0)])
        seeded += engine._seed(fam, n0, M, boxes, cons)[0] < M
        assert correlation(A, B, j) == naive.correlation(stage, a_idx, stage, b_idx, j)
        assert correlation(B, A, -j) == naive.correlation(stage, b_idx, stage, a_idx, -j)
    assert seeded >= len(lags) // 2


def test_lambda_set_steps_only_below_the_seeds(example_family, monkeypatch):
    """The lockstep walk of lambda_set(3, 4) at horizon 650 lifts to stages 98
    and 130, and the full walks took 228 steps; the seeds start both below
    stage 4."""
    A = LevelSet.level(example_family, 0, 0)
    _, (n_p, M_p, boxes_p, cons_p) = tower._walk([A, A], [(3, 3 * 650), (0, 0)])
    _, (n_q, M_q, boxes_q, cons_q) = tower._walk([A, A], [(4, 4 * 650), (0, 0)])
    S_p = engine._seed(example_family, n_p, M_p, boxes_p, cons_p)[0]
    S_q = engine._seed(example_family, n_q, M_q, boxes_q, cons_q)[0]
    assert (M_p, M_q, S_p, S_q) == (98, 130, 4, 4)
    steps = []
    step = engine._support_step

    def counted(*args):
        steps.append(args[1])
        return step(*args)

    monkeypatch.setattr(engine, "_support_step", counted)
    got = lambda_set(example_family, 3, 4, A, 650)
    assert 1 <= len(steps) <= (S_p - 0) + (S_q - 0) == 8
    assert got.runs == ((5, 6), (10, 13), (15, 18), (20, 21), (22, 24), (25, 26), (27, 651))


def test_seed_falls_back_to_the_walks_own_start(example_family):
    # the top stage is needed, a window reaching -height(n0), no stage left
    h3 = example_family.height(3)
    assert engine._seed(example_family, 1, 4, [(0, h3)], [{}, {}]) == (4, {0: 1})
    assert engine._seed(example_family, 1, 9, [(-41, 10)], [{}, {}]) == (9, {0: 1})
    assert engine._seed(example_family, 2, 2, [(0, 0)], [{}, {}]) == (2, {0: 1})
    # a constraint at stage 7 keeps the seed above it
    assert engine._seed(example_family, 1, 9, [(0, 10)], [{7: (0,)}, {}])[0] == 8
    assert engine._seed(example_family, 1, 9, [(0, 10)], [{8: (0,)}, {}]) == (9, {0: 1})


def _full_multi_walk(fam, n0, M, boxes, constraints):
    """Every stage from M - 1 down to n0, from the zero state, for k
    operands: each state extended by every tuple of allowed offsets, and
    the states that end in the boxes."""
    cons = [c or {} for c in constraints]
    top = fam._top_sums_to(M)
    cur = {(0,) * len(boxes): 1}
    for i in range(M - 1, n0 - 1, -1):
        offs = fam.offsets_between(i)
        sides = [[offs[u] for u in c.get(i, range(len(offs)))] for c in cons]
        r = top[i] - top[n0]
        nxt = {}
        for s, ways in cur.items():
            for a, *rest in product(*sides):
                t = tuple(x + b - a for x, b in zip(s, rest))
                if all(lo - r <= v <= hi + r for (lo, hi), v in zip(boxes, t)):
                    nxt[t] = nxt.get(t, 0) + ways
        cur = nxt
        if not cur:
            break
    return {t: ways for t, ways in cur.items()
            if all(lo <= v <= hi for (lo, hi), v in zip(boxes, t))}


# families whose room grows with the column, so shifts made of word
# differences at stages 8-20 lift to about stage 21; the others climb about
# one stage per top spacer of lag, and the widest lag each draws keeps the
# full multi walk short
DEEP = ("preset_family", "synth_family", "vl_four")
SHALLOW = {"zero_family": 40, "example_family": 600, "roomy_family": 3000}


@st.composite
def _word_differences(draw, fam, n0):
    """The position difference of two words that differ at one or two of
    the stages 8-20 and perhaps one below, one copy pair a stage, plus
    -1, 0 or 1: the deep shifts of the benchmark's deep_shift workload."""
    stages = draw(st.sets(st.integers(8, 20), min_size=1, max_size=2))
    if draw(st.booleans()):
        stages.add(draw(st.integers(n0, 7)))
    total = draw(st.sampled_from([-1, 0, 1]))
    for t in stages:
        offs = fam.offsets_between(t)
        c, c2 = draw(st.lists(st.integers(0, len(offs) - 1), min_size=2, max_size=2,
                              unique=True))
        total += offs[c] - offs[c2]
    return abs(total)


@pytest.mark.parametrize("name", sorted(DEEP + tuple(SHALLOW)))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_one_state_skips_match_full_walks(request, name, data):
    """The pair walks and the three-operand multi walk, which take a run
    of one-state diagonal stages in one scan, against the walks that step
    every stage. Letter constraints above the level sets' own are equal or
    differing at one stage, at two stages, or disjoint, so that a run
    meeting them ends the walk empty; a shift of 0 makes one run of the
    whole walk, down to n0."""
    fam = request.getfixturevalue(name)
    A, B, C = (data.draw(level_sets(fam)) for _ in range(3))
    kind = data.draw(st.sampled_from(["none", "equal", "differing", "two", "disjoint"]))
    stages = data.draw(st.sets(st.integers(fam.first_stage + 4, 20), min_size=1,
                               max_size=2 if kind == "two" else 1))
    for t in stages if kind != "none" else ():
        every = range(fam.cuts_between(t))
        P = data.draw(st.sets(st.sampled_from(every), min_size=1))
        if kind == "equal":
            Q = P
        elif kind == "disjoint" and len(P) < len(every):
            Q = data.draw(st.sets(st.sampled_from(sorted(set(every) - P)), min_size=1))
        else:
            Q = data.draw(st.sets(st.sampled_from(every), min_size=1))
        A, B = A.constrain(t, tuple(P)), B.constrain(t, tuple(Q))
        C = C.constrain(t, tuple(Q))
    if name in DEEP:
        j1, j2 = (data.draw(_word_differences(fam, A.stage)) for _ in range(2))
    else:
        j1, j2 = (data.draw(st.integers(0, SHALLOW[name])) for _ in range(2))
    if data.draw(st.integers(0, 4)) == 0:
        j1 = 0
    _, walk = tower._walk([A, B], [(j1, j1), (0, 0)])
    full = _full_walk(fam, *walk)
    assert engine.pair_diff_counts(fam, *walk) == full
    assert engine.pair_diff_support(fam, *walk) == sorted(full)
    shift = min(0, j1 - j2)
    _, (n0, M, boxes, cons) = tower._walk([A, B, C], [(-shift, -shift), (j1 - shift, j1 - shift),
                                                    (j2 - shift, j2 - shift)])
    assert (engine.multi_diff_counts(fam, n0, M, boxes, cons)
            == _full_multi_walk(fam, n0, M, boxes, cons))


def _deep_shifts(fam):
    """A stage-1 level set of the preset and two shifts made of word
    differences at stages 15 and 9 and at stages 12 and 9."""
    A = LevelSet.from_ranges(fam, 1, [(2, 4), (9, 10)])
    offs = fam.offsets_between
    j1 = offs(15)[3] - offs(15)[0] + offs(9)[1] - offs(9)[2]
    j2 = offs(12)[2] - offs(12)[1] + offs(9)[1] - offs(9)[2]
    return A, j1, j2


def test_deep_walks_step_only_their_word_stages(preset_family, monkeypatch):
    """Shifts made of word differences at stages 15 and 9 (and 12 and 9 for
    the third operand) of the preset lift to stage 16 and leave each walk
    one state at every other stage, where the windows fit inside the
    column: the pair walk steps 2 of its 15 stages and the multi walk 3."""
    fam = preset_family
    A, j1, j2 = _deep_shifts(fam)
    steps = {"pair": [], "multi": []}
    step, multi_step = engine._step, engine._multi_step

    def counted(*args):
        steps["pair"].append(args[1])
        return step(*args)

    def multi_counted(*args):
        steps["multi"].append(args[1])
        return multi_step(*args)

    monkeypatch.setattr(engine, "_step", counted)
    monkeypatch.setattr(engine, "_multi_step", multi_counted)
    _, walk = tower._walk([A, A], [(j1, j1), (0, 0)])
    n0, M, _, _ = walk
    assert (n0, M) == (1, 16) and engine._seed(fam, *walk)[0] == 16
    assert engine.pair_diff_counts(fam, *walk) == _full_walk(fam, *walk)
    assert correlation(A, A, j1) == Fraction(3, 64)
    assert intersection_measure([A, A, A], [0, j1, j2]) == Fraction(3, 256)
    _, (n0, M, boxes, cons) = tower._walk([A, A, A], [(0, 0), (j1, j1), (j2, j2)])
    assert engine.multi_diff_counts(fam, n0, M, boxes, cons) == \
        _full_multi_walk(fam, n0, M, boxes, cons)
    assert steps == {"pair": [15, 9, 15, 9], "multi": [15, 12, 9, 15, 12, 9]}


@pytest.mark.parametrize("walk_fn", [engine.pair_diff_counts, engine.pair_diff_support,
                                     engine.multi_diff_counts])
def test_one_state_walks_never_ask_diagonal(preset_family, monkeypatch, walk_fn):
    """The walks above hold one state at each of their stages 15..1. Each
    run of diagonal stages between the word stages is one scan of the
    stage table, and the word stages, whose windows are too wide to tell,
    are stepped without asking: the pair walks step stages 15 and 9, the
    multi walk 15, 12 and 9, and no walk calls _diagonal."""
    fam = preset_family
    A, j1, j2 = _deep_shifts(fam)
    if walk_fn is engine.multi_diff_counts:
        _, walk = tower._walk([A, A, A], [(0, 0), (j1, j1), (j2, j2)])
    else:
        _, walk = tower._walk([A, A], [(j1, j1), (0, 0)])
    asked, steps = [], []
    for name, log in [("_diagonal", asked), ("_step", steps), ("_support_step", steps),
                      ("_multi_step", steps)]:
        def counted(family, i, *args, _fn=getattr(engine, name), _log=log):
            _log.append(i)
            return _fn(family, i, *args)
        monkeypatch.setattr(engine, name, counted)
    assert walk_fn(fam, *walk)
    assert asked == []
    assert steps == ([15, 12, 9] if walk_fn is engine.multi_diff_counts else [15, 9])


@pytest.mark.parametrize("walk_fn", [engine.pair_diff_counts, engine.pair_diff_support,
                                     engine.multi_diff_counts])
def test_several_state_steps_ask_diagonal_once(example_family, monkeypatch, walk_fn):
    """Lags 1000..1100 of a three-run set on the example family: the pair
    walks step stages 3, 2 and 1 with hundreds of states, and the multi walk
    steps stage 55 with one state and stages 54..1 with more. Each step
    that holds more than one state asks _diagonal once, for its own stage,
    and no other call asks."""
    fam = example_family
    A = LevelSet.from_ranges(fam, 1, [(2, 6), (9, 12), (20, 30)])
    lags = [(1000, 1100), (0, 0)] + ([(500, 550)] if walk_fn is engine.multi_diff_counts
                                     else [])
    _, walk = tower._walk([A] * len(lags), lags)
    asked, steps = [], []
    for name in ["_diagonal", "_step", "_support_step", "_multi_step"]:
        def counted(family, i, *args, _fn=getattr(engine, name), _name=name):
            if _name == "_diagonal":
                asked.append(i)
            else:
                steps.append((i, len(args[0])))
            return _fn(family, i, *args)
        monkeypatch.setattr(engine, name, counted)
    assert walk_fn(fam, *walk)
    several = [i for i, n in steps if n > 1]
    assert asked == several
    if walk_fn is engine.multi_diff_counts:
        assert steps[0] == (55, 1) and several == list(range(54, 0, -1))
    else:
        assert several == [3, 2, 1] == [i for i, _ in steps]


def test_constrained_runs_count_their_kept_copies(preset_family, monkeypatch):
    """Constraints at stages inside the runs of the deep walks above: two
    stages of one run count their common copies in place of their cuts,
    and disjoint picks end the walk inside a run, after one step."""
    fam = preset_family
    steps = []
    step = engine._step

    def counted(family, i, *args):
        steps.append(i)
        return step(family, i, *args)

    monkeypatch.setattr(engine, "_step", counted)
    A, j1, j2 = _deep_shifts(fam)
    two = (A.constrain(13, (0, 1, 2)).constrain(11, (0, 3)),
           A.constrain(13, (1, 2, 3)).constrain(11, (3,)))
    disjoint = (A.constrain(13, (0, 1)), A.constrain(13, (2, 3)))
    free = engine.pair_diff_counts(fam, *tower._walk([A, A], [(j1, j1), (0, 0)])[1])
    for (A1, A2), kept, stepped in [(two, Fraction(2, 4) * Fraction(1, 4), [15, 9]),
                                    (disjoint, 0, [15])]:
        _, walk = tower._walk([A1, A2], [(j1, j1), (0, 0)])
        steps.clear()
        counts = engine.pair_diff_counts(fam, *walk)
        assert steps == stepped
        assert counts == _full_walk(fam, *walk)
        assert counts == {d: ways * kept for d, ways in free.items() if ways * kept}
        assert engine.pair_diff_support(fam, *walk) == sorted(counts)
        _, (n0, M, boxes, cons) = tower._walk([A1, A2, A2], [(0, 0), (j1, j1), (j2, j2)])
        multi = engine.multi_diff_counts(fam, n0, M, boxes, cons)
        assert multi == _full_multi_walk(fam, n0, M, boxes, cons)
        assert bool(multi) == bool(kept)


@pytest.mark.parametrize("name", sorted(set(REACH) | set(DEEP)))
def test_level_widths_invert_the_cut_products(request, name):
    """The run factor is a quotient of two width denominators: it rests on
    level_width(n) being 1 over the cuts of the stages below n multiplied."""
    fam = request.getfixturevalue(name)
    for n in range(fam.first_stage, 13):
        cuts = prod(fam.cuts_between(k) for k in range(fam.first_stage, n))
        assert fam.level_width(n) == Fraction(1, cuts), (name, n)


def test_walks_over_no_stage_keep_zero_only_inside_the_box(example_family):
    """A request with M = n0 walks no stage: its one state is the zero
    state it starts from, kept only when every box holds 0."""
    fam, none = example_family, [{}, {}]
    assert engine.pair_diff_counts(fam, 1, 1, [(5, 5)], none) == {}
    assert engine.pair_diff_support(fam, 1, 1, [(5, 5)], none) == []
    assert engine.multi_diff_counts(fam, 1, 1, [(5, 5)], none) == {}
    assert engine.pair_diff_counts(fam, 1, 1, [(-2, 3)], none) == {0: 1}
    assert engine.pair_diff_support(fam, 1, 1, [(0, 0)], none) == [0]
    assert engine.multi_diff_counts(fam, 1, 1, [(0, 4), (-1, 0)], [{}, {}, {}]) == {(0, 0): 1}
    assert engine.multi_diff_counts(fam, 1, 1, [(0, 4), (1, 2)], [{}, {}, {}]) == {}
    assert engine.lockstep_diff_states(fam, 1, 1, (1, 1, [(5, 5)], none),
                                       (1, 1, [(0, 0)], none), (-9, 9)) == ([], [])
