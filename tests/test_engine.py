"""The per-family stage table behind the engine walks, and the diagonal
stages the walks take without reading offsets."""

import sys
import threading
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutstack import engine
from cutstack.afs4 import (AfsParams, ConstRule, HScaleRule, PrefixRule, RatioCycleRule,
                           WMinimalRule, preset_infinite_ergodic_index)
from cutstack.errors import LiftError
from cutstack.synthesis import DirectionSpec, synthesize_R, synthesize_three_way
from cutstack.vl import ConstR, GeometricR, PowerR, PrefixR, VlFamily, VlSpec

FRESH = {
    "example_family": lambda: AfsParams(ConstRule(3), ConstRule(10), ConstRule(4), ConstRule(20)),
    "roomy_family": lambda: AfsParams(ConstRule(2), ConstRule(5), ConstRule(7), ConstRule(400)),
    "vl_small": lambda: VlFamily(VlSpec(1, ConstR(2))),
    "preset_family": lambda: preset_infinite_ergodic_index(8),
}


def reference_minimal_valid_stage(family, n0, need):
    """The lift-stage loop that summed the top offsets again on every call."""
    M, acc = n0, 0
    while acc + need > family.height(M) - 1:
        acc += family.offsets_between(M)[-1]
        M += 1
    return M


@pytest.mark.parametrize("name", sorted(FRESH))
def test_minimal_valid_stage_matches_reference(name, request):
    fam = request.getfixturevalue(name)
    for n0 in range(fam.first_stage, 7):
        # the largest need each stage m holds, and one more: every lift edge
        needs = {0, 1}
        acc = 0
        for m in range(n0, n0 + 4):
            fit = fam.height(m) - 1 - acc
            needs.update(x for x in (fit - 1, fit, fit + 1) if x >= 0)
            acc += fam.offsets_between(m)[-1]
        for need in sorted(needs):
            assert (engine.minimal_valid_stage(fam, n0, need)
                    == reference_minimal_valid_stage(fam, n0, need)), (n0, need)
    if name == "example_family":  # constant spacers climb about need/20 stages
        assert engine.minimal_valid_stage(fam, 0, 2600) == \
            reference_minimal_valid_stage(fam, 0, 2600)


def _fit(fam, n0, m):
    """The largest need that stage m holds for a lift from stage n0."""
    return fam.height(m) - 1 - sum(fam.offsets_between(t)[-1] for t in range(n0, m))


# the deep_shift benchmark's families, materialized to stage 42 in its set-up
LIFT = {
    "preset": lambda: preset_infinite_ergodic_index(8),
    "vl const": lambda: VlFamily(VlSpec(2, ConstR(4))),
    "vl power": lambda: VlFamily(VlSpec(2, PowerR(Fraction(3), Fraction(1, 2)))),
}


def _built(fam):
    """The highest stage the family has materialized."""
    return len(fam._heights) - 1


@pytest.mark.parametrize("prebuilt", [False, True])
@pytest.mark.parametrize("name", sorted(LIFT))
def test_lift_stage_bisection_matches_reference(name, prebuilt):
    """Every lift edge up to stage 40, from three base stages, on a family
    whose stage table holds stage 42 (the bisection answers alone) and on
    fresh ones searched deepest first and shallowest first."""
    ref = LIFT[name]()
    first = ref.first_stage
    for n0 in (first, first + 1, first + 2):
        needs = []
        for m in range(n0, 41):
            fit = _fit(ref, n0, m)
            needs += [x for x in (fit - 1, fit, fit + 1) if x >= 0]
        fam = LIFT[name]()
        if prebuilt:
            fam.ensure(42)
        for need in (needs[::-1] if n0 == first + 1 else needs):
            assert (engine.minimal_valid_stage(fam, n0, need)
                    == reference_minimal_valid_stage(ref, n0, need)), (n0, need)


@pytest.mark.parametrize("name", sorted(LIFT))
def test_lift_stage_search_builds_no_stage_past_its_answer(name):
    ref = LIFT[name]()
    fam = LIFT[name]()
    first = fam.first_stage
    # a climb from the fresh table, answers inside the table, then a climb
    # on from the table's end
    for m in (20, 12, 20, 21, 30):
        built = _built(fam)
        need = _fit(ref, first + 1, m)
        assert engine.minimal_valid_stage(fam, first + 1, need) == m
        assert _built(fam) == max(built, m), (m, built)
    assert engine.minimal_valid_stage(fam, first + 1, _fit(ref, first + 1, 35) + 1) == 36
    assert _built(fam) == 36


def test_lift_stage_cap_holds_inside_the_table(monkeypatch):
    """A table filled far above n0 still gives no lift stage beyond the cap."""
    fam = LIFT["preset"]()
    fam._top_sums_to(30)
    monkeypatch.setattr(engine, "LIFT_STAGE_CAP", 4)
    assert engine.minimal_valid_stage(fam, 2, _fit(fam, 2, 6)) == 6
    with pytest.raises(LiftError, match=r"LIFT_STAGE_CAP=4 stages of n0=2 for need="):
        engine.minimal_valid_stage(fam, 2, _fit(fam, 2, 6) + 1)


def _walks(fam, n0):
    """Pair walks with and without letter constraints, a three-operand walk
    and a lockstep walk, all with results, over the stages n0..n0+3, and
    lift-stage searches on either side of the edge of stage n0+12."""
    M = n0 + 3
    h = fam.height(n0)
    # copy 1 at stage M-1 and the top copy at n0 against copies 0: delta j
    j = fam.offsets_between(M - 1)[1] + fam.offsets_between(n0)[-1]
    lo, hi = j - h, j + h
    top = fam.cuts_between(n0) - 1
    deep = _fit(fam, n0, n0 + 12)
    return [
        ("pair", n0, M, [(lo, hi)], [{}, {}]),
        ("multi", n0, M, [(lo, hi), (-h, h)], [{}, {n0 + 1: (0, 1)}, {}]),
        ("lift", n0, deep + 1),
        ("lockstep", 1, 2, (n0, M, [(lo, hi)], [{}, {}]),
         (n0, M + 1, [(lo, hi)], [{}, {n0: (top,)}]), (j - 3 * h, j + 3 * h)),
        ("multi", n0, M, [(lo, hi), (lo, hi)], [{M - 1: (0,)}, {}, {n0: (top,)}]),
        ("pair", n0, M, [(-h, h)], [{n0 + 1: (0, 1)}, {M - 1: (1,)}]),
        ("lift", n0, deep),
        ("pair", n0, M, [(lo, hi)], [{n0: (0,)}, {n0: (top,)}]),
    ]


def _run(fam, walk):
    kind, *args = walk
    if kind == "lift":
        return engine.minimal_valid_stage(fam, *args)
    if kind == "pair":
        return engine.pair_diff_counts(fam, *args)
    if kind == "multi":
        return engine.multi_diff_counts(fam, *args)
    return engine.lockstep_diff_states(fam, *args)


@pytest.mark.parametrize("name", sorted(FRESH))
def test_warmed_family_walks_like_a_fresh_one(name):
    make = FRESH[name]
    first = make().first_stage
    targets = _walks(make(), first + 1)
    warm = make()
    # constrained walks before unconstrained ones over the same stages, walks
    # at other base stages, a lift-stage search, then walks after ensure has
    # grown the family
    for n0 in (first + 1, first, first + 2):
        for walk in reversed(_walks(warm, n0)):
            _run(warm, walk)
    engine.minimal_valid_stage(warm, first, warm.height(first + 3))
    warm.ensure(first + 9)
    for walk in _walks(warm, first + 3):
        _run(warm, walk)
    warmed = [_run(warm, walk) for walk in targets]
    fresh = make()
    assert warmed == [_run(fresh, walk) for walk in targets]
    # the table holds what one ensure to the same stage builds
    table = make()
    table.ensure(_built(warm))
    for attr in ("_heights", "_offsets", "_widths", "_tops"):
        assert getattr(warm, attr) == getattr(table, attr), attr
    # every walk has results; a lockstep walk gives one state set per walk
    assert all(all(r) if isinstance(r, tuple) else r for r in warmed)


@pytest.mark.parametrize("name", ["example_family", "vl_small"])
def test_threads_filling_one_stage_table(name):
    make = FRESH[name]
    first = make().first_stage
    walks = _walks(make(), first) + _walks(make(), first + 1)
    expected = [_run(make(), walk) for walk in walks]
    fam = make()
    # ensure appends unguarded, so the stage table is built first (the
    # deepest lift search ends at stage first + 14): the threads race on the
    # lazily filled caches only (the walks fill the selected offsets)
    fam.ensure(first + 15)
    results = {}

    def work(k):
        order = walks[k % len(walks):] + walks[:k % len(walks)]
        results[k] = {walks.index(w): _run(fam, w) for w in order}

    threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8
    for got in results.values():
        assert [got[i] for i in range(len(walks))] == expected


# the families of the diagonal-stage checks: the fixtures above and the
# zero-spacer family, whose adjacent copies lie exactly a column apart
DIAGONAL = dict(FRESH, zero_family=lambda: AfsParams(ConstRule(0), ConstRule(0),
                                                     ConstRule(0), ConstRule(1)))
DIAGONAL_FAMILIES = {name: make() for name, make in DIAGONAL.items()}


def reference_stage_diffs(fam, i, d_lo, d_hi, ca, cb):
    """The stage step with no diagonal shortcut: every offset of one side
    bisects for its partners on the other."""
    offs_a = fam._stage_offsets(i, ca.get(i))
    offs_b = fam._stage_offsets(i, cb.get(i))
    diffs = {}
    for a in offs_a:
        j = bisect_left(offs_b, a + d_lo)
        for b in offs_b[j:bisect_right(offs_b, a + d_hi, j)]:
            diffs[b - a] = diffs.get(b - a, 0) + 1
    return diffs


def reference_multi_diff_counts(fam, n0, M, boxes, constraints):
    """The multi walk with no diagonal shortcut: at every stage each base
    offset bisects for the partners of every other operand."""
    top = fam._top_sums_to(M)
    cur = {(0,) * len(boxes): 1}
    for i in range(M - 1, n0 - 1, -1):
        r = top[i] - top[n0]
        bounds = [(lo - r, hi + r) for lo, hi in boxes]
        windows = [(t_lo - max(col), t_hi - min(col))
                   for (t_lo, t_hi), col in zip(bounds, zip(*cur))]
        sides = [fam._stage_offsets(i, c.get(i)) for c in constraints]
        diffs = {}
        for a in sides[0]:
            blocks = [[o - a for o in offs[bisect_left(offs, a + w_lo):
                                           bisect_right(offs, a + w_hi)]]
                      for offs, (w_lo, w_hi) in zip(sides[1:], windows)]
            for dvec in product(*blocks):
                diffs[dvec] = diffs.get(dvec, 0) + 1
        nxt = {}
        for state, ways in cur.items():
            for dvec, mult in diffs.items():
                new = tuple(s + d for s, d in zip(state, dvec))
                if all(t_lo <= t <= t_hi for (t_lo, t_hi), t in zip(bounds, new)):
                    nxt[new] = nxt.get(new, 0) + ways * mult
        cur = nxt
        if not cur:
            break
    return cur


def _edge_windows(h):
    """Windows at the edges of the diagonal test: the widest diagonal one,
    one reaching -h or h, and diagonal ones that miss 0."""
    return [(1 - h, h - 1), (-h, h - 1), (1 - h, h), (1, h - 1), (1 - h, -1)]


@st.composite
def _picks(draw, cuts):
    """Two position constraints: none, equal, disjoint or partly overlapping."""
    every = list(range(cuts))
    kind = draw(st.sampled_from(["none", "one", "equal", "disjoint", "overlap"]))
    if kind == "none":
        return None, None
    first = tuple(sorted(draw(st.sets(st.sampled_from(every), min_size=1,
                                      max_size=max(1, cuts - 1)))))
    if kind == "one":
        return first, None
    if kind == "equal":
        return first, first
    rest = [u for u in every if u not in first]
    if kind == "disjoint" or not rest:
        return first, tuple(rest) or None
    extra = draw(st.sets(st.sampled_from(rest), min_size=1))
    keep = draw(st.sets(st.sampled_from(first), min_size=1))
    return first, tuple(sorted(set(keep) | extra))


@given(st.data())
@settings(max_examples=250, deadline=None)
def test_stage_diffs_match_reference(data):
    """Each step kernel, holding the two states 0 and 1 at reach 0 with the
    box [d_lo + 1, d_hi], asks _diagonal for the step window [d_lo, d_hi]
    and must reach what the bisecting reference's differences reach. State
    1 weighs more than any offset pair count, so every difference of the
    window shows in the counts."""
    name = data.draw(st.sampled_from(sorted(DIAGONAL_FAMILIES)))
    fam = DIAGONAL_FAMILIES[name]
    i = data.draw(st.integers(fam.first_stage, fam.first_stage + 3))
    h = fam.height(i)
    d_lo, d_hi = data.draw(st.sampled_from(_edge_windows(h)))
    pa, pb = data.draw(_picks(fam.cuts_between(i)))
    if data.draw(st.booleans()):
        pa, pb = pb, pa
    ca = {} if pa is None else {i: pa}
    cb = {} if pb is None else {i: pb}
    cur = {0: 1, 1: 1 << 20}
    want = {}
    for s, ways in cur.items():
        for d, mult in reference_stage_diffs(fam, i, d_lo, d_hi, ca, cb).items():
            if d_lo + 1 <= s + d <= d_hi:
                want[s + d] = want.get(s + d, 0) + ways * mult
    boxes, cons = [(d_lo + 1, d_hi)], [ca, cb]
    assert engine._step(fam, i, cur, 0, boxes, cons) == want
    assert engine._support_step(fam, i, sorted(cur), 0, boxes, cons) == sorted(want)
    assert (engine._multi_step(fam, i, {(s,): w for s, w in cur.items()}, 0, boxes, cons)
            == {(t,): w for t, w in want.items()})


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_multi_walk_matches_reference(data):
    name = data.draw(st.sampled_from(sorted(DIAGONAL_FAMILIES)))
    fam = DIAGONAL_FAMILIES[name]
    n0 = data.draw(st.integers(fam.first_stage, fam.first_stage + 1))
    M = n0 + data.draw(st.integers(2, 4))
    k = data.draw(st.sampled_from([3, 4]))
    h = fam.height(n0)
    boxes = []
    for _ in range(k - 1):
        # a word difference at one stage: copy u against copy u + 1, plus a
        # top-copy chain below it, so the lower stages see narrow windows
        s = data.draw(st.integers(n0, M - 1))
        offs = fam.offsets_between(s)
        u = data.draw(st.integers(0, len(offs) - 2))
        j = data.draw(st.sampled_from([0, offs[u + 1] - offs[u], offs[u] - offs[u + 1]]))
        j += data.draw(st.sampled_from([0, fam.offsets_between(n0)[-1]]))
        w = data.draw(st.sampled_from([0, 1, h - 1, h]))
        boxes.append((j - w, j + data.draw(st.sampled_from([0, 1, h - 1, h]))))
    constraints = []
    for _ in range(k):
        c = {}
        for t in data.draw(st.sets(st.integers(n0, M - 1), max_size=2)):
            cuts = fam.cuts_between(t)
            c[t] = tuple(sorted(data.draw(st.sets(st.integers(0, cuts - 1), min_size=1,
                                                  max_size=cuts))))
        constraints.append(c)
    assert (engine.multi_diff_counts(fam, n0, M, boxes, constraints)
            == reference_multi_diff_counts(fam, n0, M, boxes, constraints))


HALF, THIRD = Fraction(1, 2), Fraction(1, 3)
PREMISE = {
    "afs4 const": DIAGONAL["example_family"],
    "afs4 zero spacers": DIAGONAL["zero_family"],
    "afs4 prefix": lambda: AfsParams(PrefixRule((3, 0, 5, 1, 2)), ConstRule(1),
                                     PrefixRule((0, 4, 0, 2, 1)), ConstRule(0)),
    "afs4 h_scale and ratio_cycle": lambda: AfsParams(
        HScaleRule(1), ConstRule(10), RatioCycleRule((HALF, THIRD)), ConstRule(20)),
    "afs4 w_minimal": lambda: AfsParams(ConstRule(2), WMinimalRule(), HScaleRule(3, 2, 1),
                                        WMinimalRule()),
    "preset": lambda: preset_infinite_ergodic_index(6),
    "synthesized ergodic set": lambda: synthesize_R(DirectionSpec(ratios=(HALF,)), 6)[0],
    "synthesized three-way": lambda: synthesize_three_way(
        DirectionSpec(ratios=(HALF,), ergodic_subset=()), 6)[0],
    "vl const": DIAGONAL["vl_small"],
    "vl power": lambda: VlFamily(VlSpec(2, PowerR(Fraction(3), Fraction(1, 2)))),
    "vl geometric": lambda: VlFamily(VlSpec(1, GeometricR(2, 2))),
    "vl prefix": lambda: VlFamily(VlSpec(2, PrefixR((3, 3, 4, 6, 6, 7, 9)))),
}


@pytest.mark.parametrize("name", sorted(PREMISE))
def test_copy_offsets_lie_a_column_apart(name):
    """The premise of engine._diagonal: distinct copies of column n inside
    column n+1 start at least height(n) apart, so a step window strictly
    inside (-height(n), height(n)) can pair a copy only with itself."""
    fam = PREMISE[name]()
    for n in range(fam.first_stage, fam.first_stage + 5):
        offs = fam.offsets_between(n)
        gaps = [b - a for a, b in zip(offs, offs[1:])]
        assert gaps and min(gaps) >= fam.height(n), (name, n, gaps)
        assert offs[-1] + fam.height(n) <= fam.height(n + 1), (name, n)
