"""The per-family stage table behind the engine walks."""

import sys
import threading

import pytest

from cutstack import engine
from cutstack.afs4 import AfsParams, ConstRule, preset_infinite_ergodic_index
from cutstack.vl import ConstR, VlFamily, VlSpec

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


def _walks(fam, n0):
    """Pair walks with and without letter constraints, a three-operand walk
    and a lockstep walk, all with results, over the stages n0..n0+3."""
    M = n0 + 3
    h = fam.height(n0)
    # copy 1 at stage M-1 and the top copy at n0 against copies 0: delta j
    j = fam.offsets_between(M - 1)[1] + fam.offsets_between(n0)[-1]
    lo, hi = j - h, j + h
    top = fam.cuts_between(n0) - 1
    return [
        ("pair", n0, M, lo, hi, None, None),
        ("multi", n0, M, [(lo, hi), (-h, h)], [None, {n0 + 1: (0, 1)}, None]),
        ("lockstep", 1, 2, (n0, M, lo, hi, None, None),
         (n0, M + 1, lo, hi, None, {n0: (top,)}), (j - 3 * h, j + 3 * h)),
        ("multi", n0, M, [(lo, hi), (lo, hi)], [{M - 1: (0,)}, None, {n0: (top,)}]),
        ("pair", n0, M, -h, h, {n0 + 1: (0, 1)}, {M - 1: (1,)}),
        ("pair", n0, M, lo, hi, {n0: (0,)}, {n0: (top,)}),
    ]


def _run(fam, walk):
    kind, *args = walk
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
    # every walk has results; a lockstep walk gives one state set per walk
    assert all(all(r) if isinstance(r, tuple) else r for r in warmed)


@pytest.mark.parametrize("name", ["example_family", "vl_small"])
def test_threads_filling_one_stage_table(name):
    make = FRESH[name]
    first = make().first_stage
    walks = _walks(make(), first) + _walks(make(), first + 1)
    expected = [_run(make(), walk) for walk in walks]
    fam = make()
    # ensure appends unguarded, so the columns come first: the threads race
    # on the empty stage table only
    fam.ensure(first + 6)
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
