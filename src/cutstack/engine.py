"""Offset-word counting for shifts far beyond any materializable column.

A level of the stage-n0 column appears in the stage-M column once per word
w = (choice at n0, ..., choice at M-1) of subcolumn copies, at position
pos(w) + base, where pos(w) is the sum of the chosen embed offsets. Every
index of the stage-M column decomposes uniquely this way, so the number of
coincidences behind any correlation is a count of word pairs with a
prescribed position difference.

Those counts are computed by a top-down walk over the stages. Offsets grow so
fast that once the partial difference leaves the window reachable by the
remaining lower stages the branch is dead, which is what makes shifts of
size 10^30 and more exact and cheap.

Every walk takes one request after the family, (n0, M, boxes,
constraints), as :func:`cutstack.tower._walk` builds it: the base stage
n0, the lift stage M, one box [lo, hi] of differences pos(w_t) - pos(w_0)
per operand t >= 1, and one map per operand from a transition to the
copy positions it keeps (intersections with whole subcolumn unions). A
pair walk is the request with one box and two maps.

Correlations and intersections need the counts, so :func:`pair_diff_counts`
and :func:`multi_diff_counts` carry a count per state. Return supports and
return sets ask only which deltas a walk reaches, so
:func:`pair_diff_support` and :func:`lockstep_diff_states` carry a sorted
list of deltas with no counts (which on constant-spacer families reach
about a thousand digits), and a stage extends it by one slice shift per
offset difference.

The lift stage M can lie far above the first stage S whose column is taller
than the window: with constant spacers the column top gains only the top
spacer per stage, so M climbs about one stage per top spacer of lag. Above
S the only word pairs that can still reach a window with lo > -height(n0)
are the equal ones and one chain per (stage, adjacent copy pair), so the
pair and lockstep walks start at S - 1 from those states, written in
closed form (:func:`_seed`), and pay for the stages below S only.

What a walk reads at a stage depends only on the family and the stage, so it
lives in the family's stage table (:class:`cutstack.tower.Family`), built
once a stage: heights, offsets and the prefix sums of the top offsets, from
which the reach of the stages still to walk and the lift stage are read by
subtraction. The walks fill one cache lazily: for each (stage, allowed
positions or none) the sorted offsets of those copies. Distinct copies of a
stage lie at least a column height apart, so a stage whose step windows fit
strictly inside the column can only pair each copy with itself; such a
diagonal stage costs one comparison of each window with the column height
(:func:`_diagonal`) and reads no offset. Any other stage costs what its
surviving states and the offset pairs inside the window cost: each offset
finds its partners by bisection, and no table of all offset differences is
built (quadratic in the cut count, which reaches the thousands on geometric
vector families).

The pair and multi walks descend the stages in one loop (:func:`_descend`)
and differ only in their step kernels and state types. A deep shift is a
word difference at a few stages, so its walk holds one state through long
runs of diagonal stages. While a walk holds one state, the loop takes a
whole run of them in one scan of the stage table (:func:`_diagonal_run`),
two comparisons a stage, and builds no state: the state stays, and a
counting walk multiplies one pending factor by the run's count, a quotient
of two level widths, paid into the counts once at the end. A step kernel
asks :func:`_diagonal` only when it holds more than one state: one state
reaches a kernel only where a run scan found the window too wide to tell.

The lift stage is the first whose room, height minus top-offset sum, holds
the need. The room never falls, so :func:`minimal_valid_stage` bisects
over the stages the family has built and climbs one stage at a time only
past them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import compress, islice, product, repeat
from operator import add, ne, sub

from .errors import LiftError

# Guard against pathological families where scale separation fails to prune.
STATE_CAP = 2_000_000
LIFT_STAGE_CAP = 5_000


def minimal_valid_stage(family, n0: int, need: int) -> int:
    """Smallest stage M >= n0 whose column contains every base index plus shift.

    ``need`` is max(base index + shift) over the operands; lifting adds the
    top embed offset of each crossed stage to all indices, so M is the first
    stage whose room height(M) - 1 - top[M] reaches need - top[n0]. The room
    never falls, because the top copy of stage n ends inside column n+1
    (offs[-1] + height(n) <= height(n+1), which
    ``test_copy_offsets_lie_a_column_apart`` pins), so a bisection over the
    stages the family has built, reading its held height and top-sum
    tables, finds M there; past them the search climbs one stage at a time
    and builds no stage above M.
    """
    top = family._top_sums_to(n0)
    heights = family._heights_to(n0)
    base = top[n0]
    # the tables are indexed by stage and hold every built stage
    held = range(n0, min(len(heights), n0 + LIFT_STAGE_CAP + 1))
    M = n0 + bisect_left(held, need - base, key=lambda m: heights[m] - 1 - top[m])
    if M < held.stop:
        return M
    M -= 1  # the last held stage falls short: climb on from it
    while family._top_sums_to(M)[M] - base + need > family.height(M) - 1:
        M += 1
        if M - n0 > LIFT_STAGE_CAP:
            raise LiftError(f"no valid lift stage within LIFT_STAGE_CAP="
                            f"{LIFT_STAGE_CAP} stages of n0={n0} for need={need}")
    return M


def _check_cap(n_states: int, stage: int) -> None:
    if n_states > STATE_CAP:
        raise LiftError(f"difference-count state explosion at stage {stage}: "
                        f"{n_states} states exceed STATE_CAP={STATE_CAP}; "
                        "window too wide for this family")


def _diagonal(family, i: int, windows, picks) -> int | None:
    """The number of stage-i copies that every operand selects when each
    step window in ``windows`` can hold only the difference 0, 0 when some
    window misses 0 as well, and None when some window is too wide to tell.

    ``picks`` holds each operand's allowed positions at stage i (None for
    all copies). Copies of column i are disjoint intervals of length
    height(i) inside column i+1, so two distinct offsets of stage i lie at
    least height(i) apart (``test_copy_offsets_lie_a_column_apart`` pins
    this for every family kind). A window strictly inside (-height(i),
    height(i)) therefore holds no difference of distinct offsets, and the
    only steps it admits pair each copy with itself. The inequality is
    strict: with zero spacers two copies lie exactly height(i) apart. The
    decision compares each window once with height(i), before any offset
    is read.
    """
    h = family.height(i)
    for w_lo, w_hi in windows:
        if w_lo <= -h or w_hi >= h:
            return None
    for w_lo, w_hi in windows:
        if w_lo > 0 or w_hi < 0:
            return 0
    return _kept_copies(family, i, picks)


def _kept_copies(family, i: int, picks) -> int:
    """The number of stage-i copies that every operand selects, where
    ``picks`` holds each operand's allowed positions (None for all)."""
    first = picks[0]
    if picks.count(first) == len(picks):
        return len(family._stage_offsets(i, first))
    common = set(family._stage_offsets(i, first))
    for p in picks[1:]:
        common.intersection_update(family._stage_offsets(i, p))
    return len(common)


def _diagonal_run(family, i: int, n0: int, x: tuple[int, ...],
                  boxes: list[tuple[int, int]],
                  constraints: list[dict[int, tuple[int, ...]]],
                  ) -> tuple[int, int]:
    """The run of diagonal stages from stage i down that a walk holding the
    one state ``x`` (one delta per box) takes without a step: (s, c), where
    stages s+1..i keep x, c ways. s < n0 means the walk is done, and c = 0
    that it ends empty; otherwise stage s is the next to step, and its
    step window is too wide for :func:`_diagonal` to tell.

    With r = top[s] - top[n0] the reach of the stages below s, stage s
    moves x_t by a difference in the step window (lo_t - r - x_t, hi_t + r
    - x_t) of each box [lo_t, hi_t]. The windows
    (a) fit strictly inside (-height(s), height(s)) exactly when
        height(s) - r > max(x_t - lo_t, hi_t - x_t) for every t, and
    (b) hold 0 exactly when r >= max(lo_t - x_t, x_t - hi_t) for every t.
    Both are reads of the stage table. Where both hold, :func:`_diagonal`'s
    argument (its premise is ``test_copy_offsets_lie_a_column_apart``)
    admits only the steps that pair each copy with itself, so stepping the
    stage leaves x and multiplies its count by the copies every operand
    selects; where (a) holds and (b) fails it admits no step. So a scan
    that checks each stage gives what stepping each stage gives.

    Every operand selects every copy of a stage that no constraint map
    keys, and level_width(n) is 1 over the cuts of the stages below n
    multiplied, so the cuts of stages s+1..i multiply to the quotient of
    the width denominators of stages i+1 and s+1; a constrained stage
    counts the copies kept instead of its cuts.
    """
    heights = family._heights_to(i)
    top = family._top_sums_to(i)
    base = top[n0]
    gaps = [g for v, (lo, hi) in zip(x, boxes) for g in (v - lo, hi - v)]
    # (a) is heights[s] - top[s] > room and (b) is top[s] >= floor
    room, floor = max(gaps) - base, base - min(gaps)
    s = i
    while s >= n0 and top[s] >= floor and heights[s] - top[s] > room:
        s -= 1
    if s >= n0 and heights[s] - top[s] > room:
        return s, 0
    if s == i:
        return s, 1
    ways = family.level_width(i + 1).denominator // family.level_width(s + 1).denominator
    for t in {t for c in constraints for t in c if s < t <= i}:
        kept = _kept_copies(family, t, [c.get(t) for c in constraints])
        if not kept:
            return s, 0
        ways = ways // family.cuts_between(t) * kept
    return s, ways


def _no_state_fits(n0: int, M: int, boxes: list[tuple[int, int]]) -> bool:
    """Whether no walk of the request can end in its boxes: some box is
    empty, or the request walks no stage, so that it ends at the zero
    state it starts from, and some box misses 0."""
    if M <= n0:
        return any(lo > 0 or hi < 0 for lo, hi in boxes)
    return any(lo > hi for lo, hi in boxes)


def _stage_diffs(family, i: int, d_lo: int, d_hi: int, pa, pb) -> dict[int, int]:
    """The stage-i offset differences b - a in [d_lo, d_hi], each with the
    number of offset pairs (a, b) that give it, where a and b are offsets of
    the copies at positions ``pa`` and ``pb`` (None for all): the partners
    of each offset are found by bisection."""
    offs_a = family._stage_offsets(i, pa)
    offs_b = family._stage_offsets(i, pb)
    # offsets are sorted, so the partners b of each a form one contiguous block
    diffs: dict[int, int] = {}
    for a in offs_a:
        j = bisect_left(offs_b, a + d_lo)
        for b in offs_b[j:bisect_right(offs_b, a + d_hi, j)]:
            d = b - a
            diffs[d] = diffs.get(d, 0) + 1
    return diffs


def _step(family, i: int, cur: dict[int, int], r: int, boxes: list[tuple[int, int]],
          constraints: list[dict[int, tuple[int, ...]]]) -> dict[int, int]:
    """One stage of the top-down counting walk of the pair request with
    ``boxes`` [(lo, hi)] and ``constraints`` [ca, cb]: extend every state
    by the stage-i offset differences b - a, keeping those that can still
    end in [lo, hi] with the remaining reach r. More than one state asks
    :func:`_diagonal` for the window first. ``cur`` must be nonempty."""
    [(lo, hi)], (ca, cb) = boxes, constraints
    t_lo, t_hi = lo - r, hi + r
    # viable step sizes: some state must stay within window +- remaining reach
    d_lo, d_hi, pa, pb = t_lo - max(cur), t_hi - min(cur), ca.get(i), cb.get(i)
    kept = _diagonal(family, i, ((d_lo, d_hi),), (pa, pb)) if len(cur) > 1 else None
    if kept == 0:
        return {}
    diffs = _stage_diffs(family, i, d_lo, d_hi, pa, pb) if kept is None else {0: kept}
    nxt: dict[int, int] = {}
    for s, ways in cur.items():
        for d, mult in diffs.items():
            t = s + d
            if t_lo <= t <= t_hi:
                nxt[t] = nxt.get(t, 0) + ways * mult
    return nxt


def _support_step(family, i: int, cur: list[int], r: int, boxes: list[tuple[int, int]],
                  constraints: list[dict[int, tuple[int, ...]]]) -> list[int]:
    """:func:`_step` without the counts: the sorted states it reaches from
    the sorted nonempty states ``cur``. The sums state + difference in the
    window that one entry x of the shorter of the two sorted lists makes
    are one slice of the longer list, shifted by x, so the Python loop runs
    over the shorter list only."""
    [(lo, hi)], (ca, cb) = boxes, constraints
    t_lo, t_hi = lo - r, hi + r
    d_lo, d_hi, pa, pb = t_lo - cur[-1], t_hi - cur[0], ca.get(i), cb.get(i)
    kept = _diagonal(family, i, ((d_lo, d_hi),), (pa, pb)) if len(cur) > 1 else None
    if kept == 0:
        return []
    diffs = sorted(_stage_diffs(family, i, d_lo, d_hi, pa, pb)) if kept is None else [0]
    outer, inner = (cur, diffs) if len(cur) < len(diffs) else (diffs, cur)
    if len(outer) == 1:  # one slice, sorted and free of repeats already
        x = outer[0]
        j = bisect_left(inner, t_lo - x)
        return list(map(add, inner[j:bisect_right(inner, t_hi - x, j)], repeat(x)))
    cuts = []
    for x in outer:
        j = bisect_left(inner, t_lo - x)
        cuts.append((j, bisect_right(inner, t_hi - x, j), x))
    if sum(k - j for j, k, _ in cuts) > t_hi - t_lo + 1:
        # more shifted states than window slots, so repeats are many: a set
        # drops them as they come (one sort of every slice makes the
        # lockstep walks of classify --horizon about 1.5x slower, as
        # BENCH_support_walk.json records)
        seen: set[int] = set()
        for j, k, x in cuts:
            seen.update(map(add, inner[j:k], repeat(x)))
        return sorted(seen)
    # few repeats: the shifted slices are sorted runs, which one sort merges
    # (sorting a set of them makes return_sets' support walks about 1.7x
    # slower)
    nxt: list[int] = []
    for j, k, x in cuts:
        nxt += map(add, inner[j:k], repeat(x))
    nxt.sort()
    return list(compress(nxt, map(ne, nxt, islice(nxt, 1, None)))) + nxt[-1:]


def _seed(family, n0: int, M: int, boxes: list[tuple[int, int]],
          constraints: list[dict[int, tuple[int, ...]]],
          ) -> tuple[int, dict[int, int]]:
    """(S, the states of a pair walk after stages M-1..S), in closed form,
    for the pair request (n0, M, [(lo, hi)], [ca, cb]).

    S is the first stage >= n0, and above every constrained transition,
    whose height exceeds ``hi``. Above S each letter pair is either equal
    (the diagonal) or one chain: copy a against copy a + 1 at a stage s,
    then the top copy against copy 0 at every stage from s - 1 down to S.
    The diagonal adds 0 and a chain adds o_{a+1}(s) - o_a(s) - (top[s] -
    top[S]); the stages above s are equal pairs, so the diagonal weighs
    the cuts of stages S..M-1 multiplied and a chain those of s+1..M-1.

    Why it is exact: take any other letter-pair sequence and its highest
    unequal stage s. If it goes backwards there, its delta is at most
    -height(n0), below ``lo``. If it skips a copy, its delta is at least
    height(s) + height(n0) > hi. If it leaves the chain at a stage t below
    s, its delta is at least 2 height(t) - (top[t] - top[n0]) > height(t)
    > hi. So no other sequence reaches the window, and dropping a state
    that cannot reach the window never changes a walk's result. The
    states kept also pass the walk's own window test at stage S.

    Returns (M, {0: 1}), the walk's own start, when there is no such S
    below M or when ``lo`` reaches -height(n0). The first test is one
    height comparison, so walks whose top stage is needed cost nothing.
    """
    [(lo, hi)] = boxes
    if M <= n0:
        return M, {0: 1}
    heights = family._heights_to(M - 1)
    if heights[M - 1] <= hi or lo <= -heights[n0]:
        return M, {0: 1}
    S = max([n0] + [t + 1 for c in constraints for t in c])
    if S >= M:
        return M, {0: 1}
    # heights never decrease and height(M - 1) > hi: bisect for the first
    # stage taller than hi
    S += bisect_right(range(S, M - 1), hi, key=heights.__getitem__)
    top = family._top_sums_to(M)
    t_hi = hi + top[S] - top[n0]
    t_lo = lo - top[S] + top[n0]
    cur: dict[int, int] = {}
    ways = 1
    for s in range(M - 1, S - 1, -1):
        offs = family._stage_offsets(s, None)
        shift = top[s] - top[S]
        # copies lie height(s) apart at least, so every chain from s adds at
        # least height(s) - shift, which never falls as s grows
        if heights[s] - shift <= t_hi:
            for a, b in zip(offs, offs[1:]):
                t = b - a - shift
                if t <= t_hi:
                    cur[t] = cur.get(t, 0) + ways
        ways *= len(offs)
    if t_lo <= 0 <= t_hi:
        cur[0] = ways
    return S, cur


def _descend(family, n0: int, i: int, cur, boxes: list[tuple[int, int]],
             constraints: list[dict[int, tuple[int, ...]]], step):
    """The walk of the request (n0, _, boxes, constraints) from the states
    ``cur`` through stages i..n0, one ``step`` a stage: (the final states,
    the factor the counts of a counting walk still owe).

    While the walk holds one state, :func:`_diagonal_run` takes the whole
    run of diagonal stages below it in one scan of the stage table, and
    the count of the state gains the run's factor; a run that admits no
    step ends the walk empty. A step is linear in the counts and keeps or
    drops a state by its deltas alone, so multiplying the final counts by
    the product of these factors gives what stepping every stage gives; a
    support walk drops the factor. A ``step`` asks :func:`_diagonal` only
    when it holds more than one state: one state reaches it only at the
    stage that ends a run, whose window the scan found too wide to tell.
    """
    top = family._top_sums_to(max(i, n0))
    base = top[n0]
    factor = 1
    while i >= n0 and cur:
        if len(cur) == 1:
            # a pair walk's state is its one delta, a multi walk's a tuple
            x = next(iter(cur))
            i, ways = _diagonal_run(family, i, n0, x if type(x) is tuple else (x,),
                                    boxes, constraints)
            if not ways:
                return type(cur)(), 1
            factor *= ways
            if i < n0:
                break
        cur = step(family, i, cur, top[i] - base, boxes, constraints)
        _check_cap(len(cur), i)
        i -= 1
    return cur, factor


def _pair_states(family, n0: int, M: int, boxes: list[tuple[int, int]],
                 constraints: list[dict[int, tuple[int, ...]]], start, step):
    """:func:`_descend` for the pair request (n0, M, [(lo, hi)], [ca, cb])
    from ``start(seed states)`` through the stages below the :func:`_seed`
    stage. A request no state can end in walks nothing."""
    if _no_state_fits(n0, M, boxes):
        return start({}), 1
    S, seed = _seed(family, n0, M, boxes, constraints)
    return _descend(family, n0, S - 1, start(seed), boxes, constraints, step)


def pair_diff_counts(family, n0: int, M: int, boxes: list[tuple[int, int]],
                     constraints: list[dict[int, tuple[int, ...]]],
                     ) -> dict[int, int]:
    """Counts of word pairs (w_a, w_b) over stages n0..M-1 with
    pos(w_b) - pos(w_a) = delta, for every delta in the one box
    [lo, hi], where w_a and w_b keep the copies their constraint maps
    allow. The request is :func:`multi_diff_counts`'s with two operands,
    and the walk starts below the stages :func:`_seed` answers in closed
    form."""
    cur, factor = _pair_states(family, n0, M, boxes, constraints, dict, _step)
    return {d: ways * factor for d, ways in cur.items()} if factor > 1 else cur


def pair_diff_support(family, n0: int, M: int, boxes: list[tuple[int, int]],
                      constraints: list[dict[int, tuple[int, ...]]],
                      ) -> list[int]:
    """The deltas of :func:`pair_diff_counts`, sorted, without their counts."""
    return _pair_states(family, n0, M, boxes, constraints, sorted, _support_step)[0]


def _partnered(cur: list[int], others: list[int], a: int, b: int,
               g_lo: int, g_hi: int) -> list[int]:
    """States s of the sorted nonempty ``cur`` with a*s - b*t in
    [g_lo, g_hi] for some t in the sorted list ``others`` (a, b > 0): t
    must lie in [ceil((a*s - g_hi) / b), floor((a*s - g_lo) / b)]."""
    n = len(others)
    if not n:
        return []
    # Dense walks drop nothing: when each window meets [others[0], others[-1]]
    # and is at least as long as the widest gap between neighbours in
    # ``others``, it holds one of them. The windows move up with s, so the
    # extreme states decide the first condition.
    widest = max(map(sub, others[1:], others), default=0)
    if (g_hi - g_lo >= b * widest and a * cur[-1] - g_hi <= b * others[-1]
            and a * cur[0] - g_lo >= b * others[0]):
        return cur
    out = []
    for s in cur:
        k = bisect_left(others, -((g_hi - a * s) // b))
        if k < n and others[k] <= (a * s - g_lo) // b:
            out.append(s)
    return out


def lockstep_diff_states(family, p: int, q: int, walk_p: tuple, walk_q: tuple,
                         gap: tuple[int, int],
                         ) -> tuple[list[int], list[int]]:
    """Two :func:`pair_diff_support` walks in lockstep, pruned by
    proportionality.

    ``walk_p`` and ``walk_q`` are each a pair request of
    :func:`pair_diff_support`, (n0, M, [(lo, hi)], [ca, cb]), and the
    result holds their final states, as sorted delta lists. Each walk
    keeps its own state list, never pairs; stage i is walked by both at
    once, and a walk sits at its :func:`_seed` states above the stage it
    starts below and keeps its states below its n0. After each stage a
    state delta_p survives only if some state delta_q of the other walk
    has q*delta_p - p*delta_q within q*r_p + p*r_q of ``gap``, and the
    reverse, where r_p and r_q are what the unwalked stages can still add
    to each delta: a pair outside that slack can never meet the gap. Every
    pair of final deltas with q*delta_p - p*delta_q in ``gap`` survives,
    but a survivor need not have such a partner.
    """
    n_p, M_p, boxes_p, cons_p = walk_p
    n_q, M_q, boxes_q, cons_q = walk_q
    g_lo, g_hi = gap
    if (g_lo > g_hi or _no_state_fits(n_p, M_p, boxes_p)
            or _no_state_fits(n_q, M_q, boxes_q)):
        return [], []
    S_p, seed_p = _seed(family, *walk_p)
    S_q, seed_q = _seed(family, *walk_q)
    if not seed_p or not seed_q:
        return [], []
    cur_p, cur_q = sorted(seed_p), sorted(seed_q)
    top = family._top_sums_to(max(M_p, M_q))
    base_p, base_q = top[n_p], top[n_q]
    for i in range(max(S_p, S_q) - 1, min(n_p, n_q) - 1, -1):
        if n_p <= i < S_p:
            cur_p = _support_step(family, i, cur_p, top[i] - base_p, boxes_p, cons_p)
            if not cur_p:
                return [], []
        if n_q <= i < S_q:
            cur_q = _support_step(family, i, cur_q, top[i] - base_q, boxes_q, cons_q)
        r_p = top[min(max(i, n_p), S_p)] - base_p
        r_q = top[min(max(i, n_q), S_q)] - base_q
        slack = q * r_p + p * r_q
        cur_p = _partnered(cur_p, cur_q, q, p, g_lo - slack, g_hi + slack)
        cur_q = _partnered(cur_q, cur_p, p, q, -g_hi - slack, -g_lo + slack)
        if not cur_q:
            return [], []
        _check_cap(max(len(cur_p), len(cur_q)), i)
    return cur_p, cur_q


def _multi_step(family, i: int, cur: dict[tuple[int, ...], int], r: int,
                boxes: list[tuple[int, int]], constraints: list[dict[int, tuple[int, ...]]],
                ) -> dict[tuple[int, ...], int]:
    """One stage of the multi walk: extend every state by the stage-i step
    vectors, keeping those that can still end in the boxes with the
    remaining reach r. More than one state asks :func:`_diagonal` for the
    viable step windows first, and the zero vector is the only step when
    it answers; otherwise each base offset finds the partners of every
    other operand by bisection, and their product gives the vectors.
    ``cur`` must be nonempty."""
    # states that can still end in the boxes with the remaining reach r
    bounds = [(lo - r, hi + r) for lo, hi in boxes]
    picks = [c.get(i) for c in constraints]
    # per-dimension viable step windows given the surviving states
    if len(cur) == 1:
        (x,) = cur
        windows = [(lo - r - s, hi + r - s) for (lo, hi), s in zip(boxes, x)]
        kept = None
    else:
        windows = [(lo - r - max(col), hi + r - min(col))
                   for (lo, hi), col in zip(boxes, zip(*cur))]
        kept = _diagonal(family, i, windows, picks)
    if kept == 0:
        return {}
    if kept is not None:
        diffs = {(0,) * len(boxes): kept}
    else:
        base_offs = family._stage_offsets(i, picks[0])
        side_offs = [family._stage_offsets(i, p) for p in picks[1:]]
        diffs = {}
        for a in base_offs:
            blocks = []
            for offs, (w_lo, w_hi) in zip(side_offs, windows):
                j = bisect_left(offs, a + w_lo)
                block = [o - a for o in offs[j:bisect_right(offs, a + w_hi, j)]]
                if not block:
                    break
                blocks.append(block)
            else:
                for dvec in product(*blocks):
                    diffs[dvec] = diffs.get(dvec, 0) + 1
    nxt: dict[tuple[int, ...], int] = {}
    for state, ways in cur.items():
        for dvec, mult in diffs.items():
            new = tuple(map(add, state, dvec))
            for (t_lo, t_hi), t in zip(bounds, new):
                if not t_lo <= t <= t_hi:
                    break
            else:
                nxt[new] = nxt.get(new, 0) + ways * mult
    return nxt


def multi_diff_counts(family, n0: int, M: int, boxes: list[tuple[int, int]],
                      constraints: list[dict[int, tuple[int, ...]]],
                      ) -> dict[tuple[int, ...], int]:
    """k-operand generalization: counts of word tuples (w_0..w_{k-1}) with
    pos(w_t) - pos(w_0) = delta_t inside boxes[t-1] for t = 1..k-1, the
    :func:`_descend` of the zero state through stages M-1..n0, one
    :func:`_multi_step` a stage."""
    k = len(constraints)
    if k < 2 or len(boxes) != k - 1:
        raise ValueError("need k >= 2 operands and k-1 boxes")
    if _no_state_fits(n0, M, boxes):
        return {}
    cur, factor = _descend(family, n0, M - 1, {(0,) * (k - 1): 1}, boxes, constraints,
                           _multi_step)
    return {s: ways * factor for s, ways in cur.items()} if factor > 1 else cur
