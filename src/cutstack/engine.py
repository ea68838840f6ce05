"""Offset-word counting for shifts far beyond any materializable column.

A level of the stage-n0 column appears in the stage-M column once per word
w = (choice at n0, ..., choice at M-1) of subcolumn copies, at position
pos(w) + base, where pos(w) is the sum of the chosen embed offsets. Every
index of the stage-M column decomposes uniquely this way, so the number of
coincidences behind any correlation is a count of word pairs with a
prescribed position difference.

Those counts are computed by a top-down walk over the stages. Offsets grow so
fast that once the partial difference leaves the window reachable by the
remaining lower stages the branch is dead; in practice a handful of states
survive per stage, which is what makes shifts of size 10^30 and more exact
and cheap. Per-stage "allowed position" maps restrict a side to chosen
subcolumn copies (used for intersections with whole subcolumn unions).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from itertools import product
from operator import sub

from .errors import LiftError

# Guard against pathological families where scale separation fails to prune.
STATE_CAP = 2_000_000
LIFT_STAGE_CAP = 5_000


def minimal_valid_stage(family, n0: int, need: int) -> int:
    """Smallest stage M >= n0 whose column contains every base index plus shift.

    ``need`` is max(base index + shift) over the operands; lifting adds the
    top embed offset of each crossed stage to all indices.
    """
    M, acc = n0, 0
    while acc + need > family.height(M) - 1:
        acc += family.offsets_between(M)[-1]
        M += 1
        if M - n0 > LIFT_STAGE_CAP:
            raise LiftError(f"no valid lift stage within LIFT_STAGE_CAP="
                            f"{LIFT_STAGE_CAP} stages of n0={n0} for need={need}")
    return M


def _reach(family, n0: int, M: int) -> list[int]:
    """reach[i - n0] = max |pos difference| achievable by stages n0..i-1."""
    out = [0]
    for t in range(n0, M):
        out.append(out[-1] + family.offsets_between(t)[-1])
    return out


def _positions(family, t: int, constraints: dict[int, tuple[int, ...]]) -> tuple[int, ...]:
    allowed = constraints.get(t)
    if allowed is None:
        return tuple(range(family.cuts_between(t)))
    return allowed


def _windowed_diffs(offs_a: tuple[int, ...], offs_b: tuple[int, ...],
                    d_lo: int, d_hi: int) -> Counter[int]:
    """Multiset of differences b - a restricted to [d_lo, d_hi].

    Offsets are sorted, so for each a the admissible b form a contiguous
    block; this keeps huge cut counts cheap when the window only reaches a
    few alignments (the usual case at high stages).
    """
    out: Counter[int] = Counter()
    j_lo = j_hi = 0
    m = len(offs_b)
    for a in offs_a:
        while j_lo < m and offs_b[j_lo] < a + d_lo:
            j_lo += 1
        j_hi = max(j_hi, j_lo)
        while j_hi < m and offs_b[j_hi] <= a + d_hi:
            j_hi += 1
        for k in range(j_lo, j_hi):
            out[offs_b[k] - a] += 1
    return out


def _check_cap(n_states: int, stage: int) -> None:
    if n_states > STATE_CAP:
        raise LiftError(f"difference-count state explosion at stage {stage}: "
                        f"{n_states} states exceed STATE_CAP={STATE_CAP}; "
                        "window too wide for this family")


def _step(family, i: int, cur: dict[int, int], r: int, lo: int, hi: int,
          ca: dict[int, tuple[int, ...]], cb: dict[int, tuple[int, ...]],
          ) -> dict[int, int]:
    """One stage of the top-down walk: extend every state by the stage-i
    offset differences b - a, keeping those that can still end in [lo, hi]
    with the remaining reach r. ``cur`` must be nonempty."""
    offs = family.offsets_between(i)
    offs_a = tuple(offs[u] for u in _positions(family, i, ca))
    offs_b = tuple(offs[v] for v in _positions(family, i, cb))
    # viable step sizes: some state must stay within window +- remaining reach
    diffs = _windowed_diffs(offs_a, offs_b, lo - r - max(cur), hi + r - min(cur))
    nxt: dict[int, int] = defaultdict(int)
    for s, ways in cur.items():
        for d, mult in diffs.items():
            t = s + d
            if t + r < lo or t - r > hi:
                continue
            nxt[t] += ways * mult
    return nxt


def pair_diff_counts(family, n0: int, M: int, lo: int, hi: int,
                     constraints_a: dict[int, tuple[int, ...]] | None = None,
                     constraints_b: dict[int, tuple[int, ...]] | None = None,
                     ) -> dict[int, int]:
    """Counts of word pairs (w_a, w_b) over stages n0..M-1 with
    pos(w_b) - pos(w_a) = delta, for every delta in [lo, hi]."""
    if lo > hi:
        return {}
    ca = constraints_a or {}
    cb = constraints_b or {}
    reach = _reach(family, n0, M)
    cur: dict[int, int] = {0: 1}
    for i in range(M - 1, n0 - 1, -1):
        cur = _step(family, i, cur, reach[i - n0], lo, hi, ca, cb)
        if not cur:
            break
        _check_cap(len(cur), i)
    return dict(cur)


def _partnered(cur: dict[int, int], others: list[int], a: int, b: int,
               g_lo: int, g_hi: int) -> dict[int, int]:
    """States s of ``cur`` with a*s - b*t in [g_lo, g_hi] for some t in the
    sorted list ``others`` (a, b > 0): t must lie in
    [ceil((a*s - g_hi) / b), floor((a*s - g_lo) / b)]."""
    n = len(others)
    if not n:
        return {}
    # Dense walks drop nothing: when each window meets [others[0], others[-1]]
    # and is at least as long as the widest gap between neighbours in
    # ``others``, it holds one of them. The windows move up with s, so the
    # extreme states decide the first condition.
    widest = max(map(sub, others[1:], others), default=0)
    if (g_hi - g_lo >= b * widest and a * max(cur) - g_hi <= b * others[-1]
            and a * min(cur) - g_lo >= b * others[0]):
        return cur
    out = {}
    for s, ways in cur.items():
        k = bisect_left(others, -((g_hi - a * s) // b))
        if k < n and others[k] <= (a * s - g_lo) // b:
            out[s] = ways
    return out


def lockstep_diff_states(family, p: int, q: int, walk_p: tuple, walk_q: tuple,
                         gap: tuple[int, int],
                         ) -> tuple[dict[int, int], dict[int, int]]:
    """Two :func:`pair_diff_counts` walks in lockstep, pruned by proportionality.

    ``walk_p`` and ``walk_q`` are each the arguments of
    :func:`pair_diff_counts` after the family, (n0, M, lo, hi, constraints_a,
    constraints_b), and the result holds their final states. Each walk keeps
    its own state set, never pairs; stage i is walked by both at once, and a
    walk sits at its zero state above its M and keeps its states below its
    n0. After each stage a state delta_p survives only if some state delta_q
    of the other walk has q*delta_p - p*delta_q within q*r_p + p*r_q of
    ``gap``, and the reverse, where r_p and r_q are what the unwalked stages
    can still add to each delta: a pair outside that slack can never meet
    the gap. Every pair of final deltas with q*delta_p - p*delta_q in
    ``gap`` survives, but a survivor need not have such a partner.
    """
    n_p, M_p, lo_p, hi_p, ca_p, cb_p = walk_p
    n_q, M_q, lo_q, hi_q, ca_q, cb_q = walk_q
    g_lo, g_hi = gap
    if lo_p > hi_p or lo_q > hi_q or g_lo > g_hi:
        return {}, {}
    ca_p, cb_p, ca_q, cb_q = ca_p or {}, cb_p or {}, ca_q or {}, cb_q or {}
    reach_p = _reach(family, n_p, M_p)
    reach_q = _reach(family, n_q, M_q)
    cur_p: dict[int, int] = {0: 1}
    cur_q: dict[int, int] = {0: 1}
    for i in range(max(M_p, M_q) - 1, min(n_p, n_q) - 1, -1):
        if n_p <= i < M_p:
            cur_p = _step(family, i, cur_p, reach_p[i - n_p], lo_p, hi_p, ca_p, cb_p)
            if not cur_p:
                return {}, {}
        if n_q <= i < M_q:
            cur_q = _step(family, i, cur_q, reach_q[i - n_q], lo_q, hi_q, ca_q, cb_q)
        r_p = reach_p[min(max(i, n_p), M_p) - n_p]
        r_q = reach_q[min(max(i, n_q), M_q) - n_q]
        slack = q * r_p + p * r_q
        cur_p = _partnered(cur_p, sorted(cur_q), q, p, g_lo - slack, g_hi + slack)
        cur_q = _partnered(cur_q, sorted(cur_p), p, q, -g_hi - slack, -g_lo + slack)
        if not cur_q:
            return {}, {}
        _check_cap(max(len(cur_p), len(cur_q)), i)
    return cur_p, cur_q


def multi_diff_counts(family, n0: int, M: int, boxes: list[tuple[int, int]],
                      constraints: list[dict[int, tuple[int, ...]] | None],
                      ) -> dict[tuple[int, ...], int]:
    """k-operand generalization: counts of word tuples (w_0..w_{k-1}) with
    pos(w_t) - pos(w_0) = delta_t inside boxes[t-1] for t = 1..k-1."""
    k = len(constraints)
    if k < 2 or len(boxes) != k - 1:
        raise ValueError("need k >= 2 operands and k-1 boxes")
    if any(lo > hi for lo, hi in boxes):
        return {}
    cons = [c or {} for c in constraints]
    reach = _reach(family, n0, M)
    cur: dict[tuple[int, ...], int] = {(0,) * (k - 1): 1}
    for i in range(M - 1, n0 - 1, -1):
        offs = family.offsets_between(i)
        pos_sets = [_positions(family, i, c) for c in cons]
        base_offs = tuple(offs[u] for u in pos_sets[0])
        side_offs = [tuple(offs[u] for u in pos_sets[t]) for t in range(1, k)]
        r = reach[i - n0]
        mins = [min(s[t] for s in cur) for t in range(k - 1)]
        maxs = [max(s[t] for s in cur) for t in range(k - 1)]
        # per-dimension viable step windows given the surviving states
        windows = [(boxes[t][0] - r - maxs[t], boxes[t][1] + r - mins[t])
                   for t in range(k - 1)]
        diffs: Counter[tuple[int, ...]] = Counter()
        for base in base_offs:
            slices = []
            for t in range(k - 1):
                lo_t = bisect_left(side_offs[t], base + windows[t][0])
                hi_t = bisect_right(side_offs[t], base + windows[t][1])
                slices.append(side_offs[t][lo_t:hi_t])
            if any(not s for s in slices):
                continue
            for combo in product(*slices):
                diffs[tuple(o - base for o in combo)] += 1
        nxt: dict[tuple[int, ...], int] = defaultdict(int)
        for state, ways in cur.items():
            for dvec, mult in diffs.items():
                new = tuple(s + d for s, d in zip(state, dvec))
                ok = True
                for (lo, hi), t in zip(boxes, new):
                    if t + r < lo or t - r > hi:
                        ok = False
                        break
                if ok:
                    nxt[new] += ways * mult
        cur = nxt
        if not cur:
            break
        _check_cap(len(cur), i)
    return dict(cur)
