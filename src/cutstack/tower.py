"""Columns, level sets, and exact measure operations.

A family builds an increasing sequence of columns; each column is a stack of
equal-width levels, and the transformation sends every level to the one above
it. Level sets (finite unions of levels at one stage) are the only measurable
sets handled, and every quantity about them is an exact rational.

Shifts and correlations never materialize the doubly-exponential towers: they
are answered by the offset-word counting engine in :mod:`cutstack.engine`,
which the brute-force simulator in :mod:`cutstack.naive` cross-checks.
"""

from __future__ import annotations

import hashlib
import json
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import add

from . import engine
from . import runs as rn
from .errors import LiftError, SchemaError
from .runs import Run, RunSet

# Explicit lifts multiply index counts by the cut count per stage; anything
# beyond this is a sign the caller should be using the counting engine.
EXPLICIT_LIFT_CAP = 4_000_000


@dataclass(frozen=True)
class Column:
    """One stage of a tower.

    ``embed_offsets`` are the base positions of the copies of the previous
    column: they and ``height`` are what the family decides. The rest is
    derived from them: ``spacer_ranges`` are the half-open level ranges the
    copies leave uncovered (new at this stage), and ``cuts`` is the number of
    copies (0 for the base column).
    """

    stage: int
    height: int
    embed_offsets: tuple[int, ...]
    spacer_ranges: tuple[Run, ...]
    cuts: int


def check_tiling(column: Column, prev_height: int) -> None:
    """Assert copies and spacers partition [0, height) exactly.

    A family's spacers are the gaps its copies leave, so this rejects copies
    that overlap, leave the bottom level uncovered or run past the top.
    """
    pieces = [(o, o + prev_height) for o in column.embed_offsets]
    pieces += list(column.spacer_ranges)
    pieces.sort()
    pos = 0
    for s, t in pieces:
        if s != pos or t <= s:
            raise SchemaError(f"copies and spacers do not tile [0, {column.height})",
                              stage=column.stage)
        pos = t
    if pos != column.height:
        raise SchemaError(f"tiling stops at {pos}, height is {column.height}",
                          stage=column.stage)


class Family(ABC):
    """Shared interface of the tower constructions.

    Stage numbering starts at ``first_stage`` with a single unit-interval
    level. A family supplies only what its construction decides:
    ``_next_stage(n)`` gives where the copies of column n go inside column
    n+1 and the height of column n+1, and ``descriptor`` names the family.
    Everything else is derived here once, into a stage table of lists
    indexed by stage, whose entries below ``first_stage`` are padding that
    every reader refuses: the heights, the offsets of each transition
    n -> n+1, the level widths (products of the inverse cut counts below)
    and the top-offset prefix sums. ``ensure`` appends the heights last, so
    a held height means a complete stage. Every reader goes through one
    gate, ``_built``, which refuses a stage below the base and calls
    ``ensure`` only for a stage the table lacks. One cache fills lazily: for
    the engine's walks, the selected offsets at each (stage, allowed
    positions or none). Stage data never changes once built, so two fills
    of one entry write the same value.
    """

    kind: str = "?"
    first_stage: int = 0

    def __init__(self) -> None:
        pad = [None] * self.first_stage
        self._heights: list = pad + [1]
        self._offsets: list = list(pad)
        self._widths: list = pad + [Fraction(1)]
        self._tops: list = pad + [0]
        # (stage, allowed positions or None) -> offsets of those copies
        self._selected: dict[tuple[int, tuple[int, ...] | None], tuple[int, ...]] = {}

    @abstractmethod
    def _next_stage(self, n: int) -> tuple[tuple[int, ...], int]:
        """(the base positions of the copies of column n inside column n+1,
        in increasing order, the height of column n+1), for a family built
        through stage n."""

    @abstractmethod
    def descriptor(self) -> dict:
        """JSON-serializable description sufficient to rebuild the family."""

    def ensure(self, n: int) -> None:
        """Materialize stage data up to and including stage n."""
        while len(self._heights) <= n:
            k = len(self._heights) - 1
            offs, height = self._next_stage(k)
            self._offsets.append(offs)
            self._widths.append(self._widths[k] / len(offs))
            self._tops.append(self._tops[k] + offs[-1])
            self._heights.append(height)

    def _built(self, n: int, through: int) -> None:
        """Refuse a stage n below the base; build through ``through`` unless held."""
        if n < self.first_stage:
            raise SchemaError("stage below base", stage=n)
        if len(self._heights) <= through:
            self.ensure(through)

    def height(self, n: int) -> int:
        """Number of levels of the stage-n column."""
        self._built(n, n)
        return self._heights[n]

    def offsets_between(self, n: int) -> tuple[int, ...]:
        """Base positions of the copies of column n inside column n+1, in
        increasing order."""
        self._built(n, n + 1)
        return self._offsets[n]

    def cuts_between(self, n: int) -> int:
        """Number of subcolumns stage n is cut into to form stage n+1."""
        return len(self.offsets_between(n))

    def level_width(self, n: int) -> Fraction:
        self._built(n, n)
        return self._widths[n]

    def _stage_offsets(self, n: int, positions: tuple[int, ...] | None) -> tuple[int, ...]:
        """Offsets of the copies at ``positions`` (all copies for None) of
        column n inside column n+1, in position order."""
        offs = self._selected.get((n, positions))
        if offs is None:
            offs = self.offsets_between(n)
            if positions is not None:
                offs = tuple(offs[u] for u in positions)
            offs = self._selected.setdefault((n, positions), offs)
        return offs

    def _heights_to(self, n: int) -> list[int]:
        """The heights, built through stage n at least: entry t is
        height(t), for every stage t the table holds."""
        self._built(n, n)
        return self._heights

    def _top_sums_to(self, n: int) -> list[int]:
        """The top-offset prefix sums, built through stage n at least: entry
        t is the most that stages first_stage..t-1 add to a position, so the
        stages n0..t-1 add at most entry t minus entry n0."""
        self._built(n, n)
        return self._tops

    def digest(self) -> str:
        blob = json.dumps(self.descriptor(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def build_column(family: Family, n: int) -> Column:
    """Column of ``family`` at stage n, laid out from its stage table and
    validated against its tiling invariant."""
    if n == family.first_stage:
        return Column(n, 1, (), (), 0)
    offs, h, height = family.offsets_between(n - 1), family.height(n - 1), family.height(n)
    # the gaps above each copy, up to the next copy or the top
    gaps = zip((o + h for o in offs), offs[1:] + (height,))
    col = Column(n, height, offs, tuple((s, t) for s, t in gaps if t > s), len(offs))
    check_tiling(col, h)
    return col


# ---------------------------------------------------------------------------
# Level sets


@dataclass(frozen=True)
class LevelSet:
    """Finite union of levels of one column, stored as index runs.

    ``letter_constraints`` optionally restricts, at later stages, which
    subcolumn copies the set keeps: entry ``(t, positions)`` keeps only the
    listed copy positions when passing from stage t to t+1. This represents
    intersections with unions of whole subcolumns without leaving the
    level-set world.
    """

    family: Family = field(compare=False)
    stage: int
    runs: tuple[Run, ...]
    letter_constraints: tuple[tuple[int, tuple[int, ...]], ...] = ()

    def __post_init__(self) -> None:
        if self.stage < self.family.first_stage:
            raise SchemaError("stage below base", stage=self.stage)
        # heights grow at least geometrically per stage, so materializing a
        # column far above the base runs out of memory; the lift cap bounds it,
        # also for the stage t+1 that a constraint at transition t builds
        top = max([self.stage] + [t + 1 for t, _ in self.letter_constraints])
        if top - self.family.first_stage > engine.LIFT_STAGE_CAP:
            raise SchemaError(f"more than LIFT_STAGE_CAP={engine.LIFT_STAGE_CAP} "
                              f"stages above the first stage {self.family.first_stage}",
                              stage=top)
        self.family.ensure(self.stage)
        h = self.family.height(self.stage)
        if self.runs and (self.runs[0][0] < 0 or self.runs[-1][1] > h):
            raise SchemaError("level index out of range", stage=self.stage)
        for t, positions in self.letter_constraints:
            if t < self.stage:
                raise SchemaError("constraint below the set's stage", stage=t)
            r = self.family.cuts_between(t)
            if not positions or any(not 0 <= u < r for u in positions):
                raise SchemaError("constraint positions out of range", stage=t)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_indices(cls, family: Family, stage: int, indices) -> "LevelSet":
        return cls(family, stage, rn.from_indices(indices))

    @classmethod
    def from_ranges(cls, family: Family, stage: int, ranges) -> "LevelSet":
        return cls(family, stage, rn.normalize(ranges))

    @classmethod
    def level(cls, family: Family, stage: int, index: int) -> "LevelSet":
        return cls(family, stage, ((index, index + 1),))

    @classmethod
    def bottom_block(cls, family: Family, stage: int, count: int) -> "LevelSet":
        return cls(family, stage, ((0, count),))

    # -- basic queries -------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.runs

    def count(self) -> int:
        return rn.count(self.runs)

    def min_index(self) -> int:
        return rn.bounds(self.runs)[0]

    def max_index(self) -> int:
        return rn.bounds(self.runs)[1]

    def indices(self, cap: int = 1_000_000) -> list[int]:
        if self.count() > cap:
            raise ValueError("too many indices to materialize")
        return list(rn.iter_indices(self.runs))

    def constraint_fraction(self) -> Fraction:
        f = Fraction(1)
        for t, positions in self.letter_constraints:
            f *= Fraction(len(positions), self.family.cuts_between(t))
        return f

    def measure(self) -> Fraction:
        return self.count() * self.family.level_width(self.stage) * self.constraint_fraction()

    def constrain(self, stage: int, positions: tuple[int, ...]) -> "LevelSet":
        """Keep only the given subcolumn copies at the stage->stage+1 transition."""
        merged = dict(self.letter_constraints)
        if stage in merged:
            positions = tuple(sorted(set(merged[stage]) & set(positions)))
            if not positions:
                raise SchemaError("constraint intersection is empty", stage=stage)
        merged[stage] = tuple(sorted(set(positions)))
        return LevelSet(self.family, self.stage, self.runs, tuple(sorted(merged.items())))


def decompose(A: LevelSet, M: int) -> LevelSet:
    """Re-express A as the union of its copies inside the stage-M column."""
    if M < A.stage:
        raise LiftError(f"cannot lower stage {A.stage} to {M}")
    fam = A.family
    fam.ensure(M)
    cur = A.runs
    constraints = dict(A.letter_constraints)
    total = rn.count(cur)
    for t in range(A.stage, M):
        offs = fam.offsets_between(t)
        allowed = constraints.pop(t, tuple(range(len(offs))))
        total *= len(allowed)
        if total > EXPLICIT_LIFT_CAP:
            raise LiftError(f"explicit lift to stage {M} needs {total} indices; "
                            "use the counting operations instead")
        cur = rn.normalize(pc for u in allowed for pc in rn.shift(cur, offs[u]))
    return LevelSet(fam, M, cur, tuple(sorted(constraints.items())))


def apply_power(A: LevelSet, j: int) -> LevelSet:
    """Exact image of A under the j-th power of the transformation.

    A is lifted to the smallest stage where every shifted index stays inside
    the column, then shifted. Sets that contain the bottom level have no such
    stage for j < 0 (their backward image is an infinite union of levels),
    which raises LiftError.
    """
    if A.is_empty() or j == 0:
        return A
    if j < 0 and A.min_index() + j < 0:
        raise LiftError(
            f"T^{j} of a set reaching level {A.min_index()} is not a finite union "
            "of levels (the image extends below every column)")
    fam = A.family
    M = A.stage
    cur = A
    while True:
        if cur.min_index() + j >= 0 and cur.max_index() + j <= fam.height(M) - 1:
            return LevelSet(fam, M, rn.shift(cur.runs, j), cur.letter_constraints)
        M += 1
        cur = decompose(cur, M)


# ---------------------------------------------------------------------------
# Exact correlations


def _walk(sets: list[LevelSet], lag_ranges: list[tuple[int, int]]):
    """The engine walk that covers T^{j_t} sets[t] for every shift j_t in
    the inclusive range ``lag_ranges[t]`` (all j_t >= 0).

    Returns the sets at their common stage n0 (lower-stage sets lifted
    explicitly) and the request every :mod:`cutstack.engine` walk takes:
    (n0, the lift stage M valid for the largest shifted index and above
    every constrained transition, one box per operand t >= 1, each lifted
    set's constraint map). Box t holds every word-position difference
    pos(w_t) - pos(w_0) = j_0 - j_t + a_0 - a_t at which a level a_0 of
    the first set, shifted by j_0, meets a level a_t of set t, shifted by
    j_t.
    """
    fam = sets[0].family
    if any(s.family is not fam for s in sets):
        raise ValueError("level sets belong to different families")
    n0 = max(s.stage for s in sets)
    lifted = [decompose(s, n0) if s.stage < n0 else s for s in sets]
    spans = [rn.bounds(s.runs) for s in lifted]
    need = max([b + hi for (_, b), (_, hi) in zip(spans, lag_ranges)])
    floor = max([t + 1 for s in lifted for t, _ in s.letter_constraints], default=0)
    M = max(engine.minimal_valid_stage(fam, n0, need), floor)
    (lo0, hi0), (a_lo, a_hi) = lag_ranges[0], spans[0]
    boxes = [(lo0 - hi + a_lo - b_hi, hi0 - lo + a_hi - b_lo)
             for (b_lo, b_hi), (lo, hi) in zip(spans[1:], lag_ranges[1:])]
    return lifted, (n0, M, boxes, [dict(s.letter_constraints) for s in lifted])


def correlation(A: LevelSet, B: LevelSet, j: int) -> Fraction:
    """Exact measure of T^j A intersected with B."""
    if A.is_empty() or B.is_empty():
        return Fraction(0)
    if j < 0:
        return correlation(B, A, -j)
    fam = A.family
    (A0, B0), (n0, M, boxes, cons) = _walk([A, B], [(j, j), (0, 0)])
    dc = engine.pair_diff_counts(fam, n0, M, boxes, cons)
    hits = 0
    for delta, ways in dc.items():
        cross = rn.cross_difference_count(A0.runs, B0.runs, delta - j)
        if cross:
            hits += ways * cross
    return hits * fam.level_width(M) if hits else Fraction(0)


def correlation_profile(A: LevelSet, B: LevelSet, lo: int, hi: int,
                        step: int = 1) -> dict[int, Fraction]:
    """The positive correlations on the lag grid ``range(lo, hi + 1, step)``:
    each lag j with ``correlation(A, B, j) > 0`` maps to that value, with the
    keys in increasing order. Every other lag of the grid has correlation 0,
    so a profile holds only what its answer holds.

    One engine walk answers all lags of one sign: it runs at the lift stage
    valid for the largest lag, and each returned delta is spread over the
    lags it reaches. Lags below zero swap A and B and reflect, as in
    :func:`return_support`. The run-set work is the same (delta, lag) pairs
    that per-lag :func:`correlation` calls would do; only the walks are
    shared. ``step`` samples a coarser lag grid, such as p * i for a power p.
    """
    if step < 1:
        raise ValueError("step must be positive")
    if (hi - lo) // step >= sys.maxsize:  # len() of such a range overflows
        raise ValueError(f"lag grid {lo}..{hi} with step {step} holds more than "
                         f"sys.maxsize={sys.maxsize} lags")
    lags = range(lo, hi + 1, step)
    if not lags or A.is_empty() or B.is_empty():
        return {}
    k = len(range(lo, min(hi + 1, 0), step))  # lags below zero come first
    out: dict[int, Fraction] = {}
    if k:
        neg = _profile_nonneg(B, A, range(-lags[k - 1], -lo + 1, step))
        out = {-j: v for j, v in reversed(neg.items())}
    if k < len(lags):
        out.update(_profile_nonneg(A, B, lags[k:]))
    return out


def _profile_nonneg(A: LevelSet, B: LevelSet, lags: range) -> dict[int, Fraction]:
    fam = A.family
    first, last, step = lags[0], lags[-1], lags.step
    (A0, B0), (n0, M, boxes, cons) = _walk([A, B], [(first, last), (0, 0)])
    dc = engine.pair_diff_counts(fam, n0, M, boxes, cons)
    # delta - j is a difference a - b of A0 and B0 indices
    [(d_lo, d_hi)] = boxes
    x_lo, x_hi = d_lo - first, d_hi - last
    # counts per difference, memoised sparsely: a dense array over the span of
    # the sets' differences would be huge for wide level sets
    cross: dict[int, int] = {}
    hits: dict[int, int] = {}
    for delta, ways in dc.items():
        j0 = max(first, delta - x_hi)
        j0 += -(j0 - first) % step  # round up onto the lag grid
        for j in range(j0, min(last, delta - x_lo) + 1, step):
            x = delta - j
            c = cross.get(x)
            if c is None:
                c = cross[x] = rn.cross_difference_count(A0.runs, B0.runs, x)
            if c:
                hits[j] = hits.get(j, 0) + ways * c
    width = fam.level_width(M)
    return {j: hits[j] * width for j in sorted(hits)}


def product_correlation(As: list[LevelSet], Bs: list[LevelSet],
                        powers: list[int], i: int) -> Fraction:
    """Exact product-measure correlation of product sets at lag i.

    Product measure factorizes over coordinates, so this is the product of
    the per-coordinate correlations at shifts powers[t] * i.
    """
    if not (len(As) == len(Bs) == len(powers)):
        raise ValueError("As, Bs and powers must have equal length")
    if any(p == 0 for p in powers):
        raise ValueError("powers must be nonzero")
    out = Fraction(1)
    for a, b, p in zip(As, Bs, powers):
        factor = correlation(a, b, p * i)
        if factor == 0:
            return Fraction(0)
        out *= factor
    return out


def intersection_measure(sets: list[LevelSet], shifts: list[int]) -> Fraction:
    """Exact measure of the intersection of T^{shifts[t]} sets[t] (one coordinate)."""
    if len(sets) != len(shifts):
        raise ValueError("sets and shifts must have equal length")
    if len(sets) == 1:
        return sets[0].measure()
    if any(s.is_empty() for s in sets):
        return Fraction(0)
    base = -min(shifts)
    shifts = [j + base for j in shifts]  # measure preserved under a common shift
    lifted, (n0, M, boxes, cons) = _walk(sets, [(j, j) for j in shifts])
    fam = lifted[0].family
    j0, a0 = shifts[0], lifted[0]
    dc = engine.multi_diff_counts(fam, n0, M, boxes, cons)
    hits = 0
    for deltas, ways in dc.items():
        cur = a0.runs
        for t in range(1, len(lifted)):
            off = deltas[t - 1] + shifts[t] - j0
            cur = rn.intersect(cur, rn.shift(lifted[t].runs, off))
            if not cur:
                break
        c = rn.count(cur)
        if c:
            hits += ways * c
    return hits * fam.level_width(M) if hits else Fraction(0)


def triple_correlation(A: LevelSet, p: int, q: int, i: int) -> Fraction:
    """Exact measure of T^{pi} A meet T^{qi} A meet A."""
    if i == 0:
        return A.measure()
    return intersection_measure([A, A, A], [p * i, q * i, 0])


def _lag_runs(A0: LevelSet, B0: LevelSet, ds: list[int], lo: int, hi: int) -> tuple[Run, ...]:
    """Every lag j = delta - (a - b) in [lo, hi], for delta in the sorted
    list ``ds``, a in A0 and b in B0 (both at the walk's base stage), as
    sorted merged runs.

    A cross-difference run [s, t) of a - b sends each delta to the lag run
    [delta - t + 1, delta - s + 1), so the sorted deltas give the lag runs
    of one cross-difference run in order. Cost: one linear pass
    (:func:`runs.cover`) over the lag runs' starts and stops. With one
    cross-difference run these are the sorted deltas themselves, offset;
    with several, the starts are sorted along the deltas and along the
    runs, and so are the stops, so they are laid out as sorted integer
    streams that one sort of each merges. No run tuple is ever sorted.
    """
    if not ds:
        return ()
    # only differences a - b with delta - (a - b) in [lo, hi] for some delta
    cd = rn.cross_difference_runs(A0.runs, B0.runs, ds[0] - hi, ds[-1] - lo)
    if len(cd) == 1:
        (s, t), = cd
        return rn.clamp(rn.cover(ds, ds, 1 - t, 1 - s), lo, hi)
    starts = _sums(ds, [1 - t for _, t in reversed(cd)])
    stops = _sums(ds, [1 - s for s, _ in reversed(cd)])
    starts.sort()
    stops.sort()
    return rn.clamp(rn.cover(starts, stops), lo, hi)


def _sums(xs: list[int], ys: list[int]) -> list[int]:
    """x + y for every x in the sorted xs and y in the sorted ys, as one
    sorted stream per entry of the shorter list (few long streams merge
    fastest, and wide level sets walk few deltas)."""
    if len(xs) < len(ys):
        xs, ys = ys, xs
    out: list[int] = []
    for y in ys:
        out += map(add, xs, repeat(y))
    return out


def return_support(A: LevelSet, B: LevelSet, lo: int, hi: int) -> RunSet:
    """All j in [lo, hi] with correlation(A, B, j) > 0, as an exact run set.

    Lags of each sign cost one support walk
    (:func:`engine.pair_diff_support`), which hands over its deltas sorted,
    and a linear merge (:func:`_lag_runs`). Lags below zero swap A and B;
    their runs come back ordered, so they are reflected in reverse order and
    joined to the others, merging a run that stops at lag 0 with one that
    starts there.
    """
    if lo > hi or A.is_empty() or B.is_empty():
        return RunSet(())
    lo_nn = max(lo, 0)
    out: tuple[Run, ...] = ()
    if hi >= lo_nn:
        (A0, B0), (n0, M, boxes, cons) = _walk([A, B], [(lo_nn, hi), (0, 0)])
        ds = engine.pair_diff_support(A.family, n0, M, boxes, cons)
        out = _lag_runs(A0, B0, ds, lo_nn, hi)
    if lo < 0:
        neg = [(1 - t, 1 - s) for s, t in
               reversed(return_support(B, A, max(1, -hi), -lo).runs)]
        if neg and out and neg[-1][1] == out[0][0]:
            neg[-1] = (neg[-1][0], out[0][1])
            out = out[1:]
        out = tuple(neg) + out
    return RunSet(out)


def _divide_runs(runs: tuple[Run, ...], step: int) -> tuple[Run, ...]:
    """{i : step * i in runs} as runs, for sorted disjoint ``runs``."""
    out: list[Run] = []
    for s, t in runs:
        lo = -((-s) // step)
        hi = (t - 1) // step + 1
        if hi > lo:
            if out and out[-1][1] == lo:  # images of runs one gap apart touch
                out[-1] = (out[-1][0], hi)
            else:
                out.append((lo, hi))
    return tuple(out)


def joint_return_set(A: LevelSet, B1: LevelSet, B2: LevelSet, p: int, q: int,
                     horizon: int) -> RunSet:
    """All 0 < i <= horizon with correlation(A, B1, p i) > 0 and
    correlation(A, B2, q i) > 0, for p, q >= 1.

    Each coordinate walks the stages :func:`return_support` would walk for
    its lags p i or q i; :func:`engine.lockstep_diff_states` runs the two
    walks in lockstep and prunes each with the proportionality gap:
    p i = delta_p - x_p and q i = delta_q - x_q force
    q delta_p - p delta_q = q x_p - p x_q, where x_p, x_q are cross
    differences of (A, B1) and (A, B2). Each support is assembled from the
    surviving deltas only, which the walks hand over sorted, by a linear
    merge (:func:`_lag_runs`); the two are divided by the powers in one
    pass each and intersected by one linear merge.
    """
    if p < 1 or q < 1:
        raise ValueError(f"powers p={p}, q={q} must be at least 1")
    if horizon <= 0 or A.is_empty() or B1.is_empty() or B2.is_empty():
        return RunSet(())
    (A1, C1), walk_p = _walk([A, B1], [(p, p * horizon), (0, 0)])
    (A2, C2), walk_q = _walk([A, B2], [(q, q * horizon), (0, 0)])
    (_, _, [(dp_lo, dp_hi)], _), (_, _, [(dq_lo, dq_hi)], _) = walk_p, walk_q
    # hull of q x_p - p x_q, where x = a - b = delta - j
    xp_lo, xp_hi = dp_lo - p, dp_hi - p * horizon
    xq_lo, xq_hi = dq_lo - q, dq_hi - q * horizon
    dp, dq = engine.lockstep_diff_states(
        A.family, p, q, walk_p, walk_q,
        (q * xp_lo - p * xq_hi, q * xp_hi - p * xq_lo))
    if not dp:
        return RunSet(())
    # lags in [p, p * horizon] divide to i in [1, horizon]
    J1 = _divide_runs(_lag_runs(A1, C1, dp, p, p * horizon), p)
    J2 = _divide_runs(_lag_runs(A2, C2, dq, q, q * horizon), q)
    return RunSet(rn.intersect(J1, J2))
