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
from abc import ABC, abstractmethod
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction

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
    column, ``spacer_ranges`` the half-open level ranges that are new at this
    stage, and ``cuts`` the number of copies (0 for the base column).
    """

    stage: int
    height: int
    embed_offsets: tuple[int, ...]
    spacer_ranges: tuple[Run, ...]
    cuts: int


def check_tiling(column: Column, prev_height: int) -> None:
    """Assert copies and spacers partition [0, height) exactly."""
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
    level. ``offsets_between(n)`` places the copies of column n inside column
    n+1. All derived data is cached.

    The engine's walks read their per-stage inputs from a stage table that
    the walks fill lazily: the offsets each walk selects at a stage, and the
    prefix sums of the top offsets. Stage data never changes once
    materialized, so two fills of one entry write the same value (as for the
    column cache).
    """

    kind: str = "?"
    first_stage: int = 0

    def __init__(self) -> None:
        self._columns: dict[int, Column] = {}
        self._widths: dict[int, Fraction] = {}
        # (stage, allowed positions or None) -> offsets of those copies
        self._selected: dict[tuple[int, tuple[int, ...] | None], tuple[int, ...]] = {}
        # stage n -> sum of the top offsets of stages first_stage..n-1
        self._top_sums: dict[int, int] = {self.first_stage: 0}

    @abstractmethod
    def ensure(self, n: int) -> None:
        """Materialize stage data up to and including stage n."""

    @abstractmethod
    def height(self, n: int) -> int:
        """Number of levels of the stage-n column."""

    @abstractmethod
    def cuts_between(self, n: int) -> int:
        """Number of subcolumns stage n is cut into to form stage n+1."""

    @abstractmethod
    def offsets_between(self, n: int) -> tuple[int, ...]:
        """Base positions of the copies of column n inside column n+1."""

    @abstractmethod
    def spacer_ranges_between(self, n: int) -> tuple[Run, ...]:
        """Level ranges of column n+1 that are new spacers."""

    @abstractmethod
    def descriptor(self) -> dict:
        """JSON-serializable description sufficient to rebuild the family."""

    @abstractmethod
    def height_profile(self, up_to: int) -> list:
        """Exact heights of stages first_stage..up_to; families with an
        internal marker give (height, marker) pairs."""

    def accumulation_ratios(self) -> set[Fraction] | None:
        """Declared accumulation set of p_n/q_n for rule-complete families."""
        return None

    def level_width(self, n: int) -> Fraction:
        if n < self.first_stage:
            raise SchemaError("stage below base", stage=n)
        w = self._widths.get(n)
        if w is None:
            w = Fraction(1)
            for t in range(self.first_stage, n):
                w /= self.cuts_between(t)
            self._widths[n] = w
        return w

    def column(self, n: int) -> Column:
        col = self._columns.get(n)
        if col is not None:
            return col
        self.ensure(n)
        if n == self.first_stage:
            col = Column(n, 1, (), (), 0)
        else:
            col = Column(
                stage=n,
                height=self.height(n),
                embed_offsets=self.offsets_between(n - 1),
                spacer_ranges=self.spacer_ranges_between(n - 1),
                cuts=self.cuts_between(n - 1),
            )
        return self._columns.setdefault(n, col)

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

    def _top_sums_to(self, n: int) -> dict[int, int]:
        """The top-offset prefix sums, filled through stage n: entry t is the
        most that stages first_stage..t-1 add to a position, so the stages
        n0..t-1 add at most entry t minus entry n0."""
        sums = self._top_sums
        if n not in sums:
            if n < self.first_stage:
                raise SchemaError("stage below base", stage=n)
            filled = n
            while filled not in sums:  # entries are contiguous from first_stage
                filled -= 1
            for t in range(filled, n):
                sums.setdefault(t + 1, sums[t] + self.offsets_between(t)[-1])
        return sums

    def digest(self) -> str:
        blob = json.dumps(self.descriptor(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def build_column(family: Family, n: int) -> Column:
    """Column of ``family`` at stage n (validated against its tiling invariant)."""
    col = family.column(n)
    if n > family.first_stage:
        check_tiling(col, family.height(n - 1))
    return col


def heights(family: Family, up_to: int):
    """Exact height sequence; families with an internal marker return pairs."""
    family.ensure(up_to)
    return family.height_profile(up_to)


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
        # column far above the base runs out of memory; the lift cap bounds it
        if self.stage - self.family.first_stage > engine.LIFT_STAGE_CAP:
            raise SchemaError(f"more than LIFT_STAGE_CAP={engine.LIFT_STAGE_CAP} "
                              f"stages above the first stage {self.family.first_stage}",
                              stage=self.stage)
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


def _common_stage(sets: list[LevelSet]) -> tuple[int, list[LevelSet]]:
    fam = sets[0].family
    for s in sets:
        if s.family is not fam:
            raise ValueError("level sets belong to different families")
    n0 = max(s.stage for s in sets)
    return n0, [decompose(s, n0) if s.stage < n0 else s for s in sets]


def _constraint_floor(sets: list[LevelSet]) -> int:
    """Smallest lift stage whose word range covers every constrained transition."""
    floor = 0
    for s in sets:
        for t, _ in s.letter_constraints:
            floor = max(floor, t + 1)
    return floor


def _pair_walk(A: LevelSet, B: LevelSet, lo: int, hi: int):
    """A and B at their common stage, and the engine walk that covers the
    lags j in [lo, hi] (0 <= lo): the arguments of
    :func:`engine.pair_diff_counts` after the family, with the lift stage
    valid for ``hi`` and the window of every delta = j + a - b."""
    n0, (A0, B0) = _common_stage([A, B])
    M = max(engine.minimal_valid_stage(A.family, n0, A0.max_index() + hi),
            _constraint_floor([A0, B0]))
    walk = (n0, M, lo + A0.min_index() - B0.max_index(),
            hi + A0.max_index() - B0.min_index(),
            dict(A0.letter_constraints), dict(B0.letter_constraints))
    return A0, B0, walk


def correlation(A: LevelSet, B: LevelSet, j: int) -> Fraction:
    """Exact measure of T^j A intersected with B."""
    if A.is_empty() or B.is_empty():
        return Fraction(0)
    if j < 0:
        return correlation(B, A, -j)
    fam = A.family
    A0, B0, walk = _pair_walk(A, B, j, j)
    dc = engine.pair_diff_counts(fam, *walk)
    hits = 0
    for delta, ways in dc.items():
        cross = rn.cross_difference_count(A0.runs, B0.runs, delta - j)
        if cross:
            hits += ways * cross
    return hits * fam.level_width(walk[1]) if hits else Fraction(0)


_ZERO = Fraction(0)


def correlation_profile(A: LevelSet, B: LevelSet, lo: int, hi: int,
                        step: int = 1) -> list[Fraction]:
    """``correlation(A, B, j)`` for every j in ``range(lo, hi + 1, step)``.

    One engine walk answers all lags of one sign: it runs at the lift stage
    valid for the largest lag, and each returned delta is spread over the
    lags it reaches. Lags below zero swap A and B and reflect, as in
    :func:`return_support`. The run-set work is the same (delta, lag) pairs
    that per-lag :func:`correlation` calls would do; only the walks are
    shared. ``step`` samples a coarser lag grid, such as p * i for a power p.
    """
    if step < 1:
        raise ValueError("step must be positive")
    lags = range(lo, hi + 1, step)
    if not lags or A.is_empty() or B.is_empty():
        return [_ZERO] * len(lags)
    k = len(range(lo, min(hi + 1, 0), step))  # lags below zero come first
    out: list[Fraction] = []
    if k:
        out = _profile_nonneg(B, A, range(-lags[k - 1], -lo + 1, step))[::-1]
    if k < len(lags):
        out += _profile_nonneg(A, B, lags[k:])
    return out


def _profile_nonneg(A: LevelSet, B: LevelSet, lags: range) -> list[Fraction]:
    fam = A.family
    first, last, step = lags[0], lags[-1], lags.step
    A0, B0, walk = _pair_walk(A, B, first, last)
    dc = engine.pair_diff_counts(fam, *walk)
    # delta - j is a difference a - b of A0 and B0 indices
    x_lo, x_hi = walk[2] - first, walk[3] - last
    # counts per difference, memoised sparsely: a dense array over the span of
    # the sets' differences would be huge for wide level sets
    cross: dict[int, int] = {}
    hits = [0] * len(lags)
    for delta, ways in dc.items():
        j0 = max(first, delta - x_hi)
        j0 += -(j0 - first) % step  # round up onto the lag grid
        for j in range(j0, min(last, delta - x_lo) + 1, step):
            x = delta - j
            c = cross.get(x)
            if c is None:
                c = cross[x] = rn.cross_difference_count(A0.runs, B0.runs, x)
            if c:
                hits[(j - first) // step] += ways * c
    width = fam.level_width(walk[1])
    return [h * width if h else _ZERO for h in hits]


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
    n0, lifted = _common_stage(sets)
    fam = lifted[0].family
    need = max(s.max_index() + j for s, j in zip(lifted, shifts))
    M = max(engine.minimal_valid_stage(fam, n0, need), _constraint_floor(lifted))
    j0 = shifts[0]
    a0 = lifted[0]
    boxes = []
    for t in range(1, len(lifted)):
        at, jt = lifted[t], shifts[t]
        boxes.append((j0 - jt + a0.min_index() - at.max_index(),
                      j0 - jt + a0.max_index() - at.min_index()))
    dc = engine.multi_diff_counts(fam, n0, M, boxes,
                                  [dict(s.letter_constraints) for s in lifted])
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


def _delta_runs(A0: LevelSet, B0: LevelSet, deltas, lo: int, hi: int) -> Iterator[Run]:
    """Runs covering every lag j = delta - (a - b) in [lo, hi], for delta in
    ``deltas``, a in A0 and b in B0 (both at the walk's base stage).

    Runs come unsorted and may reach outside [lo, hi]; callers normalize and
    clamp.
    """
    if not deltas:
        return iter(())
    # only differences a - b with delta - (a - b) in [lo, hi] for some delta
    cd = rn.cross_difference_runs(A0.runs, B0.runs, min(deltas) - hi, max(deltas) - lo)
    # j = delta - (a - b): reflect the cross-difference runs
    return ((delta - (t - 1), delta - s + 1) for delta in deltas for s, t in cd)


def return_support(A: LevelSet, B: LevelSet, lo: int, hi: int) -> RunSet:
    """All j in [lo, hi] with correlation(A, B, j) > 0, as an exact run set."""
    if lo > hi or A.is_empty() or B.is_empty():
        return RunSet(())
    parts: list[Run] = []
    if lo < 0:
        neg = return_support(B, A, max(1, -hi), -lo)
        parts.extend((-t + 1, -s + 1) for s, t in neg.runs)
    lo_nn = max(lo, 0)
    if hi >= lo_nn:
        A0, B0, walk = _pair_walk(A, B, lo_nn, hi)
        dc = engine.pair_diff_counts(A.family, *walk)
        parts.extend(_delta_runs(A0, B0, dc, lo_nn, hi))
    return RunSet.of(parts).clamp(lo, hi)


def _divide_runs(J: RunSet, step: int) -> RunSet:
    """{i : step * i in J} as runs."""
    out: list[Run] = []
    for s, t in J.runs:
        lo = -((-s) // step)
        hi = (t - 1) // step
        if hi >= lo:
            out.append((lo, hi + 1))
    return RunSet.of(out)


def joint_return_set(A: LevelSet, B1: LevelSet, B2: LevelSet, p: int, q: int,
                     horizon: int) -> RunSet:
    """All 0 < i <= horizon with correlation(A, B1, p i) > 0 and
    correlation(A, B2, q i) > 0, for p, q >= 1.

    Each coordinate walks the stages :func:`return_support` would walk for
    its lags p i or q i; :func:`engine.lockstep_diff_states` runs the two
    walks in lockstep and prunes each with the proportionality gap:
    p i = delta_p - x_p and q i = delta_q - x_q force
    q delta_p - p delta_q = q x_p - p x_q, where x_p, x_q are cross
    differences of (A, B1) and (A, B2). The supports are assembled from the
    surviving deltas only, divided by the powers and intersected.
    """
    if horizon <= 0 or A.is_empty() or B1.is_empty() or B2.is_empty():
        return RunSet(())
    A1, C1, walk_p = _pair_walk(A, B1, p, p * horizon)
    A2, C2, walk_q = _pair_walk(A, B2, q, q * horizon)
    # hull of q x_p - p x_q, where x = a - b = delta - j
    xp_lo, xp_hi = walk_p[2] - p, walk_p[3] - p * horizon
    xq_lo, xq_hi = walk_q[2] - q, walk_q[3] - q * horizon
    dp, dq = engine.lockstep_diff_states(
        A.family, p, q, walk_p, walk_q,
        (q * xp_lo - p * xq_hi, q * xp_hi - p * xq_lo))
    if not dp:
        return RunSet(())
    # lags outside [p, p * horizon] divide to i outside [1, horizon]
    J1 = _divide_runs(RunSet.of(_delta_runs(A1, C1, dp, p, p * horizon)), p)
    J2 = _divide_runs(RunSet.of(_delta_runs(A2, C2, dq, q, q * horizon)), q)
    return J1.intersect(J2).clamp(1, horizon)
