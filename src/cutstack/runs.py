"""Sets of integers stored as sorted disjoint half-open runs.

Level sets and return-time sets can be astronomically large but are always
unions of a few contiguous index blocks, so every set of integers in this
package is carried as a tuple of ``(start, stop)`` runs. All operations are
exact integer arithmetic.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import compress, count as naturals, islice, repeat
from operator import add, itemgetter, lt

Run = tuple[int, int]


def normalize(pairs: Iterable[Run]) -> tuple[Run, ...]:
    """Sort, drop empty runs, and merge touching/overlapping ones."""
    items = sorted((s, t) for s, t in pairs if t > s)
    if not items:
        return ()
    out: list[Run] = []
    cs, ct = items[0]
    for s, t in items:
        if s > ct:
            out.append((cs, ct))
            cs, ct = s, t
        elif t > ct:
            ct = t
    out.append((cs, ct))
    return tuple(out)


def cover(starts: list[int], stops: list[int], lead: int = 0,
          trail: int = 0) -> tuple[Run, ...]:
    """Union of the nonempty runs [x + lead, y + trail), given their x and
    their y as two separately sorted lists of one length; no x need be paired
    with its y. For runs of one width, one sorted list serves as both and
    the offsets place the runs, so no shifted copy of it is built.

    Among the runs that start at or before z, as many have stopped by z as
    stops precede z; so the union has a gap after the k-th smallest stop
    exactly when it is below the (k+1)-th smallest start. One linear pass.
    """
    if not starts:
        return ()
    ends = stops if trail == lead else map(add, stops, repeat(trail - lead))
    cuts = list(compress(naturals(1), map(lt, ends, islice(starts, 1, None))))
    firsts = [starts[0] + lead]
    firsts += [starts[k] + lead for k in cuts]
    lasts = [stops[k - 1] + trail for k in cuts]
    lasts.append(stops[-1] + trail)
    return tuple(zip(firsts, lasts))


def from_indices(indices: Iterable[int]) -> tuple[Run, ...]:
    return normalize((i, i + 1) for i in indices)


def count(runs: tuple[Run, ...]) -> int:
    return sum(t - s for s, t in runs)


def bounds(runs: tuple[Run, ...]) -> tuple[int, int]:
    """(min, max) of a nonempty run set."""
    if not runs:
        raise ValueError("empty run set has no bounds")
    return runs[0][0], runs[-1][1] - 1


def shift(runs: tuple[Run, ...], offset: int) -> tuple[Run, ...]:
    return tuple((s + offset, t + offset) for s, t in runs)


def intersect(a: tuple[Run, ...], b: tuple[Run, ...]) -> tuple[Run, ...]:
    if not a or not b:
        return ()
    out: list[Run] = []
    na, nb = len(a), len(b)
    i = j = 0
    sa, ta = a[0]
    sb, tb = b[0]
    while True:
        s = sa if sa > sb else sb
        if ta < tb:
            if ta > s:
                out.append((s, ta))
            i += 1
            if i == na:
                return tuple(out)
            sa, ta = a[i]
        else:
            if tb > s:
                out.append((s, tb))
            j += 1
            if j == nb:
                return tuple(out)
            sb, tb = b[j]


def union(a: tuple[Run, ...], b: tuple[Run, ...]) -> tuple[Run, ...]:
    return normalize(list(a) + list(b))


def difference(a: tuple[Run, ...], b: tuple[Run, ...]) -> tuple[Run, ...]:
    out: list[Run] = []
    j = 0
    for s, t in a:
        cur = s
        while j < len(b) and b[j][1] <= cur:
            j += 1
        k = j
        while k < len(b) and b[k][0] < t:
            if b[k][0] > cur:
                out.append((cur, b[k][0]))
            cur = max(cur, b[k][1])
            if b[k][1] > t:
                break
            k += 1
        if cur < t:
            out.append((cur, t))
    return normalize(out)


def contains(runs: tuple[Run, ...], x: int) -> bool:
    k = bisect_right(runs, (x, float("inf")))
    return k > 0 and runs[k - 1][0] <= x < runs[k - 1][1]


def clamp(runs: tuple[Run, ...], lo: int, hi: int) -> tuple[Run, ...]:
    """The part of ``runs`` inside the inclusive window [lo, hi].

    Two bisections find the runs that meet the window, and only the two end
    runs are trimmed: O(log n + output).
    """
    if lo > hi:
        return ()
    i = bisect_right(runs, lo, key=itemgetter(1))
    j = bisect_right(runs, hi, lo=i, key=itemgetter(0))
    if i == j:
        return ()
    out = runs[i:j]
    (s, t), (_, v) = out[0], out[-1]
    if s < lo or v > hi + 1:
        out = list(out)
        out[0] = (max(s, lo), t)
        out[-1] = (out[-1][0], min(v, hi + 1))
        out = tuple(out)
    return out


def iter_indices(runs: tuple[Run, ...]) -> Iterator[int]:
    for s, t in runs:
        yield from range(s, t)


def cross_difference_count(a: tuple[Run, ...], b: tuple[Run, ...], c: int) -> int:
    """Number of pairs (x, y) with x in a, y in b and x - y = c.

    That is the size of a meet (b + c): one linear merge, O(|a| + |b|) runs.
    """
    return count(intersect(a, shift(b, c)))


def cross_difference_runs(a: tuple[Run, ...], b: tuple[Run, ...],
                          lo: int, hi: int) -> tuple[Run, ...]:
    """All differences x - y (x in a, y in b) inside [lo, hi], as runs.

    Run (sa, ta) of a pairs with run (sb, tb) of b inside the window exactly
    when tb > sa - hi and sb < ta - lo. Starts and stops of b are both
    sorted, so those runs form one contiguous block found by two bisections.
    Cost: O(|b| + |a| log|b| + P log P) for the P run pairs that reach the
    window, never |a| * |b| unless the window asks for all of them.
    """
    if lo > hi:
        return ()
    starts = [sb for sb, _ in b]
    stops = [tb for _, tb in b]
    out: list[Run] = []
    for sa, ta in a:
        first = bisect_right(stops, sa - hi)
        for sb, tb in b[first:bisect_left(starts, ta - lo, first)]:
            s, t = sa - tb + 1, ta - sb
            out.append((s if s > lo else lo, t if t <= hi else hi + 1))
    return normalize(out)


@dataclass(frozen=True)
class RunSet:
    """Immutable integer set backed by runs; set-like surface for large exact sets."""

    runs: tuple[Run, ...]

    @classmethod
    def of(cls, pairs: Iterable[Run]) -> "RunSet":
        return cls(normalize(pairs))

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> "RunSet":
        return cls(from_indices(indices))

    def __len__(self) -> int:
        return count(self.runs)

    def __bool__(self) -> bool:
        return bool(self.runs)

    def __contains__(self, x: int) -> bool:
        return contains(self.runs, x)

    def __iter__(self) -> Iterator[int]:
        return iter_indices(self.runs)

    def is_empty(self) -> bool:
        return not self.runs

    def min(self) -> int:
        return bounds(self.runs)[0]

    def max(self) -> int:
        return bounds(self.runs)[1]

    def intersect(self, other: "RunSet") -> "RunSet":
        return RunSet(intersect(self.runs, other.runs))

    def union(self, other: "RunSet") -> "RunSet":
        return RunSet(union(self.runs, other.runs))

    def difference(self, other: "RunSet") -> "RunSet":
        return RunSet(difference(self.runs, other.runs))

    def clamp(self, lo: int, hi: int) -> "RunSet":
        """Restrict to the inclusive window [lo, hi], in O(log n + output)."""
        return RunSet(clamp(self.runs, lo, hi))
