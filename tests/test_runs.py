from hypothesis import given, settings
from hypothesis import strategies as st

from cutstack import runs as rn
from cutstack.runs import RunSet

index_sets = st.sets(st.integers(min_value=-200, max_value=200), max_size=40)


def test_normalize_merges_touching():
    assert rn.normalize([(0, 2), (2, 4), (7, 8)]) == ((0, 4), (7, 8))
    assert rn.normalize([(5, 5), (3, 1)]) == ()


@given(index_sets)
@settings(max_examples=60, deadline=None)
def test_from_indices_round_trip(xs):
    runs = rn.from_indices(xs)
    assert set(rn.iter_indices(runs)) == xs
    assert rn.count(runs) == len(xs)


@given(index_sets, index_sets)
@settings(max_examples=60, deadline=None)
def test_intersect_union_difference_match_sets(a, b):
    ra, rb = rn.from_indices(a), rn.from_indices(b)
    assert set(rn.iter_indices(rn.intersect(ra, rb))) == (a & b)
    assert set(rn.iter_indices(rn.union(ra, rb))) == (a | b)
    assert set(rn.iter_indices(rn.difference(ra, rb))) == (a - b)


@given(index_sets, st.integers(min_value=-50, max_value=50))
@settings(max_examples=60, deadline=None)
def test_shift_and_membership(xs, off):
    runs = rn.shift(rn.from_indices(xs), off)
    assert set(rn.iter_indices(runs)) == {x + off for x in xs}
    for x in list(xs)[:5]:
        assert rn.contains(runs, x + off)


@given(index_sets, index_sets, st.integers(min_value=-60, max_value=60))
@settings(max_examples=60, deadline=None)
def test_cross_difference_count(a, b, c):
    ra, rb = rn.from_indices(a), rn.from_indices(b)
    expected = sum(1 for x in a for y in b if x - y == c)
    assert rn.cross_difference_count(ra, rb, c) == expected


@given(index_sets, index_sets)
@settings(max_examples=60, deadline=None)
def test_cross_difference_runs(a, b):
    ra, rb = rn.from_indices(a), rn.from_indices(b)
    diffs = set(rn.iter_indices(rn.cross_difference_runs(ra, rb, -400, 400)))
    assert diffs == {x - y for x in a for y in b}


windows = st.one_of(
    st.tuples(st.integers(-450, 450), st.integers(-450, 450)),  # any, often inverted
    st.integers(-450, 450).map(lambda x: (x, x)),  # single point
    st.integers(-450, 450).flatmap(lambda lo: st.tuples(st.just(lo),
                                                         st.integers(lo, lo + 40))),
    st.just((-401, 401)),  # covers every difference
    st.just((-400, -1)),  # negative
)


@given(index_sets, index_sets, windows)
@settings(max_examples=200, deadline=None)
def test_cross_difference_runs_window(a, b, window):
    lo, hi = window
    ra, rb = rn.from_indices(a), rn.from_indices(b)
    got = rn.cross_difference_runs(ra, rb, lo, hi)
    assert got == rn.normalize(got)
    assert set(rn.iter_indices(got)) == {x - y for x in a for y in b if lo <= x - y <= hi}


def test_cross_difference_runs_edge_windows():
    a, b = ((0, 3), (10, 12)), ((1, 2), (5, 7))  # differences -6..-3, -1..1, 4..6, 9..10
    assert rn.cross_difference_runs(a, b, 5, 4) == ()
    assert rn.cross_difference_runs((), b, -100, 100) == ()
    assert rn.cross_difference_runs(a, (), -100, 100) == ()
    assert rn.cross_difference_runs(a, b, 0, 0) == ((0, 1),)
    assert rn.cross_difference_runs(a, b, -100, -1) == ((-6, -2), (-1, 0))
    assert rn.cross_difference_runs(a, b, -100, 100) == ((-6, -2), (-1, 2), (4, 7), (9, 11))
    assert rn.cross_difference_runs(a, b, 5, 9) == ((5, 7), (9, 10))


def test_runset_surface():
    s = RunSet.of([(0, 3), (10, 12)])
    assert len(s) == 5 and 11 in s and 5 not in s
    assert s.min() == 0 and s.max() == 11
    assert s.clamp(2, 10).runs == ((2, 3), (10, 11))
    assert not RunSet(()).intersect(s)


@st.composite
def clamp_cases(draw):
    """A run set and a window whose ends are drawn from the runs' own
    boundaries (on them and one inside or outside) or from anywhere,
    including beyond the hull and inverted."""
    runs = rn.from_indices(draw(index_sets))
    edges = [x + d for s, t in runs for x in (s, t - 1) for d in (-1, 0, 1)]
    end = st.one_of(st.integers(-300, 300), st.sampled_from(edges)) if edges \
        else st.integers(-300, 300)
    return runs, draw(end), draw(end)


@given(clamp_cases())
@settings(max_examples=200, deadline=None)
def test_clamp_matches_sets(case):
    runs, lo, hi = case
    got = RunSet(runs).clamp(lo, hi)
    assert got.runs == rn.normalize(got.runs)
    assert set(got) == {x for x in rn.iter_indices(runs) if lo <= x <= hi}


def test_clamp_edges():
    runs = ((0, 3), (10, 12))
    assert rn.clamp(runs, 5, 4) == ()
    assert rn.clamp((), -10, 10) == ()
    assert rn.clamp(runs, 3, 9) == ()
    assert rn.clamp(runs, -50, -1) == () == rn.clamp(runs, 12, 50)
    assert rn.clamp(runs, -50, 50) == runs
    assert rn.clamp(runs, 2, 10) == ((2, 3), (10, 11))
    assert rn.clamp(runs, 1, 1) == ((1, 2),)


@given(st.lists(st.tuples(st.integers(-200, 200), st.integers(1, 6)), max_size=30))
@settings(max_examples=200, deadline=None)
def test_cover_matches_sets(pairs):
    """Starts and stops sorted apart from each other still give the union."""
    got = rn.cover(sorted(s for s, _ in pairs), sorted(s + w for s, w in pairs))
    assert got == rn.normalize(got)
    assert set(rn.iter_indices(got)) == {x for s, w in pairs for x in range(s, s + w)}


@given(st.lists(st.integers(-200, 200), max_size=30).map(sorted),
       st.integers(1, 6), st.integers(-20, 20))
@settings(max_examples=200, deadline=None)
def test_cover_offsets_one_list_matches_sets(points, width, lead):
    """One sorted list as both starts and stops, placed by the offsets."""
    got = rn.cover(points, points, lead, lead + width)
    assert got == rn.normalize(got)
    assert set(rn.iter_indices(got)) == {x + lead + k for x in points for k in range(width)}
