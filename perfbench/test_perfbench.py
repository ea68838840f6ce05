"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import inspect
import sys
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import cutstack  # noqa: E402
import cutstack.cli  # noqa: E402
from check import Checker, digest, load_expected  # noqa: E402
from layertrace import Tracer  # noqa: E402
from run import run_pass  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, build_workload  # noqa: E402


def describe(value):
    """Plain-data description of a query argument, for comparing streams."""
    if isinstance(value, cutstack.tower.LevelSet):
        return ("level-set", value.family.descriptor()["label"], value.stage, value.runs,
                value.letter_constraints)
    if isinstance(value, cutstack.tower.Family):
        return ("family", value.descriptor()["label"])
    if isinstance(value, cutstack.vl.WitnessPair):
        return ("witness", value.k, value.n, value.M)
    if isinstance(value, (list, tuple)):
        return tuple(describe(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, describe(v)) for k, v in value.items()))
    return value


def stream(name: str, seed: int, n: int) -> list:
    wl = build_workload(name, seed)
    return [(q.qid, q.kind, q.func, describe(q.args), describe(q.kwargs))
            for q in islice(wl.queries, n)]


@pytest.mark.parametrize("name", WORKLOADS)
def test_generator_is_a_function_of_the_seed(name):
    a, b = stream(name, 3, 40), stream(name, 3, 40)
    c = stream(name, 4, 40)
    assert a == b
    assert a != c
    # no query repeats within a stream
    assert len({row[1:] for row in a}) == len(a)


@pytest.mark.parametrize("name", ["deep_shift", "cli_session"])
def test_checker_flags_a_corrupted_recorded_answer(name):
    expected = load_expected(name, DEFAULT_SEED)
    assert len(expected) >= 10, "record the expected answers first (record.py)"
    wl = build_workload(name, DEFAULT_SEED)
    done = []
    for q in islice(wl.queries, 10):
        done.append((q, q.run()))

    clean = Checker(wl, expected)
    for q, r in done:
        clean.observe(q, r, None)
    assert clean.failures == {}

    corrupted = list(expected)
    corrupted[3] = "0" * len(corrupted[3])
    checker = Checker(wl, corrupted)
    for q, r in done:
        checker.observe(q, r, None)
    assert set(checker.failures) == {3}
    assert "recorded" in checker.failures[3]
    assert digest(done[3][0], done[3][1]) == expected[3]


def _snapshot():
    """Every attribute of every cutstack module and class, by identity."""
    snap = {}
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "cutstack" or modname.startswith("cutstack.")):
            continue
        for attr, value in vars(mod).items():
            snap[(modname, attr)] = value
            if inspect.isclass(value) and value.__module__ == modname:
                for mattr, mvalue in vars(value).items():
                    snap[(modname, attr, mattr)] = mvalue
    return snap


def _traced(name: str, n: int):
    wl = build_workload(name, 5)
    queries = list(islice(wl.queries, n))
    tracer = Tracer()
    try:
        tracer.install()
        lat = run_pass(queries, None, tracer)
    finally:
        tracer.remove()
    return tracer, sum(lat)


@pytest.mark.parametrize("name,n", [("deep_shift", 60), ("cli_session", 21),
                                    ("wide_sets", 3)])
def test_self_times_and_remainder_sum_to_traced_wall(name, n):
    tracer, wall = _traced(name, n)
    layers, top = tracer.self_times()
    remainder = wall - top  # inside the timed calls, outside every wrapper
    assert remainder >= 0
    assert all(t >= -1e-9 for t in layers.values())
    assert sum(layers.values()) + remainder == pytest.approx(wall, rel=1e-9, abs=1e-9)
    # spans nest: each lies inside its parent's interval
    for i in range(len(tracer.start)):
        p = tracer.parent[i]
        if p >= 0:
            assert tracer.start[p] <= tracer.start[i] <= tracer.end[i] <= tracer.end[p]


def test_wrappers_are_removed_after_the_traced_run():
    before = _snapshot()
    original = cutstack.tower.return_support
    tracer = Tracer()
    try:
        tracer.install()
        # a function is patched in every module that bound it by name
        assert cutstack.products.return_support is not original
        assert cutstack.vl.return_support is cutstack.products.return_support
        assert cutstack.return_support is cutstack.products.return_support
        assert inspect.unwrap(cutstack.products.return_support) is original
        run_pass(list(islice(build_workload("return_sets", 6).queries, 4, 12)), None, tracer)
    finally:
        tracer.remove()
    assert tracer.counts["engine.walks"] > 0
    assert _snapshot() == before
