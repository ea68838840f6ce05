"""Families and seeded query generators for the four benchmark workloads.

Every workload is a closed loop: one client issues the next query when the
previous one returns. A query is a call into a public cutstack function with
generated inputs; the call is resolved through the module attribute at run
time, so the tracer's wrappers see it.

Costs are stratified: the parameters that decide how much work a query does
(lift stage, run count, product powers) follow a fixed cycle, and the seed
picks only the parts that do not change the cost class (positions, shifts,
levels, horizons within a band). Two seeds therefore give distinct inputs with
the same cost profile, which keeps run-to-run spread low. No query repeats
within a stream, so a result cache cannot help: repeats are ruled out by
``_Unique`` where the input space is small, and by shifts and run sets drawn
from spaces of 10^20 and more elsewhere.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count, islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"

WORKLOADS = ("deep_shift", "wide_sets", "return_sets", "cli_session")
DEFAULT_SEED = 1

# Deep shifts are sums of word differences from stages below TOP; families
# are materialized to TOP + 2 in set-up so the timed pass builds no stage.
TOP = 40


@dataclass
class Query:
    qid: int
    kind: str
    module: str
    func: str
    args: tuple
    kwargs: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def run(self):
        fn = getattr(sys.modules["cutstack." + self.module], self.func)
        return fn(*self.args, **self.kwargs)


@dataclass
class Workload:
    name: str
    families: dict
    queries: Iterator      # the seeded query stream, in issue order
    warmup: list           # drawn from a disjoint stream, used only to warm up


def _rng(name: str, seed: int, stream: str) -> random.Random:
    # String seeds hash with SHA-512, so streams do not depend on PYTHONHASHSEED.
    return random.Random(f"cutstack-bench:{name}:{seed}:{stream}")


class _Unique:
    """Draws values not drawn before in this stream."""

    def __init__(self):
        self.seen = set()

    def draw(self, make):
        for _ in range(10_000):
            v = make()
            if v not in self.seen:
                self.seen.add(v)
                return v
        raise RuntimeError("input space exhausted; widen the generator's ranges")


# ---------------------------------------------------------------------------
# Families


def _synth_spec(three_way: bool):
    from cutstack.synthesis import DirectionSpec
    F = Fraction
    if three_way:
        return DirectionSpec(ratios=(F(1, 2), F(2, 3)), ergodic_subset=(F(1, 2),),
                             complement=(F(1, 3), F(1, 4), F(3, 4), F(2, 5), F(3, 5),
                                         F(1, 5)),
                             complement_complete=True)
    return DirectionSpec(ratios=(F(1, 2), F(1, 3)),
                         complement=(F(2, 5), F(1, 4), F(2, 3), F(3, 5), F(1, 5),
                                     F(3, 4), F(1, 6)),
                         complement_complete=True)


def build_families(name: str) -> dict:
    from cutstack import afs4, synthesis, vl
    fams = {}
    if name in ("deep_shift", "wide_sets"):
        fams["preset"] = afs4.preset_infinite_ergodic_index(TOP + 2)
        fams["synth"], _ = synthesis.synthesize_R(_synth_spec(False), TOP + 2)
        fams["vl_const"] = vl.VlFamily(vl.VlSpec(2, vl.ConstR(4), label="vl-const"))
        fams["vl_power"] = vl.VlFamily(vl.VlSpec(2, vl.PowerR(Fraction(3), Fraction(1, 2)),
                                                 label="vl-power"))
        fams["vl_const"].ensure(TOP + 2)
        fams["vl_power"].ensure(TOP + 2)
    elif name == "return_sets":
        fams["preset"] = afs4.preset_infinite_ergodic_index(12)
        fams["three_way"], _ = synthesis.synthesize_three_way(_synth_spec(True), 12)
        fams["vl_geo"] = vl.VlFamily(vl.VlSpec(2, vl.GeometricR(6, 2), label="vl-geo"))
        fams["vl_geo"].ensure(8)
        fams["vl_power"] = vl.VlFamily(vl.VlSpec(2, vl.PowerR(Fraction(3), Fraction(1, 2)),
                                                 label="vl-power"))
        fams["vl_power"].ensure(34)
    return fams


# ---------------------------------------------------------------------------
# Level sets and shifts


def _short_runs(rng, height: int, nruns: int, max_len: int = 3) -> list:
    """Up to nruns disjoint runs of length 1..max_len inside [0, height)."""
    slot = max_len + 1
    grid = range(0, height - slot, slot)
    starts = rng.sample(grid, min(nruns, len(grid)))
    return [(s, s + rng.randint(1, max_len)) for s in sorted(starts)]


def _word_shift(rng, fam, stages, bases=None):
    """Sum over stages of a difference of two copy offsets: a position
    difference of two words, so T^shift A meets A."""
    total = 0
    for t in stages:
        offs = fam.offsets_between(t)
        c = bases[t] if bases else rng.randrange(len(offs))
        c2 = rng.choice([u for u in range(len(offs)) if u != c])
        total += offs[c] - offs[c2]
    return total


def _deep_stages(rng, n0: int, lo: int = 12):
    top = rng.randint(lo, TOP - 2)
    extra = rng.sample(range(n0, top), rng.randint(0, 2))
    return sorted(extra + [top])


# Naive-oracle reach: the stage each small family's brute-force tower is built
# to (columns of a few tens of thousands of levels).
NAIVE_STAGE = {"preset": 3, "vl_const": 4, "vl_power": 4}


def _lifted_max(fam, n0: int, runs, to_stage: int) -> int:
    top = runs[-1][1] - 1
    for t in range(n0, to_stage):
        top += fam.offsets_between(t)[-1]
    return top


# ---------------------------------------------------------------------------
# deep_shift


def _gen_deep_shift(rng, fams, qid0: int = 0):
    from cutstack.tower import LevelSet
    names = ("preset", "synth", "vl_const", "vl_power")
    pattern = ("correlation", "correlation", "intersection_measure", "correlation",
               "triple_correlation", "correlation", "intersection_measure",
               "correlation", "triple_correlation", "intersection_measure")
    for k in count():
        qid = qid0 + k
        kind = pattern[k % len(pattern)]
        small = k % 20 == 19
        fname = (rng.choice(("preset", "vl_const", "vl_power")) if small
                 else names[k % len(names)])
        fam = fams[fname]
        n0 = fam.first_stage + (1 if small else rng.randint(1, 2))
        runs = _short_runs(rng, fam.height(n0), rng.randint(1, 4))
        A = LevelSet.from_ranges(fam, n0, runs)
        meta = {"family": fname, "stage": n0, "runs": runs, "small": small}
        while True:
            if small:
                limit = NAIVE_STAGE[fname]
                stages = sorted(rng.sample(range(n0, limit), rng.randint(1, limit - n0)))
            else:
                stages = _deep_stages(rng, n0)
            bases = {t: rng.randrange(fam.cuts_between(t)) for t in stages}
            if kind == "correlation":
                extra = _short_runs(rng, fam.height(n0), 1)
                B = LevelSet.from_ranges(fam, n0, runs + extra)
                j = _word_shift(rng, fam, stages) + rng.choice((-1, 0, 1))
                if small:
                    j = abs(j)
                args = (A, B, j)
                meta.update(b_runs=list(B.runs), shift=j)
                span = j
            elif kind == "intersection_measure":
                j1 = _word_shift(rng, fam, stages, bases)
                j2 = _word_shift(rng, fam, stages, bases)
                args = ([A, A, A], [0, j1, j2])
                meta.update(shifts=[0, j1, j2])
                span = max(0, j1, j2) - min(0, j1, j2)
            else:
                p, q = rng.choice(((1, 2), (1, 3), (2, 3)))
                i = abs(_word_shift(rng, fam, stages))
                args = (A, p, q, i)
                meta.update(p=p, q=q, i=i)
                span = q * i
            if not small or _lifted_max(fam, n0, runs, NAIVE_STAGE[fname]) + span \
                    < fam.height(NAIVE_STAGE[fname]):
                break
        yield Query(qid, kind, "tower", kind, args, meta=meta)


# ---------------------------------------------------------------------------
# wide_sets

WIDE_RUNS = (96, 128, 160, 192, 224, 160)


def _gen_wide_sets(rng, fams, qid0: int = 0):
    from cutstack.tower import LevelSet
    plan = (("preset", 3), ("vl_const", 4), ("synth", 3))
    for k in count():
        qid = qid0 + k
        fname, n0 = plan[k % len(plan)]
        fam = fams[fname]
        nruns = WIDE_RUNS[k % len(WIDE_RUNS)]
        H = fam.height(n0)
        A = LevelSet.from_ranges(fam, n0, _short_runs(rng, H, nruns))
        B = LevelSet.from_ranges(fam, n0, _short_runs(rng, H, nruns))
        j = _word_shift(rng, fam, _deep_stages(rng, n0))
        meta = {"family": fname, "stage": n0, "runs": nruns}
        if k % 5 in (1, 3):
            w = rng.randint(200, 220)
            yield Query(qid, "return_support", "tower", "return_support",
                        (A, B, j - w, j + w), meta=meta)
        else:
            yield Query(qid, "correlation", "tower", "correlation", (A, B, j), meta=meta)


# ---------------------------------------------------------------------------
# return_sets


def _gen_return_light(rng, fams, qid0: int):
    from cutstack.tower import LevelSet, apply_power
    pre, tw, vp = fams["preset"], fams["three_way"], fams["vl_power"]
    # M = 7 carries most of the weight, so the median falls inside one class
    lam_plan = ((pre, 6, (1, 2), False), (tw, 7, (1, 2), False), (pre, 8, (1, 3), False),
                (tw, 7, (1, 2), True), (pre, 7, (2, 3), False), (tw, 7, (2, 3), True),
                (pre, 7, (1, 2), False), (tw, 8, (1, 2), True))
    pattern = ("lambda_set", "independence_check", "return_support", "lambda_set",
               "triple_return_set", "lambda_set", "independence_check",
               "return_support", "lambda_set", "independence_check")
    counters = {}
    seen = _Unique()
    for k in count():
        qid = qid0 + k
        kind = pattern[k % len(pattern)]
        slot = counters.get(kind, 0)
        counters[kind] = slot + 1
        if kind == "lambda_set":
            fam, M, (p, q), slip = lam_plan[slot % len(lam_plan)]
            _, idx, back = seen.draw(lambda: (slot % len(lam_plan), rng.randrange(0, 40),
                                              rng.randrange(0, 10_000)))
            A = LevelSet.level(fam, 4, idx)
            horizon = fam.marker(M) // 2 - back
            kwargs = {"targets": (apply_power(A, 1), A)} if slip else {}
            meta = {"family": "preset" if fam is pre else "three_way", "M": M,
                    "p": p, "q": q, "slip": slip}
            yield Query(qid, kind, "products", kind, (fam, p, q, A, horizon), kwargs, meta)
        elif kind == "triple_return_set":
            fam = (pre, tw)[slot % 2]
            M = (5, 6)[(slot // 2) % 2]
            p, q = ((1, 2), (2, 3))[slot % 2]
            _, s, w, back = seen.draw(lambda: ("triple", rng.randrange(0, 300), rng.randint(1, 3),
                                               rng.randrange(0, 1000)))
            A = LevelSet.from_ranges(fam, 2, [(s, s + w)])
            horizon = fam.marker(M) // 2 - back
            yield Query(qid, kind, "products", kind, (fam, p, q, A, horizon),
                        meta={"p": p, "q": q, "M": M})
        elif kind == "return_support":
            fam = (pre, tw)[slot % 2]
            M = (7, 8)[(slot // 2) % 2]
            _, a, b, back = seen.draw(lambda: ("support", rng.randrange(0, 40),
                                               rng.randrange(0, 40), rng.randrange(0, 10_000)))
            A = LevelSet.level(fam, 4, a)
            B = LevelSet.level(fam, 4, b)
            hi = fam.marker(M) - back
            yield Query(qid, kind, "tower", kind, (A, B, 1, hi), meta={"M": M})
        else:
            n = (2, 3)[slot % 2]
            j = (1, 2)[(slot // 2) % 2]
            cnt = (2, 3, 4)[slot % 3]
            H = vp.height(n)
            _, _, _, _, i_idx, j_idx, variant = seen.draw(
                lambda: ("independence", n, j, cnt, rng.randrange(H), rng.randrange(H),
                         ("backward", "forward")[rng.randrange(2)]))
            I = LevelSet.level(vp, n, i_idx)
            J = LevelSet.level(vp, n, j_idx)
            yield Query(qid, kind, "vl", kind, (vp, I, J, n, j, cnt),
                        {"variant": variant}, {"n": n, "j": j, "count": cnt})


def _gen_return_sets(rng, fams):
    """Heavy queries first, so every pass holds the same heavy work, then a
    stratified cycle of lighter ones."""
    from cutstack import vl
    from cutstack.tower import LevelSet
    geo, pre = fams["vl_geo"], fams["preset"]
    for qid, M in enumerate((5, 4)):
        # horizon below h_4: at h_5 the coordinate supports hit the engine's
        # state cap (the known LiftError case, see known_failures.py)
        pair = vl.witness_sets(geo, 2, 2, M)
        horizon = geo.height(4) - rng.randrange(0, 1_000)
        yield Query(qid, "witness_violations", "vl", "witness_violations",
                    (pair, horizon), meta={"M": M})
    A = LevelSet.level(pre, 4, rng.randrange(0, 40))
    yield Query(2, "lambda_set", "products", "lambda_set",
                (pre, 1, 2, A, pre.marker(9) // 2 - rng.randrange(0, 10_000)),
                meta={"family": "preset", "M": 9, "p": 1, "q": 2, "slip": False})
    B = LevelSet.level(pre, 4, rng.randrange(0, 40))
    yield Query(3, "return_support", "tower", "return_support",
                (A, B, 1, pre.marker(9) - rng.randrange(0, 10_000)), meta={"M": 9})
    yield from _gen_return_light(rng, fams, 4)


# ---------------------------------------------------------------------------
# cli_session

PRESET_DOC = {"format_version": 1, "kind": "afs4", "label": "preset",
              "rules": {"a": {"kind": "h_scale", "num": 3, "den": 1, "plus": 0},
                        "b": {"kind": "w_minimal"},
                        "c": {"kind": "h_scale", "num": 3, "den": 1, "plus": 1},
                        "d": {"kind": "w_minimal"}}}
CONST_DOC = {"format_version": 1, "kind": "afs4", "label": "const",
             "rules": {"a": {"kind": "const", "value": 3}, "b": {"kind": "const", "value": 10},
                       "c": {"kind": "const", "value": 4}, "d": {"kind": "const", "value": 20}}}
VL_GEO_DOC = {"format_version": 1, "kind": "vl", "L": 2,
              "r": {"kind": "geometric", "c": 6, "beta": 2}}

RATIO_POOL = tuple(Fraction(p, q) for q in range(2, 8) for p in range(1, q)
                   if Fraction(p, q).denominator == q)


def _fmt(r: Fraction) -> str:
    return f"{r.numerator}/{r.denominator}"


def write_cli_families(out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, doc in (("preset", PRESET_DOC), ("const", CONST_DOC), ("vl_geo", VL_GEO_DOC)):
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        paths[name] = _rel(path)
    return paths


def _rel(path: Path) -> str:
    return os.path.relpath(path, ROOT)


def _reduced(rng, qmax: int) -> tuple[int, int]:
    while True:
        q = rng.randint(2, qmax)
        p = rng.randint(1, q - 1)
        if Fraction(p, q).denominator == q:
            return p, q


def _gen_cli_session(rng, out_dir: Path, paths: dict, qid0: int = 0):
    """Scripted sessions of CLI commands; every command reloads its family file."""
    seen = {"synth": _Unique(), "classify": _Unique(), "range": _Unique()}
    qid = qid0
    for session in count():
        tag = f"{qid0}-{session}"
        r_path = _rel(out_dir / f"syn-{tag}.json")
        t_path = _rel(out_dir / f"tri-{tag}.json")
        cmds = []

        def syn(mode):
            def make():
                pool = list(RATIO_POOL)
                rng.shuffle(pool)
                if mode == "ergodic-set":
                    return ("e", tuple(pool[:2]), tuple(pool[2:9]), rng.randint(8, 12))
                return ("t", tuple(pool[:2]), tuple(pool[2:6]), rng.randint(7, 10))
            return seen["synth"].draw(make)

        _, R, S, stages = syn("ergodic-set")
        argv = ["synthesize"] + [a for r in R for a in ("--R", _fmt(r))]
        argv += [a for s in S for a in ("--S", _fmt(s))]
        argv += ["--stages", str(stages), "--out", r_path]
        cmds.append(("synthesize", argv, "--report"))
        _, R2, S2, stages2 = syn("three-way")
        argv = ["synthesize", "--mode", "three-way"]
        argv += [a for r in R2 for a in ("--R", _fmt(r))] + ["--R1", _fmt(R2[0])]
        argv += [a for s in S2 for a in ("--S", _fmt(s))]
        argv += ["--S-complete", "--stages", str(stages2), "--out", t_path]
        cmds.append(("synthesize", argv, "--report"))
        cmds.append(("build", ["build", r_path, "--stage", str(rng.randint(4, 7))], "--out"))
        cmds.append(("build", ["build", paths["preset"], "--stage", str(rng.randint(5, 9))],
                     "--out"))

        def ratio(fam_key, fixed=None):
            if fixed is not None:
                return seen["classify"].draw(lambda: (fam_key + tag, fixed))[1]
            return seen["classify"].draw(lambda: (fam_key, _reduced(rng, 100)))[1]

        for fixed in ((R[0].numerator, R[0].denominator),
                      (S[0].numerator, S[0].denominator), None, None):
            pq = ratio("syn", fixed) if fixed else ratio("syn")
            cmds.append(("classify", ["classify", r_path, "--ratio", f"{pq[0]}/{pq[1]}"],
                         "--out"))
        for fixed in ((R2[0].numerator, R2[0].denominator),
                      (R2[1].numerator, R2[1].denominator), None):
            pq = ratio("tri", fixed) if fixed else ratio("tri")
            cmds.append(("classify", ["classify", t_path, "--ratio", f"{pq[0]}/{pq[1]}"],
                         "--out"))
        for _ in range(3):
            pq = ratio("preset")
            cmds.append(("classify", ["classify", paths["preset"], "--ratio",
                                      f"{pq[0]}/{pq[1]}"], "--out"))
        pq = ratio("const")
        cmds.append(("classify", ["classify", paths["const"], "--ratio", f"{pq[0]}/{pq[1]}"],
                     "--out"))
        # a horizon makes classify scan base-level product returns up to it;
        # that scan grows with q * horizon, so the ratio stays small here
        pq, horizon = seen["range"].draw(lambda: (rng.choice(((1, 2), (1, 3), (2, 3), (1, 4),
                                                              (3, 4))),
                                                  rng.randint(250, 650)))
        cmds.append(("classify", ["classify", paths["const"], "--ratio", f"{pq[0]}/{pq[1]}",
                                  "--horizon", str(horizon)], "--out"))
        # sweep sizes stay in narrow bands, and dense lags stay inside one lift
        # stage of the preset (22285 <= lag < 1687916), so sessions cost alike
        lo = seen["range"].draw(lambda: ("dense", rng.randint(22_285, 1_680_000)))[1]
        n = rng.randint(3500, 3550)
        cmds.append(("correlate", ["correlate", paths["preset"], "--set", "1:0", "--powers",
                                   "1", "--range", f"{lo}..{lo + n}"], "--out"))
        # distinct through the session's own three-way family file
        hi = rng.randint(500, 520)
        cmds.append(("correlate", ["correlate", t_path, "--set", "4:0", "--set", "4:0",
                                   "--powers", "1,2", "--range", f"1..{hi}",
                                   "--positive-only"], "--out"))
        _, s, w = seen["range"].draw(lambda: ("neg", rng.randrange(0, 400),
                                              rng.randint(1500, 1550)))
        cmds.append(("correlate", ["correlate", paths["preset"], "--set", f"2:{s}-{s + 5}",
                                   "--powers", "1", f"--range=-{w}..{w}"], "--out"))
        # a third long sweep makes the heavy commands 3 in 21, so p90 lies
        # inside their class rather than on its edge
        _, s, lo = seen["range"].draw(lambda: ("dense2", rng.randrange(0, 400),
                                               rng.randint(22_285, 1_680_000)))
        cmds.append(("correlate", ["correlate", paths["preset"], "--set", f"2:{s}",
                                   "--powers", "1", "--range", f"{lo}..{lo + 3000}"],
                     "--out"))
        horizon = seen["range"].draw(lambda: ("wit", rng.randint(40_000, 46_000)))[1]
        cmds.append(("witness", ["witness", paths["vl_geo"], "--k", "2", "--n", "2",
                                 "--M", "3", "--horizon", str(horizon)], "--out"))
        for kind, argv, out_flag in cmds:
            dest = _rel(out_dir / f"q{qid}.txt")
            yield Query(qid, kind, "cli", "main", (argv + [out_flag, dest],),
                        meta={"out": dest})
            qid += 1


# ---------------------------------------------------------------------------
# Entry point

WARMUP = {"deep_shift": 200, "wide_sets": 6, "return_sets": 30, "cli_session": 22}


def reset_outputs(name: str) -> None:
    """Remove the files an earlier run of this workload left in OUT_DIR."""
    shutil.rmtree(OUT_DIR / name, ignore_errors=True)


def build_workload(name: str, seed: int) -> Workload:
    """Set-up: families, and the seeded query stream and a disjoint warm-up list.

    Queries are generated lazily by the client between timed calls, so the
    stream never runs out and generation stays out of both set-up and the
    per-query latency.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    fams = build_families(name)
    rng = _rng(name, seed, "pool")
    wrng = _rng(name, seed, "warmup")
    if name == "deep_shift":
        queries = _gen_deep_shift(rng, fams)
        warm = _gen_deep_shift(wrng, fams, qid0=-10**6)
    elif name == "wide_sets":
        queries = _gen_wide_sets(rng, fams)
        warm = _gen_wide_sets(wrng, fams, qid0=-10**6)
    elif name == "return_sets":
        queries = _gen_return_sets(rng, fams)
        warm = _gen_return_light(wrng, fams, qid0=-10**6)
    else:
        out_dir = OUT_DIR / name
        paths = write_cli_families(out_dir)
        (out_dir / "warm").mkdir(exist_ok=True)
        queries = _gen_cli_session(rng, out_dir, paths)
        warm = _gen_cli_session(wrng, out_dir / "warm", paths, qid0=-10**6)
    return Workload(name, fams, queries, list(islice(warm, WARMUP[name])))
