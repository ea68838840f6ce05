"""Output checker, run outside the timed calls.

Two kinds of evidence:
- for the default seed, every answer whose query has a recorded digest must
  match it byte for byte (exact ``num/den`` values, run sets, CLI reports and
  CSVs together with their exit codes);
- for any seed, independent routes on a deterministic sample:
  * ``naive``: the brute-force simulator on the small-stage queries;
  * ``pairwalk``: ``correlation`` (pair walk) against the two-operand
    ``intersection_measure`` (multi walk);
  * ``lags``: sampled lags inside and outside each returned run set against
    per-lag ``correlation``/``product_correlation``/``triple_correlation``;
  * ``theory``: results the construction guarantees (witness pairs verify,
    independence identities hold, classify exit codes match their regime).
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

from workloads import DEFAULT_SEED, NAIVE_STAGE, ROOT

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

# Which answers are kept for the route checks: kind -> (stride, cap). A query
# is kept when its id is a multiple of the stride, until the cap is reached,
# so memory and checking time stay bounded however fast the program runs.
KEEP = {
    "deep_shift": {"small": (1, 40), "correlation": (5, 300)},
    "wide_sets": {"correlation": (1, 150), "return_support": (1, 40)},
    "return_sets": {"lambda_set": (2, 20), "return_support": (2, 20),
                    "triple_return_set": (1, 20), "witness_violations": (1, 10),
                    "independence_check": (2, 100)},
    "cli_session": {"synthesize": (1, 10**9), "build": (1, 10**9),
                    "classify": (1, 10**9), "witness": (1, 10**9),
                    "correlate": (1, 10**9)},
}
CSV_LAG_CHECKS = 60


def canonical(query, result) -> str:
    """Exact, deterministic text of a query's answer."""
    if query.module == "cli":
        text = (ROOT / query.meta["out"]).read_text(encoding="utf-8")
        return f"rc={result}\n{text}"
    if isinstance(result, Fraction):
        return f"{result.numerator}/{result.denominator}"
    if hasattr(result, "runs"):
        return repr(result.runs)
    if hasattr(result, "lines"):
        return "\n".join(result.lines())
    return repr(result)


def digest(query, result) -> str:
    return hashlib.sha256(canonical(query, result).encode()).hexdigest()[:12]


def expected_path(workload: str) -> Path:
    return EXPECTED_DIR / f"{workload}.json"


def load_expected(workload: str, seed: int) -> list[str]:
    """Recorded digests, by query id; answers are recorded for the default seed only."""
    if seed != DEFAULT_SEED:
        return []
    doc = json.loads(expected_path(workload).read_text(encoding="utf-8"))
    return doc["digests"]


def _evenly(items: list, k: int) -> list:
    if len(items) <= k:
        return items
    step = len(items) / k
    return [items[int(i * step)] for i in range(k)]


class Checker:
    """Feed it every query with ``observe`` as the pass runs (outside the
    timed calls), then call ``finish`` once."""

    def __init__(self, workload, expected: list[str]):
        self.wl = workload
        self.expected = expected
        self.failures: dict[int, str] = {}
        self.counts = {"expected": 0, "naive": 0, "pairwalk": 0, "lags": 0, "theory": 0}
        self.kept: dict[str, list] = {}
        self._keep = KEEP[workload.name]
        self._naive = {}

    def fail(self, query, why: str) -> None:
        self.failures.setdefault(query.qid, f"{query.kind}: {why}")

    def observe(self, q, result, err) -> None:
        if err is not None:
            self.fail(q, f"raised {err}")
            return
        if q.qid < len(self.expected):
            self.counts["expected"] += 1
            if digest(q, result) != self.expected[q.qid]:
                self.fail(q, "differs from the recorded answer")
        kind = "small" if q.meta.get("small") else q.kind
        if kind in self._keep:
            stride, cap = self._keep[kind]
            bucket = self.kept.setdefault(kind, [])
            if q.qid % stride == 0 and len(bucket) < cap:
                bucket.append((q, result))

    def finish(self) -> None:
        routes = {"deep_shift": self._deep_shift, "wide_sets": self._wide_sets,
                  "return_sets": self._return_sets, "cli_session": self._cli_session}
        routes[self.wl.name]()

    # -- deep_shift / wide_sets ---------------------------------------------

    def _pairwalk(self, q, result) -> None:
        from cutstack import tower
        A, B, j = q.args
        self.counts["pairwalk"] += 1
        if tower.intersection_measure([A, B], [j, 0]) != result:
            self.fail(q, "pair walk and multi walk disagree")

    def _naive_tower(self, fname: str):
        from cutstack.naive import NaiveTower
        if fname not in self._naive:
            fam = self.wl.families[fname]
            top = NAIVE_STAGE[fname]
            if fname == "preset":
                spacers = [(sp.a, sp.b, sp.c, sp.d)
                           for sp in (fam.params(n) for n in range(top))]
                self._naive[fname] = NaiveTower.four_cut(spacers)
            else:
                stages = range(1, top)
                self._naive[fname] = NaiveTower.vector_spacers(
                    fam.spec.L, [fam.cuts_between(n) for n in stages],
                    [fam.spec.s_of(n)[1] for n in stages])
        return self._naive[fname]

    def _naive_check(self, q, result) -> None:
        m = q.meta
        tw = self._naive_tower(m["family"])
        n0 = m["stage"]
        idx = {x for s, t in m["runs"] for x in range(s, t)}
        if q.kind == "correlation":
            b_idx = {x for s, t in m["b_runs"] for x in range(s, t)}
            want = tw.correlation(n0, idx, n0, b_idx, m["shift"])
        elif q.kind == "triple_correlation":
            want = tw.triple_correlation(n0, idx, m["p"], m["q"], m["i"])
        else:
            shifts = m["shifts"]
            base = min(shifts)
            shifts = [s - base for s in shifts]
            stage = tw.valid_shift_stage(n0, idx, max(shifts))
            lifted = tw.lift_indices(n0, idx, stage)
            hit = set(lifted)
            for s in shifts:
                hit &= {x + s for x in lifted}
            want = len(hit) * tw.level_width(stage)
        self.counts["naive"] += 1
        if want != result:
            self.fail(q, f"naive oracle gives {want}")

    def _deep_shift(self) -> None:
        for q, r in self.kept.get("small", []):
            self._naive_check(q, r)
        for q, r in self.kept.get("correlation", []):
            self._pairwalk(q, r)

    def _wide_sets(self) -> None:
        for q, r in self.kept.get("correlation", []):
            self._pairwalk(q, r)
        for q, r in self.kept.get("return_support", []):
            self._support_lags(q, r)

    # -- run sets -------------------------------------------------------------

    @staticmethod
    def _lags(rng, runs, lo: int, hi: int, k: int = 3) -> tuple[list, list]:
        """Up to k lags inside the run set and k outside it, within [lo, hi]."""
        inside = [rng.randrange(s, t) for s, t in rng.sample(runs, min(k, len(runs)))]
        outside = []
        edges = [lo] + [x for s, t in runs for x in (s - 1, t)] + [hi]
        for x in rng.sample(edges, min(len(edges), 2 * k)):
            if lo <= x <= hi and not any(s <= x < t for s, t in runs):
                outside.append(x)
        return inside, outside[:k]

    def _support_lags(self, q, result) -> None:
        from cutstack import tower
        A, B, lo, hi = q.args
        rng = random.Random(q.qid)
        inside, outside = self._lags(rng, list(result.runs), lo, hi)
        self.counts["lags"] += 1
        for j in inside:
            if tower.intersection_measure([A, B], [j, 0]) == 0:
                self.fail(q, f"lag {j} listed but correlation is 0")
        for j in outside:
            if tower.intersection_measure([A, B], [j, 0]) != 0:
                self.fail(q, f"lag {j} missing but correlation is positive")

    def _lambda_lags(self, q, result) -> None:
        from cutstack import tower
        fam, p, q_, A, horizon = q.args
        B1, B2 = q.kwargs.get("targets", (A, A))
        rng = random.Random(q.qid)
        inside, outside = self._lags(rng, list(result.runs), 1, horizon)
        # lags where the first coordinate returns: word differences over p
        for _ in range(3):
            t = rng.randrange(A.stage, q.meta["M"])
            offs = fam.offsets_between(t)
            c, c2 = sorted(rng.sample(range(len(offs)), 2))
            i = (offs[c2] - offs[c]) // p
            if 1 <= i <= horizon and i not in result:
                outside.append(i)
        self.counts["lags"] += 1
        for i in inside:
            if tower.product_correlation([A, A], [B1, B2], [p, q_], i) == 0:
                self.fail(q, f"lag {i} listed but product correlation is 0")
        for i in outside:
            if tower.product_correlation([A, A], [B1, B2], [p, q_], i) != 0:
                self.fail(q, f"lag {i} missing but product correlation is positive")

    def _triple_lags(self, q, result) -> None:
        from cutstack import tower
        fam, p, q_, A, horizon = q.args
        rng = random.Random(q.qid)
        inside, outside = self._lags(rng, list(result.runs), 1, horizon)
        self.counts["lags"] += 1
        for i in inside:
            if tower.triple_correlation(A, p, q_, i) == 0:
                self.fail(q, f"lag {i} listed but triple correlation is 0")
        for i in outside:
            if tower.triple_correlation(A, p, q_, i) != 0:
                self.fail(q, f"lag {i} missing but triple correlation is positive")

    def _return_sets(self) -> None:
        from cutstack import tower
        by_kind = self.kept
        lag_routes = (("lambda_set", self._lambda_lags), ("return_support", self._support_lags),
                      ("triple_return_set", self._triple_lags))
        for kind, route in lag_routes:
            for q, r in by_kind.get(kind, []):
                route(q, r)
        for q, r in by_kind.get("witness_violations", []):
            self.counts["theory"] += 1
            if r:
                self.fail(q, f"witness violated at lags {r[:5]}")
        for q, rep in by_kind.get("independence_check", []):
            self.counts["theory"] += 1
            if not rep.ok:
                self.fail(q, "independence identity fails")
                continue
            fam, I, J, n, j, count = q.args
            backward = q.kwargs.get("variant", "backward") == "backward"
            cond, moving = (I, J) if backward else (J, I)
            sign = -1 if backward else 1
            from cutstack.vl import t_times
            for i, marginal in enumerate(rep.marginals, start=1):
                t = t_times(fam, n, j, i)
                want = tower.intersection_measure([moving, cond], [sign * t, 0]) / cond.measure()
                if want != marginal:
                    self.fail(q, f"marginal {i} disagrees with the multi walk")

    # -- cli_session ----------------------------------------------------------

    def _cli_session(self) -> None:
        from cutstack import products, tower
        from cutstack.familyfile import load_family
        from cutstack.tower import LevelSet
        ok = sorted((item for bucket in self.kept.values() for item in bucket),
                    key=lambda item: item[0].qid)
        for q, rc in ok:
            argv = q.args[0]
            text = (ROOT / q.meta["out"]).read_text(encoding="utf-8")
            lines = text.splitlines()
            if q.kind == "correlate":
                if rc != 0 or lines[0] != "i,correlation":
                    self.fail(q, f"exit {rc} or malformed CSV")
                continue
            result = lines[-1] if lines else ""
            if q.kind in ("synthesize", "build"):
                if rc != 0 or result != "RESULT=ok":
                    self.fail(q, f"exit {rc}, {result}")
            elif q.kind == "witness":
                if rc != 0 or result != "RESULT=pass":
                    self.fail(q, f"witness did not pass: exit {rc}, {result}")
            elif q.kind == "classify":
                regime = result.partition("=")[2]
                if products.EXIT_CODES.get(regime) != rc:
                    self.fail(q, f"exit {rc} does not encode regime {regime!r}")
            self.counts["theory"] += 1
        # CSV rows against per-lag products of multi-walk correlations
        csvs = [(q, rc) for q, rc in ok if q.kind == "correlate"]
        for q, rc in _evenly(csvs, CSV_LAG_CHECKS):
            argv = q.args[0]
            fam = load_family(ROOT / argv[1])
            sets, powers = [], []
            for a, b in zip(argv, argv[1:]):
                if a == "--set":
                    stage, _, idx = b.partition(":")
                    lo, _, hi = idx.partition("-")
                    sets.append(LevelSet.from_ranges(fam, int(stage),
                                                     [(int(lo), int(hi or lo) + 1)]))
                elif a == "--powers":
                    powers = [int(x) for x in b.split(",")]
            rows = (ROOT / q.meta["out"]).read_text(encoding="utf-8").splitlines()[1:]
            listed = {int(i): v for i, v in (r.split(",") for r in rows)}
            rng = random.Random(q.qid)
            lags = rng.sample(sorted(listed), min(3, len(listed)))
            positive_only = "--positive-only" in argv
            rspec = next(a for a in argv if a.startswith("--range")).partition("=")[2] \
                or argv[argv.index("--range") + 1]
            lo, _, hi = rspec.partition("..")
            lags += [rng.randint(int(lo), int(hi)) for _ in range(2)]
            self.counts["lags"] += 1
            for i in lags:
                value = Fraction(1)
                for s, p in zip(sets, powers):
                    value *= tower.intersection_measure([s, s], [p * i, 0])
                if i in listed:
                    got = Fraction(listed[i])
                elif positive_only:
                    got = Fraction(0)
                else:
                    self.fail(q, f"lag {i} in range but not listed")
                    continue
                if got != value:
                    self.fail(q, f"row {i} reads {got}, multi walk gives {value}")
