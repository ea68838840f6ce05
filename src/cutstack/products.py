"""Decision machinery for two-fold product powers T^p x T^q.

Provides the exact hypothesis conditions (proportionality gap, offset
divisibility), the interval table bounding where the bottom blocks of a stage
can meet, exact product return-time sets at arbitrary horizons, accumulation
membership of p_n/q_n ratios, and the regime classifier.

A classification is a *certificate* only when it follows from a rule-complete
family (the stock preset or a synthesis recipe) whose tail behavior is pinned
down by exact threshold arguments re-checked against the materialized prefix.
Anything else is prefix evidence and the verdict stays unknown-at-horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .afs4 import AfsParams, is_preset_rule, validate_V
from .errors import CertificateError, PrefixExhausted
from .runs import RunSet
from .synthesis import (SynthesisTrace, SynthesizedParams, block_partition,
                        schedule_round)
# return_support is no longer called here but stays bound by this name:
# perfbench/test_perfbench.py checks that the tracer patches it here
from .tower import (LevelSet, joint_return_set, return_support,  # noqa: F401
                    triple_correlation)

REGIME_ERGODIC = "ergodic"
REGIME_CONS_NOT_ERG = "conservative-not-ergodic"
REGIME_NOT_CONS = "not-conservative"
REGIME_UNKNOWN = "unknown-at-horizon"

EXIT_CODES = {REGIME_ERGODIC: 0, REGIME_CONS_NOT_ERG: 3,
              REGIME_NOT_CONS: 4, REGIME_UNKNOWN: 5}


# ---------------------------------------------------------------------------
# Stage-level hypothesis conditions


def gap_condition(params: AfsParams, n: int, p: int, q: int) -> bool:
    """Exact test |p q_n - q p_n| <= (p + q) h_n at stage n."""
    sp = params.params(n)
    return abs(p * sp.q - q * sp.p) <= (p + q) * params.marker(n)


def divisibility_condition(params: AfsParams, n: int, p: int, q: int,
                           k: int, l: int) -> int | None:
    """Common integer value of (q_n + l)/q and (p_n + k)/p, if it exists."""
    sp = params.params(n)
    if (sp.q + l) % q or (sp.p + k) % p:
        return None
    t_q = (sp.q + l) // q
    t_p = (sp.p + k) // p
    return t_q if t_p == t_q else None


# ---------------------------------------------------------------------------
# Interval table for bottom-block meetings


@dataclass(frozen=True)
class KIntervalTable:
    """Closed integer intervals around the stage-n block separations.

    ``off_diagonal[(s, t)]`` for 1 <= s < t <= 4 is the window of shifts j
    where the bottom-h_n block of subcolumn s can meet the block of subcolumn
    t; the diagonal window is [0, h_n]. Radii all equal h_n.
    """

    stage: int
    h: int
    off_diagonal: dict[tuple[int, int], tuple[int, int]]
    diagonal: tuple[int, int]

    def all_intervals(self) -> list[tuple[int, int]]:
        return [self.diagonal] + [self.off_diagonal[key]
                                  for key in sorted(self.off_diagonal)]


def k_intervals(params: AfsParams, n: int) -> KIntervalTable:
    sp = params.params(n)
    h = params.marker(n)
    centers = {
        (1, 2): sp.p,
        (2, 3): sp.ell,
        (3, 4): sp.q,
        (1, 3): sp.p + sp.ell,
        (2, 4): sp.ell + sp.q,
        (1, 4): sp.p + sp.ell + sp.q,
    }
    return KIntervalTable(
        stage=n, h=h,
        off_diagonal={key: (c - h, c + h) for key, c in centers.items()},
        diagonal=(0, h),
    )


def simultaneous_hits(p: int, q: int, interval_a: tuple[int, int],
                      interval_b: tuple[int, int]) -> RunSet:
    """All i > 0 with i p in interval_a and i q in interval_b (exact)."""
    def i_range(lo: int, hi: int, step: int) -> tuple[int, int]:
        return -((-lo) // step), hi // step  # ceil, floor

    lo_a, hi_a = i_range(interval_a[0], interval_a[1], p)
    lo_b, hi_b = i_range(interval_b[0], interval_b[1], q)
    lo = max(lo_a, lo_b, 1)
    hi = min(hi_a, hi_b)
    if hi < lo:
        return RunSet(())
    return RunSet(((lo, hi + 1),))


# ---------------------------------------------------------------------------
# Exact product return-time sets


def lambda_set(family, p: int, q: int, A: LevelSet, horizon: int,
               targets: tuple[LevelSet, LevelSet] | None = None) -> RunSet:
    """Exact {0 < i <= horizon : (T^p x T^q)^i (A x A) meets (B1 x B2)}.

    Defaults to B1 = B2 = A; ``targets`` overrides the two product factors
    (the one-level-slip variant uses (TA, A)). Product measure factorizes, so
    membership is a simultaneous hit of the two coordinate return supports.
    Neither support is built: one gap-pruned lockstep walk over offset-word
    differences (:func:`~cutstack.tower.joint_return_set`) drops every
    coordinate state that no state of the other coordinate can match under
    the proportionality gap |q delta_p - p delta_q|, so the cost is set by
    the surviving states, not by the support sizes, and the horizon may be
    astronomically large. ``family`` is unused (the sets carry theirs).
    Partitioning the i-range across workers and merging by union is safe;
    everything here is pure.
    """
    if horizon <= 0 or p < 1 or q < 1:
        return RunSet(())
    B1, B2 = targets if targets is not None else (A, A)
    return joint_return_set(A, B1, B2, p, q, horizon)


def triple_return_set(family, p: int, q: int, A: LevelSet, horizon: int,
                      refine_cap: int = 100_000) -> RunSet:
    """Exact {0 < i <= horizon : T^{pi} A meets T^{qi} A meets A}.

    Candidates come from the pairwise product return set, computed by the
    gap-pruned lockstep walk of :func:`lambda_set`, then each candidate is
    confirmed by an exact three-way intersection. The walk's cost is set by
    its surviving states, so emptiness conclusions are cheap at any horizon;
    the refinement costs one intersection walk per candidate.
    """
    candidates = lambda_set(family, p, q, A, horizon)
    if candidates.is_empty():
        return candidates
    if len(candidates) > refine_cap:
        raise ValueError(f"{len(candidates)} candidates exceed the refinement cap")
    return RunSet.from_indices(
        i for i in candidates if triple_correlation(A, p, q, i) > 0)


def nonconservativity_base_stage(family: AfsParams, p: int, q: int,
                                 scan_to: int = 12,
                                 allow_exact: bool = False) -> int:
    """Base stage N of the product non-return argument for p < q.

    N must exceed q, satisfy (N - 1)/N > p/q, and every later materialized
    stage must keep p_n > 2 h_n with discrepancy above (p + q) h_n -- except
    that with ``allow_exact`` (the not-ergodic variant) stages with exactly
    proportional (p_n, q_n) are admissible. The returned N is the smallest
    one compatible with the scanned prefix.
    """
    if not 1 <= p < q:
        raise ValueError("requires p < q")
    N = max(q + 1, q // (q - p) + 1)
    family.ensure(scan_to + 1)
    for n in range(scan_to + 1):
        sp = family.params(n)
        disc = abs(p * sp.q - q * sp.p)
        small_gap = disc <= (p + q) * family.marker(n)
        if allow_exact and disc == 0:
            small_gap = False
        bad = small_gap or sp.p <= 2 * family.marker(n)
        if bad and n >= N:
            N = n + 1
    if N > scan_to:
        raise CertificateError("no admissible base stage within the scanned prefix")
    return N


# ---------------------------------------------------------------------------
# Accumulation membership


MEMBER = "member"
NON_MEMBER = "non-member"
UNKNOWN = "unknown"


def limit_ratio_membership(family: AfsParams, p: int, q: int,
                           eps: Fraction | None = None,
                           prefix: int = 12) -> tuple[str, str]:
    """Membership of p/q in the accumulation set of the stage ratios p_n/q_n.

    Exact for families whose rules declare their accumulation set; otherwise
    reports prefix evidence only (whether the ratio is approached within eps
    along the materialized prefix) and stays unknown.
    """
    if p > q:
        raise ValueError("requires p <= q")
    ratio = Fraction(p, q)
    acc = family.accumulation_ratios()
    if acc is not None:
        verdict = MEMBER if ratio in acc else NON_MEMBER
        return verdict, f"declared accumulation set {sorted(acc)}"
    if eps is None:
        eps = Fraction(1, 100)
    family.ensure(prefix + 1)
    close = [n for n in range(prefix + 1)
             if abs(Fraction(family.params(n).p, family.params(n).q) - ratio) < eps]
    return UNKNOWN, f"stages within {eps} of {ratio} in prefix: {close}"


# ---------------------------------------------------------------------------
# Classifier


@dataclass(frozen=True)
class Verdict:
    p: int
    q: int
    regime: str
    basis: str  # "certificate" | "prefix-evidence"
    reduced: tuple[int, int]
    swapped: bool = False
    negative_first: bool = False
    threshold: int | None = None
    exceptional_stages: tuple[int, ...] = ()
    facts: tuple[str, ...] = ()

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.regime]


def _round_bound_stage(q_bound: int) -> int:
    """Smallest stage beyond which h_n > q_bound * (schedule round of n).

    Uses h_{n+1} >= 4 h_n (every summand of h_{n+1} is at least h_n once the
    admissible spacers kick in), so h_n >= 4^(n-1) for n >= 1.
    """
    n = 1
    while 4 ** (n - 1) <= q_bound * schedule_round(max(n, 1)):
        n += 1
    return n


def _preset_not_conservative(fam: AfsParams, p: int, q: int) -> tuple[int, list[int], list[str]]:
    """Threshold + exceptional stages for the preset rule at reduced p < q.

    The rule gives q_n = p_n + 1 and p_n >= n h_n, so
    |p q_n - q p_n| = (q - p) p_n - p >= ((q - p) n - p) h_n, which exceeds
    (p + q) h_n as soon as (q - p) n > 2p + q.
    """
    threshold = (2 * p + q) // (q - p) + 1
    scan_to = max(threshold + 4, 8)
    fam.ensure(scan_to + 1)
    exceptional = [n for n in range(threshold) if gap_condition(fam, n, p, q)]
    facts = [f"rule: q_n = p_n + 1 and p_n >= n h_n at every stage",
             f"gap discrepancy exceeds (p+q) h_n for all n >= {threshold}"]
    for n in range(threshold, scan_to + 1):
        if gap_condition(fam, n, p, q):
            raise CertificateError(f"stage {n}: preset gap certificate failed re-check")
        sp = fam.params(n)
        if sp.p < n * fam.marker(n) or sp.q != sp.p + 1:
            raise CertificateError(f"stage {n}: preset rule shape failed re-check")
    return threshold, exceptional, facts


def _synth_not_conservative_threshold(fam: SynthesizedParams, p: int, q: int,
                                      v: int) -> int:
    """Stage beyond which every stage's discrepancy beats (p + q) h_n, given
    that p/q is the v-th enumerated complement ratio.

    Target stages with i + j > v inherit it from the separation inequality
    (q_n delta > 2 h_n + k + l with delta <= |r_i - p/q|); the preset filler
    stages from the gap growth of the preset rule.
    """
    n_bar = 0
    for i in range(1, len(fam.spec.ratios) + 1):
        for j in range(1, v + 1):
            if i + j <= v:
                n_bar = max(n_bar, block_partition(i, j))
    n_preset = (2 * p + q) // (q - p) + 1
    return max(n_bar, n_preset)


def _synth_cross_target_threshold(fam: SynthesizedParams, p: int, q: int) -> int:
    """Stage beyond which stages targeting a ratio other than p/q have
    discrepancy above (p + q) h_n.

    At a stage for target P''/Q'' the pair is (t j P'' - k, t j Q'' - l), so
    |p q_n - q p_n| >= t j - (q k + p l) with t j >= q_n / Q'' >= n h_n / Q'';
    k + l is at most the schedule round of the visit, which is at most the
    round of n. The bound clears once n >= Q''(p + q + 1) and h_n exceeds
    q times that round bound.
    """
    out = _round_bound_stage(q)
    for r in fam.spec.ratios:
        out = max(out, r.denominator * (p + q + 1))
    out = max(out, (2 * p + q) // (q - p) + 1 if q > p else out)
    return out


def _verify_gap_tail(fam: AfsParams, p: int, q: int, threshold: int,
                     scan_to: int, allow_zero: bool) -> list[int]:
    """Exact re-check of the certified tail on the materializable prefix.

    Generation can stop early when a synthesis recipe runs out of complement
    entries; the certificate only claims the gap beyond the threshold at
    all-but-finitely-many stages, so a shorter scan narrows the sanity check
    without weakening the rule-level argument.
    """
    zero_stages = []
    for n in range(threshold, scan_to + 1):
        try:
            fam.ensure(n + 1)
        except PrefixExhausted:
            break
        sp = fam.params(n)
        disc = abs(p * sp.q - q * sp.p)
        if disc == 0:
            if not allow_zero:
                raise CertificateError(f"stage {n}: unexpected exact proportionality")
            zero_stages.append(n)
        elif disc <= (p + q) * fam.marker(n):
            raise CertificateError(f"stage {n}: certified gap fails re-check")
    return zero_stages


def classify(family: AfsParams, p: int, q: int, horizon: int = 0,
             trace: SynthesisTrace | None = None,
             negative_first: bool = False) -> Verdict:
    """Regime of T^p x T^q (or T^-p x T^q) for the given family.

    Certificates are issued only for rule-complete families: the stock preset
    and synthesized recipes. The pair is reduced by gcd first and swapped to
    p <= q if needed (products commute up to isomorphism); both adjustments
    are flagged on the verdict.
    """
    if p < 1 or q < 1:
        raise ValueError("powers must be positive (negative first power via flag)")
    if trace is not None:
        if not isinstance(family, SynthesizedParams):
            raise CertificateError("trace supplied for a family without a recipe")
        trace.recheck(family)
    g = gcd(p, q)
    rp, rq = p // g, q // g
    swapped = rp > rq
    if swapped:
        rp, rq = rq, rp
    facts: list[str] = []
    if (rp, rq) != (p, q):
        facts.append(f"analyzed as reduced pair ({rp}, {rq})")

    scan_to = 12

    if isinstance(family, SynthesizedParams):
        family.trace.recheck(family)
        ratio = Fraction(rp, rq) if rp < rq else Fraction(1)
        spec = family.spec
        if rp == rq:
            facts.append("self-product of equal powers: conservative by quarter rigidity; "
                         "no ergodicity certificate from the recipe")
            return Verdict(p, q, REGIME_UNKNOWN, "prefix-evidence", (rp, rq), swapped,
                           negative_first, facts=tuple(facts))
        if ratio in spec.r1:
            rows = family.trace.stages_for(ratio, "ergodic")
            facts.append(f"recipe hits every offset pair infinitely often for {ratio}; "
                         f"materialized stages {[r.n for r in rows][:8]}")
            facts.append("offset divisibility holds at every recorded stage (re-checked)")
            return Verdict(p, q, REGIME_ERGODIC, "certificate", (rp, rq), swapped,
                           negative_first, facts=tuple(facts))
        if negative_first:
            facts.append("negative first power outside the certified ergodic case")
            return Verdict(p, q, REGIME_UNKNOWN, "prefix-evidence", (rp, rq), swapped,
                           True, facts=tuple(facts))
        if ratio in set(spec.ratios):
            threshold = _synth_cross_target_threshold(family, rp, rq)
            scan = max(scan_to, threshold + 4)
            zero = _verify_gap_tail(family, rp, rq, threshold, scan, allow_zero=True)
            rows = family.trace.stages_for(ratio, "exact")
            for row in rows:
                if divisibility_condition(family, row.n, rp, rq, 0, 0) is None:
                    raise CertificateError(f"stage {row.n}: exact proportionality "
                                           "lost divisibility")
            facts.append(f"exact proportionality stages (recipe, forever): "
                         f"{[r.n for r in rows][:8]}")
            facts.append(f"all other stages beyond {threshold} have gap discrepancy "
                         f"above ({rp}+{rq}) h_n; prefix re-checked to {scan} "
                         f"(zero-gap stages seen: {zero[:6]})")
            return Verdict(p, q, REGIME_CONS_NOT_ERG, "certificate", (rp, rq), swapped,
                           False, threshold=threshold, facts=tuple(facts))
        if ratio in set(spec.complement):
            v = list(spec.complement).index(ratio) + 1
            threshold = max(_synth_not_conservative_threshold(family, rp, rq, v),
                            _synth_cross_target_threshold(family, rp, rq))
            scan = max(scan_to, threshold + 4)
            _verify_gap_tail(family, rp, rq, threshold, scan, allow_zero=False)
            exceptional = []
            for n in range(threshold):
                try:
                    family.ensure(n + 1)
                except PrefixExhausted:
                    break
                if gap_condition(family, n, rp, rq):
                    exceptional.append(n)
            facts.append(f"{ratio} is complement entry {v}; separation inequality "
                         f"dominates every target stage beyond {threshold}")
            return Verdict(p, q, REGIME_NOT_CONS, "certificate", (rp, rq), swapped,
                           False, threshold=threshold,
                           exceptional_stages=tuple(exceptional), facts=tuple(facts))
        facts.append("ratio not covered by the enumerated direction sets")
        return Verdict(p, q, REGIME_UNKNOWN, "prefix-evidence", (rp, rq), swapped,
                       negative_first, facts=tuple(facts))

    if is_preset_rule(family):
        if rp == rq:
            if negative_first:
                facts.append("inverse-direction self-product: conservative by the "
                             "two-sided rigidity of the cut times; no ergodicity "
                             "certificate")
                return Verdict(p, q, REGIME_UNKNOWN, "prefix-evidence", (rp, rq),
                               swapped, True, facts=tuple(facts))
            facts.append("preset rule: every finite self-product power is ergodic "
                         "(infinite ergodic index)")
            return Verdict(p, q, REGIME_ERGODIC, "certificate", (rp, rq), swapped,
                           False, facts=tuple(facts))
        threshold, exceptional, cert_facts = _preset_not_conservative(family, rp, rq)
        if negative_first:
            facts.append("negative first power: rigidity keeps the product "
                         "conservative in the inverse direction; no regime certificate")
            return Verdict(p, q, REGIME_UNKNOWN, "prefix-evidence", (rp, rq), swapped,
                           True, facts=tuple(facts))
        report = validate_V(family, min(8, threshold + 2))
        if not report.ok:
            raise CertificateError("preset family failed admissibility re-check")
        facts.extend(cert_facts)
        return Verdict(p, q, REGIME_NOT_CONS, "certificate", (rp, rq), swapped,
                       False, threshold=threshold,
                       exceptional_stages=tuple(exceptional), facts=tuple(facts))

    # No rule certificate: prefix evidence only.
    family.ensure(scan_to + 1)
    gap_hits = [n for n in range(scan_to + 1) if gap_condition(family, n, rp, rq)]
    div_hits = [n for n in range(scan_to + 1)
                if divisibility_condition(family, n, rp, rq, 0, 0) is not None]
    facts.append(f"gap condition holds at stages {gap_hits} (prefix to {scan_to})")
    facts.append(f"zero-offset divisibility at stages {div_hits}")
    if horizon > 0:
        A = LevelSet.level(family, family.first_stage, 0)
        lam = lambda_set(family, rp, rq, A, horizon)
        facts.append(f"base-level product returns up to {horizon}: "
                     f"{'none' if lam.is_empty() else 'present'}")
    return Verdict(p, q, REGIME_UNKNOWN, "prefix-evidence", (rp, rq), swapped,
                   negative_first, facts=tuple(facts))
