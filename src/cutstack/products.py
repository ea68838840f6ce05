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

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .afs4 import AfsParams, is_preset_rule, validate_V
from .errors import CertificateError, PrefixExhausted, SchemaError
from .runs import RunSet
from .synthesis import SynthesizedParams, block_partition, schedule_round
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

# triple_return_set settles each candidate lag with its own walk; more
# candidates than this are refused.
REFINE_CAP = 100_000

# Last stage of the fixed prefix scans: the evidence of an uncertified
# classification, the membership evidence and the non-return base stage.
_SCAN_TO = 12
# Distance from p/q within which a stage ratio counts as near it.
_NEAR = Fraction(1, 100)


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
    The powers must be p, q >= 1 (a ValueError otherwise). There is no lower
    lag bound: a call always covers every i up to ``horizon``.
    """
    B1, B2 = targets if targets is not None else (A, A)
    return joint_return_set(A, B1, B2, p, q, horizon)


def triple_return_set(family, p: int, q: int, A: LevelSet, horizon: int) -> RunSet:
    """Exact {0 < i <= horizon : T^{pi} A meets T^{qi} A meets A}.

    Candidates come from the pairwise product return set, computed by the
    gap-pruned lockstep walk of :func:`lambda_set`, then each candidate is
    confirmed by an exact three-way intersection. The powers must be
    p, q >= 1 (a ValueError otherwise). The walk's cost is set by its
    surviving states, so emptiness conclusions are cheap at any horizon;
    the refinement costs one intersection walk per candidate, for at most
    ``REFINE_CAP`` candidates.
    """
    candidates = lambda_set(family, p, q, A, horizon)
    if candidates.is_empty():
        return candidates
    if len(candidates) > REFINE_CAP:
        raise ValueError(f"{len(candidates)} candidate lags exceed REFINE_CAP={REFINE_CAP}")
    return RunSet.from_indices(
        i for i in candidates if triple_correlation(A, p, q, i) > 0)


def nonconservativity_base_stage(family: AfsParams, p: int, q: int,
                                 allow_exact: bool = False) -> int:
    """Base stage N of the product non-return argument for p < q.

    N must exceed q, satisfy (N - 1)/N > p/q, and every later stage up to
    ``_SCAN_TO`` must keep p_n > 2 h_n and fail the gap condition -- except
    that with ``allow_exact`` (the not-ergodic variant) stages with exactly
    proportional (p_n, q_n) are admissible. The returned N is the smallest
    one compatible with the scanned prefix.
    """
    if not 1 <= p < q:
        raise ValueError(f"powers p={p}, q={q} must satisfy 1 <= p < q")
    N = max(q + 1, q // (q - p) + 1)
    for n in range(_SCAN_TO + 1):
        sp = family.params(n)
        small_gap = gap_condition(family, n, p, q) and not (
            allow_exact and p * sp.q == q * sp.p)
        if (small_gap or sp.p <= 2 * family.marker(n)) and n >= N:
            N = n + 1
    if N > _SCAN_TO:
        raise CertificateError("no admissible base stage within the scanned prefix")
    return N


# ---------------------------------------------------------------------------
# Accumulation membership


MEMBER = "member"
NON_MEMBER = "non-member"
UNKNOWN = "unknown"


def limit_ratio_membership(family: AfsParams, p: int, q: int) -> tuple[str, str]:
    """Membership of p/q in the accumulation set of the stage ratios p_n/q_n.

    Exact for families whose rules declare their accumulation set; otherwise
    reports prefix evidence only (the stages up to ``_SCAN_TO`` whose ratio
    lies within ``_NEAR`` of p/q) and stays unknown. The powers must satisfy
    1 <= p <= q (a ValueError otherwise).
    """
    if not 1 <= p <= q:
        raise ValueError(f"powers p={p}, q={q} must satisfy 1 <= p <= q")
    ratio = Fraction(p, q)
    acc = family.accumulation_ratios()
    if acc is not None:
        verdict = MEMBER if ratio in acc else NON_MEMBER
        return verdict, f"declared accumulation set {sorted(acc)}"
    close = [n for n in range(_SCAN_TO + 1)
             if abs(Fraction(family.params(n).p, family.params(n).q) - ratio) < _NEAR]
    return UNKNOWN, f"stages within {_NEAR} of {ratio} in prefix: {close}"


# ---------------------------------------------------------------------------
# Classifier


@dataclass(frozen=True)
class Verdict:
    p: int
    q: int
    regime: str
    reduced: tuple[int, int]
    swapped: bool = False
    negative_first: bool = False
    threshold: int | None = None
    exceptional_stages: tuple[int, ...] = ()
    facts: tuple[str, ...] = ()

    @property
    def basis(self) -> str:
        """"certificate", or "prefix-evidence" for an unknown regime."""
        return "prefix-evidence" if self.regime == REGIME_UNKNOWN else "certificate"

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


def _preset_gap_threshold(p: int, q: int) -> int:
    """First stage from which the preset rule's gap discrepancy exceeds
    (p + q) h_n, for p < q.

    The rule gives q_n = p_n + 1 and p_n >= n h_n, so
    |p q_n - q p_n| = (q - p) p_n - p >= ((q - p) n - p) h_n, which exceeds
    (p + q) h_n as soon as (q - p) n > 2p + q.
    """
    return (2 * p + q) // (q - p) + 1


def _synth_not_conservative_threshold(fam: SynthesizedParams, v: int) -> int:
    """Last stage of a target visit (i, j) with i + j <= v, given that p/q
    is the v-th enumerated complement ratio.

    Every later target stage has i + j > v and so a discrepancy above
    (p + q) h_n from the separation inequality (q_n delta > 2 h_n + k + l
    with delta <= |r_i - p/q|); the preset filler stages are covered by
    :func:`_synth_cross_target_threshold`, which the caller also applies.
    """
    n_bar = 0
    for i in range(1, len(fam.spec.ratios) + 1):
        for j in range(1, v + 1):
            if i + j <= v:
                n_bar = max(n_bar, block_partition(i, j))
    return n_bar


def _synth_cross_target_threshold(fam: SynthesizedParams, p: int, q: int) -> int:
    """Stage beyond which stages targeting a ratio other than p/q have
    discrepancy above (p + q) h_n.

    At a stage for target P''/Q'' the pair is (t j P'' - k, t j Q'' - l), so
    |p q_n - q p_n| >= t j - (q k + p l) with t j >= q_n / Q'' >= n h_n / Q'';
    k + l is at most the schedule round of the visit, which is at most the
    round of n. The bound clears once n >= Q''(p + q + 1) and h_n exceeds
    q times that round bound. The preset filler stages clear it from the
    preset rule's gap threshold.
    """
    out = _round_bound_stage(q)
    for r in fam.spec.ratios:
        out = max(out, r.denominator * (p + q + 1))
    return max(out, _preset_gap_threshold(p, q))


def _gap_scan(fam: AfsParams, p: int, q: int, threshold: int, scan_to: int,
              allow_zero: bool) -> tuple[list[int], list[int]]:
    """The stages below ``threshold`` where the gap condition holds, and the
    zero-gap stages from it to ``scan_to``, after an exact re-check of the
    certified tail: from ``threshold`` on the gap condition must fail, save
    at exactly proportional stages when ``allow_zero``.

    The scan stops early when a synthesis recipe runs out of complement
    entries; the certificate only claims the gap beyond the threshold at
    all-but-finitely-many stages, so a shorter scan narrows the sanity check
    without weakening the rule-level argument.
    """
    exceptional, zero = [], []
    for n in range(scan_to + 1):
        try:
            fam.ensure(n + 1)
        except PrefixExhausted:
            break
        if not gap_condition(fam, n, p, q):
            continue
        if n < threshold:
            exceptional.append(n)
            continue
        sp = fam.params(n)
        if p * sp.q != q * sp.p:
            raise CertificateError(f"stage {n}: certified gap fails re-check")
        if not allow_zero:
            raise CertificateError(f"stage {n}: unexpected exact proportionality")
        zero.append(n)
    return exceptional, zero


def classify(family: AfsParams, p: int, q: int, horizon: int = 0,
             negative_first: bool = False) -> Verdict:
    """Regime of T^p x T^q (or T^-p x T^q) for the given family.

    Certificates are issued only for rule-complete families: the stock preset
    and synthesized recipes, whose own trace is re-checked against the family
    before any verdict. The pair is reduced by gcd first and swapped to
    p <= q if needed (products commute up to isomorphism); both adjustments
    are flagged on the verdict. A positive ``horizon`` adds the base-level
    product returns up to it to the facts of a family without a
    certificate; 0 scans nothing.
    """
    if p < 1 or q < 1:
        raise ValueError("powers must be positive (negative first power via flag)")
    if horizon < 0:
        raise SchemaError(f"horizon {horizon} is negative (0 scans nothing)")
    g = gcd(p, q)
    rp, rq = p // g, q // g
    swapped = rp > rq
    if swapped:
        rp, rq = rq, rp
    facts: list[str] = []
    if (rp, rq) != (p, q):
        facts.append(f"analyzed as reduced pair ({rp}, {rq})")

    def verdict(regime: str, threshold: int | None = None,
                exceptional: Sequence[int] = ()) -> Verdict:
        return Verdict(p, q, regime, (rp, rq), swapped, negative_first, threshold,
                       tuple(exceptional), tuple(facts))

    if isinstance(family, SynthesizedParams):
        family.trace.recheck(family)
        ratio = Fraction(rp, rq)
        spec = family.spec
        if rp == rq:
            facts.append("self-product of equal powers: conservative by quarter rigidity; "
                         "no ergodicity certificate from the recipe")
            return verdict(REGIME_UNKNOWN)
        if ratio in spec.r1:
            rows = family.trace.stages_for(ratio, "ergodic")
            facts.append(f"recipe hits every offset pair infinitely often for {ratio}; "
                         f"materialized stages {[r.n for r in rows][:8]}")
            facts.append("offset divisibility holds at every recorded stage (re-checked)")
            return verdict(REGIME_ERGODIC)
        if negative_first:
            facts.append("negative first power outside the certified ergodic case")
            return verdict(REGIME_UNKNOWN)
        if ratio in set(spec.ratios):
            threshold = _synth_cross_target_threshold(family, rp, rq)
            scan = max(_SCAN_TO, threshold + 4)
            _, zero = _gap_scan(family, rp, rq, threshold, scan, allow_zero=True)
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
            return verdict(REGIME_CONS_NOT_ERG, threshold)
        if ratio in set(spec.complement):
            v = list(spec.complement).index(ratio) + 1
            threshold = max(_synth_not_conservative_threshold(family, v),
                            _synth_cross_target_threshold(family, rp, rq))
            exceptional, _ = _gap_scan(family, rp, rq, threshold,
                                       max(_SCAN_TO, threshold + 4), allow_zero=False)
            facts.append(f"{ratio} is complement entry {v}; separation inequality "
                         f"dominates every target stage beyond {threshold}")
            return verdict(REGIME_NOT_CONS, threshold, exceptional)
        facts.append("ratio not covered by the enumerated direction sets")
        return verdict(REGIME_UNKNOWN)

    if is_preset_rule(family):
        if rp == rq:
            if negative_first:
                facts.append("inverse-direction self-product: conservative by the "
                             "two-sided rigidity of the cut times; no ergodicity "
                             "certificate")
                return verdict(REGIME_UNKNOWN)
            facts.append("preset rule: every finite self-product power is ergodic "
                         "(infinite ergodic index)")
            return verdict(REGIME_ERGODIC)
        threshold = _preset_gap_threshold(rp, rq)
        scan = max(threshold + 4, 8)
        exceptional, _ = _gap_scan(family, rp, rq, threshold, scan, allow_zero=False)
        for n in range(threshold, scan + 1):
            sp = family.params(n)
            if sp.p < n * family.marker(n) or sp.q != sp.p + 1:
                raise CertificateError(f"stage {n}: preset rule shape failed re-check")
        if negative_first:
            facts.append("negative first power: rigidity keeps the product "
                         "conservative in the inverse direction; no regime certificate")
            return verdict(REGIME_UNKNOWN)
        if not validate_V(family, min(8, threshold + 2)).ok:
            raise CertificateError("preset family failed admissibility re-check")
        facts.append("rule: q_n = p_n + 1 and p_n >= n h_n at every stage")
        facts.append(f"gap discrepancy exceeds (p+q) h_n for all n >= {threshold}")
        return verdict(REGIME_NOT_CONS, threshold, exceptional)

    # No rule certificate: prefix evidence only.
    gap_hits = [n for n in range(_SCAN_TO + 1) if gap_condition(family, n, rp, rq)]
    div_hits = [n for n in range(_SCAN_TO + 1)
                if divisibility_condition(family, n, rp, rq, 0, 0) is not None]
    facts.append(f"gap condition holds at stages {gap_hits} (prefix to {_SCAN_TO})")
    facts.append(f"zero-offset divisibility at stages {div_hits}")
    if horizon > 0:
        A = LevelSet.level(family, family.first_stage, 0)
        lam = lambda_set(family, rp, rq, A, horizon)
        facts.append(f"base-level product returns up to {horizon}: "
                     f"{'none' if lam.is_empty() else 'present'}")
    return verdict(REGIME_UNKNOWN)
