"""Parameter synthesis for prescribed sets of ergodic product directions.

Given a set R of reduced ratios in (0, 1), the synthesizer emits a four-cut
family whose (p, q) product powers are ergodic exactly at the ratios in R:
stage n(i, j) = 2^(i-1)(2j - 1) is assigned to the i-th ratio, and within a
ratio the j-th visit carries the offset pair (k(j), l(j)) from a fair
dovetailing schedule, so every offset pair recurs along every ratio's stage
block. The chosen (p_n, q_n) make (q_n + l)/(j q) = (p_n + k)/(j p) a common
integer t while keeping q_n delta > 2 h_n + k + l, which separates the stage
from every enumerated non-member ratio.

The three-regime variant drives ratios in R2 minus R1 with exact
proportionality and zero offsets instead (returns exist but never with a
one-level slip), which is what makes those products conservative without
being ergodic.

Every synthesized stage is recorded in a trace whose facts re-check against
the emitted family by pure integer arithmetic.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import engine
from .afs4 import AfsParams, HScaleRule, StageParams, WMinimalRule
from .errors import CertificateError, CutstackError, PrefixExhausted, SchemaError
from .measure import format_rational

# ---------------------------------------------------------------------------
# Stage bookkeeping: block partition and offset schedule


def block_partition(i: int, j: int) -> int:
    """Stage assigned to the j-th visit of ratio i: 2^(i-1) (2j - 1).

    The images over i, j >= 1 partition the positive integers (split off the
    2-adic part), so every ratio owns an infinite arithmetic-like block.
    """
    if i < 1 or j < 1:
        raise ValueError("block coordinates start at 1")
    return (1 << (i - 1)) * (2 * j - 1)


def block_position(n: int) -> tuple[int, int]:
    """Inverse of block_partition for n >= 1."""
    if n < 1:
        raise ValueError("stages start at 1")
    i = 1
    while n % 2 == 0:
        n //= 2
        i += 1
    return i, (n + 1) // 2


def _schedule_slot(j: int) -> tuple[int, int]:
    """(round m, position within round m) of visit j; round m has
    (m+1)(m+2)/2 entries."""
    m, pos = 1, j
    while pos > (m + 1) * (m + 2) // 2:
        pos -= (m + 1) * (m + 2) // 2
        m += 1
    return m, pos


def pair_schedule(j: int) -> tuple[int, int]:
    """Offset pair (k, l) carried by the j-th visit.

    Enumerates rounds m = 1, 2, ...; round m lists all pairs with k + l <= m
    ordered by sum then by k, so a pair with sum s appears once in every
    round m >= max(s, 1) and therefore recurs infinitely often. Round m has
    (m+1)(m+2)/2 entries; by the end of round 4 (j = 34) every pair with
    k + l <= 3 has appeared at least twice.
    """
    if j < 1:
        raise ValueError("schedule starts at 1")
    _, pos = _schedule_slot(j)
    s = 0
    while pos > s + 1:
        pos -= s + 1
        s += 1
    k = pos - 1
    return k, s - k


SECOND_ROUND_COVER = 34  # end of round 4; see pair_schedule


def schedule_round(j: int) -> int:
    """Round number containing visit j (bounds k + l for that visit)."""
    return _schedule_slot(j)[0]


def separation(R: list[Fraction], S: list[Fraction], i: int, j: int,
               s_complete: bool = False) -> Fraction:
    """delta_{i,j} = min |r_i - s_u| over the first i + j complement entries.

    An empty complement gives the vacuous minimum 1. A nonempty complement
    prefix shorter than i + j is an error unless it is declared complete.
    """
    r = R[i - 1]
    if not S:
        return Fraction(1)
    limit = i + j
    if len(S) < limit and not s_complete:
        raise PrefixExhausted(
            f"separation at block ({i}, {j}) needs {limit} complement entries, "
            f"have {len(S)}")
    return min(abs(r - s) for s in S[:limit])


# ---------------------------------------------------------------------------
# Direction specifications


@dataclass(frozen=True)
class DirectionSpec:
    """Prescribed direction sets (all ratios reduced, in (0, 1)).

    ``ratios`` is the enumerated target set (R, or R2 for the three-regime
    mode); ``ergodic_subset`` is R1 in the three-regime mode and None
    otherwise, when R1 is ``ratios``. ``complement`` is the enumeration
    prefix of the ratios meant to fall outside; ``complement_complete``
    declares that no further complement entries matter.
    """

    ratios: tuple[Fraction, ...]
    complement: tuple[Fraction, ...] = ()
    ergodic_subset: tuple[Fraction, ...] | None = None
    complement_complete: bool = False

    def __post_init__(self) -> None:
        for r in self.ratios + self.complement + (self.ergodic_subset or ()):
            if not (0 < r < 1):
                raise SchemaError(f"ratio {r} is not in (0, 1)")
        if set(self.ratios) & set(self.complement):
            raise SchemaError("target and complement ratios overlap")
        if len(set(self.ratios)) != len(self.ratios):
            raise SchemaError("duplicate target ratios")
        if self.ergodic_subset is not None:
            if not set(self.ergodic_subset) <= set(self.ratios):
                raise SchemaError("ergodic subset must be contained in the target set")

    @property
    def r1(self) -> frozenset[Fraction]:
        if self.ergodic_subset is None:
            return frozenset(self.ratios)
        return frozenset(self.ergodic_subset)


# ---------------------------------------------------------------------------
# Trace


@dataclass(frozen=True)
class TraceRow:
    """Choices and certified facts for one synthesized stage."""

    n: int
    mode: str  # "ergodic" | "exact" | "preset"
    i: int = 0
    j: int = 0
    k: int = 0
    l: int = 0
    target: Fraction | None = None
    delta: Fraction | None = None
    t: int = 0
    p_n: int = 0
    q_n: int = 0

    def to_json(self) -> dict:
        doc = {
            "n": self.n, "mode": self.mode, "i": self.i, "j": self.j,
            "k": self.k, "l": self.l,
            "target": format_rational(self.target) if self.target else None,
            "delta": format_rational(self.delta) if self.delta else None,
        }
        for name in ("t", "p_n", "q_n"):
            try:
                doc[name] = str(getattr(self, name))
            except ValueError:  # str() refuses an integer past the interpreter's digit limit
                raise CutstackError(f"trace stage {self.n}: {name} holds an integer of more "
                                    f"than {sys.get_int_max_str_digits()} digits, too long "
                                    "to print") from None
        return doc


def solve_minimal_t(H: int, h: int, n: int, P: int, Q: int, j: int,
                    k: int, l: int, delta: Fraction) -> int:
    """Smallest positive t with p_n = t j P - k and q_n = t j Q - l admissible.

    Admissible means: spacer counts non-negative, p_n >= n h_n (growth
    schema), p_n <= q_n, and q_n delta > 2 h_n + k + l. All bounds are lower
    bounds on t, so the maximum of their ceilings is the minimum solution;
    feasibility is never in question because t can grow.
    """
    def ceil_div(a: int, b: int) -> int:
        return -((-a) // b)

    t = 1
    t = max(t, ceil_div(max(H, n * h) + k, j * P))
    t = max(t, ceil_div(H + l, j * Q))
    gap = 2 * h + k + l
    q_min = gap * delta.denominator // delta.numerator + 1
    t = max(t, ceil_div(q_min + l, j * Q))
    if l > k:
        t = max(t, ceil_div(l - k, j * (Q - P)))
    return t


@dataclass
class SynthesisTrace:
    """Per-stage record of a synthesis run; every fact re-checks exactly."""

    spec: DirectionSpec
    rows: list[TraceRow] = field(default_factory=list)

    def row_for(self, n: int) -> TraceRow:
        return self.rows[n]

    def stages_for(self, target: Fraction, mode: str | None = None) -> list[TraceRow]:
        return [r for r in self.rows
                if r.target == target and (mode is None or r.mode == mode)]

    def recheck(self, fam: "SynthesizedParams") -> None:
        """Re-derive every recorded fact from the emitted family; raise on drift."""
        for row in self.rows:
            sp = fam.params(row.n)
            H, h = fam.height(row.n), fam.marker(row.n)
            if (sp.p, sp.q) != (row.p_n, row.q_n):
                raise CertificateError(f"stage {row.n}: trace (p, q) diverges from family")
            if row.mode == "preset":
                if sp.a != 3 * h or sp.c != sp.a + 1:
                    raise CertificateError(f"stage {row.n}: preset rule not applied")
                continue
            P, Q = row.target.numerator, row.target.denominator
            if row.q_n + row.l != row.t * row.j * Q or row.p_n + row.k != row.t * row.j * P:
                raise CertificateError(f"stage {row.n}: divisibility fact fails")
            if not row.q_n * row.delta > 2 * h + row.k + row.l:
                raise CertificateError(f"stage {row.n}: separation inequality fails")
            if not (H <= row.p_n <= row.q_n):
                raise CertificateError(f"stage {row.n}: ordering fails")
            if row.p_n < row.n * h:
                raise CertificateError(f"stage {row.n}: growth schema fails")
            if row.mode == "exact" and (row.k, row.l) != (0, 0):
                raise CertificateError(f"stage {row.n}: exact stage carries offsets")
            t_min = solve_minimal_t(H, h, row.n, P, Q, row.j, row.k, row.l, row.delta)
            if row.t != t_min:
                raise CertificateError(f"stage {row.n}: t={row.t} is not minimal ({t_min})")


# ---------------------------------------------------------------------------
# The synthesized family


class SynthesizedParams(AfsParams):
    """Four-cut family generated by the synthesis recipe.

    Rule-complete: stages beyond any materialized prefix are produced by
    re-running the same deterministic recipe, so tail statements about the
    family are statements about the recipe.
    """

    def __init__(self, spec: DirectionSpec, mode: str):
        if mode not in ("ergodic-set", "three-way"):
            raise SchemaError(f"unknown synthesis mode {mode!r}")
        # stages follow the mode but classify reads the subset: they must agree
        if (mode == "three-way") != (spec.ergodic_subset is not None):
            raise SchemaError("three-way synthesis needs an explicit ergodic subset"
                              if mode == "three-way" else
                              "ergodic-set synthesis takes no ergodic subset")
        super().__init__(HScaleRule(3), WMinimalRule(), HScaleRule(3, plus=1),
                         WMinimalRule(), label=f"synthesized-{mode}")
        self.spec = spec
        self.mode = mode
        self.trace = SynthesisTrace(spec)

    def _stage_params(self, n: int) -> StageParams:
        i, j = block_position(n) if n >= 1 else (0, 0)
        if not 1 <= i <= len(self.spec.ratios):
            # unclaimed stages follow the preset rules given to AfsParams
            sp = super()._stage_params(n)
            self.trace.rows.append(TraceRow(n=n, mode="preset", p_n=sp.p, q_n=sp.q))
            return sp
        H, h = self._heights[n], self.marker(n)
        target = self.spec.ratios[i - 1]
        P, Q = target.numerator, target.denominator
        if self.mode == "three-way" and target not in self.spec.r1:
            k = l = 0
            mode = "exact"
        else:
            k, l = pair_schedule(j)
            mode = "ergodic"
        delta = separation(list(self.spec.ratios), list(self.spec.complement),
                           i, j, self.spec.complement_complete)
        t = solve_minimal_t(H, h, n, P, Q, j, k, l, delta)
        p = t * j * P - k
        q = t * j * Q - l
        if p < H or q < H:
            raise SchemaError("synthesized spacer count negative", stage=n)
        self.trace.rows.append(TraceRow(n=n, mode=mode, i=i, j=j, k=k, l=l,
                                        target=target, delta=delta, t=t,
                                        p_n=p, q_n=q))
        return self._stage_tail(n, p, q)

    def descriptor(self) -> dict:
        return {
            "format_version": 1,
            "kind": self.kind,
            "label": self.label,
            "synthesis": {
                "mode": self.mode,
                "ratios": [format_rational(r) for r in self.spec.ratios],
                "ergodic_subset": (None if self.spec.ergodic_subset is None else
                                   [format_rational(r) for r in self.spec.ergodic_subset]),
                "complement": [format_rational(s) for s in self.spec.complement],
                "complement_complete": self.spec.complement_complete,
            },
        }

    def accumulation_ratios(self) -> set[Fraction]:
        # Target ratios recur forever; unclaimed blocks follow the preset rule
        # whose stage ratios p_n/(p_n + 1) converge to 1.
        return set(self.spec.ratios) | {Fraction(1)}


def _synthesize(spec: DirectionSpec, mode: str,
                up_to: int) -> tuple[SynthesizedParams, SynthesisTrace]:
    fam = SynthesizedParams(spec, mode)
    # every requested stage is built, so the lift cap bounds them as in LevelSet
    if up_to - fam.first_stage > engine.LIFT_STAGE_CAP:
        raise SchemaError(f"more than LIFT_STAGE_CAP={engine.LIFT_STAGE_CAP} "
                          f"stages above the first stage {fam.first_stage}", stage=up_to)
    # the family file prints every trace row: refuse one it cannot before building on
    too_long = 10 ** sys.get_int_max_str_digits()  # str() refuses integers this large
    for n in range(fam.first_stage, up_to + 1):
        fam.ensure(n + 1)
        row = fam.trace.row_for(n)
        if max(row.t, row.p_n, row.q_n) >= too_long:
            row.to_json()  # raises, naming the stage and the field
    fam.trace.recheck(fam)
    return fam, fam.trace


def synthesize_R(spec: DirectionSpec, up_to: int) -> tuple[SynthesizedParams, SynthesisTrace]:
    """Family realizing ergodicity exactly on the enumerated ratio set."""
    return _synthesize(spec, "ergodic-set", up_to)


def synthesize_three_way(spec: DirectionSpec, up_to: int) -> tuple[SynthesizedParams, SynthesisTrace]:
    """Three-regime family: ergodic on R1, conservative-not-ergodic on R2 - R1,
    not conservative outside R2 (over the enumerated complement)."""
    return _synthesize(spec, "three-way", up_to)
