"""The four-cut tower family.

Every stage cuts the current column into four equal-width subcolumns and puts
a_n, b_n, c_n, d_n spacer levels on them before restacking. The derived
per-stage quantities are

    p_n = H_n + a_n,  ell_n = H_n + b_n,  q_n = H_n + c_n,  m_n = H_n + d_n,
    h_{n+1} = p_n + ell_n + q_n + H_n,    H_{n+1} = p_n + ell_n + q_n + m_n,

with H_0 = h_0 = 1. H_n is the full column height, h_n the height of the top
of the last subcolumn copy (the marker every growth condition is phrased in).

The admissible class W asks for ell_n > n(p_n + q_n + 2 h_n), for
m_n > n h_{n+1}, and for p_n/h_n -> infinity; the latter has no finite
certificate, so generation and validation both use the sufficient schema
p_n >= n h_n. V is the subclass with p_n <= q_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PrefixExhausted, SchemaError, UnsupportedRule
from .measure import format_rational, parse_int, parse_rational
from .tower import Family

# ---------------------------------------------------------------------------
# Per-sequence rules


@dataclass(frozen=True)
class ConstRule:
    value: int

    def to_json(self) -> dict:
        return {"kind": "const", "value": self.value}


@dataclass(frozen=True)
class PrefixRule:
    values: tuple[int, ...]

    def to_json(self) -> dict:
        return {"kind": "prefix", "values": list(self.values)}


@dataclass(frozen=True)
class HScaleRule:
    """ceil(num/den * h_n) + plus; covers rules like a_n = 3 h_n."""

    num: int
    den: int = 1
    plus: int = 0

    def to_json(self) -> dict:
        return {"kind": "h_scale", "num": self.num, "den": self.den, "plus": self.plus}


@dataclass(frozen=True)
class WMinimalRule:
    """Smallest value meeting the W growth inequality strictly, with margin 1.

    For the b-sequence: ell_n = max(H_n, n(p_n + q_n + 2 h_n) + 1).
    For the d-sequence: m_n = max(H_n, n h_{n+1} + 1).
    """

    def to_json(self) -> dict:
        return {"kind": "w_minimal"}


@dataclass(frozen=True)
class RatioCycleRule:
    """c-sequence rule forcing q_n = p_n / ratio exactly, cycling over ratios."""

    ratios: tuple[Fraction, ...]

    def to_json(self) -> dict:
        return {"kind": "ratio_cycle", "ratios": [format_rational(r) for r in self.ratios]}


Rule = ConstRule | PrefixRule | HScaleRule | WMinimalRule | RatioCycleRule


def rule_from_json(obj: dict) -> Rule:
    kind = obj.get("kind")
    if kind == "const":
        return ConstRule(parse_int(obj["value"]))
    if kind == "prefix":
        return PrefixRule(tuple(map(parse_int, obj["values"])))
    if kind == "h_scale":
        rule = HScaleRule(parse_int(obj["num"]), parse_int(obj.get("den", 1)),
                          parse_int(obj.get("plus", 0)))
        if rule.den < 1:
            raise ValueError(f"h_scale den must be positive, got {rule.den}")
        return rule
    if kind == "w_minimal":
        return WMinimalRule()
    if kind == "ratio_cycle":
        rule = RatioCycleRule(tuple(parse_rational(s) for s in obj["ratios"]))
        if not rule.ratios or min(rule.ratios) <= 0:
            raise ValueError("ratio_cycle needs a nonempty list of positive ratios")
        return rule
    raise UnsupportedRule(f"unknown rule kind {kind!r}")


def _ceil_frac(num: int, den: int) -> int:
    return -((-num) // den)


@dataclass(frozen=True)
class StageParams:
    a: int
    b: int
    c: int
    d: int
    p: int
    ell: int
    q: int
    m: int


class AfsParams(Family):
    """Four-cut family driven by per-sequence rules (the generator descriptor).

    Stages are materialized lazily, one ``_stage_params`` call each; heights
    are arbitrary precision integers. Subclasses may override
    ``_stage_params`` to drive the spacer choices differently (the
    synthesizer does). Markers and stage parameters are read off the stage
    table: transition n places its copies at (0, p_n, p_n + ell_n,
    p_n + ell_n + q_n) inside a column of height H_{n+1}.
    """

    kind = "afs4"
    first_stage = 0

    def __init__(self, rule_a: Rule, rule_b: Rule, rule_c: Rule, rule_d: Rule,
                 label: str = "afs4"):
        super().__init__()
        self.rules = {"a": rule_a, "b": rule_b, "c": rule_c, "d": rule_d}
        for name, rule in self.rules.items():
            if isinstance(rule, WMinimalRule) and name not in "bd":
                raise SchemaError(f"w_minimal may drive only b and d, not sequence {name}")
            if isinstance(rule, RatioCycleRule) and name != "c":
                raise SchemaError(f"ratio_cycle may drive only c, not sequence {name}")
        self.label = label

    # -- materialization -----------------------------------------------------

    def _eval_rule(self, name: str, n: int, p_n: int | None = None) -> int:
        rule = self.rules[name]
        H, h = self._heights[n], self.marker(n)
        if isinstance(rule, ConstRule):
            v = rule.value
        elif isinstance(rule, PrefixRule):
            if n >= len(rule.values):
                raise PrefixExhausted(
                    f"sequence {name} has only {len(rule.values)} entries, stage {n} requested")
            v = rule.values[n]
        elif isinstance(rule, HScaleRule):
            v = _ceil_frac(rule.num * h, rule.den) + rule.plus
        elif isinstance(rule, RatioCycleRule):
            assert p_n is not None
            ratio = rule.ratios[n % len(rule.ratios)]
            q_num = p_n * ratio.denominator
            if q_num % ratio.numerator:
                raise SchemaError(
                    f"p_n = {p_n} not divisible for target ratio {ratio}", stage=n)
            v = q_num // ratio.numerator - H
        else:  # pragma: no cover
            raise UnsupportedRule(f"unhandled rule {rule!r}")
        if v < 0:
            raise SchemaError(f"sequence {name} came out negative ({v})", stage=n)
        return v

    def _stage_params(self, n: int) -> StageParams:
        p = self._heights[n] + self._eval_rule("a", n)
        return self._stage_tail(n, p, self._heights[n] + self._eval_rule("c", n, p_n=p))

    def _stage_tail(self, n: int, p: int, q: int) -> StageParams:
        """Stage n's parameters once p_n and q_n are chosen: ell_n and m_n
        from the b and d rules (W-minimal or evaluated)."""
        H, h = self._heights[n], self.marker(n)
        if isinstance(self.rules["b"], WMinimalRule):
            ell = max(H, n * (p + q + 2 * h) + 1)
        else:
            ell = H + self._eval_rule("b", n)
        h_next = p + ell + q + H
        if isinstance(self.rules["d"], WMinimalRule):
            m = max(H, n * h_next + 1)
        else:
            m = H + self._eval_rule("d", n)
        return StageParams(p - H, ell - H, q - H, m - H, p, ell, q, m)

    def _next_stage(self, n: int) -> tuple[tuple[int, ...], int]:
        sp = self._stage_params(n)
        return (0, sp.p, sp.p + sp.ell, sp.p + sp.ell + sp.q), sp.p + sp.ell + sp.q + sp.m

    def params(self, n: int) -> StageParams:
        self._built(n, n + 1)
        (_, p, pl, plq), H = self._offsets[n], self._heights[n]
        ell, q, m = pl - p, plq - pl, self._heights[n + 1] - plq
        return StageParams(p - H, ell - H, q - H, m - H, p, ell, q, m)

    def marker(self, n: int) -> int:
        """h_n: one past the top of the last subcolumn copy."""
        self._built(n, n)
        return self._offsets[n - 1][-1] + self._heights[n - 1] if n else 1

    # -- Family interface ----------------------------------------------------

    def descriptor(self) -> dict:
        return {
            "format_version": 1,
            "kind": self.kind,
            "label": self.label,
            "rules": {name: rule.to_json() for name, rule in self.rules.items()},
        }

    def accumulation_ratios(self) -> set[Fraction] | None:
        """Accumulation set of p_n/q_n when the rules pin it down."""
        rc, ra = self.rules["c"], self.rules["a"]
        if isinstance(rc, RatioCycleRule):
            return set(rc.ratios)
        if isinstance(rc, HScaleRule) and isinstance(ra, HScaleRule):
            # p_n/q_n = (H_n + ~r_a h_n) / (H_n + ~r_c h_n) with fixed additive
            # offsets: both h_n/H_n-linear, so the ratio converges to a single
            # point only when the scale factors agree; q = p + const -> 1.
            if (ra.num, ra.den) == (rc.num, rc.den):
                return {Fraction(1)}
            return None
        if isinstance(rc, ConstRule) and isinstance(ra, ConstRule):
            return {Fraction(1)}  # p_n/q_n = (H_n + a)/(H_n + c) -> 1
        return None


# ---------------------------------------------------------------------------
# Admissibility validation


@dataclass(frozen=True)
class StageCheck:
    stage: int
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[StageCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def validate_W(params: AfsParams, up_to: int) -> ValidationReport:
    """Per-stage report for the growth class W.

    The two spacer inequalities are decided exactly. The limit condition
    p_n/h_n -> infinity is reported through the sufficient finite schema
    p_n >= n h_n; a pass is a certificate for the prefix, not a proof of the
    limit itself.
    """
    checks: list[StageCheck] = []
    for n in range(up_to + 1):
        sp = params.params(n)
        H, h = params.height(n), params.marker(n)
        h_next = params.marker(n + 1)
        lhs = n * (sp.p + sp.q + 2 * h)
        checks.append(StageCheck(n, "ell_growth", sp.ell > lhs,
                                 f"ell_n={sp.ell} vs n(p+q+2h)={lhs}"))
        checks.append(StageCheck(n, "m_growth", sp.m > n * h_next,
                                 f"m_n={sp.m} vs n*h_next={n * h_next}"))
        checks.append(StageCheck(n, "p_growth_schema", sp.p >= n * h,
                                 f"p_n={sp.p} vs n*h_n={n * h}"))
    return ValidationReport(tuple(checks))


def validate_V(params: AfsParams, up_to: int) -> ValidationReport:
    """W checks plus the ordering p_n <= q_n at every stage."""
    base = validate_W(params, up_to)
    checks = list(base.checks)
    for n in range(up_to + 1):
        sp = params.params(n)
        checks.append(StageCheck(n, "p_le_q", sp.p <= sp.q,
                                 f"p_n={sp.p} vs q_n={sp.q}"))
    return ValidationReport(tuple(checks))


def preset_infinite_ergodic_index(up_to: int = 0) -> AfsParams:
    """The stock family with a_n = 3 h_n and c_n = a_n + 1.

    b and d are the minimal admissible choices with margin 1. The generated
    stages satisfy the V schema and keep |q_n - 2 p_n| >= 3 h_n everywhere,
    which is the separation the (1, 2)-product analysis needs.
    """
    fam = AfsParams(
        rule_a=HScaleRule(3),
        rule_b=WMinimalRule(),
        rule_c=HScaleRule(3, plus=1),
        rule_d=WMinimalRule(),
        label="preset-infinite-ergodic-index",
    )
    fam.ensure(max(up_to, 1) + 1)
    return fam


def is_preset_rule(fam: AfsParams) -> bool:
    return (fam.rules["a"] == HScaleRule(3)
            and fam.rules["c"] == HScaleRule(3, plus=1)
            and isinstance(fam.rules["b"], WMinimalRule)
            and isinstance(fam.rules["d"], WMinimalRule))
