"""Vector-indexed tower family and its product-power analysis.

Stage n cuts the column into r_n equal subcolumns (r_n > L, nondecreasing)
and spaces them according to a strictly increasing L-tuple of positive
integers drawn from a fair enumeration: the vector v_j recurs along the
arithmetic progression of stages 2^(j-1) + i 2^j. The first r_n - L - 1
subcolumns get (2L+1) h_n + sigma spacers, the next L get h_n + u_d, the last
none, and a block of g_n spacers tops the stack, so h_{n+1} = 2 g_n.

Whether the k-fold self-product is ergodic (1 < k <= L) is decided by the
divergence of sum (1/r_i)^k; this module classifies that series for closed-
form cut rules, checks the pairwise independence identities behind the
divergent direction exactly, and builds the non-ergodicity witness pair for
the convergent direction, verifying its zero correlations exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import SchemaError, UnsupportedRule
from .measure import format_rational
from .runs import Run
from .synthesis import block_partition, block_position
from .tower import (Family, LevelSet, correlation, intersection_measure,
                    product_correlation, return_support)

# ---------------------------------------------------------------------------
# Vector enumeration (sum first, then lexicographic)


def _tuples_with_sum(L: int, total: int, lo: int):
    """Strictly increasing L-tuples with entries >= lo summing to total, lex order."""
    if L == 1:
        if total >= lo:
            yield (total,)
        return
    v = lo
    while v * L + L * (L - 1) // 2 <= total:
        for tail in _tuples_with_sum(L - 1, total - v, v + 1):
            yield (v,) + tail
        v += 1


def enumerate_vectors(L: int, j: int) -> tuple[int, ...]:
    """The j-th strictly increasing L-tuple of positive integers (1-based),
    ordered by coordinate sum and lexicographically within a sum."""
    if L < 1 or j < 1:
        raise ValueError("L and j start at 1")
    total = L * (L + 1) // 2
    seen = 0
    while True:
        for tup in _tuples_with_sum(L, total, 1):
            seen += 1
            if seen == j:
                return tup
        total += 1


def vector_index(L: int, v: tuple[int, ...]) -> int:
    """Inverse of enumerate_vectors."""
    if len(v) != L or any(a <= 0 for a in v) or list(v) != sorted(set(v)):
        raise ValueError(f"{v} is not a strictly increasing positive {L}-tuple")
    total = L * (L + 1) // 2
    idx = 0
    while total < sum(v):
        idx += sum(1 for _ in _tuples_with_sum(L, total, 1))
        total += 1
    for tup in _tuples_with_sum(L, total, 1):
        idx += 1
        if tup == tuple(v):
            return idx
    raise AssertionError("enumeration failed to find its own tuple")


def s_index(n: int) -> tuple[int, int]:
    """(j, i) with n = 2^(j-1) + i 2^j; the vector slot and visit count."""
    j, visit = block_position(n)
    return j, visit - 1


# ---------------------------------------------------------------------------
# Cut-count rules


@dataclass(frozen=True)
class ConstR:
    value: int

    def to_json(self) -> dict:
        return {"kind": "const", "value": self.value}


@dataclass(frozen=True)
class PowerR:
    """r_n = ceil(c * n^alpha), exact integer arithmetic throughout."""

    c: Fraction
    alpha: Fraction

    def to_json(self) -> dict:
        return {"kind": "power", "c": format_rational(self.c),
                "alpha": format_rational(self.alpha)}


@dataclass(frozen=True)
class GeometricR:
    """r_n = c * beta^n with integer c >= 1, beta >= 2."""

    c: int
    beta: int

    def to_json(self) -> dict:
        return {"kind": "geometric", "c": self.c, "beta": self.beta}


@dataclass(frozen=True)
class PrefixR:
    values: tuple[int, ...]

    def to_json(self) -> dict:
        return {"kind": "prefix", "values": list(self.values)}


RRule = ConstR | PowerR | GeometricR | PrefixR


def r_rule_from_json(obj: dict) -> RRule:
    kind = obj.get("kind")
    if kind == "const":
        return ConstR(int(obj["value"]))
    if kind == "power":
        from .measure import parse_rational
        return PowerR(parse_rational(obj["c"]), parse_rational(obj["alpha"]))
    if kind == "geometric":
        return GeometricR(int(obj["c"]), int(obj["beta"]))
    if kind == "prefix":
        return PrefixR(tuple(int(v) for v in obj["values"]))
    raise UnsupportedRule(f"unknown cut rule kind {kind!r}")


def _int_nth_root(x: int, n: int) -> int:
    """floor(x^(1/n)) for x >= 0 by Newton iteration on integers.

    The seed 2^ceil(bits/n) lies above the root, and from above the integer
    Newton step decreases strictly until it reaches the floor of the root.
    """
    if x < 2:
        return x
    guess = 1 << -(-x.bit_length() // n)
    while True:
        nxt = ((n - 1) * guess + x // guess ** (n - 1)) // n
        if nxt >= guess:
            return guess
        guess = nxt


def _ceil_c_n_alpha(c: Fraction, n: int, alpha: Fraction) -> int:
    """Exact ceil(c * n^alpha); alpha >= 0 rational."""
    if alpha < 0:
        raise UnsupportedRule("negative exponents are not supported")
    a, b = alpha.numerator, alpha.denominator
    target = c.numerator ** b * n ** a  # k is smallest with (k c_den)^b >= target
    den = c.denominator
    k = max(1, _int_nth_root(target, b) // den)
    while (k * den) ** b >= target:
        k -= 1
    while (k * den) ** b < target:
        k += 1
    return k


def r_value(rule: RRule, n: int) -> int:
    if n < 1:
        raise ValueError("cut counts start at stage 1")
    if isinstance(rule, ConstR):
        return rule.value
    if isinstance(rule, PowerR):
        return _ceil_c_n_alpha(rule.c, n, rule.alpha)
    if isinstance(rule, GeometricR):
        return rule.c * rule.beta ** n
    if isinstance(rule, PrefixR):
        if n > len(rule.values):
            raise SchemaError(f"cut prefix has {len(rule.values)} entries", stage=n)
        return rule.values[n - 1]
    raise UnsupportedRule(f"unhandled rule {rule!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Family


@dataclass(frozen=True)
class VlSpec:
    """Descriptor of a vector-indexed family.

    ``vector_order`` optionally overrides the canonical enumeration with an
    explicit prefix (an error past its end); ``horizon`` caps materialization
    when resources must be bounded.
    """

    L: int
    r: RRule
    vector_order: tuple[tuple[int, ...], ...] | None = None
    horizon: int | None = None
    label: str = "vl"

    def vector(self, j: int) -> tuple[int, ...]:
        if self.vector_order is not None:
            if j > len(self.vector_order):
                raise SchemaError(
                    f"explicit vector order has {len(self.vector_order)} entries, "
                    f"slot {j} requested")
            v = self.vector_order[j - 1]
            if len(v) != self.L or list(v) != sorted(set(v)) or v[0] < 1:
                raise SchemaError(f"override vector {v} is not admissible")
            return tuple(v)
        return enumerate_vectors(self.L, j)

    def s_of(self, n: int) -> tuple[int, tuple[int, ...]]:
        j, _ = s_index(n)
        return j, self.vector(j)

    def to_json(self) -> dict:
        return {
            "format_version": 1,
            "kind": "vl",
            "label": self.label,
            "L": self.L,
            "r": self.r.to_json(),
            "vector_order": (None if self.vector_order is None
                             else [list(v) for v in self.vector_order]),
            "horizon": self.horizon,
        }


class VlFamily(Family):
    """Tower realization of a VlSpec; stage numbering starts at 1."""

    kind = "vl"
    first_stage = 1

    def __init__(self, spec: VlSpec):
        super().__init__()
        if spec.L < 1:
            raise SchemaError("L must be positive")
        self.spec = spec
        self._h = [None, 1]  # h[0] unused
        self._r: list[int] = [0]
        self._offsets: list[tuple[int, ...]] = [()]
        self._spacers: list[tuple[Run, ...]] = [()]
        self._g: list[int] = [0]

    def ensure(self, n: int) -> None:
        if self.spec.horizon is not None and n > self.spec.horizon:
            raise SchemaError(f"stage {n} beyond the materialization horizon "
                              f"{self.spec.horizon}")
        while len(self._h) <= n:
            m = len(self._h) - 1  # build transition m -> m+1
            L = self.spec.L
            r = r_value(self.spec.r, m)
            if r <= L:
                raise SchemaError(f"need more than {L} subcolumns, got {r}", stage=m)
            if m > 1 and r < self._r[m - 1]:
                raise SchemaError("cut counts must be nondecreasing", stage=m)
            _, v = self.spec.s_of(m)
            sigma = sum(v)
            h = self._h[m]
            offs = [0]
            spacer_ranges: list[Run] = []
            for i in range(1, r + 1):
                if i <= r - L - 1:
                    extra = (2 * L + 1) * h + sigma
                elif i < r:
                    extra = h + v[i - (r - L - 1) - 1]
                else:
                    extra = 0
                if i < r:
                    spacer_start = offs[-1] + h
                    offs.append(spacer_start + extra)
                    if extra:
                        spacer_ranges.append((spacer_start, offs[-1]))
            g = offs[-1] + h
            spacer_ranges.append((g, 2 * g))
            self._r.append(r)
            self._offsets.append(tuple(offs))
            self._spacers.append(tuple(spacer_ranges))
            self._g.append(g)
            self._h.append(2 * g)

    def height(self, n: int) -> int:
        self.ensure(n)
        return self._h[n]

    def stack_height(self, n: int) -> int:
        """g_n: the height of the restacked subcolumns before the top spacers."""
        self.ensure(n + 1)
        return self._g[n]

    def cuts_between(self, n: int) -> int:
        self.ensure(n + 1)
        return self._r[n]

    def offsets_between(self, n: int) -> tuple[int, ...]:
        self.ensure(n + 1)
        return self._offsets[n]

    def spacer_ranges_between(self, n: int) -> tuple[Run, ...]:
        self.ensure(n + 1)
        return self._spacers[n]

    def height_profile(self, up_to: int) -> list[int]:
        self.ensure(up_to)
        return [self._h[n] for n in range(1, up_to + 1)]

    def descriptor(self) -> dict:
        return self.spec.to_json()


def build_vl(spec: VlSpec, up_to: int) -> list:
    """Columns of the family up to the requested stage."""
    fam = VlFamily(spec)
    from .tower import build_column
    return [build_column(fam, n) for n in range(1, up_to + 1)]


# ---------------------------------------------------------------------------
# Series classification


@dataclass(frozen=True)
class SeriesReport:
    """Divergence verdicts of sum (1/r_i)^k for each product arity k.

    ``verdicts[k]`` is "diverges" or "converges"; by the equivalence between
    divergence and ergodicity of the k-fold product (valid for 1 < k <= L),
    ``ergodic_index`` is k when k diverges and k+1 converges with k+1 <= L,
    and None when the scanned range cannot pin it down.
    """

    L: int
    verdicts: dict[int, str]
    ergodic_index: int | None
    notes: tuple[str, ...]


def series_index(rule: RRule, L: int) -> SeriesReport:
    """Classify sum (1/r_i)^k for 2 <= k <= L by closed-form comparison.

    Constant rules diverge for every k; power rules r_n ~ c n^alpha diverge
    exactly when alpha * k <= 1 (integer-ceiling perturbations do not change
    the comparison class); geometric rules converge for every k >= 1. No
    numeric partial-sum extrapolation is ever attempted.
    """
    if L < 2:
        raise UnsupportedRule("the series criterion concerns 2 <= k <= L")
    verdicts: dict[int, str] = {}
    notes = ["k = 1 and k > L are outside the scope of the series criterion"]
    for k in range(2, L + 1):
        if isinstance(rule, ConstR):
            verdicts[k] = "diverges"
        elif isinstance(rule, PowerR):
            if rule.alpha == 0:
                verdicts[k] = "diverges"
            else:
                verdicts[k] = "diverges" if rule.alpha * k <= 1 else "converges"
        elif isinstance(rule, GeometricR):
            verdicts[k] = "diverges" if rule.beta == 1 else "converges"
        else:
            raise UnsupportedRule(
                "analytic test unavailable for explicit cut prefixes")
    index = None
    for k in range(2, L):
        if verdicts[k] == "diverges" and verdicts[k + 1] == "converges":
            index = k
            break
    if index is None and all(v == "diverges" for v in verdicts.values()):
        notes.append(f"every k <= {L} diverges: ergodic k-fold products "
                     f"throughout the covered range")
    if index is None and all(v == "converges" for v in verdicts.values()):
        notes.append(f"no ergodic k-fold product for 2 <= k <= {L}")
    return SeriesReport(L, verdicts, index, tuple(notes))


# ---------------------------------------------------------------------------
# Mixing times and independence


def t_times(fam: VlFamily, n: int, j: int, i: int) -> int:
    """The i-th designated mixing time 2 h_l with l = 2^(j-1) + (i + n) 2^j."""
    if min(n, j, i) < 1:
        raise ValueError("n, j, i start at 1")
    return 2 * fam.height(block_partition(j, i + n + 1))


@dataclass(frozen=True)
class IndependencePair:
    i: int
    i_prime: int
    joint: Fraction
    product: Fraction

    @property
    def equal(self) -> bool:
        return self.joint == self.product


@dataclass(frozen=True)
class IndependenceReport:
    n: int
    j: int
    variant: str
    marginals: tuple[Fraction, ...]
    pairs: tuple[IndependencePair, ...]

    @property
    def ok(self) -> bool:
        return all(p.equal for p in self.pairs)

    def lines(self) -> list[str]:
        out = [f"variant={self.variant} n={self.n} j={self.j}"]
        for idx, m in enumerate(self.marginals, start=1):
            out.append(f"marginal i={idx}: {format_rational(m)}")
        for p in self.pairs:
            out.append(f"pair ({p.i},{p.i_prime}): joint={format_rational(p.joint)} "
                       f"product={format_rational(p.product)} equal={p.equal}")
        return out


def independence_check(fam: VlFamily, I: LevelSet, J: LevelSet, n: int, j: int,
                       count: int, variant: str = "backward") -> IndependenceReport:
    """Exact pairwise independence of the mixing-time translates.

    Backward variant: the sets T^{-t(i)} J, conditioned on I, must satisfy
    mu_I(X and Y) = mu_I(X) mu_I(Y) for every pair; forward swaps the roles
    (translates of I conditioned on J). Any failed equality is reported with
    both exact values rather than patched.
    """
    if variant not in ("backward", "forward"):
        raise ValueError("variant must be 'backward' or 'forward'")
    _, v = fam.spec.s_of(block_partition(j, n + 2))
    if v[-1] >= fam.height(n):
        raise SchemaError(f"vector {v} violates u_L < h_n = {fam.height(n)}")
    if I.stage != n or J.stage != n:
        raise ValueError("I and J must be levels of the stage-n column")
    times = [t_times(fam, n, j, i) for i in range(1, count + 1)]
    if variant == "backward":
        cond, moving = I, J
        signs = -1
    else:
        cond, moving = J, I
        signs = 1
    mu_cond = cond.measure()
    marginals = tuple(correlation(moving, cond, signs * t) / mu_cond for t in times)
    pairs = []
    for (ia, ta), (ib, tb) in combinations(enumerate(times, start=1), 2):
        joint = intersection_measure([moving, moving, cond],
                                     [signs * ta, signs * tb, 0]) / mu_cond
        pairs.append(IndependencePair(ia, ib, joint,
                                      marginals[ia - 1] * marginals[ib - 1]))
    return IndependenceReport(n, j, variant, marginals, tuple(pairs))


# ---------------------------------------------------------------------------
# Non-ergodicity witness for the convergent direction


def right_block_positions(fam: VlFamily, m: int) -> tuple[int, ...]:
    """Subcolumn positions of the irregular right block at stage m (0-based)."""
    r = fam.cuts_between(m)
    return tuple(range(r - fam.spec.L - 1, r))


def tail_bound(rule: RRule, L: int, k: int, n: int) -> Fraction:
    """Exact sum_{i >= n} ((L+1)/r_i)^k for rules with elementary tails."""
    if isinstance(rule, GeometricR) and rule.beta >= 2:
        # ((L+1)/(c beta^i))^k summed from i = n: geometric with ratio beta^-k.
        first = Fraction(L + 1, rule.c * rule.beta ** n) ** k
        return first / (1 - Fraction(1, rule.beta ** k))
    if isinstance(rule, ConstR):
        raise SchemaError(
            f"tail sum diverges for constant cut count {rule.value}")
    raise UnsupportedRule("tail sum unavailable for this cut rule")


@dataclass(frozen=True)
class WitnessPair:
    """Product sets A, B with A = (top level)^k and B a thinned product.

    B starts from (k-1 copies of the top level) x (second level) and removes,
    for every stage n <= m <= M, the k-fold product of the right block; per
    coordinate that is a subcolumn-position constraint, and the removal is
    evaluated by inclusion-exclusion over the constrained stages. Zero
    correlation with translates of A is claimed only for lags the truncation
    stage M resolves, i.e. |i| <= h_{M+1}.
    """

    family: VlFamily
    k: int
    n: int
    M: int
    corrupted: bool = False

    def coordinates(self) -> tuple[list[LevelSet], list[LevelSet]]:
        fam, n = self.family, self.n
        top = LevelSet.level(fam, n, fam.height(n) - 1)
        second = LevelSet.level(fam, n, fam.height(n) - 2)
        A = [top] * self.k
        outer = [top] * (self.k - 1) + [second]
        return A, outer

    def constrained(self, outer_t: LevelSet, stages: tuple[int, ...]) -> LevelSet:
        out = outer_t
        for m in stages:
            out = out.constrain(m, right_block_positions(self.family, m))
        return out

    def subtraction_stages(self) -> tuple[int, ...]:
        return () if self.corrupted else tuple(range(self.n, self.M + 1))

    def measure_B(self) -> Fraction:
        """Exact product-set measure after the inclusion-exclusion removal."""
        _, outer = self.coordinates()
        base = Fraction(1)
        for c in outer:
            base *= c.measure()
        for m in self.subtraction_stages():
            frac = Fraction(self.family.spec.L + 1, self.family.cuts_between(m))
            base *= 1 - frac ** self.k
        return base

    def valid_horizon(self) -> int:
        return self.family.height(self.M + 1)

    def product_with_shifted_A(self, i: int) -> Fraction:
        """Exact mu^k(T_k^i A  intersect  B) via inclusion-exclusion."""
        A, outer = self.coordinates()
        stages = self.subtraction_stages()
        total = Fraction(0)
        for bits in range(1 << len(stages)):
            chosen = tuple(s for t, s in enumerate(stages) if bits >> t & 1)
            targets = [self.constrained(o_t, chosen) for o_t in outer]
            term = product_correlation(A, targets, [1] * self.k, i)
            if term:
                total += -term if len(chosen) % 2 else term
        return total


def witness_sets(fam: VlFamily, k: int, n: int, M: int) -> WitnessPair:
    """Build the witness pair after verifying the tail condition at n.

    Requires 1 < k <= L, n >= 2, M >= n, and sum_{i >= n} ((L+1)/r_i)^k < 1
    certified analytically for the cut rule; the error carries the computed
    bound when the condition fails.
    """
    L = fam.spec.L
    if not 1 < k <= L:
        raise SchemaError(f"need 1 < k <= L = {L}")
    if n < 2 or M < n:
        raise SchemaError("need n >= 2 and M >= n")
    bound = tail_bound(fam.spec.r, L, k, n)
    if bound >= 1:
        raise SchemaError(f"tail sum {bound} at stage {n} is not below 1")
    fam.ensure(M + 2)
    pair = WitnessPair(fam, k, n, M)
    mu_b = pair.measure_B()
    lower = (1 - sum(Fraction(L + 1, fam.cuts_between(m)) ** k
                     for m in range(n, M + 1)))
    top = LevelSet.level(fam, n, fam.height(n) - 1)
    if not mu_b >= lower * top.measure() ** k or mu_b <= 0:
        raise SchemaError("witness measure failed its lower bound")  # pragma: no cover
    return pair


def witness_violations(pair: WitnessPair, horizon: int,
                       max_candidates: int = 20_000) -> list[int]:
    """Lags |i| <= horizon where the witness correlation is nonzero.

    Candidates are read off the coordinate return supports (B sits inside the
    outer product, so any nonzero lag must light up every coordinate), then
    each candidate is settled by the exact inclusion-exclusion value.
    """
    if horizon > pair.valid_horizon():
        raise SchemaError(
            f"horizon {horizon} exceeds the truncation's valid range "
            f"{pair.valid_horizon()} (raise M)")
    A, outer = pair.coordinates()
    candidates = return_support(A[0], outer[0], -horizon, horizon)
    for a_t, o_t in zip(A[1:], outer[1:]):
        candidates = candidates.intersect(return_support(a_t, o_t, -horizon, horizon))
    if len(candidates) > max_candidates:
        raise SchemaError(f"{len(candidates)} candidate lags exceed the scan cap")
    out = []
    for i in candidates:
        if i != 0 and pair.product_with_shifted_A(i) > 0:
            out.append(i)
    return out


def witness_verify(pair: WitnessPair, horizon: int) -> bool:
    """True when the witness correlation vanishes at every lag 0 < |i| <= horizon."""
    return not witness_violations(pair, horizon)


# ---------------------------------------------------------------------------
# Sweeping probe for the divergent direction


def admissible_vector(fam: VlFamily, E: list[LevelSet], F: list[LevelSet],
                      n: int) -> tuple[int, tuple[int, ...]]:
    """Vector slot encoding the coordinatewise position differences.

    Each E_t must sit strictly above F_t in the stage-n column; the distinct
    differences (at most L of them) are embedded into a strictly increasing
    L-tuple with u_L < h_n, padded with unused values, and located in the
    enumeration. Raises with a reordering hint otherwise.
    """
    L = fam.spec.L
    diffs = set()
    for e, f in zip(E, F, strict=True):
        if e.count() != 1 or f.count() != 1 or e.stage != n or f.stage != n:
            raise SchemaError("probe coordinates must be single stage-n levels")
        d = e.min_index() - f.min_index()
        if d < 0:
            raise SchemaError(
                "each moving level must sit at or above its target; "
                "reorder the coordinates")
        if d > 0:
            diffs.add(d)
        # equal positions leave the vector unconstrained; no designated time
        # moves a level onto itself, so such coordinates zero out every probe
    if len(diffs) > L:
        raise SchemaError(f"{len(diffs)} distinct position differences exceed L = {L}")
    v = sorted(diffs)
    filler = 1
    while len(v) < L:
        while filler in diffs:
            filler += 1
        v.append(filler)
        diffs.add(filler)
        filler += 1
    v = tuple(sorted(v))
    if v[-1] >= fam.height(n):
        raise SchemaError(f"vector {v} violates u_L < h_n = {fam.height(n)}")
    if fam.spec.vector_order is not None:
        raise UnsupportedRule("probe vector lookup needs the canonical enumeration")
    return vector_index(L, v), v


def sweep_probe(fam: VlFamily, E: list[LevelSet], F, n: int, count: int,
                j: int | None = None):
    """Least i <= count whose designated mixing time moves E onto F.

    F is either a list of per-coordinate level sets or a WitnessPair (its
    thinned product is probed through the same inclusion-exclusion). The hit
    threshold is half the coordinatewise product, mirroring an epsilon = 1/4
    two-sided mixing bound; for plain product sets the joint equals that
    product exactly, so the probe's content is positivity at the designated
    times. Returns None when no time within the budget hits (a probe miss,
    not a disproof).
    """
    pair = F if isinstance(F, WitnessPair) else None
    F_coords = pair.coordinates()[1] if pair else list(F)
    if j is None:
        j, _ = admissible_vector(fam, E, F_coords, n)
    half = Fraction(1, 2)
    for i in range(1, count + 1):
        t = t_times(fam, n, j, i)
        outer = product_correlation(E, F_coords, [1] * len(E), t)
        if outer == 0:
            continue
        joint = pair.product_with_shifted_A(t) if pair else outer
        if joint > 0 and joint >= half * outer:
            return i
    return None
