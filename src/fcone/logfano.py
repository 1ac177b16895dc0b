"""Log-Fano boundary search: linear strict-inequality systems in the
symmetric boundary coefficients (a_2, ..., a_n), an exact feasibility
solver with checkable certificates, and full-enumeration verification of
candidate witnesses.

Anti-ampleness of K_n + sum a_s B[s] is an affine condition per F-curve of
the (n+1)-pointed space, plus one condition from the line-section degree.
Both are written in closed form, and no divisor is built. Pulled back to
the (n+1)-pointed space, the class has coefficient k(t) + a_t on a split
whose side without label n+1 has t >= 2 labels, k(t) = max(t - 2, 0) being
the coefficient of K_n on B[t], and 0 when t = 1; so an F-form depends only
on the block sizes and on which block holds label n+1. The derivation
through the pullbacks themselves is kept in the test suite as the reference.

The solver is Fourier-Motzkin elimination with a strict/non-strict flag
per inequality. Each input form is rescaled once to a primitive integer
row, one dense tuple over the system's variables that is also its table
key, and elimination stays on such rows; every derived inequality records
only the two rows and the weights that produced it.
When a row reduces to an absurd constant inequality, that derivation is
unwound once into nonnegative multipliers on the input forms, so
infeasibility comes out as an explicit combination of the inputs, and
feasibility comes out as a rational point. Both certificates re-check by
plain substitution before they are returned.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Sequence

from .combinat import enumerate_four_partitions
from .kmaps import (
    BoundaryCombo,
    ChsVerdict,
    _check_key_labels,
    chs_ample,
    pullback_alpha,
)
from .mcurves import Verdict, f_curve_value
from .rationals import RationalLike, as_rational, sum_by_key

__all__ = [
    "LinearForm",
    "Bounds",
    "FeasibilityResult",
    "WitnessVerdict",
    "WitnessReport",
    "SearchOutcome",
    "generate_constraints",
    "solve_feasibility",
    "verify_witness",
    "search_witness",
]


@dataclass(frozen=True)
class LinearForm:
    """An affine inequality  constant + sum coeffs[s] * a_s  (< or <=) 0."""

    constant: Fraction
    coeffs: tuple[tuple[int, Fraction], ...]
    strict: bool

    def __post_init__(self) -> None:
        pairs = tuple(sorted((s, q) for s, q in self.coeffs if q != 0))
        object.__setattr__(self, "coeffs", pairs)

    @classmethod
    def of(
        cls,
        constant: RationalLike,
        coeffs: Mapping[int, RationalLike],
        strict: bool = True,
    ) -> "LinearForm":
        return cls(
            as_rational(constant),
            tuple((int(s), as_rational(q)) for s, q in coeffs.items()),
            strict,
        )

    @property
    def relation(self) -> str:
        return "<0" if self.strict else "<=0"

    def evaluate(self, point: Mapping[int, Fraction]) -> Fraction:
        total = self.constant
        for s, q in self.coeffs:
            total += q * point.get(s, Fraction(0))
        return total

    def satisfied_by(self, point: Mapping[int, Fraction]) -> bool:
        v = self.evaluate(point)
        return v < 0 if self.strict else v <= 0

    def to_json_dict(self) -> dict:
        return {
            "constant": str(self.constant),
            "coeffs": {str(s): str(q) for s, q in self.coeffs},
            "relation": self.relation,
        }

    def __str__(self) -> str:
        terms: list[tuple[str, str]] = []
        for s, q in self.coeffs:
            mag = abs(q)
            head = f"a{s}" if mag == 1 else f"{mag}*a{s}"
            terms.append(("-" if q < 0 else "+", head))
        if self.constant or not terms:
            terms.append(("-" if self.constant < 0 else "+", str(abs(self.constant))))
        sign, head = terms[0]
        body = ("-" if sign == "-" else "") + head
        for sign, head in terms[1:]:
            body += f" {sign} {head}"
        rel = "<" if self.strict else "<="
        return f"{body} {rel} 0"


@dataclass(frozen=True)
class Bounds:
    """One- or two-sided bounds per coefficient, kept non-strict."""

    lower: tuple[tuple[int, Fraction], ...] = ()
    upper: tuple[tuple[int, Fraction], ...] = ()

    @classmethod
    def of(
        cls,
        lower: Mapping[int, RationalLike] | None = None,
        upper: Mapping[int, RationalLike] | None = None,
    ) -> "Bounds":
        lo = tuple(sorted((int(s), as_rational(q)) for s, q in (lower or {}).items()))
        hi = tuple(sorted((int(s), as_rational(q)) for s, q in (upper or {}).items()))
        return cls(lo, hi)

    @classmethod
    def box(
        cls, variables: Iterable[int], lo: RationalLike, hi: RationalLike
    ) -> "Bounds":
        vs = sorted(set(variables))
        return cls.of({s: lo for s in vs}, {s: hi for s in vs})

    def forms(self) -> tuple[LinearForm, ...]:
        out = [LinearForm.of(c, {s: -1}, strict=False) for s, c in self.lower]
        out += [LinearForm.of(-c, {s: 1}, strict=False) for s, c in self.upper]
        return tuple(out)

    def __str__(self) -> str:
        items = [f"a{s}>={c}" for s, c in self.lower]
        items += [f"a{s}<={c}" for s, c in self.upper]
        return ",".join(items)


def _f_form(m: int, sizes: Sequence[int], special: int) -> LinearForm:
    # F-value c(I+J) + c(I+K) + c(I+L) - c(I) - c(J) - c(K) - c(L) of a
    # partition with these block sizes, block ``special`` holding label m,
    # where c is k(t) + a_t or 0 as in the module docstring
    const, coeffs = 0, {}
    terms = [(sizes[0] + size, special in (0, j), 1) for j, size in enumerate(sizes) if j]
    terms += [(size, special == j, -1) for j, size in enumerate(sizes)]
    for size, holds_m, sign in terms:
        t = m - size if holds_m else size
        if t >= 2:
            const += sign * max(t - 2, 0)
            coeffs[t] = coeffs.get(t, 0) + sign
    return LinearForm.of(const, coeffs)


def _shape_sizes(m: int) -> Iterator[tuple[int, int, int, int]]:
    """Block sizes of one partition per orbit shape, label m in the last
    block, in the order the shapes first occur along
    ``enumerate_four_partitions(m)``.

    A shape with label m in a block of two or more first occurs among the
    minima (1, 2, 3, 4), one with m alone among (1, 2, 3, m). Within either
    group the first partition fills the blocks in order with the smallest
    free labels, so it gives the three blocks without m their sizes in
    ascending order, and shapes follow those sizes lexicographically.
    """
    for s1 in range(1, m):
        for s2 in range(s1, m):
            for s3 in range(s2, m - 1 - s1 - s2):
                yield s1, s2, s3, m - s1 - s2 - s3
    for s1 in range(1, m):
        for s2 in range(s1, m):
            if m - 1 - s1 - s2 >= s2:
                yield s1, s2, m - 1 - s1 - s2, 1


def generate_constraints(n: int, reduced: bool = False) -> list[LinearForm]:
    """The strict system expressing anti-ampleness of K_n + sum a_s B[s].

    One form per F-curve of the (n+1)-pointed space, in the order of
    ``enumerate_four_partitions``, or with ``reduced`` one per orbit shape
    under permutations fixing label n+1, in the order the shapes first occur
    there; then the line-section degree form -2 - k(n) - k(n-1) - a_n -
    a_{n-1}, which is 3 - 2n - a_n - a_{n-1}. Each form comes in closed form
    from block sizes (see the module docstring), so the reduced system takes
    O(n^3) work and lists no partition and no B-key.
    """
    if n < 3:
        raise ValueError(f"constraint generation needs n >= 3, got {n}")
    m = n + 1
    if reduced:
        forms = [_f_form(m, sizes, 3) for sizes in _shape_sizes(m)]
    else:
        forms = []
        for P in enumerate_four_partitions(m):
            special = next(j for j, p in enumerate(P.parts) if m in p)
            forms.append(_f_form(m, [p.size for p in P.parts], special))
    # -2 - k(n) - k(n-1) = 3 - 2n for every n >= 3
    forms.append(LinearForm.of(3 - 2 * n, {n: -1, n - 1: -1}))
    return forms


@dataclass(frozen=True)
class FeasibilityResult:
    """Either a rational point satisfying every form of the effective
    system, or nonnegative multipliers combining them into a contradiction.

    ``forms`` is the solved system itself (inputs followed by any bound
    forms), so the certificate is self-contained; ``multipliers`` is dense,
    aligned with ``forms``.
    """

    forms: tuple[LinearForm, ...]
    point: Mapping[int, Fraction] | None = None
    multipliers: tuple[Fraction, ...] | None = None

    @property
    def feasible(self) -> bool:
        return self.point is not None

    def check(self) -> bool:
        """Re-validate the certificate by substitution."""
        if self.feasible:
            return all(f.satisfied_by(self.point) for f in self.forms)
        lam = self.multipliers
        if lam is None or len(lam) != len(self.forms) or any(x < 0 for x in lam):
            return False
        used = [(x, f) for x, f in zip(lam, self.forms) if x]
        if sum_by_key((s, x * q) for x, f in used for s, q in f.coeffs):
            return False
        const = sum(x * f.constant for x, f in used)
        strict = any(f.strict for _, f in used)
        return const > 0 or (const == 0 and strict)

    def to_json_dict(self) -> dict:
        out: dict = {
            "status": "feasible" if self.feasible else "infeasible",
            "forms": [f.to_json_dict() for f in self.forms],
        }
        if self.feasible:
            out["point"] = {str(s): str(q) for s, q in sorted(self.point.items())}
        else:
            out["multipliers"] = [
                {"form": i, "lambda": str(x)}
                for i, x in enumerate(self.multipliers)
                if x
            ]
        return out


@dataclass(slots=True)
class _Row:
    # working row: sum coeffs[j] * a_{variables[j]} + const (<|<=) 0, dense,
    # primitive; origin is (k, scale) for effective input form k times scale,
    # or (p, q, a, b, d) for the row (a*p + b*q) / d derived from rows p and q
    coeffs: tuple[int, ...]
    const: int
    strict: bool
    origin: tuple


def _input_row(idx: int, form: LinearForm, column: Mapping[int, int]) -> _Row:
    # the form scaled to a primitive integer row; zeros add to no lcm or gcd
    values = [q for _, q in form.coeffs] + [form.constant]
    denom = lcm(*(v.denominator for v in values))
    scale = Fraction(denom, gcd(*(v.numerator * denom // v.denominator for v in values)) or 1)
    coeffs = [0] * len(column)
    for s, q in form.coeffs:
        coeffs[column[s]] = int(q * scale)
    return _Row(tuple(coeffs), int(form.constant * scale), form.strict, (idx, scale))


def _multipliers(row: _Row) -> dict[int, Fraction]:
    # the multiplier of each effective input form in row, unwinding
    # lambda(r) = (a*lambda(p) + b*lambda(q)) / d down to the inputs
    if len(row.origin) == 2:
        idx, scale = row.origin
        return {idx: scale}
    p, q, a, b, d = row.origin
    return sum_by_key(
        [(k, a * x / d) for k, x in _multipliers(p).items()]
        + [(k, b * x / d) for k, x in _multipliers(q).items()]
    )


def _is_contradiction(coeffs: tuple[int, ...], const: int, strict: bool) -> bool:
    return not any(coeffs) and (const > 0 or (const == 0 and strict))


def _replaces(held: _Row | None, const: int, strict: bool) -> bool:
    # for identical primitive coefficient vectors, the larger constant wins,
    # a strict relation breaking the tie (e + c < 0 implies e + c' <= 0 for
    # any c' <= c)
    return (
        held is None
        or const > held.const
        or (const == held.const and strict and not held.strict)
    )


def solve_feasibility(
    forms: Sequence[LinearForm], bounds: Bounds | None = None
) -> FeasibilityResult:
    """Exact strict-aware feasibility by Fourier-Motzkin elimination.

    Every working row is a dense primitive integer tuple, one entry per
    sorted variable, and is its own table key. Eliminating column x from
    rows p (entry b > 0) and q (entry -a < 0) forms a*p + b*q entry by
    entry, column x cancelling, and divides out the gcd. Each kept row
    records its two parent rows and those weights; only a contradicting row
    has its derivation unwound into nonnegative multipliers on the input
    forms. Among rows with the same coefficient vector only the strongest
    is kept; the variable eliminated next is the one producing the fewest
    combination rows. Back-substitution picks a rational point strictly
    inside every strict bound, and both certificates are re-checked by
    substitution before they are returned.
    """
    eff = tuple(forms) + (bounds.forms() if bounds is not None else ())
    variables = sorted({s for f in eff for s, _ in f.coeffs})
    column = {s: j for j, s in enumerate(variables)}

    table: dict[tuple[int, ...], _Row] = {}
    for idx, f in enumerate(eff):
        row = _input_row(idx, f, column)
        if _is_contradiction(row.coeffs, row.const, row.strict):
            return _infeasible(eff, row)
        if any(row.coeffs) and _replaces(table.get(row.coeffs), row.const, row.strict):
            table[row.coeffs] = row

    remaining = list(range(len(variables)))
    stages: list[tuple[int, list[_Row]]] = []
    while remaining:
        rows = list(table.values())

        def fill(x: int) -> int:
            npos = sum(1 for r in rows if r.coeffs[x] > 0)
            nneg = sum(1 for r in rows if r.coeffs[x] < 0)
            return npos * nneg - npos - nneg

        x = min(remaining, key=lambda j: (fill(j), j))
        remaining.remove(x)
        pos = [r for r in rows if r.coeffs[x] > 0]
        neg = [r for r in rows if r.coeffs[x] < 0]
        stages.append((x, pos + neg))
        table = {key: r for key, r in table.items() if not key[x]}
        for p in pos:
            b = p.coeffs[x]
            for q in neg:
                a = -q.coeffs[x]
                coeffs = tuple(a * c + b * e for c, e in zip(p.coeffs, q.coeffs))
                const = a * p.const + b * q.const
                strict = p.strict or q.strict
                g = gcd(const, *coeffs)
                if g > 1:
                    coeffs = tuple(c // g for c in coeffs)
                    const //= g
                if _is_contradiction(coeffs, const, strict):
                    # an all-zero combination (g == 0) stays undivided, as
                    # p/b + q/a, which puts a*b into the denominator instead
                    origin = (p, q, a, b, g or a * b)
                    return _infeasible(eff, _Row(coeffs, const, strict, origin))
                if any(coeffs) and _replaces(table.get(coeffs), const, strict):
                    table[coeffs] = _Row(coeffs, const, strict, (p, q, a, b, g))

    values = [Fraction(0)] * len(variables)
    for x, rows in reversed(stages):
        values[x] = _pick_value(x, rows, values)
    result = FeasibilityResult(eff, point=dict(zip(variables, values)))
    if not result.check():
        raise RuntimeError("solver point failed to validate")
    return result


def _infeasible(eff: tuple[LinearForm, ...], row: _Row) -> FeasibilityResult:
    lam = _multipliers(row)
    multipliers = tuple(lam.get(i, Fraction(0)) for i in range(len(eff)))
    result = FeasibilityResult(eff, multipliers=multipliers)
    if not result.check():
        raise RuntimeError("derived infeasibility certificate failed to validate")
    return result


def _pick_value(x: int, rows: Sequence[_Row], values: Sequence[Fraction]) -> Fraction:
    # rows here are nonzero in column x and otherwise only in assigned
    # columns; the tightest bound on x from each side (side = sign of c)
    bound: dict[int, tuple[Fraction, bool]] = {}
    for r in rows:
        c = r.coeffs[x]
        rest = r.const + sum(e * values[j] for j, e in enumerate(r.coeffs) if e and j != x)
        v = Fraction(-rest, c)
        side = 1 if c > 0 else -1
        held = bound.get(side)
        if held is None or side * v < side * held[0] or (v == held[0] and r.strict):
            bound[side] = (v, r.strict)
    lb, ub = bound.get(-1), bound.get(1)
    if lb is None and ub is None:
        return Fraction(0)
    if lb is None:
        return ub[0] - 1
    if ub is None:
        return lb[0] + 1
    if lb[0] < ub[0]:
        return (lb[0] + ub[0]) / 2
    if lb[0] != ub[0] or lb[1] or ub[1]:
        raise RuntimeError("elimination missed a conflict")
    return lb[0]


class WitnessVerdict(enum.Enum):
    VERIFIED = "verified"
    REFUTED = "refuted"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class WitnessReport:
    """Full-enumeration verdict on one boundary combination.

    VERIFIED means K_n + D is anti-ample with every coefficient in [0, 1]:
    a log-Fano boundary witness. The klt note records that all inequalities
    hold strictly, so shrinking D by a small factor preserves them while
    making the pair coefficients sub-boundary.
    """

    n: int
    combo: BoundaryCombo
    verdict: WitnessVerdict
    reason: str | None
    f_min: Fraction
    f_max: Fraction
    beta_degree: Fraction
    klt_note: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "combo": {str(s): str(q) for s, q in self.combo.a},
            "verdict": self.verdict.value,
            "reason": self.reason,
            "f_min": str(self.f_min),
            "f_max": str(self.f_max),
            "beta_degree": str(self.beta_degree),
            "klt_note": self.klt_note,
        }


def _as_combo(n: int, combo: BoundaryCombo | Mapping[int, RationalLike]) -> BoundaryCombo:
    if isinstance(combo, BoundaryCombo):
        if combo.n != n:
            raise ValueError(f"combo is on n={combo.n}, expected {n}")
        return combo
    return BoundaryCombo.of(n, combo)


def verify_witness(
    n: int, combo: BoundaryCombo | Mapping[int, RationalLike]
) -> WitnessReport:
    """Check a candidate boundary by scanning every F-curve (never the
    reduced system) and every line-section degree.

    It scans twice, ``chs_ample`` and then a full scan for ``f_min``/``f_max``:
    one pass could give both, but the benchmark's self-test pins the calls of
    two scans. The second compares integer cross-products, not Fractions."""
    if n < 3:
        raise ValueError(f"witness verification needs n >= 3, got {n}")
    combo = _as_combo(n, combo)
    H = combo.to_divisor(K=True)
    decision = chs_ample(H)

    A = pullback_alpha(H)
    values = (f_curve_value(A, P) for P in enumerate_four_partitions(n + 1))
    f_min = f_max = next(values)
    lo, lo_den = hi, hi_den = f_min.numerator, f_min.denominator
    for v in values:
        p, q = v.numerator, v.denominator
        if p * lo_den < lo * q:
            f_min, lo, lo_den = v, p, q
        elif p * hi_den > hi * q:
            f_max, hi, hi_den = v, p, q

    degs = {d for _, d in decision.beta}
    if len(degs) != 1:
        raise RuntimeError("symmetric combination must have label-independent degree")
    beta = degs.pop()

    in_unit = all(0 <= q <= 1 for _, q in combo.a)
    if decision.verdict is ChsVerdict.FAILS:
        if decision.alpha.verdict is Verdict.NOT_POSITIVE:
            reason = (
                f"F-curve {decision.alpha.witness} meets the class in degree "
                f"{decision.alpha.witness_value}, not < 0"
            )
        else:
            reason = f"line-section degree {beta} is not < 0"
        verdict = WitnessVerdict.REFUTED
    elif not in_unit:
        bad = next(f"a{s}={q}" for s, q in combo.a if not 0 <= q <= 1)
        reason = f"boundary coefficient outside [0,1]: {bad}"
        verdict = WitnessVerdict.REFUTED
    elif decision.verdict is ChsVerdict.HOLDS:
        verdict, reason = WitnessVerdict.VERIFIED, None
    else:
        verdict = WitnessVerdict.UNDECIDED
        reason = (
            f"all inequalities hold but {n + 1} markings exceed the range "
            "where F-positivity is known to decide ampleness"
        )
    return WitnessReport(
        n=n,
        combo=combo,
        verdict=verdict,
        reason=reason,
        f_min=f_min,
        f_max=f_max,
        beta_degree=beta,
        klt_note=verdict is WitnessVerdict.VERIFIED,
    )


@dataclass(frozen=True)
class SearchOutcome:
    feasibility: FeasibilityResult
    report: WitnessReport | None

    def to_json_dict(self) -> dict:
        out = {"feasibility": self.feasibility.to_json_dict()}
        if self.report is not None:
            out["report"] = self.report.to_json_dict()
        return out


def search_witness(n: int, bounds: Bounds | None = None) -> SearchOutcome:
    """Solve the reduced system for a boundary combination, then confirm any
    feasible point by full enumeration before reporting it.

    The solved system asserts anti-ampleness only, so with loose bounds the
    point may leave the [0, 1] coefficient range; the report then says
    REFUTED for the range reason while the feasibility certificate stands.
    A disagreement on the scan itself would mean the reduced system is
    wrong and raises. Like the B-key listing that confirms a point, it
    refuses n > ``MAX_KEY_LABELS`` before any work, and it refuses a bound
    on any variable outside a_2..a_n before solving.
    """
    _check_key_labels(n)
    if bounds is not None:
        # BoundaryCombo's own rule and message for a nonexistent B[s]
        BoundaryCombo(n, bounds.lower + bounds.upper)
    forms = generate_constraints(n, reduced=True)
    feas = solve_feasibility(forms, bounds)
    if not feas.feasible:
        return SearchOutcome(feas, None)
    combo = BoundaryCombo.of(n, {s: q for s, q in feas.point.items() if q})
    report = verify_witness(n, combo)
    if report.verdict is WitnessVerdict.REFUTED and not (
        report.f_max < 0 and report.beta_degree < 0
    ):
        raise RuntimeError(
            "solver point failed full-enumeration verification; "
            "reduced and full systems disagree"
        )
    return SearchOutcome(feas, report)
