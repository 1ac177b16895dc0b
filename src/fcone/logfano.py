"""Log-Fano boundary search: linear strict-inequality systems in the
symmetric boundary coefficients (a_2, ..., a_n), an exact feasibility
solver with checkable certificates, and full-enumeration verification of
candidate witnesses.

Anti-ampleness of K_n + sum a_s B[s] is an affine condition per F-curve of
the (n+1)-pointed space, plus one condition from the line-section degree.
Both are written in closed form, and no divisor is built. Pulled back to
the (n+1)-pointed space, the class has coefficient k(t) + a_t on a split
whose side without label n+1 has t >= 2 labels, k(t) = t - 2 being the
coefficient of K_n on B[t], and 0 when t = 1; so an F-form depends only on
the sizes of the three blocks without label n+1. The derivation through the
pullbacks themselves is kept in the test suite as the reference.

The solver is Fourier-Motzkin elimination with a strict/non-strict flag per
inequality. Each input form is rescaled once to a primitive integer row,
one dense tuple over the system's variables that is also its table key, and
elimination stays on such rows; every derived inequality records only the
two rows and the weights that produced it. A stage first combines only the
pairs whose sum is constant and ends unbuilt at the first that contradicts.
The certificate cannot change: a row built in stage s is read only by stage
s + 1, and a contradiction ends the elimination. When a row reduces to an
absurd constant inequality, that derivation is unwound once into
nonnegative multipliers on the input forms, so infeasibility comes out as
an explicit combination of the inputs, and feasibility as a rational point.
Both certificates re-check by substitution before they are returned.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .combinat import _shape_sizes, enumerate_four_partitions
from .kmaps import BoundaryCombo, _check_key_labels, chs_ample
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
    """An affine inequality  constant + sum coeffs[s] * a_s  (< or <=) 0,
    built with ``of``, which keeps the nonzero coefficients sorted by s."""

    constant: Fraction
    coeffs: tuple[tuple[int, Fraction], ...]
    strict: bool

    @classmethod
    def of(
        cls,
        constant: RationalLike,
        coeffs: Mapping[int, RationalLike],
        strict: bool = True,
    ) -> "LinearForm":
        pairs = ((int(s), as_rational(q)) for s, q in coeffs.items())
        return cls(as_rational(constant), tuple(sorted(p for p in pairs if p[1])), strict)

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
            "relation": "<0" if self.strict else "<=0",
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


def _f_form(i: int, j: int, k: int) -> LinearForm:
    # F-value c(I+J) + c(I+K) + c(J+K) - c(I) - c(J) - c(K) - c(I+J+K) of a
    # partition whose blocks without label m have sizes i, j, k, each term
    # read on its side without m; c(t) is t - 2 + a_t for t >= 2 and 0 for
    # t = 1, as in the module docstring
    const, coeffs = 0, {}
    for t, sign in zip((i + j, i + k, j + k, i, j, k, i + j + k), (1, 1, 1, -1, -1, -1, -1)):
        if t >= 2:
            const += sign * (t - 2)
            coeffs[t] = coeffs.get(t, 0) + sign
    return LinearForm.of(const, coeffs)


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
        shapes = _shape_sizes(m)
    else:
        # the block sizes without label m = n + 1, which is bit n of a mask
        shapes = ([p.size for p in P if not p.mask >> n & 1] for P in enumerate_four_partitions(m))
    forms = [_f_form(*sizes) for sizes in shapes]
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


def _input_row(idx: int, form: LinearForm, column: Mapping[int, int]) -> tuple:
    # coeffs, const, strict and origin of the form scaled to a primitive
    # integer row; zeros add to no lcm or gcd
    values = [q for _, q in form.coeffs] + [form.constant]
    denom = lcm(*(v.denominator for v in values))
    scale = Fraction(denom, gcd(*(v.numerator * denom // v.denominator for v in values)) or 1)
    coeffs = [0] * len(column)
    for s, q in form.coeffs:
        coeffs[column[s]] = int(q * scale)
    return tuple(coeffs), int(form.constant * scale), form.strict, (idx, scale)


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


def solve_feasibility(
    forms: Sequence[LinearForm], bounds: Bounds | None = None
) -> FeasibilityResult:
    """Exact strict-aware feasibility by Fourier-Motzkin elimination.

    Eliminating column x from primitive integer rows p (entry b > 0) and q
    (entry -a < 0) forms a*p + b*q, column x cancelling, and divides out the
    gcd. Every row, input or combined, passes one admission rule: a
    contradiction stops the elimination, a constant row that holds is
    dropped, and any other row is kept, with its two parent rows and their
    weights, if it is the strongest for its coefficient vector. A stage
    combines first the pairs whose sum is constant, q's primitive
    coefficients being minus p's, then every pair, each in (p, q) order: a
    contradiction among the first ends it unbuilt. That changes no
    certificate: a row built in stage s is read only by stage s + 1, and a
    contradiction ends the elimination, so the first contradicting pair is
    the certificate either way. The variable eliminated next is the one
    producing the fewest combination rows. One exit builds the result, the
    contradiction's derivation unwound into nonnegative multipliers on the
    input forms or a back-substituted rational point strictly inside every
    strict bound, and re-checks it by substitution before returning it.
    """
    eff = tuple(forms) + (bounds.forms() if bounds is not None else ())
    variables = sorted({s for f in eff for s, _ in f.coeffs})
    contradiction, stages = _eliminate(eff, variables)
    if contradiction is None:
        values = [Fraction(0)] * len(variables)
        for x, rows in reversed(stages):
            values[x] = _pick_value(x, rows, values)
        result = FeasibilityResult(eff, point=dict(zip(variables, values)))
    else:
        lam = _multipliers(contradiction)
        multipliers = tuple(lam.get(i, Fraction(0)) for i in range(len(eff)))
        result = FeasibilityResult(eff, multipliers=multipliers)
    if not result.check():
        what = "solver point" if result.feasible else "derived infeasibility certificate"
        raise RuntimeError(f"{what} failed to validate")
    return result


def _eliminate(eff: Sequence[LinearForm], variables: Sequence[int]) -> tuple:
    # the first row that contradicts, else None; and each eliminated column
    # with the rows that bounded it, in elimination order
    column = {s: j for j, s in enumerate(variables)}
    table: dict[tuple[int, ...], _Row] = {}

    def admit(coeffs: tuple[int, ...], const: int, strict: bool, origin: tuple) -> _Row | None:
        # a row is stronger than another with its coefficient vector when its
        # (constant, strict) pair is larger, as e + c < 0 implies e + c' <= 0
        # for any c' <= c; the strongest is kept, and a constant row stronger
        # than 0 <= 0 is a contradiction, returned as the certificate row
        if any(coeffs):
            held = table.get(coeffs)
            if held is None or (const, strict) > (held.const, held.strict):
                table[coeffs] = _Row(coeffs, const, strict, origin)
        elif (const, strict) > (0, False):
            return _Row(coeffs, const, strict, origin)
        return None

    stages: list[tuple[int, list[_Row]]] = []
    for idx, f in enumerate(eff):
        if row := admit(*_input_row(idx, f, column)):
            return row, stages
    remaining = list(range(len(variables)))
    while remaining:
        rows = list(table.values())

        def fill(x: int) -> int:
            npos = sum(1 for r in rows if r.coeffs[x] > 0)
            nneg = sum(1 for r in rows if r.coeffs[x] < 0)
            return npos * nneg - npos - nneg

        x = min(remaining, key=fill)
        remaining.remove(x)
        pos = [r for r in rows if r.coeffs[x] > 0]
        neg = [r for r in rows if r.coeffs[x] < 0]
        stages.append((x, pos + neg))
        table = {key: r for key, r in table.items() if not key[x]}
        # the pairs whose sum is constant first, then every pair (see
        # solve_feasibility), so a stage that contradicts keeps no row
        opposite: dict[tuple[int, ...], list[_Row]] = {}
        for q in neg:
            opposite.setdefault(_direction(q.coeffs, -1), []).append(q)
        constant = ((p, opposite.get(_direction(p.coeffs, 1), ())) for p in pos)
        for p, partners in chain(constant, ((p, neg) for p in pos)):
            b = p.coeffs[x]
            for q in partners:
                a = -q.coeffs[x]
                coeffs = tuple(a * c + b * e for c, e in zip(p.coeffs, q.coeffs))
                const = a * p.const + b * q.const
                g = gcd(const, *coeffs)
                if g > 1:
                    coeffs = tuple(c // g for c in coeffs)
                    const //= g
                # an all-zero combination (g == 0) stays undivided, as
                # p/b + q/a, which puts a*b into the denominator instead
                if row := admit(coeffs, const, p.strict or q.strict, (p, q, a, b, g or a * b)):
                    return row, stages
    return None, stages


def _direction(coeffs: tuple[int, ...], sign: int) -> tuple[int, ...]:
    g = sign * gcd(*coeffs)  # sign times the primitive coefficient vector
    return tuple(c // g for c in coeffs)


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

    combo: BoundaryCombo
    verdict: WitnessVerdict
    reason: str | None
    f_min: Fraction
    f_max: Fraction
    beta_degree: Fraction

    @property
    def n(self) -> int:
        return self.combo.n

    @property
    def klt_note(self) -> bool:
        return self.verdict is WitnessVerdict.VERIFIED

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


def verify_witness(n: int, coefficients: Mapping[int, RationalLike]) -> WitnessReport:
    """Check the candidate boundary sum a_s B[s] on n markings, ``coefficients``
    mapping each s to a_s, by scanning every F-curve (never the reduced
    system) and every line-section degree.

    It scans twice, ``chs_ample`` and then a full scan for ``f_min``/``f_max``:
    one pass could give both, but the benchmark's self-test pins the calls of
    two scans. The second scan reads the pulled-back class ``chs_ample``
    scanned, so it reuses that class's mask table and shared F-values, and
    it compares integer cross-products, not Fractions."""
    combo = BoundaryCombo.of(n, coefficients)  # its rules on n and each a_s come first
    if n < 3:
        raise ValueError(f"witness verification needs n >= 3, got {n}")
    decision = chs_ample(combo.to_divisor(K=True))

    A = decision.curve_class
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

    bad = next((f"a{s}={q}" for s, q in combo.a if not 0 <= q <= 1), None)
    if decision.verdict is Verdict.NOT_POSITIVE:
        if decision.alpha.verdict is Verdict.NOT_POSITIVE:
            reason = (
                f"F-curve {decision.alpha.witness} meets the class in degree "
                f"{decision.alpha.witness_value}, not < 0"
            )
        else:
            reason = f"line-section degree {beta} is not < 0"
        verdict = WitnessVerdict.REFUTED
    elif bad is not None:
        verdict, reason = WitnessVerdict.REFUTED, f"boundary coefficient outside [0,1]: {bad}"
    elif decision.verdict is Verdict.POSITIVE:
        verdict, reason = WitnessVerdict.VERIFIED, None
    else:
        verdict = WitnessVerdict.UNDECIDED
        reason = (
            f"all inequalities hold but {n + 1} markings exceed the range "
            "where F-positivity is known to decide ampleness"
        )
    return WitnessReport(combo, verdict, reason, f_min, f_max, beta)


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
    report = verify_witness(n, feas.point)
    if report.verdict is WitnessVerdict.REFUTED and not (
        report.f_max < 0 and report.beta_degree < 0
    ):
        raise RuntimeError(
            "solver point failed full-enumeration verification; "
            "reduced and full systems disagree"
        )
    return SearchOutcome(feas, report)
