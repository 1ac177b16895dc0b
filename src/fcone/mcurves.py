"""Divisor classes on the moduli space of stable m-pointed rational curves,
written in the boundary basis, and the F-curve positivity scan.

A class is stored as exact rational coefficients on canonical subset keys:

* a key of size 2..m-2 holds the coefficient of the boundary divisor
  attached to the split {S, S^c} (the two sides name the same divisor, so
  the canonical representative of the pair is used);
* a singleton key {i} holds the coefficient c with the sign convention that
  the stored class is c * (-psi_i). Equivalently, writing H = sum c_S D_S
  over all keys, singletons extend the boundary notation by D_{i} := -psi_i.

An F-curve is indexed by a partition of the labels into four nonempty
blocks I|J|K|L, and meets H in

    c(I+J) + c(I+K) + c(I+L) - c(I) - c(J) - c(K) - c(L),

all lookups going through canonical keys (the kernel reads them from a
table over the masks of both sides of every key). Strict positivity of these
numbers characterises ample classes for m <= 7 (Keel-McKernan); for larger
m it is necessary but the sufficiency is open, and the verdict says so.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Literal, Mapping

from .combinat import MAX_KEY_LABELS, FourPartition, Subset, canonical_key
from .combinat import enumerate_four_partitions
from .rationals import Linear, as_rational, json_coeffs, sum_by_key

__all__ = [
    "FULTON_MAX_MARKINGS",
    "MDivisor",
    "FValue",
    "Verdict",
    "AmpDecision",
    "f_curve_value",
    "f_positivity",
]

# largest number of markings for which F-positivity is known to imply ampleness
FULTON_MAX_MARKINGS = 7

KeyLike = Subset | Iterable[int]


@dataclass(frozen=True)
class MDivisor(Linear):
    """Exact divisor class on the m-pointed space; treat as immutable."""

    m: int
    coeffs: Mapping[Subset, Fraction]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        object.__setattr__(
            self,
            "coeffs",
            sum_by_key((self._key(k), as_rational(q)) for k, q in self.coeffs.items()),
        )

    def _key(self, key: KeyLike) -> Subset:
        S = Subset.of(key, self.m)
        if S.size == 0 or S.size == S.m:
            raise ValueError(f"empty or full key {S!r} is not a divisor class")
        if S.size >= 2 and self.m < 4:
            raise ValueError(f"boundary key {S} needs m >= 4")
        return canonical_key(S)

    def coefficient(self, key: KeyLike) -> Fraction:
        S = canonical_key(Subset.of(key, self.m))
        return self.coeffs.get(S, Fraction(0))

    def support(self) -> list[Subset]:
        return sorted(self.coeffs, key=Subset.sort_key)

    @cached_property
    def _mask_table(self) -> tuple[int, Callable[[int, int], int]]:
        """(den, get) with get(mask, 0) / den == coefficient(S) for every
        mask of a singleton key and of either side of a boundary key; other
        masks read 0. Built on first use by the F-kernel."""
        den = math.lcm(*(q.denominator for q in self.coeffs.values()))
        full = (1 << self.m) - 1
        table: dict[int, int] = {}
        for S, q in self.coeffs.items():
            num = q.numerator * (den // q.denominator)
            table[S.mask] = num
            if S.size >= 2:
                table[full ^ S.mask] = num
        return den, table.get

    def to_json_dict(self) -> dict:
        """Wire format: {"m":…, "psi":{"i": q}, "delta":{"a,b,c": q}}.

        A "psi" entry records the coefficient on the singleton key {i}, so
        the class q*(-psi_i) serialises as "psi":{"i": str(q)}.
        """
        psi: dict[str, str] = {}
        delta: dict[str, str] = {}
        for S in self.support():
            if S.size == 1:
                psi[str(S.labels[0])] = str(self.coeffs[S])
            else:
                delta[str(S)] = str(self.coeffs[S])
        return {"m": self.m, "psi": psi, "delta": delta}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "MDivisor":
        """Entries naming the same divisor (both sides of a split, or one
        subset spelled twice) add up; fields other than these three are
        refused, and so is m > MAX_KEY_LABELS + 1 (the markings of the
        largest pullback), before any label is read."""
        m = data.get("m")
        if type(m) is not int:
            raise ValueError("MDivisor JSON needs an integer 'm'")
        if m > MAX_KEY_LABELS + 1:
            raise ValueError(
                f"m={m} exceeds {MAX_KEY_LABELS + 1}, the most markings a pullback makes"
            )
        unknown = sorted(map(str, set(data) - {"m", "psi", "delta"}))
        if unknown:
            raise ValueError(f"MDivisor JSON has unknown fields {unknown}")
        pairs = [(Subset.from_labels([int(i)], m), q) for i, q in json_coeffs(data, "psi")]
        pairs += [(Subset.parse(key, m), q) for key, q in json_coeffs(data, "delta")]
        return cls(m, sum_by_key(pairs))


@dataclass(frozen=True, slots=True)
class FValue:
    """The intersection number of a divisor with one F-curve."""

    partition: FourPartition
    value: Fraction


def f_curve_value(H: MDivisor, P: FourPartition) -> Fraction:
    """Intersection of H with the F-curve of partition P (exact rational)."""
    I, J, K, L = P.parts
    if I.m != H.m:
        raise ValueError(f"partition on {I.m} labels vs divisor on {H.m}")
    den, get = H._mask_table
    i, j, k, l = I.mask, J.mask, K.mask, L.mask
    total = (
        get(i | j, 0) + get(i | k, 0) + get(i | l, 0)
        - get(i, 0) - get(j, 0) - get(k, 0) - get(l, 0)
    )
    return Fraction(total, den)


class Verdict(enum.Enum):
    POSITIVE = "positive"
    NOT_POSITIVE = "not-positive"
    POSITIVE_BUT_UNDECIDED = "positive-but-undecided-ampleness"


@dataclass(frozen=True)
class AmpDecision:
    """Outcome of the full F-curve scan, which tests strict inequalities.

    POSITIVE means every F-value satisfied the tested inequality and the
    marking count is within the range where that settles (anti-)ampleness;
    POSITIVE_BUT_UNDECIDED means the scan passed but m exceeds that range.
    """

    verdict: Verdict
    sense: Literal["positive", "negative"]
    witness: FourPartition | None = None
    witness_value: Fraction | None = None
    violations: tuple[FValue, ...] = ()

    def to_json_dict(self) -> dict:
        out: dict = {
            "verdict": self.verdict.value,
            "sense": self.sense,
            "strict": True,  # every scan is strict; the field keeps the report's bytes
        }
        if self.witness is not None:
            out["witness"] = str(self.witness)
            out["witness_value"] = str(self.witness_value)
        if self.violations:
            out["violations"] = [
                {"partition": str(v.partition), "value": str(v.value)}
                for v in self.violations
            ]
        return out


# the sign each sense asks of every F-value; a Fraction's denominator is
# positive, so the value has the sign of its numerator
_SIGN = {"positive": 1, "negative": -1}


def f_positivity(
    H: MDivisor, sense: Literal["positive", "negative"], *, all_witnesses: bool = False
) -> AmpDecision:
    """Scan every F-curve; report the first violation in enumeration order.

    Partitions are consumed as they are enumerated, so unless
    ``all_witnesses`` is set the scan stops at the first violation.
    """
    if H.m < 4:
        raise ValueError(f"no F-curves on m={H.m} < 4 markings")
    sign = _SIGN.get(sense)
    if sign is None:
        raise ValueError(f"unknown sense {sense!r}")
    hits: list[FValue] = []
    for P in enumerate_four_partitions(H.m):
        v = f_curve_value(H, P)
        if v.numerator * sign <= 0:
            hits.append(FValue(P, v))
            if not all_witnesses:
                break
    if hits:
        first = hits[0]
        return AmpDecision(
            Verdict.NOT_POSITIVE,
            sense,
            witness=first.partition,
            witness_value=first.value,
            violations=tuple(hits) if all_witnesses else (),
        )
    verdict = (
        Verdict.POSITIVE
        if H.m <= FULTON_MAX_MARKINGS
        else Verdict.POSITIVE_BUT_UNDECIDED
    )
    return AmpDecision(verdict, sense)
