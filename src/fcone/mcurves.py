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
from typing import Iterable, Iterator, Literal, Mapping

from .combinat import MAX_KEY_LABELS, FourPartition, Subset, canonical_key
from .combinat import enumerate_four_partitions
from .rationals import Linear, as_rational, json_coeffs, sum_by_key

__all__ = [
    "FULTON_MAX_MARKINGS",
    "MDivisor",
    "Verdict",
    "AmpDecision",
    "f_curve_value",
    "f_violations",
    "f_positivity",
]

# largest number of markings for which F-positivity is known to imply ampleness
FULTON_MAX_MARKINGS = 7

KeyLike = Subset | Iterable[int]


def _check_markings(m: int) -> None:
    # a class's first F-value builds a table of 2^m entries (16 MiB at 21)
    if m > MAX_KEY_LABELS + 1:
        raise ValueError(f"m={m} exceeds {MAX_KEY_LABELS + 1}, the most markings a pullback makes")


@dataclass(frozen=True)
class MDivisor(Linear):
    """Exact divisor class on the m-pointed space; treat as immutable."""

    m: int
    coeffs: Mapping[Subset, Fraction]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        _check_markings(self.m)
        object.__setattr__(
            self,
            "coeffs",
            sum_by_key((self._key(k), as_rational(q)) for k, q in self.coeffs.items()),
        )

    def _key(self, key: KeyLike) -> Subset:
        S = Subset.of(key, self.m)
        canon = canonical_key(S)  # refuses the empty and the full key
        if S.size >= 2 and self.m < 4:
            raise ValueError(f"boundary key {{{S}}} needs m >= 4")
        return canon

    def support(self) -> list[Subset]:
        return sorted(self.coeffs, key=Subset.sort_key)

    @cached_property
    def _mask_table(self) -> tuple[int, list[int], dict[int, Fraction], int]:
        """(den, table, values, cap) with table[mask] / den the coefficient on
        the key, for every mask of a singleton key and of either side of a
        boundary key; the table is dense, one int per mask of m labels (8 KiB
        at m = 10, 16 MiB at m = 21), and other masks read 0. ``values``
        interns the F-value total / den per integer total, so equal F-values
        share one immutable Fraction; it keeps the zero total and at most
        ``cap`` others, ``cap`` being the number of keyed masks. Built on
        first use by the F-kernel."""
        den = math.lcm(*(q.denominator for q in self.coeffs.values()))
        full = (1 << self.m) - 1
        table = [0] * (full + 1)
        cap = 0
        for S, q in self.coeffs.items():
            num = q.numerator * (den // q.denominator)
            table[S.mask] = num
            cap += 1
            if S.size >= 2:
                table[full ^ S.mask] = num
                cap += 1
        return den, table, {}, cap

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
        _check_markings(m)
        unknown = sorted(map(str, set(data) - {"m", "psi", "delta"}))
        if unknown:
            raise ValueError(f"MDivisor JSON has unknown fields {unknown}")
        pairs = [(Subset.from_labels([int(i)], m), q) for i, q in json_coeffs(data, "psi")]
        pairs += [(Subset.parse(key, m), q) for key, q in json_coeffs(data, "delta")]
        return cls(m, sum_by_key(pairs))


def f_curve_value(H: MDivisor, P: FourPartition) -> Fraction:
    """Intersection of H with the F-curve of partition P (exact rational)."""
    I, J, K, L = P
    if I.m != H.m:
        raise ValueError(f"partition on {I.m} labels vs divisor on {H.m}")
    den, table, values, cap = H._mask_table
    i, j, k, l = I.mask, J.mask, K.mask, L.mask
    total = (
        table[i | j] + table[i | k] + table[i | l]
        - table[i] - table[j] - table[k] - table[l]
    )
    v = values.get(total)
    if v is None:
        v = Fraction(total, den)
        if len(values) < cap or not total:
            values[total] = v
    return v


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
    ``violations``, when listed, holds (partition, value) pairs from the
    witness on: a tuple from ``f_positivity``, or a running scan for a
    report that streams it.
    """

    verdict: Verdict
    sense: Literal["positive", "negative"]
    witness: FourPartition | None = None
    witness_value: Fraction | None = None
    violations: Iterable[tuple[FourPartition, Fraction]] = ()

    @classmethod
    def of_scan(cls, m: int, sense, first, violations=()) -> "AmpDecision":
        """The decision of a scan on m markings whose first violation is the
        (partition, value) pair ``first`` (None if none): NOT_POSITIVE on a
        violation, else POSITIVE up to FULTON_MAX_MARKINGS and
        POSITIVE_BUT_UNDECIDED beyond."""
        if first is not None:
            return cls(Verdict.NOT_POSITIVE, sense, *first, violations)
        small = m <= FULTON_MAX_MARKINGS
        return cls(Verdict.POSITIVE if small else Verdict.POSITIVE_BUT_UNDECIDED, sense)

    def to_json_dict(self) -> dict:
        """The report's result; "violations" is an iterator of entries."""
        out: dict = {
            "verdict": self.verdict.value,
            "sense": self.sense,
            "strict": True,  # every scan is strict; the field keeps the report's bytes
        }
        if self.witness is not None:
            out["witness"] = str(self.witness)
            out["witness_value"] = str(self.witness_value)
        if self.violations:
            out["violations"] = (
                {"partition": str(P), "value": str(v)} for P, v in self.violations
            )
        return out


# the sign each sense asks of every F-value; a Fraction's denominator is
# positive, so the value has the sign of its numerator
_SIGN = {"positive": 1, "negative": -1}


def f_violations(
    H: MDivisor, sense: Literal["positive", "negative"]
) -> Iterator[tuple[FourPartition, Fraction]]:
    """The F-curve scan: a (partition, value) pair for every F-value that
    breaks the strict inequality of ``sense``, lazily in enumeration order,
    so a consumer that stops stops the scan. An unknown sense or m < 4
    raises at the first ``next``."""
    sign = _SIGN.get(sense)
    if sign is None:
        raise ValueError(f"unknown sense {sense!r}")
    for P in enumerate_four_partitions(H.m):
        v = f_curve_value(H, P)
        if v.numerator * sign <= 0:
            yield P, v


def f_positivity(
    H: MDivisor, sense: Literal["positive", "negative"], *, all_witnesses: bool = False
) -> AmpDecision:
    """Scan every F-curve; report the first violation in enumeration order.

    The scan stops at the first violation unless ``all_witnesses`` is set,
    which collects every violation into ``violations``.
    """
    hits = f_violations(H, sense)
    first = next(hits, None)
    return AmpDecision.of_scan(
        H.m, sense, first, (first, *hits) if all_witnesses and first is not None else ()
    )
