"""Exact rationals and the sparse coefficient maps built from them.

All numbers travel as "p/q" strings. Divisor classes store their
coefficients as ``{key: Fraction}`` dicts without zero entries; the
per-key sum and the sum of two classes below are shared by every such
class.
"""

from __future__ import annotations

import re
from dataclasses import fields
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, TypeVar, Union

__all__ = ["as_rational", "parse_rational"]

RationalLike = Union[Fraction, int, str]
Key = TypeVar("Key", bound=Hashable)

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" with a positive denominator. Decimals are rejected."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"malformed rational {text!r}: expected 'p' or 'p/q'")
    return Fraction(s)


def as_rational(value: RationalLike) -> Fraction:
    if isinstance(value, bool):
        raise TypeError(f"not a rational: {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    # floats carry rounding error, so they are banned outright
    raise TypeError(f"not an exact rational: {value!r} ({type(value).__name__})")


def json_coeffs(data: Mapping, field: str) -> list[tuple[str, Fraction]]:
    """The (key, rational) entries of the JSON object ``data[field]``, none
    when the field is absent."""
    value = data.get(field, {})
    if not isinstance(value, dict):
        raise ValueError(f"{field!r} must be a JSON object")
    return [(key, as_rational(q)) for key, q in value.items()]


def sum_by_key(pairs: Iterable[tuple[Key, Fraction]]) -> dict[Key, Fraction]:
    """Exact per-key sum of (key, value) pairs, zero sums dropped. Values are
    added only where keys repeat, so distinct keys cost one dict insert."""
    out: dict[Key, Fraction] = {}
    for key, q in pairs:
        out[key] = out[key] + q if key in out else q
    return {key: q for key, q in out.items() if q}


class Linear:
    """``+`` of two divisor classes: a dataclass whose first field is its
    label count and whose other fields are ``{key: Fraction}`` coefficient
    maps. The sum is exact and coefficient-wise, on one label count."""

    def __add__(self, other):
        size, *maps = (f.name for f in fields(self))
        count = getattr(self, size)
        if getattr(other, size) != count:
            raise ValueError(f"mixed {size}: {count} vs {getattr(other, size)}")
        return type(self)(count, *(
            sum_by_key([*getattr(self, name).items(), *getattr(other, name).items()])
            for name in maps
        ))
