"""Exact rational parsing. All numbers travel as "p/q" strings."""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

RationalLike = Union[Fraction, int, str]

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
