"""Divisor-level shadow of the birational comparison between the
(n+3)-pointed curve space and the n-pointed stable-map space: each
boundary key S with 2 <= |S| <= n on the map side is hit by the curve-side
boundary divisor with the same index set, and nothing else is needed in
codimension one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinat import Subset, canonical_key
from .kmaps import boundary_keys

__all__ = ["DivisorCorrespondence", "phi_divisor_map"]


@dataclass(frozen=True)
class DivisorCorrespondence:
    """Pairs (curve-side canonical key on n+3 labels, map-side raw B-key)."""

    n: int
    pairs: tuple[tuple[Subset, Subset], ...]

    def to_tsv(self) -> str:
        lines = ["S\tDeltaKey\tBKey"]
        for delta, b in self.pairs:
            lines.append(f"{b}\t{delta}\t{b}")
        return "\n".join(lines) + "\n"


def phi_divisor_map(n: int) -> DivisorCorrespondence:
    """One pair per map-side B-key, in ``boundary_keys`` order, with the
    curve-side key for the same index set among n+3 labels.

    Distinct B-keys give distinct curve-side keys: a key that flips to its
    complement then holds n+1, n+2 and n+3, so it never equals a key kept
    as it is, and distinct sets have distinct complements.
    """
    if n < 2:
        raise ValueError(f"no boundary keys on n={n} < 2")
    m = n + 3
    pairs = tuple(
        (canonical_key(Subset(b_key.mask, m)), b_key) for b_key in boundary_keys(n)
    )
    return DivisorCorrespondence(n, pairs)
