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
    """Pairs (curve-side canonical key on n+3 labels, map-side raw B-key),
    one per B-key in ``boundary_keys`` order; iterating builds them lazily."""

    n: int

    def __iter__(self):
        m = self.n + 3
        return ((canonical_key(Subset(b.mask, m)), b) for b in boundary_keys(self.n))

    def __len__(self) -> int:
        return 2**self.n - self.n - 1

    @property
    def pairs(self) -> tuple[tuple[Subset, Subset], ...]:
        return tuple(self)

    def tsv_lines(self):
        """The TSV report line by line, without line ends."""
        yield "S\tDeltaKey\tBKey"
        yield from (f"{b}\t{delta}\t{b}" for delta, b in self)


def phi_divisor_map(n: int) -> DivisorCorrespondence:
    """The correspondence on n markings: each map-side B-key with the
    curve-side key for the same index set among n+3 labels. Refuses n < 2
    and n > ``MAX_KEY_LABELS`` on the call, before any pair is built.

    Distinct B-keys give distinct curve-side keys: a key that flips to its
    complement then holds n+1, n+2 and n+3, so it never equals a key kept
    as it is, and distinct sets have distinct complements.
    """
    if n < 2:
        raise ValueError(f"no boundary keys on n={n} < 2")
    boundary_keys(n)  # the bound on n, checked when the key walk is made
    return DivisorCorrespondence(n)
