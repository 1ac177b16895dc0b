"""Divisor-level shadow of the birational comparison between the
(n+3)-pointed curve space and the n-pointed stable-map space: each
boundary key S with 2 <= |S| <= n on the map side is hit by the curve-side
boundary divisor with the same index set, and nothing else is needed in
codimension one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .combinat import Subset, canonical_mask, mask_text
from .kmaps import _check_key_labels, _key_masks

__all__ = ["DivisorCorrespondence", "phi_divisor_map"]


@dataclass(frozen=True)
class DivisorCorrespondence:
    """Pairs (curve-side canonical key on n+3 labels, map-side raw B-key),
    one per B-key in ``boundary_keys`` order; iterating builds them lazily."""

    n: int

    def _masks(self) -> Iterator[tuple[int, int]]:
        """The pairs as masks, in one walk of the B-keys."""
        m = self.n + 3
        return ((canonical_mask(b, m), b) for b in _key_masks(self.n))

    def __iter__(self) -> Iterator[tuple[Subset, Subset]]:
        n, m = self.n, self.n + 3
        return ((Subset(d, m), Subset(b, n)) for d, b in self._masks())

    def __len__(self) -> int:
        return 2**self.n - self.n - 1

    @property
    def pairs(self) -> tuple[tuple[Subset, Subset], ...]:
        return tuple(self)

    def text_pairs(self) -> Iterator[tuple[str, str]]:
        """``(str(delta), str(b))`` for each pair, formatted from the masks
        with no ``Subset`` built; a key kept as it is shares its B-key's text."""
        for d, b in self._masks():
            text = mask_text(b)
            yield (text if d == b else mask_text(d)), text

    def tsv_lines(self) -> Iterator[str]:
        """The TSV report line by line, without line ends."""
        yield "S\tDeltaKey\tBKey"
        yield from (f"{b}\t{delta}\t{b}" for delta, b in self.text_pairs())


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
    _check_key_labels(n)
    return DivisorCorrespondence(n)
