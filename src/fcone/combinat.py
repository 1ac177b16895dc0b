"""Label-set combinatorics over the marked points {1, ..., m}.

Subsets are bitmasks, partitions into four nonempty blocks are the index
sets of F-curves, and shapes are their orbits under permutations fixing a
designated special label. Labels are 1-based throughout. Everything here
is immutable and hashable, so values double as divisor keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Iterator

__all__ = [
    "Subset",
    "FourPartition",
    "canonical_key",
    "enumerate_four_partitions",
    "enumerate_shapes",
]

# largest n whose 2^n - n - 1 B-keys are listed (about 1.05M at n = 20)
MAX_KEY_LABELS = 20


class _Memo(dict):
    """A dict that fills a missing key with ``make(key)``."""

    def __init__(self, make: Callable[[int], object]) -> None:
        self.make = make

    def __missing__(self, key: int):
        value = self[key] = self.make(key)
        return value


# key 256k + v: the labels 8k+1..8k+8 of the set bits of byte value v, comma-joined
_BYTE_TEXT = _Memo(lambda k: ",".join(str(k // 256 * 8 + i + 1) for i in range(8) if k >> i & 1))


def mask_text(mask: int) -> str:
    """The labels of ``mask`` (bit i-1 holds label i) comma-joined in
    ascending order, e.g. "1,3,4"; one table lookup per nonzero byte."""
    out, key = [], 0
    while mask:
        if mask & 255:
            out.append(_BYTE_TEXT[key | mask & 255])
        mask >>= 8
        key += 256
    return ",".join(out)


@dataclass(frozen=True)
class Subset:
    """A subset of {1, ..., m}; bit i-1 of ``mask`` holds label i."""

    mask: int
    m: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"ambient size must be >= 1, got {self.m}")
        if not 0 <= self.mask < (1 << self.m):
            raise ValueError(f"mask {self.mask:#x} out of range for m={self.m}")

    @classmethod
    def from_labels(cls, labels: Iterable[int], m: int) -> "Subset":
        mask = 0
        for lab in labels:
            if not 1 <= lab <= m:
                raise ValueError(f"label {lab} out of range 1..{m}")
            if mask >> (lab - 1) & 1:
                raise ValueError(f"label {lab} repeated")
            mask |= 1 << (lab - 1)
        return cls(mask, m)

    @classmethod
    def of(cls, key: "Subset | Iterable[int]", m: int) -> "Subset":
        """``key`` as a subset of {1, ..., m}: a Subset on m labels is kept,
        any other iterable is read as labels."""
        if isinstance(key, Subset):
            if key.m != m:
                raise ValueError(f"key ambient {key.m} does not match m={m}")
            return key
        return cls.from_labels(key, m)

    @classmethod
    def parse(cls, text: str, m: int) -> "Subset":
        """Inverse of ``str``: comma-joined labels, e.g. "1,3,4"."""
        text = text.strip()
        if not text:
            return cls(0, m)
        return cls.from_labels((int(tok) for tok in text.split(",")), m)

    @property
    def labels(self) -> tuple[int, ...]:
        out, mask = [], self.mask
        while mask:
            low = mask & -mask
            out.append(low.bit_length())
            mask ^= low
        return tuple(out)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def complement(self) -> "Subset":
        return Subset(self.mask ^ ((1 << self.m) - 1), self.m)

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (self.size, self.labels)

    def __str__(self) -> str:
        # built once per instance: the scan interns one Subset per block
        text = self.__dict__.get("_str")
        if text is None:
            text = self.__dict__["_str"] = mask_text(self.mask)
        return text


def canonical_key(S: Subset) -> Subset:
    """Canonical divisor-key representative of a subset.

    The key stands for the unordered pair {S, S^c}; the representative is
    the side ``canonical_mask`` picks.
    """
    size = S.mask.bit_count()
    if size == 0 or size == S.m:
        raise ValueError(f"empty or full key {{{S}}} on m={S.m} is not a divisor class")
    mask = canonical_mask(S.mask, S.m)
    return S if mask == S.mask else Subset(mask, S.m)


def canonical_mask(mask: int, m: int) -> int:
    """The canonical side of the split {mask, its complement} of m labels:
    the smaller side, ties going to the side containing label 1."""
    size = mask.bit_count()
    if 2 * size < m or (2 * size == m and mask & 1):
        return mask
    return mask ^ (1 << m) - 1


class FourPartition(tuple[Subset, Subset, Subset, Subset]):
    """An unordered partition of {1, ..., m} into four nonempty blocks: the
    tuple of its four blocks, in order of their lowest label, as
    ``enumerate_four_partitions`` builds them; each block carries the label
    count m. Built by ``tuple.__new__`` with no check and no instance dict,
    so equality and hashing are those of the block tuple.
    """

    __slots__ = ()

    def block_labels(self) -> tuple[tuple[int, ...], ...]:
        return tuple(p.labels for p in self)

    def __str__(self) -> str:
        return "{%s}|{%s}|{%s}|{%s}" % self


def _preorder(free: int) -> list[int]:
    """Each subset of the bits of ``free``, in lexicographic order of the
    subsets' label tuples, each prefix before its extensions: (), (x1,),
    (x1, x2), ..., (x2,), ... for x1 < x2 < ..."""
    out = [0]
    while free:
        # the subsets holding the highest bit left go right after ()
        high = 1 << free.bit_length() - 1
        free ^= high
        out[1:1] = [high | s for s in out]
    return out


def enumerate_four_partitions(m: int) -> Iterator[FourPartition]:
    """All partitions of {1, ..., m} into four nonempty blocks, each exactly
    once, ordered lexicographically by part minima (ties by label tuples).

    Lazy: no list of partitions is built. For each minima tuple (1, b, c, d),
    each block in turn takes the free labels below the next minimum, which no
    later block may hold, plus a subset of the larger ones in label-tuple
    order. Those subsets are listed once per distinct mask of larger labels
    (labels 3..m) and kept for the call, at most 3^(m-2) ints in all (28,387
    at m = 12); each list is walked as soon as it is built, so the memo grows
    with the walk, and the first partition costs one list of 2^(m-4). Blocks
    are built once per mask and shared between the partitions that contain
    them (at most 2^m per call); each partition is one ``FourPartition``
    tuple of shared blocks, built with no check.
    """
    if m < 4:
        raise ValueError(f"no four-block partitions of {m} < 4 labels")
    blocks = _Memo(lambda mask: Subset(mask, m))
    walks = _Memo(_preorder)
    full = (1 << m) - 1
    for b, c, d in combinations(range(2, m + 1), 3):
        # label x is bit 1 << (x - 1); below_x masks the labels 1..x-1
        below_b, below_c, below_d = (1 << b - 1) - 1, (1 << c - 1) - 1, (1 << d - 1) - 1
        free = full ^ (1 | 1 << b - 1 | 1 << c - 1 | 1 << d - 1)
        for x in walks[free & ~below_b]:
            p1 = free & below_b | x | 1
            rest = free & ~p1
            P1 = blocks[p1]
            for y in walks[rest & ~below_c]:
                p2 = rest & below_c | y | 1 << b - 1
                rest2 = rest & ~p2
                P2 = blocks[p2]
                # the third block is low3 | z, the fourth what p1, p2, p3 leave
                low3, left = rest2 & below_d | 1 << c - 1, full ^ p1 ^ p2
                for z in walks[rest2 & ~below_d]:
                    p3 = low3 | z
                    yield FourPartition((P1, P2, blocks[p3], blocks[left ^ p3]))


def enumerate_shapes(m: int, special: int) -> list[tuple[tuple[int, int, int], FourPartition]]:
    """Distinct shapes with one representative each, in order of first
    occurrence along ``enumerate_four_partitions``. A shape is the orbit of a
    partition under the permutations fixing ``special``, keyed by the sizes,
    ascending, of the three blocks that do not hold it.

    This walks all S(m, 4) partitions on purpose. ``_shape_sizes`` writes the
    same shape order in closed form, and its tests compare it with this walk,
    which defines the order by first occurrence; the walk also hands out each
    representative as an actual partition of the scan. Its callers are the
    bench self-test (m = 7), ``scripts/reproduce_lemmas.py`` (m = 5, 6) and
    the tests (m up to 10).
    """
    if not 1 <= special <= m:
        raise ValueError(f"special label {special} out of range 1..{m}")
    bit = 1 << special - 1
    reps: dict[tuple[int, int, int], FourPartition] = {}
    for P in enumerate_four_partitions(m):
        reps.setdefault(tuple(sorted([S.size for S in P if not S.mask & bit])), P)
    return list(reps.items())


def _shape_sizes(m: int) -> Iterator[tuple[int, int, int]]:
    """The shapes of ``enumerate_shapes(m, m)``, without the walk: the sizes,
    ascending, of the three blocks without label m, in the order the shapes
    first occur along ``enumerate_four_partitions(m)``.

    A shape with label m in a block of two or more first occurs among the
    minima (1, 2, 3, 4), one with m alone among (1, 2, 3, m). Within either
    group the first partition fills the blocks in order with the smallest
    free labels, so it gives the three blocks without m their sizes in
    ascending order, and shapes follow those sizes lexicographically.
    """
    for s1 in range(1, m):
        for s2 in range(s1, m):
            for s3 in range(s2, m - 1 - s1 - s2):
                yield s1, s2, s3
    for s1 in range(1, m):
        for s2 in range(s1, m):
            if m - 1 - s1 - s2 >= s2:
                yield s1, s2, m - 1 - s1 - s2
