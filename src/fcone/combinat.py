"""Label-set combinatorics over the marked points {1, ..., m}.

Subsets are bitmasks, partitions into four nonempty blocks are the index
sets of F-curves, and shapes are their orbits under permutations fixing a
designated special label. Labels are 1-based throughout. Everything here
is immutable and hashable, so values double as divisor keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

__all__ = [
    "Subset",
    "FourPartition",
    "PartitionShape",
    "canonical_key",
    "enumerate_four_partitions",
    "enumerate_shapes",
]

# largest n whose 2^n - n - 1 B-keys are listed (about 1.05M at n = 20)
MAX_KEY_LABELS = 20

# decimal text of the labels below 64, so printing a block formats no int
_LABEL_TEXT = tuple(map(str, range(64)))


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

    def __contains__(self, label: int) -> bool:
        return 1 <= label <= self.m and bool(self.mask >> (label - 1) & 1)

    def complement(self) -> "Subset":
        return Subset(self.mask ^ ((1 << self.m) - 1), self.m)

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (self.size, self.labels)

    def __str__(self) -> str:
        # built once per instance: the scan interns one Subset per block
        text = self.__dict__.get("_str")
        if text is None:
            out, mask = [], self.mask
            while mask:
                lab = (mask & -mask).bit_length()
                out.append(_LABEL_TEXT[lab] if lab < 64 else str(lab))
                mask &= mask - 1
            text = self.__dict__["_str"] = ",".join(out)
        return text


def canonical_key(S: Subset) -> Subset:
    """Canonical divisor-key representative of a subset.

    The key stands for the unordered pair {S, S^c}; the representative is
    the smaller side, ties going to the side containing label 1.
    """
    size = S.mask.bit_count()
    if size == 0 or size == S.m:
        raise ValueError("empty or full subset cannot be a divisor key")
    if 2 * size < S.m or (2 * size == S.m and S.mask & 1):
        return S
    return S.complement()


@dataclass(frozen=True, slots=True)
class FourPartition:
    """An unordered partition of {1, ..., m} into four nonempty blocks.

    Stored canonically with blocks ordered by their minimum element; the
    constructor reorders, so any block order may be passed in.
    """

    parts: tuple[Subset, Subset, Subset, Subset]

    def __post_init__(self) -> None:
        parts = self.parts
        if len(parts) != 4:
            raise ValueError("a partition has exactly 4 blocks")
        A, B, C, D = parts
        m = A.m
        if not B.m == C.m == D.m == m:
            raise ValueError("blocks live in different ambient sets")
        a, b, c, d = A.mask, B.mask, C.mask, D.mask
        if not (a and b and c and d):
            raise ValueError("blocks must be nonempty")
        if a & b or (a | b) & c or (a | b | c) & d:
            raise ValueError("blocks must be pairwise disjoint")
        if a | b | c | d != (1 << m) - 1:
            raise ValueError("blocks must cover {1,...,m}")
        # disjoint blocks have distinct lowest bits, which order them by minimum
        if type(parts) is not tuple or not a & -a < b & -b < c & -c < d & -d:
            object.__setattr__(
                self, "parts", tuple(sorted(parts, key=lambda p: p.mask & -p.mask))
            )

    @property
    def m(self) -> int:
        return self.parts[0].m

    def block_labels(self) -> tuple[tuple[int, ...], ...]:
        return tuple(p.labels for p in self.parts)

    def __str__(self) -> str:
        return "{%s}|{%s}|{%s}|{%s}" % self.parts


@dataclass(frozen=True)
class PartitionShape:
    """Orbit label of a four-block partition under the permutations fixing a
    special label: the size multiset and the size of the block holding it."""

    sizes: tuple[int, int, int, int]
    special_part_size: int

    def __post_init__(self) -> None:
        if len(self.sizes) != 4 or any(s < 1 for s in self.sizes):
            raise ValueError(f"invalid size multiset {self.sizes}")
        if tuple(sorted(self.sizes)) != self.sizes:
            raise ValueError("sizes must be sorted ascending")
        if self.special_part_size not in self.sizes:
            raise ValueError("special part size must be one of the sizes")

    def __str__(self) -> str:
        return "+".join(map(str, self.sizes)) + f"(special in {self.special_part_size})"


def _preorder(free: int, mask: int = 0) -> Iterator[int]:
    """``mask`` joined with each subset of the bits of ``free``, in
    lexicographic order of the subsets' label tuples, each prefix before its
    extensions: (), (x1,), (x1, x2), ..., (x2,), ... for x1 < x2 < ..."""
    yield mask
    while free:
        low = free & -free
        free ^= low
        yield from _preorder(free, mask | low)


def enumerate_four_partitions(m: int) -> Iterator[FourPartition]:
    """All partitions of {1, ..., m} into four nonempty blocks, each exactly
    once, ordered lexicographically by part minima (ties by label tuples).

    Streams in O(m) memory: no list of partitions is built. For each minima
    tuple (1, b, c, d), each block in turn takes the free labels below the
    next minimum, which no later block may hold, plus a subset of the larger
    ones in label-tuple order. Blocks are built once per mask and shared
    between the partitions that contain them (at most 2^m per call).
    """
    if m < 4:
        raise ValueError(f"no four-block partitions of {m} < 4 labels")
    blocks: dict[int, Subset] = {}

    def block(mask: int) -> Subset:
        S = blocks.get(mask)
        if S is None:
            S = blocks[mask] = Subset(mask, m)
        return S

    full = (1 << m) - 1
    for b, c, d in combinations(range(2, m + 1), 3):
        # label x is bit 1 << (x - 1); below_x masks the labels 1..x-1
        below_b, below_c, below_d = (1 << b - 1) - 1, (1 << c - 1) - 1, (1 << d - 1) - 1
        free = full ^ (1 | 1 << b - 1 | 1 << c - 1 | 1 << d - 1)
        for x in _preorder(free & ~below_b):
            p1 = free & below_b | x | 1
            rest = free & ~p1
            for y in _preorder(rest & ~below_c):
                p2 = rest & below_c | y | 1 << b - 1
                rest2 = rest & ~p2
                P1, P2 = block(p1), block(p2)
                for z in _preorder(rest2 & ~below_d):
                    p3 = rest2 & below_d | z | 1 << c - 1
                    yield FourPartition((P1, P2, block(p3), block(full ^ p1 ^ p2 ^ p3)))


def enumerate_shapes(m: int, special: int) -> list[tuple[PartitionShape, FourPartition]]:
    """Distinct shapes with one representative each, in order of first
    occurrence along ``enumerate_four_partitions``.

    This walks all S(m, 4) partitions on purpose. The constraint generator
    writes the same shape order in closed form, and its tests compare it
    with this walk, which defines the order by first occurrence; the walk
    also hands out each representative as an actual partition of the scan.
    """
    if m < 4:
        raise ValueError(f"no four-block partitions of {m} < 4 labels")
    if not 1 <= special <= m:
        raise ValueError(f"special label {special} out of range 1..{m}")
    # key: the block sizes in block order, then the size of the block holding
    # the special bit; a shape is built once per new key
    bit = 1 << special - 1
    shapes: dict[tuple[int, ...], PartitionShape] = {}
    reps: dict[PartitionShape, FourPartition] = {}
    for P in enumerate_four_partitions(m):
        A, B, C, D = P.parts
        a, b, c, d = A.mask, B.mask, C.mask, D.mask
        key = (
            a.bit_count(),
            b.bit_count(),
            c.bit_count(),
            d.bit_count(),
            (a if a & bit else b if b & bit else c if c & bit else d).bit_count(),
        )
        if key not in shapes:
            sh = shapes[key] = PartitionShape(tuple(sorted(key[:4])), key[4])
            if sh not in reps:
                reps[sh] = P
    return list(reps.items())
