"""Partition helpers that only the tests need: relabelling by a permutation,
the orbit shape of one partition, partition text parsing and the documented
scan order. They are references for ``enumerate_shapes`` and
``enumerate_four_partitions``, written independently of both walks.
"""

from typing import Iterable, Sequence

from fcone.combinat import FourPartition, PartitionShape, Subset
from fcone.mcurves import MDivisor


def relabel_subset(S: Subset, sigma: Sequence[int]) -> Subset:
    """Apply a permutation given as the image tuple (sigma[i-1] = image of i)."""
    if sorted(sigma) != list(range(1, S.m + 1)):
        raise ValueError("sigma is not a permutation of 1..m")
    return Subset.from_labels((sigma[lab - 1] for lab in S.labels), S.m)


def partition_of(blocks: Iterable[Subset]) -> FourPartition:
    """The partition with these four blocks, put in order of their lowest
    label as ``enumerate_four_partitions`` yields them."""
    return FourPartition(tuple(sorted(blocks, key=lambda p: p.mask & -p.mask)))


def relabel_partition(P: FourPartition, sigma: Sequence[int]) -> FourPartition:
    return partition_of(relabel_subset(p, sigma) for p in P.parts)


def relabel_divisor(H: MDivisor, sigma: Sequence[int]) -> MDivisor:
    return MDivisor(H.m, {relabel_subset(S, sigma): q for S, q in H.coeffs.items()})


def shape_of(P: FourPartition, special: int) -> PartitionShape:
    """The shape of one partition, read off its blocks."""
    if not 1 <= special <= P.m:
        raise ValueError(f"special label {special} out of range 1..{P.m}")
    sizes = tuple(sorted(p.size for p in P.parts))
    return PartitionShape(sizes, next(p.size for p in P.parts if special in p))


def parse_partition(text: str, m: int) -> FourPartition:
    """Inverse of ``str``, e.g. "{1}|{2}|{3}|{4,5}"."""
    blocks = []
    for tok in text.split("|"):
        tok = tok.strip()
        if not (tok.startswith("{") and tok.endswith("}")):
            raise ValueError(f"malformed block {tok!r}")
        blocks.append(Subset.parse(tok[1:-1], m))
    return partition_of(blocks)


def scan_order_key(P: FourPartition) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The documented scan order: lexicographic in the block minima, then in
    the full label tuples."""
    labels = P.block_labels()
    return (tuple(block[0] for block in labels), labels)
