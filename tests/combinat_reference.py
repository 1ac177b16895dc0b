"""Partition helpers that only the tests need: relabelling by a permutation,
the orbit shape of one partition, partition text parsing and the documented
scan order. They are references for ``enumerate_shapes`` and
``enumerate_four_partitions``, written independently of both walks. Two
divisor helpers sit here too, as the package has no use for them: the
coefficient a curve-side class puts on one subset, and a scaled class.
"""

from fractions import Fraction
from typing import Iterable, Sequence

from fcone.combinat import FourPartition, Subset, canonical_key
from fcone.kmaps import KDivisor
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
    return partition_of(relabel_subset(p, sigma) for p in P)


def relabel_divisor(H: MDivisor, sigma: Sequence[int]) -> MDivisor:
    return MDivisor(H.m, {relabel_subset(S, sigma): q for S, q in H.coeffs.items()})


def coefficient(H: MDivisor, key: Subset | Iterable[int]) -> Fraction:
    """The coefficient of H on the divisor that ``key`` (a subset or its
    labels) names, read at the canonical key of the split."""
    return H.coeffs.get(canonical_key(Subset.of(key, H.m)), Fraction(0))


def scaled_class(c, H: MDivisor | KDivisor) -> MDivisor | KDivisor:
    """The class c * H, built from the scaled coefficient maps."""
    if isinstance(H, MDivisor):
        return MDivisor(H.m, {S: c * q for S, q in H.coeffs.items()})
    return KDivisor(
        H.n, {i: c * q for i, q in H.l_coeffs.items()}, {S: c * q for S, q in H.b_coeffs.items()}
    )


def shape_of(P: FourPartition, special: int) -> tuple[int, ...]:
    """The shape of one partition, read off its blocks: the sizes, ascending,
    of the three blocks that do not hold ``special``."""
    m = P[0].m
    if not 1 <= special <= m:
        raise ValueError(f"special label {special} out of range 1..{m}")
    return tuple(sorted(p.size for p in P if special not in p.labels))


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
