"""Subset/partition combinatorics: counts against brute-force oracles,
canonical representatives, orbit shapes, determinism."""

import itertools
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from combinat_reference import (
    parse_partition,
    partition_of,
    relabel_partition,
    scan_order_key,
    shape_of,
)

from fcone.combinat import (
    Subset,
    _shape_sizes,
    canonical_key,
    enumerate_four_partitions,
    enumerate_shapes,
)


def brute_force_partitions(m):
    """Every map {1..m} -> 4 blocks, deduplicated as a set of frozensets."""
    seen = set()
    for assignment in itertools.product(range(4), repeat=m):
        blocks = [frozenset(i + 1 for i, b in enumerate(assignment) if b == j) for j in range(4)]
        if all(blocks):
            seen.add(frozenset(blocks))
    return seen


def brute_force_in_scan_order(m):
    """Every assignment of labels 2..m to four blocks (label 1 in the first),
    deduplicated, then sorted by ``scan_order_key``."""
    found = set()
    for assignment in itertools.product(range(4), repeat=m - 1):
        masks = [1, 0, 0, 0]
        for bit, block in enumerate(assignment, 1):
            masks[block] |= 1 << bit
        if all(masks):
            found.add(frozenset(masks))
    partitions = (partition_of(Subset(mask, m) for mask in masks) for masks in found)
    return sorted(partitions, key=scan_order_key)


def subsets_of(m, min_size=0, max_size=None):
    max_size = m if max_size is None else max_size
    return [
        Subset(mask, m)
        for mask in range(1 << m)
        if min_size <= mask.bit_count() <= max_size
    ]


class TestSubset:
    def test_labels_round_trip(self):
        S = Subset.from_labels([3, 1, 4], 5)
        assert S.labels == (1, 3, 4)
        assert str(S) == "1,3,4"
        assert Subset.parse("1,3,4", 5) == S
        assert S.size == 3 and S.mask == 0b1101  # labels 1, 3, 4: bits 0, 2, 3

    def test_complement(self):
        S = Subset.from_labels([1, 2], 5)
        assert S.complement().labels == (3, 4, 5)

    def test_out_of_range_label(self):
        with pytest.raises(ValueError):
            Subset.from_labels([6], 5)

    @given(st.integers(1, 80).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, (1 << m) - 1))))
    @example((70, 1 | 1 << 62 | 1 << 63 | 1 << 64 | 1 << 69))  # labels past the text table
    def test_labels_and_text_from_set_bits(self, m_mask):
        m, mask = m_mask
        S = Subset(mask, m)
        assert S.labels == tuple(i + 1 for i in range(m) if mask >> i & 1)
        text = str(S)
        assert str(S) == text == ",".join(map(str, S.labels))
        assert Subset.parse(text, m) == S


class TestCanonicalKey:
    def test_smaller_half_kept(self):
        S = Subset.from_labels([2, 3], 5)
        assert canonical_key(S) == S

    def test_larger_half_flipped(self):
        S = Subset.from_labels([2, 3, 4, 5], 5)
        assert canonical_key(S) == Subset.from_labels([1], 5)

    def test_tie_goes_to_side_with_label_one(self):
        S = Subset.from_labels([1, 2, 3], 6)
        assert canonical_key(S) == S
        assert canonical_key(S.complement()) == S

    @pytest.mark.parametrize("labels", [[], [1, 2, 3, 4, 5]])
    def test_empty_and_full_rejected(self, labels):
        with pytest.raises(ValueError):
            canonical_key(Subset.from_labels(labels, 5))

    @given(st.integers(4, 8).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, (1 << m) - 2))))
    def test_idempotent_and_constant_on_pairs(self, m_mask):
        m, mask = m_mask
        S = Subset(mask, m)
        key = canonical_key(S)
        assert canonical_key(key) == key
        assert canonical_key(S.complement()) == key
        assert key.size <= S.m - key.size


class TestFourPartition:
    def test_block_order_normalized(self):
        P = parse_partition("{4,5}|{2}|{1}|{3}", 5)
        assert str(P) == "{1}|{2}|{3}|{4,5}"
        assert parse_partition("{4,5}|{3}|{2}|{1}", 5) == P

    @pytest.mark.parametrize("m", [4, 6, 8])
    def test_record_is_the_tuple_of_its_blocks(self, m):
        for P in enumerate_four_partitions(m):
            assert len(P) == 4
            assert not hasattr(P, "__dict__")
            Q = partition_of(reversed(P))
            assert Q == P and hash(Q) == hash(P) and str(Q) == str(P)
            assert parse_partition(str(P), m) == P


class TestEnumeration:
    @pytest.mark.parametrize("m,count", [(4, 1), (5, 10), (6, 65), (7, 350), (8, 1701)])
    def test_counts(self, m, count):
        assert sum(1 for _ in enumerate_four_partitions(m)) == count

    @pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
    def test_matches_brute_force(self, m):
        ours = {frozenset(frozenset(p.labels) for p in P) for P in enumerate_four_partitions(m)}
        assert ours == brute_force_partitions(m)

    def test_each_exactly_once(self):
        seen = list(enumerate_four_partitions(6))
        assert len(seen) == len(set(seen))

    def test_deterministic_order(self):
        a = [str(P) for P in enumerate_four_partitions(6)]
        b = [str(P) for P in enumerate_four_partitions(6)]
        assert a == b

    def test_order_is_minima_lexicographic(self):
        parts = list(enumerate_four_partitions(5))
        keys = [scan_order_key(P) for P in parts]
        assert keys == sorted(keys)
        assert str(parts[0]) == "{1}|{2}|{3}|{4,5}"

    @pytest.mark.parametrize("m", range(4, 11))
    def test_order_equals_sorted_brute_force(self, m):
        assert list(enumerate_four_partitions(m)) == brute_force_in_scan_order(m)

    def test_streams_without_building_the_whole_list(self):
        tracemalloc.start()
        try:
            first = list(itertools.islice(enumerate_four_partitions(12), 100))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(first) == 100 and str(first[0]) == "{1}|{2}|{3}|{4,5,6,7,8,9,10,11,12}"
        assert peak < 1 << 20

    def test_complete_walk_peak_memory(self):
        # the subset lists kept for the call (28,387 ints at m = 12) and the
        # shared blocks: 1.59 MiB, against 0.60 MiB for a recursive walk that
        # keeps nothing; the 2 MiB pin leaves 0.41 MiB (26%) of headroom
        tracemalloc.start()
        try:
            count = sum(1 for _ in enumerate_four_partitions(12))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 611501  # S(12, 4)
        assert peak < 2 << 20

    def test_m_below_four_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_four_partitions(3))


class TestShapes:
    @pytest.mark.parametrize("m,special,count", [(5, 5, 2), (6, 6, 4), (7, 7, 7)])
    def test_counts_with_special(self, m, special, count):
        assert len(enumerate_shapes(m, special)) == count

    @pytest.mark.parametrize("m", [5, 6, 7])
    def test_orbit_count_oracle(self, m):
        # orbit of each partition under permutations fixing the last label
        orbits = set()
        for P in enumerate_four_partitions(m):
            orbit = frozenset(
                relabel_partition(P, list(perm) + [m])
                for perm in itertools.permutations(range(1, m))
            )
            orbits.add(orbit)
        assert len(orbits) == len(enumerate_shapes(m, m))

    @pytest.mark.parametrize("m", [5, 6, 7])
    def test_every_partition_has_exactly_one_shape(self, m):
        shapes = [sh for sh, _ in enumerate_shapes(m, m)]
        assert len(shapes) == len(set(shapes))
        for P in enumerate_four_partitions(m):
            assert shape_of(P, m) in shapes

    @pytest.mark.parametrize("m", [5, 6, 7])
    def test_orbits_of_representatives_cover_everything(self, m):
        covered = set()
        for _, rep in enumerate_shapes(m, m):
            for perm in itertools.permutations(range(1, m)):
                covered.add(relabel_partition(rep, list(perm) + [m]))
        assert covered == set(enumerate_four_partitions(m))

    def test_representative_consistent_with_shape(self):
        for sh, rep in enumerate_shapes(7, 7):
            assert shape_of(rep, 7) == sh

    def test_shape_values(self):
        P = parse_partition("{1}|{2}|{3}|{4,5}", 5)
        assert shape_of(P, 5) == (1, 1, 1)
        assert shape_of(P, 1) == (1, 1, 2)

    def test_invalid_special_rejected(self):
        with pytest.raises(ValueError):
            enumerate_shapes(5, 6)


@given(
    st.integers(4, 7).flatmap(
        lambda m: st.tuples(st.just(m), st.permutations(list(range(1, m + 1))))
    )
)
def test_relabel_preserves_partition_validity(m_sigma):
    m, sigma = m_sigma
    for P in itertools.islice(enumerate_four_partitions(m), 12):
        Q = relabel_partition(P, sigma)
        assert {lab for p in Q for lab in p.labels} == set(range(1, m + 1))
        assert sorted(p.size for p in Q) == sorted(p.size for p in P)


@pytest.mark.parametrize("m", range(4, 11))
def test_enumerate_shapes_matches_shape_of_reference(m):
    # same shapes, same representatives, same first-occurrence order as
    # keying every partition by shape_of
    partitions = list(enumerate_four_partitions(m))
    for special in (1, m):
        reference = {}
        for P in partitions:
            reference.setdefault(shape_of(P, special), P)
        assert enumerate_shapes(m, special) == list(reference.items())


@pytest.mark.parametrize("m", range(4, 11))
def test_closed_form_shapes_match_the_walk(m):
    # _shape_sizes writes, without a walk, the shapes enumerate_shapes finds
    # by first occurrence, in the same order
    assert [sh for sh, _ in enumerate_shapes(m, m)] == list(_shape_sizes(m))
