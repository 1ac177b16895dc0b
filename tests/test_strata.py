"""Boundary correspondence between the two moduli spaces."""

import pytest

from fcone.combinat import Subset, canonical_key
from fcone.kmaps import boundary_keys
from fcone.strata import phi_divisor_map


@pytest.mark.parametrize("n,count", [(2, 1), (3, 4), (4, 11), (5, 26), (6, 57)])
def test_pair_counts(n, count):
    corr = phi_divisor_map(n)
    assert len(corr.pairs) == count
    assert count == 2**n - n - 1


def test_two_point_case():
    corr = phi_divisor_map(2)
    (delta, b) = corr.pairs[0]
    assert b == Subset.from_labels([1, 2], 2)
    assert delta == canonical_key(Subset.from_labels([1, 2], 5))


@pytest.mark.parametrize("n", range(2, 9))
def test_covers_whole_boundary_key_space(n):
    corr = phi_divisor_map(n)
    assert [b for _, b in corr.pairs] == list(boundary_keys(n))


@pytest.mark.parametrize("n", range(2, 9))
def test_sources_distinct_after_canonicalization(n):
    corr = phi_divisor_map(n)
    sources = [delta for delta, _ in corr.pairs]
    assert len(sources) == len(set(sources))
    assert all(delta.m == n + 3 for delta in sources)
    assert all(canonical_key(delta) == delta for delta in sources)


def test_large_sources_flip_to_complements():
    # the full set {1..5} sits inside 8 labels; its canonical key is the
    # 3-element complement {6,7,8}
    corr = phi_divisor_map(5)
    pair = next((d, b) for d, b in corr.pairs if b.size == 5)
    assert pair[0] == Subset.from_labels([6, 7, 8], 8)


@pytest.mark.parametrize("n", range(2, 13))
def test_text_pairs_print_the_subset_pairs(n):
    corr = phi_divisor_map(n)
    assert list(corr.text_pairs()) == [(str(d), str(b)) for d, b in phi_divisor_map(n)]


def test_tsv_format():
    lines = list(phi_divisor_map(2).tsv_lines())
    assert lines == ["S\tDeltaKey\tBKey", "1,2\t1,2\t1,2"]


def test_too_small_rejected():
    with pytest.raises(ValueError):
        phi_divisor_map(1)
