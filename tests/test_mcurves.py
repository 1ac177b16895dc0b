"""Divisor arithmetic on the curve side, the F-curve intersection form, and
the positivity scan."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from combinat_reference import (
    parse_partition,
    relabel_divisor,
    relabel_partition,
    scan_order_key,
    shape_of,
)

from fcone.combinat import Subset, enumerate_four_partitions
from fcone.kmaps import BoundaryCombo, canonical_class, pullback_alpha
from fcone.mcurves import (
    MDivisor,
    Verdict,
    f_curve_value,
    f_positivity,
)


def lemma_divisor_m5():
    """-3 psi_5 plus the sum of boundary keys over 3-subsets avoiding 5."""
    coeffs = {Subset.from_labels([5], 5): 3}
    for labels in itertools.combinations(range(1, 5), 3):
        coeffs[Subset.from_labels(labels, 5)] = 1
    return MDivisor(5, coeffs)


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)


def mdivisors(m):
    keys = st.integers(1, (1 << m) - 2).map(lambda mask: Subset(mask, m))
    return st.dictionaries(keys, rationals, max_size=6).map(lambda d: MDivisor(m, d))


class TestMDivisor:
    def test_keys_canonicalized_and_merged(self):
        H = MDivisor(
            5,
            {
                Subset.from_labels([1, 2], 5): Fraction(1),
                Subset.from_labels([3, 4, 5], 5): Fraction(2),
            },
        )
        # {3,4,5} is the complement of {1,2}; the two entries merge
        assert H.coefficient([1, 2]) == 3
        assert H.coefficient([3, 4, 5]) == 3
        assert len(H.coeffs) == 1

    def test_size_m_minus_one_normalizes_to_singleton(self):
        H = MDivisor(5, {(1, 2, 3, 4): 1})
        assert H.coefficient([5]) == 1
        assert H.coefficient([1, 2, 3, 4]) == 1

    def test_full_and_empty_keys_rejected(self):
        with pytest.raises(ValueError):
            MDivisor(5, {Subset.from_labels(range(1, 6), 5): Fraction(1)})
        with pytest.raises(ValueError):
            MDivisor(5, {Subset(0, 5): Fraction(1)})

    def test_boundary_keys_need_four_markings(self):
        with pytest.raises(ValueError):
            MDivisor(3, {Subset.from_labels([1, 2], 3): Fraction(1)})
        # psi keys are fine below four markings
        assert MDivisor(3, {(1,): -1}).coefficient([1]) == -1

    def test_zero_coefficients_dropped(self):
        H = MDivisor(5, {Subset.from_labels([1, 2], 5): Fraction(0)})
        assert H.coeffs == {}

    def test_json_round_trip_and_psi_sign(self):
        H = lemma_divisor_m5()
        data = H.to_json_dict()
        # -3 psi_5 sits on the singleton key {5} with coefficient +3
        assert data["psi"] == {"5": "3"}
        assert MDivisor.from_json_dict(data) == H

    def test_json_accepts_either_side_of_a_split(self):
        data = {"m": 5, "psi": {}, "delta": {"1,2,3": "1", "4,5": "2"}}
        H = MDivisor.from_json_dict(data)
        assert H.coefficient([1, 2, 3]) == 3

    @given(mdivisors(6))
    @settings(max_examples=60)
    def test_json_round_trip_random(self, H):
        assert MDivisor.from_json_dict(H.to_json_dict()) == H

    @given(mdivisors(6))
    @settings(max_examples=60)
    def test_complement_consistency(self, H):
        for S in H.support():
            if 2 <= S.size <= H.m - 2:
                assert H.coefficient(S) == H.coefficient(S.complement())


class TestLinearCombine:
    def test_identity_and_inverse(self):
        H = lemma_divisor_m5()
        other = MDivisor(5, {(1, 5): 1})
        assert H + 0 * other == H
        assert (H + -1 * H).coeffs == {}

    def test_matches_alpha_pullback_of_lemma_divisor(self):
        pulled = pullback_alpha(BoundaryCombo.of(4, {4: 1}).to_divisor(K=True))
        assert pulled == lemma_divisor_m5()

    def test_mismatched_ambient_rejected(self):
        with pytest.raises(ValueError, match="mixed m: 5 vs 6"):
            MDivisor(5, {}) + MDivisor(6, {})

    def test_operators(self):
        H = lemma_divisor_m5()
        assert H - H == MDivisor(5, {})
        assert Fraction(1, 2) * (H + H) == H


class TestFCurveValue:
    def test_lemma_value_on_listed_partition(self):
        P = parse_partition("{1}|{2}|{3}|{4,5}", 5)
        assert f_curve_value(lemma_divisor_m5(), P) == -1

    def test_lemma_value_constant_over_all_partitions(self):
        H = lemma_divisor_m5()
        values = [f_curve_value(H, P) for P in enumerate_four_partitions(5)]
        assert len(values) == 10
        assert set(values) == {Fraction(-1)}

    def test_second_lemma_constant_minus_quarter(self):
        combo = BoundaryCombo.of(5, {2: Fraction(1, 4), 4: Fraction(1, 4), 5: 1})
        H = pullback_alpha(combo.to_divisor(K=True))
        P = parse_partition("{1}|{2}|{6}|{3,4,5}", 6)
        assert f_curve_value(H, P) == Fraction(-1, 4)
        values = [f_curve_value(H, Q) for Q in enumerate_four_partitions(6)]
        assert len(values) == 65
        assert set(values) == {Fraction(-1, 4)}

    def test_zero_divisor(self):
        P = parse_partition("{1}|{2}|{3}|{4,5}", 5)
        assert f_curve_value(MDivisor(5, {}), P) == 0

    def test_size_mismatch_rejected(self):
        P = parse_partition("{1}|{2}|{3}|{4,5}", 5)
        with pytest.raises(ValueError):
            f_curve_value(MDivisor(6, {}), P)

    @given(st.tuples(mdivisors(6), mdivisors(6), rationals, rationals))
    @settings(max_examples=50)
    def test_linearity(self, args):
        H1, H2, a, b = args
        combined = a * H1 + b * H2
        for P in itertools.islice(enumerate_four_partitions(6), 0, 65, 13):
            assert f_curve_value(combined, P) == a * f_curve_value(
                H1, P
            ) + b * f_curve_value(H2, P)

    @given(st.tuples(mdivisors(6), st.permutations(list(range(1, 7)))))
    @settings(max_examples=50)
    def test_equivariance(self, args):
        H, sigma = args
        for P in itertools.islice(enumerate_four_partitions(6), 0, 65, 13):
            assert f_curve_value(relabel_divisor(H, sigma), relabel_partition(P, sigma)) == f_curve_value(H, P)


def reference_f_value(H, P):
    """The F-value read through ``MDivisor.coefficient``, term by term."""
    I = P.parts[0]
    return sum(H.coefficient(Subset(I.mask | X.mask, H.m)) for X in P.parts[1:]) - sum(
        H.coefficient(part) for part in P.parts
    )


@st.composite
def mixed_mdivisors(draw):
    """Divisors on m = 4..8 with mixed denominators, singleton (psi) keys and
    separate entries on both sides of some splits."""
    m = draw(st.integers(4, 8))
    full = (1 << m) - 1
    q = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
    coeffs = {}
    for mask, a, b in draw(st.lists(st.tuples(st.integers(1, full - 1), q, q | st.none()), max_size=10)):
        for key, value in ((mask, a), (full ^ mask, b)):
            if value is not None:
                S = Subset(key, m)
                coeffs[S] = coeffs.get(S, 0) + value
    for label, value in draw(st.lists(st.tuples(st.integers(1, m), q), max_size=3)):
        S = Subset.from_labels([label], m)
        coeffs[S] = coeffs.get(S, 0) + value
    return MDivisor(m, coeffs)


class TestFKernel:
    @given(mixed_mdivisors())
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_sum_on_every_partition(self, H):
        for P in enumerate_four_partitions(H.m):
            assert f_curve_value(H, P) == reference_f_value(H, P)

    def test_table_not_shared_between_divisors_of_equal_m(self):
        H1 = lemma_divisor_m5()
        H2 = MDivisor(5, {Subset.from_labels([1, 2], 5): Fraction(2, 3), Subset.from_labels([4], 5): Fraction(-1, 5)})
        partitions = list(enumerate_four_partitions(5))
        first = [f_curve_value(H1, P) for P in partitions]
        assert first == [-1] * 10
        assert [f_curve_value(H2, P) for P in partitions] == [reference_f_value(H2, P) for P in partitions]
        assert [f_curve_value(H1, P) for P in partitions] == first
        assert [f_curve_value(H1 + H2, P) for P in partitions] == [
            reference_f_value(H1 + H2, P) for P in partitions
        ]


class TestFPositivity:
    def test_lemma_divisor_anti_ample(self):
        decision = f_positivity(lemma_divisor_m5(), "negative")
        assert decision.verdict is Verdict.POSITIVE
        assert decision.witness is None

    def test_canonical_alone_fails_with_zero_value_witness(self):
        H = pullback_alpha(canonical_class(4))
        decision = f_positivity(H, "negative")
        assert decision.verdict is Verdict.NOT_POSITIVE
        assert decision.witness_value == 0
        # the violating stratum keeps label 5 in a block of its own
        assert shape_of(decision.witness, 5).special_part_size == 1
        assert shape_of(decision.witness, 5).sizes == (1, 1, 1, 2)

    def test_zero_divisor_never_strictly_positive(self):
        for sense in ("positive", "negative"):
            decision = f_positivity(MDivisor(5, {}), sense)
            assert decision.verdict is Verdict.NOT_POSITIVE
            assert decision.witness_value == 0

    def test_all_witnesses_listed_in_order(self):
        H = pullback_alpha(canonical_class(4))
        decision = f_positivity(H, "negative", all_witnesses=True)
        assert len(decision.violations) == 6
        assert decision.violations[0].partition == decision.witness
        order = [scan_order_key(v.partition) for v in decision.violations]
        assert order == sorted(order)
        assert all(v.value == 0 for v in decision.violations)

    def test_undecided_beyond_known_range(self):
        keys = {
            Subset(mask, 8): Fraction(1)
            for mask in range(1, (1 << 8) - 1)
            if 0 < Subset(mask, 8).size < 8
        }
        H = MDivisor(8, keys)  # every F-value is 3 - 4 = -1
        decision = f_positivity(H, "negative")
        assert decision.verdict is Verdict.POSITIVE_BUT_UNDECIDED

    def test_antisymmetry_of_sense(self):
        for H in (lemma_divisor_m5(), pullback_alpha(canonical_class(4))):
            neg = f_positivity(H, "negative", all_witnesses=True)
            pos = f_positivity(-H, "positive", all_witnesses=True)
            assert neg.verdict == pos.verdict
            assert neg.witness == pos.witness
            assert [v.partition for v in neg.violations] == [
                v.partition for v in pos.violations
            ]

    def test_first_violation_scan_stops_at_witness(self, monkeypatch):
        yielded = 0

        def counting(m):
            nonlocal yielded
            for P in enumerate_four_partitions(m):
                yielded += 1
                yield P

        monkeypatch.setattr("fcone.mcurves.enumerate_four_partitions", counting)
        H = pullback_alpha(BoundaryCombo.of(9, {4: 1}).to_divisor(K=True))
        decision = f_positivity(H, "negative")
        assert decision.verdict is Verdict.NOT_POSITIVE
        position = list(enumerate_four_partitions(10)).index(decision.witness) + 1
        assert yielded == position

    def test_too_few_markings_rejected(self):
        with pytest.raises(ValueError):
            f_positivity(MDivisor(3, {(1,): -1}), "positive")


def reference_violations(H, sense, all_witnesses):
    """The scan written with plain ``Fraction`` comparisons against 0."""
    hits = []
    for P in enumerate_four_partitions(H.m):
        v = reference_f_value(H, P)
        if not (v > 0 if sense == "positive" else v < 0):
            hits.append((P, v))
            if not all_witnesses:
                break
    return hits


def small_mdivisor(rng, m):
    """Coefficients in -2..2 over denominators 1, 2, 3, 4, 6 on a few keys,
    so that F-values of 0 and of either sign are common."""
    coeffs = {}
    for _ in range(rng.randint(0, 8)):
        S = Subset(rng.randint(1, (1 << m) - 2), m)
        coeffs[S] = coeffs.get(S, 0) + Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3, 4, 6)))
    return MDivisor(m, coeffs)


class TestSignTestExactness:
    def test_matches_fraction_comparison_reference(self):
        rng = random.Random(14)
        values = set()
        for m in (5, 6, 7, 8):
            for _ in range(12):
                H = small_mdivisor(rng, m)
                values.update(reference_f_value(H, P) for P in enumerate_four_partitions(m))
                for sense, all_witnesses in itertools.product(("positive", "negative"), (False, True)):
                    decision = f_positivity(H, sense, all_witnesses=all_witnesses)
                    hits = reference_violations(H, sense, all_witnesses)
                    assert (decision.verdict is Verdict.NOT_POSITIVE) == bool(hits)
                    if hits:
                        assert (decision.witness, decision.witness_value) == hits[0]
                    got = [(v.partition, v.value) for v in decision.violations]
                    assert got == (hits if all_witnesses else [])
        # the sample reaches zero, both signs and a non-integer value
        assert 0 in values and min(values) < 0 < max(values)
        assert any(v.denominator > 1 for v in values)

    def test_all_witness_scan_peak_memory(self):
        # one slotted FValue and FourPartition per violation: 7.4 MiB, against
        # 10.0 MiB when both carried an instance dict
        H = MDivisor(10, {})
        tracemalloc.start()
        try:
            decision = f_positivity(H, "negative", all_witnesses=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(decision.violations) == 34105  # S(10, 4)
        assert peak / 2**20 < 8.5
