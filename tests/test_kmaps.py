"""Stable-map divisors: symmetric classes, canonical class, the two
pullbacks, and the combined ampleness decision."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from combinat_reference import scaled_class, shape_of

from fcone.combinat import Subset, enumerate_four_partitions
from fcone.kmaps import (
    MAX_KEY_LABELS,
    BoundaryCombo,
    KDivisor,
    boundary_keys,
    canonical_class,
    chs_ample,
    pullback_alpha,
    pullback_beta,
)
from fcone.mcurves import MDivisor, Verdict, f_curve_value

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=8)


def explicit_json(n, l, b):
    """The explicit {"n","L","B"} JSON form of the class with these maps."""
    return {
        "n": n,
        "L": {str(i): str(q) for i, q in l.items()},
        "B": {str(S): str(q) for S, q in b.items()},
    }


def kdivisors(n):
    labels = st.integers(1, n)
    keys = st.sampled_from(list(boundary_keys(n)))
    return st.builds(
        KDivisor,
        st.just(n),
        st.dictionaries(labels, rationals, max_size=3),
        st.dictionaries(keys, rationals, max_size=5),
    )


class TestBuilders:
    def test_single_top_key(self):
        H = BoundaryCombo.of(4, {4: 1}).to_divisor()
        assert H.b_coeffs == {Subset.from_labels([1, 2, 3, 4], 4): Fraction(1)}

    def test_symmetric_level_expansion(self):
        H = BoundaryCombo.of(4, {2: 1}).to_divisor()
        assert len(H.b_coeffs) == 6
        assert all(q == 1 for q in H.b_coeffs.values())
        assert all(S.size == 2 for S in H.b_coeffs)

    def test_explicit_b_coefficients(self):
        H = KDivisor(4, {}, {(1, 2): "1/2"})
        assert H.b_coefficient([1, 2]) == Fraction(1, 2)
        assert H.b_coefficient([3, 4]) == 0  # raw keys: no complement identification

    def test_out_of_range_levels_rejected(self):
        with pytest.raises(ValueError):
            BoundaryCombo.of(4, {5: 1})
        with pytest.raises(ValueError):
            BoundaryCombo.of(4, {1: 1})

    def test_combo_accessors(self):
        combo = BoundaryCombo.of(5, {2: "1/4", 4: "1/4", 5: 1})
        assert dict(combo.a) == {2: Fraction(1, 4), 4: Fraction(1, 4), 5: 1}
        assert str(combo) == "a2=1/4,a4=1/4,a5=1"

    def test_mixed_n_refused_by_the_shared_combine(self):
        with pytest.raises(ValueError, match="mixed n: 4 vs 5"):
            KDivisor(4, {}, {}) + KDivisor(5, {}, {})


class TestToDivisorWithK:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_one_pass_equals_the_operator_sum(self, n):
        rng = random.Random(n)
        sizes = list(range(2, n + 1))
        combos = [{}, {s: 2 - s for s in sizes}]  # a_s = 2 - s cancels K's B-coefficient
        for k in range(1, min(n - 1, 3) + 1):
            levels = rng.sample(sizes, k)
            combos.append({s: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for s in levels})
        for a in combos:
            combo = BoundaryCombo.of(n, a)
            H = combo.to_divisor(K=True)
            assert H == canonical_class(n) + combo.to_divisor()
            assert H.l_coeffs == {i: -2 for i in range(1, n + 1)}
            levels = dict(combo.a)
            expected = {S: S.size - 2 + levels.get(S.size, 0) for S in boundary_keys(n)}
            assert H.b_coeffs == {S: q for S, q in expected.items() if q}
        assert BoundaryCombo.of(n, combos[1]).to_divisor(K=True).b_coeffs == {}


class TestCanonicalClass:
    def test_n4(self):
        K = canonical_class(4)
        assert K.l_coeffs == {i: -2 for i in range(1, 5)}
        for labels in itertools.combinations(range(1, 5), 3):
            assert K.b_coefficient(labels) == 1
        assert K.b_coefficient([1, 2, 3, 4]) == 2
        assert K.b_coefficient([1, 2]) == 0

    def test_n5_coefficients(self):
        K = canonical_class(5)
        sizes = {S.size: q for S, q in K.b_coeffs.items()}
        assert sizes == {3: 1, 4: 2, 5: 3}
        assert set(K.l_coeffs.values()) == {Fraction(-2)}

    def test_small_n(self):
        assert canonical_class(3).b_coeffs == {
            Subset.from_labels([1, 2, 3], 3): Fraction(1)
        }
        assert canonical_class(2).b_coeffs == {}
        assert canonical_class(2).l_coeffs == {1: Fraction(-2), 2: Fraction(-2)}
        with pytest.raises(ValueError):
            canonical_class(0)


class TestPullbackAlpha:
    def test_top_boundary_becomes_minus_psi(self):
        pulled = pullback_alpha(BoundaryCombo.of(4, {4: 1}).to_divisor())
        assert pulled == MDivisor(5, {Subset.from_labels([5], 5): Fraction(1)})

    def test_canonical_class_formula(self):
        pulled = pullback_alpha(canonical_class(4))
        # nothing else: 4 pair-keys containing 5, plus the singleton
        expected = {(5,): 2, **dict.fromkeys(itertools.combinations(range(1, 5), 3), 1)}
        assert pulled == MDivisor(5, expected)

    def test_line_classes_die(self):
        L = KDivisor(5, {i: 1 for i in range(1, 6)}, {})
        assert pullback_alpha(L) == MDivisor(6, {})

    def test_needs_three_markings(self):
        with pytest.raises(ValueError):
            pullback_alpha(canonical_class(2))

    @given(st.tuples(kdivisors(5), kdivisors(5), rationals, rationals))
    @settings(max_examples=50)
    def test_linearity(self, args):
        H, G, a, b = args
        lhs = pullback_alpha(scaled_class(a, H) + scaled_class(b, G))
        rhs = scaled_class(a, pullback_alpha(H)) + scaled_class(b, pullback_alpha(G))
        assert lhs == rhs


class TestPullbackBeta:
    def test_canonical_class_degrees(self):
        assert pullback_beta(canonical_class(4), 1) == -5
        for n in range(3, 9):
            for i in range(1, n + 1):
                assert pullback_beta(canonical_class(n), i) == -(2 * n - 3)

    def test_degenerate_two_markings(self):
        # only the full-set key contributes at n=2, so the degree is the
        # L-coefficient alone: -2 for the canonical class
        assert pullback_beta(canonical_class(2), 1) == -2
        assert pullback_beta(BoundaryCombo.of(2, {2: 1}).to_divisor(), 1) == -1

    def test_lemma_values(self):
        H4 = BoundaryCombo.of(4, {4: 1}).to_divisor(K=True)
        assert pullback_beta(H4, 2) == -6
        D = BoundaryCombo.of(5, {2: "1/4", 4: "1/4", 5: 1}).to_divisor()
        assert pullback_beta(canonical_class(5) + D, 3) == Fraction(-33, 4)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            pullback_beta(canonical_class(4), 5)

    @given(st.tuples(kdivisors(4), kdivisors(4), rationals, rationals))
    @settings(max_examples=50)
    def test_linearity(self, args):
        H, G, a, b = args
        combined = scaled_class(a, H) + scaled_class(b, G)
        for i in range(1, 5):
            assert pullback_beta(combined, i) == a * pullback_beta(
                H, i
            ) + b * pullback_beta(G, i)

    @given(st.dictionaries(st.integers(2, 5), rationals, max_size=4), rationals)
    @settings(max_examples=50)
    def test_symmetric_divisors_have_constant_degree(self, a, c):
        H = scaled_class(c, canonical_class(5)) + BoundaryCombo.of(5, a).to_divisor()
        degrees = {d for _, d in chs_ample(H).beta}
        assert len(degrees) == 1
        expected = -c * 7 - Fraction(a.get(5, 0)) - Fraction(a.get(4, 0))
        assert degrees == {expected}


class TestShapeConstancy:
    @given(st.dictionaries(st.integers(2, 5), rationals, max_size=4), rationals)
    @settings(max_examples=25, deadline=None)
    def test_f_values_depend_only_on_shape(self, a, c):
        H = scaled_class(c, canonical_class(5)) + BoundaryCombo.of(5, a).to_divisor()
        pulled = pullback_alpha(H)
        by_shape = {}
        for P in enumerate_four_partitions(6):
            v = f_curve_value(pulled, P)
            sh = shape_of(P, 6)
            assert by_shape.setdefault(sh, v) == v


class TestChsAmple:
    def test_first_lemma_verified(self):
        H = BoundaryCombo.of(4, {4: 1}).to_divisor(K=True)
        decision = chs_ample(H)
        assert decision.verdict is Verdict.POSITIVE
        assert decision.alpha.verdict is Verdict.POSITIVE
        assert dict(decision.beta) == {i: Fraction(-6) for i in range(1, 5)}

    def test_second_lemma_verified(self):
        D = BoundaryCombo.of(5, {2: "1/4", 4: "1/4", 5: 1}).to_divisor()
        decision = chs_ample(canonical_class(5) + D)
        assert decision.verdict is Verdict.POSITIVE

    def test_canonical_alone_refuted_on_the_curve_side(self):
        decision = chs_ample(canonical_class(4))
        assert decision.verdict is Verdict.NOT_POSITIVE
        assert dict(decision.beta) == {i: Fraction(-5) for i in range(1, 5)}  # all < 0, fine
        assert decision.alpha.witness_value == 0

    def test_undecided_beyond_known_range(self):
        # built from an unconstrained solve: every F-value is negative but
        # the 8-marking curve side cannot be promoted to anti-ampleness
        combo = {
            2: Fraction(-6313, 5040),
            3: Fraction(-1321, 420),
            4: Fraction(-482, 105),
            5: Fraction(-293, 63),
            6: Fraction(-209, 42),
            7: Fraction(-31, 6),
        }
        H = canonical_class(7) + BoundaryCombo.of(7, combo).to_divisor()
        decision = chs_ample(H)
        assert decision.verdict is Verdict.POSITIVE_BUT_UNDECIDED
        assert decision.alpha.verdict is Verdict.POSITIVE_BUT_UNDECIDED


class TestJson:
    def test_round_trip(self):
        # K_5 + B[2]/4: L_i at -2, B_S at |S| - 2, and 1/4 on the pairs
        l = {i: -2 for i in range(1, 6)}
        b = {S: S.size - 2 + Fraction(S.size == 2, 4) for S in boundary_keys(5)}
        H = BoundaryCombo.of(5, {2: "1/4"}).to_divisor(K=True)
        assert KDivisor.from_json_dict(explicit_json(5, l, b)) == H == KDivisor(5, l, b)

    def test_combo_shorthand(self):
        data = {"n": 5, "K": True, "a": {"2": "1/4", "4": "1/4", "5": "1"}}
        combo = BoundaryCombo.of(5, {2: "1/4", 4: "1/4", 5: 1})
        expected = canonical_class(5) + combo.to_divisor()
        assert KDivisor.from_json_dict(data) == expected

    def test_combo_shorthand_without_k(self):
        data = {"n": 4, "a": {"2": "1"}}
        assert KDivisor.from_json_dict(data) == BoundaryCombo.of(4, {2: 1}).to_divisor()

    def test_bad_json_rejected(self):
        with pytest.raises(ValueError):
            KDivisor.from_json_dict({"L": {"1": "1"}})
        with pytest.raises(ValueError):
            KDivisor.from_json_dict({"n": 4, "B": {"1": "1"}})

    @given(
        st.dictionaries(st.integers(1, 5), rationals, max_size=3),
        st.dictionaries(st.sampled_from(list(boundary_keys(5))), rationals, max_size=5),
    )
    @settings(max_examples=60)
    def test_round_trip_random(self, l, b):
        assert KDivisor.from_json_dict(explicit_json(5, l, b)) == KDivisor(5, l, b)


class TestBoundaryKeys:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_count(self, n):
        assert len(list(boundary_keys(n))) == 2**n - n - 1

    @pytest.mark.parametrize("n", range(13))
    def test_print_order_without_a_sort(self, n):
        brute = [Subset(mask, n) for mask in range(1 << n) if mask.bit_count() >= 2]
        assert list(boundary_keys(n)) == sorted(brute, key=Subset.sort_key)

    def test_too_many_keys_refused_on_the_call(self):
        assert next(boundary_keys(MAX_KEY_LABELS)) == Subset.from_labels([1, 2], MAX_KEY_LABELS)
        n = MAX_KEY_LABELS + 1
        with pytest.raises(ValueError, match=rf"2\^{n} - {n} - 1 B-keys"):
            boundary_keys(n)

    @pytest.mark.parametrize("K", [False, True])
    def test_huge_class_refused_before_anything_of_size_n(self, K):
        n = 10**9
        with pytest.raises(ValueError, match=rf"2\^{n} - {n} - 1 B-keys"):
            BoundaryCombo.of(n, {2: 1}).to_divisor(K)

    def test_raw_sides_are_distinct_keys(self):
        keys = list(boundary_keys(4))
        assert Subset.from_labels([1, 2], 4) in keys
        assert Subset.from_labels([3, 4], 4) in keys
