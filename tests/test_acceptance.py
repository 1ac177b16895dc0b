"""Acceptance battery. One test per criterion, every assertion exact
(rational arithmetic, zero tolerance); run with -v for a line per
criterion."""

import itertools
import random
from fractions import Fraction

import pytest

from combinat_reference import (
    coefficient,
    relabel_divisor,
    relabel_partition,
    scaled_class,
    shape_of,
)
from oracle_lp import (
    as_triples,
    brute_force_strict_feasible,
    check_infeasibility_certificate,
)

from fcone.cli import EXIT_OK, main
from fcone.combinat import Subset, canonical_key, enumerate_four_partitions
from fcone.kmaps import (
    BoundaryCombo,
    boundary_keys,
    canonical_class,
    pullback_alpha,
    pullback_beta,
)
from fcone.logfano import (
    Bounds,
    LinearForm,
    WitnessVerdict,
    generate_constraints,
    solve_feasibility,
    verify_witness,
)
from fcone.mcurves import MDivisor, f_curve_value
from fcone.strata import phi_divisor_map


def test_criterion_1_log_fano_witness_on_four_points():
    report = verify_witness(4, {4: 1})
    assert report.verdict is WitnessVerdict.VERIFIED
    values = [
        f_curve_value(pullback_alpha(BoundaryCombo.of(4, {4: 1}).to_divisor(K=True)), P)
        for P in enumerate_four_partitions(5)
    ]
    assert len(values) == 10
    assert all(v == Fraction(-1) for v in values)
    assert report.f_min == report.f_max == Fraction(-1)
    assert report.beta_degree == Fraction(-6)
    print("CRITERION 1 PASS: n=4 witness verified, 10 F-values = -1, degree -6")


def test_criterion_2_log_fano_witness_on_five_points():
    combo = {2: Fraction(1, 4), 4: Fraction(1, 4), 5: Fraction(1)}
    report = verify_witness(5, combo)
    assert report.verdict is WitnessVerdict.VERIFIED
    H = pullback_alpha(BoundaryCombo.of(5, combo).to_divisor(K=True))
    values = [f_curve_value(H, P) for P in enumerate_four_partitions(6)]
    assert len(values) == 65
    assert all(v == Fraction(-1, 4) for v in values)
    assert report.f_min == report.f_max == Fraction(-1, 4)
    assert report.beta_degree == Fraction(-33, 4)
    print("CRITERION 2 PASS: n=5 witness verified, 65 F-values = -1/4, degree -33/4")


def test_criterion_3_six_point_obstruction():
    forms = generate_constraints(6, reduced=True)
    shape_forms = forms[:-1]
    listed = [
        LinearForm.of(-1, {2: 3, 3: -1}),
        LinearForm.of(0, {3: 2, 4: -1}),
        LinearForm.of(2, {4: 3, 2: -3, 6: -1}),
    ]
    for form in listed:
        assert shape_forms.count(form) == 1

    bounds = Bounds.of(lower={4: 0}, upper={6: 1})
    for system in (listed, forms):
        res = solve_feasibility(system, bounds)
        assert not res.feasible
        # independent substitution check of the multiplier certificate
        assert check_infeasibility_certificate(as_triples(res.forms), res.multipliers)
    print("CRITERION 3 PASS: the three listed forms appear; system infeasible "
          "under a4>=0, a6<=1 with a validated certificate")


def _expected_alpha_coefficient(n, T):
    # side of the pair {T, T^c} avoiding the extra label n+1
    R = T.complement() if T.mask >> n & 1 else T
    if R.size == n:
        return Fraction(n - 2)
    if 3 <= R.size <= n - 1:
        return Fraction(R.size - 2)
    return Fraction(0)


def test_criterion_4_pullback_regressions():
    for n in range(3, 9):
        K = canonical_class(n)
        for i in range(1, n + 1):
            assert pullback_beta(K, i) == -(2 * n - 3)
    for n in range(3, 8):
        pulled = pullback_alpha(canonical_class(n))
        m = n + 1
        for mask in range(1, (1 << m) - 1):
            T = Subset(mask, m)
            assert coefficient(pulled, T) == _expected_alpha_coefficient(n, T)
    print("CRITERION 4 PASS: line-section degrees -(2n-3) for n=3..8 and the "
          "curve-side closed formula for n=3..7")


def test_criterion_4_degenerate_two_point_degree():
    # with two markings the complement-of-a-point key does not exist, so the
    # degree is the bare L-coefficient; the -(2n-3) closed form needs n >= 3
    assert pullback_beta(canonical_class(2), 1) == -2
    assert pullback_beta(canonical_class(2), 2) == -2


@pytest.mark.xfail(
    strict=True,
    reason="the closed form -(2n-3) does not extend to n=2, where the "
    "size-(n-1) boundary key is absent and the true degree is -2",
)
def test_criterion_4_closed_form_does_not_reach_two_points():
    assert pullback_beta(canonical_class(2), 1) == -(2 * 2 - 3)


def test_criterion_5_six_point_coefficient_table():
    rng = random.Random(61803)

    def rand_rational():
        return Fraction(rng.randint(-12, 12), rng.randint(1, 8))

    for _ in range(10):
        a = {s: rand_rational() for s in range(2, 7)}
        H = pullback_alpha(BoundaryCombo.of(6, a).to_divisor(K=True))
        for mask in range(1, (1 << 7) - 1):
            T = Subset(mask, 7)
            # the side of {T, T^c} avoiding label 7 classifies the table row:
            # a pair containing 7 is the same key as a 5-subset avoiding it
            R = T.complement() if T.mask >> 6 & 1 else T
            if R.size == 1:
                expected = Fraction(0)
            elif R.size == 2:
                expected = a[2]
            elif R.size == 3:
                expected = 1 + a[3]
            elif R.size == 4:
                expected = 2 + a[4]
            elif R.size == 5:
                expected = 3 + a[5]
            else:
                expected = 4 + a[6]
            assert coefficient(H, T) == expected
    print("CRITERION 5 PASS: six-point coefficient table matches at 10 random "
          "rational points")


def _random_divisor(rng, m):
    coeffs = {}
    for _ in range(rng.randint(1, 6)):
        mask = rng.randint(1, (1 << m) - 2)
        coeffs[Subset(mask, m)] = coeffs.get(Subset(mask, m), Fraction(0)) + Fraction(
            rng.randint(-6, 6), rng.randint(1, 4)
        )
    return MDivisor(m, coeffs)


def test_criterion_6_property_battery():
    rng = random.Random(271828)

    # complement identification, exhaustively for m = 4..7
    for m in range(4, 8):
        H = _random_divisor(rng, m)
        for mask in range(1, (1 << m) - 1):
            S = Subset(mask, m)
            key = canonical_key(S)
            assert canonical_key(key) == key
            assert canonical_key(S.complement()) == key
            assert coefficient(H, S) == coefficient(H, S.complement())

    # symmetric-group equivariance of the intersection form
    for m in (5, 6):
        partitions = list(enumerate_four_partitions(m))
        for _ in range(15):
            H = _random_divisor(rng, m)
            sigma = list(range(1, m + 1))
            rng.shuffle(sigma)
            P = partitions[rng.randrange(len(partitions))]
            assert f_curve_value(relabel_divisor(H, sigma), relabel_partition(P, sigma)) == f_curve_value(H, P)

    # linearity of the intersection form and of both pullbacks
    partitions6 = list(enumerate_four_partitions(6))
    for _ in range(15):
        H1, H2 = _random_divisor(rng, 6), _random_divisor(rng, 6)
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        P = partitions6[rng.randrange(len(partitions6))]
        lhs = f_curve_value(scaled_class(a, H1) + scaled_class(b, H2), P)
        assert lhs == a * f_curve_value(H1, P) + b * f_curve_value(H2, P)
    for _ in range(10):
        combos = [
            BoundaryCombo.of(
                5,
                {
                    s: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    for s in range(2, 6)
                },
            ).to_divisor()
            for _ in range(2)
        ]
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        b = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        G = scaled_class(a, combos[0]) + scaled_class(b, combos[1])
        alphas = [scaled_class(c, pullback_alpha(D)) for c, D in zip((a, b), combos)]
        assert pullback_alpha(G) == alphas[0] + alphas[1]
        for i in (1, 3, 5):
            assert pullback_beta(G, i) == a * pullback_beta(
                combos[0], i
            ) + b * pullback_beta(combos[1], i)

    # shape constancy of symmetric divisors, full enumeration for n = 4..6
    for n in (4, 5, 6):
        a = {s: Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for s in range(2, n + 1)}
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        K = scaled_class(c, canonical_class(n))
        H = pullback_alpha(K + BoundaryCombo.of(n, a).to_divisor())
        by_shape = {}
        for P in enumerate_four_partitions(n + 1):
            sh = shape_of(P, n + 1)
            v = f_curve_value(H, P)
            assert by_shape.setdefault(sh, v) == v

    # reduced constraint systems agree with deduplicated full systems
    for n in (3, 4, 5, 6):
        assert set(generate_constraints(n, reduced=True)) == set(
            generate_constraints(n, reduced=False)
        )

    # solver vs brute-force rational-vertex oracle on 200 random systems
    outcomes = {True: 0, False: 0}
    for _ in range(200):
        nvars = rng.choice([2, 2, 3])
        variables = list(range(2, 2 + nvars))
        forms = []
        for _ in range(rng.randint(2, 5)):
            coeffs = {
                s: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for s in variables
            }
            forms.append(
                LinearForm.of(
                    Fraction(rng.randint(-4, 4), rng.randint(1, 2)),
                    {s: q for s, q in coeffs.items() if q},
                    strict=rng.random() < 0.7,
                )
            )
        res = solve_feasibility(forms, Bounds.box(variables, -2, 2))
        triples = as_triples(res.forms)
        assert res.feasible == brute_force_strict_feasible(triples)
        assert res.check()
        if res.feasible:
            assert all(f.satisfied_by(res.point) for f in res.forms)
        else:
            assert check_infeasibility_certificate(triples, res.multipliers)
        outcomes[res.feasible] += 1
    assert outcomes[True] >= 30 and outcomes[False] >= 30
    print("CRITERION 6 PASS: identification/equivariance/linearity/shape "
          f"properties and {sum(outcomes.values())} solver-vs-oracle systems "
          f"({outcomes[True]} feasible, {outcomes[False]} infeasible)")


def test_criterion_7_strata_coverage():
    for n in range(2, 9):
        corr = phi_divisor_map(n)
        expected = sum(
            len(list(itertools.combinations(range(1, n + 1), s)))
            for s in range(2, n + 1)
        )
        assert len(corr.pairs) == expected == 2**n - n - 1
        assert [b for _, b in corr.pairs] == list(boundary_keys(n))
    print("CRITERION 7 PASS: full boundary coverage for n=2..8")


def test_criterion_8_scope_honesty(capsys):
    code = main(["lemmas"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    # the finite-generation consequence is labelled as cited, never recomputed
    assert "cited" in out
    assert "not recomputed" in out
    print("CRITERION 8 PASS: certificates asserted, downstream conclusion "
          "labelled as cited")
