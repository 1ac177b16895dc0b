"""Constraint generation, the exact feasibility solver and its
certificates, witness verification and search."""

import random
from fractions import Fraction

import pytest

from oracle_lp import (
    as_triples,
    brute_force_strict_feasible,
    check_infeasibility_certificate,
)

from fcone.combinat import enumerate_four_partitions
from fcone.kmaps import BoundaryCombo, pullback_alpha
from fcone.logfano import (
    Bounds,
    FeasibilityResult,
    LinearForm,
    WitnessVerdict,
    generate_constraints,
    search_witness,
    solve_feasibility,
    verify_witness,
)
from fcone.mcurves import f_curve_value

# the three binding constraints of the six-marked-point obstruction
FORM_I = LinearForm.of(-1, {2: 3, 3: -1})
FORM_II = LinearForm.of(0, {3: 2, 4: -1})
FORM_III = LinearForm.of(2, {2: -3, 4: 3, 6: -1})


class TestLinearForm:
    def test_zero_coefficients_dropped(self):
        f = LinearForm.of(1, {2: 0, 3: 1})
        assert f.coeffs == ((3, Fraction(1)),)

    def test_evaluate_and_satisfy(self):
        f = LinearForm.of(-1, {2: 3, 3: -1})
        point = {2: Fraction(1, 3), 3: Fraction(1)}
        assert f.evaluate(point) == -1
        assert f.satisfied_by(point)
        assert not f.satisfied_by({2: Fraction(1)})  # 3 - 0 - 1 = 2

    def test_strictness_at_zero(self):
        f = LinearForm.of(0, {2: 1}, strict=True)
        g = LinearForm.of(0, {2: 1}, strict=False)
        assert not f.satisfied_by({2: Fraction(0)})
        assert g.satisfied_by({2: Fraction(0)})

    def test_str(self):
        assert str(FORM_I) == "3*a2 - a3 - 1 < 0"
        assert str(LinearForm.of(0, {}, strict=False)) == "0 <= 0"

    def test_hashable_for_dedup(self):
        assert len({FORM_I, LinearForm.of(-1, {2: 3, 3: -1}), FORM_II}) == 2


class TestBounds:
    def test_forms(self):
        b = Bounds.of(lower={4: 0}, upper={6: 1})
        forms = b.forms()
        assert LinearForm.of(0, {4: -1}, strict=False) in forms
        assert LinearForm.of(-1, {6: 1}, strict=False) in forms
        assert all(not f.strict for f in forms)

    def test_box(self):
        b = Bounds.box([2, 3], 0, 1)
        assert len(b.forms()) == 4
        assert str(b) == "a2>=0,a3>=0,a2<=1,a3<=1"


class TestGenerateConstraints:
    def test_six_point_obstruction_forms_present(self):
        forms = generate_constraints(6, reduced=True)
        shape_forms = forms[:-1]
        for expected in (FORM_I, FORM_II, FORM_III):
            assert expected in shape_forms
        assert len(forms) == 8  # 7 orbit shapes + the degree form

    def test_degree_form(self):
        forms = generate_constraints(6, reduced=True)
        assert forms[-1] == LinearForm.of(-9, {5: -1, 6: -1})

    def test_three_point_system(self):
        forms = generate_constraints(3, reduced=True)
        assert forms == [
            LinearForm.of(-1, {2: 3, 3: -1}),
            LinearForm.of(-3, {2: -1, 3: -1}),
        ]

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_reduced_equals_deduplicated_full(self, n):
        assert set(generate_constraints(n, reduced=True)) == set(
            generate_constraints(n, reduced=False)
        )

    def test_full_count(self):
        assert len(generate_constraints(5, reduced=False)) == 65 + 1

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            generate_constraints(2)


class TestSolver:
    def test_empty_system_feasible_at_zero_point(self):
        res = solve_feasibility([])
        assert res.feasible and res.point == {}
        assert res.check()

    def test_constant_contradiction(self):
        res = solve_feasibility([LinearForm.of(1, {})])
        assert not res.feasible
        assert res.multipliers == (Fraction(1),)
        assert res.check()

    def test_zero_strict_contradiction(self):
        res = solve_feasibility([LinearForm.of(0, {}, strict=True)])
        assert not res.feasible and res.check()

    def test_opposed_strict_pair_infeasible(self):
        res = solve_feasibility(
            [LinearForm.of(0, {2: 1}), LinearForm.of(0, {2: -1})]
        )
        assert not res.feasible and res.check()

    def test_point_respects_strictness(self):
        # 0 <= x and x < 1 and 1 - x <= x  =>  x in [1/2, 1)
        forms = [
            LinearForm.of(0, {2: -1}, strict=False),
            LinearForm.of(-1, {2: 1}, strict=True),
            LinearForm.of(1, {2: -2}, strict=False),
        ]
        res = solve_feasibility(forms)
        assert res.feasible and res.check()
        assert Fraction(1, 2) <= res.point[2] < 1

    def test_pinned_value(self):
        forms = [
            LinearForm.of(-1, {3: 1}, strict=False),   # x <= 1
            LinearForm.of(1, {3: -1}, strict=False),   # x >= 1
        ]
        res = solve_feasibility(forms)
        assert res.feasible and res.point[3] == 1

    def test_obstruction_system_infeasible_with_lemma_bounds(self):
        res = solve_feasibility(
            [FORM_I, FORM_II, FORM_III], Bounds.of(lower={4: 0}, upper={6: 1})
        )
        assert not res.feasible
        assert res.check()
        assert check_infeasibility_certificate(as_triples(res.forms), res.multipliers)

    def test_obstruction_released_without_bounds(self):
        res = solve_feasibility([FORM_I, FORM_II, FORM_III])
        assert res.feasible and res.check()

    def test_tighter_bounds_stay_infeasible(self):
        base = [FORM_I, FORM_II, FORM_III]
        assert not solve_feasibility(base, Bounds.of(lower={4: 0}, upper={6: 1})).feasible
        tighter = Bounds.of(lower={4: 1}, upper={6: 0})
        assert not solve_feasibility(base, tighter).feasible

    def test_full_five_point_system_with_unit_box(self):
        forms = generate_constraints(5, reduced=False)
        res = solve_feasibility(forms, Bounds.box(range(2, 6), 0, 1))
        assert res.feasible and res.check()
        report = verify_witness(5, {s: q for s, q in res.point.items()})
        assert report.verdict is WitnessVerdict.VERIFIED

    def test_check_rejects_bad_multipliers(self):
        # x < 0, -x <= 1, 1 <= 0 (non-strict), 0 <= 0 (non-strict)
        forms = (
            LinearForm.of(0, {2: 1}),
            LinearForm.of(-1, {2: -1}, strict=False),
            LinearForm.of(1, {}, strict=False),
            LinearForm.of(0, {}, strict=False),
        )

        def checks(*lam):
            return FeasibilityResult(forms, multipliers=tuple(map(Fraction, lam))).check()

        assert checks(1, 1, 1, 0)  # sums to 0 < 0
        assert checks(0, 0, 1, 0)  # 1 <= 0
        assert not checks(1, 1, 0, 0)  # sums to -1 < 0, which holds
        assert not checks(1, 0, 0, 0)  # the a2 coefficient survives
        assert not checks(2, 1, 1, 0)  # a2 survives a mixed sum
        assert not checks(0, 0, 0, 1)  # 0 <= 0 holds
        assert not checks(1, 1, 1, -1)  # negative multiplier
        assert not checks(0, 0, 1)  # misaligned with the forms
        assert not checks(0, 0, 0, 0)

    def test_failed_certificate_self_check_raises(self, monkeypatch):
        monkeypatch.setattr(FeasibilityResult, "check", lambda self: False)
        with pytest.raises(RuntimeError, match="certificate failed to validate"):
            solve_feasibility(
                generate_constraints(6, reduced=True), Bounds.of(lower={4: 0}, upper={6: 1})
            )

    def test_certificate_json(self):
        res = solve_feasibility([FORM_I], Bounds.of(lower={2: "1/2"}, upper={3: 0}))
        data = res.to_json_dict()
        assert data["status"] == "infeasible"
        assert all(Fraction(m["lambda"]) > 0 for m in data["multipliers"])
        assert data["forms"][0] == FORM_I.to_json_dict()


def _random_system(rng):
    nvars = rng.choice([2, 2, 3])
    variables = list(range(2, 2 + nvars))
    forms = []
    for _ in range(rng.randint(2, 5)):
        coeffs = {
            s: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for s in variables
        }
        coeffs = {s: q for s, q in coeffs.items() if q}
        const = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
        forms.append(LinearForm.of(const, coeffs, strict=rng.random() < 0.7))
    bounds = Bounds.box(variables, -2, 2)
    return forms, bounds


class TestSolverAgainstOracle:
    def test_random_systems(self):
        rng = random.Random(20240817)
        outcomes = {True: 0, False: 0}
        for _ in range(120):
            forms, bounds = _random_system(rng)
            res = solve_feasibility(forms, bounds)
            triples = as_triples(res.forms)
            oracle = brute_force_strict_feasible(triples)
            assert res.feasible == oracle
            assert res.check()
            if res.feasible:
                assert all(f.satisfied_by(res.point) for f in res.forms)
            else:
                assert check_infeasibility_certificate(triples, res.multipliers)
            outcomes[res.feasible] += 1
        assert outcomes[True] >= 20 and outcomes[False] >= 20


class TestVerifyWitness:
    def test_first_lemma(self):
        report = verify_witness(4, {4: 1})
        assert report.verdict is WitnessVerdict.VERIFIED
        assert (report.f_min, report.f_max) == (-1, -1)
        assert report.beta_degree == -6
        assert report.klt_note

    def test_second_lemma(self):
        report = verify_witness(5, {2: "1/4", 4: "1/4", 5: 1})
        assert report.verdict is WitnessVerdict.VERIFIED
        assert (report.f_min, report.f_max) == (Fraction(-1, 4), Fraction(-1, 4))
        assert report.beta_degree == Fraction(-33, 4)

    def test_empty_combo_refuted(self):
        report = verify_witness(4, {})
        assert report.verdict is WitnessVerdict.REFUTED
        assert report.f_max == 0
        assert not report.klt_note
        assert "degree 0" in report.reason

    def test_coefficient_range_refutation(self):
        report = verify_witness(4, {4: 1, 2: "-1/2"})
        if report.f_max < 0 and report.beta_degree < 0:
            assert report.verdict is WitnessVerdict.REFUTED
            assert "outside [0,1]" in report.reason

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            verify_witness(2, {2: 1})

    def test_accepts_boundary_combo_instance(self):
        combo = BoundaryCombo.of(4, {4: 1})
        assert verify_witness(4, combo).verdict is WitnessVerdict.VERIFIED
        with pytest.raises(ValueError):
            verify_witness(5, combo)

    def test_extremes_match_fraction_min_max(self):
        # mixed denominators and negative coefficients, on 5..8 markings
        rng = random.Random(14)
        for n in (4, 5, 6, 7):
            for _ in range(6):
                combo = BoundaryCombo.of(n, {
                    s: Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 5, 6)))
                    for s in rng.sample(range(2, n + 1), rng.randint(0, n - 1))
                })
                A = pullback_alpha(combo.to_divisor(K=True))
                values = [f_curve_value(A, P) for P in enumerate_four_partitions(n + 1)]
                report = verify_witness(n, combo)
                assert (report.f_min, report.f_max) == (min(values), max(values))

    def test_scans_compare_no_fractions_per_partition(self, monkeypatch):
        # both scans at n = 9 run to the end (S(10, 4) = 34105 partitions
        # each); what is left are the few comparisons outside the scans
        compared = 0
        for name in ("__lt__", "__gt__"):
            original = getattr(Fraction, name)

            def counted(a, b, original=original):
                nonlocal compared
                compared += 1
                return original(a, b)

            monkeypatch.setattr(Fraction, name, counted)
        combo = {2: -1, 3: -1, 4: 0, 5: 2, 6: 6, 7: 10, 8: 17, 9: 24}
        report = verify_witness(9, combo)
        assert "outside [0,1]" in report.reason  # every F-curve inequality held
        assert (report.f_min, report.f_max) == (-4, -1)
        assert compared < 20

    def test_json_payload(self):
        data = verify_witness(4, {4: 1}).to_json_dict()
        assert data["verdict"] == "verified"
        assert data["beta_degree"] == "-6"
        assert data["combo"] == {"4": "1"}


class TestSearchWitness:
    def test_six_point_obstruction(self):
        out = search_witness(6, Bounds.of(lower={4: 0}, upper={6: 1}))
        assert not out.feasibility.feasible
        assert out.report is None
        assert out.feasibility.check()
        assert check_infeasibility_certificate(
            as_triples(out.feasibility.forms), out.feasibility.multipliers
        )

    def test_five_point_box_search_verifies(self):
        out = search_witness(5, Bounds.box(range(2, 6), 0, 1))
        assert out.feasibility.feasible
        assert out.report.verdict is WitnessVerdict.VERIFIED

    def test_four_point_box_search_verifies(self):
        out = search_witness(4, Bounds.box(range(2, 5), 0, 1))
        assert out.feasibility.feasible
        assert out.report.verdict is WitnessVerdict.VERIFIED

    def test_unbounded_search_reports_range_refutation(self):
        # anti-ampleness is achievable with large negative coefficients; the
        # point stands as a certificate but fails the boundary range check
        out = search_witness(4, None)
        assert out.feasibility.feasible
        assert out.report.verdict is WitnessVerdict.REFUTED
        assert out.report.f_max < 0 and out.report.beta_degree < 0
        assert "outside [0,1]" in out.report.reason

    def test_refused_beyond_the_b_key_bound_before_solving(self, monkeypatch):
        import fcone.logfano

        def _raise(*args, **kwargs):
            raise AssertionError("solved a system it should have refused")

        monkeypatch.setattr(fcone.logfano, "solve_feasibility", _raise)
        with pytest.raises(ValueError, match=r"2\^21 - 21 - 1 B-keys"):
            search_witness(21, Bounds.box(range(2, 22), 0, 1))

    def test_bound_on_a_missing_variable_refused_before_solving(self, monkeypatch):
        import fcone.logfano

        def _raise(*args, **kwargs):
            raise AssertionError("solved a system it should have refused")

        monkeypatch.setattr(fcone.logfano, "solve_feasibility", _raise)
        with pytest.raises(ValueError, match=r"B\[9\] does not exist on n=4"):
            search_witness(4, Bounds.of(lower={9: 1}))
        with pytest.raises(ValueError, match=r"B\[1\] does not exist on n=6"):
            search_witness(6, Bounds.of(lower={4: 0}, upper={1: 1}))

    def test_six_point_unit_box_also_infeasible(self):
        out = search_witness(6, Bounds.box(range(2, 7), 0, 1))
        assert not out.feasibility.feasible

    def test_seven_point_unbounded_is_undecidable_range(self):
        out = search_witness(7, None)
        assert out.feasibility.feasible
        assert out.report.verdict in (
            WitnessVerdict.REFUTED,  # range reason only
            WitnessVerdict.UNDECIDED,
        )
        assert out.report.f_max < 0
