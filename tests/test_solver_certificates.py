"""The feasibility solver's certificates, pinned byte for byte, and the
exactness and self-check of the points it returns."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from oracle_lp import as_triples, check_infeasibility_certificate
from test_logfano import _random_system

from fcone.logfano import (
    Bounds,
    FeasibilityResult,
    LinearForm,
    generate_constraints,
    solve_feasibility,
)


def _systems():
    for n in range(3, 10):
        forms = generate_constraints(n, reduced=True)
        yield forms, Bounds.box(range(2, n + 1), 0, 1)
        yield forms, None
    yield generate_constraints(6, reduced=True), Bounds.of(lower={4: 0}, upper={6: 1})
    rng = random.Random(7)
    for _ in range(200):
        yield _random_system(rng)


@pytest.fixture(scope="module")
def results():
    return [solve_feasibility(f, b) for f, b in _systems()]


def test_certificates_match_recorded_digest(results):
    # unit boxes and unbounded systems for n = 3..9, the six-point lemma and
    # 200 random systems: 215 systems, 128 of them feasible, recorded with the
    # Fraction-row eliminator this solver replaced
    assert len(results) == 215
    assert sum(r.feasible for r in results) == 128
    payload = json.dumps([r.to_json_dict() for r in results], sort_keys=True)
    assert (
        hashlib.sha256(payload.encode()).hexdigest()
        == "47c5d4dac8dd917b9338b7f90485e58ff57dc094a8e003624a493c2ded25db59"
    )


def _parallel_system(rng):
    # 2-4 variables and a few base directions with entries in -1..1; each
    # form is one of them times -2, -1, 1 or 2, so a row's negated multiple
    # is often present and a stage often has several all-zero combinations
    nvars = rng.randint(2, 4)
    variables = list(range(2, 2 + nvars))
    bases, k = [], rng.randint(2, 3)
    while len(bases) < k:
        v = {s: rng.randint(-1, 1) for s in variables}
        if any(v.values()):
            bases.append(v)
    forms = []
    for _ in range(rng.randint(4, 8)):
        base, mult = rng.choice(bases), rng.choice((-2, -1, 1, 2))
        const = Fraction(rng.randint(-4, 2), rng.choice((1, 1, 2)))
        coeffs = {s: mult * c for s, c in base.items()}
        forms.append(LinearForm.of(const, coeffs, strict=rng.random() < 0.5))
    bounds = rng.choice((None, Bounds.box(variables, -2, 2), Bounds.box(variables, 0, 1)))
    return forms, bounds


def test_first_contradicting_pair_fixes_the_certificate():
    # 300 systems, 200 of them infeasible; 517 of their stages have all-zero
    # combinations, 135 of those stages both holding and contradicting ones
    # and 76 more than one contradicting. Recorded with the solver that built
    # each stage's rows in pair order and stopped at the first contradiction
    rng = random.Random(1993)
    results = [solve_feasibility(*_parallel_system(rng)) for _ in range(300)]
    infeasible = [r for r in results if not r.feasible]
    assert len(infeasible) == 200
    for r in infeasible:
        assert check_infeasibility_certificate(as_triples(r.forms), r.multipliers)
    payload = json.dumps([r.to_json_dict() for r in results], sort_keys=True)
    assert (
        hashlib.sha256(payload.encode()).hexdigest()
        == "12d2c3b3f180bbd79775deeea5242290e59d3aceb3fae435c792bfe96943a465"
    )


def test_point_values_are_fractions(results):
    pinned = solve_feasibility(
        [LinearForm.of(-1, {2: 1}, strict=False), LinearForm.of(1, {2: -1}, strict=False)]
    )
    assert pinned.point == {2: 1}
    values = [v for r in [pinned, *results] if r.feasible for v in r.point.values()]
    assert values and all(type(v) is Fraction for v in values)


def test_feasible_point_self_check(monkeypatch):
    forms = generate_constraints(5, reduced=True)
    box = Bounds.box(range(2, 6), 0, 1)
    assert solve_feasibility(forms, box).feasible
    monkeypatch.setattr(FeasibilityResult, "check", lambda self: False)
    with pytest.raises(RuntimeError, match="solver point failed to validate"):
        solve_feasibility(forms, box)
