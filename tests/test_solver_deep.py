"""The solver on the larger orbit-reduced systems: certificates pinned byte
for byte at n = 10 and 11, and the memory a unit-box solve may take."""

import hashlib
import json
import tracemalloc

import pytest

from fcone.logfano import Bounds, LinearForm, generate_constraints, solve_feasibility


def test_certificates_match_recorded_digest_at_n_10_and_11():
    # unit box (infeasible) and unbounded (feasible) systems, recorded with
    # the solver whose rows each carried their own multipliers
    results = []
    for n in (10, 11):
        forms = generate_constraints(n, reduced=True)
        for bounds in (Bounds.box(range(2, n + 1), 0, 1), None):
            results.append(solve_feasibility(forms, bounds))
    assert [r.feasible for r in results] == [False, True, False, True]
    payload = json.dumps([r.to_json_dict() for r in results], sort_keys=True)
    assert (
        hashlib.sha256(payload.encode()).hexdigest()
        == "24e74b89e7690af3b945dc052204a10a0fecda1306fb51b2bef74397732500d8"
    )


@pytest.mark.parametrize("n, limit_mib", [(9, 4.5), (11, 5.0)])
def test_unit_box_solve_peak_memory(n, limit_mib):
    # kept rows are one dense integer tuple, which is also their table key,
    # and hold their two parent rows, not a multiplier dict each; with a
    # sparse dict plus a sorted-items key per row the peaks were 6.0 MiB
    # (n = 9) and 7.5 MiB (n = 11), with per-row multiplier dicts on top
    # 8.8 MiB and 10.7 MiB
    forms = generate_constraints(n, reduced=True)
    bounds = Bounds.box(range(2, n + 1), 0, 1)
    tracemalloc.start()
    try:
        result = solve_feasibility(forms, bounds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not result.feasible
    assert peak / 2**20 < limit_mib


@pytest.mark.parametrize(
    "forms, feasible",
    [
        # a3 + a1000000 < 2, a3 > 1/2, a1000000 >= 0
        (
            [
                LinearForm.of(-2, {3: 1, 1000000: 1}),
                LinearForm.of("1/2", {3: -1}),
                LinearForm.of(0, {1000000: -1}, strict=False),
            ],
            True,
        ),
        # a3 + a1000000 > 1 with a3 <= 1/2 and a1000000 <= 1/2
        (
            [
                LinearForm.of(1, {3: -1, 1000000: -1}),
                LinearForm.of("-1/2", {3: 1}, strict=False),
                LinearForm.of("-1/2", {1000000: 1}, strict=False),
            ],
            False,
        ),
    ],
)
def test_sparse_variable_indices_take_one_column_each(forms, feasible):
    # two variables far apart make two columns, not a million: one
    # million-entry row alone would take 8 MB
    tracemalloc.start()
    try:
        result = solve_feasibility(forms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert result.feasible is feasible
    assert result.check()
    if feasible:
        assert set(result.point) == {3, 1000000}
    else:
        assert all(x > 0 for x in result.multipliers)
