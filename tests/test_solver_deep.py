"""The solver on the larger orbit-reduced systems: certificates pinned byte
for byte at n = 10 and 11, and the memory a unit-box solve may take."""

import hashlib
import json
import tracemalloc

import pytest

from fcone.logfano import Bounds, generate_constraints, solve_feasibility


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


@pytest.mark.parametrize("n, limit_mib", [(9, 7.5), (11, 9.0)])
def test_unit_box_solve_peak_memory(n, limit_mib):
    # kept rows hold their two parent rows, not a multiplier dict each; with
    # per-row dicts the peaks were 8.8 MiB (n = 9) and 10.7 MiB (n = 11)
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
