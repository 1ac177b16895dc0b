#!/usr/bin/env python3
"""Checks of the benchmark itself: the output gate counts corrupted results
as failures, the reference arithmetic agrees with the package, and the tracer
wraps every namespace and restores the originals.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)
"""

from __future__ import annotations

import copy
import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
MODS = run.load_fcone()
FC = MODS["fcone"]
import oracle as O  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _job(workload: str, pred):
    jobs = workloads.build(workload, 0, run.WORK / f"selftest-{workload}")
    return next(j for j in jobs if pred(j))


def _tally(job, raw, recorded=None):
    failures, _ = run.tally([job], 1, [raw], {}, FC, run.load_expectations(), recorded or {})
    return failures


def test_corrupted_certificate_is_a_failure():
    job = _job("unitbox-search", lambda j: j.kind == "search" and j.params["n"] == 6 and j.params["box"])
    _, _, (raw,) = run.run_pass([job], FC)
    assert raw["feasibility"]["status"] == "infeasible"
    assert _tally(job, raw) == []
    bad = copy.deepcopy(raw)
    first = bad["feasibility"]["multipliers"][0]
    first["lambda"] = str(Fraction(first["lambda"]) * 2)
    failures = _tally(job, bad)
    assert len(failures) == 1 and "certificate rejected" in failures[0][2][0]
    # a corrupted certificate inside the CLI's JSON report is caught the same way
    cli = _job("cli-mix", lambda j: j.argv == ["lemmas", "--json"])
    _, _, (out,) = run.run_pass([cli], FC)
    assert _tally(cli, out) == []
    out = dict(out, stdout=out["stdout"].replace('"lambda": "', '"lambda": "-', 1))
    assert len(_tally(cli, out)) == 1


def test_wrong_report_and_digest_are_failures():
    job = _job("verify-scan", lambda j: j.params["n"] == 7)
    _, _, (raw,) = run.run_pass([job], FC)
    assert _tally(job, raw) == []
    wrong = dict(raw, f_min=str(Fraction(raw["f_min"]) - 1))
    assert _tally(job, wrong)
    assert _tally(job, raw, {job.key_digest: "0" * 16})
    failures, _ = run.tally([job], 3, [raw], {(2, 0): {"error": "RuntimeError: boom"}}, FC, {}, {})
    assert [(p, j) for p, j, _ in failures] == [(2, 0)]


def test_reference_arithmetic_matches_package():
    for n in range(3, 8):
        got = Counter(O.form_key(O.parse_form(f.to_json_dict())) for f in FC.generate_constraints(n, reduced=True))
        assert got == Counter(map(O.form_key, O.reduced_forms(n)))
    for m in (4, 5, 6, 7):
        assert [P.block_labels() for P in FC.enumerate_four_partitions(m)] == list(O.ordered_partitions(m))
        assert len(list(O.ordered_partitions(m))) == O.stirling4(m)
    combo = {2: Fraction(1, 4), 4: Fraction(-2, 3), 6: Fraction(5)}
    H = FC.canonical_class(6) + FC.BoundaryCombo.of(6, combo).to_divisor()
    A = FC.pullback_alpha(H)
    assert FC.MDivisor.from_json_dict(O.curve_coeffs(6, combo)).coeffs == A.coeffs
    for sense in ("positive", "negative"):
        d = FC.f_positivity(A, sense, all_witnesses=True)
        assert len(d.violations) == O.violation_count(6, combo, sense)
        idx, blocks, value = O.first_violation(6, combo, sense)
        assert (str(d.witness), d.witness_value) == (O.format_partition(blocks), value)
        assert O.rank(7, blocks) == idx


def test_tracer_wraps_every_namespace_and_restores():
    originals = {(m, k): v for m, mod in MODS.items() for k, v in vars(mod).items() if callable(v)}
    check = MODS["fcone.logfano"].FeasibilityResult.check
    tracer = spans.Tracer()
    with tracer.installed(MODS):
        assert MODS["fcone.logfano"].f_curve_value is not originals["fcone.mcurves", "f_curve_value"]
        assert MODS["fcone.cli"].verify_witness is not originals["fcone.logfano", "verify_witness"]
        assert MODS["fcone.kmaps"].f_positivity is not originals["fcone.mcurves", "f_positivity"]
        FC.verify_witness(5, {2: Fraction(1, 4), 4: Fraction(1, 4), 5: 1})
        FC.enumerate_shapes(7, special=7)
    assert MODS["fcone.logfano"].FeasibilityResult.check is check
    assert all(vars(MODS[m])[k] is v for (m, k), v in originals.items())
    totals = spans.layer_totals(tracer.records())
    assert totals["logfano.verify_witness"]["calls"] == 1
    assert totals["kmaps.chs_ample"]["calls"] == 1
    assert totals["mcurves.f_curve_value"]["calls"] == 2 * O.stirling4(6)
    # two scans of S(6, 4) inside verify_witness, one of S(7, 4) for the shapes
    assert totals["combinat.enumerate_four_partitions"]["counts"]["partitions"] == 2 * O.stirling4(6) + O.stirling4(7)
    vw = totals["logfano.verify_witness"]["spans"][0]
    assert 0 <= vw.self_time <= vw.busy


def test_metric_names_match_benchmark_json():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    job = _job("unitbox-search", lambda j: j.params["n"] == 5 and j.params["box"])
    tracer = spans.Tracer()
    with tracer.installed(MODS):
        walls, cpus, _ = run.run_pass([job], FC, tracer)
    passes = [(False, walls, cpus, None), (True, walls, cpus, tracer)]
    layer = run.per_layer(passes)
    assert [m["name"] for m in bench["per_layer"]] == list(layer)
    assert all(layer[m["name"]][1] == m["unit"] for m in bench["per_layer"])
    e2e = run.end_to_end(passes, [0.1], 1.0)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == [(k, u) for k, (_, u) in e2e.items()]


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
