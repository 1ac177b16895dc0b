"""Seeded job lists for the three workloads, and the output gate each job's
result must pass.

A job is run through the public API (``fcone.verify_witness``,
``fcone.search_witness``, ``fcone.cli.main``), looked up on the module at call
time so that traced runs see the wrapped functions. Jobs never pass
``threads=``. ``check`` validates a result against the reference arithmetic in
``oracle``; ``canonical`` keeps only what any correct implementation must
print the same way (certificates and solver points are checked, not
digested, so a different solver with valid certificates still matches).
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import oracle as O

WORKLOADS = ("verify-scan", "unitbox-search", "cli-mix")

# unbounded search_witness(n) point at the seed commit: every inequality holds
PASSING_BASE = {2: -1, 3: -1, 4: 0, 5: 2, 6: 6, 7: 10, 8: 17, 9: 24}
SMALL_DENOMINATOR = [Fraction(p, q) for p, q in ((0, 1), (1, 4), (1, 3), (1, 2), (2, 3), (3, 4), (1, 1))]


@dataclass
class Job:
    kind: str  # "verify" | "search" | "cli"
    params: dict
    argv: list[str] = field(default_factory=list)

    @property
    def key(self) -> str:
        return json.dumps([self.kind, self.params, self.argv], sort_keys=True)

    @property
    def key_digest(self) -> str:
        return hashlib.sha256(self.key.encode()).hexdigest()[:16]


def _combo_text(combo: dict[int, Fraction]) -> str:
    return ",".join(f"a{s}={q}" for s, q in sorted(combo.items()))


def _combo_params(combo: dict[int, Fraction]) -> dict[str, str]:
    return {str(s): str(q) for s, q in sorted(combo.items())}


def _unit_combo(rng: random.Random, n: int) -> dict[int, Fraction]:
    """A small-denominator point of the unit box; for n >= 6 every such point
    breaks some inequality, since the unit box is infeasible there."""
    combo = {s: rng.choice(SMALL_DENOMINATOR) for s in range(2, n + 1)}
    return {s: q for s, q in combo.items() if q}


def _passing_combo(rng: random.Random, n: int) -> dict[int, Fraction]:
    base = {s: Fraction(v) for s, v in PASSING_BASE.items() if s <= n}
    step = {s: Fraction(rng.randint(-2, 2), 8) for s in base}
    for _ in range(6):
        combo = {s: base[s] + step[s] for s in base}
        if O.passes_all(n, combo):
            return {s: q for s, q in combo.items() if q}
        step = {s: q / 2 for s, q in step.items()}
    return {s: q for s, q in base.items() if q}


def _one_sided(rng: random.Random, n: int) -> tuple[dict, dict]:
    return {rng.randint(2, n): Fraction(0)}, {rng.randint(2, n): Fraction(1)}


def _search_job(n: int, lower: dict, upper: dict, box: bool = False) -> Job:
    return Job(
        "search",
        {
            "n": n,
            "lower": _combo_params(lower),
            "upper": _combo_params(upper),
            "box": box,
        },
    )


def build(workload: str, seed: int, workdir: Path) -> list[Job]:
    """The seeded job list; cli-mix also writes its divisor files."""
    rng = random.Random(f"{workload}:{seed}")
    jobs: list[Job] = []
    if workload == "verify-scan":
        # a fixed number of refuting and of passing combinations per n keeps
        # the pass length the same for every seed: refuting ones stop the
        # first scan at an early F-curve, passing ones run both scans to the end
        for n, count in ((7, 6), (8, 2), (9, 2)):
            for k in range(count):
                combo = _unit_combo(rng, n) if k % 2 == 0 else _passing_combo(rng, n)
                jobs.append(Job("verify", {"n": n, "combo": _combo_params(combo)}))
    elif workload == "unitbox-search":
        for n in range(3, 11):
            box = {s: Fraction(0) for s in range(2, n + 1)}
            jobs.append(_search_job(n, box, {s: Fraction(1) for s in box}, box=True))
        # one-sided systems stop at n = 7: at n = 8 a single one costs
        # 0.15 s to 2 s depending on the seed (feasible ones are re-verified
        # by a full n = 8 scan), which would swamp the run-to-run spread
        for n in (5, 5, 6, 6, 7, 7):
            jobs.append(_search_job(n, *_one_sided(rng, n)))
    elif workload == "cli-mix":
        jobs = _cli_jobs(rng, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


def _cli(params: dict, argv: list[str]) -> Job:
    return Job("cli", params, argv)


def _cli_jobs(rng: random.Random, workdir: Path) -> list[Job]:
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = [
        _cli({"cmd": "lemmas"}, ["lemmas"]),
        _cli({"cmd": "lemmas"}, ["lemmas", "--json"]),
        _cli({"cmd": "usage"}, ["search", "--n", "5", "--bounds", "a3=>0"]),
    ]
    for n in (7, 8, 9):
        # first-violation scans on unit-box classes (early exits) and
        # all-witness reports on classes where every F-value is negative,
        # so the report lists all S(n+1, 4) F-curves for every seed
        for mode, combo, sense in (
            ("first", _unit_combo(rng, n), "negative"),
            ("all", _passing_combo(rng, n), "positive"),
        ):
            path = workdir / f"fc-{n + 1}-{mode}.json"
            path.write_text(json.dumps(O.curve_coeffs(n, combo), sort_keys=True))
            argv = ["fcurves", "--divisor", path.as_posix(), "--sense", sense]
            if mode == "all":
                argv += ["--all-witnesses", "--json"]
            params = {"cmd": "fcurves", "n": n, "combo": _combo_params(combo), "sense": sense}
            jobs.append(_cli(params, argv))
    for direction in ("alpha", "beta"):
        for n in (12, rng.randint(5, 9)):
            combo = _unit_combo(rng, n)
            argv = ["pullback", direction, "--n", str(n), "--K", "--combo", _combo_text(combo)]
            if rng.random() < 0.5:
                argv.append("--json")
            params = {"cmd": "pullback", "n": n, "combo": _combo_params(combo)}
            jobs.append(_cli(params, argv))
    for n in range(10, 15):
        argv = ["strata", "--n", str(n)] + (["--json"] if rng.random() < 0.5 else [])
        jobs.append(_cli({"cmd": "strata", "n": n}, argv))
    n = rng.randint(4, 6)
    lower, upper = _one_sided(rng, n)
    bounds = ",".join([f"a{s}>={q}" for s, q in lower.items()] + [f"a{s}<={q}" for s, q in upper.items()])
    params = {"cmd": "search", "n": n, "lower": _combo_params(lower), "upper": _combo_params(upper)}
    jobs.append(_cli(params, ["search", "--n", str(n), "--bounds", bounds, "--json"]))
    n = rng.randint(4, 6)
    combo = _unit_combo(rng, n)
    argv = ["verify", "--n", str(n), "--combo", _combo_text(combo)]
    if rng.random() < 0.5:
        argv.append("--json")
    jobs.append(_cli({"cmd": "verify", "n": n, "combo": _combo_params(combo)}, argv))
    return jobs


# ------------------------------------------------------------------ running


def run(job: Job, fc):
    """Execute one job; the returned value is serialised outside the timer."""
    p = job.params
    if job.kind == "verify":
        return fc.verify_witness(p["n"], _fractions(p["combo"]))
    if job.kind == "search":
        bounds = fc.Bounds.of(_fractions(p["lower"]), _fractions(p["upper"]))
        return fc.search_witness(p["n"], bounds)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = fc.cli.main(list(job.argv))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def serialise(job: Job, result) -> dict:
    if job.kind == "cli":
        return result
    return result.to_json_dict()


def _fractions(d: dict) -> dict[int, Fraction]:
    return {int(s): Fraction(q) for s, q in d.items()}


# --------------------------------------------------------------- canonical


def _canonical_search(outcome: dict) -> dict:
    feas = outcome["feasibility"]
    forms = sorted(O.form_key(O.parse_form(f)) for f in feas["forms"])
    return {"status": feas["status"], "forms": forms}


def _canonical_json(obj):
    if isinstance(obj, dict):
        if "feasibility" in obj:
            return _canonical_search(obj)
        return {k: _canonical_json(v) for k, v in obj.items() if k != "inputs"}
    if isinstance(obj, list):
        return [_canonical_json(v) for v in obj]
    return obj


def canonical(job: Job, raw: dict):
    if job.kind == "verify":
        return raw
    if job.kind == "search":
        return _canonical_search(raw)
    if job.params["cmd"] == "usage":
        # the wording of an error message is not part of the contract
        return {"argv": job.argv, "exit": raw["exit"]}
    out = raw["stdout"]
    if "--json" in job.argv:
        out = _canonical_json(json.loads(out))
    return {"argv": job.argv, "exit": raw["exit"], "stdout": out, "stderr": raw["stderr"]}


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ------------------------------------------------------------------- checks


def check(job: Job, raw: dict, fc, expectations: dict) -> list[str]:
    """Reasons the result is wrong; empty when it passes the gate."""
    p = job.params
    if job.kind == "verify":
        bad = O.report_failures(raw)
        if raw["n"] != p["n"] or raw["combo"] != p["combo"]:
            bad.append("report is for another input")
        return bad
    if job.kind == "search":
        return search_failures(p, raw, fc)
    cmd = p["cmd"]
    if cmd == "usage":
        ok = raw["exit"] == 3 and not raw["stdout"] and raw["stderr"].startswith("fcone: error:")
        return [] if ok else [f"malformed input gave exit {raw['exit']}"]
    if raw["exit"] == 3 or raw["stderr"]:
        return [f"{job.argv}: exit {raw['exit']}, stderr {raw['stderr'][:200]!r}"]
    body = json.loads(raw["stdout"]) if "--json" in job.argv else raw["stdout"]
    if isinstance(body, dict):
        if body.get("exit") != raw["exit"]:
            return ["JSON exit field differs from the exit code"]
        body = body["result"]
    return _CLI_CHECKS[cmd](p, body, raw["exit"], fc, expectations)


def search_failures(p: dict, outcome: dict, fc) -> list[str]:
    n = p["n"]
    lower, upper = _fractions(p["lower"]), _fractions(p["upper"])
    feas = outcome["feasibility"]
    forms = [O.parse_form(f) for f in feas["forms"]]
    want = O.reduced_forms(n) + O.bound_forms(lower, upper)
    bad = []
    if sorted(map(O.form_key, forms)) != sorted(map(O.form_key, want)):
        bad.append(f"n={n}: solved system differs from the reference system")
    if feas["status"] == "infeasible":
        reason = O.multipliers_refute(forms, feas["multipliers"])
        if reason:
            bad.append(f"n={n}: certificate rejected: {reason}")
        if "report" in outcome:
            bad.append(f"n={n}: infeasible outcome carries a witness report")
        if p.get("box") and n <= 5:
            bad.append(f"n={n}: unit box reported infeasible")
        return bad
    point = _fractions(feas["point"])
    if not all(O.satisfied(f, point) for f in forms):
        bad.append(f"n={n}: point breaks the solved system")
    if not O.passes_all(n, point):
        bad.append(f"n={n}: point breaks a reference inequality")
    if p.get("box") and n > 5:
        bad.append(f"n={n}: unit box reported feasible")
    report = outcome.get("report")
    if report is None:
        return bad + [f"n={n}: feasible outcome without a witness report"]
    bad += O.report_failures(report)
    nonzero = {s: q for s, q in sorted(point.items()) if q}
    if _fractions(report["combo"]) != nonzero:
        bad.append(f"n={n}: report is not about the solver point")
    again = fc.verify_witness(n, nonzero).to_json_dict()
    if again != report:
        bad.append(f"n={n}: verify_witness disagrees with the search report")
    return bad


def _exit_for_verdict(verdict: str) -> int:
    return {"verified": 0, "refuted": 1, "undecided": 2}[verdict]


def _check_lemmas(p, body, code, fc, expectations) -> list[str]:
    bad = [] if code == 0 else [f"lemmas exit {code}"]
    specs = [expectations["log_fano_witness_4"], expectations["log_fano_witness_5"]]
    spec6 = expectations["no_witness_6"]
    for spec in specs:
        combo = _fractions(spec["combo"])
        ref = tuple(map(str, O.combo_values(spec["n"], combo)))
        if ref != (spec["f_min"], spec["f_max"], spec["beta_degree"]):
            bad.append(f"expectations for n={spec['n']} disagree with the reference {ref}")
    if isinstance(body, str):
        rows = body.splitlines()
        if any(r.startswith("MISMATCHES") for r in rows):
            bad.append("lemmas reported mismatches")
        for spec in specs:
            want = (
                f"F in [{spec['f_min']}, {spec['f_max']}]  beta {spec['beta_degree']}  "
                f"{spec['verdict'].upper()}"
            )
            if not any(r.startswith(f"n={spec['n']}  combo") and r.endswith(want) for r in rows):
                bad.append(f"lemmas row for n={spec['n']} missing or wrong")
        tail = f"{spec6['status'].upper()}  certificate check ok"
        if not any(r.startswith(f"n={spec6['n']}  bounds") and r.endswith(tail) for r in rows):
            bad.append("lemmas row for n=6 missing or wrong")
        return bad
    if body["mismatches"]:
        bad.append(f"lemmas mismatches {body['mismatches']}")
    for spec in specs:
        rep = body["details"][f"witness_{spec['n']}"]
        bad += O.report_failures(rep)
        for fld in ("verdict", "f_min", "f_max", "beta_degree"):
            if rep[fld] != spec[fld]:
                bad.append(f"lemmas n={spec['n']} {fld} {rep[fld]} != {spec[fld]}")
    b6 = spec6["bounds"]
    p6 = {"n": spec6["n"], "lower": b6.get("lower", {}), "upper": b6.get("upper", {})}
    outcome = body["details"][f"search_{spec6['n']}"]
    bad += search_failures(p6, outcome, fc)
    if outcome["feasibility"]["status"] != spec6["status"]:
        bad.append("lemmas n=6 status differs from the expectations")
    return bad


_FIRST = re.compile(r"^  first violation: (\S+) with value (\S+)$")


def _check_fcurves(p, body, code, fc, expectations) -> list[str]:
    n, sense = p["n"], p["sense"]
    m = n + 1
    combo = _fractions(p["combo"])
    fv = O.first_violation(n, combo, sense)
    verdict = "not-positive" if fv else ("positive" if m <= 7 else "positive-but-undecided-ampleness")
    want_code = 1 if fv else (0 if m <= 7 else 2)
    bad = [] if code == want_code else [f"fcurves m={m}: exit {code}, expected {want_code}"]
    first = (O.format_partition(fv[1]), fv[2]) if fv else None
    if isinstance(body, str):
        lines = body.splitlines()
        if lines[0] != f"m={m} sense={sense}: {verdict}":
            bad.append(f"fcurves m={m}: header {lines[0]!r}")
        match = _FIRST.match(lines[1]) if len(lines) > 1 else None
        got = (match.group(1), Fraction(match.group(2))) if match else None
        if got != first or len(lines) != (2 if fv else 1):
            bad.append(f"fcurves m={m}: first violation {got}, reference {first}")
        return bad
    if body["verdict"] != verdict:
        bad.append(f"fcurves m={m}: verdict {body['verdict']}")
    got = (body["witness"], Fraction(body["witness_value"])) if "witness" in body else None
    if got != first:
        bad.append(f"fcurves m={m}: first violation {got}, reference {first}")
    listed = body.get("violations", [])
    if len(listed) != O.violation_count(n, combo, sense):
        bad.append(f"fcurves m={m}: {len(listed)} violations listed")
        return bad
    expected = (
        (O.format_partition(b), v)
        for b in O.ordered_partitions(m)
        if O.violates(v := O.partition_value(n, combo, b), sense)
    )
    for entry, want in zip(listed, expected):
        if (entry["partition"], Fraction(entry["value"])) != want:
            bad.append(f"fcurves m={m}: violation {entry} != reference {want}")
            break
    return bad


def _check_pullback(p, body, code, fc, expectations) -> list[str]:
    n = p["n"]
    combo = _fractions(p["combo"])
    bad = [] if code == 0 else [f"pullback exit {code}"]
    if isinstance(body, str) and body.startswith("beta_"):
        body = {"degrees": dict(line.split(": ") for line in body.splitlines())}
        body["degrees"] = {k[len("beta_"):]: v for k, v in body["degrees"].items()}
    elif isinstance(body, str):
        body = json.loads(body)
    if "degrees" in body:
        beta = O.evaluate(O.beta_form(n), combo)
        want = {str(i): str(beta) for i in range(1, n + 1)}
        if body["degrees"] != want:
            bad.append(f"pullback beta n={n}: degrees differ from {beta}")
        return bad
    m = n + 1
    if body["m"] != m:
        return bad + [f"pullback alpha n={n}: m={body['m']}"]
    entries = list(body["psi"].items()) + list(body["delta"].items())
    for key, value in entries:
        labels = {int(x) for x in key.split(",")}
        if Fraction(value) != O.split_value(n, combo, labels) or not Fraction(value):
            bad.append(f"pullback alpha n={n}: key {key} has {value}")
            break
    want_count = sum(comb(n, t) for t in range(2, n) if O.k_coeff(t) + combo.get(t, 0))
    want_count += bool(O.k_coeff(n) + combo.get(n, 0))
    if len(entries) != want_count:
        bad.append(f"pullback alpha n={n}: {len(entries)} keys, expected {want_count}")
    return bad


def _check_strata(p, body, code, fc, expectations) -> list[str]:
    n = p["n"]
    m = n + 3
    bad = [] if code == 0 else [f"strata exit {code}"]
    if isinstance(body, str):
        lines = body.splitlines()
        if lines[0] != "S\tDeltaKey\tBKey":
            bad.append("strata: bad TSV header")
        rows = [line.split("\t") for line in lines[1:]]
        if any(len(r) != 3 or r[0] != r[2] for r in rows):
            return bad + ["strata: malformed TSV row"]
        pairs = [(r[1], r[0]) for r in rows]
    else:
        pairs = [(e["delta"], e["b"]) for e in body["pairs"]]
        if body["count"] != len(pairs) or body["n"] != n:
            bad.append("strata: count or n field wrong")
    want_b = [T for t in range(2, n + 1) for T in combinations(range(1, n + 1), t)]
    if [tuple(int(x) for x in b.split(",")) for _, b in pairs] != want_b:
        return bad + [f"strata n={n}: B-keys differ from all subsets of size 2..{n}"]
    for (delta, _), T in zip(pairs, want_b):
        rest = tuple(x for x in range(1, m + 1) if x not in T)
        side = T if len(T) < len(rest) or (len(T) == len(rest) and 1 in T) else rest
        if delta != ",".join(map(str, side)):
            bad.append(f"strata n={n}: delta key {delta} for {T}")
            break
    return bad


def _check_search(p, body, code, fc, expectations) -> list[str]:
    bad = search_failures(p, body, fc)
    if body["feasibility"]["status"] == "infeasible":
        want = 1
    else:
        want = _exit_for_verdict(body["report"]["verdict"])
    return bad + ([] if code == want else [f"search exit {code}, expected {want}"])


_VERIFY_TEXT = re.compile(
    r"^n=(\d+) combo (\S+): (\w+)\n  F-values in \[(\S+), (\S+)\] over all four-block "
    r"partitions\n  line-section degree (\S+)\n"
)


def _check_verify(p, body, code, fc, expectations) -> list[str]:
    n = p["n"]
    combo = _fractions(p["combo"])
    if isinstance(body, str):
        match = _VERIFY_TEXT.match(body)
        if not match:
            return [f"verify n={n}: unreadable text output"]
        f_min, f_max, beta = O.combo_values(n, combo)
        got = (int(match.group(1)), Fraction(match.group(4)), Fraction(match.group(5)), Fraction(match.group(6)))
        bad = [] if got == (n, f_min, f_max, beta) else [f"verify n={n}: values {got}"]
        verdict = match.group(3).lower()
    else:
        bad = O.report_failures(body)
        if body["combo"] != p["combo"]:
            bad.append("verify report is for another combo")
        verdict = body["verdict"]
    want = _exit_for_verdict(verdict)
    return bad + ([] if code == want else [f"verify exit {code}, expected {want}"])


_CLI_CHECKS = {
    "lemmas": _check_lemmas,
    "fcurves": _check_fcurves,
    "pullback": _check_pullback,
    "strata": _check_strata,
    "search": _check_search,
    "verify": _check_verify,
}


# -------------------------------------------------------- input properties


def properties(workload: str, jobs: list[Job], raws: list[dict]) -> dict:
    """Input properties a later gain may hinge on, from arguments and results."""
    scans = []  # (m, rank of first violation or None) per F-curve scan that may exit early
    ns = []
    forms = {}
    for job, raw in zip(jobs, raws):
        p = job.params
        if "error" in raw:
            continue
        if job.kind == "verify":
            scans.append((p["n"] + 1, _reason_rank(p["n"], raw)))
        elif job.kind == "search":
            ns.append(p["n"])
            forms.setdefault(p["n"], set()).add(len(raw["feasibility"]["forms"]))
        elif p["cmd"] == "fcurves" and "--all-witnesses" not in job.argv:
            fv = O.first_violation(p["n"], _fractions(p["combo"]), p["sense"])
            scans.append((p["n"] + 1, fv[0] if fv else None))
    out: dict = {}
    if scans:
        early = [(m, r) for m, r in scans if r is not None]
        out["scans"] = len(scans)
        out["early_exit_share"] = len(early) / len(scans)
        out["early_exit_useful_ratio"] = [round((r + 1) / O.stirling4(m), 6) for m, r in early]
        out["stirling4"] = {m: O.stirling4(m) for m in sorted({m for m, _ in scans})}
    if ns:
        out["searches"] = len(ns)
        out["repeat_n_share"] = sum(1 for i, n in enumerate(ns) if n in ns[:i]) / len(ns)
        out["forms_per_system"] = {n: sorted(forms[n]) for n in sorted(forms)}
        out["stirling4"] = {n + 1: O.stirling4(n + 1) for n in sorted(set(ns))}
    return out


def _reason_rank(n: int, report: dict):
    match = O.REASON_F.match(report.get("reason") or "")
    if not match:
        return None
    return O.rank(n + 1, O.parse_partition(match.group(1)))
