#!/usr/bin/env python3
"""fcone benchmark.

    python3 perfbench/run.py --workload verify-scan --seed 1 --seconds 30 --trace 0

Run from the repository root. One process, one thread, closed loop: the seeded
job list of the workload runs back to back through the public API, pass after
pass, until the measured time reaches ``--seconds``. Every result goes through
the output gate in ``workloads.check``, and its canonical digest must equal the
one recorded in ``digests/<workload>.json`` when that job was recorded.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates untraced
and traced passes and prints the per-layer metrics. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.

``--record-digests 0-63`` runs every job of those seeds once, gates it, and
adds the digests of the jobs that pass to ``digests/<workload>.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

import oracle
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
DIGESTS = BENCH / "digests"
SETUP_REPEATS = 21
MODULES = ("fcone", "fcone.combinat", "fcone.mcurves", "fcone.kmaps", "fcone.logfano", "fcone.strata", "fcone.cli")


def load_fcone() -> dict:
    """Import the package afresh from the checkout's ``src``."""
    for name in [m for m in sys.modules if m == "fcone" or m.startswith("fcone.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(name) for name in MODULES}
    where = Path(mods["fcone"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"fcone imported from {where}, not from {SRC}")
    return mods


def setup(workload: str, seed: int):
    """Import fcone, generate the seeded inputs and write the input files."""
    t0 = perf_counter()
    mods = load_fcone()
    jobs = workloads.build(workload, seed, WORK / f"{workload}-{seed}")
    return mods, jobs, perf_counter() - t0


def run_pass(jobs, fc, tracer=None):
    walls, cpus, raws = [], [], []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        w0, c0 = perf_counter(), process_time()
        try:
            result = workloads.run(job, fc)
        except Exception as exc:  # a raising job is a failed job, the run goes on
            result = exc
        walls.append(perf_counter() - w0)
        cpus.append(process_time() - c0)
        if isinstance(result, Exception):
            raws.append({"error": f"{type(result).__name__}: {result}"})
        else:
            raws.append(workloads.serialise(job, result))
    return walls, cpus, raws


def load_expectations() -> dict:
    return json.loads((SRC / "fcone" / "data" / "lemma_expectations.json").read_text())


def load_digests(workload: str) -> dict:
    path = DIGESTS / f"{workload}.json"
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def gate(job, raw, fc, expectations, recorded) -> tuple[list[str], str | None]:
    """(failure reasons, canonical digest) for one result."""
    if "error" in raw:
        return [raw["error"]], None
    try:
        bad = workloads.check(job, raw, fc, expectations)
        dig = workloads.digest(workloads.canonical(job, raw))
    except Exception as exc:  # malformed output: the check itself cannot read it
        return [f"unreadable output: {type(exc).__name__}: {exc}"], None
    want = recorded.get(job.key_digest)
    if want is not None and want != dig:
        bad.append(f"canonical digest {dig} != recorded {want}")
    return bad, dig


def tally(jobs, npasses, first_raws, later, fc, expectations, recorded):
    """Gate every result of every pass: ([(pass, job, reasons)], digests).

    A later pass whose raw output equals the first pass's shares its verdict;
    any other output is gated on its own and must digest the same.
    """
    failures = []
    digests = []
    for j, (job, raw) in enumerate(zip(jobs, first_raws)):
        bad, dig = gate(job, raw, fc, expectations, recorded)
        digests.append(dig)
        failures += [(p, j, bad) for p in range(npasses) if bad and (p, j) not in later]
    for (p, j), raw in sorted(later.items()):
        bad, dig = gate(jobs[j], raw, fc, expectations, recorded)
        if dig != digests[j]:
            bad.append("output differs from the first pass")
        if bad:
            failures.append((p, j, bad))
    return failures, digests


def median(values):
    return statistics.median(values) if values else 0.0


def measure(args, fc, jobs, mods):
    """Run passes until the measured time reaches --seconds."""
    traced = bool(args.trace)
    passes = []  # (traced, walls, cpus, tracer)
    first_raws = None
    first_hashes = []
    later = {}  # (pass, job) -> raw output that differs from the first pass
    measured = 0.0
    while True:
        tracing = traced and len(passes) % 2 == 1
        tracer = spans.Tracer() if tracing else None
        if tracer is not None:
            with tracer.installed(mods):
                walls, cpus, raws = run_pass(jobs, fc, tracer)
        else:
            walls, cpus, raws = run_pass(jobs, fc)
        if first_raws is None:
            first_raws = raws
            first_hashes = [workloads.digest(r) for r in raws]
        else:
            for j, raw in enumerate(raws):
                if workloads.digest(raw) != first_hashes[j]:
                    later[len(passes), j] = raw
        passes.append((tracing, walls, cpus, tracer))
        measured += sum(walls)
        kinds = {t for t, *_ in passes}
        if measured >= args.seconds and (not traced or kinds == {True, False}):
            return passes, first_raws, later


def end_to_end(passes, setup_times, peak_mb):
    untraced = [p for p in passes if not p[0]]
    njobs = len(untraced[0][1])
    wall = sum(median([p[1][j] for p in untraced]) for j in range(njobs))
    cpu = sum(median([p[2][j] for p in untraced]) for j in range(njobs))
    return {
        "wall_s": (wall, "s"),
        "cpu_s": (cpu, "s"),
        "setup_s": (median(setup_times), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def per_layer(passes):
    untraced = [sum(p[1]) for p in passes if not p[0]]
    per_pass = []
    ranks: dict = {}
    for tracing, walls, _, tracer in passes:
        if not tracing:
            continue
        totals = spans.layer_totals(tracer.records())
        values = {}
        for name, agg in totals.items():
            values[f"{name}.calls"] = (agg["calls"], "count")
            values[f"{name}.self_s"] = (agg["self_s"], "s")
            for count in spans.LAYER_COUNTS.get(name, ()):
                unit = "bytes" if count == "bytes_out" else "count"
                values[f"{name}.{count}"] = (agg["counts"].get(count, 0), unit)
            if name == "mcurves.f_positivity":
                values[f"{name}.useful_ratio"] = (useful_ratio(agg, ranks), "ratio")
        values["trace.overhead_ratio"] = (sum(walls), "ratio")
        per_pass.append(values)
    out = {}
    for name, (_, unit) in per_pass[0].items():
        out[name] = (median([v[name][0] for v in per_pass]), unit)
    out["trace.overhead_ratio"] = (out["trace.overhead_ratio"][0] / median(untraced), "ratio")
    return out


def useful_ratio(agg, ranks) -> float:
    """Partitions a scan needed (up to its first violation, else all S(m,4))
    over the partitions enumerated while it ran."""
    needed = 0
    for s in agg["spans"]:
        m, witness = s.counts.get("scan", (None, None))
        if m is None:
            continue
        if witness is None:
            needed += oracle.stirling4(m)
        else:
            if (m, witness) not in ranks:
                ranks[m, witness] = oracle.rank(m, oracle.parse_partition(witness))
            needed += ranks[m, witness] + 1
    enumerated = agg["counts"].get("enumerated", 0)
    return needed / enumerated if enumerated else 0.0


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record_digests(workload: str, seeds: list[int]) -> int:
    mods = load_fcone()
    fc = mods["fcone"]
    expectations = load_expectations()
    recorded = load_digests(workload)
    added = 0
    for seed in seeds:
        for job in workloads.build(workload, seed, WORK / f"{workload}-{seed}"):
            if job.key_digest in recorded:
                continue
            _, _, (raw,) = run_pass([job], fc)
            bad, dig = gate(job, raw, fc, expectations, {})
            if bad:
                print(f"seed {seed}: {job.key}: {bad}", file=sys.stderr)
                return 1
            recorded[job.key_digest] = dig
            added += 1
    DIGESTS.mkdir(exist_ok=True)
    with open(DIGESTS / f"{workload}.json", "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(recorded.items())), fh, indent=0)
        fh.write("\n")
    print(f"{workload}: {added} digests added, {len(recorded)} recorded", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", metavar="SEEDS", help="e.g. 0-63")
    args = parser.parse_args(argv)

    if not (SRC / "fcone" / "__init__.py").is_file():
        print(f"perfbench: no fcone sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.environ.pop("FCONE_THREADS", None)
    sys.path.insert(0, str(SRC))
    if args.record_digests:
        return record_digests(args.workload, parse_seeds(args.record_digests))

    setup_times = []
    for _ in range(SETUP_REPEATS):
        mods, jobs, elapsed = setup(args.workload, args.seed)
        setup_times.append(elapsed)
    fc = mods["fcone"]
    expectations = load_expectations()
    recorded = load_digests(args.workload)

    passes, first_raws, later = measure(args, fc, jobs, mods)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures, digests = tally(jobs, len(passes), first_raws, later, fc, expectations, recorded)
    attempted = len(passes) * len(jobs)
    failed = len(failures)
    for p, j, bad in failures[:20]:
        print(f"FAILED pass {p} job {j} {jobs[j].key}: {bad[:3]}", file=sys.stderr)

    pass_walls = " ".join(f"{sum(w):.3f}{'t' if t else ''}" for t, w, _, _ in passes)
    print(f"pass wall times (t: traced): {pass_walls}", file=sys.stderr)
    known = sum(1 for job in jobs if job.key_digest in recorded)
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs x {len(passes)} passes, "
          f"{known}/{len(jobs)} job digests recorded, workload digest "
          f"{workloads.digest(digests)}", file=sys.stderr)
    props = workloads.properties(args.workload, jobs, first_raws)
    print("input_properties " + json.dumps(props, sort_keys=True))
    print(f"fail_ratio {failed / attempted} ratio ({failed}/{attempted})")

    if args.trace:
        metrics = per_layer(passes)
        WORK.mkdir(exist_ok=True)
        trace_path = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
        with open(trace_path, "w", encoding="utf-8") as fh:
            for k, (tracing, _, _, tracer) in enumerate(passes):
                if tracing:
                    for s in tracer.records():
                        fh.write(json.dumps(spans.as_row(s, k)) + "\n")
    else:
        metrics = end_to_end(passes, setup_times, peak_mb)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
