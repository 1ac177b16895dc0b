"""Command-line front end. Everything prints deterministically, numbers are
exact "p/q" strings, and exit codes carry the verdict:

    0  verified / feasible
    1  refuted / infeasible
    2  inequalities pass but the marking count exceeds the decidable range
    3+ usage, parse, or data errors, and a closed stdout or stderr
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from importlib import resources
from json.encoder import encode_basestring_ascii as _json_string
from typing import Sequence

from .combinat import MAX_KEY_LABELS
from .kmaps import BoundaryCombo, KDivisor, pullback_alpha, pullback_beta
from .logfano import Bounds, WitnessVerdict, search_witness, verify_witness
from .mcurves import AmpDecision, MDivisor, Verdict, f_violations
from .rationals import json_coeffs, parse_rational
from .strata import phi_divisor_map

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_UNDECIDED = 2
EXIT_USAGE = 3

# one "aS<relation>p/q" token of a combo or bounds spec; the leading 'a' is
# optional and each spec admits only its own relations
_SPEC_TOKEN = re.compile(r"^a?(\d+)(=|<=|>=)(.+)$")


class CliError(Exception):
    """A usage, parse or data error; ``main`` prints it and exits 3."""


def _parse_spec(text: str, kind: str, relations: tuple[str, ...], duplicate: str) -> dict:
    """{(s, relation): rational}, read from the comma-separated tokens of
    ``text``. ``duplicate`` formats the message for a repeated
    (s, relation); every error is a ``CliError``."""
    values = {}
    text = text.strip()
    try:
        if text:
            for token in text.split(","):
                match = _SPEC_TOKEN.match(token.strip())
                if not match or match[2] not in relations:
                    expected = " or ".join(f"aS{rel}p/q" for rel in relations)
                    raise CliError(f"malformed {kind} token {token!r} (expected {expected})")
                key = int(match[1]), match[2]
                if key in values:
                    raise CliError(duplicate.format(*key))
                values[key] = parse_rational(match[3])
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    return values


def parse_combo_spec(text: str) -> dict:
    """Parse "a4=1,a2=1/4" (the leading 'a' is optional) into {s: a_s};
    ``BoundaryCombo`` checks which a_s exist."""
    values = _parse_spec(text, "combo", ("=",), "duplicate coefficient for a{0}")
    return {s: q for (s, _), q in values.items()}


def parse_bounds_spec(text: str) -> Bounds:
    """Parse "a4>=0,a6<=1" into one-sided bounds."""
    sides = (">=", "<=")
    values = _parse_spec(text, "bound", sides, "duplicate {1} bound for a{0}")
    return Bounds.of(*({s: q for (s, rel), q in values.items() if rel == side} for side in sides))


def _json_text(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2)`` for str-keyed dicts, lists, str, int, bool
    and None, at C speed for strings: under ``indent`` json runs pure Python.
    An iterator is read as a list."""
    if isinstance(obj, str):
        return _json_string(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        items = [
            _json_string(k) + ": "
            + (_json_string(v) if isinstance(v, str) else _json_text(v, inner))
            for k, v in obj.items()
        ]
        ends = "{}"
    elif isinstance(obj, list) or hasattr(obj, "__next__"):
        items = [_json_text(v, inner) for v in obj]
        ends = "[]"
    else:
        return json.dumps(obj)
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1] if items else ends


def _write_json(write, obj, indent: str = "\n") -> None:
    """Write ``_json_text(obj, indent)`` through ``write`` in pieces: a dict
    key by key, and an iterator as an array item by item, each item and
    every other value encoded whole. An iterator is read once, as it is
    written, so a report that lists one is never held whole."""
    inner = indent + "  "
    if isinstance(obj, dict):
        sep, ends = "{" + inner, "{}"
        for key, value in obj.items():
            write(sep + _json_string(key) + ": ")
            _write_json(write, value, inner)
            sep = "," + inner
    elif hasattr(obj, "__next__"):
        sep, ends = "[" + inner, "[]"
        for item in obj:
            write(sep + _json_text(item, inner))
            sep = "," + inner
    else:
        write(_json_text(obj, indent))
        return
    write(indent + ends[1] if sep[0] == "," else ends)


def _emit(args, inputs: dict, code: int, result, text) -> int:
    """Write the run report under ``--json``, else the text, piece by piece.
    ``result`` and ``text`` are callables, so only the printed format is
    built; ``text`` gives the lines, without their ends."""
    write = sys.stdout.write
    if args.json:
        report = {"command": args.command, "inputs": inputs, "result": result(), "exit": code}
        _write_json(write, report)
        write("\n")
    else:
        sys.stdout.writelines(line + "\n" for line in text())
    return code


# the most bytes a JSON input file may hold (128 MiB): listing every key of
# K_20 or of its pullback to 21 markings, the largest classes a command
# takes, writes about 35-38 MiB
MAX_JSON_BYTES = 1 << 27


def _read_json(path: str):
    """Decode the UTF-8 JSON file at ``path``, reading at most one byte past
    ``MAX_JSON_BYTES`` and refusing the file if that byte is there; 1 MiB at
    a time, as one read of the whole cap reserves 128 MiB for any file. Running
    out of memory first is a ValueError too, so the caller's line names the
    file; its text leaves out how far the read got, which the memory limit
    decides."""
    raw = bytearray()
    try:
        with open(path, "rb") as fh:
            # read(0) is b"" once the one byte past the cap is in
            while chunk := fh.read(min(MAX_JSON_BYTES + 1 - len(raw), 1 << 20)):
                raw += chunk
        if len(raw) > MAX_JSON_BYTES:
            raise ValueError(f"file exceeds {MAX_JSON_BYTES} bytes")
        return json.loads(raw.decode("utf-8"))
    except MemoryError:
        raise ValueError(f"out of memory before the {MAX_JSON_BYTES}-byte cap") from None


def _load_divisor(path: str, cls):
    """The ``cls`` divisor (``MDivisor`` or ``KDivisor``) in the JSON file at
    ``path``."""
    try:
        data = _read_json(path)
    # ValueError covers bad JSON, bad UTF-8, the int digit limit and the
    # byte cap; RecursionError, nesting too deep for the decoder
    except (OSError, ValueError, RecursionError) as exc:
        raise CliError(f"cannot read JSON file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise CliError(f"JSON file {path} must hold an object")
    try:
        return cls.from_json_dict(data)
    except (ValueError, TypeError, KeyError) as exc:
        raise CliError(f"bad divisor file: {exc}") from exc


# the exit code of each verdict, of witness reports and F-curve scans alike
VERDICT_EXIT = {
    WitnessVerdict.VERIFIED: EXIT_OK,
    WitnessVerdict.REFUTED: EXIT_REFUTED,
    WitnessVerdict.UNDECIDED: EXIT_UNDECIDED,
    Verdict.POSITIVE: EXIT_OK,
    Verdict.NOT_POSITIVE: EXIT_REFUTED,
    Verdict.POSITIVE_BUT_UNDECIDED: EXIT_UNDECIDED,
}


def _witness_lines(report) -> list[str]:
    lines = [
        f"n={report.n} combo {report.combo}: {report.verdict.value.upper()}",
        f"  F-values in [{report.f_min}, {report.f_max}] over all four-block partitions",
        f"  line-section degree {report.beta_degree}",
    ]
    if report.reason:
        lines.append(f"  reason: {report.reason}")
    if report.klt_note:
        lines.append(
            "  klt note: coefficients within [0,1] and all inequalities strict, "
            "so a small shrink of the boundary preserves them"
        )
    return lines


def cmd_verify(args) -> int:
    report = verify_witness(args.n, parse_combo_spec(args.combo))
    return _emit(
        args,
        {"n": args.n, "combo": args.combo},
        VERDICT_EXIT[report.verdict],
        report.to_json_dict,
        lambda: _witness_lines(report),
    )


def cmd_search(args) -> int:
    bounds = parse_bounds_spec(args.bounds) if args.bounds else None
    outcome = search_witness(args.n, bounds)
    feas = outcome.feasibility
    head = f"n={args.n} bounds {args.bounds or '(none)'}"

    def text() -> list[str]:
        if not feas.feasible:
            nonzero = sum(1 for x in feas.multipliers if x)
            lines = [
                f"{head}: INFEASIBLE",
                f"  certificate: {nonzero} nonzero multipliers over {len(feas.forms)} forms",
                f"  certificate check: {'ok' if feas.check() else 'FAILED'}",
            ]
        else:
            point = ",".join(f"a{s}={q}" for s, q in sorted(feas.point.items()))
            lines = [f"{head}: FEASIBLE at {point}"]
            lines += ["  " + line for line in _witness_lines(outcome.report)]
        return lines

    code = VERDICT_EXIT[outcome.report.verdict] if feas.feasible else EXIT_REFUTED
    return _emit(args, {"n": args.n, "bounds": args.bounds}, code, outcome.to_json_dict, text)


def cmd_fcurves(args) -> int:
    H = _load_divisor(args.divisor, MDivisor)
    hits = f_violations(H, args.sense)
    first = next(hits, None)  # the verdict; a refusal raises here, before any output
    # the witness, then the rest of the scan as the writer reads it
    listed = (v for part in ((first,), hits) for v in part) if args.all_witnesses else ()
    decision = AmpDecision.of_scan(H.m, args.sense, first, listed)

    def text():
        yield f"m={H.m} sense={args.sense}: {decision.verdict.value}"
        if first is not None:
            yield f"  first violation: {decision.witness} with value {decision.witness_value}"
            if args.all_witnesses:
                for P, v in hits:
                    yield f"  also: {P} with value {v}"

    inputs = {"divisor": args.divisor, "sense": args.sense}
    code = VERDICT_EXIT[decision.verdict]
    return _emit(args, inputs, code, decision.to_json_dict, text)


def _divisor_from_args(args) -> KDivisor:
    if args.divisor:
        if args.n is not None or args.K or args.combo:
            raise CliError("--divisor FILE takes no --n, --K or --combo")
        return _load_divisor(args.divisor, KDivisor)
    if args.n is None:
        raise CliError("need --divisor FILE or --n N (with optional --K/--combo)")
    if not (args.K or args.combo):
        raise CliError("empty divisor: pass --K and/or --combo")
    if args.K:
        KDivisor(args.n, {}, {})  # K_n's own errors on n win over the combo's
    return BoundaryCombo.of(args.n, parse_combo_spec(args.combo)).to_divisor(args.K)


def cmd_pullback(args) -> int:
    H = _divisor_from_args(args)
    if args.direction == "alpha":
        result = pullback_alpha(H).to_json_dict()
        text = lambda: [_json_text(result)]
    else:
        degrees = {str(i): str(pullback_beta(H, i)) for i in range(1, H.n + 1)}
        result = {"degrees": degrees}
        text = lambda: (f"beta_{i}: {d}" for i, d in degrees.items())
    inputs = {"direction": args.direction, "divisor": args.divisor, "n": args.n}
    return _emit(args, inputs, EXIT_OK, lambda: result, text)


def cmd_strata(args) -> int:
    corr = phi_divisor_map(args.n)

    def result() -> dict:
        pairs = ({"delta": d, "b": b} for d, b in corr.text_pairs())
        return {"n": corr.n, "pairs": pairs, "count": len(corr)}

    return _emit(args, {"n": args.n}, EXIT_OK, result, corr.tsv_lines)


def _default_expectations() -> str:
    return str(resources.files("fcone").joinpath("data/lemma_expectations.json"))


def _spec_n(spec: dict) -> int:
    n = spec["n"]
    if type(n) is not int:
        raise TypeError(f"'n' must be an integer, got {n!r}")
    if not 3 <= n <= MAX_KEY_LABELS:
        raise ValueError(f"'n' must be in 3..{MAX_KEY_LABELS}, got {n}")
    return n


def cmd_lemmas(args) -> int:
    path = args.expectations or _default_expectations()
    try:
        expected = _read_json(path)
        fields = ("verdict", "f_min", "f_max", "beta_degree")
        witnesses = []
        for key in ("log_fano_witness_4", "log_fano_witness_5"):
            spec = expected[key]
            n = _spec_n(spec)
            combo = BoundaryCombo(n, tuple((int(s), q) for s, q in json_coeffs(spec, "combo")))
            witnesses.append((combo, {field: spec[field] for field in fields}))
        spec6 = expected["no_witness_6"]
        n6, bounds, status6 = _spec_n(spec6), spec6["bounds"], spec6["status"]
        if not isinstance(bounds, dict):
            raise TypeError(f"'bounds' must be a JSON object, got {bounds!r}")
        bounds6 = Bounds.of(*(dict(json_coeffs(bounds, side)) for side in ("lower", "upper")))
    except (OSError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise CliError(f"cannot load expectations from {path}: {exc}") from exc

    mismatches: list[str] = []
    rows: list[str] = []
    details: dict = {}

    for combo, want in witnesses:
        n = combo.n
        report = verify_witness(n, dict(combo.a))
        got = details[f"witness_{n}"] = report.to_json_dict()
        for field, value in want.items():
            if got[field] != value:
                mismatches.append(f"n={n}: {field} expected {value}, got {got[field]}")
        rows.append(
            f"n={n}  combo {combo}  F in [{report.f_min}, {report.f_max}]  "
            f"beta {report.beta_degree}  {report.verdict.value.upper()}"
        )

    outcome = search_witness(n6, bounds6)
    status = "feasible" if outcome.feasibility.feasible else "infeasible"
    if status != status6:
        mismatches.append(f"n={n6}: status expected {status6}, got {status}")
    cert_ok = outcome.feasibility.check()
    if not cert_ok:
        mismatches.append(f"n={n6}: certificate failed re-validation")
    rows.append(
        f"n={n6}  bounds {bounds6}  {status.upper()}"
        f"  certificate check {'ok' if cert_ok else 'FAILED'}"
    )

    lines = ["log-Fano boundary certificates on pointed degree-1 stable-map spaces"]
    lines += rows
    lines.append(
        "conclusion: the verified certificates establish anti-ample log-Fano "
        "boundaries for n=4,5 and rule out symmetric ones for n=6 under the "
        "stated bounds; the resulting Mori-dream-space statement for n<=5 "
        "rests on a cited finite-generation theorem and is not recomputed here."
    )
    if mismatches:
        lines.append("MISMATCHES:")
        lines += [f"  {m}" for m in mismatches]
    return _emit(
        args,
        {"expectations": args.expectations or "packaged"},
        EXIT_OK if not mismatches else EXIT_REFUTED,
        lambda: {
            "rows": rows,
            "mismatches": mismatches,
            "details": {**details, "search_6": outcome.to_json_dict()},
        },
        lambda: lines,
    )


class _Parser(argparse.ArgumentParser):
    # argparse's default error exit code (2) collides with "undecided"
    def error(self, message):
        raise CliError(message)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="fcone",
        description=(
            "Exact F-curve positivity certificates and log-Fano boundary "
            "search on moduli of pointed degree-1 stable maps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lemmas", help="reproduce the three boundary-witness results")
    p.add_argument("--expectations", help="override the packaged expectations file")
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("verify", help="verify a boundary combination by full enumeration")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--combo", default="", help='e.g. "a4=1" or "a2=1/4,a5=1"')
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="solve the reduced system for a witness")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bounds", default="", help='e.g. "a4>=0,a6<=1"')
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("fcurves", help="scan all F-curves of a curve-side divisor")
    p.add_argument("--divisor", required=True, help="MDivisor JSON file")
    p.add_argument("--sense", choices=["positive", "negative"], default="positive")
    p.add_argument("--all-witnesses", action="store_true")
    p.set_defaults(func=cmd_fcurves)

    p = sub.add_parser("pullback", help="pull a stable-map divisor back")
    p.add_argument("direction", choices=["alpha", "beta"])
    p.add_argument("--divisor", help="KDivisor JSON file (explicit or combo shorthand)")
    p.add_argument("--n", type=int)
    p.add_argument("--K", action="store_true", help="include the canonical class")
    p.add_argument("--combo", default="", help='e.g. "a4=1"')
    p.set_defaults(func=cmd_pullback)

    p = sub.add_parser("strata", help="boundary correspondence of the comparison map")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_strata)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
            code = args.func(args)
            sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
            return code
        except (CliError, ValueError, MemoryError) as exc:
            print(f"fcone: error: {str(exc) or 'out of memory'}", file=sys.stderr)
            return EXIT_USAGE
    except BrokenPipeError:
        # point fds 1 and 2 at devnull so the flushes at exit cannot raise
        # again; either may be the closed pipe, so nothing is printed
        devnull = os.open(os.devnull, os.O_WRONLY)
        for stream in (sys.stdout, sys.stderr):
            os.dup2(devnull, stream.fileno())
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
