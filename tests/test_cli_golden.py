"""Byte-identity of the CLI: a sha256 over (argv, exit code, stdout) for each
subcommand in text and ``--json`` form, recorded before the output path was
rewritten. A change to any printed byte, or to an exit code, fails here.
The same cases run once more in child processes under an address-space cap,
where an endless input file must still be refused with exit 3.

The divisor file for ``fcurves`` is written by this test from a closed-form
rule, not by the package, and is passed by a relative path because the
``--json`` report echoes the path as given. The same cases also run once
under ``python -O``, where any self-check written as an ``assert`` would
vanish.
"""

import hashlib
import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from fcone.cli import main

try:
    import resource
except ImportError:  # not on every platform
    resource = None

M = 9
DIVISOR_FILE = "d9.json"


def _divisor_json() -> dict:
    # every 2..4-subset of 1..9 (their complements have 5..7 labels, so no
    # split is listed twice); the coefficient depends on |S| and on 9 in S
    delta = {}
    for size in range(2, 5):
        for S in combinations(range(1, M + 1), size):
            num = size * size - 3 + (2 if M in S else 0)
            delta[",".join(map(str, S))] = f"{num}/{size + 1}"
    psi = {str(i): f"{i % 3 - 1}/2" for i in range(1, M + 1)}
    return {"m": M, "psi": psi, "delta": delta}


COMBO = ["--n", "10", "--K", "--combo", "a3=1/2"]
CASES = {
    "fcurves-all-text": ["fcurves", "--divisor", DIVISOR_FILE, "--all-witnesses"],
    "fcurves-all-json": ["fcurves", "--divisor", DIVISOR_FILE, "--all-witnesses", "--json"],
    "fcurves-first-text": ["fcurves", "--divisor", DIVISOR_FILE, "--sense", "negative"],
    "fcurves-first-json": ["fcurves", "--divisor", DIVISOR_FILE, "--sense", "negative", "--json"],
    "strata-text": ["strata", "--n", "12"],
    "strata-json": ["strata", "--n", "12", "--json"],
    "pullback-alpha-text": ["pullback", "alpha", *COMBO],
    "pullback-alpha-json": ["pullback", "alpha", *COMBO, "--json"],
    "pullback-beta-text": ["pullback", "beta", *COMBO],
    "pullback-beta-json": ["pullback", "beta", *COMBO, "--json"],
    "lemmas-text": ["lemmas"],
    "lemmas-json": ["lemmas", "--json"],
    "search-infeasible-text": ["search", "--n", "6", "--bounds", "a4>=0,a6<=1"],
    "search-infeasible-json": ["search", "--n", "6", "--bounds", "a4>=0,a6<=1", "--json"],
    "search-feasible-text": ["search", "--n", "4", "--bounds", "a2>=0"],
    "search-feasible-json": ["search", "--n", "4", "--bounds", "a2>=0", "--json"],
    "verify-text": ["verify", "--n", "5", "--combo", "a2=1/4,a5=1"],
    "verify-json": ["verify", "--n", "5", "--combo", "a2=1/4,a5=1", "--json"],
    "strata-usage": ["strata", "--n", "1"],
}

# recorded on the output path before it built only the printed format
GOLDEN = {
    "fcurves-all-json": "b39a373a6e6b4fe142b08ee855926d6886daf094eb3d09e9de3b207c58cb8de1",
    "fcurves-all-text": "862d1e250d189503370c3d18d531b851c21f485ca1bc45712617d577591d7e20",
    "fcurves-first-json": "843d76c4c409da041cb171320edcab112e57220d79371b51ba6054f34a136642",
    "fcurves-first-text": "d0c4a8520d429cfccb9d41d6affacf8f0d6f9f303cec0ec9f0c960cdec576c12",
    "lemmas-json": "291f95895d8dae1ac32af2a9bcba1ee4b426179d78730111c147f852568baf01",
    "lemmas-text": "a6d7a57e15bbba6fde60b9dec6e602835b947d1335cfbaf2898b54c8f6a4f285",
    "pullback-alpha-json": "d49809f53c7270059f3dd04d1c52ada32946ac67772e6dcaddf1ae6522011c1a",
    "pullback-alpha-text": "eadcf14f23e18f7a94c4355ab4384e40baf33e586c4a24a17b4dd03209953405",
    "pullback-beta-json": "3733d1c208d1914e8c281711333da196ca9b04b92cd3fbee4b60b72a3d6bddaf",
    "pullback-beta-text": "1ee07a17fb73b9bdda1abffc61dda6652eb5b3b5c76a800d58d889df342aa1c1",
    "search-feasible-json": "efe9c3e70dfad6371d6e0c06fd6d50edeafd3f4b4878615c3f8f173875b48c79",
    "search-feasible-text": "a7bb9fc554c2e55eac5af306285578a23c24261c2d9d60dc9f9ed24a27e14430",
    "search-infeasible-json": "68b5095b1a7093a2c50b8e6da7719bb3a3410b3929086daf557b584270ae9bb3",
    "search-infeasible-text": "0b87e00b4189f33e996431ce6ee3279476bf07a1759ad044e9fc00d8a564a9ff",
    "strata-json": "2a2f52c245cf5976826445fa067fdbd4b50d8abbac3c8cb4a7a0a97125d3b91b",
    "strata-text": "ffcac117ad1a8a02487a27f30e7ca750c2f3290dc9138129ae03ef02f7ec9235",
    "strata-usage": "6daed3f3f536b4c84f7b80d1a78ab49754130a4f85c896097253f1b075604836",
    "verify-json": "72b98be00317551ac64256f39873809c9e7238bcdb7d14ad9372ba0e78cfe922",
    "verify-text": "ead898e51cad8f54d6e06bb6c7430685cc4f976f4262142b212e4c94863d118e",
}


def _digest(argv, code, out) -> str:
    record = json.dumps({"argv": argv, "exit": code, "stdout": out})
    return hashlib.sha256(record.encode()).hexdigest()


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    (tmp_path / DIVISOR_FILE).write_text(json.dumps(_divisor_json(), sort_keys=True))
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_is_byte_identical(case, workdir, capsys):
    argv = CASES[case]
    code = main(list(argv))
    out = capsys.readouterr().out
    assert _digest(argv, code, out) == GOLDEN[case]


# runs every case in one interpreter and prints {case: [exit, stdout]}
_RUN_CASES = """
import contextlib, io, json, sys
from fcone.cli import main
results = {"optimize": sys.flags.optimize}
for case, argv in json.loads(sys.argv[1]).items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        results[case] = [main(list(argv)), out.getvalue()]
print(json.dumps(results))
"""


def test_cli_output_is_byte_identical_under_optimize(workdir):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _RUN_CASES, json.dumps(CASES)],
        capture_output=True, text=True, env=env, cwd=workdir, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert results.pop("optimize") == 1
    assert {case: _digest(CASES[case], *results[case]) for case in CASES} == GOLDEN


# what the cap allows above a child that has only imported the CLI: every
# case below needs at most 2 MiB more (bisected with RLIMIT_AS on Linux,
# Python 3.11), while reading a divisor file once reserved 128 MiB and the
# m = 11 report was built whole in about 150 MiB
AS_MARGIN = 40 << 20

# the m = 11 zero class: all 145,750 F-curves violate, a 13 MiB report
ZERO_11 = ["fcurves", "--divisor", "z11.json", "--all-witnesses", "--json"]
ZERO_11_SHA256 = "d7c603a97e345f3113ffcc157a38d73a7706126863712db5dc40faefea772cf1"

_VM_PEAK = """
import fcone.cli
print(next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmPeak:")))
"""


@pytest.fixture
def capped(workdir):
    """Run ``fcone.cli`` argv in a child under the address-space cap, which
    the interpreter's own VmPeak plus AS_MARGIN sets; returns the
    CompletedProcess with stdout and stderr as bytes."""
    if resource is None:
        pytest.skip("needs the resource module")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    floor = subprocess.run(
        [sys.executable, "-c", _VM_PEAK], capture_output=True, text=True, env=env, timeout=300
    )
    if floor.returncode != 0:
        pytest.skip("no /proc/self/status to measure the interpreter's own address space")
    cap = int(floor.stdout) * 1024 + AS_MARGIN

    def limit():  # in the child only: the test process keeps its limits
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    def run(argv):
        return subprocess.run(
            [sys.executable, "-m", "fcone.cli", *argv], capture_output=True, env=env,
            cwd=workdir, preexec_fn=limit, timeout=300,
        )

    return run


def test_cli_output_under_an_address_space_cap(workdir, capped):
    (workdir / "z11.json").write_text('{"m": 11}')
    got = {}
    for case, argv in sorted({**CASES, "zero-11": ZERO_11}.items()):
        proc = capped(argv)
        assert b"Traceback" not in proc.stderr, (case, proc.stderr.decode()[-300:])
        if case == "zero-11":
            got[case] = (proc.returncode, hashlib.sha256(proc.stdout).hexdigest())
        else:
            got[case] = _digest(argv, proc.returncode, proc.stdout.decode())
    assert got == {**GOLDEN, "zero-11": (1, ZERO_11_SHA256)}


# endless inputs: each command reads toward its 128 MiB cap and runs out of
# memory first under the address-space cap; its error line names the file
ENDLESS = {
    "fcurves": ["fcurves", "--divisor", "/dev/zero"],
    "pullback": ["pullback", "beta", "--divisor", "/dev/zero"],
    "lemmas": ["lemmas", "--expectations", "/dev/zero"],
}


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("name", sorted(ENDLESS))
def test_endless_input_under_an_address_space_cap_is_a_usage_error(name, json_flag, capped):
    proc = capped(ENDLESS[name] + json_flag)
    assert b"Traceback" not in proc.stderr, proc.stderr.decode()[-300:]
    assert (proc.returncode, proc.stdout) == (3, b"")
    what = b"cannot load expectations from" if name == "lemmas" else b"cannot read JSON file"
    assert proc.stderr.startswith(b"fcone: error: " + what + b" /dev/zero: "), proc.stderr
    assert proc.stderr.count(b"\n") == 1
