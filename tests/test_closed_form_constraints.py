"""The closed-form anti-ampleness system against its references: the
orbit-reduced system recorded from the pullback derivation it replaced, that
derivation itself (``pullback_reference``), and the benchmark's independent
arithmetic in ``perfbench/oracle.py``."""

import importlib.util
import json
from collections import Counter
from pathlib import Path

import pytest

from pullback_reference import reference_constraints

import fcone.combinat
import fcone.kmaps
import fcone.logfano
from fcone.logfano import LinearForm, generate_constraints

ROOT = Path(__file__).resolve().parent.parent


def _load_oracle():
    path = ROOT / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load_oracle()

# generate_constraints(n, reduced=True) for n = 3..11 as computed through the
# pullbacks, in order: [constant, {s: coefficient}] per form, all strict
RECORDED = json.loads((Path(__file__).parent / "reduced_systems.json").read_text())


@pytest.mark.parametrize("n", range(3, 12))
def test_reduced_system_equals_recording(n):
    want = [LinearForm.of(c, {int(s): q for s, q in co.items()}) for c, co in RECORDED[str(n)]]
    assert generate_constraints(n, reduced=True) == want


@pytest.mark.parametrize("n", range(3, 10))
def test_reduced_system_equals_pullback_reference(n):
    assert generate_constraints(n, reduced=True) == reference_constraints(n, reduced=True)


@pytest.mark.parametrize("n", range(3, 10))
def test_full_system_equals_pullback_reference(n):
    assert generate_constraints(n) == reference_constraints(n)


def test_reduced_forms_equal_oracle_as_multiset():
    for n in range(3, 41):
        got = Counter(
            oracle.form_key(oracle.parse_form(f.to_json_dict()))
            for f in generate_constraints(n, reduced=True)
        )
        assert got == Counter(map(oracle.form_key, oracle.reduced_forms(n))), n


def _raise(*args, **kwargs):
    raise AssertionError("the reduced system walked partitions or built a divisor")


def test_reduced_system_walks_nothing(monkeypatch):
    names = ("enumerate_four_partitions", "enumerate_shapes", "canonical_class", "pullback_alpha")
    for module in (fcone.combinat, fcone.kmaps, fcone.logfano):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _raise)
    forms = generate_constraints(30, reduced=True)
    assert len(forms) == len(oracle.shapes(31)) + 1
