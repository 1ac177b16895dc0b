"""Source-level checks on the package and its scripts, and a smoke run of
each script."""

import ast
import hashlib
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fcone

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_DIR = ROOT / "src" / "fcone"
SCRIPTS_DIR = ROOT / "scripts"
TESTS_DIR = ROOT / "tests"


def _assert_statements(where: Path) -> list[str]:
    paths = sorted(where.glob("*.py"))
    assert paths, f"no sources under {where}"
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    return found


def test_no_assert_statements():
    # correctness self-checks must survive ``python -O``, which strips asserts
    found = _assert_statements(PACKAGE_DIR)
    assert not found, f"assert statements in the package: {found}"


def test_no_assert_statements_in_scripts():
    found = _assert_statements(SCRIPTS_DIR)
    assert not found, f"assert statements in the scripts: {found}"


def _is_get_with_fraction_zero(node: ast.AST) -> bool:
    # x.get(key, Fraction(0))
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
        and len(node.args) == 2
        and ast.unparse(node.args[1]) == "Fraction(0)"
    )


def test_no_hand_rolled_fraction_merges():
    # per-key exact sums go through rationals.sum_by_key, not
    # ``d.get(k, Fraction(0)) + x``
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Add)
            and (_is_get_with_fraction_zero(node.left) or _is_get_with_fraction_zero(node.right))
        ]
    assert not found, f"hand-rolled Fraction merges in the package: {found}"


def _calls_outside(tree: ast.AST, builders: dict[str, str], enclosing: tuple[str, ...] = ()):
    """(line, class) of each call to a class in ``builders`` that no function
    named ``builders[class]`` encloses."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in builders and builders[name] not in enclosing:
                yield node.lineno, name
        inner = enclosing
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = enclosing + (node.name,)
        yield from _calls_outside(node, builders, inner)


def test_partition_records_built_only_by_their_enumerators():
    # FourPartition checks nothing on construction: its enumerator builds
    # it valid, and the enumeration tests check that
    builders = {"FourPartition": "enumerate_four_partitions"}
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line} {name}" for line, name in _calls_outside(tree, builders)]
    assert not found, f"partition records built outside their enumerators: {found}"


def test_linear_forms_built_only_by_of():
    # LinearForm normalises nothing itself: ``of`` sorts its coefficients
    # and drops the zeros, so every other construction goes through it
    found = []
    paths = [p for where in (PACKAGE_DIR, SCRIPTS_DIR, TESTS_DIR) for p in where.glob("*.py")]
    for path in sorted(paths):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line}" for line, _ in _calls_outside(tree, {"LinearForm": "of"})]
    assert not found, f"LinearForm built outside LinearForm.of: {found}"


MODULES = ["fcone"] + sorted(f"fcone.{m.name}" for m in pkgutil.iter_modules(fcone.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    # a name deleted from a module but left in an ``__all__`` still imports
    # cleanly; only ``from fcone import *`` or a lookup would notice
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


# each script's line to find, and the sha256 of its whole stdout
@pytest.mark.parametrize(
    "argv, line, sha256",
    [
        (
            ["reproduce_lemmas.py"],
            "with bounds a4>=0,a6<=1: INFEASIBLE",
            "ca120f9b021527aac31fb6584d832aa3cacca950ecfab133d1240a5372969ba4",
        ),
        (
            ["boundary_search.py", "--max-n", "7"],
            "n=6: INFEASIBLE",
            "4a46540566740dc62e6832d79dd275fda02d150ce5aabc1d1b5e1aadd11bdd6d",
        ),
    ],
    ids=["reproduce_lemmas", "boundary_search"],
)
def test_script_runs(argv, line, sha256):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS_DIR / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert any(out.startswith(line) for out in proc.stdout.splitlines()), proc.stdout
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == sha256, proc.stdout
