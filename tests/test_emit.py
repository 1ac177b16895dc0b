"""The CLI's JSON writer prints exactly what ``json.dumps(obj, indent=2)``
prints: on seeded random trees, and on one real report of every ``--json``
subcommand."""

import json
import random
from itertools import combinations

import pytest

import fcone.cli as cli
from fcone.kmaps import canonical_class, pullback_alpha

# characters JSON escapes (quote, backslash, controls) and non-ASCII text,
# which ensure_ascii writes as \uXXXX, the non-BMP one as a surrogate pair
ALPHABET = ['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t", " ", "a", "Z", "7"]
ALPHABET += ["\u00e9", "\u2202", "\u2028", "\U0001f600"]
INTS = [0, 1, -1, 7, -12345, 2**64 + 1, -(2**70), 10**30]


def _text(rng: random.Random) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(5)))


def _tree(rng: random.Random, depth: int):
    kind = rng.randrange(8 if depth < 6 else 5)
    if kind == 0:
        return _text(rng)
    if kind == 1:
        return rng.choice(INTS)
    if kind == 2:
        return rng.choice([True, False])
    if kind == 3:
        return None
    if kind == 4:
        return rng.choice([{}, [], ""])
    size = rng.randrange(1, 5)
    if kind == 5:
        return [_tree(rng, depth + 1) for _ in range(size)]
    return {_text(rng): _tree(rng, depth + 1) for _ in range(size)}


@pytest.mark.parametrize("seed", range(20))
def test_random_trees_match_the_stdlib(seed):
    rng = random.Random(seed)
    for _ in range(50):
        obj = {_text(rng): _tree(rng, 1) for _ in range(rng.randrange(4))}
        assert cli._json_text(obj) == json.dumps(obj, indent=2)


def test_scalars_and_empty_containers_match_the_stdlib():
    for obj in ["", "é\"\\\x00", -(2**70), True, False, None, {}, [], [[]], {"": {}}]:
        assert cli._json_text(obj) == json.dumps(obj, indent=2)


def _reports(monkeypatch, capsys, argv):
    """Run argv; return its stdout and the trees the writer was handed."""
    trees = []
    writer = cli._json_text

    def recording(obj, indent="\n"):
        if indent == "\n":
            trees.append(obj)
        return writer(obj, indent)

    monkeypatch.setattr(cli, "_json_text", recording)
    cli.main(argv)
    return capsys.readouterr().out, trees


@pytest.fixture
def divisor_files(tmp_path):
    # non-ASCII names: the path is echoed into the report's "inputs"
    m_file = tmp_path / "dïvisör-∂.json"
    m_file.write_text(json.dumps(pullback_alpha(canonical_class(4)).to_json_dict()))
    # K_5 in the explicit form: L_i at -2, B_S at |S| - 2
    K5 = {
        "n": 5,
        "L": {str(i): "-2" for i in range(1, 6)},
        "B": {
            ",".join(map(str, S)): str(s - 2)
            for s in range(3, 6)
            for S in combinations(range(1, 6), s)
        },
    }
    k_file = tmp_path / "K-é😀.json"
    k_file.write_text(json.dumps(K5))
    return str(m_file), str(k_file)


ARGVS = {
    "lemmas": lambda m, k: ["lemmas"],
    "verify": lambda m, k: ["verify", "--n", "5", "--combo", "a2=1/4,a5=1"],
    "search-feasible": lambda m, k: ["search", "--n", "4", "--bounds", "a2>=0"],
    "search-infeasible": lambda m, k: ["search", "--n", "6", "--bounds", "a4>=0,a6<=1"],
    "fcurves": lambda m, k: ["fcurves", "--divisor", m, "--sense", "negative", "--all-witnesses"],
    "pullback-alpha": lambda m, k: ["pullback", "alpha", "--divisor", k],
    "pullback-beta": lambda m, k: ["pullback", "beta", "--divisor", k],
    "strata": lambda m, k: ["strata", "--n", "6"],
}


@pytest.mark.parametrize("name", sorted(ARGVS))
def test_every_json_report_matches_the_stdlib(monkeypatch, capsys, divisor_files, name):
    out, trees = _reports(monkeypatch, capsys, ARGVS[name](*divisor_files) + ["--json"])
    assert len(trees) == 1
    assert out == json.dumps(trees[0], indent=2) + "\n"
    assert out.isascii() and json.loads(out) == trees[0]


def test_pullback_alpha_text_matches_the_stdlib(monkeypatch, capsys, divisor_files):
    out, trees = _reports(monkeypatch, capsys, ARGVS["pullback-alpha"](*divisor_files))
    assert len(trees) == 1
    assert out == json.dumps(trees[0], indent=2) + "\n"
