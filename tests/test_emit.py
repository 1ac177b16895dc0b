"""The CLI's JSON writer prints exactly what ``json.dumps(obj, indent=2)``
prints: on seeded random trees, whole and streamed with arrays given as
iterators, and on one real report of every ``--json`` subcommand."""

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


def _streamed(obj, rng: random.Random, seen: list):
    """``obj`` with each list turned into an iterator over its items with
    probability 1/2; ``seen`` gets each such list's length."""
    if isinstance(obj, dict):
        return {k: _streamed(v, rng, seen) for k, v in obj.items()}
    if isinstance(obj, list):
        items = [_streamed(v, rng, seen) for v in obj]
        if rng.random() < 0.5:
            seen.append(len(items))
            return iter(items)
        return items
    return obj


def _written(obj) -> str:
    pieces = []
    cli._write_json(pieces.append, obj)
    return "".join(pieces)


@pytest.mark.parametrize("seed", range(20))
def test_random_trees_match_the_stdlib(seed):
    rng = random.Random(seed)
    seen = []
    for _ in range(50):
        obj = {_text(rng): _tree(rng, 1) for _ in range(rng.randrange(4))}
        want = json.dumps(obj, indent=2)
        assert cli._json_text(obj) == want
        assert _written(obj) == want
        assert _written(_streamed(obj, rng, seen)) == want
        assert cli._json_text(_streamed(obj, rng, seen)) == want
    # arrays reached both encoders as empty and as non-empty iterators
    assert 0 in seen and max(seen) > 0


def test_scalars_and_empty_containers_match_the_stdlib():
    for obj in ["", "é\"\\\x00", -(2**70), True, False, None, {}, [], [[]], {"": {}}]:
        assert cli._json_text(obj) == json.dumps(obj, indent=2)
        assert _written(obj) == json.dumps(obj, indent=2)
    for items in ([], [[]], [{}, 1], [{"a": []}, "b"]):
        want = json.dumps(items, indent=2)
        assert _written(iter(items)) == want and cli._json_text(iter(items)) == want
        assert _written({"k": iter(items)}) == json.dumps({"k": items}, indent=2)


def test_an_iterator_is_written_item_by_item():
    # one piece per item, each written before the next item is read
    read, pieces = [], []

    def items():
        for i in range(3):
            read.append(len(pieces))
            yield {"i": i}

    cli._write_json(pieces.append, {"result": {"pairs": items()}})
    assert read == [2, 3, 4]
    want = {"result": {"pairs": [{"i": i} for i in range(3)]}}
    assert "".join(pieces) == json.dumps(want, indent=2)


def _tapped(obj):
    """(copy, live): ``live`` is ``obj`` with each iterator wrapped so that
    what it yields is appended, read into lists, to the matching list in
    ``copy``. Once a writer has read ``live``, ``copy`` is the tree written."""
    if isinstance(obj, dict):
        pairs = {k: _tapped(v) for k, v in obj.items()}
        return {k: c for k, (c, _) in pairs.items()}, {k: v for k, (_, v) in pairs.items()}
    if isinstance(obj, list):
        pairs = [_tapped(v) for v in obj]
        return [c for c, _ in pairs], [v for _, v in pairs]
    if hasattr(obj, "__next__"):
        copy = []

        def live():
            for item in obj:
                c, v = _tapped(item)
                copy.append(c)
                yield v

        return copy, live()
    return obj, obj


def _reports(monkeypatch, capsys, argv, streamed=None):
    """Run argv; return its stdout and the trees that either encoder was
    handed whole, with every array read into a list. ``streamed`` gets the
    tree as handed, iterators unread."""
    trees = []
    text, write_json = cli._json_text, cli._write_json

    def recording_text(obj, indent="\n"):
        if indent == "\n":
            trees.append(obj)
        return text(obj, indent)

    def recording_write(write, obj, indent="\n"):
        if indent == "\n":
            copy, obj = _tapped(obj)
            trees.append(copy)
            if streamed is not None:
                streamed.append(obj)
        return write_json(write, obj, indent)

    monkeypatch.setattr(cli, "_json_text", recording_text)
    monkeypatch.setattr(cli, "_write_json", recording_write)
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


@pytest.mark.parametrize("name, key", [("fcurves", "violations"), ("strata", "pairs")])
def test_long_arrays_reach_the_writer_as_iterators(monkeypatch, capsys, divisor_files, name, key):
    # the all-witness and strata lists are read as they are written, never
    # built: a list here would hold the whole report in memory
    streamed = []
    out, trees = _reports(monkeypatch, capsys, ARGVS[name](*divisor_files) + ["--json"], streamed)
    array = streamed[0]["result"][key]
    assert hasattr(array, "__next__") and not isinstance(array, (list, tuple))
    assert len(trees[0]["result"][key]) == len(json.loads(out)["result"][key]) > 0


def test_pullback_alpha_text_matches_the_stdlib(monkeypatch, capsys, divisor_files):
    out, trees = _reports(monkeypatch, capsys, ARGVS["pullback-alpha"](*divisor_files))
    assert len(trees) == 1
    assert out == json.dumps(trees[0], indent=2) + "\n"
