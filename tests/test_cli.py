"""End-to-end command-line behaviour: exit codes, determinism, round trips."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import fcone
from fcone.cli import (
    EXIT_OK,
    EXIT_REFUTED,
    EXIT_UNDECIDED,
    EXIT_USAGE,
    VERDICT_EXIT,
    main,
    parse_bounds_spec,
    parse_combo_spec,
)
from fcone.kmaps import BoundaryCombo, KDivisor, canonical_class, pullback_alpha
from fcone.logfano import WitnessVerdict
from fcone.mcurves import MDivisor, Verdict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_every_verdict_has_the_readme_exit_code():
    # README: 0 verified/feasible, 1 refuted/infeasible, 2 the inequalities
    # pass beyond the range where that decides ampleness
    assert set(VERDICT_EXIT) == set(WitnessVerdict) | set(Verdict)
    assert VERDICT_EXIT == {
        WitnessVerdict.VERIFIED: 0,
        WitnessVerdict.REFUTED: 1,
        WitnessVerdict.UNDECIDED: 2,
        Verdict.POSITIVE: 0,
        Verdict.NOT_POSITIVE: 1,
        Verdict.POSITIVE_BUT_UNDECIDED: 2,
    }


class TestParsers:
    def test_combo_spec(self):
        assert parse_combo_spec("a4=1,a2=1/4") == {4: 1, 2: Fraction(1, 4)}

    def test_combo_spec_without_prefix(self):
        assert parse_combo_spec("4=1") == {4: 1}

    def test_bounds_spec(self):
        bounds = parse_bounds_spec("a4>=0,a6<=1")
        assert bounds.lower == ((4, 0),) and bounds.upper == ((6, 1),)

    @pytest.mark.parametrize("spec", ["a4=1,a4=1/2", "a4=1,4=1"])
    def test_repeated_combo_index_is_usage_error(self, capsys, spec):
        code, out, err = run(capsys, "verify", "--n", "4", "--combo", spec)
        assert code == EXIT_USAGE and out == ""
        assert "duplicate coefficient for a4" in err

    def test_malformed_tokens(self):
        from fcone.cli import CliError

        with pytest.raises(CliError):
            parse_combo_spec("a4:1")
        with pytest.raises(CliError):
            parse_bounds_spec("a4=0")
        with pytest.raises(CliError):
            parse_combo_spec("a4=0.5")  # decimals are not exact input


class TestVerifyCommand:
    def test_verified_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "4", "--combo", "a4=1")
        assert code == EXIT_OK
        assert "VERIFIED" in out and "-6" in out

    def test_refuted_exit_one(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "4", "--combo", "")
        assert code == EXIT_REFUTED
        assert "REFUTED" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "4", "--combo", "a4=1", "--json")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["command"] == "verify"
        assert report["result"]["beta_degree"] == "-6"
        assert report["exit"] == 0

    def test_bad_rational_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "--n", "4", "--combo", "a4=x")
        assert code == EXIT_USAGE


class TestSearchCommand:
    def test_infeasible_exit_one(self, capsys):
        code, out, _ = run(capsys, "search", "--n", "6", "--bounds", "a4>=0,a6<=1")
        assert code == EXIT_REFUTED
        assert "INFEASIBLE" in out and "certificate check: ok" in out

    def test_feasible_exit_zero(self, capsys):
        code, out, _ = run(
            capsys, "search", "--n", "5",
            "--bounds", "a2>=0,a2<=1,a3>=0,a3<=1,a4>=0,a4<=1,a5>=0,a5<=1",
        )
        assert code == EXIT_OK
        assert "FEASIBLE" in out and "VERIFIED" in out

    def test_json_certificate(self, capsys):
        code, out, _ = run(
            capsys, "search", "--n", "6", "--bounds", "a4>=0,a6<=1", "--json"
        )
        assert code == EXIT_REFUTED
        payload = json.loads(out)
        assert payload["result"]["feasibility"]["status"] == "infeasible"
        assert payload["result"]["feasibility"]["multipliers"]

    @pytest.mark.parametrize(
        "n, spec, missing",
        [
            ("6", "a4>=0,a6<=1,a9>=0", "B[9] does not exist on n=6"),
            ("4", "a9>=1", "B[9] does not exist on n=4"),
            ("5", "a0>=0", "B[0] does not exist on n=5"),
            ("5", "a2>=0,a1<=1", "B[1] does not exist on n=5"),
        ],
    )
    def test_bound_on_a_missing_variable_is_usage_error(self, capsys, n, spec, missing):
        code, out, err = run(capsys, "search", "--n", n, "--bounds", spec)
        assert code == EXIT_USAGE and out == "" and missing in err


class TestFcurvesCommand:
    def test_negative_scan(self, tmp_path, capsys):
        H = pullback_alpha(BoundaryCombo.of(4, {4: 1}).to_divisor(K=True))
        path = tmp_path / "divisor.json"
        path.write_text(json.dumps(H.to_json_dict()))
        code, out, _ = run(capsys, "fcurves", "--divisor", str(path), "--sense", "negative")
        assert code == EXIT_OK and "positive" in out

    def test_violation_exit_one(self, tmp_path, capsys):
        H = pullback_alpha(canonical_class(4))
        path = tmp_path / "divisor.json"
        path.write_text(json.dumps(H.to_json_dict()))
        code, out, _ = run(
            capsys, "fcurves", "--divisor", str(path), "--sense", "negative",
            "--all-witnesses",
        )
        assert code == EXIT_REFUTED
        assert out.count("also:") == 5  # six violations, first shown separately

    def test_undecided_exit_two(self, tmp_path, capsys):
        # all-ones divisor: every F-value is -1, but 8 markings sit outside
        # the range where the scan decides ampleness
        from fcone.combinat import Subset

        H = MDivisor(8, {Subset(mask, 8): 1 for mask in range(1, (1 << 8) - 1)})
        path = tmp_path / "divisor.json"
        path.write_text(json.dumps(H.to_json_dict()))
        code, _, _ = run(capsys, "fcurves", "--divisor", str(path), "--sense", "negative")
        assert code == EXIT_UNDECIDED

    def test_missing_file_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "fcurves", "--divisor", str(tmp_path / "nope.json"))
        assert code == EXIT_USAGE and "error" in err


class TestPullbackCommand:
    def test_beta_of_canonical_class(self, capsys):
        code, out, _ = run(capsys, "pullback", "beta", "--n", "7", "--K")
        assert code == EXIT_OK
        assert out.count("-11") == 7

    def test_alpha_output_reparses_to_same_divisor(self, capsys):
        code, out, _ = run(
            capsys, "pullback", "alpha", "--n", "4", "--K", "--combo", "a4=1"
        )
        assert code == EXIT_OK
        parsed = MDivisor.from_json_dict(json.loads(out))
        assert parsed == pullback_alpha(BoundaryCombo.of(4, {4: 1}).to_divisor(K=True))

    def test_divisor_file_with_combo_shorthand(self, tmp_path, capsys):
        path = tmp_path / "divisor.json"
        path.write_text(json.dumps({"n": 4, "K": True, "a": {"4": "1"}}))
        code, out, _ = run(capsys, "pullback", "beta", "--divisor", str(path))
        assert code == EXIT_OK and out.count("-6") == 4

    @pytest.mark.parametrize("flag", [("--n", "9"), ("--K",), ("--combo", "a2=5")])
    def test_divisor_file_takes_no_other_class_flags(self, tmp_path, capsys, flag):
        # the file fixes the class, so a flag that would also set it is refused
        path = tmp_path / "divisor.json"
        path.write_text(json.dumps({"n": 4, "K": True, "a": {"4": "1"}}))
        code, out, err = run(capsys, "pullback", "beta", "--divisor", str(path), *flag)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "fcone: error: --divisor FILE takes no --n, --K or --combo\n"

    def test_empty_divisor_usage_error(self, capsys):
        code, _, _ = run(capsys, "pullback", "alpha", "--n", "4")
        assert code == EXIT_USAGE

    def test_alpha_needs_three_markings(self, capsys):
        code, out, err = run(capsys, "pullback", "alpha", "--n", "2", "--K")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "fcone: error: curve-side pullback needs n >= 3, got n=2\n"


class TestDivisorFileBoundary:
    """Malformed divisor files exit 3 instead of being read some other way."""

    def _run(self, tmp_path, capsys, data, *argv):
        path = tmp_path / "divisor.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, *argv, "--divisor", str(path))
        return code, out, err

    @pytest.mark.parametrize(
        "data, argv",
        [
            ({"n": True, "L": {"1": "1"}}, ("pullback", "beta")),
            ({"m": True, "psi": {"1": "1"}}, ("fcurves",)),
        ],
        ids=["n", "m"],
    )
    def test_boolean_ambient_size(self, tmp_path, capsys, data, argv):
        code, out, err = self._run(tmp_path, capsys, data, *argv)
        assert code == EXIT_USAGE and out == "" and "integer" in err

    def test_non_boolean_k(self, tmp_path, capsys):
        data = {"n": 4, "K": "no", "a": {"4": "1"}}
        code, out, err = self._run(tmp_path, capsys, data, "pullback", "beta")
        assert code == EXIT_USAGE and out == "" and "'K'" in err

    def test_mixed_explicit_and_shorthand_forms(self, tmp_path, capsys):
        data = {"n": 4, "K": True, "L": {"1": "1"}, "B": {"1,2": "1"}}
        code, out, err = self._run(tmp_path, capsys, data, "pullback", "beta")
        assert code == EXIT_USAGE and out == "" and "mixes" in err

    def test_b_key_bound(self, tmp_path, capsys):
        argv = ("pullback", "beta")
        code, out, err = self._run(tmp_path, capsys, {"n": 21, "L": {"1": "1"}}, *argv)
        assert code == EXIT_USAGE and out == "" and "2^21 - 21 - 1 B-keys" in err
        code, out, _ = self._run(tmp_path, capsys, {"n": 20, "L": {"1": "1"}}, *argv)
        assert code == EXIT_OK and out.splitlines()[:2] == ["beta_1: 1", "beta_2: 0"]

    @pytest.mark.parametrize(
        "data, argv",
        [
            ({"m": 5, "dleta": {"1,2": "1"}}, ("fcurves",)),
            ({"n": 4, "L": {"1": "1"}, "b": {"1,2": "1"}}, ("pullback", "beta")),
            ({"n": 4, "K": True, "a": {"4": "1"}, "psi": {}}, ("pullback", "alpha")),
        ],
        ids=["MDivisor", "KDivisor-explicit", "KDivisor-shorthand"],
    )
    def test_unknown_field(self, tmp_path, capsys, data, argv):
        code, out, err = self._run(tmp_path, capsys, data, *argv)
        assert code == EXIT_USAGE and out == "" and "unknown fields" in err

    @pytest.mark.parametrize(
        "data, argv",
        [
            ({"n": 4, "B": {"1,1,2": "1"}}, ("pullback", "beta")),
            ({"m": 5, "delta": {"1,1,2": "1"}}, ("fcurves",)),
        ],
        ids=["B", "delta"],
    )
    def test_repeated_label_in_key(self, tmp_path, capsys, data, argv):
        code, out, err = self._run(tmp_path, capsys, data, *argv)
        assert code == EXIT_USAGE and out == "" and "repeated" in err


@pytest.mark.parametrize(
    "content",
    [b"[" * 100_000, b"\xff\xfe{", b'{"m": ' + b"9" * 5000 + b"}"],
    ids=["nested", "not-utf8", "digit-limit"],
)
@pytest.mark.parametrize(
    "argv, prefix",
    [
        (("fcurves", "--divisor"), "cannot read JSON file"),
        (("pullback", "alpha", "--divisor"), "cannot read JSON file"),
        (("lemmas", "--expectations"), "cannot load expectations from"),
    ],
    ids=["fcurves", "pullback", "lemmas"],
)
def test_unreadable_json_file_exit_three(tmp_path, capsys, content, argv, prefix):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code, out, err = run(capsys, *argv, str(path))
    assert code == EXIT_USAGE and out == "" and "Traceback" not in err
    assert err.startswith(f"fcone: error: {prefix} {path}: ")


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (("fcurves", "--divisor"), "cannot read JSON file"),
        (("pullback", "alpha", "--divisor"), "cannot read JSON file"),
        (("lemmas", "--expectations"), "cannot load expectations from"),
    ],
    ids=["fcurves", "pullback", "lemmas"],
)
def test_json_file_over_the_byte_cap_exit_three(tmp_path, capsys, monkeypatch, argv, prefix):
    # the cap is set small here: a file is refused from its size alone,
    # before decoding, and one at the cap is read as usual
    monkeypatch.setattr("fcone.cli.MAX_JSON_BYTES", 64)
    path = tmp_path / "input.json"
    path.write_bytes(b"{}" + b" " * 63)
    code, out, err = run(capsys, *argv, str(path))
    assert code == EXIT_USAGE and out == ""
    assert err == f"fcone: error: {prefix} {path}: file exceeds 64 bytes\n"
    path.write_bytes(b"{}" + b" " * 62)  # decoded, then refused for its content
    code, out, err = run(capsys, *argv, str(path))
    assert code == EXIT_USAGE and "exceeds" not in err
    if os.path.exists("/dev/zero"):  # an endless file is read only up to the cap
        code, out, err = run(capsys, *argv, "/dev/zero")
        assert code == EXIT_USAGE and err.endswith(": file exceeds 64 bytes\n")


def assert_exit_contract(argv):
    """Run argv in-process: an exit code 0..3, never a traceback, and a usage
    error prints nothing on stdout and one ``fcone: error:`` line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_REFUTED, EXIT_UNDECIDED, EXIT_USAGE), code
    assert "Traceback" not in err.getvalue()
    if code == EXIT_USAGE:
        assert out.getvalue() == "" and err.getvalue().startswith("fcone: error:")


# JSON values for the divisor-file fuzz. Integers stay small: a bare integer
# can only become an ambient size through ``divisor_files``, which keeps
# m <= 8 and n <= 7 so that every scan stays small.
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 9), st.floats(-3, 3), st.text(max_size=4)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def weighted(strategies):
    # one_of collapses repeated strategies; sampling from the list keeps
    # the repeats as weights
    return st.sampled_from(strategies).flatmap(lambda strategy: strategy)


rational_texts = weighted(
    [st.sampled_from(["1", "-2", "1/3", "-3/4", "0", "5/2"])] * 4
    + [st.sampled_from(["1/0", "0.5", "1e3", "x", ""])]
)
labels = weighted([st.integers(1, 5)] * 3 + [st.integers(-1, 9)])
label_keys = st.lists(labels, max_size=4).map(lambda ls: ",".join(map(str, ls)))


def coeff_maps(keys):
    return weighted(
        [st.dictionaries(keys, rational_texts, max_size=5)] * 3
        + [
            st.dictionaries(keys | st.text(max_size=4), rational_texts | json_scalars, max_size=5),
            st.lists(st.tuples(json_scalars, rational_texts), max_size=3),  # pairs, not an object
            json_values,
        ]
    )


def divisor_files(size_field, size_max, fields):
    """Mostly files with a small integer ambient size and any of ``fields``;
    the rest hold arbitrary entries under the same names."""
    size = st.integers(-1, size_max)
    shaped = st.fixed_dictionaries({size_field: size}, optional=fields)
    names = st.sampled_from([size_field, *fields])
    arbitrary = st.dictionaries(names, json_values, max_size=4).filter(
        lambda d: type(d.get(size_field)) is not int
    )
    return weighted([shaped] * 3 + [arbitrary])


label_maps = coeff_maps(labels.map(str))
subset_maps = coeff_maps(label_keys)
K_flags = st.booleans() | json_scalars
m_files = divisor_files("m", 8, {"psi": label_maps, "delta": subset_maps})
k_files = st.one_of(
    divisor_files("n", 7, {"L": label_maps, "B": subset_maps}),
    divisor_files("n", 7, {"K": K_flags, "a": label_maps}),
    divisor_files("n", 7, {"L": label_maps, "B": subset_maps, "K": K_flags, "a": label_maps}),
)


class TestDivisorFileFuzz:
    """Every divisor file ends in an exit code 0..3, never a traceback."""

    @staticmethod
    def _run(path, data, *argv):
        path.write_text(json.dumps(data))
        assert_exit_contract([*argv, "--divisor", str(path)])

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz") / "divisor.json"

    @given(data=m_files, sense=st.sampled_from(["positive", "negative"]))
    @settings(max_examples=150, deadline=None)
    def test_fcurves(self, path, data, sense):
        self._run(path, data, "fcurves", "--sense", sense)

    @given(data=k_files, direction=st.sampled_from(["alpha", "beta"]))
    @settings(max_examples=150, deadline=None)
    def test_pullback(self, path, data, direction):
        self._run(path, data, "pullback", direction)


# argv specs on n <= 6: tokens are mostly well formed, over few indices so
# that repeats are common
small_n = weighted([st.integers(3, 6)] * 3 + [st.integers(-1, 2)])
spec_indices = weighted([st.integers(2, 6)] * 3 + [st.integers(0, 9)]).map(str)


def spec_texts(relations):
    token = st.tuples(
        st.sampled_from(["a", "a", ""]), spec_indices, relations, rational_texts
    ).map("".join)
    return st.lists(token | st.text(max_size=4), max_size=4).map(",".join)


class TestArgvFuzz:
    """Every ``--combo`` and ``--bounds`` spec ends in an exit code 0..3."""

    @given(n=small_n, spec=spec_texts(weighted([st.just("=")] * 4 + [st.sampled_from(["<=", ":", ""])])))
    @example(n=4, spec="a4=1,a4=1/2")
    @example(n=4, spec="a4=1,4=1")
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_verify_combo(self, n, spec):
        assert_exit_contract(["verify", "--n", str(n), "--combo", spec])

    @given(n=small_n, spec=spec_texts(weighted([st.sampled_from(["<=", ">="])] * 4 + [st.just("=")])))
    @example(n=6, spec="a4>=0,a4>=1")
    @example(n=6, spec="a4>=0,a9<=1")
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    def test_search_bounds(self, n, spec):
        assert_exit_contract(["search", "--n", str(n), "--bounds", spec])


def packaged_expectations() -> dict:
    return json.loads(
        resources.files("fcone").joinpath("data/lemma_expectations.json").read_text()
    )


_DROP = object()


def edited(entry, fields):
    """``entry`` with any of ``fields`` replaced by a drawn value or dropped."""

    def apply(edits):
        out = dict(entry)
        for field, value in edits.items():
            if value is _DROP:
                out.pop(field, None)
            else:
                out[field] = value
        return out

    optional = {field: values | st.just(_DROP) for field, values in fields.items()}
    return st.fixed_dictionaries({}, optional=optional).map(apply)


# ambient sizes stay at most 6, so that every lemma check stays small
expectation_ns = weighted(
    [st.integers(-1, 6)] * 3 + [json_values.filter(lambda v: type(v) is not int)]
)
index_maps = coeff_maps(spec_indices)
expectation_texts = st.sampled_from(["verified", "refuted", "infeasible", "-1", "1/4"]) | json_scalars
witness_fields = {
    "n": expectation_ns,
    "combo": index_maps,
    **{f: expectation_texts for f in ("verdict", "f_min", "f_max", "beta_degree")},
}
search_fields = {
    "n": expectation_ns,
    "bounds": weighted(
        [st.fixed_dictionaries({}, optional={"lower": index_maps, "upper": index_maps})] * 3
        + [json_values]
    ),
    "status": expectation_texts,
}
_PACKAGED = packaged_expectations()
expectation_files = weighted(
    [
        st.fixed_dictionaries(
            {
                "log_fano_witness_4": edited(_PACKAGED["log_fano_witness_4"], witness_fields),
                "log_fano_witness_5": edited(_PACKAGED["log_fano_witness_5"], witness_fields),
                "no_witness_6": edited(_PACKAGED["no_witness_6"], search_fields),
            }
        )
    ]
    * 4
    + [json_values]
)


def with_entry(key, **fields):
    data = packaged_expectations()
    data[key] = {**data[key], **fields}
    return data


class TestExpectationsFuzz:
    """Every expectations file ends in an exit code 0..3."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz") / "expect.json"

    @given(data=expectation_files)
    @example(data=with_entry("no_witness_6", bounds=[]))
    @example(data=with_entry("log_fano_witness_4", combo=[]))
    @example(data=with_entry("log_fano_witness_4", combo={"4": 1}))
    @example(data=with_entry("log_fano_witness_4", n="4"))
    @example(data=with_entry("log_fano_witness_4", n=True))
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    def test_lemmas(self, path, data):
        path.write_text(json.dumps(data))
        assert_exit_contract(["lemmas", "--expectations", str(path)])


class TestStrataCommand:
    def test_tsv(self, capsys):
        code, out, _ = run(capsys, "strata", "--n", "2")
        assert code == EXIT_OK
        assert out.splitlines() == ["S\tDeltaKey\tBKey", "1,2\t1,2\t1,2"]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "strata", "--n", "4", "--json")
        assert code == EXIT_OK
        assert json.loads(out)["result"]["count"] == 11


class TestLemmasCommand:
    def test_exit_zero_and_table(self, capsys):
        code, out, _ = run(capsys, "lemmas")
        assert code == EXIT_OK
        assert "n=4" in out and "VERIFIED" in out
        assert "beta -33/4" in out
        assert "INFEASIBLE" in out

    def test_conclusion_marked_as_cited(self, capsys):
        _, out, _ = run(capsys, "lemmas")
        assert "cited" in out and "not recomputed" in out

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "lemmas", "--json")
        _, second, _ = run(capsys, "lemmas", "--json")
        assert first == second

    def test_json_inputs_name_the_expectations_not_their_location(self, tmp_path, capsys):
        _, out, _ = run(capsys, "lemmas", "--json")
        assert json.loads(out)["inputs"] == {"expectations": "packaged"}
        given = tmp_path / "expect.json"
        given.write_text(resources.files("fcone").joinpath("data/lemma_expectations.json").read_text())
        code, out, _ = run(capsys, "lemmas", "--json", "--expectations", str(given))
        assert code == EXIT_OK
        assert json.loads(out)["inputs"] == {"expectations": str(given)}

    def test_corrupted_expectations_exit_three(self, tmp_path, capsys):
        bad = tmp_path / "expect.json"
        bad.write_text("{ not json")
        code, _, err = run(capsys, "lemmas", "--expectations", str(bad))
        assert code == EXIT_USAGE and "error" in err

    @pytest.mark.parametrize(
        "data",
        [
            with_entry("no_witness_6", bounds=[]),
            with_entry("no_witness_6", bounds={"lower": [4]}),
            with_entry("log_fano_witness_4", combo=[]),
            with_entry("log_fano_witness_4", combo={"4": 1.0}),
            with_entry("log_fano_witness_4", n="4"),
            with_entry("log_fano_witness_4", n=True),
            with_entry("no_witness_6", n=True),
        ],
    )
    def test_malformed_fields_exit_three(self, tmp_path, capsys, data):
        bad = tmp_path / "expect.json"
        bad.write_text(json.dumps(data))
        code, out, err = run(capsys, "lemmas", "--expectations", str(bad))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith(f"fcone: error: cannot load expectations from {bad}: ")

    @pytest.mark.parametrize("n", [0, 2, 21])
    @pytest.mark.parametrize("key", ["log_fano_witness_4", "log_fano_witness_5", "no_witness_6"])
    def test_n_outside_the_decidable_range_exit_three(self, tmp_path, capsys, key, n):
        bad = tmp_path / "expect.json"
        bad.write_text(json.dumps(with_entry(key, n=n)))
        code, out, err = run(capsys, "lemmas", "--expectations", str(bad))
        assert code == EXIT_USAGE and out == "" and "Traceback" not in err
        assert err.startswith(f"fcone: error: cannot load expectations from {bad}: ")

    def test_integer_combo_value_reads_as_the_rational(self, tmp_path, capsys):
        # as in divisor files, a bare JSON integer is an exact rational
        given = tmp_path / "expect.json"
        given.write_text(json.dumps(with_entry("log_fano_witness_4", combo={"4": 1})))
        code, _, _ = run(capsys, "lemmas", "--expectations", str(given))
        assert code == EXIT_OK

    def test_wrong_expectations_exit_one(self, tmp_path, capsys):
        wrong = tmp_path / "expect.json"
        data = {
            "log_fano_witness_4": {
                "n": 4, "combo": {"4": "1"}, "verdict": "verified",
                "f_min": "-1", "f_max": "-1", "beta_degree": "-7",
            },
            "log_fano_witness_5": {
                "n": 5, "combo": {"2": "1/4", "4": "1/4", "5": "1"},
                "verdict": "verified", "f_min": "-1/4", "f_max": "-1/4",
                "beta_degree": "-33/4",
            },
            "no_witness_6": {
                "n": 6, "bounds": {"lower": {"4": "0"}, "upper": {"6": "1"}},
                "status": "infeasible",
            },
        }
        wrong.write_text(json.dumps(data))
        code, out, _ = run(capsys, "lemmas", "--expectations", str(wrong))
        assert code == EXIT_REFUTED
        assert "MISMATCHES" in out and "expected -7, got -6" in out


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--n", "2", "--combo", "a2=1"], "witness verification needs n >= 3, got 2"),
            (["search", "--n", "2"], "constraint generation needs n >= 3, got 2"),
            (["search", "--n", "2", "--bounds", "a2>=0"], "constraint generation needs n >= 3, got 2"),
            (["strata", "--n", "1"], "no boundary keys on n=1 < 2"),
            (["pullback", "alpha"], "need --divisor FILE or --n N (with optional --K/--combo)"),
        ],
        ids=["verify", "search", "search-bounds", "strata", "pullback-no-n"],
    )
    def test_small_n_usage_error(self, capsys, argv, message):
        # the library's own rule on n, or the CLI's on a missing n, reaches
        # the user as one usage error
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (EXIT_USAGE, "", f"fcone: error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--n", "5", "--combo", "a7=1"], "B[7] does not exist on n=5"),
            (["verify", "--n", "0", "--combo", "a2=1"], "n must be >= 1, got 0"),
            (["verify", "--n", "2", "--combo", "a5=1"], "B[5] does not exist on n=2"),
        ],
        ids=["size-above-n", "n-below-one", "size-above-small-n"],
    )
    def test_combo_rules_reach_verify(self, capsys, argv, message):
        # BoundaryCombo's rules on n and on each a_s come before the
        # verifier's own n >= 3
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (EXIT_USAGE, "", f"fcone: error: {message}\n")

    def test_closed_stdout_exits_three_quietly(self):
        # a reader that stops early (``| head -1``) closes the pipe mid-print
        env = dict(os.environ, PYTHONPATH=str(Path(fcone.__file__).resolve().parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "fcone.cli", "strata", "--n", "14"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline() == b"S\tDeltaKey\tBKey\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=300), err) == (EXIT_USAGE, b"")

    @pytest.mark.parametrize(
        "argv, data, message",
        [
            (
                ["fcurves"],
                {"m": 3, "psi": {"1": "1"}},
                "no four-block partitions of 3 < 4 labels",
            ),
            (
                ["fcurves"],
                {"m": 4, "delta": {"1,2,3,4": "1"}},
                "bad divisor file: empty or full key {1,2,3,4} on m=4 is not a divisor class",
            ),
            (
                ["fcurves"],
                {"m": 4, "delta": {"": "1"}},
                "bad divisor file: empty or full key {} on m=4 is not a divisor class",
            ),
            (
                ["pullback", "alpha"],
                {"n": 4, "B": {"2": "1"}},
                "bad divisor file: B-key needs |S| >= 2, got {2}",
            ),
            (
                ["fcurves"],
                {"m": 3, "delta": {"1,2": "1"}},
                "bad divisor file: boundary key {1,2} needs m >= 4",
            ),
            (
                ["pullback", "beta"],
                {"n": 5, "L": {"9": "1"}},
                "bad divisor file: L-label 9 out of range 1..5",
            ),
        ],
        ids=[
            "fcurves-m3",
            "fcurves-full-key",
            "fcurves-empty-key",
            "pullback-b-singleton",
            "fcurves-boundary-key-m3",
            "pullback-l-label",
        ],
    )
    def test_key_and_size_rules_name_labels(self, tmp_path, capsys, argv, data, message):
        # each rule on keys and on m is stated once, and its message names
        # keys by their labels
        path = tmp_path / "divisor.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, *argv, "--divisor", str(path))
        assert (code, out, err) == (EXIT_USAGE, "", f"fcone: error: {message}\n")

    def test_divisor_file_must_hold_an_object(self, tmp_path, capsys):
        path = tmp_path / "divisor.json"
        path.write_text("[]")
        code, out, err = run(capsys, "fcurves", "--divisor", str(path))
        message = f"JSON file {path} must hold an object"
        assert (code, out, err) == (EXIT_USAGE, "", f"fcone: error: {message}\n")

    def test_closed_stderr_exits_three(self):
        # a usage error printed to a stderr pipe whose reader has gone
        env = dict(os.environ, PYTHONPATH=str(Path(fcone.__file__).resolve().parents[1]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "fcone.cli", "verify", "--n", "0", "--combo", "a2=1"],
                stdout=subprocess.DEVNULL, stderr=write_end, env=env, timeout=300,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_USAGE

    @pytest.mark.parametrize("fmt", [(), ("--json",)], ids=["text", "json"])
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["strata", "--n", "1"], "no boundary keys on n=1 < 2"),
            (["strata", "--n", "21"], "n=21 has 2^21 - 21 - 1 B-keys"),
            (["strata", "--n", "1000000000"], "B-keys"),
            (["fcurves", "--divisor", "m3.json", "--all-witnesses"], "no four-block partitions"),
            (["fcurves", "--divisor", "m5.json", "--sense", "sideways"], "invalid choice"),
            (["fcurves", "--divisor", "nope.json", "--all-witnesses"], "cannot read JSON file"),
            (["fcurves", "--divisor", "list.json", "--all-witnesses"], "must hold an object"),
            (["fcurves", "--divisor", "bad.json", "--all-witnesses"], "bad divisor file"),
        ],
        ids=["strata-n1", "strata-n21", "strata-n1e9", "fcurves-m3", "fcurves-sense",
             "fcurves-missing", "fcurves-list", "fcurves-bad-key"],
    )
    def test_streamed_reports_refuse_before_the_first_byte(
        self, tmp_path, monkeypatch, capsys, fmt, argv, message
    ):
        # both reports stream, so every refusal must come before any output
        monkeypatch.chdir(tmp_path)
        (tmp_path / "m3.json").write_text('{"m": 3, "psi": {"1": "1"}}')
        (tmp_path / "m5.json").write_text('{"m": 5}')
        (tmp_path / "list.json").write_text("[]")
        (tmp_path / "bad.json").write_text('{"m": 5, "delta": {"1,9": "1"}}')
        code, out, err = run(capsys, *argv, *fmt)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("fcone: error: ") and message in err

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == EXIT_USAGE

    def test_unknown_flag(self, capsys):
        assert run(capsys, "verify", "--n", "4", "--weird")[0] == EXIT_USAGE

    def test_huge_n_refused_before_listing_b_keys(self, tmp_path, capsys):
        # 2^30 B-keys would not fit in memory; the refusal names the count
        # before anything of size n is built, so n = 10^9 is refused at once
        for n in ("30", "1000000", "1000000000"):
            K_file, a_file = tmp_path / "K.json", tmp_path / "a.json"
            B_file = tmp_path / "B.json"
            K_file.write_text(f'{{"n": {n}, "K": true}}')
            a_file.write_text(f'{{"n": {n}, "a": {{}}}}')
            B_file.write_text(f'{{"n": {n}, "B": {{"1,2": "1"}}}}')
            for argv in (
                ("strata", "--n", n),
                ("pullback", "beta", "--n", n, "--K"),
                ("pullback", "beta", "--n", n, "--combo", "a2=1"),
                ("pullback", "beta", "--divisor", str(K_file)),
                ("pullback", "beta", "--divisor", str(a_file)),
                ("pullback", "beta", "--divisor", str(B_file)),
                ("verify", "--n", n, "--combo", "a2=1"),
            ):
                code, out, err = run(capsys, *argv)
                assert code == EXIT_USAGE and out == ""
                assert f"2^{n} - {n} - 1 B-keys" in err
        # a B-key's range check costs O(n) memory, so the explicit form's
        # reader refuses n before its first key (12.7 MiB at n = 10^8 if not)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="B-keys"):
                KDivisor.from_json_dict({"n": 10**8, "B": {"1,2": "1"}})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_huge_m_refused_before_listing_partitions(self, tmp_path, capsys):
        # a pullback makes at most MAX_KEY_LABELS + 1 = 21 markings; m = 10^9
        # used to end in a MemoryError while the scan built its minima pool
        path = tmp_path / "m.json"
        for m in ("22", "1000000", "1000000000"):
            path.write_text(f'{{"m": {m}, "psi": {{"1": "1"}}}}')
            code, out, err = run(capsys, "fcurves", "--divisor", str(path))
            assert code == EXIT_USAGE and out == ""
            assert f"bad divisor file: m={m} exceeds 21" in err

    @pytest.mark.parametrize(
        "K, message",
        [(("--K",), "2^25 - 25 - 1 B-keys"), ((), "B[30] does not exist on n=25")],
    )
    def test_canonical_class_error_wins_over_the_combo(self, capsys, K, message):
        # with --K the B-key bound is named first, without it the bad combo
        code, out, err = run(capsys, "pullback", "beta", "--n", "25", *K, "--combo", "a30=1")
        assert code == EXIT_USAGE and out == "" and message in err

    def test_k_error_on_n_wins_over_a_malformed_combo(self, capsys):
        code, out, err = run(capsys, "pullback", "beta", "--n", "0", "--K", "--combo", "zz")
        assert code == EXIT_USAGE and out == "" and "n must be >= 1, got 0" in err

    def test_search_beyond_the_b_key_bound(self, capsys):
        code, out, err = run(capsys, "search", "--n", "21", "--bounds", "a2>=0,a21<=1")
        assert code == EXIT_USAGE and out == "" and "2^21 - 21 - 1 B-keys" in err


def _raise(*args, **kwargs):
    raise AssertionError("built output that is not printed")


class TestOnlyThePrintedFormatIsBuilt:
    def test_strata_json_builds_no_tsv(self, monkeypatch, capsys):
        from fcone.strata import DivisorCorrespondence

        monkeypatch.setattr(DivisorCorrespondence, "tsv_lines", _raise)
        code, out, _ = run(capsys, "strata", "--n", "4", "--json")
        assert code == EXIT_OK and json.loads(out)["result"]["count"] == 11

    def test_fcurves_text_builds_no_json(self, tmp_path, monkeypatch, capsys):
        from fcone.mcurves import AmpDecision

        monkeypatch.setattr(AmpDecision, "to_json_dict", _raise)
        path = tmp_path / "divisor.json"
        path.write_text(json.dumps(pullback_alpha(canonical_class(4)).to_json_dict()))
        code, out, _ = run(
            capsys, "fcurves", "--divisor", str(path), "--sense", "negative", "--all-witnesses"
        )
        assert code == EXIT_REFUTED and out.count("also:") == 5

    def test_pullback_alpha_json_encodes_once(self, monkeypatch, capsys):
        # both encoders recurse one indent deeper per level: count only the
        # calls, to either, that start a document
        import fcone.cli as cli

        calls = []
        text, write_json = cli._json_text, cli._write_json

        def counting_text(obj, indent="\n"):
            calls.append(indent == "\n")
            return text(obj, indent)

        def counting_write(write, obj, indent="\n"):
            calls.append(indent == "\n")
            return write_json(write, obj, indent)

        monkeypatch.setattr(cli, "_json_text", counting_text)
        monkeypatch.setattr(cli, "_write_json", counting_write)
        code, out, _ = run(capsys, "pullback", "alpha", "--n", "5", "--K", "--json")
        assert code == EXIT_OK and json.loads(out)["command"] == "pullback"
        assert sum(calls) == 1


def _cli_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(Path(fcone.__file__).resolve().parents[1]))


class TestStreamedReports:
    """``fcurves --all-witnesses`` and ``strata`` write their reports as the
    scan runs, so memory does not grow with the report."""

    # sha256 of the stdout of each argv, run in a directory holding z11.json
    # = {"m": 11}, the zero class: every F-value is 0, so all S(11, 4) =
    # 145,750 F-curves break the strict inequality (a 13 MiB report)
    REPORTS = {
        ("fcurves", "--divisor", "z11.json", "--all-witnesses", "--json"): (
            EXIT_REFUTED, "d7c603a97e345f3113ffcc157a38d73a7706126863712db5dc40faefea772cf1"
        ),
        ("strata", "--n", "16", "--json"): (
            EXIT_OK, "3e8e2a67dae67fcb629800a6caec312962e4114781a120cf518e5f6db62c0036"
        ),
    }

    @pytest.mark.parametrize("argv", sorted(REPORTS), ids=["fcurves-m11", "strata-n16"])
    def test_peak_memory_stays_flat(self, tmp_path, monkeypatch, argv):
        # stdout goes to a file, so captured text does not count. Measured:
        # 1.2 MiB and 0.1 MiB; built whole, the reports peaked at 128 MiB (a
        # whole-cap read buffer, then the report) and 66 MiB
        monkeypatch.chdir(tmp_path)
        (tmp_path / "z11.json").write_text('{"m": 11}')
        with open(tmp_path / "out", "w", encoding="utf-8") as fh:
            with contextlib.redirect_stdout(fh):
                tracemalloc.start()
                try:
                    code = main(list(argv))
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        out = (tmp_path / "out").read_bytes()
        assert (code, hashlib.sha256(out).hexdigest()) == self.REPORTS[argv]
        assert len(out) > 3 * 2**20 and peak < 2 * 2**20

    def test_closed_stdout_mid_report_exits_three_quietly(self, tmp_path):
        # the reader stops after the verdict line of a 6 MiB text report
        (tmp_path / "z11.json").write_text('{"m": 11}')
        proc = subprocess.Popen(
            [sys.executable, "-m", "fcone.cli", "fcurves", "--divisor", "z11.json",
             "--all-witnesses"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(), cwd=tmp_path,
        )
        assert proc.stdout.readline() == b"m=11 sense=positive: not-positive\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=300), err) == (EXIT_USAGE, b"")
