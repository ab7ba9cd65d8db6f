import copy
import inspect
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import lormatch
from lormatch import cli
from lormatch.cli import run
from lormatch.verification import CHECKS
from oracles import rank_literal

WIDE = '{"m":4,"sets":[[1,2,3,4],[2,3],[3,4]]}'
NARROW = '{"m":2,"sets":[[1],[2],[1,2]]}'
X1X2 = '{"nvars":2,"terms":[{"exp":[1,1],"coeff":1}]}'
ONE = '{"m":1,"sets":[[1]]}'
X1 = '{"nvars":1,"terms":[{"exp":[1],"coeff":1}]}'
TRIANGLE = '{"m":3,"sets":[[1,2],[2,3],[1,3]]}'
NO_MEMBERSHIPS = '{"m":2,"sets":[[],[]]}'
BASIS_STATS = '{"matroid":{"m":2,"rank":[0,1,1,2]},"seq":{"m":2,"sets":[[1],[2]]}}'
MEMBERSHIP = '{"pm":{"m":2,"rank":[0,1,1,2]},"seq":{"m":2,"sets":[[1],[2]]},"delta":[1,1]}'
# a truncated document: reading it would be a domain error (exit 1)
MALFORMED = '{"m":'
SUBCOMMANDS = (
    "match", "induce", "subst", "ct", "fpoly", "symbol", "certify",
    "pminduce", "hallrado", "tab-family", "verify",
)


def _call(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# each flag that reads a JSON argument, in a command line around its value
JSON_SOURCES = {
    "--sets": (("ct", "--sets"), ("--r", "1")),
    "--poly": (("certify", "--poly"), ()),
    "--pm": (("pminduce", "--pm"), ()),
    "--replay": (("verify", "--check", "golden-examples", "--replay"), ()),
}
# every flag read through `_parse_with`, the number flags and the choice
# flags, each with one bad 200,000-entry list or 200,000-character value in
# the argv slot None, and an @file whose 5,000-character path is unreadable;
# with the exit code: 1 for a domain error, 2 for a refused flag
_BIG, _LONG = ["x"] * 200_000, "x" * 200_000
BOUNDED_REFUSALS = [
    ("--sets", ("ct", "--sets", None, "--r", "1"), {"m": 2, "sets": [_BIG]}, 1),
    ("--then", ("induce", "--sets", NARROW, "--then", None, "--elementary", "1"), {"m": 2, "sets": [_BIG]}, 1),
    ("--poly", ("certify", "--poly", None), {"nvars": 1, "basis": _BIG, "terms": []}, 1),
    ("--poly", ("certify", "--poly", None), {"nvars": 1, "terms": [{"exp": [1], "num": _LONG}]}, 1),
    ("--support-of", ("pminduce", "--support-of", None), {"nvars": 1, "terms": [{"exp": [1] * 200_000, "coeff": 1}]}, 1),
    ("--caps", ("match", "--sets", WIDE, "--alpha", "1,1,1,0", "--beta", "1,1,1", "--caps", None), {"1-1": _BIG}, 1),
    ("--caps", ("match", "--sets", WIDE, "--alpha", "1,1,1,0", "--beta", "1,1,1", "--caps", None), {_LONG: 1}, 1),
    ("--matroid", ("ct", "--sets", WIDE, "--topic", "1", "--matroid", None), {"m": 4, "rank": _BIG}, 1),
    ("--pm", ("pminduce", "--pm", None, "--points"), {"uniform": _BIG}, 1),
    ("--real", ("pminduce", "--real", None, "--points"), {"blockdims": [1], "gens": [[_BIG]]}, 1),
    ("--matrix", ("subst", "--sets", NARROW, "--poly", X1, "--matrix", None), [[_BIG]], 1),
    ("--replay", ("verify", "--check", "golden-examples", "--replay", None), _BIG, 1),
    ("--q", ("symbol", "--sets", NARROW, "--kappa", "1,1", "--q", None), _LONG, 1),
    ("--alpha", ("match", "--sets", WIDE, "--alpha", None), _LONG, 1),
    ("--seed", ("verify", "--check", "golden-examples", "--seed", None), _LONG, 2),
    ("--tolerance", ("verify", "--check", "golden-examples", "--tolerance", None), _LONG, 2),
    ("--tolerance", ("certify", "--poly", X1X2, "--tolerance", None), _LONG, 2),
    ("--op", ("symbol", "--sets", NARROW, "--kappa", "1,1", "--op", None), _LONG, 2),
    ("--basis", ("induce", "--sets", NARROW, "--elementary", "1", "--basis", None), _LONG, 2),
    ("--format", ("ct", "--sets", WIDE, "--r", "1", "--format", None), _LONG, 2),
    ("--poly", ("certify", "--poly", None), "@" + "x" * 5_000, 1),
]
# far past the JSON scanner's recursion limit (996 levels on CPython 3.11),
# since newer interpreters may allow deeper C recursion
DEEP = 100_000


def _source_error(capsys, flag, value):
    """The one JSON error object, naming the flag, that a bad value gives."""
    head, tail = JSON_SOURCES[flag]
    code, out, err = _call(capsys, *head, value, *tail)
    assert (code, err, out.count("\n")) == (1, "", 1)
    payload = json.loads(out)
    assert payload["flag"] == flag
    return payload


def _json_out(capsys, *argv):
    code, out, _ = _call(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


class TestPinnedInvocations:
    def test_ct_table(self, capsys):
        data = _json_out(capsys, "ct", "--sets", WIDE, "--r", "2")
        assert data["rows"] == [
            {"T": [1, 2], "count": 5},
            {"T": [1, 3], "count": 5},
            {"T": [2, 3], "count": 3},
        ]

    @pytest.mark.parametrize(
        "sets, r, count",
        [
            # r past the parts: no topic of that size
            ('{"m":5,"sets":[[1,2],[2,3]]}', 3, 0),
            # r past the ground set: no topic has an SDR
            ('{"m":3,"sets":[[1],[2],[3],[1,2],[2,3]]}', 4, 0),
            ('{"m":3,"sets":[[1],[2],[3],[1,2],[2,3]]}', 3, 8),
        ],
    )
    def test_fpoly_and_ct_take_the_same_topic_sizes(self, capsys, sets, r, count):
        poly = _json_out(capsys, "fpoly", "--sets", sets, "--r", str(r))
        table = _json_out(capsys, "ct", "--sets", sets, "--r", str(r))
        from_poly = {
            tuple(j + 1 for j, e in enumerate(term["exp"]) if e): int(term["num"])
            for term in poly["terms"]
        }
        assert {tuple(row["T"]): row["count"] for row in table["rows"]} == from_poly
        assert len(from_poly) == count
        for command in ("fpoly", "ct"):
            code, out, err = _call(capsys, command, "--sets", sets, "--r", "-1")
            assert (code, err) == (1, "")
            assert json.loads(out) == {"detail": "topic size r = -1 is negative", "error": "domain"}

    def test_match_with_witness(self, capsys):
        data = _json_out(
            capsys, "match", "--sets", WIDE, "--alpha", "0,2,2,1", "--beta", "2,2,1"
        )
        assert data["feasible"] is True
        weights = {key: v for key, v in data["witness"].items()}
        rows = [0] * 4
        cols = [0] * 3
        for key, w in weights.items():
            i, j = (int(t) for t in key.split("-"))
            rows[i - 1] += w
            cols[j - 1] += w
        assert rows == [0, 2, 2, 1] and cols == [2, 2, 1]

    def test_certify_zero(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text('{"nvars":2,"basis":"plain","terms":[]}')
        data = _json_out(capsys, "certify", "--poly", f"@{path}")
        assert data["lorentzian"] is True

    def test_tab_family_symbol_is_the_symbol_of_its_box(self, capsys):
        argv = ("tab-family", "--sets", NARROW, "--a", "1,2,1/2", "--b", "1,0,1/3,1", "--kappa", "1,1")
        boxed = _json_out(capsys, *argv)
        symbol = _json_out(capsys, *argv, "--symbol")
        assert symbol["augmented_sets"] == boxed["augmented_sets"]
        assert symbol["symbol"] == lormatch.symbol_of(lormatch.OperatorBox.from_json(boxed["box"])).to_json()

    def test_substitution_symbol_reads_its_matrix(self, capsys):
        data = _json_out(
            capsys, "symbol", "--sets", NARROW, "--kappa", "1,1",
            "--op", "substitution", "--matrix", '[[2,0,1],[0,1,"1/2"]]',
        )
        # (x_1 + u_1)(x_2 + u_2) with x_1 -> 2 y_1 + y_3, x_2 -> y_2 + y_3/2
        expected = {
            (1, 1, 0, 0, 0): 2, (1, 0, 1, 0, 0): 1, (0, 1, 1, 0, 0): 1,
            (0, 0, 2, 0, 0): Fraction(1, 2), (1, 0, 0, 0, 1): 2, (0, 0, 1, 0, 1): 1,
            (0, 1, 0, 1, 0): 1, (0, 0, 1, 1, 0): Fraction(1, 2), (0, 0, 0, 1, 1): 1,
        }
        assert data == lormatch.Poly(5, expected).to_json()


class TestParsing:
    def test_normalized_equals_plain(self, capsys):
        plain = _json_out(capsys, "induce", "--sets", NARROW, "--poly", X1X2)
        normalized = _json_out(
            capsys,
            "induce",
            "--sets",
            NARROW,
            "--poly",
            '{"nvars":2,"basis":"normalized","terms":[{"exp":[1,1],"coeff":1}]}',
        )
        assert plain == normalized

    def test_out_of_range_subset_rejected(self, capsys):
        code, out, _ = _call(capsys, "ct", "--sets", '{"m":2,"sets":[[3]]}', "--r", "1")
        assert code == 1
        assert json.loads(out)["error"] == "invalid-value"

    @pytest.mark.parametrize("document", ["truncated", "deep"])
    @pytest.mark.parametrize("flag", JSON_SOURCES)
    def test_malformed_json_reports_offset(self, capsys, tmp_path, flag, document):
        if document == "truncated":
            payload = _source_error(capsys, flag, '{"m": 2,')
            assert isinstance(payload.pop("offset"), int)
            assert payload["detail"]
        else:
            # the JSON scanner recurses once per level; no offset is known
            path = tmp_path / "deep.json"
            path.write_text("[" * DEEP + "]" * DEEP)
            payload = _source_error(capsys, flag, f"@{path}")
            assert payload["detail"] == "JSON nested too deeply"
        assert payload["error"] == "malformed-json"
        assert set(payload) == {"detail", "error", "flag"}

    @pytest.mark.parametrize(
        "sets, detail",
        [
            ([[1], ["x"] * 200_000], "part 2, entry 1 must be an integer, got 'x'"),
            (json.loads("[" * 900 + "]" * 900), "part 1, entry 1 must be an integer, got a list"),
        ],
        ids=["wide-part", "deep-sets"],
    )
    def test_bad_part_is_named_not_echoed(self, capsys, tmp_path, sets, detail):
        # the error names the first bad part and entry, in one short line,
        # however large or deep the 'sets' value is
        path = tmp_path / "sets.json"
        path.write_text(json.dumps({"m": 2, "sets": sets}))
        code, out, err = _call(capsys, "ct", "--sets", f"@{path}", "--r", "1")
        assert (code, err, out.count("\n")) == (1, "", 1)
        assert len(out) < 1024
        assert json.loads(out) == {"detail": detail, "error": "invalid-value", "flag": "--sets"}

    @pytest.mark.parametrize(
        "argv, flag, document, detail",
        [
            (("pminduce", "--points"), "--pm", {"m": 2, "rank": ["x"] * 200_000}, "rank entries must be integers"),
            (("pminduce", "--points"), "--pm", {"free": ["x"] * 200_000}, "expected a list of integers"),
            (("pminduce", "--points"), "--pm", {"uniform": ["x"] * 200_000}, "expected a list of integers"),
            (
                ("certify",), "--poly",
                {"nvars": 1, "terms": [{"exp": ["x"] * 200_000, "coeff": 1}]},
                "exponent entries must be integers",
            ),
        ],
        ids=["pm-rank", "pm-free", "pm-uniform", "poly-exp"],
    )
    def test_bad_integer_list_is_not_echoed(self, capsys, tmp_path, argv, flag, document, detail):
        # a refused list of integers shows at most its first entries, in one
        # short line that names the flag
        path = tmp_path / "source.json"
        path.write_text(json.dumps(document))
        code, out, err = _call(capsys, argv[0], flag, f"@{path}", *argv[1:])
        assert (code, err, out.count("\n")) == (1, "", 1)
        assert len(out) < 1024
        assert json.loads(out) == {
            "detail": f"{detail}, got ['x', 'x', 'x', 'x', 'x', 'x', 'x', '...",
            "error": "invalid-value",
            "flag": flag,
        }

    @pytest.mark.parametrize("flag, argv, value, code", BOUNDED_REFUSALS, ids=[case[0] for case in BOUNDED_REFUSALS])
    def test_refused_value_is_one_short_line(self, capsys, tmp_path, flag, argv, value, code):
        # a JSON value goes through an @file, a string is the flag's text
        if not isinstance(value, str):
            path = tmp_path / "value.json"
            path.write_text(json.dumps(value))
            value = f"@{path}"
        got, out, err = _call(capsys, *(value if arg is None else arg for arg in argv))
        line, other = (out, err) if code == 1 else (err, out)
        assert (got, other, line.count("\n")) == (code, "", 1)
        assert len(line) < 1024
        if code == 1:
            assert json.loads(line)["flag"] == flag
        else:
            assert line.startswith(f"error: argument {flag}: ")

    @pytest.mark.parametrize("source", ["missing", "not-utf8"])
    @pytest.mark.parametrize("flag", JSON_SOURCES)
    def test_missing_file(self, capsys, tmp_path, flag, source):
        path = tmp_path / "source.json"
        if source == "not-utf8":
            path.write_bytes(b"\xff{}")
        payload = _source_error(capsys, flag, f"@{path}")
        assert payload["error"] == "unreadable-file"
        assert set(payload) == {"detail", "error", "flag"}

    def test_usage_errors_exit_two(self, capsys):
        code, _, _ = _call(capsys, "nonsense")
        assert code == 2
        code, _, _ = _call(capsys, "ct", "--sets", WIDE)  # neither --r nor --topic
        assert code == 2
        code, _, _ = _call(capsys, "match", "--sets", WIDE, "--alpha", "1,0,0,0", "--caps", "{}")
        assert code == 2

    @pytest.mark.parametrize("pretty", [(), ("--pretty",)], ids=["plain", "pretty"])
    def test_out_of_memory_is_an_error_object(self, capsys, monkeypatch, pretty):
        # e_1 over a 10^8-element ground set once left a MemoryError traceback
        def exhausted(nvars, degree):
            raise MemoryError

        monkeypatch.setattr("lormatch.polynomials.elementary_symmetric", exhausted)
        sets = '{"m":100000000,"sets":[[1],[1,99999999]]}'
        code, out, err = _call(capsys, "induce", "--elementary", "1", "--sets", sets, *pretty)
        assert (code, out, err) == (1, '{"error":"out-of-memory"}\n', "")

    @pytest.mark.parametrize(
        "argv",
        [
            ("induce", "--sets", NARROW),
            ("induce", "--sets", NARROW, "--poly", X1X2, "--elementary", "1"),
            ("fpoly", "--sets", WIDE),
            ("fpoly", "--sets", WIDE, "--r", "2", "--matroid", '{"uniform":[4,2]}'),
            ("symbol", "--sets", NARROW, "--kappa", "1,1", "--matrix", "[[1,0,1],[0,1,1]]"),
            ("pminduce",),
            ("pminduce", "--pm", '{"free":[2,2]}', "--real", '{"blockdims":[1],"gens":[["1"]]}'),
            ("hallrado", "--sets", ONE, "--delta", "1"),
            ("hallrado", "--pm", '{"free":[1,1]}', "--real", '{"blockdims":[1],"gens":[["1"]]}',
             "--sets", ONE, "--delta", "1"),
            ("verify", "--replay", "{}"),
            # combinations whose extra flag nothing would read
            ("ct", "--sets", TRIANGLE, "--r", "2", "--matroid", '{"uniform":[3,1]}'),
            ("ct", "--sets", TRIANGLE, "--topic", "1,2", "--r", "2"),
            ("ct", "--sets", TRIANGLE, "--topic", "1,2", "--format", "csv"),
            ("certify", "--poly", X1X2, "--quadratic", "--support-only"),
            ("pminduce", "--pm", '{"uniform":[3,2]}', "--bases"),
            ("pminduce", "--support-of", X1X2, "--points"),
            ("pminduce", "--support-of", X1X2, "--egf"),
            ("pminduce", "--support-of", X1X2, "--matroid"),
            ("pminduce", "--support-of", X1X2, "--matroid", "--bases"),
            # each rule again with input that would fail to read: the usage
            # error wins, and nothing is read before it
            ("ct", "--sets", MALFORMED),
            ("ct", "--sets", MALFORMED, "--topic", "1", "--r", "2"),
            ("ct", "--sets", MALFORMED, "--topic", "1", "--format", "csv"),
            ("ct", "--sets", MALFORMED, "--r", "2", "--matroid", MALFORMED),
            ("match", "--sets", MALFORMED, "--alpha", "1", "--caps", MALFORMED),
            ("fpoly", "--sets", MALFORMED),
            ("fpoly", "--sets", MALFORMED, "--r", "2", "--matroid", MALFORMED),
            ("induce", "--sets", MALFORMED),
            ("induce", "--sets", MALFORMED, "--poly", MALFORMED, "--elementary", "1"),
            ("symbol", "--sets", MALFORMED, "--kappa", "1", "--matrix", MALFORMED),
            ("certify", "--poly", MALFORMED, "--quadratic", "--support-only"),
            ("pminduce", "--pm", MALFORMED, "--bases"),
            ("pminduce", "--pm", MALFORMED, "--real", MALFORMED),
            ("pminduce", "--support-of", MALFORMED, "--sets", MALFORMED),
            ("hallrado", "--sets", MALFORMED, "--delta", "1"),
            ("verify", "--replay", MALFORMED),
            ("verify", "--replay", "@/nonexistent.json"),
        ],
    )
    def test_flag_rules_exit_two(self, capsys, monkeypatch, argv):
        # nor is the environment read before a usage error
        monkeypatch.setenv("LORMATCH_SEED", "x")
        monkeypatch.setenv("LORMATCH_TOLERANCE", "x")
        code, out, err = _call(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ("nonsense",),
            (),
            ("ct", "--r", "2"),
            ("ct", "--sets", WIDE, "--r", "2", "--format", "xml"),
            ("ct", "--sets"),
            ("ct", "--sets", WIDE, "--r", "x"),
            ("ct", "--sets", WIDE, "--r", "2", "--unknown"),
        ],
    )
    def test_argparse_refusals_print_one_error_line(self, capsys, argv):
        code, out, err = _call(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("command", [(), *((name,) for name in SUBCOMMANDS)])
    def test_help_exits_zero(self, capsys, command):
        code, out, err = _call(capsys, *command, "--help")
        assert (code, err) == (0, "")
        assert out.startswith("usage: lormatch")

    def test_help_shows_exclusive_flags(self, capsys):
        for command, shown in [
            ("ct", "(--r R | --topic TOPIC)"),
            ("fpoly", "(--r R | --matroid MATROID)"),
            ("induce", "(--poly POLY | --elementary ELEMENTARY)"),
            ("hallrado", "(--pm PM | --real REAL)"),
            ("certify", "[--quadratic | --support-only]"),
        ]:
            _, out, _ = _call(capsys, command, "--help")
            assert shown in " ".join(out.split())

    def test_axiom_violation_payload(self, capsys):
        code, out, _ = _call(
            capsys, "pminduce", "--pm", '{"m":1,"rank":[1,1]}'
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "axiom-violation"
        assert payload["axiom"] == "normalization"

    def test_non_object_caps_rejected(self, capsys):
        code, out, _ = _call(
            capsys, "match", "--sets", '{"m":2,"sets":[[1],[1,2]]}',
            "--alpha", "1,0", "--beta", "1,0", "--caps", "[1]",
        )
        assert code == 1
        assert json.loads(out) == {
            "error": "invalid-value",
            "flag": "--caps",
            "detail": "edge caps JSON must be an object",
        }

    @pytest.mark.parametrize(
        "doc, detail",
        [
            (
                '{"nvars":1,"terms":[{"exp":[1.5],"coeff":1}]}',
                "exponent entries must be integers, got [1.5]",
            ),
            (
                '{"nvars":1.0,"terms":[{"exp":[1],"coeff":1}]}',
                "polynomial JSON needs an integer 'nvars'",
            ),
            (
                '{"nvars":1,"terms":[{"exp":[1],"num":"1","den":0}]}',
                "coefficient denominator must be nonzero",
            ),
            # a JSON true is a bool, never the coefficient 1
            (
                '{"nvars":1,"terms":[{"exp":[2],"coeff":true}]}',
                "coefficients must be integers or strings",
            ),
            (
                '{"nvars":1,"terms":[{"exp":[2],"num":true}]}',
                "coefficients must be integers or strings",
            ),
            (
                '{"nvars":1,"terms":[{"exp":[2],"num":1,"den":true}]}',
                "coefficients must be integers or strings",
            ),
        ],
    )
    def test_poly_counts_and_denominators_checked(self, capsys, doc, detail):
        code, out, err = _call(capsys, "certify", "--poly", doc)
        assert (code, err) == (1, "")
        assert out == (
            '{"detail":' + json.dumps(detail) + ',"error":"invalid-value","flag":"--poly"}\n'
        )

    def test_induced_matroid_of_a_loop_and_a_free_pair(self, capsys):
        data = _json_out(
            capsys, "pminduce", "--pm", '{"sum":[{"free":[1,0]},{"free":[1,2]}]}',
            "--sets", '{"m":2,"sets":[[1],[2]]}', "--matroid",
        )
        assert data["matroid"] == {"m": 2, "rank": [0, 0, 1, 1]}

    def test_real_and_pm_induce_the_same_matroid(self, capsys):
        # one part holding both coordinate blocks: rank 2 on a single part,
        # which the induced matroid cuts down to 1
        sets = '{"m":2,"sets":[[1,2]]}'
        real = _json_out(
            capsys, "pminduce", "--real", '{"blockdims":[1,1],"gens":[[1,0],[0,1]]}',
            "--sets", sets, "--matroid",
        )
        pm = _json_out(capsys, "pminduce", "--pm", '{"m":2,"rank":[0,1,1,2]}', "--sets", sets, "--matroid")
        assert real.pop("realization") == {"blockdims": [2], "gens": [["1", "0"], ["0", "1"]]}
        assert real == pm == {"matroid": {"m": 1, "rank": [0, 1]}, "polymatroid": {"m": 1, "rank": [0, 1]}}

    @settings(
        max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data())
    def test_real_and_pm_agree_on_random_realizations(self, capsys, data):
        dims = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=3), label="blockdims")
        m = len(dims)
        gens = data.draw(
            st.lists(st.lists(st.integers(-1, 1), min_size=sum(dims), max_size=sum(dims)),
                     min_size=1, max_size=3),
            label="gens",
        )
        parts = data.draw(
            st.lists(st.sets(st.integers(1, m), max_size=m), min_size=1, max_size=3), label="sets"
        )
        real = lormatch.LinReal(tuple(dims), tuple(map(tuple, gens)))
        table = [rank_literal(real, mask) for mask in range(1 << m)]
        sets = json.dumps({"m": m, "sets": [sorted(p) for p in parts]})
        for extra in ((), ("--matroid", "--bases"), ("--points",)):
            by_real = _json_out(
                capsys, "pminduce", "--real", json.dumps(real.to_json()), "--sets", sets, *extra
            )
            by_pm = _json_out(
                capsys, "pminduce", "--pm", json.dumps({"m": m, "rank": table}), "--sets", sets, *extra
            )
            assert by_real.pop("realization")["blockdims"] == [
                sum(dims[i - 1] for i in p) for p in parts
            ]
            assert by_real == by_pm

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("match", "--sets", '{"m":1,"sets":[[0.5]]}', "--alpha", "1"), "--sets"),
            (("induce", "--sets", ONE, "--then", '{"m":1,"sets":[[1.0]]}', "--poly", X1), "--then"),
            (("certify", "--poly", '{"nvars":1,"terms":[{"exp":[1],"coeff":"1/0"}]}'), "--poly"),
            (("pminduce", "--support-of", '{"nvars":1,"terms":[{"exp":[1],"coeff":"1/0"}]}'), "--support-of"),
            (("pminduce", "--pm", '{"sum":[{"free":[1,0.5]}]}'), "--pm"),
            (("fpoly", "--sets", ONE, "--matroid", '{"uniform":[1,0.5]}'), "--matroid"),
            (("pminduce", "--real", '{"blockdims":[1],"gens":[["1/0"]]}'), "--real"),
            (("hallrado", "--real", '{"blockdims":[1],"gens":[["1/0"]]}', "--sets", ONE, "--delta", "0"), "--real"),
            (("subst", "--sets", ONE, "--poly", X1, "--matrix", '[["1/0"]]'), "--matrix"),
            (("match", "--sets", ONE, "--alpha", "1", "--beta", "1", "--caps", '{"1-2":1}'), "--caps"),
        ],
    )
    def test_every_json_flag_names_itself(self, capsys, argv, flag):
        code, out, err = _call(capsys, *argv)
        assert (code, err) == (1, "")
        payload = json.loads(out)
        assert (payload["error"], payload["flag"]) == ("invalid-value", flag)

    def test_matroid_shorthand_reads_free_first(self, capsys):
        # as --pm does: {"free": [2, 1]} has only singleton bases, so no pair
        # of parts is matched, where {"uniform": [2, 2]} would count one
        both = '{"free":[2,1],"uniform":[2,2]}'
        data = _json_out(capsys, "ct", "--sets", NARROW, "--topic", "1,2", "--matroid", both)
        assert data == {"count": 0, "topic": [1, 2]}
        data = _json_out(capsys, "ct", "--sets", NARROW, "--topic", "1,2", "--matroid", '{"free":[2,1]}')
        assert data == {"count": 0, "topic": [1, 2]}


class TestRationalJson:
    """A realization entry is a JSON integer or a rational string, as a
    matrix entry is; a float or a bool is refused, never read as a rational."""

    @pytest.mark.parametrize(
        "cell, shown", [("0.5", "0.5"), ("true", "true"), ("1.0", "1.0")]
    )
    def test_real_refuses_floats_and_bools(self, capsys, cell, shown):
        real = '{"blockdims":[1],"gens":[[%s]]}' % cell
        assert _call(capsys, "pminduce", "--real", real) == (
            1,
            '{"detail":"realization entries must be integers or rational strings, '
            f'got {shown}","error":"invalid-value","flag":"--real"}}\n',
            "",
        )

    @pytest.mark.parametrize("cell", ['"1/2"', "2"])
    def test_real_reads_integers_and_rational_strings(self, capsys, cell):
        real = '{"blockdims":[1],"gens":[[%s]]}' % cell
        assert _call(capsys, "pminduce", "--real", real) == (
            0,
            '{"polymatroid":{"m":1,"rank":[0,1]}}\n',
            "",
        )

    # "gens" was iterated whatever it held, so a string or an object was read
    # character by character: "12" as the rows 1 and 2, ["12"] as the row [1, 2]
    @pytest.mark.parametrize(
        "real",
        [
            '{"blockdims":[1],"gens":"12"}',
            '{"blockdims":[1],"gens":{"3":0}}',
            '{"blockdims":[1,1],"gens":["12"]}',
        ],
    )
    def test_real_gens_must_be_a_list_of_rows(self, capsys, real):
        assert _call(capsys, "pminduce", "--real", real) == (
            1,
            '{"detail":"expected a list of rows","error":"invalid-value","flag":"--real"}\n',
            "",
        )


    # int() and Fraction() alone read Unicode digits, "_" separators, padding
    # spaces, a leading "+" and exponents
    NOT_ASCII_RATIONALS = ["\u0663", " 1_0 ", "1_0", " 3", "+3", "1e3", ".5", "3/1_0", "3/ 10", "\uff13/4"]

    def test_poly_num_den_must_be_ascii_digits(self, capsys):
        doc = '{"nvars":1,"terms":[{"exp":[2],"num":"\u0663","den":" 1_0 "}]}'
        assert _call(capsys, "certify", "--poly", doc) == (
            1,
            '{"detail":"expected an integer string such as \\"-12\\", got \'\\u0663\'",'
            '"error":"invalid-value","flag":"--poly"}\n',
            "",
        )
        doc = '{"nvars":1,"terms":[{"exp":[2],"coeff":" 3/1_0"}]}'
        assert _call(capsys, "certify", "--poly", doc) == (
            1,
            '{"detail":"expected a rational string such as \\"-3/2\\" or \\"0.5\\", got \' 3/1_0\'",'
            '"error":"invalid-value","flag":"--poly"}\n',
            "",
        )

    @pytest.mark.parametrize("text", NOT_ASCII_RATIONALS)
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("certify", "--poly", '{"nvars":1,"terms":[{"exp":[2],"coeff":%s}]}'), "--poly"),
            (("certify", "--poly", '{"nvars":1,"terms":[{"exp":[2],"num":%s}]}'), "--poly"),
            (("certify", "--poly", '{"nvars":1,"terms":[{"exp":[2],"num":1,"den":%s}]}'), "--poly"),
            (("pminduce", "--real", '{"blockdims":[1],"gens":[[%s]]}'), "--real"),
            (("subst", "--sets", ONE, "--poly", X1, "--matrix", "[[%s]]"), "--matrix"),
        ],
    )
    def test_number_strings_must_be_ascii(self, capsys, text, argv, flag):
        argv = argv[:-1] + (argv[-1] % json.dumps(text),)
        code, out, err = _call(capsys, *argv)
        assert (code, err) == (1, "")
        payload = json.loads(out)
        assert (payload["error"], payload["flag"]) == ("invalid-value", flag)
        assert payload["detail"].startswith("expected a") and repr(text) in payload["detail"]

    @pytest.mark.parametrize(
        "argv, out",
        [
            (("certify", "--poly", '{"nvars":1,"terms":[{"exp":[2],"num":"-03","den":"10"}]}'),
             '{"checked_derivatives":0,"failure":{"exponents":[[2]],"kind":"negative-coefficient"},"lorentzian":false}\n'),
            (("certify", "--poly", '{"nvars":1,"terms":[{"exp":[2],"coeff":"3/10"}]}'),
             '{"checked_derivatives":1,"failure":null,"lorentzian":true}\n'),
            (("pminduce", "--real", '{"blockdims":[1],"gens":[["-7/3"]]}'),
             '{"polymatroid":{"m":1,"rank":[0,1]}}\n'),
            (("subst", "--sets", ONE, "--poly", X1, "--matrix", '[["2/4"]]'),
             '{"basis":"plain","nvars":1,"terms":[{"den":"2","exp":[1],"num":"1"}]}\n'),
            (("subst", "--sets", ONE, "--poly", X1, "--matrix", '[["0.5"]]'),
             '{"basis":"plain","nvars":1,"terms":[{"den":"2","exp":[1],"num":"1"}]}\n'),
        ],
    )
    def test_ascii_number_strings_read(self, capsys, argv, out):
        assert _call(capsys, *argv) == (0, out, "")

    def test_caps_keys_must_be_ascii(self, capsys):
        argv = ("match", "--sets", ONE, "--alpha", "1", "--beta", "1", "--caps")
        assert _call(capsys, *argv, '{"\u0661-1":1}') == (
            1,
            '{"detail":"cap key \'\\u0661-1\' is not of the form \'i-j\'",'
            '"error":"invalid-value","flag":"--caps"}\n',
            "",
        )
        assert _call(capsys, *argv, '{"1-1":1}')[0] == 0


class TestNumberFlags:
    """The comma-list flags, `--q`, the argparse-typed number flags,
    LORMATCH_SEED and LORMATCH_TOLERANCE read numbers as ASCII text (the JSON
    number-string rule for integers and rationals); only the spaces around
    each number are stripped."""

    TWO_SINGLES = '{"m":2,"sets":[[1],[2]]}'

    # " 3" is read as 3 once stripped, as the "1" of "1, 1" is
    REFUSED_RATIONALS = [t for t in TestRationalJson.NOT_ASCII_RATIONALS if t != " 3"]
    REFUSED_INTEGERS = ["\u0661", "\uff11", "1_0", "\u0661_0", "+1", "1e1", "1.0", " 1 0 "]

    def _refused(self, capsys, argv, flag, text):
        code, out, err = _call(capsys, *argv)
        assert (code, err) == (1, "")
        payload = json.loads(out)
        assert (payload["error"], payload["flag"]) == ("invalid-value", flag)
        assert payload["detail"].startswith("expected a")
        assert repr(text.strip()) in payload["detail"]

    @pytest.mark.parametrize("text", REFUSED_RATIONALS)
    def test_a_refuses(self, capsys, text):
        argv = ("tab-family", "--sets", NARROW, "--a", f"1,1,{text}", "--b", "0,0,0,0")
        self._refused(capsys, argv + ("--kappa", "1,1"), "--a", text)

    def test_only_b_reads_empty_text_as_no_items(self, capsys):
        # an empty --b where singletons exist meets tab_family_box's length check
        argv = ("tab-family", "--sets", NARROW, "--a", "1,1,1", "--b", "", "--kappa", "1,1")
        refused = '{"detail":"b has length 0, expected 4","error":"domain"}\n'
        assert _call(capsys, *argv) == (1, refused, "")
        argv = ("tab-family", "--sets", NO_MEMBERSHIPS, "--a", "", "--b", "", "--kappa", "1,1")
        self._refused(capsys, argv, "--a", "")
        argv = ("tab-family", "--sets", NO_MEMBERSHIPS, "--a", "1,1", "--b", "", "--kappa", "")
        code, out, err = _call(capsys, *argv)
        assert (code, err, json.loads(out)["flag"]) == (1, "", "--kappa")

    @pytest.mark.parametrize("text", REFUSED_RATIONALS)
    def test_q_refuses(self, capsys, text):
        argv = ("symbol", "--sets", ONE, "--kappa", "1", "--q", text)
        self._refused(capsys, argv, "--q", text)

    @pytest.mark.parametrize("text", REFUSED_INTEGERS)
    def test_alpha_refuses(self, capsys, text):
        argv = ("match", "--sets", self.TWO_SINGLES, "--alpha", f"{text},1", "--beta", "1,1")
        self._refused(capsys, argv, "--alpha", text)

    @pytest.mark.parametrize("text", REFUSED_INTEGERS)
    def test_kappa_refuses(self, capsys, text):
        self._refused(capsys, ("symbol", "--sets", ONE, "--kappa", text), "--kappa", text)

    def test_spaces_around_numbers_are_stripped(self, capsys):
        argv = ("match", "--sets", self.TWO_SINGLES, "--alpha", "1, 1", "--beta", " 1,1 ")
        assert _call(capsys, *argv) == (0, '{"feasible":true,"witness":{"1-1":1,"2-2":1}}\n', "")
        half = _call(capsys, "symbol", "--sets", NARROW, "--kappa", "1,1", "--q", " 0.5 ")
        assert half == (0, POWER_SYMBOL, "")

    def test_q_zero_denominator_refused(self, capsys):
        code, out, _ = _call(capsys, "symbol", "--sets", ONE, "--kappa", "1", "--q", "1/0")
        detail = "expected a nonzero denominator, got '1/0'"
        assert code == 1 and json.loads(out) == {"detail": detail, "error": "invalid-value", "flag": "--q"}

    # the argparse-typed number flags: a refused text is a usage error
    INT_FLAGS = [
        ("ct", "--sets", TWO_SINGLES, "--r"),
        ("fpoly", "--sets", TWO_SINGLES, "--r"),
        ("induce", "--sets", TWO_SINGLES, "--elementary"),
        ("verify", "--check", "golden-examples", "--seed"),
        ("verify", "--check", "golden-examples", "--trials"),
    ]

    @pytest.mark.parametrize("argv", INT_FLAGS, ids=lambda argv: f"{argv[0]}{argv[-1]}")
    @pytest.mark.parametrize("text", REFUSED_INTEGERS)
    def test_integer_flag_refuses(self, capsys, argv, text):
        code, out, err = _call(capsys, *argv, text)
        assert (code, out) == (2, "")
        assert f"argument {argv[-1]}: expected an integer string" in err
        assert repr(text.strip()) in err

    @pytest.mark.parametrize("argv", INT_FLAGS, ids=lambda argv: f"{argv[0]}{argv[-1]}")
    def test_integer_flag_reads_ascii_digits(self, capsys, argv):
        assert _call(capsys, *argv, " 1 ")[0] == 0

    REFUSED_FLOATS = ["\u0661e-9", "1e-\u0669", "\uff11", "1_0e-9", "1e-0_9"]

    @pytest.mark.parametrize("text", REFUSED_FLOATS)
    def test_tolerance_flag_refuses(self, capsys, text):
        squares = '{"nvars":2,"terms":[{"exp":[2,0],"coeff":1},{"exp":[0,2],"coeff":1}]}'
        for argv in (
            ("verify", "--check", "golden-examples"),
            ("certify", "--poly", squares, "--quadratic"),
        ):
            code, out, err = _call(capsys, *argv, "--tolerance", text)
            assert (code, out) == (2, "")
            assert "argument --tolerance: expected a decimal number" in err
            assert repr(text) in err

    @pytest.mark.parametrize("text", REFUSED_FLOATS)
    def test_tolerance_environment_refuses(self, capsys, monkeypatch, text):
        monkeypatch.setenv("LORMATCH_TOLERANCE", text)
        code, out, err = _call(capsys, "verify", "--check", "golden-examples")
        assert (code, err) == (1, "")
        payload = json.loads(out)
        assert (payload["error"], payload["variable"]) == ("invalid-environment", "LORMATCH_TOLERANCE")
        assert payload["detail"] == f"expected a decimal number such as \"1e-9\", got {text!r}"

    def test_tolerance_reads_ascii_decimals(self, capsys, monkeypatch):
        argv = ("verify", "--trials", "2", "--check", "golden-examples")
        code, out, _ = _call(capsys, *argv, "--tolerance", " 2.5E-8 ")
        assert code == 0 and json.loads(out.splitlines()[-1])["config"]["tolerance"] == 2.5e-8
        monkeypatch.setenv("LORMATCH_TOLERANCE", " 1e-7 ")
        code, out, _ = _call(capsys, *argv)
        assert code == 0 and json.loads(out.splitlines()[-1])["config"]["tolerance"] == 1e-7

    def test_seed_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("LORMATCH_SEED", "\u0661")
        code, out, _ = _call(capsys, "verify", "--check", "golden-examples")
        payload = json.loads(out)
        assert code == 1
        assert (payload["error"], payload["variable"]) == ("invalid-environment", "LORMATCH_SEED")
        monkeypatch.setenv("LORMATCH_SEED", " 9 ")
        code, out, _ = _call(capsys, "verify", "--trials", "2", "--check", "golden-examples")
        assert code == 0 and json.loads(out.splitlines()[-1])["config"]["seed"] == 9


class TestRepeatedElements:
    """A part that lists an element twice is refused, not folded."""

    @pytest.mark.parametrize(
        "sets, detail",
        [
            ('{"m":2,"sets":[[1,1],[2]]}', "part 1 lists element 1 more than once"),
            ('{"m":3,"sets":[[1],[2,3,1,3]]}', "part 2 lists element 3 more than once"),
        ],
    )
    def test_refused_with_the_part(self, capsys, sets, detail):
        assert _call(capsys, "match", "--sets", sets, "--alpha", "1,1", "--beta", "1,1") == (
            1,
            json.dumps({"detail": detail, "error": "invalid-value", "flag": "--sets"}, separators=(",", ":")) + "\n",
            "",
        )

    def test_then_is_checked_too(self, capsys):
        code, out, _ = _call(capsys, "induce", "--sets", ONE, "--then", '{"m":1,"sets":[[1,1]]}', "--poly", X1)
        assert code == 1
        assert json.loads(out)["detail"] == "part 1 lists element 1 more than once"


class TestIntegerJson:
    """Non-integer counts, ranks and elements are refused, never truncated."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("pminduce", "--pm", '{"rank":[0,1.5]}', "--points"), "--pm"),
            (("pminduce", "--pm", '{"rank":[0,true]}', "--points"), "--pm"),
            (("pminduce", "--pm", '{"rank":["0","1"]}', "--points"), "--pm"),
            (("pminduce", "--pm", '{"m":1.9,"rank":[0,1]}', "--points"), "--pm"),
            (("pminduce", "--pm", '{"m":1,"rank":[0,1.0]}', "--points"), "--pm"),
            (("pminduce", "--pm", '{"free":[2.7,1]}', "--points"), "--pm"),
            (("pminduce", "--pm", '{"free":[2,true]}', "--points"), "--pm"),
            (("pminduce", "--pm", '{"uniform":[3.5,1]}', "--points"), "--pm"),
            (("pminduce", "--pm", '{"sum":[{"free":[1,1]},{"free":[1,0.5]}]}'), "--pm"),
            (("hallrado", "--pm", '{"free":[2,1.5]}', "--sets", NARROW, "--delta", "1,0,0"), "--pm"),
            (("match", "--sets", '{"m":2,"sets":[[1.7],[2]]}', "--alpha", "1,1"), "--sets"),
            (("match", "--sets", '{"m":2.0,"sets":[[1],[2]]}', "--alpha", "1,1"), "--sets"),
            (("match", "--sets", '{"m":2,"sets":["12"]}', "--alpha", "1,1"), "--sets"),
            (("ct", "--sets", NARROW, "--topic", "1", "--matroid", '{"uniform":[2.5,1]}'), "--matroid"),
            (("match", "--sets", ONE, "--alpha", "1", "--beta", "1", "--caps", '{"1-1":1.5}'), "--caps"),
            (("match", "--sets", ONE, "--alpha", "1", "--beta", "1", "--caps", '{"1-1":true}'), "--caps"),
            (("match", "--sets", ONE, "--alpha", "1", "--beta", "1", "--caps", '{"1-1":"0"}'), "--caps"),
            (("pminduce", "--real", '{"blockdims":[1.7,1],"gens":[["1","0"]]}'), "--real"),
            (("pminduce", "--real", '{"blockdims":[true,1],"gens":[["1","0"]]}'), "--real"),
            (("pminduce", "--real", '{"blockdims":["1",1],"gens":[["1","0"]]}'), "--real"),
            (("hallrado", "--real", '{"blockdims":[1.7,1],"gens":[["1","0"]]}', "--sets", NARROW, "--delta", "1,0,0"), "--real"),
            (("hallrado", "--real", '{"blockdims":[true,1],"gens":[["1","0"]]}', "--sets", NARROW, "--delta", "1,0,0"), "--real"),
            (("hallrado", "--real", '{"blockdims":["1",1],"gens":[["1","0"]]}', "--sets", NARROW, "--delta", "1,0,0"), "--real"),
            (("subst", "--sets", ONE, "--poly", X1, "--matrix", "[[true]]"), "--matrix"),
        ],
    )
    def test_refused_as_invalid_value(self, capsys, argv, flag):
        code, out, err = _call(capsys, *argv)
        assert (code, err) == (1, "")
        payload = json.loads(out)
        assert (payload["error"], payload["flag"]) == ("invalid-value", flag)
        assert "integer" in payload["detail"]

    @pytest.mark.parametrize(
        "cmd, pm, detail",
        [
            ("pminduce", '{"sum":5}', r'expected \"sum\": a list of rank tables or shorthands, got 5'),
            ("pminduce", '{"free":[3]}', r'expected \"free\": [N, r], got [3]'),
            ("pminduce", '{"uniform":[3]}', r'expected \"uniform\": [m, r], got [3]'),
            ("pminduce", '{"sum":[{"free":[2]}]}', r'expected \"free\": [N, r], got [2]'),
            ("pminduce", '{"free":[3,1,2]}', r'expected \"free\": [N, r], got [3, 1, 2]'),
            ("hallrado", '{"uniform":[3,1,2]}', r'expected \"uniform\": [m, r], got [3, 1, 2]'),
        ],
    )
    def test_bad_shorthand_names_its_shape(self, capsys, cmd, pm, detail):
        # the expected shape and the refused value, not Python's unpacking
        # or iteration error
        tail = ("--points",) if cmd == "pminduce" else ("--sets", NARROW, "--delta", "1,0,0")
        assert _call(capsys, cmd, "--pm", pm, *tail) == (
            1,
            '{"detail":"' + detail + '","error":"invalid-value","flag":"--pm"}\n',
            "",
        )

    @pytest.mark.parametrize(
        "pm",
        [
            '{"m":2,"rank":[0,1,1,3]}',
            '{"rank":[0,1,1,3]}',
            '{"sum":[{"free":[1,1]},{"m":2,"rank":[0,1,1,3]}]}',
        ],
    )
    def test_bad_raw_table_keeps_its_axiom_payload(self, capsys, pm):
        code, out, err = _call(capsys, "pminduce", "--pm", pm, "--points")
        assert (code, err) == (1, "")
        assert out == (
            '{"axiom":"submodularity","detail":"submodularity: rank(1,) + rank(2,) = 2 < '
            'rank(union) + rank(intersection) = 3","error":"axiom-violation",'
            '"witness":[[1],[2]]}\n'
        )


# canonical stdout of the float operator power, byte for byte: float rows
# carry "coeff" where exact rows carry "num" and "den"
POWER_SYMBOL = (
    '{"basis":"plain","nvars":5,"terms":[{"coeff":1.0,"exp":[0,0,0,1,1]},'
    '{"coeff":1.0,"exp":[0,0,1,0,1]},{"coeff":1.0,"exp":[0,0,1,1,0]},'
    '{"coeff":0.5,"exp":[0,0,2,0,0]},{"coeff":1.0,"exp":[0,1,0,1,0]},'
    '{"coeff":1.0,"exp":[0,1,1,0,0]},{"coeff":1.0,"exp":[1,0,0,0,1]},'
    '{"coeff":1.0,"exp":[1,0,1,0,0]},{"coeff":1.0,"exp":[1,1,0,0,0]}]}\n'
)
POWER_TABLE = (
    '{"kappa":[1,1],"n_out":3,"table":['
    '{"alpha":[0,0],"poly":{"basis":"plain","nvars":3,"terms":[{"coeff":1.0,"exp":[0,0,0]}]}},'
    '{"alpha":[0,1],"poly":{"basis":"plain","nvars":3,"terms":[{"coeff":1.0,"exp":[0,0,1]},'
    '{"coeff":1.0,"exp":[0,1,0]}]}},'
    '{"alpha":[1,0],"poly":{"basis":"plain","nvars":3,"terms":[{"coeff":1.0,"exp":[0,0,1]},'
    '{"coeff":1.0,"exp":[1,0,0]}]}},'
    '{"alpha":[1,1],"poly":{"basis":"plain","nvars":3,"terms":[{"coeff":0.5,"exp":[0,0,2]},'
    '{"coeff":1.0,"exp":[0,1,1]},{"coeff":1.0,"exp":[1,0,1]},{"coeff":1.0,"exp":[1,1,0]}]}}]}\n'
)


class TestFloatOutputGoldens:
    @pytest.mark.parametrize(
        "extra, expected", [((), POWER_SYMBOL), (("--table",), POWER_TABLE)]
    )
    def test_power_bytes(self, capsys, extra, expected):
        code, out, err = _call(
            capsys, "symbol", "--sets", NARROW, "--kappa", "1,1", "--q", "1/2", *extra
        )
        assert (code, out, err) == (0, expected, "")


class TestDeterminismAndPretty:
    def test_byte_identical_verify(self, capsys):
        argv = ("verify", "--trials", "4", "--check", "support-induction")
        _, first, _ = _call(capsys, *argv)
        _, second, _ = _call(capsys, *argv)
        assert first == second

    def test_pretty_goes_to_stderr(self, capsys):
        code, out, err = _call(capsys, "ct", "--sets", WIDE, "--r", "2", "--pretty")
        assert code == 0
        assert err and json.loads(out) == json.loads(err)

    def test_csv_output(self, capsys):
        code, out, _ = _call(capsys, "ct", "--sets", WIDE, "--r", "1", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "T,count"

    def test_csv_pretty_copies_the_table(self, capsys):
        code, out, err = _call(capsys, "ct", "--sets", WIDE, "--r", "1", "--format", "csv", "--pretty")
        assert code == 0
        assert err == out == "T,count\n1,4\n2,2\n3,2\n"

    def test_verify_pretty_names_each_check(self, capsys):
        code, out, err = _call(capsys, "verify", "--trials", "2", "--pretty")
        assert code == 0
        results = [json.loads(line) for line in out.splitlines()[:-1]]
        lines = [f"{r['check']}: pass ({r['trials']} trials)" for r in results]
        assert len(lines) == len(CHECKS)
        assert err.splitlines()[: len(lines)] == lines
        assert json.loads("".join(err.splitlines(keepends=True)[len(lines) :])) == json.loads(
            out.splitlines()[-1]
        )


class TestModuleEntry:
    """`python -m lormatch` is the command line, as a real process."""

    @staticmethod
    def _module(*argv):
        src = str(Path(lormatch.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        return subprocess.run(
            [sys.executable, "-m", "lormatch", *argv], capture_output=True, text=True, env=env, timeout=60
        )

    def test_result_equals_run(self, capsys):
        argv = ("ct", "--sets", WIDE, "--r", "2")
        done = self._module(*argv)
        assert (done.returncode, done.stdout, done.stderr) == _call(capsys, *argv)
        assert done.stdout == '{"r":2,"rows":[{"T":[1,2],"count":5},{"T":[1,3],"count":5},{"T":[2,3],"count":3}]}\n'

    def test_usage_error_exits_2(self):
        # the rule is checked before the malformed --sets is read
        done = self._module("ct", "--sets", MALFORMED)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def _seq(text):
    return lormatch.SubsetSeq.from_json(json.loads(text))


def _egf_payload(pm):
    return {"polymatroid": pm.to_json(), "egf": lormatch.base_egf(pm).to_json()}


# 10 cyclic 3-windows, and one part holding all of 1..3
WINDOWS10 = '{"m":10,"sets":[[1,2,3],[2,3,4],[3,4,5],[4,5,6],[5,6,7],[6,7,8],[7,8,9],[8,9,10],[9,10,1],[10,1,2]]}'
ONE_PART = '{"m":3,"sets":[[1,2,3]]}'
RATIONAL_POLY = '{"nvars":2,"terms":[{"exp":[2,0],"num":"-3","den":"4"},{"exp":[1,1],"coeff":5},{"exp":[0,1],"coeff":"1/6"}]}'
FREE_PM = '{"free":[3,2]}'
# every command whose payload holds a polynomial, with that payload built
# as dicts by `to_json`; the CLI splices each polynomial in as its own text
SPLICED = {
    "induce": (
        ("induce", "--sets", TRIANGLE, "--elementary", "2"),
        lambda: lormatch.apply_inducing(_seq(TRIANGLE), lormatch.elementary_symmetric(3, 2)).to_json(),
    ),
    "induce-normalized": (
        ("induce", "--sets", NARROW, "--poly", RATIONAL_POLY, "--basis", "normalized"),
        lambda: lormatch.apply_inducing(
            _seq(NARROW), lormatch.Poly.from_json(json.loads(RATIONAL_POLY))
        ).to_json("normalized"),
    ),
    "subst": (
        ("subst", "--sets", NARROW, "--poly", RATIONAL_POLY),
        lambda: lormatch.apply_substitution(
            _seq(NARROW), None, lormatch.Poly.from_json(json.loads(RATIONAL_POLY))
        ).to_json(),
    ),
    "subst-normalized": (
        ("subst", "--sets", NARROW, "--poly", RATIONAL_POLY, "--matrix", '[[1,0,3],[0,2,"1/2"]]', "--basis", "normalized"),
        lambda: lormatch.apply_substitution(
            _seq(NARROW),
            [[Fraction(1), Fraction(0), Fraction(3)], [Fraction(0), Fraction(2), Fraction(1, 2)]],
            lormatch.Poly.from_json(json.loads(RATIONAL_POLY)),
        ).to_json("normalized"),
    ),
    "fpoly": (
        ("fpoly", "--sets", WIDE, "--r", "2"),
        lambda: lormatch.match_poly(_seq(WIDE), 2).to_json(),
    ),
    "fpoly-matroid": (
        ("fpoly", "--sets", WIDE, "--matroid", '{"uniform":[4,2]}'),
        lambda: lormatch.basis_match_poly(lormatch.uniform_matroid(4, 2), _seq(WIDE)).to_json(),
    ),
    "symbol": (
        ("symbol", "--sets", TRIANGLE, "--kappa", "2,1,2"),
        lambda: lormatch.symbol_of(lormatch.inducing_box(_seq(TRIANGLE), (2, 1, 2))).to_json(),
    ),
    "symbol-q": (
        ("symbol", "--sets", NARROW, "--kappa", "2,1", "--q", "1/2"),
        lambda: lormatch.symbol_of(
            lormatch.power_box(lormatch.inducing_box(_seq(NARROW), (2, 1)), Fraction(1, 2))
        ).to_json(),
    ),
    "symbol-substitution": (
        ("symbol", "--sets", NARROW, "--kappa", "2,1", "--op", "substitution"),
        lambda: lormatch.symbol_of(lormatch.substitution_box(_seq(NARROW), None, (2, 1))).to_json(),
    ),
    "symbol-table": (
        ("symbol", "--sets", TRIANGLE, "--kappa", "2,1,2", "--table"),
        lambda: lormatch.inducing_box(_seq(TRIANGLE), (2, 1, 2)).to_json(),
    ),
    "symbol-table-q": (
        ("symbol", "--sets", NARROW, "--kappa", "2,1", "--q", "1/2", "--table"),
        lambda: lormatch.power_box(lormatch.inducing_box(_seq(NARROW), (2, 1)), Fraction(1, 2)).to_json(),
    ),
    "symbol-table-substitution": (
        ("symbol", "--sets", NARROW, "--kappa", "2,1", "--op", "substitution", "--table"),
        lambda: lormatch.substitution_box(_seq(NARROW), None, (2, 1)).to_json(),
    ),
    "tab-family-box": (
        ("tab-family", "--sets", NARROW, "--a", "1,2,1/2", "--b", "1,0,1/3,1", "--kappa", "1,1"),
        lambda: {
            "augmented_sets": lormatch.augment_with_singletons(_seq(NARROW)).to_json(),
            "box": lormatch.tab_family_box(
                _seq(NARROW),
                (Fraction(1), Fraction(2), Fraction(1, 2)),
                (Fraction(1), Fraction(0), Fraction(1, 3), Fraction(1)),
                (1, 1),
            ).to_json(),
        },
    ),
    # a sequence with no memberships has no singletons, so --b is empty
    "tab-family-no-memberships": (
        ("tab-family", "--sets", NO_MEMBERSHIPS, "--a", "1,1", "--b", "", "--kappa", "1,1"),
        lambda: {
            "augmented_sets": lormatch.augment_with_singletons(_seq(NO_MEMBERSHIPS)).to_json(),
            "box": lormatch.tab_family_box(_seq(NO_MEMBERSHIPS), [1, 1], [], (1, 1)).to_json(),
        },
    ),
    "pminduce-egf": (
        ("pminduce", "--pm", FREE_PM, "--sets", TRIANGLE, "--egf"),
        lambda: _egf_payload(lormatch.induce_polymatroid(lormatch.free_polymatroid(3, 2), _seq(TRIANGLE))),
    ),
    # the stats deck's shapes, whose exponent entries are all 0-9, and a
    # one-part symbol whose y-exponents reach 12, so that it is written by `json`
    "induce-e5-windows": (
        ("induce", "--sets", WINDOWS10, "--elementary", "5"),
        lambda: lormatch.apply_inducing(_seq(WINDOWS10), lormatch.elementary_symmetric(10, 5)).to_json(),
    ),
    "fpoly-r5-windows": (
        ("fpoly", "--sets", WINDOWS10, "--r", "5"),
        lambda: lormatch.match_poly(_seq(WINDOWS10), 5).to_json(),
    ),
    "symbol-one-part": (
        ("symbol", "--sets", ONE_PART, "--kappa", "4,4,4"),
        lambda: lormatch.symbol_of(lormatch.inducing_box(_seq(ONE_PART), (4, 4, 4))).to_json(),
    ),
    "tab-family-symbol": (
        ("tab-family", "--sets", NARROW, "--a", "1,2,1/2", "--b", "1,0,1/3,1", "--kappa", "1,1", "--symbol"),
        lambda: {
            "augmented_sets": lormatch.augment_with_singletons(_seq(NARROW)).to_json(),
            "symbol": lormatch.symbol_of(
                lormatch.tab_family_box(
                    _seq(NARROW),
                    (Fraction(1), Fraction(2), Fraction(1, 2)),
                    (Fraction(1), Fraction(0), Fraction(1, 3), Fraction(1)),
                    (1, 1),
                )
            ).to_json(),
        },
    ),
}
# the polynomial that makes the payload, and 1600!, its normalized coefficient
# (4,475 digits), is too long for `str` since Python 3.11 (and 3.10.7)
LONG_COEFFICIENT = (
    "induce", "--sets", ONE, "--poly", '{"nvars":1,"terms":[{"exp":[1600],"coeff":1}]}',
    "--basis", "normalized",
)


class TestSplicedPolynomialText:
    @pytest.mark.parametrize("name", SPLICED)
    def test_stdout_is_the_canonical_dict_payload(self, capsys, name):
        argv, payload = SPLICED[name]
        code, out, err = _call(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == cli._canon(payload()) + "\n"

    @pytest.mark.parametrize("name", SPLICED)
    def test_pretty_indents_the_dict_payload(self, capsys, name):
        argv, payload = SPLICED[name]
        code, out, err = _call(capsys, *argv, "--pretty")
        assert code == 0
        assert err == json.dumps(payload(), sort_keys=True, indent=2) + "\n"
        assert json.loads(err) == json.loads(out)

    @pytest.mark.skipif(
        getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
        reason="this interpreter writes integers of any length",
    )
    @pytest.mark.parametrize("extra", [(), ("--pretty",)])
    def test_coefficient_too_long_to_write_is_a_domain_error(self, capsys, extra):
        code, out, err = _call(capsys, *LONG_COEFFICIENT, *extra)
        assert (code, err, out.count("\n")) == (1, "", 1)
        assert json.loads(out)["error"] == "domain"

    def test_writer_fault_is_not_a_domain_error(self, capsys, monkeypatch):
        # the domain-error line is for bad input; a fault in the writer surfaces
        def broken(poly, basis="plain"):
            raise TypeError("writer fault")

        monkeypatch.setattr(lormatch.Poly, "_json_text", broken)
        with pytest.raises(TypeError, match="writer fault"):
            run(["fpoly", "--sets", WIDE, "--r", "2"])
        assert capsys.readouterr().out == ""


class TestVerifySubcommand:
    def test_env_and_flag_precedence(self, capsys, monkeypatch):
        monkeypatch.setenv("LORMATCH_SEED", "9")
        code, out, _ = _call(capsys, "verify", "--trials", "2", "--check", "golden-examples")
        assert code == 0
        summary = json.loads(out.splitlines()[-1])
        assert summary["config"]["seed"] == 9
        code, out, _ = _call(
            capsys, "verify", "--trials", "2", "--seed", "3", "--check", "golden-examples"
        )
        summary = json.loads(out.splitlines()[-1])
        assert summary["config"]["seed"] == 3

    def test_tolerance_env(self, capsys, monkeypatch):
        monkeypatch.setenv("LORMATCH_TOLERANCE", "1e-8")
        code, out, _ = _call(capsys, "verify", "--trials", "2", "--check", "golden-examples")
        summary = json.loads(out.splitlines()[-1])
        assert summary["config"]["tolerance"] == 1e-8

    def test_zero_trials_refused(self, capsys):
        invalid = '{"detail":"trial count must be >= 1","error":"invalid-config"}\n'
        assert _call(capsys, "verify", "--trials", "0") == (1, invalid, "")

    def test_budget_past_the_float_range_refused_before_any_trial(self, capsys):
        budget = "1" + "0" * 400
        invalid = (
            '{"detail":"trial budget 1000000000000000000000000000000000000... '
            'is past the float range","error":"invalid-config"}\n'
        )
        assert _call(capsys, "verify", "--check", "capped-matchings", "--trials", budget) == (1, invalid, "")
        # every check's count is read before the first check runs
        assert _call(capsys, "verify", "--trials", budget) == (1, invalid, "")
        # ratio 0 reads no budget, and a replay counts no trials
        code, out, err = _call(capsys, "verify", "--check", "golden-examples", "--trials", budget)
        assert (code, err, json.loads(out.splitlines()[0])["trials"]) == (0, "", 1)
        _, out, _ = _call(capsys, "verify", "--check", "capped-matchings", "--trials", budget, "--replay", "{}")
        assert set(json.loads(out)) == {"check", "passed", "reasons"}

    def test_infinite_tolerance_refused(self, capsys, monkeypatch):
        invalid = '{"detail":"tolerance must be finite","error":"invalid-config"}\n'
        assert _call(capsys, "verify", "--tolerance", "inf") == (1, invalid, "")
        monkeypatch.setenv("LORMATCH_TOLERANCE", "inf")
        assert _call(capsys, "verify") == (1, invalid, "")

    CERTIFY_MODES = {
        "full": (
            (),
            '{"checked_derivatives":0,"failure":{"exponents":[[0,2],[2,0]],'
            '"kind":"support-not-M-convex"},"lorentzian":false}\n',
        ),
        "quadratic": (("--quadratic",), '{"inertia":[2,0,0]}\n'),
        "support-only": (("--support-only",), '{"m_convex":false,"witness":[[0,2],[2,0]]}\n'),
    }

    @pytest.mark.parametrize("text", ["0", "inf", "nan", "-1"])
    @pytest.mark.parametrize("mode", sorted(CERTIFY_MODES))
    def test_certify_tolerance_refused(self, capsys, mode, text):
        # every mode checks the flag, even where no magnitude is compared
        flags, unset = self.CERTIFY_MODES[mode]
        certify = ("certify", "--poly", '{"nvars":2,"terms":[{"exp":[2,0],"coeff":1},{"exp":[0,2],"coeff":1}]}', *flags)
        assert _call(capsys, *certify) == (0, unset, "")
        detail = "finite" if text == "inf" else "positive"
        refused = f'{{"detail":"tolerance must be {detail}","error":"domain"}}\n'
        assert _call(capsys, *certify, "--tolerance", text) == (1, refused, "")

    def test_one_line_per_check_plus_summary(self, capsys):
        code, out, _ = _call(capsys, "verify", "--trials", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == len(lormatch.CHECKS) + 1
        names = [json.loads(line)["check"] for line in lines[:-1]]
        assert names == list(lormatch.CHECKS)
        assert json.loads(lines[-1])["all_passed"] is True

    def test_replay_flow(self, capsys):
        code, out, _ = _call(
            capsys,
            "verify",
            "--check",
            "golden-examples",
            "--replay",
            '{"abcd":[[2,3,4,5]]}',
        )
        assert code == 0
        assert json.loads(out)["passed"] is True
        code, out, _ = _call(
            capsys,
            "verify",
            "--check",
            "golden-examples",
            "--replay",
            '{"abcd":[[0,1,1,1]]}',
        )
        assert code == 1
        assert json.loads(out)["passed"] is False

    @pytest.mark.parametrize("doc", ["[]", "5", '"x"'])
    def test_replay_rejects_non_objects(self, capsys, doc):
        code, out, _ = _call(capsys, "verify", "--check", "capped-matchings", "--replay", doc)
        assert code == 1
        assert json.loads(out) == {
            "detail": "a replayed instance must be a JSON object",
            "error": "invalid-value",
            "flag": "--replay",
        }

    @pytest.mark.parametrize(
        "check, doc, expected",
        [
            (
                "basis-restricted-stats",
                BASIS_STATS[:-1] + ',"uniform_rank":2.7}',
                '{"check":"basis-restricted-stats","passed":false,"reasons":["exception: '
                'TypeError(\\"\'float\' object cannot be interpreted as an integer\\")"]}\n',
            ),
            (
                "basis-restricted-stats",
                BASIS_STATS[:-1] + ',"uniform_rank":"2"}',
                '{"check":"basis-restricted-stats","passed":false,"reasons":["exception: '
                'TypeError(\\"\'str\' object cannot be interpreted as an integer\\")"]}\n',
            ),
            (
                "basis-restricted-stats",
                BASIS_STATS[:-1] + ',"uniform_rank":true}',
                '{"check":"basis-restricted-stats","passed":false,"reasons":["exception: '
                "TypeError('expected an integer, got true')\"]}\n",
            ),
            (
                "base-membership-duality",
                MEMBERSHIP[:-1] + ',"expected":"false"}',
                '{"check":"base-membership-duality","passed":false,"reasons":["exception: '
                'TypeError(\\"\'expected\' must be null or a JSON bool, got \'false\'\\")"]}\n',
            ),
            (
                "base-membership-duality",
                MEMBERSHIP[:-1] + ',"expected":1}',
                '{"check":"base-membership-duality","passed":false,"reasons":["exception: '
                'TypeError(\\"\'expected\' must be null or a JSON bool, got 1\\")"]}\n',
            ),
            (
                "base-membership-duality",
                MEMBERSHIP[:-1] + ',"expected":false}',
                '{"check":"base-membership-duality","passed":false,"reasons":'
                '["membership is True, expected False"]}\n',
            ),
        ],
    )
    def test_replay_fields_read_as_written(self, capsys, check, doc, expected):
        # a count is an integer and a verdict a JSON bool: 2.7, "2", true,
        # "false" and 1 are refused, never truncated or read by truthiness
        assert _call(capsys, "verify", "--check", check, "--replay", doc) == (1, expected, "")

    def test_replayed_verdict_is_not_echoed(self, capsys):
        doc = json.dumps({**json.loads(MEMBERSHIP), "expected": _BIG})
        code, out, err = _call(capsys, "verify", "--check", "base-membership-duality", "--replay", doc)
        assert (code, err) == (1, "")
        assert json.loads(out)["reasons"] == [
            "exception: TypeError(\"'expected' must be null or a JSON bool, "
            "got ['x', 'x', 'x', 'x', 'x', 'x', 'x', '...\")"
        ]

    def test_unknown_check(self, capsys):
        # a short name is shown as given, a long one cut to 40 characters
        for name, detail in (("nope", "nope"), (_LONG, "x" * 37 + "...")):
            code, out, _ = _call(capsys, "verify", "--check", name)
            assert code == 1
            payload = json.loads(out)
            assert (payload["error"], payload["detail"]) == ("unknown-check", detail)

    def test_list(self, capsys):
        data = _json_out(capsys, "verify", "--list")
        assert "golden-examples" in data["checks"]


# one working invocation per public library function; the walk below asserts
# nothing public is missing from this table
OPERATION_COVERAGE = {
    "admits_matching": ("hallrado", "--pm", '{"free":[2,2]}', "--sets", '{"m":2,"sets":[[1],[2]]}', "--delta", "1,1"),
    "apply_inducing": ("induce", "--sets", NARROW, "--poly", X1X2),
    "apply_substitution": ("subst", "--sets", NARROW, "--poly", X1X2),
    "augment_with_singletons": ("tab-family", "--sets", NARROW, "--a", "1,1,1", "--b", "0,0,0,0", "--kappa", "1,1"),
    "base_egf": ("pminduce", "--pm", '{"free":[2,2]}', "--egf"),
    "base_points": ("pminduce", "--pm", '{"free":[2,2]}', "--egf"),
    "basis_match_count": ("ct", "--sets", WIDE, "--topic", "1,2", "--matroid", '{"uniform":[4,2]}'),
    "basis_match_poly": ("fpoly", "--sets", WIDE, "--matroid", '{"uniform":[4,2]}'),
    "box_from_symbol": ("symbol", "--sets", NARROW, "--kappa", "1,1", "--q", "1/2", "--table"),
    "caps_from_json": ("match", "--sets", NARROW, "--alpha", "1,1", "--beta", "1,1,0", "--caps", '{"1-1":1}'),
    "certify_lorentzian": ("certify", "--poly", X1X2),
    "compose_seq": ("induce", "--sets", '{"m":2,"sets":[[1],[1],[2],[2]]}', "--then", '{"m":4,"sets":[[1,3],[2,4]]}', "--poly", X1X2),
    "direct_sum": ("pminduce", "--pm", '{"sum":[{"free":[1,1]},{"free":[1,2]}]}'),
    "elementary_symmetric": ("induce", "--sets", WIDE, "--elementary", "2"),
    "find_witness": ("match", "--sets", WIDE, "--alpha", "0,2,2,1", "--beta", "2,2,1"),
    "free_polymatroid": ("pminduce", "--pm", '{"free":[2,2]}'),
    "hall_rado_member": ("hallrado", "--pm", '{"free":[2,2]}', "--sets", '{"m":2,"sets":[[1],[2]]}', "--delta", "1,1"),
    "in_base_polytope": ("hallrado", "--pm", '{"free":[2,2]}', "--sets", '{"m":2,"sets":[[1],[2]]}', "--delta", "1,1"),
    "induce_matroid": ("pminduce", "--pm", '{"uniform":[4,2]}', "--sets", WIDE, "--matroid"),
    "induce_polymatroid": ("pminduce", "--pm", '{"uniform":[4,2]}', "--sets", WIDE),
    "inducing_box": ("symbol", "--sets", NARROW, "--kappa", "1,1"),
    "is_m_convex": ("certify", "--poly", X1X2, "--support-only"),
    "linreal_induce": ("pminduce", "--real", '{"blockdims":[1,1],"gens":[["1","1"]]}', "--sets", '{"m":2,"sets":[[1,2]]}'),
    "linreal_rank": ("pminduce", "--real", '{"blockdims":[1,1],"gens":[["1","1"]]}'),
    "match_count": ("ct", "--sets", WIDE, "--topic", "1,2"),
    "match_poly": ("fpoly", "--sets", WIDE, "--r", "2"),
    "matched_degrees": ("match", "--sets", WIDE, "--alpha", "1,1,0,0"),
    "matroid_bases": ("pminduce", "--pm", '{"uniform":[3,2]}', "--matroid", "--bases"),
    "power_box": ("symbol", "--sets", NARROW, "--kappa", "1,1", "--q", "1/2"),
    "quad_inertia": ("certify", "--poly", X1X2, "--quadratic"),
    "replay": ("verify", "--check", "golden-examples", "--replay", '{"abcd":[]}'),
    "run_all": ("verify", "--trials", "2"),
    "run_check": ("verify", "--trials", "2", "--check", "golden-examples"),
    "stat_table": ("ct", "--sets", WIDE, "--r", "2"),
    "substitution_box": ("symbol", "--sets", NARROW, "--kappa", "1,1", "--op", "substitution"),
    "support_polymatroid": ("pminduce", "--support-of", '{"nvars":2,"terms":[{"exp":[1,0],"coeff":1},{"exp":[0,1],"coeff":1}]}'),
    "symbol_of": ("symbol", "--sets", NARROW, "--kappa", "1,1"),
    "symmetric_inertia": ("certify", "--poly", X1X2, "--quadratic"),
    "tab_family_box": ("tab-family", "--sets", NARROW, "--a", "1,1,1", "--b", "0,0,0,0", "--kappa", "1,1"),
    "uniform_matroid": ("pminduce", "--pm", '{"uniform":[3,2]}'),
    "validate_polymatroid": ("pminduce", "--pm", '{"rank":[0,1,1,2]}'),
}


class TestOperationCoverage:
    def test_every_public_function_has_an_invocation(self):
        public_functions = {
            name
            for name in lormatch.__all__
            if inspect.isfunction(getattr(lormatch, name))
        }
        assert public_functions == set(OPERATION_COVERAGE)

    @pytest.mark.parametrize("op", sorted(OPERATION_COVERAGE))
    def test_invocation_succeeds(self, capsys, op):
        reached = set()

        def spy(frame, event, arg):
            if event == "call":
                reached.add(frame.f_code)

        previous = sys.getprofile()
        sys.setprofile(spy)
        try:
            code, out, _ = _call(capsys, *OPERATION_COVERAGE[op])
        finally:
            sys.setprofile(previous)
        assert code == 0, out
        assert getattr(lormatch, op).__code__ in reached

    def test_all_subcommands_enumerated(self):
        commands = {argv[0] for argv in OPERATION_COVERAGE.values()}
        assert commands == set(SUBCOMMANDS)


# JSON built from small integers only, so no generated input can ask for a
# large rank table, box or enumeration
_INT = st.integers(-3, 6)
_INTS = st.lists(_INT, max_size=3)
_KEYS = (
    "m", "sets", "nvars", "terms", "exp", "coeff", "num", "den", "basis",
    "free", "uniform", "sum", "rank", "blockdims", "gens", "1-1", "2-1", "abcd",
)
_ANY_JSON = st.recursive(
    st.none()
    | st.booleans()
    | _INT
    | st.sampled_from(["1/2", "-1", "plain", "normalized", "1-1", "x", ""]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=3),
    max_leaves=5,
)
_CELL = _INT | st.sampled_from(["1/2", "2/0", "x"])
_SETS = st.fixed_dictionaries({"m": _INT, "sets": st.lists(_INTS, max_size=3)})
_CAPS = st.dictionaries(st.sampled_from(["1-1", "2-2", "1-3", "3-1", "x"]), _CELL, max_size=3)
_PM_LEAF = st.one_of(
    st.fixed_dictionaries({"free": _INTS}),
    st.fixed_dictionaries({"uniform": _INTS}),
    st.fixed_dictionaries({"m": _INT, "rank": st.lists(_INT, max_size=8)}),
)
# documents of the right shape, so the fuzz also reaches past the first check
_SHAPED = {
    "--sets": _SETS,
    "--poly": st.fixed_dictionaries(
        {"nvars": _INT, "terms": st.lists(st.fixed_dictionaries({"exp": _INTS, "coeff": _CELL}), max_size=3)},
        optional={"basis": st.sampled_from(["plain", "normalized", "x"])},
    ),
    "--pm": _PM_LEAF | st.fixed_dictionaries({"sum": st.lists(_PM_LEAF, max_size=2)}),
    "--real": st.fixed_dictionaries(
        {"blockdims": _INTS, "gens": st.lists(st.lists(_CELL, max_size=4), max_size=3)}
    ),
    "--caps": _CAPS,
    "--matrix": st.lists(st.lists(_CELL, max_size=3), max_size=3),
    "--replay": st.fixed_dictionaries(
        {"seq": _SETS, "caps": _CAPS, "alpha": st.lists(st.integers(0, 2), max_size=3)}
    ),
}

# one invocation per JSON flag; the generated document replaces None
FUZZED_FLAGS = {
    "--sets": ("ct", "--sets", None, "--r", "1"),
    "--poly": ("certify", "--poly", None),
    "--pm": ("pminduce", "--pm", None),
    "--real": ("pminduce", "--real", None),
    "--caps": ("match", "--sets", NARROW, "--alpha", "1,1", "--beta", "1,1,0", "--caps", None),
    "--matrix": ("subst", "--sets", NARROW, "--poly", X1X2, "--matrix", None),
    "--replay": ("verify", "--check", "capped-matchings", "--replay", None),
}


class TestJsonFlagFuzz:
    @given(
        case=st.sampled_from(sorted(FUZZED_FLAGS)).flatmap(
            lambda flag: st.tuples(st.just(flag), _ANY_JSON | _SHAPED[flag])
        )
    )
    @example(case=("--caps", [1]))
    # a replay far past capped-matchings' 3 x 3 draw, refused before it is built
    @example(case=("--replay", {"mode": "random", "seq": {"m": 1, "sets": [[1]] * 8}, "caps": {}, "alpha": [60]}))
    @settings(
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_exit_codes_and_error_objects(self, capsys, case):
        flag, doc = case
        argv = [json.dumps(doc) if a is None else a for a in FUZZED_FLAGS[flag]]
        code, out, _ = _call(capsys, *argv)
        assert code in (0, 1, 2)
        if code == 1:
            (line,) = out.splitlines()
            payload = json.loads(line)
            # a replayed instance that fails is a report, not an input error
            assert "error" in payload or (flag == "--replay" and not payload["passed"])


# valid documents that the FUZZED_FLAGS invocations accept with exit 0
VALID_FLAG_DOCS = {
    "--sets": {"m": 2, "sets": [[1], [2], [1, 2]]},
    "--poly": {
        "nvars": 2,
        "basis": "normalized",
        "terms": [
            {"exp": [1, 1], "num": "1", "den": "2"},
            {"exp": [2, 0], "num": 3, "den": 4},
            {"exp": [0, 2], "coeff": "1/2"},
            {"exp": [0, 1], "coeff": 1},
        ],
    },
    "--pm": {"sum": [{"free": [1, 1]}, {"uniform": [2, 1]}, {"m": 1, "rank": [0, 1]}]},
    "--real": {"blockdims": [1, 1], "gens": [["1", "1/2"], [0, 2]]},
    "--caps": {"1-1": 1, "2-2": 2},
    "--matrix": [[1, 0, "1/2"], [0, 2, 1]],
    "--replay": {"seq": {"m": 2, "sets": [[1], [2], [1, 2]]}, "caps": {"1-1": 1, "1-3": 2}, "alpha": [1, 1]},
}

_SEQ = lormatch.SubsetSeq.from_json(VALID_FLAG_DOCS["--sets"])
# each library reader with a valid document for it
VALID_LIBRARY_DOCS = {
    "SubsetSeq": (lormatch.SubsetSeq.from_json, VALID_FLAG_DOCS["--sets"]),
    "Poly": (lormatch.Poly.from_json, VALID_FLAG_DOCS["--poly"]),
    "Polymatroid": (lormatch.Polymatroid.from_json, {"m": 2, "rank": [0, 1, 1, 2]}),
    "Matroid": (lormatch.Matroid.from_json, {"m": 2, "rank": [0, 1, 1, 1]}),
    "LinReal": (lormatch.LinReal.from_json, VALID_FLAG_DOCS["--real"]),
    "OperatorBox": (
        lormatch.OperatorBox.from_json,
        lormatch.inducing_box(_SEQ, (1, 1)).to_json(),
    ),
    "caps": (lambda doc: lormatch.caps_from_json(_SEQ, doc), VALID_FLAG_DOCS["--caps"]),
}

# keys whose numbers may be written as strings: "p/q" for rationals, digits
# for a numerator or denominator
_RATIONAL_KEYS = {"num", "den", "coeff", "gens"}


def _numeric_leaves(doc, rational=False, path=()):
    """(path, integer_only) for every number in a valid document."""
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        for key, value in items:
            yield from _numeric_leaves(value, rational or key in _RATIONAL_KEYS, path + (key,))
    elif (isinstance(doc, int) and not isinstance(doc, bool)) or (rational and isinstance(doc, str)):
        yield path, not rational


@st.composite
def _wrong_leaf(draw, doc, rational=False):
    """`doc` with one numeric leaf replaced by a bool, a float or null, or by
    a string where only an integer is valid; each near the value it replaces."""
    path, integer_only = draw(st.sampled_from(list(_numeric_leaves(doc, rational))))
    out = copy.deepcopy(doc)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    value = parent[path[-1]]
    kinds = ["bool", "float", "null"] + (["string"] if integer_only else [])
    kind = draw(st.sampled_from(kinds))
    parent[path[-1]] = {
        "bool": bool(Fraction(value)),
        "float": float(Fraction(value)),
        "null": None,
        "string": str(value),
    }[kind]
    return out


class TestWrongTypeLeaf:
    """A bool, a float, null or a misplaced string at one number of a valid
    document is refused, never read as a nearby value."""

    @pytest.mark.parametrize("flag", sorted(FUZZED_FLAGS))
    def test_valid_documents_are_accepted(self, capsys, flag):
        argv = [json.dumps(VALID_FLAG_DOCS[flag]) if a is None else a for a in FUZZED_FLAGS[flag]]
        code, out, _ = _call(capsys, *argv)
        assert code == 0, out

    @pytest.mark.parametrize("name", sorted(VALID_LIBRARY_DOCS))
    def test_valid_library_documents_are_accepted(self, name):
        read, doc = VALID_LIBRARY_DOCS[name]
        read(doc)

    @given(
        case=st.sampled_from(sorted(FUZZED_FLAGS)).flatmap(
            lambda flag: st.tuples(
                st.just(flag), _wrong_leaf(VALID_FLAG_DOCS[flag], flag == "--matrix")
            )
        )
    )
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_cli_refuses(self, capsys, case):
        flag, doc = case
        argv = [json.dumps(doc) if a is None else a for a in FUZZED_FLAGS[flag]]
        code, out, err = _call(capsys, *argv)
        assert (code, err) == (1, ""), out
        payload = json.loads(out)
        if flag == "--replay":
            # a replayed instance is refused inside the check, as a failed report
            assert not payload["passed"] and payload["reasons"]
            assert all(r.startswith("exception: ") for r in payload["reasons"])
        else:
            assert (payload["error"], payload["flag"]) == ("invalid-value", flag)

    @given(
        case=st.sampled_from(sorted(VALID_LIBRARY_DOCS)).flatmap(
            lambda name: st.tuples(st.just(name), _wrong_leaf(VALID_LIBRARY_DOCS[name][1]))
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_library_refuses(self, case):
        name, doc = case
        read = VALID_LIBRARY_DOCS[name][0]
        with pytest.raises((ValueError, TypeError)):
            read(doc)


def _readme_examples():
    """(argv, printed line or None) for each `$ lormatch ...` example in
    README.md; a trailing backslash continues a command onto the next line."""
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8").splitlines()
    out = []
    i = 0
    while i < len(lines):
        text = lines[i].strip()
        i += 1
        if not text.startswith("$ lormatch "):
            continue
        while text.endswith("\\"):
            text = text[:-1] + lines[i].strip()
            i += 1
        following = lines[i].strip() if i < len(lines) else ""
        printed = following if following and not following.startswith("$") else None
        out.append((shlex.split(text[2:], comments=True)[1:], printed))
    return out


README_EXAMPLES = _readme_examples()


class TestReadmeExamples:
    """Every `$ lormatch` example in README.md runs, and prints what the
    README shows; the one that reads an @file is left out."""

    def test_examples_found(self):
        assert len(README_EXAMPLES) >= 8
        assert sum(printed is not None for _, printed in README_EXAMPLES) >= 3

    @pytest.mark.parametrize(
        "argv, printed",
        [
            pytest.param(argv, printed, id=f"{k}-{argv[0]}")
            for k, (argv, printed) in enumerate(README_EXAMPLES)
            if not any(a.startswith("@") for a in argv)
        ],
    )
    def test_example(self, capsys, argv, printed):
        code, out, _ = _call(capsys, *argv)
        assert code == 0, out
        if printed is not None:
            assert out == printed + "\n"


def _readme_library_block():
    """The ```python block under README.md's "Library use" heading."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_block_prints_its_comments(capsys):
    # each print(...) line ends in a "# value" comment: the line it prints
    block = _readme_library_block()
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    expected = [line.split("#", 1)[1].strip() for line in prints]
    assert len(expected) >= 2
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
