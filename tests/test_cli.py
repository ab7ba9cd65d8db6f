import copy
import inspect
import json
import shlex
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import lormatch
from lormatch.cli import run

WIDE = '{"m":4,"sets":[[1,2,3,4],[2,3],[3,4]]}'
NARROW = '{"m":2,"sets":[[1],[2],[1,2]]}'
X1X2 = '{"nvars":2,"terms":[{"exp":[1,1],"coeff":1}]}'
ONE = '{"m":1,"sets":[[1]]}'
X1 = '{"nvars":1,"terms":[{"exp":[1],"coeff":1}]}'
BASIS_STATS = '{"matroid":{"m":2,"rank":[0,1,1,2]},"seq":{"m":2,"sets":[[1],[2]]}}'
MEMBERSHIP = '{"pm":{"m":2,"rank":[0,1,1,2]},"seq":{"m":2,"sets":[[1],[2]]},"delta":[1,1]}'


def _call(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_malformed_json_reports_offset(self, capsys):
        code, out, _ = _call(capsys, "match", "--sets", '{"m": 2,', "--alpha", "1,1")
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "malformed-json"
        assert isinstance(payload["offset"], int)

    def test_missing_file(self, capsys):
        code, out, _ = _call(capsys, "certify", "--poly", "@/nonexistent.json")
        assert code == 1
        assert json.loads(out)["error"] == "unreadable-file"

    def test_usage_errors_exit_two(self, capsys):
        code, _, _ = _call(capsys, "nonsense")
        assert code == 2
        code, _, _ = _call(capsys, "ct", "--sets", WIDE)  # neither --r nor --topic
        assert code == 2
        code, _, _ = _call(capsys, "match", "--sets", WIDE, "--alpha", "1,0,0,0", "--caps", "{}")
        assert code == 2

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

    def test_unknown_check(self, capsys):
        code, out, _ = _call(capsys, "verify", "--check", "nope")
        assert code == 1
        assert json.loads(out)["error"] == "unknown-check"

    def test_list(self, capsys):
        data = _json_out(capsys, "verify", "--list")
        assert "golden-examples" in data["checks"]


# one working invocation per public library function; the walk below asserts
# nothing public is missing from this table
OPERATION_COVERAGE = {
    "admits_matching": ("hallrado", "--pm", '{"free":[2,2]}', "--sets", '{"m":2,"sets":[[1],[2]]}', "--delta", "1,1"),
    "admits_restricted": ("verify", "--check", "capped-matchings", "--replay", '{"mode":"random","seq":{"m":1,"sets":[[1]]},"caps":{"1-1":1},"alpha":[1]}'),
    "apply_inducing": ("induce", "--sets", NARROW, "--poly", X1X2),
    "apply_substitution": ("subst", "--sets", NARROW, "--poly", X1X2),
    "augment_with_singletons": ("tab-family", "--sets", NARROW, "--a", "1,1,1", "--b", "0,0,0,0", "--kappa", "1,1"),
    "base_egf": ("pminduce", "--pm", '{"free":[2,2]}', "--egf"),
    "base_points": ("pminduce", "--pm", '{"free":[2,2]}', "--points"),
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
        assert commands == {
            "match",
            "induce",
            "subst",
            "ct",
            "fpoly",
            "symbol",
            "certify",
            "pminduce",
            "hallrado",
            "tab-family",
            "verify",
        }


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
