import inspect
import json

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
            "error": "domain",
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
    "admits_matching": ("match", "--sets", WIDE, "--alpha", "0,2,2,1", "--beta", "2,2,1"),
    "admits_restricted": ("match", "--sets", NARROW, "--alpha", "1,1", "--beta", "1,1,0", "--caps", '{"1-1":1,"2-2":1}'),
    "apply_inducing": ("induce", "--sets", NARROW, "--poly", X1X2),
    "apply_substitution": ("subst", "--sets", NARROW, "--poly", X1X2),
    "augment_with_singletons": ("tab-family", "--sets", NARROW, "--a", "1,1,1", "--b", "0,0,0,0", "--kappa", "1,1"),
    "base_egf": ("pminduce", "--pm", '{"free":[2,2]}', "--egf"),
    "base_points": ("pminduce", "--pm", '{"free":[2,2]}', "--points"),
    "basis_match_count": ("ct", "--sets", WIDE, "--topic", "1,2", "--matroid", '{"uniform":[4,2]}'),
    "basis_match_poly": ("fpoly", "--sets", WIDE, "--matroid", '{"uniform":[4,2]}'),
    "box_from_symbol": ("symbol", "--sets", NARROW, "--kappa", "1,1", "--table"),
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
    "validate_polymatroid": ("pminduce", "--pm", '{"m":2,"rank":[0,1,1,2]}'),
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
        code, out, _ = _call(capsys, *OPERATION_COVERAGE[op])
        assert code == 0, out

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
