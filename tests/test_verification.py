from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lormatch import (
    CHECKS,
    CheckResult,
    LinReal,
    OperatorBox,
    Poly,
    Polymatroid,
    SubsetSeq,
    TrialConfig,
    base_points,
    direct_sum,
    free_polymatroid,
    induce_polymatroid,
    inducing_box,
    match_count,
    replay,
    run_all,
    run_check,
)
from lormatch import matchstats, operators, verification
from lormatch._util import iter_box
from lormatch.verification import _trial_rng
from oracles import matched_degrees_box


class TestTrialConfig:
    def test_defaults(self):
        cfg = TrialConfig()
        assert (cfg.seed, cfg.trials, cfg.tolerance) == (1, 100, 1e-9)
        bounds = (verification.MAX_M, verification.MAX_N, verification.MAX_RANK, verification.MAX_KAPPA)
        assert bounds == (5, 5, 3, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrialConfig(trials=0)
        with pytest.raises(ValueError):
            TrialConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            TrialConfig(tolerance=-1e-9)

    @pytest.mark.parametrize("tol", [float("inf"), float("nan")])
    def test_tolerance_must_be_finite(self, tol):
        with pytest.raises(ValueError, match="tolerance must be"):
            TrialConfig(tolerance=tol)

    def test_json_echo(self):
        data = TrialConfig(seed=7).to_json()
        assert data["seed"] == 7 and data["trials"] == 100
        # the fixed instance bounds stay in the echoed config
        assert (data["max_m"], data["max_n"], data["max_rank"], data["max_kappa"]) == (5, 5, 3, 2)


ONE_PART = SubsetSeq(2, (frozenset({1, 2}),))
ONE_SET = {"m": 1, "sets": [[1]]}


@pytest.mark.parametrize(
    "call",
    [
        lambda: SubsetSeq(2, (frozenset({1.5}),)),
        lambda: match_count(ONE_PART, [1.7]),
        lambda: LinReal((1.5,), ((1,),)),
        lambda: OperatorBox((0,), 1, {(0.5,): Poly.constant(1, 1)}),
        lambda: inducing_box(ONE_PART, (1, 1)).image((1.2, 0.9)),
        lambda: CHECKS["symbol-support-egf"].evaluate(
            TrialConfig(), {"seq": ONE_SET, "kappa": [1.5]}
        ),
        lambda: CHECKS["coefficient-power-family"].evaluate(
            TrialConfig(), {"seq": ONE_SET, "kappa": [1.5]}
        ),
        lambda: CHECKS["base-membership-duality"].evaluate(
            TrialConfig(),
            {"pm": {"m": 1, "rank": [0, 1]}, "seq": ONE_SET, "delta": [1.9]},
        ),
    ],
    ids=[
        "subset-seq-part",
        "match-count-topic",
        "linreal-blockdims",
        "operator-table-key",
        "operator-image",
        "symbol-support-kappa",
        "power-family-kappa",
        "base-membership-delta",
    ],
)
def test_non_integer_counts_refused_not_truncated(call):
    with pytest.raises(TypeError, match="integer"):
        call()


class TestDeterminism:
    def test_same_seed_same_instances(self):
        cfg = TrialConfig(trials=6)
        for name in CHECKS:
            count = CHECKS[name].trial_count(cfg)
            for trial in range(count):
                first = CHECKS[name].gen(cfg, _trial_rng(cfg.seed, name, trial), trial)
                second = CHECKS[name].gen(cfg, _trial_rng(cfg.seed, name, trial), trial)
                assert first == second

    def test_results_reproducible(self):
        cfg = TrialConfig(trials=4)
        for name in ("matching-stat-lorentzian", "capped-matchings"):
            a = run_check(name, cfg)
            b = run_check(name, cfg)
            assert a == b

    def test_trials_scale_with_config(self):
        small = TrialConfig(trials=10)
        assert run_check("symbol-support-egf", small).trials == 5
        assert run_check("base-membership-duality", small).trials == 20
        assert run_check("golden-examples", small).trials == 1


class TestRunAndReplay:
    def test_all_pass_small(self):
        results = run_all(TrialConfig(trials=5))
        assert [r.name for r in results] == list(CHECKS)
        for r in results:
            assert r.passed, r.failures[:1]

    def test_unknown_check(self):
        with pytest.raises(KeyError):
            run_check("nope")
        with pytest.raises(KeyError):
            replay("nope", {})

    def test_replay_clean_instance(self):
        cfg = TrialConfig()
        instance = CHECKS["golden-examples"].gen(cfg, _trial_rng(1, "golden-examples", 0), 0)
        assert replay("golden-examples", instance, cfg) == []

    def test_replay_reports_broken_instance(self):
        # a zero weight on an edge makes the substitution pattern invalid,
        # which the evaluator must surface as a reason, not a crash
        bad = {"abcd": [[0, 1, 1, 1]]}
        first = replay("golden-examples", bad)
        second = replay("golden-examples", bad)
        assert first and first == second

    def test_replay_malformed_instance_is_reported(self):
        reasons = replay("symbol-support-egf", {"seq": {"m": 1}})
        assert reasons and reasons[0].startswith("exception:")

    @pytest.mark.parametrize("cap", [0.5, 1.0, "1"])
    def test_replay_non_integer_cap_is_reported(self, cap):
        # a cap of 0.5 once truncated to 0, and the trivial instance passed
        instance = {"mode": "random", "seq": {"m": 1, "sets": [[1]]}, "caps": {"1-1": cap}, "alpha": [1]}
        reasons = replay("capped-matchings", instance)
        assert reasons and reasons[0].startswith("exception: TypeError")
        instance["caps"]["1-1"] = 0
        assert replay("capped-matchings", instance) == []

    def test_failure_payload_is_replayable(self):
        # force a failing trial by corrupting a recorded instance
        cfg = TrialConfig(trials=2)
        name = "capped-matchings"
        instance = CHECKS[name].gen(cfg, _trial_rng(cfg.seed, name, 1), 1)
        assert replay(name, instance, cfg) == []


class TestCheckResult:
    def test_json_shape(self):
        result = run_check("golden-examples", TrialConfig())
        data = result.to_json()
        assert data == {
            "check": "golden-examples",
            "trials": 1,
            "passed": True,
            "failures": [],
        }

    def test_passed_iff_no_failures(self):
        ok = CheckResult("x", 3, ())
        assert ok.passed
        bad = CheckResult("x", 3, ({"trial": 0, "instance": {}, "reasons": ["r"]},))
        assert not bad.passed


class TestMatchingStatCrossCheck:
    """`match_poly` and the bitset route of `apply_inducing` grow the same
    SDR families; the sumset walk the check compares both with does not."""

    TRIANGLE = {"seq": {"m": 3, "sets": [[1, 2], [2, 3], [1, 3]]}}

    def test_a_broken_grow_step_shows_on_both_sides(self, monkeypatch):
        assert replay("matching-stat-lorentzian", self.TRIANGLE) == []
        real = matchstats._bitset_ops

        def broken(seq, bases):
            start, grow, count = real(seq, bases)
            # each grown family loses its lowest SDR mask
            return start, lambda family, j: (g := grow(family, j)) & (g - 1), count

        monkeypatch.setattr(matchstats, "_bitset_ops", broken)
        reasons = replay("matching-stat-lorentzian", self.TRIANGLE)
        assert "r=1: statistic differs from the multi-affine bridge" in reasons
        assert "r=1: induced e_r differs from the sumset walk" in reasons

    def test_a_dropped_multiset_is_reported(self, monkeypatch):
        real = operators._walk
        # each degree's walk loses its first row
        monkeypatch.setattr(operators, "_walk", lambda *args, **kwargs: islice(real(*args, **kwargs), 1, None))
        reasons = replay("matching-stat-lorentzian", self.TRIANGLE)
        assert reasons == ["r=0: induced e_r differs from the sumset walk", "r=1: induced e_r differs from the sumset walk"]


class TestDerivedTablesAtRunTime:
    """Induced tables skip validation; the harness re-validates them."""

    @pytest.mark.parametrize("name", ["base-membership-duality", "symbol-support-egf"])
    def test_one_validation_per_instance(self, monkeypatch, name):
        seen = []
        real = verification.validate_polymatroid

        def counting(rank, m=None):
            seen.append(m)
            return real(rank, m)

        monkeypatch.setattr(verification, "validate_polymatroid", counting)
        result = run_check(name, TrialConfig(trials=6))
        assert result.passed
        assert len(seen) == result.trials

    @pytest.mark.parametrize(
        "name, instance",
        [
            (
                "base-membership-duality",
                {
                    "pm": {"m": 2, "rank": [0, 1, 1, 2]},
                    "seq": {"m": 2, "sets": [[1], [2]]},
                    "delta": [1, 1],
                    "expected": True,
                },
            ),
            ("symbol-support-egf", {"seq": {"m": 2, "sets": [[1, 2], [2]]}, "kappa": [1, 1]}),
        ],
    )
    def test_broken_induction_is_a_reason(self, monkeypatch, name, instance):
        assert replay(name, instance) == []

        def broken(pm, seq):
            # rank 2 on the first part alone but 1 on every larger set
            table = [0] + [1] * ((1 << seq.n) - 1)
            table[1] = 2
            return Polymatroid._derived(seq.n, table)

        monkeypatch.setattr(verification, "induce_polymatroid", broken)
        reasons = replay(name, instance)
        assert reasons[0].startswith("induced table fails the axioms: monotonicity")


@st.composite
def seq_kappa(draw):
    """m, n <= 3 and kappa <= 2; an element may lie in no part."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    sets = tuple(frozenset(draw(st.sets(st.integers(1, m)))) for _ in range(n))
    kappa = tuple(draw(st.integers(0, 2)) for _ in range(m))
    return SubsetSeq(m, sets), kappa


class TestSymbolSupportCheck:
    """`symbol-support-egf` reads the symbol's support off one induced table."""

    @pytest.mark.parametrize(
        "instance",
        [
            # element 2 lies in no part; its budget stays on u_2
            {"seq": {"m": 2, "sets": [[1]]}, "kappa": [1, 2]},
            # edgeless, kappa = 0: the symbol is the constant 1
            {"seq": {"m": 2, "sets": [[], []]}, "kappa": [0, 0]},
        ],
    )
    def test_replays_pass(self, instance):
        assert replay("symbol-support-egf", instance) == []

    def test_a_missing_symbol_term_is_reported(self, monkeypatch):
        real = verification.symbol_of

        def dropped(box):
            sym = real(box)
            last = max(sym.support())
            return Poly(sym.nvars, {e: c for e, c in sym.items() if e != last})

        monkeypatch.setattr(verification, "symbol_of", dropped)
        instance = {"seq": {"m": 2, "sets": [[1, 2], [2]]}, "kappa": [1, 1]}
        reasons = replay("symbol-support-egf", instance)
        assert "symbol support differs from the induced base points" in reasons

    @given(seq_kappa())
    @settings(max_examples=60, deadline=None)
    def test_tracked_base_points_are_the_matched_degrees(self, case):
        # the construction the check reads: one singleton part per element
        # appended to the parts, over the free(1, kappa_i) direct sum
        seq, kappa = case
        singletons = tuple(frozenset({i}) for i in range(1, seq.m + 1))
        tracked = SubsetSeq(seq.m, seq.sets + singletons)
        source = direct_sum([free_polymatroid(1, k) for k in kappa])
        points = base_points(induce_polymatroid(source, tracked))
        expected = {
            beta + tuple(k - a for k, a in zip(kappa, alpha))
            for alpha in iter_box(kappa)
            for beta in matched_degrees_box(seq, alpha)
        }
        assert points == expected
        instance = {"seq": seq.to_json(), "kappa": list(kappa)}
        assert replay("symbol-support-egf", instance) == []
