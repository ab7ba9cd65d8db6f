import contextlib
import json
import operator
import os
import threading
import time
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
from lormatch import matchings, matchstats, operators, verification
from lormatch._util import bounded_compositions, iter_box
from lormatch.lorentzian import Inertia
from lormatch.verification import _capped_column_sums, _trial_rng
from oracles import enumerate_matching, matched_degrees_box


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
        # ratio 0.0 reads no budget, not even one past float range: read off
        # the count, never run
        for trials in (1, 2, 7, 10**6, 10**400):
            assert CHECKS["golden-examples"].trial_count(TrialConfig(trials=trials)) == 1

    def test_budget_past_the_float_range_is_a_value_error(self):
        message = r"^trial budget 1000000000000000000000000000000000000\.\.\. is past the float range$"
        with pytest.raises(ValueError, match=message):
            CHECKS["capped-matchings"].trial_count(TrialConfig(trials=10**400))
        # 1e308 is a float, but twice it rounds to infinity
        with pytest.raises(ValueError, match="past the float range"):
            CHECKS["base-membership-duality"].trial_count(TrialConfig(trials=10**308))


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
        # a zero weight is below the generator's draws, and the row reader
        # must surface its refusal as a reason, not a crash
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

    @pytest.mark.parametrize("alpha", [[0, -1], [2, -1]])
    def test_replay_negative_alpha_is_reported(self, alpha):
        # with a negative total no beta was compared, and [0, -1] passed
        instance = {"mode": "random", "seq": {"m": 2, "sets": [[1, 2]]}, "caps": {}, "alpha": alpha}
        assert replay("capped-matchings", instance) == ["exception: ValueError('alpha must be nonnegative')"]

    @pytest.mark.parametrize(
        "expected, reasons",
        [
            (True, ["membership is False, expected True"]),
            ("yes", ["exception: TypeError(\"'expected' must be null or a JSON bool, got 'yes'\")"]),
            (False, []),
        ],
    )
    def test_replay_negative_delta_compares_expected(self, expected, reasons):
        # hall_rado_member answers False for a negative entry, and that answer
        # is held to `expected` like any other
        instance = {
            "pm": {"m": 2, "rank": [0, 1, 1, 1]},
            "seq": {"m": 2, "sets": [[1], [2]]},
            "delta": [1, -1],
            "expected": expected,
        }
        assert replay("base-membership-duality", instance) == reasons

    def test_membership_disagreement_is_named_once(self, monkeypatch):
        # the InternalCheckError text already names the disagreement, and
        # both checks that call hall_rado_member report it as it is
        from lormatch import polymatroids

        monkeypatch.setattr(polymatroids, "in_base_polytope", lambda pm, delta: False)
        line = "membership paths disagree: inequalities say False, witness search says True (delta=(1, 1))"
        instance = {
            "pm": {"m": 2, "rank": [0, 2, 2, 2]},
            "seq": {"m": 2, "sets": [[1], [2]]},
            "delta": [1, 1],
            "expected": True,
        }
        assert replay("base-membership-duality", instance) == [line]
        assert replay("golden-examples", {"abcd": [[1, 1, 1, 1]]}) == [line]

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


def _pin_split(monkeypatch, split):
    monkeypatch.setattr(verification, "_can_split", lambda: split)


def _same_on_two_workers(monkeypatch, name, cfg):
    """run_check in one loop, asserted equal to run_check split over the
    parent and one child."""
    _pin_split(monkeypatch, False)
    alone = run_check(name, cfg)
    _pin_split(monkeypatch, True)
    assert run_check(name, cfg) == alone
    return alone


def _plant_failures(monkeypatch):
    """Add a reason to about a third of all instances, chosen by the
    instance alone, so that a split has failures to merge."""
    real = verification._evaluate_safe

    def planted(check, cfg, instance):
        reasons = real(check, cfg, instance)
        if len(json.dumps(instance, sort_keys=True)) % 3 == 0:
            reasons = reasons + ["planted"]
        return reasons

    monkeypatch.setattr(verification, "_evaluate_safe", planted)


@contextlib.contextmanager
def _live_thread():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    # the OS thread may outlive join() for a moment, and a later test's
    # _can_split would count it in /proc/self/task
    deadline = time.monotonic() + 10
    while os.path.exists(f"/proc/self/task/{thread.native_id}") and time.monotonic() < deadline:
        time.sleep(0.001)


class TestSplitTrials:
    """`run_check` splits a check's trials by index: the parent runs the
    even trials and one forked child the odd ones; no result depends on the
    split."""

    @pytest.mark.parametrize("name", list(CHECKS))
    def test_every_split_gives_the_one_loop_result(self, monkeypatch, name):
        _plant_failures(monkeypatch)
        for seed in (1, 2, 3):
            for trials in (1, 2, 7, 100):
                cfg = TrialConfig(seed=seed, trials=trials)
                alone = _same_on_two_workers(monkeypatch, name, cfg)
        # the last result, at 100 trials, had failures to merge
        assert len(alone.failures) >= 2 or CHECKS[name].trial_count(cfg) == 1

    def test_a_dead_worker_share_is_rerun(self, monkeypatch):
        _plant_failures(monkeypatch)
        cfg = TrialConfig(seed=2, trials=7)
        _pin_split(monkeypatch, False)
        alone = run_check("capped-matchings", cfg)
        parent = os.getpid()
        real = verification._trial_rng

        def dying(seed, name, trial):
            # the child runs trials 1, 3 and 5
            if trial == 3 and os.getpid() != parent:
                os._exit(1)
            return real(seed, name, trial)

        monkeypatch.setattr(verification, "_trial_rng", dying)
        _pin_split(monkeypatch, True)
        assert alone.failures and run_check("capped-matchings", cfg) == alone

    def test_a_failed_fork_runs_every_trial_in_process(self, monkeypatch):
        _plant_failures(monkeypatch)
        cfg = TrialConfig(seed=3, trials=7)
        _pin_split(monkeypatch, False)
        alone = run_check("capped-matchings", cfg)

        def failing():
            raise BlockingIOError("no process left")

        monkeypatch.setattr(os, "fork", failing)
        _pin_split(monkeypatch, True)
        assert alone.failures and run_check("capped-matchings", cfg) == alone

    @pytest.mark.parametrize("name, forks", [("capped-matchings", 1), ("golden-examples", 0)])
    def test_one_fork_per_split_check(self, monkeypatch, name, forks):
        calls = []
        real = os.fork

        def counting():
            calls.append(name)
            return real()

        monkeypatch.setattr(os, "fork", counting)
        _pin_split(monkeypatch, True)
        assert run_check(name, TrialConfig(trials=7)).passed
        assert len(calls) == forks

    def test_an_interrupted_parent_leaves_no_child(self, monkeypatch):
        real = verification._trial_rng

        def interrupted(seed, name, trial):
            # the parent runs trials 0, 2, 4, ...; the child stalls in its
            # first trial, 1, until it is killed
            if trial == 1:
                time.sleep(60)
            if trial == 2:
                raise KeyboardInterrupt
            return real(seed, name, trial)

        monkeypatch.setattr(verification, "_trial_rng", interrupted)
        _pin_split(monkeypatch, True)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_check("capped-matchings", TrialConfig(trials=100))
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_live_thread_keeps_the_trials_in_process(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked with a live thread")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        with _live_thread():
            assert not verification._can_split()
            assert run_check("capped-matchings", TrialConfig(trials=7)).passed

    def test_threads_are_counted_without_proc(self, monkeypatch):
        def unreadable(path):
            raise PermissionError(path)

        monkeypatch.setattr(os, "listdir", unreadable)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        assert verification._can_split()
        with _live_thread():
            assert not verification._can_split()

    @pytest.mark.parametrize("cpus, workers", [(1, 1), (2, 2), (16, 2)])
    def test_workers_follow_the_usable_cpus(self, monkeypatch, cpus, workers):
        # a split runs on two processes, the parent and one child
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert 1 + verification._can_split() == workers
        monkeypatch.delattr(os, "fork")
        assert not verification._can_split()

    @pytest.mark.parametrize("cpus, split", [(None, False), (1, False), (4, True)])
    def test_cpu_count_decides_without_affinity(self, monkeypatch, cpus, split):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert verification._can_split() == split


@st.composite
def capped_alphas(draw):
    """(seq, caps, alpha) with m, n <= 3: empty parts, elements in no part and
    zero caps all occur."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    seq = SubsetSeq(m, tuple(frozenset(draw(st.sets(st.integers(1, m)))) for _ in range(n)))
    caps = {edge: draw(st.integers(0, 2)) for edge in seq.edges() if draw(st.booleans())}
    alpha = tuple(draw(st.integers(0, 2)) for _ in range(m))
    return seq, caps, alpha


class TestCappedMatchings:
    @given(capped_alphas())
    @settings(max_examples=200, deadline=None)
    def test_column_sums_are_the_matched_betas(self, case):
        # the slow side of the check, one enumeration per alpha, against
        # the oracle's search over edge weightings one beta at a time
        seq, caps, alpha = case
        total = sum(alpha)
        reached = _capped_column_sums(seq, caps, alpha)
        assert all(sum(beta) == total for beta in reached)
        for beta in bounded_compositions(total, (total,) * seq.n):
            assert (beta in reached) == enumerate_matching(seq, alpha, beta, caps)

    def test_a_planted_ge_cut_is_reported(self, monkeypatch):
        # a cut that also rejects a degree equal to its vertex's room
        def planted(a, b, limit):
            send, draw = [0] * len(a), [0] * len(b)
            for (i, j), room in limit.items():
                send[i - 1] += room
                draw[j - 1] += room
            return any(map(operator.ge, a, send)) or any(map(operator.ge, b, draw))

        monkeypatch.setattr(matchings, "_fails_vertex_cut", planted)
        result = _same_on_two_workers(monkeypatch, "capped-matchings", TrialConfig(trials=3))
        reasons = [r for failure in result.failures for r in failure["reasons"]]
        assert reasons and all(r.endswith("flow says False, enumeration says True") for r in reasons)

    def test_a_search_past_the_caps_is_reported(self, monkeypatch):
        # the cut reads the true limits, then lifts every cap to the total in
        # the dict the search goes on to read: the search alone is at fault,
        # on the pairs that pass the cut and still do not match
        cut = matchings._fails_vertex_cut

        def uncapped_search(a, b, limit):
            failed = cut(a, b, limit)
            limit.update(dict.fromkeys(limit, sum(a)))
            return failed

        monkeypatch.setattr(matchings, "_fails_vertex_cut", uncapped_search)
        result = _same_on_two_workers(monkeypatch, "capped-matchings", TrialConfig(trials=3))
        reasons = [r for failure in result.failures for r in failure["reasons"]]
        assert reasons and all(r.endswith("flow says True, enumeration says False") for r in reasons)


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


def _seq(m, n):
    return {"m": m, "sets": [list(range(1, m + 1))] * n}


def _seq_kappa(m, n, k):
    return {"seq": _seq(m, n), "kappa": [k] * m}


def _membership(m, n, r):
    # free(m, r) along parts that each hold every element induces free(n, r)
    pm = {"m": m, "rank": [0] + [r] * ((1 << m) - 1)}
    return {"pm": pm, "seq": _seq(m, n), "delta": [r] + [0] * (n - 1), "expected": True}


def _capped(m, n, total):
    return {"mode": "random", "seq": _seq(m, n), "caps": {}, "alpha": [total] + [0] * (m - 1)}


def _support(blocks, dim, rows, m, n):
    return {"real": {"blockdims": [dim] * blocks, "gens": [[1] * (dim * blocks)] * rows}, "seq": _seq(m, n)}


def _basis(m, n):
    return {"matroid": {"m": m, "rank": [min(mask.bit_count(), 1) for mask in range(1 << m)]}, "seq": _seq(m, n)}


# (check, its first costly call, field, an instance just past the field's
# bound, one at it, the refusal of the first)
PAST_AND_AT = [
    ("golden-examples", "apply_inducing", "rows", {"abcd": [[2, 3, 4, 5]] * 21}, {"abcd": [[2, 3, 4, 5]] * 20},
     "len(abcd)=21; the generator draws len(abcd) <= 20"),
    ("golden-examples", "apply_inducing", "entry", {"abcd": [[10, 1, 1, 1]]}, {"abcd": [[9, 1, 1, 1]]},
     "abcd entry=10; the generator draws abcd entry <= 9"),
    ("matching-stat-lorentzian", "product", "m", {"seq": _seq(6, 1)}, {"seq": _seq(5, 1)},
     "seq has m=6, n=1; the generator draws m <= 5, n <= 5"),
    ("matching-stat-lorentzian", "product", "n", {"seq": _seq(2, 6)}, {"seq": _seq(2, 5)},
     "seq has m=2, n=6; the generator draws m <= 5, n <= 5"),
    ("symbol-support-egf", "inducing_box", "m", _seq_kappa(4, 1, 1), _seq_kappa(3, 1, 1),
     "seq has m=4, n=1; the generator draws m <= 3, n <= 3"),
    ("symbol-support-egf", "inducing_box", "n", _seq_kappa(1, 4, 1), _seq_kappa(1, 3, 1),
     "seq has m=1, n=4; the generator draws m <= 3, n <= 3"),
    ("symbol-support-egf", "inducing_box", "kappa", _seq_kappa(1, 1, 3), _seq_kappa(1, 1, 2),
     "kappa_i=3; the generator draws kappa_i <= 2"),
    ("coefficient-power-family", "substitution_box", "m", _seq_kappa(4, 1, 1), _seq_kappa(3, 1, 1),
     "seq has m=4, n=1; the generator draws m <= 3, n <= 3"),
    ("coefficient-power-family", "substitution_box", "n", _seq_kappa(1, 4, 1), _seq_kappa(1, 3, 1),
     "seq has m=1, n=4; the generator draws m <= 3, n <= 3"),
    ("coefficient-power-family", "substitution_box", "kappa", _seq_kappa(1, 1, 3), _seq_kappa(1, 1, 2),
     "kappa_i=3; the generator draws kappa_i <= 2"),
    ("base-membership-duality", "induce_polymatroid", "m", _membership(6, 1, 1), _membership(5, 1, 1),
     "seq has m=6, n=1; the generator draws m <= 5, n <= 5"),
    ("base-membership-duality", "induce_polymatroid", "n", _membership(1, 6, 1), _membership(1, 5, 1),
     "seq has m=1, n=6; the generator draws m <= 5, n <= 5"),
    ("base-membership-duality", "induce_polymatroid", "rank", _membership(1, 1, 4), _membership(1, 1, 3),
     "pm full rank=4; the generator draws pm full rank <= 3"),
    ("capped-matchings", "_capped_mismatches", "m", _capped(4, 1, 0), _capped(3, 1, 0),
     "seq has m=4, n=1; the generator draws m <= 3, n <= 3"),
    ("capped-matchings", "_capped_mismatches", "n", _capped(1, 4, 0), _capped(1, 3, 0),
     "seq has m=1, n=4; the generator draws m <= 3, n <= 3"),
    ("capped-matchings", "_capped_mismatches", "total", _capped(1, 1, 5), _capped(1, 1, 4),
     "sum(alpha)=5; the generator draws sum(alpha) <= 4"),
    ("support-induction", "linreal_rank", "blocks", _support(5, 1, 0, 5, 1), _support(4, 1, 0, 4, 1),
     "len(blockdims)=5; the generator draws len(blockdims) <= 4"),
    ("support-induction", "linreal_rank", "dim", _support(1, 3, 0, 1, 1), _support(1, 2, 0, 1, 1),
     "blockdims_i=3; the generator draws blockdims_i <= 2"),
    ("support-induction", "linreal_rank", "rows", _support(1, 1, 4, 1, 1), _support(1, 1, 3, 1, 1),
     "len(gens)=4; the generator draws len(gens) <= 3"),
    ("support-induction", "linreal_rank", "m", _support(4, 1, 0, 5, 1), _support(4, 1, 0, 4, 1),
     "seq has m=5, n=1; the generator draws m <= 4, n <= 5"),
    ("support-induction", "linreal_rank", "n", _support(1, 1, 0, 1, 6), _support(1, 1, 0, 1, 5),
     "seq has m=1, n=6; the generator draws m <= 4, n <= 5"),
    ("basis-restricted-stats", "basis_match_poly", "m", _basis(6, 1), _basis(5, 1),
     "seq has m=6, n=1; the generator draws m <= 5, n <= 5"),
    ("basis-restricted-stats", "basis_match_poly", "n", _basis(1, 6), _basis(1, 5),
     "seq has m=1, n=6; the generator draws m <= 5, n <= 5"),
]
PAST_AND_AT_IDS = [f"{check}-{field}" for check, _, field, *_ in PAST_AND_AT]


def _bound_sizes(name, instance):
    """{field: (size, bound)} of a generated instance, read off its JSON."""
    seq = instance.get("seq")
    sizes = {}
    if name in ("symbol-support-egf", "coefficient-power-family") or instance.get("mode") == "random":
        small = (verification._SMALL_M, verification._SMALL_N)
    elif name == "support-induction":
        small = (verification._MAX_BLOCKS, verification.MAX_N)
    else:
        small = (verification.MAX_M, verification.MAX_N)
    if seq is not None:
        sizes["m"], sizes["n"] = (seq["m"], small[0]), (len(seq["sets"]), small[1])
    if name == "golden-examples":
        sizes["rows"] = (len(instance["abcd"]), verification._ABCD_ROWS)
        sizes["entry"] = (max(map(max, instance["abcd"])), verification._ABCD_TOP)
    if "kappa" in instance:
        sizes["kappa"] = (max(instance["kappa"], default=0), verification.MAX_KAPPA)
    if "pm" in instance:
        sizes["rank"] = (instance["pm"]["rank"][-1], verification.MAX_RANK)
    if "alpha" in instance:
        sizes["total"] = (sum(instance["alpha"]), verification._MAX_TOTAL)
    if "real" in instance:
        dims = instance["real"]["blockdims"]
        sizes["blocks"] = (len(dims), verification._MAX_BLOCKS)
        sizes["dim"] = (max(dims), verification._MAX_DIM)
        sizes["rows"] = (len(instance["real"]["gens"]), verification.MAX_RANK)
    return sizes


class TestReplayBounds:
    """Each check refuses a replay past the bounds that its generator draws
    from, before its first costly call; the bounds are the generator's own
    constants."""

    @pytest.mark.parametrize("check, costly, field, past, at, reason", PAST_AND_AT, ids=PAST_AND_AT_IDS)
    def test_past_a_bound_is_refused(self, monkeypatch, check, costly, field, past, at, reason):
        # at m = 30 the squarefree sum of matching-stat-lorentzian exhausted
        # memory; a refused replay must build nothing
        def unbuilt(*args, **kwargs):
            raise AssertionError(f"{costly} was called")

        monkeypatch.setattr(verification, costly, unbuilt)
        assert replay(check, past) == [f"exception: {ValueError(reason)!r}"]
        # the patched call is on the route: the instance at the bound reaches it
        assert replay(check, at) == [f"exception: AssertionError('{costly} was called')"]

    @pytest.mark.parametrize("check, costly, field, past, at, reason", PAST_AND_AT, ids=PAST_AND_AT_IDS)
    def test_at_a_bound_passes(self, check, costly, field, past, at, reason):
        assert replay(check, at) == []

    def test_an_oversized_seq_is_refused_unbuilt(self, monkeypatch):
        # SubsetSeq builds its views on first use, so a seq over 10^8
        # elements is refused before anything per element is built
        def unbuilt(self):
            raise AssertionError("a SubsetSeq view was built")

        monkeypatch.setattr(matchings.SubsetSeq, "_parts_of", property(unbuilt))
        monkeypatch.setattr(matchings.SubsetSeq, "_edges", property(unbuilt))
        reason = "seq has m=100000000, n=1; the generator draws m <= 5, n <= 5"
        instance = {"seq": {"m": 100000000, "sets": [[1]]}}
        assert replay("matching-stat-lorentzian", instance) == [f"exception: {ValueError(reason)!r}"]

    @pytest.mark.parametrize(
        "row, error",
        [
            (["3", "1", "2", "5"], TypeError("'str' object cannot be interpreted as an integer")),
            ([True, 1, 2, 5], TypeError("expected an integer, got true")),
            ([10, 1, 1, 1], ValueError("abcd entry=10; the generator draws abcd entry <= 9")),
            ([1, 2, 3], ValueError("abcd row [1, 2, 3] has 3 entries; the generator draws 4")),
            ([0, 1, 1, 1], ValueError("abcd entry=0; the generator draws abcd entry >= 1")),
            ([1, 1, -3, 1], ValueError("abcd entry=-3; the generator draws abcd entry >= 1")),
        ],
        ids=["text", "bool", "past-top", "short", "zero", "negative"],
    )
    def test_golden_rows_are_read_before_any_example(self, monkeypatch, row, error):
        def unbuilt(*args, **kwargs):
            raise AssertionError("apply_inducing was called")

        monkeypatch.setattr(verification, "apply_inducing", unbuilt)
        assert replay("golden-examples", {"abcd": [row]}) == [f"exception: {error!r}"]

    def test_generated_instances_lie_within_the_bounds(self):
        largest, bounds, smallest_abcd = {}, {}, []
        for seed in (1, 2, 3):
            cfg = TrialConfig(seed=seed)
            for name, check in CHECKS.items():
                for trial in range(check.trial_count(cfg)):
                    instance = check.gen(cfg, _trial_rng(seed, name, trial), trial)
                    if name == "golden-examples":
                        smallest_abcd.append(min(map(min, instance["abcd"])))
                    for field, (size, bound) in _bound_sizes(name, instance).items():
                        assert size <= bound, (name, seed, trial, field)
                        key = (name, field)
                        largest[key], bounds[key] = max(largest.get(key, size), size), bound
        # each bound is drawn by some trial, so none is looser than its generator
        assert largest == bounds
        # and the refusal table covers every bound the generators draw with
        assert {(check, field) for check, _, field, *_ in PAST_AND_AT} == set(bounds)
        # the abcd entries reach down to 1, the lower bound a replay is held to
        assert min(smallest_abcd) == 1


# (name in verification, a wrong stand-in, the golden reasons it gives)
GOLDEN_FAULTS = [
    ("match_count", lambda seq, topic: 2, ["empty topic should count exactly the empty set"]),
    ("quad_inertia", lambda q, tol=None: Inertia(0, 0, 0),
     ["inertia of the three-variable quadratic is off", "inertia of the hyperbolic plane is off",
      "inertia of the definite quadratic is off"]),
    ("matroid_bases", lambda matroid: [],
     ["bases of the rank-2 uniform matroid are off",
      "the rank-0 matroid should have exactly the empty basis"]),
    ("linreal_rank", lambda real: Polymatroid(real.m, (0,) * (1 << real.m)),
     ["diagonal realization rank is off", "one-row realization rank is off",
      "merging blocks of the one-row realization is off",
      "induction through the realization disagrees with direct induction"]),
    ("tab_family_box", lambda *args: None,
     ["family endpoint a=1, b=0 is off", "family endpoint a=0, b=1 is off"]),
    ("is_m_convex", lambda support: (True, None),
     ["the gapped support should fail with a witness"]),
    ("hall_rado_member", lambda pm, seq, delta: True, ["a short vector should not be a member"]),
    ("validate_polymatroid", lambda rank, m=None: None,
     ["a nonzero empty-set rank slipped through", "a supermodular table slipped through"]),
    ("apply_substitution", lambda seq, weights, f: Poly(3, {(1, 1, 0): 1}),
     ["substitution image of x1 x2 is off"]),
]

# every golden label of a replay of one abcd row, in the order they are checked
GOLDEN_LABELS = [
    "degree-2 image of the wide example is off",
    "pair counts of the wide example are off",
    "singleton counts of the wide example are off",
    "empty topic should count exactly the empty set",
    "no witness for the feasible degree pair",
    "matched degree set of (1,1,0,0) is off",
    "inducing image of x1 x2 is off",
    "substitution image of x1 x2 is off",
    "substitution coefficient identity fails at (1, 2, 3, 4)",
    "inducing image unexpectedly satisfies the coefficient identity",
    "inducing image of x1 x2 x3 is off",
    "the symmetric example should certify",
    "upper-half-plane witness has a bad coordinate",
    "upper-half-plane root witness does not vanish",
    "composed sequence is off",
    "one-step image of the composite is off",
    "first-stage image is off",
    "two-step image is off",
    "box image of x1 is off",
    "box image of 1 is off",
    "box image of x1 x2 is off",
    "symbol round-trip lost the box",
    "family endpoint a=1, b=0 is off",
    "family endpoint a=0, b=1 is off",
    "square root of a coefficient 4 should be exactly 2.0",
    "rank table of the scaled simplex is off",
    "base points of a direct sum are off",
    "induced polymatroid of the wide example is off",
    "induced matroid of the wide example is off",
    "induced base points differ from the image support",
    "bases of the rank-2 uniform matroid are off",
    "the rank-0 matroid should have exactly the empty basis",
    "the pair statistic should have polymatroid support",
    "a gapped support should not look like base points",
    "diagonal realization rank is off",
    "one-row realization rank is off",
    "empty realization should have rank zero",
    "merging blocks of the one-row realization is off",
    "induction through the realization disagrees with direct induction",
    "the split simplex point (1,1) should be a member",
    "a short vector should not be a member",
    "the zero vector should be a member at rank zero",
    "inertia of the three-variable quadratic is off",
    "inertia of the hyperbolic plane is off",
    "inertia of the definite quadratic is off",
    "the pair statistic of the wide example should certify",
    "the gapped quadratic should fail on its support",
    "squarefree pairs should be exchangeable",
    "the gapped support should fail with a witness",
    "wrong axiom for the empty-set rank",
    "wrong axiom for the jumping table",
]


class TestGoldenTable:
    """Each golden-examples row reports its own label, in the order of the
    worked examples, and nothing else."""

    @pytest.mark.parametrize("name, fake, reasons", GOLDEN_FAULTS,
                             ids=[name for name, *_ in GOLDEN_FAULTS])
    def test_a_library_fault_names_its_goldens(self, monkeypatch, name, fake, reasons):
        monkeypatch.setattr(verification, name, fake)
        assert replay("golden-examples", {"abcd": [[1, 2, 3, 4]]}) == reasons

    def test_every_row_is_reported_in_order(self, monkeypatch):
        monkeypatch.setattr(verification, "_unequal", lambda rows: [label for label, _, _ in rows])
        assert replay("golden-examples", {"abcd": [[1, 2, 3, 4]]}) == GOLDEN_LABELS

    def test_every_abcd_row_has_its_label(self, monkeypatch):
        # c(y1 y2) c(y3^2) = 1 and c(y1 y3) c(y2 y3) = 0 at every row
        unbalanced = Poly(3, {(1, 1, 0): 1, (0, 0, 2): 1})
        monkeypatch.setattr(verification, "apply_substitution", lambda seq, weights, f: unbalanced)
        reasons = replay("golden-examples", {"abcd": [[1, 2, 3, 4], [5, 6, 7, 8]]})
        assert reasons == [
            "substitution image of x1 x2 is off",
            "substitution coefficient identity fails at (1, 2, 3, 4)",
            "substitution coefficient identity fails at (5, 6, 7, 8)",
        ]


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
        # the calls are counted in this process, so no trial may run in a child
        _pin_split(monkeypatch, False)
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

    def test_a_capped_realization_rank_is_a_reason(self, monkeypatch):
        # ranks capped at 2 still make polymatroids, and the realization and its
        # induced one carry the same cap: only the one Gram of all columns sees it
        instance = {"real": {"blockdims": [1, 1, 1], "gens": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
                    "seq": {"m": 3, "sets": [[1], [2, 3]]}}
        assert replay("support-induction", instance) == []
        real = verification.linreal_rank

        def capped(realization):
            return Polymatroid._derived(realization.m, [min(r, 2) for r in real(realization).rank])

        monkeypatch.setattr(verification, "linreal_rank", capped)
        assert replay("support-induction", instance) == ["rank of the whole realization differs from its one Gram's"]


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
