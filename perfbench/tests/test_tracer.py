"""Self-tests of the benchmark's tracer, oracles and decks.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import lormatch  # noqa: E402
from lormatch import Polymatroid, SubsetSeq, base_points, induce_polymatroid  # noqa: E402
from lormatch._util import bounded_compositions  # noqa: E402

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

SMALL_OPS = [
    workloads.Op("symbol+certify", ["symbol", "--sets", '{"m":2,"sets":[[1,2],[2]]}', "--kappa", "2,2"]),
    workloads.Op("fpoly", ["fpoly", "--sets", '{"m":5,"sets":[[1,2],[2,3],[3,4],[4,5],[5,1]]}', "--r", "2"]),
    workloads.Op("points", ["pminduce", "--pm", '{"uniform":[5,2]}', "--sets", '{"m":5,"sets":[[1,2],[3],[4,5]]}', "--points"]),
    workloads.Op("hallrado", ["hallrado", "--pm", '{"free":[4,2]}', "--sets", '{"m":4,"sets":[[1,2],[3,4]]}', "--delta", "1,1"]),
    workloads.Op("verify", ["verify", "--check", "golden-examples", "--seed", "3"]),
]


def _bindings():
    """Every public name in every lormatch namespace, and every class attribute."""
    snapshot = {}
    tracer = tracer_mod.Tracer()
    for ns in tracer.namespaces:
        for key, value in ns.items():
            snapshot[(id(ns), key)] = value
            if isinstance(value, type) and value.__module__.startswith("lormatch"):
                for attr, raw in vars(value).items():
                    snapshot[(id(value), attr)] = raw
    return snapshot


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


def test_traced_stdout_is_byte_identical(cli):
    call = run.make_call(cli)
    tracer = tracer_mod.Tracer()
    for op_id, op in enumerate(SMALL_OPS):
        plain = op.run(call)
        tracer.install()
        try:
            traced = tracer.run_op(op_id, lambda: op.run(call))
        finally:
            tracer.uninstall()
        assert plain[0] == 0
        assert traced == plain, op.argv
    assert tracer.span_count() > 0


def test_wrapped_names_are_restored(cli):
    before = _bindings()
    tracer = tracer_mod.Tracer()
    tracer.install()
    assert cli.run is not before[(id(vars(cli)), "run")]
    assert lormatch.Poly.derivative_multi is not before[(id(lormatch.Poly), "derivative_multi")]
    tracer.uninstall()
    after = _bindings()
    assert tracer.restored()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert not changed


def test_self_times_add_up_to_the_op_time(cli):
    call = run.make_call(cli)
    op = SMALL_OPS[0]
    plain = []
    for _ in range(5):
        start = time.perf_counter()
        op.run(call)
        plain.append(time.perf_counter() - start)
    plain_s = sorted(plain)[2]
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        tracer.run_op(0, lambda: op.run(call))
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    selfs = tracer.self_times()
    roots = [i for i, parent in enumerate(tracer.parents) if parent < 0]
    root_s = sum(tracer.ends[i] - tracer.starts[i] for i in roots)
    total_self = sum(selfs)
    overhead = abs(traced_s - plain_s)
    assert min(selfs) > -1e-9
    assert total_self == pytest.approx(root_s, rel=1e-9, abs=1e-9)
    assert total_self <= traced_s
    unspanned = traced_s - total_self
    assert unspanned < 0.005 + 0.05 * traced_s
    assert abs(total_self - plain_s) <= overhead + unspanned + 1e-9
    # two cli.run spans per symbol+certify op, nothing outside them
    assert [tracer.span_names[tracer.names[i]] for i in roots] == ["cli.run", "cli.run"]


def test_counts_come_from_arguments_and_results(cli):
    call = run.make_call(cli)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        tracer.run_op(0, lambda: SMALL_OPS[0].run(call))
        tracer.run_op(1, lambda: SMALL_OPS[2].run(call))
    finally:
        tracer.uninstall()
    metrics = tracer_mod.layer_metrics(tracer, 2)
    assert metrics["cli.calls"] == 1.5  # three cli.run spans over two ops
    assert 0 < metrics["lorentzian.derivative_yield"] <= 1
    assert metrics["lorentzian.is_m_convex.pairs"] > 0
    assert metrics["polymatroids.base_points.hit_ratio"] <= 1
    assert metrics["polymatroids.table_entries"] > 0


@pytest.mark.parametrize("caps,total", [((2, 0, 3), 3), ((1, 1, 1, 1), 2), ((4, 4), 9)])
def test_candidate_count_matches_enumeration(caps, total):
    assert tracer_mod._count_bounded(total, caps) == len(list(bounded_compositions(total, caps)))


@pytest.mark.parametrize("seed", [1, 2])
def test_polymatroid_oracle_matches_library(seed):
    rng = workloads._rng("oracle-test", seed)
    for spec, n, size in workloads.POLYMATROID_CLASSES:
        m = workloads._source_size(spec)
        spec_small = json.loads(json.dumps(spec))
        parts = workloads._fixed_size_cover(rng, m, n, size)
        table = workloads.induced_rank_table(spec_small, parts)
        source = run.import_cli()._parse_polymatroid(spec_small, "--pm")
        induced = induce_polymatroid(source, SubsetSeq(m, tuple(frozenset(p) for p in parts)))
        assert list(induced.rank) == table
        if n <= 9:
            assert workloads.base_points_of(table) == sorted(base_points(Polymatroid(n, tuple(table))))


def test_decks_depend_on_the_seed_only():
    for name, workload in workloads.WORKLOADS.items():
        first = [op.argv for op in workload.build(7, 2)]
        assert first == [op.argv for op in workload.build(7, 2)], name
        assert first != [op.argv for op in workload.build(8, 2)], name
        assert len(first) == 2 * workload.round_size, name
        # a longer deck starts with the shorter one
        assert [op.argv for op in workload.build(7, 3)][: len(first)] == first, name
