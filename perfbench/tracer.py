"""Span tracer that wraps lormatch's public functions from outside the library.

`Tracer.install` rebinds every public function of every traced layer
module, and every public method of the classes those modules define, to a
wrapper that records one span per call: name, start, end, parent span and
op id.  Each rebinding is made in every lormatch module namespace that holds
the same function object, so calls through `from .x import f` imports are
seen too.  `Tracer.uninstall` restores the original objects.

Spans are kept in flat arrays and folded into per-layer figures only after
the measured ops have run.  Work counts are computed from arguments and
return values after a span has ended, so their cost lands in the caller's
self time, never in the callee's span.  Generator functions are left alone:
a span around one would time only the creation of the generator.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
from array import array
from collections import defaultdict
from math import comb
from time import perf_counter

LAYERS = (
    "cli",
    "verification",
    "operators",
    "lorentzian",
    "matchstats",
    "polymatroids",
    "matchings",
    "polynomials",
)

FLOW = ("matchings.admits_matching", "matchings.admits_restricted", "matchings.find_witness")
INERTIA = ("lorentzian.quad_inertia", "lorentzian.symmetric_inertia")
BOX_BUILDERS = (
    "operators.inducing_box",
    "operators.substitution_box",
    "operators.box_from_symbol",
    "operators.power_box",
    "operators.tab_family_box",
)


def _support_size(supp) -> int:
    if isinstance(supp, (set, frozenset)):
        return len(supp)
    if isinstance(supp, (list, tuple)):
        return len({tuple(v) for v in supp})
    return 0  # a one-shot iterator was consumed by the call itself


def _count_bounded(total: int, caps) -> int:
    """Number of nonnegative integer vectors under `caps` summing to `total`."""
    ways = [1] + [0] * total
    for cap in caps:
        nxt = [0] * (total + 1)
        running = 0
        for s in range(total + 1):
            running += ways[s]
            if s - cap - 1 >= 0:
                running -= ways[s - cap - 1]
            nxt[s] = running
        ways = nxt
    return ways[total] if total >= 0 else 0


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _hook_m_convex(args, kwargs, result, counts):
    size = _support_size(_first(args, kwargs, "supp"))
    counts["lorentzian.is_m_convex.pairs"] += size * size


def _hook_derivative(args, kwargs, result, counts):
    counts["polynomials.derivative_multi.terms_scanned"] += len(args[0])


def _hook_box(args, kwargs, result, counts):
    counts["operators.box_entries"] += len(result.table)


def _hook_match_count(args, kwargs, result, counts):
    seq = _first(args, kwargs, "seq")
    size = len(set(args[1] if len(args) > 1 else kwargs["topic"]))
    counts["matchstats.subsets_tested"] += comb(seq.m, size) if size <= seq.m else 0
    counts["matchstats.hits"] += result


def _hook_matched_degrees(args, kwargs, result, counts):
    counts["matchings.matched_degrees.points"] += len(result)


def _hook_flow(args, kwargs, result, counts):
    if result is not None and result is not False:
        counts["matchings.flow.feasible"] += 1


def _hook_base_points(args, kwargs, result, counts):
    pm = _first(args, kwargs, "pm")
    caps = [pm.rank[1 << i] for i in range(pm.m)]
    counts["polymatroids.base_points.candidates"] += _count_bounded(pm.full_rank, caps)
    counts["polymatroids.base_points.hits"] += len(result)


def _hook_table(args, kwargs, result, counts):
    underlying = getattr(result, "underlying", result)
    rank = getattr(underlying, "rank", None)
    if isinstance(rank, tuple):
        counts["polymatroids.table_entries"] += len(rank)


def _hook_run_check(args, kwargs, result, counts):
    counts["verification.trials"] += result.trials


HOOKS = {
    "lorentzian.is_m_convex": _hook_m_convex,
    "polynomials.Poly.derivative_multi": _hook_derivative,
    "polynomials.FloatPoly.derivative_multi": _hook_derivative,
    "matchstats.match_count": _hook_match_count,
    "matchings.matched_degrees": _hook_matched_degrees,
    "polymatroids.base_points": _hook_base_points,
    "verification.run_check": _hook_run_check,
    **{name: _hook_flow for name in FLOW},
    **{name: _hook_box for name in BOX_BUILDERS},
}


def _hook_for(name: str):
    if name in HOOKS:
        return HOOKS[name]
    if name.startswith("polymatroids."):
        return _hook_table
    return None


class Tracer:
    """Wraps the lormatch layers; records spans while installed."""

    def __init__(self) -> None:
        package = importlib.import_module("lormatch")
        self.layer_modules = {
            layer: importlib.import_module(f"lormatch.{layer}") for layer in LAYERS
        }
        self.namespaces = [vars(package)] + [
            vars(mod) for mod in self.layer_modules.values()
        ]
        self.span_names: list[str] = []
        self.names = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.current = -1
        self.op = -1
        self.installed = False
        self.plan: list[tuple[object, str, object, object]] = []
        self._build_plan()

    # -- wrapping ------------------------------------------------------------

    def _name_id(self, layer: str, qualname: str) -> int:
        self.span_names.append(f"{layer}.{qualname}")
        return len(self.span_names) - 1

    def _wrap(self, fn, layer: str, qualname: str):
        name_id = self._name_id(layer, qualname)
        hook = _hook_for(f"{layer}.{qualname}")
        tracer = self
        names, parents, ops = self.names, self.parents, self.ops
        starts, ends, counts = self.starts, self.ends, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(tracer.current)
            ops.append(tracer.op)
            ends.append(0.0)
            tracer.current = idx
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                tracer.current = parents[idx]
            if hook is not None:
                hook(args, kwargs, result, counts)
            return result

        return traced

    def _build_plan(self) -> None:
        for layer, mod in self.layer_modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    wrapped = self._wrap(obj, layer, name)
                    for ns in self.namespaces:
                        for key, value in list(ns.items()):
                            if value is obj:
                                self.plan.append((ns, key, obj, wrapped))
                elif inspect.isclass(obj):
                    self._plan_class(obj, layer)

    def _plan_class(self, cls, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            qualname = f"{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
                if inspect.isgeneratorfunction(fn):
                    continue
                wrapped = type(raw)(self._wrap(fn, layer, qualname))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                wrapped = self._wrap(raw, layer, qualname)
            else:
                continue
            self.plan.append((cls, attr, raw, wrapped))

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer already installed")
        for target, key, _, wrapped in self.plan:
            if isinstance(target, dict):
                target[key] = wrapped
            else:
                setattr(target, key, wrapped)
        self.installed = True

    def uninstall(self) -> None:
        for target, key, original, _ in self.plan:
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self.installed = False
        self.current = -1

    def restored(self) -> bool:
        """True when every rebound name holds its original object again."""
        for target, key, original, _ in self.plan:
            held = target[key] if isinstance(target, dict) else vars(target)[key]
            if held is not original:
                return False
        return True

    # -- recording -------------------------------------------------------------

    def run_op(self, op_id: int, fn):
        """Call fn() with spans tagged by op_id; the tracer must be installed."""
        self.op = op_id
        try:
            return fn()
        finally:
            self.op = -1

    def span_count(self) -> int:
        return len(self.starts)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        starts, ends, parents = self.starts, self.ends, self.parents
        out = [e - s for s, e in zip(starts, ends)]
        for idx, parent in enumerate(parents):
            if parent >= 0:
                out[parent] -= ends[idx] - starts[idx]
        return out

    def self_by_op(self) -> dict[int, float]:
        totals: defaultdict[int, float] = defaultdict(float)
        for op_id, self_s in zip(self.ops, self.self_times()):
            totals[op_id] += self_s
        return dict(totals)

    def summary(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and call counts per span name, over every span."""
        self_s: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        names = self.span_names
        for name_id, value in zip(self.names, self.self_times()):
            self_s[names[name_id]] += value
            calls[names[name_id]] += 1
        return dict(self_s), dict(calls)

    def write_spans(self, path) -> None:
        """Write every span as `op,name,start,end,parent` CSV, gzip-compressed."""
        names = self.span_names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("id,op,name,start,end,parent\n")
            for idx, (name_id, op_id, start, end, parent) in enumerate(
                zip(self.names, self.ops, self.starts, self.ends, self.parents)
            ):
                out.write(f"{idx},{op_id},{names[name_id]},{start:.9f},{end:.9f},{parent}\n")


def layer_metrics(tracer: Tracer, op_count: int) -> dict[str, float]:
    """Per-op means of the per-layer figures named in BENCHMARK.json."""
    self_s, calls = tracer.summary()
    counts = tracer.counts
    per_op = 1.0 / op_count

    def total(names, table):
        return sum(table.get(n, 0) for n in names)

    def prefixed(prefix, table):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = prefixed(f"{layer}.", self_s) * per_op
        out[f"{layer}.calls"] = prefixed(f"{layer}.", calls) * per_op

    derivative_calls = total(
        ("polynomials.Poly.derivative_multi", "polynomials.FloatPoly.derivative_multi"), calls
    )
    flow_calls = total(FLOW, calls)
    md = "matchings.matched_degrees"
    bp = "polymatroids.base_points"
    out.update(
        {
            "lorentzian.is_m_convex.self_s": self_s.get("lorentzian.is_m_convex", 0.0) * per_op,
            "lorentzian.is_m_convex.pairs": counts["lorentzian.is_m_convex.pairs"] * per_op,
            "lorentzian.inertia.calls": calls.get("lorentzian.symmetric_inertia", 0) * per_op,
            "lorentzian.inertia.self_s": total(INERTIA, self_s) * per_op,
            "lorentzian.derivative_yield": ratio(
                calls.get("lorentzian.symmetric_inertia", 0), derivative_calls
            ),
            "polynomials.derivative_multi.calls": derivative_calls * per_op,
            "polynomials.derivative_multi.terms_scanned": counts[
                "polynomials.derivative_multi.terms_scanned"
            ]
            * per_op,
            "operators.box_entries": counts["operators.box_entries"] * per_op,
            "matchstats.subsets_tested": counts["matchstats.subsets_tested"] * per_op,
            "matchstats.hit_ratio": ratio(
                counts["matchstats.hits"], counts["matchstats.subsets_tested"]
            ),
            f"{md}.self_s": self_s.get(md, 0.0) * per_op,
            f"{md}.points": counts[f"{md}.points"] * per_op,
            "matchings.flow.calls": flow_calls * per_op,
            "matchings.flow.self_s": total(FLOW, self_s) * per_op,
            "matchings.flow.feasible_ratio": ratio(
                counts["matchings.flow.feasible"], flow_calls
            ),
            f"{bp}.self_s": self_s.get(bp, 0.0) * per_op,
            f"{bp}.candidates": counts[f"{bp}.candidates"] * per_op,
            f"{bp}.hit_ratio": ratio(counts[f"{bp}.hits"], counts[f"{bp}.candidates"]),
            "polymatroids.table_entries": counts["polymatroids.table_entries"] * per_op,
            "verification.trials": counts["verification.trials"] * per_op,
        }
    )
    return out
