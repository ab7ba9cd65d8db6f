"""lormatch benchmark: closed-loop CLI ops, end-to-end and per-layer figures.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 15 --trace 0

Run from the repository root.  Every op calls `lormatch.cli.run(argv)` in
this process with stdout captured, one op at a time (one client, no
threads), so the command-line layer is measured with the rest.  The deck of
inputs comes from `--seed` alone (see workloads.py).  A run:

1. times `import lormatch.cli` in fresh interpreters (`setup_s`);
2. runs an untimed warm-up pass over the start of the deck;
3. runs whole rounds of the deck (one op of every class in a workload's mix),
   as many as took `--seconds` at the seed commit on the reference machine,
   so every run, seed and commit times the same mix of ops;
4. checks every output, outside the timed spans.

Reported times are scaled to a reference host speed: a speed probe, a fixed
loop that lormatch does not share, runs between ops, and each op's time is
scaled by the probes around it.  The host this was built on drifts by 25% or
more within seconds; the unscaled figures stay in the provenance.

With `--trace 0` the last stdout line reports the end-to-end metrics.  With
`--trace 1` each op runs twice, once plain and once under the span tracer
(tracer.py), the two stdouts must match byte for byte, and the last line
reports the per-layer metrics and the tracing overhead.  Provenance, the tail
percentile and the op count go to the line before it and, with the metrics,
to `perfbench/results/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_REPEATS = 7
WARMUP_S = 2.0
TAIL_BEYOND = 10  # the tail percentile is the highest with this many ops beyond it
TIME_CAP = 4.0  # a pass stops early after this many times --seconds
PROBE_EVERY_S = 0.25  # longest gap between two speed probes in a timed pass
PROBE_REF_S = 0.005  # probe seconds that scaled times are quoted at (4-8 ms seen)

# Times the import, then the speed probe (after the import, so the probe's
# own `fractions` import is not charged to lormatch); prints both.
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import lormatch.cli\n"
    "took = time.perf_counter() - start\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from run import speed_probe\n"
    "print(repr(took), repr(speed_probe()))\n"
)


class SetupError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


def _parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_cli():
    """Import lormatch.cli from this checkout's src/, and nowhere else."""
    if not (SRC / "lormatch" / "cli.py").is_file():
        raise SetupError(f"no lormatch sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lormatch.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SetupError(f"imported lormatch from {cli.__file__}, not from {SRC}")
    return cli


def measure_setup() -> tuple[float, float]:
    """Median seconds to import lormatch.cli in a fresh interpreter, scaled to
    the reference speed by the child's own speed probe, and unscaled."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        took, probe = (float(v) for v in done.stdout.split())
        raw.append(took)
        scaled.append(took * PROBE_REF_S / probe)
    return statistics.median(scaled), statistics.median(raw)


def make_call(cli):
    """One command line, in process; the name `run` is looked up per call so a
    traced run sees the tracer's wrapper."""

    def call(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
        return code, out.getvalue()

    return call


def speed_probe() -> float:
    """Median seconds of three runs of a fixed exact-arithmetic dictionary
    loop, code that lormatch does not share; it tracks the host's speed."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc: dict = {}
        for i in range(1500):
            key = (i % 17, i % 13, i % 11)
            acc[key] = acc.get(key, 0) + Fraction(i, 7)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scaled_durations(durations, probes) -> list[float]:
    """Each op's seconds at the reference speed: scaled by PROBE_REF_S over
    the mean of the speed probes taken just before and just after it."""
    out = []
    for dt, (before, after) in zip(durations, probes):
        out.append(dt * PROBE_REF_S * 2.0 / (before + after))
    return out


def run_one(op, call):
    """(exit code or None on a raised exception, stdout, seconds)."""
    start = time.perf_counter()
    try:
        code, out = op.run(call)
    except Exception as exc:  # noqa: BLE001 - a crashing op is a failed op
        code, out = None, f"{type(exc).__name__}: {exc}"
    return code, out, time.perf_counter() - start


def warm_up(deck, call, outputs) -> None:
    start = time.perf_counter()
    for idx, op in enumerate(deck):
        code, out, _ = run_one(op, call)
        if code == 0:
            outputs.setdefault(idx, out)
        if time.perf_counter() - start >= WARMUP_S:
            break


def planned_rounds(workload, seconds: float, trace: int) -> int:
    rounds = max(1, round(seconds / workload.round_s))
    if trace:
        rounds = max(1, rounds // 2)  # each traced op also runs untraced
    return rounds


def check_ops(deck, check, records, outputs, call) -> list[str]:
    """Failure reason per record ("" when the op passed)."""
    reasons = []
    verdicts: dict[int, str] = {}
    for idx, code, out in records:
        op = deck[idx]
        if code != 0:
            reasons.append(f"exit {code}: {out[-300:]}")
            continue
        if outputs.setdefault(idx, out) != out:
            reasons.append("stdout differs from an earlier run of the same op")
            continue
        if idx in verdicts:
            reasons.append(verdicts[idx])
            continue
        partner = op.facts.get("partner")
        partner_out = None
        if partner is not None:
            if partner not in outputs:
                pcode, pout, _ = run_one(deck[partner], call)
                if pcode != 0:
                    reasons.append(f"partner op exit {pcode}")
                    continue
                outputs[partner] = pout
            partner_out = outputs[partner]
        try:
            reason = check(op, out, partner_out) or ""
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"unreadable output: {exc!r}"
        verdicts[idx] = reason
        reasons.append(reason)
    return reasons


def tail(durations):
    """Value and percentile of the highest percentile with TAIL_BEYOND ops beyond it."""
    ordered = sorted(durations)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / n


def untraced_run(deck, check, call, seconds):
    outputs: dict[int, str] = {}
    warm_up(deck, call, outputs)
    records, durations, probe_at, op_at = [], [], [], []
    start = time.perf_counter()
    probes = [speed_probe()]
    probe_t = [time.perf_counter() - start]
    for idx, op in enumerate(deck):
        op_at.append(time.perf_counter() - start)
        code, out, dt = run_one(op, call)
        records.append((idx, code, out))
        durations.append(dt)
        probe_at.append(len(probes) - 1)
        now = time.perf_counter() - start
        last = idx == len(deck) - 1 or now >= TIME_CAP * seconds
        if now - probe_t[-1] >= PROBE_EVERY_S or last:
            probes.append(speed_probe())
            probe_t.append(time.perf_counter() - start)
        if last:
            break
    elapsed = time.perf_counter() - start
    reasons = check_ops(deck, check, records, outputs, call)
    scaled = scaled_durations(durations, [(probes[k], probes[k + 1]) for k in probe_at])
    tail_s, tail_pct = tail(scaled)
    failed = sum(1 for r in reasons if r)
    metrics = {
        "op_s.p50": (statistics.median(scaled), "s"),
        "op_s.tail": (tail_s, "s"),
        "ops_per_s": (len(records) / sum(scaled), "1/s"),
        "ok_ops": ((len(records) - failed) / len(records), "share"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    raw_tail, _ = tail(durations)
    extra = {
        "ops": len(records),
        "tail_percentile": tail_pct,
        "elapsed_s": elapsed,
        "unscaled": {
            "op_s.p50": statistics.median(durations),
            "op_s.tail": raw_tail,
            "ops_per_s": len(records) / sum(durations),
        },
        "speed_probe_s": {
            "median": statistics.median(probes),
            "min": min(probes),
            "max": max(probes),
            "count": len(probes),
        },
        "op_kinds": _kind_medians(deck, records, scaled),
    }
    timeline = {
        "op_at": op_at,
        "op_s": durations,
        "op_idx": [idx for idx, _, _ in records],
        "probe_at": probe_t,
        "probe_s": probes,
    }
    return records, reasons, metrics, extra, timeline


def _kind_medians(deck, records, durations) -> dict:
    by_kind: dict[str, list[float]] = {}
    for (idx, _, _), dt in zip(records, durations):
        by_kind.setdefault(deck[idx].kind, []).append(dt)
    return {k: {"ops": len(v), "median_s": statistics.median(v)} for k, v in by_kind.items()}


def traced_run(deck, check, call, seconds, span_path):
    from tracer import Tracer, layer_metrics

    tracer = Tracer()

    def run_traced(idx, op):
        tracer.install()
        try:
            return tracer.run_op(idx, lambda: run_one(op, call))
        finally:
            tracer.uninstall()

    outputs: dict[int, str] = {}
    warm_up(deck, call, outputs)
    records, plain_s, traced_s, mismatched = [], [], [], []
    start = time.perf_counter()
    for idx, op in enumerate(deck):
        # alternate which variant runs first, so neither always gets a warm cache
        if idx % 2 == 0:
            code, out, dt = run_one(op, call)
            tcode, tout, tdt = run_traced(idx, op)
        else:
            tcode, tout, tdt = run_traced(idx, op)
            code, out, dt = run_one(op, call)
        records.append((idx, code, out))
        plain_s.append(dt)
        traced_s.append(tdt)
        mismatched.append((tcode, tout) != (code, out))
        if time.perf_counter() - start >= TIME_CAP * seconds:
            break
    reasons = check_ops(deck, check, records, outputs, call)
    reasons = [r or ("traced stdout differs" if bad else "") for r, bad in zip(reasons, mismatched)]
    # time inside a traced op that no span covers: capture and wrapper overhead
    self_by_op = tracer.self_by_op()
    unspanned = [tdt - self_by_op.get(op_id, 0.0) for op_id, tdt in enumerate(traced_s)]
    n = len(records)
    metrics = {k: (v, _layer_unit(k)) for k, v in layer_metrics(tracer, n).items()}
    metrics["cli.out_bytes"] = (sum(len(out.encode()) for _, _, out in records) / n, "B/op")
    metrics["trace.overhead"] = (sum(traced_s) / sum(plain_s) - 1.0, "share")
    metrics["trace.spans"] = (tracer.span_count() / n, "count/op")
    extra = {
        "ops": n,
        "traced_stdout_mismatches": sum(mismatched),
        "unspanned_s": {"min": min(unspanned), "max": max(unspanned)},
        "span_file": str(span_path.relative_to(ROOT)),
        "problems": [],
    }
    timeline = {"op_s": plain_s, "traced_op_s": traced_s, "op_idx": [idx for idx, _, _ in records]}
    if not tracer.restored():
        extra["problems"].append("tracer left wrapped names behind")
    if min(unspanned) < 0:
        extra["problems"].append("span self times exceed the op time")
    RESULTS.mkdir(exist_ok=True)
    tracer.write_spans(span_path)
    return records, reasons, metrics, extra, timeline


def _layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s/op"
    if name.endswith(("ratio", "yield")):
        return "ratio"
    return "count/op"


def git_revision():
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=20,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "lormatch").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    args = _parse_args(argv)
    from workloads import WORKLOADS

    load_start = os.getloadavg()
    try:
        cli = import_cli()
        setup_s, raw_setup_s = measure_setup()
    except (SetupError, ImportError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    rounds = planned_rounds(workload, args.seconds, args.trace)
    deck, check = workload.build(args.seed, rounds), workload.check
    call = make_call(cli)
    if args.trace:
        span_path = RESULTS / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        records, reasons, metrics, extra, timeline = traced_run(
            deck, check, call, args.seconds, span_path
        )
    else:
        records, reasons, metrics, extra, timeline = untraced_run(deck, check, call, args.seconds)
        metrics["setup_s"] = (setup_s, "s")
    failures = [r for r in reasons if r] + extra.pop("problems", [])
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "setup_s": setup_s,
        "unscaled_setup_s": raw_setup_s,
        **extra,
        "failures": failures[:5],
    }
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": sum(1 for r in reasons if r),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(
        json.dumps({"provenance": provenance, "result": result, "timeline": timeline}) + "\n"
    )
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
