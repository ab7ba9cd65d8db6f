"""Time the rows of the ROADMAP's seed table on this machine.

    python3 perfbench/seed_baseline.py

Each row is a single library call on a fixed input, timed in this process
after one untimed call, and reported as min / median / max of its repeats
with the CPU time of the median repeat.  The inputs are written out below,
since the ROADMAP does not name its own.  Takes about a minute, most of it
in the kappa = (4, 4, 4) certification.
"""

from __future__ import annotations

import io
import contextlib
import random
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from lormatch import (  # noqa: E402
    SubsetSeq,
    base_points,
    certify_lorentzian,
    free_polymatroid,
    induce_polymatroid,
    inducing_box,
    match_poly,
    symbol_of,
)
from lormatch import cli  # noqa: E402

CYCLE = SubsetSeq(3, (frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3})))


def _half_dense(seed: int, m: int, n: int) -> SubsetSeq:
    rng = random.Random(seed)
    sets = [{e for e in range(1, m + 1) if rng.random() < 0.5} for _ in range(n)]
    for e in range(1, m + 1):
        if not any(e in s for s in sets):
            sets[rng.randrange(n)].add(e)
    return SubsetSeq(m, tuple(frozenset(s) for s in sets))


def _verify_default():
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["verify"]) == 0


def rows():
    stats_seq = _half_dense(10, 10, 10)
    pm_seq = _half_dense(12, 12, 12)
    source = free_polymatroid(12, 3)
    sym3 = symbol_of(inducing_box(CYCLE, (3, 3, 3)))
    sym4 = symbol_of(inducing_box(CYCLE, (4, 4, 4)))
    return [
        ("`lormatch verify` (default scale)", "0.9 s", _verify_default, 3),
        ("`match_poly`, m = n = 10, r = 5", "0.38 s", lambda: match_poly(stats_seq, 5), 3),
        (
            "`base_points` of an induced polymatroid, m = 12",
            "1.1 s",
            lambda: base_points(induce_polymatroid(source, pm_seq)),
            3,
        ),
        ("`certify_lorentzian`, inducing symbol, kappa = 3^3", "4-6 s", lambda: certify_lorentzian(sym3), 8),
        ("`certify_lorentzian`, inducing symbol, kappa = 4^3", "33-37 s", lambda: certify_lorentzian(sym4), 1),
    ]


def main() -> None:
    print("| workload | ROADMAP | min / median / max wall (s) | CPU of median (s) |")
    print("|---|---|---|---|")
    for label, roadmap, fn, repeats in rows():
        if repeats > 1:
            fn()
        samples = []
        for _ in range(repeats):
            wall, cpu = time.perf_counter(), time.process_time()
            fn()
            samples.append((time.perf_counter() - wall, time.process_time() - cpu))
        walls = sorted(w for w, _ in samples)
        median = statistics.median(walls)
        cpu = min(samples, key=lambda s: abs(s[0] - median))[1]
        print(f"| {label} | {roadmap} | {walls[0]:.2f} / {median:.2f} / {walls[-1]:.2f} | {cpu:.2f} |", flush=True)


if __name__ == "__main__":
    main()
