"""Pinned processes: every check of `lormatch` as a process, one row each, and one runner.

Each `Row` runs `python -W error -m lormatch.cli ARGV` (or `-m lormatch`) in a fresh process with
PYTHONPATH=src.  Its `files` are written to a temporary directory and passed as `@path`.  Of its
stdout and stderr a row expects exact text (its lines; "" is empty) or rules (`sha`, `ERROR_LINE`,
`count`, or a predicate over this stdout and earlier rows', `holds`), each of which must hold.
`DECKS` pins one sha256 per perfbench workload and seed.  `python -W error tests/pins.py` runs
every row and deck and names each failure.  It takes no flag: a pin is edited by hand, and
CHANGES.md says why.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Out:
    """An earlier row's stdout as an input, passed through `then` first."""

    row: str
    then: Callable[[str], str] = str


@dataclass(frozen=True)
class Row:
    name: str
    argv: str | tuple  # a str is split on spaces
    stdout: object = ""
    code: int = 0
    stderr: object = ""
    files: dict = field(default_factory=dict)
    env: dict = field(default_factory=dict)
    mem: int | None = None  # the address-space cap in KiB, as `ulimit -v`
    cpu: int | None = None  # the one CPU allowed, as `taskset -c`
    timeout: float = 60
    module: str = "lormatch.cli"
    quick: bool = False  # tier-1 runs it too (tests/test_pins.py)


class _Outs(dict):
    def __missing__(self, name):
        raise LookupError(f"refers to no earlier row {name!r}")


def holds(test, reason):
    """A rule from a predicate over (stdout, earlier rows' stdouts)."""
    return lambda out, outs: None if test(out, outs) else reason


def sha(digest):
    def rule(out, outs):
        got = hashlib.sha256(out.encode()).hexdigest()
        return None if got == digest else f"sha256 {got}, expected {digest}"

    return rule


def count(key, n):
    return holds(lambda out, outs: len(json.loads(out)[key]) == n, f"{key} does not hold {n} items")


def same_as(name):
    return holds(lambda out, outs: out == outs[name], f"differs from the stdout of {name!r}")


def _exact(text):
    return holds(lambda out, outs: out == (text and text + "\n"), "is not the pinned text")


ERROR_LINE = holds(
    lambda out, outs: out[:7] == "error: " and out.find("\n") == len(out) - 1, "not one 'error: ' line"
)


def _reason(row, outs, tmp):
    for name, source in row.files.items():
        (tmp / name).write_text(source.then(outs[source.row]) if isinstance(source, Out) else source)
    argv = row.argv.split(" ") if isinstance(row.argv, str) else row.argv
    argv = [f"@{tmp / a[1:]}" if a[:1] == "@" and a[1:] in row.files else a for a in argv]
    env = {k: v for k, v in os.environ.items() if not k.startswith(("LORMATCH_", "PYTHON"))}

    def confine():
        if row.mem:
            resource.setrlimit(resource.RLIMIT_AS, (row.mem * 1024,) * 2)
        if row.cpu is not None:
            os.sched_setaffinity(0, {row.cpu})

    try:
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", row.module, *argv], cwd=ROOT, capture_output=True,
            env={**env, "PYTHONPATH": str(SRC), **row.env}, timeout=row.timeout, preexec_fn=confine,
        )
    except subprocess.TimeoutExpired:
        return f"timed out after {row.timeout} s"
    outs[row.name] = out = proc.stdout.decode()
    err = proc.stderr.decode()
    if proc.returncode != row.code:
        return f"exit {proc.returncode}, expected {row.code}; stderr {err[-400:]!r}"
    for stream, text, want in (("stdout", out, row.stdout), ("stderr", err, row.stderr)):
        for rule in want if isinstance(want, tuple) else (want,):
            reason = (_exact(rule) if isinstance(rule, str) else rule)(text, outs)
            if reason:
                return f"{stream} {text[:300]!r}: {reason}"
    return None


def run(rows, report=print):
    """Run the rows in order; one message per failing row, each naming it."""
    outs = _Outs()
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for row in rows:
            start = time.perf_counter()
            try:
                reason = _reason(row, outs, Path(tmp))
            except Exception as exc:  # a failing input or predicate fails its row
                reason = f"{type(exc).__name__}: {exc}"
            report(f"{'FAIL' if reason else 'ok  '} {time.perf_counter() - start:6.2f} s  {row.name}")
            if reason:
                failures.append(f"{row.name}: {reason}")
    return failures


# -- the inputs and texts the rows share --------------------------------------------------------


def compact(obj):
    return json.dumps(obj, separators=(",", ":"))


def doc(obj):
    """A document as `print(json.dumps(obj))` writes it."""
    return json.dumps(obj) + "\n"


def windows(m, order=sorted):
    """m cyclic 3-windows {j, j + 1, j + 2} mod m; `order=list` keeps each window's rotation."""
    return {"m": m, "sets": [order([(j + k) % m + 1 for k in range(3)]) for j in range(m)]}


def passed(check, trials, seed, budget):
    """The two lines of `verify --check` for a check that passed."""
    config = f'"max_kappa":2,"max_m":5,"max_n":5,"max_rank":3,"seed":{seed},"tolerance":1e-09,"trials":{budget}'
    return f'{{"check":"{check}","failures":[],"passed":true,"trials":{trials}}}\n{{"all_passed":true,"config":{{{config}}}}}'


def refused(check, replay, message):
    out = f'{{"check":"{check}","passed":false,"reasons":["exception: ValueError(\'{message}\')"]}}'
    name = f"{check} refuses {message.split(';')[0]}"
    return Row(name, ("verify", "--check", check, "--replay", replay), out, code=1, mem=CAP, timeout=10, quick=True)


def _irregular(text):
    doc = json.loads(text)
    del doc["terms"][0]["den"]
    doc["terms"].append(dict(doc["terms"][1]))
    assert len(doc["terms"]) == 3433, len(doc["terms"])
    return json.dumps(doc)


CAP = 1000000  # KiB
FOUR_CYCLE = compact({"m": 4, "sets": [[1, 2], [2, 3], [3, 4], [4, 1]]})
SIX_CYCLE = compact({"m": 3, "sets": [[1, 2], [2, 3], [1, 3]]})
BIG = '{"m":100000000,"sets":[[1],[1,99999999]]}'
PAIR = '{"m":2,"sets":[[1,2],[2]]}'
WIDE = '{"sum":[{"free":[1,300]},{"free":[2,1]}]}'
W10, W12, W14 = compact(windows(10, list)), compact(windows(12)), compact(windows(14, list))
SETS12 = doc(windows(12))
REAL14 = doc({"blockdims": [1] * 14, "gens": [[(i * j + 2 * i + j) % 7 - 3 for j in range(14)] for i in range(6)]})
SYMBOL44 = sha("dfb0ce740828044e8179c4220852b04dce4c821638e12ee4a7ae016ca757a203")
LORENTZIAN44 = '{"checked_derivatives":44000,"failure":null,"lorentzian":true}'
VERIFY = (
    "b53e6f4ea036da8b900774c22b8a502c628ebbab9653525312e1e9ce2c43db8a",
    "cbaad15772b640849f1df05397cd046cac7d0beb7e8f5db8acae072c50e5fefd",
    "1e5170e7c172f7a06eb6f85d837ac7d83c0cad3e541ebf2953d2832fe6ed1d82",
)
FPOLY12, FPOLY14, TAB22 = "fpoly of 12 windows at r = 6", "fpoly of 14 windows at r = 7", "tab-family at a = 0, b = 1"


ROWS = [
    # a usage error through main() and sys.exit, as a real process: exit 2, nothing on stdout and
    # one "error: " line on stderr, with the rule checked before the malformed --sets is read; both
    # through the cli module and through the package (`python -m lormatch`)
    *(Row(f"usage error through -m {mod}", 'ct --sets {"m":', code=2, stderr=ERROR_LINE, timeout=30, module=mod, quick=True) for mod in ("lormatch.cli", "lormatch")),
    # number text is stripped and read ASCII-only by one rule on three surfaces: a list item (exit
    # 1, invalid-value naming the flag), a single-number flag (argparse: exit 2, one "error: "
    # line, empty stdout) and an environment variable (exit 1, invalid-environment).
    # golden-examples has ratio 0.0, so any --trials runs it once; a budget that another check's
    # ratio takes past the float range is refused as invalid-config before any trial
    Row("golden-examples once at a million trials", "verify --check golden-examples --trials 1000000", timeout=30, quick=True, stdout=
        '{"check":"golden-examples","failures":[],"passed":true,"trials":1}\n'
        '{"all_passed":true,"config":{"max_kappa":2,"max_m":5,"max_n":5,"max_rank":3,"seed":1,"tolerance":1e-09,"trials":1000000}}'),
    Row("a trial budget past the float range", ("verify", "--check", "capped-matchings", "--trials", "1" + "0" * 400), code=1, timeout=30, quick=True,
        stdout='{"detail":"trial budget 1000000000000000000000000000000000000... is past the float range","error":"invalid-config"}'),
    Row("LORMATCH_SEED is stripped", "verify --check golden-examples", env={"LORMATCH_SEED": " 9 "}, timeout=30, quick=True, stdout=
        '{"check":"golden-examples","failures":[],"passed":true,"trials":1}\n'
        '{"all_passed":true,"config":{"max_kappa":2,"max_m":5,"max_n":5,"max_rank":3,"seed":9,"tolerance":1e-09,"trials":100}}'),
    Row("LORMATCH_SEED refuses a plus sign", "verify --check golden-examples", code=1, env={"LORMATCH_SEED": "+9"}, timeout=30, quick=True,
        stdout=r'''{"detail":"expected an integer string such as \"-12\", got '+9'","error":"invalid-environment","variable":"LORMATCH_SEED"}'''),
    Row("--r refuses a plus sign", f"fpoly --sets {PAIR} --r +1", code=2, stderr="error: argument --r: expected an integer string such as \"-12\", got '+1'", timeout=30, quick=True),
    Row("--alpha refuses a plus sign", f"match --sets {PAIR} --alpha 1,+1 --beta 1,1", code=1, timeout=30, quick=True,
        stdout=r'''{"detail":"expected an integer string such as \"-12\", got '+1'","error":"invalid-value","flag":"--alpha"}'''),
    # certification runs its stages in one fixed order and the first failing stage decides: each of
    # the first three polynomials fails the stage named in its line and a later one.  A JSON
    # argument nested deeper than the JSON scanner allows is a one-line malformed-json error naming
    # its flag, never a traceback
    *(Row(f"certification stage order: {name}", ("certify", "--poly", f'{{"nvars":2,"terms":{terms}}}'), verdict, quick=True) for name, terms, verdict in (
        ("non-homogeneous", '[{"exp":[2,0],"coeff":-1},{"exp":[0,1],"coeff":1}]', '{"checked_derivatives":0,"failure":{"exponents":[[0,1],[2,0]],"kind":"non-homogeneous"},"lorentzian":false}'),
        ("signs", '[{"exp":[2,0],"coeff":-1},{"exp":[0,2],"coeff":1}]', '{"checked_derivatives":0,"failure":{"exponents":[[2,0]],"kind":"negative-coefficient"},"lorentzian":false}'),
        ("support", '[{"exp":[3,0],"coeff":1},{"exp":[0,3],"coeff":1}]', '{"checked_derivatives":0,"failure":{"exponents":[[0,3],[3,0]],"kind":"support-not-M-convex"},"lorentzian":false}'),
        ("inertia", '[{"exp":[2,0],"coeff":1},{"exp":[1,1],"coeff":1},{"exp":[0,2],"coeff":1}]', '{"checked_derivatives":1,"failure":{"derivative":[0,0],"inertia":[2,0,0],"kind":"bad-inertia"},"lorentzian":false}'),
        ("lorentzian", '[{"exp":[1,0],"coeff":1},{"exp":[0,1],"coeff":2}]', '{"checked_derivatives":0,"failure":null,"lorentzian":true}'))),
    Row("JSON nested too deeply", "ct --sets @deep.json --r 1", '{"detail":"JSON nested too deeply","error":"malformed-json","flag":"--sets"}',
        code=1, files={"deep.json": "[" * 100000 + "]" * 100000 + "\n"}, quick=True),
    # every check refuses a replay past the bounds its generator draws from before it builds
    # anything; each replay below once hung or exhausted memory, which only a process under a
    # memory cap can show, or (the golden-examples entry) passed though no trial draws it
    refused("matching-stat-lorentzian", '{"seq":{"m":30,"sets":[[1]]}}', "seq has m=30, n=1; the generator draws m <= 5, n <= 5"),
    refused("symbol-support-egf", '{"seq":{"m":3,"sets":[[1,2,3],[1,2,3]]},"kappa":[40,40,40]}', "kappa_i=40; the generator draws kappa_i <= 2"),
    refused("capped-matchings", '{"mode":"random","seq":{"m":1,"sets":[[1],[1],[1],[1],[1],[1],[1],[1]]},"caps":{},"alpha":[60]}', "seq has m=1, n=8; the generator draws m <= 3, n <= 3"),
    refused("base-membership-duality", json.dumps({"pm": {"m": 1, "rank": [0, 1]}, "seq": {"m": 1, "sets": [[1]] * 26}, "delta": [1] + [0] * 25}), "seq has m=1, n=26; the generator draws m <= 5, n <= 5"),
    refused("base-membership-duality", json.dumps({"pm": {"m": 5, "rank": [0] + [300] * 31}, "seq": {"m": 5, "sets": [[1, 2, 3, 4, 5]]}, "delta": [300]}), "pm full rank=300; the generator draws pm full rank <= 3"),
    refused("support-induction", json.dumps({"real": {"blockdims": [1] * 24, "gens": []}, "seq": {"m": 4, "sets": [[1], [2], [3], [4]]}}), "len(blockdims)=24; the generator draws len(blockdims) <= 4"),
    refused("coefficient-power-family", '{"seq":{"m":3,"sets":[[1,2,3],[1,2,3],[1,2,3]]},"kappa":[12,12,12]}', "kappa_i=12; the generator draws kappa_i <= 2"),
    refused("basis-restricted-stats", json.dumps({"matroid": {"m": 5, "rank": [min(bin(k).count("1"), 3) for k in range(32)]}, "seq": {"m": 5, "sets": [[1, 2, 3, 4, 5]] * 24}}), "seq has m=5, n=24; the generator draws m <= 5, n <= 5"),
    refused("matching-stat-lorentzian", '{"seq":{"m":100000000,"sets":[[1]]}}', "seq has m=100000000, n=1; the generator draws m <= 5, n <= 5"),
    refused("golden-examples", '{"abcd":[[10,1,1,1]]}', "abcd entry=10; the generator draws abcd entry <= 9"),
    refused("golden-examples", '{"abcd":[[0,1,1,1]]}', "abcd entry=0; the generator draws abcd entry >= 1"),
    refused("base-membership-duality", '{"pm":{"m":100000000000,"rank":[0,1]},"seq":{"m":1,"sets":[[1]]},"delta":[1]}', "rank table has 2 entries, expected 2^100000000000"),
    # a SubsetSeq builds its per-element views on first use, and the panel counts read none of
    # them, so a 10^8-element ground set with two small parts is answered at once within a memory cap
    Row("ct --r 1 on 10^8 elements", f"ct --r 1 --sets {BIG}", '{"r":1,"rows":[{"T":[1],"count":1},{"T":[2],"count":2}]}', mem=CAP, timeout=10, quick=True),
    Row("ct --topic 1 on 10^8 elements", f"ct --topic 1 --sets {BIG}", '{"count":1,"topic":[1]}', mem=CAP, timeout=10, quick=True),
    Row("fpoly --r 1 on 10^8 elements", f"fpoly --r 1 --sets {BIG}", '{"basis":"plain","nvars":2,"terms":[{"den":"1","exp":[0,1],"num":"2"},{"den":"1","exp":[1,0],"num":"1"}]}', mem=CAP, timeout=10, quick=True),
    # induce --elementary builds e_r over all m variables, which a 10^8-element ground set cannot
    # hold under the cap: the MemoryError is one error object on stdout and exit 1, never a traceback
    Row("out of memory", f"induce --elementary 1 --sets {BIG}", '{"error":"out-of-memory"}', code=1, mem=CAP, timeout=20),
    Row("lormatch verify", "verify", sha(VERIFY[0]), timeout=120),
    # induced and summed rank tables are trusted without re-validation; the harness re-validates
    # them, so it runs on a second seed's instances
    Row("lormatch verify, second seed", "verify --seed 2", sha(VERIFY[1]), timeout=120),
    Row("lormatch verify, third seed", "verify --seed 3", sha(VERIFY[2]), timeout=120),
    # run_check splits each check's trials over the usable CPUs; on one CPU they run in one loop.
    # Both ways must write the same bytes
    *(Row(f"verify --seed {seed} on {cpus}", f"verify --seed {seed}", sha(VERIFY[seed - 1]), cpu=cpu, timeout=120)
      for seed in (1, 2) for cpus, cpu in (("CPU 0", 0), ("all CPUs", None))),
    # linear-realization ranks come from Gram-matrix inertia: both checks run 500 trials,
    # support-induction ranking a random realization and its induced one in each,
    # basis-restricted-stats in about half
    *(Row(f"{check} at 1000 trials", f"verify --check {check} --trials 1000 --seed 3", passed(check, 500, 3, 1000), timeout=120) for check in ("support-induction", "basis-restricted-stats")),
    # the rank table of 14 one-dimensional blocks and 6 integer rows (one of them dependent): 14
    # block Grams summed depth first over the 2^14 block sets, alone and induced along seven parts
    # of two blocks each, byte for byte as the per-set Gram build wrote them
    Row("rank table of 14 blocks", "pminduce --real @real14.json", sha("810f59d3cddb052303486658bdf020c578682d26f49d63f1d2903bf553257838"), files={"real14.json": REAL14}),
    Row("rank table of 14 blocks induced", 'pminduce --real @real14.json --sets {"m":14,"sets":[[1,8],[2,9],[3,10],[4,11],[5,12],[6,13],[7,14]]}',
        sha("153f6b4bac6fff3111242ea3121d5fe9d4d04f74b398714828a0394c2bfb941b"), files={"real14.json": REAL14}),
    # the symbol check and Hall-Rado membership both read induce_polymatroid's table: 1000 symbol
    # instances (2000 x0.5) and 2000 membership instances (1000 x2.0), each re-validating its
    # induced table
    Row("symbol-support-egf at 2000 trials", "verify --check symbol-support-egf --trials 2000 --seed 7", passed("symbol-support-egf", 1000, 7, 2000), timeout=120),
    Row("base-membership-duality at 1000 trials", "verify --check base-membership-duality --trials 1000 --seed 7", passed("base-membership-duality", 2000, 7, 1000), timeout=120),
    # capped feasibility through admits_matching(seq, alpha, beta, caps): 40000 random cap tables,
    # each alpha against every beta of its total, compared with the exhaustive spread search.  The
    # flow's single-vertex cut answers about 92% of the pairs that do not match; the 9,802 left
    # (120,526 in all) are what tests the augmenting-path search's "no", more than the 8,759 that
    # all reached it at 2000 trials before the cut
    Row("capped-matchings at 40000 trials", "verify --check capped-matchings --trials 40000 --seed 11", passed("capped-matchings", 40000, 11, 40000)),
    # a 40,625-point support in 8 variables, decided by the polymatroid route: points_polymatroid's
    # greedy table, axiom check and base walk
    Row("symbol at kappa = 4^4", f"symbol --sets {FOUR_CYCLE} --kappa 4,4,4,4", SYMBOL44),
    Row("M-convex support at kappa = 4^4", "certify --support-only --poly @s.json", '{"m_convex":true,"witness":null}', files={"s.json": Out("symbol at kappa = 4^4")}, timeout=120),
    # the full certification of the same symbol: 44,000 derivatives whose Hessians have 87 distinct
    # entry tuples, each eliminated once
    Row("certification at kappa = 4^4", "certify --poly @s.json", LORENTZIAN44, files={"s.json": Out("symbol at kappa = 4^4")}, timeout=120),
    # the kappa = 4^4 symbol of the four-cycle written by one process and certified by another,
    # under a 1 GB address-space cap
    Row("symbol at kappa = 4^4 under the cap", f"symbol --sets {FOUR_CYCLE} --kappa 4,4,4,4", SYMBOL44, mem=CAP),
    Row("certification at kappa = 4^4 under the cap", "certify --poly @s.json", LORENTZIAN44, files={"s.json": Out("symbol at kappa = 4^4 under the cap")}, mem=CAP),
    # support recovery of the abstract's polynomial: the matching-count polynomial of the 14 cyclic
    # 3-windows at r = 7 (3,432 support points in 14 variables) read by the column pass and decided
    # by points_polymatroid's probes, the axiom check and the base walk
    Row(FPOLY14, f"fpoly --sets {W14} --r 7", sha("40555569fe043e0323a016c0d06bde70a8a1fa17cdcc4f14d5b0b9f136ff3b7f")),
    Row("support of 14 windows", "pminduce --support-of @f.json", sha("0c4515c3f06c1bf7434160a53f9f82527c4edc5a5ec3cd8efce338b8be5649ae"), files={"f.json": Out(FPOLY14)}),
    # the same document made irregular, which the row loop reads instead of the column pass: one
    # row in the {"exp","num"} form and a copy of another row appended (3,433 rows), whose sum
    # leaves the support as is
    Row("support of 14 windows through the row loop", "pminduce --support-of @f.json", same_as("support of 14 windows"), files={"f.json": Out(FPOLY14, _irregular)}),
    # base-point walks and the axiom check at m = 12: free(12, 5) has C(16, 11) = 4368 base points;
    # a raw 4096-entry uniform(12, 6) table is validated where it enters and has C(12, 6) = 924
    Row("base points of free(12, 5)", 'pminduce --pm {"free":[12,5]} --points', count("base_points", 4368)),
    Row("base points of a raw uniform(12, 6) table", "pminduce --pm @pm.json --points", count("base_points", 924),
        files={"pm.json": doc({"m": 12, "rank": [min(bin(s).count("1"), 6) for s in range(4096)]})}, quick=True),
    # the base-point generating polynomial of free(12, 5): its 4,368 terms built from counted rows,
    # byte for byte
    Row("base-point egf of free(12, 5)", 'pminduce --pm {"free":[12,5]} --egf', sha("545dcf6872e630ee7b882262feb8da177842f8236ae83159b76d1be2ba84dd40")),
    # Hall-Rado membership at m = 12: uniform(12, 6) has 924 source base points; route (b) drops
    # those that fail a single-vertex Hall cut before running a flow, and must still agree with the
    # inequalities
    *(Row(f"hallrado over uniform(12, 6) at {delta}", f'hallrado --pm {{"uniform":[12,6]}} --sets {compact(windows(12, list))} --delta {delta}', verdict)
      for delta, verdict in (("0,0,0,0,0,0,0,0,0,0,3,3", '{"member":false}'), ("1,1,1,1,1,1,0,0,0,0,0,0", '{"member":true}'))),
    # a source of rank 301 packs its rank table into 2-byte fields: the induced base points of the
    # triangle and one member and one non-member through both Hall-Rado routes, byte for byte
    Row("wide-rank base points", f"pminduce --pm {WIDE} --sets {SIX_CYCLE} --points", sha("4fcd494376221f0dc7bc0cfc1b613e90e60e458b3a77cd95cd6814552f2b7747"), quick=True),
    *(Row(f"wide-rank hallrado at {delta}", f"hallrado --pm {WIDE} --sets {SIX_CYCLE} --delta {delta}", verdict)
      for delta, verdict in (("150,1,150", '{"member":true}'), ("0,301,0", '{"member":false}'))),
    # the inducing box of the six-cycle at kappa = 3^3, byte for byte: its images are decoded from
    # packed keys and built in graded-lex order
    Row("box table of the six-cycle", f"symbol --table --sets {SIX_CYCLE} --kappa 3,3,3", sha("5306c1bb61ccbecf98a9d03a8dfdc3644b4c65dd93c148ececb17ccf9d6de381"), quick=True),
    # operator box tables with each image's text spliced into its row, byte for byte as json.dumps
    # wrote OperatorBox.to_json: the kappa = 4^4 four-cycle table (625 rows), a float table
    # (--q 1/2) and a tab-family box
    Row("box table of the four-cycle", f"symbol --table --sets {FOUR_CYCLE} --kappa 4,4,4,4", sha("44c750fc293f9d12ab43640cd3ae1b7bd0c41c6eb982bc83041abfed3abd5b16")),
    Row("float box table of the six-cycle", f"symbol --table --sets {SIX_CYCLE} --kappa 3,3,3 --q 1/2", sha("da10f4f066ab24be87e1c944527230bb8825d53a4c132fc0cf2d6f6521dc61c8")),
    Row("tab-family box of the six-cycle", f"tab-family --sets {SIX_CYCLE} --a 1,1/2,2 --b 1/3,1,1,2,1,1 --kappa 2,2,2", sha("2f47f181c38c2babd746e08f4d4e4e29164b2a1a196f392907216f794dd27bea")),
    # the certify deck's heaviest class end to end: the six-cycle symbol at kappa = 3^3 (784
    # terms), its box decoded from packed keys, then certified
    Row("symbol of the six-cycle", f"symbol --sets {SIX_CYCLE} --kappa 3,3,3", sha("7ee3cd2b908d24829ea1976663a05bd35d33fa58254dbb1eabed6592c8d61c95")),
    Row("certification of the six-cycle symbol", "certify --poly @s.json", '{"checked_derivatives":576,"failure":null,"lorentzian":true}', files={"s.json": Out("symbol of the six-cycle")}),
    # the a = 0, b = 1 end of tab-family is the substitution operator: on the kappa = 2^4
    # four-cycle (81 table entries from an augmented sequence of 12 parts) the collapsed inducing
    # box must equal the substitution box
    Row(TAB22, f"tab-family --sets {FOUR_CYCLE} --a 0,0,0,0 --b 1,1,1,1,1,1,1,1 --kappa 2,2,2,2", sha("5adc10fd9cacbfbc44bbfe4ac9b3c80fbdfdbfa4a78cb3e2b37ef6ca204643ec")),
    Row("substitution box of the four-cycle", f"symbol --op substitution --table --sets {FOUR_CYCLE} --kappa 2,2,2,2",
        holds(lambda out, outs: json.loads(outs[TAB22])["box"] == json.loads(out), "tab-family endpoint differs from the substitution box")),
    # the stats workload's cross-route check at a larger scale: the panel counts of 12 cyclic
    # 3-windows at r = 6 (the walk over topic subsets) must equal the multi-affine part of the
    # induced e_6 (the walk over part multisets on the same SDR families); the image is pinned byte
    # for byte as the sumset walk over exponent prefixes wrote it
    Row(FPOLY12, f"fpoly --sets {W12} --r 6", count("terms", 924)),
    Row("induce of e_6 on 12 windows", f"induce --sets {W12} --elementary 6", (sha("8d687c472d0310693575620e2317a94de921e03cbf72e394f6581d714de39e2a"),
        holds(lambda out, outs: json.loads(outs[FPOLY12])["terms"] == [t for t in json.loads(out)["terms"] if max(t["exp"]) <= 1],
              "fpoly differs from the multi-affine part of induce"))),
    # the sumset route of induce, which an f that is not multi-affine takes: h_3 in 12 variables
    # (364 terms, each normalized coefficient 1) on 12 cyclic 3-windows, byte for byte
    Row("induce of h_3 on 12 windows", "induce --sets @sets.json --poly @f.json", sha("aad0272b67fb0548ad8c3450158406b0f036f45dc629282e04ae98c5c606fb96"), files={"sets.json": SETS12, "f.json": doc(
        {"nvars": 12, "basis": "normalized", "terms": [{"exp": [c.count(i) for i in range(12)], "coeff": 1} for c in combinations_with_replacement(range(12), 3)]})}),
    # the induced e_7 of 14 cyclic 3-windows (66,600 terms) by the walk over part multisets, byte
    # for byte as the sumset walk wrote it
    Row("induce of e_7 on 14 windows", f"induce --sets {W14} --elementary 7", sha("819122332ebd244b17d8aa2fe4e73895acb7fead580bd32c8b1dc4b5162af239")),
    # both sides of induce's bitset gate on 12 cyclic 3-windows, byte for byte: e_3 with weights 1
    # and 2 alternating over its terms takes the sumset route, and 1/2 e_2 + 3 e_4 - 2/3 e_5, one
    # weight per degree, the walk over part multisets
    Row("induce of a two-weight e_3 on 12 windows", "induce --sets @sets.json --poly @f.json", sha("aea0a9dc08e112823d73ac57058afe553ae359a5b06bf3d11614935f2d39be11"), files={"sets.json": SETS12, "f.json": doc(
        {"nvars": 12, "terms": [{"exp": [int(i in c) for i in range(12)], "coeff": k % 2 + 1} for k, c in enumerate(combinations(range(12), 3))]})}),
    Row("induce of 1/2 e_2 + 3 e_4 - 2/3 e_5 on 12 windows", "induce --sets @sets.json --poly @f.json", sha("3995537f4b7f16718515058877c9206b2f6d6095ed34e83ae97f46ffa217f33a"), files={"sets.json": SETS12, "f.json": doc(
        {"nvars": 12, "terms": [{"exp": [int(i in c) for i in range(12)], "coeff": w} for d, w in ((2, "1/2"), (4, 3), (5, "-2/3")) for c in combinations(range(12), d)]})}),
    # the panel-count build at m = 16: the 12,870 topics of 16 cyclic 3-windows at r = 8, each SDR
    # family held as one 2^16-bit int, byte for byte as the set-of-masks walk wrote them
    Row("fpoly of 16 windows at r = 8", f"fpoly --sets {compact(windows(16))} --r 8", (sha("4af106a5822665610faf2a06cb38a51d992c07f06b1f43c596ebbeb553f14c04"), count("terms", 12870))),
    # a single topic grows the same SDR families as the panel walk, on each side of the m = 16
    # switch: 2^16-bit ints, then sets of masks at m = 17
    *(Row(f"ct --topic on {m} windows", f"ct --sets {compact(windows(m))} --topic 1,3,5,7,9,11,13,15", f'{{"count":{n},"topic":[1,3,5,7,9,11,13,15]}}', timeout=30)
      for m, n in ((16, 2206), (17, 2584))),
    # above m = 16 the SDR families stay sets of masks: 8 overlapping 10-element windows over
    # m = 40 at r = 4, byte for byte
    Row("ct of 8 windows over 40 elements at r = 4", ("ct", "--sets", compact({"m": 40, "sets": [[(5 * j + k) % 40 + 1 for k in range(10)] for j in range(8)]}), "--r", "4"),
        sha("1e77c34bd368f4d688c6c40da76299be8124a66b1944b6d0fe542d1b2dc9c44c"), timeout=30),
    # the polynomial writer on the row kinds the pins above leave out, byte for byte as json.dumps
    # wrote them from to_json: normalized exact rows, float rows (symbol --q), and polynomials
    # inside an object (the tab-family symbol and the base-point egf)
    Row("normalized induce of e_6 on 12 windows", f"induce --sets {W12} --elementary 6 --basis normalized", sha("bdc40e507e6c80cbbd3904dbf6b7ccc069d1dc3ae860d3f41c5193aa59783fba")),
    Row("float symbol of the six-cycle", f"symbol --sets {SIX_CYCLE} --kappa 3,3,3 --q 1/2", sha("53c9525fdde5901420fb5b60a739bc33e9270756948689868605276623c91daf")),
    Row("tab-family symbol of the four-cycle", f"tab-family --sets {FOUR_CYCLE} --a 0,0,0,0 --b 1,1,1,1,1,1,1,1 --kappa 2,2,2,2 --symbol", sha("aa496c2e47f642459c8b147fcdfaecb2b9b93bfdb9c857e16b7507e4538ce712")),
    Row("base-point egf induced from free(10, 3)", 'pminduce --pm {"free":[10,3]} --sets {"m":10,"sets":[[1,2],[3,4],[5,6],[7,8],[9,10],[1,3],[5,7],[2,9]]} --egf',
        sha("13f390194d3a4a5e722adc3cdb580f3748b91f60f764996ae95169ef7eceb4f1")),
    # the stats workload's two commands on 10 cyclic 3-windows, whose exponent entries are all 0-9
    # (the writer's bytes pass), and a one-part symbol whose y-exponents reach 12 (the writer's
    # json route), byte for byte; perfbench's stats check compares two outputs of this one writer,
    # so only a pin catches a writer fault
    Row("induce of e_5 on 10 windows", f"induce --sets {W10} --elementary 5", sha("5e1f1570ad2a927557d010468d06d9cd31b0a8e878e3bc496adf1d25f7f2e166")),
    Row("fpoly of 10 windows at r = 5", f"fpoly --sets {W10} --r 5", sha("d81150bac71e9174aa780860e6a0caf6556b4a788f2561402618dbf093ed35ea")),
    Row("one-part symbol at kappa = 4,4,4", 'symbol --sets {"m":3,"sets":[[1,2,3]]} --kappa 4,4,4', sha("e1815ac07e4acbdb41eb35361ddd0294d973c58bce09f154b3b369eb1f25f318")),
]


# -- deck digests -------------------------------------------------------------------------------

# one sha256 per perfbench workload at seeds 1-3 over the exit code and stdout of every op of one
# deck round.  The stats decks differ between seeds only by a relabelling of the elements, which
# no panel count or induced image sees, so their three equal digests check that relabelling
# changes nothing
DECKS = {
    "certify": (
        "7e9792b53441a4059ec14974626b06aa1ac5dd90c7fd9faad695b5413c8b6838",
        "c67afaa5f3827608d4927ce936122c7e55ae5926c36654bf02d5fb832400c0a1",
        "90a9093d1ed0288e99228d04fea6cfc36b3f24b04eb00140510639a29fbedd8d",
    ),
    "stats": ("7e9258e071282f4f1164d1206c0a6cb25318f7e51a4dac447f521f358940350c",) * 3,
    "polymatroid": (
        "9e28cfaa028b971eec65807102d2ff4ddf7c174efd6764c24fd6ede0ac1d42c8",
        "e78f0e16759035f8287f3556244f12b8e2ee1ef6b7150283e282bb94bf2656c4",
        "7701c181a1620377816e94e8ee0ec39d0b8196a8b81c3b5e8ab506c01481e601",
    ),
    "verify": (
        "90266c8607227f63c9904047d5f7fd546e977e4c10f7d3656596da0dae8ef93e",
        "f0ad9afe4de52cd073d4f43dec17b64e0818f9ae5e5f132538fcb90992c4aba4",
        "3319ddee0d2c4cf5f366c4a7e0b8d69b2d4b083187f4f096a0d7ea037bbf74c5",
    ),
}


def deck_digest(workload, seed):
    """One round of a perfbench deck, each op run in process as perfbench/run.py's make_call
    runs it."""
    import contextlib
    import io

    sys.path[:0] = [path for path in (str(SRC), str(ROOT)) if path not in sys.path]
    import lormatch.cli as cli
    from perfbench.workloads import WORKLOADS

    def call(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
        return code, out.getvalue()

    digest = hashlib.sha256()
    for op in WORKLOADS[workload].build(seed, 1):
        digest.update(json.dumps(op.run(call)).encode() + b"\n")
    return digest.hexdigest()


def run_decks(report=print):
    failures = []
    for workload, digests in DECKS.items():
        for seed, want in enumerate(digests, 1):
            got = deck_digest(workload, seed)
            report(f"{'ok  ' if got == want else 'FAIL'} deck {workload} seed {seed}")
            if got != want:
                failures.append(f"deck {workload} seed {seed}: sha256 {got}, expected {want}")
    return failures


def main():
    start = time.perf_counter()
    failures = run(ROWS) + run_decks()
    decks = sum(map(len, DECKS.values()))
    print(f"{len(ROWS)} rows and {decks} decks in {time.perf_counter() - start:.1f} s")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
