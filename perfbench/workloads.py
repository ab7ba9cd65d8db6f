"""Seeded workload decks and their output checks.

Every input is drawn here from `random.Random`, never from lormatch's own
generators, so a library change cannot silently change a workload.  A deck
is a list of ops made of rounds; each round holds one op of every class the
workload mixes, in the same order in every round and for every seed, so a
timed pass that ends partway through a round covers the same mix whatever
the seed.  Classes fix the shape of an input (sizes, degree caps, part sizes
or incidence pattern) and the seed draws the input itself: fixed shapes keep
op costs, and so the figures, steady from seed to seed.

Each op is one or more `lormatch` command lines.  `Op.run` takes a `call`
that runs one command line and returns `(exit_code, stdout)`.  Checks read
the recorded stdout after the timed pass and return a reason on failure;
an op whose check needs another op's output names that op's deck index as
`facts["partner"]`.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Callable

Call = Callable[[list], tuple]


@dataclass
class Op:
    """One closed-loop operation: the argv of each command line, run in turn."""

    kind: str
    argv: list
    facts: dict = field(default_factory=dict)

    def run(self, call: Call) -> tuple[int, str]:
        code, out = call(self.argv)
        if self.kind == "symbol+certify" and code == 0:
            code, second = call(["certify", "--poly", out.strip()])
            out += second
        return code, out


def _rng(workload: str, seed: int) -> random.Random:
    # string seeding hashes with sha512, so decks are stable across platforms
    return random.Random(f"perfbench:{workload}:{seed}")


def _seq_json(m: int, sets) -> str:
    return json.dumps({"m": m, "sets": [sorted(s) for s in sets]}, separators=(",", ":"))


def _last_json(out: str):
    return json.loads(out.strip().splitlines()[-1])


# -- certify -------------------------------------------------------------------


def _complete_minus_matching(rng: random.Random, m: int, n: int, k: int) -> list[set]:
    """Every part holds all of {1..m} except that k random disjoint incidences
    are dropped; with n >= 2 every element stays covered."""
    parts = [set(range(1, m + 1)) for _ in range(n)]
    for j, e in zip(rng.sample(range(n), k), rng.sample(range(1, m + 1), k)):
        parts[j].discard(e)
    return parts


# (m, n) -> incidences dropped from the complete pattern.  For m = n = 3 a
# whole perfect matching goes, which leaves the 6-cycle: every relabelling of
# it is the same graph, so its ops cost the same for every seed, and
# kappa = (3, 3, 3) on it lands near 2 s.
CERTIFY_SHAPES = {(3, 3): 3, (2, 2): 1, (3, 2): 1, (2, 3): 1}


def _kappa_classes(m: int, n: int) -> list[tuple[int, ...]]:
    """One degree-cap vector per multiset of caps in {2, 3}.

    The round leaves out kappa = (2, 2) on m = n = 2, the cheapest op, so that
    it holds an odd number of ops and the median op lands inside one class.
    """
    lowest = 1 if (m, n) == (2, 2) else 0
    return [(2,) * (m - threes) + (3,) * threes for threes in range(lowest, m + 1)]


def _caps_by_degree(sets: list[set], m: int, kappa: tuple[int, ...]) -> list[int]:
    """Give the smaller caps to the elements in fewer parts.  In these shapes
    elements of equal degree are interchangeable, so an op's cost depends on
    its class alone and not on how the seed labelled the elements."""
    degree = {e: sum(e in part for part in sets) for e in range(1, m + 1)}
    caps = [0] * m
    for e, cap in zip(sorted(degree, key=degree.get), sorted(kappa)):
        caps[e - 1] = cap
    return caps


def certify_deck(seed: int, rounds: int) -> list[Op]:
    rng = _rng("certify", seed)
    per_shape = [[(m, n, kappa) for kappa in _kappa_classes(m, n)] for (m, n) in CERTIFY_SHAPES]
    # interleave the shapes so heavy and light ops alternate within a round
    classes = [c for group in itertools.zip_longest(*per_shape) for c in group if c]
    deck = []
    for _ in range(rounds):
        for m, n, kappa in classes:
            sets = _complete_minus_matching(rng, m, n, CERTIFY_SHAPES[(m, n)])
            caps = ",".join(map(str, _caps_by_degree(sets, m, kappa)))
            deck.append(Op("symbol+certify", ["symbol", "--sets", _seq_json(m, sets), "--kappa", caps]))
    return deck


def certify_check(op: Op, out: str, partner_out: str | None) -> str | None:
    report = _last_json(out)
    if report.get("lorentzian") is not True:
        return f"certify verdict {report}"
    if report.get("checked_derivatives", 0) < 1:
        return "certify checked no derivative"
    return None


# -- stats ---------------------------------------------------------------------


def _fixed_size_cover(rng: random.Random, m: int, n: int, size: int) -> list[set]:
    """n parts of exactly `size` elements of {1..m} that together cover it."""
    if m > n * size or size > m:
        raise ValueError(f"cannot cover 1..{m} with {n} parts of size {size}")
    elements = list(range(1, m + 1))
    rng.shuffle(elements)
    parts = [set() for _ in range(n)]
    for pos, e in enumerate(elements):
        parts[pos % n].add(e)
    for part in parts:
        missing = size - len(part)
        if missing > 0:
            part.update(rng.sample([e for e in range(1, m + 1) if e not in part], missing))
    return parts


def _cyclic_windows(rng: random.Random, m: int, size: int) -> list[set]:
    """m parts, each `size` consecutive elements of a random cyclic order of
    {1..m}.  Every such sequence is the same one up to relabelling, so an op's
    cost depends on its class alone and not on the seed."""
    order = rng.sample(range(1, m + 1), m)
    return [{order[(j + t) % m] for t in range(size)} for j in range(m)]


# (m = n, r): topic size near m/2; parts of 3 elements keep each op well
# under a second, so a run holds enough ops for a tail percentile.  (9, 5)
# comes twice so that the median op lands among its similar-cost ops rather
# than in the gap between two classes.
STATS_CLASSES = ((9, 4), (9, 5), (9, 5), (10, 4), (10, 5), (11, 4))
STATS_PART_SIZE = 3


def stats_deck(seed: int, rounds: int) -> list[Op]:
    rng = _rng("stats", seed)
    deck = []
    for _ in range(rounds):
        for m, r in STATS_CLASSES:
            seq = _seq_json(m, _cyclic_windows(rng, m, STATS_PART_SIZE))
            # both routes on the same (S, r), back to back; each op's check
            # compares its output with its partner's
            fpoly = Op("fpoly", ["fpoly", "--sets", seq, "--r", str(r)], {"partner": len(deck) + 1})
            induce = Op("induce", ["induce", "--sets", seq, "--elementary", str(r)], {"partner": len(deck)})
            deck.extend((fpoly, induce))
    return deck


def _terms(poly: dict) -> dict:
    return {tuple(t["exp"]): (int(t["num"]), int(t["den"])) for t in poly["terms"]}


def stats_check(op: Op, out: str, partner_out: str | None) -> str | None:
    fpoly_out, induce_out = (out, partner_out) if op.kind == "fpoly" else (partner_out, out)
    fpoly = _terms(_last_json(fpoly_out))
    multiaffine = {
        e: c for e, c in _terms(_last_json(induce_out)).items() if all(x <= 1 for x in e)
    }
    if not fpoly:
        return "fpoly is zero"
    if fpoly != multiaffine:
        return "fpoly differs from the multi-affine part of induce"
    return None


# -- polymatroid ---------------------------------------------------------------


def _source_rank(spec: dict):
    """Rank function on bitmasks of the source ground set, from the CLI spec."""
    if "free" in spec:
        _, r = spec["free"]
        return lambda mask: r if mask else 0
    if "uniform" in spec:
        _, r = spec["uniform"]
        return lambda mask: min(bin(mask).count("1"), r)
    blocks = []
    shift = 0
    for part in spec["sum"]:
        size, r = part["free"]
        blocks.append((((1 << size) - 1) << shift, r))
        shift += size
    return lambda mask: sum(r for block, r in blocks if mask & block)


def induced_rank_table(spec: dict, parts: list[set]) -> list[int]:
    """Rank of a set T of parts = source rank of the union of the parts in T."""
    rank = _source_rank(spec)
    part_masks = [sum(1 << (e - 1) for e in part) for part in parts]
    unions = [0] * (1 << len(parts))
    for mask in range(1, len(unions)):
        low = mask & -mask
        unions[mask] = unions[mask ^ low] | part_masks[low.bit_length() - 1]
    return [rank(u) for u in unions]


def base_points_of(table: list[int]) -> list[tuple[int, ...]]:
    """All integer x >= 0 with x(T) <= table[T] for every T and x(all) = table[all].

    Fixes the highest coordinate first; fixing x_k = a leaves the constraints
    min(table[T], table[T + k] - a) on the remaining coordinates.
    """
    n = len(table).bit_length() - 1
    out = []

    def rec(tab, k, remaining, suffix):
        if k == 0:
            if remaining == 0 and tab[0] >= 0:
                out.append(tuple(suffix))
            return
        half = 1 << (k - 1)
        low, high = tab[:half], tab[half:]
        for a in range(min(remaining, high[0]) + 1):
            nxt = [min(lo, hi - a) for lo, hi in zip(low, high)]
            if nxt[0] < 0 or nxt[-1] < remaining - a:
                continue
            rec(nxt, k - 1, remaining - a, [a] + suffix)

    rec(table, n, table[-1], [])
    return sorted(out)


# (source spec, parts, part size): rank 3-4 sources on 10-11 elements.
POLYMATROID_CLASSES = (
    ({"free": [10, 3]}, 9, 2),
    ({"uniform": [10, 4]}, 10, 2),
    ({"sum": [{"free": [5, 2]}, {"free": [5, 2]}]}, 10, 2),
    ({"sum": [{"free": [6, 2]}, {"free": [5, 1]}]}, 9, 2),
)


def _source_size(spec: dict) -> int:
    if "sum" in spec:
        return sum(part["free"][0] for part in spec["sum"])
    return next(iter(spec.values()))[0]


def _non_member(rng, table, points, n, tries=400):
    """A vector with the right total that is not a base point, or None."""
    total = table[-1]
    taken = set(points)
    for _ in range(tries):
        cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
        x = tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))
        if x not in taken:
            return x
    return None


def polymatroid_deck(seed: int, rounds: int) -> list[Op]:
    rng = _rng("polymatroid", seed)
    deck = []
    for _ in range(rounds):
        for spec, n, size in POLYMATROID_CLASSES:
            parts = _fixed_size_cover(rng, _source_size(spec), n, size)
            table = induced_rank_table(spec, parts)
            points = base_points_of(table)
            pm, seq = json.dumps(spec, separators=(",", ":")), _seq_json(_source_size(spec), parts)
            facts = {"table": table, "points": points}
            deck.append(Op("points", ["pminduce", "--pm", pm, "--sets", seq, "--points"], facts))
            egf = {
                "nvars": n,
                "basis": "normalized",
                "terms": [{"exp": list(p), "coeff": 1} for p in points],
            }
            deck.append(
                Op("support-of", ["pminduce", "--support-of", json.dumps(egf, separators=(",", ":"))], facts)
            )
            queries = [(rng.choice(points), True)]
            outside = _non_member(rng, table, points, n)
            queries.append((outside, False) if outside is not None else (rng.choice(points), True))
            for delta, member in queries:
                argv = ["hallrado", "--pm", pm, "--sets", seq, "--delta", ",".join(map(str, delta))]
                deck.append(Op("hallrado", argv, {"member": member}))
    return deck


def polymatroid_check(op: Op, out: str, partner_out: str | None) -> str | None:
    result = _last_json(out)
    if op.kind == "hallrado":
        if result.get("member") is not op.facts["member"]:
            return f"hallrado said {result}, expected member={op.facts['member']}"
        return None
    if result.get("polymatroid", {}).get("rank") != op.facts["table"]:
        return f"{op.kind}: rank table differs from the induced ranks"
    if op.kind == "points":
        if [tuple(p) for p in result["base_points"]] != op.facts["points"]:
            return "base points differ from the enumerated base polytope"
    return None


# -- verify --------------------------------------------------------------------

# Every check once, and the two steady 0.12 s checks twice: the checks fall
# into four under 0.06 s and four from 0.12 s up, so the median op lands well
# inside the 0.12 s ops rather than at the edge of that gap.
VERIFY_CHECKS = (
    "golden-examples",
    "matching-stat-lorentzian",
    "symbol-support-egf",
    "capped-matchings",
    "base-membership-duality",
    "coefficient-power-family",
    "capped-matchings",
    "base-membership-duality",
    "support-induction",
    "basis-restricted-stats",
)


def verify_deck(seed: int, rounds: int) -> list[Op]:
    rng = _rng("verify", seed)
    deck = []
    for _ in range(rounds):
        deck.extend(
            Op("verify", ["verify", "--check", check, "--seed", str(rng.randrange(1, 10**6))])
            for check in VERIFY_CHECKS
        )
    return deck


def verify_check(op: Op, out: str, partner_out: str | None) -> str | None:
    summary = _last_json(out)
    if summary.get("all_passed") is not True:
        return f"verify reported {summary}"
    return None


@dataclass(frozen=True)
class Workload:
    """A deck builder, its output check, the ops in one round of its deck, and
    the seconds one round took at the seed commit on the reference machine
    (2 cores, Python 3.11), which turns `--seconds` into a round count."""

    build: Callable[[int, int], list]
    check: Callable[[Op, str, "str | None"], "str | None"]
    round_size: int
    round_s: float


WORKLOADS = {
    "certify": Workload(
        certify_deck,
        certify_check,
        sum(len(_kappa_classes(m, n)) for m, n in CERTIFY_SHAPES),
        5.5,
    ),
    "stats": Workload(stats_deck, stats_check, 2 * len(STATS_CLASSES), 3.0),
    "polymatroid": Workload(polymatroid_deck, polymatroid_check, 4 * len(POLYMATROID_CLASSES), 6.7),
    "verify": Workload(verify_deck, verify_check, len(VERIFY_CHECKS), 1.1),
}
