"""Counting subsets reachable by perfect matchings inside a subset sequence.

For a set T of part indices, the statistic counts the ground-set subsets B
with |B| = |T| admitting a perfect matching t -> i in S_t between T and B.
A subset B is counted once even when several matchings exist, so this is a
set count, not a permanent.

The matchable B are the systems of distinct representatives (SDRs) of
(S_t), t in T, taken as sets and held as int masks (bit i-1 for element i).
They are grown one part at a time, so the work follows the partial sets that
occur (at most the sum over k <= |T| of C(|U|, k), where U is the union of
T's parts) rather than all C(m, |T|) candidates.  The panel counts walk the
r-subsets T depth first in combinations order, so each prefix's SDR sets are
grown once and shared by every T that extends it.
"""

from __future__ import annotations

import csv
import io
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .matchings import SubsetSeq
from .polymatroids import Matroid, matroid_bases
from .polynomials import Poly


def _check_topic(seq: SubsetSeq, topic: Iterable[int]) -> tuple[int, ...]:
    raw = list(map(operator.index, topic))
    t = tuple(sorted(set(raw)))
    if len(t) != len(raw):
        raise ValueError("topic entries must be distinct")
    for j in t:
        if not 1 <= j <= seq.n:
            raise ValueError(f"part index {j} outside 1..{seq.n}")
    return t


def _units(part: frozenset[int]) -> tuple[int, ...]:
    return tuple(1 << (i - 1) for i in part)


def _grow(found: set[int], units: tuple[int, ...]) -> set[int]:
    """The SDR masks one part further: each gains a unit bit it lacks."""
    return {b | u for b in found for u in units if not b & u}


def _panel_rows(seq: SubsetSeq, r: int, count) -> dict[tuple[int, ...], int]:
    """count(SDR masks of T) for every r-subset T of 1..n, keeping nonzero rows.

    Depth first over T in combinations order: found[d] holds the SDR masks
    of T's first d parts and serves every T that extends that prefix.  A
    prefix without SDRs is not extended, since every T above it counts 0.
    """
    units = [_units(part) for part in seq.sets]
    rows = {}
    topic, found = [], [{0}]
    nxt = 1
    while True:
        depth = len(topic)
        if depth == r:
            c = count(found[-1])
            if c:
                rows[tuple(topic)] = c
        elif nxt <= seq.n - r + depth + 1:  # leaves room for the rest of T
            grown = _grow(found[-1], units[nxt - 1])
            if grown:
                topic.append(nxt)
                found.append(grown)
            nxt += 1
            continue
        if not topic:
            return rows
        nxt = topic.pop() + 1
        found.pop()


def _multiaffine(n: int, rows: Mapping[tuple[int, ...], int]) -> Poly:
    return Poly._trusted(
        n,
        {tuple(int(j in t) for j in range(1, n + 1)): Fraction(c) for t, c in rows.items()},
    )


def _matchable_sets(seq: SubsetSeq, topic: Iterable[int]) -> set[int]:
    """The SDRs of (S_t), t in topic, as element masks: the walk's grow step
    along a single topic."""
    found = {0}
    for t in _check_topic(seq, topic):
        found = _grow(found, _units(seq.sets[t - 1]))
    return found


def match_count(seq: SubsetSeq, topic: Iterable[int]) -> int:
    """Number of |T|-subsets of the ground set perfectly matchable to T."""
    return len(_matchable_sets(seq, topic))


def _bases(mat: Matroid, seq: SubsetSeq) -> set[int]:
    if mat.m != seq.m:
        raise ValueError(f"matroid over 1..{mat.m}, sequence over 1..{seq.m}")
    return {sum(_units(basis)) for basis in matroid_bases(mat)}


def basis_match_count(mat: Matroid, seq: SubsetSeq, topic: Iterable[int]) -> int:
    """Same count with the candidate subsets restricted to matroid bases."""
    bases = _bases(mat, seq)
    return len(_matchable_sets(seq, topic) & bases)


def match_poly(seq: SubsetSeq, r: int) -> Poly:
    """Multi-affine polynomial whose y^T coefficient is match_count(seq, T)."""
    if not 0 <= r <= seq.m:
        raise ValueError(f"r = {r} outside 0..{seq.m}")
    return _multiaffine(seq.n, _panel_rows(seq, r, len))


def basis_match_poly(mat: Matroid, seq: SubsetSeq) -> Poly:
    """Multi-affine polynomial of basis-restricted counts, degree = matroid rank."""
    bases = _bases(mat, seq)  # listed once, not once per topic
    rows = _panel_rows(seq, mat.full_rank, lambda found: len(found & bases))
    return _multiaffine(seq.n, rows)


@dataclass(frozen=True)
class StatTable:
    """Counts for every r-subset of part indices; zero rows are dropped."""

    r: int
    rows: Mapping[tuple[int, ...], int]

    def __post_init__(self) -> None:
        checked = {}
        for key, count in self.rows.items():
            t = tuple(map(operator.index, key))
            count = operator.index(count)
            if len(t) != self.r:
                raise ValueError(f"row {t} does not have size {self.r}")
            if count <= 0:
                raise ValueError(f"row {t} has nonpositive count {count}")
            checked[t] = count
        object.__setattr__(self, "rows", checked)

    def count(self, topic: Iterable[int]) -> int:
        return self.rows.get(tuple(sorted(topic)), 0)

    def to_json(self) -> list[dict]:
        return [
            {"T": list(t), "count": c} for t, c in sorted(self.rows.items())
        ]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["T", "count"])
        for t, c in sorted(self.rows.items()):
            writer.writerow([" ".join(str(v) for v in t), c])
        return buf.getvalue()


def stat_table(seq: SubsetSeq, r: int) -> StatTable:
    """Tabulate match_count over all r-subsets of part indices."""
    if not 0 <= r <= seq.n:
        raise ValueError(f"r = {r} outside 0..{seq.n}")
    return StatTable(r, _panel_rows(seq, r, len))
