"""Counting subsets reachable by perfect matchings inside a subset sequence.

For a set T of part indices, the statistic counts the ground-set subsets B
with |B| = |T| admitting a perfect matching t -> i in S_t between T and B.
A subset B is counted once even when several matchings exist, so this is a
set count, not a permanent.

The matchable B are the systems of distinct representatives of (S_t), t in
T, taken as sets; they are grown one part at a time, so the work follows the
partial sets that occur (at most the sum over k <= |T| of C(|U|, k), where U
is the union of T's parts) rather than all C(m, |T|) candidates.
"""

from __future__ import annotations

import csv
import io
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
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


def _matchable_sets(seq: SubsetSeq, topic: tuple[int, ...]) -> set[frozenset[int]]:
    """The sets of distinct representatives of (S_t), t in topic, as sets.

    Grown one part at a time: each set found so far gains one element of S_t
    that it does not hold yet.
    """
    found = {frozenset()}
    for t in topic:
        found = {b | {i} for b in found for i in seq.sets[t - 1] if i not in b}
    return found


def _topic_counts(n: int, r: int, count) -> dict[tuple[int, ...], int]:
    """count(T) for every r-subset T of 1..n, keeping the nonzero ones."""
    rows = {}
    for t in combinations(range(1, n + 1), r):
        c = count(t)
        if c:
            rows[t] = c
    return rows


def _multiaffine(n: int, rows: Mapping[tuple[int, ...], int]) -> Poly:
    return Poly(
        n,
        {tuple(int(j in t) for j in range(1, n + 1)): Fraction(c) for t, c in rows.items()},
    )


def match_count(seq: SubsetSeq, topic: Iterable[int]) -> int:
    """Number of |T|-subsets of the ground set perfectly matchable to T."""
    return len(_matchable_sets(seq, _check_topic(seq, topic)))


def _bases(mat: Matroid, seq: SubsetSeq) -> set[frozenset[int]]:
    if mat.m != seq.m:
        raise ValueError(f"matroid over 1..{mat.m}, sequence over 1..{seq.m}")
    return {frozenset(basis) for basis in matroid_bases(mat)}


def basis_match_count(mat: Matroid, seq: SubsetSeq, topic: Iterable[int]) -> int:
    """Same count with the candidate subsets restricted to matroid bases."""
    bases = _bases(mat, seq)
    return len(_matchable_sets(seq, _check_topic(seq, topic)) & bases)


def match_poly(seq: SubsetSeq, r: int) -> Poly:
    """Multi-affine polynomial whose y^T coefficient is match_count(seq, T)."""
    if not 0 <= r <= seq.m:
        raise ValueError(f"r = {r} outside 0..{seq.m}")
    return _multiaffine(seq.n, _topic_counts(seq.n, r, lambda t: match_count(seq, t)))


def basis_match_poly(mat: Matroid, seq: SubsetSeq) -> Poly:
    """Multi-affine polynomial of basis-restricted counts, degree = matroid rank."""
    bases = _bases(mat, seq)  # listed once, not once per topic
    rows = _topic_counts(seq.n, mat.full_rank, lambda t: len(_matchable_sets(seq, t) & bases))
    return _multiaffine(seq.n, rows)


@dataclass(frozen=True)
class StatTable:
    """Counts for every r-subset of part indices; zero rows are dropped."""

    r: int
    rows: Mapping[tuple[int, ...], int]

    def __post_init__(self) -> None:
        checked = {}
        for key, count in self.rows.items():
            t = tuple(int(v) for v in key)
            if len(t) != self.r:
                raise ValueError(f"row {t} does not have size {self.r}")
            if count <= 0:
                raise ValueError(f"row {t} has nonpositive count {count}")
            checked[t] = int(count)
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
    rows = _topic_counts(seq.n, r, lambda t: match_count(seq, t))
    return StatTable(r, rows)
