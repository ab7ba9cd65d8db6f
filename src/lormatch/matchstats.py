"""Counting subsets reachable by perfect matchings inside a subset sequence.

For a set T of part indices, the statistic counts the ground-set subsets B
with |B| = |T| admitting a perfect matching t -> i in S_t between T and B.
A subset B is counted once even when several matchings exist, so this is a
set count, not a permanent.

The matchable B are the systems of distinct representatives (SDRs) of
(S_t), t in T, taken as sets and held as `_packed` subset masks.  They are
grown one part at a time: each SDR mask gains an element of the next part
that it lacks.  One walk, `_walk`, visits the T of one size depth first,
so each prefix's SDR family is grown once and shared by every T that
extends it.  Its r-subsets give the panel counts.  With a part allowed to
repeat, its multisets, counted with weights, give the inducing image of a
multi-affine polynomial (`operators.apply_inducing`); the multisets with
no repeated part are the r-subsets, so the panel-count polynomial is the
multi-affine part of the induced e_r.  `_rows_poly` makes either walk's
terms; a single topic grows the same families along its parts.

A family is held in one of two ways, chosen by the ground-set size m alone:

- m <= 16: one int of 2^m bits (at most 8 KB), bit b set iff mask b is an
  SDR.  Growing by a part S is OR over i in S of (F & LACK[i]) << 2^(i-1),
  LACK[i] being the bits of the masks without element i (`_split_masks`
  with 1-bit fields), so a grow step is three big-int operations per
  element of S.  A count is a popcount.
- m > 16: a Python set of the masks, so the work follows the partial SDRs
  that occur (at most the sum over k <= |T| of C(|U|, k), U the union of
  T's parts) rather than 2^m bits per family.

Per `_panel_rows` call on m cyclic 3-windows, sets -> bitsets, the best
of 7 runs (of 1 at m = 16, r = 8) on a 2-core host with Python 3.11:

    m    r = 2             r = 3            r = 5           r = m/2
    12   0.21 -> 0.15 ms   1.3 -> 0.52 ms   14 -> 2.7 ms    38 -> 3.8 ms
    14                                      42 -> 12 ms     310 -> 20 ms
    16   0.38 -> 0.60 ms   3.3 -> 3.2 ms    105 -> 33 ms    2,942 -> 215 ms
    18                     4.2 -> 8.4 ms    235 -> 224 ms
"""

from __future__ import annotations

import csv
import functools
import io
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Iterable, Mapping

from ._packed import _split_masks
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


_BITSET_M = 16  # the widest ground set whose SDR families are 2^m-bit ints


def _bitset_ops(seq: SubsetSeq, bases: set[int] | None):
    """(start, grow, count) on families held as 2^m-bit ints."""
    _, lacks = _split_masks(seq.m, 1)
    steps = [tuple((lacks[i - 1], 1 << (i - 1)) for i in part) for part in seq.sets]

    def grow(family: int, j: int) -> int:
        grown = 0
        for lack, unit in steps[j - 1]:
            grown |= (family & lack) << unit
        return grown

    if bases is None:
        return 1, grow, int.bit_count
    within = sum(1 << b for b in bases)
    return 1, grow, lambda family: (family & within).bit_count()


def _set_ops(seq: SubsetSeq, bases: set[int] | None):
    """(start, grow, count) on families held as sets of masks."""
    units = [_units(part) for part in seq.sets]

    def grow(found: set[int], j: int) -> set[int]:
        part = units[j - 1]
        return {b | u for b in found for u in part if not b & u}

    if bases is None:
        return {0}, grow, len
    return {0}, grow, lambda found: len(found & bases)


def _ops(seq: SubsetSeq, bases: set[int] | None):
    """(start, grow, count) for seq's SDR families, counting only the masks
    in `bases` when it is given: bitsets for m <= _BITSET_M, sets above."""
    ops = _bitset_ops if seq.m <= _BITSET_M else _set_ops
    return ops(seq, bases)


def _walk(n: int, degree: int, start, grow, count, repeat: bool = False):
    """Yield (beta, beta!, count(F)) for every T of `degree` parts with a
    nonzero count, F the SDR family of T, in descending lex order of beta.

    T is a subset of the parts 1..n, or a multiset of them when `repeat` is
    set, and beta_j is how many times T takes part j.  Depth first on an
    explicit stack, T's parts in increasing (with `repeat`, nondecreasing)
    order: each entry holds a prefix's family, grown by grow(family, part
    index), and its beta!, and serves every T that extends that prefix.  A
    prefix without SDRs (an empty family) is not extended, since every T
    above it counts 0.  The last part is counted inline, off the stack.
    """
    if degree == 0:  # the empty T, whose one SDR is the empty mask
        c = count(start)
        if c:
            yield (0,) * n, 1, c
        return
    # a part below limit[depth] leaves room for the rest of T
    limit = [n if repeat else n - degree + 1 + depth for depth in range(degree)]
    beta = [0] * n
    stack = [(start, 1, None)]  # (family, beta!, last part) per prefix of T
    nxt = 0
    while True:
        family, fact, _ = stack[-1]
        depth = len(stack) - 1
        if depth == degree - 1:
            for j in range(nxt, n):
                grown = grow(family, j + 1)
                if grown:
                    c = count(grown)
                    if c:
                        beta[j] += 1
                        yield tuple(beta), fact * beta[j], c
                        beta[j] -= 1
        elif nxt < limit[depth]:
            grown = grow(family, nxt + 1)
            if grown:
                beta[nxt] += 1
                stack.append((grown, fact * beta[nxt], nxt))
                nxt += not repeat  # a multiset may take the part again
            else:
                nxt += 1
            continue
        if not depth:
            return
        _, _, nxt = stack.pop()
        beta[nxt] -= 1
        nxt += 1


def _panel_rows(seq: SubsetSeq, r: int, bases: set[int] | None = None):
    """The walk's rows of the r-subsets T, in combinations order of T."""
    return _walk(seq.n, r, *_ops(seq, bases))


def _rows_poly(n: int, rows, scale: int = 1) -> Poly:
    """The polynomial of walk rows (beta, beta!, total): y^beta with
    coefficient total / (scale * beta!), inserted in row order, with one
    Fraction per distinct (total, beta!)."""
    ratios: dict[tuple[int, int], Fraction] = {}
    data = {}
    for beta, fact, total in rows:
        c = ratios.get((total, fact))
        if c is None:
            c = ratios[total, fact] = Fraction(total, scale * fact)
        data[beta] = c
    return Poly._trusted(n, data)


def _topic_count(seq: SubsetSeq, topic: Iterable[int], bases: set[int] | None = None) -> int:
    t = _check_topic(seq, topic)
    start, grow, count = _ops(seq, bases)
    return count(functools.reduce(grow, t, start))


def match_count(seq: SubsetSeq, topic: Iterable[int]) -> int:
    """Number of |T|-subsets of the ground set perfectly matchable to T."""
    return _topic_count(seq, topic)


def _bases(mat: Matroid, seq: SubsetSeq) -> set[int]:
    if mat.m != seq.m:
        raise ValueError(f"matroid over 1..{mat.m}, sequence over 1..{seq.m}")
    return {sum(_units(basis)) for basis in matroid_bases(mat)}


def basis_match_count(mat: Matroid, seq: SubsetSeq, topic: Iterable[int]) -> int:
    """Same count with the candidate subsets restricted to matroid bases."""
    return _topic_count(seq, topic, _bases(mat, seq))


def match_poly(seq: SubsetSeq, r: int) -> Poly:
    """Multi-affine polynomial whose y^T coefficient is match_count(seq, T)."""
    if not 0 <= r <= seq.m:
        raise ValueError(f"r = {r} outside 0..{seq.m}")
    return _rows_poly(seq.n, _panel_rows(seq, r))


def basis_match_poly(mat: Matroid, seq: SubsetSeq) -> Poly:
    """Multi-affine polynomial of basis-restricted counts, degree = matroid rank."""
    bases = _bases(mat, seq)  # listed once, not once per topic
    return _rows_poly(seq.n, _panel_rows(seq, mat.full_rank, bases))


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

    @classmethod
    def _trusted(cls, r: int, rows: dict[tuple[int, ...], int]) -> "StatTable":
        """Wrap rows the library built as is: int r-tuples, positive int counts."""
        out = cls.__new__(cls)
        object.__setattr__(out, "r", r)
        object.__setattr__(out, "rows", rows)
        return out

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
    parts = range(1, seq.n + 1)
    return StatTable._trusted(r, {tuple(compress(parts, b)): c for b, _, c in _panel_rows(seq, r)})
