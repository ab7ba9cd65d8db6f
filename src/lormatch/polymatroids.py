"""Polymatroid rank functions, base polytopes, induction, and realizations.

Rank functions are explicit tables with one entry per subset of the ground
set {1..m}, indexed by subset mask.  Everything here is desk scale: rank
queries read the table.  Validation and the base-point walk work on the
whole table packed into one int of guard-bit fields; `_packed` states the
layouts and their invariants.  Validation compares packed halves, one
comparison per element and per pair of elements, with a mask-order scan
only to name the first witness (`_check_local_axioms`).  Base points are
listed by a contraction walk that fixes one coordinate at a time, only ever
extends prefixes of real base points, and contracts each distinct packed
state once, by one subtraction and one fieldwise minimum of its two halves
(see `_walk_base_points`).

A table is checked against the axioms once, where it enters the library:
`Polymatroid(...)`, `validate_polymatroid`, `Polymatroid.from_json`,
`linreal_rank` and the candidate inside `points_polymatroid`.  Tables that
library code derives from `Polymatroid`s are polymatroids by theorem and are
built by `Polymatroid._derived` without the axiom check:
`free_polymatroid` and `uniform_matroid` (valid by construction once their
arguments are in range), `direct_sum`, `induce_polymatroid` (f(union of the
parts in T) is a polymatroid when f is; Edmonds 1970, McDiarmid 1975) and
the Edmonds rank table of `induce_matroid`, whose `Matroid` wrapper still
checks the cardinality bound.  `induce_polymatroid` is the one construction
of union-rank tables: `induce_matroid` starts from its table, and
`hall_rado_member` reads the rank of the part union off it.  The randomized
harness re-validates induced tables at run time (`verification.py`).
`linreal_rank` reads rank(C) = rank(sum_{i in C} G_i G_i^T) off `_util`'s one
exact elimination: one Gram per block, summed depth first, m + 1 alive at most.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Iterable, Sequence

from ._packed import _field_width, _fields_le, _pack, _split_masks, _subset_sums, _tile
from ._packed import mask_to_elements
from ._util import _brief, _inertia, _is_json_int, json_ints, json_rational_rows
from ._util import AxiomViolation, clear_denominators, exact_rational, vec_factorial
from .matchings import SubsetSeq, admits_matching, single_vertex_cuts
from .polynomials import Poly, _rows_poly


class InternalCheckError(RuntimeError):
    """Two supposedly equivalent computations disagreed: an implementation bug."""


def _check_local_axioms(table: list[int], m: int) -> None:
    """Raise the first monotonicity, else the first submodularity, violation.

    The local forms imply the subset-pair forms: rank(S) <= rank(S + e), and
    the gain of e does not rise when another element f is added.  The table
    is packed (`_pack`), so for each e the masks without e and those with it
    are two masked copies of one int, one shifted onto the other, and one
    `_fields_le` compares them.  Their difference, the packed gains of e, is
    split on every later f the same way.  Only when a comparison fails does
    a mask-order scan name the witness, so the axiom, witness and message
    are those of a scan over every mask.
    """
    width = _field_width(max(table))
    bits = 8 * width
    packed = _pack(table, m, width)
    guards, clear = _split_masks(m, bits)
    gains = []
    for b in reversed(range(m)):  # element e at position bit m - e
        low = packed & clear[b]
        high = packed >> (bits << b) & clear[b]
        if not _fields_le(low, high, guards):
            raise _first_monotonicity_violation(table)
        gains.append((b, high - low))
    for b, gain in gains:
        for c in range(b):
            if not _fields_le(gain >> (bits << c) & clear[c], gain & clear[c], guards):
                raise _first_submodularity_violation(table, m)


def _first_monotonicity_violation(table: list[int]) -> Exception:
    for mask in range(1, len(table)):
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            if table[mask ^ low] > table[mask]:
                small, large = mask_to_elements(mask ^ low), mask_to_elements(mask)
                return AxiomViolation(
                    "monotonicity",
                    (small, large),
                    f"rank{small} = {table[mask ^ low]} > rank{large} = {table[mask]}",
                )
    return InternalCheckError("packed comparison found a monotonicity violation, the scan none")


def _first_submodularity_violation(table: list[int], m: int) -> Exception:
    for mask in range(len(table)):
        outside = [b for b in range(m) if not mask >> b & 1]
        for pos, e in enumerate(outside):
            for f in outside[pos + 1 :]:
                left = mask | 1 << e
                right = mask | 1 << f
                if table[left] + table[right] < table[left | right] + table[mask]:
                    lw, rw = mask_to_elements(left), mask_to_elements(right)
                    return AxiomViolation(
                        "submodularity",
                        (lw, rw),
                        f"rank{lw} + rank{rw} = {table[left] + table[right]} < "
                        f"rank(union) + rank(intersection) = "
                        f"{table[left | right] + table[mask]}",
                    )
    return InternalCheckError("packed comparison found a submodularity violation, the scan none")


@dataclass(frozen=True)
class Polymatroid:
    """Integer rank table on subsets of {1..m}; axioms checked on construction.

    `_derived` is the one way around the check, for tables that are
    polymatroids by theorem (see the module docstring).
    """

    m: int
    rank: tuple[int, ...]

    @classmethod
    def _derived(cls, m: int, rank: Iterable[int]) -> "Polymatroid":
        """A table that is a polymatroid by theorem; the axioms are not re-checked.

        For library code only, on tables built from `Polymatroid` inputs.
        """
        pm = object.__new__(cls)
        object.__setattr__(pm, "m", m)
        object.__setattr__(pm, "rank", tuple(rank))
        return pm

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("ground-set size must be >= 1")
        table = list(map(operator.index, self.rank))
        # a table of 2^m entries has bit length m + 1, so 2^m is formed only then
        if len(table).bit_length() != self.m + 1 or len(table) != 1 << self.m:
            raise ValueError(f"rank table has {len(table)} entries, expected 2^{self.m}")
        object.__setattr__(self, "rank", tuple(table))
        if table[0] != 0:
            raise AxiomViolation(
                "normalization", ((),), f"rank of the empty set is {table[0]}, not 0"
            )
        if min(table) < 0:
            mask = next(mask for mask, value in enumerate(table) if value < 0)
            raise AxiomViolation(
                "nonnegativity",
                (mask_to_elements(mask),),
                f"rank{mask_to_elements(mask)} = {table[mask]} < 0",
            )
        _check_local_axioms(table, self.m)

    @property
    def full_mask(self) -> int:
        return (1 << self.m) - 1

    @property
    def full_rank(self) -> int:
        return self.rank[self.full_mask]

    def rank_of(self, elements: Iterable[int]) -> int:
        mask = 0
        for e in elements:
            if not 1 <= e <= self.m:
                raise ValueError(f"element {e} outside 1..{self.m}")
            mask |= 1 << (e - 1)
        return self.rank[mask]

    def to_json(self) -> dict:
        return {"m": self.m, "rank": list(self.rank)}

    @classmethod
    def from_json(cls, obj: dict) -> "Polymatroid":
        if not isinstance(obj, dict) or "m" not in obj or "rank" not in obj:
            raise ValueError("polymatroid JSON needs 'm' and 'rank'")
        m, rank = obj["m"], obj["rank"]
        if not _is_json_int(m):
            raise ValueError(f"polymatroid JSON needs an integer 'm', got {_brief(m)}")
        return cls(m, json_ints(rank, "rank entries must be integers, got {}"))


@dataclass(frozen=True)
class Matroid:
    """Polymatroid whose rank never exceeds cardinality."""

    underlying: Polymatroid

    def __post_init__(self) -> None:
        rank = self.underlying.rank
        if all(map(operator.le, rank, _subset_sums([1] * self.m))):
            return
        for mask, value in enumerate(rank):
            if value > mask.bit_count():
                witness = mask_to_elements(mask)
                raise AxiomViolation(
                    "cardinality-bound",
                    (witness,),
                    f"rank{witness} = {value} > |set| = {mask.bit_count()}",
                )

    @property
    def m(self) -> int:
        return self.underlying.m

    @property
    def full_rank(self) -> int:
        return self.underlying.full_rank

    def to_json(self) -> dict:
        return self.underlying.to_json()

    @classmethod
    def from_json(cls, obj: dict) -> "Matroid":
        return cls(Polymatroid.from_json(obj))


def validate_polymatroid(rank: Sequence[int], m: int | None = None) -> Polymatroid:
    """Build a Polymatroid from a raw table, raising AxiomViolation on failure."""
    if m is None:
        size = len(rank)
        m = max(size.bit_length() - 1, 0)
        if size != 1 << m or size < 2:
            raise ValueError(f"table length {size} is not a power of two >= 2")
    return Polymatroid(m, tuple(rank))


def free_polymatroid(n_elements: int, r: int) -> Polymatroid:
    """Rank r on every nonempty subset; base points are the x >= 0 with sum r."""
    if n_elements < 1:
        raise ValueError("ground-set size must be >= 1")
    n_elements, r = operator.index(n_elements), operator.index(r)
    if r < 0:
        raise ValueError("rank must be >= 0")
    return Polymatroid._derived(n_elements, (0,) + (r,) * ((1 << n_elements) - 1))


def uniform_matroid(m: int, r: int) -> Matroid:
    """Rank min(|I|, r)."""
    m, r = operator.index(m), operator.index(r)
    if not 0 <= r <= m:
        raise ValueError(f"rank {r} outside 0..{m}")
    if m < 1:
        raise ValueError("ground-set size must be >= 1")
    table = [c if c < r else r for c in _subset_sums([1] * m)]
    return Matroid(Polymatroid._derived(m, table))


def direct_sum(parts: Sequence[Polymatroid]) -> Polymatroid:
    """Concatenated ground sets; rank of a subset sums blockwise restrictions.

    The table is an outer sum of the parts' tables, the first part in the
    low bits.
    """
    if not parts:
        raise ValueError("direct sum of an empty list")
    acc = [0]
    for part in parts:
        acc = [b + a for b in part.rank for a in acc]
    return Polymatroid._derived(sum(p.m for p in parts), acc)


def _union_masks(seq: SubsetSeq) -> list[int]:
    """Bitmask of the part union for every subset of part indices."""
    out = [0]
    for s in seq.sets:
        part = sum(1 << (e - 1) for e in s)
        out += [u | part for u in out]
    return out


def induce_polymatroid(pm: Polymatroid, seq: SubsetSeq) -> Polymatroid:
    """Rank of a set of parts = source rank of the union of those parts."""
    if seq.m != pm.m:
        raise ValueError(f"sequence over 1..{seq.m}, polymatroid over 1..{pm.m}")
    return Polymatroid._derived(seq.n, [pm.rank[u] for u in _union_masks(seq)])


def induce_matroid(pm: Polymatroid, seq: SubsetSeq) -> Matroid:
    """Matroid induced by the induced rank f(I) = r(union of the parts in I).

    Its independent sets are the I with |J| <= f(J) for every J within I, and
    its rank is min over J within I of f(J) + |I - J| (Edmonds).  Dropping one
    part at a time gives the recursion r(I) = min(f(I), 1 + min_i r(I - i)),
    one pass over the 2^n table in increasing mask order.
    """
    table = list(induce_polymatroid(pm, seq).rank)
    for mask in range(1, len(table)):
        best = table[mask]
        rest = mask
        while rest:
            low = rest & -rest
            best = min(best, table[mask ^ low] + 1)
            rest ^= low
        table[mask] = best
    return Matroid(Polymatroid._derived(seq.n, table))


def _walk_base_points(
    pm: Polymatroid, limit: int | None = None, caps: Sequence[int] | None = None
) -> list[tuple[int, ...]] | None:
    """Integer base points in lexicographic order, one coordinate at a time.

    Fixing x_1 = a leaves the points of a polymatroid on the later elements,
    of rank min(r(T), r(T + 1) - a) (contraction by a vector).  On the
    packed table (`_pack`), whose low and high halves are the sets without
    and with 1, that is min(low, high - a * ONES): the subtraction borrows
    from no guard bit, since every entry of the high half is at least
    r({1}) >= a, and the guard bits of (low | GUARDS) - (high - a * ONES)
    select the smaller of each pair.  `a` runs from what the later elements
    cannot absorb up to the current rank of {1}, which by monotonicity never
    exceeds the number left to place.  That upper bound is every inequality
    x(U) <= r(U) whose largest element is the one being fixed, so each
    emitted point is a base point; submodularity lets every branch reach
    one, so the work follows the output rather than the box of candidates.

    The number left to place is always the last entry of the table: it is
    the full rank at the start, and min(t[-2], t[-1] - a) = t[-1] - a since
    a >= t[-1] - t[-2].  So a state is its packed table alone, and different
    prefixes often reach the same one.  The walk goes one coordinate at a
    time over the whole level of prefixes, kept in lexicographic order,
    and contracts each distinct table of the level once, keyed by its int;
    the prefixes only carry the number of their table.  The last two
    coordinates are closed form: with the table (t0, t1, t2, t3) in mask
    order, x_{m-1} runs from t3 - t2 (at least 0) to min(t1, t3).  With a
    `limit` the walk returns None before it builds a level or a list of
    more than that many: on a polymatroid every prefix reaches a base point.

    `caps` keeps only the points with x_i <= caps[i] for every i, in the
    same order: each coordinate's range is cut to at most its cap and to at
    least what the caps of the later coordinates cannot absorb.  A capped
    prefix may then reach no point, so `limit` is for uncapped walks.
    """
    m, top = pm.m, pm.full_rank
    if caps is None:
        caps = (top,) * m
    if m == 1:
        points = [(top,)] if top <= caps[0] else []
        return points if limit is None or len(points) <= limit else None
    room = [sum(caps[i:]) for i in range(1, m + 1)]  # room[i]: caps after x_{i+1}
    width = _field_width(top)
    bits = 8 * width
    field = (1 << bits) - 1
    tables = [_pack(pm.rank, m, width)]  # the level's distinct tables
    level = [((), 0)]  # (prefix, number of its table), in lexicographic order
    for i in range(m - 2):
        half = bits << (m - 1 - i)  # bits in half the level's tables
        low_mask = (1 << half) - 1
        ones = _tile(1, bits, half)
        guards = ones << (bits - 1)
        last = half - bits
        halves = [(t & low_mask, t >> half) for t in tables]
        spreads = [
            range(
                max(0, (high >> last) - (low >> last), (high >> last) - room[i]),
                min(high & field, caps[i]) + 1,
            )
            for low, high in halves
        ]
        if limit is not None and sum(len(spreads[k]) for _, k in level) > limit:
            return None
        numbers: dict[int, int] = {}
        children = []
        for (low, high), values in zip(halves, spreads):
            kids = []
            low_guarded = low | guards
            high -= values.start * ones
            for a in values:
                diff = low_guarded - high
                picked = diff & guards
                child = low - (diff & (picked - (picked >> (bits - 1))))
                kids.append((a, numbers.setdefault(child, len(numbers))))
                high -= ones
            children.append(kids)
        tables = list(numbers)
        level = [(prefix + (a,), kid) for prefix, k in level for a, kid in children[k]]
    tails = []
    for t in tables:
        # positions 1 and 2 hold {m} and {m - 1}: mask order's t2 and t1
        t2, t1, t3 = t >> bits & field, t >> 2 * bits & field, t >> 3 * bits
        spread = range(max(0, t3 - t2, t3 - caps[-1]), min(t1, t3, caps[-2]) + 1)
        tails.append([(a, t3 - a) for a in spread])
    if limit is not None and sum(len(tails[k]) for _, k in level) > limit:
        return None
    return [prefix + tail for prefix, k in level for tail in tails[k]]


def base_points(pm: Polymatroid) -> frozenset[tuple[int, ...]]:
    """Integer points of the base polytope, listed by `_walk_base_points`."""
    return frozenset(_walk_base_points(pm))


def in_base_polytope(pm: Polymatroid, vec: Sequence[int]) -> bool:
    """Membership of an integer vector in the base polytope."""
    x = list(map(operator.index, vec))
    if len(x) != pm.m:
        raise ValueError(f"vector has length {len(x)}, expected {pm.m}")
    if any(v < 0 for v in x) or sum(x) != pm.full_rank:
        return False
    sums = _subset_sums(x)  # x(U) for every U, in mask order
    full = pm.full_mask
    return all(map(operator.le, sums[1:full], pm.rank[1:full]))


def base_egf(pm: Polymatroid) -> Poly:
    """Sum of x^alpha/alpha! over the base points (normalized coefficients 1)."""
    return _rows_poly(pm.m, ((pt, vec_factorial(pt), 1) for pt in base_points(pm)))


def points_polymatroid(
    points: AbstractSet[tuple[int, ...]], nvars: int
) -> Polymatroid | None:
    """The polymatroid whose base points are exactly `points`, or None.

    The points are integer vectors of length nvars.  The candidate rank
    table comes from Edmonds' greedy algorithm run on exchange probes: a
    point of largest sum serves the empty set, and each nonempty mask I,
    with lowest element i and I' = I - i, starts from the point chosen for
    I' and moves units from every j outside I into i for as long as
    x + e_i - e_j stays in the set; the rank of I is that of I' plus x_i.
    On an M-convex set this is exact: the points tight on I' form an
    M-convex face on which a local maximum of x_i is global (Murota), and a
    set that blocks a move stays tight as units arrive, so one pass over j
    suffices.  That is 2^nvars masks at a cost of at most nvars + |points|
    probes each.  Only the coordinates j where the starting point is
    nonzero are visited (a zero x_j has no unit to move, and x_j only falls
    while x_i grows), and each probe works on a list copy, so the point is
    replaced only when a probe moves it.

    On any other set the candidate is arbitrary, so it is kept only when it
    is a valid polymatroid whose base points are the given set: the walk
    over its base points, limited to |points| of them, stops early on a
    larger base set, and a list of exactly |points| points that all lie in
    the set is the set.  A base point is never negative, so a negative
    coordinate answers None at once.
    """
    if not points:
        return None
    if any(min(column) < 0 for column in zip(*points)):
        return None
    table = [0] * (1 << nvars)
    best = [max(points, key=sum)] * (1 << nvars)
    coordinates = range(nvars)
    for mask in range(1, 1 << nvars):
        low = mask & -mask
        i = low.bit_length() - 1
        x = best[mask ^ low]
        # compress keeps the starting point: only i grows while j is emptied
        for j in itertools.compress(coordinates, x):
            if mask >> j & 1:
                continue
            probe = list(x)
            while probe[j]:
                probe[i] += 1
                probe[j] -= 1
                moved = tuple(probe)
                if moved not in points:
                    break
                x = moved
        best[mask] = x
        table[mask] = table[mask ^ low] + x[i]
    try:
        candidate = Polymatroid(nvars, tuple(table))
    except AxiomViolation:
        return None
    found = _walk_base_points(candidate, len(points))
    if found is None or len(found) != len(points):
        return None
    return candidate if all(map(points.__contains__, found)) else None


def support_polymatroid(f: Poly) -> Polymatroid | None:
    """The polymatroid whose base points are supp(f), or None if there is none.

    Requires f homogeneous with nonnegative coefficients; the work is done by
    `points_polymatroid` on the support.
    """
    if f.homogeneous_degree() is None:
        raise ValueError("homogeneous polynomial required")
    # one min: an exact coefficient's sign is its numerator's
    exact = isinstance(f, Poly)
    if min((c.numerator if exact else c for _, c in f.items()), default=0) < 0:
        raise ValueError("nonnegative coefficients required")
    return points_polymatroid(f.support(), f.nvars)


@dataclass(frozen=True)
class LinReal:
    """Rational linear realization: row span of gens, columns split into blocks.

    Block i has blockdims[i] columns; a block may be empty (dimension 0),
    which arises when inducing along a sequence with empty parts.
    """

    blockdims: tuple[int, ...]
    gens: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        dims = tuple(map(operator.index, self.blockdims))
        if not dims:
            raise ValueError("at least one block is required")
        if any(d < 0 for d in dims):
            raise ValueError("block dimensions must be >= 0")
        object.__setattr__(self, "blockdims", dims)
        ncols = sum(dims)
        rows = tuple(tuple(exact_rational(v) for v in row) for row in self.gens)
        for row in rows:
            if len(row) != ncols:
                raise ValueError(f"row has {len(row)} entries, expected {ncols}")
        object.__setattr__(self, "gens", rows)

    @functools.cached_property
    def _offsets(self) -> tuple[int, ...]:
        return (0, *itertools.accumulate(self.blockdims[:-1]))

    @property
    def m(self) -> int:
        return len(self.blockdims)

    def block_columns(self, i: int) -> range:
        """0-based column range of block i (1-indexed block)."""
        if not 1 <= i <= self.m:
            raise ValueError(f"block {i} outside 1..{self.m}")
        start = self._offsets[i - 1]
        return range(start, start + self.blockdims[i - 1])

    def to_json(self) -> dict:
        return {
            "blockdims": list(self.blockdims),
            "gens": [[str(v) for v in row] for row in self.gens],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "LinReal":
        if not isinstance(obj, dict) or "blockdims" not in obj or "gens" not in obj:
            raise ValueError("realization JSON needs 'blockdims' and 'gens'")
        dims = json_ints(obj["blockdims"], "blockdims must be integers, got {}")
        return cls(dims, json_rational_rows(obj["gens"], "realization"))


def linreal_rank(real: LinReal) -> Polymatroid:
    """Rank of a block set = dimension of the projection of the row span.

    Rows are scaled to integers by `clear_denominators` (a nonzero row scale
    keeps the span).  rank(C) = rank(sum_{i in C} G_i G_i^T), the nonzero part
    of a positive semidefinite Gram's inertia.  In mask order a set's parent,
    the set less its lowest block, is the last set of its size seen, so `path`
    holds one Gram per size (depth first, m + 1 at most), each its parent's
    plus one block's.
    """
    rows = [clear_denominators(row)[1] for row in real.gens]
    spans = map(real.block_columns, range(1, real.m + 1))
    picks = ([row[cols.start : cols.stop] for row in rows] for cols in spans)
    blocks = [[[sum(map(operator.mul, a, b)) for b in p] for a in p] for p in picks]
    path, table = [[[0] * len(rows) for _ in rows]], [0]
    for mask in range(1, 1 << real.m):
        d, low = mask.bit_count(), (mask & -mask).bit_length() - 1
        path[d:] = [[list(map(operator.add, a, b)) for a, b in zip(path[d - 1], blocks[low])]]
        n_pos, n_neg, _ = _inertia([list(row) for row in path[d]])
        table.append(n_pos + n_neg)
    return Polymatroid(real.m, tuple(table))


def linreal_induce(real: LinReal, seq: SubsetSeq) -> LinReal:
    """Duplicate block columns into each part that contains the block.

    The new block j stacks copies of the blocks named by part j (in
    increasing element order), so the projection to block j is the diagonal
    image; ranks of the result match inducing the rank function directly.
    """
    if seq.m != real.m:
        raise ValueError(f"sequence over 1..{seq.m}, realization has {real.m} blocks")
    col_order: list[int] = []
    dims = []
    for part in seq._members:
        cols = [c for i in part for c in real.block_columns(i)]
        col_order.extend(cols)
        dims.append(len(cols))
    rows = tuple(tuple(row[c] for c in col_order) for row in real.gens)
    return LinReal(tuple(dims), rows)


def hall_rado_member(
    pm: Polymatroid, seq: SubsetSeq, delta: Sequence[int]
) -> bool:
    """Is delta a base point of the induced polymatroid?

    Computed two independent ways and cross-checked: (a) the inequality
    description of the induced base polytope, (b) existence of a base point
    gamma of the source with (gamma, delta) matchable along the sequence.
    Route (b) walks only the source base points with gamma_i at most what
    i's parts demand, the sum of delta_j over the parts j containing i (the
    element-side single-vertex Hall cut, passed to `_walk_base_points` as
    caps), in lexicographic order.  It drops each one that fails a
    single-vertex Hall cut (`single_vertex_cuts`: the same element bound
    again, and delta_j at most what j's elements supply), runs one flow on
    each one left and stops at the first match.  It never reads the induced
    table, so a wrong cut shows as a disagreement.  The equivalence needs
    the parts to span (union rank = full rank); without that no gamma can
    have the right total, so the call is refused.
    """
    induced = induce_polymatroid(pm, seq)
    if induced.full_rank != pm.full_rank:
        raise ValueError(
            f"parts must span: rank of the part union is {induced.full_rank}, "
            f"full rank is {pm.full_rank}"
        )
    d = list(map(operator.index, delta))
    if len(d) != seq.n:
        raise ValueError(f"vector has length {len(d)}, expected {seq.n}")
    if any(v < 0 for v in d):
        return False
    via_rank = in_base_polytope(induced, d)
    reach = [sum(d[j - 1] for j in parts) for parts in seq._parts_of]
    via_flow = any(
        admits_matching(seq, gamma, d)
        for gamma in single_vertex_cuts(seq, d, _walk_base_points(pm, caps=reach))
    )
    if via_rank != via_flow:
        raise InternalCheckError(
            f"membership paths disagree: inequalities say {via_rank}, "
            f"witness search says {via_flow} (delta={tuple(d)})"
        )
    return via_rank


def matroid_bases(mat: Matroid) -> list[tuple[int, ...]]:
    """All subsets of full rank and matching cardinality, lexicographic."""
    pm = mat.underlying
    r = pm.full_rank
    found = [
        mask_to_elements(mask)
        for mask in range(1 << pm.m)
        if mask.bit_count() == r and pm.rank[mask] == r
    ]
    return sorted(found)
