"""Degree-constrained matchings for sequences of subsets.

A `SubsetSeq` lists n parts, each a subset of the ground set {1..m}, and
induces a bipartite graph with an edge (i, j) whenever element i lies in part
j.  A degree pair (alpha, beta) "matches" when some nonnegative integer edge
weighting has row sums alpha and column sums beta.  `admits_matching`,
`admits_restricted` and `find_witness` are each one call to `_flow`, which
validates the degrees and caps and runs shortest augmenting paths over the
edge list; the witness is the flow it returns.  `matched_degrees` lists the
feasible beta for one alpha by spreading each element over its parts.

The spreads are summed on packed ints: beta is encoded as the key
sum_j beta_j * R**(j-1) for a radix R above sum(alpha).  No digit of a
partial sum exceeds sum(alpha), so adding keys never carries, and the
sumset is a set of int additions.  `_packed_sums` returns the keys and
`_unpack` turns one key back into beta; `apply_inducing` and `inducing_box`
accumulate on the keys directly.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .polynomials import _is_json_int

Edge = tuple[int, int]


@dataclass(frozen=True)
class SubsetSeq:
    """Ordered parts over the ground set {1..m}; empty parts are allowed."""

    m: int
    sets: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("ground-set size must be >= 1")
        parts = tuple(frozenset(map(operator.index, s)) for s in self.sets)
        if not parts:
            raise ValueError("at least one part is required")
        for j, s in enumerate(parts, start=1):
            for e in s:
                if not 1 <= e <= self.m:
                    raise ValueError(f"part {j} contains {e}, outside 1..{self.m}")
        object.__setattr__(self, "sets", parts)
        by_elem = tuple(
            tuple(j for j, s in enumerate(parts, start=1) if i in s)
            for i in range(1, self.m + 1)
        )
        object.__setattr__(self, "_parts_of", by_elem)
        object.__setattr__(
            self,
            "_edges",
            tuple((i, j) for i in range(1, self.m + 1) for j in by_elem[i - 1]),
        )

    @property
    def n(self) -> int:
        return len(self.sets)

    def parts_containing(self, element: int) -> tuple[int, ...]:
        if not 1 <= element <= self.m:
            raise ValueError(f"element {element} outside 1..{self.m}")
        return self._parts_of[element - 1]

    def edges(self) -> tuple[Edge, ...]:
        """All (element, part) incidences, sorted."""
        return self._edges

    def has_edge(self, element: int, part: int) -> bool:
        if not 1 <= part <= self.n:
            raise ValueError(f"part {part} outside 1..{self.n}")
        return element in self.sets[part - 1]

    def to_json(self) -> dict:
        return {"m": self.m, "sets": [sorted(s) for s in self.sets]}

    @classmethod
    def from_json(cls, obj: dict) -> "SubsetSeq":
        if not isinstance(obj, dict) or "m" not in obj or "sets" not in obj:
            raise ValueError("subset-sequence JSON needs 'm' and 'sets'")
        m, sets = obj["m"], obj["sets"]
        if not _is_json_int(m):
            raise ValueError(f"subset-sequence JSON needs an integer 'm', got {m!r}")
        if not isinstance(sets, (list, tuple)) or not all(
            isinstance(s, (list, tuple)) and all(map(_is_json_int, s)) for s in sets
        ):
            raise ValueError(f"parts must be lists of integers, got {sets!r}")
        return cls(m, tuple(frozenset(s) for s in sets))


@dataclass(frozen=True)
class MatchWitness:
    """Nonnegative edge weighting; only positive weights are stored."""

    weights: Mapping[Edge, int]

    def weight(self, i: int, j: int) -> int:
        return self.weights.get((i, j), 0)

    def row_sums(self, m: int) -> tuple[int, ...]:
        out = [0] * m
        for (i, _), w in self.weights.items():
            out[i - 1] += w
        return tuple(out)

    def col_sums(self, n: int) -> tuple[int, ...]:
        out = [0] * n
        for (_, j), w in self.weights.items():
            out[j - 1] += w
        return tuple(out)

    def to_json(self) -> dict:
        return {f"{i}-{j}": w for (i, j), w in sorted(self.weights.items())}


def _check_degrees(vec: Sequence[int], length: int, name: str) -> tuple[int, ...]:
    out = tuple(map(operator.index, vec))
    if len(out) != length:
        raise ValueError(f"{name} has length {len(out)}, expected {length}")
    if any(v < 0 for v in out):
        raise ValueError(f"{name} must be nonnegative")
    return out


def _check_caps(seq: SubsetSeq, caps: Mapping[Edge, int]) -> dict[Edge, int]:
    out = {}
    for edge, cap in caps.items():
        i, j = edge
        if not (1 <= j <= seq.n and seq.has_edge(i, j)):
            raise ValueError(f"cap keyed by {edge}, which is not an edge")
        cap = operator.index(cap)
        if cap < 0:
            raise ValueError(f"cap at {edge} must be nonnegative")
        out[(i, j)] = cap
    return out


def _flow(
    seq: SubsetSeq,
    alpha: Sequence[int],
    beta: Sequence[int],
    caps: Mapping[Edge, int] | None,
) -> dict[Edge, int] | None:
    """Positive edge weights with row sums alpha and column sums beta, or None.

    Shortest augmenting paths over the edge list.  A path starts at an element
    with supply left, goes element -> part along an edge with room and part ->
    element along an edge that carries weight, and ends at the first part
    reached that has demand left.  An uncapped edge is limited by the total,
    which never binds.
    """
    a = _check_degrees(alpha, seq.m, "alpha")
    b = _check_degrees(beta, seq.n, "beta")
    limit = dict.fromkeys(seq.edges(), sum(a))
    if caps is not None:
        limit.update(_check_caps(seq, caps))
    if sum(a) != sum(b):
        return None
    supply, demand = list(a), list(b)
    flow = dict.fromkeys(seq.edges(), 0)
    members = [sorted(s) for s in seq.sets]
    while any(supply):
        reached_from_part = [None] * (seq.m + 1)  # 0 marks a start element
        reached_from_elem = [0] * (seq.n + 1)
        queue = deque(i for i in range(1, seq.m + 1) if supply[i - 1])
        for i in queue:
            reached_from_part[i] = 0
        end = 0
        while queue and not end:
            i = queue.popleft()
            for j in seq.parts_containing(i):
                if reached_from_elem[j] or flow[i, j] == limit[i, j]:
                    continue
                reached_from_elem[j] = i
                if demand[j - 1]:
                    end = j
                    break
                for k in members[j - 1]:
                    if reached_from_part[k] is None and flow[k, j]:
                        reached_from_part[k] = j
                        queue.append(k)
        if not end:
            return None
        forward, backward = [], []
        j = end
        while True:
            i = reached_from_elem[j]
            forward.append((i, j))
            j = reached_from_part[i]
            if not j:
                break
            backward.append((i, j))
        push = min(
            supply[i - 1],
            demand[end - 1],
            *(limit[e] - flow[e] for e in forward),
            *(flow[e] for e in backward),
        )
        supply[i - 1] -= push
        demand[end - 1] -= push
        for e in forward:
            flow[e] += push
        for e in backward:
            flow[e] -= push
    return {e: w for e, w in flow.items() if w}


def admits_matching(seq: SubsetSeq, alpha: Sequence[int], beta: Sequence[int]) -> bool:
    """True when some edge weighting has row sums alpha and column sums beta."""
    return _flow(seq, alpha, beta, None) is not None


def find_witness(
    seq: SubsetSeq,
    alpha: Sequence[int],
    beta: Sequence[int],
    caps: Mapping[Edge, int] | None = None,
) -> MatchWitness | None:
    """A witnessing weighting, or None when the pair does not match."""
    weights = _flow(seq, alpha, beta, caps)
    if weights is None:
        return None
    witness = MatchWitness(weights)
    assert witness.row_sums(seq.m) == tuple(map(int, alpha))
    assert witness.col_sums(seq.n) == tuple(map(int, beta))
    return witness


def admits_restricted(
    seq: SubsetSeq,
    caps: Mapping[Edge, int],
    alpha: Sequence[int],
    beta: Sequence[int],
) -> bool:
    """Matching feasibility with per-edge weight caps; uncapped edges are free."""
    return _flow(seq, alpha, beta, caps) is not None


def _packed_sums(seq: SubsetSeq, alpha: tuple[int, ...], radix: int) -> set[int]:
    """Matched column sums of a checked alpha, each packed with the given radix.

    Accumulates, element by element, every spread of alpha_i over the parts
    containing i; the reachable column sums are exactly the sums of one spread
    per element.  Empty iff some element with positive degree lies in no part.
    The radix must exceed sum(alpha), so that adding keys never carries.
    """
    place = [radix**j for j in range(seq.n)]
    acc = {0}
    for i, weight in enumerate(alpha, start=1):
        if weight == 0:
            continue
        cols = seq.parts_containing(i)
        if not cols:
            return set()
        # the spreads of alpha_i: every way to add alpha_i unit keys of its parts
        units = [place[j - 1] for j in cols]
        spreads = {0}
        for _ in range(weight):
            spreads = {s + u for s in spreads for u in units}
        acc = {b + s for b in acc for s in spreads}
    return acc


def _unpack(key: int, radix: int, n: int) -> tuple[int, ...]:
    """The n digits of a packed key, lowest first."""
    out = []
    for _ in range(n):
        key, digit = divmod(key, radix)
        out.append(digit)
    return tuple(out)


def matched_degrees(seq: SubsetSeq, alpha: Sequence[int]) -> frozenset[tuple[int, ...]]:
    """All column-sum vectors beta for which (alpha, beta) matches.

    Empty iff some element with positive degree lies in no part.
    """
    a = _check_degrees(alpha, seq.m, "alpha")
    radix = sum(a) + 1
    return frozenset(_unpack(key, radix, seq.n) for key in _packed_sums(seq, a, radix))


def compose_seq(first: SubsetSeq, second: SubsetSeq) -> SubsetSeq:
    """Composite sequence: part j collects first's parts named by second's part j."""
    if second.m != first.n:
        raise ValueError(
            f"composition arity mismatch: second is over 1..{second.m}, "
            f"first has {first.n} parts"
        )
    merged = tuple(
        frozenset().union(*(first.sets[v - 1] for v in part)) if part else frozenset()
        for part in second.sets
    )
    return SubsetSeq(first.m, merged)


def caps_from_json(seq: SubsetSeq, obj: Mapping[str, int]) -> dict[Edge, int]:
    """Parse {"i-j": cap} edge caps and validate against the sequence."""
    if not isinstance(obj, Mapping):
        raise ValueError("edge caps JSON must be an object")
    caps = {}
    for key, value in obj.items():
        try:
            i_s, j_s = key.split("-")
            edge = (int(i_s), int(j_s))
        except ValueError:
            raise ValueError(f"cap key {key!r} is not of the form 'i-j'") from None
        if not _is_json_int(value):
            raise TypeError(f"cap at {key!r} must be an integer, got {value!r}")
        caps[edge] = value
    return _check_caps(seq, caps)
