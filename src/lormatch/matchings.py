"""Degree-constrained matchings for sequences of subsets.

A `SubsetSeq` lists n parts, each a subset of the ground set {1..m}, and
induces a bipartite graph with an edge (i, j) whenever element i lies in part
j.  A degree pair (alpha, beta) "matches" when some nonnegative integer edge
weighting has row sums alpha and column sums beta, within optional per-edge
weight caps.  Two public entries, both taking (seq, alpha, beta, caps), make
one call each to `_flow`, which validates the degrees and caps and runs
shortest augmenting paths over the edge list: `admits_matching` answers yes
or no, and `find_witness` returns the flow as a witnessing weighting.
First `_flow` rejects a pair with some degree above the summed limits of
its vertex's edges (a single-vertex cut; Gale 1957, Ford-Fulkerson 1956):
the cut only ever answers "no", so every "yes" and witness is the search's.
`single_vertex_cuts` drops, without a flow, the alphas that fail a Hall cut
at one vertex against a fixed beta.  `matched_degrees` lists the feasible
beta for one alpha by spreading each element over its parts.

The spreads are summed on packed ints: beta is the digit key of `_packed`
in a radix R above sum(alpha), part 1 most significant.  No digit of a
partial sum exceeds sum(alpha), so the sumset is a set of int additions.
`_packed_sums` walks many alphas in one call: it keeps the partial sumset
of every prefix of the current alpha, so alphas in sorted order (the terms
of a polynomial, the entries of a box) share the work on their common
prefixes, and it builds each element's spreads once per call.
`matched_degrees` is the walk over a single alpha, its keys read back by
`_key_decoder`; the sumset route of `apply_inducing` and `inducing_box`
accumulate on the keys directly and insert their terms in sorted key order,
which is graded-lex order.
"""

from __future__ import annotations

import functools
import operator
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from ._packed import _key_decoder, _places
from ._util import _brief, _is_json_int, int_text

Edge = tuple[int, int]


@dataclass(frozen=True)
class SubsetSeq:
    """Ordered parts over the ground set {1..m}; empty parts are allowed.

    The constructor only checks.  The views that the flow, the Hall cuts and
    the sumset walk read (`_parts_of`, `_edges`, `_members`) are built on
    first use, so a large m costs nothing until one of them is read.
    """

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
        operator.index(self.m)  # a float m passes the checks above
        object.__setattr__(self, "sets", parts)

    @property
    def n(self) -> int:
        return len(self.sets)

    @functools.cached_property
    def _parts_of(self) -> tuple[tuple[int, ...], ...]:
        by_elem: list[list[int]] = [[] for _ in range(self.m)]
        for j, s in enumerate(self.sets, start=1):
            for i in s:
                by_elem[i - 1].append(j)
        return tuple(map(tuple, by_elem))

    @functools.cached_property
    def _edges(self) -> tuple[Edge, ...]:
        return tuple((i, j) for i, parts in enumerate(self._parts_of, start=1) for j in parts)

    @functools.cached_property
    def _members(self) -> tuple[tuple[int, ...], ...]:
        """Each part's members in order."""
        return tuple(tuple(sorted(s)) for s in self.sets)

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
            raise ValueError(f"subset-sequence JSON needs an integer 'm', got {_brief(m)}")
        if not isinstance(sets, (list, tuple)):
            raise ValueError(f"parts must be lists of integers, got {_brief(sets)}")
        for j, listed in enumerate(sets, start=1):
            if not isinstance(listed, (list, tuple)):
                raise ValueError(f"part {j} must be a list of integers, got {_brief(listed)}")
            if not all(map(_is_json_int, listed)):
                k, bad = next((k, e) for k, e in enumerate(listed, start=1) if not _is_json_int(e))
                raise ValueError(f"part {j}, entry {k} must be an integer, got {_brief(bad)}")
        parts = tuple(map(frozenset, sets))
        for j, (listed, part) in enumerate(zip(sets, parts), start=1):
            if len(part) < len(listed):
                twice = next(e for k, e in enumerate(listed) if e in listed[:k])
                raise ValueError(f"part {j} lists element {twice} more than once")
        return cls(m, parts)


@dataclass(frozen=True)
class MatchWitness:
    """Nonnegative edge weighting; only positive weights are stored."""

    weights: Mapping[Edge, int]

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
    if out and min(out) < 0:
        raise ValueError(f"{name} must be nonnegative")
    return out


def _check_caps(seq: SubsetSeq, caps: Mapping[Edge, int]) -> dict[Edge, int]:
    out = {}
    for edge, cap in caps.items():
        try:
            i, j = map(operator.index, edge)
        except TypeError:
            raise TypeError(f"cap keyed by {edge}, whose indices are not integers") from None
        if not (1 <= j <= seq.n and seq.has_edge(i, j)):
            raise ValueError(f"cap keyed by {edge}, which is not an edge")
        cap = operator.index(cap)
        if cap < 0:
            raise ValueError(f"cap at {edge} must be nonnegative")
        out[(i, j)] = cap
    return out


def _fails_vertex_cut(a: tuple[int, ...], b: tuple[int, ...], limit: dict[Edge, int]) -> bool:
    """Is some alpha_i above the summed limits of element i's edges, or some
    beta_j above those of part j's?  Then (alpha, beta) cannot match."""
    send, draw = [0] * len(a), [0] * len(b)
    for (i, j), room in limit.items():
        send[i - 1] += room
        draw[j - 1] += room
    return any(map(operator.gt, a, send)) or any(map(operator.gt, b, draw))


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
    which never binds.  After the checks, and before any path, a pair that
    fails `_fails_vertex_cut` is rejected: the cut only ever answers "no".
    """
    n = seq.n
    a = _check_degrees(alpha, seq.m, "alpha")
    b = _check_degrees(beta, n, "beta")
    total = sum(a)
    limit = dict.fromkeys(seq._edges, total)
    if caps is not None:
        limit.update(_check_caps(seq, caps))
    if total != sum(b) or _fails_vertex_cut(a, b, limit):
        return None
    parts_of, members = seq._parts_of, seq._members
    supply, demand = list(a), list(b)
    flow = dict.fromkeys(seq._edges, 0)
    while any(supply):
        reached_from_part = [None] * (seq.m + 1)  # 0 marks a start element
        reached_from_elem = [0] * (n + 1)
        queue = deque(i for i in range(1, seq.m + 1) if supply[i - 1])
        for i in queue:
            reached_from_part[i] = 0
        end = 0
        while queue and not end:
            i = queue.popleft()
            for j in parts_of[i - 1]:
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


def admits_matching(
    seq: SubsetSeq,
    alpha: Sequence[int],
    beta: Sequence[int],
    caps: Mapping[Edge, int] | None = None,
) -> bool:
    """True when some edge weighting has row sums alpha and column sums beta.

    Caps bound the weight of the edges they name; uncapped edges are free.
    """
    return _flow(seq, alpha, beta, caps) is not None


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


def single_vertex_cuts(
    seq: SubsetSeq, beta: Sequence[int], alphas: Iterable[Sequence[int]]
) -> Iterator[Sequence[int]]:
    """The alphas that pass every single-vertex Hall cut against beta, in order.

    Element i can only send to its parts, so alpha_i <= the sum of beta_j over
    the parts j containing i; part j can only draw on its elements, so
    beta_j <= the sum of alpha_i over the i in part j.  Both are necessary for
    (alpha, beta) to match, so a dropped alpha does not match, while a kept
    one still may not.  The bounds and member lists are built once for all
    the alphas, which must be checked degree vectors of length m.
    """
    b = _check_degrees(beta, seq.n, "beta")
    reach = [sum(b[j - 1] for j in parts) for parts in seq._parts_of]
    demands = [(b[j], [i - 1 for i in s]) for j, s in enumerate(seq._members) if b[j]]
    for alpha in alphas:
        if all(map(operator.le, alpha, reach)) and all(
            want <= sum(map(alpha.__getitem__, members)) for want, members in demands
        ):
            yield alpha


def _packed_sums(
    seq: SubsetSeq, alphas: Iterable[tuple[int, ...]], radix: int
) -> Iterator[tuple[tuple[int, ...], set[int]]]:
    """(alpha, its matched column sums packed with the given radix) per alpha.

    The reachable column sums are exactly the sums of one spread of alpha_i
    (alpha_i unit keys of the parts containing i) per element i.  stack[k]
    holds the sumset over the first k elements and serves the next alpha
    that agrees with this one there.  A sumset is empty iff some element
    with positive degree lies in no part.  The alphas must be checked, and
    the radix must exceed each sum(alpha), so that adding keys never carries.
    """
    place = _places(radix, seq.n)
    units = [[place[j - 1] for j in parts] for parts in seq._parts_of]

    @functools.cache
    def spread(i: int, weight: int) -> set[int]:
        out = {0}
        for _ in range(weight):
            out = {s + u for u in units[i] for s in out}
        return out

    stack = [{0}]
    prev: tuple[int, ...] = ()
    for alpha in alphas:
        k = 0
        while k < len(prev) and alpha[k] == prev[k]:
            k += 1
        del stack[k + 1 :]
        acc = stack[k]
        for i in range(k, seq.m):
            if alpha[i]:
                # the few spread keys outside, the large sumset inside
                acc = {b + s for s in spread(i, alpha[i]) for b in acc}
            stack.append(acc)
        prev = alpha
        yield alpha, acc


def matched_degrees(seq: SubsetSeq, alpha: Sequence[int]) -> frozenset[tuple[int, ...]]:
    """All column-sum vectors beta for which (alpha, beta) matches.

    Empty iff some element with positive degree lies in no part.
    """
    a = _check_degrees(alpha, seq.m, "alpha")
    radix = sum(a) + 1
    [(_, keys)] = _packed_sums(seq, [a], radix)
    decode = _key_decoder(radix, seq.n)
    return frozenset(decode(key)[0] for key in keys)


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
            edge = (int_text(i_s), int_text(j_s))
        except ValueError:
            raise ValueError(f"cap key {_brief(key)} is not of the form 'i-j'") from None
        if not _is_json_int(value):
            raise TypeError(f"cap at {_brief(key)} must be an integer, got {_brief(value)}")
        caps[edge] = value
    return _check_caps(seq, caps)
