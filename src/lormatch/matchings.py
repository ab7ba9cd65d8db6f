"""Degree-constrained matchings for sequences of subsets.

A `SubsetSeq` lists n parts, each a subset of the ground set {1..m}, and
induces a bipartite graph with an edge (i, j) whenever element i lies in part
j.  A degree pair (alpha, beta) "matches" when some nonnegative integer edge
weighting has row sums alpha and column sums beta.  Feasibility is decided by
integer max-flow with augmenting paths, and witnesses are read off the flow.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from ._util import compositions

Edge = tuple[int, int]


@dataclass(frozen=True)
class SubsetSeq:
    """Ordered parts over the ground set {1..m}; empty parts are allowed."""

    m: int
    sets: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("ground-set size must be >= 1")
        parts = tuple(frozenset(int(e) for e in s) for s in self.sets)
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
        return cls(int(obj["m"]), tuple(frozenset(s) for s in obj["sets"]))


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
    out = tuple(int(v) for v in vec)
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
        cap = int(cap)
        if cap < 0:
            raise ValueError(f"cap at {edge} must be nonnegative")
        out[(i, j)] = cap
    return out


def _max_flow(
    seq: SubsetSeq,
    alpha: tuple[int, ...],
    beta: tuple[int, ...],
    caps: Mapping[Edge, int] | None,
) -> tuple[int, list[list[int]]]:
    """Edmonds-Karp on source -> elements -> parts -> sink; returns residual."""
    m, n = seq.m, seq.n
    total = sum(alpha)
    size = m + n + 2
    src, snk = 0, size - 1
    cap = [[0] * size for _ in range(size)]
    for i in range(1, m + 1):
        cap[src][i] = alpha[i - 1]
    for j in range(1, n + 1):
        cap[m + j][snk] = beta[j - 1]
    for i, j in seq.edges():
        middle = total if caps is None else min(caps.get((i, j), total), total)
        cap[i][m + j] = middle
    value = 0
    while True:
        parent = [-1] * size
        parent[src] = src
        queue = deque([src])
        while queue:
            u = queue.popleft()
            if u == snk:
                break
            row = cap[u]
            for v in range(size):
                if parent[v] < 0 and row[v] > 0:
                    parent[v] = u
                    queue.append(v)
        if parent[snk] < 0:
            break
        bottleneck = None
        v = snk
        while v != src:
            u = parent[v]
            c = cap[u][v]
            bottleneck = c if bottleneck is None else min(bottleneck, c)
            v = u
        v = snk
        while v != src:
            u = parent[v]
            cap[u][v] -= bottleneck
            cap[v][u] += bottleneck
            v = u
        value += bottleneck
    return value, cap


def admits_matching(seq: SubsetSeq, alpha: Sequence[int], beta: Sequence[int]) -> bool:
    """True when some edge weighting has row sums alpha and column sums beta."""
    a = _check_degrees(alpha, seq.m, "alpha")
    b = _check_degrees(beta, seq.n, "beta")
    total = sum(a)
    if total != sum(b):
        return False
    value, _ = _max_flow(seq, a, b, None)
    return value == total


def find_witness(
    seq: SubsetSeq,
    alpha: Sequence[int],
    beta: Sequence[int],
    caps: Mapping[Edge, int] | None = None,
) -> MatchWitness | None:
    """A witnessing weighting, or None when the pair does not match."""
    a = _check_degrees(alpha, seq.m, "alpha")
    b = _check_degrees(beta, seq.n, "beta")
    checked = None if caps is None else _check_caps(seq, caps)
    total = sum(a)
    if total != sum(b):
        return None
    value, residual = _max_flow(seq, a, b, checked)
    if value != total:
        return None
    weights = {}
    for i, j in seq.edges():
        w = residual[seq.m + j][i]  # reverse residual equals the flow pushed
        if w:
            weights[(i, j)] = w
    witness = MatchWitness(weights)
    assert witness.row_sums(seq.m) == a and witness.col_sums(seq.n) == b
    return witness


def admits_restricted(
    seq: SubsetSeq,
    caps: Mapping[Edge, int],
    alpha: Sequence[int],
    beta: Sequence[int],
) -> bool:
    """Matching feasibility with per-edge weight caps; uncapped edges are free."""
    a = _check_degrees(alpha, seq.m, "alpha")
    b = _check_degrees(beta, seq.n, "beta")
    checked = _check_caps(seq, caps)
    total = sum(a)
    if total != sum(b):
        return False
    value, _ = _max_flow(seq, a, b, checked)
    return value == total


def matched_degrees(seq: SubsetSeq, alpha: Sequence[int]) -> frozenset[tuple[int, ...]]:
    """All column-sum vectors beta for which (alpha, beta) matches.

    Accumulates, element by element, every spread of alpha_i over the parts
    containing i; the reachable column sums are exactly the sums of one spread
    per element.  Empty iff some element with positive degree lies in no part.
    """
    a = _check_degrees(alpha, seq.m, "alpha")
    n = seq.n
    acc: set[tuple[int, ...]] = {(0,) * n}
    for i, weight in enumerate(a, start=1):
        if weight == 0:
            continue
        cols = seq.parts_containing(i)
        if not cols:
            return frozenset()
        spreads = []
        for comp in compositions(weight, len(cols)):
            vec = [0] * n
            for c, j in zip(comp, cols):
                vec[j - 1] = c
            spreads.append(tuple(vec))
        acc = {
            tuple(x + y for x, y in zip(base, spread))
            for base in acc
            for spread in spreads
        }
    return frozenset(acc)


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
        caps[edge] = int(value)
    return _check_caps(seq, caps)
