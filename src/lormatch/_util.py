"""Shared enumeration and factorial helpers."""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence


def vec_factorial(exp: Sequence[int]) -> int:
    """Product of the factorials of the entries."""
    out = 1
    for e in exp:
        out *= math.factorial(e)
    return out


def grlex_key(exp: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Sort key for graded-lexicographic term order."""
    return (sum(exp), tuple(exp))


def iter_box(bounds: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All integer tuples 0 <= v <= bounds, in lexicographic order."""
    return itertools.product(*(range(b + 1) for b in bounds))


def compositions(total: int, slots: int) -> Iterator[tuple[int, ...]]:
    """All nonnegative integer tuples of length ``slots`` summing to ``total``."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    if slots == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, slots - 1):
            yield (head,) + rest


def bounded_compositions(total: int, caps: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Nonnegative tuples with the given sum and per-coordinate caps, lex order."""
    n = len(caps)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + caps[i]

    def rec(i: int, rem: int, prefix: list[int]) -> Iterator[tuple[int, ...]]:
        if i == n:
            if rem == 0:
                yield tuple(prefix)
            return
        lo = max(0, rem - suffix[i + 1])
        hi = min(caps[i], rem)
        for v in range(lo, hi + 1):
            prefix.append(v)
            yield from rec(i + 1, rem - v, prefix)
            prefix.pop()

    if total < 0:
        return
    yield from rec(0, total, [])


def mask_to_elements(mask: int) -> tuple[int, ...]:
    """Bitmask to sorted 1-indexed elements; bit i-1 encodes element i."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)
