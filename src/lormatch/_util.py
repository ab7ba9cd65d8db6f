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


def bounded_compositions(total: int, caps: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Nonnegative tuples with the given sum and per-coordinate caps, lex order."""
    if not caps:
        if total == 0:
            yield ()
        return
    if len(caps) == 1:
        if 0 <= total <= caps[0]:
            yield (total,)
        return
    rest = caps[1:]
    for head in range(max(0, total - sum(rest)), min(caps[0], total) + 1):
        for tail in bounded_compositions(total - head, rest):
            yield (head,) + tail


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
