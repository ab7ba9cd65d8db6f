"""Shared enumeration and factorial helpers; the JSON number rule, which
every reader of JSON input applies; and `_inertia`, the one exact
elimination: `lorentzian` reads every inertia from it and
`polymatroids.linreal_rank` every realization rank (the nonzero eigenvalues
of a Gram matrix), both without an import cycle."""

from __future__ import annotations

import itertools
import json
import math
import re
from fractions import Fraction
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


# -- the JSON number rule: a JSON integer is an int that is not a bool (JSON
# true/false decode to bool); a JSON rational is a JSON integer or a rational
# string such as "3/2", never a float or a bool.  A refused value raises
# ValueError(message.format(value, json=...)): in the caller's message `{}`
# or `{!r}` shows the value and `{json}` its JSON text.  Number strings are
# ASCII digits with an optional leading minus, "p", "p/q" or a decimal "p.d"
# for a rational: `int` and `Fraction` alone would also read Unicode digits,
# "_" separators, padding spaces, a leading "+" and exponents.

_RATIONAL_TEXT = re.compile(r"-?[0-9]+(?:/[0-9]+|\.[0-9]+)?")


def _is_json_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def json_ints(values, message: str) -> tuple[int, ...]:
    """A JSON list of integers, as a tuple."""
    if not isinstance(values, (list, tuple)) or not all(map(_is_json_int, values)):
        raise ValueError(message.format(values, json=json.dumps(values, default=repr)))
    return tuple(values)


def int_text(value: int | str) -> int:
    """An int as is, or the int an integer string such as "-12" spells."""
    if not isinstance(value, str):
        return value
    # str methods, not a regex: every term of a symbol read from JSON comes here
    digits = value[1:] if value[:1] == "-" else value
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"expected an integer string such as \"-12\", got {value!r}")
    return int(value)


def json_rational(cell, message: str) -> Fraction:
    """A JSON rational; a "p/q" string with q = 0 raises ZeroDivisionError."""
    if isinstance(cell, str):
        if not _RATIONAL_TEXT.fullmatch(cell):
            raise ValueError(f"expected a rational string such as \"-3/2\" or \"0.5\", got {cell!r}")
        return Fraction(cell)
    if not _is_json_int(cell):
        raise ValueError(message.format(cell, json=json.dumps(cell, default=repr)))
    return Fraction(cell)


def json_rational_rows(data, what: str) -> list[list[Fraction]]:
    """A JSON list of rows of rationals, such as a matrix."""
    if not isinstance(data, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in data):
        raise ValueError("expected a list of rows")
    message = what + " entries must be integers or rational strings, got {json}"
    return [[json_rational(cell, message) for cell in row] for row in data]


def _swap_symmetric(work: list[list], i: int, j: int) -> None:
    if i == j:
        return
    work[i], work[j] = work[j], work[i]
    for row in work:
        row[i], row[j] = row[j], row[i]


def _inertia(work: list[list], tol: float | None = None) -> tuple[int, int, int]:
    """Inertia of a symmetric matrix, overwriting it: the one elimination.

    Symmetric Bareiss elimination: after k steps the trailing block holds
    D_k times the Schur complement, D_k being the k-th leading principal
    minor (D_0 = 1), so the sign of the k-th eigenvalue of the LDL^T form is
    sign(D_k) * sign(D_{k-1}).  On Python ints (tol None) each division by
    the previous pivot is exact and an entry is zero when it is 0.  On floats
    an entry is negligible when its Schur-complement value is at most tol,
    that is |entry| <= tol * |D_{k-1}|.  When the remaining diagonal is
    negligible but a_ij is not, x_i -> x_i + x_j (a unimodular congruence)
    puts a_ii + 2 a_ij + a_jj on the diagonal.
    """
    n = len(work)
    pos = neg = 0
    prev = 1
    for k in range(n):
        cut = 0 if tol is None else tol * abs(prev)
        for p in range(k, n):
            if abs(work[p][p]) > cut:
                break
        else:
            for p in range(k, n):
                row_p = work[p]
                for j in range(p + 1, n):
                    if abs(row_p[j]) > cut:
                        break
                else:
                    continue
                break
            else:
                return pos, neg, n - k
            row_j = work[j]
            for c in range(k, n):
                row_p[c] += row_j[c]
            for row in work[k:]:
                row[p] += row[j]
        _swap_symmetric(work, k, p)
        pivot = work[k][k]
        if (pivot > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        row_k = work[k]
        for r in range(k + 1, n):
            row_r = work[r]
            factor = row_r[k]
            if tol is None:
                for c in range(k + 1, n):
                    row_r[c] = (pivot * row_r[c] - factor * row_k[c]) // prev
            else:
                for c in range(k + 1, n):
                    row_r[c] = (pivot * row_r[c] - factor * row_k[c]) / prev
        prev = pivot
    return pos, neg, 0
