"""Shared enumeration and factorial helpers; the JSON number rule and the
exact-input rules (a float is refused, never rounded; rationals are summed
or eliminated as ints, scaled by the lcm of their denominators); and
`_inertia`, the one exact elimination, which `lorentzian` (every inertia)
and `polymatroids.linreal_rank` (every rank) share without an import cycle.

`AxiomViolation` and the trial defaults of `verification.TrialConfig` live
here too, so the command line can catch the one and show the others in
`verify --help` without loading `polymatroids` or `verification`."""

from __future__ import annotations

import itertools
import json
import math
import re
from fractions import Fraction
from typing import Iterator, Sequence


# `verification.TrialConfig`'s defaults: seed, base trial count, tolerance
DEFAULT_SEED, DEFAULT_TRIALS, DEFAULT_TOLERANCE = 1, 100, 1e-9


class AxiomViolation(ValueError):
    """A rank table failed a polymatroid axiom.

    `axiom` names the failed requirement; `witness` holds the subsets (as
    sorted element tuples) instantiating the failure, so the report can be
    replayed against the raw table.
    """

    def __init__(
        self, axiom: str, witness: tuple[tuple[int, ...], ...], detail: str
    ) -> None:
        super().__init__(f"{axiom}: {detail}")
        self.axiom = axiom
        self.witness = witness


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


# -- the JSON number rule: a JSON integer is an int that is not a bool (JSON
# true/false decode to bool); a JSON rational is a JSON integer or a rational
# string such as "3/2", never a float or a bool.  A refused value raises
# ValueError with the caller's message: for `json_ints` its `{}` shows the
# value through `_brief`; for `json_rational` `{json}` shows its JSON text,
# cut like `_brief`'s.  Every refused value is shown in at most about 40
# characters, however large the input.  Number strings are
# ASCII digits with an optional leading minus, "p", "p/q" or a decimal "p.d"
# for a rational: `int` and `Fraction` alone would also read Unicode digits,
# "_" separators, padding spaces, a leading "+" and exponents.

_RATIONAL_TEXT = re.compile(r"-?[0-9]+(?:/[0-9]+|\.[0-9]+)?")


def _is_json_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _brief(value) -> str:
    """A JSON value for an error message, in at most about 40 characters.

    A list or tuple shows its first 8 entries, or is named by its kind when
    one of them is a list or an object; an object is named by its kind."""
    if isinstance(value, dict):
        return "an object"
    if isinstance(value, (list, tuple)):
        head = value[:8]
        if any(isinstance(v, (list, tuple, dict)) for v in head):
            return "a list"
        text = repr(head)
        if len(value) > 8:
            text = text[:-1] + ", ..." + text[-1]
        return _cut(text)
    return _cut(repr(value))


def _cut(text: str) -> str:
    return text if len(text) <= 40 else text[:37] + "..."


def json_ints(values, message: str) -> tuple[int, ...]:
    """A JSON list of integers, as a tuple."""
    if not isinstance(values, (list, tuple)) or not all(map(_is_json_int, values)):
        raise ValueError(message.format(_brief(values)))
    return tuple(values)


def int_text(value: int | str) -> int:
    """An int as is, or the int an integer string such as "-12" spells."""
    if not isinstance(value, str):
        return value
    # str methods, not a regex: every term of a symbol read from JSON comes here
    digits = value[1:] if value[:1] == "-" else value
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"expected an integer string such as \"-12\", got {_brief(value)}")
    return int(value)


def float_text(value: str) -> float:
    """The float an ASCII decimal string such as "1e-9" spells; "_" is refused."""
    if not value.isascii() or "_" in value:
        raise ValueError(f"expected a decimal number such as \"1e-9\", got {_brief(value)}")
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"could not convert string to float: {_brief(value)}") from None


def json_rational(cell, message: str = "expected a rational, got {json}") -> Fraction:
    """A JSON rational; a "p/q" string with q = 0 is refused like any other."""
    if isinstance(cell, str):
        if not _RATIONAL_TEXT.fullmatch(cell):
            raise ValueError(f"expected a rational string such as \"-3/2\" or \"0.5\", got {_brief(cell)}")
        try:
            return Fraction(cell)
        except ZeroDivisionError:
            raise ValueError(f"expected a nonzero denominator, got {_brief(cell)}") from None
    if not _is_json_int(cell):
        raise ValueError(message.format(json=_cut(json.dumps(cell, default=repr))))
    return Fraction(cell)


def json_rational_rows(data, what: str) -> list[list[Fraction]]:
    """A JSON list of rows of rationals, such as a matrix."""
    if not isinstance(data, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in data):
        raise ValueError("expected a list of rows")
    message = what + " entries must be integers or rational strings, got {json}"
    return [[json_rational(cell, message) for cell in row] for row in data]


def exact_rational(value, what: str = "rational entries", hint: str = "") -> Fraction:
    """The value as a Fraction; a float is refused, never rounded."""
    if isinstance(value, float):
        raise TypeError(f"exact {what} required, got float{hint}")
    return Fraction(value)


def nonnegative_weights(values: Sequence, length: int, name: str) -> list[Fraction]:
    """`length` exact rationals, none negative, such as operator weights."""
    out = [exact_rational(v, "rational weights") for v in values]
    if any(v < 0 for v in out):
        raise ValueError(f"{name} weights must be nonnegative")
    if len(out) != length:
        raise ValueError(f"{name} has length {len(out)}, expected {length}")
    return out


def clear_denominators(values: Sequence) -> tuple[int, list[int]]:
    """(L, [v * L for v in values]) as ints, L the lcm of the denominators."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = math.lcm(*[den for _, den in ratios])
    return scale, [num * (scale // den) for num, den in ratios]


def checked_tolerance(tol: float) -> None:
    """Refuse a tolerance that is not positive, or infinite: it would zero every magnitude."""
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    if not math.isfinite(tol):
        raise ValueError("tolerance must be finite")


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
