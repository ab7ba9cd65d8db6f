"""Linear operators on a bounded monomial box, their symbols, and deformations.

An operator is stored as the table of images of the normalized monomials
x^alpha/alpha! for all alpha below a fixed box bound.  The symbol packs the
whole table into one polynomial in the output variables y plus one tracking
variable u per input variable; it is invertible, which makes coefficient
surgery (fractional powers, reweighted singleton families) mechanical.

One `OperatorBox` holds both coefficient kinds: exact `Poly` images, or the
`FloatPoly` images that fractional powers produce.  Only the polynomial types
know the kind.  The table check tests the image types, so a table that mixes
the two is refused, and `symbol_of` and `box_from_symbol` read the kind (and
with it the rescaling) from the images and the symbol.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from ._util import iter_box, vec_factorial
from .matchings import SubsetSeq, _packed_sums, _unpack
from .polynomials import FloatPoly, Poly


def _checked_kappa(kappa: Sequence[int], m: int | None = None) -> tuple[int, ...]:
    out = tuple(map(operator.index, kappa))
    if not out:
        raise ValueError("at least one input variable required")
    if any(v < 0 for v in out):
        raise ValueError("box bounds must be nonnegative")
    if m is not None and len(out) != m:
        raise ValueError(f"box over {len(out)} variables, sequence over 1..{m}")
    return out


def _checked_table(kappa, n_out, table):
    if n_out < 1:
        raise ValueError("output variable count must be >= 1")
    kinds = {type(value) for value in table.values()}
    if len(kinds) > 1 or not kinds <= {Poly, FloatPoly}:
        raise TypeError("table images must be all Poly or all FloatPoly")
    expected = set(iter_box(kappa))
    checked = {}
    for key, value in table.items():
        alpha = tuple(map(operator.index, key))
        if alpha not in expected:
            raise ValueError(f"table key {alpha} outside the box {kappa}")
        if value.nvars != n_out:
            raise ValueError(f"image at {alpha} has {value.nvars} variables, expected {n_out}")
        checked[alpha] = value
    if len(checked) != len(expected):
        missing = sorted(expected - set(checked))[:3]
        raise ValueError(f"table is missing box entries, e.g. {missing}")
    return checked


@dataclass(frozen=True)
class OperatorBox:
    """Operator: alpha -> image of x^alpha/alpha!, for all alpha <= kappa."""

    kappa: tuple[int, ...]
    n_out: int
    table: Mapping[tuple[int, ...], Poly | FloatPoly]

    def __post_init__(self) -> None:
        kappa = _checked_kappa(self.kappa)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "table", _checked_table(kappa, self.n_out, self.table))

    @property
    def m(self) -> int:
        return len(self.kappa)

    def image(self, alpha: Sequence[int]) -> Poly | FloatPoly:
        return self.table[tuple(map(operator.index, alpha))]

    def to_json(self) -> dict:
        return {
            "kappa": list(self.kappa),
            "n_out": self.n_out,
            "table": [
                {"alpha": list(alpha), "poly": poly.to_json()}
                for alpha, poly in sorted(self.table.items())
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "OperatorBox":
        if not isinstance(obj, dict) or not {"kappa", "n_out", "table"} <= set(obj):
            raise ValueError("operator JSON needs 'kappa', 'n_out', and 'table'")
        table = {
            tuple(row["alpha"]): Poly.from_json(row["poly"]) for row in obj["table"]
        }
        return cls(tuple(obj["kappa"]), int(obj["n_out"]), table)


def apply_inducing(seq: SubsetSeq, f: Poly) -> Poly:
    """Send each normalized monomial to the sum of its matched counterparts.

    The normalized coefficient of x^alpha lands, unchanged, on y^beta for
    every beta with (alpha, beta) matchable; extended linearly and exactly.
    The normalized coefficients c * alpha! are scaled by the least common
    multiple L of their denominators, so each is an int, and summed per beta
    on packed keys with one radix for all of f.  Each output term then costs
    one division, total / (L * beta!); a sum that cancels to 0 is dropped.
    """
    if not isinstance(f, Poly):
        raise TypeError("exact Poly required")
    if f.nvars != seq.m:
        raise ValueError(f"polynomial in {f.nvars} variables, sequence over 1..{seq.m}")
    norms = [(exp, c * vec_factorial(exp)) for exp, c in f.items()]
    scale = math.lcm(*(c.denominator for _, c in norms))
    radix = max((sum(exp) for exp, _ in norms), default=0) + 1
    sums: dict[int, int] = {}
    for exp, c in norms:
        weight = c.numerator * (scale // c.denominator)
        for key in _packed_sums(seq, exp, radix):
            sums[key] = sums.get(key, 0) + weight
    data = {}
    for key, total in sums.items():
        beta = _unpack(key, radix, seq.n)
        data[beta] = Fraction(total, scale * vec_factorial(beta))
    return Poly(seq.n, data)


def _checked_matrix(
    seq: SubsetSeq, matrix: Sequence[Sequence] | None
) -> list[list[Fraction]]:
    if matrix is None:
        return [
            [Fraction(1 if seq.has_edge(i, j) else 0) for j in range(1, seq.n + 1)]
            for i in range(1, seq.m + 1)
        ]
    rows = [list(r) for r in matrix]
    if len(rows) != seq.m or any(len(r) != seq.n for r in rows):
        raise ValueError(f"matrix must be {seq.m} x {seq.n}")
    out = []
    for i, row in enumerate(rows, start=1):
        checked = []
        for j, v in enumerate(row, start=1):
            if isinstance(v, float):
                raise TypeError("exact rational entries required, got float")
            value = Fraction(v)
            if value < 0:
                raise ValueError(f"negative weight at ({i},{j})")
            if (value != 0) != seq.has_edge(i, j):
                raise ValueError(
                    f"weight pattern differs from the sequence at ({i},{j})"
                )
            checked.append(value)
        out.append(checked)
    return out


def apply_substitution(
    seq: SubsetSeq, matrix: Sequence[Sequence] | None, f: Poly
) -> Poly:
    """Substitute x_i -> sum of weighted y_j over the parts containing i.

    The default weights are all 1; an explicit matrix must be nonnegative
    and supported exactly on the incidences of the sequence.
    """
    if f.nvars != seq.m:
        raise ValueError(f"polynomial in {f.nvars} variables, sequence over 1..{seq.m}")
    weights = _checked_matrix(seq, matrix)
    images = []
    for i in range(1, seq.m + 1):
        terms = {}
        for j in seq.parts_containing(i):
            exp = tuple(int(t == j - 1) for t in range(seq.n))
            terms[exp] = weights[i - 1][j - 1]
        images.append(Poly(seq.n, terms))
    return f.substitute(images, seq.n)


def inducing_box(seq: SubsetSeq, kappa: Sequence[int]) -> OperatorBox:
    """Box table of the inducing operator: all matched images over alpha <= kappa."""
    k = _checked_kappa(kappa, seq.m)
    radix = sum(k) + 1
    table = {}
    for alpha in iter_box(k):
        betas = (_unpack(key, radix, seq.n) for key in _packed_sums(seq, alpha, radix))
        table[alpha] = Poly(
            seq.n, {beta: Fraction(1, vec_factorial(beta)) for beta in betas}
        )
    return OperatorBox(k, seq.n, table)


def substitution_box(
    seq: SubsetSeq, matrix: Sequence[Sequence] | None, kappa: Sequence[int]
) -> OperatorBox:
    """Box table of the substitution operator with the given edge weights."""
    k = _checked_kappa(kappa, seq.m)
    weights = _checked_matrix(seq, matrix)
    table = {}
    for alpha in iter_box(k):
        mono = Poly.monomial(seq.m, alpha, Fraction(1, vec_factorial(alpha)))
        table[alpha] = apply_substitution(seq, weights, mono)
    return OperatorBox(k, seq.n, table)


def symbol_of(box: OperatorBox) -> Poly | FloatPoly:
    """One polynomial carrying the whole table: y-variables first, then one
    u-variable per input variable; the u-exponent kappa-alpha marks which
    table entry a term came from, weighted so inversion is exact."""
    kappa = box.kappa
    kfact = vec_factorial(kappa)
    data: dict = {}
    for alpha, poly in box.table.items():
        uexp = tuple(k - a for k, a in zip(kappa, alpha))
        factor = kfact // vec_factorial(uexp)
        for yexp, c in poly.items():
            key = yexp + uexp
            data[key] = data.get(key, 0) + c * factor
    # the zero-alpha image is in every table and carries the coefficient kind
    poly_type = type(box.table[(0,) * box.m])
    return poly_type(box.n_out + box.m, data)


def box_from_symbol(
    sym: Poly | FloatPoly, kappa: Sequence[int], n_out: int
) -> OperatorBox:
    """Invert symbol_of: split off the u-exponents and rescale each slice."""
    k = _checked_kappa(kappa)
    if n_out < 1:
        raise ValueError("output variable count must be >= 1")
    if sym.nvars != n_out + len(k):
        raise ValueError(
            f"symbol has {sym.nvars} variables, expected {n_out} + {len(k)}"
        )
    kfact = vec_factorial(k)
    poly_type = type(sym)
    ratio = poly_type._ratio
    slices: dict[tuple[int, ...], dict] = {alpha: {} for alpha in iter_box(k)}
    for exp, c in sym.items():
        yexp = exp[:n_out]
        uexp = exp[n_out:]
        if any(u > kk for u, kk in zip(uexp, k)):
            raise ValueError(f"u-exponent {uexp} exceeds the box {k}")
        alpha = tuple(kk - u for kk, u in zip(k, uexp))
        slices[alpha][yexp] = c * ratio(vec_factorial(uexp), kfact)
    table = {a: poly_type(n_out, t) for a, t in slices.items()}
    return OperatorBox(k, n_out, table)


def power_box(box: OperatorBox, q) -> OperatorBox:
    """Raise every normalized symbol coefficient to the power q in [0, 1].

    Zero coefficients stay zero; positive ones become c**q in floating
    point, in `FloatPoly` images, so q=1 reproduces the operator up to float
    representation and q=0 flattens every present coefficient to 1.
    """
    qf = q if isinstance(q, float) else float(Fraction(q))
    if not 0 <= qf <= 1:
        raise ValueError(f"power {q} outside [0, 1]")
    sym = symbol_of(box)
    data = {}
    for exp, c in sym.items():
        norm = c * vec_factorial(exp)
        if norm < 0:
            raise ValueError(f"negative normalized coefficient at {exp}")
        data[exp] = float(norm) ** qf / vec_factorial(exp)
    return box_from_symbol(FloatPoly(sym.nvars, data), box.kappa, box.n_out)


def augment_with_singletons(seq: SubsetSeq) -> SubsetSeq:
    """Append one singleton part per part membership, in part-then-element order."""
    singles = tuple(
        frozenset({e}) for part in seq.sets for e in sorted(part)
    )
    return SubsetSeq(seq.m, seq.sets + singles)


def _singleton_owners(seq: SubsetSeq) -> tuple[int, ...]:
    """Which original part each appended singleton came from (1-indexed)."""
    return tuple(
        i for i, part in enumerate(seq.sets, start=1) for _ in sorted(part)
    )


def _checked_weights(values: Sequence, length: int, name: str) -> list[Fraction]:
    out = []
    for v in values:
        if isinstance(v, float):
            raise TypeError("exact rational weights required, got float")
        value = Fraction(v)
        if value < 0:
            raise ValueError(f"{name} weights must be nonnegative")
        out.append(value)
    if len(out) != length:
        raise ValueError(f"{name} has length {len(out)}, expected {length}")
    return out


def tab_family_box(
    seq: SubsetSeq, a: Sequence, b: Sequence, kappa: Sequence[int]
) -> OperatorBox:
    """Two-parameter family interpolating the inducing and substitution operators.

    Build the singleton-augmented sequence, take the symbol of its inducing
    box, rescale the variable of original part i by a_i and collapse the
    k-th singleton's variable onto its owner part with weight b_k, then
    invert the symbol.  a = 1, b = 0 recovers the inducing operator exactly;
    a = 0, b = 1 recovers the substitution operator.
    """
    k = _checked_kappa(kappa, seq.m)
    owners = _singleton_owners(seq)
    a_w = _checked_weights(a, seq.n, "a")
    b_w = _checked_weights(b, len(owners), "b")
    augmented = augment_with_singletons(seq)
    sym = symbol_of(inducing_box(augmented, k))
    n, m = seq.n, seq.m
    nvars_out = n + m
    images = []
    for i in range(n):
        exp = tuple(int(t == i) for t in range(nvars_out))
        images.append(Poly.monomial(nvars_out, exp, a_w[i]))
    for idx, owner in enumerate(owners):
        exp = tuple(int(t == owner - 1) for t in range(nvars_out))
        images.append(Poly.monomial(nvars_out, exp, b_w[idx]))
    for t in range(m):
        images.append(Poly.variable(nvars_out, n + t))
    collapsed = sym.substitute(images, nvars_out)
    return box_from_symbol(collapsed, k, n)
