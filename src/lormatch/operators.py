"""Linear operators on a bounded monomial box, their symbols, and deformations.

An operator is stored as the table of images of the normalized monomials
x^alpha/alpha! for all alpha below a fixed box bound.  The symbol packs the
whole table into one polynomial in the output variables y plus one tracking
variable u per input variable; it is invertible, which makes coefficient
surgery on it (fractional powers) mechanical.  The substitution operator
and the reweighted singleton family replace each variable by a linear form,
so they are built by `Poly.substitute` on each table entry instead.

One `OperatorBox` holds both coefficient kinds: exact `Poly` images, or the
`FloatPoly` images that fractional powers produce.  Only the polynomial types
know the kind.  The table check tests the image types, so a table that mixes
the two is refused, and `symbol_of` and `box_from_symbol` read the kind (and
with it the rescaling) from the images and the symbol.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Mapping, Sequence

from . import matchstats
from ._packed import _key_decoder
from ._util import _brief, _is_json_int, clear_denominators, iter_box, json_ints, nonnegative_weights
from ._util import vec_factorial
from .matchings import SubsetSeq, _packed_sums
from .matchstats import _BITSET_M, _walk
from .polynomials import FloatPoly, Poly, _rows_poly


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
        return self._json(operator.methodcaller("to_json"))

    def _json(self, encode: Callable) -> dict:
        """The JSON object of `to_json`, each image written by ``encode``."""
        return {
            "kappa": list(self.kappa),
            "n_out": self.n_out,
            "table": [
                {"alpha": list(alpha), "poly": encode(poly)}
                for alpha, poly in sorted(self.table.items())
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "OperatorBox":
        if not isinstance(obj, dict) or not {"kappa", "n_out", "table"} <= set(obj):
            raise ValueError("operator JSON needs 'kappa', 'n_out', and 'table'")
        alpha = "operator JSON needs integer 'alpha' entries, got {}"
        table = {json_ints(row["alpha"], alpha): Poly.from_json(row["poly"]) for row in obj["table"]}
        n_out = obj["n_out"]
        if not _is_json_int(n_out):
            raise ValueError(f"operator JSON needs an integer 'n_out', got {_brief(n_out)}")
        kappa = json_ints(obj["kappa"], "operator JSON needs integer 'kappa' entries, got {}")
        return cls(kappa, n_out, table)


def apply_inducing(seq: SubsetSeq, f: Poly) -> Poly:
    """Send each normalized monomial to the sum of its matched counterparts.

    The normalized coefficient of x^alpha lands, unchanged, on y^beta for
    every beta with (alpha, beta) matchable; extended linearly and exactly.

    Two routes build the same image, term for term in graded-lex order.  The
    bitset route takes f = sum_d c_d e_d over degrees d <= m - 2 when
    m <= 16 (`_BITSET_M`): f is multi-affine, and each of its degrees holds
    all C(m, d) squarefree monomials with one shared coefficient.  Then each
    alpha is a mask A, each beta the multiset T of parts with part j taken
    beta_j times, (alpha, beta) matches iff A is an SDR of T, and y^beta
    gets c_d |F| / beta!, with d = |beta| and F the SDR family of T.  The
    panel counts' walk, `matchstats._walk`, lists these T per degree on
    2^m-bit families with a part allowed to repeat, and `_rows_poly` makes
    the terms.  Every other f takes `_induce_by_sumsets`, which also checks
    this route.

    The walk's cost is in its multisets, one popcount each; the sumset
    walk's is in its (alpha, beta) pairs.  So the bitset route loses on a
    sparse f (one degree-8 monomial on 16 cyclic 3-windows: 4.4 s against
    5 ms) and at d >= m - 1 (e_12 on 13 windows: 5.7 s against 2.4 s).  For
    e_d at 1 <= d <= m - 2, sumset time over bitset time, the best of 3 on
    a 2-core host with Python 3.11, is 2.5-5.3 on 9-14 cyclic 3-windows
    (d = 3-7), 7.5 and 24 on 8 and 10 parts that are each all of 1..m
    (d = 4, 5) and 2.3-3.7 on 30 random parts at m = 6 and 8; on these
    shapes it is 1.2-29 at m = 6-15 (e_0 takes 0.05 ms either way), and
    1.0-1.9 at m = 16, where e_2 and e_3 are at parity.
    """
    if not isinstance(f, Poly):
        raise TypeError("exact Poly required")
    if f.nvars != seq.m:
        raise ValueError(f"polynomial in {f.nvars} variables, sequence over 1..{seq.m}")
    layers = _bitset_layers(seq, f)
    if layers is None:
        return _induce_by_sumsets(seq, f)
    return _induce_by_bitsets(seq, layers)


def _induce_by_bitsets(seq: SubsetSeq, layers: dict[int, Fraction]) -> Poly:
    """The bitset route of `apply_inducing`, on the {d: c_d} of `_bitset_layers`."""
    degrees = sorted(layers)
    scale, weights = clear_denominators([layers[d] for d in degrees])
    # the families are looked up in matchstats at call time, so the two walks
    # always share one grow step
    start, grow, _ = matchstats._bitset_ops(seq, None)
    walks = []
    for degree, w in zip(degrees, weights):
        # the walk lists each degree's betas in descending lex order
        rows = reversed(list(_walk(seq.n, degree, start, grow, int.bit_count, repeat=True)))
        # a list, not a generator, so that each degree keeps its own w
        walks.append(rows if w == 1 else [(beta, fact, w * c) for beta, fact, c in rows])
    return _rows_poly(seq.n, chain.from_iterable(walks), scale)


def _bitset_layers(seq: SubsetSeq, f: Poly) -> dict[int, Fraction] | None:
    """{d: c_d} when f = sum_d c_d e_d takes the bitset route, else None;
    `apply_inducing` states the gate.  It reads f in column passes (`max`,
    `map(sum, ...)`, `dict(zip(...))`) and compares the coefficients as one
    list, which tests identity first: e_r's one shared object costs no
    `Fraction` comparison."""
    m = seq.m
    terms = dict(f.items())
    if max(chain.from_iterable(terms), default=0) > 1:
        return None
    degrees, coeffs = list(map(sum, terms)), list(terms.values())
    layers = dict(zip(degrees, coeffs))
    if coeffs != list(map(layers.__getitem__, degrees)):
        return None
    if m > _BITSET_M or any(d > m - 2 or k != math.comb(m, d) for d, k in Counter(degrees).items()):
        return None
    return layers


def _induce_by_sumsets(seq: SubsetSeq, f: Poly) -> Poly:
    """apply_inducing of any checked f by one sumset walk over its exponents.

    The coefficients c are scaled to ints by `clear_denominators`, L being
    the lcm of their denominators, so the normalized coefficients c * alpha!
    become the int weights L * c * alpha! without a Fraction product.  One
    sumset walk over the exponents in sorted order, with one radix for all
    of f, gives each exponent's packed betas; they are counted per (degree,
    weight) and the counts combined per beta.  A key is big-endian, so at
    one degree (|beta| = |alpha|) int order is lex order: the degrees in
    increasing order, each with its keys sorted, insert the terms in
    graded-lex order.  Each term is decoded by one `_key_decoder(radices)`
    and made by `_rows_poly` with the scale L; a total that cancels to 0 is
    dropped.
    """
    terms = sorted(f.items())
    scale, ints = clear_denominators([c for _, c in terms])
    weights = [w * vec_factorial(exp) for (exp, _), w in zip(terms, ints)]
    degrees = [sum(exp) for exp, _ in terms]
    radix = max(degrees, default=0) + 1
    counts: dict[tuple[int, int], Counter] = {}
    walk = _packed_sums(seq, (exp for exp, _ in terms), radix)
    for degree, weight, (_, keys) in zip(degrees, weights, walk):
        counts.setdefault((degree, weight), Counter()).update(keys)
    totals: dict[int, dict[int, int]] = {}
    for (degree, weight), group in counts.items():
        into = totals.setdefault(degree, {})
        for key, k in group.items():
            into[key] = into.get(key, 0) + weight * k
    decode = _key_decoder((radix,) * seq.n)
    rows = (
        (*decode(key), total)
        for degree in sorted(totals)
        for key, total in sorted(totals[degree].items())
        if total
    )
    return _rows_poly(seq.n, rows, scale)


def _linear_images(
    seq: SubsetSeq, matrix: Sequence[Sequence] | None
) -> list[Poly]:
    """The images sum_j w_ij y_j of x_1..x_m, with weights 1 on the edges
    when no matrix is given.  An explicit matrix must be m x n, exact,
    nonnegative, and nonzero exactly on the incidences of the sequence."""
    if matrix is None:
        matrix = [[int(i in s) for s in seq.sets] for i in range(1, seq.m + 1)]
    rows = [list(r) for r in matrix]
    if len(rows) != seq.m or any(len(r) != seq.n for r in rows):
        raise ValueError(f"matrix must be {seq.m} x {seq.n}")
    units = [tuple(int(t == j) for t in range(seq.n)) for j in range(seq.n)]
    images = []
    for i, row in enumerate(rows, start=1):
        weights = nonnegative_weights(row, seq.n, f"matrix row {i}")
        for j, value in enumerate(weights, start=1):
            if (value != 0) != seq.has_edge(i, j):
                raise ValueError(f"weight pattern differs from the sequence at ({i},{j})")
        images.append(Poly(seq.n, zip(units, weights)))
    return images


def apply_substitution(
    seq: SubsetSeq, matrix: Sequence[Sequence] | None, f: Poly
) -> Poly:
    """Substitute x_i -> sum of weighted y_j over the parts containing i.

    The default weights are all 1; an explicit matrix must be nonnegative
    and supported exactly on the incidences of the sequence.
    """
    if f.nvars != seq.m:
        raise ValueError(f"polynomial in {f.nvars} variables, sequence over 1..{seq.m}")
    return f.substitute(_linear_images(seq, matrix), seq.n)


def inducing_box(seq: SubsetSeq, kappa: Sequence[int]) -> OperatorBox:
    """Box table of the inducing operator: all matched images over alpha <= kappa.

    Each image is built in graded-lex order (its keys sorted, all of one
    degree), its keys decoded by one `_key_decoder(radices)` and its terms
    made by `_rows_poly` with one ratio table, both for the whole box."""
    k = _checked_kappa(kappa, seq.m)
    radix = sum(k) + 1
    decode = _key_decoder((radix,) * seq.n)
    ratios: dict = {}
    table = {}
    for alpha, keys in _packed_sums(seq, iter_box(k), radix):
        rows = ((*decode(key), 1) for key in sorted(keys))
        table[alpha] = _rows_poly(seq.n, rows, 1, ratios)
    return OperatorBox(k, seq.n, table)


def substitution_box(
    seq: SubsetSeq, matrix: Sequence[Sequence] | None, kappa: Sequence[int]
) -> OperatorBox:
    """Box table of the substitution operator with the given edge weights;
    each image_i^e / e! is expanded once and alpha multiplies its picks."""
    k = _checked_kappa(kappa, seq.m)
    images = _linear_images(seq, matrix)
    powers = [
        [(img**e).scale(Fraction(1, math.factorial(e))) for e in range(top + 1)]
        for img, top in zip(images, k)
    ]
    one = Poly.constant(seq.n, 1)
    table = {
        alpha: math.prod((powers[i][a] for i, a in enumerate(alpha)), start=one)
        for alpha in iter_box(k)
    }
    return OperatorBox(k, seq.n, table)


def symbol_of(box: OperatorBox) -> Poly | FloatPoly:
    """One polynomial carrying the whole table: y-variables first, then one
    u-variable per input variable; the u-exponent kappa-alpha marks which
    table entry a term came from, weighted so inversion is exact."""
    kappa = box.kappa
    kfact = vec_factorial(kappa)
    data: dict = {}
    # one product per distinct (coefficient object, factor), so the symbol
    # shares its coefficients as the images share theirs (`Poly._json_text`
    # formats a row once per object); the table holds every c, so no id is
    # reused during the loop
    products: dict = {}
    # each alpha has its own u-exponent, so every key is new, and c * factor
    # is a nonzero coefficient of the kind
    for alpha, poly in box.table.items():
        uexp = tuple(k - a for k, a in zip(kappa, alpha))
        factor = kfact // vec_factorial(uexp)
        for yexp, c in poly.items():
            key = id(c), factor
            product = products.get(key)
            if product is None:
                product = products[key] = c * factor
            data[yexp + uexp] = product
    # the zero-alpha image is in every table and carries the coefficient kind
    poly_type = type(box.table[(0,) * box.m])
    if poly_type is FloatPoly:
        # a float product can leave the finite range; refused as by the constructor
        for c in data.values():
            FloatPoly._coerce(c)
    return poly_type._trusted(box.n_out + box.m, data)


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


def tab_family_box(
    seq: SubsetSeq, a: Sequence, b: Sequence, kappa: Sequence[int]
) -> OperatorBox:
    """Two-parameter family interpolating the inducing and substitution operators.

    Build the inducing box of the singleton-augmented sequence, then collapse
    each of its images: the variable of original part i becomes a_i * y_i and
    the k-th singleton's variable becomes b_k * y_owner.  a = 1, b = 0
    recovers the inducing operator exactly; a = 0, b = 1 recovers the
    substitution operator.
    """
    k = _checked_kappa(kappa, seq.m)
    # the appended singletons' owning parts, in `augment_with_singletons` order
    owners = [i for i, part in enumerate(seq.sets) for _ in part]
    a_w = nonnegative_weights(a, seq.n, "a")
    b_w = nonnegative_weights(b, len(owners), "b")
    n = seq.n
    images = [Poly.variable(n, i).scale(w) for i, w in enumerate(a_w)]
    images += [Poly.variable(n, owner).scale(w) for owner, w in zip(owners, b_w)]
    box = inducing_box(augment_with_singletons(seq), k)
    table = {alpha: image.substitute(images, n) for alpha, image in box.table.items()}
    return OperatorBox(k, n, table)
