"""Sparse multivariate polynomials with exact rational coefficients.

A `Poly` maps exponent tuples to nonzero `fractions.Fraction` coefficients in
the plain monomial basis.  The normalized (divided-power) view, in which the
weight attached to an exponent vector ``a`` is ``a!`` times the plain
coefficient of ``x^a``, is exposed through `normalized_coeff` and understood
by the JSON codec.  All arithmetic is exact; `eval_complex` is the only
floating-point entry point.

`FloatPoly` holds float-coefficient data.  Both kinds inherit the read-only
core `PolyCore` (construction, access, equality, degrees, the JSON writers),
whose members read the coefficient kind from class attributes; `FloatPoly`
borrows `Poly.derivative_multi`, which stays on `Poly` because the
benchmark's tracer self-test reads it from `vars(Poly)`.  Neither kind
subclasses the other: the ring operations test `isinstance(.., Poly)` and
the operator-table check tests the image types, so exact and float data
never mix silently.

Terms are summed in one place, `_summed`: repeated exponents are summed
in first-seen order and no zero coefficient is stored.  Construction, `+`,
`*`, `substitute` and the JSON row loop build their terms through it, and
`*` and `substitute` form term products with `_products`.

There are two writers of the JSON layout.  `to_json` returns the document
as dicts and lists; it serves library users, `--pretty`'s indented copy,
and it is the reference that tests hold the other writer to.  `_json_text`
returns the canonical text of that document, `json.dumps(to_json(basis),
sort_keys=True, separators=(",", ":"))`, byte for byte; the CLI writes
every polynomial it prints through it.  It formats the row text of each
distinct coefficient once and splices each exponent's text into it: entries
0-9 take one bytes pass, any larger entry `json`; `to_json` stays the reference.

Exact coefficients are made in two places, each making one `Fraction` per
distinct value: `_rows_poly` for counted rows (beta, beta!, total), which
every panel count, inducing image and base-point generating polynomial is
built from, and the column pass of `from_json` (`_column_terms`) for
documents.  The readers that key on coefficient identity rely on that
sharing: `_json_text` formats one row per coefficient object and
`operators.symbol_of` makes one product per object, so equal values held
apart cost only a format or a product each.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from ._util import _brief, _is_json_int, exact_rational, int_text, json_ints
from ._util import json_rational, vec_factorial

ExpVec = tuple[int, ...]
CPoint = tuple[complex, ...]


class _AnyDegree:
    """Degree marker for the zero polynomial, homogeneous of every degree."""

    _instance = None

    def __new__(cls) -> "_AnyDegree":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ANY_DEGREE"


ANY_DEGREE = _AnyDegree()


def _to_fraction(value: object) -> Fraction:
    return exact_rational(value, "coefficient", " (use FloatPoly)")


def _checked_exponent(exp: Sequence[int], nvars: int) -> ExpVec:
    out = tuple(map(operator.index, exp))
    if len(out) != nvars:
        raise ValueError(f"exponent {_brief(out)} has length {len(out)}, expected {nvars}")
    if out and min(out) < 0:
        raise ValueError(f"negative entry in exponent {_brief(out)}")
    return out


_COEFFICIENTS = "coefficients must be integers or strings"


def _exact_term_json(terms: Iterable[tuple[ExpVec, Fraction]]) -> list[dict]:
    return [
        {"exp": list(exp), "num": str(c.numerator), "den": str(c.denominator)}
        for exp, c in terms
    ]


def _float_term_json(terms: Iterable[tuple[ExpVec, float]]) -> list[dict]:
    return [{"exp": list(exp), "coeff": c} for exp, c in terms]


# `_json_text` row formats, one per distinct coefficient, with a %s slot for
# the exponent text; "%d" and `str` of an int refuse the same sizes
def _exact_row_format(c: Fraction) -> str:
    return '{"den":"%d","exp":[%%s],"num":"%d"}' % (c.denominator, c.numerator)


def _float_row_format(c: float) -> str:
    # `json` spells the non-finite floats NaN and Infinity, `repr` does not
    return '{"coeff":%s,"exp":[%%s]}' % json.dumps(c)


# byte -> its digit for 0-9, and -> "x", which `isdigit` refuses, for 10-255
_DIGITS = b"0123456789" + b"x" * 246


def _exponent_texts(exps: Sequence[ExpVec]) -> list[str]:
    """The JSON text of each exponent list, without its brackets.  Entries
    0-9 are written as digits to every other byte of a run of commas, each
    row's last comma a space to split at, in C; any larger entry (`bytes`
    refuses 256 and up) sends the whole list to `json`, written once and split."""
    try:
        digits = b"".join(map(bytes, exps)).translate(_DIGITS)
    except ValueError:
        digits = b""
    if not digits.isdigit():
        return json.dumps(exps, separators=(",", ":"))[2:-2].split("],[")
    width = 2 * len(exps[0])
    buf = bytearray(b",") * (2 * len(digits))
    buf[0::2] = digits
    buf[width - 1 :: width] = b" " * len(exps)
    del buf[-1]
    return buf.decode().split(" ")


def _summed(pairs: Iterable[tuple[ExpVec, object]]) -> dict:
    """The (exponent, coefficient) pairs as a dict: repeated exponents are
    summed in first-seen order and no zero coefficient is kept."""
    data: dict = {}
    for exp, c in pairs:
        data[exp] = data[exp] + c if exp in data else c
    return data if all(data.values()) else {exp: c for exp, c in data.items() if c}


def _products(a: Iterable, b: Iterable) -> Iterator[tuple[ExpVec, object]]:
    """(e1 + e2, c1 * c2) over two term lists; `b` is read once per term of `a`."""
    return ((tuple(map(operator.add, e1, e2)), c1 * c2) for e1, c1 in a for e2, c2 in b)


class PolyCore:
    """Read-only core of `Poly` and `FloatPoly`; each member reads the
    coefficient kind from the class attributes each kind sets.  The name is
    public so that perfbench's tracer, which wraps only public classes,
    still times `items`, `to_json` and the rest."""

    def __init__(self, nvars: int, terms: Mapping | Iterable = ()) -> None:
        if nvars < 1:
            raise ValueError("nvars must be >= 1")
        self.nvars = nvars
        pairs = terms.items() if isinstance(terms, Mapping) else terms
        coerce = self._coerce
        self._terms = _summed((_checked_exponent(exp, nvars), coerce(c)) for exp, c in pairs)

    @classmethod
    def _trusted(cls, nvars: int, terms: dict) -> "Poly":
        """Wrap checked data as is: nvars >= 1, exponent tuples of that
        length with nonnegative entries, nonzero coefficients of the kind.

        For library code only, on data it built or has just checked.
        """
        out = cls.__new__(cls)
        out.nvars = nvars
        out._terms = terms
        return out

    # -- access ------------------------------------------------------------

    def items(self) -> Iterator[tuple[ExpVec, Fraction]]:
        return iter(self._terms.items())

    def sorted_terms(self) -> list[tuple[ExpVec, Fraction]]:
        """Terms in graded-lexicographic order (the serialization order)."""
        exps = self._sorted_exponents()
        return list(zip(exps, map(self._terms.__getitem__, exps)))

    def _sorted_exponents(self) -> list[ExpVec]:
        """The exponents in graded-lexicographic order.

        They are sorted lexicographically with no key, then by degree in one
        stable pass, which runs only when there is more than one degree.
        """
        exps = sorted(self._terms)
        if len(set(map(sum, exps))) > 1:
            exps.sort(key=sum)
        return exps

    def support(self) -> frozenset[ExpVec]:
        return frozenset(self._terms)

    def coefficient(self, exp: Sequence[int]) -> Fraction:
        return self._terms.get(_checked_exponent(exp, self.nvars), self._zero)

    def normalized_coeff(self, exp: Sequence[int]) -> Fraction:
        """Coefficient in the divided-power basis: exp! times the plain one."""
        key = _checked_exponent(exp, self.nvars)
        return self._terms.get(key, self._zero) * vec_factorial(key)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    # -- structure -----------------------------------------------------------

    def degree_profile(self) -> ExpVec:
        """Per-variable maximum exponent over the support."""
        prof = [0] * self.nvars
        for exp in self._terms:
            for i, e in enumerate(exp):
                if e > prof[i]:
                    prof[i] = e
        return tuple(prof)

    def homogeneous_degree(self):
        """Common term degree, ANY_DEGREE for the zero polynomial, None if mixed."""
        if not self._terms:
            return ANY_DEGREE
        degrees = set(map(sum, self._terms))
        return min(degrees) if len(degrees) == 1 else None

    # -- serialization ---------------------------------------------------------

    def to_json(self, basis: str = "plain") -> dict:
        """Rows of {"exp", "num", "den"}, or {"exp", "coeff"} for `FloatPoly`."""
        if basis not in ("plain", "normalized"):
            raise ValueError(f"unknown basis {basis!r}")
        terms = self.sorted_terms()
        if basis == "normalized":
            terms = [(exp, c * vec_factorial(exp)) for exp, c in terms]
        return {"nvars": self.nvars, "basis": basis, "terms": self._term_json(terms)}

    def _json_text(self, basis: str = "plain") -> str:
        """`to_json(basis)` as canonical JSON text: sorted keys, compact separators.

        One row format is made per distinct coefficient and every exponent's
        text is spliced into it.  The formats are keyed by the coefficient
        object's identity (and exp! in the normalized basis), not by its
        value: hashing a `Fraction` takes a modular inverse.  The
        coefficients live in ``self`` for the whole call, so no identity is
        reused.
        """
        if basis not in ("plain", "normalized"):
            raise ValueError(f"unknown basis {basis!r}")
        head = '{"basis":"%s","nvars":%d,"terms":[' % (basis, self.nvars)
        if not self._terms:
            return head + "]}"
        exps = self._sorted_exponents()
        coeffs = list(map(self._terms.__getitem__, exps))
        keys = list(map(id, coeffs))
        if basis == "normalized":
            keys = list(zip(keys, map(vec_factorial, exps)))
            values = {key: c * key[1] for key, c in dict(zip(keys, coeffs)).items()}
        else:
            values = dict(zip(keys, coeffs))
        formats = {key: self._row_format(c) for key, c in values.items()}
        rows = map(operator.mod, map(formats.__getitem__, keys), _exponent_texts(exps))
        return head + ",".join(rows) + "]}"


class Poly(PolyCore):
    """Immutable sparse polynomial in ``nvars`` variables over the rationals."""

    # coefficient kind, read by the `PolyCore` members
    _coerce = staticmethod(_to_fraction)
    _zero = Fraction(0)
    _ratio = Fraction
    _term_json = staticmethod(_exact_term_json)
    _row_format = staticmethod(_exact_row_format)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value) -> "Poly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        """The monomial x_index with 0-based index."""
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} outside 0..{nvars - 1}")
        exp = tuple(1 if k == index else 0 for k in range(nvars))
        return cls(nvars, {exp: 1})

    @classmethod
    def monomial(cls, nvars: int, exp: Sequence[int], coeff=1) -> "Poly":
        return cls(nvars, {tuple(exp): coeff})

    def __repr__(self) -> str:
        if not self._terms:
            return "Poly(0)"
        bits = []
        for exp, c in self.sorted_terms():
            mono = "*".join(
                f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                for i, e in enumerate(exp)
                if e
            )
            bits.append(f"{c}" if not mono else f"{c}*{mono}")
        return "Poly(" + " + ".join(bits) + ")"

    # -- arithmetic ----------------------------------------------------------

    def _require_same_arity(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                f"variable-arity mismatch: {self.nvars} vs {other.nvars}"
            )

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._require_same_arity(other)
        terms = itertools.chain(self._terms.items(), other._terms.items())
        return Poly._trusted(self.nvars, _summed(terms))

    def __neg__(self) -> "Poly":
        return Poly._trusted(self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            self._require_same_arity(other)
            data = _summed(_products(self._terms.items(), other._terms.items()))
            return Poly._trusted(self.nvars, data)
        return self.scale(other)

    def __rmul__(self, other) -> "Poly":
        return self.scale(other)

    def scale(self, value) -> "Poly":
        c = _to_fraction(value)
        data = {e: c * v for e, v in self._terms.items()} if c else {}
        return Poly._trusted(self.nvars, data)

    def __pow__(self, power: int) -> "Poly":
        if not isinstance(power, int) or power < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        out = Poly.constant(self.nvars, 1)
        for _ in range(power):
            out = out * self
        return out

    # -- structure -----------------------------------------------------------

    def multiaffine_part(self) -> "Poly":
        """Terms whose exponents are all 0 or 1."""
        return Poly._trusted(
            self.nvars,
            {e: c for e, c in self._terms.items() if all(x <= 1 for x in e)},
        )

    # on Poly, not PolyCore: perfbench's test_wrapped_names_are_restored reads vars(Poly)
    def derivative_multi(self, gamma: Sequence[int]) -> "Poly":
        """Iterated partial derivative with multiplicities ``gamma``."""
        g = _checked_exponent(gamma, self.nvars)
        data = {}
        for exp, c in self._terms.items():
            # falling factorials e (e-1) ... (e-gi+1), 0 where gi > e
            factor = math.prod(map(math.perm, exp, g))
            if factor:
                # exp - gamma is one-to-one on the terms kept, so no key repeats
                data[tuple(map(operator.sub, exp, g))] = c * factor
        return type(self)(self.nvars, data)

    def substitute(self, images: Sequence["Poly"], nvars_out: int) -> "Poly":
        """Replace variable i by images[i]; all images live in nvars_out variables.

        One loop over the terms: each multiplies in images[v] ** e, expanded
        once per (v, e) and kept as a term list, and the term images are
        summed into one dict.  A zero image has no terms, so every term that
        uses its variable drops out.
        """
        if len(images) != self.nvars:
            raise ValueError(
                f"need {self.nvars} images, got {len(images)}"
            )
        for img in images:
            if img.nvars != nvars_out:
                raise ValueError("image arity differs from nvars_out")
        powers: dict[tuple[int, int], list] = {}
        one = (0,) * nvars_out

        def term_images() -> Iterator[tuple[ExpVec, Fraction]]:
            for exp, c in self._terms.items():
                partial = {one: c}
                for v, e in enumerate(exp):
                    if not e:
                        continue
                    factor = powers.get((v, e))
                    if factor is None:
                        factor = powers[v, e] = list((images[v] ** e)._terms.items())
                    partial = _summed(_products(partial.items(), factor))
                yield from partial.items()

        return Poly._trusted(nvars_out, _summed(term_images()))

    # -- evaluation ----------------------------------------------------------

    def eval_complex(self, point: Sequence[complex]) -> complex:
        """Double-precision evaluation at a complex point."""
        if len(point) != self.nvars:
            raise ValueError("point arity differs from nvars")
        pts = [complex(p) for p in point]
        for p in pts:
            if not (math.isfinite(p.real) and math.isfinite(p.imag)):
                raise ValueError("non-finite input coordinate")
        total = 0j
        for exp, c in self._terms.items():
            term = complex(float(c))
            for p, e in zip(pts, exp):
                if e:
                    term *= p ** e
            total += term
        return total

    # -- serialization ---------------------------------------------------------

    @classmethod
    def from_json(cls, obj: dict) -> "Poly":
        """Read the `to_json` layout; every malformed input raises ValueError.

        A regular document, such as every one `to_json` writes, is read in
        column passes (`_column_terms`).  Any other document, one that
        repeats an exponent included, goes through the row loop
        (`_row_terms`), which sums the rows per exponent and names the first
        bad row.  `nvars >= 1` is tested after the rows, so a bad row is
        reported first, as building `Poly(nvars, terms)` would.
        """
        if not isinstance(obj, dict):
            raise ValueError("polynomial JSON must be an object")
        nvars = obj.get("nvars")
        if not _is_json_int(nvars):
            raise ValueError("polynomial JSON needs an integer 'nvars'")
        basis = obj.get("basis", "plain")
        if basis not in ("plain", "normalized"):
            raise ValueError(f"unknown basis {_brief(basis)}")
        normalized = basis == "normalized"
        rows = obj.get("terms", [])
        terms = _column_terms(rows, nvars, normalized)
        if terms is None:
            terms = _row_terms(rows, nvars, normalized)
        if nvars < 1:
            raise ValueError("nvars must be >= 1")
        if not all(terms.values()):
            terms = {exp: c for exp, c in terms.items() if c}
        return cls._trusted(nvars, terms)


def _rows_poly(n: int, rows, scale: int = 1, ratios: dict | None = None) -> Poly:
    """The polynomial of counted rows (beta, beta!, total): y^beta with
    coefficient total / (scale * beta!), inserted in row order.

    `ratios` holds the Fraction of each (total, beta!) made so far; callers
    that build several polynomials at one scale pass one table to all.
    """
    if ratios is None:
        ratios = {}
    data = {}
    for beta, fact, total in rows:
        c = ratios.get((total, fact))
        if c is None:
            c = ratios[total, fact] = Fraction(total, scale * fact)
        data[beta] = c
    return Poly._trusted(n, data)


_EXP, _NUM, _DEN, _COEFF = map(operator.itemgetter, ("exp", "num", "den", "coeff"))


def _from_num_den(num, den, fact: int) -> Fraction:
    return Fraction(int_text(num), int_text(den) * fact)


def _from_coeff(coeff, fact: int) -> Fraction:
    return json_rational(coeff, _COEFFICIENTS) / fact


def _column_terms(rows, nvars: int, normalized: bool) -> dict | None:
    """The terms of a regular document, read in column passes, or None.

    Regular: a nonempty list of rows that are all {"exp", "num", "den"} or
    all {"exp", "coeff"}, every exp a list of nvars >= 1 ints (bools are
    not ints here), none negative, and every number an int or a string.
    The exponent lists are flattened into one column for the type and sign
    checks, and exp! is taken per row only in the normalized basis.  A
    repeated exponent, a bad number string or a zero denominator also
    answers None, so that the row loop sums the rows or names the first bad
    one.
    """
    if type(rows) is not list or not rows or nvars < 1 or set(map(type, rows)) != {dict}:
        return None
    sizes = set(map(len, rows))
    try:
        exps = list(map(_EXP, rows))
        if sizes == {3}:
            columns, make = [list(map(_NUM, rows)), list(map(_DEN, rows))], _from_num_den
        elif sizes == {2}:
            columns, make = [list(map(_COEFF, rows))], _from_coeff
        else:
            return None
    except KeyError:
        return None
    if set(map(type, exps)) != {list} or set(map(len, exps)) != {nvars}:
        return None
    flat = list(itertools.chain.from_iterable(exps))
    if set(map(type, flat)) != {int} or min(flat) < 0:
        return None
    if not set(map(type, itertools.chain(*columns))) <= {int, str}:
        return None
    # zip over nvars references to one iterator cuts a column into rows
    if normalized:
        facts = map(math.prod, zip(*[iter(map(math.factorial, flat))] * nvars))
    else:
        facts = itertools.repeat(1)
    coeffs = list(zip(*columns, facts))
    ratios = dict.fromkeys(coeffs)
    try:
        for key in ratios:
            ratios[key] = make(*key)
    except (ValueError, ZeroDivisionError):
        return None
    terms = dict(zip(zip(*[iter(flat)] * nvars), map(ratios.__getitem__, coeffs)))
    return terms if len(terms) == len(rows) else None


def _row_terms(rows, nvars: int, normalized: bool) -> dict[ExpVec, Fraction]:
    """The summed terms of any document, row by row; the first bad row raises."""
    pairs = []
    try:
        for row in rows:
            exp = row["exp"]
            if isinstance(exp, list):
                exp = json_ints(exp, "exponent entries must be integers, got {}")
            exp = _checked_exponent(exp, nvars)
            fact = vec_factorial(exp) if normalized else 1
            if "num" in row:
                # JSON integers or integer strings, as `to_json` writes them
                num, den = row["num"], row.get("den", "1")
                if not (isinstance(num, str) or _is_json_int(num)) or not (
                    isinstance(den, str) or _is_json_int(den)
                ):
                    raise ValueError(_COEFFICIENTS)
                num, den = int_text(num), int_text(den)
                if not den:
                    raise ValueError("coefficient denominator must be nonzero")
                c = Fraction(num, den * fact)
            elif "coeff" in row:
                c = _from_coeff(row["coeff"], fact)
            else:
                raise ValueError("term needs 'num'/'den' or 'coeff'")
            pairs.append((exp, c))
    except (TypeError, KeyError, ZeroDivisionError) as exc:
        raise ValueError(str(exc)) from exc
    return _summed(pairs)


def elementary_symmetric(nvars: int, degree: int) -> Poly:
    """Sum of all squarefree monomials of the given degree in nvars variables."""
    if not 0 <= degree <= nvars:
        raise ValueError(f"degree {degree} outside 0..{nvars}")
    if nvars < 1:
        raise ValueError("nvars must be >= 1")
    one = Fraction(1)
    terms = {}
    for combo in itertools.combinations(range(nvars), degree):
        exp = [0] * nvars
        for i in combo:
            exp[i] = 1
        terms[tuple(exp)] = one
    return Poly._trusted(nvars, terms)


class FloatPoly(PolyCore):
    """Finite-float companion of `Poly`; read-mostly, no ring operations."""

    @staticmethod
    def _coerce(value) -> float:
        out = float(value)
        if not math.isfinite(out):
            raise ValueError(f"finite coefficient required, got {out}")
        return out

    _zero = 0.0
    _ratio = operator.truediv
    _term_json = staticmethod(_float_term_json)
    _row_format = staticmethod(_float_row_format)

    derivative_multi = Poly.derivative_multi

    def __repr__(self) -> str:
        return f"FloatPoly({len(self._terms)} terms, nvars={self.nvars})"
