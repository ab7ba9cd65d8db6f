"""Sparse multivariate polynomials with exact rational coefficients.

A `Poly` maps exponent tuples to nonzero `fractions.Fraction` coefficients in
the plain monomial basis.  The normalized (divided-power) view, in which the
weight attached to an exponent vector ``a`` is ``a!`` times the plain
coefficient of ``x^a``, is exposed through `normalized_coeff` and understood
by the JSON codec.  All arithmetic is exact; `eval_complex` is the only
floating-point entry point.

`FloatPoly` holds float-coefficient data.  It reuses the read-only core of
`Poly` (construction, `_trusted`, access, equality, degrees,
`derivative_multi`, `to_json`) as the same function objects, which read the
coefficient kind from class attributes.  It is still a separate type and
not a subclass: the ring operations test `isinstance(.., Poly)` and the
operator-table check tests the image types, so exact and float data never
mix silently.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from ._util import _is_json_int, exact_rational, grlex_key, int_text, json_ints, json_rational
from ._util import vec_factorial

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
        raise ValueError(f"exponent {out} has length {len(out)}, expected {nvars}")
    if out and min(out) < 0:
        raise ValueError(f"negative entry in exponent {out}")
    return out


_COEFFICIENTS = "coefficients must be integers or strings"


def _exact_term_json(terms: Iterable[tuple[ExpVec, Fraction]]) -> list[dict]:
    return [
        {"exp": list(exp), "num": str(c.numerator), "den": str(c.denominator)}
        for exp, c in terms
    ]


def _float_term_json(terms: Iterable[tuple[ExpVec, float]]) -> list[dict]:
    return [{"exp": list(exp), "coeff": c} for exp, c in terms]


class Poly:
    """Immutable sparse polynomial in ``nvars`` variables over the rationals."""

    # coefficient kind, read by the members `FloatPoly` shares
    _coerce = staticmethod(_to_fraction)
    _zero = Fraction(0)
    _ratio = Fraction
    _term_json = staticmethod(_exact_term_json)

    def __init__(self, nvars: int, terms: Mapping | Iterable = ()) -> None:
        if nvars < 1:
            raise ValueError("nvars must be >= 1")
        self.nvars = nvars
        pairs = terms.items() if isinstance(terms, Mapping) else terms
        coerce = self._coerce
        data: dict = {}
        for exp, coeff in pairs:
            key = _checked_exponent(exp, nvars)
            c = coerce(coeff)
            if key in data:
                c = data[key] + c
            if c:
                data[key] = c
            else:
                data.pop(key, None)
        self._terms = data

    # -- constructors ------------------------------------------------------

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

    # -- access ------------------------------------------------------------

    def items(self) -> Iterator[tuple[ExpVec, Fraction]]:
        return iter(self._terms.items())

    def sorted_terms(self) -> list[tuple[ExpVec, Fraction]]:
        """Terms in graded-lexicographic order (the serialization order)."""
        return sorted(self._terms.items(), key=lambda kv: grlex_key(kv[0]))

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
        data = dict(self._terms)
        for exp, c in other._terms.items():
            s = data.get(exp, Fraction(0)) + c
            if s:
                data[exp] = s
            else:
                data.pop(exp, None)
        return Poly._trusted(self.nvars, data)

    def __neg__(self) -> "Poly":
        return Poly._trusted(self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            self._require_same_arity(other)
            data: dict[ExpVec, Fraction] = {}
            for e1, c1 in self._terms.items():
                for e2, c2 in other._terms.items():
                    key = tuple(a + b for a, b in zip(e1, e2))
                    s = data.get(key, Fraction(0)) + c1 * c2
                    if s:
                        data[key] = s
                    else:
                        data.pop(key, None)
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
        base = self
        k = power
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

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
        degrees = {sum(e) for e in self._terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def multiaffine_part(self) -> "Poly":
        """Terms whose exponents are all 0 or 1."""
        return Poly._trusted(
            self.nvars,
            {e: c for e, c in self._terms.items() if all(x <= 1 for x in e)},
        )

    def derivative_multi(self, gamma: Sequence[int]) -> "Poly":
        """Iterated partial derivative with multiplicities ``gamma``."""
        g = _checked_exponent(gamma, self.nvars)
        zero = self._zero
        data: dict = {}
        for exp, c in self._terms.items():
            if any(e < gi for e, gi in zip(exp, g)):
                continue
            factor = 1
            for e, gi in zip(exp, g):
                # falling factorial e * (e-1) * ... * (e-gi+1)
                for t in range(gi):
                    factor *= e - t
            key = tuple(e - gi for e, gi in zip(exp, g))
            data[key] = data.get(key, zero) + c * factor
        return type(self)(self.nvars, data)

    def substitute(self, images: Sequence["Poly"], nvars_out: int) -> "Poly":
        """Replace variable i by images[i]; all images live in nvars_out variables.

        One loop over the terms: each multiplies in images[v] ** e, expanded
        once per (v, e) and kept as a term list, and the products are summed
        into one dict.  A zero image has no terms, so every term that uses
        its variable drops out.
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
        data: dict[ExpVec, Fraction] = {}
        for exp, c in self._terms.items():
            partial = {one: c}
            for v, e in enumerate(exp):
                if not e:
                    continue
                factor = powers.get((v, e))
                if factor is None:
                    factor = powers[v, e] = list((images[v] ** e)._terms.items())
                product: dict[ExpVec, Fraction] = {}
                for e1, c1 in partial.items():
                    for e2, c2 in factor:
                        key = tuple(map(operator.add, e1, e2))
                        product[key] = product.get(key, 0) + c1 * c2
                partial = product
            for key, value in partial.items():
                data[key] = data.get(key, 0) + value
        return Poly._trusted(nvars_out, {key: c for key, c in data.items() if c})

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

    def to_json(self, basis: str = "plain") -> dict:
        """Rows of {"exp", "num", "den"}, or {"exp", "coeff"} for `FloatPoly`."""
        if basis not in ("plain", "normalized"):
            raise ValueError(f"unknown basis {basis!r}")
        terms = self.sorted_terms()
        if basis == "normalized":
            terms = [(exp, c * vec_factorial(exp)) for exp, c in terms]
        return {"nvars": self.nvars, "basis": basis, "terms": self._term_json(terms)}

    @classmethod
    def from_json(cls, obj: dict) -> "Poly":
        """Read the `to_json` layout; every malformed input raises ValueError.

        One pass: each row is checked once and the sums are wrapped by
        `_trusted`.  An exponent row that is a list of nvars nonnegative
        ints passes one C-level test; any other row goes through the
        per-entry checks, which name the first bad entry.  `nvars >= 1` is
        tested after the rows, so a bad row is reported first, as building
        `Poly(nvars, terms)` would.
        """
        if not isinstance(obj, dict):
            raise ValueError("polynomial JSON must be an object")
        nvars = obj.get("nvars")
        if not _is_json_int(nvars):
            raise ValueError("polynomial JSON needs an integer 'nvars'")
        basis = obj.get("basis", "plain")
        if basis not in ("plain", "normalized"):
            raise ValueError(f"unknown basis {basis!r}")
        normalized = basis == "normalized"
        terms: dict[ExpVec, Fraction] = {}
        # symbols repeat a few coefficients many times: one Fraction per
        # distinct (num, den, exp! or 1), its numbers read on the first row
        ratios: dict[tuple, Fraction] = {}
        try:
            for row in obj.get("terms", []):
                raw_exp = row["exp"]
                # one C-level test for the common row; `type` refuses bool
                if (
                    type(raw_exp) is list
                    and len(raw_exp) == nvars
                    and set(map(type, raw_exp)) == {int}
                    and min(raw_exp) >= 0
                ):
                    exp = tuple(raw_exp)
                else:
                    if isinstance(raw_exp, list):
                        raw_exp = json_ints(raw_exp, "exponent entries must be integers, got {}")
                    exp = _checked_exponent(raw_exp, nvars)
                if "num" in row:
                    # JSON integers or integer strings, as `to_json` writes them
                    num = row["num"]
                    den = row.get("den", "1")
                    if not (isinstance(num, str) or _is_json_int(num)) or not (
                        isinstance(den, str) or _is_json_int(den)
                    ):
                        raise ValueError(_COEFFICIENTS)
                elif "coeff" in row:
                    num, den = row["coeff"], 1
                    if type(num) is not int:
                        c = json_rational(num, _COEFFICIENTS)
                        num, den = c.numerator, c.denominator
                else:
                    raise ValueError("term needs 'num'/'den' or 'coeff'")
                # the types are checked, so a key never mixes up 1 and True
                key = (num, den, vec_factorial(exp) if normalized else 1)
                c = ratios.get(key)
                if c is None:
                    num, den = int_text(num), int_text(den)
                    if not den:
                        raise ValueError("coefficient denominator must be nonzero")
                    c = ratios[key] = Fraction(num, den * key[2])
                if exp in terms:
                    terms[exp] += c
                else:
                    terms[exp] = c
        except (TypeError, KeyError, ZeroDivisionError) as exc:
            raise ValueError(str(exc)) from exc
        if nvars < 1:
            raise ValueError("nvars must be >= 1")
        if not all(terms.values()):
            terms = {exp: c for exp, c in terms.items() if c}
        return cls._trusted(nvars, terms)


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


class FloatPoly:
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

    __init__ = Poly.__init__
    _trusted = vars(Poly)["_trusted"]
    items = Poly.items
    sorted_terms = Poly.sorted_terms
    support = Poly.support
    coefficient = Poly.coefficient
    normalized_coeff = Poly.normalized_coeff
    __len__ = Poly.__len__
    __bool__ = Poly.__bool__
    __eq__ = Poly.__eq__
    degree_profile = Poly.degree_profile
    homogeneous_degree = Poly.homogeneous_degree
    derivative_multi = Poly.derivative_multi
    to_json = Poly.to_json

    def __repr__(self) -> str:
        return f"FloatPoly({len(self._terms)} terms, nvars={self.nvars})"
