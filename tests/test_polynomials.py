import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lormatch import ANY_DEGREE, FloatPoly, Poly, elementary_symmetric
from lormatch import polynomials
from lormatch._util import grlex_key, vec_factorial
from lormatch.polynomials import _column_terms, _rows_poly
from oracles import eval_exact, float_poly_from, poly_from_json_two_pass, substitute_literal


def _coeffs():
    return st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def polys(draw, max_vars=3, max_deg=3, max_terms=5, min_vars=1):
    nvars = draw(st.integers(min_vars, max_vars))
    exps = st.tuples(*([st.integers(0, max_deg)] * nvars))
    terms = draw(st.dictionaries(exps, _coeffs(), max_size=max_terms))
    return Poly(nvars, terms)


@st.composite
def poly_pairs(draw, max_vars=3, max_deg=2, max_terms=3):
    nvars = draw(st.integers(1, max_vars))
    exps = st.tuples(*([st.integers(0, max_deg)] * nvars))
    terms = st.dictionaries(exps, _coeffs(), max_size=max_terms)
    return Poly(nvars, draw(terms)), Poly(nvars, draw(terms))


@st.composite
def substitutions(draw):
    """A polynomial and one image per variable: zero, constant, monomial or
    several terms, all in the same few output variables."""
    f = draw(polys(max_terms=4))
    nvars_out = draw(st.integers(1, 3))
    exps = st.tuples(*([st.integers(0, 2)] * nvars_out))
    images = []
    for _ in range(f.nvars):
        kind = draw(st.sampled_from(["zero", "constant", "monomial", "terms"]))
        if kind == "zero":
            images.append(Poly.zero(nvars_out))
        elif kind == "constant":
            images.append(Poly.constant(nvars_out, draw(_coeffs())))
        elif kind == "monomial":
            images.append(Poly.monomial(nvars_out, draw(exps), draw(_coeffs())))
        else:
            terms = draw(st.dictionaries(exps, _coeffs(), min_size=2, max_size=3))
            images.append(Poly(nvars_out, terms))
    return f, images, nvars_out


class TestConstruction:
    def test_zero_terms_pruned(self):
        f = Poly(2, {(1, 0): Fraction(0), (0, 1): 3})
        assert f.support() == {(0, 1)}

    def test_variable_and_monomial(self):
        assert Poly.variable(3, 1) == Poly.monomial(3, (0, 1, 0))
        assert Poly.monomial(2, (1, 2), Fraction(3, 4)).coefficient((1, 2)) == Fraction(3, 4)

    def test_constant(self):
        one = Poly.constant(2, 1)
        assert one.homogeneous_degree() == 0
        assert Poly.constant(2, 0) == Poly.zero(2)

    def test_repeated_exponents_merge(self):
        assert Poly(1, [((1,), 1), ((1,), 2)]) == Poly(1, {(1,): 3})
        assert Poly(1, [((1,), 1), ((0,), 1), ((1,), -1)]) == Poly(1, {(0,): 1})

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError, match="FloatPoly"):
            Poly(1, {(1,): 0.5})

    def test_bad_exponent_rejected(self):
        with pytest.raises(ValueError):
            Poly(2, {(1,): 1})
        with pytest.raises(ValueError):
            Poly(2, {(-1, 0): 1})


class TestArithmetic:
    @given(poly_pairs())
    def test_add_commutes(self, pair):
        f, g = pair
        assert f + g == g + f

    @given(poly_pairs(max_vars=2))
    def test_mul_commutes(self, pair):
        f, g = pair
        assert f * g == g * f

    @given(polys(max_vars=2, max_deg=2, max_terms=3))
    def test_pow_matches_repeated_mul(self, f):
        assert f**3 == f * f * f
        assert f**0 == Poly.constant(f.nvars, 1)

    @pytest.mark.parametrize("e", range(7))
    def test_pow_multiplies_up(self, monkeypatch, e):
        # e products by f: no power above f^e is built
        f = Poly(2, {(1, 0): 1, (0, 1): Fraction(1, 2), (0, 0): 3})
        product = Poly.constant(2, 1)
        for _ in range(e):
            product = product * f
        calls = []
        mul = Poly.__mul__

        def counting(self, other):
            calls.append(other)
            return mul(self, other)

        monkeypatch.setattr(Poly, "__mul__", counting)
        assert f**e == product
        assert len(calls) <= e

    @given(polys())
    def test_sub_self_is_zero(self, f):
        assert f - f == Poly.zero(f.nvars)

    def test_scale(self):
        f = Poly(1, {(2,): 3})
        assert f.scale(Fraction(1, 3)) == Poly(1, {(2,): 1})

    def test_distributive_example(self):
        x, y = Poly.variable(2, 0), Poly.variable(2, 1)
        assert (x + y) * (x - y) == x * x - y * y


class TestCalculusAndStructure:
    def test_derivative_falling_factorial(self):
        f = Poly(1, {(3,): 1})
        assert f.derivative_multi((2,)) == Poly(1, {(1,): 6})
        assert f.derivative_multi((4,)) == Poly.zero(1)

    @given(polys(max_vars=2, max_deg=3, max_terms=4, min_vars=2))
    def test_derivative_iterates(self, f):
        step = f.derivative_multi((1, 0)).derivative_multi((0, 1))
        assert step == f.derivative_multi((1, 1))

    def test_homogeneous_degree(self):
        assert Poly.zero(2).homogeneous_degree() is ANY_DEGREE
        assert Poly(2, {(1, 1): 1}).homogeneous_degree() == 2
        assert Poly(2, {(1, 0): 1, (1, 1): 1}).homogeneous_degree() is None

    def test_multiaffine_part(self):
        f = Poly(2, {(1, 1): 2, (2, 0): 5, (0, 1): 7})
        assert f.multiaffine_part() == Poly(2, {(1, 1): 2, (0, 1): 7})

    def test_normalized_coeff(self):
        f = Poly(2, {(2, 1): Fraction(1, 2)})
        assert f.normalized_coeff((2, 1)) == Fraction(1, 2) * 2
        assert f.coefficient((0, 0)) == 0

    def test_substitute_linear(self):
        # x1 -> y1 + y2, x2 -> y2 applied to x1 x2
        f = Poly(2, {(1, 1): 1})
        images = [Poly(2, {(1, 0): 1, (0, 1): 1}), Poly(2, {(0, 1): 1})]
        assert f.substitute(images, 2) == Poly(2, {(1, 1): 1, (0, 2): 1})

    def test_substitute_zero_image_kills_terms(self):
        f = Poly(2, {(1, 1): 1, (0, 2): 1})
        images = [Poly.zero(1), Poly.variable(1, 0)]
        assert f.substitute(images, 1) == Poly(1, {(2,): 1})

    @given(substitutions())
    # x1 -> y1 and x2 -> -y1 cancel, and x3 -> 0 drops x3^2: the image is 0
    @example(
        (
            Poly(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 2): 1}),
            [Poly.variable(1, 0), -Poly.variable(1, 0), Poly.zero(1)],
            1,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_substitute_against_literal(self, case):
        f, images, nvars_out = case
        assert f.substitute(images, nvars_out) == substitute_literal(f, images, nvars_out)

    def test_eval_exact(self):
        f = Poly(2, {(1, 1): 2, (2, 0): 1})
        assert eval_exact(f, [Fraction(1, 2), 3]) == 3 + Fraction(1, 4)

    def test_eval_complex(self):
        f = Poly(1, {(2,): 1})
        assert abs(f.eval_complex([1j]) + 1) < 1e-12


# small exponents only, so a normalized basis never asks for a large factorial
_JSON_LEAF = (
    st.none()
    | st.booleans()
    | st.integers(-2, 4)
    | st.sampled_from([0.0, 1.0, 1.5, -0.5])
    | st.sampled_from(["1", "1/2", "-3", "2/0", "x", "", "plain", "normalized"])
)
_JSON_KEYS = st.sampled_from(["nvars", "basis", "terms", "exp", "num", "den", "coeff"])
_ANY_JSON = st.recursive(
    _JSON_LEAF,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_JSON_KEYS, inner, max_size=4),
    max_leaves=8,
)


@st.composite
def _poly_documents(draw):
    """Generic JSON, or documents of the polynomial layout with bad cells."""
    if draw(st.booleans()):
        return draw(_ANY_JSON)
    nvars = draw(st.integers(1, 3) | _JSON_LEAF)
    width = nvars if type(nvars) is int and 1 <= nvars <= 3 else 2
    exp = st.lists(st.integers(0, 3), min_size=width, max_size=width)
    term = st.fixed_dictionaries(
        {"exp": exp | st.lists(_JSON_LEAF, max_size=3)},
        optional={"num": _JSON_LEAF, "den": _JSON_LEAF, "coeff": _JSON_LEAF},
    )
    doc = {"nvars": nvars, "terms": draw(st.lists(term | _ANY_JSON, max_size=3))}
    if draw(st.booleans()):
        doc["basis"] = draw(st.sampled_from(["plain", "normalized"]) | _JSON_LEAF)
    return doc


_MUTATIONS = [
    None, "bool-entry", "float-entry", "negative-entry", "wrong-length", "missing-key",
    "zero-den", "repeated-exp", "second-form", "bool-coeff", "float-coeff",
]


def _regular_document(basis, form, mutation):
    """240 rows of one coefficient form, then one row changed by `mutation`."""
    rng = random.Random(f"{basis}:{form}:{mutation}")
    nvars = 6
    rows = []
    for exp in rng.sample(sorted(itertools.product(range(3), repeat=nvars)), 240):
        # zero numerators too: their terms are dropped after the read
        num, den = rng.randint(-4, 4), rng.randint(1, 6)
        row = {"exp": list(exp)}
        if form == "num-den-str":
            row.update(num=str(num), den=str(den))
        elif form == "num-den-int":
            row.update(num=num, den=den)
        else:
            row["coeff"] = num if form == "coeff-int" else f"{num}/{den}"
        rows.append(row)
    row, other = rng.sample(rows, 2)
    entry = rng.randrange(nvars)
    if mutation in ("bool-entry", "float-entry", "negative-entry"):
        row["exp"][entry] = {"bool-entry": True, "float-entry": 1.0, "negative-entry": -1}[mutation]
    elif mutation == "wrong-length":
        row["exp"].append(0)
    elif mutation == "missing-key":
        del row[rng.choice(sorted(row))]
    elif mutation == "zero-den":
        if "coeff" in row:
            row["coeff"] = "1/0"
        else:
            row["den"] = 0 if form == "num-den-int" else "0"
    elif mutation == "repeated-exp":
        row["exp"] = list(other["exp"])
    elif mutation == "second-form":
        if "coeff" in row:
            row.update(num="3", den="2")
            del row["coeff"]
        else:
            row.update(coeff=2)
            del row["num"], row["den"]
    elif mutation in ("bool-coeff", "float-coeff"):
        row["coeff" if "coeff" in row else "num"] = True if mutation == "bool-coeff" else 0.5
    return {"nvars": nvars, "basis": basis, "terms": rows}


class TestJson:
    @given(polys())
    def test_round_trip_plain(self, f):
        assert Poly.from_json(f.to_json()) == f

    @given(polys())
    def test_round_trip_normalized(self, f):
        assert Poly.from_json(f.to_json("normalized")) == f

    def test_coeff_field_accepted(self):
        data = {"nvars": 2, "terms": [{"exp": [1, 0], "coeff": "1/2"}, {"exp": [0, 1], "coeff": 2}]}
        assert Poly.from_json(data) == Poly(2, {(1, 0): Fraction(1, 2), (0, 1): 2})

    def test_float_json_rejected(self):
        with pytest.raises(ValueError):
            Poly.from_json({"nvars": 1, "terms": [{"exp": [1], "coeff": 0.5}]})
        with pytest.raises(ValueError):
            Poly.from_json({"nvars": 1, "terms": [{"exp": [1], "num": 1.5}]})

    @pytest.mark.parametrize(
        "doc",
        [
            {"nvars": 1, "terms": [{"exp": [1.5], "coeff": 1}]},
            {"nvars": 1, "terms": [{"exp": [1.0], "coeff": 1}]},
            {"nvars": 2, "terms": [{"exp": [True, 1], "coeff": 1}]},
            {"nvars": 1.0, "terms": [{"exp": [1], "coeff": 1}]},
            {"nvars": True, "terms": [{"exp": [1], "coeff": 1}]},
            {"nvars": 1, "terms": [{"exp": [1], "num": "1", "den": 0}]},
            {"nvars": 1, "terms": [{"exp": [1], "num": 1, "den": "0"}]},
        ],
    )
    def test_non_integer_counts_and_zero_denominators_rejected(self, doc):
        with pytest.raises(ValueError):
            Poly.from_json(doc)

    @given(_poly_documents())
    @example({"nvars": 1, "terms": [{"exp": [1], "num": 1, "den": 0}]})
    @example({"nvars": 1, "terms": [5]})
    @settings(max_examples=400, deadline=None)
    def test_from_json_fuzz(self, doc):
        try:
            f = Poly.from_json(doc)
        except ValueError:
            return
        assert Poly.from_json(f.to_json()) == f
        assert Poly.from_json(f.to_json("normalized")) == f

    @pytest.mark.parametrize(
        "doc, expected",
        [
            # duplicate exponents are summed, and a sum that cancels is dropped
            (
                {"nvars": 2, "terms": [{"exp": [1, 0], "coeff": 1}, {"exp": [0, 1], "coeff": 2}, {"exp": [1, 0], "coeff": -1}]},
                [((0, 1), Fraction(2))],
            ),
            # a sum that cancels midway keeps its first place in the term order
            (
                {"nvars": 2, "terms": [{"exp": [1, 0], "coeff": 1}, {"exp": [1, 0], "coeff": -1}, {"exp": [0, 1], "coeff": 1}, {"exp": [1, 0], "num": "2"}]},
                [((1, 0), Fraction(2)), ((0, 1), Fraction(1))],
            ),
            ({"nvars": 1, "terms": [{"exp": [2], "coeff": "1/2"}, {"exp": [2], "num": -1, "den": 2}]}, []),
            (
                {"nvars": 2, "basis": "normalized", "terms": [{"exp": [2, 1], "num": "3", "den": "4"}, {"exp": [0, 3], "num": -1, "den": -3}]},
                [((2, 1), Fraction(3, 8)), ((0, 3), Fraction(1, 18))],
            ),
            (
                {"nvars": 2, "basis": "normalized", "terms": [{"exp": [3, 0], "coeff": "1/3"}, {"exp": [0, 2], "coeff": 5}, {"exp": [3, 0], "coeff": "0.5"}]},
                [((3, 0), Fraction(5, 36)), ((0, 2), Fraction(5, 2))],
            ),
            # rows are read before nvars >= 1 is checked
            ({"nvars": 0, "terms": [{"exp": [1], "coeff": 1}]}, "exponent (1,) has length 1, expected 0"),
            ({"nvars": 0, "terms": [{"exp": [], "coeff": 0.5}]}, "coefficients must be integers or strings"),
            ({"nvars": 0, "terms": [{"exp": [], "coeff": 1}]}, "nvars must be >= 1"),
            ({"nvars": -1, "terms": [{"exp": [], "coeff": 1}]}, "exponent () has length 0, expected -1"),
            ({"nvars": 0, "terms": [{"exp": "", "coeff": 1}]}, "nvars must be >= 1"),
            ({"nvars": 1, "terms": [{"exp": "1", "coeff": 1}]}, "'str' object cannot be interpreted as an integer"),
            ({"nvars": 1, "terms": [{"exp": [-1], "coeff": 1}]}, "negative entry in exponent (-1,)"),
            # the id names the input, the rational 1/0, not the message
            pytest.param(
                {"nvars": 1, "terms": [{"exp": [1], "coeff": "1/0"}]},
                "expected a nonzero denominator, got '1/0'",
                id="doc12-Fraction(1, 0)",
            ),
            ({"nvars": 1, "terms": [{"exp": [1]}]}, "term needs 'num'/'den' or 'coeff'"),
            ({"nvars": 1, "terms": [{"coeff": 1}]}, "'exp'"),
            # JSON true is a bool, not the coefficient 1
            ({"nvars": 1, "terms": [{"exp": [2], "coeff": True}]}, "coefficients must be integers or strings"),
            ({"nvars": 1, "terms": [{"exp": [2], "num": True}]}, "coefficients must be integers or strings"),
            ({"nvars": 1, "terms": [{"exp": [2], "num": 1, "den": True}]}, "coefficients must be integers or strings"),
            # number strings are ASCII digits: no Unicode digits, "_" or padding
            ({"nvars": 1, "terms": [{"exp": [2], "num": "\u0663"}]}, "expected an integer string such as \"-12\", got '\u0663'"),
            ({"nvars": 1, "terms": [{"exp": [2], "num": 3, "den": " 1_0 "}]}, "expected an integer string such as \"-12\", got ' 1_0 '"),
            ({"nvars": 1, "terms": [{"exp": [2], "coeff": " 3/1_0"}]}, "expected a rational string such as \"-3/2\" or \"0.5\", got ' 3/1_0'"),
            ({"nvars": 1, "terms": [{"exp": [2], "coeff": "1e3"}]}, "expected a rational string such as \"-3/2\" or \"0.5\", got '1e3'"),
            ({"nvars": 1, "terms": [{"exp": [2], "num": "-3", "den": "010"}]}, [((2,), Fraction(-3, 10))]),
            # a coefficient read on an earlier row does not let a bool or a
            # zero denominator through, and exp! is part of what repeats
            ({"nvars": 1, "terms": [{"exp": [1], "num": 1}, {"exp": [2], "num": True}]}, "coefficients must be integers or strings"),
            ({"nvars": 1, "terms": [{"exp": [1], "coeff": 1}, {"exp": [2], "coeff": True}]}, "coefficients must be integers or strings"),
            ({"nvars": 1, "terms": [{"exp": [1], "num": "1", "den": 1}, {"exp": [2], "num": "1", "den": True}]}, "coefficients must be integers or strings"),
            ({"nvars": 1, "terms": [{"exp": [1], "num": "1", "den": 2}, {"exp": [2], "num": "1", "den": 0}]}, "coefficient denominator must be nonzero"),
            (
                {"nvars": 1, "basis": "normalized", "terms": [{"exp": [2], "num": "1"}, {"exp": [3], "num": "1"}, {"exp": [4], "coeff": 1}, {"exp": [2], "coeff": "1/1"}]},
                [((2,), Fraction(1)), ((3,), Fraction(1, 6)), ((4,), Fraction(1, 24))],
            ),
            # an exponent row of the wrong kind takes the per-entry checks
            ({"nvars": 2, "terms": [{"exp": [1, 0], "coeff": 1}, {"exp": (1, 0), "coeff": 1}]}, [((1, 0), Fraction(2))]),
            ({"nvars": 2, "terms": [{"exp": [1, 0], "coeff": 1}, {"exp": [1, True], "coeff": 1}]}, "exponent entries must be integers, got [1, True]"),
        ],
    )
    def test_from_json_goldens(self, doc, expected):
        self._same_as_two_pass(doc)
        if isinstance(expected, str):
            with pytest.raises(ValueError) as info:
                Poly.from_json(doc)
            assert str(info.value) == expected
        else:
            assert list(Poly.from_json(doc).items()) == expected

    def test_large_normalized_exponent_among_small_rows(self):
        # exp! of 30,000 is computed as is; no factorial table grows with it
        doc = {
            "nvars": 2,
            "basis": "normalized",
            "terms": [
                {"exp": [1, 2], "coeff": 1},
                {"exp": [30000, 0], "num": "3", "den": "2"},
                {"exp": [0, 3], "coeff": "1/2"},
                {"exp": [1, 2], "num": 1},
            ],
        }
        self._same_as_two_pass(doc)
        assert Poly.from_json(doc).coefficient((30000, 0)) == Fraction(3, 2 * math.factorial(30000))

    @given(_poly_documents())
    @settings(max_examples=300, deadline=None)
    def test_from_json_matches_two_pass(self, doc):
        self._same_as_two_pass(doc)

    @pytest.mark.parametrize("mutation", _MUTATIONS)
    @pytest.mark.parametrize("form", ["num-den-str", "num-den-int", "coeff-int", "coeff-str"])
    @pytest.mark.parametrize("basis", ["plain", "normalized"])
    def test_column_reader_matches_two_pass(self, basis, form, mutation):
        # 240 rows: the column pass reads the regular documents, and one bad
        # or irregular row, or a repeated exponent, hands the whole document
        # to the row loop
        doc = _regular_document(basis, form, mutation)
        engaged = _column_terms(doc["terms"], doc["nvars"], basis == "normalized") is not None
        assert engaged == (mutation is None)
        self._same_as_two_pass(doc)

    @staticmethod
    def _same_as_two_pass(doc):
        """Same terms in the same order, or the same ValueError text."""
        try:
            want = poly_from_json_two_pass(doc)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                Poly.from_json(doc)
            assert str(info.value) == str(exc)
            return
        got = Poly.from_json(doc)
        assert got.nvars == want.nvars
        assert list(got.items()) == list(want.items())

    def test_terms_sorted_graded_lex(self):
        f = Poly(2, {(0, 2): 1, (1, 0): 1, (2, 0): 1})
        exps = [tuple(t["exp"]) for t in f.to_json()["terms"]]
        assert exps == [(1, 0), (0, 2), (2, 0)]


@st.composite
def counted_rows(draw, nvars):
    """Rows (beta, beta!, total) with distinct betas and nonzero totals."""
    betas = draw(st.lists(st.tuples(*[st.integers(0, 3)] * nvars), unique=True, max_size=8))
    totals = st.integers(-6, 6).filter(bool)
    return [(beta, vec_factorial(beta), draw(totals)) for beta in betas]


class TestRowsPoly:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_rows_against_checked_construction(self, data):
        nvars = data.draw(st.integers(1, 3))
        rows = data.draw(counted_rows(nvars))
        scale = data.draw(st.integers(1, 12))
        f = _rows_poly(nvars, rows, scale)
        want = Poly(nvars, {beta: Fraction(total, scale * fact) for beta, fact, total in rows})
        assert f == want
        # in row order
        assert list(f.items()) == list(want.items())

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_one_table_gives_one_object_per_key(self, data):
        nvars = data.draw(st.integers(1, 3))
        first, second = data.draw(counted_rows(nvars)), data.draw(counted_rows(nvars))
        scale = data.draw(st.integers(1, 12))
        ratios: dict = {}
        made: dict = {}
        for rows in (first, second):
            f = _rows_poly(nvars, rows, scale, ratios)
            for beta, fact, total in rows:
                assert f.coefficient(beta) is made.setdefault((total, fact), f.coefficient(beta))


class TestElementarySymmetric:
    def test_counts(self):
        f = elementary_symmetric(4, 2)
        assert len(f.support()) == 6
        assert f.homogeneous_degree() == 2
        assert all(c == 1 for _, c in f.items())

    def test_extremes(self):
        assert elementary_symmetric(3, 0) == Poly.constant(3, 1)
        assert elementary_symmetric(3, 3) == Poly(3, {(1, 1, 1): 1})
        with pytest.raises(ValueError, match=r"degree 3 outside 0\.\.2"):
            elementary_symmetric(2, 3)
        with pytest.raises(ValueError, match=r"degree -1 outside 0\.\.2"):
            elementary_symmetric(2, -1)
        with pytest.raises(ValueError, match="nvars must be >= 1"):
            elementary_symmetric(0, 0)

    @pytest.mark.parametrize("nvars", range(1, 8))
    def test_matches_checked_construction(self, nvars):
        for degree in range(nvars + 1):
            combos = itertools.combinations(range(nvars), degree)
            checked = Poly(
                nvars, {tuple(int(i in combo) for i in range(nvars)): 1 for combo in combos}
            )
            f = elementary_symmetric(nvars, degree)
            assert f == checked
            assert f.to_json() == checked.to_json()
            assert {type(c) for _, c in f.items()} == {Fraction}


class TestFloatPoly:
    def test_from_poly(self):
        f = Poly(2, {(1, 1): Fraction(1, 2)})
        fp = float_poly_from(f)
        assert fp.coefficient((1, 1)) == 0.5

    def test_exact_zero_pruned(self):
        fp = FloatPoly(1, {(1,): 0.0, (2,): 1.0})
        assert fp.support() == {(2,)}

    def test_derivative(self):
        fp = FloatPoly(1, {(3,): 1.0})
        assert fp.derivative_multi((1,)).coefficient((2,)) == 3.0

    def test_normalized_coeff(self):
        fp = FloatPoly(1, {(3,): 0.5})
        assert math.isclose(fp.normalized_coeff((3,)), 3.0)

    def test_shares_the_exact_core(self):
        shared = (
            "__init__", "items", "sorted_terms", "_sorted_exponents", "support",
            "coefficient", "normalized_coeff", "__len__", "__bool__", "__eq__",
            "degree_profile", "homogeneous_degree", "derivative_multi", "to_json",
            "_json_text",
        )
        for name in shared:
            assert getattr(FloatPoly, name) is getattr(Poly, name), name
        assert FloatPoly._trusted.__func__ is Poly._trusted.__func__
        assert not issubclass(FloatPoly, Poly) and not issubclass(Poly, FloatPoly)
        assert not isinstance(FloatPoly(1, {(1,): 1.0}), Poly)
        assert type(FloatPoly._trusted(1, {(1,): 0.5})) is FloatPoly

    def test_json_rows_carry_floats(self):
        fp = FloatPoly(2, {(0, 2): 0.25, (1, 0): 1.5})
        assert fp.to_json() == {
            "nvars": 2,
            "basis": "plain",
            "terms": [{"exp": [1, 0], "coeff": 1.5}, {"exp": [0, 2], "coeff": 0.25}],
        }
        assert fp.to_json("normalized")["terms"][1] == {"exp": [0, 2], "coeff": 0.5}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficients_refused(self, bad):
        with pytest.raises(ValueError, match="finite"):
            FloatPoly(2, {(2, 0): bad, (1, 1): 1.0})

    def test_kinds_do_not_mix(self):
        exact = Poly(1, {(1,): 1})
        floating = FloatPoly(1, {(1,): 1.0})
        with pytest.raises(TypeError):
            exact + floating
        with pytest.raises(TypeError):
            floating + exact
        assert (exact == floating) is False
        assert (floating == exact) is False
        assert float_poly_from(exact) == floating
        assert isinstance(floating.derivative_multi((1,)), FloatPoly)


# exponent entries: mostly single digits, sometimes two or three digits
_ENTRIES = st.one_of(st.integers(0, 3), st.integers(0, 12), st.integers(0, 300))
_BIG = 10**300
_EXACT_VALUES = st.one_of(
    _coeffs(),
    st.integers(-_BIG, _BIG),
    st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, _BIG)),
)


def _canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@st.composite
def _exact_polys(draw):
    """Signed rationals and multi-hundred-digit numbers, mixed degrees, from
    the zero polynomial up; equal values are often held by distinct objects."""
    nvars = draw(st.integers(1, 4))
    exps = draw(st.sets(st.tuples(*[_ENTRIES] * nvars), max_size=12))
    pool = draw(st.lists(_EXACT_VALUES.filter(bool).map(Fraction), min_size=1, max_size=3))
    terms = {}
    for exp in exps:
        c = draw(st.sampled_from(pool))
        # a copy is equal to c but is another object
        terms[exp] = Fraction(c.numerator, c.denominator) if draw(st.booleans()) else c
    return Poly._trusted(nvars, terms)


@st.composite
def _float_polys(draw):
    """Float coefficients, NaN and the infinities too (held through `_trusted`,
    as `FloatPoly` refuses them at construction)."""
    nvars = draw(st.integers(1, 4))
    # exp! of these entries stays a finite float
    exps = draw(st.sets(st.tuples(*[st.integers(0, 12)] * nvars), max_size=12))
    values = st.floats(allow_nan=True, allow_infinity=True).filter(lambda c: c != 0)
    return FloatPoly._trusted(nvars, {exp: draw(values) for exp in exps})


class TestJsonText:
    """`_json_text` is `to_json` as canonical text, byte for byte."""

    @given(_exact_polys(), st.sampled_from(["plain", "normalized"]))
    @settings(max_examples=300)
    @example(Poly(1), "plain")
    @example(Poly(1, {(3,): Fraction(-7, 2)}), "normalized")
    @example(Poly(2, {(1, 0): Fraction(2, 3), (0, 1): Fraction(2, 3)}), "plain")
    # the route boundary of `_exponent_texts`: entries 0-9 take the bytes pass,
    # and one larger entry sends the whole polynomial to `json`
    @example(Poly(3, {(9, 9, 9): 1, (0, 1, 2): Fraction(-1, 2), (3, 0, 5): 7}), "plain")
    @example(Poly(3, {(9, 9, 9): 1, (0, 1, 2): Fraction(-1, 2), (3, 0, 5): 7}), "normalized")
    @example(Poly(3, {(10, 0, 0): 1, (0, 1, 2): 3, (1, 1, 1): 3}), "plain")
    @example(Poly(2, {(255, 0): 1, (4, 5): 2}), "plain")
    @example(Poly(2, {(0, 256): 1, (4, 5): 2}), "normalized")
    @example(Poly(2, {(255, 0): 1, (0, 256): 2}), "plain")
    # plain only: the normalized basis would take 3,000,000!
    @example(Poly(2, {(3_000_000, 1): 1, (1, 1): 2}), "plain")
    @example(Poly(1, {(0,): 1, (1,): 2, (7,): Fraction(1, 3), (9,): -1}), "plain")
    @example(Poly(1, {(0,): 1, (1,): 2, (7,): Fraction(1, 3), (9,): -1}), "normalized")
    @example(Poly.constant(3, Fraction(-5, 7)), "plain")
    @example(Poly.constant(1, 2), "normalized")
    def test_exact_rows_match_json(self, f, basis):
        assert f._json_text(basis) == _canonical(f.to_json(basis))

    @given(_float_polys(), st.sampled_from(["plain", "normalized"]))
    @settings(max_examples=300)
    @example(FloatPoly(1), "normalized")
    @example(FloatPoly._trusted(2, {(1, 0): math.nan, (0, 1): math.inf, (1, 1): -math.inf}), "plain")
    @example(FloatPoly._trusted(1, {(2,): math.nan, (3,): -math.inf}), "normalized")
    @example(FloatPoly(3, {(9, 0, 9): 0.5, (1, 2, 3): -2.0, (0, 0, 0): 1e300}), "plain")
    @example(FloatPoly(3, {(9, 0, 9): 0.5, (1, 2, 3): -2.0, (0, 0, 0): 1e300}), "normalized")
    def test_float_rows_match_json(self, f, basis):
        assert f._json_text(basis) == _canonical(f.to_json(basis))

    def test_route_by_largest_entry(self, monkeypatch):
        # with `json` gone, entries 0-9 still write (exact rows use no `json`),
        # and a single entry of 10 sends the polynomial to `json`
        digits = Poly(3, {(9, 9, 9): 1, (0, 1, 2): Fraction(-1, 2), (3, 0, 5): 7})
        ten = Poly(3, {(10, 0, 0): 1, (0, 1, 2): 3})
        expected = {basis: digits._json_text(basis) for basis in ("plain", "normalized")}

        class NoDumps:
            @staticmethod
            def dumps(*args, **kwargs):
                raise AssertionError("json.dumps called")

        monkeypatch.setattr(polynomials, "json", NoDumps)
        for basis, text in expected.items():
            assert digits._json_text(basis) == text
        with pytest.raises(AssertionError, match="json.dumps called"):
            ten._json_text()

    def test_unknown_basis_refused(self):
        with pytest.raises(ValueError, match="unknown basis"):
            Poly(1)._json_text("divided")

    @given(_exact_polys())
    def test_sorted_terms_are_graded_lex(self, f):
        assert f.sorted_terms() == sorted(f.items(), key=lambda term: grlex_key(term[0]))


def _literal_sum(pairs) -> dict:
    out = {}
    for exp, c in pairs:
        out[exp] = out.get(exp, 0) + c
    return {exp: c for exp, c in out.items() if c}


_SIGNS = st.sampled_from([Fraction(-2), Fraction(-1), Fraction(1), Fraction(2)])


@st.composite
def _cancelling_pairs(draw, nvars, coeffs, max_deg=2):
    """(exponent, coefficient) pairs, some exponents repeated with the
    coefficient negated, so that their sums cancel, in a shuffled order."""
    exps = st.tuples(*([st.integers(0, max_deg)] * nvars))
    pairs = draw(st.lists(st.tuples(exps, coeffs), max_size=5))
    if pairs:
        pairs += [(exp, -c) for exp, c in draw(st.lists(st.sampled_from(pairs), max_size=3))]
    return draw(st.permutations(pairs))


class TestOneSum:
    """Construction, `+`, `*`, `substitute` and the JSON row loop sum repeated
    exponents and store no zero coefficient, as a literal dict sum does."""

    @given(st.data(), st.sampled_from([Poly, FloatPoly]), st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_construction_is_the_literal_sum(self, data, kind, nvars):
        coeffs = _coeffs() if kind is Poly else st.floats(-4, 4)
        pairs = data.draw(_cancelling_pairs(nvars, coeffs))
        f = kind(nvars, pairs)
        assert dict(f.items()) == _literal_sum(pairs)
        assert all(c for _, c in f.items())

    @given(st.data(), st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_add_and_mul_are_literal_expansions(self, data, nvars):
        f = Poly(nvars, data.draw(_cancelling_pairs(nvars, _SIGNS, max_deg=1)))
        # g holds some of f's terms negated, so f + g cancels them
        negated = data.draw(st.lists(st.sampled_from(list(f.items())), max_size=3)) if f else []
        extra = data.draw(_cancelling_pairs(nvars, _SIGNS, max_deg=1))
        g = Poly(nvars, [(exp, -c) for exp, c in negated] + extra)
        products = (
            (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
            for e1, c1 in f.items()
            for e2, c2 in g.items()
        )
        assert dict((f + g).items()) == _literal_sum([*f.items(), *g.items()])
        assert dict((f * g).items()) == _literal_sum(products)
        assert all(c for _, c in (f + g).items()) and all(c for _, c in (f * g).items())

    def test_substitute_cancels_inside_a_term(self):
        # x1 x2 -> (y1 + y2)(y1 - y2): the partial product's y1 y2 cancels
        images = [Poly(2, {(1, 0): 1, (0, 1): 1}), Poly(2, {(1, 0): 1, (0, 1): -1})]
        got = Poly(2, {(1, 1): 1}).substitute(images, 2)
        assert dict(got.items()) == {(2, 0): 1, (0, 2): -1}

    @given(st.data(), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_substitute_with_negative_images(self, data, nvars, nvars_out):
        f = Poly(nvars, data.draw(_cancelling_pairs(nvars, _SIGNS)))
        images = [
            Poly(nvars_out, data.draw(_cancelling_pairs(nvars_out, _SIGNS, max_deg=1)))
            for _ in range(nvars)
        ]
        got = f.substitute(images, nvars_out)
        assert got == substitute_literal(f, images, nvars_out)
        assert all(c for _, c in got.items())

    @given(
        st.data(),
        st.integers(1, 3),
        st.sampled_from(["plain", "normalized"]),
        st.sampled_from(["num", "coeff"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_from_json_is_the_literal_sum_of_rows(self, data, nvars, basis, form):
        pairs = data.draw(_cancelling_pairs(nvars, _coeffs()))
        if form == "num":
            rows = [{"exp": list(e), "num": str(c.numerator), "den": str(c.denominator)} for e, c in pairs]
        else:
            rows = [{"exp": list(e), "coeff": str(c)} for e, c in pairs]
        f = Poly.from_json({"nvars": nvars, "basis": basis, "terms": rows})
        if basis == "normalized":
            pairs = [(e, c / vec_factorial(e)) for e, c in pairs]
        assert dict(f.items()) == _literal_sum(pairs)
        assert all(c for _, c in f.items())
