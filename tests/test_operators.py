import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lormatch import (
    FloatPoly,
    OperatorBox,
    Poly,
    SubsetSeq,
    apply_inducing,
    apply_substitution,
    augment_with_singletons,
    box_from_symbol,
    inducing_box,
    matched_degrees,
    power_box,
    substitution_box,
    symbol_of,
    tab_family_box,
)
from lormatch import operators
from lormatch._util import iter_box, vec_factorial
from lormatch.operators import _induce_by_sumsets
from lormatch.polynomials import elementary_symmetric
from oracles import apply_inducing_literal, matched_degrees_box, tab_family_via_symbol

NARROW = SubsetSeq(2, (frozenset({1}), frozenset({2}), frozenset({1, 2})))
WIDE = SubsetSeq(4, (frozenset({1, 2, 3, 4}), frozenset({2, 3}), frozenset({3, 4})))
X1X2 = Poly(2, {(1, 1): 1})
X1X2_OF_8 = Poly.monomial(8, (1, 1) + (0,) * 6)


@st.composite
def seqs(draw, max_m=3, max_n=3):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    sets = tuple(frozenset(draw(st.sets(st.integers(1, m)))) for _ in range(n))
    return SubsetSeq(m, sets)


@st.composite
def seq_kappa(draw, max_m=3, max_n=3, max_k=2):
    seq = draw(seqs(max_m, max_n))
    kappa = tuple(draw(st.integers(0, max_k)) for _ in range(seq.m))
    return seq, kappa


@st.composite
def seq_weights(draw, max_k=3):
    """A sequence, positive rational weights on exactly its edges, and a box."""
    seq, kappa = draw(seq_kappa(max_k=max_k))
    weight = st.fractions(min_value=Fraction(1, 6), max_value=5, max_denominator=6)
    matrix = [
        [draw(weight) if seq.has_edge(i, j) else 0 for j in range(1, seq.n + 1)]
        for i in range(1, seq.m + 1)
    ]
    return seq, matrix, kappa


@st.composite
def seq_poly(draw, max_m=4, max_n=4, max_e=2):
    """A sequence and a polynomial over its ground set with signed rational
    coefficients; terms may share a total degree, so their images overlap."""
    seq = draw(seqs(max_m, max_n))
    exps = st.tuples(*(st.integers(0, max_e) for _ in range(seq.m)))
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    terms = draw(st.dictionaries(exps, coeffs, max_size=4))
    return seq, Poly(seq.m, terms)


@st.composite
def seq_inhomogeneous(draw, max_m=4, max_n=4, max_e=2):
    """A sequence and a polynomial with nonzero signed rational coefficients
    on terms of at least two total degrees."""
    seq = draw(seqs(max_m, max_n))
    exps = st.tuples(*(st.integers(0, max_e) for _ in range(seq.m)))
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)
    terms = draw(
        st.dictionaries(exps, coeffs, min_size=2, max_size=6).filter(
            lambda t: len({sum(e) for e in t}) > 1
        )
    )
    return seq, Poly(seq.m, terms)


def _squarefree(m: int, degree: int) -> list[tuple[int, ...]]:
    return [tuple(int(i in chosen) for i in range(m)) for chosen in itertools.combinations(range(m), degree)]


def _weighted(m: int, degree: int, groups: int) -> Poly:
    """Every squarefree monomial of one degree, with `groups` distinct weights."""
    exps = _squarefree(m, degree)
    assert len(exps) > groups
    return Poly(m, {exp: k % groups + 1 for k, exp in enumerate(exps)})


@st.composite
def seq_multiaffine(draw, max_m=8, max_n=4):
    """A sequence (empty parts and elements in no part allowed) and a
    multi-affine polynomial: at each drawn degree, the constant included,
    every squarefree monomial with a signed rational weight from a short
    list, and sometimes a term or two dropped.  Drawing no degree gives the
    zero polynomial, and a weight of 0 drops its terms, so the draws fall on
    both sides of the bitset route's gate."""
    seq = draw(seqs(max_m, max_n))
    pool = draw(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6), min_size=1, max_size=3))
    terms = {}
    for degree in sorted(draw(st.sets(st.integers(0, seq.m), max_size=3))):
        for exp in _squarefree(seq.m, degree):
            terms[exp] = draw(st.sampled_from(pool))
    if terms and draw(st.booleans()):
        for exp in draw(st.sets(st.sampled_from(sorted(terms)), max_size=2)):
            del terms[exp]
    return seq, Poly(seq.m, terms)


def _windows(m: int) -> SubsetSeq:
    return SubsetSeq(m, tuple(frozenset({j, j % m + 1, (j + 1) % m + 1}) for j in range(1, m + 1)))


def _canonical(poly: Poly, basis: str) -> str:
    """The JSON text the command line prints for a polynomial."""
    return json.dumps(poly.to_json(basis), sort_keys=True, separators=(",", ":"))


def _in_grlex_order(poly: Poly) -> bool:
    return list(poly.items()) == poly.sorted_terms()


class TestApplyInducing:
    def test_narrow_golden(self):
        assert apply_inducing(NARROW, X1X2) == Poly(
            3,
            {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1, (0, 0, 2): Fraction(1, 2)},
        )

    def test_linearity(self):
        f = Poly(2, {(1, 1): 2, (2, 0): Fraction(1, 3)})
        split = apply_inducing(NARROW, Poly(2, {(1, 1): 2})) + apply_inducing(
            NARROW, Poly(2, {(2, 0): Fraction(1, 3)})
        )
        assert apply_inducing(NARROW, f) == split

    def test_zero_polynomial(self):
        assert apply_inducing(NARROW, Poly.zero(2)) == Poly.zero(3)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            apply_inducing(NARROW, FloatPoly(2, {(1, 1): 0.5}))

    @given(seq_poly())
    # x1 and -x2 cancel on y; the image is y^2 alone
    @example((SubsetSeq(2, (frozenset({1, 2}),)), Poly(2, {(1, 0): 1, (0, 1): -1, (2, 0): 1})))
    # exponents sharing their first two or three coordinates, all of
    # normalized weight 3, on overlapping images
    @example(
        (
            SubsetSeq(5, tuple(map(frozenset, ({1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 1})))),
            Poly(
                5,
                {
                    (1, 1, 1, 1, 0): 3,
                    (1, 1, 1, 0, 1): 3,
                    (1, 1, 0, 1, 1): 3,
                    (2, 1, 1, 0, 0): Fraction(3, 2),
                },
            ),
        )
    )
    # a shared prefix x1 x2 x3 with weights 1, -1 and 2: y1^3 y2 gets 1 - 1
    # and is dropped, y1^3 y3 keeps -1/6
    @example(
        (
            SubsetSeq(5, tuple(map(frozenset, ({1, 2, 3}, {4, 5}, {5})))),
            Poly(5, {(1, 1, 1, 1, 0): 1, (1, 1, 1, 0, 1): -1, (1, 1, 0, 1, 1): 2}),
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_against_literal(self, pair):
        seq, f = pair
        assert apply_inducing(seq, f) == apply_inducing_literal(seq, f)

    @given(seq_kappa())
    @settings(max_examples=80, deadline=None)
    def test_monomial_support_is_matched_degrees(self, pair):
        seq, alpha = pair
        image = apply_inducing(seq, Poly.monomial(seq.m, alpha))
        assert image.support() == matched_degrees(seq, alpha)
        for beta in image.support():
            # x^alpha = alpha! x^[alpha], so every surviving normalized
            # coefficient equals alpha!
            assert image.normalized_coeff(beta) == vec_factorial(alpha)

    @given(seq_kappa())
    @settings(max_examples=80, deadline=None)
    def test_normalized_coeffs_are_zero_one(self, pair):
        seq, alpha = pair
        # image of the normalized monomial has normalized coefficients in {0,1}
        image = apply_inducing(
            seq, Poly.monomial(seq.m, alpha, Fraction(1, vec_factorial(alpha)))
        )
        for beta in image.support():
            assert image.normalized_coeff(beta) == 1

    def test_degree_preserved(self):
        image = apply_inducing(WIDE, Poly(4, {(1, 1, 1, 0): 1}))
        assert image.homogeneous_degree() == 3

    @given(seq_poly(max_e=3))
    @settings(max_examples=80, deadline=None)
    def test_terms_built_in_grlex_order(self, pair):
        seq, f = pair
        assert _in_grlex_order(apply_inducing(seq, f))

    # degrees 4, 1 and 2; y1^3 y2 gets 1 - 1 and is dropped
    @example(
        (
            SubsetSeq(5, tuple(map(frozenset, ({1, 2, 3}, {4, 5}, {5})))),
            Poly(
                5,
                {
                    (1, 1, 1, 1, 0): 1,
                    (1, 1, 1, 0, 1): -1,
                    (1, 1, 0, 1, 1): 2,
                    (1, 0, 0, 0, 0): Fraction(-1, 2),
                    (0, 0, 0, 1, 1): Fraction(5, 3),
                },
            ),
        )
    )
    # x1 and x2 both land on y1 and cancel there; x1^2 keeps y1^2
    @example(
        (
            SubsetSeq(2, (frozenset({1, 2}),)),
            Poly(2, {(1, 0): Fraction(3, 4), (0, 1): Fraction(-3, 4), (2, 0): 1}),
        )
    )
    @given(seq_inhomogeneous())
    @settings(max_examples=120, deadline=None)
    def test_inhomogeneous_against_literal(self, pair):
        seq, f = pair
        image = apply_inducing(seq, f)
        literal = apply_inducing_literal(seq, f)
        assert image == literal
        for basis in ("plain", "normalized"):
            assert _canonical(image, basis) == _canonical(literal, basis)
        assert _in_grlex_order(image)


class TestInducingRoutes:
    """The bitset route of `apply_inducing` against the sumset walk and the
    literal operator, and the gate that picks between them."""

    # e_2 on 4 cyclic windows, with the constant and a part that is empty
    @example(
        (
            SubsetSeq(4, tuple(map(frozenset, ({1, 2}, {2, 3}, set(), {4, 1})))),
            elementary_symmetric(4, 2) + Poly.constant(4, 3),
        )
    )
    # element 3 lies in no part; weights -1/2 and 5/3 at degree 1
    @example(
        (
            SubsetSeq(3, tuple(map(frozenset, ({1}, {1, 2})))),
            Poly(3, {(1, 0, 0): Fraction(-1, 2), (0, 1, 0): Fraction(5, 3), (0, 0, 1): Fraction(5, 3)}),
        )
    )
    @given(seq_multiaffine())
    @settings(max_examples=150, deadline=None)
    def test_against_sumsets_and_literal(self, pair):
        seq, f = pair
        image = apply_inducing(seq, f)
        by_sumsets = _induce_by_sumsets(seq, f)
        literal = apply_inducing_literal(seq, f)
        assert image == by_sumsets == literal
        for basis in ("plain", "normalized"):
            assert _canonical(image, basis) == _canonical(by_sumsets, basis) == _canonical(literal, basis)
        assert _in_grlex_order(image)

    @pytest.mark.parametrize(
        "seq, f, route",
        [
            (_windows(16), elementary_symmetric(16, 2), "_multiset_walk"),
            (_windows(17), elementary_symmetric(17, 2), "_induce_by_sumsets"),
            (_windows(8), elementary_symmetric(8, 2), "_multiset_walk"),
            (_windows(8), elementary_symmetric(8, 2) - X1X2_OF_8 + Poly.monomial(8, (2,) + (0,) * 7), "_induce_by_sumsets"),
            (_windows(8), _weighted(8, 3, operators._INDUCE_GROUPS), "_multiset_walk"),
            (_windows(8), _weighted(8, 3, operators._INDUCE_GROUPS + 1), "_induce_by_sumsets"),
            (_windows(8), elementary_symmetric(8, 6), "_multiset_walk"),
            (_windows(8), elementary_symmetric(8, 7), "_induce_by_sumsets"),
            (_windows(8), elementary_symmetric(8, 2) - X1X2_OF_8, "_induce_by_sumsets"),
        ],
        ids=["m=16", "m=17", "entries-0-1", "an-entry-of-2", "G-groups", "G+1-groups", "degree-m-2", "degree-m-1", "one-term-missing"],
    )
    def test_route_gate(self, monkeypatch, seq, f, route):
        expected = _induce_by_sumsets(seq, f)
        ran = []
        for name in ("_multiset_walk", "_induce_by_sumsets"):
            real = getattr(operators, name)
            monkeypatch.setattr(operators, name, lambda *args, name=name, real=real: ran.append(name) or real(*args))
        image = apply_inducing(seq, f)
        assert set(ran) == {route}
        assert image == expected and list(image.items()) == list(expected.items())


class TestApplySubstitution:
    def test_default_weights(self):
        assert apply_substitution(NARROW, None, X1X2) == Poly(
            3, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1, (0, 0, 2): 1}
        )

    def test_pattern_enforced(self):
        with pytest.raises(ValueError):
            apply_substitution(NARROW, [[1, 1, 1], [0, 1, 1]], X1X2)  # (1,2) not an edge
        with pytest.raises(ValueError):
            apply_substitution(NARROW, [[0, 0, 1], [0, 1, 1]], X1X2)  # (1,1) zeroed

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            apply_substitution(NARROW, [[1, 0, -1], [0, 1, 1]], X1X2)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            apply_substitution(NARROW, [[1, 0, 0.5], [0, 1, 1]], X1X2)

    @given(seq_kappa())
    @settings(max_examples=60, deadline=None)
    def test_support_matches_inducing(self, pair):
        seq, alpha = pair
        f = Poly.monomial(seq.m, alpha)
        assert apply_substitution(seq, None, f).support() == apply_inducing(
            seq, f
        ).support()


class TestBoxes:
    def test_non_integer_kappa_refused(self):
        with pytest.raises(TypeError):
            inducing_box(SubsetSeq(1, (frozenset({1}),)), (1.5,))

    def test_inducing_box_golden(self):
        box = inducing_box(NARROW, (1, 1))
        assert box.image((1, 0)) == Poly(3, {(1, 0, 0): 1, (0, 0, 1): 1})
        assert box.image((0, 0)) == Poly.constant(3, 1)
        assert box.m == 2 and box.n_out == 3

    def test_box_validation(self):
        with pytest.raises(ValueError):
            OperatorBox((1,), 1, {(0,): Poly.zero(1)})  # missing (1,)
        with pytest.raises(ValueError):
            OperatorBox((1,), 1, {(0,): Poly.zero(2), (1,): Poly.zero(1)})

    def test_json_round_trip(self):
        box = inducing_box(NARROW, (1, 1))
        assert OperatorBox.from_json(box.to_json()) == box

    @pytest.mark.parametrize("n_out", [1.9, 1.0, True, "1"])
    def test_json_non_integer_n_out_refused(self, n_out):
        data = inducing_box(SubsetSeq(1, (frozenset({1}),)), (1,)).to_json()
        data["n_out"] = n_out
        with pytest.raises(ValueError, match="integer 'n_out'"):
            OperatorBox.from_json(data)

    @pytest.mark.parametrize("bad", [[True], [1.0], ["1"], 1])
    def test_json_non_integer_kappa_and_alpha_refused(self, bad):
        data = inducing_box(SubsetSeq(1, (frozenset({1}),)), (1,)).to_json()
        with pytest.raises(ValueError, match="integer 'kappa'"):
            OperatorBox.from_json({**data, "kappa": bad})
        data["table"][1]["alpha"] = bad
        with pytest.raises(ValueError, match="integer 'alpha'"):
            OperatorBox.from_json(data)

    @given(seq_kappa())
    @settings(max_examples=40, deadline=None)
    def test_table_agrees_with_apply(self, pair):
        seq, kappa = pair
        box = inducing_box(seq, kappa)
        for alpha in iter_box(kappa):
            expected = apply_inducing(
                seq, Poly.monomial(seq.m, alpha, Fraction(1, vec_factorial(alpha)))
            )
            assert box.image(alpha) == expected

    @given(seq_kappa())
    @settings(max_examples=60, deadline=None)
    def test_table_against_literal(self, pair):
        seq, kappa = pair
        box = inducing_box(seq, kappa)
        for alpha in iter_box(kappa):
            betas = matched_degrees_box(seq, alpha)
            assert box.image(alpha) == Poly(
                seq.n, {beta: Fraction(1, vec_factorial(beta)) for beta in betas}
            )

    @given(seq_kappa(max_m=3, max_n=4, max_k=3))
    @settings(max_examples=60, deadline=None)
    def test_images_built_in_grlex_order(self, pair):
        seq, kappa = pair
        assert all(map(_in_grlex_order, inducing_box(seq, kappa).table.values()))

    def test_substitution_box_expands_each_power_once(self, monkeypatch):
        calls = []
        power = Poly.__pow__

        def counted(self, e):
            calls.append(e)
            return power(self, e)

        monkeypatch.setattr(Poly, "__pow__", counted)
        cycle = SubsetSeq(4, tuple(frozenset(p) for p in ({1, 2}, {2, 3}, {3, 4}, {4, 1})))
        substitution_box(cycle, None, (3, 3, 3, 3))
        # one expansion per (variable, exponent): sum of (kappa_i + 1)
        assert len(calls) <= 16


class TestSymbol:
    def test_symbol_round_trip(self):
        box = inducing_box(NARROW, (1, 1))
        sym = symbol_of(box)
        assert box_from_symbol(sym, (1, 1), NARROW.n) == box

    @given(seq_kappa())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_random(self, pair):
        seq, kappa = pair
        box = inducing_box(seq, kappa)
        assert box_from_symbol(symbol_of(box), kappa, seq.n) == box

    def test_symbol_normalized_coefficients(self):
        # plain coefficient of y^beta u^mu must be kappa!/(beta! mu!)
        kappa = (1, 1)
        sym = symbol_of(inducing_box(NARROW, kappa))
        kfact = vec_factorial(kappa)
        for exp, c in sym.items():
            yexp, uexp = exp[: NARROW.n], exp[NARROW.n :]
            assert c == Fraction(kfact, vec_factorial(yexp) * vec_factorial(uexp))

    # Branden-Huh (2020): the symbol of T is T[(x+u)^kappa], where
    # (x+u)^kappa = sum over alpha <= kappa of C(kappa, alpha) x^alpha u^(kappa-alpha)
    @given(seq_kappa(max_k=3))
    @settings(max_examples=40, deadline=None)
    def test_inducing_symbol_is_image_of_seed(self, pair):
        seq, kappa = pair
        m = seq.m
        # u_i is element m+i, matched only to its own singleton part
        tracked = SubsetSeq(
            2 * m, seq.sets + tuple(frozenset({m + i}) for i in range(1, m + 1))
        )
        seed = Poly(
            2 * m,
            {
                alpha + tuple(k - a for k, a in zip(kappa, alpha)):
                math.prod(map(math.comb, kappa, alpha))
                for alpha in iter_box(kappa)
            },
        )
        assert symbol_of(inducing_box(seq, kappa)) == apply_inducing(tracked, seed)

    @given(seq_weights())
    @settings(max_examples=40, deadline=None)
    def test_substitution_symbol_is_product(self, case):
        seq, matrix, kappa = case
        n, m = seq.n, seq.m
        expected = Poly.constant(n + m, 1)
        for i in range(m):
            form = Poly.variable(n + m, n + i)
            for j in range(n):
                form = form + Poly.variable(n + m, j) * matrix[i][j]
            expected = expected * form ** kappa[i]
        assert symbol_of(substitution_box(seq, matrix, kappa)) == expected

    def test_float_symbol(self):
        box = OperatorBox((2,), 1, {a: FloatPoly(1, {a: 1.5}) for a in iter_box((2,))})
        sym = symbol_of(box)
        assert type(sym) is FloatPoly
        assert sym == FloatPoly(2, {(0, 2): 1.5, (1, 1): 3.0, (2, 0): 3.0})
        # kappa! / (kappa - alpha)! = 2 at alpha = (1,) takes 1e308 past the float range
        images = {(0,): 1.0, (1,): 1e308, (2,): 0.5}
        box = OperatorBox((2,), 1, {a: FloatPoly(1, {a: c}) for a, c in images.items()})
        with pytest.raises(ValueError, match="finite coefficient required, got inf"):
            symbol_of(box)

    def test_oversized_u_rejected(self):
        sym = Poly(3, {(0, 0, 2): 1})  # u exponent 2 > kappa = (1,)
        with pytest.raises(ValueError):
            box_from_symbol(sym, (1,), 2)


class TestPowerBox:
    def test_q_one_matches_input(self):
        box = substitution_box(NARROW, None, (1, 1))
        powered = power_box(box, 1)
        sym = symbol_of(box)
        fsym = symbol_of(powered)
        assert fsym.support() == sym.support()
        for exp in sym.support():
            assert abs(fsym.coefficient(exp) - float(sym.coefficient(exp))) < 1e-12

    def test_q_zero_support_only(self):
        sub = substitution_box(NARROW, None, (1, 1))
        powered = power_box(sub, 0)
        sym0 = symbol_of(powered)
        assert sym0.support() == symbol_of(inducing_box(NARROW, (1, 1))).support()
        for exp in sym0.support():
            assert abs(sym0.normalized_coeff(exp) - 1.0) < 1e-12

    def test_sqrt_coefficient(self):
        box = OperatorBox((1,), 1, {(0,): Poly.constant(1, 1), (1,): Poly(1, {(1,): 4})})
        powered = power_box(box, Fraction(1, 2))
        assert isinstance(powered, OperatorBox)
        assert all(isinstance(img, FloatPoly) for img in powered.table.values())
        assert powered.image((1,)).coefficient((1,)) == 2.0

    def test_q_out_of_range(self):
        box = inducing_box(NARROW, (1, 1))
        with pytest.raises(ValueError):
            power_box(box, 2)
        with pytest.raises(ValueError):
            power_box(box, Fraction(-1, 2))

    def test_table_kind_is_checked(self):
        mixed = {(0,): Poly.constant(1, 1), (1,): FloatPoly(1, {(1,): 1.0})}
        with pytest.raises(TypeError, match="all Poly or all FloatPoly"):
            OperatorBox((1,), 1, mixed)
        with pytest.raises(TypeError, match="all Poly or all FloatPoly"):
            OperatorBox((0,), 1, {(0,): "1"})
        floats = OperatorBox((0,), 1, {(0,): FloatPoly(1, {(0,): 1.0})})
        assert isinstance(symbol_of(floats), FloatPoly)

    def test_float_symbol_round_trip(self):
        # with kappa = (2, 2) every rescaling factor is a power of two, so
        # the float round trip is exact
        powered = power_box(inducing_box(NARROW, (2, 2)), Fraction(1, 3))
        back = box_from_symbol(symbol_of(powered), powered.kappa, powered.n_out)
        assert isinstance(back.image((0, 0)), FloatPoly)
        assert back == powered
        assert back.to_json() == powered.to_json()


class TestTabFamily:
    def test_augment_order(self):
        augmented = augment_with_singletons(NARROW)
        assert augmented.sets == (
            frozenset({1}),
            frozenset({2}),
            frozenset({1, 2}),
            frozenset({1}),
            frozenset({2}),
            frozenset({1}),
            frozenset({2}),
        )

    def test_endpoints(self):
        kappa = (1, 1)
        n_single = sum(len(s) for s in NARROW.sets)
        assert tab_family_box(NARROW, [1, 1, 1], [0] * n_single, kappa) == inducing_box(
            NARROW, kappa
        )
        assert tab_family_box(NARROW, [0, 0, 0], [1] * n_single, kappa) == substitution_box(
            NARROW, None, kappa
        )

    @given(seq_kappa(max_m=2, max_n=2, max_k=2))
    @settings(max_examples=25, deadline=None)
    def test_endpoints_random(self, pair):
        seq, kappa = pair
        n_single = sum(len(s) for s in seq.sets)
        assert tab_family_box(seq, [1] * seq.n, [0] * n_single, kappa) == inducing_box(
            seq, kappa
        )
        assert tab_family_box(seq, [0] * seq.n, [1] * n_single, kappa) == substitution_box(
            seq, None, kappa
        )

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_symbol_route(self, data):
        seq, kappa = data.draw(seq_kappa(max_m=2, max_n=2, max_k=2))
        weight = st.fractions(min_value=0, max_value=3, max_denominator=4)
        a = data.draw(st.lists(weight, min_size=seq.n, max_size=seq.n))
        n_single = sum(len(s) for s in seq.sets)
        b = data.draw(st.lists(weight, min_size=n_single, max_size=n_single))
        assert tab_family_box(seq, a, b, kappa) == tab_family_via_symbol(seq, a, b, kappa)

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            tab_family_box(NARROW, [1, 1], [0, 0, 0, 0], (1, 1))
        with pytest.raises(ValueError):
            tab_family_box(NARROW, [1, 1, 1], [0], (1, 1))
