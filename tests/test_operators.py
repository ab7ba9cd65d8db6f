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
from lormatch._util import iter_box, vec_factorial
from oracles import apply_inducing_literal

NARROW = SubsetSeq(2, (frozenset({1}), frozenset({2}), frozenset({1, 2})))
WIDE = SubsetSeq(4, (frozenset({1, 2, 3, 4}), frozenset({2, 3}), frozenset({3, 4})))
X1X2 = Poly(2, {(1, 1): 1})


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
def seq_poly(draw, max_m=4, max_n=4, max_e=2):
    """A sequence and a polynomial over its ground set with signed rational
    coefficients; terms may share a total degree, so their images overlap."""
    seq = draw(seqs(max_m, max_n))
    exps = st.tuples(*(st.integers(0, max_e) for _ in range(seq.m)))
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    terms = draw(st.dictionaries(exps, coeffs, max_size=4))
    return seq, Poly(seq.m, terms)


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

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            tab_family_box(NARROW, [1, 1], [0, 0, 0, 0], (1, 1))
        with pytest.raises(ValueError):
            tab_family_box(NARROW, [1, 1, 1], [0], (1, 1))
