import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lormatch import (
    FloatPoly,
    Poly,
    SubsetSeq,
    certify_lorentzian,
    inducing_box,
    is_m_convex,
    power_box,
    quad_inertia,
    symbol_of,
    symmetric_inertia,
)
from lormatch._util import bounded_compositions, vec_factorial
from lormatch.lorentzian import _inertia

from oracles import (
    certify_literal,
    charpoly_inertia,
    float_poly_from,
    hessian_literal,
    m_convex_literal,
    m_convex_witness,
)

SIX_CYCLE = SubsetSeq(3, (frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3})))


@st.composite
def symmetric_matrices(draw, max_dim=4):
    n = draw(st.integers(1, max_dim))
    entries = st.integers(-3, 3)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = draw(entries)
            m[i][j] = v
            m[j][i] = v
    return m


@st.composite
def integer_symmetric_matrices(draw):
    # about half the draws have an all-zero diagonal, the case that needs the
    # x_i -> x_i + x_j congruence before the first pivot
    n = draw(st.integers(1, 7))
    zero_diagonal = draw(st.booleans())
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + (1 if zero_diagonal else 0), n):
            v = draw(st.integers(-5, 9))
            m[i][j] = v
            m[j][i] = v
    return m


@st.composite
def supports(draw, max_size=20):
    # random sets of lattice points with a fixed coordinate sum; with up to
    # 35 candidates in 4 variables they land on both sides of |S| = 2^n
    dim = draw(st.integers(2, 4))
    total = draw(st.integers(0, 4))
    pool = sorted(bounded_compositions(total, (total,) * dim))
    return draw(st.sets(st.sampled_from(pool), max_size=max_size))


@st.composite
def certify_inputs(draw):
    """(polynomial, tolerance) pairs that reach every verdict of certification."""
    nvars = draw(st.integers(1, 4))
    degree = draw(st.integers(0, 4))
    shape = draw(st.sampled_from(("product", "simplex", "subset")))
    pool = sorted(bounded_compositions(degree, (degree,) * nvars))
    weights = st.fractions(min_value=Fraction(1, 4), max_value=9, max_denominator=4)
    if shape == "product":
        # products of nonnegative linear forms are Lorentzian
        f = Poly.constant(nvars, 1)
        for _ in range(degree):
            form = draw(st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars))
            f = f * _linear_form(form)
        terms = dict(f.items())
    elif shape == "simplex":
        # a full simplex support is M-convex, so random weights reach the
        # Hessian sweep and often fail it
        terms = {e: draw(weights) for e in pool}
    else:
        supp = draw(st.sets(st.sampled_from(pool), min_size=1, max_size=20))
        terms = {e: draw(weights) for e in sorted(supp)}
    if terms and draw(st.integers(0, 9)) == 0:
        flip = draw(st.sampled_from(sorted(terms)))
        terms[flip] = -terms[flip]
    if draw(st.integers(0, 9)) == 0:
        terms[draw(st.sampled_from(sorted(bounded_compositions(degree + 1, (degree + 1,) * nvars))))] = Fraction(1)
    if draw(st.booleans()):
        return Poly(nvars, terms), None
    floats = {e: float(c) for e, c in terms.items()}
    if draw(st.booleans()):
        floats[(0,) * nvars] = floats.get((0,) * nvars, 0.0) + 1e-12
    return FloatPoly(nvars, floats), 1e-9


def _exponential(nvars, degree, bumps=()):
    """Every exponent of the degree with normalized coefficient 1, or the one
    given in bumps: each unbumped derivative has the all-ones Hessian."""
    normalized = dict.fromkeys(bounded_compositions(degree, (degree,) * nvars), 1)
    normalized.update(bumps)
    return Poly(nvars, {exp: Fraction(c, vec_factorial(exp)) for exp, c in normalized.items()})


def _linear_form(coeffs):
    nvars = len(coeffs)
    return Poly(
        nvars,
        {
            tuple(1 if k == i else 0 for k in range(nvars)): c
            for i, c in enumerate(coeffs)
            if c
        },
    )


class TestSymmetricInertia:
    def test_goldens(self):
        assert symmetric_inertia([[2]]).as_tuple() == (1, 0, 0)
        assert symmetric_inertia([[0, 1], [1, 0]]).as_tuple() == (1, 1, 0)
        assert symmetric_inertia([[0, 0], [0, 0]]).as_tuple() == (0, 0, 2)
        assert symmetric_inertia([[0, 1, 1], [1, 0, 1], [1, 1, 1]]).as_tuple() == (1, 2, 0)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            symmetric_inertia([[0, 1], [2, 0]])

    def test_float_entries_need_tolerance(self):
        with pytest.raises(TypeError, match="tolerance"):
            symmetric_inertia([[0.5]])
        assert symmetric_inertia([[0.5]], tol=1e-9).as_tuple() == (1, 0, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_refused(self, bad):
        # a NaN passes every comparison as False, so unchecked it reads as zero
        with pytest.raises(ValueError, match="finite"):
            symmetric_inertia([[bad, 1.0], [1.0, 0.0]], tol=1e-9)

    def test_float_tolerance_goldens(self):
        # the Schur complement 5e-10 sits below tol; its Bareiss-scaled entry
        # 1000 * 5e-10 does not, so the test must scale tol by the last pivot
        near_singular = [[1000.0, 1000.0], [1000.0, 1000.0 + 5e-10]]
        assert symmetric_inertia(near_singular, tol=1e-9).as_tuple() == (1, 0, 1)
        # a negligible diagonal with a live off-diagonal entry: the
        # x_i -> x_i + x_j congruence makes a pivot
        flat_diagonal = [[1e-12, 1, 0], [1, -1e-12, 2], [0, 2, 1e-13]]
        assert symmetric_inertia(flat_diagonal, tol=1e-9).as_tuple() == (1, 1, 1)

    @given(symmetric_matrices())
    @settings(max_examples=300, deadline=None)
    def test_exact_matches_charpoly(self, matrix):
        assert symmetric_inertia(matrix).as_tuple() == charpoly_inertia(matrix)

    @given(symmetric_matrices())
    @settings(max_examples=150, deadline=None)
    def test_float_matches_exact(self, matrix):
        floated = [[float(v) for v in row] for row in matrix]
        assert symmetric_inertia(floated, tol=1e-9).as_tuple() == charpoly_inertia(matrix)


class TestIntInertia:
    def test_goldens(self):
        assert _inertia([[0, 1], [1, 0]]) == (1, 1, 0)
        assert _inertia([[0, 0], [0, 0]]) == (0, 0, 2)
        assert _inertia([[4, 2], [2, 1]]) == (1, 0, 1)

    @given(integer_symmetric_matrices())
    @example([[0, 1, 2, 0], [1, 0, 0, 3], [2, 0, 0, -1], [0, 3, -1, 0]])
    # after the first pivot the trailing diagonal vanishes
    @example([[1, 1, 1], [1, 1, 0], [1, 0, 1]])
    @settings(max_examples=400, deadline=None)
    def test_matches_fraction_route(self, matrix):
        assert _inertia([row[:] for row in matrix]) == charpoly_inertia(matrix)


class TestQuadInertia:
    def test_goldens(self):
        assert quad_inertia(Poly(2, {(1, 1): 1})).as_tuple() == (1, 1, 0)
        assert quad_inertia(Poly(2, {(2, 0): 1, (0, 2): 1})).as_tuple() == (2, 0, 0)
        three = Poly(3, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1, (0, 0, 2): Fraction(1, 2)})
        assert quad_inertia(three).as_tuple() == (1, 2, 0)

    def test_zero_poly(self):
        assert quad_inertia(Poly.zero(3)).as_tuple() == (0, 0, 3)

    def test_non_quadratic_rejected(self):
        with pytest.raises(ValueError):
            quad_inertia(Poly(1, {(3,): 1}))

    def test_float_needs_tolerance(self):
        with pytest.raises(TypeError):
            quad_inertia(FloatPoly(2, {(1, 1): 1.0}))
        assert quad_inertia(FloatPoly(2, {(1, 1): 1.0}), tol=1e-9).as_tuple() == (1, 1, 0)


class TestMConvex:
    def test_goldens(self):
        ok, _ = is_m_convex({(1, 1, 0), (1, 0, 1), (0, 1, 1)})
        assert ok
        ok, pair = is_m_convex({(2, 0), (0, 2)})
        assert not ok and set(pair) == {(2, 0), (0, 2)}

    def test_empty_and_singleton(self):
        assert is_m_convex(set())[0]
        assert is_m_convex({(3, 0)})[0]

    def test_float_points_refused(self):
        # truncation would read these as (1, 0) and (0, 1), an M-convex pair
        with pytest.raises(TypeError):
            is_m_convex([(1.7, 0.2), (0.9, 1.0)])

    def test_mixed_degrees_rejected(self):
        with pytest.raises(ValueError):
            is_m_convex({(1, 0), (1, 1)})

    def test_dense_support_goldens(self):
        # 15 points in 3 variables: above 2^3, so the polymatroid route decides
        full = set(bounded_compositions(4, (4,) * 3))
        assert is_m_convex(full) == (True, None)
        full.discard((2, 1, 1))
        assert is_m_convex(full) == (False, ((1, 1, 2), (3, 0, 1)))

    @given(supports())
    @settings(max_examples=200, deadline=None)
    def test_against_literal_loop(self, supp):
        witness = m_convex_witness(supp)
        assert is_m_convex(supp) == (witness is None, witness)
        assert m_convex_literal(supp) == (witness is None)


class TestCertify:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_polynomial_not_certified(self, bad):
        with pytest.raises(ValueError, match="finite"):
            certify_lorentzian(FloatPoly(2, {(2, 0): bad, (1, 1): 1.0}), 1e-9)

    def test_zero_passes(self):
        report = certify_lorentzian(Poly.zero(3))
        assert report.verdict and report.checked_derivatives == 0

    def test_products_of_nonneg_linear_forms(self):
        f = _linear_form([1, 2, 0]) * _linear_form([0, 1, 1]) * _linear_form([1, 0, 3])
        report = certify_lorentzian(f)
        assert report.verdict

    def test_degree_below_two(self):
        assert certify_lorentzian(_linear_form([1, 2])).verdict
        assert certify_lorentzian(Poly.constant(2, 5)).verdict

    def test_non_homogeneous(self):
        report = certify_lorentzian(Poly(1, {(1,): 1, (2,): 1}))
        assert not report.verdict
        assert report.failure.kind == "non-homogeneous"
        assert report.failure.exponents == ((1,), (2,))

    def test_negative_coefficient(self):
        report = certify_lorentzian(Poly(2, {(1, 1): -1}))
        assert not report.verdict
        assert report.failure.kind == "negative-coefficient"

    def test_negative_witness_is_first_in_grlex_order(self):
        f = Poly(2, {(2, 0): -1, (1, 1): 1, (0, 2): -2})
        assert certify_lorentzian(f).failure.exponents == ((0, 2),)
        g = FloatPoly(2, {(2, 0): -1.0, (1, 1): -1e-12, (0, 2): 1.0})
        # the float path cuts at the tolerance, so (1, 1) does not count
        assert certify_lorentzian(g, tol=1e-9).failure.exponents == ((2, 0),)

    def test_gapped_support(self):
        report = certify_lorentzian(Poly(2, {(2, 0): 1, (0, 2): 1}))
        assert not report.verdict
        assert report.failure.kind == "support-not-M-convex"

    def test_bad_inertia_and_first_gamma(self):
        # every cubic derivative here has a positive-definite Hessian
        f = Poly(2, {(3, 0): 1, (2, 1): 1, (1, 2): 1, (0, 3): 1})
        report = certify_lorentzian(f)
        assert not report.verdict
        assert report.failure.kind == "bad-inertia"
        assert report.failure.derivative == (0, 1)  # lexicographically first

    def test_failure_kind_vocabulary(self):
        kinds = set()
        for f in (
            Poly(1, {(1,): 1, (2,): 1}),
            Poly(2, {(1, 1): -1}),
            Poly(2, {(2, 0): 1, (0, 2): 1}),
            Poly(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1}),
        ):
            report = certify_lorentzian(f)
            assert not report.verdict
            kinds.add(report.failure.kind)
        assert kinds == {
            "non-homogeneous",
            "negative-coefficient",
            "support-not-M-convex",
            "bad-inertia",
        }

    def test_relabeling_invariance(self):
        f = _linear_form([1, 2, 3]) * _linear_form([3, 1, 0])
        # swap variables 1 and 3
        swapped = Poly(
            3, {(e[2], e[1], e[0]): c for e, c in f.items()}
        )
        assert certify_lorentzian(f).verdict == certify_lorentzian(swapped).verdict

    def test_disjoint_product(self):
        left = _linear_form([1, 1]) * _linear_form([2, 1])
        f = Poly(4, {e + (0, 0): c for e, c in left.items()}) * Poly(
            4, {(0, 0) + e: c for e, c in left.items()}
        )
        assert certify_lorentzian(f).verdict

    def test_derivative_closure(self):
        f = _linear_form([1, 2, 1]) * _linear_form([1, 0, 1]) * _linear_form([0, 1, 1])
        assert certify_lorentzian(f).verdict
        for gamma in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            g = f.derivative_multi(gamma)
            assert certify_lorentzian(g).verdict

    def test_float_path_prunes_below_tolerance(self):
        f = FloatPoly(2, {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0, (0, 0): 1e-12})
        assert certify_lorentzian(f, tol=1e-9).verdict
        with pytest.raises(TypeError):
            certify_lorentzian(f)

    @given(certify_inputs())
    @example((Poly(1, {(1,): 1, (2,): 1}), None))
    @example((Poly(2, {(1, 1): -1}), None))
    @example((FloatPoly(2, {(2, 0): 1.0, (0, 2): 1.0}), 1e-9))
    @example((FloatPoly(2, {(2, 0): 1.0, (1, 1): 1.0, (0, 2): 1.0}), 1e-9))
    @example((Poly(2, {(3, 0): 1, (2, 1): 1, (1, 2): 1, (0, 3): 1}), None))
    @settings(max_examples=300, deadline=None)
    def test_matches_literal_sweep(self, case):
        f, tol = case
        assert certify_lorentzian(f, tol).to_json() == certify_literal(f, tol).to_json()

    def test_report_json(self):
        data = certify_lorentzian(Poly(2, {(1, 1): 1})).to_json()
        assert data == {"lorentzian": True, "failure": None, "checked_derivatives": 1}

    @pytest.mark.parametrize("kappa", list(itertools.product((2, 3), repeat=3)), ids=str)
    def test_six_cycle_symbols_match_literal(self, kappa):
        symbol = symbol_of(inducing_box(SIX_CYCLE, kappa))
        assert certify_lorentzian(symbol).to_json() == certify_literal(symbol).to_json()

    @pytest.mark.parametrize("tol", [None, 1e-9])
    def test_first_failure_after_repeated_passing_hessians(self, tol):
        # the bump at (1, 5, 0) puts 2 on entries (0, 1) and (1, 0) of the
        # Hessian at gamma = (0, 4, 0), fifth in lexicographic order; the four
        # before share the all-ones Hessian, which differs from it off the
        # diagonal only
        f = _exponential(3, 6, {(1, 5, 0): 2})
        if tol is not None:
            f = float_poly_from(f)
        report = certify_lorentzian(f, tol)
        assert report.to_json() == certify_literal(f, tol).to_json()
        assert report.failure.derivative == (0, 4, 0)
        assert report.checked_derivatives == 5
        earlier = sorted(bounded_compositions(4, (4, 4, 4)))[:4]
        assert all(hessian_literal(f.derivative_multi(g)) == [[1] * 3] * 3 for g in earlier)

    def test_witness_with_exponents_above_ten(self):
        # exponent entries up to 12, so gammas are packed in radix 13; the only
        # failing gamma is the last one, (10, 0, 0)
        f = _exponential(3, 12, {(12, 0, 0): 2})
        report = certify_lorentzian(f)
        assert report.to_json() == certify_literal(f).to_json()
        assert report.failure.derivative == (10, 0, 0)
        assert report.checked_derivatives == 66

    @pytest.mark.parametrize("q", ["1/2", "0"])
    def test_power_box_symbol_matches_literal(self, q):
        symbol = symbol_of(power_box(inducing_box(SIX_CYCLE, (2, 2, 3)), q))
        assert isinstance(symbol, FloatPoly)
        assert certify_lorentzian(symbol, 1e-9).to_json() == certify_literal(symbol, 1e-9).to_json()

    def test_six_cycle_kappa_five_count(self):
        report = certify_lorentzian(symbol_of(inducing_box(SIX_CYCLE, (5, 5, 5))))
        assert report.verdict and report.checked_derivatives == 5130
