"""Acceptance run: every promised behavior at full scale, one line each.

Each test prints ``ACCEPTANCE <k> <label>: PASS`` (or FAIL) and enforces a
wall-clock budget.  Run with ``pytest tests/test_acceptance.py -s`` to see
the lines as they appear.
"""

import cmath
import contextlib
import math
import random
import time
from fractions import Fraction

from lormatch import (
    LinReal,
    Poly,
    SubsetSeq,
    TrialConfig,
    admits_matching,
    apply_inducing,
    apply_substitution,
    base_points,
    certify_lorentzian,
    compose_seq,
    elementary_symmetric,
    find_witness,
    free_polymatroid,
    hall_rado_member,
    inducing_box,
    is_m_convex,
    match_poly,
    quad_inertia,
    run_check,
    stat_table,
    symbol_of,
    uniform_matroid,
)
from oracles import charpoly_inertia, enumerate_matching, m_convex_literal

WIDE = SubsetSeq(4, (frozenset({1, 2, 3, 4}), frozenset({2, 3}), frozenset({3, 4})))
NARROW = SubsetSeq(2, (frozenset({1}), frozenset({2}), frozenset({1, 2})))
FULL_SCALE = TrialConfig()  # seed 1, trials 100, tolerance 1e-9


@contextlib.contextmanager
def criterion(num, label, budget):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget:
        print(f"ACCEPTANCE {num} {label}: FAIL (took {elapsed:.2f}s, budget {budget:g}s)")
        raise AssertionError(f"budget exceeded: {elapsed:.2f}s >= {budget:g}s")
    print(f"ACCEPTANCE {num} {label}: PASS ({elapsed:.2f}s)")


def _check_passes(num, label, name, expected_trials, budget):
    with criterion(num, label, budget):
        result = run_check(name, FULL_SCALE)
        assert result.trials == expected_trials
        assert result.passed, result.failures


def test_01_worked_example():
    with criterion(1, "degree-2 image and pair counts of the wide example", 1.0):
        image = apply_inducing(WIDE, elementary_symmetric(4, 2))
        want = Poly(
            3,
            {
                (2, 0, 0): 3,  # normalized coefficient 6
                (0, 2, 0): Fraction(1, 2),
                (0, 0, 2): Fraction(1, 2),
                (1, 1, 0): 5,
                (1, 0, 1): 5,
                (0, 1, 1): 3,
            },
        )
        assert image == want
        assert stat_table(WIDE, 2).rows == {(1, 2): 5, (1, 3): 5, (2, 3): 3}


def test_02_images_and_coefficient_identity():
    with criterion(2, "three-part images and the coefficient product identity", 1.0):
        x1x2 = Poly(2, {(1, 1): 1})
        induced = apply_inducing(NARROW, x1x2)
        assert induced == Poly(
            3, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1, (0, 0, 2): Fraction(1, 2)}
        )
        substituted = apply_substitution(NARROW, None, x1x2)
        assert substituted == Poly(
            3, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1, (0, 0, 2): 1}
        )
        rng = random.Random(20)
        for _ in range(20):
            # zero entries would break the matrix pattern, so draw from the
            # positive part of the nonnegative range
            a, b, c, d = (rng.randint(1, 9) for _ in range(4))
            weighted = apply_substitution(NARROW, [[a, 0, b], [0, c, d]], x1x2)
            assert weighted.coefficient((1, 1, 0)) * weighted.coefficient(
                (0, 0, 2)
            ) == weighted.coefficient((1, 0, 1)) * weighted.coefficient((0, 1, 1))
        assert induced.coefficient((1, 1, 0)) * induced.coefficient(
            (0, 0, 2)
        ) != induced.coefficient((1, 0, 1)) * induced.coefficient((0, 1, 1))


def test_03_symmetric_cubic_with_root_witness():
    with criterion(3, "symmetric cubic certifies yet has a boundary root", 1.0):
        tri = SubsetSeq(3, (frozenset({1, 2, 3}), frozenset({1, 2, 3}), frozenset({1, 2})))
        image = apply_inducing(tri, Poly(3, {(1, 1, 1): 1}))
        ysum = Poly(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
        y3 = Poly.variable(3, 2)
        assert image == (ysum**3 - y3**3).scale(Fraction(1, 6))
        assert certify_lorentzian(image).verdict
        z3 = cmath.exp(1j * math.pi / 12)
        z1 = (cmath.exp(3j * math.pi / 4) - z3) / 2
        point = [z1, z1, z3]
        assert all(p.imag > 0 for p in point)
        assert abs(image.eval_complex(point)) <= 1e-9


def test_04_composition_counterexample():
    with criterion(4, "one-step and two-step composition images differ", 1.0):
        stage1 = SubsetSeq(
            2, (frozenset({1}), frozenset({1}), frozenset({2}), frozenset({2}))
        )
        stage2 = SubsetSeq(4, (frozenset({1, 3}), frozenset({2, 4})))
        combined = compose_seq(stage1, stage2)
        assert combined == SubsetSeq(2, (frozenset({1, 2}), frozenset({1, 2})))
        x1x2 = Poly(2, {(1, 1): 1})
        direct = apply_inducing(combined, x1x2)
        staged = apply_inducing(stage2, apply_inducing(stage1, x1x2))
        assert direct == Poly(
            2, {(1, 1): 1, (2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2)}
        )
        assert staged == Poly(
            2, {(1, 1): 2, (2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2)}
        )


def test_05_matching_statistics_certify():
    _check_passes(
        5,
        "100 random sequences: every statistic certifies and bridges",
        "matching-stat-lorentzian",
        100,
        60.0,
    )


def test_06_symbol_support_and_coefficients():
    _check_passes(
        6,
        "50 random boxes: symbol support, coefficients, pointwise equivalence",
        "symbol-support-egf",
        50,
        120.0,
    )


def test_07_membership_dual_paths():
    _check_passes(
        7,
        "200 random membership queries agree along both paths",
        "base-membership-duality",
        200,
        60.0,
    )


def test_08_one_parameter_family():
    _check_passes(
        8,
        "20 random boxes: interpolated powers certify, endpoints exact",
        "coefficient-power-family",
        20,
        120.0,
    )


def test_09_support_equals_induced_base_points():
    _check_passes(
        9,
        "50 realizable sources: image support is the induced base-point set",
        "support-induction",
        50,
        60.0,
    )


def test_10_capped_feasibility():
    _check_passes(
        10,
        "capped feasibility agrees with bounded enumeration",
        "capped-matchings",
        100,
        30.0,
    )


def test_11_oracle_suite():
    with criterion(11, "library answers match the brute-force oracles", 60.0):
        rng = random.Random(11)

        for _ in range(300):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            seq = SubsetSeq(
                m,
                tuple(
                    frozenset(i for i in range(1, m + 1) if rng.random() < 0.5)
                    for _ in range(n)
                ),
            )
            total = rng.randint(0, 4)
            alpha = [0] * m
            for _ in range(total):
                alpha[rng.randrange(m)] += 1
            alpha = tuple(alpha)
            beta = [0] * n
            for _ in range(total):
                beta[rng.randrange(n)] += 1
            beta = tuple(beta)
            plans = enumerate_matching(seq, alpha, beta)
            assert admits_matching(seq, alpha, beta) == bool(plans)
            caps = {edge: rng.randint(0, 2) for edge in seq.edges() if rng.random() < 0.5}
            capped = enumerate_matching(seq, alpha, beta, caps)
            assert admits_matching(seq, alpha, beta, caps) == bool(capped)

        for _ in range(300):
            dim = rng.randint(1, 4)
            coeffs = {}
            for i in range(dim):
                for j in range(i, dim):
                    value = Fraction(rng.randint(-3, 3))
                    if value:
                        exp = [0] * dim
                        exp[i] += 1
                        exp[j] += 1
                        coeffs[tuple(exp)] = value
            quad = Poly(dim, coeffs)
            hessian = []
            for i in range(dim):
                row = []
                for j in range(dim):
                    gamma = [0] * dim
                    gamma[i] += 1
                    gamma[j] += 1
                    row.append(quad.derivative_multi(gamma).coefficient((0,) * dim))
                hessian.append(row)
            assert quad_inertia(quad).as_tuple() == charpoly_inertia(hessian)

        for _ in range(200):
            nvars = rng.randint(1, 4)
            degree = rng.randint(0, 3)
            pool = []
            point = [0] * nvars
            remaining = degree
            for i in range(nvars - 1):
                used = rng.randint(0, remaining)
                point[i] = used
                remaining -= used
            point[-1] = remaining
            pool = {tuple(point)}
            for _ in range(rng.randint(0, 5)):
                shifted = list(rng.choice(sorted(pool)))
                ups = [i for i in range(nvars)]
                downs = [i for i in range(nvars) if shifted[i] > 0]
                if not downs:
                    continue
                i = rng.choice(downs)
                j = rng.choice(ups)
                shifted[i] -= 1
                shifted[j] += 1
                pool.add(tuple(shifted))
            got, _ = is_m_convex(pool)
            assert got == m_convex_literal(pool)


def test_12_six_cycle_symbol_certifies():
    with criterion(12, "6-cycle inducing symbol at kappa (4,4,4) certifies", 10.0):
        six_cycle = SubsetSeq(3, (frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3})))
        symbol = symbol_of(inducing_box(six_cycle, (4, 4, 4)))
        report = certify_lorentzian(symbol).to_json()
        assert report == {"lorentzian": True, "failure": None, "checked_derivatives": 1950}


def test_13_base_points_follow_the_output():
    with criterion(13, "U(14,4) base points and a 13-window Hall-Rado query", 3.0):
        points = base_points(uniform_matroid(14, 4).underlying)
        assert len(points) == 1001
        assert all(set(p) <= {0, 1} and sum(p) == 4 for p in points)
        windows = SubsetSeq(
            13, tuple(frozenset({j, j % 13 + 1}) for j in range(1, 14))
        )
        delta = (2, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0)
        assert hall_rado_member(free_polymatroid(13, 3), windows, delta)


def _cyclic_windows(m):
    return SubsetSeq(m, tuple(frozenset({j, j % m + 1, (j + 1) % m + 1}) for j in range(1, m + 1)))


def test_14_panel_counts_on_twelve_windows():
    with criterion(14, "match_poly of 12 cyclic 3-windows at r = 6", 2.0):
        f = match_poly(_cyclic_windows(12), 6)
        assert len(f) == 924
        assert sum(c for _, c in f.items()) == 135162


def test_15_witness_on_three_hundred_windows():
    with criterion(15, "find_witness on 300 cyclic 3-windows, degrees 2", 0.5):
        witness = find_witness(_cyclic_windows(300), (2,) * 300, (2,) * 300)
        assert witness is not None


def test_16_four_part_symbol_certifies_at_kappa_five():
    with criterion(16, "4-part inducing symbol at kappa (5,5,5) certifies", 5.0):
        parts = ({1, 2}, {2, 3}, {1, 3}, {1, 2, 3})
        seq = SubsetSeq(3, tuple(frozenset(p) for p in parts))
        symbol = symbol_of(inducing_box(seq, (5, 5, 5)))
        report = certify_lorentzian(symbol).to_json()
        assert report == {"lorentzian": True, "failure": None, "checked_derivatives": 20385}


def test_17_inducing_image_on_twelve_windows():
    with criterion(17, "apply_inducing of e_6 on 12 cyclic 3-windows", 2.0):
        image = apply_inducing(_cyclic_windows(12), elementary_symmetric(12, 6))
        assert len(image) == 11140
        assert sum(c for _, c in image.items()) == Fraction(841067, 3)
        assert len(image.multiaffine_part()) == 924


def test_18_panel_counts_on_fourteen_windows():
    with criterion(18, "match_poly of 14 cyclic 3-windows at r = 7", 1.5):
        f = match_poly(_cyclic_windows(14), 7)
        assert len(f) == 3432
        assert sum(c for _, c in f.items()) == 1105150
