import itertools
import operator
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lormatch import (
    AxiomViolation,
    InternalCheckError,
    LinReal,
    Matroid,
    Polymatroid,
    SubsetSeq,
    base_egf,
    base_points,
    direct_sum,
    free_polymatroid,
    hall_rado_member,
    in_base_polytope,
    induce_matroid,
    induce_polymatroid,
    linreal_induce,
    linreal_rank,
    matroid_bases,
    support_polymatroid,
    uniform_matroid,
    validate_polymatroid,
)
from lormatch import polymatroids
from lormatch.polymatroids import _walk_base_points, points_polymatroid
from lormatch.polynomials import FloatPoly, Poly

from oracles import (
    base_points_literal,
    first_axiom_violation_literal,
    induce_matroid_literal,
    m_convex_literal,
    points_rank_literal,
    polymatroid_axioms_literal,
    rank_literal,
)

WIDE = SubsetSeq(4, (frozenset({1, 2, 3, 4}), frozenset({2, 3}), frozenset({3, 4})))
# entries from these up need 2- and 3-byte fields in a packed table
WIDE_ENTRIES = (128, 1 << 15)


@st.composite
def linreals(draw, max_blocks=3, max_dim=2, max_rows=3):
    blocks = draw(st.integers(1, max_blocks))
    dims = tuple(draw(st.integers(1, max_dim)) for _ in range(blocks))
    rows = draw(st.integers(0, max_rows))
    ncols = sum(dims)
    gens = tuple(
        tuple(Fraction(draw(st.integers(-2, 2))) for _ in range(ncols))
        for _ in range(rows)
    )
    return LinReal(dims, gens)


@st.composite
def fractional_linreals(draw):
    """Up to 6 blocks of width 0-3 and up to 5 rows of fractional and zero entries;
    some rows combine two earlier ones, so that ranks drop."""
    dims = tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=6)))
    cell = st.just(Fraction(0)) | st.fractions(-4, 4, max_denominator=6)
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        if rows and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c, d = draw(cell), draw(cell)
            rows.append(tuple(c * x + d * y for x, y in zip(a, b)))
        else:
            rows.append(draw(st.tuples(*[cell] * sum(dims))))
    return LinReal(dims, tuple(rows))


@st.composite
def covering_seqs(draw, m, max_n=3):
    n = draw(st.integers(1, max_n))
    sets = [
        set(draw(st.sets(st.integers(1, m)))) for _ in range(n)
    ]
    for e in range(1, m + 1):
        if not any(e in s for s in sets):
            sets[draw(st.integers(0, n - 1))].add(e)
    return SubsetSeq(m, tuple(frozenset(s) for s in sets))


@st.composite
def walk_sources(draw):
    """Realizable ranks, their inductions, free direct sums, uniform matroids."""
    family = draw(st.sampled_from(["linreal", "induced", "free-sum", "uniform"]))
    if family == "linreal":
        return linreal_rank(draw(linreals()))
    if family == "induced":
        pm = linreal_rank(draw(linreals()))
        return induce_polymatroid(pm, draw(covering_seqs(pm.m)))
    if family == "free-sum":
        sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        return direct_sum([free_polymatroid(k, draw(st.integers(0, 3))) for k in sizes])
    m = draw(st.integers(1, 6))
    return uniform_matroid(m, draw(st.integers(0, m))).underlying


@st.composite
def derived_tables(draw, depth=2):
    """Tables built by the library without re-validation, m <= 6."""
    family = draw(
        st.sampled_from(
            ["free", "uniform", "linear", "sum", "induced", "matroid"]
            if depth
            else ["free", "uniform", "linear"]
        )
    )
    if family == "free":
        return free_polymatroid(draw(st.integers(1, 4)), draw(st.integers(0, 3)))
    if family == "uniform":
        m = draw(st.integers(1, 5))
        return uniform_matroid(m, draw(st.integers(0, m))).underlying
    if family == "linear":
        return linreal_rank(draw(linreals()))
    if family == "sum":
        parts = draw(st.lists(derived_tables(depth - 1), min_size=1, max_size=3))
        if sum(p.m for p in parts) > 6:
            parts = parts[:1]
        return direct_sum(parts)
    source = draw(derived_tables(depth - 1))
    seq = draw(covering_seqs(source.m, max_n=4))
    if family == "induced":
        return induce_polymatroid(source, seq)
    return induce_matroid(source, seq).underlying


@st.composite
def coverage_tables(draw):
    """Weighted coverage ranks, sometimes truncated: rank(S) = min(cap, the
    weight of the union of the sets of the elements in S), m <= 6."""
    m = draw(st.integers(1, 6))
    weights = draw(st.lists(st.integers(0, 3), min_size=1, max_size=5))
    covers = [draw(st.sets(st.integers(0, len(weights) - 1))) for _ in range(m)]
    table = [
        sum(weights[k] for k in set().union(*(covers[i] for i in range(m) if mask >> i & 1)))
        for mask in range(1 << m)
    ]
    if draw(st.booleans()):
        cap = draw(st.integers(0, table[-1]))
        table = [min(v, cap) for v in table]
    return Polymatroid._derived(m, table)


@st.composite
def nudged_tables(draw):
    """A valid table with m <= 6, as it is or with one nonempty set's rank
    moved by 1 (`test_axiom_names` covers the empty set)."""
    pm = draw(derived_tables() | coverage_tables())
    table = list(pm.rank)
    if draw(st.booleans()):
        table[draw(st.integers(1, len(table) - 1))] += draw(st.sampled_from((-1, 1)))
    return pm.m, tuple(table)


@st.composite
def point_sets(draw):
    """Base sets of library polymatroids, kept, cut, grown, or with one point
    moved by e_j - e_i, sometimes past zero."""
    pts = sorted(base_points(draw(derived_tables(depth=1))))
    nvars = len(pts[0])
    change = draw(st.sampled_from(["keep", "drop", "add", "move", "negative"]))
    if change == "drop" and len(pts) > 1:
        pts.pop(draw(st.integers(0, len(pts) - 1)))
    elif change == "add":
        pts.append(tuple(draw(st.integers(0, 3)) for _ in range(nvars)))
    elif change in ("move", "negative") and nvars > 1:
        k = draw(st.integers(0, len(pts) - 1))
        i, j = draw(st.permutations(range(nvars)))[:2]
        p = list(pts[k])
        shift = p[i] + 1 if change == "negative" else 1
        p[i] -= shift
        p[j] += shift
        pts[k] = tuple(p)
    return frozenset(pts), nvars


def _shifted(pm: Polymatroid, c: int) -> Polymatroid:
    """pm plus c on every element, r(S) + c|S|: a polymatroid whose base
    points are pm's with c added to every coordinate."""
    return Polymatroid._derived(pm.m, [v + c * mask.bit_count() for mask, v in enumerate(pm.rank)])


@st.composite
def capped_walks(draw):
    """A walk source, sometimes shifted into wide fields, and caps from 0
    to one above the full rank, which often leave no point."""
    pm = _shifted(draw(walk_sources()), draw(st.sampled_from((0,) + WIDE_ENTRIES)))
    return pm, tuple(draw(st.integers(0, pm.full_rank + 1)) for _ in range(pm.m))


def _pin_wide_examples(test):
    """Pin point sums at the byte boundaries of the packed fields."""
    for s in (127, 128, 255, 256):
        for case in (
            (frozenset(base_points(free_polymatroid(2, s))), 2),
            (frozenset({(s, 0), (0, s)}), 2),
            (frozenset({(s,)}), 1),
            (frozenset({(s - 1, 1, 0), (s - 1, 0, 1), (s, 0, 0)}), 3),
        ):
            test = example(case=case)(test)
    return test


def _count_validations(monkeypatch) -> list:
    seen = []
    real = Polymatroid.__post_init__

    def counting(self):
        seen.append(self.m)
        real(self)

    monkeypatch.setattr(Polymatroid, "__post_init__", counting)
    return seen


class TestDerivedTables:
    @given(derived_tables())
    @settings(max_examples=300, deadline=None)
    def test_every_derived_table_passes_full_validation(self, pm):
        assert pm.m <= 6
        assert validate_polymatroid(pm.rank, pm.m) == pm
        assert all(type(v) is int for v in pm.rank)

    def test_derivation_validates_nothing(self, monkeypatch):
        seen = _count_validations(monkeypatch)
        source = direct_sum([free_polymatroid(2, 1), free_polymatroid(2, 2)])
        induced = induce_polymatroid(source, WIDE)
        induce_matroid(source, WIDE)
        uniform_matroid(3, 2)
        assert seen == []
        assert induced.rank == (0, 3, 3, 3, 2, 3, 3, 3)

    def test_boundaries_still_validate(self, monkeypatch):
        seen = _count_validations(monkeypatch)
        Polymatroid(1, (0, 1))
        validate_polymatroid((0, 1))
        Polymatroid.from_json({"m": 1, "rank": [0, 1]})
        linreal_rank(LinReal((1,), ((1,),)))
        points_polymatroid({(1, 0), (0, 1)}, 2)
        assert seen == [1, 1, 1, 1, 2]

    def test_direct_sum_matches_blockwise_ranks(self):
        parts = [free_polymatroid(2, 1), uniform_matroid(3, 2).underlying, free_polymatroid(1, 4)]
        total = direct_sum(parts)
        for mask in range(1 << total.m):
            assert total.rank[mask] == (
                parts[0].rank[mask & 3] + parts[1].rank[mask >> 2 & 7] + parts[2].rank[mask >> 5]
            )

    def test_shorthands_refuse_bad_arguments(self):
        with pytest.raises(ValueError, match="ground-set size"):
            uniform_matroid(0, 0)
        with pytest.raises(ValueError, match="outside"):
            uniform_matroid(2, 3)
        with pytest.raises(ValueError, match="ground-set size"):
            free_polymatroid(0, 1)
        with pytest.raises(ValueError, match="rank must be"):
            free_polymatroid(2, -1)
        with pytest.raises(TypeError):
            free_polymatroid(2, 1.5)
        with pytest.raises(TypeError):
            uniform_matroid(3, 1.5)


class TestValidation:
    def test_free_and_uniform_tables(self):
        assert free_polymatroid(2, 2).rank == (0, 2, 2, 2)
        assert uniform_matroid(2, 1).underlying.rank == (0, 1, 1, 1)
        assert free_polymatroid(1, 0).rank == (0, 0)

    def test_axiom_names(self):
        with pytest.raises(AxiomViolation) as err:
            validate_polymatroid((1, 1))
        assert err.value.axiom == "normalization"
        with pytest.raises(AxiomViolation) as err:
            validate_polymatroid((0, -1))
        assert err.value.axiom == "nonnegativity"
        with pytest.raises(AxiomViolation) as err:
            validate_polymatroid((0, 2, 2, 1))
        assert err.value.axiom == "monotonicity"
        with pytest.raises(AxiomViolation) as err:
            validate_polymatroid((0, 1, 1, 3))
        assert err.value.axiom == "submodularity"
        with pytest.raises(AxiomViolation) as err:
            Matroid(free_polymatroid(2, 2))
        assert err.value.axiom == "cardinality-bound"

    def test_float_rank_refused(self):
        with pytest.raises(TypeError):
            Polymatroid(1, (0, 1.0))

    def test_bad_table_shape(self):
        with pytest.raises(ValueError):
            validate_polymatroid((0, 1, 1))
        with pytest.raises(ValueError):
            validate_polymatroid((0,))

    @pytest.mark.parametrize("m", [2, 20000, 10**11])
    def test_table_length_is_compared_before_two_to_the_m(self, m):
        # 2^20000 once reached the error text as a 6,000-digit number, past
        # Python's int-to-str limit, and 2^(10^11) exhausted memory
        with pytest.raises(ValueError) as err:
            Polymatroid(m, (0, 1))
        assert str(err.value) == f"rank table has 2 entries, expected 2^{m}"

    @given(st.lists(st.integers(0, 3), min_size=4, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_local_checks_match_global_loops(self, tail):
        table = tuple([0] + tail[1:])
        literal = polymatroid_axioms_literal(table)
        try:
            validate_polymatroid(table)
            accepted = True
        except AxiomViolation:
            accepted = False
        assert accepted == literal

    @given(nudged_tables(), st.sampled_from((1,) + WIDE_ENTRIES))
    @settings(max_examples=500, deadline=None)
    def test_slice_checks_match_the_literal_axioms(self, case, scale):
        m, table = case
        table = tuple(v * scale for v in table)
        try:
            Polymatroid(m, table)
            raised = None
        except AxiomViolation as exc:
            raised = (exc.axiom, exc.witness, str(exc))
        assert (raised is None) == polymatroid_axioms_literal(table)
        assert raised == first_axiom_violation_literal(table)

    @pytest.mark.parametrize(
        "m, table, axiom, witness, detail",
        [
            # rank{1} = 2 exceeds every set holding 1: masks 3, 5 and 7 break it
            (3, (0, 2, 1, 1, 1, 1, 1, 1), "monotonicity", ((1,), (1, 2)), "rank(1,) = 2 > rank(1, 2) = 1"),
            # {2, 3} drops below {3}, found first as {2, 3} - 2, and below
            # {2}; {1, 2, 3} drops below {1, 2} and {1, 3}
            (
                3,
                (0, 1, 2, 2, 2, 2, 1, 1),
                "monotonicity",
                ((3,), (2, 3)),
                "rank(3,) = 2 > rank(2, 3) = 1",
            ),
            # x_1 and x_2 gain together at every mask of the elements 3, 4
            (
                4,
                (0, 1, 1, 3, 1, 2, 2, 4, 1, 2, 2, 4, 2, 3, 3, 5),
                "submodularity",
                ((1,), (2,)),
                "rank(1,) + rank(2,) = 2 < rank(union) + rank(intersection) = 3",
            ),
            # U(4, 2) with its full rank raised to 3: every two 3-sets break
            # it, and the first pair in mask order meets in {1, 2}
            (
                4,
                (0, 1, 1, 2, 1, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 3),
                "submodularity",
                ((1, 2, 3), (1, 2, 4)),
                "rank(1, 2, 3) + rank(1, 2, 4) = 4 < rank(union) + rank(intersection) = 5",
            ),
        ],
    )
    def test_first_witness_of_several(self, m, table, axiom, witness, detail):
        with pytest.raises(AxiomViolation) as err:
            Polymatroid(m, table)
        assert (err.value.axiom, err.value.witness, str(err.value)) == (
            axiom,
            witness,
            f"{axiom}: {detail}",
        )
        assert first_axiom_violation_literal(table) == (axiom, witness, f"{axiom}: {detail}")

    def test_slice_and_scan_disagreement_raises(self, monkeypatch):
        # a packed comparison that fails where the mask-order scan finds no
        # witness is an implementation bug, not an axiom violation
        real = polymatroids._fields_le
        monkeypatch.setattr(polymatroids, "_fields_le", lambda small, large, guards: False)
        with pytest.raises(InternalCheckError, match="monotonicity"):
            Polymatroid(2, (0, 1, 1, 2))
        # the two monotonicity comparisons, one per element, come first and
        # are real; only the comparison of the gains lies
        calls = []

        def lying(small, large, guards):
            calls.append(small)
            return len(calls) <= 2 and real(small, large, guards)

        monkeypatch.setattr(polymatroids, "_fields_le", lying)
        with pytest.raises(InternalCheckError, match="submodularity"):
            Polymatroid(2, (0, 1, 1, 2))
        assert len(calls) == 3

    def test_json_round_trip(self):
        pm = free_polymatroid(3, 2)
        assert Polymatroid.from_json(pm.to_json()) == pm
        mat = uniform_matroid(3, 2)
        assert Matroid.from_json(mat.to_json()) == mat

    def test_every_boundary_raises_the_same_violation(self):
        table = (0, 1, 1, 3)
        raised = []
        for build in (
            lambda: Polymatroid(2, table),
            lambda: validate_polymatroid(table),
            lambda: Polymatroid.from_json({"m": 2, "rank": list(table)}),
        ):
            with pytest.raises(AxiomViolation) as err:
                build()
            raised.append((err.value.axiom, err.value.witness, str(err.value)))
        assert raised == [
            (
                "submodularity",
                ((1,), (2,)),
                "submodularity: rank(1,) + rank(2,) = 2 < "
                "rank(union) + rank(intersection) = 3",
            )
        ] * 3

    @pytest.mark.parametrize(
        "doc",
        [
            {"m": 1.9, "rank": [0, 1]},
            {"m": True, "rank": [0, 1]},
            {"m": "1", "rank": [0, 1]},
            {"m": 1, "rank": [0, 1.5]},
            {"m": 1, "rank": [0, True]},
            {"m": 1, "rank": ["0", "1"]},
            {"m": 1, "rank": "01"},
        ],
    )
    def test_from_json_refuses_non_integers(self, doc):
        with pytest.raises(ValueError, match="integer"):
            Polymatroid.from_json(doc)


class TestConstructions:
    def test_direct_sum_base_points(self):
        total = direct_sum([free_polymatroid(2, 2), free_polymatroid(1, 1)])
        assert base_points(total) == {(2, 0, 1), (1, 1, 1), (0, 2, 1)}

    def test_direct_sum_rank_adds(self):
        total = direct_sum([free_polymatroid(1, 2), free_polymatroid(2, 1)])
        assert total.full_rank == 3
        assert total.rank_of((1,)) == 2
        assert total.rank_of((2, 3)) == 1

    def test_induce_worked_example(self):
        u24 = uniform_matroid(4, 2).underlying
        assert induce_polymatroid(u24, WIDE) == free_polymatroid(3, 2)
        assert induce_matroid(u24, WIDE) == uniform_matroid(3, 2)

    def test_induce_respects_empty_parts(self):
        seq = SubsetSeq(2, (frozenset(), frozenset({1, 2})))
        induced = induce_polymatroid(free_polymatroid(2, 1), seq)
        assert induced.rank_of((1,)) == 0
        assert induced.rank_of((2,)) == 1

    def test_induce_matroid_truncates(self):
        seq = SubsetSeq(2, (frozenset({1, 2}),))
        mat = induce_matroid(free_polymatroid(2, 3), seq)
        assert mat.full_rank == 1

    def test_induce_matroid_is_not_cardinality_truncation(self):
        # min(|I|, f(I)) would give [0, 0, 1, 2], which is not submodular
        pm = direct_sum([free_polymatroid(1, 0), free_polymatroid(1, 2)])
        seq = SubsetSeq(2, (frozenset({1}), frozenset({2})))
        assert induce_matroid(pm, seq).underlying.rank == (0, 0, 1, 1)

    @given(walk_sources(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_induce_matroid_matches_literal(self, pm, data):
        seq = data.draw(covering_seqs(pm.m, max_n=4))
        mat = induce_matroid(pm, seq)
        assert mat.underlying.rank == induce_matroid_literal(pm, seq)


class TestBasePoints:
    def test_simplex(self):
        assert base_points(free_polymatroid(2, 2)) == {(2, 0), (1, 1), (0, 2)}

    def test_rank_zero(self):
        assert base_points(free_polymatroid(2, 0)) == {(0, 0)}

    def test_in_base_polytope(self):
        pm = free_polymatroid(2, 2)
        assert in_base_polytope(pm, (1, 1))
        assert not in_base_polytope(pm, (1, 0))
        assert not in_base_polytope(pm, (-1, 3))

    @pytest.mark.parametrize("vec", [(1.0, 1.0), (1.5, 0.5)])
    def test_in_base_polytope_refuses_floats(self, vec):
        with pytest.raises(TypeError):
            in_base_polytope(free_polymatroid(2, 2), vec)

    def test_base_egf_coefficients(self):
        f = base_egf(free_polymatroid(2, 2))
        assert f.coefficient((2, 0)) == Fraction(1, 2)
        assert f.coefficient((1, 1)) == 1

    def test_walk_goldens(self):
        assert _walk_base_points(free_polymatroid(2, 0)) == [(0, 0)]
        assert _walk_base_points(free_polymatroid(1, 3)) == [(3,)]
        assert _walk_base_points(free_polymatroid(1, 3), limit=1) == [(3,)]
        assert _walk_base_points(free_polymatroid(1, 3), limit=0) is None
        # singleton caps sum to 3, above the full rank 1
        assert _walk_base_points(uniform_matroid(3, 1).underlying) == [
            (0, 0, 1),
            (0, 1, 0),
            (1, 0, 0),
        ]

    def test_walk_limit_stops_before_building(self):
        # 10^6 + 1 points at the closed-form leaf, 10^6 + 1 children at the
        # top of the m = 3 walk: both are refused before a list is built
        assert _walk_base_points(free_polymatroid(2, 10**6), limit=5) is None
        assert _walk_base_points(free_polymatroid(3, 10**6), limit=5) is None
        assert len(_walk_base_points(free_polymatroid(2, 999), limit=1000)) == 1000
        assert _walk_base_points(free_polymatroid(2, 999), limit=999) is None

    @given(walk_sources(), st.sampled_from((0,) + WIDE_ENTRIES))
    @settings(max_examples=100, deadline=None)
    def test_walk_limit_is_the_point_count(self, pm, shift):
        pm = _shifted(pm, shift)
        points = _walk_base_points(pm)
        assert _walk_base_points(pm, len(points)) == points
        assert _walk_base_points(pm, len(points) + 1) == points
        assert _walk_base_points(pm, len(points) - 1) is None

    @given(walk_sources(), st.sampled_from((0,) + WIDE_ENTRIES))
    @settings(max_examples=200, deadline=None)
    def test_walk_matches_box_scan(self, pm, shift):
        expected = sorted(tuple(x + shift for x in p) for p in base_points_literal(pm))
        assert _walk_base_points(_shifted(pm, shift)) == expected

    @given(capped_walks())
    @example(case=(free_polymatroid(1, 3), (2,)))
    @example(case=(free_polymatroid(3, 2), (0, 1, 0)))
    @example(case=(uniform_matroid(4, 2).underlying, (1, 1, 0, 0)))
    @settings(max_examples=200, deadline=None)
    def test_capped_walk_is_the_filtered_walk(self, case):
        pm, caps = case
        kept = [p for p in _walk_base_points(pm) if all(map(operator.le, p, caps))]
        assert _walk_base_points(pm, caps=caps) == kept

    @given(walk_sources(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_in_base_polytope_matches_box_scan(self, pm, data):
        literal = base_points_literal(pm)
        if data.draw(st.booleans()):
            vec = data.draw(st.sampled_from(sorted(literal)))
        else:
            vec = tuple(data.draw(st.lists(st.integers(0, 3), min_size=pm.m, max_size=pm.m)))
        assert in_base_polytope(pm, vec) == (vec in literal)

    @given(linreals())
    @settings(max_examples=80, deadline=None)
    def test_points_sum_to_full_rank(self, real):
        pm = linreal_rank(real)
        pts = base_points(pm)
        assert pts
        assert all(sum(p) == pm.full_rank for p in pts)
        assert all(in_base_polytope(pm, p) for p in pts)


class TestSupportRecognition:
    @given(linreals())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, real):
        pm = linreal_rank(real)
        assert support_polymatroid(base_egf(pm)) == pm

    def test_gapped_support_rejected(self):
        assert support_polymatroid(Poly(2, {(2, 0): 1, (0, 2): 1})) is None

    def test_zero_poly(self):
        assert support_polymatroid(Poly.zero(2)) is None

    def test_inhomogeneous_rejected(self):
        with pytest.raises(ValueError):
            support_polymatroid(Poly(1, {(1,): 1, (2,): 1}))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            support_polymatroid(Poly(1, {(2,): -1}))

    def test_float_coefficients(self):
        f = base_egf(direct_sum([free_polymatroid(2, 2), free_polymatroid(1, 1)]))
        floats = FloatPoly(f.nvars, {e: float(c) for e, c in f.items()})
        assert support_polymatroid(floats) == support_polymatroid(f) is not None
        assert support_polymatroid(FloatPoly(2, {(2, 0): 0.5, (0, 2): 1.0})) is None
        with pytest.raises(ValueError, match="nonnegative"):
            support_polymatroid(FloatPoly(1, {(2,): -0.5}))

    @given(point_sets())
    @_pin_wide_examples
    @settings(max_examples=150, deadline=None)
    def test_candidate_matches_oracles(self, case):
        points, nvars = case
        pm = points_polymatroid(points, nvars)
        nonnegative = all(c >= 0 for p in points for c in p)
        one_degree = len({sum(p) for p in points}) == 1
        assert (pm is not None) == (nonnegative and one_degree and m_convex_literal(points))
        if pm is not None:
            assert pm.rank == points_rank_literal(points, nvars)

    def test_negative_coordinate_refused_before_any_table(self, monkeypatch):
        seen = _count_validations(monkeypatch)
        assert points_polymatroid({(2, -1), (1, 0), (0, 1)}, 2) is None
        assert points_polymatroid({(1, 0), (0, 1)}, 2) is not None
        assert seen == [2]

    def test_four_cycle_needs_the_axiom_check(self):
        # the greedy table of this non-M-convex set fails submodularity, yet
        # its base points are exactly the set: only the axiom check refuses it
        cycle = {(0, 0, 1, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 1, 0)}
        greedy = (0, 1, 1, 1, 1, 2, 2, 2, 1, 2, 1, 2, 2, 2, 2, 2)
        with pytest.raises(AxiomViolation, match="submodularity"):
            Polymatroid(4, greedy)
        assert _walk_base_points(Polymatroid._derived(4, greedy)) == sorted(cycle)
        assert not m_convex_literal(cycle)
        assert points_polymatroid(cycle, 4) is None

    def test_point_sets(self):
        assert points_polymatroid({(1, 0), (0, 1)}, 2) == free_polymatroid(2, 1)
        assert points_polymatroid(set(), 2) is None
        # every point is in the box, but (0, 1) has the smaller sum
        assert points_polymatroid({(1, 1), (2, 0), (0, 2), (0, 1)}, 2) is None
        # a base point is never negative
        assert points_polymatroid({(2, -1), (1, 0), (0, 1)}, 2) is None
        # the largest partial sums of these points are not submodular
        # (r{1,2} + r{1,3} = 2 < r{1,2,3} + r{1} = 3); the greedy table starts
        # from (0, 1, 1), the point of largest sum, and has it as its one base
        # point, so the walk meets one point of two
        with pytest.raises(AxiomViolation, match="submodularity"):
            Polymatroid(3, (0, 1, 1, 1, 1, 1, 2, 2))
        assert points_polymatroid({(0, 1, 1), (1, 0, 0)}, 3) is None
        # no exchange stays in the set, so the greedy table is valid with one
        # base point, the starting one, and the walk meets one point of two
        assert points_polymatroid({(2, 0), (0, 2)}, 2) is None
        all_of_three = {(a, b, 3 - a - b) for a in range(4) for b in range(4 - a)}
        assert len(all_of_three) == 10
        assert points_polymatroid(all_of_three, 3) == free_polymatroid(3, 3)


class TestLinReal:
    def test_rank_goldens(self):
        diag = LinReal((2, 2), ((1, 0, 1, 0), (0, 1, 0, 1)))
        assert linreal_rank(diag) == free_polymatroid(2, 2)
        assert linreal_rank(LinReal((1, 1), ((1, 1),))) == uniform_matroid(2, 1).underlying
        assert linreal_rank(LinReal((1, 1), ())) == Polymatroid(2, (0, 0, 0, 0))
        # the second row is twice the first, which only shows once each row
        # is scaled by the lcm of its denominators; block 2 has width 0
        half = (Fraction(1, 2), Fraction(1, 3), Fraction(2))
        real = LinReal((2, 0, 1), (half, (1, Fraction(2, 3), 4), (0, 0, 0)))
        assert linreal_rank(real).rank == (0, 1, 0, 1, 1, 1, 1, 1)
        assert linreal_rank(LinReal((0,), ((), ()))).rank == (0, 0)
        assert linreal_rank(LinReal((0, 1), ((Fraction(-3, 7),),))).rank == (0, 0, 1, 1)

    @given(fractional_linreals())
    @settings(max_examples=200, deadline=None)
    def test_rank_matches_gaussian_elimination(self, real):
        table = linreal_rank(real).rank
        assert table == tuple(rank_literal(real, mask) for mask in range(1 << real.m))

    @pytest.mark.parametrize("m", range(1, 7))
    def test_each_block_is_read_once(self, monkeypatch, m):
        # one Gram per block: the columns of a block are not re-listed per block set
        calls = []
        columns = LinReal.block_columns

        def counting(self, i):
            calls.append(i)
            return columns(self, i)

        dims = (1, 0, 2, 1, 3, 1)[:m]
        rows = tuple(tuple((5 * i + 3 * j) % 7 - 3 for j in range(sum(dims))) for i in range(3))
        real = LinReal(dims, rows)
        monkeypatch.setattr(LinReal, "block_columns", counting)
        linreal_rank(real)
        assert sorted(calls) == list(range(1, m + 1))

    def test_peak_memory_stays_with_the_walk(self):
        # depth first, at most m + 1 Gram sums are alive: the bound separates
        # the walk (about 0.2 MiB) from holding all 2^12 sums (about 4 MiB)
        rows = tuple(tuple((3 * i + 7 * j) % 11 - 5 for j in range(12)) for i in range(4))
        real = LinReal((1,) * 12, rows)
        linreal_rank(real)
        tracemalloc.start()
        try:
            linreal_rank(real)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_float_rows_rejected(self):
        with pytest.raises(TypeError):
            LinReal((1,), ((0.5,),))

    def test_json_round_trip(self):
        real = LinReal((1, 2), ((Fraction(1, 2), 0, 1),))
        assert LinReal.from_json(real.to_json()) == real

    def test_block_columns_are_prefix_sums(self):
        dims = (2, 0, 1, 0)
        real = LinReal(dims, ((1, 2, 3),))
        ends = list(itertools.accumulate(dims))
        spans = [(c.start, c.stop) for c in map(real.block_columns, range(1, real.m + 1))]
        assert spans == [(e - d, e) for d, e in zip(dims, ends)] == [(0, 2), (2, 2), (2, 3), (3, 3)]

    @given(linreals(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_induce_commutes_with_rank(self, real, data):
        seq = data.draw(covering_seqs(real.m))
        assert linreal_rank(linreal_induce(real, seq)) == induce_polymatroid(
            linreal_rank(real), seq
        )


class TestHallRado:
    def test_goldens(self):
        split = SubsetSeq(2, (frozenset({1}), frozenset({2})))
        assert hall_rado_member(free_polymatroid(2, 2), split, (1, 1))
        assert not hall_rado_member(free_polymatroid(2, 2), split, (1, 0))
        assert hall_rado_member(free_polymatroid(1, 0), SubsetSeq(1, (frozenset({1}),)), (0,))

    def test_non_integer_delta_refused(self):
        with pytest.raises(TypeError):
            hall_rado_member(free_polymatroid(1, 2), SubsetSeq(1, (frozenset({1}),)), (2.9,))

    def test_negative_is_outside(self):
        split = SubsetSeq(2, (frozenset({1}), frozenset({2})))
        assert not hall_rado_member(free_polymatroid(2, 2), split, (3, -1))

    def test_non_spanning_rejected(self):
        # rank({1}) = 1 < 2 = full rank, so a single part {1} cannot span
        pm = direct_sum([free_polymatroid(1, 1), free_polymatroid(1, 1)])
        lonely = SubsetSeq(2, (frozenset({1}),))
        with pytest.raises(ValueError, match="span"):
            hall_rado_member(pm, lonely, (1,))

    def test_route_disagreement_raises(self, monkeypatch):
        # a walk that finds no gamma must be caught by the inequality route
        monkeypatch.setattr(polymatroids, "_walk_base_points", lambda pm, caps=None: iter(()))
        split = SubsetSeq(2, (frozenset({1}), frozenset({2})))
        with pytest.raises(InternalCheckError):
            hall_rado_member(free_polymatroid(2, 2), split, (1, 1))

    def test_cut_dropping_every_gamma_raises(self, monkeypatch):
        # so does a Hall cut that drops a gamma that matches
        monkeypatch.setattr(polymatroids, "single_vertex_cuts", lambda seq, beta, alphas: iter(()))
        split = SubsetSeq(2, (frozenset({1}), frozenset({2})))
        with pytest.raises(InternalCheckError):
            hall_rado_member(free_polymatroid(2, 2), split, (1, 1))

    def test_readme_example_over_the_box(self):
        pm = uniform_matroid(4, 2).underlying
        wide = SubsetSeq(4, (frozenset({1, 2, 3, 4}), frozenset({2, 3}), frozenset({3, 4})))
        members = base_points_literal(induce_polymatroid(pm, wide))
        box = list(itertools.product(range(pm.full_rank + 1), repeat=wide.n))
        assert [hall_rado_member(pm, wide, d) for d in box] == [d in members for d in box]
        assert sum(d in members for d in box) == 6

    @given(linreals(max_blocks=3), st.data())
    @settings(max_examples=80, deadline=None)
    def test_dual_paths_agree_near_base_points(self, real, data):
        pm = linreal_rank(real)
        seq = data.draw(covering_seqs(pm.m))
        induced = induce_polymatroid(pm, seq)
        pts = sorted(base_points(induced))
        delta = list(data.draw(st.sampled_from(pts)))
        if data.draw(st.booleans()):
            j = data.draw(st.integers(0, seq.n - 1))
            k = data.draw(st.integers(0, seq.n - 1))
            delta[j] += 1
            delta[k] -= 1
        if any(v < 0 for v in delta):
            return
        # raises InternalCheckError on disagreement
        hall_rado_member(pm, seq, delta)


class TestMatroidBases:
    def test_uniform(self):
        assert matroid_bases(uniform_matroid(3, 2)) == [(1, 2), (1, 3), (2, 3)]
        assert len(matroid_bases(uniform_matroid(4, 2))) == 6

    def test_rank_zero(self):
        assert matroid_bases(uniform_matroid(2, 0)) == [()]

    def test_bases_match_base_points(self):
        mat = Matroid(linreal_rank(LinReal((1, 1, 1), ((1, 1, 0), (0, 1, 1)))))
        pts = base_points(mat.underlying)
        from_bases = {
            tuple(1 if e in basis else 0 for e in range(1, 4))
            for basis in matroid_bases(mat)
        }
        assert from_bases == pts
