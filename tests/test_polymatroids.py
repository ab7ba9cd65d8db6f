from fractions import Fraction

import pytest
from hypothesis import given, settings
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
from lormatch.polynomials import Poly

from oracles import base_points_literal, induce_matroid_literal, polymatroid_axioms_literal

WIDE = SubsetSeq(4, (frozenset({1, 2, 3, 4}), frozenset({2, 3}), frozenset({3, 4})))


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

    def test_bad_table_shape(self):
        with pytest.raises(ValueError):
            validate_polymatroid((0, 1, 1))
        with pytest.raises(ValueError):
            validate_polymatroid((0,))

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

    def test_base_egf_coefficients(self):
        f = base_egf(free_polymatroid(2, 2))
        assert f.coefficient((2, 0)) == Fraction(1, 2)
        assert f.coefficient((1, 1)) == 1

    def test_walk_goldens(self):
        assert list(_walk_base_points(free_polymatroid(2, 0))) == [(0, 0)]
        assert list(_walk_base_points(free_polymatroid(1, 3))) == [(3,)]
        # singleton caps sum to 3, above the full rank 1
        assert list(_walk_base_points(uniform_matroid(3, 1).underlying)) == [
            (0, 0, 1),
            (0, 1, 0),
            (1, 0, 0),
        ]

    @given(walk_sources())
    @settings(max_examples=200, deadline=None)
    def test_walk_matches_box_scan(self, pm):
        assert list(_walk_base_points(pm)) == sorted(base_points_literal(pm))

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

    def test_point_sets(self):
        assert points_polymatroid({(1, 0), (0, 1)}, 2) == free_polymatroid(2, 1)
        assert points_polymatroid(set(), 2) is None
        # every point is in the box, but (0, 1) has the smaller sum
        assert points_polymatroid({(1, 1), (2, 0), (0, 2), (0, 1)}, 2) is None
        # a negative coordinate breaks monotonicity of the partial-sum table
        assert points_polymatroid({(2, -1), (1, 0), (0, 1)}, 2) is None
        # r{1,2} + r{1,3} = 2 < r{1,2,3} + r{1} = 3: the candidate is not submodular
        with pytest.raises(AxiomViolation, match="submodularity"):
            Polymatroid(3, (0, 1, 1, 1, 1, 1, 2, 2))
        assert points_polymatroid({(0, 1, 1), (1, 0, 0)}, 3) is None
        # the candidate table is the valid free(2, 2); the walk meets (1, 1)
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

    def test_float_rows_rejected(self):
        with pytest.raises(TypeError):
            LinReal((1,), ((0.5,),))

    def test_json_round_trip(self):
        real = LinReal((1, 2), ((Fraction(1, 2), 0, 1),))
        assert LinReal.from_json(real.to_json()) == real

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
        monkeypatch.setattr(polymatroids, "_walk_base_points", lambda pm: iter(()))
        split = SubsetSeq(2, (frozenset({1}), frozenset({2})))
        with pytest.raises(InternalCheckError):
            hall_rado_member(free_polymatroid(2, 2), split, (1, 1))

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
