import math
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lormatch import (
    LinReal,
    Matroid,
    StatTable,
    SubsetSeq,
    basis_match_count,
    basis_match_poly,
    linreal_rank,
    match_count,
    matroid_bases,
    match_poly,
    stat_table,
    uniform_matroid,
)
from lormatch import matchstats
from lormatch.matchstats import _bitset_ops, _set_ops, _walk
from lormatch.polynomials import Poly

from oracles import match_count_literal

WIDE = SubsetSeq(4, (frozenset({1, 2, 3, 4}), frozenset({2, 3}), frozenset({3, 4})))


@st.composite
def seqs(draw, max_m=4, max_n=4):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    sets = tuple(frozenset(draw(st.sets(st.integers(1, m)))) for _ in range(n))
    return SubsetSeq(m, sets)


@st.composite
def matroids(draw, m):
    """Uniform matroids and matroids of small integer vectors over 1..m."""
    if draw(st.booleans()):
        return uniform_matroid(m, draw(st.integers(0, m)))
    rows = draw(st.lists(st.lists(st.integers(-1, 1), min_size=m, max_size=m), max_size=3))
    return Matroid(linreal_rank(LinReal((1,) * m, tuple(map(tuple, rows)))))


class TestMatchCount:
    def test_worked_example_pairs(self):
        assert match_count(WIDE, (1, 2)) == 5
        assert match_count(WIDE, (1, 3)) == 5
        assert match_count(WIDE, (2, 3)) == 3

    def test_empty_topic(self):
        assert match_count(WIDE, ()) == 1

    def test_oversized_topic(self):
        narrow = SubsetSeq(1, (frozenset({1}), frozenset({1})))
        assert match_count(narrow, (1, 2)) == 0

    def test_bad_topic(self):
        with pytest.raises(ValueError):
            match_count(WIDE, (0,))
        with pytest.raises(ValueError):
            match_count(WIDE, (4,))
        with pytest.raises(ValueError):
            match_count(WIDE, (1, 1))

    def test_counts_sets_not_matchings(self):
        # both elements see both parts: two matchings per set, counted once
        square = SubsetSeq(2, (frozenset({1, 2}), frozenset({1, 2})))
        assert match_count(square, (1, 2)) == 1

    @given(seqs(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_against_literal_count(self, seq, data):
        mat = data.draw(matroids(seq.m))
        bases = matroid_bases(mat)
        for r in range(seq.n + 1):
            for topic in combinations(range(1, seq.n + 1), r):
                assert match_count(seq, topic) == match_count_literal(seq, topic)
                assert basis_match_count(mat, seq, topic) == match_count_literal(
                    seq, topic, among=bases
                )


def _literal_rows(seq, r, among=None):
    """The nonzero panel counts of every r-subset T, from the literal count."""
    rows = {}
    for topic in combinations(range(1, seq.n + 1), r):
        count = match_count_literal(seq, topic, among=among)
        if count:
            rows[topic] = count
    return rows


def _as_poly(n, rows):
    return Poly(n, {tuple(int(j in t) for j in range(1, n + 1)): c for t, c in rows.items()})


class TestPanelWalk:
    """The walk over topic prefixes against the literal count on every T."""

    @given(seqs(max_m=4, max_n=5), st.integers(0, 5))
    # five parts over four elements: long shared prefixes, some of them
    # without an SDR (part 4 is empty), so their subtrees are pruned
    @example(SubsetSeq(4, tuple(map(frozenset, ({1, 2}, {2, 3}, {1, 3}, (), {3, 4})))), 3)
    @settings(max_examples=80, deadline=None)
    def test_match_poly_and_stat_table(self, seq, r):
        r = min(r, seq.n)
        rows = _literal_rows(seq, r)
        assert stat_table(seq, r).rows == rows
        if r <= seq.m:
            assert match_poly(seq, r) == _as_poly(seq.n, rows)

    @given(seqs(max_m=4, max_n=5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_basis_match_poly(self, seq, data):
        mat = data.draw(matroids(seq.m))
        rows = _literal_rows(seq, mat.full_rank, among=matroid_bases(mat))
        assert basis_match_poly(mat, seq) == _as_poly(seq.n, rows)

    def test_a_walk_deeper_than_the_recursion_limit(self):
        # 1,200 singleton parts at r = 1,200: one topic, reached 1,200 parts
        # deep, past the interpreter's default recursion limit
        n = 1200
        seq = SubsetSeq(n, tuple(frozenset({i}) for i in range(1, n + 1)))
        assert match_poly(seq, n) == Poly(n, {(1,) * n: 1})
        assert stat_table(seq, n).rows == {tuple(range(1, n + 1)): 1}


def _topic_rows(rows):
    """{T: count} of subset-walk rows, T read off the 0/1 beta."""
    out = {}
    for beta, fact, count in rows:
        assert fact == 1 and max(beta, default=0) <= 1
        out[tuple(j for j, b in enumerate(beta, start=1) if b)] = count
    return out


def _masks(elements):
    return {sum(1 << (i - 1) for i in chosen) for chosen in elements}


class TestWalkRoutes:
    """The bitset and set families through the same walk: equal rows in the
    same order, both equal to the literal count."""

    @given(seqs(max_m=8, max_n=6), st.data(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_bitset_walk_equals_set_walk(self, seq, data, repeat):
        bases = data.draw(st.sets(st.integers(0, (1 << seq.m) - 1)))
        # one degree past the most parts and the most SDR elements
        for degree in range(max(seq.n, seq.m) + 2):
            for within in (None, bases):
                by_sets, by_bits = (
                    list(_walk(seq.n, degree, *ops(seq, within), repeat=repeat)) for ops in (_set_ops, _bitset_ops)
                )
                assert by_sets == by_bits
                assert by_bits == sorted(by_bits, reverse=True)
                for beta, fact, _ in by_bits:
                    assert sum(beta) == degree
                    assert fact == math.prod(map(math.factorial, beta))
                if repeat:
                    # the panel counts are the multi-affine part of the
                    # multiset walk: its rows with every beta_j <= 1
                    subsets = list(_walk(seq.n, degree, *_bitset_ops(seq, within)))
                    assert [row for row in by_bits if max(row[0]) <= 1] == subsets

    @given(seqs(max_m=4, max_n=5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_both_walks_against_literal(self, seq, data):
        among = matroid_bases(data.draw(matroids(seq.m)))
        bases = _masks(among)
        for r in range(seq.n + 1):
            plain, restricted = _literal_rows(seq, r), _literal_rows(seq, r, among=among)
            for ops in (_set_ops, _bitset_ops):
                assert _topic_rows(_walk(seq.n, r, *ops(seq, None))) == plain
                assert _topic_rows(_walk(seq.n, r, *ops(seq, bases))) == restricted

    @pytest.mark.parametrize("m, route", [(16, "_bitset_ops"), (17, "_set_ops")])
    def test_route_by_ground_set_size(self, monkeypatch, m, route):
        ran = []
        for name in ("_bitset_ops", "_set_ops"):
            ops = getattr(matchstats, name)
            monkeypatch.setattr(
                matchstats, name, lambda seq, bases, name=name, ops=ops: ran.append(name) or ops(seq, bases)
            )
        seq = SubsetSeq(m, (frozenset({1, m}), frozenset({2, m}), frozenset({m})))
        assert stat_table(seq, 2).rows == {(1, 2): 3, (1, 3): 1, (2, 3): 1}
        assert ran == [route]


class TestMatchPoly:
    def test_worked_example(self):
        assert match_poly(WIDE, 1) == Poly(3, {(1, 0, 0): 4, (0, 1, 0): 2, (0, 0, 1): 2})
        assert match_poly(WIDE, 2) == Poly(
            3, {(1, 1, 0): 5, (1, 0, 1): 5, (0, 1, 1): 3}
        )

    def test_r_zero(self):
        assert match_poly(WIDE, 0) == Poly.constant(3, 1)

    def test_r_out_of_range(self):
        with pytest.raises(ValueError):
            match_poly(WIDE, 5)
        with pytest.raises(ValueError):
            match_poly(WIDE, -1)

    @given(seqs(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_multiaffine_and_degree(self, seq, data):
        r = data.draw(st.integers(0, seq.m))
        f = match_poly(seq, r)
        for exp, c in f.items():
            assert set(exp) <= {0, 1}
            assert sum(exp) == r
            assert c > 0


class TestBasisRestricted:
    def test_uniform_equals_plain(self):
        u24 = uniform_matroid(4, 2)
        for topic in combinations(range(1, 4), 2):
            assert basis_match_count(u24, WIDE, topic) == match_count(WIDE, topic)
        assert basis_match_poly(u24, WIDE) == match_poly(WIDE, 2)

    def test_restriction_bites(self):
        # only {1,2} is a basis, so sets containing 3 or 4 stop counting
        pm = Matroid(
            uniform_matroid(2, 2).underlying
        )
        with pytest.raises(ValueError):
            basis_match_count(pm, WIDE, (1,))  # ground sets differ

    def test_smaller_than_plain(self):
        mat = uniform_matroid(4, 2)
        assert basis_match_count(mat, WIDE, (1, 2)) <= match_count(WIDE, (1, 2))

    @given(seqs(max_m=3, max_n=3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_uniform_equality_random(self, seq, data):
        r = data.draw(st.integers(0, seq.m))
        mat = uniform_matroid(seq.m, r)
        assert basis_match_poly(mat, seq) == match_poly(seq, r)


class TestStatTable:
    def test_rows_and_lookup(self):
        table = stat_table(WIDE, 2)
        assert table.rows == {(1, 2): 5, (1, 3): 5, (2, 3): 3}
        assert table.count((2, 3)) == 3
        assert table.count((9, 10)) == 0

    def test_json_sorted(self):
        rows = stat_table(WIDE, 2).to_json()
        assert rows == [
            {"T": [1, 2], "count": 5},
            {"T": [1, 3], "count": 5},
            {"T": [2, 3], "count": 3},
        ]

    def test_csv(self):
        text = stat_table(WIDE, 1).to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "T,count"
        assert lines[1:] == ["1,4", "2,2", "3,2"]

    @pytest.mark.parametrize("rows", [{(1.5,): 2}, {(1,): 2.0}])
    def test_float_rows_refused(self, rows):
        with pytest.raises(TypeError):
            StatTable(1, rows)

    @given(seqs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_built_table_equals_validated_table(self, seq, data):
        # stat_table wraps its own rows unchecked; the public constructor
        # re-checks them and must find nothing to change
        r = data.draw(st.integers(0, seq.n))
        table = stat_table(seq, r)
        checked = StatTable(r, table.rows)
        assert checked == table
        assert list(checked.rows.items()) == list(table.rows.items())
        assert all(type(v) is int for t in table.rows for v in t)

    def test_zero_rows_dropped(self):
        table = stat_table(SubsetSeq(1, (frozenset({1}), frozenset())), 1)
        assert table.rows == {(1,): 1}

    def test_r_bounds(self):
        with pytest.raises(ValueError):
            stat_table(WIDE, 4)
        assert stat_table(WIDE, 0).rows == {(): 1}
