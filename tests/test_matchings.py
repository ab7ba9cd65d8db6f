import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lormatch import (
    SubsetSeq,
    admits_matching,
    admits_restricted,
    caps_from_json,
    compose_seq,
    find_witness,
    matched_degrees,
)
from lormatch._util import vec_factorial
from lormatch.matchings import _MEMO_KEYS, _key_decoder, single_vertex_cuts

from oracles import enumerate_matching, matched_degrees_box

WIDE = SubsetSeq(4, (frozenset({1, 2, 3, 4}), frozenset({2, 3}), frozenset({3, 4})))


@st.composite
def seqs(draw, max_m=3, max_n=3):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    sets = tuple(
        frozenset(draw(st.sets(st.integers(1, m)))) for _ in range(n)
    )
    return SubsetSeq(m, sets)


@st.composite
def matching_instances(draw, max_total=4, max_m=3, max_n=3):
    seq = draw(seqs(max_m, max_n))
    total = draw(st.integers(0, max_total))
    alpha = _spread(draw, total, seq.m)
    beta = _spread(draw, total, seq.n)
    return seq, alpha, beta


def _spread(draw, total, slots):
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=slots - 1, max_size=slots - 1)))
    bounds = [0] + cuts + [total]
    return tuple(bounds[i + 1] - bounds[i] for i in range(slots))


class TestSubsetSeq:
    def test_basic_accessors(self):
        assert WIDE.m == 4
        assert WIDE.n == 3
        assert WIDE.parts_containing(3) == (1, 2, 3)
        assert WIDE.parts_containing(1) == (1,)
        assert WIDE.has_edge(2, 2)
        assert not WIDE.has_edge(1, 2)
        assert WIDE.edges()[0] == (1, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            SubsetSeq(0, (frozenset(),))
        with pytest.raises(ValueError):
            SubsetSeq(2, ())
        with pytest.raises(ValueError):
            SubsetSeq(2, (frozenset({3}),))
        with pytest.raises(ValueError):
            SubsetSeq(2, (frozenset({0}),))

    def test_json_round_trip(self):
        assert SubsetSeq.from_json(WIDE.to_json()) == WIDE
        assert WIDE.to_json() == {"m": 4, "sets": [[1, 2, 3, 4], [2, 3], [3, 4]]}

    def test_empty_part_allowed(self):
        seq = SubsetSeq(2, (frozenset(), frozenset({1, 2})))
        assert seq.parts_containing(1) == (2,)


class TestFeasibility:
    @pytest.mark.parametrize(
        "call",
        [
            lambda seq: find_witness(seq, (2.7,), (2,)),
            lambda seq: admits_matching(seq, (1.5,), (1.9,)),
            lambda seq: admits_restricted(seq, {(1, 1): 1.5}, (1,), (1,)),
            lambda seq: matched_degrees(seq, ("1",)),
        ],
    )
    def test_non_integer_vectors_refused(self, call):
        # operator.index, as for exponents: never truncated to a weight
        with pytest.raises(TypeError):
            call(SubsetSeq(1, (frozenset({1}),)))

    def test_worked_example(self):
        assert admits_matching(WIDE, (0, 2, 2, 1), (2, 2, 1))
        assert not admits_matching(WIDE, (2, 0, 0, 0), (0, 1, 1))
        assert not admits_matching(WIDE, (1, 0, 0, 0), (0, 0, 1))

    def test_total_mismatch(self):
        assert not admits_matching(WIDE, (1, 0, 0, 0), (0, 0, 0))

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            admits_matching(WIDE, (1, 0), (1, 0, 0))
        with pytest.raises(ValueError):
            admits_matching(WIDE, (0, 0, 0, -1), (0, 0, -1))

    @given(matching_instances())
    @settings(max_examples=200, deadline=None)
    def test_against_enumeration(self, instance):
        seq, alpha, beta = instance
        assert admits_matching(seq, alpha, beta) == enumerate_matching(seq, alpha, beta)

    @given(matching_instances())
    @settings(max_examples=150, deadline=None)
    def test_witness_sums(self, instance):
        seq, alpha, beta = instance
        witness = find_witness(seq, alpha, beta)
        if admits_matching(seq, alpha, beta):
            assert witness is not None
            assert witness.row_sums(seq.m) == tuple(alpha)
            assert witness.col_sums(seq.n) == tuple(beta)
            assert all(seq.has_edge(i, j) for (i, j) in witness.weights)
        else:
            assert witness is None


class TestSingleVertexCuts:
    def test_goldens(self):
        # element 1 lies only in part 1, which asks for nothing
        kept = single_vertex_cuts(WIDE, (0, 1, 1), [(2, 0, 0, 0), (0, 1, 1, 0)])
        assert list(kept) == [(0, 1, 1, 0)]
        # part 1 draws only on element 1, which supplies nothing
        seq = SubsetSeq(3, (frozenset({1}), frozenset({1, 2, 3})))
        assert list(single_vertex_cuts(seq, (1, 1), [(0, 1, 1), (1, 0, 1)])) == [(1, 0, 1)]

    @given(matching_instances(max_m=4, max_n=4))
    @settings(max_examples=300, deadline=None)
    def test_drops_only_pairs_that_do_not_match(self, instance):
        seq, alpha, beta = instance
        if not list(single_vertex_cuts(seq, beta, [alpha])):
            assert not enumerate_matching(seq, alpha, beta)


class TestRestricted:
    def test_caps_bite(self):
        seq = SubsetSeq(1, (frozenset({1}), frozenset({1})))
        assert admits_restricted(seq, {(1, 1): 1, (1, 2): 1}, (2,), (1, 1))
        assert not admits_restricted(seq, {(1, 1): 1, (1, 2): 0}, (2,), (1, 1))
        assert not admits_restricted(seq, {(1, 1): 1}, (2,), (2, 0))

    @given(matching_instances(), st.integers(0, 2))
    # feasible only by moving weight off the capped edge (1, 1)
    @example((SubsetSeq(2, (frozenset({1, 2}), frozenset({1, 2}))), (2, 1), (2, 1)), 1)
    @settings(max_examples=150, deadline=None)
    def test_against_enumeration(self, instance, cap):
        seq, alpha, beta = instance
        caps = {edge: cap for edge in seq.edges()[::2]}
        expected = enumerate_matching(seq, alpha, beta, caps)
        assert admits_restricted(seq, caps, alpha, beta) == expected
        witness = find_witness(seq, alpha, beta, caps)
        assert (witness is not None) == expected
        if witness is not None:
            assert witness.row_sums(seq.m) == tuple(alpha)
            assert witness.col_sums(seq.n) == tuple(beta)
            assert all(w <= caps.get(edge, w) for edge, w in witness.weights.items())

    def test_caps_from_json(self):
        caps = caps_from_json(WIDE, {"2-1": 3})
        assert caps == {(2, 1): 3}
        with pytest.raises(ValueError):
            caps_from_json(WIDE, {"1-2": 1})  # element 1 is not in part 2
        with pytest.raises(ValueError):
            caps_from_json(WIDE, {"2-1": -1})


class TestMatchedDegrees:
    def test_worked_example(self):
        assert matched_degrees(WIDE, (1, 1, 0, 0)) == {(2, 0, 0), (1, 1, 0)}

    def test_uncovered_positive_degree(self):
        seq = SubsetSeq(2, (frozenset({1}),))
        assert matched_degrees(seq, (0, 1)) == frozenset()
        assert matched_degrees(seq, (1, 0)) == {(1,)}

    def test_zero_degree(self):
        # radix 1: every key is 0
        assert matched_degrees(WIDE, (0, 0, 0, 0)) == {(0, 0, 0)}

    def test_whole_weight_on_one_part(self):
        # beta = (3, 0) has a digit equal to sum(alpha); a radix of sum(alpha)
        # would carry it into (0, 1)
        seq = SubsetSeq(2, (frozenset({1, 2}), frozenset({2})))
        assert matched_degrees(seq, (1, 2)) == {(3, 0), (2, 1), (1, 2)}

    @given(matching_instances())
    @settings(max_examples=150, deadline=None)
    def test_against_box_filter(self, instance):
        seq, alpha, _ = instance
        assert matched_degrees(seq, alpha) == matched_degrees_box(seq, alpha)

    @given(matching_instances())
    @settings(max_examples=100, deadline=None)
    def test_membership_matches_feasibility(self, instance):
        seq, alpha, beta = instance
        assert (beta in matched_degrees(seq, alpha)) == admits_matching(seq, alpha, beta)


class TestCompose:
    def test_golden(self):
        stage1 = SubsetSeq(2, (frozenset({1}), frozenset({1}), frozenset({2}), frozenset({2})))
        stage2 = SubsetSeq(4, (frozenset({1, 3}), frozenset({2, 4})))
        assert compose_seq(stage1, stage2) == SubsetSeq(2, (frozenset({1, 2}), frozenset({1, 2})))

    def test_identity_on_parts(self):
        identity = SubsetSeq(3, (frozenset({1}), frozenset({2}), frozenset({3})))
        assert compose_seq(WIDE, identity) == WIDE

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            compose_seq(WIDE, WIDE)


class TestKeyDecoder:
    @pytest.mark.parametrize("radix", range(2, 18))
    def test_round_trip(self, radix):
        # both halves of the memo decoder are exercised at odd and even n
        rng = random.Random(radix)
        for n in range(1, 13):
            betas = [(0,) * n, (radix - 1,) * n]
            betas += [tuple(rng.randrange(radix) for _ in range(n)) for _ in range(60)]
            for count in (1, _MEMO_KEYS + 1):
                decode = _key_decoder(radix, n, count)
                for beta in betas:
                    key = sum(b * radix ** (n - j) for j, b in enumerate(beta, start=1))
                    assert decode(key) == (beta, vec_factorial(beta))
