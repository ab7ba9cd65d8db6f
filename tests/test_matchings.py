import json
import operator
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lormatch import (
    SubsetSeq,
    admits_matching,
    caps_from_json,
    compose_seq,
    find_witness,
    matched_degrees,
)
from lormatch import matchings
from lormatch._util import vec_factorial
from lormatch.matchings import _key_decoder, _places, single_vertex_cuts
from lormatch.matchstats import stat_table

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


@st.composite
def capped_instances(draw):
    seq, alpha, beta = draw(matching_instances())
    edges = seq.edges()
    caps = draw(st.dictionaries(st.sampled_from(edges), st.integers(0, 2))) if edges else {}
    return seq, alpha, beta, caps


# single-vertex cut cases, as (seq, alpha, beta, caps); an uncapped edge is
# limited by the total.  Element 1 sends at most 1 + 1 < 3, and both parts
# can draw enough:
ELEMENT_CUT = (SubsetSeq(2, (frozenset({1, 2}), frozenset({1, 2}))), (3, 0), (2, 1), {(1, 1): 1, (1, 2): 1})
# part 1 draws at most 1 + 1 < 3, and both elements can send enough
PART_CUT = (SubsetSeq(2, (frozenset({1, 2}), frozenset({1, 2}))), (2, 1), (3, 0), {(1, 1): 1, (2, 1): 1})
# part 2 draws only on element 3, which supplies nothing: the summed limits
# do not see a cut that needs alpha
PAST_THE_CUT = (SubsetSeq(3, (frozenset({1, 2}), frozenset({3}))), (1, 1, 0), (1, 1), {})
# element 1's alpha equals its room, as do both parts' betas
TIGHT = (SubsetSeq(1, (frozenset({1}), frozenset({1}))), (2,), (1, 1), {(1, 1): 1, (1, 2): 1})


def _rooms(seq, alpha, caps):
    """The summed edge limits of each element and of each part."""
    limit = dict.fromkeys(seq.edges(), sum(alpha))
    limit.update(caps)
    send = [sum(limit[i, j] for j in seq.parts_containing(i)) for i in range(1, seq.m + 1)]
    draw = [sum(limit[i, j] for i in seq.sets[j - 1]) for j in range(1, seq.n + 1)]
    return send, draw


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

    @given(
        st.integers(1, 8).flatmap(
            lambda m: st.tuples(st.just(m), st.lists(st.frozensets(st.integers(1, m)), min_size=1, max_size=5))
        )
    )
    @example((8, [frozenset(), frozenset({2, 5}), frozenset()]))
    @settings(max_examples=100, deadline=None)
    def test_views_follow_the_parts(self, drawn):
        m, sets = drawn
        seq = SubsetSeq(m, tuple(sets))
        numbered = list(enumerate(sets, start=1))
        parts_of = tuple(tuple(j for j, s in numbered if i in s) for i in range(1, m + 1))
        edges = tuple(sorted((i, j) for j, s in numbered for i in s))
        assert seq._parts_of == parts_of
        assert seq._edges == seq.edges() == edges
        assert seq._members == tuple(tuple(sorted(s)) for s in sets)
        assert [seq.parts_containing(i) for i in range(1, m + 1)] == list(parts_of)

    def test_a_large_ground_set_builds_no_view(self):
        # the constructor only checks; the panel counts never read a view
        seq = SubsetSeq(10**8, (frozenset({1}), frozenset({1, 99999999})))
        assert not {"_parts_of", "_edges"} & vars(seq).keys()
        assert stat_table(seq, 1).rows == {(1,): 1, (2,): 2}
        assert not {"_parts_of", "_edges"} & vars(seq).keys()

    @pytest.mark.parametrize(
        "m, sets, error, message",
        [
            (2.5, (frozenset({1}),), TypeError, "'float' object cannot be interpreted as an integer"),
            (2.0, (frozenset({1}),), TypeError, "'float' object cannot be interpreted as an integer"),
            (0.5, (frozenset({1}),), ValueError, "ground-set size must be >= 1"),
            # the range check comes before the float refusal
            (1.5, (frozenset({2}),), ValueError, "part 1 contains 2, outside 1..1.5"),
        ],
        ids=["m2.5", "m2.0", "m0.5", "m1.5"],
    )
    def test_construction_errors(self, m, sets, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            SubsetSeq(m, sets)

    def test_bool_ground_set_size_accepted(self):
        seq = SubsetSeq(True, (frozenset({1}),))
        assert seq.parts_containing(1) == (1,)
        assert json.dumps(seq.to_json()) == '{"m": true, "sets": [[1]]}'


class TestFeasibility:
    @pytest.mark.parametrize(
        "call",
        [
            lambda seq: find_witness(seq, (2.7,), (2,)),
            lambda seq: admits_matching(seq, (1.5,), (1.9,)),
            lambda seq: admits_matching(seq, (1,), (1,), {(1, 1): 1.5}),
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
        assert admits_matching(seq, (2,), (1, 1), {(1, 1): 1, (1, 2): 1})
        assert not admits_matching(seq, (2,), (1, 1), {(1, 1): 1, (1, 2): 0})
        assert not admits_matching(seq, (2,), (2, 0), {(1, 1): 1})

    @given(matching_instances(), st.integers(0, 2))
    # feasible only by moving weight off the capped edge (1, 1)
    @example((SubsetSeq(2, (frozenset({1, 2}), frozenset({1, 2}))), (2, 1), (2, 1)), 1)
    @settings(max_examples=150, deadline=None)
    def test_against_enumeration(self, instance, cap):
        seq, alpha, beta = instance
        caps = {edge: cap for edge in seq.edges()[::2]}
        expected = enumerate_matching(seq, alpha, beta, caps)
        assert admits_matching(seq, alpha, beta, caps) == expected
        witness = find_witness(seq, alpha, beta, caps)
        assert (witness is not None) == expected
        if witness is not None:
            assert witness.row_sums(seq.m) == tuple(alpha)
            assert witness.col_sums(seq.n) == tuple(beta)
            assert all(w <= caps.get(edge, w) for edge, w in witness.weights.items())

    @given(capped_instances())
    # a cap of 0 on (1, 2) cuts part 2 off from its only element
    @example((SubsetSeq(1, (frozenset({1}), frozenset({1}))), (2,), (1, 1), {(1, 2): 0}))
    @example(ELEMENT_CUT)
    @example(PART_CUT)
    @example(PAST_THE_CUT)
    @example(TIGHT)
    # zero caps, an empty part and an element in no part
    @example((SubsetSeq(3, (frozenset(), frozenset({1, 2}))), (1, 1, 0), (0, 2), {(1, 2): 0}))
    @example((SubsetSeq(3, (frozenset(), frozenset({1, 2}))), (0, 2, 0), (0, 2), {(1, 2): 0}))
    @settings(max_examples=300, deadline=None)
    def test_one_signature(self, instance):
        # the flow, its witness and the oracle all read (seq, alpha, beta, caps)
        seq, alpha, beta, caps = instance
        expected = enumerate_matching(seq, alpha, beta, caps)
        assert admits_matching(seq, alpha, beta, caps) == expected
        witness = find_witness(seq, alpha, beta, caps)
        assert (witness is not None) == expected
        if witness is not None:
            assert (witness.row_sums(seq.m), witness.col_sums(seq.n)) == (alpha, beta)
            assert all(0 < w <= caps.get(edge, w) for edge, w in witness.weights.items())
        send, draw = _rooms(seq, alpha, caps)
        if any(map(operator.gt, alpha, send)) or any(map(operator.gt, beta, draw)):
            assert not expected
        # no caps and an empty cap table both leave every edge free
        free = admits_matching(seq, alpha, beta, None)
        assert admits_matching(seq, alpha, beta, {}) == free == enumerate_matching(seq, alpha, beta)

    @pytest.mark.parametrize(
        "key, error, message",
        [
            ((1, 2), ValueError, "cap keyed by (1, 2), which is not an edge"),  # element 1 not in part 2
            ((1, 4), ValueError, "cap keyed by (1, 4), which is not an edge"),  # part 4 of 3
            ((1, 1.5), TypeError, "cap keyed by (1, 1.5), whose indices are not integers"),
            ((1, 1.0), TypeError, "cap keyed by (1, 1.0), whose indices are not integers"),
        ],
    )
    def test_cap_key_errors(self, key, error, message):
        # an index is read with operator.index, as alpha and beta are
        with pytest.raises(error) as info:
            admits_matching(WIDE, (1, 0, 0, 0), (1, 0, 0), {key: 1})
        assert str(info.value) == message

    def test_cap_keys_that_equal_an_edge(self):
        # a bool index names the edge it equals; a float one is refused
        # even where it equals an int
        assert not admits_matching(WIDE, (1, 0, 0, 0), (1, 0, 0), {(1, True): 0})
        assert admits_matching(WIDE, (1, 0, 0, 0), (1, 0, 0), {(True, 1): 1})
        with pytest.raises(TypeError, match=r"cap keyed by \(1\.0, 1\)"):
            admits_matching(WIDE, (1, 0, 0, 0), (1, 0, 0), {(1.0, 1): 1})

    def test_caps_from_json(self):
        caps = caps_from_json(WIDE, {"2-1": 3})
        assert caps == {(2, 1): 3}
        with pytest.raises(ValueError):
            caps_from_json(WIDE, {"1-2": 1})  # element 1 is not in part 2
        with pytest.raises(ValueError):
            caps_from_json(WIDE, {"2-1": -1})


class TestVertexCut:
    """`_flow` rejects a pair whose alpha_i exceeds the summed limits of
    element i's edges, or whose beta_j exceeds those of part j's, before any
    augmenting path (`TestRestricted.test_one_signature` runs these cases
    against the oracle)."""

    @pytest.mark.parametrize("case", ["ELEMENT_CUT", "PART_CUT"])
    def test_cut_cases_fail_their_side(self, case, monkeypatch):
        seq, alpha, beta, caps = globals()[case]
        send, draw = _rooms(seq, alpha, caps)
        elements = any(map(operator.gt, alpha, send))
        parts = any(map(operator.gt, beta, draw))
        assert (elements, parts) == ((True, False) if case == "ELEMENT_CUT" else (False, True))
        assert not enumerate_matching(seq, alpha, beta, caps)

        # the cut answers on either side before the search builds its queue
        def no_search(*args):
            raise AssertionError("the augmenting-path search ran")

        monkeypatch.setattr(matchings, "deque", no_search)
        assert not admits_matching(seq, alpha, beta, caps)

    def test_tight_and_past_the_cut(self):
        seq, alpha, beta, caps = TIGHT
        assert _rooms(seq, alpha, caps) == ([2], [1, 1])
        assert find_witness(seq, alpha, beta, caps).weights == {(1, 1): 1, (1, 2): 1}
        seq, alpha, beta, caps = PAST_THE_CUT
        send, draw = _rooms(seq, alpha, caps)
        assert all(map(operator.le, alpha, send)) and all(map(operator.le, beta, draw))
        assert not enumerate_matching(seq, alpha, beta, caps)


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
        # both halves of the decoder are exercised at odd and even n
        rng = random.Random(radix)
        for n in range(1, 13):
            betas = [(0,) * n, (radix - 1,) * n]
            betas += [tuple(rng.randrange(radix) for _ in range(n)) for _ in range(60)]
            decode = _key_decoder(radix, n)
            place = _places(radix, n)
            for beta in betas:
                key = sum(b * radix ** (n - j) for j, b in enumerate(beta, start=1))
                assert decode(key) == (beta, vec_factorial(beta))
                assert sum(map(operator.mul, beta, place)) == key
