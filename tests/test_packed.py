"""The packed-int layouts of `_packed`, each against a plain spelling of its
invariant: digit keys, guard-bit fields and subset masks."""

import math
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lormatch._packed import (
    _field_width,
    _fields_le,
    _key_decoder,
    _mask_order,
    _pack,
    _places,
    _split,
    _split_masks,
    _subset_sums,
    mask_to_elements,
)


@st.composite
def digit_vectors(draw, count=1):
    """(radix, vectors of one length n whose digits are below the radix)."""
    radix = draw(st.integers(2, 40))
    n = draw(st.integers(1, 9))
    vector = st.tuples(*[st.integers(0, radix - 1)] * n)
    return radix, draw(st.lists(vector, min_size=count, max_size=count + 20))


def _key(radix, vector):
    return sum(v * radix ** (len(vector) - j) for j, v in enumerate(vector, start=1))


def _position_mask(m, position):
    """The mask at a position of bit-reversed mask order: bit m - e of the
    position is element e."""
    return sum(1 << (e - 1) for e in range(1, m + 1) if position >> (m - e) & 1)


def _check_split_masks(m, bits):
    """`_split_masks` against its fields written out one by one, the
    highest position first, as `int(.., 2)` reads them."""
    guards, clear = _split_masks(m, bits)
    positions = range((1 << m) - 1, -1, -1)
    assert guards == int(("1" + "0" * (bits - 1)) * (1 << m), 2)
    assert len(clear) == m
    for b in range(m):
        fields = "".join("0" * bits if p >> b & 1 else "1" * bits for p in positions)
        assert clear[b] == int(fields, 2)


class TestDigitKeys:
    @given(digit_vectors())
    def test_keys_round_trip(self, case):
        radix, vectors = case
        n = len(vectors[0])
        decode = _key_decoder(radix, n)  # one decoder shares its halves across keys
        place = _places(radix, n)
        for vector in vectors:
            key = _key(radix, vector)
            assert sum(map(operator.mul, vector, place)) == key
            expected = (vector, math.prod(map(math.factorial, vector)))
            assert _split(radix, n, key) == expected
            assert decode(key) == expected

    @given(digit_vectors(count=2))
    def test_int_order_is_lex_order(self, case):
        # the callers compare keys of one degree; the order holds for any two
        radix, vectors = case
        for a in vectors:
            for b in vectors:
                assert (_key(radix, a) < _key(radix, b)) == (a < b)

    @given(digit_vectors(count=2))
    def test_adding_keys_never_carries(self, case):
        radix, vectors = case
        a, b = vectors[:2]
        total = tuple(map(operator.add, a, b))
        if max(total) < radix:
            assert _key(radix, a) + _key(radix, b) == _key(radix, total)
            assert _split(radix, len(total), _key(radix, a) + _key(radix, b))[0] == total


class TestGuardBitFields:
    @given(st.integers(1, 6), st.integers(1, 3), st.data())
    @settings(max_examples=150)
    def test_fields_read_back(self, m, width, data):
        top = (1 << 8 * width - 1) - 1  # the largest entry under the guard bit
        entry = st.one_of(st.just(top), st.integers(0, top))
        table = data.draw(st.lists(entry, min_size=1 << m, max_size=1 << m))
        packed = _pack(table, m, width)
        field = (1 << 8 * width) - 1
        for position in range(1 << m):
            assert packed >> 8 * width * position & field == table[_position_mask(m, position)]
        assert list(_mask_order(m)(table)) == [table[_position_mask(m, p)] for p in range(1 << m)]

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_field_width_leaves_the_guard_bit(self, width):
        top = (1 << 8 * width - 1) - 1
        assert _field_width(top) == width
        assert _field_width(top + 1) == width + 1

    @given(st.sampled_from([8, 16, 24]), st.data())
    @settings(max_examples=150)
    def test_fields_le_is_the_fieldwise_comparison(self, bits, data):
        entry = st.integers(0, (1 << bits - 1) - 1)
        count = data.draw(st.integers(1, 12))
        small, large = (data.draw(st.lists(entry, min_size=count, max_size=count)) for _ in range(2))

        def pack(values):
            return sum(v << bits * k for k, v in enumerate(values))

        guards = pack([1 << bits - 1] * count)
        assert _fields_le(pack(small), pack(large), guards) == all(map(operator.le, small, large))

    @pytest.mark.parametrize("bits", [8, 16, 24])
    @pytest.mark.parametrize("m", range(1, 6))
    def test_split_masks_select_fields(self, m, bits):
        _check_split_masks(m, bits)

    @pytest.mark.parametrize("m, bits", [(16, 1), (16, 8), (17, 1)])
    def test_split_masks_select_fields_of_wide_tables(self, m, bits):
        # the tables whose runs were built by big-int products before doubling
        _check_split_masks(m, bits)


class TestSubsetMasks:
    @pytest.mark.parametrize("m", range(1, 17))
    def test_clear_runs_are_the_masks_without_each_element(self, m):
        # with 1-bit fields a position is a mask: entry b is the set of the
        # masks without element b + 1, as one 2^m-bit int
        _, clear = _split_masks(m, 1)
        assert len(clear) == m
        for b in range(m):
            # bit `mask` of the int, highest mask first
            bits = "".join("0" if mask >> b & 1 else "1" for mask in reversed(range(1 << m)))
            assert clear[b] == int(bits, 2)

    @given(st.lists(st.integers(-50, 50), max_size=8))
    def test_subset_sums_are_sums_over_masks(self, values):
        expected = [
            sum(v for i, v in enumerate(values) if mask >> i & 1) for mask in range(1 << len(values))
        ]
        assert _subset_sums(values) == expected

    @given(st.sets(st.integers(1, 20)))
    def test_mask_to_elements_reads_bit_i_minus_1_as_element_i(self, elements):
        assert mask_to_elements(sum(1 << (i - 1) for i in elements)) == tuple(sorted(elements))
