"""The packed-int layouts of `_packed`, each against a plain spelling of its
invariant: digit keys and their lattice bitsets, guard-bit fields and subset
masks."""

import itertools
import math
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lormatch._packed import (
    _bitset,
    _field_width,
    _fields_le,
    _key_decoder,
    _mask_order,
    _nonzero_digit,
    _pack,
    _places,
    _split,
    _split_masks,
    _subset_sums,
    _tile,
    mask_to_elements,
)


@st.composite
def digit_vectors(draw, count=1):
    """(radices, vectors of one length n whose digit i is below radices[i]);
    the radices are all equal, as the sumsets and boxes use them, or mixed,
    as the Hessian keys use them."""
    n = draw(st.integers(1, 9))
    radix = st.integers(1, 40)
    radices = draw(st.one_of(radix.map(lambda r: (r,) * n), st.tuples(*[radix] * n)))
    vector = st.tuples(*[st.integers(0, r - 1) for r in radices])
    return radices, draw(st.lists(vector, min_size=count, max_size=count + 20))


def _key(radices, vector):
    """The key of a vector, most significant digit first, by Horner's rule."""
    key = 0
    for radix, v in zip(radices, vector):
        key = key * radix + v
    return key


def _check_round_trip(radices, vectors):
    decode = _key_decoder(radices)  # one decoder shares its halves across keys
    place = _places(radices)
    for vector in vectors:
        key = _key(radices, vector)
        assert sum(map(operator.mul, vector, place)) == key
        expected = (vector, math.prod(map(math.factorial, vector)))
        assert _split(radices, key) == expected
        assert decode(key) == expected


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
        _check_round_trip(*case)

    @pytest.mark.parametrize("radix", range(2, 18))
    def test_extreme_keys_round_trip(self, radix):
        # the all-zero and all-(R - 1) vectors at n = 1..12 read both halves
        # of the decoder, at odd and even n
        for n in range(1, 13):
            _check_round_trip((radix,) * n, [(0,) * n, (radix - 1,) * n])

    @given(digit_vectors(count=2))
    def test_int_order_is_lex_order(self, case):
        # the callers compare keys of one degree; the order holds for any two
        radices, vectors = case
        for a in vectors:
            for b in vectors:
                assert (_key(radices, a) < _key(radices, b)) == (a < b)

    @given(digit_vectors(count=2))
    def test_adding_keys_never_carries(self, case):
        radices, vectors = case
        a, b = vectors[:2]
        # b cut down so that every digit sum stays below its radix
        b = tuple(min(v, radix - 1 - u) for u, v, radix in zip(a, b, radices))
        total = tuple(map(operator.add, a, b))
        assert _key(radices, a) + _key(radices, b) == _key(radices, total)
        assert _split(radices, _key(radices, a) + _key(radices, b))[0] == total


class TestMixedRadixBitsets:
    """Digit i of a lattice key runs below radices[i]; bit k of a bitset over
    the box stands for the key k."""

    radices = st.lists(st.integers(1, 5), min_size=1, max_size=4)

    @staticmethod
    def _box(radices):
        return list(itertools.product(*map(range, radices)))

    @given(radices)
    def test_keys_number_the_box_in_lex_order(self, radices):
        places = _places(radices)
        box = self._box(radices)
        keys = [sum(map(operator.mul, point, places)) for point in box]
        assert keys == list(range(math.prod(radices)))
        assert [_split(radices, key)[0] for key in keys] == box

    @given(radices, st.data())
    def test_bitset_sets_one_bit_per_key(self, radices, data):
        size = math.prod(radices)
        keys = data.draw(st.lists(st.integers(0, size - 1)))
        assert _bitset(keys, size) == sum(1 << key for key in set(keys))

    @given(radices, st.data())
    def test_digit_masks_hold_the_keys_with_a_large_digit(self, radices, data):
        i = data.draw(st.integers(0, len(radices) - 1))
        places = _places(radices)
        ones = _nonzero_digit(radices, places, i)
        box = list(enumerate(self._box(radices)))
        assert ones == sum(1 << key for key, point in box if point[i] >= 1)
        assert ones & ones << places[i] == sum(1 << key for key, point in box if point[i] >= 2)

    @given(st.integers(1, 12), st.integers(1, 40), st.data())
    def test_tile_repeats_a_unit_any_whole_number_of_times(self, period, count, data):
        unit = data.draw(st.integers(0, (1 << period) - 1))
        assert _tile(unit, period, period * count) == sum(unit << period * r for r in range(count))


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
