"""The packed-int layouts, each with the one invariant its users rely on.

Digit keys (the sumsets of `matchings`, the boxes of `operators`, the
Hessian keys and lattice bitsets of `lorentzian`).  A vector v whose entry i
runs below radices[i] is the key sum_i v_i * places[i] (`_places`), entry 1
most significant, so the keys number the points of the box prod(radices)
from 0 up and int order is lexicographic order.  `_split` reads a key's
digits back; `_key_decoder` does so for many keys that share their halves.
The sumsets and boxes give every digit one radix R above every entry that a
key or a sum of keys can hold: then no addition carries, so adding keys adds
their vectors.  A set of points is one int with bit k set for key k
(`_bitset`), and `_nonzero_digit` is the set of the points whose digit i is
not 0: runs of the box repeated with period radices[i] * places[i] by
`_tile`, which takes any whole number of periods.  Shifting a bitset inside
that mask right by places[i] lowers digit i of each of its points by 1 and
borrows from no other digit, and the points whose digit i is at least 2 are
those in both the mask and the mask shifted left by places[i].

Guard-bit fields (the rank tables of `polymatroids`).  A table of 2^m
entries, one per subset mask, is one int of `width`-byte fields (`_pack`)
in bit-reversed mask order (`_mask_order`), so the masks without element 1
are the low half of the int and those with it the high half.  Every entry is
below 2^(8 width - 1), so the top bit of each field is a guard bit: a
fieldwise subtraction (large | guards) - small never borrows across fields,
and the guard bits it leaves say which fields of small are at most large's
(`_fields_le`).  `_split_masks` selects the fields whose position has one
bit clear.

Subset masks (every table over the subsets of {1..m}).  Element i is bit
i - 1 (`mask_to_elements`), and tables list the masks in increasing order:
`_subset_sums` gives the sum over each mask, and `_split_masks` with 1-bit
fields gives, for each element, the 2^m-bit set of the masks without it.
"""

from __future__ import annotations

import functools
import operator
from math import factorial, prod
from typing import Callable, Iterable, Sequence


def _places(radices: Sequence[int]) -> list[int]:
    """The place value of each key digit, most significant first: digit i
    runs below radices[i]."""
    places = [1] * len(radices)
    for i in range(len(radices) - 1, 0, -1):
        places[i - 1] = places[i] * radices[i]
    return places


def _split(radices: Sequence[int], key: int) -> tuple[tuple[int, ...], int]:
    """The digits of a key, most significant first, and the product of
    their factorials."""
    out = []
    fact = 1
    for radix in reversed(radices):
        digit = key % radix
        key //= radix
        out.append(digit)
        if digit > 1:
            fact *= factorial(digit)
    out.reverse()
    return tuple(out), fact


def _key_decoder(radices: Sequence[int]) -> Callable[[int], tuple[tuple[int, ...], int]]:
    """The decoder of keys with these radices: key -> (its digits, most
    significant first; the product of their factorials).

    A key of n digits is split once, above its last ceil(n/2) digits, and
    each half is decoded on its first sighting and looked up after that: the
    keys of one call share few distinct halves.
    """
    cut = len(radices) // 2
    head, tail = radices[:cut], radices[cut:]
    size = prod(tail)
    highs: dict[int, tuple[tuple[int, ...], int]] = {}
    lows: dict[int, tuple[tuple[int, ...], int]] = {}

    def decode(key: int) -> tuple[tuple[int, ...], int]:
        hi, lo = divmod(key, size)
        high = highs.get(hi)
        if high is None:
            high = highs[hi] = _split(head, hi)
        low = lows.get(lo)
        if low is None:
            low = lows[lo] = _split(tail, lo)
        return high[0] + low[0], high[1] * low[1]

    return decode


def _bitset(keys: Iterable[int], size: int) -> int:
    """The int of `size` bits with bit k set for each key k, set in a byte buffer."""
    buf = bytearray((size + 7) >> 3)
    for key in keys:
        buf[key >> 3] |= 1 << (key & 7)
    return int.from_bytes(buf, "little")


def _nonzero_digit(radices: Sequence[int], places: Sequence[int], i: int) -> int:
    """The keys of the box (bit k for key k, below prod(radices)) whose digit i
    is not 0: one run of places[i] * (radices[i] - 1) bits per period of
    radices[i] * places[i] bits."""
    radix, place = radices[i], places[i]
    run = ((1 << (radix - 1) * place) - 1) << place
    return _tile(run, radix * place, radices[0] * places[0])


def _subset_sums(values: Sequence[int]) -> list[int]:
    """The sum of values[i] over the bits i of each mask, in mask order."""
    out = [0]
    for v in values:
        out += [u + v for u in out]
    return out


@functools.lru_cache(maxsize=64)
def _mask_order(m: int) -> Callable:
    """An itemgetter that lists a 2^m table in bit-reversed mask order:
    position p holds the mask whose bit i - 1 is bit m - i of p."""
    return operator.itemgetter(*_subset_sums([1 << bit for bit in reversed(range(m))]))


def _pack(table: Sequence[int], m: int, width: int) -> int:
    """The table as one int of `width`-byte fields in `_mask_order`, position
    0 lowest; the entries must be nonnegative and below 2^(8 width - 1)."""
    entries = _mask_order(m)(table)
    if width == 1:
        raw = bytes(entries)
    else:
        raw = b"".join([v.to_bytes(width, "little") for v in entries])
    return int.from_bytes(raw, "little")


def _field_width(top: int) -> int:
    """Bytes per field for entries up to `top`, leaving room for the guard bit."""
    return top.bit_length() // 8 + 1


def _tile(unit: int, period: int, size: int) -> int:
    """`unit` repeated every `period` bits up to `size` bits, copied by doubling
    (linear in size); size must be a multiple of period, and when the quotient
    is not a power of two the last doubling is cut back to size."""
    while period < size:
        unit |= unit << period
        period <<= 1
    return unit if period == size else unit & (1 << size) - 1


def _fields_le(small: int, large: int, guards: int) -> bool:
    """Is every field of `small` at most the same field of `large`?  `guards`
    holds the guard bit of every field."""
    return ((large | guards) - small) & guards == guards


@functools.lru_cache(maxsize=64)
def _split_masks(m: int, bits: int) -> tuple[int, tuple[int, ...]]:
    """The guard bits of 2^m packed fields of `bits` bits, and for each
    position bit b the fields whose position has b clear (runs of 2^b
    fields, every other run)."""
    size = bits << m
    guards = _tile(1 << bits - 1, bits, size)
    clear = tuple(_tile((1 << (bits << b)) - 1, bits << b + 1, size) for b in range(m))
    return guards, clear


def mask_to_elements(mask: int) -> tuple[int, ...]:
    """Bitmask to sorted 1-indexed elements; bit i-1 encodes element i."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)
