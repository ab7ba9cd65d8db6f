"""The packed-int layouts, each with the one invariant its users rely on.

Digit keys (the sumsets of `matchings`, the boxes of `operators`, the
Hessian keys of `lorentzian`).  A vector v of n entries is the key
sum_i v_i * R**(n-1-i) (`_places`), entry 1 most significant, for a radix R
above every entry that a key or a sum of keys can hold.  Then no addition
carries, so adding keys adds their vectors, and int order is lexicographic
order.  `_split` reads a key's digits back; `_key_decoder` does so for many
keys that share their halves.

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
from math import factorial
from typing import Callable, Sequence


def _places(radix: int, n: int) -> list[int]:
    """The place value of each of n key digits, most significant first."""
    return [radix ** (n - 1 - i) for i in range(n)]


def _split(radix: int, width: int, key: int) -> tuple[tuple[int, ...], int]:
    """The width digits of a key, most significant first, and the product
    of their factorials."""
    out = []
    fact = 1
    for _ in range(width):
        digit = key % radix
        key //= radix
        out.append(digit)
        if digit > 1:
            fact *= factorial(digit)
    out.reverse()
    return tuple(out), fact


def _key_decoder(radix: int, n: int) -> Callable[[int], tuple[tuple[int, ...], int]]:
    """The decoder of n-digit keys: key -> (its digits, most significant
    first; the product of their factorials).

    A key is split once, by R**ceil(n/2), and each half is decoded on its
    first sighting and looked up after that: the keys of one call share few
    distinct halves.
    """
    low = (n + 1) // 2
    size = radix**low
    highs: dict[int, tuple[tuple[int, ...], int]] = {}
    lows: dict[int, tuple[tuple[int, ...], int]] = {}

    def decode(key: int) -> tuple[tuple[int, ...], int]:
        hi, lo = divmod(key, size)
        head = highs.get(hi)
        if head is None:
            head = highs[hi] = _split(radix, n - low, hi)
        tail = lows.get(lo)
        if tail is None:
            tail = lows[lo] = _split(radix, low, lo)
        return head[0] + tail[0], head[1] * tail[1]

    return decode


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
    (linear in size); size / period must be a power of two."""
    while period < size:
        unit |= unit << period
        period <<= 1
    return unit


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
