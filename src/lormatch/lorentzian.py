"""Lorentzian certification: support exchange checks and Hessian inertia.

`certify_lorentzian` runs `_STAGES` in order; the first failure decides
(Braenden-Huh): `_homogeneity`, `_signs` (no negative coefficient),
`_support` (the symmetric exchange axiom) and `_hessian_walk` (every Hessian
of a derivative down to degree 2 has at most one positive eigenvalue).

Every inertia here comes from one congruence elimination, `_inertia` in
`_util.py` (shared with the realization ranks of `polymatroids`):
symmetric fraction-free (Bareiss) elimination, run on Python ints for exact
input and on floats under a pivot tolerance.  `symmetric_inertia` scales an
exact matrix to integers with `_util.clear_denominators` before handing it
over; the tests check the kernel against the characteristic polynomial
(Faddeev-LeVerrier with Descartes' rule, `charpoly_inertia` in
tests/oracles.py).

The work follows the support, not the degree box.  Entry (i, j) of the
Hessian of the derivative at gamma is the normalized coefficient of f at
gamma + e_i + e_j, so the derivatives that do not vanish are exactly the
gamma = support point - e_i - e_j.  Exact input is first scaled to integers
by the same `clear_denominators`, which changes no inertia, so every Hessian
is an integer matrix.  `_hessian_walk` takes one of two routes to the same
verdict, witness, inertia and count:

- The class route, when every normalized coefficient c * alpha! is one value
  c (exactly; for float input, equal floats) and the box prod(max_i + 1) of
  the support holds at most `_BOX_PER_POINT` keys per support point.  Every
  inducing symbol has one normalized value.  The support is one `_packed`
  lattice bitset over its mixed-radix box, and
  hit_ij = (support & D_ij) >> (place_i + place_j), D_ij the keys whose
  digits i and j are at least 1 (digit i at least 2 when i = j), is the set
  of gamma whose Hessian holds c at (i, j).  Refining the box by every hit
  leaves the classes of equal Hessians, c times a 0/1 pattern, and each is
  eliminated once; the union of the hits numbers the derivatives, and the
  lowest gamma of a failing class is the witness.  When the classes would
  take more bits than the filing walk's pointers (`_POINTER_BITS`), the
  route hands over to the filing walk.
- The filing walk, for every other input: one pass over the terms files
  each under its gamma, keyed in the same mixed radix (`_mixed_places`,
  digit i below max_i + 1), so the key of gamma = exp - e_i - e_j is
  key(exp) - place[i] - place[j], and key order is lexicographic order.
  Only the upper triangle (i <= j) of each Hessian is filed, as a flat list
  of n(n + 1)/2 entries.  The walk visits the keys in sorted order and looks
  each entry tuple up in a memo that lives for one call, so each distinct
  Hessian is eliminated once, for both coefficient kinds (equal tuples have
  equal inertia).

Symbols repeat their Hessians heavily, and exactly: the kappa = 4^4 symbol
of the four-cycle of pairs has 44,000 derivatives but 87 distinct Hessians.
Either route counts every derivative that does not vanish and reports the
first failing one, so `checked_derivatives` and the lexicographically first
failing gamma, unpacked from its key only for the witness, are those of a
walk that eliminates every Hessian (tests/oracles.walk_literal).

A support S in n variables larger than 2^n is tested through
`points_polymatroid` (Murota: M-convex sets are the integer points of
integral base polytopes).  Its greedy rank table costs at most 2^n (n + |S|)
membership probes, and the axiom check and the walk over the candidate's
base points follow, instead of the |S|^2 * n^2 pair scan; a smaller support,
or one that route rejects, goes through the pair scan, which also supplies
the violating pair.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from ._packed import _bitset, _mixed_digits, _mixed_places, _nonzero_digit
from ._util import _inertia, checked_tolerance, clear_denominators, grlex_key, vec_factorial
from .polymatroids import points_polymatroid
from .polynomials import FloatPoly, Poly


@dataclass(frozen=True)
class Inertia:
    """Counts of positive, negative, and zero eigenvalues."""

    n_pos: int
    n_neg: int
    n_zero: int

    def __post_init__(self) -> None:
        if min(self.n_pos, self.n_neg, self.n_zero) < 0:
            raise ValueError("inertia counts must be nonnegative")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.n_pos, self.n_neg, self.n_zero)


@dataclass(frozen=True)
class CertFailure:
    """Why certification failed, with a witness that can be rechecked."""

    kind: str
    exponents: tuple[tuple[int, ...], ...] | None = None
    derivative: tuple[int, ...] | None = None
    inertia: tuple[int, int, int] | None = None

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.exponents is not None:
            out["exponents"] = [list(e) for e in self.exponents]
        if self.derivative is not None:
            out["derivative"] = list(self.derivative)
        if self.inertia is not None:
            out["inertia"] = list(self.inertia)
        return out


@dataclass(frozen=True)
class LorentzReport:
    verdict: bool
    failure: CertFailure | None
    checked_derivatives: int

    def __post_init__(self) -> None:
        if not self.verdict and self.failure is None:
            raise ValueError("a negative verdict needs a failure witness")

    def to_json(self) -> dict:
        return {
            "lorentzian": self.verdict,
            "failure": None if self.failure is None else self.failure.to_json(),
            "checked_derivatives": self.checked_derivatives,
        }


def is_m_convex(
    supp: Iterable[Sequence[int]],
) -> tuple[bool, tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """Symmetric exchange check; returns a violating pair on failure.

    Supports with more than 2^n points are first decided through
    `points_polymatroid`; the pair scan runs when that route does not
    confirm, so the witness is always the first violating pair in sorted
    order.
    """
    index = {tuple(map(operator.index, v)) for v in supp}
    if not index:
        return True, None
    first = next(iter(index))
    nvars = len(first)
    if any(len(p) != nvars for p in index):
        raise ValueError("support vectors must have equal length")
    total = sum(first)
    if any(sum(p) != total for p in index):
        raise ValueError("mixed degrees in support")
    if len(index) > 1 << nvars and points_polymatroid(index, nvars) is not None:
        return True, None
    pts = sorted(index)
    for a in pts:
        for b in pts:
            for i in range(nvars):
                if a[i] <= b[i]:
                    continue
                found = False
                for j in range(nvars):
                    if a[j] < b[j]:
                        moved = list(a)
                        moved[i] -= 1
                        moved[j] += 1
                        if tuple(moved) in index:
                            found = True
                            break
                if not found:
                    return False, (a, b)
    return True, None


def symmetric_inertia(matrix: Sequence[Sequence], tol: float | None = None) -> Inertia:
    """Inertia by congruence elimination.

    Exact over the rationals when tol is None (floating entries rejected):
    the matrix is scaled to integers by `clear_denominators`, which keeps
    the inertia.  Otherwise works in floating point with a Schur-complement
    value of magnitude at most tol treated as zero.
    Both go through the same fraction-free elimination, `_inertia`.
    """
    rows = [list(r) for r in matrix]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("square matrix required")
    if tol is None:
        if any(isinstance(v, float) for r in rows for v in r):
            raise TypeError("floating entries require a tolerance")
        _, flat = clear_denominators([Fraction(v) for r in rows for v in r])
        work = [flat[k * n : k * n + n] for k in range(n)]
        gap_cut = 0
    else:
        checked_tolerance(tol)
        work = [[float(v) for v in r] for r in rows]
        if not all(math.isfinite(v) for r in work for v in r):
            raise ValueError("finite matrix entries required")
        gap_cut = tol
    for i in range(n):
        for j in range(i):
            if abs(work[i][j] - work[j][i]) > gap_cut:
                raise ValueError("symmetric matrix required")
    return Inertia(*_inertia(work, tol))


def quad_inertia(q: Poly | FloatPoly, tol: float | None = None) -> Inertia:
    """Inertia of the Hessian of a homogeneous quadratic."""
    if isinstance(q, FloatPoly) and tol is None:
        raise TypeError("floating polynomial requires a tolerance")
    hd = q.homogeneous_degree()
    if q.support() and hd != 2:
        raise ValueError("homogeneous quadratic required")
    units = [tuple(int(i == k) for k in range(q.nvars)) for i in range(q.nvars)]
    hess = [
        [q.normalized_coeff(tuple(map(operator.add, a, b))) for b in units] for a in units
    ]
    return symmetric_inertia(hess, tol)


def _homogeneity(f, tol):
    if f.homogeneous_degree() is not None:
        return None, 0
    terms = f.sorted_terms()
    return CertFailure("non-homogeneous", exponents=(terms[0][0], terms[-1][0])), 0


def _signs(f, tol):
    # exponents are unique, so the grlex-least one is the first in sorted order;
    # admission dropped float terms within tol; a Fraction's sign is its numerator's
    negative = min(
        (exp for exp, c in f.items() if (c.numerator if tol is None else c) < 0),
        key=grlex_key,
        default=None,
    )
    failure = None if negative is None else CertFailure("negative-coefficient", exponents=(negative,))
    return failure, 0


def _support(f, tol):
    ok, pair = is_m_convex(f.support())
    return (None if ok else CertFailure("support-not-M-convex", exponents=pair)), 0


# the class route's two limits keep its memory below the filing walk's
# (measured with tracemalloc): a box of at most _BOX_PER_POINT keys per
# support point bounds its n + 5 box-sized ints, and its classes may hold at
# most _POINTER_BITS bits per pointer the filing walk would store (one per
# support point and one per Hessian slot of each derivative found so far);
# past that the filing walk runs instead
_BOX_PER_POINT = 32
_POINTER_BITS = 64


def _hessian_walk(f, tol):
    # homogeneous by now: any term's degree is the degree.  Degrees 0 and 1
    # have no Hessian, and skipping the set-up halves their cost
    if sum(next(f.items())[0]) < 2:
        return None, 0
    exps, coeffs = zip(*f.items())
    if tol is None:
        _, coeffs = clear_denominators(coeffs)
    values = [c * vec_factorial(exp) for exp, c in zip(exps, coeffs)]
    radices = [max(column) + 1 for column in zip(*exps)]
    if values.count(values[0]) == len(values) and math.prod(radices) <= _BOX_PER_POINT * len(exps):
        found = _class_walk(exps, values[0], radices, tol)
        if found is not None:
            return found
    return _filing_walk(exps, values, radices, tol)


def _class_walk(exps, c, radices, tol):
    # the support as one bitset over its mixed-radix box; hit (i, j) is the
    # set of gamma with gamma + e_i + e_j in the support, the gamma whose
    # Hessian holds c at (i, j).  Refining the box by every hit leaves the
    # classes of equal Hessians, keyed by their 0/1 patterns (slot (0, 0)
    # the most significant bit); None once the classes outgrow their bits
    n = len(radices)
    place = _mixed_places(radices)
    size = place[0] * radices[0]
    slots = n * (n + 1) // 2
    support = _bitset((sum(map(operator.mul, exp, place)) for exp in exps), size)
    ones = [_nonzero_digit(radices, place, i) for i in range(n)]
    classes = {0: (1 << size) - 1}
    union = 0
    bit = 1 << slots
    for i in range(n):
        has_i = support & ones[i]
        for j in range(i, n):
            bit >>= 1
            if j == i:
                hit = (has_i & ones[i] << place[i]) >> 2 * place[i]
            else:
                hit = (has_i & ones[j]) >> place[i] + place[j]
            if not hit:
                continue
            union |= hit
            split = {}
            for pattern, members in classes.items():
                inside = members & hit
                if inside:
                    split[pattern | bit] = inside
                    members ^= inside
                if members:
                    split[pattern] = members
            classes = split
            if len(classes) * size > _POINTER_BITS * (len(exps) + slots * union.bit_count()):
                return None
    # pattern 0 holds the gamma whose derivative vanishes
    classes.pop(0, None)
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    first = None
    for pattern, members in classes.items():
        hess = [[0] * n for _ in range(n)]
        for i, j in reversed(upper):
            if pattern & 1:
                hess[i][j] = hess[j][i] = c
            pattern >>= 1
        inertia = _inertia(hess, tol)
        if inertia[0] > 1:
            low = (members & -members).bit_length() - 1
            if first is None or low < first[0]:
                first = low, inertia
    if first is None:
        return None, union.bit_count()
    low, inertia = first
    failure = CertFailure("bad-inertia", derivative=_mixed_digits(radices, low), inertia=inertia)
    return failure, (union & (2 << low) - 1).bit_count()


def _filing_walk(exps, values, radices, tol):
    # one pass files each term into the upper triangle of the Hessian of
    # every gamma that reads it, a flat row-major list per packed gamma
    n = len(radices)
    place = _mixed_places(radices)
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    slots = [[0] * n for _ in range(n)]
    for s, (i, j) in enumerate(upper):
        slots[i][j] = s
    flats: defaultdict[int, list] = defaultdict(([0] * len(upper)).copy)
    for exp, c in zip(exps, values):
        key = sum(map(operator.mul, exp, place))
        used = [i for i, e in enumerate(exp) if e]
        for at, i in enumerate(used):
            key_i = key - place[i]
            slots_i = slots[i]
            for j in used[at:] if exp[i] > 1 else used[at + 1 :]:
                flats[key_i - place[j]][slots_i[j]] = c
    # the walk counts and checks every gamma in lexicographic order, but
    # eliminates each distinct entry tuple once
    memo: dict[tuple, tuple[int, int, int]] = {}
    for checked, gamma in enumerate(sorted(flats), 1):
        entries = tuple(flats[gamma])
        inertia = memo.get(entries)
        if inertia is None:
            hess = [[0] * n for _ in range(n)]
            for (i, j), v in zip(upper, entries):
                hess[i][j] = hess[j][i] = v
            inertia = memo[entries] = _inertia(hess, tol)
        if inertia[0] > 1:
            witness = _mixed_digits(radices, gamma)
            return CertFailure("bad-inertia", derivative=witness, inertia=inertia), checked
    return None, len(flats)


# each stage maps (f, tol), tol None if exact, to (CertFailure or None, derivatives checked)
_STAGES = (_homogeneity, _signs, _support, _hessian_walk)


def certify_lorentzian(f: Poly | FloatPoly, tol: float | None = None) -> LorentzReport:
    """Full certification; all failures come back as verdicts with witnesses.

    Admission refuses a float polynomial without a tolerance and drops its
    terms at or below it; exact input runs with tol None.  The zero
    polynomial passes; otherwise `_STAGES` run and the first failure decides.
    """
    if tol is not None:
        checked_tolerance(tol)
    if not isinstance(f, FloatPoly):
        tol = None
    elif tol is None:
        raise TypeError("floating polynomial requires a tolerance")
    else:
        # magnitudes at or below the tolerance count as absent terms
        f = FloatPoly(f.nvars, {e: c for e, c in f.items() if abs(c) > tol})
    if not f:
        return LorentzReport(True, None, 0)
    for stage in _STAGES:
        failure, checked = stage(f, tol)
        if failure is not None:
            return LorentzReport(False, failure, checked)
    return LorentzReport(True, None, checked)
