"""Lorentzian certification: support exchange checks and Hessian inertia.

A homogeneous polynomial with nonnegative coefficients passes when its
support is M-convex (it satisfies the symmetric exchange axiom) and every
iterated partial derivative down to degree 2 has a Hessian with at most one
positive eigenvalue (Braenden-Huh).

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
gamma + e_i + e_j, so one pass over the coefficient table files each entry
under its gamma = support point - e_i - e_j: exactly the derivatives that
do not vanish.  Exact input is first scaled to integers by the same
`clear_denominators`, which changes no inertia, so every Hessian is an
integer matrix.  Each gamma is keyed by a packed int, its entries as
big-endian digits in radix (largest exponent entry + 1); no digit carries,
so the key of gamma = exp - e_i - e_j is key(exp) - place[i] - place[j],
and int order is lexicographic order.  Only the upper triangle (i <= j) of
each Hessian is filed, as a flat list of n(n + 1)/2 entries.

Symbols repeat their Hessians heavily, and exactly: the kappa = 4^4 symbol
of the four-cycle of pairs has 44,000 derivatives but 87 distinct entry
tuples.  The walk visits the keys in sorted order and looks each entry tuple
up in a memo that lives for one call, so each distinct Hessian is eliminated
once, for both coefficient kinds (equal tuples have equal inertia).  The
walk still counts every derivative that does not vanish and stops at the
first failing one, so `checked_derivatives` and the lexicographically first
failing gamma, unpacked from its key only for the witness, are those of a
walk that eliminates every Hessian (tests/oracles.certify_literal).

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

from ._util import _inertia, checked_tolerance, clear_denominators, grlex_key, vec_factorial
from .matchings import _key_decoder
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

    @property
    def dim(self) -> int:
        return self.n_pos + self.n_neg + self.n_zero

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


def certify_lorentzian(f: Poly | FloatPoly, tol: float | None = None) -> LorentzReport:
    """Full certification; all failures come back as verdicts with witnesses.

    The zero polynomial passes by convention.  Degree 0 and 1 pass once the
    coefficient-sign and support checks do.  Higher degrees additionally
    visit, in lexicographic order, every derivative multi-index of total
    order degree-2 whose derivative does not vanish, and demand at most one
    positive eigenvalue from its Hessian, read off the normalized
    coefficients of f.
    """
    is_float = isinstance(f, FloatPoly)
    if is_float and tol is None:
        raise TypeError("floating polynomial requires a tolerance")
    if tol is not None:
        checked_tolerance(tol)
    if is_float:
        # magnitudes at or below the tolerance count as absent terms
        f = FloatPoly(f.nvars, {e: c for e, c in f.items() if abs(c) > tol})
    if not f.support():
        return LorentzReport(True, None, 0)
    hd = f.homogeneous_degree()
    if hd is None:
        terms = f.sorted_terms()
        low = terms[0][0]
        high = terms[-1][0]
        return LorentzReport(
            False, CertFailure("non-homogeneous", exponents=(low, high)), 0
        )
    negative_cut = -tol if is_float else 0
    # exponents are unique, so the grlex-least one is the first in sorted order
    negative = min(
        (exp for exp, c in f.items() if c < negative_cut), key=grlex_key, default=None
    )
    if negative is not None:
        return LorentzReport(
            False, CertFailure("negative-coefficient", exponents=(negative,)), 0
        )
    ok, pair = is_m_convex(f.support())
    if not ok:
        return LorentzReport(
            False, CertFailure("support-not-M-convex", exponents=pair), 0
        )
    if hd < 2:
        return LorentzReport(True, None, 0)
    n = f.nvars
    if is_float:
        table = {exp: c * vec_factorial(exp) for exp, c in f.items()}
    else:
        # scaled to integers: a positive scalar keeps the inertia, and
        # integer Hessians are eliminated exactly
        tol = None
        exps, coeffs = zip(*f.items())
        _, ints = clear_denominators(coeffs)
        table = {exp: c * vec_factorial(exp) for exp, c in zip(exps, ints)}
    # one pass files each table entry into the upper triangle of the Hessian
    # of every gamma that reads it, a flat row-major list per packed gamma
    radix = max(map(max, table)) + 1
    place = [radix ** (n - 1 - i) for i in range(n)]
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    slots = [[0] * n for _ in range(n)]
    for s, (i, j) in enumerate(upper):
        slots[i][j] = s
    zeros = [0] * len(upper)
    flats: defaultdict[int, list] = defaultdict(zeros.copy)
    for exp, c in table.items():
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
            witness = _key_decoder(radix, n, 1)(gamma)[0]
            return LorentzReport(
                False,
                CertFailure("bad-inertia", derivative=witness, inertia=inertia),
                checked,
            )
    return LorentzReport(True, None, len(flats))
