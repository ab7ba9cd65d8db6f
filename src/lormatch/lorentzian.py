"""Lorentzian certification: support exchange checks and Hessian inertia.

A homogeneous polynomial with nonnegative coefficients passes when its
support is M-convex (it satisfies the symmetric exchange axiom) and every
iterated partial derivative down to degree 2 has a Hessian with at most one
positive eigenvalue (Braenden-Huh).

Every inertia here comes from one congruence elimination, `_inertia`:
symmetric fraction-free (Bareiss) elimination, run on Python ints for exact
input and on floats under a pivot tolerance.  `symmetric_inertia` scales an
exact matrix to integers by the common denominator of its entries before
handing it over; the tests check the kernel against the characteristic
polynomial (Faddeev-LeVerrier with Descartes' rule, `charpoly_inertia` in
tests/oracles.py).

The work follows the support, not the degree box.  Entry (i, j) of the
Hessian of the derivative at gamma is the normalized coefficient of f at
gamma + e_i + e_j, so one pass over the coefficient table files each entry
under its gamma = support point minus two unit vectors: exactly the
derivatives that do not vanish, visited in lexicographic order.  Exact input
is first scaled by the common denominator of that table, which changes no
inertia, so every Hessian is an integer matrix.

A support S in n variables larger than 2^n is tested through the polymatroid
of its largest partial sums (Murota: M-convex sets are the integer points of
integral base polytopes), which costs |S| * 2^n instead of the |S|^2 * n^2
pair scan; a smaller support, or one that route rejects, goes through the
pair scan, which also supplies the violating pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from ._util import grlex_key, vec_factorial
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
    index = {tuple(int(c) for c in v) for v in supp}
    pts = sorted(index)
    if not pts:
        return True, None
    nvars = len(pts[0])
    if any(len(p) != nvars for p in pts):
        raise ValueError("support vectors must have equal length")
    total = sum(pts[0])
    if any(sum(p) != total for p in pts):
        raise ValueError("mixed degrees in support")
    if len(pts) > 1 << nvars and points_polymatroid(index, nvars) is not None:
        return True, None
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


def _swap_symmetric(work: list[list], i: int, j: int) -> None:
    if i == j:
        return
    work[i], work[j] = work[j], work[i]
    for row in work:
        row[i], row[j] = row[j], row[i]


def symmetric_inertia(matrix: Sequence[Sequence], tol: float | None = None) -> Inertia:
    """Inertia by congruence elimination.

    Exact over the rationals when tol is None (floating entries rejected):
    the matrix is scaled to integers by the common denominator of its
    entries, which keeps the inertia.  Otherwise works in floating point with
    a Schur-complement value of magnitude at most tol treated as zero.
    Both go through the same fraction-free elimination, `_inertia`.
    """
    rows = [list(r) for r in matrix]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("square matrix required")
    if tol is None:
        if any(isinstance(v, float) for r in rows for v in r):
            raise TypeError("floating entries require a tolerance")
        exact = [[Fraction(v) for v in r] for r in rows]
        scale = math.lcm(*(v.denominator for r in exact for v in r))
        work = [[v.numerator * (scale // v.denominator) for v in r] for r in exact]
        gap_cut = 0
    else:
        if not tol > 0:
            raise ValueError("tolerance must be positive")
        work = [[float(v) for v in r] for r in rows]
        if not all(math.isfinite(v) for r in work for v in r):
            raise ValueError("finite matrix entries required")
        gap_cut = tol
    for i in range(n):
        for j in range(i):
            if abs(work[i][j] - work[j][i]) > gap_cut:
                raise ValueError("symmetric matrix required")
    return Inertia(*_inertia(work, tol))


def _inertia(work: list[list], tol: float | None = None) -> tuple[int, int, int]:
    """Inertia of a symmetric matrix, overwriting it: the one elimination.

    Symmetric Bareiss elimination: after k steps the trailing block holds
    D_k times the Schur complement, D_k being the k-th leading principal
    minor (D_0 = 1), so the sign of the k-th eigenvalue of the LDL^T form is
    sign(D_k) * sign(D_{k-1}).  On Python ints (tol None) each division by
    the previous pivot is exact and an entry is zero when it is 0.  On floats
    an entry is negligible when its Schur-complement value is at most tol,
    that is |entry| <= tol * |D_{k-1}|.  When the remaining diagonal is
    negligible but a_ij is not, x_i -> x_i + x_j (a unimodular congruence)
    puts a_ii + 2 a_ij + a_jj on the diagonal.
    """
    n = len(work)
    pos = neg = 0
    prev = 1
    for k in range(n):
        cut = 0 if tol is None else tol * abs(prev)
        for p in range(k, n):
            if abs(work[p][p]) > cut:
                break
        else:
            for p in range(k, n):
                row_p = work[p]
                for j in range(p + 1, n):
                    if abs(row_p[j]) > cut:
                        break
                else:
                    continue
                break
            else:
                return pos, neg, n - k
            row_j = work[j]
            for c in range(k, n):
                row_p[c] += row_j[c]
            for row in work[k:]:
                row[p] += row[j]
        _swap_symmetric(work, k, p)
        pivot = work[k][k]
        if (pivot > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        row_k = work[k]
        for r in range(k + 1, n):
            row_r = work[r]
            factor = row_r[k]
            if tol is None:
                for c in range(k + 1, n):
                    row_r[c] = (pivot * row_r[c] - factor * row_k[c]) // prev
            else:
                for c in range(k + 1, n):
                    row_r[c] = (pivot * row_r[c] - factor * row_k[c]) / prev
        prev = pivot
    return pos, neg, 0


def quad_inertia(q: Poly | FloatPoly, tol: float | None = None) -> Inertia:
    """Inertia of the Hessian of a homogeneous quadratic."""
    if isinstance(q, FloatPoly) and tol is None:
        raise TypeError("floating polynomial requires a tolerance")
    hd = q.homogeneous_degree()
    if q.support() and hd != 2:
        raise ValueError("homogeneous quadratic required")
    n = q.nvars
    hess = [[0] * n for _ in range(n)]
    for exp, c in q.items():
        used = [i for i, e in enumerate(exp) if e]
        if len(used) == 1:
            hess[used[0]][used[0]] = 2 * c
        else:
            i, j = used
            hess[i][j] = c
            hess[j][i] = c
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
    if tol is not None and not tol > 0:
        raise ValueError("tolerance must be positive")
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
        # scaled by the common denominator: a positive scalar keeps the
        # inertia, and integer Hessians are eliminated exactly
        tol = None
        scale = math.lcm(*(c.denominator for _, c in f.items()))
        table = {
            exp: c.numerator * (scale // c.denominator) * vec_factorial(exp)
            for exp, c in f.items()
        }
    # one pass files each table entry into the Hessian of every gamma that
    # reads it, kept row-major in one flat list per gamma
    size = n * n
    flats: dict[tuple[int, ...], list] = {}
    for exp, c in table.items():
        used = [i for i, e in enumerate(exp) if e]
        for at, i in enumerate(used):
            lowered = list(exp)
            lowered[i] -= 1
            for j in used[at:]:
                if lowered[j]:
                    lowered[j] -= 1
                    gamma = tuple(lowered)
                    lowered[j] += 1
                    flat = flats.get(gamma)
                    if flat is None:
                        flat = flats[gamma] = [0] * size
                    flat[i * n + j] = flat[j * n + i] = c
    for checked, gamma in enumerate(sorted(flats), 1):
        flat = flats[gamma]
        hess = [flat[k : k + n] for k in range(0, size, n)]
        inertia = _inertia(hess, tol)
        if inertia[0] > 1:
            return LorentzReport(
                False,
                CertFailure("bad-inertia", derivative=gamma, inertia=inertia),
                checked,
            )
    return LorentzReport(True, None, len(flats))
