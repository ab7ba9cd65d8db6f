"""Definition-literal brute-force oracles, kept independent of the library's
fast paths: feasibility by enumerating edge weightings, inertia by
characteristic-polynomial sign counting, exchange property by double loop,
Lorentzian certification by a sweep over the whole degree box, base points
by a scan of every box-bounded composition, the matroid induced by a
polymatroid from its largest independent subsets, panel counts by testing
every candidate subset for a perfect matching, the inducing operator by
summing one Fraction per (alpha, beta) pair, the rank table of a point set
by one partial sum per (mask, point), the polynomial JSON codec by parsing
every row and then re-checking it in the `Poly` constructor, substitution by
the ring operations term by term, the two-parameter operator family by
collapsing its symbol, and the rank of a linear realization by Gaussian
elimination on Fractions, column by column.  `eval_exact` and
`float_poly_from` are test helpers that the library does not need: exact
evaluation at a rational point, and a `Poly` copied to float coefficients."""

import math
import re
from fractions import Fraction
from itertools import combinations

from lormatch import (
    CertFailure,
    FloatPoly,
    LorentzReport,
    Poly,
    SubsetSeq,
    augment_with_singletons,
    box_from_symbol,
    inducing_box,
    quad_inertia,
    symbol_of,
)
from lormatch._util import _is_json_int, bounded_compositions, vec_factorial
from lormatch.polynomials import _checked_exponent


def enumerate_matching(seq: SubsetSeq, alpha, beta, caps=None) -> bool:
    """Search all nonnegative integer edge weightings with the given degree
    sums.  Exponential, but fine at oracle scale."""
    if len(alpha) != seq.m or len(beta) != seq.n:
        raise ValueError("arity mismatch")
    if sum(alpha) != sum(beta):
        return False
    edges = seq.edges()
    top = sum(alpha)

    def rec(k: int, rows: list, cols: list) -> bool:
        if k == len(edges):
            return not any(rows) and not any(cols)
        i, j = edges[k]
        cap = caps.get((i, j), top) if caps is not None else top
        for w in range(min(rows[i - 1], cols[j - 1], cap) + 1):
            rows[i - 1] -= w
            cols[j - 1] -= w
            if rec(k + 1, rows, cols):
                return True
            rows[i - 1] += w
            cols[j - 1] += w
        return False

    return rec(0, list(alpha), list(beta))


def match_count_literal(seq: SubsetSeq, topic, among=None) -> int:
    """Number of candidate subsets B (default: every |T|-subset of 1..m) whose
    indicator vector matches the indicator vector of T, by enumeration."""
    topic = set(topic)
    beta = tuple(int(j in topic) for j in range(1, seq.n + 1))
    if among is None:
        among = combinations(range(1, seq.m + 1), len(topic))
    return sum(
        1
        for chosen in among
        if enumerate_matching(seq, tuple(int(i in chosen) for i in range(1, seq.m + 1)), beta)
    )


def matched_degrees_box(seq: SubsetSeq, alpha) -> frozenset:
    """All matched column sums, found by filtering the full composition box."""
    return frozenset(
        beta
        for beta in bounded_compositions(sum(alpha), (sum(alpha),) * seq.n)
        if enumerate_matching(seq, alpha, beta)
    )


def apply_inducing_literal(seq: SubsetSeq, f: Poly) -> Poly:
    """The inducing operator pair by pair: each normalized coefficient
    c * alpha! divided by beta! and added as a Fraction to y^beta, for every
    beta the composition-box filter matches to alpha."""
    data = {}
    for exp, c in f.items():
        norm = c * vec_factorial(exp)
        for beta in matched_degrees_box(seq, exp):
            data[beta] = data.get(beta, Fraction(0)) + norm / vec_factorial(beta)
    return Poly(seq.n, data)


def substitute_literal(f: Poly, images, nvars_out: int) -> Poly:
    """f with variable v replaced by images[v]: the sum over the terms of
    c * prod_v images[v] ** e_v, built with the ring operations alone."""
    total = Poly.zero(nvars_out)
    for exp, c in f.items():
        term = Poly.constant(nvars_out, c)
        for image, e in zip(images, exp):
            term = term * image ** e
        total = total + term
    return total


def tab_family_via_symbol(seq: SubsetSeq, a, b, kappa):
    """The two-parameter family through the symbol of the augmented inducing
    box: y-variables collapsed to a_i y_i and b_k y_owner, u-variables kept,
    and the table read back from the collapsed symbol."""
    n, m = seq.n, seq.m
    owners = [i for i, part in enumerate(seq.sets) for _ in part]
    sym = symbol_of(inducing_box(augment_with_singletons(seq), kappa))
    images = [Poly.variable(n + m, i) * Fraction(w) for i, w in enumerate(a)]
    images += [Poly.variable(n + m, i) * Fraction(w) for i, w in zip(owners, b)]
    images += [Poly.variable(n + m, n + t) for t in range(m)]
    return box_from_symbol(substitute_literal(sym, images, n + m), kappa, n)


def _sign_changes(values) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def charpoly_inertia(matrix) -> tuple[int, int, int]:
    """Eigenvalue sign counts from the characteristic polynomial.

    Faddeev-LeVerrier gives exact coefficients; symmetric matrices have all
    real eigenvalues, so Descartes' rule counts positive and negative roots
    exactly and trailing zero coefficients count the kernel.  The matrix is
    first scaled to integers by the common denominator of its entries, which
    keeps every eigenvalue sign; the characteristic polynomial of an integer
    matrix has integer coefficients, so each division by k is exact.
    """
    n = len(matrix)
    a = [[Fraction(v) for v in row] for row in matrix]
    for i in range(n):
        if len(a[i]) != n:
            raise ValueError("matrix must be square")
        for j in range(n):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix must be symmetric")
    scale = math.lcm(*(v.denominator for row in a for v in row))
    a = [[v.numerator * (scale // v.denominator) for v in row] for row in a]
    coeffs = [1]
    m = [[0] * n for _ in range(n)]
    c = 1
    for k in range(1, n + 1):
        prod = [
            [sum(a[i][t] * m[t][j] for t in range(n)) + c * a[i][j] for j in range(n)]
            for i in range(n)
        ]
        c, rest = divmod(-sum(prod[i][i] for i in range(n)), k)
        assert rest == 0
        coeffs.append(c)
        m = prod
    # coeffs[k] multiplies lambda^(n-k)
    trimmed = list(coeffs)
    zero = 0
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
        zero += 1
    pos = _sign_changes(trimmed)
    degree = len(trimmed) - 1
    flipped = [v if (degree - i) % 2 == 0 else -v for i, v in enumerate(trimmed)]
    neg = _sign_changes(flipped)
    assert pos + neg + zero == n
    return (pos, neg, zero)


def hessian_literal(q) -> list[list]:
    """Hessian of a quadratic, each entry the constant left by differentiating
    once along e_i and once along e_j."""
    n = q.nvars
    origin = (0,) * n
    return [
        [
            q.derivative_multi(tuple((t == i) + (t == j) for t in range(n))).coefficient(origin)
            for j in range(n)
        ]
        for i in range(n)
    ]


def m_convex_witness(supp):
    """The symmetric exchange axiom, quantified exactly as stated.

    Returns None when it holds, else the first violating pair (a, b) in
    sorted order."""
    pts = sorted(set(tuple(int(v) for v in p) for p in supp))
    if not pts:
        return None
    if len({sum(p) for p in pts}) > 1:
        raise ValueError("mixed degrees in support")
    index = set(pts)
    dim = len(pts[0])
    for a in pts:
        for b in pts:
            for i in range(dim):
                if a[i] <= b[i]:
                    continue
                witnessed = False
                for j in range(dim):
                    if a[j] < b[j]:
                        moved = list(a)
                        moved[i] -= 1
                        moved[j] += 1
                        if tuple(moved) in index:
                            witnessed = True
                            break
                if not witnessed:
                    return (a, b)
    return None


def m_convex_literal(supp) -> bool:
    return m_convex_witness(supp) is None


def certify_literal(f, tol=None):
    """Lorentzian certification as first written: every multi-index of the
    degree box, each derivative taken term by term, zero derivatives
    skipped (`walk_literal`), and the support checked by the literal
    exchange loop.  Exact Hessians are counted by `charpoly_inertia`;
    floating ones go through `quad_inertia` under the tolerance."""
    is_float = isinstance(f, FloatPoly)
    if is_float:
        f = FloatPoly(f.nvars, {e: c for e, c in f.items() if abs(c) > tol})
    if not f.support():
        return LorentzReport(True, None, 0)
    hd = f.homogeneous_degree()
    if hd is None:
        terms = f.sorted_terms()
        return LorentzReport(
            False, CertFailure("non-homogeneous", exponents=(terms[0][0], terms[-1][0])), 0
        )
    for exp, c in f.sorted_terms():
        if c < (-tol if is_float else 0):
            return LorentzReport(
                False, CertFailure("negative-coefficient", exponents=(exp,)), 0
            )
    pair = m_convex_witness(f.support())
    if pair is not None:
        return LorentzReport(False, CertFailure("support-not-M-convex", exponents=pair), 0)
    failure, checked = walk_literal(f, tol)
    return LorentzReport(failure is None, failure, checked)


def walk_literal(f, tol=None):
    """The Hessian stage of `certify_literal` on its own: (the first failure or
    None, derivatives checked) over every multi-index of the degree box in
    lexicographic order, each derivative taken term by term and skipped when
    it vanishes.  `f` is homogeneous and nonzero; a float one has had its terms
    at or below tol dropped."""
    checked = 0
    for gamma in bounded_compositions(f.homogeneous_degree() - 2, f.degree_profile()):
        g = f.derivative_multi(gamma)
        if not g.support():
            continue
        checked += 1
        if isinstance(f, FloatPoly):
            inertia = quad_inertia(g, tol).as_tuple()
        else:
            inertia = charpoly_inertia(hessian_literal(g))
        if inertia[0] > 1:
            return CertFailure("bad-inertia", derivative=gamma, inertia=inertia), checked
    return None, checked


def polymatroid_axioms_literal(rank) -> bool:
    """Global monotonicity and submodularity over all pairs of subsets."""
    size = len(rank)
    if rank[0] != 0 or any(v < 0 for v in rank):
        return False
    for a in range(size):
        for b in range(size):
            if (a | b) == b and rank[a] > rank[b]:
                return False
            if rank[a] + rank[b] < rank[a | b] + rank[a & b]:
                return False
    return True


def first_axiom_violation_literal(rank):
    """(axiom, witness, message) of the violation a polymatroid table reports
    first, or None: normalization, then nonnegativity, monotonicity
    (rank(S - e) <= rank(S)) and submodularity (rank(S + e) + rank(S + f) >=
    rank(S + e + f) + rank(S)), each over S in mask order, then e (and f)
    in element order."""
    m = len(rank).bit_length() - 1
    sets = [tuple(i + 1 for i in range(m) if mask >> i & 1) for mask in range(len(rank))]
    if rank[0] != 0:
        return ("normalization", ((),), f"normalization: rank of the empty set is {rank[0]}, not 0")
    for mask, value in enumerate(rank):
        if value < 0:
            return ("nonnegativity", (sets[mask],), f"nonnegativity: rank{sets[mask]} = {value} < 0")
    for mask in range(len(rank)):
        for e in sets[mask]:
            smaller = mask - (1 << (e - 1))
            if rank[smaller] > rank[mask]:
                return (
                    "monotonicity",
                    (sets[smaller], sets[mask]),
                    f"monotonicity: rank{sets[smaller]} = {rank[smaller]} > "
                    f"rank{sets[mask]} = {rank[mask]}",
                )
    for mask in range(len(rank)):
        outside = [e for e in range(1, m + 1) if e not in sets[mask]]
        for e, f in combinations(outside, 2):
            left, right = mask + (1 << (e - 1)), mask + (1 << (f - 1))
            both = left + (1 << (f - 1))
            if rank[left] + rank[right] < rank[both] + rank[mask]:
                return (
                    "submodularity",
                    (sets[left], sets[right]),
                    f"submodularity: rank{sets[left]} + rank{sets[right]} = "
                    f"{rank[left] + rank[right]} < rank(union) + rank(intersection) = "
                    f"{rank[both] + rank[mask]}",
                )
    return None


def base_points_literal(pm) -> frozenset:
    """Integer points of the base polytope, by box-bounded exhaustive scan."""
    caps = [pm.rank[1 << i] for i in range(pm.m)]
    members = [[i for i in range(pm.m) if mask >> i & 1] for mask in range(1 << pm.m)]
    out = []
    for cand in bounded_compositions(pm.full_rank, caps):
        if all(
            sum(cand[i] for i in members[mask]) <= pm.rank[mask]
            for mask in range(1, pm.full_mask)
        ):
            out.append(cand)
    return frozenset(out)


def induce_matroid_literal(pm, seq) -> tuple:
    """Rank table of the matroid induced along seq: the rank of a set I of
    parts is the size of the largest K within I with |J| <= r(union of J)
    for every J within K."""
    subsets = [
        [j for j in range(seq.n) if mask >> j & 1] for mask in range(1 << seq.n)
    ]

    def f(mask):
        union = set().union(*(seq.sets[j] for j in subsets[mask]))
        return pm.rank[sum(1 << (e - 1) for e in union)]

    independent = [
        all(len(subsets[sub]) <= f(sub) for sub in range(mask + 1) if sub & mask == sub)
        for mask in range(1 << seq.n)
    ]
    return tuple(
        max(
            len(subsets[sub])
            for sub in range(mask + 1)
            if sub & mask == sub and independent[sub]
        )
        for mask in range(1 << seq.n)
    )


def points_rank_literal(points, nvars) -> tuple:
    """For every subset I of the coordinates (bit i-1 is coordinate i), the
    largest sum over I of one point's coordinates, each summed afresh."""
    return tuple(
        max(sum(p[i] for i in range(nvars) if mask >> i & 1) for p in points)
        for mask in range(1 << nvars)
    )


def shown_literal(value) -> str:
    """How an error message renders a refused JSON value: an object by its
    kind; a list or tuple by its first 8 entries, or by its kind when one of
    those is a list or an object; any text longer than 40 characters cut to
    its first 37 and "..."."""
    if isinstance(value, dict):
        return "an object"
    if isinstance(value, (list, tuple)):
        head = list(value[:8])
        if any(isinstance(v, (list, tuple, dict)) for v in head):
            return "a list"
        inner = ", ".join(repr(v) for v in head)
        if len(value) > 8:
            inner += ", ..."
        if isinstance(value, tuple):
            text = "(" + inner + ("," if len(value) == 1 else "") + ")"
        else:
            text = "[" + inner + "]"
    else:
        text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def poly_from_json_two_pass(obj) -> Poly:
    """`Poly.from_json` as two passes: each row parsed to a Fraction and
    summed per exponent, then the whole dict re-checked by `Poly(nvars, ..)`,
    which drops the sums that cancel."""
    if not isinstance(obj, dict):
        raise ValueError("polynomial JSON must be an object")
    nvars = obj.get("nvars")
    if not _is_json_int(nvars):
        raise ValueError("polynomial JSON needs an integer 'nvars'")
    basis = obj.get("basis", "plain")
    if basis not in ("plain", "normalized"):
        raise ValueError(f"unknown basis {shown_literal(basis)}")
    terms = {}
    try:
        for row in obj.get("terms", []):
            raw_exp = row["exp"]
            if isinstance(raw_exp, list) and not all(map(_is_json_int, raw_exp)):
                raise ValueError(f"exponent entries must be integers, got {shown_literal(raw_exp)}")
            exp = _checked_exponent(raw_exp, nvars)
            if "num" in row:
                num = row["num"]
                den = row.get("den", "1")
                if not all(isinstance(v, str) or _is_json_int(v) for v in (num, den)):
                    raise ValueError("coefficients must be integers or strings")
                for v in (num, den):
                    if isinstance(v, str) and not re.fullmatch("-?[0-9]+", v):
                        raise ValueError(f'expected an integer string such as "-12", got {shown_literal(v)}')
                num, den = int(num), int(den)
                if not den:
                    raise ValueError("coefficient denominator must be nonzero")
                c = Fraction(num, den)
            elif "coeff" in row:
                raw = row["coeff"]
                if not (isinstance(raw, str) or _is_json_int(raw)):
                    raise ValueError("coefficients must be integers or strings")
                if isinstance(raw, str) and not re.fullmatch(r"-?[0-9]+(/[0-9]+|\.[0-9]+)?", raw):
                    raise ValueError(f'expected a rational string such as "-3/2" or "0.5", got {shown_literal(raw)}')
                if isinstance(raw, str) and re.fullmatch(r"-?[0-9]+/0+", raw):
                    raise ValueError(f"expected a nonzero denominator, got {shown_literal(raw)}")
                c = Fraction(raw)
            else:
                raise ValueError("term needs 'num'/'den' or 'coeff'")
            if basis == "normalized":
                c = c / vec_factorial(exp)
            terms[exp] = terms.get(exp, Fraction(0)) + c
    except (TypeError, KeyError, ZeroDivisionError) as exc:
        raise ValueError(str(exc)) from exc
    return Poly(nvars, terms)


def rank_literal(real, mask) -> int:
    """Row rank of the generator columns of the blocks in `mask` (bit i-1 is
    block i), by Gaussian elimination on Fractions."""
    cols = [
        c for i in range(1, real.m + 1) if mask >> (i - 1) & 1 for c in real.block_columns(i)
    ]
    rows = [[Fraction(row[c]) for c in cols] for row in real.gens]
    rank = 0
    for col in range(len(cols)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def eval_exact(f, point) -> Fraction:
    """Exact value of a `Poly` at a rational point, summed term by term."""
    if len(point) != f.nvars:
        raise ValueError("point arity differs from nvars")
    vals = [Fraction(p) for p in point]
    total = Fraction(0)
    for exp, c in f.items():
        term = c
        for v, e in zip(vals, exp):
            if e:
                term *= v**e
        total += term
    return total


def float_poly_from(f) -> FloatPoly:
    """The `FloatPoly` with the float values of a `Poly`'s coefficients."""
    return FloatPoly(f.nvars, {e: float(c) for e, c in f.items()})
