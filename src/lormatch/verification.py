"""Randomized desk-scale verification harness crossing every module.

Each check draws instances from a seeded generator, evaluates a bundle of
expected identities, and reports failing instances in serialized, replayable
form.  Trials are deterministic per (seed, check name, trial index): the
per-trial generator is re-derived from that triple, so results never depend
on execution order, and `replay` reruns a recorded instance standalone.

That independence lets `run_check` split a check's trials in two: the
process runs the even trials while one forked child runs the odd ones, and
the failures are merged back in trial order.  It runs them in one loop
instead when there is one trial or one usable CPU, when the platform has
no `os.fork`, or when the process has more than one OS thread.  A child
that dies has its trials rerun in process.  So no output depends on the
split: restricting the CPUs, as `taskset -c 0` does, changes the time a
check takes and nothing else.

The checks treat proved statements as oracles: a failure is evidence of an
implementation bug, and the serialized instance is the bug report.  Each
check refuses a replay past its generator's bounds before building anything.

The library's route gates, each of which picks between two ways to the
same answer:

- `matchstats._BITSET_M` (16): SDR families as 2^m-bit ints up to that m,
  sets of masks above (`matchstats._ops`); the same bound gates the bitset
  route of `apply_inducing` (`operators._bitset_layers`), which also asks
  f = sum_d c_d e_d at degrees d <= m - 2; other f take the sumset walk.
- `lorentzian.is_m_convex`: a support of more than 2^n points is first
  decided by `points_polymatroid`, else by the pair scan.
- `polymatroids.hall_rado_member`: `single_vertex_cuts` drops source base
  points before any flow.
- `matchings._flow`: `_fails_vertex_cut` rejects a pair before any
  augmenting path.
- `Poly.from_json`: the column pass reads regular documents, the row loop
  every other one.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
import os
import random
import threading
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Callable, Mapping, Sequence

from ._util import _brief, bounded_compositions, checked_tolerance, iter_box, vec_factorial
from ._util import DEFAULT_SEED, DEFAULT_TOLERANCE, DEFAULT_TRIALS
from .lorentzian import certify_lorentzian, is_m_convex, quad_inertia
from .matchings import (
    SubsetSeq,
    _check_degrees,
    admits_matching,
    caps_from_json,
    compose_seq,
    find_witness,
    matched_degrees,
)
from .matchstats import basis_match_poly, match_count, match_poly, stat_table
from .operators import (
    OperatorBox,
    _bitset_layers,
    _induce_by_bitsets,
    _induce_by_sumsets,
    apply_inducing,
    apply_substitution,
    box_from_symbol,
    inducing_box,
    power_box,
    substitution_box,
    symbol_of,
    tab_family_box,
)
from .polymatroids import (
    AxiomViolation,
    InternalCheckError,
    LinReal,
    Matroid,
    Polymatroid,
    base_egf,
    base_points,
    direct_sum,
    free_polymatroid,
    hall_rado_member,
    induce_matroid,
    induce_polymatroid,
    linreal_induce,
    linreal_rank,
    matroid_bases,
    support_polymatroid,
    uniform_matroid,
    validate_polymatroid,
)
from .polynomials import Poly, elementary_symmetric


# instance bounds: ground-set size, part count, rank and per-variable degree cap
MAX_M, MAX_N, MAX_RANK, MAX_KAPPA = 5, 5, 3, 2
# smaller draws where brute force grows fast: (m, n), alpha total, blocks, block dim
_SMALL_M, _SMALL_N, _MAX_TOTAL, _MAX_BLOCKS, _MAX_DIM = 3, 3, 4, 4, 2
# golden-examples' rows of four integers, each in 1.._ABCD_TOP
_ABCD_ROWS, _ABCD_TOP = 20, 9


@dataclass(frozen=True)
class TrialConfig:
    """Seed, budget and tolerance for randomized checks."""

    seed: int = DEFAULT_SEED
    trials: int = DEFAULT_TRIALS
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trial count must be >= 1")
        checked_tolerance(self.tolerance)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "max_m": MAX_M,
            "max_n": MAX_N,
            "max_rank": MAX_RANK,
            "max_kappa": MAX_KAPPA,
            "trials": self.trials,
            "tolerance": self.tolerance,
        }


@dataclass(frozen=True)
class CheckResult:
    name: str
    trials: int
    failures: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "check": self.name,
            "trials": self.trials,
            "passed": self.passed,
            "failures": list(self.failures),
        }


def _trial_rng(seed: int, name: str, trial: int) -> random.Random:
    # string seeding hashes with sha512, stable across platforms and runs
    return random.Random(f"{seed}:{name}:{trial}")


def _replay_int(value, name: str = "", top: int | None = None) -> int:
    """A replayed integer field: `operator.index`, refusing JSON true/false and any value above `top`."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {str(value).lower()}")
    value = operator.index(value)
    if top is not None and value > top:
        raise ValueError(f"{name}={value}; the generator draws {name} <= {top}")
    return value


def _read_seq(raw, max_m: int, max_n: int) -> SubsetSeq:
    seq = SubsetSeq.from_json(raw)
    if seq.m > max_m or seq.n > max_n:
        raise ValueError(f"seq has m={seq.m}, n={seq.n}; the generator draws m <= {max_m}, n <= {max_n}")
    return seq


# -- instance generators -------------------------------------------------------


def _random_parts(
    rng: random.Random, m: int, n: int, cover: bool = False
) -> SubsetSeq:
    sets = [
        frozenset(e for e in range(1, m + 1) if rng.random() < 0.5)
        for _ in range(n)
    ]
    if cover:
        for e in range(1, m + 1):
            if not any(e in s for s in sets):
                j = rng.randrange(n)
                sets[j] = sets[j] | {e}
    return SubsetSeq(m, tuple(sets))


def _random_seq(
    rng: random.Random, max_m: int, max_n: int, cover: bool = False
) -> SubsetSeq:
    return _random_parts(rng, rng.randint(1, max_m), rng.randint(1, max_n), cover)


def _random_gens(rng: random.Random, max_rows: int, ncols: int) -> tuple:
    """Up to max_rows generator rows of ncols entries in -2..2."""
    rows = rng.randint(0, max_rows)
    return tuple(
        tuple(Fraction(rng.randint(-2, 2)) for _ in range(ncols))
        for _ in range(rows)
    )


def _random_polymatroid(rng: random.Random, m: int, max_rank: int) -> Polymatroid:
    flavor = rng.choice(["free", "uniform", "linear", "sum", "induced"])
    if flavor == "free":
        return free_polymatroid(m, rng.randint(0, max_rank))
    if flavor == "uniform":
        return uniform_matroid(m, rng.randint(0, min(m, max_rank))).underlying
    if flavor == "linear":
        return linreal_rank(LinReal((1,) * m, _random_gens(rng, max_rank, m)))
    if flavor == "sum" and m >= 2:
        split = rng.randint(1, m - 1)
        r1 = rng.randint(0, max_rank)
        r2 = rng.randint(0, max_rank - r1)
        return direct_sum(
            [free_polymatroid(split, r1), free_polymatroid(m - split, r2)]
        )
    source = free_polymatroid(rng.randint(1, m + 1), rng.randint(0, max_rank))
    return induce_polymatroid(source, _random_parts(rng, source.m, m, cover=True))


# -- check: matching statistics are Lorentzian ---------------------------------


def _gen_matching_stat(cfg: TrialConfig, rng: random.Random, trial: int) -> dict:
    return {"seq": _random_seq(rng, MAX_M, MAX_N).to_json()}


def _eval_matching_stat(cfg: TrialConfig, instance: Mapping) -> list[str]:
    seq = _read_seq(instance["seq"], MAX_M, MAX_N)
    reasons = []
    # the sumset walk shares no grow step with match_poly or with the bitset
    # route of apply_inducing, so it checks both.  Its image of the sum of
    # every e_r holds each e_r's image as the terms of degree r
    one = Fraction(1)
    squarefree = Poly._trusted(seq.m, {exp: one for exp in product((0, 1), repeat=seq.m)})
    by_degree: list[dict] = [{} for _ in range(seq.m + 1)]
    for beta, c in _induce_by_sumsets(seq, squarefree).items():
        by_degree[sum(beta)][beta] = c
    for r in range(seq.m + 1):
        fp = match_poly(seq, r)
        report = certify_lorentzian(fp)
        if not report.verdict:
            reasons.append(f"r={r}: certification failed ({report.failure.kind})")
        by_sumsets = Poly._trusted(seq.n, by_degree[r])
        if fp != by_sumsets.multiaffine_part():
            reasons.append(f"r={r}: statistic differs from the multi-affine bridge")
        # outside the bitset route's gate apply_inducing is the sumset walk
        route = _bitset_layers(seq, elementary_symmetric(seq.m, r))
        if route is not None and _induce_by_bitsets(seq, route) != by_sumsets:
            reasons.append(f"r={r}: induced e_r differs from the sumset walk")
    return reasons


# -- check: symbol support matches the induced base polytope -------------------


def _invalid_table_reasons(pm: Polymatroid) -> list[str]:
    """Re-validate a derived table through the public constructor.

    Induced tables skip the axiom checks as polymatroids by theorem; this is
    the run-time cross-check that they are.
    """
    try:
        validate_polymatroid(pm.rank, pm.m)
    except AxiomViolation as exc:
        return [f"induced table fails the axioms: {exc}"]
    return []


def _eval_symbol_support(cfg: TrialConfig, instance: Mapping) -> list[str]:
    """The inducing symbol against the polymatroid that the operator induces.

    The symbol is the inducing image of x^kappa along `seq` with one singleton
    part {i} appended per element, the part of u_i.  So its support is the
    base point set of the direct sum of the free(1, kappa_i), induced along
    that sequence, with the coordinates in the symbol's (y, u) order.
    """
    seq, kappa = _read_seq_kappa(instance)
    sym = symbol_of(inducing_box(seq, kappa))
    singletons = tuple(frozenset({i}) for i in range(1, seq.m + 1))
    tracked = SubsetSeq(seq.m, seq.sets + singletons)
    source = direct_sum([free_polymatroid(1, k) for k in kappa])
    induced = induce_polymatroid(source, tracked)
    reasons = _invalid_table_reasons(induced)
    points = base_points(induced)
    if sym.support() != points:
        reasons.append("symbol support differs from the induced base points")
    kfact = vec_factorial(kappa)
    n = seq.n
    for exp, c in sym.items():
        uexp, yexp = exp[n:], exp[:n]
        want = Fraction(kfact, vec_factorial(uexp) * vec_factorial(yexp))
        if c != want:
            reasons.append(f"coefficient at y^{yexp} u^{uexp} is {c}, want {want}")
            break
    col_caps = [sum(kappa[i - 1] for i in part) for part in seq.sets]
    for alpha in iter_box(kappa):
        mu = tuple(k - a for k, a in zip(kappa, alpha))
        for beta in bounded_compositions(sum(alpha), col_caps):
            feasible = admits_matching(seq, alpha, beta)
            member = (beta + mu) in points
            if feasible != member:
                reasons.append(
                    f"matchability and membership disagree at "
                    f"alpha={alpha}, beta={beta}"
                )
    return reasons


def _gen_seq_kappa(
    cfg: TrialConfig, rng: random.Random, trial: int, cover: bool = False
) -> dict:
    seq = _random_seq(rng, _SMALL_M, _SMALL_N, cover)
    kappa = [rng.randint(0, MAX_KAPPA) for _ in range(seq.m)]
    return {"seq": seq.to_json(), "kappa": kappa}


def _read_seq_kappa(instance: Mapping) -> tuple[SubsetSeq, tuple[int, ...]]:
    seq = _read_seq(instance["seq"], _SMALL_M, _SMALL_N)
    return seq, tuple(_replay_int(k, "kappa_i", MAX_KAPPA) for k in instance["kappa"])


# -- check: dual descriptions of induced base-point membership -----------------


def _gen_base_membership(cfg: TrialConfig, rng: random.Random, trial: int) -> dict:
    m = rng.randint(1, MAX_M)
    pm = _random_polymatroid(rng, m, MAX_RANK)
    seq = _random_parts(rng, m, rng.randint(1, MAX_N), cover=True)
    induced = induce_polymatroid(pm, seq)
    points = sorted(base_points(induced))
    pick = rng.random()
    expected: bool | None
    if pick < 0.4 or seq.n == 1:
        delta = list(rng.choice(points))
        expected = True
    elif pick < 0.8:
        delta = list(rng.choice(points))
        j = rng.randrange(seq.n)
        k = rng.randrange(seq.n)
        delta[j] += 1
        delta[k] -= 1
        expected = None
    else:
        delta = list(points[0])
        delta[rng.randrange(seq.n)] += 1
        expected = False
    return {
        "pm": pm.to_json(),
        "seq": seq.to_json(),
        "delta": delta,
        "expected": expected,
    }


def _eval_base_membership(cfg: TrialConfig, instance: Mapping) -> list[str]:
    pm = Polymatroid.from_json(instance["pm"])
    _replay_int(pm.full_rank, "pm full rank", MAX_RANK)
    seq = _read_seq(instance["seq"], MAX_M, MAX_N)
    delta = list(map(_replay_int, instance["delta"]))
    expected = instance.get("expected")
    if expected is not None and not isinstance(expected, bool):
        raise TypeError(f"'expected' must be null or a JSON bool, got {_brief(expected)}")
    reasons = _invalid_table_reasons(induce_polymatroid(pm, seq))
    try:
        member = hall_rado_member(pm, seq, delta)
    except InternalCheckError as exc:
        return reasons + [str(exc)]
    if expected is not None and member is not expected:
        reasons.append(f"membership is {member}, expected {expected}")
    return reasons


# -- check: fractional coefficient powers stay Lorentzian ----------------------


def _eval_power_family(cfg: TrialConfig, instance: Mapping) -> list[str]:
    seq, kappa = _read_seq_kappa(instance)
    reasons = []
    sub = substitution_box(seq, None, kappa)
    ind = inducing_box(seq, kappa)
    ind_support = symbol_of(ind).support()
    for q in (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1):
        powered = power_box(sub, q)
        sym = symbol_of(powered)
        report = certify_lorentzian(sym, cfg.tolerance)
        if not report.verdict:
            reasons.append(f"q={q}: certification failed ({report.failure.kind})")
        if q == 0:
            if sym.support() != ind_support:
                reasons.append("q=0 support differs from the inducing symbol")
            off = [
                exp
                for exp in sym.support()
                if abs(sym.normalized_coeff(exp) - 1.0) > cfg.tolerance
            ]
            if off:
                reasons.append("q=0 normalized coefficients are not all 1")
    n_single = sum(len(s) for s in seq.sets)
    if tab_family_box(seq, [1] * seq.n, [0] * n_single, kappa) != ind:
        reasons.append("family endpoint a=1, b=0 differs from the inducing box")
    if tab_family_box(seq, [0] * seq.n, [1] * n_single, kappa) != sub:
        reasons.append("family endpoint a=0, b=1 differs from the substitution box")
    return reasons


# -- check: capped matchings against exhaustive enumeration --------------------


def _capped_column_sums(seq: SubsetSeq, caps: Mapping, alpha: Sequence[int]) -> set[tuple[int, ...]]:
    """Every column sum that alpha reaches within the caps, by brute force:
    each element's degree is spread over its parts in every way the caps
    allow, one element after another, keeping the set of partial sums."""
    total = sum(alpha)
    reached = {(0,) * seq.n}
    for i, need in enumerate(alpha, start=1):
        if need:
            parts = seq.parts_containing(i)
            grown = set()
            for spread in bounded_compositions(need, [caps.get((i, j), total) for j in parts]):
                step = [0] * seq.n
                for j, w in zip(parts, spread):
                    step[j - 1] = w
                grown.update(tuple(map(operator.add, r, step)) for r in reached)
            reached = grown
    return reached


def _gen_capped(cfg: TrialConfig, rng: random.Random, trial: int) -> dict:
    if trial == 0:
        return {"mode": "exhaustive-core"}
    seq = _random_seq(rng, _SMALL_M, _SMALL_N)
    caps = {}
    for i, j in seq.edges():
        if rng.random() < 0.7:
            caps[f"{i}-{j}"] = rng.randint(0, 2)
    total = rng.randint(0, _MAX_TOTAL)
    alpha = list(rng.choice(sorted(bounded_compositions(total, (total,) * seq.m))))
    return {"mode": "random", "seq": seq.to_json(), "caps": caps, "alpha": alpha}


def _capped_mismatches(
    seq: SubsetSeq, caps: Mapping[tuple[int, int], int], alpha: Sequence[int]
) -> list[str]:
    """Each beta of alpha's total: the flow's answer against membership in
    alpha's column sums, enumerated once for all the betas without a flow."""
    out = []
    total = sum(alpha)
    reached = _capped_column_sums(seq, caps, alpha)
    for beta in bounded_compositions(total, (total,) * seq.n):
        flow = admits_matching(seq, alpha, beta, caps)
        scan = beta in reached
        if flow != scan:
            out.append(
                f"alpha={tuple(alpha)}, beta={beta}: flow says {flow}, "
                f"enumeration says {scan}"
            )
    return out


def _eval_capped(cfg: TrialConfig, instance: Mapping) -> list[str]:
    if instance.get("mode") == "exhaustive-core":
        reasons = []
        for m, n in ((1, 1), (1, 2), (2, 1), (2, 2)):
            subsets = [frozenset(c) for r in range(m + 1) for c in combinations(range(1, m + 1), r)]
            for sets in product(subsets, repeat=n):
                seq = SubsetSeq(m, tuple(sets))
                for cap in (0, 1, 2):
                    caps = {edge: cap for edge in seq.edges()}
                    for total in range(5):
                        for alpha in bounded_compositions(total, (total,) * m):
                            reasons.extend(_capped_mismatches(seq, caps, alpha))
                            if len(reasons) > 5:
                                return reasons
        return reasons
    seq = _read_seq(instance["seq"], _SMALL_M, _SMALL_N)
    caps = caps_from_json(seq, instance["caps"])
    # a negative entry would leave no beta of alpha's total to compare
    alpha = _check_degrees(list(map(_replay_int, instance["alpha"])), seq.m, "alpha")
    _replay_int(sum(alpha), "sum(alpha)", _MAX_TOTAL)
    return _capped_mismatches(seq, caps, alpha)


# -- check: basis-restricted statistics ----------------------------------------


def _gen_basis_stats(cfg: TrialConfig, rng: random.Random, trial: int) -> dict:
    m = rng.randint(1, MAX_M)
    if rng.random() < 0.5:
        r = rng.randint(0, min(m, MAX_RANK))
        mat = uniform_matroid(m, r)
        uniform_rank = r
    else:
        mat = Matroid(linreal_rank(LinReal((1,) * m, _random_gens(rng, MAX_RANK, m))))
        uniform_rank = None
    seq = _random_parts(rng, m, rng.randint(1, MAX_N))
    return {
        "matroid": mat.to_json(),
        "seq": seq.to_json(),
        "uniform_rank": uniform_rank,
    }


def _eval_basis_stats(cfg: TrialConfig, instance: Mapping) -> list[str]:
    mat = Matroid.from_json(instance["matroid"])
    seq = _read_seq(instance["seq"], MAX_M, MAX_N)
    r = instance.get("uniform_rank")
    r = None if r is None else _replay_int(r)
    reasons = []
    g = basis_match_poly(mat, seq)
    report = certify_lorentzian(g)
    if not report.verdict:
        reasons.append(f"certification failed ({report.failure.kind})")
    if r is not None and r <= seq.m and g != match_poly(seq, r):
        reasons.append("uniform-matroid restriction differs from the plain statistic")
    return reasons


# -- check: support of induced polynomials -------------------------------------


def _gen_support_induction(cfg: TrialConfig, rng: random.Random, trial: int) -> dict:
    blocks = rng.randint(1, _MAX_BLOCKS)
    dims = tuple(rng.randint(1, _MAX_DIM) for _ in range(blocks))
    real = LinReal(dims, _random_gens(rng, MAX_RANK, sum(dims)))
    seq = _random_parts(rng, blocks, rng.randint(1, MAX_N), cover=True)
    return {"real": real.to_json(), "seq": seq.to_json()}


def _eval_support_induction(cfg: TrialConfig, instance: Mapping) -> list[str]:
    real = LinReal.from_json(instance["real"])
    _replay_int(real.m, "len(blockdims)", _MAX_BLOCKS)
    _replay_int(max(real.blockdims), "blockdims_i", _MAX_DIM)
    _replay_int(len(real.gens), "len(gens)", MAX_RANK)
    seq = _read_seq(instance["seq"], _MAX_BLOCKS, MAX_N)
    reasons = []
    pm = linreal_rank(real)
    induced = induce_polymatroid(pm, seq)
    egf = base_egf(pm)
    if apply_inducing(seq, egf).support() != base_points(induced):
        reasons.append("support of the induced polynomial misses the base points")
    if linreal_rank(linreal_induce(real, seq)) != induced:
        reasons.append("rank of the induced realization differs")
    if support_polymatroid(egf) != pm:
        reasons.append("support round-trip does not recover the polymatroid")
    return reasons


# -- check: pinned worked examples ----------------------------------------------


def _normalized_poly(nvars: int, table: Mapping[tuple[int, ...], int]) -> Poly:
    return Poly(
        nvars, {exp: Fraction(c, vec_factorial(exp)) for exp, c in table.items()}
    )


def _gen_golden(cfg: TrialConfig, rng: random.Random, trial: int) -> dict:
    return {"abcd": [[rng.randint(1, _ABCD_TOP) for _ in range(4)] for _ in range(_ABCD_ROWS)]}


def _unequal(rows: Sequence[tuple[str, object, object]]) -> list[str]:
    """The label of each `(label, value, expected)` row whose value is not the expected one."""
    return [label for label, value, expected in rows if value != expected]


def _eval_golden(cfg: TrialConfig, instance: Mapping) -> list[str]:
    abcd = instance.get("abcd", [])
    _replay_int(len(abcd), "len(abcd)", _ABCD_ROWS)
    abcd = [[_replay_int(v, "abcd entry", _ABCD_TOP) for v in row] for row in abcd]
    for row in abcd:
        if len(row) != 4:
            raise ValueError(f"abcd row {row} has {len(row)} entries; the generator draws 4")
        if min(row) < 1:
            raise ValueError(f"abcd entry={min(row)}; the generator draws abcd entry >= 1")

    def identity(f: Poly) -> bool:
        # c(y1 y2) c(y3^2) = c(y1 y3) c(y2 y3)
        c = f.coefficient
        return c((1, 1, 0)) * c((0, 0, 2)) == c((1, 0, 1)) * c((0, 1, 1))

    wide = SubsetSeq(4, (frozenset({1, 2, 3, 4}), frozenset({2, 3}), frozenset({3, 4})))
    image = apply_inducing(wide, elementary_symmetric(4, 2))
    narrow = SubsetSeq(2, (frozenset({1}), frozenset({2}), frozenset({1, 2})))
    x1x2 = Poly(2, {(1, 1): 1})
    narrow_image = apply_inducing(narrow, x1x2)
    tri = SubsetSeq(3, (frozenset({1, 2, 3}), frozenset({1, 2, 3}), frozenset({1, 2})))
    tri_image = apply_inducing(tri, Poly(3, {(1, 1, 1): 1}))
    ysum = Poly(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    z3 = cmath.exp(1j * math.pi / 12)
    z1 = (cmath.exp(3j * math.pi / 4) - z3) / 2
    point = [z1, z1, z3]
    stage1 = SubsetSeq(2, (frozenset({1}), frozenset({1}), frozenset({2}), frozenset({2})))
    stage2 = SubsetSeq(4, (frozenset({1, 3}), frozenset({2, 4})))
    combined = compose_seq(stage1, stage2)
    halfway = apply_inducing(stage1, x1x2)
    box = inducing_box(narrow, (1, 1))
    reasons = _unequal([
        # four-element worked example
        ("degree-2 image of the wide example is off", image,
         _normalized_poly(3, {(2, 0, 0): 6, (0, 2, 0): 1, (0, 0, 2): 1,
                              (1, 1, 0): 5, (1, 0, 1): 5, (0, 1, 1): 3})),
        ("pair counts of the wide example are off", stat_table(wide, 2).rows,
         {(1, 2): 5, (1, 3): 5, (2, 3): 3}),
        ("singleton counts of the wide example are off", match_poly(wide, 1),
         Poly(3, {(1, 0, 0): 4, (0, 1, 0): 2, (0, 0, 1): 2})),
        ("empty topic should count exactly the empty set", match_count(wide, ()), 1),
        ("no witness for the feasible degree pair",
         find_witness(wide, (0, 2, 2, 1), (2, 2, 1)) is not None, True),
        ("matched degree set of (1,1,0,0) is off", matched_degrees(wide, (1, 1, 0, 0)),
         {(2, 0, 0), (1, 1, 0)}),
        # three-part example on two elements
        ("inducing image of x1 x2 is off", narrow_image,
         Poly(3, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1, (0, 0, 2): Fraction(1, 2)})),
        ("substitution image of x1 x2 is off", apply_substitution(narrow, None, x1x2),
         Poly(3, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1, (0, 0, 2): 1})),
        *((f"substitution coefficient identity fails at {(a, b, c, d)}",
           identity(apply_substitution(narrow, [[a, 0, b], [0, c, d]], x1x2)), True)
          for a, b, c, d in abcd),
        ("inducing image unexpectedly satisfies the coefficient identity",
         identity(narrow_image), False),
        # symmetric three-element example with a non-stable Lorentzian image
        ("inducing image of x1 x2 x3 is off", tri_image,
         (ysum**3 - Poly.variable(3, 2) ** 3).scale(Fraction(1, 6))),
        ("the symmetric example should certify", certify_lorentzian(tri_image).verdict, True),
        ("upper-half-plane witness has a bad coordinate", all(p.imag > 0 for p in point), True),
        ("upper-half-plane root witness does not vanish",
         abs(tri_image.eval_complex(point)) <= 1e-9, True),
        # composing sequences is not functorial
        ("composed sequence is off", combined,
         SubsetSeq(2, (frozenset({1, 2}), frozenset({1, 2})))),
        ("one-step image of the composite is off", apply_inducing(combined, x1x2),
         Poly(2, {(1, 1): 1, (2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2)})),
        ("first-stage image is off", halfway,
         Poly(4, {(1, 0, 1, 0): 1, (1, 0, 0, 1): 1, (0, 1, 1, 0): 1, (0, 1, 0, 1): 1})),
        ("two-step image is off", apply_inducing(stage2, halfway),
         Poly(2, {(1, 1): 2, (2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2)})),
        # operator boxes on the three-part example
        ("box image of x1 is off", box.image((1, 0)), Poly(3, {(1, 0, 0): 1, (0, 0, 1): 1})),
        ("box image of 1 is off", box.image((0, 0)), Poly.constant(3, 1)),
        ("box image of x1 x2 is off", box.image((1, 1)), narrow_image),
        ("symbol round-trip lost the box", box_from_symbol(symbol_of(box), (1, 1), 3), box),
    ])
    reasons += _eval_symbol_support(cfg, {"seq": narrow.to_json(), "kappa": [1, 1]})

    n_single = sum(len(s) for s in narrow.sets)
    toy = power_box(
        OperatorBox((1,), 1, {(0,): Poly.constant(1, 1), (1,): Poly(1, {(1,): 4})}),
        Fraction(1, 2),
    )
    simplex = free_polymatroid(2, 2)
    u24 = uniform_matroid(4, 2).underlying
    induced_wide = induce_polymatroid(u24, wide)
    squares = Poly(2, {(2, 0): 1, (0, 2): 1})
    diag = LinReal((2, 2), ((1, 0, 1, 0), (0, 1, 0, 1)))
    one_row = LinReal((1, 1), ((1, 1),))
    reasons += _unequal([
        ("family endpoint a=1, b=0 is off",
         tab_family_box(narrow, [1] * 3, [0] * n_single, (1, 1)), box),
        ("family endpoint a=0, b=1 is off", tab_family_box(narrow, [0] * 3, [1] * n_single, (1, 1)),
         substitution_box(narrow, None, (1, 1))),
        ("square root of a coefficient 4 should be exactly 2.0",
         toy.image((1,)).coefficient((1,)), 2.0),
        # polymatroid constructions
        ("rank table of the scaled simplex is off", simplex.rank, (0, 2, 2, 2)),
        ("base points of a direct sum are off",
         base_points(direct_sum([simplex, free_polymatroid(1, 1)])),
         {(2, 0, 1), (1, 1, 1), (0, 2, 1)}),
        ("induced polymatroid of the wide example is off", induced_wide, free_polymatroid(3, 2)),
        ("induced matroid of the wide example is off", induce_matroid(u24, wide),
         uniform_matroid(3, 2)),
        ("induced base points differ from the image support", base_points(induced_wide),
         image.support()),
        ("bases of the rank-2 uniform matroid are off", matroid_bases(uniform_matroid(3, 2)),
         [(1, 2), (1, 3), (2, 3)]),
        ("the rank-0 matroid should have exactly the empty basis",
         matroid_bases(uniform_matroid(1, 0)), [()]),
        ("the pair statistic should have polymatroid support",
         support_polymatroid(match_poly(wide, 2)) is not None, True),
        ("a gapped support should not look like base points", support_polymatroid(squares), None),
        ("diagonal realization rank is off", linreal_rank(diag), simplex),
        ("one-row realization rank is off", linreal_rank(one_row),
         uniform_matroid(2, 1).underlying),
        ("empty realization should have rank zero", linreal_rank(LinReal((1, 1), ())),
         Polymatroid(2, (0, 0, 0, 0))),
        ("merging blocks of the one-row realization is off",
         linreal_rank(linreal_induce(one_row, SubsetSeq(2, (frozenset({1, 2}),)))),
         Polymatroid(1, (0, 1))),
        ("induction through the realization disagrees with direct induction",
         linreal_rank(linreal_induce(diag, narrow)), induce_polymatroid(simplex, narrow)),
    ])
    split = SubsetSeq(2, (frozenset({1}), frozenset({2})))
    try:
        reasons += _unequal([
            ("the split simplex point (1,1) should be a member",
             hall_rado_member(simplex, split, (1, 1)), True),
            ("a short vector should not be a member",
             hall_rado_member(simplex, split, (1, 0)), False),
            ("the zero vector should be a member at rank zero",
             hall_rado_member(free_polymatroid(1, 0), SubsetSeq(1, (frozenset({1}),)), (0,)), True),
        ])
    except InternalCheckError as exc:
        reasons.append(str(exc))

    gapped = certify_lorentzian(squares)
    ok, pair = is_m_convex({(2, 0), (0, 2)})
    reasons += _unequal([
        # certification goldens
        ("inertia of the three-variable quadratic is off", quad_inertia(narrow_image).as_tuple(),
         (1, 2, 0)),
        ("inertia of the hyperbolic plane is off", quad_inertia(x1x2).as_tuple(), (1, 1, 0)),
        ("inertia of the definite quadratic is off", quad_inertia(squares).as_tuple(), (2, 0, 0)),
        ("the pair statistic of the wide example should certify",
         certify_lorentzian(match_poly(wide, 2)).verdict, True),
        ("the gapped quadratic should fail on its support",
         not gapped.verdict and gapped.failure.kind == "support-not-M-convex", True),
        ("squarefree pairs should be exchangeable",
         is_m_convex({(1, 1, 0), (1, 0, 1), (0, 1, 1)})[0], True),
        ("the gapped support should fail with a witness", not ok and pair is not None, True),
    ])

    # axiom violation reporting
    try:
        validate_polymatroid((1, 1))
        reasons.append("a nonzero empty-set rank slipped through")
    except AxiomViolation as exc:
        reasons += _unequal([("wrong axiom for the empty-set rank", exc.axiom, "normalization")])
    try:
        validate_polymatroid((0, 1, 1, 3))
        reasons.append("a supermodular table slipped through")
    except AxiomViolation as exc:
        reasons += _unequal([("wrong axiom for the jumping table",
                              exc.axiom in ("monotonicity", "submodularity"), True)])
    return reasons


# -- registry -------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    name: str
    gen: Callable[[TrialConfig, random.Random, int], dict]
    evaluate: Callable[[TrialConfig, Mapping], list[str]]
    ratio: float = 1.0
    fixed_trials: int | None = None

    def trial_count(self, cfg: TrialConfig) -> int:
        if self.fixed_trials is not None:
            return self.fixed_trials
        return max(1, round(cfg.trials * self.ratio))


CHECKS: dict[str, Check] = {
    check.name: check
    for check in (
        Check("golden-examples", _gen_golden, _eval_golden, fixed_trials=1),
        Check("matching-stat-lorentzian", _gen_matching_stat, _eval_matching_stat, 1.0),
        Check("symbol-support-egf", functools.partial(_gen_seq_kappa, cover=True), _eval_symbol_support, 0.5),
        Check("base-membership-duality", _gen_base_membership, _eval_base_membership, 2.0),
        Check("coefficient-power-family", _gen_seq_kappa, _eval_power_family, 0.2),
        Check("capped-matchings", _gen_capped, _eval_capped, 1.0),
        Check("support-induction", _gen_support_induction, _eval_support_induction, 0.5),
        Check("basis-restricted-stats", _gen_basis_stats, _eval_basis_stats, 0.5),
    )
}


def _evaluate_safe(check: Check, cfg: TrialConfig, instance: Mapping) -> list[str]:
    try:
        return check.evaluate(cfg, instance)
    except Exception as exc:  # noqa: BLE001 - a crash is a reportable failure
        return [f"exception: {exc!r}"]


def _run_trials(check: Check, cfg: TrialConfig, trials: Sequence[int]) -> list[dict]:
    """The failures among the given trials, in their order."""
    failures = []
    for trial in trials:
        rng = _trial_rng(cfg.seed, check.name, trial)
        instance = check.gen(cfg, rng, trial)
        reasons = _evaluate_safe(check, cfg, instance)
        if reasons:
            failures.append(
                {"trial": trial, "instance": instance, "reasons": reasons}
            )
    return failures


def _can_split() -> bool:
    """May a check's trials be split with one forked child?  Only where
    `os.fork` exists, the process has one OS thread, and it may use 2 CPUs
    or more.  A process with a second OS thread is not forked (the child
    would hold a copy of any lock that thread held, and CPython 3.12+
    warns).  On Linux the threads are counted in /proc/self/task, because
    `threading.active_count()` misses threads that native code started,
    such as a BLAS pool.  The CPUs of a quota are not seen."""
    if not hasattr(os, "fork"):
        return False
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = threading.active_count()
    if threads > 1:
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return cpus >= 2


def _run_split(check: Check, cfg: TrialConfig, count: int) -> list[dict]:
    """`_run_trials` over range(count) in two processes: the parent runs the
    even trials while one forked child runs the odd ones and pickles their
    failures to a pipe.

    The child leaves only by `os._exit` in a `finally`: it never returns into
    the caller, flushes no inherited buffer and runs no `atexit` handler.
    Where the fork fails, the parent runs every trial itself; where the
    child exits non-zero, the parent reruns the odd trials.  The child is
    reaped before this returns, and killed first if the parent leaves by an
    exception such as KeyboardInterrupt.
    """
    import pickle

    odd = range(1, count, 2)
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return _run_trials(check, cfg, range(count))
    if pid == 0:
        code = 1
        try:
            data = pickle.dumps(_run_trials(check, cfg, odd), pickle.HIGHEST_PROTOCOL)
            with open(write, "wb", closefd=False) as pipe:
                pipe.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    try:
        failures = _run_trials(check, cfg, range(0, count, 2))
        with open(read, "rb", closefd=False) as pipe:
            data = pipe.read()
        status = os.waitpid(pid, 0)[1]
        pid = 0
    finally:
        os.close(read)
        if pid:
            import signal

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    failures += pickle.loads(data) if status == 0 else _run_trials(check, cfg, odd)
    return sorted(failures, key=operator.itemgetter("trial"))


def run_check(name: str, cfg: TrialConfig | None = None) -> CheckResult:
    """Run one named check; failures carry the serialized instances.

    A check of more than one trial is split over two processes where
    `_can_split()` allows, and otherwise runs in one loop.  Either way the
    result is the one loop's: the failures in trial order, each trial
    computed from (seed, name, trial index) alone (see `_run_split`).  A
    counter that a trial updates would live in the process that ran it, so
    run-context counters must come back through the pipe with the failures.
    """
    if name not in CHECKS:
        raise KeyError(f"unknown check {name!r}")
    cfg = cfg or TrialConfig()
    check = CHECKS[name]
    count = check.trial_count(cfg)
    if count > 1 and _can_split():
        failures = _run_split(check, cfg, count)
    else:
        failures = _run_trials(check, cfg, range(count))
    return CheckResult(name, count, tuple(failures))


def run_all(cfg: TrialConfig | None = None) -> list[CheckResult]:
    """Run every registered check in a fixed order."""
    cfg = cfg or TrialConfig()
    return [run_check(name, cfg) for name in CHECKS]


def replay(name: str, instance: Mapping, cfg: TrialConfig | None = None) -> list[str]:
    """Re-evaluate a recorded instance; empty result means it passes now."""
    if name not in CHECKS:
        raise KeyError(f"unknown check {name!r}")
    if not isinstance(instance, Mapping):
        raise ValueError("a replayed instance must be a JSON object")
    return _evaluate_safe(CHECKS[name], cfg or TrialConfig(), instance)
