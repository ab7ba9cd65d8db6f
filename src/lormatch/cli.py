"""Command-line front end.

Every flag that takes structured data accepts either inline JSON or
`@path/to/file.json`.  Results go to standard output as canonical JSON
(sorted keys, compact separators), so identical inputs produce identical
bytes; `--pretty` mirrors an indented rendering to standard error without
touching the machine-readable stream.

Exit codes: 0 success, 1 domain error (a machine-readable error object is
printed to standard output), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Mapping, Sequence

from ._util import json_ints, json_rational_rows
from .lorentzian import certify_lorentzian, is_m_convex, quad_inertia
from .matchings import (
    SubsetSeq,
    caps_from_json,
    compose_seq,
    find_witness,
    matched_degrees,
)
from .matchstats import basis_match_count, basis_match_poly, match_count, match_poly, stat_table
from .operators import (
    apply_inducing,
    apply_substitution,
    augment_with_singletons,
    inducing_box,
    power_box,
    substitution_box,
    symbol_of,
    tab_family_box,
)
from .polymatroids import (
    AxiomViolation,
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
from .verification import CHECKS, TrialConfig, replay, run_all, run_check

SEED_ENV = "LORMATCH_SEED"
TOLERANCE_ENV = "LORMATCH_TOLERANCE"


class UsageError(Exception):
    """Bad flag combination; maps to exit code 2."""


class DomainError(Exception):
    """Invalid input data; maps to exit code 1 with a JSON error object."""

    def __init__(self, payload: dict):
        super().__init__(payload.get("detail", payload.get("error", "error")))
        self.payload = payload


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _read_source(raw: str, flag: str) -> str:
    if raw.startswith("@"):
        path = raw[1:]
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return handle.read()
        except OSError as exc:
            raise DomainError(
                {"error": "unreadable-file", "flag": flag, "detail": str(exc)}
            ) from exc
    return raw


def _parse_json(raw: str, flag: str):
    text = _read_source(raw, flag)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(
            {
                "error": "malformed-json",
                "flag": flag,
                "offset": exc.pos,
                "detail": exc.msg,
            }
        ) from exc


def _domain(flag: str, exc: Exception) -> DomainError:
    return DomainError({"error": "invalid-value", "flag": flag, "detail": str(exc)})


def _parse_with(build, raw: str, flag: str):
    """Parse the flag's JSON and build an object; bad values become domain errors.

    Axiom violations pass through, so they keep their own error payload.
    """
    data = _parse_json(raw, flag)
    try:
        return build(data)
    except AxiomViolation:
        raise
    except (ValueError, TypeError, KeyError, ZeroDivisionError) as exc:
        raise _domain(flag, exc) from exc


def _parse_seq(raw: str, flag: str = "--sets") -> SubsetSeq:
    return _parse_with(SubsetSeq.from_json, raw, flag)


def _parse_poly(raw: str, flag: str = "--poly") -> Poly:
    return _parse_with(Poly.from_json, raw, flag)


def _parse_list(raw: str, flag: str, convert) -> tuple:
    """Comma-separated values, each read by ``convert`` (int or Fraction)."""
    try:
        return tuple(convert(tok.strip()) for tok in raw.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise _domain(flag, exc) from exc


_matrix_from_json = functools.partial(json_rational_rows, what="matrix")
_INTS = "expected a list of integers, got {json}"


def _polymatroid_from_json(data) -> Polymatroid:
    """Rank-table JSON, or the shorthands {"free": [N, r]}, {"uniform": [m, r]},
    {"sum": [...]} for quick construction on the command line."""
    if isinstance(data, Mapping) and "free" in data:
        n_elements, r = json_ints(data["free"], _INTS)
        return free_polymatroid(n_elements, r)
    if isinstance(data, Mapping) and "uniform" in data:
        m, r = json_ints(data["uniform"], _INTS)
        return uniform_matroid(m, r).underlying
    if isinstance(data, Mapping) and "sum" in data:
        return direct_sum([_polymatroid_from_json(part) for part in data["sum"]])
    if isinstance(data, Mapping) and "rank" in data:
        if "m" in data:
            return Polymatroid.from_json(data)
        return validate_polymatroid(json_ints(data["rank"], _INTS))
    raise ValueError("expected a rank table or a construction shorthand")


def _parse_polymatroid(data, flag: str) -> Polymatroid:
    """`_polymatroid_from_json` under its former name, which perfbench's tests call."""
    return _polymatroid_from_json(data)


def _matroid_from_json(data) -> Matroid:
    return Matroid(_polymatroid_from_json(data))


def _emit(payload, pretty: bool, raw: str | None = None) -> None:
    if raw is not None:
        sys.stdout.write(raw if raw.endswith("\n") else raw + "\n")
        if pretty:
            sys.stderr.write(raw if raw.endswith("\n") else raw + "\n")
        return
    sys.stdout.write(_canon(payload) + "\n")
    if pretty:
        sys.stderr.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


# -- subcommand handlers ---------------------------------------------------------


def _cmd_match(args) -> int:
    seq = _parse_seq(args.sets)
    alpha = _parse_list(args.alpha, "--alpha", int)
    caps = None
    if args.caps is not None:
        caps = _parse_with(lambda data: caps_from_json(seq, data), args.caps, "--caps")
    if args.beta is None:
        if caps is not None:
            raise UsageError("--caps requires --beta")
        degrees = sorted(matched_degrees(seq, alpha))
        _emit({"matched": [list(beta) for beta in degrees]}, args.pretty)
        return 0
    beta = _parse_list(args.beta, "--beta", int)
    witness = find_witness(seq, alpha, beta, caps)
    _emit(
        {
            "feasible": witness is not None,
            "witness": None if witness is None else witness.to_json(),
        },
        args.pretty,
    )
    return 0


def _cmd_induce(args) -> int:
    seq = _parse_seq(args.sets)
    if args.then is not None:
        seq = compose_seq(seq, _parse_seq(args.then, "--then"))
    if (args.poly is None) == (args.elementary is None):
        raise UsageError("exactly one of --poly or --elementary is required")
    if args.poly is not None:
        f = _parse_poly(args.poly)
    else:
        f = elementary_symmetric(seq.m, args.elementary)
    _emit(apply_inducing(seq, f).to_json(args.basis), args.pretty)
    return 0


def _cmd_subst(args) -> int:
    seq = _parse_seq(args.sets)
    matrix = None
    if args.matrix is not None:
        matrix = _parse_with(_matrix_from_json, args.matrix, "--matrix")
    f = _parse_poly(args.poly)
    _emit(apply_substitution(seq, matrix, f).to_json(args.basis), args.pretty)
    return 0


def _cmd_ct(args) -> int:
    seq = _parse_seq(args.sets)
    if args.topic is not None:
        topic = _parse_list(args.topic, "--topic", int) if args.topic else ()
        if args.matroid is not None:
            mat = _parse_with(_matroid_from_json, args.matroid, "--matroid")
            count = basis_match_count(mat, seq, topic)
        else:
            count = match_count(seq, topic)
        _emit({"topic": sorted(topic), "count": count}, args.pretty)
        return 0
    if args.r is None:
        raise UsageError("one of --r or --topic is required")
    table = stat_table(seq, args.r)
    if args.format == "csv":
        _emit(None, args.pretty, raw=table.to_csv())
        return 0
    _emit({"r": table.r, "rows": table.to_json()}, args.pretty)
    return 0


def _cmd_fpoly(args) -> int:
    seq = _parse_seq(args.sets)
    if (args.r is None) == (args.matroid is None):
        raise UsageError("exactly one of --r or --matroid is required")
    if args.matroid is not None:
        g = basis_match_poly(_parse_with(_matroid_from_json, args.matroid, "--matroid"), seq)
    else:
        g = match_poly(seq, args.r)
    _emit(g.to_json(), args.pretty)
    return 0


def _cmd_symbol(args) -> int:
    seq = _parse_seq(args.sets)
    kappa = _parse_list(args.kappa, "--kappa", int)
    if args.op == "substitution":
        matrix = None
        if args.matrix is not None:
            matrix = _parse_with(_matrix_from_json, args.matrix, "--matrix")
        box = substitution_box(seq, matrix, kappa)
    else:
        if args.matrix is not None:
            raise UsageError("--matrix only applies to --op substitution")
        box = inducing_box(seq, kappa)
    if args.q is not None:
        try:
            q = Fraction(args.q)
        except (ValueError, ZeroDivisionError) as exc:
            raise _domain("--q", exc) from exc
        box = power_box(box, q)
    out = box if args.table else symbol_of(box)
    _emit(out.to_json(), args.pretty)
    return 0


def _cmd_certify(args) -> int:
    f = _parse_poly(args.poly)
    if args.support_only:
        ok, pair = is_m_convex(f.support())
        witness = [list(pair[0]), list(pair[1])] if pair else None
        _emit({"m_convex": ok, "witness": witness}, args.pretty)
        return 0
    if args.quadratic:
        inertia = quad_inertia(f, args.tolerance)
        _emit({"inertia": list(inertia.as_tuple())}, args.pretty)
        return 0
    report = certify_lorentzian(f, args.tolerance)
    _emit(report.to_json(), args.pretty)
    return 0


def _cmd_pminduce(args) -> int:
    chosen = [flag for flag in (args.pm, args.real, args.support_of) if flag is not None]
    if len(chosen) != 1:
        raise UsageError("exactly one of --pm, --real, --support-of is required")
    if args.support_of is not None:
        if args.sets is not None:
            raise UsageError("--support-of does not combine with --sets")
        pm = support_polymatroid(_parse_poly(args.support_of, "--support-of"))
        _emit({"polymatroid": pm.to_json() if pm else None}, args.pretty)
        return 0
    payload: dict = {}
    mat = None
    if args.real is not None:
        real = _parse_with(LinReal.from_json, args.real, "--real")
        if args.sets is not None:
            real = linreal_induce(real, _parse_seq(args.sets))
            payload["realization"] = real.to_json()
        pm = linreal_rank(real)
    else:
        pm = _parse_with(_polymatroid_from_json, args.pm, "--pm")
        if args.sets is not None:
            seq = _parse_seq(args.sets)
            if args.matroid:
                mat = induce_matroid(pm, seq)
                pm = mat.underlying
            else:
                pm = induce_polymatroid(pm, seq)
    if args.matroid:
        if mat is None:
            mat = Matroid(pm)
        payload["matroid"] = mat.to_json()
        if args.bases:
            payload["bases"] = [list(b) for b in matroid_bases(mat)]
    payload["polymatroid"] = pm.to_json()
    if args.points:
        payload["base_points"] = [list(p) for p in sorted(base_points(pm))]
    if args.egf:
        payload["egf"] = base_egf(pm).to_json()
    _emit(payload, args.pretty)
    return 0


def _cmd_hallrado(args) -> int:
    if (args.pm is None) == (args.real is None):
        raise UsageError("exactly one of --pm or --real is required")
    if args.real is not None:
        pm = linreal_rank(_parse_with(LinReal.from_json, args.real, "--real"))
    else:
        pm = _parse_with(_polymatroid_from_json, args.pm, "--pm")
    seq = _parse_seq(args.sets)
    delta = _parse_list(args.delta, "--delta", int)
    _emit({"member": hall_rado_member(pm, seq, delta)}, args.pretty)
    return 0


def _cmd_tab_family(args) -> int:
    seq = _parse_seq(args.sets)
    kappa = _parse_list(args.kappa, "--kappa", int)
    a = _parse_list(args.a, "--a", Fraction)
    b = _parse_list(args.b, "--b", Fraction)
    box = tab_family_box(seq, a, b, kappa)
    augmented = augment_with_singletons(seq)
    payload = {"augmented_sets": augmented.to_json()}
    if args.symbol:
        payload["symbol"] = symbol_of(box).to_json()
    else:
        payload["box"] = box.to_json()
    _emit(payload, args.pretty)
    return 0


def _env(name: str, fallback, convert):
    """The environment variable read by ``convert``, or ``fallback`` if unset."""
    value = os.environ.get(name)
    if value is None:
        return fallback
    try:
        return convert(value)
    except ValueError as exc:
        raise DomainError(
            {"error": "invalid-environment", "variable": name, "detail": str(exc)}
        ) from exc


def _cmd_verify(args) -> int:
    if args.list_checks:
        _emit({"checks": list(CHECKS)}, args.pretty)
        return 0
    seed = args.seed if args.seed is not None else _env(SEED_ENV, 1, int)
    tolerance = (
        args.tolerance
        if args.tolerance is not None
        else _env(TOLERANCE_ENV, 1e-9, float)
    )
    trials = args.trials if args.trials is not None else 100
    try:
        cfg = TrialConfig(seed=seed, trials=trials, tolerance=tolerance)
    except ValueError as exc:
        raise DomainError({"error": "invalid-config", "detail": str(exc)}) from exc
    if args.check is not None and args.check not in CHECKS:
        raise DomainError(
            {"error": "unknown-check", "detail": args.check, "known": list(CHECKS)}
        )
    if args.replay is not None:
        if args.check is None:
            raise UsageError("--replay requires --check")
        reasons = _parse_with(
            lambda instance: replay(args.check, instance, cfg), args.replay, "--replay"
        )
        _emit(
            {"check": args.check, "passed": not reasons, "reasons": reasons},
            args.pretty,
        )
        return 0 if not reasons else 1
    results = [run_check(args.check, cfg)] if args.check is not None else run_all(cfg)
    all_passed = True
    for result in results:
        _emit(result.to_json(), False)
        if args.pretty:
            status = "pass" if result.passed else "FAIL"
            sys.stderr.write(f"{result.name}: {status} ({result.trials} trials)\n")
        all_passed = all_passed and result.passed
    _emit({"all_passed": all_passed, "config": cfg.to_json()}, args.pretty)
    return 0 if all_passed else 1


# -- parser ----------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after."""
    parser = argparse.ArgumentParser(
        prog="lormatch",
        description="Exact tools for matching statistics, induced polynomials, "
        "polymatroids, and Lorentzian certification.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--pretty",
        action="store_true",
        help="mirror an indented rendering to standard error",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("match", parents=[common], help="matching feasibility and witnesses")
    p.add_argument("--sets", required=True, help="subset sequence JSON or @file")
    p.add_argument("--alpha", required=True, help="comma-separated degrees, one per element")
    p.add_argument("--beta", help="comma-separated degrees, one per part")
    p.add_argument("--caps", help="edge caps JSON {\"i-j\": cap} or @file")
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("induce", parents=[common], help="apply the inducing operator")
    p.add_argument("--sets", required=True)
    p.add_argument("--poly", help="input polynomial JSON or @file")
    p.add_argument("--elementary", type=int, help="use the elementary symmetric polynomial of this degree")
    p.add_argument("--then", help="second subset sequence: compose before applying")
    p.add_argument("--basis", choices=("plain", "normalized"), default="plain")
    p.set_defaults(func=_cmd_induce)

    p = sub.add_parser("subst", parents=[common], help="apply the weighted substitution operator")
    p.add_argument("--sets", required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--matrix", help="weight matrix JSON (rows per element); omit for 0/1 weights")
    p.add_argument("--basis", choices=("plain", "normalized"), default="plain")
    p.set_defaults(func=_cmd_subst)

    p = sub.add_parser("ct", parents=[common], help="matching counts by topic set")
    p.add_argument("--sets", required=True)
    p.add_argument("--r", type=int, help="tabulate all topics of this size")
    p.add_argument("--topic", help="comma-separated part indices; empty string for the empty topic")
    p.add_argument("--matroid", help="restrict counted sets to bases of this matroid")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_ct)

    p = sub.add_parser("fpoly", parents=[common], help="matching-count generating polynomials")
    p.add_argument("--sets", required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--matroid", help="basis-restricted variant for this matroid")
    p.set_defaults(func=_cmd_fpoly)

    p = sub.add_parser("symbol", parents=[common], help="operator boxes and their symbols")
    p.add_argument("--sets", required=True)
    p.add_argument("--kappa", required=True, help="comma-separated degree caps, one per element")
    p.add_argument("--op", choices=("inducing", "substitution"), default="inducing")
    p.add_argument("--matrix", help="weights for --op substitution")
    p.add_argument("--q", help="raise symbol coefficients to this power in [0,1] (float output)")
    p.add_argument("--table", action="store_true", help="emit the operator box instead of the symbol")
    p.set_defaults(func=_cmd_symbol)

    p = sub.add_parser("certify", parents=[common], help="Lorentzian certification")
    p.add_argument("--poly", required=True)
    p.add_argument("--tolerance", type=float, help="treat magnitudes at or below this as zero")
    p.add_argument("--quadratic", action="store_true", help="report the Hessian inertia only")
    p.add_argument("--support-only", action="store_true", dest="support_only",
                   help="report the exchange-property check only")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("pminduce", parents=[common], help="polymatroid construction and induction")
    p.add_argument("--pm", help="rank table JSON, or {\"free\": [N, r]}, {\"uniform\": [m, r]}, {\"sum\": [...]}")
    p.add_argument("--real", help="rational linear realization JSON")
    p.add_argument("--support-of", dest="support_of", help="recover the polymatroid from a polynomial's support")
    p.add_argument("--sets", help="induce along this subset sequence")
    p.add_argument("--matroid", action="store_true", help="truncate to a matroid")
    p.add_argument("--bases", action="store_true", help="list matroid bases (with --matroid)")
    p.add_argument("--points", action="store_true", help="list base points")
    p.add_argument("--egf", action="store_true", help="emit the base-point generating polynomial")
    p.set_defaults(func=_cmd_pminduce)

    p = sub.add_parser("hallrado", parents=[common], help="base-point membership for induced polymatroids")
    p.add_argument("--pm")
    p.add_argument("--real")
    p.add_argument("--sets", required=True)
    p.add_argument("--delta", required=True, help="comma-separated target vector, one entry per part")
    p.set_defaults(func=_cmd_hallrado)

    p = sub.add_parser("tab-family", parents=[common], help="two-parameter operator family")
    p.add_argument("--sets", required=True)
    p.add_argument("--a", required=True, help="comma-separated rationals, one per part")
    p.add_argument("--b", required=True, help="comma-separated rationals, one per part membership")
    p.add_argument("--kappa", required=True)
    p.add_argument("--symbol", action="store_true", help="emit the symbol instead of the box")
    p.set_defaults(func=_cmd_tab_family)

    p = sub.add_parser("verify", parents=[common], help="run the randomized verification checks")
    p.add_argument("--seed", type=int, help=f"default 1, or ${SEED_ENV}")
    p.add_argument("--trials", type=int, help="base trial count, default 100")
    p.add_argument("--tolerance", type=float, help=f"default 1e-9, or ${TOLERANCE_ENV}")
    p.add_argument("--check", help="run a single named check")
    p.add_argument("--list", action="store_true", dest="list_checks", help="list check names")
    p.add_argument("--replay", help="re-evaluate a recorded failing instance (requires --check)")
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except DomainError as exc:
        sys.stdout.write(_canon(exc.payload) + "\n")
        return 1
    except AxiomViolation as exc:
        payload = {
            "error": "axiom-violation",
            "axiom": exc.axiom,
            "witness": [list(part) for part in exc.witness] if exc.witness else None,
            "detail": str(exc),
        }
        sys.stdout.write(_canon(payload) + "\n")
        return 1
    except (ValueError, TypeError, KeyError, ZeroDivisionError, OverflowError) as exc:
        sys.stdout.write(_canon({"error": "domain", "detail": str(exc)}) + "\n")
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
