"""Command-line front end.

Every flag that takes structured data accepts either inline JSON or
`@path/to/file.json`.  Results go to standard output as canonical JSON
(sorted keys, compact separators), so identical inputs produce identical
bytes; `--pretty` mirrors an indented rendering to standard error without
touching the machine-readable stream.  A polynomial in a result is written
by its own `_json_text`, the same bytes `json` writes for its `to_json`.

Exit codes: 0 success, 1 domain error or out of memory (a machine-readable
error object is printed to standard output), 2 usage error (one
`error: ...` line on standard error, found before any input is read).

Only the standard library and `_util` are imported with this module: each
handler imports the compute modules it runs, so a process loads those alone
and building the parser (`--help` included) loads none.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import TYPE_CHECKING, Mapping, Sequence

from ._util import DEFAULT_SEED, DEFAULT_TOLERANCE, DEFAULT_TRIALS, AxiomViolation
from ._util import _brief, _cut, checked_tolerance, float_text, int_text, json_ints, json_rational
from ._util import json_rational_rows

if TYPE_CHECKING:
    from .matchings import SubsetSeq
    from .polymatroids import Matroid, Polymatroid
    from .polynomials import FloatPoly, Poly

SEED_ENV = "LORMATCH_SEED"
TOLERANCE_ENV = "LORMATCH_TOLERANCE"


class UsageError(Exception):
    """Bad flag combination; maps to exit code 2."""


class DomainError(Exception):
    """Invalid input data; maps to exit code 1 with a JSON error object."""

    def __init__(self, payload: dict):
        super().__init__(payload.get("detail", payload.get("error", "error")))
        self.payload = payload


class _PolyOut:
    """A polynomial in a payload, written in ``basis``."""

    __slots__ = ("poly", "basis")

    def __init__(self, poly: Poly | FloatPoly, basis: str = "plain") -> None:
        self.poly = poly
        self.basis = basis


def _holds_poly(obj) -> bool:
    """Whether a payload value holds a `_PolyOut`: is one, is an object with
    a value that holds one, or is a list of row objects whose first does."""
    if isinstance(obj, dict):
        return any(map(_holds_poly, obj.values()))
    if isinstance(obj, list):
        return bool(obj) and isinstance(obj[0], dict) and _holds_poly(obj[0])
    return isinstance(obj, _PolyOut)


def _canon(obj) -> str:
    """Canonical JSON: sorted keys, compact separators.

    A payload that is a polynomial, or that holds polynomials in objects and
    in lists of row objects (an operator box's table), has each polynomial's
    `_json_text` spliced in.
    """
    if isinstance(obj, _PolyOut):
        return obj.poly._json_text(obj.basis)
    if isinstance(obj, dict) and _holds_poly(obj):
        return "{%s}" % ",".join(json.dumps(key) + ":" + _canon(obj[key]) for key in sorted(obj))
    if isinstance(obj, list) and _holds_poly(obj):
        return "[%s]" % ",".join(map(_canon, obj))
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _read_source(raw: str, flag: str) -> str:
    if not raw.startswith("@"):
        return raw
    path = raw[1:]
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:  # unreadable; the OS text would show the whole path
        detail = f"[Errno {exc.errno}] {exc.strerror}: {_brief(path)}"
    except UnicodeDecodeError as exc:  # not UTF-8
        detail = str(exc)
    raise DomainError({"error": "unreadable-file", "flag": flag, "detail": detail})


def _parse_json(raw: str, flag: str):
    text = _read_source(raw, flag)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        extra = {"offset": exc.pos, "detail": exc.msg}
    except RecursionError:  # the scanner recurses once per nesting level
        extra = {"detail": "JSON nested too deeply"}
    raise DomainError({"error": "malformed-json", "flag": flag, **extra})


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
    from .matchings import SubsetSeq

    return _parse_with(SubsetSeq.from_json, raw, flag)


def _parse_poly(raw: str, flag: str = "--poly") -> Poly:
    from .polynomials import Poly

    return _parse_with(Poly.from_json, raw, flag)


def _read_text(text: str, convert, refuse):
    """The stripped ``text`` read by ``convert`` (an ASCII-only `_util` reader);
    a `ValueError` is raised again as ``refuse(exc)``.  Three surfaces share it:
    list items and `--q` (`_parse_number`: exit 1, `invalid-value` naming the
    flag), single-number flags (`_flag_type`: argparse, exit 2) and
    environment variables (`_env`: exit 1, `invalid-environment`)."""
    try:
        return convert(text.strip())
    except ValueError as exc:
        raise refuse(exc) from exc


def _parse_number(raw: str, flag: str, convert):
    return _read_text(raw, convert, functools.partial(_domain, flag))


def _flag_type(convert):
    return lambda raw: _read_text(raw, convert, lambda exc: argparse.ArgumentTypeError(str(exc)))


_INT_FLAG, _FLOAT_FLAG = _flag_type(int_text), _flag_type(float_text)


def _parse_list(raw: str, flag: str, convert=int_text) -> tuple:
    return tuple(_parse_number(tok, flag, convert) for tok in raw.split(","))


def _parse_matrix(raw: str | None):
    """The `--matrix` rows, or None (0/1 weights) when the flag is absent."""
    if raw is None:
        return None
    return _parse_with(functools.partial(json_rational_rows, what="matrix"), raw, "--matrix")


_INTS = "expected a list of integers, got {}"


def _polymatroid_from_json(data) -> Polymatroid:
    """Rank-table JSON, or the shorthands {"free": [N, r]}, {"uniform": [m, r]},
    {"sum": [...]} for quick construction on the command line."""
    from .polymatroids import Polymatroid, direct_sum, free_polymatroid, uniform_matroid
    from .polymatroids import validate_polymatroid

    if isinstance(data, Mapping) and "free" in data:
        return free_polymatroid(*_shorthand_pair(data["free"], '"free": [N, r]'))
    if isinstance(data, Mapping) and "uniform" in data:
        return uniform_matroid(*_shorthand_pair(data["uniform"], '"uniform": [m, r]')).underlying
    if isinstance(data, Mapping) and "sum" in data:
        parts = data["sum"]
        if not isinstance(parts, list):
            raise ValueError(f'expected "sum": a list of rank tables or shorthands, got {_brief(parts)}')
        return direct_sum([_polymatroid_from_json(part) for part in parts])
    if isinstance(data, Mapping) and "rank" in data:
        if "m" in data:
            return Polymatroid.from_json(data)
        return validate_polymatroid(json_ints(data["rank"], _INTS))
    raise ValueError("expected a rank table or a construction shorthand")


def _shorthand_pair(value, shape: str) -> tuple[int, ...]:
    pair = json_ints(value, _INTS)
    if len(pair) != 2:
        raise ValueError(f"expected {shape}, got {_brief(value)}")
    return pair


def _parse_polymatroid(data, flag: str) -> Polymatroid:
    """`_polymatroid_from_json` under its former name, which perfbench's tests call."""
    return _polymatroid_from_json(data)


def _matroid_from_json(data) -> Matroid:
    from .polymatroids import Matroid

    return Matroid(_polymatroid_from_json(data))


def _domain_error(exc: Exception) -> int:
    sys.stdout.write(_canon({"error": "domain", "detail": str(exc)}) + "\n")
    return 1


def _emit(payload, pretty: bool) -> int:
    """Write one payload to stdout: CSV text as it is, anything else as canonical JSON.

    Both texts are built before either is written; the `--pretty` copy is the
    canonical text parsed back and indented.  A payload that cannot be
    written, an integer too long for `str`, is reported as a domain error
    instead, with both streams otherwise empty; the exit code is returned.
    """
    if isinstance(payload, str):
        text = copy = payload
    else:
        try:
            text = _canon(payload) + "\n"
            copy = json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" if pretty else ""
        except ValueError as exc:  # `str` and "%d" refuse ints over the digit limit
            return _domain_error(exc)
    sys.stdout.write(text)
    if pretty:
        sys.stderr.write(copy)
    return 0


# -- subcommand handlers ---------------------------------------------------------
#
# Each handler imports the compute modules it runs, refuses the flag combinations
# argparse cannot state before it reads any input, then returns its payload for
# `run` to emit.


def _cmd_match(args) -> dict:
    from .matchings import caps_from_json, find_witness, matched_degrees

    if args.caps is not None and args.beta is None:
        raise UsageError("--caps requires --beta")
    seq = _parse_seq(args.sets)
    alpha = _parse_list(args.alpha, "--alpha")
    caps = None
    if args.caps is not None:
        caps = _parse_with(lambda data: caps_from_json(seq, data), args.caps, "--caps")
    if args.beta is None:
        return {"matched": [list(beta) for beta in sorted(matched_degrees(seq, alpha))]}
    witness = find_witness(seq, alpha, _parse_list(args.beta, "--beta"), caps)
    return {
        "feasible": witness is not None,
        "witness": None if witness is None else witness.to_json(),
    }


def _cmd_induce(args) -> _PolyOut:
    from .matchings import compose_seq
    from .operators import apply_inducing
    from .polynomials import elementary_symmetric

    seq = _parse_seq(args.sets)
    if args.then is not None:
        seq = compose_seq(seq, _parse_seq(args.then, "--then"))
    if args.poly is not None:
        f = _parse_poly(args.poly)
    else:
        f = elementary_symmetric(seq.m, args.elementary)
    return _PolyOut(apply_inducing(seq, f), args.basis)


def _cmd_subst(args) -> _PolyOut:
    from .operators import apply_substitution

    seq = _parse_seq(args.sets)
    matrix = _parse_matrix(args.matrix)
    return _PolyOut(apply_substitution(seq, matrix, _parse_poly(args.poly)), args.basis)


def _cmd_ct(args) -> dict | str:
    from .matchstats import basis_match_count, match_count, stat_table

    if args.topic is not None and args.format == "csv":
        raise UsageError("--topic does not combine with --format csv")
    if args.topic is None and args.matroid is not None:
        raise UsageError("--matroid requires --topic")
    seq = _parse_seq(args.sets)
    if args.topic is not None:
        topic = _parse_list(args.topic, "--topic") if args.topic else ()
        if args.matroid is not None:
            mat = _parse_with(_matroid_from_json, args.matroid, "--matroid")
            count = basis_match_count(mat, seq, topic)
        else:
            count = match_count(seq, topic)
        return {"topic": sorted(topic), "count": count}
    table = stat_table(seq, args.r)
    if args.format == "csv":
        return table.to_csv()
    return {"r": table.r, "rows": table.to_json()}


def _cmd_fpoly(args) -> _PolyOut:
    from .matchstats import basis_match_poly, match_poly

    seq = _parse_seq(args.sets)
    if args.matroid is not None:
        mat = _parse_with(_matroid_from_json, args.matroid, "--matroid")
        return _PolyOut(basis_match_poly(mat, seq))
    return _PolyOut(match_poly(seq, args.r))


def _cmd_symbol(args) -> dict | _PolyOut:
    from .operators import inducing_box, power_box, substitution_box, symbol_of

    if args.matrix is not None and args.op != "substitution":
        raise UsageError("--matrix only applies to --op substitution")
    seq = _parse_seq(args.sets)
    kappa = _parse_list(args.kappa, "--kappa")
    if args.op == "substitution":
        box = substitution_box(seq, _parse_matrix(args.matrix), kappa)
    else:
        box = inducing_box(seq, kappa)
    if args.q is not None:
        box = power_box(box, _parse_number(args.q, "--q", json_rational))
    return box._json(_PolyOut) if args.table else _PolyOut(symbol_of(box))


def _cmd_certify(args) -> dict:
    from .lorentzian import certify_lorentzian, is_m_convex, quad_inertia

    f = _parse_poly(args.poly)
    if args.tolerance is not None:
        checked_tolerance(args.tolerance)
    if args.support_only:
        ok, pair = is_m_convex(f.support())
        return {"m_convex": ok, "witness": [list(pair[0]), list(pair[1])] if pair else None}
    if args.quadratic:
        return {"inertia": list(quad_inertia(f, args.tolerance).as_tuple())}
    return certify_lorentzian(f, args.tolerance).to_json()


def _cmd_pminduce(args) -> dict:
    from .polymatroids import LinReal, Matroid, _walk_base_points, base_egf, induce_matroid
    from .polymatroids import induce_polymatroid, linreal_induce, linreal_rank, matroid_bases
    from .polymatroids import support_polymatroid

    if args.bases and not args.matroid:
        raise UsageError("--bases requires --matroid")
    if args.support_of is not None:
        if args.sets is not None or args.points or args.egf or args.matroid:
            raise UsageError(
                "--support-of does not combine with --sets, --points, --egf, --matroid or --bases"
            )
        pm = support_polymatroid(_parse_poly(args.support_of, "--support-of"))
        return {"polymatroid": pm.to_json() if pm else None}
    payload: dict = {}
    if args.real is not None:
        real = _parse_with(LinReal.from_json, args.real, "--real")
        pm = linreal_rank(real)
    else:
        pm = _parse_with(_polymatroid_from_json, args.pm, "--pm")
    mat = None
    if args.sets is not None:
        seq = _parse_seq(args.sets)
        if args.real is not None:
            payload["realization"] = linreal_induce(real, seq).to_json()
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
        payload["base_points"] = [list(p) for p in _walk_base_points(pm)]
    if args.egf:
        payload["egf"] = _PolyOut(base_egf(pm))
    return payload


def _cmd_hallrado(args) -> dict:
    from .polymatroids import LinReal, hall_rado_member, linreal_rank

    if args.real is not None:
        pm = linreal_rank(_parse_with(LinReal.from_json, args.real, "--real"))
    else:
        pm = _parse_with(_polymatroid_from_json, args.pm, "--pm")
    seq = _parse_seq(args.sets)
    return {"member": hall_rado_member(pm, seq, _parse_list(args.delta, "--delta"))}


def _cmd_tab_family(args) -> dict:
    from .operators import augment_with_singletons, symbol_of, tab_family_box

    seq = _parse_seq(args.sets)
    kappa = _parse_list(args.kappa, "--kappa")
    a = _parse_list(args.a, "--a", json_rational)
    # the one list flag that can be empty: a sequence with no memberships
    # has no singletons to weigh
    b = _parse_list(args.b, "--b", json_rational) if args.b.strip() else ()
    box = tab_family_box(seq, a, b, kappa)
    payload = {"augmented_sets": augment_with_singletons(seq).to_json()}
    if args.symbol:
        payload["symbol"] = _PolyOut(symbol_of(box))
    else:
        payload["box"] = box._json(_PolyOut)
    return payload


def _env(name: str, convert):
    """The environment variable read by `_read_text`, or None if unset."""
    value = os.environ.get(name)
    if value is None:
        return None
    payload = {"error": "invalid-environment", "variable": name}
    return _read_text(value, convert, lambda exc: DomainError({**payload, "detail": str(exc)}))


def _cmd_verify(args) -> int:
    """Writes its own lines, one per check and a summary; returns the exit code."""
    from .verification import CHECKS, TrialConfig, replay, run_all, run_check

    if args.replay is not None and args.check is None:
        raise UsageError("--replay requires --check")
    if args.list_checks:
        _emit({"checks": list(CHECKS)}, args.pretty)
        return 0
    seed = args.seed if args.seed is not None else _env(SEED_ENV, int_text)
    tolerance = args.tolerance if args.tolerance is not None else _env(TOLERANCE_ENV, float_text)
    given = {"seed": seed, "trials": args.trials, "tolerance": tolerance}
    try:
        # a value given nowhere takes TrialConfig's own default; the trial
        # count of each check to run is read off before any trial
        cfg = TrialConfig(**{key: value for key, value in given.items() if value is not None})
        if args.replay is None:
            for name in [args.check] if args.check is not None else CHECKS:
                if name in CHECKS:
                    CHECKS[name].trial_count(cfg)
    except ValueError as exc:
        raise DomainError({"error": "invalid-config", "detail": str(exc)}) from exc
    if args.check is not None and args.check not in CHECKS:
        raise DomainError(
            {"error": "unknown-check", "detail": _cut(args.check), "known": list(CHECKS)}
        )
    if args.replay is not None:
        reasons = _parse_with(
            lambda instance: replay(args.check, instance, cfg), args.replay, "--replay"
        )
        _emit({"check": args.check, "passed": not reasons, "reasons": reasons}, args.pretty)
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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose refusals raise UsageError, so `run` reports them."""

    def error(self, message):
        # argparse shows a refused choice, an unrecognized argument or an
        # ambiguous option as typed; its own messages are under 200 characters
        if len(message) > 200 or not message.isprintable():
            message = _cut(" ".join(message.split()))
        raise UsageError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after."""
    parser = _Parser(
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
    p.add_argument("--caps", help="edge caps JSON {\"i-j\": cap} or @file (requires --beta)")
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("induce", parents=[common], help="apply the inducing operator")
    p.add_argument("--sets", required=True)
    one = p.add_mutually_exclusive_group(required=True)
    one.add_argument("--poly", help="input polynomial JSON or @file")
    one.add_argument("--elementary", type=_INT_FLAG, help="use the elementary symmetric polynomial of this degree")
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
    one = p.add_mutually_exclusive_group(required=True)
    one.add_argument("--r", type=_INT_FLAG, help="tabulate all topics of this size")
    one.add_argument("--topic", help="comma-separated part indices; empty string for the empty topic")
    p.add_argument("--matroid", help="restrict counted sets to bases of this matroid (with --topic)")
    p.add_argument("--format", choices=("json", "csv"), default="json", help="csv only with --r")
    p.set_defaults(func=_cmd_ct)

    p = sub.add_parser("fpoly", parents=[common], help="matching-count generating polynomials")
    p.add_argument("--sets", required=True)
    one = p.add_mutually_exclusive_group(required=True)
    one.add_argument("--r", type=_INT_FLAG)
    one.add_argument("--matroid", help="basis-restricted variant for this matroid")
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
    p.add_argument("--tolerance", type=_FLOAT_FLAG,
                   help="treat magnitudes at or below this as zero")
    one = p.add_mutually_exclusive_group()
    one.add_argument("--quadratic", action="store_true", help="report the Hessian inertia only")
    one.add_argument("--support-only", action="store_true", dest="support_only",
                     help="report the exchange-property check only")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("pminduce", parents=[common], help="polymatroid construction and induction")
    one = p.add_mutually_exclusive_group(required=True)
    one.add_argument("--pm", help="rank table JSON, or {\"free\": [N, r]}, {\"uniform\": [m, r]}, {\"sum\": [...]}")
    one.add_argument("--real", help="rational linear realization JSON")
    one.add_argument("--support-of", dest="support_of", help="recover the polymatroid from a polynomial's support")
    p.add_argument("--sets", help="induce along this subset sequence")
    p.add_argument("--matroid", action="store_true",
                   help="with --sets, the matroid the induced rank function induces; "
                   "without, check that the table is a matroid")
    p.add_argument("--bases", action="store_true", help="list matroid bases (with --matroid)")
    p.add_argument("--points", action="store_true", help="list base points")
    p.add_argument("--egf", action="store_true", help="emit the base-point generating polynomial")
    p.set_defaults(func=_cmd_pminduce)

    p = sub.add_parser("hallrado", parents=[common], help="base-point membership for induced polymatroids")
    one = p.add_mutually_exclusive_group(required=True)
    one.add_argument("--pm")
    one.add_argument("--real")
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
    p.add_argument("--seed", type=_INT_FLAG, help=f"default {DEFAULT_SEED}, or ${SEED_ENV}")
    p.add_argument("--trials", type=_INT_FLAG, help=f"base trial count, default {DEFAULT_TRIALS}")
    p.add_argument("--tolerance", type=_FLOAT_FLAG,
                   help=f"default {DEFAULT_TOLERANCE}, or ${TOLERANCE_ENV}")
    p.add_argument("--check", help="run a single named check")
    p.add_argument("--list", action="store_true", dest="list_checks", help="list check names")
    p.add_argument("--replay", help="re-evaluate a recorded failing instance (requires --check)")
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse one command line, run its handler and emit what it returns.

    Running out of memory anywhere in that is one constant error object on
    stdout and exit 1, with nothing on stderr.
    """
    try:
        return _run(argv)
    except MemoryError:
        sys.stdout.write('{"error":"out-of-memory"}\n')
        return 1


def _run(argv: Sequence[str] | None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        out = args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
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
        return _domain_error(exc)
    if isinstance(out, int):  # verify wrote its own lines and chose its exit code
        return out
    return _emit(out, args.pretty)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
