"""Command-line interface.

Subcommands mirror the library: the surface constructors, the exact
verifier, conjugation, the Fock catenoid residual check, and a one-shot
expression evaluator.  Exit codes: 0 success / verification passed,
1 verification failure, or a Fock residual or tail bound not below the
tolerance, 2 parse or input error, 3 non-integrable Weierstrass data,
4 non-polynomial primitive (out of the supported scope).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .holomorphic import NotIntegrableError, PolyLambda
from .parse import ParseError, parse_rat, parse_weyl
from .render import surface_latex, surface_text, weyl_latex, weyl_text
from .serialize import (
    SCHEMA,
    DeserializeError,
    dumps_canonical,
    fock_report_to_obj,
    report_to_obj,
    surface_from_obj,
    surface_to_obj,
    weyl_to_obj,
)
from .surfaces import (
    NonPolynomialPrimitiveError,
    Surface,
    conjugate_surface,
    enneper,
    surface_from_F,
    surface_from_Ftilde,
    surface_from_fg,
    surface_from_pair,
    verify_minimal,
)
from .weyl import Direction

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_INTEGRABILITY = 3
EXIT_SCOPE = 4


def _past_digit_limit(exc: ValueError) -> bool:
    """Whether ``exc`` is Python refusing to turn an int of more digits than
    its limit (4300 by default) into text or back; its message advises a
    call that a CLI user cannot make, so callers name the limit instead."""
    return "integer string conversion" in str(exc)


def _parse_offsets(text: Optional[str]) -> Optional[list[Fraction]]:
    """The comma-separated offsets; their count is the constructor's check."""
    if text is None:
        return None
    out = []
    for p in map(str.strip, text.split(",")):
        try:
            out.append(Fraction(p))
        except ZeroDivisionError:
            raise ValueError(f"bad offset value {p!r}: zero denominator") from None
        except ValueError as exc:
            why = (f"an integer longer than the {sys.get_int_max_str_digits()}-digit input limit"
                   if _past_digit_limit(exc) else exc)
            raise ValueError(f"bad offset value: {why}") from exc
    return out


def _parse_poly_arg(expr: str) -> PolyLambda:
    value = parse_rat(expr)
    if not value.is_polynomial():
        raise ParseError("expected a polynomial in L", 0)
    return value.as_poly()


def _emit(write: Callable[..., str], value: object, out: Optional[str]) -> None:
    """Write ``write(value)``, the command's output, to ``out`` (stdout by default)."""
    try:
        text = write(value)
    except ValueError as exc:
        if not _past_digit_limit(exc):
            raise
        raise ValueError(f"the result has an integer longer than the "
                         f"{sys.get_int_max_str_digits()}-digit output limit") from None
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_surface(s: Surface, fmt: str, out: Optional[str]) -> None:
    if fmt == "json":
        _emit(dumps_canonical, surface_to_obj(s), out)
    elif fmt == "latex":
        _emit(surface_latex, s, out)
    else:
        _emit(surface_text, s, out)


def _read_surface(path: str) -> Surface:
    if path == "-":
        raw = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise DeserializeError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DeserializeError("invalid JSON: nested too deeply") from exc
    except ValueError as exc:
        if not _past_digit_limit(exc):
            raise
        raise DeserializeError(f"invalid JSON: an integer longer than the "
                               f"{sys.get_int_max_str_digits()}-digit input limit") from None
    return surface_from_obj(obj)


# -- subcommand handlers -----------------------------------------------------


# Each surface subcommand: its help, its inputs as (flag, reader, help), its
# number of offsets and its constructor.  A reader is "rat" (a parse_rat
# expression), "poly" (one that must be a polynomial) or "int" (a whole
# number, default 1).  The lambdas look readers and constructors up when a
# command runs, so a module-level name rebound later (bench/tracer.py wraps
# parse_rat and the constructors that way) is the one called.
SURFACE_COMMANDS = {
    "from-fg": ("integrate the (f, g) representation",
                (("--f", "rat", "expression for f (mode rat)"),
                 ("--g", "rat", "expression for g (mode rat)")),
                3, lambda *a: surface_from_fg(*a)),
    "from-F": ("Gauss-map-L family from a single F",
               (("--F", "rat", "expression for F (mode rat)"),),
               3, lambda *a: surface_from_F(*a)),
    "from-Ftilde": ("integrated-by-parts polynomial form",
                    (("--Ft", "poly", "polynomial expression (mode rat)"),),
                    3, lambda *a: surface_from_Ftilde(*a)),
    "pair": ("four-component surface from two polynomials",
             (("--f", "poly", "first polynomial (mode rat)"),
              ("--g", "poly", "second polynomial (mode rat)")),
             4, lambda *a: surface_from_pair(*a)),
    "enneper": ("higher-order Enneper: f = 2, g = L^n",
                (("--n", "int", "order (default 1)"),),
                3, lambda *a: enneper(*a)),
}
_READERS = {
    "rat": lambda text: parse_rat(text),
    "poly": lambda text: _parse_poly_arg(text),
    "int": lambda n: n,
}
_OFFSETS_HELP = {3: "three offsets a,b,c", 4: "four offsets a,b,c,d"}


def _cmd_surface(args: argparse.Namespace) -> int:
    _, inputs, _, build = SURFACE_COMMANDS[args.surface_command]
    values = [_READERS[reader](getattr(args, flag[2:])) for flag, reader, _ in inputs]
    _emit_surface(build(*values, _parse_offsets(args.offsets)), args.fmt, args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    s = _read_surface(getattr(args, "in"))
    rep = verify_minimal(s)
    _emit(dumps_canonical, report_to_obj(rep), args.out)
    return EXIT_OK if rep.passes else EXIT_VERIFY


def _cmd_conjugate(args: argparse.Namespace) -> int:
    s = _read_surface(getattr(args, "in"))
    _emit_surface(conjugate_surface(s), args.fmt, args.out)
    return EXIT_OK


def _cmd_fock_catenoid(args: argparse.Namespace) -> int:
    from .fock import FockConfig, residual_report

    config = FockConfig(dim=args.dim, hbar=args.hbar, safe_rows=args.safe_rows)
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol must be positive and finite, got {args.tol}")
    try:
        report = residual_report(config)
        finite = math.isfinite(report["tail_bound"])
    except OverflowError:  # an exact residual too large for a float
        finite = False
    if not finite:
        raise ValueError(
            f"Fock matrices overflow at --hbar {args.hbar} --dim {args.dim}: "
            "a residual or the tail bound is too large for a float; use a smaller --hbar or --dim"
        )
    _emit(dumps_canonical, fock_report_to_obj(report), args.out)
    worst = max(report["residuals"].values())
    return EXIT_OK if worst < args.tol and report["tail_bound"] < args.tol else EXIT_VERIFY


# The operations of ``eval --op``, in the order its help lists them.
EVAL_OPS = {
    "d": lambda e: e.derive(Direction.D),
    "dbar": lambda e: e.derive(Direction.DBAR),
    "u": lambda e: e.derive(Direction.U),
    "v": lambda e: e.derive(Direction.V),
    "lap": lambda e: e.laplace(),
    "re": lambda e: e.real_part(),
    "im": lambda e: e.imag_part(),
    "star": lambda e: e.star(),
}


def _cmd_eval(args: argparse.Namespace) -> int:
    elem = parse_weyl(args.expr)
    if args.op is not None:
        elem = EVAL_OPS[args.op](elem)
    if args.fmt == "json":
        doc = {"schema": SCHEMA, "kind": "element", "element": weyl_to_obj(elem)}
        _emit(dumps_canonical, doc, args.out)
    elif args.fmt == "latex":
        _emit(weyl_latex, elem, args.out)
    else:
        _emit(weyl_text, elem, args.out)
    return EXIT_OK


# -- parser ------------------------------------------------------------------

# Options whose value is an expression, which may start with "-" ("-L").
EXPR_OPTIONS = ("--expr", *dict.fromkeys(
    flag for _, inputs, _, _ in SURFACE_COMMANDS.values()
    for flag, reader, _ in inputs if reader != "int"
))


def _join_expr_values(argv: Sequence[str]) -> list[str]:
    """Write ``--expr -L`` as ``--expr=-L``, which argparse reads as a value.

    A following token that starts with "--" is left alone: it is taken for
    the next option, as argparse would.
    """
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok in EXPR_OPTIONS and i + 1 < len(argv)
                and argv[i + 1].startswith("-") and not argv[i + 1].startswith("--")):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _add_output_args(p: argparse.ArgumentParser, default_fmt: str = "json") -> None:
    p.add_argument(
        "--fmt", choices=("text", "latex", "json"), default=default_fmt,
        help=f"output format (default {default_fmt})",
    )
    p.add_argument("--out", default=None, help="output file (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylmin",
        description="Exact noncommutative minimal-surface calculator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    surface = sub.add_parser("surface", help="build surfaces from Weierstrass data")
    ssub = surface.add_subparsers(dest="surface_command", required=True)

    for name, (text, inputs, n_offsets, _) in SURFACE_COMMANDS.items():
        p = ssub.add_parser(name, help=text)
        for flag, reader, help_text in inputs:
            if reader == "int":
                p.add_argument(flag, type=int, default=1, help=help_text)
            else:
                p.add_argument(flag, required=True, help=help_text)
        p.add_argument("--offsets", default=None, help=_OFFSETS_HELP[n_offsets])
        _add_output_args(p)
        p.set_defaults(func=_cmd_surface)

    p = sub.add_parser("verify", help="run the exact minimality checks")
    p.add_argument("--in", required=True, help="surface JSON file, or - for stdin")
    p.add_argument("--out", default=None, help="report output file (default stdout)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("conjugate", help="conjugate surface from recorded primitives")
    p.add_argument("--in", required=True, help="surface JSON file, or - for stdin")
    _add_output_args(p)
    p.set_defaults(func=_cmd_conjugate)

    fock = sub.add_parser("fock", help="truncated Fock-space checks")
    fsub = fock.add_subparsers(dest="fock_command", required=True)
    p = fsub.add_parser("catenoid", help="catenoid residual report")
    p.add_argument("--hbar", type=float, default=1.0, help="hbar value (default 1)")
    p.add_argument("--dim", type=int, required=True, help="truncation dimension")
    p.add_argument("--safe-rows", type=int, default=None, help="safe window (default dim//3)")
    p.add_argument("--tol", type=float, default=1e-8, help="residual tolerance (default 1e-8)")
    p.add_argument("--out", default=None, help="report output file (default stdout)")
    p.set_defaults(func=_cmd_fock_catenoid)

    p = sub.add_parser("eval", help="evaluate an algebra expression")
    p.add_argument("--expr", required=True, help="expression (mode weyl)")
    p.add_argument("--op", choices=tuple(EVAL_OPS), default=None, help="optional operation to apply")
    _add_output_args(p, default_fmt="text")
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_expr_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotIntegrableError as exc:
        print(f"integrability error: {exc}", file=sys.stderr)
        return EXIT_INTEGRABILITY
    except NonPolynomialPrimitiveError as exc:
        print(f"scope error: {exc}", file=sys.stderr)
        return EXIT_SCOPE
    except DeserializeError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
