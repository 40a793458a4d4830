"""Command-line interface.

Subcommands mirror the library: the surface constructors, the exact
verifier, conjugation, the Fock catenoid residual check, and a one-shot
expression evaluator.  Exit codes: 0 success / verification passed,
1 verification failure, or a Fock residual or tail bound not below the
tolerance, 2 parse or input error, 3 non-integrable Weierstrass data,
4 non-polynomial primitive (out of the supported scope).  Each handler
imports the layers it runs, so importing this module loads none of them.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .holomorphic import PolyLambda
    from .surfaces import Surface

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_INTEGRABILITY = 3
EXIT_SCOPE = 4


def _digit_limit(exc: ValueError, kind: str) -> Optional[str]:
    """Words naming the limit if ``exc`` is Python refusing to turn an int of
    more digits than its limit (4300 by default) into text or back; its own
    message advises a call that a CLI user cannot make."""
    if "integer string conversion" in str(exc):
        return f"an integer longer than the {sys.get_int_max_str_digits()}-digit {kind} limit"


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
            why = _digit_limit(exc, "input") or exc
            raise ValueError(f"bad offset value: {why}") from exc
    return out


def _parse_poly_arg(expr: str) -> PolyLambda:
    from .parse import ParseError, parse_rat

    value = parse_rat(expr)
    if not value.is_polynomial():
        raise ParseError("expected a polynomial in L", 0)
    return value.as_poly()


def _emit(write: Callable[..., str], value: object, out: Optional[str]) -> None:
    """Write ``write(value)``, the command's output, to ``out`` (stdout by default)."""
    try:
        text = write(value)
    except ValueError as exc:
        if not (why := _digit_limit(exc, "output")):
            raise
        raise ValueError(f"the result has {why}") from None
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_surface(s: Surface, fmt: str, out: Optional[str]) -> None:
    if fmt == "json":
        from .serialize import dumps_canonical, surface_to_obj

        _emit(dumps_canonical, surface_to_obj(s), out)
    else:
        from . import render

        _emit(render.surface_latex if fmt == "latex" else render.surface_text, s, out)


def _read_surface(path: str) -> Surface:
    import json

    from .serialize import DeserializeError, surface_from_obj

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
        if not (why := _digit_limit(exc, "input")):
            raise
        raise DeserializeError(f"invalid JSON: {why}") from None
    return surface_from_obj(obj)


# -- subcommand handlers -----------------------------------------------------


# Each surface subcommand: its help, its inputs as (flag, reader, help), its
# number of offsets and its constructor's name in weylmin.surfaces.  A reader
# is "rat" (a parse_rat expression), "poly" (one that must be a polynomial)
# or "int" (a whole number, default 1).  Readers and constructors are looked
# up in their modules when a command runs, so a name rebound there later
# (bench/tracer.py wraps parse_rat and the constructors) is the one called.
SURFACE_COMMANDS = {
    "from-fg": ("integrate the (f, g) representation",
                (("--f", "rat", "expression for f (mode rat)"),
                 ("--g", "rat", "expression for g (mode rat)")),
                3, "surface_from_fg"),
    "from-F": ("Gauss-map-L family from a single F",
               (("--F", "rat", "expression for F (mode rat)"),),
               3, "surface_from_F"),
    "from-Ftilde": ("integrated-by-parts polynomial form",
                    (("--Ft", "poly", "polynomial expression (mode rat)"),),
                    3, "surface_from_Ftilde"),
    "pair": ("four-component surface from two polynomials",
             (("--f", "poly", "first polynomial (mode rat)"),
              ("--g", "poly", "second polynomial (mode rat)")),
             4, "surface_from_pair"),
    "enneper": ("higher-order Enneper: f = 2, g = L^n",
                (("--n", "int", "order (default 1)"),),
                3, "enneper"),
}
_OFFSETS_HELP = {3: "three offsets a,b,c", 4: "four offsets a,b,c,d"}


def _read_input(reader: str, value):
    """One input of a surface command, read by its reader."""
    if reader == "int":
        return value
    from . import parse

    return _parse_poly_arg(value) if reader == "poly" else parse.parse_rat(value)


def _cmd_surface(args: argparse.Namespace) -> int:
    from . import surfaces

    _, inputs, _, constructor = SURFACE_COMMANDS[args.surface_command]
    values = [_read_input(reader, getattr(args, flag[2:])) for flag, reader, _ in inputs]
    s = getattr(surfaces, constructor)(*values, _parse_offsets(args.offsets))
    _emit_surface(s, args.fmt, args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from .serialize import dumps_canonical, report_to_obj
    from .surfaces import verify_minimal

    rep = verify_minimal(_read_surface(getattr(args, "in")))
    _emit(dumps_canonical, report_to_obj(rep), args.out)
    return EXIT_OK if rep.passes else EXIT_VERIFY


def _cmd_conjugate(args: argparse.Namespace) -> int:
    from .surfaces import conjugate_surface

    s = _read_surface(getattr(args, "in"))
    _emit_surface(conjugate_surface(s), args.fmt, args.out)
    return EXIT_OK


def _cmd_fock_catenoid(args: argparse.Namespace) -> int:
    from .fock import FockConfig, residual_report
    from .serialize import dumps_canonical, fock_report_to_obj

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


# The operations of ``eval --op``, in the order its help lists them: the
# WeylElement method each calls, with the weyl.Direction of a derivation.
EVAL_OPS = {
    "d": ("derive", "D"),
    "dbar": ("derive", "DBAR"),
    "u": ("derive", "U"),
    "v": ("derive", "V"),
    "lap": ("laplace",),
    "re": ("real_part",),
    "im": ("imag_part",),
    "star": ("star",),
}


def _cmd_eval(args: argparse.Namespace) -> int:
    from .parse import parse_weyl
    from .weyl import Direction

    elem = parse_weyl(args.expr)
    if args.op is not None:
        method, *direction = EVAL_OPS[args.op]
        elem = getattr(elem, method)(*(Direction[d] for d in direction))
    if args.fmt == "json":
        from .serialize import SCHEMA, dumps_canonical, weyl_to_obj

        doc = {"schema": SCHEMA, "kind": "element", "element": weyl_to_obj(elem)}
        _emit(dumps_canonical, doc, args.out)
    else:
        from . import render

        _emit(render.weyl_latex if args.fmt == "latex" else render.weyl_text, elem, args.out)
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


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """Every command with its help, so top-level help and errors never change,
    and the options of ``command`` alone, or of every command if it names none."""
    parser = argparse.ArgumentParser(
        prog="weylmin",
        description="Exact noncommutative minimal-surface calculator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    surface = sub.add_parser("surface", help="build surfaces from Weierstrass data")
    verify = sub.add_parser("verify", help="run the exact minimality checks")
    conjugate = sub.add_parser("conjugate", help="conjugate surface from recorded primitives")
    fock = sub.add_parser("fock", help="truncated Fock-space checks")
    evaluate = sub.add_parser("eval", help="evaluate an algebra expression")
    every = command not in sub.choices

    if every or command == "surface":
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

    if every or command == "verify":
        verify.add_argument("--in", required=True, help="surface JSON file, or - for stdin")
        verify.add_argument("--out", default=None, help="report output file (default stdout)")
        verify.set_defaults(func=_cmd_verify)

    if every or command == "conjugate":
        conjugate.add_argument("--in", required=True, help="surface JSON file, or - for stdin")
        _add_output_args(conjugate)
        conjugate.set_defaults(func=_cmd_conjugate)

    if every or command == "fock":
        fsub = fock.add_subparsers(dest="fock_command", required=True)
        p = fsub.add_parser("catenoid", help="catenoid residual report")
        p.add_argument("--hbar", type=float, default=1.0, help="hbar value (default 1)")
        p.add_argument("--dim", type=int, required=True, help="truncation dimension")
        p.add_argument("--safe-rows", type=int, default=None, help="safe window (default dim//3)")
        p.add_argument("--tol", type=float, default=1e-8, help="residual tolerance (default 1e-8)")
        p.add_argument("--out", default=None, help="report output file (default stdout)")
        p.set_defaults(func=_cmd_fock_catenoid)

    if every or command == "eval":
        evaluate.add_argument("--expr", required=True, help="expression (mode weyl)")
        evaluate.add_argument("--op", choices=tuple(EVAL_OPS), default=None,
                              help="optional operation to apply")
        _add_output_args(evaluate, default_fmt="text")
        evaluate.set_defaults(func=_cmd_eval)
    return parser


# The errors main reports, first match first: (home module, class, stderr
# prefix, exit code).  Only a loaded module's class can have been raised, so
# main looks each up in sys.modules and loads no layer to report an error.
_ERRORS = (
    ("weylmin.parse", "ParseError", "parse error", EXIT_PARSE),
    ("weylmin.holomorphic", "NotIntegrableError", "integrability error", EXIT_INTEGRABILITY),
    ("weylmin.surfaces", "NonPolynomialPrimitiveError", "scope error", EXIT_SCOPE),
    ("weylmin.serialize", "DeserializeError", "input error", EXIT_PARSE),
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = _join_expr_values(sys.argv[1:] if argv is None else argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        prefix, code = next((route for module, name, *route in _ERRORS
                             if isinstance(exc, getattr(sys.modules.get(module), name, ()))),
                            ("error", EXIT_PARSE))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
