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
from typing import Optional, Sequence

from .holomorphic import NotIntegrableError, PolyLambda
from .parse import ParseError, parse_rat, parse_weyl
from .render import surface_latex, surface_text, weyl_latex, weyl_text
from .serialize import (
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


def _parse_offsets(text: Optional[str], n: int) -> Optional[list[Fraction]]:
    if text is None:
        return None
    parts = text.split(",")
    if len(parts) != n:
        raise ValueError(f"expected {n} comma-separated offsets, got {len(parts)}")
    try:
        return [Fraction(p.strip()) for p in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad offset value: {exc}") from exc


def _parse_poly_arg(expr: str) -> PolyLambda:
    value = parse_rat(expr)
    if not value.is_polynomial():
        raise ParseError("expected a polynomial in L", 0)
    return value.as_poly()


def _emit(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_surface(s: Surface, fmt: str, out: Optional[str]) -> None:
    if fmt == "json":
        _emit(dumps_canonical(surface_to_obj(s)), out)
    elif fmt == "latex":
        _emit(surface_latex(s), out)
    else:
        _emit(surface_text(s), out)


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
    return surface_from_obj(obj)


# -- subcommand handlers -----------------------------------------------------


def _cmd_surface_from_fg(args: argparse.Namespace) -> int:
    s = surface_from_fg(
        parse_rat(args.f), parse_rat(args.g), _parse_offsets(args.offsets, 3)
    )
    _emit_surface(s, args.fmt, args.out)
    return EXIT_OK


def _cmd_surface_from_F(args: argparse.Namespace) -> int:
    s = surface_from_F(parse_rat(args.F), _parse_offsets(args.offsets, 3))
    _emit_surface(s, args.fmt, args.out)
    return EXIT_OK


def _cmd_surface_from_Ftilde(args: argparse.Namespace) -> int:
    s = surface_from_Ftilde(_parse_poly_arg(args.Ft), _parse_offsets(args.offsets, 3))
    _emit_surface(s, args.fmt, args.out)
    return EXIT_OK


def _cmd_surface_pair(args: argparse.Namespace) -> int:
    s = surface_from_pair(
        _parse_poly_arg(args.f), _parse_poly_arg(args.g), _parse_offsets(args.offsets, 4)
    )
    _emit_surface(s, args.fmt, args.out)
    return EXIT_OK


def _cmd_surface_enneper(args: argparse.Namespace) -> int:
    s = enneper(args.n, _parse_offsets(args.offsets, 3))
    _emit_surface(s, args.fmt, args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    s = _read_surface(getattr(args, "in"))
    rep = verify_minimal(s)
    _emit(dumps_canonical(report_to_obj(rep)), args.out)
    return EXIT_OK if rep.passes else EXIT_VERIFY


def _cmd_conjugate(args: argparse.Namespace) -> int:
    s = _read_surface(getattr(args, "in"))
    _emit_surface(conjugate_surface(s), args.fmt, args.out)
    return EXIT_OK


def _cmd_fock_catenoid(args: argparse.Namespace) -> int:
    from .fock import FockConfig, residual_report

    config = FockConfig(dim=args.dim, hbar=args.hbar, safe_rows=args.safe_rows)
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
    _emit(dumps_canonical(fock_report_to_obj(report)), args.out)
    worst = max(report["residuals"].values())
    return EXIT_OK if worst < args.tol and report["tail_bound"] < args.tol else EXIT_VERIFY


def _cmd_eval(args: argparse.Namespace) -> int:
    elem = parse_weyl(args.expr)
    op = args.op
    if op is None:
        pass
    elif op in ("d", "dbar", "u", "v"):
        elem = elem.derive(Direction(op))
    elif op == "lap":
        elem = elem.laplace()
    elif op == "re":
        elem = elem.real_part()
    elif op == "im":
        elem = elem.imag_part()
    elif op == "star":
        elem = elem.star()
    if args.fmt == "json":
        doc = {"schema": "weylmin/1", "kind": "element", "element": weyl_to_obj(elem)}
        _emit(dumps_canonical(doc), args.out)
    elif args.fmt == "latex":
        _emit(weyl_latex(elem), args.out)
    else:
        _emit(weyl_text(elem), args.out)
    return EXIT_OK


# -- parser ------------------------------------------------------------------

# Options whose value is an expression, which may start with "-" ("-L").
EXPR_OPTIONS = ("--expr", "--f", "--g", "--F", "--Ft")


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

    p = ssub.add_parser("from-fg", help="integrate the (f, g) representation")
    p.add_argument("--f", required=True, help="expression for f (mode rat)")
    p.add_argument("--g", required=True, help="expression for g (mode rat)")
    p.add_argument("--offsets", default=None, help="three offsets a,b,c")
    _add_output_args(p)
    p.set_defaults(func=_cmd_surface_from_fg)

    p = ssub.add_parser("from-F", help="Gauss-map-L family from a single F")
    p.add_argument("--F", required=True, help="expression for F (mode rat)")
    p.add_argument("--offsets", default=None, help="three offsets a,b,c")
    _add_output_args(p)
    p.set_defaults(func=_cmd_surface_from_F)

    p = ssub.add_parser("from-Ftilde", help="integrated-by-parts polynomial form")
    p.add_argument("--Ft", required=True, help="polynomial expression (mode rat)")
    p.add_argument("--offsets", default=None, help="three offsets a,b,c")
    _add_output_args(p)
    p.set_defaults(func=_cmd_surface_from_Ftilde)

    p = ssub.add_parser("pair", help="four-component surface from two polynomials")
    p.add_argument("--f", required=True, help="first polynomial (mode rat)")
    p.add_argument("--g", required=True, help="second polynomial (mode rat)")
    p.add_argument("--offsets", default=None, help="four offsets a,b,c,d")
    _add_output_args(p)
    p.set_defaults(func=_cmd_surface_pair)

    p = ssub.add_parser("enneper", help="higher-order Enneper: f = 2, g = L^n")
    p.add_argument("--n", type=int, default=1, help="order (default 1)")
    p.add_argument("--offsets", default=None, help="three offsets a,b,c")
    _add_output_args(p)
    p.set_defaults(func=_cmd_surface_enneper)

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
    p.add_argument(
        "--op",
        choices=("d", "dbar", "u", "v", "lap", "re", "im", "star"),
        default=None,
        help="optional operation to apply",
    )
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
