"""Command-line interface.

Subcommands mirror the library: the surface constructors, the exact
verifier, conjugation, the Fock catenoid residual check, and a one-shot
expression evaluator.  Exit codes: 0 success / verification passed,
1 verification failure, or a Fock residual or tail bound not below the
tolerance, 2 parse or input error, 3 non-integrable Weierstrass data,
4 non-polynomial primitive (out of the supported scope).  Each handler
imports the layers it runs, so importing this module loads none of them.
``COMMANDS`` holds every option once.  A command line that names a command
exactly and gives each option at most once, as ``--flag value`` (a value
not led by "-", or "-" itself) or ``--flag=value``, is read from it without
argparse; any other, help and usage errors included, goes to argparse,
loaded only then, so its text and exit codes stay argparse's.

``main`` returns the exit code to in-process callers.  ``run``, the entry
point of ``python -m weylmin`` and of the ``weylmin`` script, ends the
process once ``main`` has returned a code: it runs the ``atexit``
callbacks, flushes stdout and stderr and exits with that code, without
tearing the interpreter down (freeing every module and a last collection
cost more than a small command's algebra).  A failed flush is reported as
the interpreter reports it, "Exception ignored in: <stdout>" and exit 120.
Under ``-i``, with another thread alive, or when ``main`` raises
(argparse's own exits included), the interpreter exits as usual.
"""

from __future__ import annotations

import atexit
import math
import os
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import argparse

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
EXPR_OPTIONS = {"--expr", *(flag for _, inputs, _, _ in SURFACE_COMMANDS.values()
                            for flag, reader, _ in inputs if reader != "int")}


def _join_expr_values(argv: Sequence[str]) -> list[str]:
    """Write ``--expr -L`` as ``--expr=-L``, which argparse reads as a value.

    A following token that starts with "--" is left alone: it is taken for
    the next option, as argparse would.
    """
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in EXPR_OPTIONS and tok.startswith("-") and not tok.startswith("--"):
            out[-1] += f"={tok}"
        else:
            out.append(tok)
    return out


def _out(what: str = "") -> tuple:
    return ("--out", None, None, None, False, f"{what}output file (default stdout)")


def _fmt(default: str) -> tuple:
    return ("--fmt", None, default, ("text", "latex", "json"), False, f"output format (default {default})")


_IN = ("--in", None, None, None, True, "surface JSON file, or - for stdin")

# Each command path: its help, its handler (None for a command that has
# subcommands, whose paths follow it) and its options, each as (flag, type,
# default, choices, required, help).  build_parser and _parse_fast read it.
COMMANDS = {
    ("surface",): ("build surfaces from Weierstrass data", None, ()),
    **{("surface", name): (text, _cmd_surface, (
        *((flag, int, 1, None, False, h) if reader == "int" else (flag, None, None, None, True, h)
          for flag, reader, h in inputs),
        ("--offsets", None, None, None, False, _OFFSETS_HELP[n_offsets]), _fmt("json"), _out()))
       for name, (text, inputs, n_offsets, _) in SURFACE_COMMANDS.items()},
    ("verify",): ("run the exact minimality checks", _cmd_verify, (_IN, _out("report "))),
    ("conjugate",): ("conjugate surface from recorded primitives", _cmd_conjugate,
                     (_IN, _fmt("json"), _out())),
    ("fock",): ("truncated Fock-space checks", None, ()),
    ("fock", "catenoid"): ("catenoid residual report", _cmd_fock_catenoid, (
        ("--hbar", float, 1.0, None, False, "hbar value (default 1)"),
        ("--dim", int, None, None, True, "truncation dimension"),
        ("--safe-rows", int, None, None, False, "safe window (default dim//3)"),
        ("--tol", float, 1e-8, None, False, "residual tolerance (default 1e-8)"),
        _out("report "))),
    ("eval",): ("evaluate an algebra expression", _cmd_eval, (
        ("--expr", None, None, None, True, "expression (mode weyl)"),
        ("--op", None, None, tuple(EVAL_OPS), False, "optional operation to apply"),
        _fmt("text"), _out())),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of every command, for help and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="weylmin", description="Exact noncommutative minimal-surface calculator.")
    subs = {(): parser.add_subparsers(dest="command", required=True)}
    for path, (text, func, options) in COMMANDS.items():
        p = subs[path[:-1]].add_parser(path[-1], help=text)
        for flag, *spec in options:
            p.add_argument(flag, **dict(zip(("type", "default", "choices", "required", "help"), spec)))
        if func:
            p.set_defaults(func=func)
        else:
            subs[path] = p.add_subparsers(dest=f"{path[0]}_command", required=True)
    return parser


def _parse_fast(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """argparse's namespace for a command line that names a command exactly
    and gives each of its options at most once, as ``--flag value`` or
    ``--flag=value``, with a valid value that starts with no "-" unless it is
    "-" or follows "="; None for any other, help and errors included."""
    path = next((p for p, (_, f, _) in COMMANDS.items() if f and tuple(argv[:len(p)]) == p), ())
    _, func, options = COMMANDS.get(path, ("", None, ()))
    specs = {flag: spec for flag, *spec in options}
    found = {}
    rest = iter(argv[len(path):])
    for token in rest:
        flag, eq, value = token.partition("=")
        value = value if eq else next(rest, "")
        if (flag not in specs or flag in found or not value
                or not eq and value.startswith("-") and value != "-"):
            return None
        typ, _, choices, _, _ = specs[flag]
        try:
            found[flag] = value = typ(value) if typ else value
        except ValueError:
            return None
        if choices and value not in choices:
            return None
    if not func or any(required and flag not in found for flag, _, _, _, required, _ in options):
        return None
    return SimpleNamespace(**dict(zip(("command", f"{path[0]}_command"), path)), func=func, **{
        flag[2:].replace("-", "_"): found.get(flag, default) for flag, _, default, *_ in options})


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
    args = _parse_fast(argv) or build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        prefix, code = next((route for module, name, *route in _ERRORS
                             if isinstance(exc, getattr(sys.modules.get(module), name, ()))),
                            ("error", EXIT_PARSE))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


def run() -> None:
    """Run ``main`` on the command line and end the process with its code
    (see the module docstring)."""
    code = main()
    threading = sys.modules.get("threading")
    if sys.flags.inspect or threading and threading.active_count() > 1:
        raise SystemExit(code)
    atexit._run_exitfuncs()
    os._exit(_flush_std_files() or code)


def _flush_std_files() -> int:
    """Flush stdout, then stderr, as the interpreter's exit does: 120, its
    exit code for a failed flush, if one failed, else 0.

    A failed flush of stdout is reported here as that exit reports it.  It
    may have dropped the data, so the interpreter's own flush could then
    succeed, and an exit left to it would hide the lost output."""
    failed = 0
    for stream in (sys.stdout, sys.stderr):
        if stream is None or getattr(stream, "closed", False):
            continue
        try:
            stream.flush()
        except Exception as exc:
            failed = 120
            if stream is sys.stdout:
                import traceback

                sys.stderr.write("".join([f"Exception ignored in: {stream!r}\n",
                                          *traceback.format_exception_only(type(exc), exc)]))
    return failed


if __name__ == "__main__":
    run()
