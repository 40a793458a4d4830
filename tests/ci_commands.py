"""Command lines the CI workflow runs outside pytest, each with its exit code.

Run from the root of a checkout, with ``PYTHONPATH=src``:

    python tests/ci_commands.py exact     # in-process, numpy, dataclasses and argparse blocked
    python tests/ci_commands.py layers    # fresh interpreters, the layers a command must not load blocked

``exact`` runs every command of :func:`exact_commands` through ``main`` with
``numpy``, ``dataclasses`` and ``argparse`` set to None in ``sys.modules``,
so a well-formed command that loads any of them fails, and checks its exit
code; then the from-fg cases of ``FROM_FG`` (exit code and the start of
stderr) and the verifier's reports of the two broken goldens, byte for
byte.  ``layers`` runs each command of ``LAYERS`` in a fresh interpreter
twice, as is and with the listed ``weylmin`` submodules blocked, and
requires the same exit code, stdout and stderr.  Either exits non-zero with
a message on the first failure.  Only the standard library is needed.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import tempfile

DIGITS = "10^5000*L/3"  # refused by the digit limit, which stderr must name
LONG = "(3-4*i)/6*L*Ls^2 + h^3*(1/2-i/3)*Ls - i/5*h"


def exact_commands(pair: str) -> tuple:
    """(argv, exit code) pairs; ``pair`` is the file the pair surface is written to."""
    return (
        (["surface", "from-fg", "--f", "2", "--g", "L"], 0),
        (["surface", "from-F", "--F", "1+L^3"], 0),
        (["surface", "from-Ftilde", "--Ft", "L^3", "--fmt", "text"], 0),
        (["surface", "pair", "--f", "-L", "--g", "L^2"], 0),
        (["surface", "enneper", "--n", "2", "--fmt", "latex"], 0),
        (["eval", "--expr", "(U+i*V)^3", "--fmt", "latex"], 0),
        (["eval", "--expr", "(L+Ls)^3 - h", "--fmt", "json"], 0),
        (["eval", "--expr", "(3+4*i)/(1-2*i)*L", "--fmt", "json"], 0),
        (["eval", "--expr", LONG, "--fmt", "text"], 0),
        (["eval", "--expr", LONG, "--fmt", "latex"], 0),
        (["eval", "--expr", LONG, "--fmt", "json"], 0),
        (["eval", "--expr", "(L+Ls+h)^3", "--op", "u", "--fmt", "json"], 0),
        (["eval", "--expr", "(L+Ls+h)^3", "--op", "v", "--fmt", "json"], 0),
        (["eval", "--expr", "(L+Ls+h)^3", "--op", "lap", "--fmt", "json"], 0),
        (["surface", "from-fg", "--f", "1/(1+i)", "--g", "L"], 0),
        (["eval", "--expr", "L^\u00b2"], 2),
        (["eval", "--expr", "10^5000", "--fmt", "json"], 2),
        (["eval", "--expr", DIGITS, "--fmt", "text"], 2),
        (["eval", "--expr", DIGITS, "--fmt", "latex"], 2),
        (["eval", "--expr", "L^1000000000", "--fmt", "latex"], 2),
        (["verify", "--in", "tests/goldens/quartic.json"], 0),
        (["conjugate", "--in", "tests/goldens/enneper2.json"], 0),
        (["surface", "pair", "--f", "i + h*L", "--g", "3/2*i*h + L^2", "--out", pair], 0),
        (["verify", "--in", pair], 0),
        (["conjugate", "--in", pair], 0),
        (["surface", "from-fg", "--f", "h*(L-1-h)^2", "--g", "(L+2)/(L-1-h)"], 0),
        (["surface", "from-F", "--F", "1/(L-h)"], 3),
        (["surface", "from-F", "--F", "1/(h*L - 1)"], 3),
        (["surface", "from-fg", "--f", "(L-h)^2", "--g", "1/(L-h)"], 0),
        (["surface", "from-F", "--F", "1/L^2"], 4),
        (["surface", "from-F", "--F", "L/(1+h)"], 4),
        (["surface", "from-fg", "--f", "(L+h)^2", "--g", "L/(1+h)"], 4),
        (["fock", "catenoid", "--dim", "64", "--hbar", "1.0", "--safe-rows", "20"], 0),
        (["fock", "catenoid", "--dim", "64", "--hbar", "2.0"], 1),
        (["fock", "catenoid", "--dim", "4", "--hbar", "0.5", "--safe-rows", "1"], 1),
        (["fock", "catenoid", "--dim", "4", "--hbar", "0.5", "--safe-rows", "2"], 1),
        (["fock", "catenoid", "--dim", "1024", "--hbar", "1e-300", "--safe-rows", "1023"], 1),
        # the tail's terms overflow a float past the cut
        (["fock", "catenoid", "--dim", "200", "--hbar", "700", "--safe-rows", "198"], 2),
    )


# (f, g, exit code, start of stderr) of surface from-fg
FROM_FG = (
    ("(3+2*i)*h*(L-3-2*h)^4", "((3+2*i) + (3+i)*L)/(L-3-2*h)^2", 0, ""),
    ("(-1+i) + (3-2*i)/(L-3+2*h) + (1+i)/(L-3+2*h)^2", "-3+i", 3, "integrability error:"),
    ("1 + (1-i)/(L-3+h)^2 + (-2+i)/(L-3+h)^3", "2-i", 4, "scope error:"),
)

# (argv, the weylmin submodules it must run without)
LAYERS = (
    (["eval", "--expr", "(L+Ls+h)^3", "--op", "u", "--fmt", "json"],
     ["classical", "fock", "holomorphic", "render", "surfaces"]),
    (["eval", "--expr", "(U+i*V)^3", "--op", "lap"],
     ["classical", "fock", "holomorphic", "serialize", "surfaces"]),
    (["verify", "--in", "tests/goldens/quartic.json"],
     ["classical", "fock", "parse", "render"]),
    (["fock", "catenoid", "--dim", "64", "--hbar", "1.0", "--safe-rows", "20"],
     ["classical", "holomorphic", "parse", "render", "scalars", "surfaces", "weyl"]),
)


def exact() -> None:
    for name in ("numpy", "dataclasses", "argparse"):
        sys.modules[name] = None
    from weylmin.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        for argv, code in exact_commands(os.path.join(tmp, "pair.json")):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                got = main(argv)
            if got != code or argv[2] == DIGITS and "digit output limit" not in err.getvalue():
                sys.exit(f"{argv}: exit {got}, stderr {err.getvalue()}")
    for f, g, code, prefix in FROM_FG:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            got = main(["surface", "from-fg", "--f", f, "--g", g])
        if got != code or not err.getvalue().startswith(prefix):
            sys.exit(f"from-fg --f {f} --g {g}: exit {got}, stderr {err.getvalue()}")
    for name in ("enneper_broken", "enneper_unconformal"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            got = main(["verify", "--in", f"tests/goldens/{name}.json"])
        with open(f"tests/goldens/{name}_report.json", "rb") as fh:
            want = fh.read()
        if got != 1 or out.getvalue().encode("utf-8") != want:
            sys.exit(f"verify {name}.json: exit {got}, stdout differs from {name}_report.json")


def layers() -> None:
    code = ("import sys\nfor m in {!r}: sys.modules['weylmin.' + m] = None\n"
            "from weylmin.cli import main\nraise SystemExit(main({!r}))")
    for argv, blocked in LAYERS:
        free, held = (subprocess.run([sys.executable, "-c", code.format(names, argv)],
                                     capture_output=True, text=True) for names in ([], blocked))
        if (held.returncode, held.stdout, held.stderr) != (free.returncode, free.stdout, free.stderr):
            sys.exit(f"{argv} with {blocked} blocked: exit {held.returncode}, stderr {held.stderr}")


if __name__ == "__main__":
    if sys.argv[1:] not in (["exact"], ["layers"]):
        sys.exit("usage: python tests/ci_commands.py exact|layers")
    {"exact": exact, "layers": layers}[sys.argv[1]]()
