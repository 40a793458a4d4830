"""What importing the package costs, and the public names it keeps.

numpy loads only for the Fock matrices (``catenoid``, ``exp_lambda``):
the package, every exact command and ``fock catenoid`` run without it.
No command loads ``dataclasses``, ``inspect`` or the classical layer;
every public name resolves on first use to its submodule's object; and
the value types stay immutable records with the equality, hashes and
reprs they had as frozen dataclasses.
"""

import copy
import importlib
import os
import pathlib
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import weylmin

SRC = str(pathlib.Path(weylmin.__file__).resolve().parent.parent)  # the copy under test
GOLDENS = pathlib.Path(__file__).parent / "goldens"


def _python(code: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_import_leaves_numpy_unloaded():
    proc = _python(
        "import sys, weylmin, weylmin.cli\n"
        "print(sorted(m for m in sys.modules if m == 'numpy' or m == 'weylmin.fock'))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_exact_command_runs_without_numpy():
    proc = _python(
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from weylmin.cli import main\n"
        "raise SystemExit(main(['surface', 'from-Ftilde', '--Ft', 'L^3']))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDENS / "enneper.json").read_text()


def test_fock_report_runs_without_numpy():
    proc = _python(
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import weylmin.fock\n"
        "from weylmin import cli\n"
        "raise SystemExit(cli.main(['fock', 'catenoid', '--dim', '64', '--hbar', '1.0',"
        " '--safe-rows', '20']))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert '"kind": "fock-residuals"' in proc.stdout


@pytest.mark.parametrize("argv", [
    ["eval", "--expr", "L"], ["surface", "enneper", "--fmt", "text"],
    ["eval", "--expr", "L", "--fmt", "json"], ["surface", "from-Ftilde", "--Ft", "L^3"],
    ["fock", "catenoid", "--dim", "64", "--hbar", "1.0", "--safe-rows", "20"],
])
def test_text_commands_run_without_json(argv):
    code = "import sys\n{}from weylmin.cli import main\nraise SystemExit(main({!r}))\n"
    free, held = (_python(code.format(block, argv)) for block in ("", "sys.modules['json'] = None\n"))
    assert free.returncode == 0 and free.stdout, free.stderr
    assert (held.returncode, held.stdout) == (free.returncode, free.stdout), held.stderr


def test_fock_command_leaves_numpy_unloaded():
    proc = _python(
        "import contextlib, io, sys\n"
        "from weylmin.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['fock', 'catenoid', '--dim', '64', '--hbar', '2.0'])\n"
        "print(code, 'numpy' in sys.modules, 'weylmin.fock' in sys.modules)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "False", "True"]


def test_fock_matrices_load_numpy():
    proc = _python(
        "import sys\n"
        "from weylmin.fock import FockConfig, catenoid, exp_lambda\n"
        "assert 'numpy' not in sys.modules\n"
        "m = exp_lambda(FockConfig(dim=6))\n"
        "loaded = 'numpy' in sys.modules\n"
        "import numpy as np\n"
        "x1, x2, x3 = catenoid(FockConfig(dim=6), np.clongdouble)\n"
        "print(loaded, type(m) is np.ndarray, m.dtype == np.complex128, m.shape == (6, 6),"
        " x3.dtype == np.clongdouble)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"] * 5


@pytest.mark.parametrize("name", ["catenoid", "exp_lambda"])
def test_fock_matrices_without_numpy_name_the_extra(monkeypatch, name):
    from weylmin import fock

    monkeypatch.setitem(sys.modules, "numpy", None)
    with pytest.raises(ImportError, match=r"weylmin\[fock\]"):
        getattr(fock, name)(fock.FockConfig(dim=6))


def test_fock_names_resolve_on_use():
    from weylmin.fock import FockConfig, catenoid, residual_report

    assert weylmin.FockConfig is FockConfig
    assert weylmin.catenoid is catenoid and weylmin.residual_report is residual_report
    namespace: dict = {}
    exec("from weylmin import *", namespace)
    assert set(weylmin.__all__) <= set(namespace)
    assert namespace["FockConfig"] is FockConfig


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        weylmin.no_such_name


_SURFACE = "cli holomorphic records scalars surfaces weyl"
_BUILD = f"{_SURFACE} parse"

# Each command, by its argv: the exact set of weylmin submodules it may
# load, its exit code and the start of its stderr.  Written out here, not
# read from the CLI's own tables, so a command that starts loading a layer
# it does not run fails.
COMMAND_LOADS = {
    ("eval", "--expr", "(L+Ls)^3 - h", "--fmt", "json"): ("cli parse records scalars serialize weyl", 0, ""),
    ("surface", "from-Ftilde", "--Ft", "L^3"): (f"{_BUILD} serialize", 0, ""),
    ("verify", "--in", str(GOLDENS / "quartic.json")): (f"{_SURFACE} serialize", 0, ""),
    ("conjugate", "--in", str(GOLDENS / "enneper.json"), "--fmt", "latex"):
        (f"{_SURFACE} render serialize", 0, ""),
    ("fock", "catenoid", "--dim", "64", "--hbar", "1.0", "--safe-rows", "20"):
        ("cli fock records serialize", 0, ""),
    ("eval", "--expr", "(L+Ls)^3 - h", "--fmt", "text"): ("cli parse records render scalars weyl", 0, ""),
    ("eval", "--expr", "(L+Ls)^3 - h", "--fmt", "latex"): ("cli parse records render scalars weyl", 0, ""),
    **{("surface", *argv, "--fmt", fmt): (f"{modules} {writer}", 0, "")
       for argv, modules in ((("from-fg", "--f", "2", "--g", "L"), _BUILD),
                             (("from-F", "--F", "1+L^3"), _BUILD),
                             (("from-Ftilde", "--Ft", "L^3"), _BUILD),
                             (("pair", "--f", "L", "--g", "L^2"), _BUILD),
                             (("enneper", "--n", "2"), _SURFACE))
       for fmt, writer in (("json", "serialize"), ("text", "render"))},
    ("conjugate", "--in", str(GOLDENS / "enneper.json"), "--fmt", "text"):
        (f"{_SURFACE} render serialize", 0, ""),
    ("--help",): ("cli", 0, ""),
    ("eval", "--expr", "L/"): ("cli parse records scalars weyl", 2, "parse error: "),
    ("verify", "--in", "missing.json"): (f"{_SURFACE} serialize", 2, "error: "),
}


@pytest.mark.parametrize("argv", [list(argv) for argv in COMMAND_LOADS])
def test_commands_leave_heavy_modules_unloaded(argv):
    modules, code, prefix = COMMAND_LOADS[tuple(argv)]
    proc = _python(
        "import atexit, runpy, sys\n"
        f"sys.argv = ['weylmin', *{argv!r}]\n"
        "@atexit.register\n"  # the CLI's exit runs atexit callbacks, not the caller's finally
        "def report():\n"
        "    sys.stderr.write('\\n' + repr([m for m in ('dataclasses', 'inspect', 'weylmin.classical')"
        " if m in sys.modules]))\n"
        "    sys.stderr.write('\\n' + ' '.join(sorted(m[len('weylmin.'):] for m in sys.modules"
        " if m.startswith('weylmin.'))))\n"
        "    sys.stderr.write('\\n' + ' '.join(m for m in ('argparse', 'gettext', 'locale')"
        " if m in sys.modules))\n"
        "runpy.run_module('weylmin', run_name='__main__', alter_sys=True)\n"
    )
    stderr, heavy, loaded, parser = proc.stderr.rsplit("\n", 3)
    assert proc.returncode == code, proc.stderr
    assert stderr.startswith(prefix) and bool(stderr) == bool(prefix), proc.stderr
    assert heavy == "[]", proc.stderr
    assert loaded.split() == sorted(modules.split()), argv
    # only help and usage errors build the argparse parser
    assert ("argparse" in parser.split()) == (argv == ["--help"]), parser


@pytest.mark.parametrize("argv", [["--help"], ["surface", "from-fg", "--help"], ["eval", "--fmt", "yaml"]])
def test_help_and_errors_are_argparses_bytes(argv):
    code = "from weylmin.cli import {}\n{}({!r})\n"
    cli, full = (_python(code.format(name, call, argv)) for name, call in (
        ("main", "main"), ("build_parser", "build_parser().parse_args")))
    assert (cli.returncode, cli.stdout, cli.stderr) == (full.returncode, full.stdout, full.stderr)
    assert cli.returncode in (0, 2) and (cli.stdout or cli.stderr)


def test_import_loads_no_submodule():
    proc = _python(
        "import sys, weylmin\n"
        "print(sorted(m for m in sys.modules if m.startswith('weylmin')))\n"
        "weylmin.LAM\n"
        "print(sorted(m for m in sys.modules if m.startswith('weylmin')))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "['weylmin']", "['weylmin', 'weylmin.records', 'weylmin.scalars', 'weylmin.weyl']"
    ]


# Each public name by the submodule that defines it.
HOMES = {
    "classical": "UVPoly classical_limit classical_limit_fraction",
    "fock": "FockConfig catenoid exp_lambda exp_tail_bound residual_report",
    "holomorphic": "NotIntegrableError PhiTriple PolyLambda RatLambda fg_from_phi"
    " isotropy_check phi_from_fg poly_to_weyl weyl_to_poly",
    "parse": "ParseError parse_rat parse_weyl",
    "render": "poly_lambda_text rat_text surface_latex surface_text weyl_latex weyl_text",
    "scalars": "GaussRational HbarPoly HbarRat",
    "serialize": "SCHEMA DeserializeError dumps_canonical surface_from_obj surface_to_obj"
    " weyl_from_obj weyl_to_obj",
    "surfaces": "FirstFundamental NonPolynomialPrimitiveError Provenance Surface"
    " VerificationReport bilinear check_normal conjugate_surface enneper first_fundamental"
    " mean_curvature_h0 normal_element phi_components surface_from_F surface_from_Ftilde"
    " surface_from_fg surface_from_pair verify_minimal",
    "weyl": "HBAR LAM LAM_STAR ONE U V ZERO Direction WeylElement commutator"
    " derive_by_commutator from_uv sym",
}


def test_public_names_are_their_submodules_objects():
    homes = {name: module for module, names in HOMES.items() for name in names.split()}
    assert sorted(weylmin.__all__) == sorted(homes)
    namespace: dict = {}
    exec("from weylmin import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(weylmin.__all__)
    for name, module in homes.items():
        obj = getattr(importlib.import_module(f"weylmin.{module}"), name)
        assert getattr(weylmin, name) is obj, name
        assert namespace[name] is obj, name


def test_dir_lists_every_public_name():
    proc = _python("import weylmin\nprint(set(weylmin.__all__) - set(dir(weylmin)))\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "set()"


def _records():
    """One instance of each value type, by name, with its repr as a frozen
    dataclass."""
    from weylmin.classical import UVPoly
    from weylmin.fock import FockConfig
    from weylmin.holomorphic import PhiTriple, PolyLambda, RatLambda
    from weylmin.parse import BinOp, Name, Neg, Num, Pow, Token
    from weylmin.scalars import GaussRational, HbarPoly, HbarRat
    from weylmin.surfaces import FirstFundamental, Provenance, Surface, VerificationReport
    from weylmin.weyl import WeylElement

    g = GaussRational(Fraction(1, 2), -3)
    pl = PolyLambda({1: HbarPoly({1: 1})})
    w = WeylElement({(1, 0): 1, (0, 1): Fraction(1, 3)})
    return {
        "GaussRational": g,
        "HbarPoly": HbarPoly({0: 1, 2: g}),
        "HbarRat": HbarRat(HbarPoly({1: 1}), HbarPoly({0: 1, 1: 1})),
        "WeylElement": w,
        "PolyLambda": pl,
        "RatLambda": RatLambda(pl, PolyLambda({0: 1, 2: 1})),
        "PhiTriple": PhiTriple.of(1, pl),
        "Token": Token("NUM", "12", 3),
        "Num": Num(12, 3),
        "Name": Name("Ls", 0),
        "Neg": Neg(Name("L", 1), 0),
        "BinOp": BinOp("+", Num(1, 0), Name("h", 2), 1),
        "Pow": Pow(Name("L", 0), 3, 1),
        "Provenance": Provenance("F", (("F", pl),), (pl,)),
        "Surface": Surface((w,), (Fraction(1, 2),), Provenance("raw")),
        "FirstFundamental": FirstFundamental(w, w, w),
        "VerificationReport": VerificationReport((True,), (False,), True, (("harmonic:X1", w),)),
        "UVPoly": UVPoly({(1, 0): g, (0, 2): 1}),
        "FockConfig": FockConfig(dim=8),
    }


_ONE = "GaussRational(re=Fraction(1, 1), im=Fraction(0, 1))"
_W = "WeylElement(rows=((0, 1, 0, 1, 0), (1, 0, 0, 3, 0)), den=3)"
_PL = f"PolyLambda(coeffs=((1, HbarPoly(coeffs=((1, {_ONE}),))),))"
_PL_ONE = f"PolyLambda(coeffs=((0, HbarPoly(coeffs=((0, {_ONE}),))),))"
REPRS = {
    "GaussRational": "GaussRational(re=Fraction(1, 2), im=Fraction(-3, 1))",
    "HbarPoly": f"HbarPoly(coeffs=((0, {_ONE}), (2, GaussRational(re=Fraction(1, 2),"
    " im=Fraction(-3, 1)))))",
    "HbarRat": f"HbarRat(num=HbarPoly(coeffs=((1, {_ONE}),)),"
    f" den=HbarPoly(coeffs=((0, {_ONE}), (1, {_ONE}))))",
    "WeylElement": _W,
    "PolyLambda": _PL,
    "RatLambda": f"RatLambda(num={_PL}, den=PolyLambda(coeffs=((0, HbarPoly(coeffs=((0, {_ONE}),))),"
    f" (2, HbarPoly(coeffs=((0, {_ONE}),))))))",
    "PhiTriple": f"PhiTriple(components=(RatLambda(num={_PL_ONE}, den={_PL_ONE}),"
    f" RatLambda(num={_PL}, den={_PL_ONE})))",
    "Token": "Token(kind='NUM', text='12', pos=3)",
    "Num": "Num(value=12, pos=3)",
    "Name": "Name(name='Ls', pos=0)",
    "Neg": "Neg(operand=Name(name='L', pos=1), pos=0)",
    "BinOp": "BinOp(op='+', left=Num(value=1, pos=0), right=Name(name='h', pos=2), pos=1)",
    "Pow": "Pow(base=Name(name='L', pos=0), exponent=3, pos=1)",
    "Provenance": f"Provenance(kind='F', params=(('F', {_PL}),), primitives=({_PL},))",
    "Surface": f"Surface(components=({_W},), offsets=(Fraction(1, 2),),"
    " provenance=Provenance(kind='raw', params=(), primitives=()))",
    "FirstFundamental": f"FirstFundamental(E={_W}, F={_W}, G={_W})",
    "VerificationReport": "VerificationReport(hermitian=(True,), harmonic=(False,),"
    f" conformal=True, witnesses=(('harmonic:X1', {_W}),))",
    "UVPoly": "UVPoly(terms=(((1, 0), GaussRational(re=Fraction(1, 2), im=Fraction(-3, 1))),"
    f" ((0, 2), {_ONE})))",
    "FockConfig": "FockConfig(dim=8, hbar=1.0, safe_rows=2)",
}


@pytest.mark.parametrize("name", sorted(REPRS))
def test_value_types_are_frozen_records(name):
    x = _records()[name]
    assert type(x).__name__ == name
    assert repr(x) == REPRS[name]
    fields = type(x)._fields
    values = tuple(getattr(x, f) for f in fields)
    assert hash(x) == hash(values)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(x, f, values[0])
        with pytest.raises(AttributeError):
            delattr(x, f)
    with pytest.raises(AttributeError):
        x.not_a_field = 1
    assert tuple(getattr(x, f) for f in fields) == values
    for twin in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(twin) is type(x) and twin == x and hash(twin) == hash(x)


def test_records_of_different_classes_differ():
    from weylmin.holomorphic import PolyLambda
    from weylmin.parse import Name, Num
    from weylmin.scalars import HbarPoly

    hp, pl = HbarPoly(), PolyLambda()
    assert pl.coeffs == hp.coeffs and hash(pl) == hash(hp)
    assert hp != pl and pl != hp
    assert HbarPoly() != PolyLambda() and HbarPoly() == HbarPoly()
    assert HbarPoly({1: 1}).__eq__(1) is NotImplemented
    num, name = Num(1, 0), Name(1, 0)
    assert num._astuple() == name._astuple() and num != name and name != num
    assert Num(1, 0) == num and Num(1, 0) is not num and Num(1, 0).__eq__((1, 0)) is NotImplemented


# Every target of bench/tracer.py that resolves, as "module attribute-path".
# The tracer finds a method in its class's own __dict__ and a function among
# its module's globals, and silently skips one it cannot find: a method moved
# to a base class, or a function renamed, would read 0 in its per-layer metric.
TRACED = """
parse parse_rat
parse parse_weyl
holomorphic RatLambda.__init__
holomorphic RatLambda.primitive
holomorphic RatLambda.derivative
scalars hp_gcd
weyl WeylElement.__mul__
surfaces surface_from_fg
surfaces surface_from_F
surfaces surface_from_Ftilde
surfaces surface_from_pair
surfaces enneper
surfaces conjugate_surface
surfaces verify_minimal
surfaces bilinear
classical classical_limit
classical classical_limit_fraction
serialize dumps_canonical
serialize surface_to_obj
serialize surface_from_obj
serialize report_to_obj
serialize weyl_to_obj
serialize rat_to_obj
serialize fock_report_to_obj
render weyl_text
render surface_text
render rat_text
render poly_lambda_text
render weyl_latex
render surface_latex
fock exp_lambda
fock exp_tail_bound
cli main
""".split("\n")[1:-1]


@pytest.mark.parametrize("target", TRACED)
def test_traced_target_is_own_attribute(target):
    module, path = target.split()
    owner = importlib.import_module(f"weylmin.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert callable(vars(owner).get(attr)), target
