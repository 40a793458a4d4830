"""numpy loads only for the Fock matrices (``catenoid``, ``exp_lambda``):
the package, every exact command and ``fock catenoid`` run without it."""

import os
import pathlib
import subprocess
import sys

import pytest

import weylmin

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
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
