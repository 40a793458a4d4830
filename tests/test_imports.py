"""Only the Fock layer loads numpy: the package and every exact command
run without it."""

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
