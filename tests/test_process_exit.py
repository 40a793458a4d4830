"""How a CLI process ends: ``cli.run`` against the interpreter's own exit.

``python -m weylmin`` and the ``weylmin`` script end the process once
``main`` has returned, without tearing the interpreter down.  Each command
line below runs both ways, as ``python -m weylmin`` and as
``raise SystemExit(main(...))``, and must give the same exit code, stdout,
stderr and ``--out`` bytes.  PYTHONUNBUFFERED is removed, so piped stdout
is block-buffered and output left unflushed would be lost.
"""

import os
import pathlib
import re
import subprocess
import sys

import pytest

import weylmin

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = str(pathlib.Path(weylmin.__file__).resolve().parent.parent)  # the copy under test
GOLDENS = ROOT / "tests" / "goldens"
MAIN = "import sys; from weylmin.cli import main; raise SystemExit(main(sys.argv[1:]))"
WAYS = (["-m", "weylmin"], ["-c", MAIN])


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return env


def _python(args, cwd=None, **kwargs) -> subprocess.CompletedProcess:
    if "stdout" not in kwargs:
        kwargs["capture_output"] = True
    return subprocess.run([sys.executable, *args], cwd=cwd, env=_env(), timeout=120, **kwargs)


# Each command line: the golden it reads on stdin (or None) and its exit code.
CASES = [
    (["eval", "--expr", "(L+Ls)^3 - h"], None, 0),
    (["eval", "--expr", "(U+i*V)^3", "--fmt", "latex"], None, 0),
    (["surface", "from-Ftilde", "--Ft", "L^3"], None, 0),
    (["surface", "enneper", "--n", "2", "--out", "out.json"], None, 0),
    (["verify", "--in", "-"], "enneper.json", 0),
    (["conjugate", "--in", "-", "--fmt", "text"], "enneper.json", 0),
    (["--help"], None, 0),
    (["verify", "--in", str(GOLDENS / "enneper_broken.json")], None, 1),
    (["fock", "catenoid", "--dim", "64", "--hbar", "2.0"], None, 1),
    (["eval", "--expr", "L/"], None, 2),
    (["eval", "--expr", "L", "--fmt", "yaml"], None, 2),
    (["verify", "--in", "missing.json"], None, 2),
    (["surface", "from-fg", "--f", "1/L", "--g", "L"], None, 3),
    (["surface", "from-F", "--F", "1/L^2"], None, 4),
]


@pytest.mark.parametrize("argv,stdin,code", CASES, ids=[" ".join(c[0][:2]) for c in CASES])
def test_run_exits_as_the_interpreter_does(tmp_path, argv, stdin, code):
    outcomes = []
    for i, way in enumerate(WAYS):
        cwd = tmp_path / str(i)
        cwd.mkdir()
        data = (GOLDENS / stdin).read_bytes() if stdin else b""
        proc = _python([*way, *argv], cwd=cwd, input=data)
        out = cwd / "out.json"
        outcomes.append((proc.returncode, proc.stdout, proc.stderr,
                         out.read_bytes() if out.exists() else None))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == code, outcomes[0][2]
    assert outcomes[0][1] or outcomes[0][2] or outcomes[0][3]


# A short output stays in the buffer when a flush fails; one longer than the
# buffer is dropped by the failed flush, so a second flush would succeed.
@pytest.mark.parametrize("argv", [["eval", "--expr", "L"], ["surface", "from-Ftilde", "--Ft", "L^3"]])
def test_closed_stdout_is_reported_as_the_interpreter_does(argv):
    outcomes = []
    for way in WAYS:
        read, write = os.pipe()
        os.close(read)
        try:
            proc = _python([*way, *argv], stdout=write, stderr=subprocess.PIPE)
        finally:
            os.close(write)
        outcomes.append((proc.returncode, proc.stderr))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 120
    assert outcomes[0][1].startswith(b"Exception ignored in: <_io.TextIOWrapper name='<stdout>'")


@pytest.mark.parametrize("argv", [["eval", "--expr", "L"], ["eval", "--expr", "L/"]])
def test_closed_stdout_and_stderr_exit_120(argv):
    """As in ``weylmin ... 2>&1 | true``: the report cannot be written either."""
    codes = []
    for way in WAYS:
        read, write = os.pipe()
        os.close(read)
        try:
            codes.append(_python([*way, *argv], stdout=write, stderr=write).returncode)
        finally:
            os.close(write)
    assert codes == [120, 120]


def test_atexit_callbacks_run_before_the_flush():
    proc = _python(["-c",
                    "import atexit, runpy, sys\n"
                    "atexit.register(print, 'atexit ran')\n"
                    "sys.argv = ['weylmin', 'eval', '--expr', 'L']\n"
                    "runpy.run_module('weylmin', run_name='__main__', alter_sys=True)\n"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"L\natexit ran\n", b"")


def test_live_thread_keeps_the_interpreters_exit():
    proc = _python(["-c",
                    "import runpy, sys, threading, time\n"
                    "threading.Thread(target=lambda: (time.sleep(0.2), print('thread done'))).start()\n"
                    "sys.argv = ['weylmin', 'eval', '--expr', 'L']\n"
                    "runpy.run_module('weylmin', run_name='__main__', alter_sys=True)\n"])
    assert (proc.returncode, proc.stdout) == (0, b"L\nthread done\n"), proc.stderr


def test_inspect_flag_reaches_the_repl():
    proc = _python(["-i", "-m", "weylmin", "eval", "--expr", "L"], input=b"print('still here')\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"L\nstill here\n"


def test_console_script_is_run():
    """The ``weylmin`` script calls ``run``, as the script pip writes does."""
    text = (ROOT / "pyproject.toml").read_text()
    module, func = re.search(r'^weylmin = "([\w.]+):(\w+)"$', text, re.M).groups()
    assert (module, func) == ("weylmin.cli", "run")
    script = f"import sys\nfrom {module} import {func}\nsys.exit({func}())\n"
    argv = ["surface", "from-Ftilde", "--Ft", "L^3"]
    proc = _python(["-c", script, *argv])
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (GOLDENS / "enneper.json").read_bytes()
