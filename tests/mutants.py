"""Replayable mutants: every fast path and oracle has a test that bites.

``MUTANTS`` lists ``(file, old text, new text, test selection)``: a file of
``src/weylmin``, an exact text in it, the edit that breaks it, and the tests
that must catch the edit.  Run from the root of a checkout:

    python tests/mutants.py          # every mutant
    python tests/mutants.py 0 7      # the mutants at those indices

For each mutant the runner copies ``src/`` to a temporary directory,
replaces the old text, which must occur exactly once, and runs the selection
against the copy with ``pytest -x``.  A mutant is killed when a test fails.
The runner fails if a mutant survives, if an old text no longer occurs
exactly once (the list went stale), or if a selection fails on the unmutated
copy (a selection that always fails would kill every mutant).  It needs only
the standard library and pytest.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SURFACES = "tests/test_surfaces.py"
ORACLE = f"{SURFACES}::TestVerifierOracle"
ROWS = f"{SURFACES}::TestRowsLevelChecks"
LEFT = "tests/test_weyl.py::TestHolomorphicLeftFactor"
MEMO = "tests/test_weyl.py::TestReorderMemo"

MUTANTS: list[tuple[str, str, str, tuple[str, ...]]] = [
    # -- verify_minimal from rows --------------------------------------
    # harmonic tested with k or l
    ("surfaces.py", "harm = not any(r[0] and r[1] for r in c.rows)",
     "harm = not any(r[0] or r[1] for r in c.rows)", (ORACLE,)),
    # no rescale to the common denominator
    ("weyl.py", "m = den // x.den", "m = 1", (ROWS,)),
    # dbar weights on the d (hermitian) path
    ("weyl.py", "for k, l, d, re, im in x.rows if (w := m * k)]",
     "for k, l, d, re, im in x.rows if (w := m * l)]", (ORACLE,)),
    # the dbar row map lowers the L power
    ("weyl.py", "[(k, l - 1, d, w * re, w * im)", "[(k - 1, l, d, w * re, w * im)", (ROWS,)),
    # zero numerator pairs counted as nonzero
    ("surfaces.py", "conformal = not any(map(any, dd.values())) and (bb is None or not any(map(any, "
     "bb.values())))", "conformal = not dd and (bb is None or not bb)", (ORACLE,)),
    # the witness square over den, not den^2
    ("weyl.py", "    return acc, den * den\n", "    return acc, den\n", (ORACLE,)),
    # a passing surface forms its witnesses
    ("surfaces.py", "    if not conformal:\n        dd = WeylElement._new(dd, den)",
     "    if True:\n        dd = WeylElement._new(dd, den)",
     (f"{ORACLE}::test_pass_path_builds_no_element",)),
    # the Laplacian's witness is the component itself
    ("surfaces.py", 'witnesses.append((f"harmonic:X{idx}", c.laplace()))',
     'witnesses.append((f"harmonic:X{idx}", c))', (ORACLE,)),
    # conformality from <dX, dX> alone
    ("surfaces.py", "bb = None if all(hermitian) else partial_square_sum(s.components, 1)[0]",
     "bb = None", (f"{SURFACES}::TestConformalIdentity",)),
    # the witnesses' names swapped
    ("surfaces.py", '(("conformal:E-G", (dd + bb).scale(2)), ("conformal:F", (dd - bb).scale(GR_I)))',
     '(("conformal:F", (dd + bb).scale(2)), ("conformal:E-G", (dd - bb).scale(GR_I)))', (ORACLE,)),
    # F not scaled by i
    ("surfaces.py", '("conformal:F", (dd - bb).scale(GR_I))', '("conformal:F", dd - bb)', (ORACLE,)),
    # -- the h-free U,V table ------------------------------------------
    # the conjugate sign: (U - iV)^k (U + iV)^l
    ("weyl.py", "comb(l, q - a) * (-1) ** (q - a)", "comb(l, q - a) * (-1) ** a",
     ("tests/test_weyl.py::TestGrading::test_uv_table_h_free_is_the_h_free_rows",)),
    # i^q taken as i^-q
    ("weyl.py", "((c, 0), (0, c), (-c, 0), (0, -c))[q % 4]", "((c, 0), (0, -c), (-c, 0), (0, c))[q % 4]",
     ("tests/test_classical.py",)),
    # the h-free limit also reads the rows that carry h
    ("weyl.py", "        if not (h_free and d)\n", "", ("tests/test_classical.py",)),
    # -- the product's holomorphic left rows ---------------------------
    # the fast path drops the right row's h-degree
    ("weyl.py", "key, re, im = (k1 + k2, l2, d1 + d2),", "key, re, im = (k1 + k2, l2, d1),", (LEFT,)),
    # the fast path off: every left row is reordered
    ("weyl.py", "        if not l1:\n", "        if False:\n", (LEFT,)),
    # the fast path overwrites instead of adding
    ("weyl.py", "acc[key] = (re, im) if cur is None else (cur[0] + re, cur[1] + im)",
     "acc[key] = (re, im)", (LEFT,)),
    # -- the reordering memo -------------------------------------------
    # every table stored
    ("weyl.py", "if max(l, m) <= REORDER_MEMO_CAP:", "if True:", (MEMO,)),
    # no table stored
    ("weyl.py", "_REORDER_MEMO[l, m] = terms", "pass", (MEMO,)),
    # the cap on min(l, m)
    ("weyl.py", "if max(l, m) <= REORDER_MEMO_CAP:", "if min(l, m) <= REORDER_MEMO_CAP:", (MEMO,)),
    # -- surface construction ------------------------------------------
    # the conjugate takes Re(i P)
    ("surfaces.py", "_MINUS_I = GaussRational(0, -1)", "_MINUS_I = GaussRational(0, 1)",
     (f"{SURFACES}::TestConjugate",)),
    # -- quotients by cross gcds ---------------------------------------
    # the sum's denominator keeps the factor g2 of d
    ("scalars.py", "bg * _divide_out(d, g2)", "bg * d", ("tests/test_kernel.py::TestQuotient",)),
    # the product's cross gcds swapped
    ("scalars.py", "_divide_out(b, h) * _divide_out(d, g)", "_divide_out(b, g) * _divide_out(d, h)",
     ("tests/test_kernel.py::TestQuotient",)),
]


def _copy_src(dest: str) -> str:
    src = os.path.join(dest, "src")
    shutil.copytree(os.path.join(ROOT, "src"), src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _pytest(src: str, selection) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *selection], cwd=ROOT, env=env, capture_output=True, text=True)


def run(indices) -> list[str]:
    """Run the mutants at ``indices``; the list of problems, empty if all were killed."""
    problems = []
    with tempfile.TemporaryDirectory(prefix="weylmin-mutants-") as tmp:
        src = _copy_src(tmp)
        selections = list(dict.fromkeys(s for i in indices for s in MUTANTS[i][3]))
        clean = _pytest(src, selections)
        if clean.returncode:
            return [f"the selections fail on the unmutated source:\n{clean.stdout[-2000:]}"]
        for i in indices:
            name, old, new, selection = MUTANTS[i]
            path = os.path.join(src, "weylmin", name)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            label = f"#{i} {name}: {(new.strip() or 'delete ' + old.strip()).splitlines()[0]}"
            if text.count(old) != 1:
                problems.append(f"{label}: the old text occurs {text.count(old)} times, not once")
                print("STALE   ", label, flush=True)
                continue
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text.replace(old, new))
            try:
                got = _pytest(src, selection)
            finally:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
            # pytest exits 1 when a test failed; 0 is a survivor, others are errors
            verdict = {0: "SURVIVED", 1: "killed"}.get(got.returncode, f"ERROR {got.returncode}")
            print(f"{verdict:8}", label, flush=True)
            if got.returncode != 1:
                problems.append(f"{label}: {verdict}\n{got.stdout[-2000:]}")
    return problems


def main(argv) -> int:
    indices = [int(a) for a in argv] or list(range(len(MUTANTS)))
    problems = run(indices)
    for p in problems:
        print(p, file=sys.stderr)
    print(f"{len(indices) - len(problems)} of {len(indices)} mutants killed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
