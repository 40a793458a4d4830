"""The benchmark workloads: seeded inputs, the timed job, the checks.

Each workload builds a fixed-size pool of jobs from ``--seed`` with its own
generator (never the program's or the test suite's helpers) and hands the
program only the rendered inputs.  The pool's shape (kinds, degrees,
multiplicities) is the same for every seed; the seed picks coefficients,
roots, perturbations and order, so run-to-run cost stays comparable across
seeds.  ``run`` is the timed job; ``check`` runs afterwards, outside the
timed region, and returns ``(ok, canonical_output, detail)``.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

from exact import (
    G,
    I,
    coeff_from_records,
    g_text,
    pderiv_eval,
    peval,
    pmul,
    poly_from_records,
    poly_text,
    ppow,
)

# Evaluation points for the exact checks: (L, h) pairs over Q(i).
LAMBDA_POINTS = (G(Fraction(7, 3), Fraction(1, 2)), G(Fraction(-5, 4), Fraction(2, 3)),
                 G(Fraction(3, 7), Fraction(-9, 5)))
HBAR_POINTS = (G(Fraction(2, 5), Fraction(1, 3)), G(Fraction(-3, 2), Fraction(1, 7)))

FOCK_BUDGET = 1e-8  # acceptance item 10's residual tolerance


def read_goldens(root):
    names = ("enneper.json", "enneper2.json", "quartic.json", "pair_r4.json")
    out = {}
    for name in names:
        with open(os.path.join(root, "tests", "goldens", name), encoding="utf-8") as fh:
            out[name] = fh.read()
    return out


def small_g(rng):
    """A Gaussian integer with both parts nonzero, so g^2 is never 1.

    Every coefficient comes from the same size class: job cost then depends
    on the pool's fixed shape, not on how large the seed's numbers happen
    to be.
    """
    return G(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((-2, -1, 1, 2)))


def rand_poly(rng, deg, terms, with_h=False):
    """The ``terms`` highest monomials L^deg, L^(deg-1), ...; with ``with_h``
    the second one (or the only one) carries a factor h."""
    degs = range(deg, deg - terms, -1)
    h_deg = degs[min(1, terms - 1)] if with_h else None
    return {(k, int(k == h_deg)): small_g(rng) for k in degs}


# ---------------------------------------------------------------------------
# surface-verify
# ---------------------------------------------------------------------------

# Pool shape: the golden builds, then degree strata.  Ftilde potentials
# have three terms, pair polynomials two, one of them carrying h; F is
# h-free.  Every eighth entry is perturbed and every fourth renders LaTeX.
SV_FTILDE_DEGREES = (3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 7, 8)
SV_PAIR_DEGREES = (3, 3, 3, 4, 4, 4, 5, 6)
SV_ENNEPER_N = (1, 2, 3, 4)
SV_F_DEGREES = (1, 1, 2, 3)
SV_GOLDENS = (
    ({"kind": "Ftilde", "ft": "L^3"}, "enneper.json"),
    ({"kind": "Ftilde", "ft": "L^4"}, "quartic.json"),
    ({"kind": "enneper", "n": 2}, "enneper2.json"),
    ({"kind": "pair", "f": "L", "g": "L^2"}, "pair_r4.json"),
)


class SurfaceVerify:
    name = "surface-verify"

    def __init__(self, root, seed):
        self.root = root
        rng = random.Random(f"{self.name}:{seed}")
        items = [dict(spec, golden=golden) for spec, golden in SV_GOLDENS]
        for d in SV_FTILDE_DEGREES:
            items.append({"kind": "Ftilde", "ft": poly_text(rand_poly(rng, d, 3, True))})
        for d in SV_PAIR_DEGREES:
            items.append({"kind": "pair", "f": poly_text(rand_poly(rng, d, 2, True)),
                          "g": poly_text(rand_poly(rng, d, 2, True))})
        for n in SV_ENNEPER_N:
            items.append({"kind": "enneper", "n": n})
        for d in SV_F_DEGREES:
            items.append({"kind": "F", "F": poly_text(rand_poly(rng, d, 2))})
        for i, it in enumerate(items):
            if i % 8 == 7:
                it["perturb"] = (rng.randrange(3), rng.choice(("1", "2", "3", "1/2")))
            if i % 4 == 1:
                it["latex"] = True
        rng.shuffle(items)
        self.items = items

    def setup(self):
        import weylmin

        self.w = weylmin
        self.goldens = read_goldens(self.root)
        self.inputs = [self._prepare(it) for it in self.items]
        self.warm = self._prepare({"kind": "Ftilde", "ft": "L^3+h*L", "latex": True,
                                   "perturb": (1, "1")})

    def _prepare(self, it):
        # Polynomials in L are read in weyl mode: parse_rat would normalise a
        # quotient at every node and turn set-up into a gcd benchmark.
        w = self.w

        def poly(text):
            return w.weyl_to_poly(w.parse_weyl(text))

        kind = it["kind"]
        if kind == "Ftilde":
            args = (poly(it["ft"]),)
        elif kind == "pair":
            args = (poly(it["f"]), poly(it["g"]))
        elif kind == "F":
            args = (poly(it["F"]),)
        else:
            args = (it["n"],)
        pert = None
        if "perturb" in it:
            idx, coeff = it["perturb"]
            pert = (idx, w.parse_weyl(f"{coeff}*(U^2+V^2)"))
        return kind, args, pert, it.get("latex", False)

    def warmup(self):
        self._job(self.warm)

    def run(self, idx):
        return self._job(self.inputs[idx])

    def _job(self, prepared):
        kind, args, pert, latex = prepared
        w = self.w
        build = {"Ftilde": w.surface_from_Ftilde, "pair": w.surface_from_pair,
                 "F": w.surface_from_F, "enneper": w.enneper}[kind]
        s = build(*args)
        if pert is not None:
            comps = list(s.components)
            comps[pert[0]] = comps[pert[0]] + pert[1]
            s = w.Surface(tuple(comps), s.offsets, s.provenance)
        rep = w.verify_minimal(s)
        rep_conj = w.verify_minimal(w.conjugate_surface(s))
        limit = [sorted(w.classical_limit_fraction(c).items()) for c in s.components]
        doc = w.dumps_canonical(w.surface_to_obj(s))
        text = w.surface_text(s)
        latex_text = w.surface_latex(s) if latex else ""
        return {
            "passes": rep.passes,
            "witnesses": [name for name, _ in rep.witnesses],
            "conj_passes": rep_conj.passes,
            "limit": repr(limit),
            "json": doc,
            "text": text,
            "latex": latex_text,
        }

    def check(self, idx, out):
        it = self.items[idx]
        canon = json.dumps(out, sort_keys=True)
        if "perturb" in it:
            want = f"harmonic:X{it['perturb'][0] + 1}"
            if out["passes"] or want not in out["witnesses"]:
                return False, canon, f"perturbed surface not rejected with {want}"
        elif not out["passes"]:
            return False, canon, f"verify_minimal failed: {out['witnesses']}"
        if not out["conj_passes"]:
            return False, canon, "conjugate surface failed verification"
        if "golden" in it and out["json"] != self.goldens[it["golden"]]:
            return False, canon, f"output differs from golden {it['golden']}"
        if bool(out["latex"]) != bool(it.get("latex")):
            return False, canon, "LaTeX output missing"
        return True, canon, ""


# ---------------------------------------------------------------------------
# Weierstrass data with h in the denominators
# ---------------------------------------------------------------------------


def rand_linear(rng, used):
    """L - (beta + alpha*h) with a root not in ``used``; alpha != 0."""
    while True:
        beta = G(rng.choice((-3, -2, -1, 1, 2, 3)))
        alpha = G(rng.choice((-2, -1, 1, 2)))
        key = (beta, alpha)
        if key not in used:
            used.add(key)
            return {(1, 0): G(1), (0, 0): -beta, (0, 1): -alpha}


def rand_denominator(rng, shape):
    """Product of distinct (L - r_k)^m_k: the polynomial and its text."""
    used = set()
    factors = [(rand_linear(rng, used), m) for m in shape]
    den = {(0, 0): G(1)}
    for lin, m in factors:
        den = pmul(den, ppow(lin, m))
    text = "*".join(f"{poly_text(lin)}^{m}" if m > 1 else poly_text(lin) for lin, m in factors)
    return den, f"({text})"


def fg_items(rng):
    """Seeded Weierstrass data with h in the denominators, as CLI entries.

    Two succeed: f = a D^2 and g = b / D make every Phi component a
    polynomial, for D = L - r and D = (L - r)^2.  Two must fail: with
    f = a + c_1/(L - r) + ... and a constant g (g^2 != 1) the residue of
    Phi1 is c_1 (1 - g^2) / 2 != 0, exit 3; with only poles of order >= 2
    there is no residue but the primitive keeps a pole, exit 4.
    """
    items = []
    for shape in ((1,), (2,)):
        den, den_text = rand_denominator(rng, shape)
        a, b = rand_poly(rng, 0, 1, True), rand_poly(rng, 1, 2)
        items.append({
            "argv": ["surface", "from-fg", "--f", f"{poly_text(a)}*{den_text}^2",
                     "--g", f"{poly_text(b)}/{den_text}"],
            "fg": (pmul(a, pmul(den, den)), b, den),
        })
    for lo, m, code, prefix in ((1, 2, 3, "integrability error:"), (2, 3, 4, "scope error:")):
        lin = poly_text(rand_linear(rng, set()))
        terms = [poly_text(rand_poly(rng, 1, 2))] + [
            f"{g_text(small_g(rng))}/{lin}" + (f"^{k}" if k > 1 else "") for k in range(lo, m + 1)
        ]
        items.append({"argv": ["surface", "from-fg", "--f", " + ".join(terms),
                               "--g", g_text(small_g(rng))],
                      "code": code, "stderr": prefix})
    return items


def check_fg_primitives(fg, doc):
    """Each primitive's L-derivative equals Phi_i at exact sample points."""
    f_poly, g_num, g_den = fg
    prims = [poly_from_records(p) for p in doc["provenance"]["primitives"]]
    if len(prims) != 3:
        return False
    checked = 0
    for lam in LAMBDA_POINTS:
        for hb in HBAR_POINTS:
            gd = peval(g_den, lam, hb)
            if gd.is_zero():
                continue
            f = peval(f_poly, lam, hb)
            g = peval(g_num, lam, hb) / gd
            phi = (f * (1 - g * g) / 2, I * f * (1 + g * g) / 2, f * g)
            if any(pderiv_eval(p, lam, hb) != want for p, want in zip(prims, phi)):
                return False
            checked += 1
    return checked >= 2


# ---------------------------------------------------------------------------
# cli-readme
# ---------------------------------------------------------------------------

EVAL_OPS = ("d", "dbar", "u", "v", "lap", "re", "im", "star")


def eval_expected(poly, op):
    """weylmin/1 terms {(k, l, h-degree): G} of ``op`` applied to p(L)."""
    out = {}

    def add(k, l, j, c):
        key = (k, l, j)
        out[key] = out.get(key, G()) + c

    for (n, j), c in poly.items():
        conj = G(c.re, -c.im)
        if op in ("d", "u", "v") and n:
            add(n - 1, 0, j, c * n * (I if op == "v" else 1))
        elif op == "star":
            add(0, n, j, conj)
        elif op == "re":
            add(n, 0, j, c / 2)
            add(0, n, j, conj / 2)
        elif op == "im":
            add(n, 0, j, c / (2 * I))
            add(0, n, j, -conj / (2 * I))
    return {k: c for k, c in out.items() if not c.is_zero()}


def eval_received(records):
    out = {}
    for rec in records:
        for j, c in coeff_from_records(rec["coeff"]).items():
            out[(int(rec["k"]), int(rec["l"]), j)] = c
    return out


class CliReadme:
    name = "cli-readme"

    def __init__(self, root, seed):
        self.root = root
        rng = random.Random(f"{self.name}:{seed}")
        poly = rand_poly(rng, 4, 4, True)
        self.eval_poly = poly
        expr = " + ".join(
            "*".join([g_text(c)] + ([f"h^{j}"] if j else []) + ([f"(U+i*V)^{n}"] if n else []))
            for (n, j), c in sorted(poly.items())
        )
        items = [
            # README examples
            {"argv": ["surface", "from-Ftilde", "--Ft", "L^3", "--fmt", "text"]},
            {"argv": ["surface", "enneper", "--n", "2", "--out", "enneper2.json"],
             "out": "enneper2.json", "golden": "enneper2.json"},
            {"argv": ["surface", "pair", "--f", "L", "--g", "L^2"], "golden": "pair_r4.json"},
            {"argv": ["surface", "from-F", "--F", "1+L^3"]},
            {"argv": ["verify", "--in", "-"], "stdin": "fromF.json", "verify": True},
            {"argv": ["conjugate", "--in", "enneper2-input.json", "--fmt", "text"]},
            {"argv": ["fock", "catenoid", "--dim", "64", "--hbar", "1.0", "--safe-rows", "20"],
             "fock": True, "exact": False},
            # acceptance item 10's budget must fail here (residual ~3e-4): exit 1
            {"argv": ["fock", "catenoid", "--dim", "64", "--hbar", "2.0"], "code": 1,
             "fock": True, "exact": False},
            {"argv": ["eval", "--expr", "(U+i*V)^3", "--op", "lap"], "stdout": "0\n"},
            # the golden commands not already above, and verify from a file
            {"argv": ["surface", "from-Ftilde", "--Ft", "L^3"], "golden": "enneper.json"},
            {"argv": ["surface", "from-Ftilde", "--Ft", "L^4"], "golden": "quartic.json"},
            {"argv": ["verify", "--in", "quartic-input.json"], "verify": True},
            # an expected error: Phi has a simple pole with nonzero residue
            {"argv": ["surface", "from-fg", "--f", "1/L", "--g", "L"], "code": 3,
             "stderr": "integrability error:"},
        ]
        items += fg_items(rng)
        for op in EVAL_OPS:
            items.append({"argv": ["eval", "--expr", expr, "--op", op, "--fmt", "json"],
                          "eval_op": op})
        rng.shuffle(items)
        self.items = items

    def setup(self, workdir, traced_cli):
        self.workdir = workdir
        self.traced_cli = traced_cli
        self.goldens = read_goldens(self.root)
        for name, src in (("enneper2-input.json", "enneper2.json"), ("quartic-input.json", "quartic.json")):
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(self.goldens[src])
        self.env = dict(os.environ)  # run.py has set PYTHONPATH and the thread pins
        self.peak_rss_kb = 0

    def warmup(self):
        # Also writes the piped README input: surface from-F ... | verify --in -
        code, out, err = self._spawn(["surface", "from-F", "--F", "1+L^3"], None, False)
        if code != 0:
            raise RuntimeError(f"warm-up command failed: {err}")
        with open(os.path.join(self.workdir, "fromF.json"), "w", encoding="utf-8") as fh:
            fh.write(out)

    def _spawn(self, argv, stdin_name, traced):
        if traced:
            cmd = [sys.executable, self.traced_cli, *argv]
        else:
            cmd = [sys.executable, "-m", "weylmin", *argv]
        # Output goes to files and the child is reaped with wait4, so its
        # CPU time and peak memory are its own, apart from any other child.
        stdin = os.path.join(self.workdir, stdin_name) if stdin_name else os.devnull
        out_path, err_path = (os.path.join(self.workdir, f"job.{x}") for x in ("out", "err"))
        with open(stdin, "rb") as fin, open(out_path, "wb") as fout, open(err_path, "wb") as ferr:
            proc = subprocess.Popen(cmd, stdin=fin, stdout=fout, stderr=ferr, cwd=self.workdir,
                                    env=self.env)
            _, status, ru = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, ru.ru_maxrss)
        with open(out_path, encoding="utf-8") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8") as fh:
            stderr = fh.read()
        return proc.returncode, stdout, stderr

    def run(self, idx, traced=False):
        it = self.items[idx]
        return self._spawn(it["argv"], it.get("stdin"), traced)

    def check(self, idx, out):
        it = self.items[idx]
        code, stdout, stderr = out
        payload = stdout
        if "out" in it:
            with open(os.path.join(self.workdir, it["out"]), encoding="utf-8") as fh:
                payload = fh.read()
            os.remove(os.path.join(self.workdir, it["out"]))
        canon = None if it.get("exact") is False else f"{code}\n{payload}"
        want_code = it.get("code", 0)
        if code != want_code:
            return False, canon, f"{it['argv']}: exit {code}, expected {want_code}: {stderr[-300:]}"
        if "Traceback" in stderr or (want_code in (0, 1) and stderr):
            return False, canon, f"{it['argv']}: unexpected stderr: {stderr[-300:]}"
        if "stderr" in it and not stderr.startswith(it["stderr"]):
            return False, canon, f"{it['argv']}: stderr {stderr[:100]!r}"
        if "golden" in it and payload != self.goldens[it["golden"]]:
            return False, canon, f"{it['argv']}: differs from golden {it['golden']}"
        if "stdout" in it and payload != it["stdout"]:
            return False, canon, f"{it['argv']}: printed {payload!r}"
        if it.get("verify") and json.loads(payload).get("passes") is not True:
            return False, canon, f"{it['argv']}: verification did not pass"
        if it.get("fock"):
            worst = max(json.loads(payload)["residuals"].values())
            if not math.isfinite(worst) or (worst < FOCK_BUDGET) != (want_code == 0):
                return False, canon, f"fock residual {worst:.3e} against budget {FOCK_BUDGET}"
        if "fg" in it and not check_fg_primitives(it["fg"], json.loads(payload)):
            return False, canon, f"{it['argv']}: a primitive's derivative differs from Phi"
        if "eval_op" in it:
            got = eval_received(json.loads(payload)["element"])
            if got != eval_expected(self.eval_poly, it["eval_op"]):
                return False, canon, f"eval --op {it['eval_op']} differs from the expected element"
        return True, canon, ""


WORKLOADS = {w.name: w for w in (CliReadme, SurfaceVerify)}
