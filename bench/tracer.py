"""Per-layer spans recorded from outside the program.

:class:`Tracer` wraps module-level functions and class methods of the
loaded ``weylmin`` modules and keeps, per layer, the call count, the total
span time and the self time (span time minus the time its child spans
cover).  A call made while the same layer is already the innermost span
is folded into that span, so ``enneper -> surface_from_fg`` counts as one
build.  Hot scalar methods (``HbarPoly.__mul__`` and the like) are never
wrapped: their per-call cost would swamp the work they do.

``uninstall`` restores every original object, so untraced and traced
passes can alternate in one process.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter


def _mul_terms(counts, args, out):
    counts["weyl.mul.terms_out"] += len(getattr(out, "terms", ()))


def _serialized_bytes(counts, args, out):
    counts["serialize.bytes"] += len(out.encode("utf-8"))


def _derive_flops(counts, args, out):
    # Two dense dim x dim complex products per commutator, 8 real flops per
    # complex multiply-add.
    dim = args[0].shape[0]
    counts["fock.derive.flops_computed"] += 2 * 8 * dim**3


def _weyl_operands(args):
    return len(args) == 2 and type(args[1]) is type(args[0])


# (module, attribute path, layer, counter, predicate on the call arguments)
TARGETS = [
    ("weylmin.parse", "parse_rat", "parse", None, None),
    ("weylmin.parse", "parse_weyl", "parse", None, None),
    ("weylmin.holomorphic", "RatLambda.__init__", "holomorphic.normalize", None, None),
    ("weylmin.holomorphic", "RatLambda.primitive", "holomorphic.primitive", None, None),
    ("weylmin.holomorphic", "RatLambda.derivative", "holomorphic.derivative", None, None),
    ("weylmin.scalars", "hp_gcd", "scalars.hp_gcd", None, None),
    ("weylmin.weyl", "WeylElement.__mul__", "weyl.mul", _mul_terms, _weyl_operands),
    ("weylmin.surfaces", "surface_from_fg", "surfaces.build", None, None),
    ("weylmin.surfaces", "surface_from_F", "surfaces.build", None, None),
    ("weylmin.surfaces", "surface_from_Ftilde", "surfaces.build", None, None),
    ("weylmin.surfaces", "surface_from_pair", "surfaces.build", None, None),
    ("weylmin.surfaces", "enneper", "surfaces.build", None, None),
    ("weylmin.surfaces", "conjugate_surface", "surfaces.build", None, None),
    ("weylmin.surfaces", "verify_minimal", "surfaces.verify", None, None),
    ("weylmin.surfaces", "bilinear", "surfaces.bilinear", None, None),
    ("weylmin.classical", "classical_limit", "classical", None, None),
    ("weylmin.classical", "classical_limit_fraction", "classical", None, None),
    ("weylmin.serialize", "dumps_canonical", "serialize", _serialized_bytes, None),
    ("weylmin.serialize", "surface_to_obj", "serialize", None, None),
    ("weylmin.serialize", "surface_from_obj", "serialize", None, None),
    ("weylmin.serialize", "report_to_obj", "serialize", None, None),
    ("weylmin.serialize", "weyl_to_obj", "serialize", None, None),
    ("weylmin.serialize", "rat_to_obj", "serialize", None, None),
    ("weylmin.serialize", "fock_report_to_obj", "serialize", None, None),
    ("weylmin.render", "weyl_text", "render.text", None, None),
    ("weylmin.render", "surface_text", "render.text", None, None),
    ("weylmin.render", "rat_text", "render.text", None, None),
    ("weylmin.render", "poly_lambda_text", "render.text", None, None),
    ("weylmin.render", "weyl_latex", "render.latex", None, None),
    ("weylmin.render", "surface_latex", "render.latex", None, None),
    ("weylmin.fock", "exp_lambda", "fock.exp", None, None),
    ("weylmin.fock", "derive_matrix", "fock.derive", _derive_flops, None),
    ("weylmin.fock", "exp_tail_bound", "fock.tail", None, None),
    ("weylmin.fock", "_window_norm", "fock.window_norm", None, None),
    ("weylmin.cli", "main", "cli.main", None, None),
]


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.missing = set()
        self._stack = []
        self._patches = []

    def _wrap(self, fn, layer, counter, accept):
        stack = self._stack
        calls, total_s, self_s, counts = self.calls, self.total_s, self.self_s, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if (stack and stack[-1][0] == layer) or (accept is not None and not accept(args)):
                return fn(*args, **kwargs)
            frame = [layer, perf_counter(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                dur = perf_counter() - frame[1]
                calls[layer] += 1
                total_s[layer] += dur
                self_s[layer] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
            if counter is not None:
                counter(counts, args, out)
            return out

        return wrapper

    def install(self):
        """Wrap every target found in the loaded weylmin modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "weylmin" or n.startswith("weylmin."))]
        for modname, path, layer, counter, accept in TARGETS:
            owner = sys.modules.get(modname)
            if owner is None:  # the workload never loads this module
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, "__dict__", {}).get(attr)
            if original is None:
                self.missing.add(f"{modname}.{path}")
                continue
            wrapper = self._wrap(original, layer, counter, accept)
            if outer:
                self._patch(owner, attr, original, wrapper)
                continue
            # Module-level functions: replace every binding of the same object,
            # including the copies other modules imported by name.
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapper)

    def _patch(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def snapshot(self):
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }
