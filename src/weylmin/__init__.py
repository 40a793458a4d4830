"""Exact computation in the Weyl algebra and its minimal-surface theory.

The package works over the Gaussian rationals with a formal central
parameter ``h`` (Planck's constant), so every identity it reports is
exact.  The main layers are

* :mod:`weylmin.scalars` -- the sparse-polynomial kernel every exact
  type shares (operators, canonical form, Euclid), Gaussian-rational
  coefficients, and polynomials/rational functions in ``h``;
* :mod:`weylmin.weyl` -- normal-ordered elements of the algebra with
  derivations, the Laplacian, and the star involution;
* :mod:`weylmin.holomorphic` -- rational functions of the holomorphic
  generator ``L`` with exact integration (Hermite reduction);
* :mod:`weylmin.surfaces` -- Weierstrass-style surface constructors,
  the exact minimality verifier, conjugate surfaces, and curvature
  checks;
* :mod:`weylmin.classical` -- the commutative ``h -> 0`` limit;
* :mod:`weylmin.fock` -- validation of the catenoid on a truncated Fock
  space, with residuals computed exactly and rounded once;
* :mod:`weylmin.parse` / :mod:`weylmin.render` /
  :mod:`weylmin.serialize` -- expression parsing, text/LaTeX output,
  and the canonical JSON interchange format;
* :mod:`weylmin.cli` -- the ``weylmin`` command-line tool.

Every public name resolves on first use: ``import weylmin`` loads no
submodule, and ``weylmin.X`` imports only the submodule that defines
``X``, then keeps ``X`` in the package namespace.  ``__all__`` and
``from weylmin import *`` cover every name.  Only the Fock matrices need
numpy: :func:`weylmin.fock.catenoid` and :func:`weylmin.fock.exp_lambda`
import it when called, and the CLI imports the Fock layer only for
``fock`` commands.  Importing the package, or running any command,
``fock catenoid`` included, never loads numpy.
"""

__version__ = "1.0.0"

# Every public name -> the submodule that defines it, in __all__ order.
_SUBMODULE = {
    "Direction": "weyl",
    "DeserializeError": "serialize",
    "FirstFundamental": "surfaces",
    "FockConfig": "fock",
    "GaussRational": "scalars",
    "HBAR": "weyl",
    "HbarPoly": "scalars",
    "HbarRat": "scalars",
    "LAM": "weyl",
    "LAM_STAR": "weyl",
    "NonPolynomialPrimitiveError": "surfaces",
    "NotIntegrableError": "holomorphic",
    "ONE": "weyl",
    "ParseError": "parse",
    "PhiTriple": "holomorphic",
    "PolyLambda": "holomorphic",
    "Provenance": "surfaces",
    "RatLambda": "holomorphic",
    "SCHEMA": "serialize",
    "Surface": "surfaces",
    "U": "weyl",
    "UVPoly": "classical",
    "V": "weyl",
    "VerificationReport": "surfaces",
    "WeylElement": "weyl",
    "ZERO": "weyl",
    "bilinear": "surfaces",
    "catenoid": "fock",
    "check_normal": "surfaces",
    "classical_limit": "classical",
    "classical_limit_fraction": "classical",
    "commutator": "weyl",
    "conjugate_surface": "surfaces",
    "derive_by_commutator": "weyl",
    "dumps_canonical": "serialize",
    "enneper": "surfaces",
    "exp_lambda": "fock",
    "exp_tail_bound": "fock",
    "fg_from_phi": "holomorphic",
    "first_fundamental": "surfaces",
    "from_uv": "weyl",
    "isotropy_check": "holomorphic",
    "mean_curvature_h0": "surfaces",
    "normal_element": "surfaces",
    "parse_rat": "parse",
    "parse_weyl": "parse",
    "phi_components": "surfaces",
    "phi_from_fg": "holomorphic",
    "poly_lambda_text": "render",
    "poly_to_weyl": "holomorphic",
    "rat_text": "render",
    "residual_report": "fock",
    "surface_from_F": "surfaces",
    "surface_from_Ftilde": "surfaces",
    "surface_from_fg": "surfaces",
    "surface_from_obj": "serialize",
    "surface_from_pair": "surfaces",
    "surface_latex": "render",
    "surface_text": "render",
    "surface_to_obj": "serialize",
    "sym": "weyl",
    "verify_minimal": "surfaces",
    "weyl_from_obj": "serialize",
    "weyl_latex": "render",
    "weyl_text": "render",
    "weyl_to_obj": "serialize",
    "weyl_to_poly": "holomorphic",
}

__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
