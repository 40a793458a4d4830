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

Only the Fock matrices need numpy: :func:`weylmin.fock.catenoid` and
:func:`weylmin.fock.exp_lambda` import it when called.  The package
resolves the Fock layer's five exported names (``FockConfig``,
``catenoid``, ``exp_lambda``, ``exp_tail_bound``, ``residual_report``)
on demand, and the CLI imports the layer only for ``fock`` commands.
Importing the package, or running any command, ``fock catenoid``
included, never loads numpy.
"""

from .classical import UVPoly, classical_limit, classical_limit_fraction
from .holomorphic import (
    NotIntegrableError,
    PhiTriple,
    PolyLambda,
    RatLambda,
    fg_from_phi,
    isotropy_check,
    phi_from_fg,
    poly_to_weyl,
    weyl_to_poly,
)
from .parse import ParseError, parse_rat, parse_weyl
from .render import (
    poly_lambda_text,
    rat_text,
    surface_latex,
    surface_text,
    weyl_latex,
    weyl_text,
)
from .scalars import GaussRational, HbarPoly, HbarRat
from .serialize import (
    SCHEMA,
    DeserializeError,
    dumps_canonical,
    surface_from_obj,
    surface_to_obj,
    weyl_from_obj,
    weyl_to_obj,
)
from .surfaces import (
    FirstFundamental,
    NonPolynomialPrimitiveError,
    Provenance,
    Surface,
    VerificationReport,
    bilinear,
    check_normal,
    conjugate_surface,
    enneper,
    first_fundamental,
    mean_curvature_h0,
    normal_element,
    phi_components,
    surface_from_F,
    surface_from_Ftilde,
    surface_from_fg,
    surface_from_pair,
    verify_minimal,
)
from .weyl import (
    HBAR,
    LAM,
    LAM_STAR,
    ONE,
    U,
    V,
    ZERO,
    Direction,
    WeylElement,
    commutator,
    derive_by_commutator,
    from_uv,
    sym,
)

__version__ = "1.0.0"

_FOCK_NAMES = frozenset(
    {"FockConfig", "catenoid", "exp_lambda", "exp_tail_bound", "residual_report"}
)


def __getattr__(name: str):
    if name in _FOCK_NAMES:
        from . import fock

        return getattr(fock, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Direction",
    "DeserializeError",
    "FirstFundamental",
    "FockConfig",
    "GaussRational",
    "HBAR",
    "HbarPoly",
    "HbarRat",
    "LAM",
    "LAM_STAR",
    "NonPolynomialPrimitiveError",
    "NotIntegrableError",
    "ONE",
    "ParseError",
    "PhiTriple",
    "PolyLambda",
    "Provenance",
    "RatLambda",
    "SCHEMA",
    "Surface",
    "U",
    "UVPoly",
    "V",
    "VerificationReport",
    "WeylElement",
    "ZERO",
    "bilinear",
    "catenoid",
    "check_normal",
    "classical_limit",
    "classical_limit_fraction",
    "commutator",
    "conjugate_surface",
    "derive_by_commutator",
    "dumps_canonical",
    "enneper",
    "exp_lambda",
    "exp_tail_bound",
    "fg_from_phi",
    "first_fundamental",
    "from_uv",
    "isotropy_check",
    "mean_curvature_h0",
    "normal_element",
    "parse_rat",
    "parse_weyl",
    "phi_components",
    "phi_from_fg",
    "poly_lambda_text",
    "poly_to_weyl",
    "rat_text",
    "residual_report",
    "surface_from_F",
    "surface_from_Ftilde",
    "surface_from_fg",
    "surface_from_obj",
    "surface_from_pair",
    "surface_latex",
    "surface_text",
    "surface_to_obj",
    "sym",
    "verify_minimal",
    "weyl_from_obj",
    "weyl_latex",
    "weyl_text",
    "weyl_to_obj",
    "weyl_to_poly",
]
