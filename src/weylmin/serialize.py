"""Canonical JSON serialization.

Every document carries ``"schema": "weylmin/1"``.  Element records are
emitted in the canonical storage order (bidegrees by (k+l, k), h-degrees
ascending), and rationals as separate numerator/denominator integers, so
serialization is deterministic down to the byte and golden files can be
compared exactly.  ``dumps_canonical`` writes the one textual layout:
two-space indent, sorted keys, ASCII-escaped strings, integers as JSON
integers, floats by ``repr``, NaN and infinities refused, and a trailing
newline.  Its bytes are those of ``json.dumps(obj, indent=2,
sort_keys=True, allow_nan=False)``, written by one small recursive writer
instead of the standard library's pure-Python encoder (its C encoder runs
only without ``indent``), which recurses only into containers.  The
writer loads no :mod:`json`: it quotes strings with the C function that
``json`` itself binds, and writes integers, finite floats, booleans and
None directly.  Only what it cannot write, a NaN or an infinity (json's
ValueError), a key that is not a string, or a value of another type, goes
to ``json.dumps``.
Elements are read through :func:`weylmin.weyl.coefficients` and
Lambda-polynomials through :func:`~weylmin.scalars.grouped`, which it
calls: both give each part as integers in lowest terms, and one function
writes the records of both.  Each function imports the layers it uses,
the kernel (:mod:`weylmin.scalars`) included, so writing a Fock report
loads no algebra layer.
"""

from __future__ import annotations

from fractions import Fraction
from math import isfinite
from typing import TYPE_CHECKING

try:
    from _json import encode_basestring_ascii as _quote
except ImportError:  # pragma: no cover - an interpreter without the C accelerator
    from json.encoder import encode_basestring_ascii as _quote

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .holomorphic import PolyLambda, RatLambda
    from .scalars import Coeff, HbarPoly
    from .surfaces import Surface, VerificationReport
    from .weyl import WeylElement

SCHEMA = "weylmin/1"


class DeserializeError(ValueError):
    """Malformed or wrong-schema input document."""


def dumps_canonical(obj: dict) -> str:
    """The one true JSON layout for files and stdout (see the module
    docstring); strict JSON, so NaN and infinities raise ValueError, and an
    object JSON cannot hold raises TypeError, as ``json.dumps`` does."""
    out: list[str] = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _key(k: object) -> str:
    """A dict key as JSON writes it: a string, or a number, bool or None as text."""
    if isinstance(k, str):
        return _quote(k)
    if k is None or isinstance(k, (int, float)):
        import json

        return _quote(json.dumps(k, allow_nan=False))
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _write(x: object, nl: str, out: list[str]) -> None:
    """Append ``x`` to ``out`` in the canonical layout; ``nl`` is the newline and indent
    ``x`` starts on.  Strings, integers, finite floats, booleans and None are written
    here, a dict's in its own loop, by sorted keys (no two are equal: sorted items),
    every other scalar by ``json.dumps``."""
    if type(x) is str:
        out.append(_quote(x))
    elif type(x) is int:
        out.append(f"{x}")
    elif isinstance(x, dict):
        inner = nl + "  "
        sep, comma = "{" + inner, "," + inner
        for k in sorted(x):
            v = x[k]
            k = _quote(k) if type(k) is str else _key(k)
            if type(v) is int:
                out.append(f"{sep}{k}: {v}")
            elif type(v) is str:
                out.append(f"{sep}{k}: {_quote(v)}")
            else:
                out.append(f"{sep}{k}: ")
                _write(v, inner, out)
            sep = comma
        out.append(nl + "}" if x else "{}")
    elif isinstance(x, (list, tuple)):
        inner = nl + "  "
        sep, comma = "[" + inner, "," + inner
        for v in x:
            out.append(sep)
            _write(v, inner, out)
            sep = comma
        out.append(nl + "]" if x else "[]")
    elif x is True:
        out.append("true")
    elif x is False:
        out.append("false")
    elif x is None:
        out.append("null")
    elif type(x) is float and isfinite(x):
        out.append(repr(x))
    else:
        import json

        out.append(json.dumps(x, allow_nan=False))


# -- scalars -----------------------------------------------------------------


def _coeff_to_obj(coeffs: Coeff) -> list[dict]:
    """The one coefficient record writer, for the integer records of
    :func:`~weylmin.scalars.grouped`."""
    return [{"hbar_deg": d, "re_num": a, "re_den": p, "im_num": b, "im_den": q}
            for d, a, p, b, q in coeffs]


def _field(rec: object, name: str) -> object:
    try:
        return rec[name]
    except (KeyError, TypeError) as exc:
        raise DeserializeError(f"record has no field {name!r}") from exc


def _exact(rec: object, name: str, typ: type = int):
    """The value in field ``name`` if its type is exactly ``typ``: a float or
    a bool is not an integer, and a number or an object is not a string."""
    x = _field(rec, name)
    if type(x) is not typ:
        import json

        got = json.dumps(x, default=repr)
        noun = "an integer" if typ is int else "a string"
        raise DeserializeError(f"field {name!r} must be {noun}, got {got}")
    return x


def _rational(rec: object, num: str, den: str) -> Fraction:
    d = _exact(rec, den)
    if not d:
        raise DeserializeError(f"field {den!r} must be nonzero")
    return Fraction(_exact(rec, num), d)


def _coeff_from_obj(obj: object) -> HbarPoly:
    from .scalars import GaussRational, HbarPoly

    if not isinstance(obj, list):
        raise DeserializeError("coefficient must be a list of records")
    return HbarPoly(
        (_exact(rec, "hbar_deg"),
         GaussRational(_rational(rec, "re_num", "re_den"), _rational(rec, "im_num", "im_den")))
        for rec in obj
    )


# -- algebra elements --------------------------------------------------------


def weyl_to_obj(a: WeylElement) -> list[dict]:
    from .weyl import coefficients

    return [{"k": k, "l": l, "coeff": _coeff_to_obj(c)} for (k, l), c in coefficients(a).items()]


def weyl_from_obj(obj: object) -> WeylElement:
    from .weyl import WeylElement

    if not isinstance(obj, list):
        raise DeserializeError("element must be a list of term records")
    return WeylElement(
        ((_exact(rec, "k"), _exact(rec, "l")), _coeff_from_obj(_field(rec, "coeff"))) for rec in obj
    )


def poly_to_obj(p: PolyLambda) -> list[dict]:
    from .scalars import grouped

    return [{"deg": d, "coeff": _coeff_to_obj(c)} for (d,), c in grouped(p.rows, p.den, 1).items()]


def poly_from_obj(obj: object) -> PolyLambda:
    from .holomorphic import PolyLambda

    if not isinstance(obj, list):
        raise DeserializeError("polynomial must be a list of records")
    return PolyLambda((_exact(rec, "deg"), _coeff_from_obj(_field(rec, "coeff"))) for rec in obj)


def rat_to_obj(r: RatLambda) -> dict:
    return {"num": poly_to_obj(r.num), "den": poly_to_obj(r.den)}


def rat_from_obj(obj: object) -> RatLambda:
    from .holomorphic import RatLambda

    num, den = poly_from_obj(_field(obj, "num")), poly_from_obj(_field(obj, "den"))
    if den.is_zero():
        raise DeserializeError("rational function has a zero denominator")
    return RatLambda(num, den)


# -- surfaces ----------------------------------------------------------------


def _param_to_obj(name: str, value) -> dict:
    from .holomorphic import PolyLambda, RatLambda

    if isinstance(value, RatLambda):
        return {"name": name, "type": "rat", "value": rat_to_obj(value)}
    if isinstance(value, PolyLambda):
        return {"name": name, "type": "poly", "value": poly_to_obj(value)}
    raise TypeError(f"unsupported provenance parameter {type(value).__name__}")


def _param_from_obj(obj: object) -> tuple[str, object]:
    name, typ, value = _exact(obj, "name", str), _field(obj, "type"), _field(obj, "value")
    if typ == "rat":
        return name, rat_from_obj(value)
    if typ == "poly":
        return name, poly_from_obj(value)
    raise DeserializeError(f"unknown parameter type {typ!r}")


def surface_to_obj(s: Surface) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "surface",
        "n": s.n,
        "offsets": [{"num": x.numerator, "den": x.denominator} for x in s.offsets],
        "components": [weyl_to_obj(c) for c in s.components],
        "provenance": {
            "kind": s.provenance.kind,
            "params": [_param_to_obj(n, v) for n, v in s.provenance.params],
            "primitives": [poly_to_obj(p) for p in s.provenance.primitives],
        },
    }


def surface_from_obj(obj: object) -> Surface:
    from .holomorphic import poly_real_part
    from .surfaces import Provenance, Surface

    if not isinstance(obj, dict):
        raise DeserializeError("surface document must be an object")
    if obj.get("schema") != SCHEMA:
        raise DeserializeError(
            f"unsupported schema {obj.get('schema')!r}; expected {SCHEMA!r}"
        )
    if obj.get("kind") != "surface":
        raise DeserializeError("document is not a surface")
    try:
        comps = tuple(weyl_from_obj(c) for c in obj["components"])
        offsets = tuple(_rational(x, "num", "den") for x in obj["offsets"])
        prov_obj = obj["provenance"]
        prov = Provenance(
            kind=_exact(prov_obj, "kind", str),
            params=tuple(_param_from_obj(p) for p in prov_obj["params"]),
            primitives=tuple(poly_from_obj(p) for p in prov_obj["primitives"]),
        )
    except (KeyError, TypeError) as exc:
        raise DeserializeError(f"bad surface document: {exc}") from exc
    if "n" in obj and _exact(obj, "n") != len(comps):
        raise DeserializeError("component count does not match n")
    if len(offsets) != len(comps):
        raise DeserializeError(f"document lists {len(offsets)} offsets for {len(comps)} components")
    if len(prov.primitives) not in (0, len(comps)):
        raise DeserializeError(f"provenance lists {len(prov.primitives)} primitives "
                               f"for {len(comps)} components")
    s = Surface(comps, offsets, prov)
    for i, (c, off, p) in enumerate(zip(comps, offsets, prov.primitives), start=1):
        if c != poly_real_part(p) + off:
            raise DeserializeError(f"component X{i} is not its offset plus Re of its primitive")
    return s


def report_to_obj(rep: VerificationReport) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "verification",
        "passes": rep.passes,
        "hermitian": list(rep.hermitian),
        "harmonic": list(rep.harmonic),
        "conformal": rep.conformal,
        "witnesses": {name: weyl_to_obj(w) for name, w in rep.witnesses},
    }


def fock_report_to_obj(report: dict) -> dict:
    return {"schema": SCHEMA, "kind": "fock-residuals", **report}
