"""JSON documents for algebras and dialgebras.

Schema:

    {
      "field": {"kind": "Q"} | {"kind": "GF", "p": 5},
      "dim": 3,
      "basis": ["x1", "x2", "z"],            # optional
      "products": [[0, 1, 2, "1"], ...],      # sparse (i, j, k, coeff)
      "right_products": [...]                 # dialgebras only
    }

Indices are 0-based, coefficients are scalar strings ("3", "-1/2", or a
GF(p) residue), unlisted products are zero, and at most one entry may
address a given (i, j, k) cell.  `dim`, `p` and indices are JSON integers,
never `true` or `false`.  `write_algebra` emits a canonical document
(sorted product triples), so parse/write round-trips are stable.
"""

from __future__ import annotations

import json

from .algebra import Algebra
from .errors import ParseError, UnsupportedField
from .scalars import Field


def _parse_field(node, location: str) -> Field:
    if not isinstance(node, dict) or "kind" not in node:
        raise ParseError("field must be an object with a 'kind'", location)
    kind = node["kind"]
    if kind == "Q":
        return Field.rationals()
    if kind == "GF":
        if type(node.get("p")) is not int:
            raise ParseError("GF field needs an integer 'p'", location)
        return Field.gf(node["p"])  # rejects 2 and composites
    raise UnsupportedField(f"unknown field kind {kind!r}")


def _parse_products(field: Field, dim: int, entries, location: str) -> dict:
    if not isinstance(entries, list):
        raise ParseError("products must be a list", location)
    rows: dict[tuple, dict] = {}
    for idx, entry in enumerate(entries):
        where = f"{location}[{idx}]"
        if not isinstance(entry, list) or len(entry) != 4:
            raise ParseError("each product entry is [i, j, k, coeff]", where)
        i, j, k, coeff = entry
        for name, val in (("i", i), ("j", j), ("k", k)):
            if type(val) is not int or not 0 <= val < dim:
                raise ParseError(f"index {name}={val!r} out of range 0..{dim - 1}", where)
        row = rows.setdefault((i, j), {})
        if k in row:
            raise ParseError(f"duplicate product entry for ({i}, {j}, {k})", where)
        if isinstance(coeff, str):
            value = field.parse(coeff)
        elif type(coeff) is int:
            value = field.coerce(coeff)
        else:
            raise ParseError(f"coefficient {coeff!r} must be a string", where)
        row[k] = value  # zeros are dropped by `Algebra`
    return rows


def parse_algebra(text: str):
    """Parse a JSON document into an `Algebra` or `Dialgebra`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", f"line {exc.lineno}") from exc
    except RecursionError as exc:  # the decoder recurses once per nested array or object
        raise ParseError("invalid JSON: nested too deeply", "$") from exc
    return algebra_from_doc(doc)


def algebra_from_doc(doc):
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object", "$")
    field = _parse_field(doc.get("field"), "field")
    dim = doc.get("dim")
    if type(dim) is not int or dim < 1:
        raise ParseError("dim must be a positive integer", "dim")
    basis = doc.get("basis")
    if basis is not None:
        if not isinstance(basis, list) or len(basis) != dim or not all(
            isinstance(b, str) for b in basis
        ):
            raise ParseError("basis must list one name per dimension", "basis")
    products = _parse_products(field, dim, doc.get("products", []), "products")
    if "right_products" in doc:
        from .dialg import Dialgebra  # imported only for a dialgebra document

        right = _parse_products(field, dim, doc["right_products"], "right_products")
        return Dialgebra(field, dim, products, right, basis)
    return Algebra(field, dim, products, basis)


def _field_doc(field: Field):
    if field.kind == "Q":
        return {"kind": "Q"}
    return {"kind": "GF", "p": field.p}


def _product_entries(field: Field, algebra: Algebra):
    """[i, j, k, coeff] entries, sorted: `nonzero_products` keeps (i, j, k) order."""
    return [
        [i, j, k, field.format(x)] for i, j, row in algebra.nonzero_products() for k, x in row.items()
    ]


def algebra_to_doc(obj):
    if isinstance(obj, Algebra):
        return {
            "field": _field_doc(obj.field),
            "dim": obj.dim,
            "basis": list(obj.basis_names),
            "products": _product_entries(obj.field, obj),
        }
    from .dialg import Dialgebra

    if isinstance(obj, Dialgebra):
        return {
            "field": _field_doc(obj.field),
            "dim": obj.dim,
            "basis": list(obj.basis_names),
            "products": _product_entries(obj.field, obj.left),
            "right_products": _product_entries(obj.field, obj.right),
        }
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_algebra(obj) -> str:
    """Canonical JSON text; parse(write(x)) is structurally equal to x."""
    return json.dumps(algebra_to_doc(obj), indent=2) + "\n"
