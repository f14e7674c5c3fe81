"""Exact-arithmetic toolkit for extra special associative and Leibniz algebras.

Build the canonical families, verify defining identities, compute centers,
derived ideals, Schur multipliers through second cohomology, covers, Z*,
capability and unicentrality, and classify extra special algebras into
canonical central-sum blocks via bilinear-form congruence.

The public names are loaded lazily (PEP 562): `import extraspecial` imports
no submodule, and the first read of a name imports the module that defines
it.  So a `python -m extraspecial` process loads only what its command runs.
"""

import importlib

#: defining module -> the public names it exports
_EXPORTS = {
    "algebra": ("Algebra", "IdentityKind", "center", "check_identity", "derived_ideal",
                "identity_violation", "is_extra_special", "multiply"),
    "catalog": ("BlockDescriptor", "central_sum", "make_canonical", "make_from_text",
                "normalize_lambda", "parse_descriptor"),
    "cohomology": ("VALIDATED_LEIBNIZ", "CocycleSpace", "CoverExtension", "cocycle_space", "cover",
                   "is_capable", "is_unicentral", "multiplier_dim", "z_star"),
    "dialg": ("Dialgebra", "embed_associative", "induced_leibniz", "is_diassociative"),
    "forms": ("BilinearForm", "BlockDecomposition", "algebra_from_form", "classify", "cosquare",
              "form_of", "regularize"),
    "linalg": ("JordanStructure", "Matrix", "Subspace"),
    "scalars": ("Field", "Fp"),
    "serialize": ("parse_algebra", "write_algebra"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted(globals().keys() | _MODULE_OF.keys())
