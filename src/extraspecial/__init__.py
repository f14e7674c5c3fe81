"""Exact-arithmetic toolkit for extra special associative and Leibniz algebras.

Build the canonical families, verify defining identities, compute centers,
derived ideals, Schur multipliers through second cohomology, covers, Z*,
capability and unicentrality, and classify extra special algebras into
canonical central-sum blocks via bilinear-form congruence.
"""

from .algebra import (
    Algebra,
    IdentityKind,
    center,
    check_identity,
    derived_ideal,
    identity_violation,
    is_extra_special,
    multiply,
)
from .catalog import (
    BlockDescriptor,
    central_sum,
    make_canonical,
    make_from_text,
    normalize_lambda,
    parse_descriptor,
)
from .cohomology import (
    VALIDATED_LEIBNIZ,
    CocycleSpace,
    CoverExtension,
    cocycle_space,
    cover,
    is_capable,
    is_unicentral,
    multiplier_dim,
    z_star,
)
from .dialg import Dialgebra, embed_associative, induced_leibniz, is_diassociative
from .forms import (
    BilinearForm,
    BlockDecomposition,
    algebra_from_form,
    classify,
    cosquare,
    form_of,
    regularize,
)
from .linalg import JordanStructure, Matrix, Subspace
from .scalars import Field, Fp
from .serialize import parse_algebra, write_algebra

__all__ = [
    "Algebra",
    "BilinearForm",
    "BlockDecomposition",
    "BlockDescriptor",
    "CocycleSpace",
    "CoverExtension",
    "Dialgebra",
    "Field",
    "Fp",
    "IdentityKind",
    "JordanStructure",
    "Matrix",
    "Subspace",
    "VALIDATED_LEIBNIZ",
    "algebra_from_form",
    "center",
    "central_sum",
    "check_identity",
    "classify",
    "cocycle_space",
    "cosquare",
    "cover",
    "derived_ideal",
    "embed_associative",
    "form_of",
    "identity_violation",
    "induced_leibniz",
    "is_capable",
    "is_diassociative",
    "is_extra_special",
    "is_unicentral",
    "make_canonical",
    "make_from_text",
    "multiplier_dim",
    "multiply",
    "normalize_lambda",
    "parse_algebra",
    "parse_descriptor",
    "regularize",
    "write_algebra",
    "z_star",
]

__version__ = "0.1.0"
