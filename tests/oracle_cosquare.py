"""Independent cosquare oracle for the block classification of invertible forms.

For an invertible form M the cosquare C = M^(-T) M is a congruence invariant
up to similarity, and its Jordan blocks name the canonical congruence blocks
of Horn & Sergeichuk, "Canonical forms for complex matrix congruence and
*congruence" (LAA 2006): a block of size s at eigenvalue (-1)^(s+1) is
Gamma_s (J1 when s = 1), and every other block pairs with one of the same
size at the inverse eigenvalue into H_2s(mu).

`classify` reads the same data from the pencil M^T + t M instead.  The two
routes share the form extraction, the root search (`roots_in_field`, which
`tests/test_linalg.py` checks against brute force on its own) and the final
normalization: the inverse, the Berkowitz characteristic polynomial, the
rank sequence and the pairing below run here and nowhere in `classify`.
"""

from extraspecial.catalog import BlockDescriptor
from extraspecial.forms import BlockDecomposition, cosquare, form_of


def cosquare_blocks(a):
    """Block decomposition of an algebra with an invertible form, via its cosquare."""
    field = a.field
    jordan = list(cosquare(form_of(a)).jordan_structure().blocks)
    descriptors = []
    while jordan:
        mu, size = jordan.pop(0)
        if mu == (field.one if size % 2 else -field.one):
            descriptors.append(
                BlockDescriptor("j", 1) if size == 1 else BlockDescriptor("gamma", size)
            )
            continue
        partner = (field.one / mu, size)
        if partner not in jordan:
            raise AssertionError(f"cosquare block of size {size} at {mu} has no partner")
        jordan.remove(partner)
        descriptors.append(BlockDescriptor("h", size, mu))
    return BlockDecomposition(field, descriptors)
