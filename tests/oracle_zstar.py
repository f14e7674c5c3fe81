"""The cover route to Z*, kept as an oracle for `cohomology.z_star`.

`z_star` reads Z* as the annihilator of the associative cocycle space and
never builds a cover.  This route builds the cover, solves the center of
its (dim + h2)-dimensional total algebra and drops the kernel coordinates,
which is Z* by definition: the image of the cover's center under the
covering projection.
"""

from extraspecial.algebra import center
from extraspecial.cohomology import cover
from extraspecial.linalg import Subspace


def cover_z_star(a):
    """Z* of an associative algebra, projected from the center of `cover(a).total`."""
    cov = cover(a)
    rows = [{c: x for c, x in row.items() if c < cov.base_dim} for row in center(cov.total).pivots.values()]
    return Subspace(a.field, a.dim, rows)
