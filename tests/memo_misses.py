"""A memo that counts its misses, to count the solves an `Algebra` holds.

`center` and `derived_ideal` store what they solve in the algebra's own
`_memo`, once per object; each store follows a miss, so the stores of one
key count the solves of it.
"""

from collections import Counter


class CountingMemo(dict):
    """An `Algebra._memo` whose `misses` counts the stores of each key."""

    def __init__(self):
        super().__init__()
        self.misses = Counter()

    def __setitem__(self, key, value):
        self.misses[key] += 1
        super().__setitem__(key, value)


def counting_memo(a):
    """Give `a` an empty `CountingMemo`, as if nothing were solved yet, and return it."""
    a._memo = memo = CountingMemo()
    return memo
