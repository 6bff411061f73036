"""Equality of two ``bit_generator.state`` dicts.

An SFC64 state holds its words in a uint64 array, whose ``==`` is
elementwise, so the dicts cannot be compared with ``==``.  ``same_state``
compares them field by field, arrays by dtype and ``np.array_equal``.
"""

import numpy as np


def same_state(a, b) -> bool:
    """True iff the states a and b hold the same fields and values."""
    if isinstance(a, dict) or isinstance(b, dict):
        return (isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys()
                and all(same_state(a[k], b[k]) for k in a))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and np.array_equal(a, b))
    return a == b
