"""The one way a frozen curvlab object stores an array input.

Every array field of a frozen dataclass is replaced, first thing in its
``__post_init__``, by a read-only float64 copy of what the caller passed.  The
object then owns its data: nothing written through the caller's array reaches
it, the caller's array stays writable, and lists or int arrays are stored as
the same float arrays as their float equivalents.
"""

import numpy as np


def store(instance, name: str) -> np.ndarray:
    """Replace field ``name`` of the frozen ``instance`` by a read-only float64
    copy of its value and return the copy, for the caller's checks."""
    value = np.array(getattr(instance, name), dtype=float)
    value.setflags(write=False)
    object.__setattr__(instance, name, value)
    return value
