"""The one way a frozen curvlab object stores an array input.

Every array field of a frozen dataclass is replaced, first thing in its
``__post_init__``, by a read-only float64 copy of what the caller passed.  The
object then owns its data: nothing written through the caller's array reaches
it, the caller's array stays writable, and lists or int arrays are stored as
the same float arrays as their float equivalents.  The expected shape is
checked here too; a ``None`` entry matches any length.
"""

import numpy as np


def store(instance, name: str, shape: tuple) -> np.ndarray:
    """Replace field ``name`` of the frozen ``instance`` by a read-only float64
    copy of its value and return the copy, for the caller's checks.

    Raises ValueError naming the field when the copy does not have ``shape``.
    """
    value = np.array(getattr(instance, name), dtype=float)
    if value.ndim != len(shape) or any(
            want is not None and want != got for want, got in zip(shape, value.shape)):
        raise ValueError(f"{name} must have shape {shape}, got {value.shape}")
    value.setflags(write=False)
    object.__setattr__(instance, name, value)
    return value
