"""The value layout every validated model class shares."""

from dataclasses import fields

import numpy as np


def store(obj, dtype=None, copy=True, **arrays):
    """Set each array on obj under its name, read-only, row-major (a matrix
    product's bits depend on the layout) and of dtype; return them in order.

    copy=True stores one copy of a caller's input, converted on the way;
    copy=None keeps an array obj built itself when it already fits.
    """
    stored = [np.array(a, dtype, order="C", copy=copy) for a in arrays.values()]
    for name, a in zip(arrays, stored):
        a.setflags(write=False)
        object.__setattr__(obj, name, a)
    return stored


class Frozen:
    """Element-wise equality for frozen dataclasses that store arrays.

    A subclass is declared with eq=False, so it keeps this __eq__ and no
    __hash__: values holding arrays are unhashable.  Equal means the same
    type and every compared field equal element for element, the object
    itself first, since models compare their exhaustions and grids per call.
    """

    def __eq__(self, other):
        return other is self or type(other) is type(self) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self) if f.compare
        )
