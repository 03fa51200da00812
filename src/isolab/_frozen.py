"""The layouts every library model shares: read-only arrays and element-wise
equality for values (store, Frozen), one flat record for verdicts (Report,
Refusal)."""

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


_SCALARS = (bool, int, float, complex, str, np.generic)


def _entries(name: str, d: dict) -> dict:
    return {f"{name}.{k}": d[k] for k in sorted(d)}


class Report:
    """A dataclass verdict whose record holds each scalar field by name, a dict
    field's entries as <field>.<key> in key order, and passed where the class
    defines it; None and every other type (a recovered model) stay out."""

    def as_record(self) -> dict:
        rec = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, _SCALARS):
                rec[f.name] = v
            elif isinstance(v, dict):
                rec.update(_entries(f.name, v))
        if hasattr(type(self), "passed"):
            rec["passed"] = self.passed
        return rec


class Refusal(RuntimeError):
    """A claim refused at the named .check: .details holds what broke it, and
    .certificate a copy of the values measured up to and including it."""

    claim = ""  # the verdict that opens the message, set by each subclass

    def __init__(self, check: str, details: str, certificate: dict):
        super().__init__(f"{self.claim}: {check}" + (f" ({details})" if details else ""))
        self.check = check
        self.details = details
        self.certificate = dict(certificate)

    @classmethod
    def unless_within(cls, certificate: dict, key: str, value, bound, check, details, *extra):
        """The one pass rule of every certificate check: record value under key, then
        raise cls(check, details, certificate, *extra) unless value <= bound, so a NaN refuses."""
        certificate[key] = value
        if not value <= bound:
            raise cls(check, details, certificate, *extra)

    def as_record(self) -> dict:
        return {"failed_check": self.check, **_entries("certificate", self.certificate)}
