"""isolab: a numerical laboratory for seminorm metrics and linear isometries.

The package has five working parts:

- gauges: bounded compressing gauges, admissibility checks, dilation
  integrals, the shift kernel with its Fourier transform, and the panel
  mesh and refinement loop behind every integral;
- metric: weighted seminorm metrics, moment curves, separation searches,
  and support-start counting for truncated weight representations;
- recovery: reconstruction of an atomic measure from its kernel-smoothed
  observation via Fourier division, pencil initialization, and refinement;
- holodisc: truncated Taylor models on the unit disc, circle seminorms,
  isometry testing and characterization, and the three-circle inequality;
- contspace: grid models of continuous functions on an interval or disc,
  weighted composition operators, recovery of their parts, and the
  pointwise decomposition bound for nonsurjective isometries.

`isolab.__all__` concatenates the `__all__` of those five modules, and the
package exports nothing else; each module's `__all__` is the one export
list.  `import isolab` loads none of them: the first access to an exported
name or to `__all__` imports all five, and a submodule attribute such as
`isolab.contspace` imports just that module.

A CLI (`isolab`, or `python -m isolab`) exposes every capability with
deterministic flat-text reports; each subcommand imports only the modules
it runs.
"""

import importlib

_LIBRARY = ("gauges", "metric", "recovery", "holodisc", "contspace")
_SUBMODULES = (*_LIBRARY, "cli", "io_formats")

__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name == "__all__" or not name.startswith("_"):
        modules = [importlib.import_module(f".{m}", __name__) for m in _LIBRARY]
        exports = globals()
        exports.update((n, getattr(m, n)) for m in modules for n in m.__all__)
        exports["__all__"] = [n for m in modules for n in m.__all__]
        if name in exports:
            return exports[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
