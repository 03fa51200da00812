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
list.

A CLI (`isolab`, or `python -m isolab`) exposes every capability with
deterministic flat-text reports.
"""

from . import contspace, gauges, holodisc, metric, recovery
from .contspace import *
from .gauges import *
from .holodisc import *
from .metric import *
from .recovery import *

__all__ = [
    *gauges.__all__,
    *metric.__all__,
    *recovery.__all__,
    *holodisc.__all__,
    *contspace.__all__,
]

__version__ = "0.1.0"
