"""Recovering an atomic measure from its gauge-smoothed observation.

The forward model smears each atom through the gauge's shifted profile;
recovery divides out the profile in frequency space, reads first atoms
off the resulting exponential sum, and refines them against the samples
through the same forward model.  The demo walks one clean roundtrip,
then two honest failure modes: atoms closer than the window resolves,
and an observation that is not actually a smeared atomic measure.
"""

import numpy as np

from isolab.gauges import make_builtin_gauge
from isolab.recovery import (
    LogMeasure,
    RecoveryFailed,
    RecoverySpec,
    fourier_from_samples,
    recover_measure,
    roundtrip_check,
    smoothed_curve_samples,
)

g = make_builtin_gauge("exp")
spec = RecoverySpec()

print("== clean roundtrip ==")
nu = LogMeasure((-1.2, 0.3), (0.35, 0.4))
print("true atoms:     ", list(zip(nu.positions.tolist(), nu.masses.tolist())))
s, h = smoothed_curve_samples(g, nu, spec)
rec = recover_measure(g, s, h, spec, atom_budget=4)
got = zip(rec.positions.tolist(), rec.masses.tolist())
print("recovered atoms:", [(round(p, 10), round(m, 10)) for p, m in got])
rep = roundtrip_check(g, nu, spec, 4)
print(f"position error {rep.max_position_error:.2e}, mass error {rep.max_mass_error:.2e}, residual {rep.residual:.2e}")

print("\n== zero-frequency sanity: integral = mass * shift ==")
z0 = fourier_from_samples(s, h, np.array([0.0]))[0]
print(f"transform at 0: {z0.real:.8f}  vs  mass*shift = {nu.total_mass * spec.shift:.8f}")

print("\n== atoms below the window resolution ==")
close = LogMeasure((0.0, 2e-4), (0.3, 0.3))
rep = roundtrip_check(g, close, spec, 2)
print(f"passed: {rep.passed}, failed_check {rep.failed_check} "
      f"(recovered {len(rep.recovered.positions)} atom(s) where 2 were planted)")

print("\n== observation that is not a smeared atomic measure ==")
bad = h + 1e-3 * np.sin(5.0 * s)
try:
    recover_measure(g, s, bad, spec, atom_budget=4)
except RecoveryFailed as err:
    print(f"refused: {err}")
    print(f"check {err.check!r}: best candidate kept {len(err.candidate.positions)} atoms "
          f"at residual {err.certificate['residual']:.2e}")
