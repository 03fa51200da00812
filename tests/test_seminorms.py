"""The sequence form of every seminorm evaluator: a scalar radius or level
gives a float scalar, an array gives an array of the same shape that
agrees with one call per element, and a radius or level outside the family
raises."""

import numpy as np
import pytest

from isolab.contspace import Exhaustion1D, GridFunction, IntervalGrid, sup_seminorm_grid
from isolab.holodisc import TaylorFunction, hp_seminorm, sup_seminorm

F = TaylorFunction((1.0, -0.5, 0.25j, 0.3, 0.0, -0.2))
EXH = Exhaustion1D.default(3)
X = GridFunction.coordinate(IntervalGrid.build(EXH, 512))  # |x| grows from level to level
RADII = np.array([0.1, 0.35, 0.6, 0.85])

CASES = {
    # evaluator, a (k,) input, relative tolerance against per-element calls, inputs that raise
    "sup": (lambda r: sup_seminorm(F, r), RADII, 4e-16, [np.nan, [0.5, np.nan], 1.0]),
    "hp": (lambda r: hp_seminorm(F, 3, r), RADII, 0.0, [np.nan, [0.5, np.nan], 0.0]),
    "grid": (lambda n: sup_seminorm_grid(X, n, EXH), np.arange(EXH.levels), 0.0,
             [-1, EXH.levels, [0, EXH.levels]]),
}


@pytest.mark.parametrize("name", CASES)
def test_seminorm_takes_a_scalar_or_an_array(name):
    evaluate, xs, rel, bad = CASES[name]
    one = evaluate(xs[0])
    assert isinstance(one, float) and np.ndim(one) == 0
    batch = evaluate(xs)
    assert batch.shape == xs.shape
    single = np.array([evaluate(x) for x in xs])
    assert np.all(np.abs(batch - single) <= rel * single)
    assert len(set(single.tolist())) == xs.size  # the elements tell the entries apart
    for x in bad:
        with pytest.raises(ValueError):
            evaluate(x)
