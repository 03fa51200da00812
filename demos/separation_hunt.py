"""Separating seminorm vectors by dilating the metric.

Two vectors with the same weighted gauge sum can still be told apart:
dilate both by a parameter t and compare the resulting moment curves.
Distinct-as-measure vectors always split somewhere; vectors that agree
as measures (same entries with multiplicity, under uniform weights)
never do.
"""

import argparse

import numpy as np

from isolab.gauges import make_builtin_gauge
from isolab.metric import (
    SeminormVector,
    WeightSequence,
    count_support_start,
    metric_value,
    moment_curve,
    separate,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)

    g = make_builtin_gauge("rational", alpha=2.0)
    w = WeightSequence.uniform(2)
    # chosen so the weighted gauge sums agree to machine precision:
    # theta(1.5) + theta(1.2445...) = theta(1) + theta(2)
    a = SeminormVector((1.0, 2.0))
    b = SeminormVector((1.2445961625535962, 1.5))

    print("vector a:", a.values.tolist())
    print("vector b:", b.values.tolist())
    da = metric_value(g, w, a)
    db = metric_value(g, w, b)
    print(f"metric of a: [{da.lower:.16f}, {da.upper:.16f}]")
    print(f"metric of b: [{db.lower:.16f}, {db.upper:.16f}]")
    print("identical at unit dilation; only the curves below can tell them apart")

    res = separate(g, w, a, b)
    print(f"\nverdict: {res.verdict}, gap {res.gap:.3e} at t = {res.t_star:.4f}")
    ts = np.array([0.1, res.t_star, 10.0])
    print("moment curves near the witness dilation:")
    for t, va, vb in zip(ts, moment_curve(g, w, a, ts), moment_curve(g, w, b, ts)):
        print(f"  t = {t:8.4f}   a: {va:.6f}   b: {vb:.6f}   |gap| {abs(va - vb):.3e}")

    print("\nPermuting a vector leaves its measure unchanged:")
    perm = SeminormVector(np.sort(rng.permutation(a.values)))
    res = separate(g, w, a, perm)
    print(f"  a vs shuffled a -> {res.verdict}")

    print("\nRandom pairs, three gauges, 200-point dilation grid:")
    for name in ("clip", "rational", "exp"):
        gg = make_builtin_gauge(name)
        gaps = []
        for _ in range(200):
            n = int(rng.integers(1, 9))
            ww = WeightSequence.uniform(n)
            va = SeminormVector(np.sort(rng.uniform(0.1, 10.0, n)))
            vb = SeminormVector(np.sort(rng.uniform(0.1, 10.0, n)))
            r = separate(gg, ww, va, vb)
            if r.verdict == "separated":
                gaps.append(r.gap)
        print(f"  {name:10s} separated {len(gaps):3d}/200, smallest gap {min(gaps):.3e}")

    print("\nCounting leading zeros from dilated sums alone:")
    a = SeminormVector((0.0, 0.0, 0.7, 3.0))
    k = count_support_start(make_builtin_gauge("exp"), WeightSequence.uniform(4), a, t_large=1e5)
    print(f"  vector {a.values.tolist()} -> support starts at index {k}")


if __name__ == "__main__":
    main()
