"""Grid-scale recovery of weighted composition symbols on an interval and a disc.

A surjective sup-seminorm isometry of continuous functions factors as a
unimodular weight times composition with a homeomorphism; on a finite
grid the factorization is recovered node by node and certified with
surjectivity, injectivity, and reconstruction checks.  The zigzag fold
at the end preserves every seminorm without being injective, and the
certificate catches it while the node-functional bound still holds.
"""

import argparse

import numpy as np

from isolab.contspace import (
    DiscGrid,
    Exhaustion1D,
    ExhaustionDisc,
    GridFunction,
    IntervalGrid,
    NotWeightedComposition,
    build_zigzag_fold,
    decomposition_bound_check,
    isometry_test_grid,
    make_composition_operator,
    random_annulus_homeo,
    random_interval_homeo,
    random_probe,
    recover_weight_and_map,
    unimodular_field,
)


def section(text):
    print()
    print("==", text)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)

    exh = Exhaustion1D.default(3)
    grid = IntervalGrid.build(exh, 2048)
    print(f"interval exhaustion levels: {exh.intervals.tolist()}")
    print(f"grid: {len(grid.array)} nodes, cell {grid.cell:.2e}")

    section("hidden decreasing symbol on the interval")
    h = unimodular_field(grid, rng)
    phi = random_interval_homeo(exh, rng, "decreasing")
    T = make_composition_operator(h, phi)
    sym = recover_weight_and_map(T, exh, grid, rng=rng)
    werr = np.max(np.abs(sym.weight.array - h.array))
    merr = np.max(np.abs(sym.point_map.array - phi(grid.array)))
    print(f"weight error at nodes {werr:.2e}, map error {merr:.2e} (cell {grid.cell:.2e})")
    print("level endpoints swap under the decreasing orientation:")
    for a, b in exh.intervals:
        print(f"  phi({a:+.2f}) = {phi(np.array([a]))[0]:+.5f}   phi({b:+.2f}) = {phi(np.array([b]))[0]:+.5f}")

    section("a non-unimodular weight is refused by name")
    bad = make_composition_operator(GridFunction.constant(grid, 2.0), lambda x: x)
    try:
        recover_weight_and_map(bad, exh, grid, rng=rng)
    except NotWeightedComposition as err:
        print(f"rejected at check '{err.check}'")

    section("zigzag fold: isometric, not a composition")
    zig = build_zigzag_fold(exh, grid)
    T = make_composition_operator(GridFunction.constant(grid, 1.0), zig)
    probes = [GridFunction.constant(grid, 1.0), GridFunction.coordinate(grid)]
    probes += [random_probe(grid, rng) for _ in range(6)]
    iso = isometry_test_grid(T, exh, probes)
    print(f"isometry test: max gap {iso.max_gap:.2e} within budget {iso.budget:.2e} -> passed={iso.passed}")
    try:
        recover_weight_and_map(T, exh, grid, rng=rng)
    except NotWeightedComposition as err:
        print(f"recovery refused at '{err.check}' with {err.certificate['collapsed_pairs']} collapsed node pairs")
    rep = decomposition_bound_check(T, exh, probes[2:])
    print(f"node-functional bound: worst slack {rep.worst_slack:.3e}, dual norm max {rep.dual_norm_max:.6f}")

    section("disc: radial twist recovered on a polar grid")
    dexh = ExhaustionDisc.default()
    dgrid = DiscGrid.build(dexh, 128, 256)
    h = unimodular_field(dgrid, rng)
    twist = random_annulus_homeo(dexh, rng)
    mapped = twist(dgrid.nodes)
    circle_gap = np.max(np.abs(np.abs(mapped) - np.abs(dgrid.nodes)))
    sym = recover_weight_and_map(make_composition_operator(h, twist), dexh, dgrid, rng=rng)
    werr = np.max(np.abs(sym.weight.array - h.array))
    merr = np.max(np.abs(sym.point_map.array - mapped))
    print(f"exhaustion circles preserved to {circle_gap:.2e}")
    print(f"weight error {werr:.2e}, map error {merr:.2e} (cell {dgrid.cell:.2e})")


if __name__ == "__main__":
    main()
