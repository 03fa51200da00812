"""Isometries of polynomials on disc exhaustions, identified from a matrix.

A coefficient rotation f(z) -> alpha f(beta z) with |alpha| = |beta| = 1
preserves the sup and p-mean seminorms on every circle.  The scripts
below hand the characterizer nothing but an opaque coefficient matrix
and watch it pull the two unimodular symbols back out, then show the
certificate refusing operators that only look similar.
"""

import argparse

import numpy as np

from isolab.holodisc import (
    DiscExhaustion,
    HpFamily,
    MatrixOperator,
    NotCharacterizable,
    RotationOperator,
    SupFamily,
    TaylorFunction,
    WeightedCompositionOperator,
    characterize_isometry,
    isometry_test,
    operator_matrix,
    random_taylor,
    standard_probes,
    three_circle_check,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)

    circles = DiscExhaustion.default(4)
    alpha = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
    beta = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
    secret = operator_matrix(RotationOperator(alpha, beta), 24)
    print(f"hidden symbols: alpha = {alpha:.12f}, beta = {beta:.12f}")

    print("\nisometry test across seminorm families:")
    probes = standard_probes(rng, degree=10)
    for fam in (SupFamily(), HpFamily(1), HpFamily(2), HpFamily(3)):
        rep = isometry_test(secret, fam, circles, probes, tol=1e-5)
        print(f"  {rep.family:8s} max gap {rep.max_gap:.3e}  passed={rep.passed}")

    print("\ncharacterization from the matrix alone:")
    for fam in (SupFamily(), HpFamily(1), HpFamily(3)):
        ch = characterize_isometry(secret, circles, fam, rng=np.random.default_rng(1))
        err = abs(ch.scalar_alpha - alpha) + abs(ch.scalar_beta - beta)
        print(f"  {fam.label:8s} alpha-hat {ch.scalar_alpha:.12f}  symbol error {err:.2e}")

    print("\nthe p=2 family computes identically but waives its guarantee:")
    ch = characterize_isometry(secret, circles, HpFamily(2), rng=np.random.default_rng(1))
    print(f"  certificate carries no_theorem_guarantee = {ch.certificate['no_theorem_guarantee']}")

    print("\noperators the certificate rejects:")
    for label, op in (
        ("2 * identity", MatrixOperator(2 * np.eye(12))),
        ("f(z) -> f(z^2)", WeightedCompositionOperator(TaylorFunction.one(), TaylorFunction.monomial(2))),
    ):
        try:
            characterize_isometry(op, circles, SupFamily())
            print(f"  {label}: accepted (unexpected)")
        except NotCharacterizable as err:
            print(f"  {label}: rejected at check '{err.check}'")

    print("\nthree-circle slack: zero exactly on monomials, positive otherwise")
    for f, label in (
        (TaylorFunction((0.0, 0.0, 2.5)), "2.5 z^2"),
        (TaylorFunction((1.0, 1.0)), "1 + z"),
        (random_taylor(rng, 8, min_significant=2), "random degree 8"),
    ):
        rep = three_circle_check(f, 0.25, 0.5, 0.75)
        print(f"  {label:16s} slack {rep.slack:.3e}  rigidity={rep.rigidity_flag}")


if __name__ == "__main__":
    main()
