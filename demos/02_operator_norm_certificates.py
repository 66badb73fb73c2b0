#!/usr/bin/env python3
"""Matrix norms between l^p spaces, with certificates.

Every query returns a (lower, upper) certificate pair.  Closed-form exponent
pairs come back exact; everything else pairs a witness-backed ascent estimate
with a certified upper bound (the smaller of crude Hoelder bounds and
singular-value dimension factors).
"""
import numpy as np

import pgframes as pg

np.set_printoptions(precision=6, suppress=True)

A = np.array([[1.0, 2.0], [3.0, 4.0]])
print("A =")
print(A)
print()

print("exact exponent pairs:")
for p, r, note in [
    (1.0, 1.0, "max column l1 sum"),
    (2.0, 2.0, "largest singular value"),
    (2.0, pg.INF, "max row l2 norm"),
    (pg.INF, 1.0, "sign-vector enumeration"),
]:
    lo, up = pg.matrix_opnorm(A, p, r)
    print(f"  ||A||_{p!s:4}->{r!s:4} = {lo.value:.9f}   [{lo.kind}: {lo.method}]  ({note})")

print()
print("a general pair (p=1.5 -> r=2): estimate + certificate")
lo, up = pg.matrix_opnorm(np.array([[1.0, 1.0], [1.0, -1.0]]), 1.5, 2.0)
print(f"  lower estimate  {lo.value:.12f}  [{lo.method}]")
print(f"  upper bound     {up.value:.12f}  [{up.method}]")
print(f"  witness x = {lo.witness}, ratio at witness reproduces the estimate:")
ratio = pg.pnorm(np.array([[1.0, 1.0], [1.0, -1.0]]) @ lo.witness, 2.0) / pg.pnorm(lo.witness, 1.5)
print(f"  ||Ax||_2 / ||x||_1.5 = {ratio:.12f}")

print()
print("homogeneity: certificates scale exactly with the matrix")
base = pg.matrix_opnorm(A, 1.5, 3.0)
quad = pg.matrix_opnorm(4.0 * A, 1.5, 3.0)
print(f"  lower: 4 * {base.lower.value:.12f} vs {quad.lower.value:.12f}")
print(f"  upper: 4 * {base.upper.value:.12f} vs {quad.upper.value:.12f}")

print()
print("sandwich over random matrices and exponent pairs:")
rng = np.random.default_rng(1)
rows = []
for _ in range(8):
    M = rng.standard_normal((rng.integers(1, 5), rng.integers(1, 5)))
    p = float(rng.choice([1.0, 1.5, 2.0, 3.0, np.inf]))
    r = float(rng.choice([1.0, 1.5, 2.0, 3.0, np.inf]))
    lo, up = pg.matrix_opnorm(M, p, r)
    gap = up.value - lo.value
    print(
        f"  {M.shape[1]}->{M.shape[0]}  p={p!s:4} r={r!s:4}  "
        f"lower={lo.value:9.6f}  upper={up.value:9.6f}  gap={gap:.2e}  [{up.method}]"
    )

print()
print("mixed-norm targets drive the same engine (analysis norms):")
seq = pg.OperatorSequence(
    pg.SpaceSpec(2, 2.0),
    (pg.SpaceSpec(2, 2.0), pg.SpaceSpec(2, 2.0)),
    (np.eye(2), np.eye(2)),
    2.0,
)
lo, up = pg.analysis_opnorm(seq)
print(f"  two stacked identities, p=2: norm = {lo.value:.12f} (sqrt(2) = {np.sqrt(2):.12f})")
