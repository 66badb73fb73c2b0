#!/usr/bin/env python3
"""Coordinate l^p spaces, Hoelder duality, and mixed-norm products.

Walks through the primitive layer: p-norms, conjugate exponents, the
coordinate pairing, extremal witnesses that attain the dual norm, and the
numerical duality check for mixed-norm product spaces.
"""
import numpy as np

import pgframes as pg

print("=" * 64)
print("l^p norms and conjugate exponents")
print("=" * 64)

space = pg.SpaceSpec(2, 2.0)
v = space.vector([3.0, 4.0])
print(f"||(3,4)||_2        = {pg.p_norm(v)}")
print(f"||(1,-1,1)||_1     = {pg.p_norm(pg.SpaceSpec(3, 1.0).vector([1, -1, 1]))}")
print(f"||(2,-7,1)||_inf   = {pg.p_norm(pg.SpaceSpec(3, pg.INF).vector([2, -7, 1]))}")
for p in (1.0, 1.5, 2.0, 3.0, pg.INF):
    print(f"conjugate of {p!s:4} = {pg.conjugate_exponent(p)}")

print()
print("=" * 64)
print("Hoelder witnesses: unit vectors attaining the dual norm")
print("=" * 64)

rng = np.random.default_rng(0)
g = rng.standard_normal(4)
for p in (1.0, 1.5, 2.0, 3.0, pg.INF):
    q = pg.conjugate_exponent(p)
    w = pg.holder_witness(g, p)
    attained = float(np.dot(w, g))
    print(
        f"p={p!s:4}  ||w||_p = {pg.pnorm(w, p):.12f}   "
        f"<w, g> = {attained:.12f}   ||g||_q = {pg.pnorm(g, q):.12f}"
    )

print()
print("=" * 64)
print("Mixed-norm product spaces and their duality")
print("=" * 64)

# two blocks with their own norms, aggregated by an outer exponent
blocks = (
    pg.SpaceSpec(2, 2.0).vector([3.0, 4.0]),
    pg.SpaceSpec(2, 2.0).vector([5.0, 12.0]),
)
pv = pg.ProductVector(blocks, 2.0)
print(f"mixed norm of ((3,4),(5,12)) with outer p=2: {pg.mixed_norm(pv):.12f}")
print(f"hand value sqrt(194)                       : {np.sqrt(194.0):.12f}")

# a functional on the product: the witness construction should attain its
# norm exactly, and a dense grid search should agree to sampling accuracy
g = pg.ProductVector(
    (pg.SpaceSpec(2, 2.0).vector([2.0, 1.0]), pg.SpaceSpec(2, 2.0).vector([1.0, 3.0])),
    3.0,
)
print(f"duality gap (witness route): {pg.product_duality_gap(g):.3e}")
print(f"duality gap (grid route)   : {pg.product_duality_gap(g, method='grid'):.3e}")

print()
print("random functionals, witness route, worst relative gap:")
# one stacked call per block structure: duality_gaps takes 20 functionals as
# the columns of one array and returns their gaps and norms
worst = 0.0
for _ in range(100):
    dims = rng.integers(1, 4, size=int(rng.integers(1, 4)))
    inner = rng.choice([1.5, 2.0, 3.0], size=dims.size)
    coeff = pg.ProductSpaceSpec(
        tuple(pg.SpaceSpec(int(d), pg.conjugate_exponent(r)) for d, r in zip(dims, inner)),
        float(rng.choice([1.5, 2.0, 3.0])),
    )
    gaps, norms = coeff.duality_gaps(rng.standard_normal((coeff.total_dim, 20)))
    worst = max(worst, float((gaps / np.maximum(norms, 1e-30)).max()))
print(f"  {worst:.3e}  (over 100 random block structures, 20 functionals each)")
