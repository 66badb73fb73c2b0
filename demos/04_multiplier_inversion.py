#!/usr/bin/env python3
"""Bessel multipliers: assembly, norm bounds, injectivity, inversion.

The multiplier of a symbol m and sequences (L, T) is M = sum_i m_i L_i^T T_i,
mapping one dual space into the other.  Its norm is sandwiched by products of
the ingredient frame bounds with ||m||_inf, the symbol map m -> M is injective
under Riesz hypotheses, and the inverse is again a multiplier: weights 1/m,
dual sequences, roles swapped.
"""
import numpy as np

import pgframes as pg

np.set_printoptions(precision=6, suppress=True)


def selectors(n=2):
    return pg.OperatorSequence(
        pg.SpaceSpec(n, 2.0),
        tuple(pg.SpaceSpec(1, 2.0) for _ in range(n)),
        tuple(np.eye(n)[i : i + 1] for i in range(n)),
        2.0,
    )


sel = selectors()
print("resolution of the identity: symbol 1 on a Parseval pair")
M = pg.assemble(pg.Symbol([1.0, 1.0]), sel, sel)
print(M.matrix)

print()
print("norm sandwich on diag(2,3):")
M = pg.assemble(pg.Symbol([2.0, 3.0]), sel, sel)
nb = pg.norm_bounds(M)
print(f"  lower product  = {nb.lower.value:.6f}")
print(f"  direct norm    = {nb.estimate.value:.6f}")
print(f"  upper product  = {nb.upper.value:.6f}")

print()
print("a generated Riesz pair at p = 1.5:")
inst = pg.gen("riesz-pair", x2_dim=3, y_dims=[2, 1], seed=21, frame_exponent=1.5)
m, lam, theta = inst.symbol_obj(), inst.lam_sequence(), inst.theta_sequence()
M = pg.assemble(m, lam, theta)
nb = pg.norm_bounds(M)
print(f"  symbol           = {m.entries}")
print(f"  lower product    = {nb.lower.value:.6f}")
print(f"  direct estimate  = {nb.estimate.value:.6f}   [{nb.estimate.method}]")
print(f"  upper product    = {nb.upper.value:.6f}")

print()
print("injectivity of the symbol map: a witness for a single-spike symbol")
spike = pg.Symbol([0.0, 0.7])
Ms = pg.assemble(spike, lam, theta)
g = pg.injectivity_witness(Ms)
print(f"  witness g = {g.entries}")
print(f"  ||M g||   = {np.linalg.norm(Ms.apply(g).entries):.6f}  (nonzero)")

print()
print("inversion via dual sequences:")
inv, left, right = pg.invert(M)
print(f"  ||M^-1 M - I||_max = {left:.3e}")
print(f"  ||M M^-1 - I||_max = {right:.3e}")

print()
print("the inverse refuses symbols with entries near zero:")
try:
    pg.invert(pg.assemble(pg.Symbol([1.0, 1e-15]), lam, theta))
except pg.SymbolTooSmallError as exc:
    print(f"  SymbolTooSmallError: {exc}")
