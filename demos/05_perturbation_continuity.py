#!/usr/bin/env python3
"""Perturbation bounds and parameter continuity of multipliers.

Perturbing a sequence by operators with aggregate norm gap K moves its Bessel
bound by at most K, and moves the analysis operator, and with it its adjoint
the synthesis operator, by at most K.
Multipliers depend continuously on their three parameters; each convergence
mode comes with an explicit bound that the measured gap must respect at every
step.
"""
import numpy as np

import pgframes as pg


def row_sequence(*rows, p=2.0):
    mats = tuple(np.atleast_2d(np.asarray(r, dtype=float)) for r in rows)
    n = mats[0].shape[1]
    return pg.OperatorSequence(
        pg.SpaceSpec(n, 2.0),
        tuple(pg.SpaceSpec(m.shape[0], 2.0) for m in mats),
        mats,
        p,
    )


sel = row_sequence([1.0, 0.0], [0.0, 1.0])

print("perturbation report: scale one member of a Parseval pair by 1.1")
print("-" * 68)
theta = row_sequence([1.1, 0.0], [0.0, 1.0])
rep = pg.perturbation_check(sel, theta)
print(f"  K (aggregate gap)     = {rep.K.value:.6f}  [{rep.K.kind}]")
print(f"  B of the base         = {rep.B_base.value:.6f}")
print(f"  B of the perturbation = {rep.B_perturbed.value:.6f}  <= B + K")
print(f"  slack                 = {rep.slack:.3e}")
print(f"  analysis-operator gap = {rep.analysis_gap.value:.6f}  <= K")
# the synthesis gap is the adjoint of the analysis gap, so it has the same norm
print(f"  synthesis-operator gap= {rep.analysis_gap.value:.6f}  <= K")

print()
print("random perturbation at p = 1.5 (certified K, estimated gaps)")
print("-" * 68)
rng = np.random.default_rng(3)
lam = row_sequence(rng.standard_normal(3), rng.standard_normal(3), p=1.5)
mats = [m + 0.01 * rng.standard_normal(m.shape) for m in lam.mats]
theta = pg.OperatorSequence(lam.domain, lam.codomains, tuple(mats), 1.5)
rep = pg.perturbation_check(lam, theta)
print(f"  K = {rep.K.value:.6f}   slack = {rep.slack:.3e}")
print(f"  gaps: analysis {rep.analysis_gap.value:.6f}, synthesis {rep.analysis_gap.value:.6f}")

print()
print("continuity of the multiplier in each parameter (schedule 2^-n)")
print("-" * 68)
m = pg.Symbol([1.0, 1.0])
for kind in pg.CONTINUITY_KINDS:
    traces = pg.continuity_suite(kind, m, sel, sel, p1=2.0, cfg=pg.NumericsConfig(n_max=12))
    t0, tN = traces[0], traces[-1]
    print(f"  mode {kind:7s}: measured {t0.measured:.3e} -> {tN.measured:.3e}   "
          f"bound {t0.bound:.3e} -> {tN.bound:.3e}")

print()
print("one mode in detail (symbol bumps on the Parseval pair):")
traces = pg.continuity_suite("symbol", m, sel, sel, p1=2.0, cfg=pg.NumericsConfig(n_max=10))
print(f"  {'n':>3} {'deviation':>12} {'measured':>12} {'bound':>12}")
for t in traces:
    print(f"  {t.n:3d} {t.deviation:12.3e} {t.measured:12.3e} {t.bound:12.3e}")

print()
print("joint mode decomposes its bound into three triangle terms:")
traces = pg.continuity_suite("joint", m, sel, sel, p1=2.0, cfg=pg.NumericsConfig(n_max=6))
for t in traces:
    c = ", ".join(f"{x:.3e}" for x in t.components)
    print(f"  n={t.n}: bound = {t.bound:.3e} = sum({c})")
