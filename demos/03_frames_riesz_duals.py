#!/usr/bin/env python3
"""Classifying operator sequences and constructing dual Riesz bases.

A sequence of matrices L_i : X -> Y_i is a Bessel sequence (always, at finite
size), a frame (two-sided analysis inequality), or a Riesz basis (bijective
synthesis).  Classification runs two routes that must agree, the lower
frame inequality and the rank of the stacked matrix; Riesz bases yield dual
sequences with exact biorthogonality and reconstruction.

Off the Euclidean case the lower frame bound A is the left-inverse
certificate 1/upper(||F^{-1}||), a proven lower bound.  For a Riesz basis the
lower Riesz constant is the same number, since S^{-1} = (F^{-1})^T.
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


def show(tag, rep):
    print(
        f"{tag:24s} A={rep.lower_bound.value:8.5f}  B={rep.bessel_bound.value:8.5f}  "
        f"frame={rep.is_frame!s:5}  riesz={rep.is_riesz!s:5}  "
        f"g_complete={rep.g_complete!s:5}  routes(inequality, rank)={(rep.is_frame, rep.g_complete)}"
    )


print("classification of three hand instances")
print("-" * 72)
selectors = row_sequence([1.0, 0.0], [0.0, 1.0])
show("coordinate selectors", pg.classify(selectors))
show("single selector", pg.classify(row_sequence([1.0, 0.0])))
overcomplete = row_sequence([1.0, 0.0], [0.0, 1.0], [1.0, 1.0])
show("overcomplete triple", pg.classify(overcomplete))

print()
print("the two Riesz-basis characterizations, read off the classification")
print("-" * 72)
for tag, seq in [("selectors", selectors), ("overcomplete", overcomplete)]:
    eq = pg.riesz_equivalences_check(seq, pg.classify(seq))
    print(
        f"{tag:14s} inequality={eq.riesz_inequality!s:5} "
        f"full rank={eq.full_rank!s:5} agree={eq.agree}"
    )

print()
print("dual Riesz basis of a shear-like pair")
print("-" * 72)
seq = row_sequence([1.0, 1.0], [0.0, 1.0])
dual = pg.dual_riesz_basis(seq)
for i, m in enumerate(dual.mats):
    print(f"  dual member {i}: {m.ravel()}")
S = pg.synthesis_matrix(seq)
Sinv = np.vstack(dual.mats)
print(f"  biorthogonality residual ||Sinv S - I||_max = {np.abs(Sinv @ S - np.eye(2)).max():.3e}")

rng = np.random.default_rng(7)
x = rng.standard_normal(2)
recon = sum(m.T @ (d @ x) for m, d in zip(seq.mats, dual.mats))
print(f"  reconstruction residual on a random functional = {np.abs(recon - x).max():.3e}")

dd = pg.dual_riesz_basis(dual.as_operator_sequence())
print(f"  double dual recovers the original members: "
      f"{max(np.abs(a - b).max() for a, b in zip(dd.mats, seq.mats)):.3e}")

print()
print("dual frame bounds sit at the reciprocals of the Riesz bounds")
print("-" * 72)
rep = pg.classify(seq)
dual_seq = dual.as_operator_sequence()
lo, up = pg.analysis_opnorm(dual_seq)
print(f"  Riesz bounds of the original: A={rep.lower_bound.value:.6f}  B={rep.bessel_bound.value:.6f}")
print(f"  Bessel bound of the dual    : {up.value:.6f}  (1/A = {1.0 / rep.lower_bound.value:.6f})")

print()
print("a generated Riesz instance at p = 1.5 (certificates disclose provenance)")
print("-" * 72)
inst = pg.gen("riesz", x2_dim=3, y_dims=[2, 1], seed=7, frame_exponent=1.5)
rep = pg.classify(inst.lam_sequence())
print(f"  A = {rep.lower_bound.value:.6f}  [{rep.lower_bound.kind}: {rep.lower_bound.method}]")
print(f"  B = {rep.bessel_bound.value:.6f}  [{rep.bessel_bound.kind}: {rep.bessel_bound.method}]")
print(f"  riesz lower = {rep.lower_bound.value:.6f}  [{rep.lower_bound.method}]  (the A certificate)")
print(f"  observed infimum = {rep.lower_observed.value:.6f}  [{rep.lower_observed.method}]")
