"""Dense unit-sphere sampling oracles.

A slow, independent oracle for cross-checks only; no certificate in the
package is computed here.  Suprema come from exhaustive sampling, and infima
from a sampled minimum with an optional Lipschitz correction.  Tests compare
the closed forms, the ascent estimates and the left-inverse lower bounds of
``frames`` against these values.

Spheres are sampled by gridding the faces of the unit cube and renormalizing;
the renormalization map y -> y / ||y|| is 2-Lipschitz on the cube surface, so
a face grid of spacing h covers the sphere within h * ||ones|| in the target
norm.  The samples also include the coordinate vectors e_j, which are unit
vectors in every l^p and product norm: they are the extreme points of the
l^1 sphere, where a pairing's supremum over it sits, and an even face grid
has no 0 coordinate and so never reaches them.

The pairing suprema grid one orthant.  Every l^p and mixed norm is absolute:
||x|| depends on |x| alone.  So for a unit x, |<x, u>| <= <|x|, |u|> with
|x| a nonnegative unit vector, and a nonnegative unit x gives
<x, |u|> = <x o sign(u), u> with x o sign(u) a unit vector again.  The
supremum of |<x, u>| over the unit sphere is therefore the supremum of
<x, |u|> over its nonnegative part.  That part is sampled by the faces with
one coordinate at +1 and the others on the nonnegative half of the same
axis, np.linspace(-1, 1, n)[n // 2:], plus the coordinate vectors: the
samples of the full face grid whose coordinates are all nonnegative, 2^(d-1)
times fewer at the same spacing.  ``sup_pairing`` takes the maximum one
face at a time, so it never holds the whole grid.  The oracle still
samples; it uses no witness formula.  An operator-norm ratio is invariant
under x -> -x only, so ``certified_min_ratio`` keeps the full face grid.
"""
from __future__ import annotations

import numpy as np

from .spaces import ProductSpaceSpec, SpaceSpec

__all__ = [
    "OracleBudgetError",
    "sphere_samples",
    "sup_pairing",
    "certified_min_ratio",
    "product_sup_pairing",
]


class OracleBudgetError(RuntimeError):
    """The requested grid exceeds the configured sample budget."""


def _orthant_axis(axis_points: int) -> np.ndarray:
    """The nonnegative half of the full axis, which the pairing suprema grid."""
    return np.linspace(-1.0, 1.0, axis_points)[axis_points // 2 :]


def _unit_blocks(space, axis, budget: int):
    """The unit samples of :func:`sphere_samples`, one block of rows per face
    of the cube and then the coordinate vectors.

    Checks the axis and the budget, and raises :class:`OracleBudgetError`,
    before any block is built; the blocks come one at a time, so a caller
    that reduces each block keeps one face in memory, not the whole grid.
    Every row has an entry of magnitude one, so its norm takes the same
    route in a block as in the whole grid: the rows are those of the whole
    grid normalized at once.
    """
    dim = space.total_dim
    if dim == 1:
        return iter([np.array([[1.0]])])
    if axis.size < 2:
        raise OracleBudgetError("a sphere grid needs at least 2 axis values")
    total = dim * axis.size ** (dim - 1)
    if total > budget:
        raise OracleBudgetError(
            f"sphere grid needs {total} samples, budget is {budget}"
        )

    def unit(y: np.ndarray) -> np.ndarray:
        return y / space.norm_many(y.T)[:, None]

    def blocks():
        grids = np.meshgrid(*([axis] * (dim - 1)), indexing="ij")
        face = np.stack([g.ravel() for g in grids], axis=1)  # (axis.size^(dim-1), dim-1)
        for k in range(dim):
            block = np.empty((face.shape[0], dim))
            block[:, k] = 1.0
            block[:, [j for j in range(dim) if j != k]] = face
            yield unit(block)
        yield unit(np.eye(dim))

    return blocks()


def sphere_samples(space, axis, budget: int):
    """Sample the unit sphere of ``space``; returns (samples, covering_radius).

    Each face of the cube has one coordinate pinned at +1, and its other
    coordinates run over ``axis``: evenly spaced values, at least two.
    ``samples`` has one row per unit vector: the face grid, then the ``dim``
    coordinate vectors.  ``budget`` caps the face grid, and the coordinate
    vectors come on top of it.  With the full axis np.linspace(-1, 1, n) the
    samples cover the sphere up to sign, which objectives invariant under
    x -> -x (every norm ratio here) do not see; with its nonnegative half
    they cover the nonnegative orthant, and the covering radius is that
    orthant's.
    """
    axis = np.asarray(axis, dtype=float)
    samples = np.vstack(list(_unit_blocks(space, axis, budget)))
    dim = space.total_dim
    if dim == 1:
        return samples, 0.0
    h = float(axis[-1] - axis[0]) / (axis.size - 1)
    covering = float(space.norm(np.ones(dim))) * h
    return samples, covering


def sup_pairing(space, functional, axis_points: int, budget: int) -> float:
    """max |<x, u>| over sampled unit vectors x; a lower bound on the dual norm.

    Sampled as max <x, |u|> over the nonnegative orthant of the sphere (see
    the module docstring), one face of the grid at a time: the value is the
    maximum over the samples of :func:`sphere_samples`, without holding them
    all.
    """
    u = np.abs(np.asarray(functional, dtype=float).ravel())
    blocks = _unit_blocks(space, _orthant_axis(axis_points), budget)
    return float(max((block @ u).max() for block in blocks))


def certified_min_ratio(matrix, dom, cod, lipschitz: float, axis_points: int, budget: int):
    """Certified lower bound for min ||A x||_cod over the dom unit sphere.

    Returns (certified, argmin_sample, sampled_min) where
    certified = max(sampled_min - lipschitz * covering, 0).  ``lipschitz`` must
    upper-bound the dom->cod operator norm of A.
    """
    samples, covering = sphere_samples(dom, np.linspace(-1.0, 1.0, axis_points), budget)
    ratios = cod.norm_many(np.asarray(matrix, dtype=float) @ samples.T)
    i = int(np.argmin(ratios))
    sampled = float(ratios[i])
    return max(sampled - lipschitz * covering, 0.0), samples[i], sampled


def product_sup_pairing(
    primal: ProductSpaceSpec, functional, axis_points: int, budget: int
) -> float:
    """sup <x, u> over the mixed-norm product unit sphere, by sampling alone.

    The supremum separates: with s_i the per-block suprema over unit block
    spheres, it equals the supremum of sum t_i s_i over nonnegative weights t
    on the outer sphere.  Both layers are sampled exhaustively, so the value
    never relies on the witness formulas it is meant to check; the s_i are
    nonnegative, so the outer sphere is sampled on its nonnegative orthant
    too.  The outer sphere is sampled first, so a product whose outer grid
    exceeds the budget raises :class:`OracleBudgetError` before any block is
    gridded.
    """
    parts = primal.split(functional)
    outer = SpaceSpec(len(parts), primal.outer_exponent)
    samples, _ = sphere_samples(outer, _orthant_axis(axis_points), budget)
    sups = np.array(
        [sup_pairing(c, u, axis_points, budget) for c, u in zip(primal.components, parts)]
    )
    return float((samples @ sups).max())
