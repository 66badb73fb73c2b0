"""Finite-dimensional l^p coordinate spaces, duals, pairings and mixed-norm products.

The dual of (R^n, l^p) is represented concretely as (R^n, l^q) with
1/p + 1/q = 1 under the standard coordinate pairing <x, g> = sum_i x_i g_i.
Product spaces carry one l^p norm per component plus an outer aggregation
exponent; their duals swap every exponent for its conjugate.  Real scalars
throughout.

Column norms and witnesses on a product reduce its components in runs.  A
run is a maximal stretch of consecutive components that share (dim,
exponent); its rows of a (total_dim, N) array are viewed as one (k, dim, N)
stack (of each slice of a (..., total_dim, N) stack, as a (..., k, dim, N)
stack), and one ``pnorm_many`` or ``holder_witness_many`` call reduces the
stack over axis -2.  The values are bit for bit those of one call per block.
numpy sums a block in an order fixed by its memory layout: row by row,
elementwise, when the reduced axis is not innermost in memory (a C-ordered
block), pairwise along it otherwise.  The stack is a view that keeps each
block's strides, so every block is summed in the same order as before.  The
p = 2 choice between unscaled squares and the scaled form, and the p = 1
argmax, are made per (dim, N) slice.  Every scalar norm and witness is the
one-column case of its stacked kernel, on its entries as one contiguous
(d, 1) column, and no norm calls BLAS, so no norm depends on the BLAS build.

The duality of a product with its conjugate-exponent dual is checked on a
stack: ``duality_gaps`` takes a (total_dim, N) array of functionals, their
norms from ``norm_many``, their witnesses on the predual sphere from one
``witness_many`` call, and pairs the two columnwise by an elementwise
product summed down each column (no BLAS call, so the bits do not depend on
the thread count).  ``product_duality_gap`` with its witness method is the
one-column case.

All values are immutable after construction and every operation is a pure
function of its inputs.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_CONFIG, NumericsConfig

INF = math.inf
# p = 2 sums unscaled squares only where that is exact to rounding: squares of
# entries below 2^480 cannot overflow, and once the norm exceeds 2^-500 a
# square lost to underflow moves its square by at most 2^-75 relative.
# Elsewhere the p = 2 norm takes the scaled form m * ||a / m||, m = max |a_i|.
_SQUARES_BIG, _SQUARES_TINY = 2.0**480, 2.0**-500

__all__ = [
    "INF",
    "SpaceError",
    "DimensionMismatchError",
    "SpaceSpec",
    "Vector",
    "ProductVector",
    "ProductSpaceSpec",
    "as_exponent",
    "conjugate_exponent",
    "pnorm",
    "pnorm_many",
    "p_norm",
    "dual_pairing",
    "mixed_norm",
    "holder_witness",
    "product_duality_gap",
]


class SpaceError(ValueError):
    """Invalid space parameter (dimension or exponent)."""


class DimensionMismatchError(SpaceError):
    """Operands live in incompatible spaces."""


def as_exponent(p: float) -> float:
    """Validate an l^p exponent; any value in [1, inf] is accepted."""
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise SpaceError(f"exponent must lie in [1, inf], got {p!r}")
    return p


def conjugate_exponent(p: float) -> float:
    """The q with 1/p + 1/q = 1, with conj(1) = inf and conj(inf) = 1."""
    p = as_exponent(p)
    if p == 1.0:
        return INF
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def pnorm(entries, p: float) -> float:
    """(sum |a_i|^p)^(1/p), max |a_i| for p = inf, 0.0 for no entries: the
    entries as one contiguous (d, 1) column of :func:`pnorm_many`."""
    return float(pnorm_many(np.asarray(entries, dtype=float).reshape(-1, 1), p)[0])


def pnorm_many(cols: np.ndarray, p: float) -> np.ndarray:
    """p-norms of the columns of a (d, N) array, vectorized.

    The input is at least 2-D (a single vector is a (d, 1) column).  A
    (..., d, N) stack gives the (..., N) column norms of each (d, N) slice,
    and the p = 2 choice between unscaled squares and the scaled form is made
    per slice, exactly as a separate call on that slice would make it.

    Where every column's largest entry m is positive (a NaN is not), the
    scaled form skips both ``np.where``: where(m > 0, m, 1) is then m itself
    and where(m > 0, v, 0) is v, so the values keep their bits.
    """
    a = np.abs(np.asarray(cols, dtype=float))
    if math.isinf(p):
        return a.max(axis=-2, initial=0.0)
    if p == 1.0:
        return a.sum(axis=-2)
    if p == 2.0:
        # A slice with an entry of 2^480 or more is zeroed before squaring:
        # its r is then 0, and it takes the scaled form like a tiny slice.
        fits = a.max(axis=(-2, -1), initial=0.0) < _SQUARES_BIG
        b = a if fits.all() else a * fits[..., None, None]
        r = np.sqrt((b * b).sum(axis=-2))
        plain = r.min(axis=-1, initial=INF) > _SQUARES_TINY
        if plain.all():
            return r
    m = a.max(axis=-2, initial=0.0)
    if m.min(initial=INF) > 0.0:
        scaled = m * np.power(a / m[..., None, :], p).sum(axis=-2) ** (1.0 / p)
    else:
        safe = np.where(m > 0.0, m, 1.0)
        s = np.power(a / safe[..., None, :], p).sum(axis=-2)
        scaled = np.where(m > 0.0, safe * s ** (1.0 / p), 0.0)
    if p == 2.0 and plain.any():
        return np.where(plain[..., None], r, scaled)
    return scaled


@dataclass(frozen=True)
class SpaceSpec:
    """A coordinate space R^dim equipped with the l^exponent norm."""

    dim: int
    exponent: float

    def __post_init__(self):
        if int(self.dim) != self.dim or self.dim < 1:
            raise SpaceError(f"dim must be a positive integer, got {self.dim!r}")
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "exponent", as_exponent(self.exponent))

    @property
    def dual(self) -> "SpaceSpec":
        return SpaceSpec(self.dim, conjugate_exponent(self.exponent))

    @property
    def total_dim(self) -> int:
        return self.dim

    @property
    def is_euclidean(self) -> bool:
        return self.exponent == 2.0

    def norm(self, entries) -> float:
        return pnorm(entries, self.exponent)

    def norm_many(self, cols: np.ndarray) -> np.ndarray:
        return pnorm_many(cols, self.exponent)

    def witness(self, functional) -> np.ndarray:
        return holder_witness(functional, self.exponent)

    def witness_many(self, functionals: np.ndarray) -> np.ndarray:
        return holder_witness_many(functionals, self.exponent)

    def vector(self, entries) -> "Vector":
        return Vector(np.asarray(entries, dtype=float), self)


def _check_entries(entries: np.ndarray, dim: int) -> np.ndarray:
    e = np.asarray(entries, dtype=float)
    if e.shape != (dim,):
        raise DimensionMismatchError(f"expected shape ({dim},), got {e.shape}")
    if not np.all(np.isfinite(e)):
        raise SpaceError("vector entries must be finite")
    return e


@dataclass(frozen=True)
class Vector:
    """Entries together with the space they live in."""

    entries: np.ndarray
    space: SpaceSpec

    def __post_init__(self):
        object.__setattr__(self, "entries", _check_entries(self.entries, self.space.dim))

    def norm(self) -> float:
        return self.space.norm(self.entries)


def p_norm(v: Vector) -> float:
    """Norm of a vector in its own space."""
    return v.norm()


def dual_pairing(x: Vector, g: Vector) -> float:
    """Coordinate pairing sum_i x_i g_i; requires equal dimensions."""
    if x.space.dim != g.space.dim:
        raise DimensionMismatchError(
            f"pairing needs equal dims, got {x.space.dim} and {g.space.dim}"
        )
    return float(np.dot(x.entries, g.entries))


class _Run(NamedTuple):
    """Consecutive components of a product that share one (dim, exponent)."""

    space: SpaceSpec
    blocks: slice
    rows: slice

    def slab(self, cols: np.ndarray) -> np.ndarray:
        """The run's rows of a (..., total_dim, N) array as a (..., k, dim, N) view."""
        k = self.blocks.stop - self.blocks.start
        lead, n = cols.shape[:-2], cols.shape[-1]
        return cols[..., self.rows, :].reshape(*lead, k, self.space.dim, n)


@dataclass(frozen=True)
class ProductSpaceSpec:
    """Mixed-norm product: tuples (x_1, ..., x_k), x_i in R^{d_i} with its own
    l^{r_i} norm, aggregated by the outer l^p norm of (||x_1||, ..., ||x_k||).

    The block offsets and the runs of equal components are computed on first
    use and cached outside the dataclass fields, so equality, hashing and
    ``repr`` see only the components and the outer exponent.
    """

    components: tuple[SpaceSpec, ...]
    outer_exponent: float

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise SpaceError("a product space needs at least one component")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "outer_exponent", as_exponent(self.outer_exponent))

    @property
    def total_dim(self) -> int:
        return sum(c.dim for c in self.components)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        return tuple(itertools.accumulate((c.dim for c in self.components[:-1]), initial=0))

    @cached_property
    def runs(self) -> tuple[_Run, ...]:
        runs, block = [], 0
        for c, same in itertools.groupby(self.components):
            k, row = len(tuple(same)), self.offsets[block]
            runs.append(_Run(c, slice(block, block + k), slice(row, row + k * c.dim)))
            block += k
        return tuple(runs)

    @property
    def dual(self) -> "ProductSpaceSpec":
        return ProductSpaceSpec(
            tuple(c.dual for c in self.components),
            conjugate_exponent(self.outer_exponent),
        )

    @property
    def is_euclidean(self) -> bool:
        return self.outer_exponent == 2.0 and all(c.is_euclidean for c in self.components)

    def _flat(self, flat) -> np.ndarray:
        flat = np.asarray(flat, dtype=float).ravel()
        if flat.size != self.total_dim:
            raise DimensionMismatchError(
                f"expected flat dim {self.total_dim}, got {flat.size}"
            )
        return flat

    def split(self, flat: np.ndarray) -> list[np.ndarray]:
        flat = self._flat(flat)
        return [flat[o : o + c.dim] for o, c in zip(self.offsets, self.components)]

    def norm(self, flat) -> float:
        """The mixed norm of one flat vector: one column of :meth:`norm_many`."""
        return float(self.norm_many(self._flat(flat)[:, None])[0])

    def norm_many(self, cols: np.ndarray) -> np.ndarray:
        """Norms of the columns of a (total_dim, N) array, or of each slice of a
        (..., total_dim, N) stack."""
        cols = np.asarray(cols, dtype=float)
        inner = np.empty((*cols.shape[:-2], len(self.components), cols.shape[-1]))
        for run in self.runs:
            inner[..., run.blocks, :] = pnorm_many(run.slab(cols), run.space.exponent)
        return pnorm_many(inner, self.outer_exponent)

    def witness(self, functional) -> np.ndarray:
        """The nested Hoelder witness of one functional: one column of
        :meth:`witness_many`, so both give the same bits."""
        return self.witness_many(self._flat(functional)[:, None])[:, 0]

    def witness_many(self, functionals: np.ndarray) -> np.ndarray:
        """Nested Hoelder witnesses of the columns of a (total_dim, N) array, or
        of each slice of a (..., total_dim, N) stack.

        Per block, the inner witness turns u_i into a unit-r_i vector attaining
        ||u_i|| in the dual block norm; the outer witness of the dual block
        norms weights the blocks so that the pairing equals the dual mixed
        norm.  A zero functional gets the zero vector.
        """
        U = np.asarray(functionals, dtype=float)
        slabs = [run.slab(U) for run in self.runs]
        duals = np.empty((*U.shape[:-2], len(self.components), U.shape[-1]))
        for run, S in zip(self.runs, slabs):
            duals[..., run.blocks, :] = pnorm_many(S, conjugate_exponent(run.space.exponent))
        weights = holder_witness_many(duals, self.outer_exponent)
        out = np.empty_like(U)
        for run, S in zip(self.runs, slabs):
            W = weights[..., run.blocks, None, :] * holder_witness_many(S, run.space.exponent)
            *lead, k, d, n = S.shape
            out[..., run.rows, :] = W.reshape(*lead, k * d, n)
        return out

    def duality_gaps(self, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Witness duality gaps of the columns of a (total_dim, N) array, or of
        each slice of a (..., total_dim, N) stack; returns (gaps, norms).

        Each column g is a functional on the predual ``self.dual``.  norms is
        ||g|| in this space; gaps is |<x, g> - ||g|||, with x the nested
        Hoelder witness of g on the unit sphere of ``self.dual``, which
        attains the supremum of <x, g> there.  So the gaps measure the
        rounding of the duality (sum + Y_i*)_{l^q} = ((sum + Y_i)_{l^p})*.
        """
        G = np.asarray(cols, dtype=float)
        norms = self.norm_many(G)
        sups = (self.dual.witness_many(G) * G).sum(axis=-2)
        return np.abs(sups - norms), norms

    def vector(self, flat) -> "ProductVector":
        blocks = tuple(
            Vector(b, c) for b, c in zip(self.split(flat), self.components)
        )
        return ProductVector(blocks, self.outer_exponent)


@dataclass(frozen=True)
class ProductVector:
    """One vector per component space, normed by the outer aggregation."""

    blocks: tuple[Vector, ...]
    outer_exponent: float

    def __post_init__(self):
        blocks = tuple(self.blocks)
        if not blocks:
            raise SpaceError("a product vector needs at least one block")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "outer_exponent", as_exponent(self.outer_exponent))

    @property
    def space(self) -> ProductSpaceSpec:
        return ProductSpaceSpec(tuple(b.space for b in self.blocks), self.outer_exponent)

    def flatten(self) -> np.ndarray:
        return np.concatenate([b.entries for b in self.blocks])

    def norm(self) -> float:
        return mixed_norm(self)


def mixed_norm(pv: ProductVector) -> float:
    """(sum_i ||x_i||_{r_i}^p)^(1/p) with each block in its own norm."""
    return pv.space.norm(pv.flatten())


def holder_witness(functional, p: float) -> np.ndarray:
    """Unit-l^p vector x attaining <x, u> = ||u||_q for the given functional u:
    the one-column case of :func:`holder_witness_many`."""
    return holder_witness_many(np.asarray(functional, dtype=float).reshape(-1, 1), p)[:, 0]


def holder_witness_many(functionals: np.ndarray, p: float) -> np.ndarray:
    """Unit-l^p witnesses x, with <x, u> = ||u||_q, of the columns u of a
    (d, N) array of functionals, or of each (d, N) slice of a stack.

    p = 1 takes a signed indicator at the first argmax |u_i|, p = inf the
    sign vector.  A zero functional, or one of no entries, gets zero.

    For p in (1, inf) the unnormalized witness is W = sign(U) P with
    P = (|U| / top)^(q - 1) columnwise, top the column's largest |entry|,
    and it is divided by its p-norm.  Where every top is positive and finite
    and q > 1, that norm is computed without ``pnorm_many`` and with the
    same bits:

    * Each column of P has largest entry exactly 1.0.  |u| / top is at most
      1 (rounding is monotone) and exactly 1 at the top entry; pow(1, y) = 1;
      for x < 1 the exact x^y is below 1, so a pow with error under one ulp
      returns at most 1.0.
    * |W| is P bit for bit: sign(U) is +-1 where U is nonzero, and where U
      is zero P is 0 too, because q - 1 > 0.
    * So ``pnorm_many(W, p)`` takes its scaled form with scale 1.0, which is
      (sum P^p)^(1/p) (dividing by 1.0 and multiplying by it are exact), or
      at p = 2 its unscaled form sqrt(sum P^2), since the largest entry 1.0
      is below 2^480 and the norm, at least 1.0, is above 2^-500.  The norm
      is at least 1, so the division by it needs no guard.
    """
    U = np.asarray(functionals, dtype=float)
    p = as_exponent(p)
    if not U.size:
        return np.zeros_like(U)
    if p == 1.0:
        top = np.abs(U).argmax(axis=-2)
        hit = np.arange(U.shape[-2])[:, None] == top[..., None, :]
        return np.where(hit, np.sign(U), 0.0)
    if math.isinf(p):
        return np.sign(U)
    q = conjugate_exponent(p)
    a = np.abs(U)
    top = a.max(axis=-2)
    if q > 1.0 and top.min(initial=INF) > 0.0 and top.max(initial=0.0) < INF:
        P = np.power(a / top[..., None, :], q - 1.0)
        if p == 2.0:
            norms = np.sqrt((P * P).sum(axis=-2))
        else:
            norms = np.power(P, p).sum(axis=-2) ** (1.0 / p)
        return np.sign(U) * P / norms[..., None, :]
    safe = np.where(top > 0.0, top, 1.0)
    W = np.sign(U) * np.power(a / safe[..., None, :], q - 1.0)
    norms = pnorm_many(W, p)
    return W / np.where(norms > 0.0, norms, 1.0)[..., None, :]


def product_duality_gap(
    g: ProductVector,
    cfg: NumericsConfig | None = None,
    method: str = "witness",
) -> float:
    """|sup_{||x|| <= 1} <x, g> - mixed_norm(g)| over the predual product sphere.

    ``g`` is read as a functional on the product whose component spaces are the
    duals of g's block spaces and whose outer exponent is the conjugate of g's.
    ``method='witness'`` computes the supremum from the extremal witness
    construction (exact up to rounding): it is the one-column case of
    :meth:`ProductSpaceSpec.duality_gaps`.  ``method='grid'`` recomputes it by
    dense sampling, block by block, and is available while the configured
    sample budget suffices.
    """
    cfg = cfg or DEFAULT_CONFIG
    flat = g.flatten()
    if method == "witness":
        gaps, _ = g.space.duality_gaps(flat[:, None])
        return float(gaps[0])
    if method != "grid":
        raise ValueError(f"unknown method {method!r}")
    from . import gridsearch

    sup = gridsearch.product_sup_pairing(
        g.space.dual, flat, cfg.grid_axis_points, cfg.grid_budget
    )
    return abs(sup - mixed_norm(g))
