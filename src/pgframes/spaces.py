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
stack), and one pass of the column kernel reduces the stack over axis -2,
and one more the outer layer.  A pass forms |U|, the column maxima m and,
where every m is positive and finite, |U| / m once for all the norms and
witnesses asked of it, so an ascent step (``ascent_steps``) takes a
codomain's norms and its norming functionals together.  Its witness skips
``pnorm_many`` where every m is positive and finite and conj(p) > 1, and
takes the zero-safe form elsewhere.  The values are bit for bit those of
one ``pnorm_many`` or ``holder_witness_many`` call per block and quantity.
numpy sums a block in an order fixed by its memory layout: row by row,
elementwise, when the reduced axis is not innermost in memory (a C-ordered
block), pairwise along it otherwise.  The stack is a view that keeps each
block's strides, so every block is summed in the same order as before.  The
p = 2 choice between unscaled squares and the scaled form, and the p = 1
argmax, are made per (dim, N) slice.  Every scalar norm and witness is the
one-column case of its stacked kernel, on its entries as one contiguous
(d, 1) column, and no norm calls BLAS, so no norm depends on the BLAS build.

A trivial product is a plain space: a pg-Bessel family with one member is one
operator, and one whose codomains are one-dimensional is a p-Bessel sequence
of functionals.  The mixed norm of one block is that block's l^r norm, and
that of k one-entry blocks is l^outer(k), and the ascent's steps run such a
product as its plain space (``ProductSpaceSpec.plain``) with the same bits
on finite input.
numpy sums fewer than ``_IN_ORDER_TERMS`` = 8 terms in order in every layout,
and from 8 terms along an innermost axis it sums pairwise, so k stays below
8: at k >= 8 a Fortran-ordered input would be summed in another order than
the product's gathered, C-ordered block norms.

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
# numpy sums fewer terms than this in order in every layout; from this many
# terms along an axis that is innermost in memory it sums pairwise
_IN_ORDER_TERMS = 8

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
    "ascent_steps",
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
    per slice, exactly as a separate call on that slice would make it.  A
    column holding an infinity and no NaN has the norm +inf, and one holding
    a NaN the norm NaN.
    """
    return _norm_from(np.abs(np.asarray(cols, dtype=float)), p)


def _power_root(x: np.ndarray, p: float) -> np.ndarray:
    """(sum_i x_i^p)^(1/p) down axis -2 of a nonnegative array."""
    return np.power(x, p).sum(axis=-2) ** (1.0 / p)


def _squares_root(x: np.ndarray) -> np.ndarray:
    """sqrt(sum_i x_i^2) down axis -2, from unscaled squares."""
    return np.sqrt((x * x).sum(axis=-2))


def _norm_from(a: np.ndarray, p: float, m=None, x=None) -> np.ndarray:
    """``pnorm_many`` of a nonnegative array ``a``, taking its column maxima
    m and, where every m is positive and finite, x = a / m when given.
    Where every m is positive and finite (a NaN is neither), the scaled form
    skips both ``np.where``: the safe divisor is then m itself and the
    selection the scaled value, so the values keep their bits.  Elsewhere a
    column whose m is not positive and finite takes m: 0, NaN for a column
    holding a NaN, and +inf for one holding an infinity and no NaN."""
    if math.isinf(p):
        return a.max(axis=-2, initial=0.0) if m is None else m
    if p == 1.0:
        return a.sum(axis=-2)
    if p == 2.0:
        # A slice with an entry of 2^480 or more is zeroed before squaring:
        # its r is then 0, and it takes the scaled form like a tiny slice.
        fits = a.max(axis=(-2, -1), initial=0.0) < _SQUARES_BIG
        r = _squares_root(a if fits.all() else np.where(fits[..., None, None], a, 0.0))
        plain = r.min(axis=-1, initial=INF) > _SQUARES_TINY
        if plain.all():
            return r
    if m is None:
        m = a.max(axis=-2, initial=0.0)
    if x is None and m.min(initial=INF) > 0.0 and m.max(initial=0.0) < INF:
        x = a / m[..., None, :]
    if x is not None:
        scaled = m * _power_root(x, p)
    else:
        ok = (m > 0.0) & (m < INF)
        safe = np.where(ok, m, 1.0)
        scaled = np.where(ok, safe * _power_root(a / safe[..., None, :], p), m)
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

    @cached_property
    def dual(self) -> "SpaceSpec":
        """The conjugate-exponent space, built on first use."""
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

    The total dimension, the block offsets, the runs of equal components, the
    plain equivalent and the dual are computed on first use and cached
    outside the dataclass fields, so equality, hashing and ``repr`` see only
    the components and the outer exponent.
    """

    components: tuple[SpaceSpec, ...]
    outer_exponent: float

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise SpaceError("a product space needs at least one component")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "outer_exponent", as_exponent(self.outer_exponent))

    @cached_property
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

    @cached_property
    def plain(self) -> "SpaceSpec | ProductSpaceSpec":
        """The plain space whose ascent steps give this product's bits on
        finite input in any layout (``ascent_steps``): its one component, or
        l^outer(k) for k < ``_IN_ORDER_TERMS`` components of dimension 1 when
        neither the outer exponent nor its conjugate is 1; otherwise itself."""
        comps, outer = self.components, self.outer_exponent
        if len(comps) == 1:
            return comps[0]
        one_entry = len(comps) < _IN_ORDER_TERMS and all(c.dim == 1 for c in comps)
        if one_entry and 1.0 < outer and conjugate_exponent(outer) > 1.0:
            return SpaceSpec(len(comps), outer)
        return self

    @cached_property
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
        return _step(self, True, False)(np.asarray(cols, dtype=float))[0]

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
        return _step(self, False, True)(np.asarray(functionals, dtype=float))[1]

    def _gather(self, parts: list, cols: np.ndarray) -> np.ndarray:
        """Each run's (..., k, N) block values as one C-ordered array."""
        if len(parts) == 1:
            return np.ascontiguousarray(parts[0])
        out = np.empty((*cols.shape[:-2], len(self.components), cols.shape[-1]))
        for run, part in zip(self.runs, parts):
            out[..., run.blocks, :] = part
        return out

    def _spread(self, weights: np.ndarray, parts: list, cols: np.ndarray) -> np.ndarray:
        """Each run's block witnesses times their weights, laid out like ``cols``."""
        Ws = [weights[..., run.blocks, None, :] * W for run, W in zip(self.runs, parts)]
        if len(Ws) == 1 and cols.flags.c_contiguous and Ws[0].flags.c_contiguous:
            return Ws[0].reshape(cols.shape)
        out = np.empty_like(cols)
        for run, W in zip(self.runs, Ws):
            rows = out[..., run.rows, :]
            rows[...] = W.reshape(rows.shape)
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
    divided by its p-norm (see ``_layer``).
    """
    U = np.asarray(functionals, dtype=float)
    p = as_exponent(p)
    if not U.size:
        return np.zeros_like(U)
    return _layer(U, (), (p, conjugate_exponent(p)))[1]


def _layer(U: np.ndarray, ps: tuple, wit: tuple):
    """``pnorm_many(U, r)`` for each r in ``ps`` (a dict by r), and given
    wit = (p, conj(p)) ``holder_witness_many(U, p)``, bit for bit, from one
    |U|, one column maximum m and, where every m is positive and finite and
    a scaled form takes it, one x = |U| / m; and whether no witness column
    is zero, which the sign witnesses of nonzero columns and the fast
    witness guarantee.

    The fast witness, where every m is positive and finite and q > 1, skips
    ``pnorm_many`` on W = sign(U) P, P = x^(q - 1), and keeps its bits: each
    column of P has largest entry exactly 1.0 (x <= 1, pow(1, y) = 1), and
    |W| is P (where U is zero, so is P), so that norm is (sum P^p)^(1/p) with
    scale 1.0, or sqrt(sum P^2) at p = 2, and at least 1.  At q = 2, P is x.
    """
    a = np.abs(U)
    m = a.max(axis=-2, initial=0.0)
    positive = m.min(initial=INF) > 0.0
    finite = positive and m.max(initial=0.0) < INF
    scaled = (wit and 1.0 < wit[0] < INF) or any(1.0 < r < INF and r != 2.0 for r in ps)
    x = a / m[..., None, :] if finite and scaled else None
    norms = {r: _norm_from(a, r, m, x) for r in ps}
    if not wit:
        return norms, None, positive
    p, q = wit
    if p == 1.0:
        hit = np.arange(U.shape[-2])[:, None] == a.argmax(axis=-2)[..., None, :]
        return norms, np.where(hit, np.sign(U), 0.0), positive
    if math.isinf(p):
        return norms, np.sign(U), positive
    if finite and q > 1.0:
        P = x if q == 2.0 else np.power(x, q - 1.0)
        n = _squares_root(P) if p == 2.0 else _power_root(P, p)
        return norms, np.sign(U) * P / n[..., None, :], True
    safe = np.where(m > 0.0, m, 1.0)
    W = np.sign(U) * np.power(a / safe[..., None, :], q - 1.0)
    n = _norm_from(np.abs(W), p)
    return norms, W / np.where(n > 0.0, n, 1.0)[..., None, :], False


def _step(space, norm: bool, witness: bool):
    """U -> (norms or None, witnesses or None, nonzero) on ``space``: the
    norms (``norm``) and witnesses (``witness``) of the columns of U, on the
    dual's unit sphere when both are asked for, with exponents resolved here
    once.  Each run of equal blocks and the outer layer take one
    :func:`_layer` pass; the weights' block norms, at the conjugate of each
    block's witness exponent, are its r-norms unless conjugating twice moves
    r (r = 4); a run's layer forms each distinct norm it is asked for once."""

    def plan(r):  # a layer's norm exponents and its witness's (p, conj(p))
        w = conjugate_exponent(r) if norm and witness else r
        return ((r,) if norm else ()), ((w, conjugate_exponent(w)) if witness else ())

    if isinstance(space, SpaceSpec):
        ps, wit = plan(space.exponent)

        def plain(U):
            norms, W, nonzero = _layer(U, ps, wit)
            return norms.get(space.exponent), W, nonzero

        return plain
    ps, wit = plan(space.outer_exponent)
    runs = [(run, *plan(run.space.exponent)) for run in space.runs]
    keys = [rwit[1] if witness else rps[0] for _, rps, rwit in runs]
    apart = norm and witness and any(rps != rwit[1:] for _, rps, rwit in runs)
    # each run's norms: its r-norm and its weights' norm, one exponent where
    # conj(conj(r)) == r
    asked = [tuple(dict.fromkeys(rps + rwit[1:])) for _, rps, rwit in runs]

    def product(U):
        layers = [_layer(run.slab(U), rs, rwit) for (run, _, rwit), rs in zip(runs, asked)]
        blocks = space._gather([n[k] for (n, _, _), k in zip(layers, keys)], U)
        norms, weights, nonzero = _layer(blocks, () if apart else ps, wit)
        if apart:
            inner = space._gather([n[r] for (n, _, _), (_, (r,), _) in zip(layers, runs)], U)
            norms = _layer(inner, ps, ())[0]
        W = space._spread(weights, [W for _, W, _ in layers], U) if witness else None
        return norms.get(space.outer_exponent), W, nonzero and all(z for *_, z in layers)

    return product


def ascent_steps(dom, cod):
    """The two steps of an ascent iteration, with the bits of the calls they
    replace: ``measure(Y)`` -> (cod.norm_many(Y), cod.dual.witness_many(Y))
    from one pass per layer over |Y|, and ``lift(U)`` -> (dom.witness_many(U),
    nonzero), nonzero True where no witness column is zero.

    A product that is a plain space (``ProductSpaceSpec.plain``) runs as that
    space, with the same bits on finite input in every layout: a one-block
    outer layer maps a block norm b to b with weight 1.0, and a one-entry
    block u has norm |u| and witness sign(u) at every exponent, so weight
    times witness, (P / n) sign(u), is the plain (sign(u) P) / n.  Products
    of one-entry blocks keep their layers from ``_IN_ORDER_TERMS`` = 8 blocks
    on, where numpy sums a Fortran-ordered input pairwise but the gathered
    block norms in order, and where a step's outer witness exponent is 1,
    whose indicator weight 0.0 gives 0.0 sign(u) = -0.0 for u < 0.
    A column holding an infinity and no NaN gets the norm +inf from both,
    and one holding a NaN the norm NaN, but the two may give such a column
    different witnesses; an ascent's A X and A^T Z are finite unless a
    matrix product overflows."""
    dom, cod = (s.plain if isinstance(s, ProductSpaceSpec) else s for s in (dom, cod))
    measure, lift = _step(cod, True, True), _step(dom, False, True)
    return (lambda Y: measure(Y)[:2]), (lambda U: lift(U)[1:])


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
