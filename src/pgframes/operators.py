"""Operator sequences {L_i : X -> Y_i} with analysis and synthesis maps.

The analysis operator sends x to the tuple {L_i x} in the mixed-norm product;
the synthesis operator sends stacked dual-block coordinates {g_i} to
sum_i L_i^T g_i in X*.  Both are realized by one stacked matrix and its
transpose.  The synthesis operator is the adjoint of the analysis operator,
so its norm is the analysis norm; only the analysis side goes through the
certificate machinery in ``opnorm``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import DEFAULT_CONFIG, NumericsConfig
from .opnorm import (
    ANALYSIS_STREAM,
    BoundCertificate,
    BoundPair,
    operator_norm_bounds_many,
    upper_certificate_only,
)
from .spaces import (
    DimensionMismatchError,
    ProductSpaceSpec,
    ProductVector,
    SpaceError,
    SpaceSpec,
    Vector,
)

__all__ = [
    "OperatorSequence",
    "analysis_apply",
    "synthesis_apply",
    "synthesis_matrix",
    "analysis_opnorm",
    "analysis_upper",
]


@dataclass(frozen=True)
class OperatorSequence:
    """A finite ordered family of matrices L_i : X -> Y_i.

    ``frame_exponent`` is the aggregation exponent p of the mixed norm
    (sum_i ||L_i x||^p)^(1/p) and must lie strictly between 1 and infinity.

    The analysis and coefficient spaces depend on the codomains and the
    exponent alone, so they are built on first use and kept, outside the
    dataclass fields (equality, hashing and ``repr`` do not see them).  The
    stacked matrix is not kept: the members are the caller's arrays, which
    may change.
    """

    domain: SpaceSpec
    codomains: tuple[SpaceSpec, ...]
    mats: tuple[np.ndarray, ...]
    frame_exponent: float

    def __post_init__(self):
        codomains = tuple(self.codomains)
        if not codomains:
            raise SpaceError("an operator sequence needs at least one member")
        mats = tuple(np.asarray(m, dtype=float) for m in self.mats)
        if len(mats) != len(codomains):
            raise DimensionMismatchError(
                f"{len(mats)} matrices for {len(codomains)} codomains"
            )
        for i, (m, y) in enumerate(zip(mats, codomains)):
            if m.shape != (y.dim, self.domain.dim):
                raise DimensionMismatchError(
                    f"member {i} has shape {m.shape}, expected ({y.dim}, {self.domain.dim})"
                )
        if not np.isfinite(np.vstack(mats)).all():
            i = next(i for i, m in enumerate(mats) if not np.isfinite(m).all())
            raise SpaceError(f"member {i} has non-finite entries")
        p = float(self.frame_exponent)
        if not 1.0 < p < np.inf:
            raise SpaceError(f"frame exponent must lie in (1, inf), got {p}")
        object.__setattr__(self, "codomains", codomains)
        object.__setattr__(self, "mats", mats)
        object.__setattr__(self, "frame_exponent", p)

    def __len__(self) -> int:
        return len(self.mats)

    def analysis_space(self) -> ProductSpaceSpec:
        """Target of the analysis operator: (sum + Y_i)_{l^p}."""
        return self._analysis_space

    def coefficient_space(self) -> ProductSpaceSpec:
        """Domain of the synthesis operator: (sum + Y_i*)_{l^q}, the dual of
        the analysis space."""
        return self._analysis_space.dual

    @cached_property
    def _analysis_space(self) -> ProductSpaceSpec:
        return ProductSpaceSpec(self.codomains, self.frame_exponent)

    def stacked(self) -> np.ndarray:
        """All members stacked vertically: the analysis operator's matrix."""
        return np.vstack(self.mats)

    def zero_members(self) -> tuple[int, ...]:
        return tuple(i for i, m in enumerate(self.mats) if np.abs(m).max(initial=0.0) == 0.0)


def _as_domain_array(seq: OperatorSequence, x) -> np.ndarray:
    if isinstance(x, Vector):
        if x.space.dim != seq.domain.dim:
            raise DimensionMismatchError(
                f"input dim {x.space.dim} does not match domain dim {seq.domain.dim}"
            )
        return x.entries
    e = np.asarray(x, dtype=float).ravel()
    if e.size != seq.domain.dim:
        raise DimensionMismatchError(
            f"input dim {e.size} does not match domain dim {seq.domain.dim}"
        )
    return e


def analysis_apply(seq: OperatorSequence, x) -> ProductVector:
    """U x = {L_i x}, a product vector with outer exponent p."""
    e = _as_domain_array(seq, x)
    blocks = tuple(Vector(m @ e, y) for m, y in zip(seq.mats, seq.codomains))
    return ProductVector(blocks, seq.frame_exponent)


def _coefficient_blocks(seq: OperatorSequence, g) -> list[np.ndarray]:
    if isinstance(g, ProductVector):
        blocks = [b.entries for b in g.blocks]
    else:
        blocks = [np.asarray(b, dtype=float).ravel() for b in g]
    if len(blocks) != len(seq):
        raise DimensionMismatchError(
            f"{len(blocks)} blocks for {len(seq)} sequence members"
        )
    for i, (b, y) in enumerate(zip(blocks, seq.codomains)):
        if b.size != y.dim:
            raise DimensionMismatchError(
                f"block {i} has dim {b.size}, expected {y.dim}"
            )
    return blocks


def synthesis_apply(seq: OperatorSequence, g) -> Vector:
    """T {g_i} = sum_i L_i^T g_i, landing in the dual of the domain."""
    blocks = _coefficient_blocks(seq, g)
    out = np.zeros(seq.domain.dim)
    for m, b in zip(seq.mats, blocks):
        out += m.T @ b
    return Vector(out, seq.domain.dual)


def synthesis_matrix(seq: OperatorSequence) -> np.ndarray:
    """Flattened synthesis operator: S @ vec(g) = synthesis_apply(seq, g)."""
    return np.hstack([m.T for m in seq.mats])


def analysis_opnorm(seq: OperatorSequence, cfg: NumericsConfig | None = None) -> BoundPair:
    """Norm of x -> mixed_norm({L_i x}) from (X, l^p_X); the Bessel bound machinery.

    The ascent runs on ``ANALYSIS_STREAM``: a stack of analysis matrices on
    the same spaces sent to ``operator_norm_bounds_many`` with that stream
    gives each this pair, bit for bit.
    """
    return operator_norm_bounds_many(
        seq.stacked()[None], seq.domain, seq.analysis_space(), cfg, ANALYSIS_STREAM
    )[0]


def analysis_upper(seq: OperatorSequence, cfg: NumericsConfig | None = None) -> BoundCertificate:
    """Certified upper Bessel bound: the upper side of :func:`analysis_opnorm` alone."""
    cfg = cfg or DEFAULT_CONFIG
    return upper_certificate_only(seq.stacked(), seq.domain, seq.analysis_space(), cfg)
