"""Frame-theoretic classification and dual Riesz bases.

``classify`` decides, for an operator sequence, whether it is a Bessel
sequence (always, at finite truncation), a frame (two-sided norm equivalence
on the analysis side), and a Riesz basis (bijective synthesis from stacked
dual coordinates onto X*).  The frame decision is carried by two routes that
must agree: the lower-bound inequality and the rank of the stacked matrix.

The synthesis matrix S is the transpose of the stacked analysis matrix F and
the synthesis operator is the adjoint of the analysis operator, so rank S =
rank F and ||S|| = ||F||.  For a Riesz basis S^{-1} = (F^{-1})^T as well, so
the lower Riesz constant is the lower frame bound 1/||F^{-1}||.  Every one of
these numbers is computed once, on the analysis side.  The lower bound and
its witness-backed companion have one route, ``opnorm.infimum_bounds``: the
smallest singular value on Euclidean spaces, 0 at a kernel vector when F is
rank deficient, and otherwise the proven 1/upper(||P||) of a left inverse P
(P F = I: F^{-1} when F is square, pinv(F) when it is tall) beside the ratio
at the witness of the ascent on P.  A ``classify`` call computes F's rank,
its left inverse and P's certificate pair at most once each, in the run's
ledger inside ``run_checks`` and in one of its own on a direct call
(``opnorm.in_a_ledger``, ``opnorm.linalg_once``).

``riesz_equivalences_check`` reads the paper's two Riesz-basis
characterizations (g-complete with the two-sided synthesis inequality, and
bijective synthesis) off that one report.  It is not a second route: an
ascent on S would repeat the one on F^{-1}, and rank S is rank F.  The
independent probes of the constants are sampled ratios, held against [A, B]
by the ``classify`` suite and against [1/B, 1/A] by the ``dual`` suite.

``dual_riesz_basis`` inverts the synthesis matrix and reads its block rows as
the coefficient-extracting dual sequence; biorthogonality and reconstruction
are checked on construction.  Inside ``run_checks`` each synthesis matrix is
inverted once, through the run's ledger (``opnorm.from_ledger``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, NumericsConfig
from .opnorm import (
    BESSEL_STREAM,
    BoundCertificate,
    from_ledger,
    in_a_ledger,
    infimum_bounds,
    linalg_once,
    operator_norm_bounds,
)
from .operators import OperatorSequence, synthesis_matrix
from .spaces import conjugate_exponent

__all__ = [
    "NotRieszError",
    "FrameReport",
    "DualSequence",
    "RieszEquivalences",
    "classify",
    "dual_riesz_basis",
    "riesz_equivalences_check",
]

# a lower frame (or Riesz) bound counts as positive if A > FRAME_REL_THRESHOLD * B
FRAME_REL_THRESHOLD = 1e-8


class NotRieszError(ValueError):
    """The sequence is not a Riesz basis (non-square or singular synthesis)."""


@dataclass(frozen=True)
class FrameReport:
    """Classification outcome with certificate-backed bounds.

    ``*_bound`` fields are the certified sides (safe to quote as constants in
    the defining inequalities); ``*_observed`` fields are witness-achieved
    companions used for thresholding and diagnostics, and their witnesses
    live in X.

    For a Riesz basis these two pairs are also its Riesz constants: the
    synthesis operator is the adjoint of the analysis operator, so its norm
    is the Bessel bound, and S^{-1} = (F^{-1})^T, so the synthesis infimum is
    the lower frame bound 1/||F^{-1}||.  ``is_frame`` (the lower-bound
    inequality) and ``g_complete`` (the rank of the stacked matrix) are the
    two frame routes, which must agree.  ``rank_synthesis`` is the rank of
    the stacked matrix, which is the rank of its transpose.  Every finite
    family is a Bessel sequence, so no field says so.
    """

    is_frame: bool
    is_riesz: bool
    bessel_bound: BoundCertificate
    bessel_observed: BoundCertificate
    lower_bound: BoundCertificate
    lower_observed: BoundCertificate
    g_complete: bool
    rank_synthesis: int
    riesz_diagnosis: str
    zero_members: tuple[int, ...]


def classify(seq: OperatorSequence, cfg: NumericsConfig | None = None) -> FrameReport:
    """Full classification of an operator sequence at its frame exponent.

    The Bessel pair is ``operator_norm_bounds`` of the stacked matrix on
    ``BESSEL_STREAM`` and the lower pair its ``infimum_bounds``, both taken
    from the open ledger, as is the stacked matrix's rank (``linalg_once``);
    with none open the call holds a ledger of its own (``in_a_ledger``).
    """
    cfg = cfg or DEFAULT_CONFIG
    F = seq.stacked()
    dom = seq.domain
    prod = seq.analysis_space()

    with in_a_ledger():
        bessel = operator_norm_bounds(F, dom, prod, cfg, stream=BESSEL_STREAM)
        rank = int(linalg_once(np.linalg.matrix_rank, F))
        a_safe, a_observed = infimum_bounds(F, dom, prod, cfg)
    g_complete = rank == dom.dim
    is_frame = a_safe.value > FRAME_REL_THRESHOLD * bessel.lower.value

    coeff = seq.coefficient_space()
    if coeff.total_dim != dom.dim:
        is_riesz = False
        diagnosis = (
            f"dimension-mismatch: stacked dual dim {coeff.total_dim} != domain dim {dom.dim}"
        )
    elif not g_complete:
        is_riesz = False
        diagnosis = "synthesis-singular"
    else:
        is_riesz = a_observed.value > FRAME_REL_THRESHOLD * bessel.lower.value
        diagnosis = "ok" if is_riesz else "inequality-threshold"

    return FrameReport(
        is_frame=is_frame,
        is_riesz=is_riesz,
        bessel_bound=bessel.upper,
        bessel_observed=bessel.lower,
        lower_bound=a_safe,
        lower_observed=a_observed,
        g_complete=g_complete,
        rank_synthesis=rank,
        riesz_diagnosis=diagnosis,
        zero_members=seq.zero_members(),
    )


@dataclass(frozen=True)
class DualSequence:
    """Block rows of the inverse synthesis matrix: the coefficient extractors.

    ``residual`` is max|S^-1 S - I|, the biorthogonality residual the dual
    was verified with on construction.
    """

    mats: tuple[np.ndarray, ...]
    source: OperatorSequence
    residual: float

    def as_operator_sequence(self) -> OperatorSequence:
        """The dual family as a sequence on X* with conjugate exponents."""
        src = self.source
        return OperatorSequence(
            domain=src.domain.dual,
            codomains=tuple(c.dual for c in src.codomains),
            mats=self.mats,
            frame_exponent=conjugate_exponent(src.frame_exponent),
        )


def dual_riesz_basis(seq: OperatorSequence, cfg: NumericsConfig | None = None) -> DualSequence:
    """Dual Riesz basis: block rows of the inverse synthesis matrix.

    Raises :class:`NotRieszError` when the synthesis matrix is not square or
    is numerically singular.  Construction verifies biorthogonality
    (dual_k @ L_i^T = delta_{k,i} I) and the reconstruction identity, both of
    which reduce to S^{-1} S = I on blocks; the residual of that identity is
    kept on the result.  The blocks are read-only views of the inverse.

    While a certificate ledger is open (``run_checks`` opens one per call),
    the inverse and its residual are made once per synthesis matrix and
    ``tol_exact``, so the ``dual`` suite and ``invert`` share them; each call
    still splits the inverse by its own codomains.  The matrix is keyed by
    its bytes, shape and strides.
    """
    cfg = cfg or DEFAULT_CONFIG
    S = synthesis_matrix(seq)
    n = seq.domain.dim
    total = sum(c.dim for c in seq.codomains)
    if total != n:
        raise NotRieszError(
            f"synthesis is not square: stacked dual dim {total} != domain dim {n}"
        )
    # the layout too: the residual's rounding depends on it
    key = (S.shape, S.strides, S.tobytes(), cfg.tol_exact)
    Sinv, residual = from_ledger("dual_riesz_basis", key, lambda: _inverse(S, cfg))
    offs, mats = 0, []
    for c in seq.codomains:
        mats.append(Sinv[offs : offs + c.dim])
        offs += c.dim
    return DualSequence(tuple(mats), seq, residual)


def _inverse(S: np.ndarray, cfg: NumericsConfig) -> tuple[np.ndarray, float]:
    """The read-only inverse of a square synthesis matrix and its residual
    max|S^-1 S - I|; raises :class:`NotRieszError` when it is singular."""
    try:
        Sinv = np.linalg.inv(S)
    except np.linalg.LinAlgError as exc:
        raise NotRieszError("synthesis matrix is singular") from exc
    residual = float(np.abs(Sinv @ S - np.eye(len(S))).max())
    if not residual <= 100 * cfg.tol_exact:  # a NaN residual verifies nothing
        raise NotRieszError(
            f"synthesis matrix is numerically singular (residual {residual:.2e})"
        )
    Sinv.flags.writeable = False
    return Sinv, residual


@dataclass(frozen=True)
class RieszEquivalences:
    """Evaluations of the two Riesz-basis characterizations."""

    riesz_inequality: bool  # g-complete with two-sided synthesis inequality
    full_rank: bool         # bijective synthesis
    agree: bool


def riesz_equivalences_check(seq: OperatorSequence, report: FrameReport) -> RieszEquivalences:
    """Read the two equivalent Riesz-basis conditions off ``classify``'s report.

    The inequality condition is ``report.is_riesz``: square, g-complete, and
    the observed lower Riesz constant above ``FRAME_REL_THRESHOLD`` times the
    observed Bessel norm, which is the synthesis norm because synthesis is
    the adjoint of analysis.  The bijectivity condition is a square synthesis
    matrix S of full rank, and rank S = rank F = ``report.rank_synthesis``.
    Disagreement is reported, not raised; in exact arithmetic the two are
    equivalent.  No second ascent or rank runs here (module docstring).
    """
    coeff_dim = seq.coefficient_space().total_dim
    full_rank = report.rank_synthesis == coeff_dim == seq.domain.dim
    return RieszEquivalences(
        riesz_inequality=report.is_riesz,
        full_rank=full_rank,
        agree=report.is_riesz == full_rank,
    )
