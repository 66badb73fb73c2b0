"""Frame-theoretic classification and dual Riesz bases.

``classify`` decides, for an operator sequence, whether it is a Bessel
sequence (always, at finite truncation), a frame (two-sided norm equivalence
on the analysis side), and a Riesz basis (bijective synthesis from stacked
dual coordinates onto X*).  The frame decision is carried by two routes that
must agree: the lower-bound inequality and the rank of the stacked matrix.

The synthesis matrix S is the transpose of the stacked analysis matrix F and
the synthesis operator is the adjoint of the analysis operator, so rank S =
rank F and ||S|| = ||F||.  Each is computed once, the norm on the analysis
side; only the synthesis infimum (the lower Riesz constant) needs S itself.

``dual_riesz_basis`` inverts the synthesis matrix and reads its block rows as
the coefficient-extracting dual sequence; biorthogonality and reconstruction
are checked on construction.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_CONFIG, NumericsConfig
from .opnorm import (
    BoundCertificate,
    min_ratio_estimate,
    multistart_lower,
    operator_norm_bounds,
)
from .operators import OperatorSequence, analysis_upper, synthesis_matrix
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


class NotRieszError(ValueError):
    """The sequence is not a Riesz basis (non-square or singular synthesis)."""


@dataclass(frozen=True)
class FrameReport:
    """Classification outcome with certificate-backed bounds.

    ``*_bound`` fields are the certified sides (safe to quote as constants in
    the defining inequalities); ``*_observed`` fields are witness-achieved
    companions used for thresholding and diagnostics.

    ``riesz_upper``/``riesz_upper_observed`` are the Bessel pair itself: the
    synthesis operator is the adjoint of the analysis operator, so its norm
    is the Bessel bound (the observed witness lives in X, not in the
    coefficient space).  ``rank_synthesis`` is the rank of the stacked
    matrix, which is the rank of its transpose.
    """

    is_bessel: bool
    is_frame: bool
    is_riesz: bool
    bessel_bound: BoundCertificate
    bessel_observed: BoundCertificate
    lower_bound: BoundCertificate
    lower_observed: BoundCertificate
    riesz_lower: BoundCertificate | None
    riesz_lower_observed: BoundCertificate | None
    riesz_upper: BoundCertificate | None
    riesz_upper_observed: BoundCertificate | None
    g_complete: bool
    rank_synthesis: int
    frame_routes: tuple[bool, bool]  # inequality, rank
    riesz_diagnosis: str
    zero_members: tuple[int, ...]
    witnesses: dict = field(default_factory=dict)


def _infimum_certificates(A, rank, dom, cod, lipschitz, cfg, stream):
    """(safe, observed) certificates for inf ||A x||_cod over the dom sphere.

    ``rank`` is the rank of ``A``.  ``observed`` is the best achieved ratio
    (>= true infimum, witness-backed).  ``safe`` is usable as the constant in
    the lower inequality: exact closed form, a Lipschitz-corrected grid
    value, or the observed value minus the estimate tolerance, with
    ``method`` disclosing which.
    """
    A = np.asarray(A, dtype=float)
    if dom.is_euclidean and cod.is_euclidean:
        _, s, vt = np.linalg.svd(A)
        smin = float(s[-1]) if A.shape[0] >= A.shape[1] else 0.0
        w = vt[-1]
        cert = BoundCertificate(smin, "exact", "singular-value", w)
        return cert, cert
    if rank < dom.total_dim:
        _, _, vt = np.linalg.svd(A)
        kernel = vt[-1]
        observed = cod.norm(A @ kernel)
        cert = BoundCertificate(0.0, "exact", "kernel", kernel)
        obs = BoundCertificate(observed, "upper_certificate", "kernel", kernel)
        return cert, obs

    value, witness = min_ratio_estimate(A, dom, cod, cfg, stream=stream)
    observed = BoundCertificate(value, "upper_certificate", "multistart-descent", witness)
    if 0 < dom.total_dim <= cfg.grid_cert_max_dim:
        from . import gridsearch

        certified, argmin, sampled = gridsearch.certified_min_ratio(
            A, dom, cod, lipschitz, cfg.grid_axis_points, cfg.grid_budget
        )
        safe = BoundCertificate(certified, "lower_estimate", "grid-certified")
        if sampled < value:
            observed = BoundCertificate(
                sampled, "upper_certificate", "grid-argmin", argmin
            )
    else:
        safe = BoundCertificate(
            max(value - cfg.tol_estimate, 0.0), "lower_estimate", "descent-slack"
        )
    return safe, observed


def classify(seq: OperatorSequence, cfg: NumericsConfig | None = None) -> FrameReport:
    """Full classification of an operator sequence at its frame exponent."""
    cfg = cfg or DEFAULT_CONFIG
    F = seq.stacked()
    dom = seq.domain
    prod = seq.analysis_space()

    bessel = operator_norm_bounds(F, dom, prod, cfg, stream=21)
    rank = int(np.linalg.matrix_rank(F))
    a_safe, a_observed = _infimum_certificates(
        F, rank, dom, prod, bessel.upper.value, cfg, stream=22
    )
    g_complete = rank == dom.dim
    route_inequality = a_safe.value > cfg.frame_rel_threshold * bessel.lower.value
    is_frame = route_inequality

    coeff = seq.coefficient_space()
    xstar = dom.dual
    witnesses: dict = {}
    if a_observed.witness is not None:
        witnesses["lower_frame"] = a_observed.witness
    if bessel.lower.witness is not None:
        witnesses["bessel"] = bessel.lower.witness

    riesz_lower = riesz_lower_obs = riesz_upper = riesz_upper_obs = None
    if coeff.total_dim != dom.dim:
        is_riesz = False
        diagnosis = (
            f"dimension-mismatch: stacked dual dim {coeff.total_dim} != domain dim {dom.dim}"
        )
    elif not g_complete:
        is_riesz = False
        diagnosis = "synthesis-singular"
    else:
        riesz_upper, riesz_upper_obs = bessel.upper, bessel.lower
        riesz_lower, riesz_lower_obs = _riesz_lower_certificates(
            synthesis_matrix(seq), coeff, xstar, bessel.upper.value, cfg
        )
        is_riesz = (
            riesz_lower_obs.value > cfg.frame_rel_threshold * riesz_upper_obs.value
        )
        diagnosis = "ok" if is_riesz else "inequality-threshold"
        if riesz_lower_obs.witness is not None:
            witnesses["riesz_lower"] = riesz_lower_obs.witness

    return FrameReport(
        is_bessel=True,
        is_frame=is_frame,
        is_riesz=is_riesz,
        bessel_bound=bessel.upper,
        bessel_observed=bessel.lower,
        lower_bound=a_safe,
        lower_observed=a_observed,
        riesz_lower=riesz_lower,
        riesz_lower_observed=riesz_lower_obs,
        riesz_upper=riesz_upper,
        riesz_upper_observed=riesz_upper_obs,
        g_complete=g_complete,
        rank_synthesis=rank,
        frame_routes=(route_inequality, g_complete),
        riesz_diagnosis=diagnosis,
        zero_members=seq.zero_members(),
        witnesses=witnesses,
    )


def _riesz_lower_certificates(S, coeff, xstar, lipschitz, cfg):
    """Certificates for the lower synthesis constant of a square invertible S.

    The observed value comes from ascending on S^{-1}: a witness x with
    ||S^{-1} x|| / ||x|| = r maps to g = S^{-1} x achieving ratio 1/r for the
    infimum, so the value stays witness-backed.
    """
    if coeff.is_euclidean and xstar.is_euclidean:
        _, s, vt = np.linalg.svd(S)
        cert = BoundCertificate(float(s[-1]), "exact", "singular-value", vt[-1])
        return cert, cert
    inv = np.linalg.inv(S)
    inv_lower = multistart_lower(inv, xstar, coeff, cfg, stream=24)
    if inv_lower.value <= 0.0:
        observed = BoundCertificate(0.0, "upper_certificate", "inverse-ascent")
        safe = BoundCertificate(0.0, "lower_estimate", "inverse-ascent")
        return safe, observed
    g = inv @ inv_lower.witness
    gn = coeff.norm(g)
    g = g / gn if gn > 0 else g
    observed = BoundCertificate(
        1.0 / inv_lower.value, "upper_certificate", "inverse-ascent", g
    )
    if coeff.total_dim <= cfg.grid_cert_max_dim:
        from . import gridsearch

        certified, argmin, sampled = gridsearch.certified_min_ratio(
            S, coeff, xstar, lipschitz, cfg.grid_axis_points, cfg.grid_budget
        )
        safe = BoundCertificate(certified, "lower_estimate", "grid-certified")
        if sampled < observed.value:
            observed = BoundCertificate(
                sampled, "upper_certificate", "grid-argmin", argmin
            )
    else:
        safe = BoundCertificate(
            max(observed.value - cfg.tol_estimate, 0.0), "lower_estimate", "descent-slack"
        )
    return safe, observed


@dataclass(frozen=True)
class DualSequence:
    """Block rows of the inverse synthesis matrix: the coefficient extractors."""

    mats: tuple[np.ndarray, ...]
    source: OperatorSequence

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
    which reduce to S^{-1} S = I on blocks.
    """
    cfg = cfg or DEFAULT_CONFIG
    S = synthesis_matrix(seq)
    n = seq.domain.dim
    total = sum(c.dim for c in seq.codomains)
    if total != n:
        raise NotRieszError(
            f"synthesis is not square: stacked dual dim {total} != domain dim {n}"
        )
    try:
        Sinv = np.linalg.inv(S)
    except np.linalg.LinAlgError as exc:
        raise NotRieszError("synthesis matrix is singular") from exc
    residual = float(np.abs(Sinv @ S - np.eye(n)).max())
    if residual > 100 * cfg.tol_exact:
        raise NotRieszError(
            f"synthesis matrix is numerically singular (residual {residual:.2e})"
        )
    offs, mats = 0, []
    for c in seq.codomains:
        mats.append(Sinv[offs : offs + c.dim])
        offs += c.dim
    return DualSequence(tuple(mats), seq)


@dataclass(frozen=True)
class RieszEquivalences:
    """Evaluations of the two Riesz-basis characterizations."""

    riesz_inequality: bool  # two-sided synthesis inequality constants positive
    full_rank: bool         # synthesis injective, equivalently analysis onto
    agree: bool
    details: dict


def riesz_equivalences_check(
    seq: OperatorSequence, cfg: NumericsConfig | None = None
) -> RieszEquivalences:
    """Evaluate the two equivalent Riesz-basis conditions independently.

    The inequality condition compares a direct estimate of the synthesis
    infimum with the certified Bessel bound, which is the synthesis norm
    because synthesis is the adjoint of analysis.  The rank condition covers
    both injectivity of the synthesis matrix S and surjectivity of the
    stacked analysis matrix F = S^T, one condition since rank S = rank F.
    Disagreement is reported, not raised; for a frame the two booleans are
    equivalent in exact arithmetic.
    """
    cfg = cfg or DEFAULT_CONFIG
    S = synthesis_matrix(seq)
    coeff = seq.coefficient_space()
    xstar = seq.domain.dual

    upper = analysis_upper(seq, cfg)
    if coeff.is_euclidean and xstar.is_euclidean:
        s = np.linalg.svd(S, compute_uv=False)
        low_val = float(s[-1]) if S.shape[0] >= S.shape[1] else 0.0
    else:
        low_val, _ = min_ratio_estimate(S, coeff, xstar, cfg, stream=32)
    cond_inequality = low_val > cfg.frame_rel_threshold * upper.value

    rank = int(np.linalg.matrix_rank(S))
    cond_rank = rank == coeff.total_dim
    return RieszEquivalences(
        riesz_inequality=cond_inequality,
        full_rank=cond_rank,
        agree=cond_inequality == cond_rank,
        details={
            "synthesis_lower": low_val,
            "synthesis_upper": upper.value,
            "rank": rank,
            "stacked_dual_dim": coeff.total_dim,
        },
    )
