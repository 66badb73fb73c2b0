"""Frame-theoretic classification and dual Riesz bases.

``classify`` decides, for an operator sequence, whether it is a Bessel
sequence (always, at finite truncation), a frame (two-sided norm equivalence
on the analysis side), and a Riesz basis (bijective synthesis from stacked
dual coordinates onto X*).  The frame decision is carried by three
independent routes that must agree: the lower-bound inequality, surjectivity
of the synthesis matrix, and the rank of the stacked matrix.

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


class NotRieszError(ValueError):
    """The sequence is not a Riesz basis (non-square or singular synthesis)."""


@dataclass(frozen=True)
class FrameReport:
    """Classification outcome with certificate-backed bounds.

    ``*_bound`` fields are the certified sides (safe to quote as constants in
    the defining inequalities); ``*_observed`` fields are witness-achieved
    companions used for thresholding and diagnostics.
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
    frame_routes: tuple[bool, bool, bool]  # inequality, surjectivity, rank
    riesz_diagnosis: str
    zero_members: tuple[int, ...]
    witnesses: dict = field(default_factory=dict)


def _infimum_certificates(A, dom, cod, lipschitz, cfg, stream):
    """(safe, observed) certificates for inf ||A x||_cod over the dom sphere.

    ``observed`` is the best achieved ratio (>= true infimum, witness-backed).
    ``safe`` is usable as the constant in the lower inequality: exact closed
    form, a Lipschitz-corrected grid value, or the observed value minus the
    estimate tolerance, with ``method`` disclosing which.
    """
    A = np.asarray(A, dtype=float)
    rank = np.linalg.matrix_rank(A)
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
    a_safe, a_observed = _infimum_certificates(
        F, dom, prod, bessel.upper.value, cfg, stream=22
    )

    rank_F = int(np.linalg.matrix_rank(F))
    g_complete = rank_F == dom.dim

    S = synthesis_matrix(seq)
    rank_S = int(np.linalg.matrix_rank(S))
    route_surjective = rank_S == dom.dim
    route_rank = g_complete
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
    elif rank_S < dom.dim:
        is_riesz = False
        diagnosis = "synthesis-singular"
    else:
        riesz_pair = operator_norm_bounds(S, coeff, xstar, cfg, stream=23)
        riesz_upper, riesz_upper_obs = riesz_pair.upper, riesz_pair.lower
        riesz_lower, riesz_lower_obs = _riesz_lower_certificates(
            S, coeff, xstar, riesz_pair.upper.value, cfg
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
        rank_synthesis=rank_S,
        frame_routes=(route_inequality, route_surjective, route_rank),
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
    """Independent evaluations of the three Riesz-basis characterizations."""

    riesz_inequality: bool      # two-sided synthesis inequality constants positive
    synthesis_injective: bool   # trivial kernel on stacked dual coordinates
    analysis_onto: bool         # analysis range fills the whole product space
    agree: bool
    details: dict


def riesz_equivalences_check(
    seq: OperatorSequence, cfg: NumericsConfig | None = None
) -> RieszEquivalences:
    """Evaluate the three equivalent Riesz-basis conditions independently.

    Disagreement is reported, not raised; for a frame the three booleans are
    equivalent in exact arithmetic.
    """
    cfg = cfg or DEFAULT_CONFIG
    S = synthesis_matrix(seq)
    coeff = seq.coefficient_space()
    xstar = seq.domain.dual

    upper = operator_norm_bounds(S, coeff, xstar, cfg, stream=31)
    if coeff.is_euclidean and xstar.is_euclidean:
        s = np.linalg.svd(S, compute_uv=False)
        low_val = float(s[-1]) if S.shape[0] >= S.shape[1] else 0.0
    else:
        low_val, _ = min_ratio_estimate(S, coeff, xstar, cfg, stream=32)
    cond_inequality = low_val > cfg.frame_rel_threshold * upper.lower.value

    rank_S = int(np.linalg.matrix_rank(S))
    cond_injective = rank_S == coeff.total_dim

    rank_F = int(np.linalg.matrix_rank(seq.stacked()))
    cond_onto = rank_F == coeff.total_dim

    flags = (cond_inequality, cond_injective, cond_onto)
    return RieszEquivalences(
        riesz_inequality=cond_inequality,
        synthesis_injective=cond_injective,
        analysis_onto=cond_onto,
        agree=len(set(flags)) == 1,
        details={
            "synthesis_lower": low_val,
            "synthesis_upper": upper.upper.value,
            "rank_synthesis": rank_S,
            "rank_stacked": rank_F,
            "stacked_dual_dim": coeff.total_dim,
        },
    )
