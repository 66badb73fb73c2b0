"""Perturbation bounds and parameter-continuity suites for multipliers.

``perturbation_check`` certifies that perturbing a sequence by operators with
aggregate gap K keeps the Bessel bound within B + K, and that the analysis
and synthesis operators of the pair differ by at most K in norm (the
synthesis difference is the adjoint of the analysis difference, so one norm
computation serves both).

``continuity_suite`` drives a deviation schedule through one of four
parameter-convergence modes (symbol only, either sequence, or all three
jointly) and records, per step, the measured multiplier gap next to the
theorem bound it must respect.  The schedule moves symbol entry 0 and entry
(0, 0) of member 0 of the sequences, so the gap is member 0's three terms,
formed from the parameter differences themselves: no multiplier is assembled
and no digits are lost to subtracting two nearly equal matrices.  The
parameter distances of the bounds need no oracle: each is the norm of s e_1
or s E with E = e_1 e_1^T, and ||s E|| = |s| for every exponent pair.

The gaps are measured in one batch per run of the ``continuity`` suite:
``continuity_gaps`` takes the schedules of several modes, builds each
mode's gaps as one stack, and measures all of them together, since every
mode's gaps live between the same two spaces; ``continuity_suite`` then
checks one mode's bounds on the values it is handed, so a violation in one
mode fails that mode alone.  A ``continuity_suite`` call without values
measures its own mode as a batch of one.

When both gap spaces are Euclidean, every gap is measured from its factors:
the gap is P Q^T with thin factors of 3k columns (k the row count of member
0), and its spectral norm is that of a core of at most 3k x 3k, so no n x n
gap is formed, and the cores of every mode share one QR/SVD stack.
Between other spaces the gaps of all modes go to one
``opnorm.operator_norm_bounds_many`` call, which certifies each distinct
gap divided by its largest entry once: the opnorm values are exactly
homogeneous (value(A) = s value(A / s) bit for bit, with s = max|A|), so a
step whose gap is a scalar multiple of an earlier step's, as on a base^-n
schedule that bumps one ingredient, reuses that step's certificates.  The
distinct gaps whose upper certificate is not exact, such as the 40 of a
``joint`` run, share one lockstep ascent that gives each the value a call
of its own would give, bit for bit.  The Bessel bounds B1, B2 of the
perturbed sequences in a ``joint`` run come from the two ends of the
schedule, whose bump is affine in one entry, so a norm of it is convex
along the schedule (proof in :func:`continuity_suite`).

Both functions certify the base Bessel bounds the theorems assume with
``analysis_upper``; inside ``run_checks`` these, like ``perturbation_check``'s
analysis pairs, come from the run's certificate ledger (``opnorm``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, NumericsConfig
from .multipliers import Symbol, check_pairing
from .operators import OperatorSequence, analysis_upper
from .opnorm import (
    ANALYSIS_STREAM,
    MATRIX_STREAM,
    BoundCertificate,
    block_upper_certificates,
    matrix_opnorm,
    operator_norm_bounds_many,
)
from .spaces import DimensionMismatchError, pnorm

__all__ = [
    "PerturbationReport",
    "ContinuityTrace",
    "ContinuityViolation",
    "CONTINUITY_KINDS",
    "perturbation_check",
    "continuity_gaps",
    "continuity_suite",
]

CONTINUITY_KINDS = ("symbol", "theta", "lambda", "joint")
DEVIATION_BASE = 2.0  # deviation schedule base^-n


class ContinuityViolation(RuntimeError):
    """A measured multiplier gap exceeded its theorem bound."""


@dataclass(frozen=True)
class PerturbationReport:
    """Certified aggregate gap K and the Bessel bounds and operator gaps it controls."""

    K: BoundCertificate
    B_base: BoundCertificate        # certified upper bound for the base sequence
    B_perturbed: BoundCertificate   # witness-backed lower estimate for the perturbed one
    slack: float                    # B_base + K - B_perturbed, nonnegative up to tolerance
    # lower estimate of ||U_pert - U_base||, and so of ||T_pert - T_base||:
    # the synthesis gap is the adjoint of the analysis gap and has its norm
    analysis_gap: BoundCertificate


def _same_shape(lam: OperatorSequence, theta: OperatorSequence) -> None:
    if lam.domain != theta.domain or lam.frame_exponent != theta.frame_exponent:
        raise DimensionMismatchError("sequences live on different domains or exponents")
    if lam.codomains != theta.codomains:
        raise DimensionMismatchError("sequences have different codomain lists")


def perturbation_check(
    lam: OperatorSequence,
    theta: OperatorSequence,
    cfg: NumericsConfig | None = None,
) -> PerturbationReport:
    """Certify the Bessel-bound and operator-gap consequences of a perturbation.

    The per-member certificates of K are ``block_upper_certificates`` of the
    difference family's stacked matrix on lam's analysis space: one stacked
    call per run of equal codomains, each certificate with the bits of
    ``upper_certificate_only`` on its member.  ``B_base`` is
    ``analysis_upper(lam, cfg)``.  The analysis pairs of ``theta`` and of the
    difference family lam - theta come from one ``operator_norm_bounds_many``
    call on their stacked matrices, between lam's domain and analysis space
    on ``ANALYSIS_STREAM``, so their lower sides share one lockstep ascent.
    """
    cfg = cfg or DEFAULT_CONFIG
    _same_shape(lam, theta)
    p = lam.frame_exponent
    diffs = tuple(ml - mt for ml, mt in zip(lam.mats, theta.mats))
    per_term = block_upper_certificates(
        np.vstack(diffs), lam.domain, lam.analysis_space(), cfg
    )
    k_val = pnorm(np.array([c.value for c in per_term]), p)
    k_kind = "exact" if all(c.kind == "exact" for c in per_term) else "upper_certificate"
    K = BoundCertificate(k_val, k_kind, "per-term-aggregate")

    B_base = analysis_upper(lam, cfg)
    # both lower sides from one lockstep ascent, each with the bits of its
    # own analysis_opnorm call; _same_shape put theta on lam's spaces
    diff_seq = OperatorSequence(lam.domain, lam.codomains, diffs, p)
    stack = np.stack([theta.stacked(), diff_seq.stacked()])
    analysis = operator_norm_bounds_many(
        stack, lam.domain, lam.analysis_space(), cfg, ANALYSIS_STREAM
    )
    B_pert, analysis_gap = (pair.lower for pair in analysis)
    slack = B_base.value + K.value - B_pert.value
    return PerturbationReport(
        K=K,
        B_base=B_base,
        B_perturbed=B_pert,
        slack=slack,
        analysis_gap=analysis_gap,
    )


@dataclass(frozen=True)
class ContinuityTrace:
    """One step of a continuity run: deviation in, measured gap vs bound out.

    The run's auxiliary exponent p1 is an input of :func:`continuity_suite`
    and is not stored on its steps.
    """

    n: int
    kind: str
    deviation: float        # the parameter distance; for joint, the largest of the three
    # the multiplier gap norm: exact up to rounding between Euclidean spaces,
    # a witness-backed lower estimate otherwise
    measured: float
    bound: float            # theorem bound at this step
    components: tuple[float, ...] | None = None  # the three terms of the joint bound


def _schedule(kind: str, m: Symbol, lam, theta, n_max: int):
    """The ``DEVIATION_BASE``^-n schedule of ``kind`` over steps n = 1..n_max.

    Step n bumps symbol entry 0 and entry (0, 0) of member 0 of the sequences
    by base^-n, a matrix of operator norm exactly one for every exponent
    pair; nothing else moves.  Returns (d, L1, T1): ``d`` holds each step's
    bumped symbol entry 0 minus m_0 (zeros where ``kind`` leaves the symbol
    alone), and L1, T1 each step's member 0 as an (n_max, k, dim) stack, or
    the base's own member 0 itself where ``kind`` leaves that sequence alone.
    """
    sizes = np.array([DEVIATION_BASE ** (-n) for n in range(1, n_max + 1)])
    m0 = m.entries[0]
    d = (m0 + sizes) - m0 if kind in ("symbol", "joint") else np.zeros(n_max)

    def bumped(a: np.ndarray) -> np.ndarray:
        e = np.zeros(a.shape)
        e[0, 0] = 1.0
        return a + sizes[:, None, None] * e

    L1 = bumped(lam.mats[0]) if kind in ("lambda", "joint") else lam.mats[0]
    T1 = bumped(theta.mats[0]) if kind in ("theta", "joint") else theta.mats[0]
    return d, L1, T1


def _multiplier_gaps(m, lam, theta, d, L1, T1) -> np.ndarray:
    """The multiplier gap of each step of a schedule, as an (n_max, n_L, n_T) stack.

    Step n's gap is (m_0' - m_0) L1^T T1 + m_0 (L1 - L_0)^T T1 + m_0 L_0^T (T1 - T_0),
    which telescopes to m_0' L1^T T1 - m_0 L_0^T T_0.  A term whose parameter
    difference is zero at a step is left out of that step, not multiplied
    by zero (0 * inf is NaN), and each term is added where it is present, in
    this order, as one step at a time would add it.
    """
    L, T = lam.mats[0], theta.mats[0]
    m0 = m.entries[0]
    gaps = np.zeros((len(d), lam.domain.dim, theta.domain.dim))

    def at(S: np.ndarray, i: np.ndarray) -> np.ndarray:
        # a 2-D member 0 broadcasts in the products with its own layout
        return S if S.ndim == 2 else S[i]

    def moved(S: np.ndarray, base: np.ndarray):
        # the steps whose member 0 differs from the base's; a 2-D S is the base
        return S[:, 0, 0] != base[0, 0] if S.ndim == 3 else []

    terms = (
        (d != 0.0, lambda i: d[i, None, None] * (np.swapaxes(at(L1, i), -1, -2) @ at(T1, i))),
        (moved(L1, L), lambda i: m0 * (np.swapaxes(L1[i] - L, -1, -2) @ at(T1, i))),
        (moved(T1, T), lambda i: m0 * (L.T @ (T1[i] - T))),
    )
    for present, term in terms:
        i = np.flatnonzero(present)
        if i.size:
            gaps[i] += term(i)
    return gaps


def _dense_gap_norms(gaps: np.ndarray, dom, cod, cfg) -> np.ndarray:
    """``matrix_opnorm(A, ...).lower.value`` of each slice of a gap stack, bit for bit.

    The finite gaps go to one ``operator_norm_bounds_many`` call on
    ``MATRIX_STREAM``, as ``matrix_opnorm`` makes, which certifies each
    distinct gap divided by its largest entry once: the values are exactly
    homogeneous (value(A) == s * value(A / s) bit for bit, with s = max|A|),
    so a gap that is a scalar multiple of another reuses its certificates.
    Non-finite gaps go straight to the oracle, one at a time.
    """
    finite = np.isfinite(gaps).all(axis=(1, 2))
    values = np.empty(len(gaps))
    for i in np.flatnonzero(~finite):
        values[i] = matrix_opnorm(gaps[i], dom.exponent, cod.exponent, cfg).lower.value
    idx = np.flatnonzero(finite)
    if idx.size:
        pairs = operator_norm_bounds_many(gaps[idx], dom, cod, cfg, MATRIX_STREAM)
        values[idx] = [pair.lower.value for pair in pairs]
    return values


def _euclidean_gap_norms(m, lam, theta, schedules) -> list[list[float]]:
    """The spectral norm of each step's multiplier gap, per schedule, from its factors.

    A step's gap (:func:`_multiplier_gaps`) is exactly P Q^T with
    P = [L1^T | (L1 - L_0)^T | L_0^T] and
    Q = [d T1^T | m_0 T1^T | m_0 (T1 - T_0)^T], d the step's symbol
    difference; a term whose parameter difference is zero contributes zero
    columns, so the block shapes stay uniform along the run and a step that
    moves nothing has a zero core.  With thin QRs P = U_P R_P and
    Q = U_Q R_Q, the U with orthonormal columns, P Q^T = U_P (R_P R_Q^T) U_Q^T,
    so ||P Q^T||_2 = ||R_P R_Q^T||_2: one QR per stacked factor and one SVD
    of the stacked cores, each at most 3k x 3k, serve every step of every
    schedule.

    The value is ||C v|| / ||v|| for a core C and its computed top right
    singular vector v, not the computed singular value: its error is of
    second order in v's, which roughly halves the worst error against the
    exact gap norm.  Member 0 of each sequence is first divided by a power
    of two at its largest entry along the schedule (exact, and per
    schedule), and the values are scaled back at the end, so no factor
    overflows or underflows where the gap does not (with lam x 1e306 and
    theta x 1e-306, say, d T1^T would be subnormal).
    """

    def exponent(A: np.ndarray) -> int:
        s = float(np.abs(A).max())
        return math.frexp(s)[1] if math.isfinite(s) else 0

    m0 = m.entries[0]
    Ps, Qs, exponents = [], [], []
    for d, L1, T1 in schedules:
        L1s = np.broadcast_to(L1, (len(d), *lam.mats[0].shape))
        T1s = np.broadcast_to(T1, (len(d), *theta.mats[0].shape))
        eL, eT = exponent(L1s), exponent(T1s)
        L1s, L = np.ldexp(L1s, -eL), np.ldexp(lam.mats[0], -eL)
        T1s, T = np.ldexp(T1s, -eT), np.ldexp(theta.mats[0], -eT)
        Ps.append(np.concatenate((L1s, L1s - L, np.broadcast_to(L, L1s.shape)), axis=1))
        Qs.append(np.concatenate((d[:, None, None] * T1s, m0 * T1s, m0 * (T1s - T)), axis=1))
        exponents.append(eL + eT)
    R_P = np.linalg.qr(np.concatenate(Ps).transpose(0, 2, 1), mode="r")
    R_Q = np.linalg.qr(np.concatenate(Qs).transpose(0, 2, 1), mode="r")
    cores = R_P @ R_Q.transpose(0, 2, 1)
    v = np.linalg.svd(cores)[2][:, 0, :, None]
    norms = np.linalg.norm(cores @ v, axis=(1, 2)) / np.linalg.norm(v, axis=(1, 2))
    runs = np.split(norms, len(schedules))
    return [[math.ldexp(x, e) for x in run.tolist()] for run, e in zip(runs, exponents)]


def _check_run(kinds, m: Symbol, lam, theta, cfg: NumericsConfig, p1=None) -> None:
    """Raise for an unknown kind, an auxiliary exponent p1 (when given) not
    above 1, fewer than one step, or ingredients that do not pair."""
    for kind in kinds:
        if kind not in CONTINUITY_KINDS:
            raise ValueError(f"kind must be one of {CONTINUITY_KINDS}, got {kind!r}")
    if p1 is not None and not p1 > 1.0:  # NaN included
        raise ValueError(f"the auxiliary exponent p1 must exceed 1, got {p1}")
    if cfg.n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {cfg.n_max}")
    check_pairing(m, lam, theta)


def continuity_gaps(
    kinds,
    m: Symbol,
    lam: OperatorSequence,
    theta: OperatorSequence,
    cfg: NumericsConfig | None = None,
) -> dict[str, list[float]]:
    """The measured multiplier gap of every step of each kind's schedule, as one batch.

    Returns a dict from each kind to its ``cfg.n_max`` values, which are the
    ``measured`` fields :func:`continuity_suite` gives that kind, bit for
    bit.  The kinds share their gap spaces, so all their gaps are measured
    together: on the l^2 route in one QR/SVD stack of factor cores, and
    otherwise in one :func:`_dense_gap_norms` call, whose distinct
    normalized gaps share one lockstep ascent.
    """
    cfg = cfg or DEFAULT_CONFIG
    _check_run(kinds, m, lam, theta, cfg)
    if not kinds:
        return {}
    schedules = [_schedule(kind, m, lam, theta, cfg.n_max) for kind in kinds]
    gap_dom, gap_cod = theta.domain, lam.domain.dual
    if gap_dom.is_euclidean and gap_cod.is_euclidean:
        runs = _euclidean_gap_norms(m, lam, theta, schedules)
    else:
        gaps = np.concatenate([_multiplier_gaps(m, lam, theta, *sched) for sched in schedules])
        values = _dense_gap_norms(gaps, gap_dom, gap_cod, cfg)
        runs = [run.tolist() for run in np.split(values, len(kinds))]
    return dict(zip(kinds, runs))


def continuity_suite(
    kind: str,
    m: Symbol,
    lam: OperatorSequence,
    theta: OperatorSequence,
    p1: float,
    cfg: NumericsConfig | None = None,
    measured: list[float] | None = None,
) -> list[ContinuityTrace]:
    """Run one continuity mode over ``cfg.n_max`` steps and return their traces.

    The schedule moves member 0 only, so each step's multiplier gap
    M(m_n, L_n, T_n) - M(m, L, T) is member 0's bilinear split
    (m_0' - m_0) L_0'^T T_0' + m_0 (L_0' - L_0)^T T_0' + m_0 L_0^T (T_0' - T_0).
    Neither multiplier is assembled: subtracting two nearly equal matrices
    would cancel most of the gap's digits, while each term of the split is
    formed from a parameter difference and so is computed at the gap's own
    scale.

    Every gap is measured before any bound is checked, by
    :func:`continuity_gaps` on this one kind.  When both gap
    spaces (``theta.domain`` and ``lam.domain.dual``) are Euclidean,
    :func:`_euclidean_gap_norms` reads all of them off the SVDs of small
    cores of their factors (proof there): no gap is formed, and ``measured``
    is the gap's spectral norm up to rounding.  Otherwise the gaps go to
    :func:`_dense_gap_norms` as one stack, and ``measured`` is what
    ``matrix_opnorm(gap, ...).lower.value`` gives, bit for bit.

    The parameter distances are read off the bumped entries.  The symbol
    moves by s e_1 and member 0 of a sequence by s E, E = e_1 e_1^T, and
    ||s E||_{p->q} = |s| for all p, q: ||E x||_q = |x_0| <= ||x||_p, with
    equality at x = e_1.  The l^q1 aggregate over members with one nonzero
    member is that member's norm, so every distance is |s|, as the oracle
    and ``pnorm`` would give it bit for bit.

    The Bessel bounds B_lam, B_theta of the theorem bounds are
    ``analysis_upper`` of ``lam`` and ``theta``.  ``measured``, when given,
    is taken as the run's measured gaps, one per step; only this kind's values from a
    :func:`continuity_gaps` call, which runs when it is None, leave the
    traces unchanged.  So several kinds measured in one batch each keep
    their own traces and their own violations.

    The ``joint`` bound needs B1 >= ||U(L_n)|| and B2 >= ||U(T_n)|| at every
    step, U the analysis operator.  The two ends of the schedule suffice, so
    B1 = max(upper(L_1), upper(L_{n_max})) and B2 likewise, four
    certificates per run.  The proof, for L (T is the same):

    * The schedule changes only entry (0, 0) of member 0, from
      a to a_n = fl(a + base^-n); every other entry x becomes x + 0 = x.
      The stacked matrix of L_n is therefore exactly U + s_n E, with
      s_n = a_n - a (a real number, not rounded) and E = e_1 e_1^T.
    * Rounding is monotone and base^-n decreases in n, so s_n does not
      increase with n, and s_n >= fl(a) - a = 0; every s_n lies in
      [s_{n_max}, s_1].
    * t -> ||U + tE|| is convex (a norm of an affine map), so its maximum
      over [s_{n_max}, s_1] is at an end: sup_n ||U_n|| =
      max(||U_1||, ||U_{n_max}||) <= max(upper(U_1), upper(U_{n_max})).
    * A bump that rounds away entirely (s_n = 0, say a = 2^60) is the t = 0
      end of the same segment and needs nothing more.  With ``n_max`` = 1
      the two ends are one step, certified once.

    The upper certificates themselves (Hölder, singular-dimension) need not
    be convex in t, so the endpoint value can be below the all-step
    maximum of the certificates; it is still a proven bound.

    Every step asserts measured <= bound + 1e-9 (the finite-step form of the
    convergence statement) and the run asserts that the bounds decay; a
    violation raises :class:`ContinuityViolation`.
    """
    cfg = cfg or DEFAULT_CONFIG
    _check_run((kind,), m, lam, theta, cfg, p1)
    B_lam, B_theta = (analysis_upper(seq, cfg).value for seq in (lam, theta))
    m_p1 = m.p_norm(p1)
    d, L1, T1 = _schedule(kind, m, lam, theta, cfg.n_max)

    def upper_with(seq: OperatorSequence, M1: np.ndarray) -> float:
        # the certified Bessel bound of seq with member 0 replaced by M1
        bumped = OperatorSequence(
            seq.domain, seq.codomains, (M1,) + seq.mats[1:], seq.frame_exponent
        )
        return analysis_upper(bumped, cfg).value

    B1 = B2 = None
    if kind == "joint":  # the schedule is convex in its bump (docstring)
        ends = (0,) if cfg.n_max == 1 else (0, cfg.n_max - 1)
        B1 = max(upper_with(lam, L1[i]) for i in ends)
        B2 = max(upper_with(theta, T1[i]) for i in ends)

    if measured is None:
        measured = continuity_gaps((kind,), m, lam, theta, cfg)[kind]
    elif len(measured) != cfg.n_max:
        raise ValueError(f"{len(measured)} measured gaps for {cfg.n_max} steps")
    L, T = lam.mats[0], theta.mats[0]
    # each parameter distance is the norm of a multiple of e_1 or E: |s| (docstring)
    sym_gaps, lam_gaps, theta_gaps = (
        np.broadcast_to(np.abs(g), (cfg.n_max,)).tolist()
        for g in (d, L1[..., 0, 0] - L[0, 0], T1[..., 0, 0] - T[0, 0])
    )
    traces: list[ContinuityTrace] = []
    steps = zip(measured, sym_gaps, lam_gaps, theta_gaps)
    for n, (measured_n, sym_gap, lam_gap, theta_gap) in enumerate(steps, start=1):
        components = None
        if kind == "symbol":
            deviation = sym_gap
            bound = B_lam * B_theta * sym_gap
        elif kind == "theta":
            deviation = theta_gap
            bound = B_lam * m_p1 * theta_gap
        elif kind == "lambda":
            deviation = lam_gap
            bound = B_theta * m_p1 * lam_gap
        else:
            components = (
                B1 * B2 * sym_gap,
                B2 * m_p1 * lam_gap,
                B_lam * m_p1 * theta_gap,
            )
            deviation = max(sym_gap, lam_gap, theta_gap)
            bound = sum(components)

        if measured_n > bound + 1e-9:
            raise ContinuityViolation(
                f"step {n}: measured {measured_n:.3e} exceeds bound {bound:.3e}"
            )
        traces.append(
            ContinuityTrace(
                n=n,
                kind=kind,
                deviation=deviation,
                measured=measured_n,
                bound=bound,
                components=components,
            )
        )

    if len(traces) >= 2 and traces[0].bound > 0.0:
        if traces[-1].bound > 0.5 * traces[0].bound:
            raise ContinuityViolation(
                f"bounds do not decay: {traces[0].bound:.3e} -> {traces[-1].bound:.3e}"
            )
    return traces
