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

When both gap spaces are Euclidean, every gap of a run is measured from its
factors: the gap is P Q^T with thin factors of 3k columns (k the row count of
member 0), and its spectral norm is that of a core of at most 3k x 3k, so no
n x n gap is formed.  The memo and the lockstep ascent serve non-Euclidean
gap spaces only.  There each run measures each distinct normalized gap
once: the opnorm values are exactly homogeneous (value(A) =
s value(A / s) bit for bit, with s = max|A|), so a step whose gap is a
scalar multiple of an earlier step's, as on a base^-n schedule that bumps
one ingredient, reuses that step's value.  The distinct gaps go to one
``opnorm.operator_norm_bounds_many`` call, in which those whose upper
certificate is not exact, such as the 40 distinct gaps of a ``joint`` run,
share one lockstep ascent that gives each the value a call of its own
would give, bit for bit.  The Bessel bounds B1, B2
of the perturbed sequences in a ``joint`` run come from the two ends of the
schedule, whose bump is affine in one entry, so a norm of it is convex along
the schedule (proof in :func:`continuity_suite`).

Both functions take the base Bessel bounds the theorems assume as
``bessel=``, and certify them with ``analysis_upper`` when it is None.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, NumericsConfig
from .multipliers import Symbol, check_pairing
from .operators import OperatorSequence, _analysis_opnorms, analysis_upper
from .opnorm import (
    BoundCertificate,
    matrix_opnorm,
    operator_norm_bounds_many,
    upper_certificate_only,
)
from .spaces import DimensionMismatchError, pnorm

__all__ = [
    "PerturbationReport",
    "ContinuityTrace",
    "ContinuityViolation",
    "CONTINUITY_KINDS",
    "perturbation_check",
    "continuity_suite",
]

CONTINUITY_KINDS = ("symbol", "theta", "lambda", "joint")
DEVIATION_BASE = 2.0  # deviation schedule base^-n


def _schedule(kind: str, m: Symbol, lam, theta, n_max: int) -> list:
    """The steps (n, d_sym, L1, T1) of the ``DEVIATION_BASE``^-n schedule of ``kind``.

    Step n bumps symbol entry 0 (``d_sym`` is the bumped symbol minus m) and
    entry (0, 0) of member 0 of the sequences (L1, T1; the base's own member 0
    where ``kind`` leaves that sequence alone), a matrix of operator norm
    exactly one for every exponent pair.  Nothing else moves.
    """

    def bump(a: np.ndarray, n: int) -> np.ndarray:
        e = np.zeros(a.shape)
        e[0, 0] = 1.0
        return a + DEVIATION_BASE ** (-n) * e

    L, T = lam.mats[0], theta.mats[0]
    steps = []
    for n in range(1, n_max + 1):
        e = m.entries.copy()
        if kind in ("symbol", "joint"):
            e[0] += DEVIATION_BASE ** (-n)
        L1 = bump(L, n) if kind in ("lambda", "joint") else L
        T1 = bump(T, n) if kind in ("theta", "joint") else T
        steps.append((n, e - m.entries, L1, T1))
    return steps


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
    bessel: BoundCertificate | None = None,
) -> PerturbationReport:
    """Certify the Bessel-bound and operator-gap consequences of a perturbation.

    ``bessel``, when given, is taken as ``B_base`` and must be a proven upper
    Bessel bound of ``lam``.  Any such bound keeps the report's bound valid;
    only ``analysis_upper(lam, cfg)``, which runs when it is None, leaves the
    report's values unchanged.
    """
    cfg = cfg or DEFAULT_CONFIG
    _same_shape(lam, theta)
    p = lam.frame_exponent
    diffs = [ml - mt for ml, mt in zip(lam.mats, theta.mats)]
    per_term = tuple(
        upper_certificate_only(d, lam.domain, y, cfg)
        for d, y in zip(diffs, lam.codomains)
    )
    k_val = pnorm(np.array([c.value for c in per_term]), p)
    k_kind = "exact" if all(c.kind == "exact" for c in per_term) else "upper_certificate"
    K = BoundCertificate(k_val, k_kind, "per-term-aggregate")

    B_base = analysis_upper(lam, cfg) if bessel is None else bessel
    # both lower sides from one lockstep ascent, each with the bits of its own
    # analysis_opnorm call; _same_shape put theta on lam's spaces
    diff_seq = OperatorSequence(lam.domain, lam.codomains, tuple(diffs), p)
    B_pert, analysis_gap = (pair.lower for pair in _analysis_opnorms((theta, diff_seq), cfg))
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


def _lower_values(gaps, dom, cod, cfg) -> list[float]:
    """``matrix_opnorm(A, ...).lower.value`` of each gap, bit for bit.

    One certificate pair per distinct normalized gap, and exact: with s = max|A|,
    the largest entry of A / s is exactly 1.0, and the opnorm routes compute
    on the matrix divided by its largest entry, so value(A) == s * value(A / s)
    bit for bit.  The memo is local to the call, whose gaps share one pair of
    spaces, and keyed by a SHA-256 digest of A / s alone (so a run holds no
    copies of its gaps).  Zero and non-finite gaps go straight to the oracle.

    The distinct normalized gaps go to one ``operator_norm_bounds_many``
    call with stream 0, the stream ``matrix_opnorm`` uses: its division by
    their largest entry, 1.0, and the scaling back are exact, so the values
    are those of one ``matrix_opnorm`` call per gap.
    """
    distinct = {}
    steps = []  # (s, digest), or (value, None) for a zero or non-finite gap
    for A in gaps:
        s = float(np.abs(A).max(initial=0.0))
        if s == 0.0 or not math.isfinite(s):
            steps.append((matrix_opnorm(A, dom.exponent, cod.exponent, cfg).lower.value, None))
            continue
        B = A / s
        key = hashlib.sha256(B.tobytes()).digest()
        distinct.setdefault(key, B)
        steps.append((s, key))
    memo = {}
    if distinct:
        pairs = operator_norm_bounds_many(np.stack(list(distinct.values())), dom, cod, cfg, 0)
        memo = {key: pair.lower.value for key, pair in zip(distinct, pairs)}
    return [v if key is None else v * memo[key] for v, key in steps]


def _euclidean_gap_norms(m, lam, theta, steps) -> list[float]:
    """The spectral norm of each step's multiplier gap, computed from its factors.

    A step's gap (:func:`_multiplier_gap`) is exactly P Q^T with
    P = [L1^T | (L1 - L_0)^T | L_0^T] and
    Q = [d T1^T | m_0 T1^T | m_0 (T1 - T_0)^T], d = d_sym[0]; a term whose
    parameter difference is zero contributes zero columns, so the block
    shapes stay uniform along the run and a step that moves nothing has a
    zero core.  With thin QRs P = U_P R_P and Q = U_Q R_Q, the U with
    orthonormal columns, P Q^T = U_P (R_P R_Q^T) U_Q^T, so
    ||P Q^T||_2 = ||R_P R_Q^T||_2: one QR per stacked factor and one SVD of
    the stacked cores, each at most 3k x 3k, serve the whole run.

    The value is ||C v|| / ||v|| for a core C and its computed top right
    singular vector v, not the computed singular value: its error is of
    second order in v's, which roughly halves the worst error against the
    exact gap norm.  Member 0 of each sequence is first divided by a power
    of two at the largest entry along the run (exact), and the values are
    scaled back at the end, so no factor overflows or underflows where the
    gap does not (with lam x 1e306 and theta x 1e-306, say, d T1^T would
    be subnormal).
    """

    def exponent(A: np.ndarray) -> int:
        s = float(np.abs(A).max())
        return math.frexp(s)[1] if math.isfinite(s) else 0

    L1s = np.stack([L1 for _, _, L1, _ in steps])
    T1s = np.stack([T1 for _, _, _, T1 in steps])
    eL, eT = exponent(L1s), exponent(T1s)
    L1s, L = np.ldexp(L1s, -eL), np.ldexp(lam.mats[0], -eL)
    T1s, T = np.ldexp(T1s, -eT), np.ldexp(theta.mats[0], -eT)
    m0 = m.entries[0]
    d = np.array([d_sym[0] for _, d_sym, _, _ in steps])[:, None, None]
    P = np.concatenate((L1s, L1s - L, np.broadcast_to(L, L1s.shape)), axis=1)
    Q = np.concatenate((d * T1s, m0 * T1s, m0 * (T1s - T)), axis=1)
    R_P = np.linalg.qr(P.transpose(0, 2, 1), mode="r")
    R_Q = np.linalg.qr(Q.transpose(0, 2, 1), mode="r")
    cores = R_P @ R_Q.transpose(0, 2, 1)
    v = np.linalg.svd(cores)[2][:, 0, :, None]
    norms = np.linalg.norm(cores @ v, axis=(1, 2)) / np.linalg.norm(v, axis=(1, 2))
    return [math.ldexp(x, eL + eT) for x in norms.tolist()]


def _multiplier_gap(m, lam, theta, d_sym, L1, T1) -> np.ndarray:
    """The multiplier gap of a step that moves member 0 only, to (m_0 + d_sym[0], L1, T1).

    It is (m_0' - m_0) L1^T T1 + m_0 (L1 - L_0)^T T1 + m_0 L_0^T (T1 - T_0),
    which telescopes to m_0' L1^T T1 - m_0 L_0^T T_0; a term whose parameter
    difference is zero is left out.
    """
    L, T = lam.mats[0], theta.mats[0]
    gap = np.zeros((lam.domain.dim, theta.domain.dim))
    if d_sym[0]:
        gap += d_sym[0] * (L1.T @ T1)
    if not np.array_equal(L1, L):
        gap += m.entries[0] * ((L1 - L).T @ T1)
    if not np.array_equal(T1, T):
        gap += m.entries[0] * (L.T @ (T1 - T))
    return gap


def continuity_suite(
    kind: str,
    m: Symbol,
    lam: OperatorSequence,
    theta: OperatorSequence,
    p1: float,
    cfg: NumericsConfig | None = None,
    bessel: tuple[BoundCertificate, BoundCertificate] | None = None,
) -> list[ContinuityTrace]:
    """Run one continuity mode over ``cfg.n_max`` steps and return their traces.

    The schedule moves member 0 only, so each step's multiplier gap
    M(m_n, L_n, T_n) - M(m, L, T) is member 0's bilinear split
    (m_0' - m_0) L_0'^T T_0' + m_0 (L_0' - L_0)^T T_0' + m_0 L_0^T (T_0' - T_0).
    Neither multiplier is assembled: subtracting two nearly equal matrices
    would cancel most of the gap's digits, while each term of the split is
    formed from a parameter difference and so is computed at the gap's own
    scale.

    Every gap is measured before any bound is checked.  When both gap
    spaces (``theta.domain`` and ``lam.domain.dual``) are Euclidean,
    :func:`_euclidean_gap_norms` reads all of them off the SVDs of small
    cores of their factors (proof there): no gap is formed, and ``measured``
    is the gap's spectral norm up to rounding.  Otherwise the gaps go to
    :func:`_lower_values`, whose memo and lockstep ascent serve the
    non-Euclidean spaces only: each distinct normalized gap is measured
    once, so a step whose gap is a scalar multiple of an earlier one (a base^-n
    bump of the symbol or of one sequence) reuses that step's value, and
    ``measured`` is what ``matrix_opnorm(gap, ...).lower.value`` gives, bit
    for bit.

    The parameter distances are read off the bumped entries.  The symbol
    moves by s e_1 and member 0 of a sequence by s E, E = e_1 e_1^T, and
    ||s E||_{p->q} = |s| for all p, q: ||E x||_q = |x_0| <= ||x||_p, with
    equality at x = e_1.  The l^q1 aggregate over members with one nonzero
    member is that member's norm, so every distance is |s|, as the oracle
    and ``pnorm`` would give it bit for bit.

    ``bessel``, when given, is the pair (B_lam, B_theta) that the theorem
    bounds assume and must hold proven upper Bessel bounds of ``lam`` and
    ``theta``.  Any such bounds keep the theorem bounds valid; only
    ``analysis_upper`` of each, which runs when it is None, leaves the traces
    unchanged.

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
    if kind not in CONTINUITY_KINDS:
        raise ValueError(f"kind must be one of {CONTINUITY_KINDS}, got {kind!r}")
    if not p1 > 1.0:  # NaN included
        raise ValueError(f"the auxiliary exponent p1 must exceed 1, got {p1}")
    if cfg.n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {cfg.n_max}")

    check_pairing(m, lam, theta)
    if bessel is None:
        bessel = (analysis_upper(lam, cfg), analysis_upper(theta, cfg))
    B_lam, B_theta = (b.value for b in bessel)
    m_p1 = m.p_norm(p1)
    steps = _schedule(kind, m, lam, theta, cfg.n_max)

    def upper_with(seq: OperatorSequence, M1: np.ndarray) -> float:
        # the certified Bessel bound of seq with member 0 replaced by M1
        bumped = OperatorSequence(
            seq.domain, seq.codomains, (M1,) + seq.mats[1:], seq.frame_exponent
        )
        return analysis_upper(bumped, cfg).value

    B1 = B2 = None
    if kind == "joint":  # the schedule is convex in its bump (docstring)
        ends = steps if len(steps) == 1 else (steps[0], steps[-1])
        B1 = max(upper_with(lam, L1) for _, _, L1, _ in ends)
        B2 = max(upper_with(theta, T1) for _, _, _, T1 in ends)

    gap_dom, gap_cod = theta.domain, lam.domain.dual
    if gap_dom.is_euclidean and gap_cod.is_euclidean:
        measured_all = _euclidean_gap_norms(m, lam, theta, steps)
    else:
        gaps = (_multiplier_gap(m, lam, theta, d_sym, L1, T1) for _, d_sym, L1, T1 in steps)
        measured_all = _lower_values(gaps, gap_dom, gap_cod, cfg)
    L, T = lam.mats[0], theta.mats[0]
    traces: list[ContinuityTrace] = []
    for (n, d_sym, L1, T1), measured in zip(steps, measured_all):
        # each parameter distance is the norm of a multiple of e_1 or E: |s| (docstring)
        sym_gap = float(abs(d_sym[0]))
        lam_gap = float(abs(L1[0, 0] - L[0, 0]))
        theta_gap = float(abs(T1[0, 0] - T[0, 0]))
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

        if measured > bound + 1e-9:
            raise ContinuityViolation(
                f"step {n}: measured {measured:.3e} exceeds bound {bound:.3e}"
            )
        traces.append(
            ContinuityTrace(
                n=n,
                kind=kind,
                deviation=deviation,
                measured=measured,
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
