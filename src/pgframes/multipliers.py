"""Bessel multipliers: assembly, norm bounds, injectivity and inversion.

The multiplier of a symbol m and two operator sequences L (contributing
adjoints) and T (applied directly) is the finite sum

    M = sum_i m_i L_i^T @ T_i,

acting between the dual coordinate spaces of the two domains.  Each entry is
the correctly rounded value of its exact sum (what ``math.fsum`` returns), so
reordering the index set reproduces the matrix bit for bit; a vectorized
TwoSum cascade certifies almost every entry and ``math.fsum`` sums the rest
(see :func:`_fsum_stack`); a term of weight zero is left out, which keeps
every sum (see :func:`assemble`).  :func:`assemble` builds the
:class:`MultiplierOperator`, which carries (m, L, T) along with the matrix;
:func:`norm_bounds`, :func:`invert` and :func:`injectivity_witness` all take
that assembled operator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, NumericsConfig
from .frames import classify, dual_riesz_basis
from .operators import OperatorSequence
from .opnorm import BoundCertificate, matrix_opnorm
from .spaces import (
    DimensionMismatchError,
    SpaceError,
    SpaceSpec,
    Vector,
    conjugate_exponent,
    pnorm,
)

__all__ = [
    "Symbol",
    "MultiplierOperator",
    "NormBounds",
    "SymbolTooSmallError",
    "InverseVerificationError",
    "assemble",
    "check_pairing",
    "norm_bounds",
    "invert",
    "injectivity_witness",
]

MIN_SYMBOL = 1e-12  # invert refuses a symbol with inf |m_i| at or below this


class SymbolTooSmallError(ValueError):
    """Inversion refused: the symbol has entries too close to zero."""


class InverseVerificationError(ArithmeticError):
    """The assembled inverse multiplier failed its composition-residual check."""


@dataclass(frozen=True)
class Symbol:
    """A finite scalar weight sequence."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float).ravel()
        if e.size == 0:
            raise SpaceError("a symbol needs at least one entry")
        if not np.all(np.isfinite(e)):
            raise SpaceError("symbol entries must be finite")
        object.__setattr__(self, "entries", e)

    def __len__(self) -> int:
        return self.entries.size

    @property
    def sup_norm(self) -> float:
        return float(np.abs(self.entries).max())

    @property
    def inf_abs(self) -> float:
        return float(np.abs(self.entries).min())

    def p_norm(self, p: float) -> float:
        return pnorm(self.entries, p)

    def reciprocal(self) -> "Symbol":
        if self.inf_abs == 0.0:
            raise SymbolTooSmallError("cannot invert a symbol with zero entries")
        return Symbol(1.0 / self.entries)


@dataclass(frozen=True)
class MultiplierOperator:
    """Assembled multiplier matrix with its ingredients.

    ``matrix`` maps the dual of the right sequence's domain into the dual of
    the left sequence's domain; ``domain``/``codomain`` carry the dual
    exponents under the standard identification.
    """

    matrix: np.ndarray
    symbol: Symbol
    left: OperatorSequence
    right: OperatorSequence
    domain: SpaceSpec
    codomain: SpaceSpec
    advisories: tuple[str, ...] = ()

    def apply(self, g) -> Vector:
        e = g.entries if isinstance(g, Vector) else np.asarray(g, dtype=float).ravel()
        if e.size != self.domain.dim:
            raise DimensionMismatchError(
                f"input dim {e.size} does not match domain dim {self.domain.dim}"
            )
        return Vector(self.matrix @ e, self.codomain)


# math.fsum returns +0.0 for every exact zero sum on CPython, as the cascade
# below does (its error sum starts at +0.0); where fsum keeps a negative zero
# instead, exact zero sums go to the fallback.
_FSUM_UNSIGNED_ZERO = math.copysign(1.0, math.fsum((-0.0,))) > 0.0


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Knuth's TwoSum: s = fl(a + b) and its rounding error e, a + b = s + e."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _fsum_stack(stack: np.ndarray) -> np.ndarray:
    """Correctly rounded entrywise sum over the first axis of a (k, ...) stack.

    Every entry is bit for bit what ``math.fsum`` returns for its k terms, so
    the result does not depend on their order.  The certificate, with
    u = 2^-53 (Ogita, Rump & Oishi, SISC 2005): the cascade
    (s, e_i) = TwoSum(s, x_i) from s = x_1 leaves sum x = s + sum e_i
    exactly.  With t = fl(sum e_i), a = fl(sum |e_i|) and
    (r, d) = TwoSum(s, t), sum x = r + d + (sum e_i - t), and recursive
    summation bounds the last term by gamma_(k-2) sum |e_i| < k u a, which
    fl(2k u a) covers also under underflow: the term is a multiple of
    2^-1074, so unless it is 0, k u a > 2^-1074 and
    fl(2k u a) >= 2k u a - 2^-1075 > k u a.  Rounding is
    monotone, so slack = fl(|d| + fl(2k u a)) below a float g proves
    |sum x - r| < g.  r is the rounded sum when the slack is 0, or below half
    the gap to r's neighbours (a quarter of the upper gap when |r| is a power
    of two, where the lower gap halves; both limits are exact or round down
    to 0).  Every other entry is summed by ``math.fsum``, as is every entry
    with a term that is non-finite or of magnitude 2^(1022 - bitlength(k))
    or more (below that no partial sum can overflow), so overflow and
    inf - inf raise exactly as ``math.fsum`` raises them.
    """
    k = len(stack)
    flat = stack.reshape(k, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        s = flat[0]
        t = np.zeros_like(s)
        a = np.zeros_like(s)
        for x in flat[1:]:
            s, e = _two_sum(s, x)
            t += e
            a += np.abs(e)
        r, d = _two_sum(s, t)
        slack = np.abs(d) + a * (k * 2.0**-52)
        power_of_two = np.abs(np.frexp(r)[0]) == 0.5
        limit = np.spacing(np.abs(r)) * np.where(power_of_two, 0.25, 0.5)
    ok = (slack < limit) | ((slack == 0.0) & ((r != 0.0) | _FSUM_UNSIGNED_ZERO))
    big = 2.0 ** (1022 - k.bit_length())
    ok &= (flat.max(axis=0) < big) & (flat.min(axis=0) > -big)
    for j in np.flatnonzero(~ok):
        r[j] = math.fsum(flat[:, j])
    return r.reshape(stack.shape[1:])


def check_pairing(m: Symbol, left: OperatorSequence, right: OperatorSequence) -> None:
    """Raise :class:`DimensionMismatchError` unless the three index sets agree
    and each pair of members shares its codomain dimension."""
    if len(m) != len(left) or len(left) != len(right):
        raise DimensionMismatchError(
            f"index sets differ: symbol {len(m)}, left {len(left)}, right {len(right)}"
        )
    for i, (yl, yr) in enumerate(zip(left.codomains, right.codomains)):
        if yl.dim != yr.dim:
            raise DimensionMismatchError(
                f"member {i}: left codomain dim {yl.dim} != right codomain dim {yr.dim}"
            )


def assemble(m: Symbol, left: OperatorSequence, right: OperatorSequence) -> MultiplierOperator:
    """Sum the weighted products m_i left_i^T @ right_i into one matrix.

    Shapes must pair up (see :func:`check_pairing`).  The Bessel hypotheses
    behind the defining series are vacuous at finite truncation, so their
    failures (zero members, mismatched aggregation exponents) are recorded as
    advisory notes instead of errors.

    A term whose weight m_i is zero is left out where ``math.fsum`` returns
    +0.0 for every exact zero sum: its exact value is 0, so the exact sum of
    every entry is unchanged, and where that sum is 0 both give +0.0 (a
    symbol of zeros gives the zero matrix).  This holds also for a pair
    whose product overflows: its term is 0, where 0 * inf would be NaN.
    """
    check_pairing(m, left, right)
    present = np.flatnonzero(m.entries) if _FSUM_UNSIGNED_ZERO else range(len(m))
    terms = np.empty((len(present), left.domain.dim, right.domain.dim))
    for term, i in zip(terms, present):
        np.multiply(m.entries[i], left.mats[i].T @ right.mats[i], out=term)
    matrix = _fsum_stack(terms) if len(terms) else np.zeros(terms.shape[1:])
    advisories: list[str] = []
    if not math.isclose(right.frame_exponent, conjugate_exponent(left.frame_exponent)):
        advisories.append(
            "aggregation exponents are not conjugate: "
            f"left p={left.frame_exponent}, right {right.frame_exponent}"
        )
    for tag, seq in (("left", left), ("right", right)):
        zeros = seq.zero_members()
        if zeros:
            advisories.append(f"{tag} sequence has zero members at {zeros}")
    return MultiplierOperator(
        matrix=matrix,
        symbol=m,
        left=left,
        right=right,
        domain=right.domain,
        codomain=left.domain.dual,
        advisories=tuple(advisories),
    )


@dataclass(frozen=True)
class NormBounds:
    """Upper/lower theorem bounds and the directly estimated norm."""

    upper: BoundCertificate
    lower: BoundCertificate | None
    estimate: BoundCertificate
    estimate_upper: BoundCertificate
    lower_reason: str | None = None


def norm_bounds(
    M: MultiplierOperator,
    cfg: NumericsConfig | None = None,
    left_report=None,
    right_report=None,
) -> NormBounds:
    """Bound the multiplier norm three ways.

    upper: product of the certified Bessel bounds with the symbol sup norm.
    lower: product of the certified Riesz lower constants with the sup norm,
    present only when both ingredient sequences verify as Riesz bases.
    estimate: the multiplier matrix's own norm between the dual exponents,
    as a witness-backed lower estimate plus a certified upper companion.

    Both Bessel bounds and both Riesz verdicts are read off the classify
    reports of the two sequences; a report that is not passed in is made
    here, with ``cfg``.
    """
    cfg = cfg or DEFAULT_CONFIG
    left_report = left_report or classify(M.left, cfg)
    right_report = right_report or classify(M.right, cfg)
    sup = M.symbol.sup_norm
    upper = BoundCertificate(
        left_report.bessel_bound.value * right_report.bessel_bound.value * sup,
        "upper_certificate",
        "bessel-product",
    )
    est_pair = matrix_opnorm(M.matrix, M.domain.exponent, M.codomain.exponent, cfg)

    sides = [tag for tag, r in (("left", left_report), ("right", right_report)) if not r.is_riesz]
    lower = None if sides else BoundCertificate(
        left_report.lower_bound.value * right_report.lower_bound.value * sup,
        "lower_estimate",
        "riesz-product",
    )
    return NormBounds(
        upper=upper,
        lower=lower,
        estimate=est_pair.lower,
        estimate_upper=est_pair.upper,
        lower_reason=f"not-riesz: {', '.join(sides)}" if sides else None,
    )


def invert(
    M: MultiplierOperator, cfg: NumericsConfig | None = None
) -> tuple[MultiplierOperator, float, float]:
    """Inverse multiplier via the dual bases: weights 1/m, roles swapped.

    The inverse of the multiplier M of (m, L, T) is the multiplier of
    (1/m, dual(T), dual(L)): the adjoint slot is filled by the dual of the
    *right* sequence and the apply slot by the dual of the *left* one.
    Building the duals raises :class:`NotRieszError` unless both synthesis
    matrices are square and invertible.  Returns the inverse with its
    composition residuals max|M^-1 M - I| and max|M M^-1 - I|; raises
    :class:`InverseVerificationError` when either exceeds
    max(1e-8, 100 tol_exact).
    """
    cfg = cfg or DEFAULT_CONFIG
    m = M.symbol
    if m.inf_abs <= MIN_SYMBOL:
        raise SymbolTooSmallError(
            f"symbol-too-small: inf |m_i| = {m.inf_abs:.3e} <= {MIN_SYMBOL:.3e}"
        )
    left_dual = dual_riesz_basis(M.left, cfg).as_operator_sequence()
    right_dual = dual_riesz_basis(M.right, cfg).as_operator_sequence()
    inverse = assemble(m.reciprocal(), right_dual, left_dual)
    n1, n2 = M.matrix.shape[1], M.matrix.shape[0]
    res_left = float(np.abs(inverse.matrix @ M.matrix - np.eye(n1)).max())
    res_right = float(np.abs(M.matrix @ inverse.matrix - np.eye(n2)).max())
    tol = max(1e-8, 100 * cfg.tol_exact)
    if max(res_left, res_right) > tol:
        raise InverseVerificationError(
            f"inverse verification failed: residuals {res_left:.2e}, {res_right:.2e}"
        )
    return inverse, res_left, res_right


def injectivity_witness(M: MultiplierOperator, cfg: NumericsConfig | None = None) -> Vector:
    """A vector g with M g != 0 for a multiplier M with a nonzero symbol.

    Requires the left sequence to be a Riesz basis and every right member to
    be nonzero.  The witness targets the heaviest symbol entry k: g is the
    largest row of right_k, so right_k g != 0 and injectivity of the synthesis
    map keeps the whole sum away from zero.  When M g still rounds to zero
    (extreme scaling), falls back to the coordinate vector of the first
    nonzero column of M.
    """
    cfg = cfg or DEFAULT_CONFIG
    if M.symbol.sup_norm == 0.0:
        raise ValueError("the symbol is identically zero")
    zeros = M.right.zero_members()
    if zeros:
        raise ValueError(f"right sequence has zero members at {zeros}")
    dual_riesz_basis(M.left, cfg)  # raises NotRieszError unless left is a Riesz basis
    k = int(np.argmax(np.abs(M.symbol.entries)))
    rows = np.linalg.norm(M.right.mats[k], axis=1)
    g = M.right.mats[k][int(np.argmax(rows))]
    if float(np.abs(M.matrix @ g).max()) > 0.0:
        return Vector(g, M.domain)
    nonzero = np.flatnonzero(np.any(M.matrix != 0.0, axis=0))
    if nonzero.size == 0:
        raise ValueError("no coordinate witness found; hypotheses violated")
    e = np.zeros(M.domain.dim)
    e[nonzero[0]] = 1.0
    return Vector(e, M.domain)
