"""Random instance generation with rejection conditioning.

Matrices are drawn with i.i.d. standard normal entries and resampled until
the requested kind holds.  ``bessel`` accepts every draw, ``frame`` accepts
a draw that :func:`classify` calls a frame, and the Riesz kinds accept a
draw whose synthesis matrix S has condition number at most
``MAX_CONDITION``.  The cap keeps downstream inversions well inside the
acceptance tolerances, and it alone settles ``classify(...).is_riesz``, so
no Riesz draw is classified.

Why the cap settles it, for x2_dim = n <= 700 (the benchmark workloads stop
at 96).  The dimension checks in :func:`gen` make S and F = S^T square.
kappa_2(S) <= 200 gives sigma_min >= sigma_max / 200, far above the rank
cutoff sigma_max * n * eps of ``matrix_rank``, so the rank is full and
``classify`` judges the draw by a_obs > ``FRAME_REL_THRESHOLD`` * B_obs.
For a square F of full rank, a_obs is 1 over a lower estimate of
||F^-1||_{P->X} and B_obs is at most ||F||_{X->P} (on l^2 both are exact
singular values), so a_obs / B_obs >= 1 / (||F^-1||_{P->X} ||F||_{X->P}).
Passing through l^2 costs the norm-equivalence constants c_X of X and c_P
of the product P: ||F^-1||_{P->X} ||F||_{X->P} <= kappa_2(F) c_X c_P.  An
l^r space of dim d has c <= d^|1/2 - 1/r| <= sqrt(d), so c_X <= sqrt(n);
the mixed norm of k components of dims at most d_max has c_P <= d_max
sqrt(k) <= n^(3/2).  Hence a_obs / B_obs >= 1 / (200 n^2) >= 1 / (200 *
700^2) > 1e-8 = ``FRAME_REL_THRESHOLD``, and every capped draw is Riesz.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .config import DEFAULT_CONFIG, NumericsConfig
from .frames import classify
from .instances import Instance
from .operators import OperatorSequence, synthesis_matrix
from .spaces import SpaceSpec, conjugate_exponent

__all__ = ["GenerationError", "GEN_KINDS", "gen"]

GEN_KINDS = ("bessel", "frame", "riesz", "riesz-pair")
MAX_CONDITION = 200.0  # conditioning cap for generated Riesz syntheses
FRAME_RESTARTS = 6  # ascent restarts when classifying a ``frame`` draw


class GenerationError(RuntimeError):
    """Generation failed (infeasible request or retry cap exceeded)."""


def gen(
    kind: str,
    x2_dim: int,
    y_dims,
    x1_dim: int | None = None,
    frame_exponent: float = 2.0,
    x1_exponent: float = 2.0,
    x2_exponent: float = 2.0,
    y_exponents=None,
    seed: int = 0,
    symbol_min: float = 0.2,
    cfg: NumericsConfig | None = None,
) -> Instance:
    """Generate an instance whose left family classifies as ``kind``.

    ``riesz`` conditions the left family; ``riesz-pair`` conditions both
    families and floors the symbol at ``symbol_min`` in absolute value.  A
    Riesz draw is accepted on the cap kappa_2(S) <= ``MAX_CONDITION`` alone,
    which implies ``classify(...).is_riesz`` for x2_dim <= 700 (the proof is
    in the module docstring); only ``frame`` draws are classified.
    Raises :class:`GenerationError` (echoing the seed) when the request is
    infeasible or the retry cap runs out.
    """
    cfg = cfg or DEFAULT_CONFIG
    if kind not in GEN_KINDS:
        raise GenerationError(f"unknown kind {kind!r}; expected one of {GEN_KINDS}")
    y_dims = tuple(int(m) for m in y_dims)
    if not y_dims or any(m < 1 for m in y_dims):
        raise GenerationError(f"y_dims must be positive integers, got {y_dims}")
    x1_dim = int(x1_dim) if x1_dim is not None else x2_dim
    if y_exponents is None:
        y_exponents = (2.0,) * len(y_dims)
    y_exponents = tuple(float(r) for r in y_exponents)
    total = sum(y_dims)
    if kind in ("riesz", "riesz-pair") and total != x2_dim:
        raise GenerationError(
            f"riesz needs sum(y_dims) == x2_dim, got {total} != {x2_dim} (seed={seed})"
        )
    if kind == "riesz-pair" and total != x1_dim:
        raise GenerationError(
            f"riesz-pair needs sum(y_dims) == x1_dim, got {total} != {x1_dim} (seed={seed})"
        )

    x1 = SpaceSpec(x1_dim, x1_exponent)
    x2 = SpaceSpec(x2_dim, x2_exponent)
    components = tuple(SpaceSpec(m, r) for m, r in zip(y_dims, y_exponents))
    rng = np.random.default_rng([seed, GEN_KINDS.index(kind)])

    def riesz(seq) -> bool:
        # the cap implies classify(seq).is_riesz (module docstring); written
        # as <= so that a NaN condition number rejects the draw
        return bool(np.linalg.cond(synthesis_matrix(seq)) <= MAX_CONDITION)

    def draw(domain, comps, exponent, accept, what):
        for _ in range(cfg.retry_cap):
            mats = tuple(rng.standard_normal((m, domain.dim)) for m in y_dims)
            seq = OperatorSequence(domain, comps, mats, exponent)
            if accept(seq):
                return seq.mats
        raise GenerationError(
            f"retry cap {cfg.retry_cap} exceeded while drawing {what} (seed={seed})"
        )

    accept_lam = {
        "bessel": lambda seq: True,  # every finite family is a Bessel sequence
        "frame": lambda seq: classify(seq, replace(cfg, restarts=FRAME_RESTARTS)).is_frame,
    }.get(kind, riesz)
    lam = draw(x2, components, frame_exponent, accept_lam, f"a {kind} family")
    theta = draw(
        x1.dual,
        tuple(c.dual for c in components),
        conjugate_exponent(frame_exponent),
        riesz if kind == "riesz-pair" else lambda seq: True,
        "the paired family",
    )

    if kind == "riesz-pair":
        signs = np.where(rng.random(len(y_dims)) < 0.5, -1.0, 1.0)
        symbol = signs * rng.uniform(symbol_min, 1.0 + symbol_min, len(y_dims))
    else:
        symbol = rng.standard_normal(len(y_dims))

    return Instance(
        x1=x1,
        x2=x2,
        components=components,
        frame_exponent=float(frame_exponent),
        lam=lam,
        theta=theta,
        symbol=symbol,
        seed=seed,
    )
