"""Shared numeric configuration.

A single immutable config object holds what a caller sets: the random seed,
the one user tolerance ``tol_exact``, the effort setting ``restarts`` and the
budgets (``max_iterations``, ``vertex_limit``, ``grid_axis_points``,
``grid_budget``, ``retry_cap``, ``n_max``).  Identical (input, seed, config)
triples reproduce identical results.

Fixed numeric policy lives as constants beside its one reader:
``frames.FRAME_REL_THRESHOLD``, ``opnorm.RATIO_TOL``, ``opnorm.SAMPLE_BATCH``,
``multipliers.MIN_SYMBOL``, ``generate.MAX_CONDITION`` and
``perturbation.DEVIATION_BASE``.
"""
from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class NumericsConfig:
    # tolerances
    tol_exact: float = 1e-10      # relative, for closed-form identities

    # multistart ascent (norm maximization; infima of square full-rank
    # matrices are one over the ascent on the inverse)
    restarts: int = 16
    max_iterations: int = 500
    seed: int = 0

    # exact sign enumeration for the l^inf -> l^r norm
    vertex_limit: int = 20

    # dense sphere-grid oracles (cross-checks only, never a certificate route)
    grid_axis_points: int = 240   # per-axis resolution of sphere grids
    grid_budget: int = 2_000_000  # hard cap on grid samples

    # instance generation
    retry_cap: int = 64

    # continuity suites
    n_max: int = 40

    def fast(self) -> "NumericsConfig":
        """Cheaper profile for the ``frame`` rejection loop of ``generate.gen``.

        That loop is its one caller: ``bessel`` draws are never classified,
        and Riesz draws are accepted on the condition cap alone.
        """
        return replace(self, restarts=6)


DEFAULT_CONFIG = NumericsConfig()
