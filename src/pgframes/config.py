"""Shared numeric configuration.

A single immutable config object holds what a caller sets: the random seed,
the one user tolerance ``tol_exact``, the effort setting ``restarts`` and the
budgets (``max_iterations``, ``vertex_limit``, ``grid_axis_points``,
``grid_budget``, ``retry_cap``, ``n_max``).  It is pure data, and each field
has this one home: no function takes a parameter that overrides it.
Identical (input, seed, config) triples reproduce identical results.

Fixed numeric policy lives as constants beside its one reader:
``frames.FRAME_REL_THRESHOLD``, ``opnorm.RATIO_TOL``, ``opnorm.SAMPLE_BATCH``,
``multipliers.MIN_SYMBOL``, ``generate.MAX_CONDITION``,
``generate.FRAME_RESTARTS`` and ``perturbation.DEVIATION_BASE``.
"""
from __future__ import annotations

from dataclasses import dataclass


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


DEFAULT_CONFIG = NumericsConfig()
