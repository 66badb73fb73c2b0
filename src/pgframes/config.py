"""Shared numeric configuration.

A single immutable config object feeds every tolerance, iteration budget and
random stream in the package, so that identical (input, seed, config) triples
reproduce identical results.
"""
from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class NumericsConfig:
    # tolerances
    tol_exact: float = 1e-10      # relative, for closed-form identities
    frame_rel_threshold: float = 1e-8   # lower frame bound counts as positive if A > thr * B

    # multistart ascent (norm maximization; infima of square full-rank
    # matrices are one over the ascent on the inverse)
    restarts: int = 16
    max_iterations: int = 500
    ratio_tol: float = 1e-12      # relative stop criterion on successive ratios
    seed: int = 0

    # infimum candidates for tall, wide or singular non-Euclidean matrices
    sample_batch: int = 2048      # vectorized random candidates for minima

    # exact sign enumeration for the l^inf -> l^r norm
    vertex_limit: int = 20

    # dense sphere-grid oracles (cross-checks only, never a certificate route)
    grid_axis_points: int = 240   # per-axis resolution of sphere grids
    grid_budget: int = 2_000_000  # hard cap on grid samples

    # multiplier inversion
    min_symbol: float = 1e-12

    # instance generation
    retry_cap: int = 64
    max_condition: float = 200.0  # conditioning cap for generated Riesz syntheses

    # continuity suites
    n_max: int = 40
    deviation_base: float = 2.0   # deviation schedule base^-n

    def fast(self) -> "NumericsConfig":
        """Cheaper profile for inner loops (generation, precondition checks)."""
        return replace(self, restarts=6)


DEFAULT_CONFIG = NumericsConfig()
