"""Benchmark workloads: seeded ``riesz-pair`` instances and their set-up.

A workload is a list of keyword sets for ``pgframes.gen``, derived from the
benchmark seed alone.  Set-up generates each instance and passes it through
``serialize``/``parse``, so the checks see only what a user could hand the
program on disk.

Run as a script, this module measures one set-up in a fresh interpreter and
prints it as JSON; ``run.py`` starts it several times to time set-up:

    python3 bench/workloads.py --workload ladder-lp --seed 1
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("ladder-lp", "ladder-l2", "small-grid")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (frame exponent, component exponent) pairs of the small-grid workload; the
# X2 and X1 exponents take the same two values the other way round.
GRID_EXPONENTS = ((1.5, 3.0), (3.0, 1.5), (1.25, 4.0))
GRID_Y_DIMS = ((2,), (1, 1), (3,), (2, 1))


def use_checkout_src() -> None:
    """Import ``pgframes`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "pgframes" / "__init__.py").is_file():
        raise SystemExit(f"bench: no pgframes sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _ladder(n: int, frame_exponent: float, y_exponent: float, seed: int) -> dict:
    return dict(
        kind="riesz-pair",
        x2_dim=n,
        y_dims=[2] * (n // 2),
        frame_exponent=frame_exponent,
        y_exponents=[y_exponent] * (n // 2),
        seed=seed,
    )


def specs(workload: str, seed: int) -> list[dict]:
    """The ``gen`` keyword sets of a workload; instance i gets seed 1000*seed + i."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    base = 1000 * seed
    if workload == "ladder-lp":
        return [_ladder(n, 1.5, 3.0, base + i) for i, n in enumerate((4, 8, 12, 16))]
    if workload == "ladder-l2":
        return [_ladder(n, 2.0, 2.0, base + i) for i, n in enumerate((16, 32, 64, 96))]
    if workload == "small-grid":
        out = []
        for fe, ye in GRID_EXPONENTS:
            for y_dims in GRID_Y_DIMS:
                out.append(
                    dict(
                        kind="riesz-pair",
                        x2_dim=sum(y_dims),
                        y_dims=list(y_dims),
                        frame_exponent=fe,
                        y_exponents=[ye] * len(y_dims),
                        x2_exponent=ye,
                        x1_exponent=fe,
                        seed=base + len(out),
                    )
                )
        return out
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def build(workload: str, seed: int) -> list:
    """Generate the workload's instances and round-trip them through JSON."""
    import pgframes as pg

    out = []
    for spec in specs(workload, seed):
        inst = pg.gen(**spec)
        back = pg.parse(pg.serialize(inst))
        if not same_instance(inst, back):
            raise RuntimeError(f"JSON round trip changed instance seed={spec['seed']}")
        out.append(back)
    return out


def same_instance(a, b) -> bool:
    """Bit-exact equality of two instances."""
    import numpy as np

    mats = all(
        np.array_equal(x, y) for x, y in zip(a.lam + a.theta, b.lam + b.theta)
    )
    return (
        mats
        and len(a.lam) == len(b.lam)
        and len(a.theta) == len(b.theta)
        and np.array_equal(a.symbol, b.symbol)
        and (a.x1, a.x2, a.components, a.frame_exponent, a.p1, a.seed)
        == (b.x1, b.x2, b.components, b.frame_exponent, b.p1, b.seed)
    )


def timed_setup(workload: str, seed: int) -> tuple[float, list]:
    """Seconds to import pgframes and build the workload, with the instances."""
    t0 = time.perf_counter()
    use_checkout_src()
    import pgframes  # noqa: F401  (the import is part of what is timed)

    instances = build(workload, seed)
    return time.perf_counter() - t0, instances


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Time one workload set-up.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    args = ap.parse_args(argv)
    seconds, instances = timed_setup(args.workload, args.seed)
    print(json.dumps({"setup_s": seconds, "instances": len(instances)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
