"""pgframes benchmark: time ``run_checks`` over one seeded workload.

    python3 bench/run.py --workload ladder-lp --seed 1 --seconds 30 --trace 0

Workloads are listed in ``bench/workloads.py`` and explained in
``bench/README.md``.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it reports the per-layer metrics of a traced
pass.  Log lines (environment, every metric with its unit, per-instance
report digests) come first; the last line of standard output is the result
as one JSON object.  Run it from the repository root; it imports
``pgframes`` from ``src/`` and fails without printing a result when the
sources are not there.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    workloads.use_checkout_src()
    # One BLAS thread, set before numpy loads here and inherited by the probes.
    for var in workloads.BLAS_THREAD_VARS:
        os.environ[var] = "1"
    import measure

    result, details = measure.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("environment", json.dumps(measure.environment(), sort_keys=True))
    print(
        f"workload {details['workload']} seed {details['seed']}: "
        f"{details['instances']} instances, passes {details['pass_s']}, "
        f"set-up samples {details['setup_samples_s']}"
    )
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(f"  failed_ratio = {details['failed_ratio']!r} ratio (1 - pass_ratio)")
    if details["spans"] is not None:
        print("spans: calls, total s, self s")
        for name, s in details["spans"].items():
            print(f"  {name:40s} {s['calls']:9d} {s['s']:10.4f} {s['self_s']:10.4f}")
    print("digests", json.dumps(details["digests"]))
    for problem in details["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
