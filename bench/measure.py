"""Timed passes of ``run_checks`` over a workload, and the metrics they give.

A pass runs ``pgframes.run_checks`` (all nine suites) once per instance.  The
untraced passes give the end-to-end metrics; a trace run adds one pass under
:class:`tracer.Tracer` for the per-layer metrics and compares its report
digests with the untraced pass, so tracing is shown not to change results.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import workloads
from tracer import Tracer

SETUP_PROBES = 3
STATUSES = ("pass", "fail", "skipped")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MB",
    "cert_gap.median": "ratio",
    "cert_gap.max": "ratio",
}

# Per-layer metrics taken straight from the span summary.
CALLS_AND_SELF = (
    "opnorm.upper_certificate_only",
    "opnorm.operator_norm_bounds",
    "opnorm.min_ratio_estimate",
    "gridsearch.certified_min_ratio",
    "spaces.pnorm_many",
    "spaces.holder_witness_many",
    "frames.classify",
    "multipliers.assemble",
)
CALLS_ONLY = ("opnorm.matrix_opnorm", "frames.dual_riesz_basis", "operators.analysis_opnorm")
SELF_ONLY = (
    "frames.riesz_equivalences_check",
    "multipliers.norm_bounds",
    "multipliers.invert",
    "perturbation.continuity_suite",
    "perturbation.perturbation_check",
)
COUNTS = (
    "gridsearch.sphere_samples.samples",
    "multipliers.assemble.terms",
    "perturbation.continuity_suite.steps",
)


@dataclass
class Pass:
    seconds: float
    reports: list          # one CheckReport per instance, None where run_checks raised
    raised: int


def run_pass(pg, instances) -> Pass:
    raised, reports = 0, []
    t0 = time.perf_counter()
    for inst in instances:
        try:
            reports.append(pg.run_checks(inst))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            reports.append(None)
            raised += 1
    return Pass(time.perf_counter() - t0, reports, raised)


def digest(report) -> str:
    """SHA-256 of the report's deterministic fields (everything but wall_ms)."""
    doc = report.to_dict()
    for check in doc["checks"]:
        check.pop("wall_ms")
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def cert_gap(report) -> float | None:
    """estimate_upper / estimate of the bounds suite, None if it has no values."""
    values = next((r.values for r in report.results if r.name == "bounds"), {})
    if "estimate" not in values or values["estimate"] <= 0.0:
        return None
    return values["estimate_upper"] / values["estimate"]


def report_problems(report, suites) -> list[str]:
    """Ways a report breaks the output contract (not suite verdicts)."""
    names = tuple(r.name for r in report.results)
    if names != tuple(suites):
        return [f"suites {names} != {tuple(suites)}"]
    problems = [
        f"{r.name}: unknown status {r.status!r}" for r in report.results if r.status not in STATUSES
    ]
    gap = cert_gap(report)
    if gap is None:
        problems.append("bounds suite reported no estimate")
    elif gap < 1.0 - 1e-9:
        problems.append(f"certified estimate upper is below the estimate (ratio {gap!r})")
    return problems


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up times, each from a fresh interpreter, one after another."""
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "workloads.py")
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, script, "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=170, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        out.append(float(json.loads(proc.stdout.splitlines()[-1])["setup_s"]))
    return out


def environment() -> dict:
    """What the numbers depend on besides the code."""
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    commit = None  # a checkout without git metadata
    if (workloads.ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=workloads.ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_build,
        "blas_threads": {var: os.environ.get(var) for var in workloads.BLAS_THREAD_VARS},
        "machine": platform.machine(),
        "git_commit": commit,
    }


def _quantities(passes, suites) -> tuple[dict, list[str], list]:
    """End-to-end values except set-up, contract problems, and per-instance digests.

    A suite result counts as passed only with status ``pass``; failed,
    skipped and raised (a ``run_checks`` call that raised) all count against
    ``pass_ratio``.
    """
    problems, digests, passed, gaps = [], {}, 0, []
    for p_index, p in enumerate(passes):
        for i, report in enumerate(p.reports):
            if report is None:
                continue
            problems += [f"instance {i}: {msg}" for msg in report_problems(report, suites)]
            d = digest(report)
            if digests.setdefault(i, d) != d:
                problems.append(f"instance {i}: pass {p_index} report differs from pass 0")
            passed += sum(r.status == "pass" for r in report.results)
            gap = cert_gap(report)
            if p_index == 0 and gap is not None:
                gaps.append(gap)
    results = len(suites) * sum(len(p.reports) for p in passes)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    values = {
        "wall_s": statistics.median(p.seconds for p in passes),
        "pass_ratio": passed / results,
        "peak_rss_mb": rss_kib / 1024.0,
        "cert_gap.median": statistics.median(gaps) if gaps else 0.0,
        "cert_gap.max": max(gaps, default=0.0),
    }
    return values, problems, [digests.get(i) for i in range(len(passes[0].reports))]


def _layer_metrics(spans, trace: Tracer, setup_trace: Tracer, untraced: Pass, traced: Pass,
                   suites) -> dict:
    """Per-layer metrics as name -> (value, unit); ``spans`` is ``trace.summary()``."""
    counts = trace.counts
    out = {}
    for name in CALLS_AND_SELF + CALLS_ONLY:
        out[f"{name}.calls"] = (spans[name]["calls"], "count")
    for name in CALLS_AND_SELF + SELF_ONLY:
        out[f"{name}.self_s"] = (spans[name]["self_s"], "s")
    for name in COUNTS:
        out[name] = (counts[name], "count")
    bounds_calls = spans["opnorm.operator_norm_bounds"]["calls"]
    out["opnorm.exact_ratio"] = (counts["opnorm.exact_hits"] / max(bounds_calls, 1), "ratio")
    gaps = trace.gaps or [1.0]
    p50, p90 = np.percentile(gaps, [50, 90])
    out["opnorm.gap_ratio.p50"] = (float(p50), "ratio")
    out["opnorm.gap_ratio.p90"] = (float(p90), "ratio")
    out["opnorm.gap_ratio.max"] = (float(max(gaps)), "ratio")
    grid_calls = spans["gridsearch.certified_min_ratio"]["calls"]
    out["gridsearch.useful_ratio"] = (
        counts["gridsearch.certified_positive"] / max(grid_calls, 1), "ratio"
    )
    setup = setup_trace.summary()
    out["generate.gen.s"] = (setup["generate.gen"]["s"], "s")
    out["generate.gen.classify_calls"] = (
        setup["generate.gen"]["classify_calls"] / max(setup["generate.gen"]["calls"], 1),
        "count",
    )
    out["instances.parse.s"] = (setup["instances.parse"]["s"], "s")
    suite_s = dict.fromkeys(suites, 0.0)
    for report in filter(None, untraced.reports):
        for r in report.results:
            suite_s[r.name] += r.wall_ms / 1000.0
    out.update({f"checks.{name}.s": (s, "s") for name, s in suite_s.items()})
    out["trace.overhead_s"] = (traced.seconds - untraced.seconds, "s")
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, details for the log lines).

    Set-up is timed in fresh interpreters first; the run then sets up once
    more in this process (traced when ``trace``) and measures the passes.
    """
    setups = setup_seconds(workload, seed)
    setup_trace = Tracer() if trace else None
    with setup_trace or contextlib.nullcontext():
        _, instances = workloads.timed_setup(workload, seed)
    result, details = measure_passes(instances, seconds, setup_trace, statistics.median(setups))
    details.update(workload=workload, seed=seed, setup_samples_s=setups)
    return result, details


def measure_passes(instances, seconds: float, setup_trace: Tracer | None, setup_s: float):
    """Measure ``run_checks`` passes over instances already set up.

    Untraced passes repeat while the next one is expected to end within
    ``seconds`` (at least one runs).  With a ``setup_trace`` (a trace run)
    there is one untraced and one traced pass instead, and the result holds
    the per-layer metrics rather than the end-to-end ones.
    """
    import pgframes as pg

    started = time.perf_counter()
    passes = [run_pass(pg, instances)]
    if setup_trace is not None:
        with Tracer() as pass_trace:
            passes.append(run_pass(pg, instances))
    else:
        while time.perf_counter() - started + passes[-1].seconds <= seconds:
            passes.append(run_pass(pg, instances))

    values, problems, digests = _quantities(passes, pg.SUITES)
    values["setup_s"] = setup_s
    spans = pass_trace.summary() if setup_trace is not None else None
    if spans is not None:
        layers = _layer_metrics(spans, pass_trace, setup_trace, *passes, pg.SUITES)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    result = {
        "correct": not problems,
        "attempted": sum(len(p.reports) for p in passes),
        "failed": sum(p.raised for p in passes),
        "metrics": metrics,
    }
    details = {
        "instances": len(instances),
        "pass_s": [p.seconds for p in passes],
        "failed_ratio": 1.0 - values["pass_ratio"],
        "problems": problems,
        "digests": digests,
        "spans": spans,
    }
    return result, details
