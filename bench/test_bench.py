"""Tests of the benchmark itself, on one small instance so they stay quick."""
from __future__ import annotations

import json
import sys

import pytest

import workloads

workloads.use_checkout_src()

import pgframes as pg  # noqa: E402

import measure  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

SPEC = dict(
    kind="riesz-pair", x2_dim=2, y_dims=[1, 1], frame_exponent=1.5,
    y_exponents=[3.0, 3.0], x2_exponent=3.0, x1_exponent=1.5, seed=7,
)


def _bindings() -> dict:
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "pgframes" or name.startswith("pgframes.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def _traced_run():
    with Tracer() as setup_trace:
        inst = pg.parse(pg.serialize(pg.gen(**SPEC)))
    return measure.measure_passes([inst], 1e-3, setup_trace, 0.1)


@pytest.fixture(scope="module")
def traced_runs():
    return [_traced_run() for _ in range(2)]


def test_tracer_wraps_every_binding_and_restores_the_originals():
    before = _bindings()
    originals = {
        f"{mod}.{fn}": getattr(sys.modules[f"pgframes.{mod}"], fn) for mod, fn in TARGETS
    }
    with Tracer():
        during = _bindings()
        for key, value in before.items():
            if any(value is o for o in originals.values()):
                assert during[key] is not value, key
                assert during[key].__wrapped__ is value, key
    # the copies made by `from .x import y` are among the wrapped bindings
    copies = {
        ("pgframes.frames", "operator_norm_bounds"): "opnorm.operator_norm_bounds",
        ("pgframes.checks", "classify"): "frames.classify",
        ("pgframes.opnorm", "pnorm_many"): "spaces.pnorm_many",
    }
    assert all(before[key] is originals[name] for key, name in copies.items())
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_and_untraced_reports_have_identical_digests(traced_runs):
    inst = pg.parse(pg.serialize(pg.gen(**SPEC)))
    untraced = measure.digest(pg.run_checks(inst))
    with Tracer():
        traced = measure.digest(pg.run_checks(inst))
    assert traced == untraced
    for result, details in traced_runs:
        assert result["correct"], details["problems"]
        assert result["attempted"] == 2 and result["failed"] == 0
        assert details["digests"] == [untraced]


def test_per_layer_counts_repeat_exactly(traced_runs):
    first, second = ({k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"}
                     for r, _ in traced_runs)
    assert first == second
    assert first["spaces.pnorm_many.calls"] > 0
    assert first["gridsearch.sphere_samples.samples"] > 0
    assert first["perturbation.continuity_suite.steps"] == 4 * pg.DEFAULT_CONFIG.n_max


def test_printed_metric_names_are_the_benchmark_json_names(traced_runs):
    with open(workloads.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    inst = pg.parse(pg.serialize(pg.gen(**SPEC)))
    untraced, _ = measure.measure_passes([inst], 1e-3, None, 0.1)
    for result, key in ((untraced, "end_to_end"), (traced_runs[0][0], "per_layer")):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        printed = {k: m["unit"] for k, m in result["metrics"].items()}
        assert printed == declared, key


def test_workload_specs_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.specs(name, 3) == workloads.specs(name, 3)
        assert workloads.specs(name, 3) != workloads.specs(name, 4)
    assert len(workloads.specs("small-grid", 0)) == 12
