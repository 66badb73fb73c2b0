import dataclasses
import functools
import importlib
import sys

import numpy as np
import pytest

import pgframes as pg
import pgframes.checks as checks
from pgframes.opnorm import BoundCertificate


@functools.cache
def _pair(space: str) -> pg.Instance:
    if space == "l2":
        return pg.gen("riesz-pair", 4, [2, 2], seed=11)
    return pg.gen(
        "riesz-pair", 3, [2, 1], frame_exponent=1.5, y_exponents=[3, 3],
        x1_exponent=1.5, x2_exponent=3, seed=11,
    )


@pytest.mark.parametrize("k", [-160, -7, 7, 160])
@pytest.mark.parametrize("family", ["lam", "theta"])
@pytest.mark.parametrize("space", ["l2", "lp"])
def test_every_suite_passes_on_a_rescaled_riesz_pair(space, family, k):
    # a Riesz pair stays one under any scaling of either family; every suite
    # must judge it by relative measures and norms that neither overflow nor
    # underflow
    inst = _pair(space)
    scaled = dataclasses.replace(
        inst, **{family: tuple(m * 10.0**k for m in getattr(inst, family))}
    )
    report = checks.run_checks(scaled, cfg=pg.NumericsConfig(n_max=6))
    failed = {r.name: r.reason for r in report.results if r.status != "pass"}
    assert failed == {}


def test_perturb_judges_its_one_gap_once(monkeypatch):
    real = checks.perturbation_check

    def oversized_gap(lam, theta, cfg, bessel):
        rep = real(lam, theta, cfg, bessel=bessel)
        gap = BoundCertificate(2.0 * rep.K.value + 1.0, "lower_estimate", "forced")
        return dataclasses.replace(rep, analysis_gap=gap)

    monkeypatch.setattr(checks, "perturbation_check", oversized_gap)
    (res,) = checks.run_checks(_pair("l2"), suites=["perturb"]).results
    assert res.status == "fail"
    assert res.reason.count("exceeds K") == 1
    assert "synthesis_gap" not in res.values


def test_classify_fails_when_frame_routes_disagree(monkeypatch):
    real = checks.classify

    def split_routes(seq, cfg):
        rep = real(seq, cfg)
        return dataclasses.replace(rep, is_frame=not rep.g_complete)

    monkeypatch.setattr(checks, "classify", split_routes)
    (res,) = checks.run_checks(_pair("l2"), suites=["classify"]).results
    assert res.status == "fail"
    assert "lam: frame routes disagree (False, True)" in res.reason
    assert "theta: frame routes disagree (False, True)" in res.reason


def test_unknown_suite_raises():
    with pytest.raises(ValueError, match="unknown suites"):
        checks.run_checks(_pair("l2"), ["bogus"])


def _counted(monkeypatch, module: str, name: str) -> list:
    # every pgframes binding of pgframes.<module>.<name> records its calls
    original = getattr(importlib.import_module(f"pgframes.{module}"), name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if mod is not None and key.startswith("pgframes"):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


def test_a_full_pass_certifies_each_bessel_bound_once(monkeypatch):
    # 2 shared base bounds + the 4 joint endpoint bounds; classify keeps its own
    inst = pg.gen(
        "riesz-pair", 16, [2] * 8, frame_exponent=1.5, y_exponents=[3] * 8, seed=3
    )
    uppers = _counted(monkeypatch, "operators", "analysis_upper")
    classifies = _counted(monkeypatch, "frames", "classify")
    report = checks.run_checks(inst)
    assert report.ok
    assert (len(uppers), len(classifies)) == (6, 2)


@pytest.mark.parametrize("suite", ["perturb", "continuity"])
def test_suites_that_assume_a_bessel_bound_do_not_classify(monkeypatch, suite):
    classifies = _counted(monkeypatch, "frames", "classify")
    (res,) = checks.run_checks(_pair("lp"), [suite], pg.NumericsConfig(n_max=6)).results
    assert res.status == "pass"
    assert classifies == []


def test_equivalences_reads_the_classify_reports(monkeypatch):
    # one classify per sequence, shared by both suites, and no ascent of its own
    classifies = _counted(monkeypatch, "frames", "classify")
    ascents = _counted(monkeypatch, "opnorm", "min_ratio_estimate")
    report = checks.run_checks(_pair("lp"), ["classify", "equivalences"])
    assert [r.status for r in report.results] == ["pass", "pass"]
    assert (len(classifies), len(ascents)) == (2, 2)


def _values(obj):
    # nested plain values with arrays as lists, so == compares every float
    if dataclasses.is_dataclass(obj):
        return _values(dataclasses.astuple(obj))
    if isinstance(obj, (tuple, list, np.ndarray)):
        return [_values(v) for v in obj]
    return obj


@pytest.mark.parametrize("space", ["l2", "lp"])
def test_a_passed_bessel_bound_changes_no_value(space):
    inst, cfg = _pair(space), pg.NumericsConfig(n_max=6)
    m, lam, theta = inst.symbol_obj(), inst.lam_sequence(), inst.theta_sequence()
    b_lam, b_theta = pg.analysis_upper(lam, cfg), pg.analysis_upper(theta, cfg)

    near = pg.OperatorSequence(
        lam.domain, lam.codomains, tuple(1.01 * a for a in lam.mats), lam.frame_exponent
    )
    assert _values(pg.perturbation_check(lam, near, cfg, bessel=b_lam)) == _values(
        pg.perturbation_check(lam, near, cfg)
    )
    for kind in pg.CONTINUITY_KINDS:
        shared = pg.continuity_suite(kind, m, lam, theta, 2.0, cfg, bessel=(b_lam, b_theta))
        own = pg.continuity_suite(kind, m, lam, theta, 2.0, cfg)
        assert [_values(t) for t in shared] == [_values(t) for t in own]
