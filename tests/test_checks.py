import dataclasses
import functools

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

    def oversized_gap(lam, theta, cfg):
        rep = real(lam, theta, cfg)
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
