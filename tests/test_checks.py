import dataclasses
import functools
import json
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
    # the 4 joint endpoint bounds alone: perturb and continuity read the two
    # base bounds off classify's reports
    inst = pg.gen(
        "riesz-pair", 16, [2] * 8, frame_exponent=1.5, y_exponents=[3] * 8, seed=3
    )
    uppers = _counted(monkeypatch, "operators", "analysis_upper")
    classifies = _counted(monkeypatch, "frames", "classify")
    report = checks.run_checks(inst)
    assert report.ok
    assert (len(uppers), len(classifies)) == (4, 2)


def _workload_instances():
    # the seed-1 instances of the three benchmark workloads, as the benchmark
    # reads them: generated, then round-tripped through the JSON format
    def ladder(i, n, fe, ye):
        return dict(x2_dim=n, y_dims=[2] * (n // 2), frame_exponent=fe,
                    y_exponents=[ye] * (n // 2), seed=1000 + i)

    specs = [ladder(i, n, 1.5, 3.0) for i, n in enumerate((4, 8, 12, 16))]
    specs += [ladder(i, n, 2.0, 2.0) for i, n in enumerate((16, 32, 64, 96))]
    for j, (fe, ye) in enumerate(((1.5, 3.0), (3.0, 1.5), (1.25, 4.0))):
        for k, y_dims in enumerate(((2,), (1, 1), (3,), (2, 1))):
            specs.append(dict(x2_dim=sum(y_dims), y_dims=list(y_dims), frame_exponent=fe,
                              y_exponents=[ye] * len(y_dims), x2_exponent=ye,
                              x1_exponent=fe, seed=1000 + 4 * j + k))
    return [pg.parse(pg.serialize(pg.gen("riesz-pair", **spec))) for spec in specs]


def test_no_bessel_bound_is_certified_again_after_classify(monkeypatch):
    # key every upper certificate by (matrix bytes, spaces); one made for the
    # perturb and continuity suites' shared Bessel bounds must not repeat one
    # made before it in the same run (classify's, read off its report)
    seen, repeats, inside = set(), [], []
    upper = importlib.import_module("pgframes.opnorm").upper_certificate_only

    def keyed(A, dom, cod, cfg=None):
        A = np.asarray(A, dtype=float)
        key = (A.shape, A.tobytes(), dom, cod)
        if inside and key in seen:
            repeats.append(key)
        seen.add(key)
        return upper(A, dom, cod, cfg)

    for key, mod in list(sys.modules.items()):
        if mod is not None and key.startswith("pgframes"):
            for attr, value in list(vars(mod).items()):
                if value is upper:
                    monkeypatch.setattr(mod, attr, keyed)
    shared = checks.analysis_upper

    def shared_bound(seq, cfg=None):
        inside.append(seq)
        try:
            return shared(seq, cfg)
        finally:
            inside.pop()

    monkeypatch.setattr(checks, "analysis_upper", shared_bound)
    for inst in _workload_instances():
        seen.clear()
        assert checks.run_checks(inst).ok
    assert len(repeats) == 0


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


def test_kept_reports_share_their_value_names():
    # a process that keeps many reports holds one copy of each value name
    inst, cfg = _pair("lp"), pg.NumericsConfig(n_max=2)
    a, b = (checks.run_checks(inst, ["classify", "dual", "continuity"], cfg) for _ in range(2))
    for ra, rb in zip(a.results, b.results):
        assert list(ra.values) == list(rb.values) != []
        assert all(ka is kb for ka, kb in zip(ra.values, rb.values))


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


def _results(report) -> dict:
    # each suite's deterministic fields, wall time left out
    out = {}
    for r in report.results:
        doc = r.to_dict()
        doc.pop("wall_ms")
        out[r.name] = doc
    return out


def _counted_ascents(monkeypatch) -> list:
    # (stack size, dom, cod) of every lockstep ascent
    calls = []
    real = pg.opnorm._ascend

    def counting(A, X, dom, cod, cfg):
        calls.append((len(A), dom, cod))
        return real(A, X, dom, cod, cfg)

    monkeypatch.setattr(pg.opnorm, "_ascend", counting)
    return calls


def test_ascents_per_seed_1_workload_pass(monkeypatch):
    # the four continuity kinds share one ascent, and lam's Bessel ascent
    # shares perturb's: 20 -> 16 ascents on ladder-lp, 120 -> 72 on small-grid
    calls = _counted_ascents(monkeypatch)
    counts = []
    for group in (slice(0, 4), slice(4, 8), slice(8, 20)):
        calls.clear()
        for inst in _workload_instances()[group]:
            checks.run_checks(inst)
        counts.append(len(calls))
    assert counts == [16, 0, 72]


@pytest.mark.parametrize(
    "suites, sizes", [(["classify", "perturb"], [3]), (["classify"], [1]), (["perturb"], [2])]
)
def test_classify_and_perturb_share_one_ascent_on_lams_spaces(monkeypatch, suites, sizes):
    inst = _pair("lp")
    lam = inst.lam_sequence()
    calls = _counted_ascents(monkeypatch)
    report = checks.run_checks(inst, suites)
    assert report.ok
    on_lam = [n for n, dom, cod in calls if (dom, cod) == (lam.domain, lam.analysis_space())]
    assert on_lam == sizes


def test_a_full_run_gives_classify_and_perturb_their_own_results():
    for inst in _workload_instances():
        full = _results(checks.run_checks(inst))
        for suite in ("classify", "perturb"):
            assert _results(checks.run_checks(inst, [suite]))[suite] == full[suite], inst.seed


@pytest.mark.parametrize("epsilon", [1e300, np.inf, np.nan])
def test_an_unusable_perturbation_fails_only_perturb(epsilon):
    # classify keeps its bits whatever the perturbation, and perturb reads as
    # it does when it runs alone; a non-finite epsilon is refused before any
    # suite runs
    inst = _pair("lp")
    if not np.isfinite(epsilon):
        for suites in (["classify", "perturb"], ["perturb"], ["classify"]):
            with pytest.raises(ValueError, match="epsilon must be finite"):
                checks.run_checks(inst, suites, epsilon=epsilon)
        return
    both = _results(checks.run_checks(inst, ["classify", "perturb"], epsilon=epsilon))
    alone = _results(checks.run_checks(inst, ["perturb"], epsilon=epsilon))
    assert both["classify"] == _results(checks.run_checks(inst, ["classify"]))["classify"]
    assert json.dumps(both["perturb"]) == json.dumps(alone["perturb"])


def test_a_bessel_bound_too_small_for_some_kinds_fails_only_those(monkeypatch):
    # lam's bound 100 times too small: the symbol and theta kinds fail, and
    # the lambda and joint kinds still report their values
    inst = _pair("lp")
    real, L = checks.analysis_upper, inst.lam_sequence().stacked()

    def small_for_lam(seq, cfg=None):
        cert = real(seq, cfg)
        return cert.scaled(0.01) if np.array_equal(seq.stacked(), L) else cert

    monkeypatch.setattr(checks, "analysis_upper", small_for_lam)
    (res,) = checks.run_checks(inst, ["continuity"], pg.NumericsConfig(n_max=6)).results
    assert res.status == "fail"
    assert [note.split(":")[0] for note in res.reason.split("; ")] == ["symbol", "theta"]
    assert sorted(res.values) == [
        "joint.final_bound", "joint.worst_excess", "lambda.final_bound", "lambda.worst_excess"
    ]
