import collections
import contextlib
import dataclasses
import functools
import json
import importlib
import sys

import numpy as np
import pytest

import pgframes as pg
import pgframes.checks as checks
import pgframes.perturbation as perturbation
from pgframes.opnorm import BoundCertificate
from seed_1_workloads import instances as _workload_instances


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


def _computations(monkeypatch) -> list:
    # the key of every certificate computed, as the ledger keys it: each slice
    # of every upper certificate computation (block ones included) and each
    # ascent slice, with the ascent's stream
    op = pg.opnorm
    keys = []
    upper, ascend = op._upper_normalized, op.multistart_lower_many

    def key(B, dom, cod, stream=None):
        return (dom, cod, stream, B.shape, B.strides, B.tobytes())

    def counted_upper(Bs, dom, cod, cfg):
        keys.extend(key(B, dom, cod) for B in Bs)
        return upper(Bs, dom, cod, cfg)

    def counted_ascent(As, dom, cod, cfg, stream):
        streams = np.broadcast_to(stream, (len(As),)).tolist()
        keys.extend(key(A, dom, cod, s) for A, s in zip(As, streams))
        return ascend(As, dom, cod, cfg, stream)

    monkeypatch.setattr(op, "_upper_normalized", counted_upper)
    monkeypatch.setattr(op, "multistart_lower_many", counted_ascent)
    return keys


def test_a_full_pass_certifies_each_bessel_bound_once(monkeypatch):
    # classify certifies each sequence's Bessel bound, and perturb and
    # continuity find it in the ledger: the other upper certificates on the
    # analysis spaces are perturb's two and the 4 joint endpoint bounds
    inst = pg.gen(
        "riesz-pair", 16, [2] * 8, frame_exponent=1.5, y_exponents=[3] * 8, seed=3
    )
    keys = _computations(monkeypatch)
    classifies = _counted(monkeypatch, "frames", "classify")
    report = checks.run_checks(inst)
    assert report.ok
    spaces = {(s.domain, s.analysis_space()) for s in (inst.lam_sequence(), inst.theta_sequence())}
    on_analysis = [k for k in keys if k[2] is None and k[:2] in spaces]
    assert (len(on_analysis), len(classifies)) == (8, 2)


def _repeats_per_workload(keys) -> tuple[list, list]:
    # repeated upper certificates and repeated ascent slices within each
    # run_checks call, summed over the seed-1 instances of each workload
    instances, uppers, ascents = _workload_instances(), [], []
    for group in (slice(0, 4), slice(4, 8), slice(8, 20)):
        uppers.append(0)
        ascents.append(0)
        for inst in instances[group]:
            keys.clear()
            assert checks.run_checks(inst).ok
            for key, n in collections.Counter(keys).items():
                if key[2] is None:
                    uppers[-1] += n - 1
                else:
                    ascents[-1] += n - 1
    return uppers, ascents


def test_no_certificate_is_computed_twice_in_a_run(monkeypatch):
    # keyed as the ledger keys them, no upper certificate (block ones
    # included) and no ascent slice is computed twice in a run.  Without the
    # ledger perturb and continuity certify the Bessel bounds again, the joint
    # end bounds repeat block certificates, and on small-grid the bounds
    # suite's multiplier repeats a continuity gap's ascent
    keys = _computations(monkeypatch)
    assert _repeats_per_workload(keys) == ([0, 0, 0], [0, 0, 0])
    monkeypatch.setattr(checks, "certificate_ledger", contextlib.nullcontext)
    uppers, ascents = _repeats_per_workload(keys)
    assert min(uppers) > 0 and ascents[0] > 0 and ascents[2] > 0


def test_two_runs_compute_the_same_certificates(monkeypatch):
    # the ledger lives for one run_checks call: a second run on the same
    # instance finds nothing of the first's and computes all of it again
    keys = _computations(monkeypatch)
    ascents = _counted_ascents(monkeypatch)
    inst = _workload_instances()[8]
    runs = []
    for _ in range(2):
        keys.clear()
        ascents.clear()
        report = checks.run_checks(inst)
        runs.append((list(keys), list(ascents), _results(report)))
    assert runs[0] == runs[1]
    assert runs[0][0] and runs[0][1]
    assert pg.opnorm._ledger.get() is None


def test_no_ledger_stays_open_after_a_raise(monkeypatch):
    inst, open_inside = _pair("lp"), []

    def failing(seq, cfg):
        open_inside.append(pg.opnorm._ledger.get() is not None)
        raise RuntimeError("planted")

    monkeypatch.setattr(checks, "classify", failing)
    (res,) = checks.run_checks(inst, ["classify"]).results
    assert (res.status, res.reason, open_inside) == ("fail", "RuntimeError: planted", [True])
    assert pg.opnorm._ledger.get() is None

    class Interrupt(BaseException):
        pass

    def interrupted(seq, cfg):
        raise Interrupt

    monkeypatch.setattr(checks, "classify", interrupted)
    with pytest.raises(Interrupt):
        checks.run_checks(inst, ["classify"])
    assert pg.opnorm._ledger.get() is None
    with pytest.raises(ValueError, match="epsilon must be finite"):
        checks.run_checks(inst, epsilon=np.nan)
    assert pg.opnorm._ledger.get() is None

    # a suite that raises after a dual basis went into the run's store: the
    # store closes with the ledger, and a later call computes its own basis
    _, inverses = _counted_builds(monkeypatch)

    def storing_then_failing(M, cfg):
        pg.frames.dual_riesz_basis(M.left, cfg)
        pg.frames.dual_riesz_basis(M.left, cfg)
        raise RuntimeError("planted")

    monkeypatch.setattr(checks, "invert", storing_then_failing)
    (res,) = checks.run_checks(inst, ["invert"]).results
    assert (res.status, res.reason, len(inverses)) == ("fail", "RuntimeError: planted", 1)
    assert pg.opnorm._ledger.get() is None
    pg.frames.dual_riesz_basis(inst.lam_sequence())
    assert len(inverses) == 2


def _counted_builds(monkeypatch) -> tuple[list, list]:
    # every OperatorSequence built, and the synthesis matrix of every dual
    # basis computed, not read from the run's store
    builds, inverses = [], []
    post, inverse = pg.OperatorSequence.__post_init__, pg.frames._inverse

    def counting_post(seq):
        builds.append(len(seq.mats))
        post(seq)

    monkeypatch.setattr(pg.OperatorSequence, "__post_init__", counting_post)
    monkeypatch.setattr(
        pg.frames, "_inverse", lambda S, cfg: inverses.append(S.shape) or inverse(S, cfg)
    )
    return builds, inverses


def test_two_runs_build_the_same_sequences_and_dual_bases(monkeypatch):
    # a run builds the instance's two sequences once: its 14 builds are those
    # two, perturb's perturbed and difference families, the dual suite's two
    # duals, multiply's two permuted sequences, invert's two duals and the
    # joint kind's four end sequences.  It computes four dual bases, lam's,
    # theta's and their duals'; invert reads lam's and theta's from the dual
    # suite.  Nothing carries over to the next run
    builds, inverses = _counted_builds(monkeypatch)
    inst = _workload_instances()[4]  # ladder-l2, seed 1, dim 16
    runs = []
    for _ in range(2):
        builds.clear()
        inverses.clear()
        results = _results(checks.run_checks(inst))
        runs.append((len(builds), len(inverses), results))
    assert runs[0] == runs[1]
    assert runs[0][:2] == (14, 4)
    assert pg.opnorm._ledger.get() is None


def _counted_rank_and_inverse(monkeypatch) -> collections.Counter:
    # (function name, input bytes) of every np.linalg.matrix_rank and inv call
    seen = collections.Counter()

    def counted(real):
        @functools.wraps(real)
        def counting(A, *args, **kwargs):
            seen[(real.__name__, np.asarray(A).tobytes())] += 1
            return real(A, *args, **kwargs)

        return counting

    for name in ("matrix_rank", "inv"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
    return seen


def test_a_run_computes_each_rank_and_inverse_once(monkeypatch):
    # classify takes the stacked matrix's rank and inverse from the run's
    # ledger: one rank per sequence, and no np.linalg input repeats in a run
    seen = _counted_rank_and_inverse(monkeypatch)
    for inst in _workload_instances()[8:12] + _workload_instances()[:1]:
        seen.clear()
        checks.run_checks(inst, ["classify", "dual"])
        ranks = sum(n for (name, _), n in seen.items() if name == "matrix_rank")
        assert (ranks, max(seen.values())) == (2, 1), inst.seed


def _square_lp_sequences():
    # lam and theta of seed-1 ladder-lp and small-grid instances: square F
    # between spaces that are not both Euclidean
    instances = _workload_instances()
    return [s for i in (0, 1, 8, 13, 18) for s in (instances[i].lam_sequence(),
                                                   instances[i].theta_sequence())]


def test_classify_infimum_pair_is_one_pair_on_the_inverse():
    # both sides of the lower Riesz constant come from one certificate pair
    # of P = inv(F) between the swapped spaces, and min_ratio_estimate
    # returns the observed side
    for seq in _square_lp_sequences():
        F, dom, prod = seq.stacked(), seq.domain, seq.analysis_space()
        assert F.shape[0] == F.shape[1] and not (dom.is_euclidean and prod.is_euclidean)
        P = np.linalg.inv(F)
        pair = pg.operator_norm_bounds(P, prod, dom, stream=pg.opnorm.INVERSE_STREAM)
        x = P @ pair.lower.witness
        report = pg.classify(seq)
        assert report.lower_bound == BoundCertificate(
            1.0 / pair.upper.value, "lower_estimate", "left-inverse"
        )
        observed = report.lower_observed
        assert (observed.value, observed.kind, observed.method) == (
            1.0 / pair.lower.value, "upper_certificate", "inverse-ascent"
        )
        assert observed.witness.tobytes() == (x / dom.norm(x)).tobytes()
        value, witness = pg.min_ratio_estimate(F, dom, prod, stream=pg.opnorm.INVERSE_STREAM)
        assert (value, witness.tobytes()) == (observed.value, observed.witness.tobytes())


def test_a_direct_classify_computes_the_infimum_pair_once(monkeypatch):
    # with no ledger open, classify computes F's rank, its inverse and the
    # inverse's upper certificate and ascent slice once each
    seen = _counted_rank_and_inverse(monkeypatch)
    keys = _computations(monkeypatch)
    for seq in _square_lp_sequences():
        seen.clear()
        keys.clear()
        pg.classify(seq)
        F = seq.stacked().tobytes()
        assert seen == {("matrix_rank", F): 1, ("inv", F): 1}
        on_inverse = [k[2] for k in keys if k[:2] == (seq.analysis_space(), seq.domain)]
        assert on_inverse == [None, pg.opnorm.INVERSE_STREAM]
    assert pg.opnorm._ledger.get() is None


def test_the_run_keeps_only_the_dual_bases_a_later_suite_reads(monkeypatch):
    # lam's and theta's dual bases stay in the run's store for invert; the
    # dual suite makes each double dual in a ledger of its own, which holds
    # that one basis and closes with it
    stores = []
    ledger = checks.certificate_ledger

    @contextlib.contextmanager
    def recording():
        with ledger():
            stores.append(pg.opnorm._ledger.get())
            yield

    monkeypatch.setattr(checks, "certificate_ledger", recording)
    checks.run_checks(_workload_instances()[4])  # ladder-l2, seed 1, dim 16
    assert [len(store.get("dual_riesz_basis", ())) for store in stores] == [2, 1, 1]


@pytest.mark.parametrize("space", ["l2", "lp"])
def test_the_dual_suite_and_invert_share_dual_bases(monkeypatch, space):
    # in one run the dual suite and invert read lam's and theta's dual bases
    # from one computation, and each reports what it reports alone
    inst = _pair(space)
    alone = {name: _results(checks.run_checks(inst, [name]))[name] for name in ("dual", "invert")}
    _, inverses = _counted_builds(monkeypatch)
    counts = []
    for suites in (["dual"], ["invert"], ["dual", "invert"], ["invert", "dual"]):
        inverses.clear()
        results = _results(checks.run_checks(inst, suites))
        counts.append(len(inverses))
        assert results == {name: alone[name] for name in suites}, suites
    assert counts == [4, 2, 4, 4]


def test_a_direct_invert_computes_its_own_dual_bases(monkeypatch):
    # with no run open nothing is stored: every invert call inverts both
    # synthesis matrices; inside an open ledger the second call reads the
    # first's bases and returns the same bits
    _, inverses = _counted_builds(monkeypatch)
    inst = _pair("l2")
    M = pg.assemble(inst.symbol_obj(), inst.lam_sequence(), inst.theta_sequence())
    first = pg.invert(M)
    second = pg.invert(M)
    assert len(inverses) == 4
    with pg.opnorm.certificate_ledger():
        third, fourth = pg.invert(M), pg.invert(M)
    assert len(inverses) == 6
    for out in (second, third, fourth):
        assert _values(out[0].matrix) == _values(first[0].matrix) and out[1:] == first[1:]


def test_without_a_ledger_every_call_computes(monkeypatch):
    # outside run_checks two equal calls compute twice; inside an open ledger
    # the second is a hit with the same bits, and a nested ledger starts empty
    # and gives the outer one back when it closes
    keys = _computations(monkeypatch)
    lam = _pair("lp").lam_sequence()
    first = pg.analysis_opnorm(lam)
    assert _values(pg.analysis_opnorm(lam)) == _values(first)
    assert len(keys) == 2 * len(set(keys)) > 0
    with pg.opnorm.certificate_ledger():
        outer = pg.opnorm._ledger.get()
        keys.clear()
        assert _values(pg.analysis_opnorm(lam)) == _values(first)
        computed = len(keys)
        assert _values(pg.analysis_opnorm(lam)) == _values(first)
        assert len(keys) == computed
        with pg.opnorm.certificate_ledger():
            assert _values(pg.analysis_opnorm(lam)) == _values(first)
            assert len(keys) == 2 * computed
        assert pg.opnorm._ledger.get() is outer
    assert pg.opnorm._ledger.get() is None


def test_an_empty_suite_selection_raises(monkeypatch):
    # only None selects every suite; an empty selection runs none
    classifies = _counted(monkeypatch, "frames", "classify")
    with pytest.raises(ValueError, match="no suites selected"):
        checks.run_checks(_pair("l2"), [])
    assert classifies == []
    assert [r.name for r in checks.run_checks(_pair("l2"), None).results] == list(checks.SUITES)


@pytest.mark.parametrize("suite", ["perturb", "continuity"])
def test_suites_that_assume_a_bessel_bound_do_not_classify(monkeypatch, suite):
    classifies = _counted(monkeypatch, "frames", "classify")
    (res,) = checks.run_checks(_pair("lp"), [suite], pg.NumericsConfig(n_max=6)).results
    assert res.status == "pass"
    assert classifies == []


def test_equivalences_reads_the_classify_reports(monkeypatch):
    # one classify per sequence, shared by both suites, and no infimum of its
    # own: each classify takes one pair on its inverse, and none goes
    # through min_ratio_estimate
    classifies = _counted(monkeypatch, "frames", "classify")
    infima = _counted(monkeypatch, "opnorm", "infimum_bounds")
    estimates = _counted(monkeypatch, "opnorm", "min_ratio_estimate")
    report = checks.run_checks(_pair("lp"), ["classify", "equivalences"])
    assert [r.status for r in report.results] == ["pass", "pass"]
    assert (len(classifies), len(infima), len(estimates)) == (2, 2, 0)


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
def test_direct_calls_give_the_values_of_the_run_suites(monkeypatch, space):
    # classify, perturbation_check and continuity_suite called directly, with
    # no ledger open, return what the suites of run_checks got from them
    inst, cfg = _pair(space), pg.NumericsConfig(n_max=6)
    calls = []
    for name in ("classify", "perturbation_check", "continuity_suite"):
        def recording(*args, _real=getattr(checks, name), **kwargs):
            calls.append((_real, args, kwargs, _real(*args, **kwargs)))
            return calls[-1][-1]

        monkeypatch.setattr(checks, name, recording)
    assert checks.run_checks(inst, cfg=cfg).ok
    assert collections.Counter(real.__name__ for real, *_ in calls) == {
        "classify": 2, "perturbation_check": 1, "continuity_suite": 4
    }
    for real, args, kwargs, out in calls:
        kwargs.pop("measured", None)  # measured by the direct call itself
        assert _values(real(*args, **kwargs)) == _values(out), real.__name__


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


def test_ascent_layer_passes_per_seed_1_workload_pass(monkeypatch):
    # a product's ascent step takes one _layer pass per run and one for the
    # outer layer; a one-block product, or one of fewer than 8 one-entry
    # blocks, steps as its plain space in one pass.  2607 -> 2112 passes on
    # small-grid, where every product but [2, 1] is such a product; 1731 on
    # ladder-lp, whose products of 2 to 8 blocks of dimension 2 keep theirs
    calls = _counted_ascents(monkeypatch)
    inside, passes = [], []
    ascend, layer = pg.opnorm._ascend, pg.spaces._layer

    def counting_ascend(*args):
        inside.append(True)
        try:
            return ascend(*args)
        finally:
            inside.pop()

    def counting_layer(*args):
        passes.append(bool(inside))
        return layer(*args)

    monkeypatch.setattr(pg.opnorm, "_ascend", counting_ascend)
    monkeypatch.setattr(pg.spaces, "_layer", counting_layer)
    counts = []
    for group in (slice(0, 4), slice(4, 8), slice(8, 20)):
        calls.clear()
        passes.clear()
        for inst in _workload_instances()[group]:
            checks.run_checks(inst)
        counts.append((len(calls), sum(passes)))
    assert counts == [(16, 1731), (0, 0), (72, 2112)]


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
    real, L = perturbation.analysis_upper, inst.lam_sequence().stacked()

    def small_for_lam(seq, cfg=None):
        cert = real(seq, cfg)
        return cert.scaled(0.01) if np.array_equal(seq.stacked(), L) else cert

    monkeypatch.setattr(perturbation, "analysis_upper", small_for_lam)
    (res,) = checks.run_checks(inst, ["continuity"], pg.NumericsConfig(n_max=6)).results
    assert res.status == "fail"
    assert [note.split(":")[0] for note in res.reason.split("; ")] == ["symbol", "theta"]
    assert sorted(res.values) == [
        "joint.final_bound", "joint.worst_excess", "lambda.final_bound", "lambda.worst_excess"
    ]
