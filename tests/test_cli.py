import json
import math

import numpy as np
import pytest

import pgframes as pg
from pgframes.cli import main


def _gen_instance(tmp_path, name="inst.json", **kwargs):
    defaults = dict(kind="riesz-pair", x2_dim=3, y_dims=[2, 1], seed=11)
    defaults.update(kwargs)
    inst = pg.gen(
        defaults.pop("kind"),
        x2_dim=defaults.pop("x2_dim"),
        y_dims=defaults.pop("y_dims"),
        seed=defaults.pop("seed"),
        **defaults,
    )
    path = tmp_path / name
    pg.save(inst, path)
    return path, inst


def test_gen_writes_parseable_instance(tmp_path, capsys):
    out = tmp_path / "gen.json"
    rc = main(
        [
            "gen",
            "--kind",
            "riesz-pair",
            "--x2-dim",
            "4",
            "--y-dims",
            "2,2",
            "--seed",
            "11",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    inst = pg.load(out)
    assert pg.classify(inst.lam_sequence()).is_riesz


def test_check_full_suite_passes(tmp_path, capsys):
    path, _ = _gen_instance(tmp_path)
    rc = main(["check", str(path), "--n-max", "10"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "overall: pass" in out


def test_check_json_deterministic_modulo_timing(tmp_path, capsys, monkeypatch):
    path, _ = _gen_instance(tmp_path)
    classified = []

    def counting_classify(seq, cfg=None):
        classified.append(seq)
        return pg.classify(seq, cfg)

    monkeypatch.setattr("pgframes.checks.classify", counting_classify)
    monkeypatch.setattr("pgframes.multipliers.classify", counting_classify)
    docs = []
    for _ in range(2):
        rc = main(["check", str(path), "--output", "json", "--n-max", "6",
                   "--suites", "classify,bounds,multiply,invert"])
        assert rc == 0
        # classify and bounds share one report per sequence; invert
        # classifies nothing
        assert len(classified) == 2 * (len(docs) + 1)
        doc = json.loads(capsys.readouterr().out)
        for c in doc["checks"]:
            c.pop("wall_ms")
        docs.append(json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1]


def test_check_invert_skipped_for_tiny_symbol(tmp_path, capsys):
    path, inst = _gen_instance(tmp_path)
    broken = pg.Instance(
        x1=inst.x1,
        x2=inst.x2,
        components=inst.components,
        frame_exponent=inst.frame_exponent,
        lam=inst.lam,
        theta=inst.theta,
        symbol=np.zeros_like(inst.symbol),
        seed=inst.seed,
    )
    path2 = tmp_path / "tiny.json"
    pg.save(broken, path2)
    rc = main(["check", str(path2), "--suites", "invert", "--output", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0  # a skipped precondition is not a failure
    assert doc["checks"][0]["status"] == "skipped"
    assert "symbol-too-small" in doc["checks"][0]["reason"]


def test_failed_inverse_verification_is_a_failure(tmp_path, capsys):
    _, inst = _gen_instance(tmp_path, x2_dim=4, y_dims=[2, 2])
    broken = pg.Instance(
        x1=inst.x1,
        x2=inst.x2,
        components=inst.components,
        frame_exponent=inst.frame_exponent,
        lam=inst.lam,
        theta=inst.theta,
        symbol=np.array([1e-10, 1.0]),
        seed=inst.seed,
    )
    path = tmp_path / "ill.json"
    pg.save(broken, path)
    rc = main(["check", str(path), "--suites", "invert", "--output", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert doc["checks"][0]["status"] == "fail"
    assert "residuals" in doc["checks"][0]["reason"]

    rc = main(["invert", str(path), "--output", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert doc["status"] == "fail"
    assert "residuals" in doc["reason"]


def test_returned_inverse_passes_at_inverts_own_threshold(tmp_path, capsys):
    # with tol_exact = 1e-8, invert accepts residuals up to 1e-6; the suite
    # and the CLI report what invert verified instead of judging it again
    _, inst = _gen_instance(tmp_path, x2_dim=4, y_dims=[2, 2])
    broken = pg.Instance(
        x1=inst.x1,
        x2=inst.x2,
        components=inst.components,
        frame_exponent=inst.frame_exponent,
        lam=inst.lam,
        theta=inst.theta,
        symbol=np.array([1e-8, 1.0]),
        seed=inst.seed,
    )
    path = tmp_path / "loose.json"
    pg.save(broken, path)
    cfg = pg.NumericsConfig(tol_exact=1e-8)
    report = pg.run_checks(broken, ["invert"], cfg)
    res = report.results[0]
    assert res.status == "pass", res.reason
    assert max(res.values["residual_left"], res.values["residual_right"]) > 1e-8

    rc = main(["invert", str(path), "--tol-exact", "1e-8", "--output", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert max(doc["residual_left"], doc["residual_right"]) > 1e-8


def test_check_assembles_each_multiplier_once(tmp_path, monkeypatch):
    _, inst = _gen_instance(tmp_path)
    calls = []
    real = pg.multipliers.assemble

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr("pgframes.checks.assemble", counting)
    monkeypatch.setattr("pgframes.multipliers.assemble", counting)
    report = pg.run_checks(inst, ["bounds", "multiply", "invert"])
    assert report.ok
    # forward (shared by the three suites), permuted, zero symbol, inverse
    assert len(calls) == 4


def test_check_rank_deficient_reports_consistently(tmp_path, capsys):
    rng = np.random.default_rng(0)
    base = rng.standard_normal((1, 2))
    inst = pg.Instance(
        x1=pg.SpaceSpec(2, 2.0),
        x2=pg.SpaceSpec(2, 2.0),
        components=(pg.SpaceSpec(1, 2.0), pg.SpaceSpec(1, 2.0)),
        frame_exponent=2.0,
        lam=(base, 2.0 * base),  # exactly dependent: riesz-shaped but singular
        theta=(rng.standard_normal((1, 2)), rng.standard_normal((1, 2))),
        symbol=np.array([1.0, 1.0]),
    )
    path = tmp_path / "deficient.json"
    pg.save(inst, path)
    rc = main(["check", str(path), "--suites", "classify,equivalences", "--output", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    classify = doc["checks"][0]
    assert classify["status"] == "pass"
    assert classify["values"]["lam.is_riesz"] is False
    equiv = doc["checks"][1]
    assert equiv["status"] == "pass"
    assert equiv["values"]["lam.conditions"] == [False, False]


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken json", encoding="utf-8")
    rc = main(["check", str(bad)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "instance error" in err

    rc = main(["check", str(tmp_path / "missing.json")])
    assert rc == 2


def test_unknown_suite_exits_2(tmp_path, capsys):
    path, _ = _gen_instance(tmp_path)
    rc = main(["check", str(path), "--suites", "bogus"])
    assert rc == 2
    assert "unknown suites ['bogus']" in capsys.readouterr().err


def test_an_empty_suite_selection_exits_2(tmp_path, capsys):
    # an empty --suites selects no suite, which is refused; it is not "all"
    path, _ = _gen_instance(tmp_path)
    for arg in ("", " "):
        rc = main(["check", str(path), "--suites", arg])
        assert rc == 2, arg
        captured = capsys.readouterr()
        assert "no suites selected" in captured.err and captured.out == "", arg


def test_malformed_instance_fields_exit_2(tmp_path, capsys):
    path, _ = _gen_instance(tmp_path)
    doc = json.loads(path.read_text())
    for field, value in (("p1", [2]), ("p1", None), ("symbol", {"a": 1}), ("seed", 1.7)):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**doc, field: value}), encoding="utf-8")
        rc = main(["check", str(bad), "--suites", "multiply"])
        assert rc == 2, field
        assert f"instance error: {field}" in capsys.readouterr().err


def test_nonpositive_n_max_exits_2(tmp_path, capsys):
    path, _ = _gen_instance(tmp_path)
    for argv in (
        ["check", str(path), "--n-max", "-1"],
        ["check", str(path), "--n-max", "0", "--suites", "continuity"],
        ["continuity", str(path), "--kind", "symbol", "--n-max", "-1"],
        ["continuity", str(path), "--kind", "joint", "--n-max", "-1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "must be a positive integer" in capsys.readouterr().err


def test_p1_zero_is_rejected_not_defaulted(tmp_path, capsys):
    # p1 = 0 is a given value below 1, not a missing one
    path, _ = _gen_instance(tmp_path)
    for p1 in ("0", "0.5", "nan"):
        rc = main(["continuity", str(path), "--kind", "joint", "--p1", p1])
        assert rc == 2, p1
        assert "p1 must exceed 1" in capsys.readouterr().err
    doc = json.loads(path.read_text())
    for p1 in (0, 0.5, math.nan):  # json writes the nan as NaN, which parse reads back
        bad = tmp_path / "p1.json"
        bad.write_text(json.dumps({**doc, "p1": p1}), encoding="utf-8")
        rc = main(["check", str(bad), "--suites", "continuity"])
        assert rc == 1, p1
        assert "FAIL    continuity  (ValueError: the auxiliary exponent p1 must exceed 1" in (
            capsys.readouterr().out
        )


def test_a_non_finite_epsilon_is_a_usage_error(tmp_path, capsys):
    path, _ = _gen_instance(tmp_path)
    for argv in (["check"], ["check", "--suites", "classify"], ["perturb"]):
        for epsilon in ("nan", "inf", "-inf"):
            rc = main([argv[0], str(path), *argv[1:], f"--epsilon={epsilon}"])
            assert rc == 2, (argv, epsilon)
            captured = capsys.readouterr()
            assert "epsilon must be finite" in captured.err
            assert captured.out == ""


def test_bounds_command_reports_the_bounds_suite(tmp_path, capsys, monkeypatch):
    import pgframes.checks as checks

    path, _ = _gen_instance(tmp_path)
    monkeypatch.setattr(
        checks,
        "_check_bounds",
        lambda *a: checks.CheckResult("bounds", "fail", "lower bound exceeds the estimate"),
    )
    rc = main(["bounds", str(path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL    bounds  (lower bound exceeds the estimate)" in out


def test_bounds_and_multiply_commands(tmp_path, capsys):
    path, _ = _gen_instance(tmp_path)
    rc = main(["bounds", str(path), "--output", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    values = doc["checks"][0]["values"]
    assert values["estimate"] <= values["upper"] + 1e-9

    rc = main(["multiply", str(path), "--apply", "1,0,0", "--output", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert len(doc["applied"]) == 3


def test_dual_and_invert_commands(tmp_path, capsys):
    path, _ = _gen_instance(tmp_path)
    rc = main(["dual", str(path), "--output", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["lam.biorthogonality_residual"] <= 1e-9

    rc = main(["invert", str(path), "--output", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert max(doc["residual_left"], doc["residual_right"]) <= 1e-8


def test_perturb_and_continuity_commands(tmp_path, capsys):
    path, _ = _gen_instance(tmp_path)
    rc = main(["perturb", str(path), "--epsilon", "0.05"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    rc = main(["continuity", str(path), "--kind", "symbol", "--n-max", "8", "--output", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert len(doc["steps"]) == 8
    assert all(s["measured"] <= s["bound"] + 1e-9 for s in doc["steps"])


def test_continuity_joint_shows_its_bound_components(tmp_path, capsys):
    path, inst = _gen_instance(tmp_path)
    rc = main(["continuity", str(path), "--kind", "joint", "--n-max", "6", "--output", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    traces = pg.continuity_suite(
        "joint", inst.symbol_obj(), inst.lam_sequence(), inst.theta_sequence(), doc["p1"],
        pg.NumericsConfig(n_max=6),
    )
    assert [s["components"] for s in doc["steps"]] == [list(t.components) for t in traces]
    rc = main(["continuity", str(path), "--kind", "joint", "--n-max", "6"])
    lines = capsys.readouterr().out.splitlines()[1:]
    assert rc == 0 and len(lines) == 6
    for line, t in zip(lines, traces):
        assert line.endswith("components=" + ",".join(f"{c:.3e}" for c in t.components))
    for kind in ("symbol", "theta", "lambda"):
        main(["continuity", str(path), "--kind", kind, "--n-max", "3", "--output", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert all("components" not in s for s in doc["steps"])
        main(["continuity", str(path), "--kind", kind, "--n-max", "3"])
        assert "components" not in capsys.readouterr().out


def test_failing_check_exits_1(tmp_path, capsys, monkeypatch):
    import pgframes.checks as checks

    path, _ = _gen_instance(tmp_path)
    monkeypatch.setattr(
        checks,
        "_check_multiply",
        lambda inst, cfg: checks.CheckResult("multiply", "fail", "forced"),
    )
    rc = main(["check", str(path), "--suites", "multiply"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "overall: fail" in out


def test_global_flags_both_positions(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["--seed", "3", "gen", "--kind", "bessel", "--x2-dim", "2",
                 "--y-dims", "1,1", "--out", str(out1)]) == 0
    assert main(["gen", "--kind", "bessel", "--x2-dim", "2",
                 "--y-dims", "1,1", "--seed", "3", "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
