import itertools
import json
import math
import re

import numpy as np
import pytest

import pgframes as pg
from pgframes import generate
from pgframes.config import NumericsConfig
from pgframes.frames import FRAME_REL_THRESHOLD


def test_roundtrip_bitwise():
    inst = pg.gen("riesz-pair", x2_dim=4, y_dims=[2, 2], seed=42, frame_exponent=1.5)
    back = pg.parse(pg.serialize(inst))
    assert back.x1 == inst.x1 and back.x2 == inst.x2
    assert back.components == inst.components
    assert back.frame_exponent == inst.frame_exponent
    for a, b in zip(back.lam, inst.lam):
        assert np.array_equal(a, b)
    for a, b in zip(back.theta, inst.theta):
        assert np.array_equal(a, b)
    assert np.array_equal(back.symbol, inst.symbol)
    assert back.seed == inst.seed


def test_roundtrip_infinite_exponent():
    inst = pg.gen("bessel", x2_dim=2, y_dims=[1, 1], seed=0, x1_exponent=math.inf)
    text = pg.serialize(inst)
    assert '"inf"' in text
    back = pg.parse(text)
    assert math.isinf(back.x1.exponent)
    # double round trip is the identity on the document
    assert pg.serialize(back) == text


def test_save_load(tmp_path):
    inst = pg.gen("frame", x2_dim=2, y_dims=[1, 1, 1], seed=9)
    path = tmp_path / "inst.json"
    pg.save(inst, path)
    back = pg.load(path)
    for a, b in zip(back.lam, inst.lam):
        assert np.array_equal(a, b)


def test_parse_diagnostics():
    with pytest.raises(pg.InstanceFormatError, match="line"):
        pg.parse("{not json")
    with pytest.raises(pg.InstanceFormatError, match="missing field"):
        pg.parse("{}")
    with pytest.raises(pg.InstanceFormatError, match="x1"):
        pg.parse(
            '{"version":"1","x1":{"dim":0,"exponent":2},"x2":{"dim":1,"exponent":2},'
            '"components":[{"dim":1,"exponent":2}],"frame_exponent":2,'
            '"lam":[[[1.0]]],"theta":[[[1.0]]],"symbol":[1.0]}'
        )
    doc = json.loads(pg.serialize(pg.gen("bessel", x2_dim=2, y_dims=[1, 1], seed=0)))
    for field, value in (
        ("p1", [2]), ("p1", None), ("p1", "two"), ("seed", 1.7), ("seed", "1"),
        ("seed", True), ("symbol", {"a": 1}), ("symbol", [1.0, None]), ("symbol", 1.0),
    ):
        with pytest.raises(pg.InstanceFormatError, match=field):
            pg.parse(json.dumps({**doc, field: value}))
    back = pg.parse(json.dumps({**doc, "p1": "inf", "seed": 3}))
    assert math.isinf(back.p1) and back.seed == 3
    assert pg.parse(pg.serialize(back)).p1 == math.inf


def _bessel_doc() -> dict:
    return json.loads(pg.serialize(pg.gen("bessel", x2_dim=2, y_dims=[1, 1], seed=0)))


@pytest.mark.parametrize("version", ["99", 1, "1.0", None])
def test_parse_rejects_an_unknown_version(version):
    with pytest.raises(pg.InstanceFormatError, match="version"):
        pg.parse(json.dumps({**_bessel_doc(), "version": version}))


@pytest.mark.parametrize("field", ["x1", "x2", "components[1]"])
@pytest.mark.parametrize("dim", [True, 2.0])
def test_parse_rejects_a_non_integer_dim(field, dim):
    # True == 1 and 2.0 == 2, so the space itself would accept both
    doc = _bessel_doc()
    space = doc["components"][1] if field == "components[1]" else doc[field]
    space["dim"] = dim
    with pytest.raises(pg.InstanceFormatError, match=rf"{re.escape(field)}: dim"):
        pg.parse(json.dumps(doc))


@pytest.mark.parametrize("family", ["lam", "theta"])
@pytest.mark.parametrize("entry", [True, "1.5", None])
def test_parse_rejects_a_non_number_matrix_entry(family, entry):
    # asarray alone would read True as 1.0, "1.5" as 1.5 and None as nan
    doc = _bessel_doc()
    doc[family][1][0][0] = entry
    with pytest.raises(pg.InstanceFormatError, match=rf"{family}\[1\]: entries must be numbers"):
        pg.parse(json.dumps(doc))


@pytest.mark.parametrize("field", ["symbol", "lam", "theta"])
@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_parse_rejects_a_non_finite_literal(field, literal):
    # json.loads reads these literals as floats, so the type check passes them
    doc = _bessel_doc()
    value = float(literal.lower().replace("infinity", "inf"))
    if field == "symbol":
        doc["symbol"][0] = value
        name = "symbol"
    else:
        doc[field][1][0][0] = value
        name = f"{field}[1]"
    text = json.dumps(doc)  # writes the literal
    assert literal in text
    with pytest.raises(pg.InstanceFormatError, match=rf"{re.escape(name)}: entries must be finite"):
        pg.parse(text)


def test_gen_riesz_confirms_kind():
    inst = pg.gen("riesz", x2_dim=4, y_dims=[2, 2], seed=7)
    assert pg.classify(inst.lam_sequence()).is_riesz


def test_gen_frame_not_riesz_by_dimension():
    inst = pg.gen("frame", x2_dim=2, y_dims=[1, 1, 1], seed=1)
    rep = pg.classify(inst.lam_sequence())
    assert rep.is_frame and not rep.is_riesz


def test_gen_bessel_draws_without_classifying(monkeypatch):
    # every finite family is a Bessel sequence, and the condition cap alone
    # makes a draw Riesz, so none of these kinds classifies a draw
    calls = []
    real = generate.classify
    monkeypatch.setattr(
        generate, "classify", lambda *a, **k: calls.append(1) or real(*a, **k)
    )
    for kind in ("bessel", "riesz", "riesz-pair"):
        inst = pg.gen(kind, x2_dim=3, y_dims=[2, 1], seed=5)
        assert calls == [], kind
        assert len(inst.lam) == 2


def test_condition_cap_keeps_riesz_draws_above_the_frame_threshold():
    # the premise of the proof in the generate docstring, at its stated range:
    # a capped draw of dim n has a_obs / B_obs >= 1 / (MAX_CONDITION n^2)
    assert generate.MAX_CONDITION * 700**2 < 1.0 / FRAME_REL_THRESHOLD
    inf = math.inf
    for x, y, p in itertools.product((1.0, inf), (1.0, inf), (1.25, 2.0, 4.0)):
        for dims in ([2, 2], [1, 3]):
            n = sum(dims)
            inst = pg.gen(
                "riesz-pair", x2_dim=n, y_dims=dims, seed=3, frame_exponent=p,
                x1_exponent=x, x2_exponent=x, y_exponents=[y] * len(dims),
            )
            for seq in (inst.lam_sequence(), inst.theta_sequence()):
                rep = pg.classify(seq)
                ratio = rep.lower_observed.value / rep.bessel_observed.value
                assert ratio >= 1.0 / (generate.MAX_CONDITION * n**2), (x, y, p, dims)
                assert rep.is_riesz


def test_gen_riesz_pair_floors_symbol():
    inst = pg.gen("riesz-pair", x2_dim=3, y_dims=[1, 1, 1], seed=2, symbol_min=0.1)
    assert inst.symbol_obj().inf_abs >= 0.1
    assert pg.classify(inst.lam_sequence()).is_riesz
    assert pg.classify(inst.theta_sequence()).is_riesz


def test_gen_infeasible_dims():
    with pytest.raises(pg.GenerationError, match="sum"):
        pg.gen("riesz", x2_dim=4, y_dims=[2, 3], seed=7)


def test_gen_zero_retry_budget_echoes_seed():
    cfg = NumericsConfig(retry_cap=0)
    with pytest.raises(pg.GenerationError, match="seed=7"):
        pg.gen("riesz", x2_dim=4, y_dims=[2, 2], seed=7, cfg=cfg)


def test_gen_deterministic():
    a = pg.gen("riesz-pair", x2_dim=3, y_dims=[2, 1], seed=12)
    b = pg.gen("riesz-pair", x2_dim=3, y_dims=[2, 1], seed=12)
    for x, y in zip(a.lam + a.theta, b.lam + b.theta):
        assert np.array_equal(x, y)
    assert np.array_equal(a.symbol, b.symbol)
    c = pg.gen("riesz-pair", x2_dim=3, y_dims=[2, 1], seed=13)
    assert not all(np.array_equal(x, y) for x, y in zip(a.lam, c.lam))


def test_gen_conditioning_keeps_synthesis_invertible():
    for seed in range(8):
        inst = pg.gen("riesz", x2_dim=4, y_dims=[2, 2], seed=seed)
        S = pg.synthesis_matrix(inst.lam_sequence())
        assert np.linalg.cond(S) <= 200.0
