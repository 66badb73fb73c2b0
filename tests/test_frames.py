import functools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import pgframes as pg
from pgframes import gridsearch, opnorm
from pgframes.config import NumericsConfig


def rows(*mats, domain_dim=2, p=2.0, inner=None, dom_exp=2.0):
    mats = tuple(np.atleast_2d(np.asarray(m, dtype=float)) for m in mats)
    inner = inner or [2.0] * len(mats)
    return pg.OperatorSequence(
        pg.SpaceSpec(domain_dim, dom_exp),
        tuple(pg.SpaceSpec(m.shape[0], r) for m, r in zip(mats, inner)),
        mats,
        p,
    )


SELECTORS = rows([[1.0, 0.0]], [[0.0, 1.0]])


def random_riesz(rng, n=3, p=2.0, dims=None):
    dims = dims or [n]
    while True:
        mats = [rng.standard_normal((d, n)) for d in dims]
        S = np.hstack([m.T for m in mats])
        if S.shape[0] == S.shape[1] and np.linalg.cond(S) < 50:
            return rows(*mats, domain_dim=n, p=p)


def test_classify_parseval():
    rep = pg.classify(SELECTORS)
    assert rep.is_frame and rep.is_riesz
    assert rep.lower_bound.value == pytest.approx(1.0, abs=1e-12)
    assert rep.bessel_bound.value == pytest.approx(1.0, abs=1e-12)
    assert (rep.is_frame, rep.g_complete) == (True, True)


def test_classify_single_selector_not_frame():
    rep = pg.classify(rows([[1.0, 0.0]]))
    assert not rep.is_frame
    assert not rep.g_complete
    assert rep.bessel_bound.value == pytest.approx(1.0, abs=1e-12)
    assert rep.lower_bound.value == 0.0
    # the kernel witness actually annihilates the sequence
    w = rep.lower_observed.witness
    assert np.abs(rows([[1.0, 0.0]]).stacked() @ w).max() <= 1e-12


def test_classify_overcomplete_frame():
    seq = rows([[1.0, 0.0]], [[0.0, 1.0]], [[1.0, 1.0]])
    rep = pg.classify(seq)
    # Gram [[2,1],[1,2]] has eigenvalues 1 and 3 (hand oracle)
    assert rep.lower_bound.value == pytest.approx(1.0, rel=1e-12)
    assert rep.bessel_bound.value == pytest.approx(math.sqrt(3.0), rel=1e-12)
    assert rep.is_frame and not rep.is_riesz
    assert "dimension-mismatch" in rep.riesz_diagnosis


def test_classify_flags_zero_members():
    seq = rows([[1.0, 0.0]], [[0.0, 0.0]], [[0.0, 1.0]])
    rep = pg.classify(seq)
    assert rep.zero_members == (1,)


def test_dual_riesz_basis_examples():
    dual = pg.dual_riesz_basis(SELECTORS)
    np.testing.assert_allclose(dual.mats[0], [[1.0, 0.0]], atol=1e-14)
    np.testing.assert_allclose(dual.mats[1], [[0.0, 1.0]], atol=1e-14)

    scaled = rows([[2.0, 0.0]], [[0.0, 1.0]])
    dual = pg.dual_riesz_basis(scaled)
    np.testing.assert_allclose(dual.mats[0], [[0.5, 0.0]], atol=1e-14)

    seq = rows([[1.0, 1.0]], [[0.0, 1.0]])
    dual = pg.dual_riesz_basis(seq)
    np.testing.assert_allclose(dual.mats[0], [[1.0, 0.0]], atol=1e-14)
    np.testing.assert_allclose(dual.mats[1], [[-1.0, 1.0]], atol=1e-14)


def test_dual_riesz_basis_rejects_non_riesz():
    with pytest.raises(pg.NotRieszError):
        pg.dual_riesz_basis(rows([[1.0, 0.0]], [[0.0, 1.0]], [[1.0, 1.0]]))
    with pytest.raises(pg.NotRieszError):
        pg.dual_riesz_basis(rows([[1.0, 0.0]], [[2.0, 0.0]]))


def test_dual_properties_random():
    rng = np.random.default_rng(0)
    for p in (2.0, 1.5, 3.0):
        for k in range(12):
            seq = random_riesz(rng, n=3, p=p, dims=[2, 1])
            dual = pg.dual_riesz_basis(seq)
            S = pg.synthesis_matrix(seq)
            Sinv = np.vstack(dual.mats)
            n = seq.domain.dim
            # biorthogonality of the blocks
            assert np.abs(Sinv @ S - np.eye(n)).max() <= 1e-9
            # reconstruction for 100 random functionals
            xs = rng.standard_normal((n, 100))
            resid = S @ (Sinv @ xs) - xs
            xstar = seq.domain.dual
            for j in range(xs.shape[1]):
                assert xstar.norm(resid[:, j]) <= 1e-9 * max(xstar.norm(xs[:, j]), 1e-30)
            # double dual recovers the original members entrywise
            dd = pg.dual_riesz_basis(dual.as_operator_sequence())
            for a, b in zip(dd.mats, seq.mats):
                assert np.abs(a - b).max() <= 1e-9


def test_dual_carries_its_biorthogonality_residual():
    # the residual the dual was verified with is the block-row product
    rng = np.random.default_rng(4)
    for p in (2.0, 1.5):
        seq = random_riesz(rng, n=4, p=p, dims=[2, 2])
        dual = pg.dual_riesz_basis(seq)
        S = pg.synthesis_matrix(seq)
        assert dual.residual == float(np.abs(np.vstack(dual.mats) @ S - np.eye(4)).max())
        assert 0.0 <= dual.residual <= 1e-9


def test_dual_frame_bounds_sandwich():
    rng = np.random.default_rng(1)
    for p in (2.0, 1.5):
        seq = random_riesz(rng, n=3, p=p, dims=[2, 1])
        rep = pg.classify(seq)
        dual_seq = pg.dual_riesz_basis(seq).as_operator_sequence()
        dual_pair = pg.analysis_opnorm(dual_seq)
        # lower Riesz constant times the dual Bessel bound is at least one
        assert rep.lower_observed.value * dual_pair.upper.value >= 1.0 - 1e-9
        # sampled dual analysis ratios live inside [1/B, 1/A]
        samples = rng.standard_normal((dual_seq.domain.dim, 400))
        norms = dual_seq.domain.norm_many(samples)
        samples = samples[:, norms > 0] / norms[norms > 0]
        ratios = dual_seq.analysis_space().norm_many(dual_seq.stacked() @ samples)
        b_up = rep.bessel_bound.value
        a_safe = rep.lower_bound.value
        assert ratios.min() >= 1.0 / b_up - 1e-9
        if a_safe > 0:
            assert ratios.max() <= 1.0 / a_safe + 1e-9


def _equivalences(seq):
    return pg.riesz_equivalences_check(seq, pg.classify(seq))


def test_riesz_equivalences_examples():
    eq = _equivalences(SELECTORS)
    assert (eq.riesz_inequality, eq.full_rank) == (True, True)
    assert eq.agree

    overcomplete = rows([[1.0, 0.0]], [[0.0, 1.0]], [[1.0, 1.0]])
    eq = _equivalences(overcomplete)
    assert (eq.riesz_inequality, eq.full_rank) == (False, False)
    assert eq.agree

    single_block = rows(np.eye(2))
    eq = _equivalences(single_block)
    assert eq.agree and eq.riesz_inequality

    # fewer rows than the domain dimension: the synthesis is injective but
    # not onto, so neither characterization holds
    for short in (
        rows([[1.0, 0.0]]),
        rows([[1.0, 0.0]], p=1.5, inner=[3.0], dom_exp=3.0),
        rows([[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]], domain_dim=3),
    ):
        eq = _equivalences(short)
        assert (eq.riesz_inequality, eq.full_rank) == (False, False)
        assert eq.agree


def _sampled_ratios(seq, rng, count=1000):
    samples = rng.standard_normal((seq.domain.dim, count))
    norms = seq.domain.norm_many(samples)
    samples = samples[:, norms > 0] / norms[norms > 0]
    return seq.analysis_space().norm_many(seq.stacked() @ samples)


def test_frame_inequality_at_samples():
    rng = np.random.default_rng(2)
    for p in (1.5, 2.0, 3.0):
        for _ in range(6):
            dims = [int(d) for d in rng.integers(1, 3, size=3)]
            n = 3
            seq = pg.OperatorSequence(
                pg.SpaceSpec(n, 2.0),
                tuple(pg.SpaceSpec(d, 2.0) for d in dims),
                tuple(rng.standard_normal((d, n)) for d in dims),
                p,
            )
            rep = pg.classify(seq)
            ratios = _sampled_ratios(seq, rng)
            assert ratios.min() >= rep.lower_bound.value - 1e-9
            assert ratios.max() <= rep.bessel_bound.value + 1e-9
    # exponent endpoints, square (Riesz) and tall (overcomplete) layouts
    inf = math.inf
    for dom_exp in (1.0, 2.0, inf):
        for r in (1.0, 3.0, inf):
            for dims in ([2, 1], [1, 1, 1], [2, 2], [3, 1, 1]):
                for p in (1.5, 3.0):
                    seq = pg.OperatorSequence(
                        pg.SpaceSpec(3, dom_exp),
                        tuple(pg.SpaceSpec(d, r) for d in dims),
                        tuple(rng.standard_normal((d, 3)) for d in dims),
                        p,
                    )
                    rep = pg.classify(seq)
                    case = (dom_exp, r, dims, p)
                    ratios = _sampled_ratios(seq, rng, 400)
                    assert 0.0 < rep.lower_bound.value <= ratios.min() + 1e-12, case
                    assert rep.lower_bound.value <= rep.lower_observed.value + 1e-12, case
                    assert ratios.max() <= rep.bessel_bound.value + 1e-9, case
                    assert (rep.is_frame, rep.g_complete) == (True, True), case


def test_classification_routes_agree_including_rank_deficient():
    rng = np.random.default_rng(3)
    for k in range(20):
        n = int(rng.integers(2, 5))
        dims = [1] * n
        mats = [rng.standard_normal((1, n)) for _ in range(n)]
        if k % 2 == 0:
            mats[-1] = mats[0] + mats[1 % len(mats)]  # exact dependency
            mats[0] = mats[0].copy()
        p = float(rng.choice([1.5, 2.0, 3.0]))
        seq = pg.OperatorSequence(
            pg.SpaceSpec(n, 2.0),
            tuple(pg.SpaceSpec(1, 2.0) for _ in dims),
            tuple(mats),
            p,
        )
        rep = pg.classify(seq)
        assert rep.is_frame == rep.g_complete, (k, rep.is_frame, rep.g_complete)


def test_grid_certified_lower_bounds_are_lower():
    # the sphere-grid minimum is an independent reference: every proven lower
    # bound must sit below the sampled minimum of its ratio
    rng = np.random.default_rng(4)
    cfg = NumericsConfig()
    for p in (1.5, 3.0):
        seq = random_riesz(rng, n=3, p=p, dims=[2, 1])
        rep = pg.classify(seq, cfg)
        assert rep.lower_bound.method == "left-inverse"
        B = rep.bessel_bound.value
        _, _, sampled = gridsearch.certified_min_ratio(
            seq.stacked(), seq.domain, seq.analysis_space(), B,
            cfg.grid_axis_points, cfg.grid_budget,
        )
        assert rep.lower_bound.value <= sampled + 1e-12
        _, _, sampled = gridsearch.certified_min_ratio(
            pg.synthesis_matrix(seq), seq.coefficient_space(), seq.domain.dual, B,
            cfg.grid_axis_points, cfg.grid_budget,
        )
        # the same certificate bounds the synthesis infimum, S^{-1} = (F^{-1})^T
        assert rep.lower_bound.value <= sampled + 1e-12


def test_lower_frame_bound_positive_on_small_riesz_pair():
    # a dim-2 Riesz basis whose Lipschitz-corrected grid bound used to be 0,
    # so the inequality route said "not a frame" while the rank route did not
    inst = pg.gen(
        "riesz-pair", x2_dim=2, y_dims=[1, 1], frame_exponent=1.25,
        y_exponents=[4.0, 4.0], x2_exponent=4.0, x1_exponent=1.25, seed=2009,
    )
    assert pg.run_checks(inst, suites=["classify"]).ok
    rep = pg.classify(inst.lam_sequence())
    assert (rep.is_frame, rep.g_complete) == (True, True)
    assert rep.lower_bound.value > 0


def test_lower_frame_bound_below_witnessed_infimum():
    # the infimum of ||F x|| / ||x|| is 1 / ||F^{-1}||; an ascent on F^{-1}
    # witnesses a ratio the proven lower bound may not exceed
    inst = pg.gen(
        "riesz-pair", x2_dim=8, y_dims=[2] * 4, frame_exponent=1.5,
        y_exponents=[3.0] * 4, seed=1001,
    )
    seq = inst.lam_sequence()
    cfg = NumericsConfig()
    rep = pg.classify(seq, cfg)
    ascent = opnorm.multistart_lower_many(
        np.linalg.inv(seq.stacked())[None], seq.analysis_space(), seq.domain, cfg, stream=5
    )[0]
    assert rep.lower_bound.value <= 1.0 / ascent.value


def _tall_family():
    # three functionals on a 2-dim l^1.5 domain: a frame, and never Riesz
    return pg.OperatorSequence(
        pg.SpaceSpec(2, 1.5),
        tuple(pg.SpaceSpec(1, 3.0) for _ in range(3)),
        (np.array([[1.0, 0.2]]), np.array([[-0.3, 1.0]]), np.array([[1.0, 1.0]])),
        1.5,
    )


def test_a_direct_classify_of_a_tall_family_computes_rank_and_pinv_once(monkeypatch):
    # with no ledger open, classify of a tall F takes its rank and its left
    # inverse pinv(F) once each, and never inverts; the wrappers keep the
    # functions' names, which key linalg_once's tables
    calls = []
    for name in ("matrix_rank", "pinv", "inv"):
        real = getattr(np.linalg, name)

        def counting(*args, real=real, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, functools.wraps(real)(counting))
    seq = _tall_family()
    rep = pg.classify(seq)
    assert sorted(calls) == ["matrix_rank", "pinv"]
    assert opnorm._ledger.get() is None
    F, dom, prod = seq.stacked(), seq.domain, seq.analysis_space()
    left = 1.0 / pg.upper_certificate_only(np.linalg.pinv(F), prod, dom).value
    assert np.float64(rep.lower_bound.value).tobytes() == np.float64(left).tobytes()
    assert (rep.lower_bound.method, rep.lower_observed.method) == (
        "left-inverse", "left-inverse-ascent"
    )
    # the observed side is the ratio at its own witness, a unit vector
    w = rep.lower_observed.witness
    assert rep.lower_observed.value == prod.norm(F @ w)
    assert dom.norm(w) == pytest.approx(1.0, rel=1e-15)
    cfg = NumericsConfig()
    _, _, sampled = gridsearch.certified_min_ratio(
        F, dom, prod, rep.bessel_bound.value, cfg.grid_axis_points, cfg.grid_budget
    )
    assert rep.lower_bound.value <= sampled
    assert (rep.is_frame, rep.is_riesz) == (True, False)


def test_classify_witnesses_own_their_memory():
    # witnesses taken from SVD factors must not pin the factors in the report
    seq = pg.gen("riesz-pair", x2_dim=8, y_dims=[2] * 4, seed=3).lam_sequence()
    rep = pg.classify(seq)
    certs = [v for v in vars(rep).values() if isinstance(v, pg.BoundCertificate)]
    witnesses = [c.witness for c in certs if c.witness is not None]
    assert rep.lower_observed.witness is not None and rep.bessel_observed.witness is not None
    for w in witnesses:
        assert w.base is None or w.base.nbytes <= w.nbytes


_NO_SCIPY = """
import sys
import numpy as np
import pgframes as pg

inst = pg.gen("riesz-pair", x2_dim=3, y_dims=[2, 1], frame_exponent=1.5, seed=7)
assert not inst.lam_sequence().coefficient_space().is_euclidean
pg.run_checks(inst, cfg=pg.NumericsConfig(n_max=4))
tall = pg.OperatorSequence(
    pg.SpaceSpec(2, 1.5),
    tuple(pg.SpaceSpec(1, 3.0) for _ in range(3)),
    (np.array([[1.0, 0.2]]), np.array([[-0.3, 1.0]]), np.array([[1.0, 1.0]])),
    1.5,
)
rep = pg.classify(tall)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
assert rep.lower_observed.method == "left-inverse-ascent"
"""


def test_infimum_routes_do_not_import_scipy():
    # a fresh interpreter: every suite on a non-Euclidean Riesz pair and the
    # tall-frame infimum run on numpy alone
    src = os.path.dirname(os.path.dirname(pg.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
