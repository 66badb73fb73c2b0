"""Acceptance suite: one test per criterion, each printing its verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Desk scale throughout: dimensions and index sets stay at or below
8, aggregation exponents in {1.5, 2, 3}.
"""
import dataclasses
import math

import numpy as np
import pytest

import pgframes as pg
from pgframes.config import NumericsConfig

FAST = NumericsConfig()


def _report(criterion, text):
    print(f"criterion {criterion:2d} PASS: {text}")


def _row_seq(mats, p=2.0, dom_exp=2.0, inner=None):
    mats = tuple(np.atleast_2d(np.asarray(m, dtype=float)) for m in mats)
    n = mats[0].shape[1]
    inner = inner or [2.0] * len(mats)
    return pg.OperatorSequence(
        pg.SpaceSpec(n, dom_exp),
        tuple(pg.SpaceSpec(m.shape[0], r) for m, r in zip(mats, inner)),
        mats,
        p,
    )


def _selectors(n=2, p=2.0):
    return _row_seq([np.eye(n)[i : i + 1] for i in range(n)], p=p)


def _conditioned_square(rng, n, cap=50.0):
    while True:
        mats = [rng.standard_normal((1, n)) for _ in range(n)]
        if np.linalg.cond(np.vstack(mats)) < cap:
            return mats


def test_criterion_1_parseval_identity():
    sel = _selectors(2)
    M = pg.assemble(pg.Symbol([1.0, 1.0]), sel, sel)
    residual = float(np.abs(M.matrix - np.eye(2)).max())
    assert residual <= 1e-12
    _report(1, f"identity residual {residual:.1e} <= 1e-12")


def test_criterion_2_upper_bound():
    rng = np.random.default_rng(200)
    worst = -math.inf
    for trial in range(500):
        p = (2.0, 1.5, 3.0)[trial % 3]
        q = pg.conjugate_exponent(p)
        n = int(rng.integers(2, 5))
        k = int(rng.integers(2, 5))
        lam = _row_seq([rng.standard_normal((1, n)) for _ in range(k)], p=p)
        theta = _row_seq([rng.standard_normal((1, n)) for _ in range(k)], p=q)
        m = pg.Symbol(rng.standard_normal(k))
        M = pg.assemble(m, lam, theta)
        nb = pg.norm_bounds(M, FAST)
        excess = nb.estimate.value - nb.upper.value
        worst = max(worst, excess)
        assert excess <= 1e-9
        if p == 2.0:
            assert nb.estimate.value <= nb.upper.value + 1e-12
    # constructed diagonal instance attains equality
    sel = _selectors(2)
    nb = pg.norm_bounds(pg.assemble(pg.Symbol([2.0, 3.0]), sel, sel))
    assert abs(nb.estimate.value - nb.upper.value) <= 1e-13
    _report(2, f"500 Bessel pairs, worst estimate-upper gap {worst:.1e}; diagonal equality hit")


def test_criterion_3_lower_bound():
    rng = np.random.default_rng(300)
    worst_exact = math.inf
    for _ in range(100):
        n = int(rng.integers(2, 5))
        lam = _row_seq(_conditioned_square(rng, n), p=2.0)
        theta = _row_seq(_conditioned_square(rng, n), p=2.0)
        m = pg.Symbol(rng.uniform(0.1, 2.0, n) * rng.choice([-1.0, 1.0], n))
        M = pg.assemble(m, lam, theta)
        nb = pg.norm_bounds(M, FAST)
        assert nb.lower is not None
        margin = nb.estimate.value - nb.lower.value
        worst_exact = min(worst_exact, margin)
        assert margin >= -1e-9
    worst_cert = math.inf
    for trial in range(100):
        p = 1.5 if trial % 2 == 0 else 3.0
        n = int(rng.integers(2, 4))
        lam = _row_seq(_conditioned_square(rng, n), p=p)
        theta = _row_seq(_conditioned_square(rng, n), p=pg.conjugate_exponent(p))
        m = pg.Symbol(rng.uniform(0.1, 2.0, n) * rng.choice([-1.0, 1.0], n))
        M = pg.assemble(m, lam, theta)
        left = pg.classify(lam, FAST)
        right = pg.classify(theta, FAST)
        assert left.lower_bound.method in ("left-inverse", "singular-value")
        nb = pg.norm_bounds(M, FAST, left_report=left, right_report=right)
        assert nb.lower is not None
        margin = nb.estimate.value - nb.lower.value
        worst_cert = min(worst_cert, margin)
        assert margin >= -1e-3
    _report(
        3,
        f"100 exact pairs margin >= {worst_exact:.1e}; "
        f"100 left-inverse pairs margin >= {worst_cert:.1e}",
    )


def test_criterion_4_invertibility():
    rng = np.random.default_rng(400)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        lam = _row_seq(_conditioned_square(rng, n), p=2.0)
        theta = _row_seq(_conditioned_square(rng, n), p=2.0)
        m = pg.Symbol(rng.uniform(0.1, 2.0, n) * rng.choice([-1.0, 1.0], n))
        assert m.inf_abs >= 0.1
        fwd = pg.assemble(m, lam, theta)
        inv, _, _ = pg.invert(fwd, FAST)
        res = max(
            float(np.abs(inv.matrix @ fwd.matrix - np.eye(n)).max()),
            float(np.abs(fwd.matrix @ inv.matrix - np.eye(n)).max()),
        )
        worst = max(worst, res)
        assert res <= 1e-8
    _report(4, f"100 inversions, worst composition residual {worst:.1e} <= 1e-8")


def test_criterion_5_dual_bases():
    rng = np.random.default_rng(500)
    worst = 0.0
    for trial in range(100):
        p = (2.0, 1.5, 3.0)[trial % 3]
        n = int(rng.integers(2, 6))
        seq = _row_seq(_conditioned_square(rng, n), p=p)
        dual = pg.dual_riesz_basis(seq)
        S = pg.synthesis_matrix(seq)
        Sinv = np.vstack(dual.mats)
        biorth = float(np.abs(Sinv @ S - np.eye(n)).max())
        xs = rng.standard_normal((n, 100))
        xstar = seq.domain.dual
        recon_mat = S @ Sinv - np.eye(n)
        recon = max(
            xstar.norm(recon_mat @ xs[:, j]) / max(xstar.norm(xs[:, j]), 1e-30)
            for j in range(100)
        )
        dd = pg.dual_riesz_basis(dual.as_operator_sequence())
        double = max(float(np.abs(a - b).max()) for a, b in zip(dd.mats, seq.mats))
        worst = max(worst, biorth, recon, double)
        assert biorth <= 1e-9 and recon <= 1e-9 and double <= 1e-9
    _report(5, f"100 dual bases, worst residual {worst:.1e} <= 1e-9")


def test_criterion_6_product_duality():
    rng = np.random.default_rng(600)
    worst_witness = 0.0
    for _ in range(200):
        blocks = int(rng.integers(1, 5))
        dims = rng.integers(1, 4, size=blocks)
        inner = rng.choice([1.5, 2.0, 3.0], size=blocks)
        outer_q = float(rng.choice([1.5, 2.0, 3.0]))
        g = pg.ProductVector(
            tuple(
                pg.SpaceSpec(int(d), pg.conjugate_exponent(r)).vector(
                    rng.standard_normal(int(d))
                )
                for d, r in zip(dims, inner)
            ),
            outer_q,
        )
        gap = pg.product_duality_gap(g) / max(pg.mixed_norm(g), 1e-30)
        worst_witness = max(worst_witness, gap)
        assert gap <= 1e-10
    grid_cfg = NumericsConfig(grid_axis_points=8001)
    worst_grid = 0.0
    for _ in range(50):
        dims = rng.integers(1, 3, size=2)  # dims <= 2 per block
        inner = rng.choice([1.5, 2.0, 3.0], size=2)
        outer_q = float(rng.choice([1.5, 2.0, 3.0]))
        g = pg.ProductVector(
            tuple(
                pg.SpaceSpec(int(d), pg.conjugate_exponent(r)).vector(
                    rng.standard_normal(int(d))
                )
                for d, r in zip(dims, inner)
            ),
            outer_q,
        )
        gap = pg.product_duality_gap(g, grid_cfg, method="grid")
        gap /= max(pg.mixed_norm(g), 1e-30)
        worst_grid = max(worst_grid, gap)
        assert gap <= 1e-3
    _report(
        6,
        f"200 witness gaps <= {worst_witness:.1e}; 50 grid gaps <= {worst_grid:.1e}",
    )


def test_criterion_7_perturbation():
    rng = np.random.default_rng(700)
    worst_slack = math.inf
    for trial in range(200):
        p = 2.0 if trial < 120 else (1.5 if trial % 2 == 0 else 3.0)
        n = int(rng.integers(2, 4))
        k = int(rng.integers(2, 4))
        lam = _row_seq([rng.standard_normal((1, n)) for _ in range(k)], p=p)
        eps = float(rng.uniform(0.001, 0.2))
        mats = [
            m + eps * (g := rng.standard_normal(m.shape)) / np.linalg.norm(g)
            for m in lam.mats
        ]
        theta = pg.OperatorSequence(lam.domain, lam.codomains, tuple(mats), p)
        rep = pg.perturbation_check(lam, theta, FAST)
        worst_slack = min(worst_slack, rep.slack)
        assert rep.slack >= -1e-9
        assert rep.analysis_gap.value <= rep.K.value + 1e-9
    _report(7, f"200 perturbed pairs, min slack {worst_slack:.1e} >= -1e-9")


def test_criterion_8_continuity():
    rng = np.random.default_rng(800)
    sel = _selectors(2)
    instances = [
        (pg.Symbol([1.0, 1.0]), sel, sel, 2.0, None),
        (
            pg.Symbol(rng.uniform(0.3, 1.5, 3) * rng.choice([-1.0, 1.0], 3)),
            _row_seq(_conditioned_square(rng, 3), p=2.0),
            _row_seq(_conditioned_square(rng, 3), p=2.0),
            2.0,
            None,
        ),
        (
            pg.Symbol(rng.uniform(0.3, 1.5, 2) * rng.choice([-1.0, 1.0], 2)),
            _row_seq(_conditioned_square(rng, 2), p=1.5),
            _row_seq(_conditioned_square(rng, 2), p=3.0),
            3.0,
            FAST,
        ),
    ]
    final_bounds = []
    for m, lam, theta, p1, cfg in instances:
        for kind in pg.CONTINUITY_KINDS:
            traces = pg.continuity_suite(
                kind, m, lam, theta, p1, dataclasses.replace(cfg or pg.DEFAULT_CONFIG, n_max=40)
            )
            assert all(t.measured <= t.bound + 1e-9 for t in traces)
            assert traces[-1].bound < 1e-10
            final_bounds.append(traces[-1].bound)
            if kind == "joint":
                for t in traces:
                    assert t.bound == pytest.approx(sum(t.components), rel=1e-12)
    _report(
        8,
        f"3 instances x 4 modes, all bounds respected; max final bound {max(final_bounds):.1e} < 1e-10",
    )


def test_criterion_9_equivalences_agree():
    rng = np.random.default_rng(900)
    checked = deficient = 0
    for trial in range(200):
        p = (2.0, 1.5, 3.0)[trial % 3]
        n = int(rng.integers(2, 5))
        k = int(rng.integers(n - 1, n + 2))
        if trial % 4 == 0:  # 50 deliberately rank-deficient instances
            k = max(k, 2)
        mats = [rng.standard_normal((1, n)) for _ in range(k)]
        if trial % 4 == 0:
            mats[-1] = 2.0 * mats[0]
            deficient += 1
        seq = _row_seq(mats, p=p)
        rep = pg.classify(seq, FAST)
        assert rep.is_frame == rep.g_complete, (trial, rep.is_frame, rep.g_complete)
        eq = pg.riesz_equivalences_check(seq, rep)
        assert eq.agree, (trial, eq)
        checked += 1
    assert deficient >= 50
    _report(9, f"{checked} instances ({deficient} rank-deficient), all routes agree")


def test_criterion_10_injectivity():
    rng = np.random.default_rng(1000)
    worst = math.inf
    for _ in range(100):
        n = int(rng.integers(2, 5))
        lam = _row_seq(_conditioned_square(rng, n), p=2.0)
        theta_mats = [rng.standard_normal((1, n)) for _ in range(n)]
        theta = _row_seq(theta_mats, p=2.0)
        spike = np.zeros(n)
        spike[int(rng.integers(0, n))] = rng.uniform(0.5, 2.0) * (
            1.0 if rng.random() < 0.5 else -1.0
        )
        m = pg.Symbol(spike)
        M = pg.assemble(m, lam, theta)
        g = pg.injectivity_witness(M, FAST)
        norm = float(np.linalg.norm(M.apply(g).entries))
        worst = min(worst, norm)
        assert norm >= 1e-12
    _report(10, f"100 spike symbols, min ||Mg|| = {worst:.1e} >= 1e-12")
