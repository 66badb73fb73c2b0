import itertools
import math

import numpy as np
import pytest

import pgframes as pg
from pgframes.config import NumericsConfig
from pgframes.spaces import pnorm, pnorm_many

INF = math.inf


def _grid_sup(A, p, r, points=20001):
    # independent dense oracle on the l^p unit circle (2-dim domains only)
    thetas = np.linspace(0.0, 2.0 * math.pi, points)
    x = np.stack([np.cos(thetas), np.sin(thetas)])
    x = x / pnorm_many(x, p)
    return float(pnorm_many(A @ x, r).max())


def _sign_enum_sup(A, r):
    best = 0.0
    n = A.shape[1]
    for signs in itertools.product((-1.0, 1.0), repeat=n):
        best = max(best, pnorm(A @ np.array(signs), r))
    return best


def test_exact_examples():
    lo, up = pg.matrix_opnorm(np.eye(2), 2, 2)
    assert lo.value == up.value == pytest.approx(1.0, abs=1e-14)
    assert lo.kind == "exact"
    lo, up = pg.matrix_opnorm(np.diag([1.0, 2.0]), 2, 2)
    assert lo.value == pytest.approx(2.0, abs=1e-14)
    # hand oracle: max column l1 sum is column 2 with 2 + 4
    lo, up = pg.matrix_opnorm(np.array([[1.0, 2.0], [3.0, 4.0]]), 1, 1)
    assert lo.value == up.value == 6.0


def test_exact_row_and_vertex_cases():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    lo, up = pg.matrix_opnorm(A, 2, INF)
    assert lo.value == pytest.approx(5.0, rel=1e-14)  # row (3,4)
    assert lo.kind == "exact"

    lo, up = pg.matrix_opnorm(A, INF, 1)
    assert lo.value == pytest.approx(_sign_enum_sup(A, 1.0), rel=1e-14)
    lo, up = pg.matrix_opnorm(A, INF, 2)
    assert lo.value == pytest.approx(_sign_enum_sup(A, 2.0), rel=1e-14)
    assert lo.kind == "exact" and up.kind == "exact"


def test_vertex_limit_behaviour():
    cfg = NumericsConfig(vertex_limit=3)
    rng = np.random.default_rng(0)
    for n in (cfg.vertex_limit, cfg.vertex_limit + 1):
        A = rng.standard_normal((2, n))
        if n <= cfg.vertex_limit:
            lo, up = pg.matrix_opnorm(A, INF, 1.5, cfg, exact="require")
            assert up.method == "vertex-enumeration" and lo.value == up.value
        else:
            with pytest.raises(pg.VertexLimitError):
                pg.matrix_opnorm(A, INF, 1.5, cfg, exact="require")
            lo, up = pg.matrix_opnorm(A, INF, 1.5, cfg)
            assert lo.kind == "lower_estimate" and up.kind == "upper_certificate"
        assert lo.value <= up.value + 1e-12
        lo, up = pg.matrix_opnorm(A, 1.5, 3.0, cfg)
        assert up.method in ("columns-holder", "rows-holder", "singular-dimension")
        assert lo.value <= up.value + 1e-12


def test_general_case_derived_example():
    # grid oracle certifies the estimate within 1e-3 on the l^1.5 circle
    A = np.array([[1.0, 1.0], [1.0, -1.0]])
    lo, up = pg.matrix_opnorm(A, 1.5, 2)
    assert lo.value <= up.value + 1e-12
    assert lo.value == pytest.approx(_grid_sup(A, 1.5, 2), abs=1e-3)


def test_general_case_against_grid_random():
    rng = np.random.default_rng(3)
    for p, r in [(1.5, 2.0), (3.0, 1.5), (2.0, 3.0), (1.5, 1.5)]:
        A = rng.standard_normal((3, 2))
        lo, up = pg.matrix_opnorm(A, p, r)
        assert lo.value == pytest.approx(_grid_sup(A, p, r), abs=1e-3)
        assert lo.value <= up.value + 1e-12


def test_witness_reproduces_value():
    rng = np.random.default_rng(4)
    for p, r in [(1.5, 2.0), (2.0, 2.0), (1.0, 3.0), (3.0, INF), (INF, 2.0)]:
        A = rng.standard_normal((3, 3))
        lo, _ = pg.matrix_opnorm(A, p, r)
        ratio = pnorm(A @ lo.witness, r) / pnorm(lo.witness, p)
        assert ratio == pytest.approx(lo.value, rel=1e-10)


def test_singular_value_witness_owns_its_memory():
    # a row of the SVD factor would keep the whole n x n factor alive
    A = np.random.default_rng(4).standard_normal((12, 10))
    cert = pg.upper_certificate_only(A, pg.SpaceSpec(10, 2.0), pg.SpaceSpec(12, 2.0))
    assert cert.method == "singular-value"
    assert cert.witness.base is None


def test_sandwich_across_exponents():
    rng = np.random.default_rng(5)
    exps = [1.0, 1.5, 2.0, 3.0, INF]
    for _ in range(10):
        A = rng.standard_normal((rng.integers(1, 5), rng.integers(1, 5)))
        for p, r in itertools.product(exps, exps):
            lo, up = pg.matrix_opnorm(A, p, r)
            assert lo.value <= up.value + 1e-12 * max(1.0, up.value)
            if lo.kind == "exact":
                assert lo.value == up.value


def test_scaling_homogeneity():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((3, 3))
    for p, r in [(1.5, 2.0), (2.0, 2.0), (1.0, 1.0), (3.0, 1.5)]:
        base = pg.matrix_opnorm(A, p, r)
        for c in (4.0, 3.0):
            scaled = pg.matrix_opnorm(c * A, p, r)
            assert scaled.lower.value == pytest.approx(c * base.lower.value, rel=1e-10)
            assert scaled.upper.value == pytest.approx(c * base.upper.value, rel=1e-10)


def test_zero_matrix():
    lo, up = pg.matrix_opnorm(np.zeros((2, 3)), 1.5, 3)
    assert lo.value == 0.0 and up.value == 0.0
    assert lo.kind == "exact"
    assert np.all(lo.witness == 0.0)


def test_upper_beats_crude_bounds_on_riesz_thorin_case():
    # the certified upper must never exceed the plain column/row bounds
    rng = np.random.default_rng(7)
    A = rng.standard_normal((4, 3))
    p, r = 1.5, 2.0
    q = pg.conjugate_exponent(p)
    cols = pnorm(pnorm_many(A, r), q)
    rows = pnorm(pnorm_many(A.T, q), r)
    _, up = pg.matrix_opnorm(A, p, r)
    assert up.value <= min(cols, rows) + 1e-12


def test_operator_norm_bounds_mixed_spaces():
    # one engine drives plain and mixed-norm spaces alike
    dom = pg.SpaceSpec(2, 2.0)
    cod = pg.ProductSpaceSpec((pg.SpaceSpec(2, 2.0), pg.SpaceSpec(2, 2.0)), 2.0)
    A = np.vstack([np.eye(2), np.eye(2)])
    lo, up = pg.operator_norm_bounds(A, dom, cod)
    assert lo.value == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert lo.kind == "exact"

    cod = pg.ProductSpaceSpec((pg.SpaceSpec(2, 3.0), pg.SpaceSpec(2, 2.0)), 1.5)
    lo, up = pg.operator_norm_bounds(A, dom, cod)
    assert lo.value <= up.value + 1e-12
    ratio = cod.norm(A @ lo.witness) / dom.norm(lo.witness)
    assert ratio == pytest.approx(lo.value, rel=1e-10)

    # the upper-only route is the upper side of the pair, bit for bit
    rng = np.random.default_rng(9)
    blocks = pg.ProductSpaceSpec((pg.SpaceSpec(1, 3.0), pg.SpaceSpec(2, 1.5)), 1.5)
    euclid = pg.ProductSpaceSpec((pg.SpaceSpec(2, 2.0), pg.SpaceSpec(1, 2.0)), 2.0)
    cases = [
        (rng.standard_normal((3, 2)), dom, blocks),        # row blocks
        (rng.standard_normal((2, 3)), blocks, dom),        # column blocks
        (rng.standard_normal((3, 2)), dom, euclid),        # all-Euclidean product
        (np.zeros((3, 2)), dom, blocks),                   # zero matrix
        (rng.standard_normal((3, 4)), pg.SpaceSpec(4, INF), pg.SpaceSpec(3, 1.5)),
    ]
    for M, d, c in cases:
        only = pg.upper_certificate_only(M, d, c)
        pair = pg.operator_norm_bounds(M, d, c)
        assert (only.value, only.kind, only.method) == (
            pair.upper.value, pair.upper.kind, pair.upper.method
        )
        assert pair.lower.value <= only.value


def _min_ratio_case(case):
    """(A, domain exponent, codomain exponent) for one shape branch."""
    rng = np.random.default_rng(8)
    if case == "tall-euclidean":
        return rng.standard_normal((4, 3)), 2.0, 2.0
    if case == "wide-euclidean":
        return rng.standard_normal((2, 4)), 2.0, 2.0
    A = rng.standard_normal((4, 4))
    if case == "singular-lp":
        A[1] = 0.0  # exactly singular: inv(A) would raise LinAlgError
    return A, 1.5, 3.0


@pytest.mark.parametrize(
    "case", ["tall-euclidean", "square-lp", "singular-lp", "wide-euclidean"]
)
def test_min_ratio_estimate_by_shape(case):
    A, p, r = _min_ratio_case(case)
    dom, cod = pg.SpaceSpec(A.shape[1], p), pg.SpaceSpec(A.shape[0], r)
    val, w = pg.min_ratio_estimate(A, dom, cod)
    ratio = cod.norm(A @ w) / dom.norm(w)
    if case == "tall-euclidean":
        smin = np.linalg.svd(A, compute_uv=False)[-1]
        assert val == pytest.approx(smin, rel=1e-6)
        assert ratio == pytest.approx(val, rel=1e-10)
    elif case == "square-lp":
        assert ratio == pytest.approx(val, rel=1e-10)
        X = np.random.default_rng(9).standard_normal((4, 2048))
        X = X / dom.norm_many(X)
        assert val <= cod.norm_many(A @ X).min()
    elif case == "singular-lp":
        assert val <= 1e-12 * np.abs(A).max()
        assert ratio == pytest.approx(val, abs=1e-15)
    else:
        assert val == 0.0
        assert ratio <= 1e-12 * np.abs(A).max()


def _homogeneity_cases():
    """(A, domain, codomain, route) covering every route of the two oracles."""
    rng = np.random.default_rng(12)
    sp = pg.SpaceSpec
    blocks = pg.ProductSpaceSpec((sp(2, 3.0), sp(4, 1.5)), 1.5)
    return [
        (np.zeros((2, 3)), sp(3, 1.5), sp(2, 3.0), "zero-matrix"),
        (rng.standard_normal((1, 6)), sp(6, 1.5), sp(1, 3.0), "row-functional"),
        (rng.standard_normal((6, 1)), sp(1, 1.5), sp(6, 3.0), "column-vector"),
        (rng.standard_normal((6, 5)), sp(5, 1.0), sp(6, 3.0), "max-column"),
        (rng.standard_normal((6, 5)), sp(5, 1.5), sp(6, INF), "max-row"),
        (rng.standard_normal((6, 5)), sp(5, INF), sp(6, 1.5), "vertex-enumeration"),
        (rng.standard_normal((6, 5)), sp(5, 2.0), sp(6, 2.0), "singular-value"),
        # Hoelder and singular-dimension candidates, multistart ascent below
        (rng.standard_normal((6, 5)), sp(5, 1.5), sp(6, 3.0), "boyd-multistart"),
        (rng.standard_normal((6, 5)), sp(5, 1.5), blocks, "blockwise-aggregate"),
    ]


@pytest.mark.parametrize("scale", [3e-7, 5e4])
def test_values_exactly_homogeneous_in_the_largest_entry(scale):
    # callers may rely on value(A) == s * value(A / s) bit for bit, s = max|A|
    for A0, dom, cod, route in _homogeneity_cases():
        A = scale * A0
        if isinstance(cod, pg.ProductSpaceSpec):
            pair = lambda M: pg.operator_norm_bounds(M, dom, cod)  # noqa: E731
        else:
            pair = lambda M: pg.matrix_opnorm(M, dom.exponent, cod.exponent)  # noqa: E731
        lo, up = pair(A)
        only = pg.upper_certificate_only(A, dom, cod)
        assert route in (only.method, lo.method), route
        s = float(np.abs(A).max())
        if s == 0.0:
            assert lo.value == up.value == only.value == 0.0
            continue
        B = A / s
        lo_b, up_b = pair(B)
        assert lo.value == s * lo_b.value, route
        assert up.value == s * up_b.value, route
        assert only.value == s * pg.upper_certificate_only(B, dom, cod).value, route
