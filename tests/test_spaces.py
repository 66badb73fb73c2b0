import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pgframes as pg
from pgframes.spaces import pnorm, pnorm_many

INF = math.inf

EXPONENTS = [1.0, 1.5, 2.0, 3.0, INF]

vectors = st.lists(
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=6,
)


def vec(entries, p):
    e = np.asarray(entries, dtype=float)
    return pg.SpaceSpec(e.size, p).vector(e)


def test_p_norm_examples():
    assert pg.p_norm(vec([3, 4], 2)) == pytest.approx(5.0, abs=1e-14)
    assert pg.p_norm(vec([1, -1, 1], 1)) == pytest.approx(3.0, abs=1e-14)
    assert pg.p_norm(vec([2, -7, 1], INF)) == 7.0


def test_conjugate_exponent_examples():
    assert pg.conjugate_exponent(2) == 2.0
    assert pg.conjugate_exponent(1.5) == pytest.approx(3.0, rel=1e-15)
    assert pg.conjugate_exponent(INF) == 1.0
    assert pg.conjugate_exponent(1) == INF
    with pytest.raises(pg.SpaceError):
        pg.conjugate_exponent(0.9)


@given(st.floats(1.0 + 1e-6, 1e3))
@settings(max_examples=50, deadline=None, derandomize=True)
def test_conjugate_is_involution(p):
    assert pg.conjugate_exponent(pg.conjugate_exponent(p)) == pytest.approx(p, rel=1e-12)


def test_dual_pairing_examples():
    assert pg.dual_pairing(vec([1, 0], 2), vec([0, 1], 2)) == 0.0
    assert pg.dual_pairing(vec([1, 2, 3], 2), vec([1, 1, 1], 2)) == 6.0
    assert pg.dual_pairing(vec([2, -1], 2), vec([3, 4], 2)) == 2.0
    with pytest.raises(pg.DimensionMismatchError):
        pg.dual_pairing(vec([1, 2], 2), vec([1, 2, 3], 2))


def test_mixed_norm_examples():
    pv = pg.ProductVector((vec([3, 4], 2), vec([0], 2)), 1.0)
    assert pg.mixed_norm(pv) == pytest.approx(5.0, abs=1e-14)
    pv = pg.ProductVector((vec([1], 2), vec([1], 2), vec([1], 2)), 3.0)
    assert pg.mixed_norm(pv) == pytest.approx(3.0 ** (1.0 / 3.0), rel=1e-14)
    # hand oracle: 25 + 169 = 194, outer root
    pv = pg.ProductVector((vec([3, 4], 2), vec([5, 12], 2)), 2.0)
    assert pg.mixed_norm(pv) == pytest.approx(math.sqrt(194.0), rel=1e-14)


@given(vectors, st.sampled_from(EXPONENTS), st.floats(-8, 8))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_norm_homogeneity_and_triangle(entries, p, c):
    a = np.asarray(entries, dtype=float)
    assert pnorm(c * a, p) == pytest.approx(abs(c) * pnorm(a, p), rel=1e-12, abs=1e-12)
    b = a[::-1].copy()
    assert pnorm(a + b, p) <= pnorm(a, p) + pnorm(b, p) + 1e-9


@given(vectors, vectors, st.sampled_from(EXPONENTS))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_holder_inequality_and_witness(x_entries, g_entries, p):
    n = min(len(x_entries), len(g_entries))
    x = np.asarray(x_entries[:n], dtype=float)
    g = np.asarray(g_entries[:n], dtype=float)
    q = pg.conjugate_exponent(p)
    assert abs(np.dot(x, g)) <= pnorm(x, p) * pnorm(g, q) + 1e-7
    # the witness attains equality
    w = pg.holder_witness(g, p)
    if pnorm(g, q) > 0:
        assert pnorm(w, p) == pytest.approx(1.0, rel=1e-12)
        assert np.dot(w, g) == pytest.approx(pnorm(g, q), rel=1e-12)
    else:
        assert np.all(w == 0.0)


def test_pnorm_many_matches_scalar():
    rng = np.random.default_rng(0)
    cols = rng.standard_normal((4, 30))
    for p in EXPONENTS:
        expect = [pnorm(cols[:, j], p) for j in range(30)]
        np.testing.assert_allclose(pnorm_many(cols, p), expect, rtol=1e-13)


@pytest.mark.parametrize("entries", [[1e-200, 1e-200], [1e200, 1e200], [1e200, 1e-200]])
def test_p2_norms_survive_extreme_scaling(entries):
    expected = math.hypot(*entries)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [
            pnorm(entries, 2.0),
            float(pnorm_many(np.array(entries)[:, None], 2.0)[0]),
            vec(entries, 2.0).norm(),
            pg.Symbol(entries).p_norm(2.0),
        ]
    assert got == pytest.approx([expected] * 4, rel=1e-15, abs=0.0)


@given(
    st.integers(1, 5),
    st.lists(
        st.floats(0.5, 1e3) | st.floats(-1e3, -0.5) | st.just(0.0), min_size=30, max_size=30
    ),
    st.integers(-495, 465),
)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_p2_norms_in_range_keep_the_unscaled_sum(d, entries, e):
    # every column has an entry of magnitude in [0.5, 1e3] * 2^e, so its largest
    # entry lies in (2^-500, 2^480), where the sum of squares is exact to rounding
    cols = np.array(entries[: 6 * d]).reshape(d, 6) * 2.0**e
    cols[0] = np.where(cols[0] == 0.0, 2.0**e, cols[0])
    a = np.abs(cols)
    assert np.array_equal(pnorm_many(cols, 2.0), np.sqrt((a * a).sum(axis=0)))
    for j in range(cols.shape[1]):
        assert pnorm(cols[:, j], 2.0) == float(np.linalg.norm(cols[:, j]))


def test_product_space_norm_and_witness():
    space = pg.ProductSpaceSpec((pg.SpaceSpec(2, 2), pg.SpaceSpec(3, 3)), 1.5)
    rng = np.random.default_rng(1)
    for _ in range(25):
        u = rng.standard_normal(5)
        w = space.witness(u)
        assert space.norm(w) == pytest.approx(1.0, rel=1e-12)
        assert np.dot(w, u) == pytest.approx(space.dual.norm(u), rel=1e-12)


def test_product_duality_gap_trivial_cases():
    # single block: the extremal witness is the block itself
    g = pg.ProductVector((vec([1, 0], 2),), 2.0)
    assert pg.product_duality_gap(g) <= 1e-14
    # outer q = 1 makes the predual outer exponent infinite; witness all-ones
    g = pg.ProductVector((vec([1], 2), vec([1], 2)), 1.0)
    assert pg.product_duality_gap(g) <= 1e-14


def _brute_force_product_sup(blocks, inner_exponents, outer_p, g_flat):
    # independent oracle: angle grids per 2-dim block, weight grid outside;
    # parameterization differs from the package's cube-face sampler
    thetas = np.linspace(0.0, 2.0 * math.pi, 2001)
    per_block = []
    at = 0
    for dim, r in zip(blocks, inner_exponents):
        gi = g_flat[at : at + dim]
        at += dim
        if dim == 1:
            per_block.append(abs(gi[0]))
            continue
        cand = np.stack([np.cos(thetas), np.sin(thetas)])
        cand = cand / pnorm_many(cand, r)
        per_block.append(float((cand.T @ gi).max()))
    s = np.array(per_block)
    ts = np.linspace(0.0, 1.0, 2001)
    if math.isinf(outer_p):
        weights = np.ones((ts.size, 2))
    else:
        weights = np.stack([ts, (1.0 - ts**outer_p) ** (1.0 / outer_p)], axis=1)
    return float((weights @ s).max())


def test_product_duality_gap_derived_example():
    # blocks ([2,1],[1,3]) with q = 3, predual p = 1.5
    g = pg.ProductVector((vec([2, 1], 2), vec([1, 3], 2)), 3.0)
    assert pg.product_duality_gap(g) <= 1e-10
    assert pg.product_duality_gap(g, method="grid") <= 1e-3
    brute = _brute_force_product_sup((2, 2), (2.0, 2.0), 1.5, g.flatten())
    assert brute == pytest.approx(pg.mixed_norm(g), abs=1e-3)


def test_product_duality_gap_random_witness():
    rng = np.random.default_rng(7)
    for k in range(40):
        dims = rng.integers(1, 4, size=rng.integers(1, 4))
        inner = rng.choice([1.5, 2.0, 3.0, 4.0], size=dims.size)
        outer_q = float(rng.choice([1.5, 2.0, 3.0]))
        blocks = tuple(
            vec(rng.standard_normal(d), pg.conjugate_exponent(r))
            for d, r in zip(dims, inner)
        )
        g = pg.ProductVector(blocks, outer_q)
        scale = max(pg.mixed_norm(g), 1e-30)
        assert pg.product_duality_gap(g) / scale <= 1e-10


def test_space_validation():
    with pytest.raises(pg.SpaceError):
        pg.SpaceSpec(0, 2)
    with pytest.raises(pg.SpaceError):
        pg.SpaceSpec(2, 0.5)
    with pytest.raises(pg.SpaceError):
        vec([1.0, math.nan], 2)
