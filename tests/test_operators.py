import math

import numpy as np
import pytest

import pgframes as pg
from pgframes.spaces import pnorm_many


def rows(*mats, domain_dim=2, p=2.0, inner=None):
    mats = tuple(np.atleast_2d(np.asarray(m, dtype=float)) for m in mats)
    inner = inner or [2.0] * len(mats)
    return pg.OperatorSequence(
        pg.SpaceSpec(domain_dim, 2.0),
        tuple(pg.SpaceSpec(m.shape[0], r) for m, r in zip(mats, inner)),
        mats,
        p,
    )


SELECTORS = rows([[1.0, 0.0]], [[0.0, 1.0]])


def test_analysis_apply_examples():
    seq = rows(np.eye(2))
    out = pg.analysis_apply(seq, [1.0, 2.0])
    np.testing.assert_array_equal(out.blocks[0].entries, [1.0, 2.0])

    out = pg.analysis_apply(SELECTORS, [3.0, 4.0])
    assert [b.entries.tolist() for b in out.blocks] == [[3.0], [4.0]]

    seq = rows([[1.0, 1.0]], [[1.0, -1.0]])
    out = pg.analysis_apply(seq, [2.0, 1.0])
    assert [b.entries.tolist() for b in out.blocks] == [[3.0], [1.0]]


def test_synthesis_apply_examples():
    out = pg.synthesis_apply(SELECTORS, [[5.0], [7.0]])
    np.testing.assert_array_equal(out.entries, [5.0, 7.0])

    seq = rows(np.eye(2))
    out = pg.synthesis_apply(seq, [[2.5, -1.0]])
    np.testing.assert_array_equal(out.entries, [2.5, -1.0])

    seq = rows([[1.0, 1.0]], [[1.0, -1.0]])
    out = pg.synthesis_apply(seq, [[1.0], [1.0]])
    np.testing.assert_array_equal(out.entries, [2.0, 0.0])


def test_synthesis_matrix_examples():
    np.testing.assert_array_equal(pg.synthesis_matrix(SELECTORS), np.eye(2))
    np.testing.assert_array_equal(pg.synthesis_matrix(rows(np.eye(2))), np.eye(2))
    seq = rows(np.eye(2), [[1.0, 1.0]])
    np.testing.assert_array_equal(
        pg.synthesis_matrix(seq), [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]
    )


def test_synthesis_matrix_consistency():
    rng = np.random.default_rng(0)
    for _ in range(20):
        dims = rng.integers(1, 4, size=rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        seq = pg.OperatorSequence(
            pg.SpaceSpec(n, 2.0),
            tuple(pg.SpaceSpec(int(d), 2.0) for d in dims),
            tuple(rng.standard_normal((int(d), n)) for d in dims),
            2.0,
        )
        flat = rng.standard_normal(int(dims.sum()))
        blocks = seq.coefficient_space().split(flat)
        via_apply = pg.synthesis_apply(seq, blocks).entries
        via_matrix = pg.synthesis_matrix(seq) @ flat
        np.testing.assert_allclose(via_apply, via_matrix, rtol=1e-13, atol=1e-13)


def test_adjoint_identity():
    # <T g, x> equals sum_i <g_i, (U x)_i> on random instances
    rng = np.random.default_rng(1)
    for p in (1.5, 2.0, 3.0):
        for _ in range(15):
            dims = rng.integers(1, 4, size=rng.integers(1, 4))
            n = int(rng.integers(1, 5))
            seq = pg.OperatorSequence(
                pg.SpaceSpec(n, 2.0),
                tuple(pg.SpaceSpec(int(d), 2.0) for d in dims),
                tuple(rng.standard_normal((int(d), n)) for d in dims),
                p,
            )
            x = seq.domain.vector(rng.standard_normal(n))
            blocks = [rng.standard_normal(int(d)) for d in dims]
            left = pg.dual_pairing(pg.synthesis_apply(seq, blocks), x)
            ux = pg.analysis_apply(seq, x)
            right = sum(
                float(np.dot(g, b.entries)) for g, b in zip(blocks, ux.blocks)
            )
            assert left == pytest.approx(right, rel=1e-10, abs=1e-12)


def test_analysis_opnorm_examples():
    lo, up = pg.analysis_opnorm(SELECTORS)
    assert lo.value == up.value == pytest.approx(1.0, abs=1e-14)
    assert lo.kind == "exact"

    # stacked Gram is 2I, hand oracle sqrt(2)
    seq = rows(np.eye(2), np.eye(2))
    lo, _ = pg.analysis_opnorm(seq)
    assert lo.value == pytest.approx(math.sqrt(2.0), rel=1e-14)

    seq = rows([[1.0, 1.0]])
    lo, _ = pg.analysis_opnorm(seq)
    assert lo.value == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_analysis_opnorm_mixed_exponents_against_grid():
    seq = rows([[1.0, 2.0]], [[0.5, -1.0], [1.0, 0.0]], p=1.5, inner=[2.0, 3.0])
    lo, up = pg.analysis_opnorm(seq)
    assert lo.value <= up.value + 1e-12
    assert pg.analysis_upper(seq) == up
    thetas = np.linspace(0.0, 2.0 * math.pi, 20001)
    xs = np.stack([np.cos(thetas), np.sin(thetas)])
    xs = xs / pnorm_many(xs, seq.domain.exponent)
    ratios = seq.analysis_space().norm_many(seq.stacked() @ xs)
    assert lo.value == pytest.approx(float(ratios.max()), abs=1e-3)


def _sequence(domain_exponent, blocks, p):
    """blocks: (matrix, codomain exponent) pairs."""
    mats = tuple(np.atleast_2d(np.asarray(m, dtype=float)) for m, _ in blocks)
    return pg.OperatorSequence(
        pg.SpaceSpec(mats[0].shape[1], domain_exponent),
        tuple(pg.SpaceSpec(m.shape[0], r) for m, (_, r) in zip(mats, blocks)),
        mats,
        p,
    )


def test_synthesis_norm_is_the_analysis_norm():
    # The synthesis operator is the adjoint of the analysis operator, so the
    # package computes only the analysis side.  Reference: the certificate
    # pair of the synthesis matrix itself.  Codomain blocks are not l^1 and
    # the domain is not l^inf: there the sign-enumeration closed form exists
    # for one side only, and the two upper certificates differ.
    rng = np.random.default_rng(7)
    g = rng.standard_normal
    dependent = g((1, 3))
    cases = [
        _sequence(1.5, [(g((2, 3)), 3.0), (g((1, 3)), 3.0)], 1.5),  # plain
        _sequence(3.0, [(g((2, 4)), 1.5), (g((1, 4)), 4.0), (g((1, 4)), np.inf)], 2.5),
        _sequence(2.0, [(g((2, 3)), 2.0), (g((1, 3)), 2.0)], 2.0),  # Euclidean
        _sequence(1.5, [(g((2, 3)), 2.0), (g((2, 3)), 2.0)], 3.0),  # Euclidean blocks
        _sequence(4.0, [(g((1, 3)), 2.0) for _ in range(3)], 1.5),  # 1-dim blocks
        _sequence(1.0, [(g((1, 2)), 3.0), (g((1, 2)), 1.5)], 2.0),
        _sequence(2.0, [(dependent, 3.0), (-2.0 * dependent, 3.0), (g((1, 3)), 3.0)], 1.5),
    ]
    assert np.linalg.matrix_rank(cases[-1].stacked()) == 2  # rank-deficient
    for seq in cases:
        synthesis = pg.operator_norm_bounds(
            pg.synthesis_matrix(seq), seq.coefficient_space(), seq.domain.dual
        )
        analysis = pg.analysis_opnorm(seq)
        upper = pg.analysis_upper(seq)
        assert upper.value == analysis.upper.value
        assert synthesis.upper.value == pytest.approx(upper.value, rel=1e-12, abs=0.0)
        assert synthesis.lower.value <= upper.value
        assert analysis.lower.value <= synthesis.upper.value


def test_shape_validation():
    with pytest.raises(pg.DimensionMismatchError):
        pg.OperatorSequence(
            pg.SpaceSpec(2, 2.0), (pg.SpaceSpec(1, 2.0),), (np.eye(2),), 2.0
        )
    with pytest.raises(pg.SpaceError):
        rows([[1.0, 0.0]], p=1.0)  # aggregation exponent must be interior
    with pytest.raises(pg.DimensionMismatchError):
        pg.analysis_apply(SELECTORS, [1.0, 2.0, 3.0])
    with pytest.raises(pg.DimensionMismatchError):
        pg.synthesis_apply(SELECTORS, [[1.0]])


def test_non_finite_member_is_named():
    mats = [[[1.0, 0.0]], [[0.0, 1.0]], [[np.nan, 1.0]], [[np.inf, 0.0]]]
    with pytest.raises(pg.SpaceError, match="member 2 has non-finite entries"):
        rows(*mats)
    # shapes are checked first, for every member
    dom = pg.SpaceSpec(2, 2.0)
    with pytest.raises(pg.DimensionMismatchError, match="member 1 has shape"):
        pg.OperatorSequence(
            dom,
            (pg.SpaceSpec(1, 2.0), pg.SpaceSpec(1, 2.0)),
            (np.array([[np.nan, 0.0]]), np.eye(2)),
            2.0,
        )
