import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import frozen_kernels as frozen
import pgframes as pg
from pgframes import gridsearch, spaces
from pgframes.spaces import holder_witness_many, pnorm, pnorm_many

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
        assert pnorm(cols[:, j], 2.0) == pnorm_many(cols[:, j][:, None], 2.0)[0]


def test_product_space_norm_and_witness():
    space = pg.ProductSpaceSpec((pg.SpaceSpec(2, 2), pg.SpaceSpec(3, 3)), 1.5)
    rng = np.random.default_rng(1)
    for _ in range(25):
        u = rng.standard_normal(5)
        w = space.witness(u)
        assert space.norm(w) == pytest.approx(1.0, rel=1e-12)
        assert np.dot(w, u) == pytest.approx(space.dual.norm(u), rel=1e-12)


def _per_block_norm_many(space, cols):
    # the block-by-block loop that the grouped kernels replace
    inner, at = [], 0
    for c in space.components:
        inner.append(pnorm_many(cols[at : at + c.dim], c.exponent))
        at += c.dim
    return pnorm_many(np.vstack(inner), space.outer_exponent)


def _per_block_witness_many(space, U):
    parts, at = [], 0
    for c in space.components:
        parts.append((slice(at, at + c.dim), c))
        at += c.dim
    duals = np.vstack([pnorm_many(U[sl], pg.conjugate_exponent(c.exponent)) for sl, c in parts])
    weights = holder_witness_many(duals, space.outer_exponent)
    out = np.empty_like(U)
    for i, (sl, c) in enumerate(parts):
        out[sl] = weights[i] * holder_witness_many(U[sl], c.exponent)
    return out


def _assert_grouped_matches_per_block(space, cols):
    # C and Fortran order: numpy reduces a block along its innermost axis in
    # memory, and the stacked views must keep that axis
    for x in (np.ascontiguousarray(cols), np.asfortranarray(cols)):
        assert np.array_equal(space.norm_many(x), _per_block_norm_many(space, x))
        assert np.array_equal(space.witness_many(x), _per_block_witness_many(space, x))


def _test_columns(total_dim, rng):
    cols = rng.standard_normal((total_dim, 9)) * np.exp(rng.uniform(-4, 4, (total_dim, 9)))
    cols[:, 0] = 0.0  # a zero column
    cols[:, 1:4] = rng.integers(-1, 2, (total_dim, 3))  # argmax ties at p = 1
    cols[: total_dim // 2, 4] = 0.0  # zero blocks beside nonzero ones
    return cols


@pytest.mark.parametrize("inner", EXPONENTS)
@pytest.mark.parametrize("outer", EXPONENTS)
def test_grouped_product_kernels_match_the_per_block_loop(inner, outer):
    rng = np.random.default_rng([13, EXPONENTS.index(inner), EXPONENTS.index(outer)])
    for d in range(1, 41):
        for dims in ([d, d, d], [d, 1, d], [2, 3, 2]):
            # [d, d, d] is one run of three blocks; in [d, 1, d] and [2, 3, 2]
            # the equal blocks 0 and 2 are separate runs
            space = pg.ProductSpaceSpec(tuple(pg.SpaceSpec(k, inner) for k in dims), outer)
            _assert_grouped_matches_per_block(space, _test_columns(space.total_dim, rng))
    mixed = pg.ProductSpaceSpec(
        tuple(pg.SpaceSpec(2, r) for r in EXPONENTS) + (pg.SpaceSpec(2, inner),), outer
    )
    _assert_grouped_matches_per_block(mixed, _test_columns(mixed.total_dim, rng))


@pytest.mark.parametrize("scale", [2.0**490, 2.0**-540])
@pytest.mark.parametrize("dims", [[4, 4, 4], [4, 5, 4]])
def test_p2_choice_is_made_per_block(scale, dims):
    # one block has entries >= 2^480, or a norm <= 2^-500, so it takes the
    # scaled form; the other blocks must keep the unscaled sum of squares
    rng = np.random.default_rng(29)
    space = pg.ProductSpaceSpec(tuple(pg.SpaceSpec(d, 2.0) for d in dims), 3.0)
    cols = rng.standard_normal((space.total_dim, 40))
    cols[-4:] *= scale  # the last block, in one run with block 0 for [4, 4, 4]
    a = np.abs(cols[:4])
    m = a.max(axis=0)
    scaled = m * np.sqrt(((a / m) ** 2).sum(axis=0))
    # the test can tell: a per-call choice would change block 0's norms
    assert not np.array_equal(scaled, np.sqrt((a * a).sum(axis=0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_grouped_matches_per_block(space, cols)
        _assert_grouped_matches_per_block(space.dual, cols)


def _products_of_dim(d, p):
    # one block, and runs of equal blocks beside single ones
    sp = pg.SpaceSpec
    yield pg.ProductSpaceSpec((sp(d, p),), 1.5)
    if d >= 3:
        pairs = (sp(2, p),) * ((d - 1) // 2)
        yield pg.ProductSpaceSpec((sp(1, p),) + pairs + (sp(1, 3.0),) * (1 - d % 2), p)


@pytest.mark.parametrize("p", EXPONENTS)
def test_stacked_kernels_equal_a_stack_of_2d_calls(p):
    # the product kernels too: the lockstep ascent runs them on (k, d, N)
    # stacks and must give each slice the bits of a 2-D call
    rng = np.random.default_rng(31)
    for shape in [(3, 1, 7), (4, 9, 5), (2, 3, 40, 6), (2, 5, 0)]:
        X = rng.standard_normal(shape)
        X[0, ..., :1] = 0.0
        X[0, ..., 2:] *= 2.0**-540  # these slices take the scaled p = 2 form,
        X[-1, ..., 1:] *= 2.0**490  # and so do these, beside unscaled ones
        X[1:, ..., -1:] = -1.0  # argmax ties at p = 1
        flat = X.reshape(math.prod(shape[:-2]), *shape[-2:])
        kernels = [lambda x: pnorm_many(x, p), lambda x: holder_witness_many(x, p)]
        for space in _products_of_dim(shape[-2], p):
            kernels += [space.norm_many, space.witness_many]
        for kernel in kernels:
            expect = np.stack([kernel(x) for x in flat])
            got = kernel(X)
            assert np.array_equal(got, expect.reshape(got.shape))


@pytest.mark.parametrize("inner", EXPONENTS)
@pytest.mark.parametrize("outer", EXPONENTS)
def test_stacked_kernels_give_the_witness_of_one_functional(inner, outer):
    # the product witness of one functional is one column of witness_many,
    # bit for bit: there is no second, per-block route
    rng = np.random.default_rng([37, EXPONENTS.index(inner), EXPONENTS.index(outer)])
    for dims in ([2], [1, 1], [2, 3, 2], [2] * 48):
        space = pg.ProductSpaceSpec(tuple(pg.SpaceSpec(d, inner) for d in dims), outer)
        for u in _test_columns(space.total_dim, rng).T:
            assert np.array_equal(space.witness(u), space.witness_many(u[:, None])[:, 0])
        zero = space.witness(np.zeros(space.total_dim))
        assert zero.shape == (space.total_dim,) and not zero.any()
        with pytest.raises(pg.DimensionMismatchError):
            space.witness(np.ones(space.total_dim + 1))


# the exponents of the bitwise sweep: r = 4 does not survive conjugating
# twice, and at 2^54 the conjugate is exactly 1.0, so the witness power is 0
SWEEP_EXPONENTS = [1.0, 1.25, 4.0 / 3.0, 1.5, 2.0, 3.0, 4.0, 7.0, INF, 2.0**54]


def _sweep_stack(d, rng):
    # a (3, d, 12) stack; every slice but one has only nonzero columns
    X = rng.standard_normal((3, d, 12)) * np.exp(rng.uniform(-3, 3, (3, d, 12)))
    X[0, :, 1:4] = rng.integers(1, 3, (d, 3)) * rng.choice([-1.0, 1.0], (d, 3))  # ties
    X[0, : d // 2, 4] = 0.0  # zero entries in a nonzero column
    X[1, :, 0] = 0.0  # a zero column inside the stack
    X[1, :, 1] = 0.0
    X[1, :1, 1] = 1.0  # a column with one nonzero entry
    X[2] *= 2.0**-540  # this slice takes the scaled p = 2 form,
    X[1, :, 5:] *= 2.0**540  # and so does this one, beside unscaled slice 0
    return X


def _nonfinite_stack(d, rng):
    # an infinite entry in one slice, a NaN in another
    X = rng.standard_normal((3, d, 5))
    X[0, 0, 1] = INF
    X[1, -1, 2] = np.nan
    return X


def _layouts(X):
    # C and Fortran order of the stack and of its first slice
    for x in (X, X[0]):
        yield np.ascontiguousarray(x)
        yield np.asfortranarray(x)


def _assert_nan_in_nan_out(x, got, expect, ulps=0):
    # on a stack with non-finite entries: a column that holds one gives a
    # non-finite output, unless its witness is a sign vector (p = 1 or inf,
    # or q = 1) and its one non-finite entry an infinity, which keeps the
    # frozen bits; every other column keeps the frozen bits, or moves by at
    # most ``ulps`` units in the last place where the caller says why
    bad = ~np.isfinite(x).all(axis=-2)
    G, E = (np.moveaxis(a, -2, -1) if a.ndim == x.ndim else a[..., None] for a in (got, expect))
    signs = bad & np.isfinite(G).all(axis=-1)
    assert not np.isnan(x).any(axis=-2)[signs].any()
    assert _bits(G[signs]) == _bits(E[signs])
    g, e = G[~bad], E[~bad]
    if ulps:
        assert (np.abs(g - e) <= ulps * np.spacing(np.abs(e))).all()
    else:
        assert _bits(g) == _bits(e)


def _assert_space_kernels_frozen(space, X, nonfinite=False, norm_ulps=0):
    # the ascent's norm step on a space and its norming step on the dual
    for x in _layouts(X):
        pairs = [
            (space.norm_many(x), frozen.norm_many(space, x), norm_ulps),
            (space.dual.witness_many(x), frozen.witness_many(space.dual, x), 0),
            (space.witness_many(x), frozen.witness_many(space, x), 0),
        ]
        for got, expect, ulps in pairs:
            if nonfinite:
                _assert_nan_in_nan_out(x, got, expect, ulps)
            else:
                assert np.array_equal(got, expect)


@pytest.mark.parametrize("p", SWEEP_EXPONENTS)
def test_frozen_kernels_equal_the_new_plain_kernels(p):
    assert pg.conjugate_exponent(pg.conjugate_exponent(4.0)) != 4.0
    assert pg.conjugate_exponent(2.0**54) == 1.0
    rng = np.random.default_rng([59, SWEEP_EXPONENTS.index(p)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in range(1, 9):
            X = _sweep_stack(d, rng)
            for x in _layouts(X):
                assert np.array_equal(pnorm_many(x, p), frozen.pnorm_many(x, p))
                assert np.array_equal(holder_witness_many(x, p), frozen.holder_witness_many(x, p))
            _assert_space_kernels_frozen(pg.SpaceSpec(d, p), X)
    with np.errstate(all="ignore"):
        for d in range(1, 4):
            X = _nonfinite_stack(d, rng)
            for x in _layouts(X):
                _assert_nan_in_nan_out(x, pnorm_many(x, p), frozen.pnorm_many(x, p))
                _assert_nan_in_nan_out(
                    x, holder_witness_many(x, p), frozen.holder_witness_many(x, p)
                )
            _assert_space_kernels_frozen(pg.SpaceSpec(d, p), X, nonfinite=True)


@pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 2.0, 3.0, 4.0, INF])
def test_an_infinity_gets_the_norm_inf_and_a_nan_stays_nan(p):
    # a column holding +-inf and no NaN has the norm +inf on every route,
    # plain and one-block product (the infinite block norm meets the outer
    # layer too), and a NaN stays NaN.  The finite columns beside them keep
    # their values (at p = 2 the slice takes the scaled form), and a finite
    # slice of the same stack keeps the bits of a call on it alone
    X = np.array([[INF, 0.5, np.nan, 1.0, 3.0], [0.5, -INF, INF, -2.0, 0.25]])
    F = np.random.default_rng(5).standard_normal(X.shape)
    routes = [
        lambda U: pnorm_many(U, p),
        pg.SpaceSpec(2, p).norm_many,
        pg.ProductSpaceSpec((pg.SpaceSpec(2, p),), 3.0).norm_many,
        pg.ProductSpaceSpec((pg.SpaceSpec(2, 3.0),), p).norm_many,
    ]
    for norm_many in routes:
        finite = norm_many(X[:, 3:])
        for x in (X, np.asfortranarray(X), np.stack([X, F])):
            with np.errstate(all="raise"):  # and no floating-point warning
                got = norm_many(x)
            first = got if x.ndim == 2 else got[0]
            assert first[:2].tolist() == [INF, INF]
            assert np.isnan(first[2])
            assert first[3:] == pytest.approx(finite, rel=1e-15)
            if x.ndim == 3:
                assert _bits(got[1]) == _bits(norm_many(F))


def test_p2_witness_takes_no_power(monkeypatch):
    # q - 1 = 1 at p = 2, and pow(x, 1) = x exactly, so the witness of a
    # stack with no zero column calls no np.power at all (its bits are the
    # frozen kernel's, which takes that power)
    X = np.random.default_rng(89).standard_normal((3, 5, 7))
    expect = frozen.holder_witness_many(X, 2.0)
    power = np.power
    calls = []
    monkeypatch.setattr(np, "power", lambda *args: calls.append(args) or power(*args))
    assert _bits(holder_witness_many(X, 2.0)) == _bits(expect)
    assert calls == []
    holder_witness_many(X, 3.0)
    assert calls


def test_frozen_witness_where_the_conjugate_is_one():
    # q = 1 makes the witness power 0, so P is 1 at zero entries too and its
    # sum counts them; at p = 2^54, 1000^(1/p) and 50^(1/p) round apart
    u = np.zeros((1000, 1))
    u[:50] = 1.0
    assert np.array_equal(holder_witness_many(u, 2.0**54), frozen.holder_witness_many(u, 2.0**54))


@pytest.mark.parametrize("outer", SWEEP_EXPONENTS[:-1])
def test_frozen_kernels_equal_the_new_product_kernels(outer):
    # products of 1 to 8 blocks: single blocks, runs of equal blocks, and
    # mixed exponents, with r = 4, whose exponent does not survive
    # conjugating twice, beside runs whose exponents do
    sp = pg.SpaceSpec
    rng = np.random.default_rng([61, SWEEP_EXPONENTS.index(outer)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in SWEEP_EXPONENTS[:-1]:
            for dims in ([1], [3], [2, 1], [1, 1], [2, 3, 2], [2] * 4, [1] * 8):
                space = pg.ProductSpaceSpec(tuple(sp(d, r) for d in dims), outer)
                _assert_space_kernels_frozen(space, _sweep_stack(space.total_dim, rng))
        mixed = pg.ProductSpaceSpec(
            (sp(2, 4.0), sp(2, 4.0), sp(1, 3.0), sp(2, 1.0), sp(2, INF), sp(1, 4.0), sp(2, 2.0)),
            outer,
        )
        _assert_space_kernels_frozen(mixed, _sweep_stack(mixed.total_dim, rng))
    with np.errstate(all="ignore"):
        # the NaN's block norm is NaN, no longer 0.0, so an outer layer at 2
        # takes its scaled form on the NaN's slice, as the plain kernels do on
        # a NaN column, where the frozen one took the unscaled form
        _assert_space_kernels_frozen(
            mixed, _nonfinite_stack(mixed.total_dim, rng), nonfinite=True,
            norm_ulps=1 if outer == 2.0 else 0,
        )


def _step_stack(space, rng):
    # the sweep stack (zero columns, ties, slices scaled by 2^-540 and 2^540)
    # with a zero first block in column 6 of slice 0 beside nonzero blocks
    X = _sweep_stack(space.total_dim, rng)
    if isinstance(space, pg.ProductSpaceSpec) and len(space.components) > 1:
        X[0, : space.components[0].dim, 6] = 0.0
    return X


def _assert_steps_frozen(space, X, nonfinite=False):
    # each of the ascent's two steps against the frozen calls it replaces:
    # measure gives the norms and the dual witnesses, lift the witnesses
    measure, lift = spaces.ascent_steps(space, space)
    for x in _layouts(X):
        norms, Z = measure(x)
        W, nonzero = lift(x)
        pairs = [
            (norms, frozen.norm_many(space, x)),
            (Z, frozen.witness_many(space.dual, x)),
            (W, frozen.witness_many(space, x)),
        ]
        for got, expect in pairs:
            if nonfinite:
                _assert_nan_in_nan_out(x, got, expect)
            else:
                assert _bits(got) == _bits(expect)
        assert W.shape == x.shape and (not nonzero or W.any(axis=-2).all())


@pytest.mark.parametrize("r", SWEEP_EXPONENTS)
def test_fused_steps_equal_the_frozen_kernels(r):
    # plain spaces, and products of one to eight blocks of exponent r under
    # the outer exponents 1.25 to 4, and mixed runs beside them; r = 4 does
    # not survive conjugating twice, so its dual witness weights its blocks
    # by their norms at 4.000000000000001, not by the r-norms
    sp = pg.SpaceSpec
    rng = np.random.default_rng([83, SWEEP_EXPONENTS.index(r)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in range(1, 9):
            _assert_steps_frozen(sp(d, r), _sweep_stack(d, rng))
        for outer in SWEEP_EXPONENTS[1:7]:
            for dims in ([1], [3], [2, 1], [1, 1], [2, 3, 2], [2] * 4, [1] * 8):
                space = pg.ProductSpaceSpec(tuple(sp(d, r) for d in dims), outer)
                _assert_steps_frozen(space, _step_stack(space, rng))
            mixed = pg.ProductSpaceSpec(
                (sp(2, r), sp(2, r), sp(1, 3.0), sp(2, 4.0), sp(2, 1.5), sp(1, r), sp(2, 2.0)),
                outer,
            )
            _assert_steps_frozen(mixed, _step_stack(mixed, rng))
    with np.errstate(all="ignore"):
        _assert_steps_frozen(sp(3, r), _nonfinite_stack(3, rng), nonfinite=True)
        _assert_steps_frozen(mixed, _nonfinite_stack(mixed.total_dim, rng), nonfinite=True)


@pytest.mark.parametrize("r, passes", [(3.0, 2), (4.0, 3)])
def test_measure_forms_each_block_norm_once(monkeypatch, r, passes):
    # a product's measure takes one norm pass per run of equal blocks and
    # one for the outer layer: at r = 3 the weights' block norms are the
    # r-norms; conjugating 4 twice gives 4.000000000000001, so at r = 4 the
    # run takes both and the outer norm takes its own pass.  The bits are
    # the frozen kernels' (test_fused_steps_equal_the_frozen_kernels)
    assert (spaces.conjugate_exponent(spaces.conjugate_exponent(r)) == r) == (r == 3.0)
    calls = []
    real = spaces._norm_from
    monkeypatch.setattr(spaces, "_norm_from", lambda *a: calls.append(a[1]) or real(*a))
    space = pg.ProductSpaceSpec((pg.SpaceSpec(2, r),) * 4, 1.5)
    measure, _ = spaces.ascent_steps(space, space)
    X = np.random.default_rng(89).standard_normal((3, 8, 5))
    norms, Z = measure(X)
    assert len(calls) == passes, calls
    assert _bits(norms) == _bits(frozen.norm_many(space, X))
    assert _bits(Z) == _bits(frozen.witness_many(space.dual, X))


def _assert_finite_slices_frozen(space, X):
    # the steps on a stack with non-finite entries, which takes the zero-safe
    # forms throughout, against the frozen calls on its slices of finite
    # entries; a slice holding an infinity or a NaN has no value to keep
    measure, lift = spaces.ascent_steps(space, space)
    for x in _layouts(X):
        finite = np.isfinite(x).all(axis=(-2, -1))
        norms, Z = measure(x)
        W, _ = lift(x)
        pairs = [
            (norms, frozen.norm_many(space, x)),
            (Z, frozen.witness_many(space.dual, x)),
            (W, frozen.witness_many(space, x)),
        ]
        for got, expect in pairs:
            assert _bits(got[finite]) == _bits(expect[finite])


@pytest.mark.parametrize("r", SWEEP_EXPONENTS)
def test_trivial_products_step_as_their_plain_spaces(r):
    # a product of one block runs its ascent steps as that block, and one of
    # k < 8 blocks of dimension 1 as l^outer(k) where neither the outer
    # exponent nor its conjugate is 1; each gives the frozen product
    # kernels' bits in C and Fortran order, with zero columns, ties and
    # 2^+-540 slices, and on the finite slices of a non-finite stack
    sp = pg.SpaceSpec
    rng = np.random.default_rng([97, SWEEP_EXPONENTS.index(r)])
    for outer in SWEEP_EXPONENTS:
        one_entry = 1.0 < outer and pg.conjugate_exponent(outer) > 1.0
        trivial = [pg.ProductSpaceSpec((sp(d, r),), outer) for d in (1, 2, 3, 9)]
        trivial += [pg.ProductSpaceSpec((sp(1, r),) * k, outer) for k in range(2, 8)]
        for space in trivial:
            k = len(space.components)
            assert space.plain == (
                space.components[0] if k == 1 else sp(k, outer) if one_entry else space
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _assert_steps_frozen(space, _step_stack(space, rng))
            with np.errstate(all="ignore"):
                _assert_finite_slices_frozen(space, _nonfinite_stack(space.total_dim, rng))


def test_eight_one_entry_blocks_keep_the_product_path(monkeypatch):
    # from 8 terms along an innermost axis numpy sums pairwise, so 8 blocks
    # of dimension 1 keep their run and outer layers: two passes per step
    space = pg.ProductSpaceSpec((pg.SpaceSpec(1, 3.0),) * 8, 1.5)
    pairs = pg.ProductSpaceSpec((pg.SpaceSpec(2, 3.0),) * 2, 1.5)
    assert space.plain is space and pairs.plain is pairs
    assert pg.ProductSpaceSpec((pg.SpaceSpec(1, 3.0),) * 7, 1.5).plain == pg.SpaceSpec(7, 1.5)
    calls = []
    layer = spaces._layer
    monkeypatch.setattr(spaces, "_layer", lambda U, *args: calls.append(U.shape) or layer(U, *args))
    measure, lift = spaces.ascent_steps(space, space)
    X = np.asfortranarray(np.random.default_rng(101).standard_normal((8, 5)))
    norms, Z = measure(X)
    W, _ = lift(X)
    assert calls == [(8, 1, 5), (8, 5)] * 2
    assert _bits(norms) == _bits(frozen.norm_many(space, X))
    assert _bits(Z) == _bits(frozen.witness_many(space.dual, X))
    assert _bits(W) == _bits(frozen.witness_many(space, X))


def _column_stack(cols):
    # the columns as one contiguous (N, d, 1) stack of one-column slices
    return np.stack([np.ascontiguousarray(c) for c in cols])[:, :, None]


def _sweep_columns(d, rng):
    # the 36 columns of a sweep stack, each a strided view: zero columns,
    # ties, and slices scaled by 2^-540 and 2^540
    X = _sweep_stack(d, rng)
    return [X[s, :, j] for s in range(3) for j in range(12)]


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


# products of one to eight blocks, with dims that cross numpy's 8-wide
# pairwise block
PRODUCT_DIMS = ([1], [17], [2, 1], [3, 3], [8, 9], [2, 9, 2], [1] * 8)


def _sweep_products(outer):
    # each dims once with one inner exponent (runs of equal blocks), once with
    # the exponents in turn
    sp = pg.SpaceSpec
    for i, dims in enumerate(PRODUCT_DIMS):
        same = SWEEP_EXPONENTS[i % len(SWEEP_EXPONENTS)]
        turns = [SWEEP_EXPONENTS[(i + b) % len(SWEEP_EXPONENTS)] for b in range(len(dims))]
        for rs in ([same] * len(dims), turns):
            yield pg.ProductSpaceSpec(tuple(sp(d, r) for d, r in zip(dims, rs)), outer)


def _product_columns(space, rng):
    # the sweep columns, and one whose first block is scaled by 2^540 and the
    # others by 2^-540
    cols = _sweep_columns(space.total_dim, rng)
    scale = np.full(space.total_dim, 2.0**-540)
    scale[: space.components[0].dim] = 2.0**540
    mixed = rng.standard_normal(space.total_dim) * scale
    return cols + [mixed]


@pytest.mark.parametrize("p", SWEEP_EXPONENTS)
def test_each_scalar_route_is_a_column_of_its_kernel(p):
    # every scalar norm and witness has the bits of its column in a stack of
    # one-column slices, and of the one-column call on its strided view
    rng = np.random.default_rng([67, SWEEP_EXPONENTS.index(p)])
    for d in range(1, 18):
        cols = _sweep_columns(d, rng)
        S = _column_stack(cols)
        space = pg.SpaceSpec(d, p)
        norms, witnesses = pnorm_many(S, p)[:, 0], holder_witness_many(S, p)[..., 0]
        assert _bits(space.norm_many(S)[:, 0]) == _bits(norms)
        assert _bits(space.witness_many(S)[..., 0]) == _bits(witnesses)
        for u, norm, w in zip(cols, norms, witnesses):
            v = space.vector(u)
            routes = (
                pnorm(u, p), pnorm_many(u[:, None], p)[0], space.norm(u), v.norm(), pg.p_norm(v)
            )
            assert all(_bits(got) == _bits(norm) for got in routes)
            assert _bits(pg.holder_witness(u, p)) == _bits(w)
            assert _bits(space.witness(u)) == _bits(w)
            assert _bits(holder_witness_many(u[:, None], p)[:, 0]) == _bits(w)
    # no entries: norm 0 and an empty witness, on both routes
    empty = np.empty((0, 1))
    assert pnorm([], p) == 0.0 == pnorm_many(empty, p)[0]
    assert pg.holder_witness([], p).shape == (0,) == holder_witness_many(empty, p)[:, 0].shape


@pytest.mark.parametrize("outer", SWEEP_EXPONENTS)
def test_each_product_scalar_route_is_a_column_of_its_kernel(outer):
    rng = np.random.default_rng([73, SWEEP_EXPONENTS.index(outer)])
    for space in _sweep_products(outer):
        cols = _product_columns(space, rng)
        S = _column_stack(cols)
        norms, witnesses = space.norm_many(S)[:, 0], space.witness_many(S)[..., 0]
        for u, norm, w in zip(cols, norms, witnesses):
            pv = space.vector(u)
            routes = (space.norm(u), pv.norm(), pg.mixed_norm(pv), space.norm_many(u[:, None])[0])
            assert all(_bits(got) == _bits(norm) for got in routes)
            assert _bits(space.witness(u)) == _bits(w)
        # a product has at least one entry, on both routes
        with pytest.raises(ValueError):
            space.norm([])
        with pytest.raises(ValueError):
            space.norm_many(np.empty((0, 1)))


# How far the scalar routes moved from their frozen copies, as a bound.
# With u = 2^-53 and gamma_n = n u / (1 - n u) (Higham, Accuracy and
# Stability of Numerical Algorithms, ch. 3), take each pow call, libm's or
# numpy's vectorized one, to be within 4 ulps, so within e = 8u relative.
#
# * Every route's p-norm of d entries has relative error at most
#   g(d) = (1 + u)^2 (1 + e)^2 (1 + gamma_d) - 1, about (d + 18) u:
#   - p = inf is a max, exact; p = 1 is a sum of d nonnegative terms in some
#     order, within gamma_(d-1);
#   - the unscaled p = 2 form sums d rounded squares in some order (or a BLAS
#     dot product, with or without fused multiply-adds), within gamma_d, and
#     its square root halves that and adds u;
#   - the scaled form m (sum t_i)^(1/p), t_i = pow(a_i / m, p), rounds each
#     quotient (u) and power (e), so each t_i lies within the factors
#     (1 -+ u)^p (1 -+ e) of its exact value; the sum adds gamma_(d-1), and
#     the terms lost to underflow at most d 2^-1074 against a sum of at
#     least 1 (the largest term is pow(1, p) = 1 exactly), which gamma_d
#     covers; the root takes the 1/p-th power of those factors, which for
#     p >= 1 are no wider than (1 -+ u)(1 -+ e)(1 -+ gamma_d), and adds e;
#     the product with m adds u.
# * Two values each within relative g of one exact value differ by at most
#   2g / (1 - g) of either: _agree(g).  For the norms that is about
#   2 (d + 18) u <= 40 d u.
# * A witness entry is w_i / n with w_i = sign(u_i) pow(|u_i| / top, q - 1):
#   w_i is within h = (1 + u)^(q-1) (1 + e) - 1 of its exact value (the
#   lower factor (1 - u)^(q-1) (1 - e) taken too), so the exact norm of the
#   computed w is within h of the exact n, the computed norm within
#   nu = (1 + g(d)) (1 + h) - 1 of it, and the quotient adds u.  That is
#   about (d + 2(q - 1) + 35) u per route; q - 1 is at most 4 here (p = 1.25).
# * A product's block norms are each within g(max d_i) of exact; the outer
#   norm is monotone and homogeneous, so it moves by at most that factor,
#   and its own rounding over k blocks adds g(k).
U = 2.0**-53
POW_ERR = 8.0 * U


def _gamma(n):
    return n * U / (1.0 - n * U)


def _norm_err(d):
    return (1.0 + U) ** 2 * (1.0 + POW_ERR) ** 2 * (1.0 + _gamma(d)) - 1.0


def _witness_err(d, p):
    a = pg.conjugate_exponent(p) - 1.0
    h = max((1.0 + U) ** a * (1.0 + POW_ERR) - 1.0, 1.0 - (1.0 - U) ** a * (1.0 - POW_ERR))
    nu = (1.0 + _norm_err(d)) * (1.0 + h) - 1.0
    return max((1.0 + h) * (1.0 + U) / (1.0 - nu) - 1.0, 1.0 - (1.0 - h) * (1.0 - U) / (1.0 + nu))


def _product_err(space):
    dmax, k = max(c.dim for c in space.components), len(space.components)
    return (1.0 + _norm_err(dmax)) * (1.0 + _norm_err(k)) - 1.0


def _agree(g):
    return 2.0 * g / (1.0 - g)


@pytest.mark.parametrize("p", SWEEP_EXPONENTS)
def test_frozen_scalar_routes_move_within_the_rounding_bound(p):
    rng = np.random.default_rng([79, SWEEP_EXPONENTS.index(p)])
    endpoint = p == 1.0 or math.isinf(p)
    for d in range(1, 18):
        assert _agree(_norm_err(d)) <= 40 * d * U
        for u in _sweep_columns(d, rng):
            old = frozen.pnorm(u, p)
            assert abs(pnorm(u, p) - old) <= _agree(_norm_err(d)) * old
            old_w, new_w = frozen.holder_witness(u, p), pg.holder_witness(u, p)
            if endpoint:  # an indicator or a sign vector, on either route
                assert _bits(new_w) == _bits(old_w)
            else:
                assert np.all(np.abs(new_w - old_w) <= _agree(_witness_err(d, p)) * np.abs(old_w))
    for space in _sweep_products(p):
        bound = _agree(_product_err(space))
        for u in _product_columns(space, rng):
            old = frozen.product_norm(space, u)
            pv = space.vector(u)
            for new in (space.norm(u), pv.norm(), pg.mixed_norm(pv)):
                assert abs(new - old) <= bound * old


def test_p1_witness_takes_the_first_of_tied_entries():
    ties = np.array([[[0.5], [-2.0], [2.0]], [[1.0], [1.0], [-1.0]]])
    assert np.array_equal(holder_witness_many(ties, 1.0), [[[0], [-1], [0]], [[1], [0], [0]]])
    assert np.array_equal(holder_witness_many(ties[1], 1.0), [[1], [0], [0]])


def test_product_layout_is_invisible():
    a = pg.ProductSpaceSpec((pg.SpaceSpec(2, 3), pg.SpaceSpec(3, 3), pg.SpaceSpec(2, 3)), 1.5)
    b = pg.ProductSpaceSpec([pg.SpaceSpec(2, 3.0), pg.SpaceSpec(3, 3.0), pg.SpaceSpec(2, 3.0)], 1.5)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == (
        "ProductSpaceSpec(components=(SpaceSpec(dim=2, exponent=3.0), "
        "SpaceSpec(dim=3, exponent=3.0), SpaceSpec(dim=2, exponent=3.0)), "
        "outer_exponent=1.5)"
    )
    assert [f.name for f in dataclasses.fields(a)] == ["components", "outer_exponent"]
    assert a.dual.dual == a and hash(a.dual.dual) == hash(a)
    assert a != pg.ProductSpaceSpec(a.components, 2.0)
    assert a.offsets == (0, 2, 5)
    a.norm_many(np.ones((7, 1)))  # computes and caches the layout of a alone
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


@pytest.mark.parametrize(
    "dims, runs", [([2] * 8, 1), ([2, 3, 2], 3), ([2, 2, 3, 3, 2], 3), ([5], 1)]
)
def test_one_kernel_call_per_run_of_equal_blocks(monkeypatch, dims, runs):
    space = pg.ProductSpaceSpec(tuple(pg.SpaceSpec(d, 3.0) for d in dims), 1.5)
    calls = []
    layer = spaces._layer
    monkeypatch.setattr(spaces, "_layer", lambda U, *args: calls.append(U.shape) or layer(U, *args))
    space.norm_many(np.ones((space.total_dim, 4)))
    assert len(calls) == runs + 1  # one per run, plus the outer norm
    calls.clear()
    space.witness_many(np.ones((space.total_dim, 4)))
    assert len(calls) == runs + 1  # one per run, plus the outer weights


def test_pnorm_many_needs_at_least_2d_input():
    # a single vector is a (d, 1) column; a 1-D array has no axis -2
    x = np.array([3.0, -4.0])
    for p in EXPONENTS:
        assert pnorm_many(x[:, None], p)[0] == pnorm(x, p)
        with pytest.raises(ValueError):
            pnorm_many(x, p)


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
    # l^inf blocks pair with l^1 blocks, whose sphere's extreme points e_j
    # carry the supremum; an even face grid has no 0 coordinate and misses them
    for outer_q in (1.5, 3.0, math.inf):
        g = pg.ProductVector((vec([2, 1], math.inf), vec([1, 3, -2], math.inf)), outer_q)
        assert pg.product_duality_gap(g, method="grid") / pg.mixed_norm(g) <= 1e-3


def test_product_grid_checks_the_outer_budget_before_any_block(monkeypatch):
    # 4 components: the outer orthant grid needs 4 * 120^3 samples, over the
    # budget, and no block sphere may be gridded before that is known
    grids, real = [], gridsearch.sphere_samples

    def recording(space, *args):
        grids.append(space)
        return real(space, *args)

    monkeypatch.setattr(gridsearch, "sphere_samples", recording)
    g = pg.ProductVector(tuple(vec([1.0, -2.0], 3.0) for _ in range(4)), 1.5)
    with pytest.raises(gridsearch.OracleBudgetError, match="sphere grid needs 6912000 samples"):
        pg.product_duality_gap(g, method="grid")
    assert grids == [pg.SpaceSpec(4, 3.0)]  # the outer sphere alone


@pytest.mark.parametrize("budget", [43200, 43199])
def test_product_grid_budget_boundary(budget):
    # three dim-3 blocks: the outer orthant grid and each block's need
    # 3 * 120^2 = 43200 samples, so a budget of exactly that runs and one
    # sample less raises before anything is gridded
    g = pg.ProductVector(tuple(vec([1.0, -2.0, 0.5], 3.0) for _ in range(3)), 1.5)
    cfg = pg.NumericsConfig(grid_budget=budget)
    if budget < 43200:
        with pytest.raises(gridsearch.OracleBudgetError, match="needs 43200 samples"):
            pg.product_duality_gap(g, cfg, method="grid")
    else:
        assert pg.product_duality_gap(g, cfg, method="grid") / pg.mixed_norm(g) <= 1e-3


def _full_grid_sup(space, u, axis_points=240):
    # the supremum of |<x, u>| over the whole face grid, both signs of every
    # free coordinate, as the oracle sampled it before it gridded one orthant
    samples, _ = gridsearch.sphere_samples(
        space, np.linspace(-1.0, 1.0, axis_points), 10**7
    )
    return float(np.abs(samples @ u).max())


def _transposed_view_samples(space, axis):
    # the sphere samples as the grid built them when it normed each face's
    # rows through their transposed (dim, N) view
    dim = space.total_dim
    grids = np.meshgrid(*([axis] * (dim - 1)), indexing="ij")
    face = np.stack([g.ravel() for g in grids], axis=1)
    blocks = []
    for k in range(dim):
        block = np.empty((face.shape[0], dim))
        block[:, k] = 1.0
        block[:, [j for j in range(dim) if j != k]] = face
        blocks.append(block)
    blocks.append(np.eye(dim))
    return np.vstack([y / space.norm_many(y.T)[:, None] for y in blocks])


@pytest.mark.parametrize("p", SWEEP_EXPONENTS)
def test_grid_face_norms_equal_the_transposed_view_norms(p):
    # numpy sums fewer than 8 terms in order in every layout, so the faces
    # normed as C-ordered columns keep the bits of the transposed view; from
    # dim 8 the grid keeps the view, whose columns it sums pairwise
    sp = pg.SpaceSpec
    for dim in range(2, 10):
        grids = [sp(dim, p), pg.ProductSpaceSpec((sp(1, p),) * dim, 1.5)]
        if dim > 2:
            grids.append(pg.ProductSpaceSpec((sp(2, 3.0), sp(dim - 2, p)), p))
        n = 3 if dim > 5 else 6  # axis points, so that 9 * n^8 rows stay few
        for axis in (np.linspace(-1.0, 1.0, n), gridsearch._orthant_axis(2 * n - 1)):
            for space in grids:
                samples, _ = gridsearch.sphere_samples(space, axis, 10**6)
                assert _bits(samples) == _bits(_transposed_view_samples(space, axis)), space


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_orthant_sup_pairing_matches_the_full_grid(dim):
    rng = np.random.default_rng(26 + dim)
    for p in SWEEP_EXPONENTS:
        space = pg.SpaceSpec(dim, p)
        for u in (rng.standard_normal(dim), -np.abs(rng.standard_normal(dim)), np.eye(dim)[-1]):
            full = _full_grid_sup(space, u)
            orthant = gridsearch.sup_pairing(space, u, 240, 10**7)
            assert abs(orthant - full) <= 1e-15 * full, (p, u)


@pytest.mark.parametrize("dims", [(1, 1), (2, 1), (3,), (2, 2, 2)])
def test_orthant_product_sup_pairing_matches_the_full_grid(dims):
    # the outer sphere too: the block suprema are nonnegative, so its orthant
    # holds the supremum of their weighted sum
    rng = np.random.default_rng(len(dims))
    for p in SWEEP_EXPONENTS:
        for outer in (1.0, 1.5, 3.0, INF):
            primal = pg.ProductSpaceSpec(tuple(pg.SpaceSpec(d, p) for d in dims), outer)
            u = rng.standard_normal(primal.total_dim)
            sups = np.array(
                [_full_grid_sup(c, b) for c, b in zip(primal.components, primal.split(u))]
            )
            full = _full_grid_sup(pg.SpaceSpec(len(dims), outer), sups)
            orthant = gridsearch.product_sup_pairing(primal, u, 240, 10**7)
            assert abs(orthant - full) <= 1e-15 * full, (p, outer)


@pytest.mark.parametrize("blocks", [1, 2, 3, 7, 48])
def test_stacked_duality_gaps_match_the_per_vector_gaps(blocks):
    # 20 random functionals and a zero one, on products with exponents 1 and
    # inf among the blocks; each stacked column against its ProductVector
    # alone and against the pairing by np.dot with the scalar mixed norm
    rng = np.random.default_rng(blocks)
    eps = np.finfo(float).eps
    for outer in EXPONENTS:
        comps = tuple(
            pg.SpaceSpec(int(d), float(r))
            for d, r in zip(rng.integers(1, 4, blocks), rng.choice(EXPONENTS, blocks))
        )
        space = pg.ProductSpaceSpec(comps, outer)
        G = rng.standard_normal((20, space.total_dim)).T
        G = np.concatenate([G, np.zeros((space.total_dim, 1))], axis=1)
        gaps, norms = space.duality_gaps(G)
        assert gaps[-1] == 0.0 and norms[-1] == 0.0
        for j in range(G.shape[1]):
            g = space.vector(G[:, j])
            target = pg.mixed_norm(g)
            sup = float(np.dot(space.dual.witness(G[:, j]), G[:, j]))
            slack = 8 * eps * target
            assert abs(norms[j] - target) <= slack
            assert abs(gaps[j] - pg.product_duality_gap(g)) <= slack
            assert abs(gaps[j] - abs(sup - target)) <= slack
            assert gaps[j] <= 1e-10 * max(target, 1e-30)


@pytest.mark.parametrize("d", [1, 7, 96])
def test_one_draw_of_twenty_columns_is_twenty_draws(d):
    # the duality suite's stacked draw: the same numbers as 20 draws of d,
    # and the grid's functional drawn after it is unchanged
    stacked, single = np.random.default_rng([1, 0xC5EC, 2]), np.random.default_rng([1, 0xC5EC, 2])
    G = stacked.standard_normal((20, d)).T
    cols = [single.standard_normal(d) for _ in range(20)]
    assert np.array_equal(G, np.stack(cols, axis=1))
    assert np.array_equal(stacked.standard_normal(d), single.standard_normal(d))


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
