import math
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pgframes as pg
from pgframes import multipliers


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


def test_assemble_examples():
    M = pg.assemble(pg.Symbol([1.0, 1.0]), SELECTORS, SELECTORS)
    np.testing.assert_array_equal(M.matrix, np.eye(2))

    M = pg.assemble(pg.Symbol([2.0, 3.0]), SELECTORS, SELECTORS)
    np.testing.assert_array_equal(M.matrix, np.diag([2.0, 3.0]))

    lam = rows([[1.0, 1.0]], [[1.0, -1.0]])
    theta = rows([[1.0, 0.0]], [[0.0, 1.0]])
    M = pg.assemble(pg.Symbol([1.0, 1.0]), lam, theta)
    np.testing.assert_array_equal(M.matrix, [[1.0, 1.0], [1.0, -1.0]])


def test_assemble_shape_mismatch():
    lam = rows([[1.0, 0.0]], [[0.0, 1.0]])
    theta = rows(np.eye(2))
    with pytest.raises(pg.DimensionMismatchError):
        pg.assemble(pg.Symbol([1.0, 1.0]), lam, theta)
    with pytest.raises(pg.DimensionMismatchError):
        pg.assemble(pg.Symbol([1.0]), lam, lam)


def test_assemble_bilinearity():
    rng = np.random.default_rng(0)
    lam = rows(rng.standard_normal((1, 2)), rng.standard_normal((1, 2)))
    theta = rows(rng.standard_normal((1, 2)), rng.standard_normal((1, 2)))
    m1 = pg.Symbol(rng.standard_normal(2))
    m2 = pg.Symbol(rng.standard_normal(2))
    left = pg.assemble(pg.Symbol(m1.entries + m2.entries), lam, theta).matrix
    right = pg.assemble(m1, lam, theta).matrix + pg.assemble(m2, lam, theta).matrix
    np.testing.assert_allclose(left, right, rtol=1e-14, atol=1e-14)
    # scaling by a power of two is bitwise exact
    doubled = pg.assemble(pg.Symbol(2.0 * m1.entries), lam, theta).matrix
    assert np.array_equal(doubled, 2.0 * pg.assemble(m1, lam, theta).matrix)


def test_assemble_permutation_invariance_bitwise():
    rng = np.random.default_rng(1)
    k, n = 6, 3
    lam_mats = [rng.standard_normal((1, n)) for _ in range(k)]
    theta_mats = [rng.standard_normal((1, n)) for _ in range(k)]
    m = rng.standard_normal(k)
    lam = rows(*lam_mats, domain_dim=n)
    theta = rows(*theta_mats, domain_dim=n)
    base = pg.assemble(pg.Symbol(m), lam, theta).matrix
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(k)
        lam_p = rows(*[lam_mats[i] for i in perm], domain_dim=n)
        theta_p = rows(*[theta_mats[i] for i in perm], domain_dim=n)
        shuffled = pg.assemble(pg.Symbol(m[perm]), lam_p, theta_p).matrix
        assert np.array_equal(base, shuffled)


def test_zero_symbol_annihilates():
    lam = rows([[1.0, 2.0]], [[3.0, -4.0]])
    M = pg.assemble(pg.Symbol([0.0, 0.0]), lam, lam)
    assert np.all(M.matrix == 0.0)
    nb = pg.norm_bounds(M)
    assert nb.estimate.value == 0.0
    assert nb.upper.value == 0.0


def test_norm_bounds_parseval_and_diagonal():
    M = pg.assemble(pg.Symbol([1.0, 1.0]), SELECTORS, SELECTORS)
    nb = pg.norm_bounds(M)
    assert nb.upper.value == pytest.approx(1.0, abs=1e-12)
    assert nb.lower.value == pytest.approx(1.0, abs=1e-12)
    assert nb.estimate.value == pytest.approx(1.0, abs=1e-12)

    M = pg.assemble(pg.Symbol([2.0, 3.0]), SELECTORS, SELECTORS)
    nb = pg.norm_bounds(M)
    # diag(2,3): spectral norm 3 (hand oracle); A = B = 1 so both bounds are 3
    assert nb.estimate.value == pytest.approx(3.0, abs=1e-12)
    assert nb.upper.value == pytest.approx(3.0, abs=1e-12)
    assert nb.lower.value == pytest.approx(3.0, abs=1e-12)


def test_norm_bounds_sandwich_random():
    rng = np.random.default_rng(2)
    for p in (1.5, 2.0, 3.0):
        for _ in range(6):
            lam = rows(*[rng.standard_normal((1, 2)) for _ in range(3)], p=p)
            theta = rows(
                *[rng.standard_normal((1, 2)) for _ in range(3)],
                p=pg.conjugate_exponent(p),
            )
            M = pg.assemble(pg.Symbol(rng.standard_normal(3)), lam, theta)
            nb = pg.norm_bounds(M)
            assert nb.estimate.value <= nb.upper.value + 1e-9
            assert nb.estimate.value <= nb.estimate_upper.value + 1e-12


def test_norm_bounds_reads_the_bessel_bounds_off_the_reports(monkeypatch):
    rng = np.random.default_rng(41)
    lam = rows(*[rng.standard_normal((1, 2)) for _ in range(3)], p=1.5)
    theta = rows(*[rng.standard_normal((1, 2)) for _ in range(3)], p=3.0)
    M = pg.assemble(pg.Symbol(rng.standard_normal(3)), lam, theta)
    left, right = pg.classify(lam), pg.classify(theta)
    calls = []
    real = pg.operators.analysis_upper

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if name.split(".")[0] == "pgframes" and getattr(mod, "analysis_upper", None) is real:
            monkeypatch.setattr(mod, "analysis_upper", counting)
    nb = pg.norm_bounds(M, None, left, right)
    assert calls == []
    sup = M.symbol.sup_norm
    assert nb.upper.value == left.bessel_bound.value * right.bessel_bound.value * sup


def test_norm_bounds_lower_requires_riesz():
    lam = rows([[1.0, 0.0]], [[0.0, 1.0]], [[1.0, 1.0]])  # frame, not Riesz
    M = pg.assemble(pg.Symbol([1.0, 1.0, 1.0]), lam, lam)
    nb = pg.norm_bounds(M)
    assert nb.lower is None
    assert "not-riesz" in nb.lower_reason


def test_invert_examples():
    inv, _, _ = pg.invert(pg.assemble(pg.Symbol([2.0, 2.0]), SELECTORS, SELECTORS))
    np.testing.assert_allclose(inv.matrix, 0.5 * np.eye(2), atol=1e-14)

    inv, _, _ = pg.invert(pg.assemble(pg.Symbol([2.0, 3.0]), SELECTORS, SELECTORS))
    np.testing.assert_allclose(inv.matrix, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)

    lam = rows([[1.0, 1.0]], [[0.0, 1.0]])
    fwd = pg.assemble(pg.Symbol([1.0, 2.0]), lam, SELECTORS)
    inv, _, _ = pg.invert(fwd)
    # hand oracle via the explicit 2x2 dual bases
    np.testing.assert_allclose(inv.matrix, [[1.0, 0.0], [-0.5, 0.5]], atol=1e-12)
    np.testing.assert_allclose(inv.matrix @ fwd.matrix, np.eye(2), atol=1e-10)


def test_invert_random_riesz_pairs():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        while True:
            lam_mats = [rng.standard_normal((1, n)) for _ in range(n)]
            theta_mats = [rng.standard_normal((1, n)) for _ in range(n)]
            if (
                np.linalg.cond(np.vstack(lam_mats)) < 50
                and np.linalg.cond(np.vstack(theta_mats)) < 50
            ):
                break
        lam = rows(*lam_mats, domain_dim=n)
        theta = rows(*theta_mats, domain_dim=n)
        m = pg.Symbol(rng.uniform(0.2, 2.0, n) * rng.choice([-1.0, 1.0], n))
        fwd = pg.assemble(m, lam, theta)
        inv, _, _ = pg.invert(fwd)
        assert np.abs(inv.matrix @ fwd.matrix - np.eye(n)).max() <= 1e-8
        assert np.abs(fwd.matrix @ inv.matrix - np.eye(n)).max() <= 1e-8


def test_invert_guards():
    with pytest.raises(pg.SymbolTooSmallError):
        pg.invert(pg.assemble(pg.Symbol([1.0, 0.0]), SELECTORS, SELECTORS))
    overcomplete = rows([[1.0, 0.0]], [[0.0, 1.0]], [[1.0, 1.0]])
    with pytest.raises(pg.NotRieszError):
        pg.invert(pg.assemble(pg.Symbol([1.0, 1.0, 1.0]), overcomplete, overcomplete))


def _riesz_pair_with_symbol(symbol):
    inst = pg.gen("riesz-pair", x2_dim=4, y_dims=[2, 2], seed=11)
    return pg.assemble(pg.Symbol(symbol), inst.lam_sequence(), inst.theta_sequence())


def test_invert_failed_verification_is_not_a_riesz_refusal():
    # the symbol clears MIN_SYMBOL, but 1/m = 1e10 amplifies rounding past
    # the residual tolerance: a failure of the inverse, not a precondition
    M = _riesz_pair_with_symbol([1e-10, 1.0])
    with pytest.raises(pg.InverseVerificationError, match="residuals") as info:
        pg.invert(M)
    assert not isinstance(info.value, pg.NotRieszError)


def test_injectivity_witness_examples():
    M = pg.assemble(pg.Symbol([1.0, 0.0]), SELECTORS, SELECTORS)
    g = pg.injectivity_witness(M)
    np.testing.assert_array_equal(g.entries, [1.0, 0.0])
    np.testing.assert_array_equal(M.apply(g).entries, [1.0, 0.0])

    M = pg.assemble(pg.Symbol([0.0, 5.0]), SELECTORS, SELECTORS)
    g = pg.injectivity_witness(M)
    np.testing.assert_array_equal(g.entries, [0.0, 1.0])
    np.testing.assert_array_equal(M.apply(g).entries, [0.0, 5.0])


def test_injectivity_witness_random_spikes():
    rng = np.random.default_rng(4)
    for _ in range(15):
        n = int(rng.integers(2, 5))
        while True:
            lam_mats = [rng.standard_normal((1, n)) for _ in range(n)]
            if np.linalg.cond(np.vstack(lam_mats)) < 50:
                break
        lam = rows(*lam_mats, domain_dim=n)
        theta_mats = [rng.standard_normal((1, n)) for _ in range(n)]
        theta = rows(*theta_mats, domain_dim=n)
        m = np.zeros(n)
        k = int(rng.integers(0, n))
        m[k] = rng.uniform(0.5, 2.0) * (1 if rng.random() < 0.5 else -1)
        M = pg.assemble(pg.Symbol(m), lam, theta)
        g = pg.injectivity_witness(M)
        assert np.linalg.norm(M.apply(g).entries) >= 1e-12
        # brute-force coordinate oracle agrees that the multiplier is nonzero
        best = max(
            np.linalg.norm(M.matrix @ np.eye(n)[:, j]) for j in range(n)
        )
        assert best > 0.0


def test_injectivity_witness_coordinate_fallback_under_underflow():
    right = rows([[1e-170, 2e-170]], [[3e-170, -1e-170]])
    M = pg.assemble(pg.Symbol([1.0, 0.5]), SELECTORS, right)
    # the targeted row g of right_0 gives M g = 0 by underflow
    g = right.mats[0][0]
    assert np.all(M.matrix @ g == 0.0)
    w = pg.injectivity_witness(M)
    np.testing.assert_array_equal(w.entries, [1.0, 0.0])
    np.testing.assert_array_equal(M.apply(w).entries, [1e-170, 1.5e-170])


def test_injectivity_witness_guards():
    with pytest.raises(ValueError):
        pg.injectivity_witness(pg.assemble(pg.Symbol([0.0, 0.0]), SELECTORS, SELECTORS))
    zero_member = rows([[1.0, 0.0]], [[0.0, 0.0]])
    with pytest.raises(ValueError):
        pg.injectivity_witness(pg.assemble(pg.Symbol([1.0, 1.0]), SELECTORS, zero_member))
    overcomplete = rows([[1.0, 0.0]], [[0.0, 1.0]], [[1.0, 1.0]])
    with pytest.raises(pg.NotRieszError):
        pg.injectivity_witness(
            pg.assemble(pg.Symbol([1.0, 1.0, 1.0]), overcomplete, overcomplete)
        )


def test_multiplier_apply_and_advisories():
    lam = rows([[1.0, 0.0]], [[0.0, 0.0]])
    M = pg.assemble(pg.Symbol([1.0, 1.0]), lam, lam)
    assert any("zero members" in a for a in M.advisories)
    out = M.apply([2.0, 5.0])
    np.testing.assert_array_equal(out.entries, [2.0, 0.0])


def _fsum_reference(stack):
    flat = stack.reshape(len(stack), -1)
    out = np.array([math.fsum(flat[:, j]) for j in range(flat.shape[1])])
    return out.reshape(stack.shape[1:])


def _family(name, rng, k, n):
    if name == "gaussian":
        return rng.standard_normal((k, n))
    if name == "wide-magnitudes":
        return rng.standard_normal((k, n)) * 10.0 ** rng.integers(-300, 301, (k, n))
    if name == "subnormals":
        return rng.standard_normal((k, n)) * 2.0 ** rng.integers(-1080, -1015, (k, n))
    if name == "integers-times-powers-of-two":
        return rng.integers(-8, 9, (k, n)) * 2.0 ** rng.integers(-60, 61, (k, n))
    if name == "cancellation":
        x = rng.standard_normal((k, n)) * 10.0 ** rng.integers(-20, 21, (k, n))
        x[-1] = -x[:-1].sum(axis=0) + rng.standard_normal(n) * 1e-30
        return x[rng.permutation(k)]
    if name == "ties":
        x = np.zeros((k, n))
        x[0] = 2.0 ** rng.integers(-4, 5, n)
        x[1 % k] += 2.0 ** -53 * rng.integers(-3, 4, n)
        x[2 % k] += 2.0 ** -106 * rng.integers(-2, 3, n)
        return x
    if name == "signed-zeros":
        return rng.choice([0.0, -0.0], (k, n))
    raise KeyError(name)


@pytest.mark.parametrize(
    "family",
    [
        "gaussian",
        "wide-magnitudes",
        "subnormals",
        "integers-times-powers-of-two",
        "cancellation",
        "ties",
        "signed-zeros",
    ],
)
def test_fsum_stack_is_fsum_bitwise(family):
    rng = np.random.default_rng(list(family.encode()))
    for k in (1, 2, 3, 7, 30, 59):
        for _ in range(4):
            stack = _family(family, rng, k, 64).reshape(k, 8, 8)
            want = _fsum_reference(stack)
            got = multipliers._fsum_stack(stack)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (family, k)


@pytest.mark.parametrize(
    "column, error",
    [
        ([1e308, 1e308, -1e308], OverflowError),
        # fsum's partials overflow where a plain cascade stays finite
        ([np.finfo(float).max, 2.0**969, 2.0**969 + 2.0**918, -(2.0**1023)], OverflowError),
        ([math.inf, -math.inf], ValueError),
    ],
)
def test_fsum_stack_raises_as_fsum_does(column, error):
    with pytest.raises(error):
        math.fsum(column)
    with pytest.raises(error):
        multipliers._fsum_stack(np.array([[1.0, x] for x in column]))


def test_fsum_stack_propagates_nan():
    got = multipliers._fsum_stack(np.array([[1.0, 1.0], [math.nan, 2.0]]))
    assert math.isnan(got[0]) and got[1] == 3.0


@pytest.mark.parametrize("k", [7, 20, 59])
def test_fsum_stack_bounds_what_the_error_sum_drops(k):
    # every low term is below half an ulp of the running error sum, so
    # fl(sum e_i) drops them all, yet together they carry the exact sum past
    # the midpoint above 1.5
    column = [1.5, 2.0**-53 - 2.0**-105] + [1.75 * 2.0**-108] * (k - 2)
    stack = np.array(column)[:, None]
    assert multipliers._fsum_stack(stack)[0] == math.fsum(column) == 1.5 + 2.0**-52


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=60))
def test_fsum_stack_matches_fsum_on_any_column(column):
    stack = np.array(column)[:, None]
    try:
        want = math.fsum(column)
    except (OverflowError, ValueError) as exc:
        with pytest.raises(type(exc)):
            multipliers._fsum_stack(stack)
        return
    got = multipliers._fsum_stack(stack)[0]
    assert np.array_equal(np.float64(got).view(np.int64), np.float64(want).view(np.int64))


def test_assemble_certifies_almost_every_entry(monkeypatch):
    calls = []

    def fsum(xs):
        calls.append(1)
        return math.fsum(xs)

    monkeypatch.setattr(
        multipliers, "math", types.SimpleNamespace(fsum=fsum, isclose=math.isclose)
    )
    inst = pg.gen(
        kind="riesz-pair",
        x2_dim=96,
        y_dims=[2] * 48,
        frame_exponent=2.0,
        y_exponents=[2.0] * 48,
        seed=1003,
    )
    lam, theta = inst.lam_sequence(), inst.theta_sequence()
    M = pg.assemble(inst.symbol_obj(), lam, theta)
    assert M.matrix.size == 9216
    assert len(calls) <= 0.02 * M.matrix.size
    calls.clear()
    zero = pg.assemble(pg.Symbol(np.zeros(48)), lam, theta)
    assert np.all(zero.matrix == 0.0)
    assert len(calls) == 0


def _terms(m, lam, theta):
    # every term m_i L_i^T T_i of the defining sum, zero weights included
    return np.stack([mi * (ml.T @ mt) for mi, ml, mt in zip(m.entries, lam.mats, theta.mats)])


@pytest.mark.parametrize("family", ["gaussian", "integers-times-powers-of-two", "cancellation"])
def test_zero_weight_terms_leave_the_exact_sum(monkeypatch, family):
    # a zero weight's term is left out, and every entry is still the
    # correctly rounded sum of all the terms, bit for bit; a symbol of zeros
    # (signed zeros too) sums nothing and gives +0.0 everywhere
    sums = []
    real = multipliers._fsum_stack
    monkeypatch.setattr(multipliers, "_fsum_stack", lambda s: sums.append(len(s)) or real(s))
    rng = np.random.default_rng(list(family.encode()))
    k, n = 7, 5
    lam = rows(*_family(family, rng, k, 2 * n).reshape(k, 2, n), domain_dim=n)
    theta = rows(*_family(family, rng, k, 2 * n).reshape(k, 2, n), domain_dim=n)
    for zeros in ([0], [1, 4], [0, 2, 3, 5, 6], list(range(k))):
        entries = rng.standard_normal(k)
        entries[zeros] = rng.choice([0.0, -0.0], len(zeros))
        m = pg.Symbol(entries)
        sums.clear()
        got = pg.assemble(m, lam, theta).matrix
        want = _fsum_reference(_terms(m, lam, theta))
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (family, zeros)
        assert sums == ([k - len(zeros)] if len(zeros) < k else []), zeros
    assert not np.signbit(got).any() and not got.any()


def test_a_zero_weight_on_an_overflowing_pair_gives_zero(monkeypatch):
    # member 0's product overflows to inf; its weight is 0, so its term is
    # 0, and the multiplier is member 1's term alone.  The term 0 * inf would
    # be NaN, as it is where fsum keeps a negative zero and every term is summed
    lam = rows([[1e200]], [[1.0]], domain_dim=1)
    theta = rows([[1e200]], [[3.0]], domain_dim=1)
    m = pg.Symbol([0.0, 2.0])
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isinf(lam.mats[0].T @ theta.mats[0]).all()
        assert pg.assemble(m, lam, theta).matrix.tolist() == [[6.0]]
        monkeypatch.setattr(multipliers, "_FSUM_UNSIGNED_ZERO", False)
        assert np.isnan(pg.assemble(m, lam, theta).matrix).all()
