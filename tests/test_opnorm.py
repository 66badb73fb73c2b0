import collections
import itertools
import math

import numpy as np
import pytest

import frozen_kernels as frozen
import pgframes as pg
import seed_1_workloads
from pgframes import checks, spaces
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


def test_exact_mode_must_be_auto_or_require():
    # a misspelt mode is an error, not a silent ascent
    A = np.random.default_rng(1).standard_normal((3, 3))
    dom, cod = pg.SpaceSpec(3, 1.5), pg.SpaceSpec(3, 3.0)
    for bad in ("required", "Require", "", None, True):
        with pytest.raises(ValueError, match="exact must be"):
            pg.matrix_opnorm(A, 1.5, 3.0, exact=bad)
        with pytest.raises(ValueError, match="exact must be"):
            pg.operator_norm_bounds(A, dom, cod, exact=bad)


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
    if case == "tall-lp":
        return rng.standard_normal((4, 3)), 1.5, 3.0
    A = rng.standard_normal((4, 4))
    if case == "singular-lp":
        A[1] = 0.0  # exactly singular: inv(A) would raise LinAlgError
    return A, 1.5, 3.0


@pytest.mark.parametrize(
    "case", ["tall-euclidean", "square-lp", "singular-lp", "wide-euclidean", "tall-lp"]
)
def test_min_ratio_estimate_by_shape(case):
    A, p, r = _min_ratio_case(case)
    dom, cod = pg.SpaceSpec(A.shape[1], p), pg.SpaceSpec(A.shape[0], r)
    val, w = pg.min_ratio_estimate(A, dom, cod)
    # the upper side of the one infimum route, in value and witness bytes
    observed = pg.opnorm.infimum_bounds(A, dom, cod, stream=1).upper
    assert (np.float64(val).tobytes(), w.tobytes()) == (
        np.float64(observed.value).tobytes(), observed.witness.tobytes()
    )
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
        # abs=0: approx's default absolute 1e-12 would dwarf a value near 1e-16
        assert ratio == pytest.approx(val, rel=1e-12, abs=0.0)
    elif case == "tall-lp":
        # the ratio at its own witness, at or above the proven left-inverse bound
        assert ratio == pytest.approx(val, rel=1e-12)
        assert val >= 1.0 / pg.upper_certificate_only(np.linalg.pinv(A), cod, dom).value
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


def _per_call_multistart_lower(A, dom, cod, cfg, stream):
    """The per-matrix ascent that the lockstep one replaces, kept as its reference.

    Returns the certificate and the number of iterations the matrix ran.
    """
    n = dom.total_dim
    starts = []
    try:
        _, _, vt = np.linalg.svd(A)
        starts.append(vt[0])
    except np.linalg.LinAlgError:
        pass
    starts.append(np.ones(n))
    for j in range(min(n, 8)):
        e = np.zeros(n)
        e[j] = 1.0
        starts.append(e)
    if cfg.restarts > 0:
        starts.append(np.random.default_rng([cfg.seed, 0x6F70, stream, 0])
                      .standard_normal((n, cfg.restarts)).T)
    X = np.column_stack([np.atleast_2d(s).T.reshape(n, -1) for s in starts])
    norms = dom.norm_many(X)
    keep = norms > 0.0
    X = X[:, keep] / norms[keep]
    cod_dual = cod.dual
    best_vals = cod.norm_many(A @ X)
    best_X = X.copy()
    prev = best_vals.copy()
    iterations = 0
    for _ in range(cfg.max_iterations):
        iterations += 1
        Z = cod_dual.witness_many(A @ X)
        U = A.T @ Z
        Xn = dom.witness_many(U)
        stalled = ~Xn.any(axis=0)
        if np.any(stalled):
            Xn[:, stalled] = X[:, stalled]
        X = Xn
        vals = cod.norm_many(A @ X)
        improved = vals > best_vals
        if np.any(improved):
            best_vals = np.where(improved, vals, best_vals)
            best_X[:, improved] = X[:, improved]
        if np.all(np.abs(vals - prev) <= 1e-12 * np.maximum(np.abs(vals), np.abs(prev))):
            break
        prev = vals
    j = int(np.argmax(best_vals))
    cert = pg.BoundCertificate(
        max(float(best_vals[j]), 0.0), "lower_estimate", "boyd-multistart", best_X[:, j]
    )
    return cert, iterations


def _assert_lockstep_is_per_call(As, dom, cod, cfg=None, stream=3):
    """Each lockstep certificate has the bits of the per-call one; returns the
    per-call iteration counts."""
    cfg = cfg or NumericsConfig()
    got = pg.opnorm.multistart_lower_many(As, dom, cod, cfg, stream)
    assert len(got) == len(As)
    iterations = []
    for A, cert in zip(As, got):
        ref, its = _per_call_multistart_lower(A, dom, cod, cfg, stream)
        assert (cert.value, cert.kind, cert.method) == (ref.value, ref.kind, ref.method)
        assert np.array_equal(cert.witness, ref.witness)
        iterations.append(its)
    one = pg.opnorm.multistart_lower_many(As[0][None], dom, cod, cfg, stream)[0]
    assert one.value == got[0].value and np.array_equal(one.witness, got[0].witness)
    return iterations


def _lockstep_spaces(p, r):
    sp = pg.SpaceSpec
    yield sp(3, p), sp(3, r)
    yield sp(4, p), sp(2, r)
    yield sp(10, p), sp(12, r)  # more than eight coordinate starts
    # product spaces on either side, as classify and perturbation_check use them
    yield sp(3, p), pg.ProductSpaceSpec((sp(2, r), sp(2, r), sp(1, p)), 1.5)
    yield pg.ProductSpaceSpec((sp(2, p), sp(3, r)), 3.0), sp(4, r)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, INF])
@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 3.0, INF])
def test_lockstep_ascent_equals_per_call_ascent(p, r):
    rng = np.random.default_rng([41, int(min(p, 9) * 2), int(min(r, 9) * 2)])
    for dom, cod in _lockstep_spaces(p, r):
        As = rng.standard_normal((6, cod.total_dim, dom.total_dim))
        As[1] *= 1e-3
        As[2, 0] = 0.0  # a zero row
        _assert_lockstep_is_per_call(As, dom, cod)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, INF])
@pytest.mark.parametrize("r", [1.0, 4.0 / 3.0, 2.0, 3.0, 4.0, INF])
def test_lockstep_ascent_equals_the_frozen_loop(p, r):
    # one norm-and-norming pass per iteration, carried into the next one,
    # gives the values and witnesses of the loop that formed A X twice
    rng = np.random.default_rng([67, int(min(p, 9) * 3), int(min(r, 9) * 3)])
    cfg = NumericsConfig()
    for dom, cod in _lockstep_spaces(p, r):
        As = rng.standard_normal((6, cod.total_dim, dom.total_dim))
        As[1] *= 1e-3
        As[2, 0] = 0.0  # a zero row
        for idx, X in pg.opnorm._start_bundles(As, dom, cfg, 3):
            got = pg.opnorm._ascend(As[idx], X, dom, cod, cfg)
            expect = frozen.ascend(As[idx], X, dom, cod, cfg.max_iterations)
            assert np.array_equal(got[0], expect[0]) and np.array_equal(got[1], expect[1])


def test_no_general_kernel_call_inside_the_ascent(monkeypatch):
    # every step of every ascent on the 20 seed-1 workload instances takes
    # the fused pass, zero columns of stalled starts included: a silent fall
    # back to the general kernels would undo its gain and move no value
    calls, inside, ascents = collections.Counter(), [False], []
    for name in ("pnorm_many", "holder_witness_many"):
        def kernel(*args, _real=getattr(spaces, name), _name=name, **kwargs):
            calls[_name, inside[0]] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(spaces, name, kernel)
    real = pg.opnorm._ascend

    def ascend(A, *args):
        ascents.append(len(A))
        inside[0] = True
        try:
            return real(A, *args)
        finally:
            inside[0] = False

    monkeypatch.setattr(pg.opnorm, "_ascend", ascend)
    for inst in seed_1_workloads.instances():
        assert checks.run_checks(inst).ok
    assert len(ascents) == 16 + 60
    assert [n for (_, during), n in calls.items() if during] == []
    assert calls["pnorm_many", False] > 0 and calls["holder_witness_many", False] > 0


def test_lockstep_slices_stop_at_their_own_iteration():
    rng = np.random.default_rng(43)
    dom, cod = pg.SpaceSpec(5, 1.5), pg.SpaceSpec(6, 3.0)
    As = rng.standard_normal((12, 6, 5))
    iterations = _assert_lockstep_is_per_call(As, dom, cod)
    assert len(set(iterations)) >= 3, iterations
    # a cap between the counts: some slices reach it, the others stop before
    cap = sorted(iterations)[len(iterations) // 2]
    capped = _assert_lockstep_is_per_call(As, dom, cod, NumericsConfig(max_iterations=cap))
    assert min(capped) < cap == max(capped)
    assert _assert_lockstep_is_per_call(As, dom, cod, NumericsConfig(max_iterations=0)) == [0] * 12


def test_lockstep_slice_with_huge_entries_beside_ordinary_ones():
    # a direct multistart_lower_many call takes unnormalized stacks too:
    # slices scaled by 2^490 and 2^-540 beside ordinary ones keep the bits
    # of their own calls
    rng = np.random.default_rng(47)
    for dom, cod in [(pg.SpaceSpec(3, 2.0), pg.SpaceSpec(3, 3.0)),
                     (pg.SpaceSpec(3, 1.5), pg.SpaceSpec(3, 2.0))]:
        As = rng.standard_normal((4, 3, 3))
        As[1] *= 2.0**490
        As[2] *= 2.0**-540
        with np.errstate(all="ignore"):
            _assert_lockstep_is_per_call(As, dom, cod)


def test_lockstep_start_bundles_survive_a_failed_svd(monkeypatch):
    # numpy raises for the whole stack when one slice's SVD fails; only that
    # slice may lose its singular-vector start
    real = np.linalg.svd
    poison = 7.0

    def svd(a, *args, **kwargs):
        if np.any(np.asarray(a)[..., 0, 0] == poison):
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    rng = np.random.default_rng(53)
    for dom, cod in [(pg.SpaceSpec(3, 1.5), pg.SpaceSpec(4, 3.0)),
                     (pg.SpaceSpec(3, 3.0), pg.ProductSpaceSpec((pg.SpaceSpec(2, 1.5),) * 2, 3.0))]:
        As = rng.standard_normal((5, cod.total_dim, dom.total_dim))
        As[1, 0, 0] = As[3, 0, 0] = poison
        _assert_lockstep_is_per_call(As, dom, cod)
        _assert_lockstep_is_per_call(As[1:2], dom, cod)


@pytest.mark.parametrize("kind", ["symbol", "theta", "lambda", "joint", None])
def test_lockstep_equals_per_call_on_continuity_gaps(kind):
    # the stack continuity_gaps sends: every step's normalized gap of a small
    # non-Euclidean pair, between the spaces the suite measures it in; None
    # stacks all four kinds, as one batch does
    from pgframes import perturbation

    inst = pg.gen(
        "riesz-pair", x2_dim=3, y_dims=[2, 1], frame_exponent=1.5, y_exponents=[3, 3],
        x1_exponent=1.5, x2_exponent=3, seed=11,
    )
    m, lam, theta = inst.symbol_obj(), inst.lam_sequence(), inst.theta_sequence()
    kinds = pg.CONTINUITY_KINDS if kind is None else (kind,)
    gaps = np.concatenate([
        perturbation._multiplier_gaps(m, lam, theta, *perturbation._schedule(k, m, lam, theta, 40))
        for k in kinds
    ])
    assert len(gaps) == 40 * len(kinds)
    As = gaps / np.abs(gaps).max(axis=(1, 2))[:, None, None]
    _assert_lockstep_is_per_call(As, theta.domain, lam.domain.dual, stream=0)


def _assert_same_pair(got, expect):
    # bit for bit, a NaN value (of a non-finite slice) included
    for g, e in zip(got, expect):
        assert np.float64(g.value).tobytes() == np.float64(e.value).tobytes()
        assert (g.kind, g.method) == (e.kind, e.method)
        assert (g.witness is None) == (e.witness is None)
        assert g.witness is None or g.witness.tobytes() == e.witness.tobytes()


def test_stacked_euclidean_svd_equals_the_frozen_call_per_slice(monkeypatch):
    # between Euclidean spaces a stack's upper certificates come from stacked
    # SVDs, and each slice keeps the bits of its own SVD call: square, tall
    # and wide slices, C- and column-major stacks, one call or chunks of one
    # and two slices; block certificates of a Euclidean product keep those of
    # upper_certificate_only on each block, in every layout; a slice whose
    # SVD fails raises as its call alone does
    rng = np.random.default_rng(97)
    cfg = NumericsConfig()
    default = pg.opnorm.SVD_CHUNK
    for m, n in [(2, 2), (3, 5), (6, 4), (2, 40), (17, 24)]:
        dom, cod = pg.SpaceSpec(n, 2.0), pg.SpaceSpec(m, 2.0)
        Bs = rng.standard_normal((5, m, n)) * 10.0 ** rng.integers(-30, 30, (5, 1, 1))
        Bs /= np.abs(Bs).max(axis=(1, 2), keepdims=True)
        for stack in (Bs, np.ascontiguousarray(Bs.transpose(0, 2, 1)).transpose(0, 2, 1)):
            want = frozen.euclidean_uppers(stack)
            for chunk in (default, 1, 2 * (m * m + n * n)):
                monkeypatch.setattr(pg.opnorm, "SVD_CHUNK", chunk)
                _assert_same_pair(pg.opnorm._upper_normalized(stack, dom, cod, cfg), want)
            for B, w in zip(stack, want):
                _assert_same_pair([pg.upper_certificate_only(B, dom, cod, cfg)], [w])
    monkeypatch.setattr(pg.opnorm, "SVD_CHUNK", default)
    dims = [2, 2, 2, 3, 3, 1, 2]
    prod = pg.ProductSpaceSpec(tuple(pg.SpaceSpec(d, 2.0) for d in dims), 2.0)
    offsets = np.cumsum([0] + dims)
    A = rng.standard_normal((sum(dims), 6))
    A[offsets[1] : offsets[2]] = 0.0
    A[offsets[3] : offsets[4]] *= 2.0**540
    for layout, M in _layouts(A).items():
        for args in ((M, pg.SpaceSpec(6, 2.0), prod), (M.T, prod, pg.SpaceSpec(6, 2.0))):
            rows = args[2] is prod
            blocks = [
                (M[o : o + d], args[1], c) if rows else (M.T[:, o : o + d], c, args[2])
                for o, d, c in zip(offsets, dims, prod.components)
            ]
            got = pg.opnorm.block_upper_certificates(*args, cfg)
            _assert_same_pair(got, [pg.upper_certificate_only(*b, cfg) for b in blocks])
            assert len(got) == len(dims), layout
    real = np.linalg.svd

    def svd(a, *args, **kwargs):
        # the poisoned slice's entry (0, 0) is its largest: 1.0 once divided
        if np.any(np.asarray(a)[..., 0, 0] == 1.0):
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    Bs = rng.uniform(-0.5, 0.5, (4, 3, 3))
    Bs[:, 0, 0] = 0.1
    Bs[2, 0, 0] = 7.0
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        pg.opnorm.operator_norm_bounds_many(Bs, pg.SpaceSpec(3, 2.0), pg.SpaceSpec(3, 2.0), cfg)


STREAMS = [21, 11, 11, 0, 21, 5]


def _mixed_stream_stack(rng, dom, cod):
    As = rng.standard_normal((len(STREAMS), cod.total_dim, dom.total_dim))
    As[1] *= 1e-3
    As[2, 0] = 0.0  # a zero row
    As[3] = 0.0     # a zero slice
    return As


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, INF])
@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 3.0, INF])
def test_mixed_stream_stack_equals_each_slices_own_stream(p, r):
    # one stream per slice: each slice's certificates have the bits of a
    # call on it alone with its own stream
    rng = np.random.default_rng([71, int(min(p, 9) * 2), int(min(r, 9) * 2)])
    cfg = NumericsConfig()
    for dom, cod in _lockstep_spaces(p, r):
        As = _mixed_stream_stack(rng, dom, cod)
        got = pg.opnorm.operator_norm_bounds_many(As, dom, cod, cfg, STREAMS)
        lowers = pg.opnorm.multistart_lower_many(As, dom, cod, cfg, STREAMS)
        for A, stream, pair, lower in zip(As, STREAMS, got, lowers):
            _assert_same_pair(pair, pg.operator_norm_bounds(A, dom, cod, cfg, stream=stream))
            alone = pg.opnorm.multistart_lower_many(A[None], dom, cod, cfg, stream)
            _assert_same_pair([lower], alone)


def test_mixed_stream_stack_where_the_kept_columns_differ_by_stream(monkeypatch):
    # stream 13's first normal column is zero and is dropped, so its slices
    # keep other columns than the rest; an SVD that fails drops the first
    # column of others.  Slices still share an ascent by the columns they
    # keep, whatever their stream, and each keeps its own bits
    real_rng, real_svd = pg.opnorm._rng, np.linalg.svd
    poison = 7.0

    class Holed:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, shape):
            x = self.rng.standard_normal(shape)
            x[:, 0] = 0.0
            return x

    def rng(cfg, stream, index):
        g = real_rng(cfg, stream, index)
        return Holed(g) if stream == 13 else g

    def svd(a, *args, **kwargs):
        if np.any(np.asarray(a)[..., 0, 0] == poison):
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(pg.opnorm, "_rng", rng)
    monkeypatch.setattr(np.linalg, "svd", svd)
    groups = []
    real_ascend = pg.opnorm._ascend
    monkeypatch.setattr(
        pg.opnorm, "_ascend", lambda A, X, *a: groups.append(X.shape) or real_ascend(A, X, *a)
    )
    cfg = NumericsConfig()
    streams = [13, 21, 13, 21, 11, 13]
    dom, cod = pg.SpaceSpec(4, 1.5), pg.SpaceSpec(5, 3.0)
    As = np.random.default_rng(73).standard_normal((len(streams), 5, 4))
    As[[2, 3], 0, 0] = poison
    lowers = pg.opnorm.multistart_lower_many(As, dom, cod, cfg, streams)
    # (top, stream 13), (top, others), (no top, 13), (no top, others)
    assert sorted(groups) == [(1, 4, 20), (1, 4, 21), (2, 4, 21), (2, 4, 22)], groups
    for A, stream, lower in zip(As, streams, lowers):
        alone = pg.opnorm.multistart_lower_many(A[None], dom, cod, cfg, stream)
        _assert_same_pair([lower], alone)


def test_a_stream_list_must_give_one_stream_per_slice():
    As = np.ones((3, 2, 2))
    with pytest.raises(ValueError):
        pg.opnorm.operator_norm_bounds_many(As, pg.SpaceSpec(2, 1.5), pg.SpaceSpec(2, 3.0),
                                            stream=[1, 2])


@pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 2.0, 3.0, 4.0, INF])
@pytest.mark.parametrize("r", [1.0, 1.25, 1.5, 2.0, 3.0, 4.0, INF])
def test_stacked_upper_side_equals_upper_certificate_only(p, r, monkeypatch):
    # the stacked candidates pass gives each slice the bits of its own
    # upper_certificate_only call: zero, non-finite and failing-SVD slices,
    # shapes whose column sums are long enough to be summed pairwise, and a
    # stack whose slices are column-major
    real = np.linalg.svd
    poison = 7.0

    def svd(a, *args, **kwargs):
        if np.any(np.asarray(a)[..., 0, 0] == poison):
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    rng = np.random.default_rng([79, int(min(p, 9) * 4), int(min(r, 9) * 4)])
    cfg = NumericsConfig()
    for m, n in [(3, 3), (2, 5), (12, 10), (17, 24), (1, 4), (4, 1)]:
        dom, cod = pg.SpaceSpec(n, p), pg.SpaceSpec(m, r)
        As = rng.standard_normal((6, m, n)) * 10.0 ** rng.integers(-30, 30, (6, 1, 1))
        As[1] = 0.0
        if not p == r == 2.0:  # where the SVD is the route, it raises alone too
            As[2, 0, 0] = poison
            As[3, -1, -1] = np.inf
        for stack in (As[[0, 2, 4, 5]], As, np.ascontiguousarray(As.transpose(0, 2, 1)).transpose(0, 2, 1)):
            with np.errstate(invalid="ignore", over="ignore"):
                got = pg.opnorm.operator_norm_bounds_many(stack, dom, cod, cfg)
                for A, pair in zip(stack, got):
                    _assert_same_pair([pair.upper], [pg.upper_certificate_only(A, dom, cod, cfg)])


def _layouts(A):
    # the same matrix in C order, in Fortran order, and as a strided view
    big = np.zeros((2 * A.shape[0], 3 * A.shape[1]))
    big[::2, ::3] = A
    return {"C": np.ascontiguousarray(A), "F": np.asfortranarray(A), "strided": big[::2, ::3]}


@pytest.mark.parametrize("inner", [1.0, 1.5, 2.0, 3.0, INF])
@pytest.mark.parametrize("outer", [1.5, 2.0, 3.0])
def test_block_runs_equal_the_frozen_call_per_block(inner, outer):
    # a run of equal blocks goes to one stacked pass as a view of the matrix;
    # each block keeps the bits of its own upper_certificate_only call, on
    # row and column blocks, in every layout, with zero and 2^+-540 blocks,
    # and with blocks long enough for pairwise column sums
    rng = np.random.default_rng([83, int(min(inner, 9) * 4), int(outer * 4)])
    cfg = NumericsConfig()
    block_dims = [[2] * k for k in range(1, 9)] + [[2, 3, 2], [9, 9, 1], [1, 1, 3]]
    for dims in block_dims:
        prod = pg.ProductSpaceSpec(tuple(pg.SpaceSpec(d, inner) for d in dims), outer)
        offsets = np.cumsum([0] + dims)
        for n, p in ((3, 1.25), (10, 3.0), (4, 1.0)):
            plain = pg.SpaceSpec(n, p)
            A = rng.standard_normal((sum(dims), n))
            for b, factor in zip(range(1, len(dims)), (0.0, 2.0**540, 2.0**-540)):
                A[offsets[b] : offsets[b + 1]] *= factor
            for layout, M in _layouts(A).items():
                case = (dims, n, p, layout)
                for args in ((M, plain, prod), (M.T, prod, plain)):
                    (got,) = pg.opnorm._upper_from_blocks(args[0][None], *args[1:], cfg)
                    _assert_same_value(got, frozen.upper_from_blocks(*args, cfg).value, case)
                    s = float(np.abs(M).max())
                    whole = frozen.upper_from_blocks(args[0] / s, *args[1:], cfg).scaled(s)
                    assert pg.upper_certificate_only(*args, cfg) == whole, case


def _assert_same_value(got, want, case):
    assert np.float64(got).tobytes() == np.float64(want).tobytes(), case


def _stack_layouts(As):
    # a stack with C-ordered slices, with column-major slices, and as a
    # strided view
    big = np.zeros((len(As), 2 * As.shape[1], 3 * As.shape[2]))
    big[:, ::2, ::3] = As
    return {
        "C": np.ascontiguousarray(As),
        "F": np.ascontiguousarray(As.transpose(0, 2, 1)).transpose(0, 2, 1),
        "strided": big[:, ::2, ::3],
    }


@pytest.mark.parametrize("inner", [1.0, 1.5, 2.0, 3.0, INF])
@pytest.mark.parametrize("outer", [1.5, 2.0, 3.0])
def test_block_runs_of_a_stack_equal_the_frozen_call_per_slice(inner, outer):
    # a product's upper side certifies each run of equal blocks of every
    # slice of a stack in one pass and aggregates per slice: on row and
    # column blocks, with runs [2, 1], [1, 1, 1] and [2, 2, 2], in every
    # layout, each slice keeps the bits of the frozen one-slice aggregate,
    # a zero slice and one with entries of 2^480 and more included
    rng = np.random.default_rng([89, int(min(inner, 9) * 4), int(outer * 4)])
    cfg = NumericsConfig()
    for dims in ([2, 2, 3], [2, 3, 2], [2, 2, 3, 3, 1, 1]):
        prod = pg.ProductSpaceSpec(tuple(pg.SpaceSpec(d, inner) for d in dims), outer)
        for k, (n, p) in itertools.product((2, 5), ((3, 1.25), (10, 3.0), (4, 1.0))):
            plain = pg.SpaceSpec(n, p)
            As = rng.standard_normal((k, sum(dims), n))
            As[0] = 0.0
            As[1] = 2.0**490 * (1.0 + np.abs(As[1]))
            for layout, Ms in _stack_layouts(As).items():
                case = (dims, k, n, p, layout)
                for args in ((Ms, plain, prod), (Ms.transpose(0, 2, 1), prod, plain)):
                    got = pg.opnorm._upper_from_blocks(*args, cfg)
                    assert got.shape == (k,), case
                    for i, M in enumerate(args[0]):
                        want = frozen.upper_from_blocks(M, *args[1:], cfg).value
                        _assert_same_value(got[i], want, (*case, i))
