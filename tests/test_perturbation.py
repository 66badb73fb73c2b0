import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

import frozen_kernels as frozen
import pgframes as pg
from pgframes import perturbation


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


def test_identical_sequences_give_zero():
    rep = pg.perturbation_check(SELECTORS, SELECTORS)
    assert rep.K.value == 0.0 and rep.K.kind == "exact"
    assert rep.analysis_gap.value == 0.0
    assert rep.slack == 0.0  # exact bounds on a Parseval family


def test_scaled_member_example():
    theta = rows([[1.1, 0.0]], [[0.0, 1.0]])
    rep = pg.perturbation_check(SELECTORS, theta)
    assert rep.K.value == pytest.approx(0.1, rel=1e-12)
    assert rep.B_perturbed.value <= 1.1 + 1e-12
    assert rep.slack >= -1e-12


def test_rank_one_shift_example():
    theta = rows([[1.0, 0.01]], [[0.0, 1.0]])
    rep = pg.perturbation_check(SELECTORS, theta)
    assert rep.K.value == pytest.approx(0.01, rel=1e-12)
    assert rep.B_perturbed.value <= 1.01 + 1e-12


def test_shape_mismatch_rejected():
    with pytest.raises(pg.DimensionMismatchError):
        pg.perturbation_check(SELECTORS, rows(np.eye(2)))


def _ladder_lp(n, seed):
    return pg.gen("riesz-pair", x2_dim=n, y_dims=[2] * (n // 2), frame_exponent=1.5,
                  y_exponents=[3.0] * (n // 2), seed=seed)


def _small_grid(i, fe, ye, y_dims):
    return pg.gen("riesz-pair", x2_dim=sum(y_dims), y_dims=list(y_dims), frame_exponent=fe,
                  y_exponents=[ye] * len(y_dims), x2_exponent=ye, x1_exponent=fe, seed=1000 + i)


# the seed-1 instances of the ladder-lp and small-grid benchmark workloads
PERTURB_PAIR_INSTANCES = [_ladder_lp(n, 1000 + i) for i, n in enumerate((4, 8, 12, 16))] + [
    _small_grid(4 * j + k, fe, ye, y_dims)
    for j, (fe, ye) in enumerate(((1.5, 3.0), (3.0, 1.5), (1.25, 4.0)))
    for k, y_dims in enumerate(((2,), (1, 1), (3,), (2, 1)))
]


def _per_call_bessel_lower(seq):
    # one analysis_opnorm lower side on its own, by the route it took before
    # the pair shared an ascent: upper first, then the ascent on U / max|U|
    U, dom, cod = seq.stacked(), seq.domain, seq.analysis_space()
    upper = pg.upper_certificate_only(U, dom, cod)
    if upper.kind == "exact":
        return upper
    s = float(np.abs(U).max())
    lower = pg.opnorm.multistart_lower_many((U / s)[None], dom, cod, pg.NumericsConfig(), 11)
    return lower[0].scaled(s)


def _assert_same_certificate(got, expect):
    assert (got.value, got.kind, got.method) == (expect.value, expect.kind, expect.method)
    assert np.array_equal(got.witness, expect.witness)


def _assert_perturb_pair_is_two_calls(lam, theta):
    rep = pg.perturbation_check(lam, theta)
    diff = _with_mats(lam, [a - b for a, b in zip(lam.mats, theta.mats)])
    for got, seq in ((rep.B_perturbed, theta), (rep.analysis_gap, diff)):
        _assert_same_certificate(got, pg.analysis_opnorm(seq).lower)
        _assert_same_certificate(got, _per_call_bessel_lower(seq))
    return rep


@pytest.mark.parametrize("inst", PERTURB_PAIR_INSTANCES, ids=lambda inst: str(inst.seed))
def test_perturb_pair_equals_two_calls(inst):
    # lam and a perturbation of it by 0.01 in Frobenius norm per member, as
    # the perturb suite makes
    lam = inst.lam_sequence()
    rng = np.random.default_rng(inst.seed)
    noise = [rng.standard_normal(m.shape) for m in lam.mats]
    theta = _with_mats(lam, [m + 0.01 * e / np.linalg.norm(e) for m, e in zip(lam.mats, noise)])
    rep = _assert_perturb_pair_is_two_calls(lam, theta)
    assert rep.B_perturbed.kind == rep.analysis_gap.kind == "lower_estimate"


def test_perturb_pair_with_an_exact_zero_gap():
    # the gap of a sequence to itself is the zero matrix, exact without an
    # ascent, beside a B_perturbed that does ascend
    lam = PERTURB_PAIR_INSTANCES[1].lam_sequence()
    rep = _assert_perturb_pair_is_two_calls(lam, lam)
    assert (rep.analysis_gap.value, rep.analysis_gap.kind) == (0.0, "exact")
    assert rep.B_perturbed.kind == "lower_estimate"


def _cert_bits(c):
    return (
        np.float64(c.value).tobytes(), c.kind, c.method,
        None if c.witness is None else c.witness.tobytes(),
    )


@pytest.mark.parametrize(
    "dims, r, dom_exp",
    [([2] * 4, 2.0, 2.0), ([2, 3, 2], 3.0, 1.5), ([1, 1, 2, 2], 1.5, 3.0), ([2] * 3, 2.0, 1.5)],
)
def test_k_stack_gives_each_member_its_own_certificate(monkeypatch, dims, r, dom_exp):
    # perturbation_check takes K's per-member certificates from one stacked
    # upper-certificate call per run of equal codomains; each has the bits of
    # upper_certificate_only on its member, and so K keeps its bits
    rng = np.random.default_rng([101, len(dims), int(r * 4)])
    cfg = pg.NumericsConfig()
    n = sum(dims)
    lam = pg.OperatorSequence(
        pg.SpaceSpec(n, dom_exp), tuple(pg.SpaceSpec(d, r) for d in dims),
        tuple(rng.standard_normal((d, n)) for d in dims), 1.5,
    )
    theta = pg.OperatorSequence(
        lam.domain, lam.codomains,
        tuple(m + 1e-3 * rng.standard_normal(m.shape) for m in lam.mats), 1.5,
    )
    stacks, recorded = [], []
    real_many, real_blocks = pg.opnorm._certify, perturbation.block_upper_certificates
    monkeypatch.setattr(
        pg.opnorm, "_certify", lambda As, *a: stacks.append(len(As)) or real_many(As, *a)
    )
    monkeypatch.setattr(
        perturbation, "block_upper_certificates",
        lambda *a: recorded.append(real_blocks(*a)) or recorded[-1],
    )
    rep = pg.perturbation_check(lam, theta, cfg)
    runs = lam.analysis_space().runs
    assert stacks[: len(runs)] == [run.blocks.stop - run.blocks.start for run in runs]
    (per_term,) = recorded
    alone = [
        pg.upper_certificate_only(ml - mt, lam.domain, y, cfg)
        for ml, mt, y in zip(lam.mats, theta.mats, lam.codomains)
    ]
    assert [_cert_bits(c) for c in per_term] == [_cert_bits(c) for c in alone]
    K = pg.spaces.pnorm(np.array([c.value for c in alone]), lam.frame_exponent)
    assert np.float64(rep.K.value).tobytes() == np.float64(K).tobytes()


def test_perturbation_properties_random():
    rng = np.random.default_rng(0)
    for p in (1.5, 2.0, 3.0):
        for _ in range(6):
            n = 3
            dims = [2, 1]
            lam = pg.OperatorSequence(
                pg.SpaceSpec(n, 2.0),
                tuple(pg.SpaceSpec(d, 2.0) for d in dims),
                tuple(rng.standard_normal((d, n)) for d in dims),
                p,
            )
            mats = [
                m + 0.05 * rng.standard_normal(m.shape) for m in lam.mats
            ]
            theta = pg.OperatorSequence(lam.domain, lam.codomains, tuple(mats), p)
            rep = pg.perturbation_check(lam, theta)
            assert rep.slack >= -1e-9
            assert rep.analysis_gap.value <= rep.K.value + 1e-9


def test_synthesis_gap_reference_below_K():
    # the synthesis gap is reported as the analysis gap (adjoint operators);
    # the ascent on the synthesis matrix of the difference stays below K too
    rng = np.random.default_rng(5)
    for p, inner in ((1.5, [3.0, 1.5]), (2.0, [2.0, 2.0]), (3.0, [4.0, 2.0])):
        lam = rows(rng.standard_normal((2, 2)), rng.standard_normal((1, 2)), p=p, inner=inner)
        mats = [m + 0.1 * rng.standard_normal(m.shape) for m in lam.mats]
        theta = pg.OperatorSequence(lam.domain, lam.codomains, tuple(mats), p)
        rep = pg.perturbation_check(lam, theta)
        diff = pg.OperatorSequence(
            lam.domain, lam.codomains, tuple(a - b for a, b in zip(lam.mats, mats)), p
        )
        reference = pg.operator_norm_bounds(
            pg.synthesis_matrix(diff), diff.coefficient_space(), diff.domain.dual
        )
        assert reference.lower.value <= rep.K.value + 1e-9


def test_epsilon_family_gap_bound():
    # families with certified aggregate gap below eps keep both operator gaps there
    rng = np.random.default_rng(1)
    lam = rows(rng.standard_normal((1, 2)), rng.standard_normal((1, 2)), p=1.5)
    eps = 1e-3
    for n in range(1, 6):
        mats = [m + (eps * 2.0 ** (-n)) * np.eye(1, 2) for m in lam.mats]
        theta = pg.OperatorSequence(lam.domain, lam.codomains, tuple(mats), 1.5)
        rep = pg.perturbation_check(lam, theta)
        assert rep.K.value < eps
        assert rep.analysis_gap.value <= eps + 1e-9


def test_continuity_symbol_exact_parseval():
    m = pg.Symbol([1.0, 1.0])
    cfg = pg.NumericsConfig(n_max=40)
    traces = pg.continuity_suite("symbol", m, SELECTORS, SELECTORS, p1=2.0, cfg=cfg)
    for t in traces:
        # rank-one symbol bump on a Parseval pair: gap is exactly 2^-n
        assert t.measured == pytest.approx(2.0 ** (-t.n), rel=1e-12)
        assert t.bound == pytest.approx(2.0 ** (-t.n), rel=1e-12)
        assert t.measured <= t.bound + 1e-9
    assert traces[33].measured < 1e-10  # 2^-34
    assert traces[39].bound < 1e-10


def test_continuity_theta_bound():
    m = pg.Symbol([1.0, 1.0])
    cfg = pg.NumericsConfig(n_max=20)
    traces = pg.continuity_suite("theta", m, SELECTORS, SELECTORS, p1=2.0, cfg=cfg)
    for t in traces:
        assert t.measured <= t.bound + 1e-9
        # single-member unit-norm bump: the l^q1 gap is the schedule itself
        assert t.deviation == pytest.approx(2.0 ** (-t.n), rel=1e-12)
    # bound halves along the schedule
    for a, b in zip(traces, traces[1:]):
        assert b.bound == pytest.approx(0.5 * a.bound, rel=1e-12)


def test_continuity_lambda_and_joint():
    m = pg.Symbol([1.0, -0.5])
    cfg = pg.NumericsConfig(n_max=15)
    for kind in ("lambda", "joint"):
        traces = pg.continuity_suite(kind, m, SELECTORS, SELECTORS, p1=1.5, cfg=cfg)
        assert all(t.measured <= t.bound + 1e-9 for t in traces)
        assert traces[-1].bound < traces[0].bound
        if kind == "joint":
            for t in traces:
                assert t.components is not None
                assert t.bound == pytest.approx(sum(t.components), rel=1e-12)


def test_continuity_mixed_exponents():
    rng = np.random.default_rng(2)
    lam = rows(rng.standard_normal((1, 2)), rng.standard_normal((1, 2)), p=1.5)
    theta = rows(rng.standard_normal((1, 2)), rng.standard_normal((1, 2)), p=3.0)
    m = pg.Symbol(rng.standard_normal(2))
    for kind in ("symbol", "theta", "lambda", "joint"):
        traces = pg.continuity_suite(kind, m, lam, theta, p1=3.0, cfg=pg.NumericsConfig(n_max=12))
        assert all(t.measured <= t.bound + 1e-9 for t in traces)


def test_continuity_rejects_unknown_kind():
    m = pg.Symbol([1.0, 1.0])
    with pytest.raises(ValueError):
        pg.continuity_suite(
            "unknown", m, SELECTORS, SELECTORS, p1=2.0, cfg=pg.NumericsConfig(n_max=3)
        )


@pytest.mark.parametrize("p1", [1.0, 0.0, float("nan")])
def test_continuity_rejects_p1_not_above_one(p1):
    # a NaN p1 fails every comparison, so it needs the named rejection too
    m = pg.Symbol([1.0, 1.0])
    with pytest.raises(ValueError, match="p1 must exceed 1"):
        pg.continuity_suite("joint", m, SELECTORS, SELECTORS, p1=p1, cfg=pg.NumericsConfig(n_max=3))


BUMP_EXPONENTS = (1.0, 1.25, 1.5, 2.0, 3.0, 4.0, math.inf)


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (2, 96), (96, 2), (5, 7)])
def test_one_entry_bump_norm_is_its_size(shape):
    # the suite reads each parameter distance off the bumped entry: ||s E|| and
    # the norm of s e_1 are exactly |s| for every exponent pair and scale
    cfg = pg.NumericsConfig()
    for p, q in itertools.product(BUMP_EXPONENTS, BUMP_EXPONENTS):
        for s in (1.0, -(2.0 ** -40), 0.3, -1.7, 3e200, -5e-300, 2.0 ** -1074):
            E = np.zeros(shape)
            E[0, 0] = s
            dom, cod = pg.SpaceSpec(shape[1], p), pg.SpaceSpec(shape[0], q)
            assert pg.upper_certificate_only(E, dom, cod, cfg).value == abs(s), (p, q, s)
            v = np.zeros(shape[0])
            v[0] = s
            assert pg.pnorm(v, q) == abs(s), (q, s)


def test_continuity_needs_a_step():
    m = pg.Symbol([1.0, 1.0])
    for n_max in (0, -1):
        cfg = pg.NumericsConfig(n_max=n_max)
        with pytest.raises(ValueError, match="n_max must be at least 1"):
            pg.continuity_suite("joint", m, SELECTORS, SELECTORS, p1=2.0, cfg=cfg)


def _exact_multiplier(m, lam, theta):
    # sum_i m_i L_i^T T_i in exact rational arithmetic
    rows_, cols = lam.domain.dim, theta.domain.dim
    M = [[Fraction(0)] * cols for _ in range(rows_)]
    for mi, L, T in zip(m.entries, lam.mats, theta.mats):
        w = Fraction(float(mi))
        for a in range(rows_):
            for b in range(cols):
                M[a][b] += w * sum(
                    Fraction(float(L[k, a])) * Fraction(float(T[k, b]))
                    for k in range(L.shape[0])
                )
    return M


def _exact_gap_error(gap, base, new):
    # max-entry error of a float gap against the exact difference, relative
    # to the exact difference's largest entry
    M0, M1 = _exact_multiplier(*base), _exact_multiplier(*new)
    ref = [[b - a for a, b in zip(r0, r1)] for r0, r1 in zip(M0, M1)]
    scale = max(abs(x) for r in ref for x in r)
    err = max(
        abs(Fraction(float(gap[a, b])) - ref[a][b])
        for a in range(len(ref)) for b in range(len(ref[0]))
    )
    return float(err / scale)


def _bump_matrix(shape) -> np.ndarray:
    e = np.zeros(shape)
    e[0, 0] = 1.0
    return e


def _reference_generator(kind, m, lam, theta):
    """Whole (Symbol, lam, theta) steps of the continuity schedule, rebuilt as
    fresh objects: the reference the suite's member-0 steps are checked against.

    The symbol is bumped in its first entry; sequences in the (0, 0) entry of
    their first member, a matrix of operator norm exactly one for every
    exponent pair.
    """
    DEVIATION_BASE = perturbation.DEVIATION_BASE

    def bump_symbol(n: int) -> pg.Symbol:
        e = m.entries.copy()
        e[0] += DEVIATION_BASE ** (-n)
        return pg.Symbol(e)

    def bump_seq(seq: pg.OperatorSequence, n: int) -> pg.OperatorSequence:
        mats = list(seq.mats)
        mats[0] = mats[0] + DEVIATION_BASE ** (-n) * _bump_matrix(mats[0].shape)
        return pg.OperatorSequence(seq.domain, seq.codomains, tuple(mats), seq.frame_exponent)

    def gen(n: int):
        mm = bump_symbol(n) if kind in ("symbol", "joint") else m
        ll = bump_seq(lam, n) if kind in ("lambda", "joint") else lam
        tt = bump_seq(theta, n) if kind in ("theta", "joint") else theta
        return mm, ll, tt

    return gen


def _with_mats(seq, mats):
    return pg.OperatorSequence(seq.domain, seq.codomains, tuple(mats), seq.frame_exponent)


@pytest.fixture
def recorded_gaps(monkeypatch):
    # every step's multiplier gap, as the continuity suite builds its stack
    gaps = []
    real = perturbation._multiplier_gaps

    def recording(*args):
        stack = real(*args)
        gaps.extend(np.array(g) for g in stack)
        return stack

    monkeypatch.setattr(perturbation, "_multiplier_gaps", recording)
    return gaps


def _schedule_gaps(kind, m, lam, theta, n_max):
    # the stacked gaps of one kind's schedule, step n at index n - 1
    return perturbation._multiplier_gaps(
        m, lam, theta, *perturbation._schedule(kind, m, lam, theta, n_max)
    )


PAIR6 = pg.gen("riesz-pair", x2_dim=6, y_dims=[2, 2, 2], seed=11)


@pytest.mark.parametrize("kind", pg.CONTINUITY_KINDS)
def test_continuity_gap_matches_exact_reference(kind):
    # the dense gap of the non-Euclidean route, entry by entry, against exact
    # rational arithmetic; l^2 runs measure the same gaps from their factors
    m, lam, theta = PAIR6.symbol_obj(), PAIR6.lam_sequence(), PAIR6.theta_sequence()
    gaps = _schedule_gaps(kind, m, lam, theta, 40)
    gen = _reference_generator(kind, m, lam, theta)
    for n in (10, 25, 40):
        err = _exact_gap_error(gaps[n - 1], (m, lam, theta), gen(n))
        assert err <= 1e-15, (n, err)


def _exact_gap_norm(base, new):
    # spectral norm of the exact rational gap, to 60 digits
    import mpmath

    M0, M1 = _exact_multiplier(*base), _exact_multiplier(*new)
    with mpmath.workdps(60):
        gap = mpmath.matrix(
            [[mpmath.mpf(d.numerator) / d.denominator for d in (b - a for a, b in zip(r0, r1))]
             for r0, r1 in zip(M0, M1)]
        )
        return max(mpmath.svd_r(gap, compute_uv=False))


L2_PAIRS = [pg.gen("riesz-pair", x2_dim=d, y_dims=[2] * (d // 2), seed=11) for d in (6, 8, 16)]


@pytest.mark.parametrize("inst", L2_PAIRS, ids=lambda inst: f"dim{inst.x2.dim}")
@pytest.mark.parametrize("kind", pg.CONTINUITY_KINDS)
def test_continuity_measured_matches_exact_reference(kind, inst):
    # the factored l^2 route against the norm of the exact gap
    m, lam, theta = inst.symbol_obj(), inst.lam_sequence(), inst.theta_sequence()
    traces = pg.continuity_suite(kind, m, lam, theta, p1=2.0, cfg=pg.NumericsConfig(n_max=40))
    gen = _reference_generator(kind, m, lam, theta)
    for n in (10, 25, 40):
        exact = _exact_gap_norm((m, lam, theta), gen(n))
        err = float(abs(traces[n - 1].measured - exact) / exact)
        assert err <= 1e-15, (n, err)


def test_continuity_measured_at_a_step_where_the_core_svd_alone_is_off():
    # joint step 33 on this pair: the core's computed top singular value
    # alone misses the exact norm by about 1.0e-15 relative; ||C v|| / ||v||
    # at its singular vector v does not
    inst = pg.gen("riesz-pair", x2_dim=16, y_dims=[2] * 8, seed=1)
    m, lam, theta = inst.symbol_obj(), inst.lam_sequence(), inst.theta_sequence()
    traces = pg.continuity_suite("joint", m, lam, theta, p1=2.0, cfg=pg.NumericsConfig(n_max=40))
    exact = _exact_gap_norm((m, lam, theta), _reference_generator("joint", m, lam, theta)(33))
    assert float(abs(traces[32].measured - exact) / exact) <= 5e-16


def _rounds_away_pair():
    # 2^60 + 2^-n rounds back to 2^60 for every n: no step moves anything
    big = 2.0 ** 60
    e = PAIR6.symbol_obj().entries.copy()
    e[0] = big
    seqs = []
    for seq in (PAIR6.lam_sequence(), PAIR6.theta_sequence()):
        mats = [a.copy() for a in seq.mats]
        mats[0][0, 0] = big
        seqs.append(_with_mats(seq, mats))
    return pg.Symbol(e), *seqs


@pytest.mark.parametrize("kind", pg.CONTINUITY_KINDS)
def test_continuity_schedule_that_rounds_away(kind):
    # every factored core is zero, so every measured gap is exactly 0.0
    cfg = pg.NumericsConfig(n_max=40)
    traces = pg.continuity_suite(kind, *_rounds_away_pair(), p1=2.0, cfg=cfg)
    assert len(traces) == 40
    assert all(t.deviation == t.measured == t.bound == 0.0 for t in traces)


def test_a_held_parameter_with_an_infinite_coefficient_adds_no_term(monkeypatch):
    # B_lam = inf makes the theta term's coefficient infinite; no distance
    # moves on this pair, and a term whose distance is 0 is left out, so
    # every bound is 0.0 (inf * 0 would make it NaN, which passes silently)
    m, lam, theta = _rounds_away_pair()
    real = perturbation.analysis_upper
    monkeypatch.setattr(
        perturbation, "analysis_upper",
        lambda seq, cfg: real(seq, cfg).scaled(math.inf) if seq is lam else real(seq, cfg),
    )
    traces = pg.continuity_suite("joint", m, lam, theta, p1=2.0, cfg=pg.NumericsConfig(n_max=40))
    assert [t.bound for t in traces] == [0.0] * 40
    assert all(t.components == (0.0, 0.0, 0.0) for t in traces)


def _nan_gap_pair():
    # an l^p pair at 1e160: the symbol bump's gap term overflows to inf - inf
    inst = pg.gen(
        "riesz-pair", x2_dim=3, y_dims=[2, 1], frame_exponent=1.5, y_exponents=[3, 3],
        x1_exponent=1.5, x2_exponent=3, seed=11,
    )
    lam, theta = (
        _with_mats(s, [a * 1e160 for a in s.mats])
        for s in (inst.lam_sequence(), inst.theta_sequence())
    )
    return inst.symbol_obj(), lam, theta


@pytest.mark.parametrize("kind, raises", [
    ("symbol", True), ("theta", False), ("lambda", False), ("joint", True),
])
def test_a_nan_measured_gap_is_a_violation(kind, raises):
    # the symbol and joint gaps are NaN against an infinite bound; the theta
    # and lambda bumps round away at 1e160, so their gaps and bounds are 0
    cfg = pg.NumericsConfig(n_max=6)
    with np.errstate(all="ignore"):
        if raises:
            with pytest.raises(pg.ContinuityViolation, match="step 1: measured nan exceeds"):
                pg.continuity_suite(kind, *_nan_gap_pair(), p1=2.0, cfg=cfg)
        else:
            traces = pg.continuity_suite(kind, *_nan_gap_pair(), p1=2.0, cfg=cfg)
            assert all(t.measured == t.bound == 0.0 for t in traces)


@pytest.mark.parametrize("kind", pg.CONTINUITY_KINDS)
def test_dense_gaps_of_a_schedule_that_rounds_away(kind, recorded_gaps):
    # the same pair on non-Euclidean domains: the dense gaps are all zero
    m, *seqs = _rounds_away_pair()
    lam, theta = (
        pg.OperatorSequence(pg.SpaceSpec(s.domain.dim, r), s.codomains, s.mats, s.frame_exponent)
        for s, r in zip(seqs, (1.5, 3.0))
    )
    cfg = pg.NumericsConfig(n_max=40)
    traces = pg.continuity_suite(kind, m, lam, theta, p1=2.0, cfg=cfg)
    assert all(t.deviation == t.measured == t.bound == 0.0 for t in traces)
    assert len(recorded_gaps) == 40 and not any(g.any() for g in recorded_gaps)


# x2_dim != x1_dim, and 3 k_0 = 6 columns per factor exceed both
BESSEL_PAIR = pg.gen("bessel", x2_dim=4, x1_dim=3, y_dims=[2, 3], seed=5)


def _scaled(inst, lam_factor, theta_factor):
    lam, theta = inst.lam_sequence(), inst.theta_sequence()
    return (
        inst.symbol_obj(),
        _with_mats(lam, [a * lam_factor for a in lam.mats]),
        _with_mats(theta, [a * theta_factor for a in theta.mats]),
    )


PAIR4 = pg.gen("riesz-pair", x2_dim=4, y_dims=[2, 2], seed=11)


@pytest.mark.parametrize(
    "ingredients, n_max",
    [
        (_scaled(BESSEL_PAIR, 1.0, 1.0), 40),
        (_scaled(PAIR6, 1.0, 1.0), 1),
        (_scaled(PAIR4, 1e160, 1e-160), 40),  # the extreme-scaling CI instance
        (_scaled(PAIR4, 1e306, 1e-306), 40),  # unscaled, d T1^T would be subnormal
    ],
    ids=["bessel-nonsquare", "n_max-1", "lam1e160-theta1e-160", "lam1e306-theta1e-306"],
)
@pytest.mark.parametrize("kind", pg.CONTINUITY_KINDS)
def test_l2_gap_route_matches_dense(kind, ingredients, n_max):
    m, lam, theta = ingredients
    cfg = pg.NumericsConfig(n_max=n_max)
    traces = pg.continuity_suite(kind, m, lam, theta, p1=2.0, cfg=cfg)
    assert len(traces) == n_max
    for t, gap in zip(traces, _schedule_gaps(kind, m, lam, theta, n_max)):
        dense = pg.matrix_opnorm(gap, 2.0, 2.0, cfg).lower.value
        assert abs(t.measured - dense) <= 1e-15 * dense, (t.n, t.measured, dense)


@pytest.mark.parametrize("p, r", [(1.5, 3.0), (3.0, 1.25), (math.inf, 1.5), (1.0, 2.0)])
def test_non_finite_gaps_keep_their_own_bits_in_the_gap_stack(p, r):
    # the dense route sends every gap to one stacked call, a non-finite one
    # too: each value has the bits of that gap's own matrix_opnorm call
    rng = np.random.default_rng([97, int(min(p, 9) * 4), int(r * 4)])
    As = rng.standard_normal((6, 4, 3))
    As[1, 0, 0], As[3, 2, 1], As[4, 1, 2] = np.inf, np.nan, -np.inf
    As[5] = 2.0 * As[3]
    with np.errstate(all="ignore"):
        got = pg.opnorm.operator_norm_values_many(
            As, pg.SpaceSpec(3, p), pg.SpaceSpec(4, r), None, pg.opnorm.MATRIX_STREAM
        )[0]
        want = np.array([pg.matrix_opnorm(A, p, r).lower.value for A in As])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("inst", [PAIR6, BESSEL_PAIR], ids=["riesz-pair", "bessel"])
@pytest.mark.parametrize("kind", pg.CONTINUITY_KINDS)
def test_l2_gap_route_forms_no_gap(monkeypatch, recorded_uppers, kind, inst):
    # no dense gap is formed, deduplicated for the oracle, or given an SVD:
    # every n_L x n_T SVD of the run is a Bessel certificate's
    gaps, dense, svd_shapes = [], [], []
    real_gaps, real_values, real_svd = (
        perturbation._multiplier_gaps, perturbation.operator_norm_values_many, np.linalg.svd
    )

    def svd(A, *args, **kwargs):
        # the certificate route sends a matrix as a stack of one, and the
        # joint kind's two end matrices as a stack of two; the gap cores come
        # as one stack of n_max
        shape = np.shape(A)
        stacked = len(shape) == 3 and shape[0] <= 2
        svd_shapes.extend([shape[1:]] * shape[0] if stacked else [shape])
        return real_svd(A, *args, **kwargs)

    m, lam, theta = inst.symbol_obj(), inst.lam_sequence(), inst.theta_sequence()
    gap_spaces = (theta.domain, lam.domain.dual)

    def values(As, dom, cod, *args):
        # the dense route's one call on the gap spaces
        if (dom, cod) == gap_spaces:
            dense.append(As)
        return real_values(As, dom, cod, *args)

    monkeypatch.setattr(perturbation, "_multiplier_gaps", lambda *a: gaps.append(a) or real_gaps(*a))
    monkeypatch.setattr(perturbation, "operator_norm_values_many", values)
    monkeypatch.setattr(np.linalg, "svd", svd)
    pg.continuity_suite(kind, m, lam, theta, p1=2.0, cfg=pg.NumericsConfig(n_max=40))
    assert gaps == [] and dense == []
    gap_shape = (lam.domain.dim, theta.domain.dim)
    certified = sum(U.shape == gap_shape for U, _ in recorded_uppers)
    assert svd_shapes.count(gap_shape) == certified, (svd_shapes, certified)


@pytest.mark.parametrize(
    "kind, n_max, built",
    [("symbol", 40, 0), ("theta", 40, 0), ("lambda", 40, 0), ("joint", 40, 0), ("joint", 1, 0)],
)
def test_continuity_builds_sequences_at_the_joint_ends_only(monkeypatch, kind, n_max, built):
    # a step holds member 0 of each sequence, not a whole sequence; the joint
    # Bessel bounds at the ends of the schedule stack the sequence's matrix
    # with member 0 replaced, and build no sequence either
    calls = []
    real = perturbation.OperatorSequence

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(perturbation, "OperatorSequence", counting)
    m, lam, theta = PAIR6.symbol_obj(), PAIR6.lam_sequence(), PAIR6.theta_sequence()
    pg.continuity_suite(kind, m, lam, theta, p1=2.0, cfg=pg.NumericsConfig(n_max=n_max))
    assert len(calls) == built


def test_continuity_rejects_unpaired_ingredients():
    with pytest.raises(pg.DimensionMismatchError):
        pg.continuity_suite("symbol", pg.Symbol([1.0, 1.0, 1.0]), SELECTORS, SELECTORS, p1=2.0)
    tall = rows(np.eye(2), [[0.0, 1.0]])  # codomain dims (2, 1) against (1, 1)
    for lam, theta in ((SELECTORS, tall), (tall, SELECTORS)):
        with pytest.raises(pg.DimensionMismatchError):
            pg.continuity_suite("symbol", pg.Symbol([1.0, 1.0]), lam, theta, p1=2.0)


def test_continuity_suite_assembles_nothing(monkeypatch):
    calls = []
    real = pg.multipliers.assemble

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if name.split(".")[0] == "pgframes" and getattr(mod, "assemble", None) is real:
            monkeypatch.setattr(mod, "assemble", counting)
    m, lam, theta = PAIR6.symbol_obj(), PAIR6.lam_sequence(), PAIR6.theta_sequence()
    for kind in pg.CONTINUITY_KINDS:
        pg.continuity_suite(kind, m, lam, theta, p1=2.0, cfg=pg.NumericsConfig(n_max=40))
    assert len(calls) == 0


SMALL_GRID_PAIR = pg.gen(
    "riesz-pair", x2_dim=3, y_dims=[2, 1], frame_exponent=1.5, y_exponents=[3, 3],
    x1_exponent=1.5, x2_exponent=3, seed=11,
)


def _reference_traces(kind, m, lam, theta, p1, n_max, cfg):
    # (deviation, measured, bound) per step from fresh oracle calls, no memo
    q1 = pg.conjugate_exponent(p1)
    gen = _reference_generator(kind, m, lam, theta)

    def seq_gap(base, new):
        vals = [
            pg.upper_certificate_only(b - a, base.domain, c, cfg).value
            for a, b, c in zip(base.mats, new.mats, base.codomains)
        ]
        return pg.pnorm(np.array(vals), q1)

    B_lam, B_theta = pg.analysis_upper(lam, cfg).value, pg.analysis_upper(theta, cfg).value
    m_p1 = m.p_norm(p1)
    steps = [gen(n) for n in range(1, n_max + 1)]
    # the default schedule's Bessel bounds come from its two ends
    B1 = max(pg.analysis_upper(ll, cfg).value for _, ll, _ in (steps[0], steps[-1]))
    B2 = max(pg.analysis_upper(tt, cfg).value for _, _, tt in (steps[0], steps[-1]))
    out = []
    for mm, ll, tt in steps:
        gap = frozen.multiplier_gap(
            m, lam, theta, mm.entries - m.entries, ll.mats[0], tt.mats[0]
        )
        measured = pg.matrix_opnorm(
            gap, theta.domain.exponent, lam.domain.dual.exponent, cfg
        ).lower.value
        sym_gap = pg.pnorm(mm.entries - m.entries, p1)
        if kind == "symbol":
            deviation, bound = sym_gap, B_lam * B_theta * sym_gap
        elif kind == "theta":
            deviation = seq_gap(theta, tt)
            bound = B_lam * m_p1 * deviation
        elif kind == "lambda":
            deviation = seq_gap(lam, ll)
            bound = B_theta * m_p1 * deviation
        else:
            lam_gap, theta_gap = seq_gap(lam, ll), seq_gap(theta, tt)
            deviation = max(sym_gap, lam_gap, theta_gap)
            bound = sum((B1 * B2 * sym_gap, B2 * m_p1 * lam_gap, B_lam * m_p1 * theta_gap))
        out.append((deviation, measured, bound))
    return out


def test_continuity_memo_reuses_oracle_calls_exactly(monkeypatch):
    # on a base^-n schedule that bumps one ingredient, every gap is a scalar
    # multiple of the first, so once divided by its largest entry it repeats
    # an earlier step's and its ascent slice is computed once; the joint gaps
    # carry cross-terms and differ step to step.  Run alone, each kind sends
    # its gaps to one oracle call, which ascends on its distinct slices in
    # one lockstep ascent; in one batch, the four kinds send all of theirs to
    # one call and one ascent
    inst = SMALL_GRID_PAIR
    m, lam, theta = inst.symbol_obj(), inst.lam_sequence(), inst.theta_sequence()
    cfg = pg.NumericsConfig(n_max=40)
    references = {
        kind: _reference_traces(kind, m, lam, theta, 2.0, 40, cfg) for kind in pg.CONTINUITY_KINDS
    }
    gap_spaces = (theta.domain, lam.domain.dual)
    sent, ascents = [], []  # the gaps of each oracle call; slices of each ascent
    # matrices of member 0's shape that perturbation sends to an oracle: the
    # deviations need none
    member_shaped = []
    upper, bounds, many = (
        perturbation.block_upper_certificates,
        perturbation.operator_norm_values_many,
        pg.opnorm._lower_rows,
    )

    member_shapes = (lam.mats[0].shape, theta.mats[0].shape)

    def note_member_shaped(*As):
        member_shaped.extend(A for A in As if A.shape in member_shapes)

    def counting_upper(A, dom, cod, *args):
        if (dom, cod) == gap_spaces:
            sent.append([A])
        note_member_shaped(A)
        return upper(A, dom, cod, *args)

    def counting_bounds(As, dom, cod, *args):
        if (dom, cod) == gap_spaces:
            sent.append(list(As))
        note_member_shaped(*As)
        return bounds(As, dom, cod, *args)

    def counting_many(As, *args):
        ascents.append(len(As))
        return many(As, *args)

    monkeypatch.setattr(perturbation, "block_upper_certificates", counting_upper)
    monkeypatch.setattr(perturbation, "operator_norm_values_many", counting_bounds)
    monkeypatch.setattr(pg.opnorm, "_lower_rows", counting_many)

    def traced(traces):
        return [(t.deviation, t.measured, t.bound) for t in traces]

    per_kind = {}
    for kind in pg.CONTINUITY_KINDS:
        before = len(sent), len(ascents)
        traces = pg.continuity_suite(kind, m, lam, theta, p1=2.0, cfg=cfg)
        assert len(sent) - before[0] == 1 and len(sent[-1]) == 40, kind
        per_kind[kind] = ascents[before[1]:]
        assert traced(traces) == references[kind], kind
    assert per_kind == {"symbol": [5], "theta": [1], "lambda": [1], "joint": [40]}, per_kind

    before = len(sent), len(ascents)
    measured = perturbation.continuity_gaps(pg.CONTINUITY_KINDS, m, lam, theta, cfg)
    (batch,) = sent[before[0]:]
    assert len(batch) == 4 * 40
    assert ascents[before[1]:] == [sum(sum(a) for a in per_kind.values())]
    for kind in pg.CONTINUITY_KINDS:
        traces = pg.continuity_suite(
            kind, m, lam, theta, p1=2.0, cfg=cfg, measured=measured[kind]
        )
        assert traced(traces) == references[kind], kind
    # the gaps themselves are not of member 0's shape
    assert member_shaped == [] and batch[0].shape != lam.mats[0].shape


# small-grid seed 1, instance 6: the pair whose certified Bessel bound is not
# convex along the schedule, so the endpoint B1 is below the all-step maximum
GRID_PAIR_1006 = pg.gen(
    "riesz-pair", x2_dim=3, y_dims=[3], frame_exponent=3, y_exponents=[1.5],
    x1_exponent=3, x2_exponent=1.5, seed=1006,
)


@pytest.fixture
def recorded_uppers(monkeypatch):
    # (stacked matrix, value) of every Bessel bound the suite certifies: one
    # per analysis_upper call, and one per end matrix of the joint kind's
    # stacked upper-side calls (stream None)
    calls = []
    real, real_values = perturbation.analysis_upper, perturbation.operator_norm_values_many

    def recording(seq, *args):
        cert = real(seq, *args)
        calls.append((seq.stacked(), cert.value))
        return cert

    def recording_values(As, dom, cod, cfg, stream):
        lower, upper = real_values(As, dom, cod, cfg, stream)
        if stream is None:
            calls.extend(zip(As, upper.tolist()))
        return lower, upper

    monkeypatch.setattr(perturbation, "analysis_upper", recording)
    monkeypatch.setattr(perturbation, "operator_norm_values_many", recording_values)
    return calls


def _suite_bound(calls, seqs):
    # the largest certificate the suite took on any of ``seqs``
    return max(v for U, v in calls if any(np.array_equal(U, s.stacked()) for s in seqs))


def test_joint_bessel_bounds_from_the_schedule_ends(recorded_uppers):
    inst = GRID_PAIR_1006
    m, lam, theta = inst.symbol_obj(), inst.lam_sequence(), inst.theta_sequence()
    cfg = pg.NumericsConfig(n_max=40)
    traces = pg.continuity_suite("joint", m, lam, theta, p1=2.0, cfg=cfg)
    gen = _reference_generator("joint", m, lam, theta)
    steps = [gen(n) for n in range(1, 41)]
    lls, tts = [ll for _, ll, _ in steps], [tt for _, _, tt in steps]
    B1, B2 = _suite_bound(recorded_uppers, lls), _suite_bound(recorded_uppers, tts)
    assert B1 < max(pg.analysis_upper(ll, cfg).value for ll in lls)
    assert B2 <= max(pg.analysis_upper(tt, cfg).value for tt in tts)
    for ll, tt in zip(lls, tts):
        assert B1 >= pg.analysis_opnorm(ll, cfg).lower.value
        assert B2 >= pg.analysis_opnorm(tt, cfg).lower.value
    for t, (mm, _, _) in zip(traces, steps):
        assert t.components[0] == B1 * B2 * pg.pnorm(mm.entries - m.entries, 2.0)


@pytest.mark.parametrize("n_max, calls", [(40, 2 + 4), (1, 2 + 2)])
def test_joint_bessel_bound_call_count(recorded_uppers, n_max, calls):
    m, lam, theta = PAIR6.symbol_obj(), PAIR6.lam_sequence(), PAIR6.theta_sequence()
    pg.continuity_suite("joint", m, lam, theta, p1=2.0, cfg=pg.NumericsConfig(n_max=n_max))
    assert len(recorded_uppers) == calls


@pytest.mark.parametrize("corner", [2.0 ** 60, -1.5, 0.0])
def test_joint_endpoint_bound_at_rounding_edges(recorded_uppers, corner):
    # l^2 pair, so every certificate is an exact SVD value: the endpoints'
    # maximum is the all-step maximum up to the SVD's rounding
    lam, theta = PAIR6.lam_sequence(), PAIR6.theta_sequence()
    mats = [a.copy() for a in lam.mats]
    mats[0][0, 0] = corner
    lam = _with_mats(lam, mats)
    m = PAIR6.symbol_obj()
    cfg = pg.NumericsConfig(n_max=40)
    pg.continuity_suite("joint", m, lam, theta, p1=2.0, cfg=cfg)
    gen = _reference_generator("joint", m, lam, theta)
    lls = [gen(n)[1] for n in range(1, 41)]
    if corner == 2.0 ** 60:  # every bump rounds away
        assert all(np.array_equal(ll.stacked(), lam.stacked()) for ll in lls)
    all_steps = max(pg.analysis_upper(ll, cfg).value for ll in lls)
    assert _suite_bound(recorded_uppers[2:], lls) >= all_steps * (1 - 1e-14)


def _bump_rounds_away_at(n_away):
    # 2^k + 2^-n is exact for n <= 52 - k and rounds back to 2^k beyond:
    # steps 1..n_away move, the later ones do not
    k = 52 - n_away
    e = SMALL_GRID_PAIR.symbol_obj().entries.copy()
    e[0] = 2.0 ** k
    seqs = []
    for seq in (SMALL_GRID_PAIR.lam_sequence(), SMALL_GRID_PAIR.theta_sequence()):
        mats = [a.copy() for a in seq.mats]
        mats[0][0, 0] = 2.0 ** k
        seqs.append(_with_mats(seq, mats))
    return pg.Symbol(e), *seqs


def _on_lp_domains(m, lam, theta):
    # the same matrices on non-Euclidean domains: the dense route
    lam, theta = (
        pg.OperatorSequence(pg.SpaceSpec(s.domain.dim, r), s.codomains, s.mats, s.frame_exponent)
        for s, r in zip((lam, theta), (1.5, 3.0))
    )
    return m, lam, theta


FROZEN_CASES = {
    "lp-pair": ((SMALL_GRID_PAIR.symbol_obj(), SMALL_GRID_PAIR.lam_sequence(),
                 SMALL_GRID_PAIR.theta_sequence()), 40),
    "lp-pair-n_max-1": ((SMALL_GRID_PAIR.symbol_obj(), SMALL_GRID_PAIR.lam_sequence(),
                         SMALL_GRID_PAIR.theta_sequence()), 1),
    "lp-grid-1006": ((GRID_PAIR_1006.symbol_obj(), GRID_PAIR_1006.lam_sequence(),
                      GRID_PAIR_1006.theta_sequence()), 40),
    "lp-rounds-away": (_on_lp_domains(*_rounds_away_pair()), 40),
    "lp-rounds-away-mid-schedule": (_bump_rounds_away_at(20), 40),
    "l2-pair": ((PAIR6.symbol_obj(), PAIR6.lam_sequence(), PAIR6.theta_sequence()), 40),
    "l2-pair-n_max-1": ((PAIR6.symbol_obj(), PAIR6.lam_sequence(), PAIR6.theta_sequence()), 1),
    "l2-bessel-nonsquare": (_scaled(BESSEL_PAIR, 1.0, 1.0), 40),
    "l2-lam1e306-theta1e-306": (_scaled(PAIR4, 1e306, 1e-306), 40),
    "l2-rounds-away": (_rounds_away_pair(), 40),
    "l2-rounds-away-mid-schedule": (
        (lambda m, lam, theta: (m, *(
            pg.OperatorSequence(pg.SpaceSpec(s.domain.dim, 2.0), s.codomains, s.mats,
                                s.frame_exponent) for s in (lam, theta)
        )))(*_bump_rounds_away_at(20)),
        40,
    ),
}


def _as_frozen(run):
    # a trace list or a violation, in the frozen copy's form
    if isinstance(run, pg.ContinuityViolation):
        return str(run)
    return [(t.n, t.deviation, t.measured, t.bound, t.components) for t in run]


@pytest.mark.parametrize("case", FROZEN_CASES)
def test_batched_continuity_equals_the_frozen_per_kind_route(case):
    # every kind's traces from one batch of gaps, and from a run of its own,
    # are those of the per-kind, per-step route they replace, bit for bit
    (m, lam, theta), n_max = FROZEN_CASES[case]
    cfg = pg.NumericsConfig(n_max=n_max)
    measured = perturbation.continuity_gaps(pg.CONTINUITY_KINDS, m, lam, theta, cfg)
    for kind in pg.CONTINUITY_KINDS:
        expect = frozen.continuity_suite(kind, m, lam, theta, 2.0, cfg)
        runs = []
        for given in (measured[kind], None):
            try:
                runs.append(pg.continuity_suite(kind, m, lam, theta, 2.0, cfg, measured=given))
            except pg.ContinuityViolation as exc:
                runs.append(exc)
        assert [_as_frozen(r) for r in runs] == [expect, expect], kind
        if isinstance(expect, list):
            assert measured[kind] == [t[2] for t in expect], kind


def test_a_mid_schedule_round_away_case_moves_then_stops():
    # the case above: steps 1..20 move member 0 and the symbol, the rest do not
    m, lam, theta = _bump_rounds_away_at(20)
    d, L1, _ = perturbation._schedule("joint", m, lam, theta, 40)
    moved = L1[:, 0, 0] != lam.mats[0][0, 0]
    assert moved[:20].all() and not moved[20:].any()
    assert (d[:20] != 0.0).all() and not d[20:].any()


def test_four_kinds_of_a_non_euclidean_pair_share_one_ascent(monkeypatch):
    calls = []
    real = pg.opnorm._ascend
    monkeypatch.setattr(pg.opnorm, "_ascend", lambda A, *a: calls.append(len(A)) or real(A, *a))
    m, lam, theta = FROZEN_CASES["lp-pair"][0]
    perturbation.continuity_gaps(pg.CONTINUITY_KINDS, m, lam, theta, pg.NumericsConfig())
    assert len(calls) == 1 and calls[0] > 40, calls


def test_measured_gaps_must_cover_the_schedule():
    m, lam, theta = FROZEN_CASES["lp-pair"][0]
    with pytest.raises(ValueError, match="3 measured gaps for 40 steps"):
        pg.continuity_suite("symbol", m, lam, theta, 2.0, measured=[0.0] * 3)


def test_continuity_gaps_reject_an_unknown_kind():
    m, lam, theta = FROZEN_CASES["lp-pair"][0]
    with pytest.raises(ValueError, match="kind must be one of"):
        perturbation.continuity_gaps(("symbol", "bogus"), m, lam, theta)


@pytest.mark.parametrize("case", ["lp-pair", "l2-pair"])
def test_batched_continuity_violations_equal_the_frozen_route(case, monkeypatch):
    # a Bessel bound of lam 100 times too small: the symbol and theta kinds,
    # whose bounds scale with it, raise the violation the per-kind route
    # raised; the lambda and joint kinds keep their traces (the joint bound
    # certifies its own B1 and carries the small bound in one term only)
    (m, lam, theta), n_max = FROZEN_CASES[case]
    cfg = pg.NumericsConfig(n_max=n_max)
    real = perturbation.analysis_upper
    b_lam, b_theta = real(lam, cfg), real(theta, cfg)
    bessel = (b_lam.scaled(0.01), b_theta)
    monkeypatch.setattr(
        perturbation, "analysis_upper", lambda seq, cfg: bessel[0] if seq is lam else real(seq, cfg)
    )
    measured = perturbation.continuity_gaps(pg.CONTINUITY_KINDS, m, lam, theta, cfg)
    outcomes = {}
    for kind in pg.CONTINUITY_KINDS:
        try:
            run = pg.continuity_suite(kind, m, lam, theta, 2.0, cfg, measured=measured[kind])
        except pg.ContinuityViolation as exc:
            run = exc
        outcomes[kind] = _as_frozen(run)
        assert outcomes[kind] == frozen.continuity_suite(kind, m, lam, theta, 2.0, cfg, bessel)
    assert [isinstance(o, str) for o in outcomes.values()] == [True, True, False, False]
