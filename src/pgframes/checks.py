"""Check-suite orchestration over a problem instance.

Each suite re-derives one family of guarantees (classification agreement,
duality of the product norm, multiplier bounds, dual bases, inversion,
perturbation, continuity) and reports pass/fail/skipped with the values it
computed.  Reports are deterministic for a fixed (instance, seed, config)
triple, timing fields aside.

A ``run_checks`` call builds each per-instance object once and hands it to
every suite that needs it: the instance's two operator sequences (whose
analysis and coefficient spaces are built on first use and kept), its
symbol, the perturb suite's family, one classify report per sequence and
one forward multiplier.  Its certificate ledger (``opnorm``) holds every
certificate and every dual Riesz basis computed in the run, so the ``dual``
suite and ``invert`` read lam's and theta's bases from one inversion each.
Nothing outlives the call.
"""
from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_CONFIG, NumericsConfig
from .frames import NotRieszError, classify, dual_riesz_basis, riesz_equivalences_check
from .gridsearch import OracleBudgetError
from .instances import Instance
from .multipliers import Symbol, SymbolTooSmallError, assemble, invert, norm_bounds
from .operators import OperatorSequence, synthesis_matrix
from .opnorm import ANALYSIS_STREAM, BESSEL_STREAM, certificate_ledger, operator_norm_bounds_many
from .perturbation import (
    CONTINUITY_KINDS,
    ContinuityViolation,
    continuity_gaps,
    continuity_suite,
    perturbation_check,
)
from .spaces import SpaceError, SpaceSpec, product_duality_gap

__all__ = ["CheckResult", "CheckReport", "SUITES", "run_checks"]

SUITES = (
    "classify",
    "equivalences",
    "duality",
    "bounds",
    "dual",
    "multiply",
    "invert",
    "perturb",
    "continuity",
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str              # pass | fail | skipped
    reason: str = ""
    values: dict = field(default_factory=dict)
    wall_ms: float = 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "reason": self.reason,
            "values": _plain(self.values),
            "wall_ms": round(self.wall_ms, 3),
        }


@dataclass(frozen=True)
class CheckReport:
    instance_summary: dict
    config_echo: dict
    results: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.status != "fail" for r in self.results)

    def to_dict(self) -> dict:
        return {
            "instance": _plain(self.instance_summary),
            "config": _plain(self.config_echo),
            "checks": [r.to_dict() for r in self.results],
            "overall": "pass" if self.ok else "fail",
        }

    def render_text(self) -> str:
        lines = []
        for r in self.results:
            head = f"{r.status.upper():7s} {r.name}"
            if r.reason:
                head += f"  ({r.reason})"
            lines.append(head)
            for k, v in r.values.items():
                lines.append(f"        {k} = {_fmt(v)}")
        lines.append(f"overall: {'pass' if self.ok else 'fail'}")
        return "\n".join(lines)


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, SpaceSpec):
        return {"dim": obj.dim, "exponent": str(obj.exponent)}
    return obj


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _seeded(cfg: NumericsConfig, k: int) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, 0xC5EC, k])


def _unit_samples(space, count: int, rng) -> np.ndarray:
    x = rng.standard_normal((space.total_dim, count))
    norms = space.norm_many(x)
    good = norms > 0
    return x[:, good] / norms[good]


def _certificate_values(report) -> dict:
    vals = {
        "A": report.lower_bound.value,
        "A_kind": f"{report.lower_bound.kind}/{report.lower_bound.method}",
        "B": report.bessel_bound.value,
        "B_kind": f"{report.bessel_bound.kind}/{report.bessel_bound.method}",
        "is_frame": report.is_frame,
        "is_riesz": report.is_riesz,
        "g_complete": report.g_complete,
        "rank_synthesis": report.rank_synthesis,
    }
    observed = {"lower_frame": report.lower_observed, "bessel": report.bessel_observed}
    for name, cert in observed.items():
        if cert.witness is not None:
            vals[f"witness.{name}"] = cert.witness
    return vals


def _check_classify(sequences: dict, cfg: NumericsConfig, classified) -> CheckResult:
    values, ok, notes = {}, True, []
    for tag, seq in sequences.items():
        report = classified(tag)
        for k, v in _certificate_values(report).items():
            values[f"{tag}.{k}"] = v
        if report.is_frame != report.g_complete:
            ok = False
            notes.append(
                f"{tag}: frame routes disagree {(report.is_frame, report.g_complete)}"
            )
        samples = _unit_samples(seq.domain, 200, _seeded(cfg, 1))
        ratios = seq.analysis_space().norm_many(seq.stacked() @ samples)
        lo, hi = report.lower_bound.value, report.bessel_bound.value
        if ratios.min(initial=np.inf) < lo - 1e-9 or ratios.max(initial=0.0) > hi + 1e-9:
            ok = False
            notes.append(
                f"{tag}: sampled ratios escape [{lo:.3e}, {hi:.3e}]"
            )
    return CheckResult("classify", "pass" if ok else "fail", "; ".join(notes), values)


def _check_equivalences(sequences: dict, classified) -> CheckResult:
    values, ok, notes = {}, True, []
    for tag, seq in sequences.items():
        eq = riesz_equivalences_check(seq, classified(tag))
        values[f"{tag}.conditions"] = [eq.riesz_inequality, eq.full_rank]
        if not eq.agree:
            ok = False
            notes.append(f"{tag}: equivalence conditions disagree")
    return CheckResult("equivalences", "pass" if ok else "fail", "; ".join(notes), values)


def _check_duality(lam: OperatorSequence, cfg: NumericsConfig) -> CheckResult:
    coeff = lam.coefficient_space()
    rng = _seeded(cfg, 2)
    # one (20, d) draw holds the numbers of 20 draws of d, in order, and
    # leaves the generator where they would; column j is draw j
    gaps, norms = coeff.duality_gaps(rng.standard_normal((20, coeff.total_dim)).T)
    worst_witness = float((gaps / np.maximum(norms, 1e-30)).max())
    values = {"witness_gap_rel": worst_witness}
    ok = worst_witness <= 1e-10
    note = ""
    try:
        g = coeff.vector(rng.standard_normal(coeff.total_dim))
        gap = product_duality_gap(g, cfg, method="grid") / max(g.norm(), 1e-30)
        values["grid_gap_rel"] = gap
        ok = ok and gap <= 1e-3
    except OracleBudgetError as exc:
        note = f"grid skipped: {exc}"
    return CheckResult("duality", "pass" if ok else "fail", note, values)


def _check_bounds(inst: Instance, cfg: NumericsConfig, classified, forward) -> CheckResult:
    nb = norm_bounds(forward(), cfg, classified("lam"), classified("theta"))
    values = {
        "upper": nb.upper.value,
        "estimate": nb.estimate.value,
        "estimate_upper": nb.estimate_upper.value,
    }
    ok = nb.estimate.value <= nb.upper.value + 1e-9
    notes = []
    if not ok:
        notes.append("estimate exceeds the certified upper bound")
    if nb.lower is not None:
        values["lower"] = nb.lower.value
        exact = inst.frame_exponent == 2.0 and all(
            c.exponent == 2.0 for c in inst.components
        ) and inst.x1.exponent == 2.0 and inst.x2.exponent == 2.0
        tol = 1e-9 if exact else 1e-3
        if nb.estimate.value < nb.lower.value - tol:
            ok = False
            notes.append("estimate fell below the certified lower bound")
        if nb.lower.value > nb.estimate_upper.value + 1e-9:
            ok = False
            notes.append("lower bound exceeds the certified estimate upper")
    else:
        values["lower"] = None
        notes.append(nb.lower_reason)
    return CheckResult("bounds", "pass" if ok else "fail", "; ".join(notes), values)


def _check_dual(sequences: dict, cfg: NumericsConfig, classified) -> CheckResult:
    values, ok, notes = {}, True, []
    rng = _seeded(cfg, 3)
    any_run = False
    for tag, seq in sequences.items():
        report = classified(tag)
        if not report.is_riesz:
            notes.append(f"{tag}: not a Riesz basis ({report.riesz_diagnosis})")
            continue
        any_run = True
        dual = dual_riesz_basis(seq, cfg)
        S = synthesis_matrix(seq)
        Sinv = np.vstack(dual.mats)
        n = seq.domain.dim
        biorth = dual.residual
        recon_mat = S @ Sinv - np.eye(n)
        xs = rng.standard_normal((n, 100))
        xstar = seq.domain.dual
        recon = float(
            (xstar.norm_many(recon_mat @ xs) / np.maximum(xstar.norm_many(xs), 1e-30)).max()
        )
        dual_seq = dual.as_operator_sequence()
        dd = dual_riesz_basis(dual_seq, cfg)
        # relative to max_i max|L_i|, so a rescaled family reads the same
        L = seq.stacked()
        double = float(np.abs(np.vstack(dd.mats) - L).max() / np.abs(L).max())
        values[f"{tag}.biorth"] = biorth
        values[f"{tag}.reconstruction"] = recon
        values[f"{tag}.double_dual"] = double
        if max(biorth, recon, double) > 1e-9:
            ok = False
            notes.append(f"{tag}: dual residuals exceed 1e-9")
        a_safe = report.lower_bound.value
        b_up = report.bessel_bound.value
        samples = _unit_samples(dual_seq.domain, 100, rng)
        ratios = dual_seq.analysis_space().norm_many(dual_seq.stacked() @ samples)
        if b_up > 0 and ratios.min(initial=np.inf) < 1.0 / b_up - 1e-9:
            ok = False
            notes.append(f"{tag}: dual ratios fall below 1/B")
        if a_safe > 0 and ratios.max(initial=0.0) > 1.0 / a_safe + 1e-9:
            ok = False
            notes.append(f"{tag}: dual ratios exceed 1/A")
    if not any_run:
        return CheckResult("dual", "skipped", "; ".join(notes), values)
    return CheckResult("dual", "pass" if ok else "fail", "; ".join(notes), values)


def _check_multiply(cfg: NumericsConfig, forward) -> CheckResult:
    M = forward()
    m, lam, theta = M.symbol, M.left, M.right
    rng = _seeded(cfg, 4)
    perm = rng.permutation(len(m))

    def permuted(seq: OperatorSequence) -> OperatorSequence:
        return OperatorSequence(
            seq.domain,
            tuple(seq.codomains[i] for i in perm),
            tuple(seq.mats[i] for i in perm),
            seq.frame_exponent,
        )

    M_p = assemble(Symbol(m.entries[perm]), permuted(lam), permuted(theta))
    identical = bool(np.array_equal(M.matrix, M_p.matrix))

    zero = assemble(Symbol(np.zeros(len(m))), lam, theta)
    zero_ok = bool(np.all(zero.matrix == 0.0))

    g = rng.standard_normal(M.domain.dim)
    direct = np.zeros(M.codomain.dim)
    for mi, ml, mt in zip(m.entries, lam.mats, theta.mats):
        direct = direct + mi * (ml.T @ (mt @ g))
    apply_res = float(np.abs(M.apply(g).entries - direct).max())
    scale = max(float(np.abs(direct).max()), 1e-30)

    ok = identical and zero_ok and apply_res <= 1e-10 * max(1.0, scale)
    values = {
        "permutation_identical": identical,
        "zero_symbol_zero": zero_ok,
        "apply_residual": apply_res,
        "advisories": list(M.advisories),
    }
    return CheckResult("multiply", "pass" if ok else "fail", "", values)


def _check_invert(cfg: NumericsConfig, forward) -> CheckResult:
    # invert owns the residual threshold: a returned inverse passed it, and a
    # failed verification raises InverseVerificationError, which run_checks
    # reports as a failure with the residuals in its reason
    try:
        _, res_l, res_r = invert(forward(), cfg)
    except SymbolTooSmallError as exc:
        return CheckResult("invert", "skipped", f"symbol-too-small: {exc}")
    except NotRieszError as exc:
        return CheckResult("invert", "skipped", f"not-riesz: {exc}")
    return CheckResult(
        "invert", "pass", "", {"residual_left": res_l, "residual_right": res_r}
    )


def _perturbed_family(
    lam: OperatorSequence, cfg: NumericsConfig, epsilon: float
) -> OperatorSequence:
    """The perturb suite's family: each member of lam plus epsilon times a
    unit-Frobenius normal matrix (rng stream 5)."""
    rng = _seeded(cfg, 5)
    mats = []
    for mat in lam.mats:
        noise = rng.standard_normal(mat.shape)
        mats.append(mat + epsilon * noise / max(np.linalg.norm(noise), 1e-30))
    return OperatorSequence(lam.domain, lam.codomains, tuple(mats), lam.frame_exponent)


def _check_perturb(lam: OperatorSequence, cfg: NumericsConfig, perturbed) -> CheckResult:
    rep = perturbation_check(lam, perturbed(), cfg)
    ok = rep.slack >= -1e-9
    notes = []
    if not ok:
        notes.append("Bessel-bound slack is negative")
    # one certificate: the synthesis gap is the analysis gap (adjoints share norms)
    if rep.analysis_gap.value > rep.K.value + 1e-9:
        ok = False
        notes.append("analysis (= synthesis) gap exceeds K")
    values = {
        "K": rep.K.value,
        "B_base": rep.B_base.value,
        "B_perturbed": rep.B_perturbed.value,
        "slack": rep.slack,
        "analysis_gap": rep.analysis_gap.value,
    }
    return CheckResult("perturb", "pass" if ok else "fail", "; ".join(notes), values)


def _check_continuity(
    inst: Instance, m: Symbol, lam: OperatorSequence, theta: OperatorSequence, cfg: NumericsConfig
) -> CheckResult:
    p1 = 2.0 if inst.p1 is None else inst.p1
    values, ok, notes = {}, True, []
    # every kind's gaps from one batch, each kind's bounds checked on its own
    measured = continuity_gaps(CONTINUITY_KINDS, m, lam, theta, cfg)
    for kind in CONTINUITY_KINDS:
        try:
            traces = continuity_suite(kind, m, lam, theta, p1, cfg, measured=measured[kind])
        except ContinuityViolation as exc:
            ok = False
            notes.append(f"{kind}: {exc}")
            continue
        worst = max((t.measured - t.bound for t in traces), default=0.0)
        values[f"{kind}.final_bound"] = traces[-1].bound
        values[f"{kind}.worst_excess"] = worst
    return CheckResult("continuity", "pass" if ok else "fail", "; ".join(notes), values)


def _certify_lam_pairs(lam: OperatorSequence, perturbed, cfg: NumericsConfig) -> None:
    """Put classify's Bessel pair of lam's matrix F and perturb's analysis
    pairs of the perturbed T and of F - T in the ledger with one ascent on
    lam's spaces.  A T that cannot be built (an overflowing epsilon), or with
    F - T not finite, stays out, and perturb fails as it would alone."""
    F = lam.stacked()
    stacks, streams = [F], [BESSEL_STREAM]
    try:
        T = perturbed().stacked()
    except SpaceError:  # perturb raises it again when it runs
        T = None
    if T is not None and np.isfinite(F - T).all():
        stacks += [T, F - T]
        streams += [ANALYSIS_STREAM, ANALYSIS_STREAM]
    operator_norm_bounds_many(np.stack(stacks), lam.domain, lam.analysis_space(), cfg, streams)


def run_checks(
    inst: Instance,
    suites=None,
    cfg: NumericsConfig | None = None,
    epsilon: float = 0.01,
) -> CheckReport:
    """Run the selected suites (all of them when ``suites`` is None) over an instance.

    ``cfg`` carries every setting but ``epsilon``, the finite size of the
    ``perturb`` suite's perturbation; the continuity runs take ``cfg.n_max``
    steps.  An empty selection, an unknown suite and a non-finite epsilon
    raise ``ValueError`` before any suite runs.  The suites share one
    certificate ledger (``opnorm``), closed when the call returns or raises.
    The call builds the instance's two sequences and its symbol once and
    hands them to every suite; nothing it builds outlives it.  The report
    echoes the settings it ran with.
    """
    cfg = cfg or DEFAULT_CONFIG
    chosen = list(SUITES) if suites is None else list(suites)
    if not chosen:
        raise ValueError(f"no suites selected; expected a subset of {SUITES}")
    unknown = [s for s in chosen if s not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites {unknown}; expected a subset of {SUITES}")
    if not np.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon!r}")
    # the instance's sequences and symbol, and the perturb suite's family,
    # each built once
    sequences = {"lam": inst.lam_sequence(), "theta": inst.theta_sequence()}
    lam, theta = sequences["lam"], sequences["theta"]
    m = inst.symbol_obj()
    perturbed = functools.cache(lambda: _perturbed_family(lam, cfg, epsilon))
    # when classify and perturb both run, the first of them to run puts
    # lam's three pairs in the ledger with one lockstep ascent
    shared_ascent = "classify" in chosen and "perturb" in chosen

    # classify, equivalences, bounds and dual share one report per sequence,
    # made on first use so that a failure lands in the suite that asked for it
    reports = {}

    def classified(tag):
        if tag not in reports:
            reports[tag] = classify(sequences[tag], cfg)
        return reports[tag]

    # bounds, multiply and invert likewise share one forward multiplier
    forward = functools.cache(lambda: assemble(m, lam, theta))
    results = []
    with certificate_ledger():
        for name in chosen:
            t0 = time.perf_counter()
            try:
                if shared_ascent and name in ("classify", "perturb"):
                    shared_ascent = False
                    _certify_lam_pairs(lam, perturbed, cfg)
                if name == "classify":
                    res = _check_classify(sequences, cfg, classified)
                elif name == "equivalences":
                    res = _check_equivalences(sequences, classified)
                elif name == "duality":
                    res = _check_duality(lam, cfg)
                elif name == "bounds":
                    res = _check_bounds(inst, cfg, classified, forward)
                elif name == "dual":
                    res = _check_dual(sequences, cfg, classified)
                elif name == "multiply":
                    res = _check_multiply(cfg, forward)
                elif name == "invert":
                    res = _check_invert(cfg, forward)
                elif name == "perturb":
                    res = _check_perturb(lam, cfg, perturbed)
                else:
                    res = _check_continuity(inst, m, lam, theta, cfg)
            except Exception as exc:
                res = CheckResult(name, "fail", f"{type(exc).__name__}: {exc}")
            wall = (time.perf_counter() - t0) * 1000.0
            # names such as "lam.A" are built per report; interned, every report
            # kept alive shares one copy of each instead of holding its own
            values = {sys.intern(k): v for k, v in res.values.items()}
            results.append(CheckResult(res.name, res.status, res.reason, values, wall))
    # the instance's own specs, rendered by to_dict: a report kept alive holds
    # no per-component copies
    summary = {
        "x1": inst.x1,
        "x2": inst.x2,
        "components": inst.components,
        "frame_exponent": inst.frame_exponent,
        "index_count": len(inst.components),
        "seed": inst.seed,
    }
    echo = {
        "seed": cfg.seed,
        "tol_exact": cfg.tol_exact,
        "restarts": cfg.restarts,
        "epsilon": epsilon,
        "n_max": cfg.n_max,
    }
    return CheckReport(summary, echo, tuple(results))
