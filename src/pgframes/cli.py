"""Command-line interface: instance generation, checks and reports.

Exit codes: 0 all selected checks passed, 1 at least one failed, 2 usage or
parse errors.  Reports go to stdout, diagnostics to stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .checks import SUITES, run_checks
from .config import DEFAULT_CONFIG
from .frames import NotRieszError, dual_riesz_basis
from .generate import GEN_KINDS, GenerationError, gen
from .instances import InstanceFormatError, load, serialize
from .multipliers import (
    InverseVerificationError,
    SymbolTooSmallError,
    assemble,
    invert,
)
from .perturbation import CONTINUITY_KINDS, ContinuityViolation, continuity_suite


def _exponent(text: str) -> float:
    if text.strip().lower() == "inf":
        return math.inf
    try:
        return float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad exponent {text!r}") from exc


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _int_list(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc


def _float_list(text: str) -> list[float]:
    return [_exponent(t) for t in text.split(",") if t.strip()]


def _add_globals(p: argparse.ArgumentParser, suppress: bool) -> None:
    # accepted before or after the subcommand; suppressed defaults keep the
    # subparser from clobbering values parsed at the top level
    d = (lambda v: argparse.SUPPRESS if suppress else v)
    p.add_argument("--seed", type=int, default=d(DEFAULT_CONFIG.seed))
    p.add_argument("--tol-exact", type=float, default=d(DEFAULT_CONFIG.tol_exact))
    p.add_argument("--restarts", type=int, default=d(DEFAULT_CONFIG.restarts))
    p.add_argument("--output", choices=("json", "text"), default=d("text"))


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pgframes",
        description="Operator frame sequences, Bessel multipliers and certified bounds.",
    )
    _add_globals(ap, suppress=False)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a random instance of a requested kind")
    _add_globals(g, suppress=True)
    g.add_argument("--kind", choices=GEN_KINDS, default="riesz-pair")
    g.add_argument("--x2-dim", type=int, required=True)
    g.add_argument("--y-dims", type=_int_list, required=True, metavar="D1,D2,...")
    g.add_argument("--x1-dim", type=int, default=None)
    g.add_argument("--frame-exponent", type=_exponent, default=2.0)
    g.add_argument("--x1-exponent", type=_exponent, default=2.0)
    g.add_argument("--x2-exponent", type=_exponent, default=2.0)
    g.add_argument("--y-exponents", type=_float_list, default=None, metavar="R1,R2,...")
    g.add_argument("--symbol-min", type=float, default=0.2)
    g.add_argument("--out", default=None, help="write to this path instead of stdout")

    c = sub.add_parser("check", help="run check suites over an instance file")
    _add_globals(c, suppress=True)
    c.add_argument("instance")
    c.add_argument("--suites", default=None, metavar=",".join(SUITES[:3]) + ",...")
    c.add_argument("--epsilon", type=float, default=0.01)
    c.add_argument("--n-max", type=_positive_int, default=DEFAULT_CONFIG.n_max)

    for name, help_text in (
        ("bounds", "the bounds suite: multiplier norm bounds and the direct estimate"),
        ("dual", "dual Riesz bases with residuals"),
        ("multiply", "assemble the multiplier matrix"),
        ("invert", "invert the multiplier via the dual bases"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_globals(p, suppress=True)
        p.add_argument("instance")
        if name == "multiply":
            p.add_argument("--apply", type=_float_list, default=None, metavar="G1,G2,...")

    p = sub.add_parser("perturb", help="perturbation bound report")
    _add_globals(p, suppress=True)
    p.add_argument("instance")
    p.add_argument("--epsilon", type=float, default=0.01)

    p = sub.add_parser("continuity", help="parameter-continuity traces")
    _add_globals(p, suppress=True)
    p.add_argument("instance")
    p.add_argument("--kind", choices=CONTINUITY_KINDS, default="joint")
    p.add_argument("--p1", type=_exponent, default=None)
    p.add_argument("--n-max", type=_positive_int, default=DEFAULT_CONFIG.n_max)
    return ap


def _config_from(args) -> "DEFAULT_CONFIG.__class__":
    return dataclasses.replace(
        DEFAULT_CONFIG,
        seed=args.seed,
        tol_exact=args.tol_exact,
        restarts=args.restarts,
        n_max=getattr(args, "n_max", DEFAULT_CONFIG.n_max),
    )


def _emit(doc: dict, mode: str, text_renderer=None) -> None:
    if mode == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    elif text_renderer is not None:
        print(text_renderer())
    else:
        for k, v in doc.items():
            print(f"{k}: {v}")


def _cmd_gen(args, cfg) -> int:
    try:
        inst = gen(
            args.kind,
            x2_dim=args.x2_dim,
            y_dims=args.y_dims,
            x1_dim=args.x1_dim,
            frame_exponent=args.frame_exponent,
            x1_exponent=args.x1_exponent,
            x2_exponent=args.x2_exponent,
            y_exponents=args.y_exponents,
            seed=args.seed,
            symbol_min=args.symbol_min,
            cfg=cfg,
        )
    except GenerationError as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return 2
    text = serialize(inst)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text)
    return 0


def _run_suites(args, cfg, suites, **kwargs) -> int:
    report = run_checks(load(args.instance), suites, cfg, **kwargs)
    _emit(report.to_dict(), args.output, report.render_text)
    return 0 if report.ok else 1


def _cmd_check(args, cfg) -> int:
    suites = args.suites
    if suites is not None:  # an empty selection stays empty, and run_checks refuses it
        suites = [s.strip() for s in suites.split(",")] if suites.strip() else []
    return _run_suites(args, cfg, suites, epsilon=args.epsilon)


def _cmd_dual(args, cfg) -> int:
    inst = load(args.instance)
    doc, code = {}, 0
    for tag, seq in (("lam", inst.lam_sequence()), ("theta", inst.theta_sequence())):
        try:
            dual = dual_riesz_basis(seq, cfg)
        except NotRieszError as exc:
            doc[tag] = f"skipped: {exc}"
            continue
        doc[f"{tag}.biorthogonality_residual"] = dual.residual
        doc[f"{tag}.mats"] = [m.tolist() for m in dual.mats]
        if dual.residual > 1e-9:
            code = 1
    _emit(doc, args.output)
    return code


def _cmd_multiply(args, cfg) -> int:
    inst = load(args.instance)
    M = assemble(inst.symbol_obj(), inst.lam_sequence(), inst.theta_sequence())
    doc = {
        "matrix": M.matrix.tolist(),
        "domain": {"dim": M.domain.dim, "exponent": str(M.domain.exponent)},
        "codomain": {"dim": M.codomain.dim, "exponent": str(M.codomain.exponent)},
        "advisories": list(M.advisories),
    }
    if args.apply is not None:
        doc["applied"] = M.apply(np.array(args.apply)).entries.tolist()
    _emit(doc, args.output)
    return 0


def _cmd_invert(args, cfg) -> int:
    inst = load(args.instance)
    M = assemble(inst.symbol_obj(), inst.lam_sequence(), inst.theta_sequence())
    try:
        inv, res_l, res_r = invert(M, cfg)
    except (SymbolTooSmallError, NotRieszError) as exc:
        print(f"invert skipped: {exc}", file=sys.stderr)
        _emit({"status": "skipped", "reason": str(exc)}, args.output)
        return 0
    except InverseVerificationError as exc:
        print(f"invert failed: {exc}", file=sys.stderr)
        _emit({"status": "fail", "reason": str(exc)}, args.output)
        return 1
    doc = {
        "inverse": inv.matrix.tolist(),
        "residual_left": res_l,
        "residual_right": res_r,
    }
    _emit(doc, args.output)
    return 0


def _cmd_continuity(args, cfg) -> int:
    inst = load(args.instance)
    p1 = args.p1 if args.p1 is not None else inst.p1
    if p1 is None:
        p1 = 2.0
    try:
        traces = continuity_suite(
            args.kind,
            inst.symbol_obj(),
            inst.lam_sequence(),
            inst.theta_sequence(),
            p1,
            cfg,
        )
    except ContinuityViolation as exc:
        print(f"continuity violated: {exc}", file=sys.stderr)
        return 1

    def step(t) -> dict:
        d = {"n": t.n, "deviation": t.deviation, "measured": t.measured, "bound": t.bound}
        if t.components is not None:  # the three terms of a joint bound
            d["components"] = list(t.components)
        return d

    doc = {
        "kind": args.kind,
        "p1": p1,
        "steps": [step(t) for t in traces],
        "final_bound": traces[-1].bound,
    }

    def text():
        lines = [f"continuity kind={args.kind} p1={p1}"]
        for t in traces:
            line = (
                f"  n={t.n:3d}  deviation={t.deviation:.3e}  "
                f"measured={t.measured:.3e}  bound={t.bound:.3e}"
            )
            if t.components is not None:
                line += "  components=" + ",".join(f"{c:.3e}" for c in t.components)
            lines.append(line)
        return "\n".join(lines)

    _emit(doc, args.output, text)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = _config_from(args)
    try:
        if args.command == "gen":
            return _cmd_gen(args, cfg)
        if args.command == "check":
            return _cmd_check(args, cfg)
        if args.command == "bounds":
            return _run_suites(args, cfg, ["bounds"])
        if args.command == "dual":
            return _cmd_dual(args, cfg)
        if args.command == "multiply":
            return _cmd_multiply(args, cfg)
        if args.command == "invert":
            return _cmd_invert(args, cfg)
        if args.command == "perturb":
            return _run_suites(args, cfg, ["perturb"], epsilon=args.epsilon)
        if args.command == "continuity":
            return _cmd_continuity(args, cfg)
    except InstanceFormatError as exc:
        print(f"instance error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"cannot read instance: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
