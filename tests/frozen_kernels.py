"""Frozen copies of the column kernels and the ascent loop before their fast
paths, and of the continuity suite before its batch, kept as bitwise
references for the tests; and of the scalar norm and witness routes before
they became one column of their kernels, kept as references for the size of
that value change.

``pnorm_many`` and ``holder_witness_many`` take every scaled form through
``np.where``, and the witness is normalized by a full ``pnorm_many``; the
product kernels reduce one run of equal blocks per call; ``ascend`` forms
A X once for the norm step and again for the next iteration's norming
functional.  The current kernels and ``opnorm._ascend`` must give the same
bits.

``upper_from_blocks`` is the blockwise upper certificate before the blocks of
a run of equal components went to one stacked pass: one
``upper_certificate_only`` call per block.  The stacked pass must give the
same bits.

The scalar ``pnorm`` took its p = 2 norm from ``np.linalg.norm`` (a BLAS
dot product) and every other root from Python's float pow, ``holder_witness``
normalized by that ``pnorm``, and a product's scalar norm looped over its
blocks.  The current routes must agree with them within the rounding bound
that the tests derive.
"""
import itertools
import math

import numpy as np

from pgframes import spaces
from pgframes.opnorm import BoundCertificate, upper_certificate_only
from pgframes.spaces import INF, ProductSpaceSpec, as_exponent, conjugate_exponent

_SQUARES_BIG, _SQUARES_TINY = 2.0**480, 2.0**-500


def pnorm_many(cols, p):
    a = np.abs(np.asarray(cols, dtype=float))
    if math.isinf(p):
        return a.max(axis=-2)
    if p == 1.0:
        return a.sum(axis=-2)
    if p == 2.0:
        fits = a.max(axis=(-2, -1), initial=0.0) < _SQUARES_BIG
        b = a if fits.all() else a * fits[..., None, None]
        r = np.sqrt((b * b).sum(axis=-2))
        plain = r.min(axis=-1, initial=INF) > _SQUARES_TINY
        if plain.all():
            return r
    m = a.max(axis=-2, initial=0.0)
    safe = np.where(m > 0.0, m, 1.0)
    s = np.power(a / safe[..., None, :], p).sum(axis=-2)
    scaled = np.where(m > 0.0, safe * s ** (1.0 / p), 0.0)
    if p == 2.0 and plain.any():
        return np.where(plain[..., None], r, scaled)
    return scaled


def holder_witness_many(functionals, p):
    U = np.asarray(functionals, dtype=float)
    p = as_exponent(p)
    if p == 1.0:
        top = np.abs(U).argmax(axis=-2)
        hit = np.arange(U.shape[-2])[:, None] == top[..., None, :]
        return np.where(hit, np.sign(U), 0.0)
    if math.isinf(p):
        return np.sign(U)
    q = conjugate_exponent(p)
    top = np.abs(U).max(axis=-2)
    safe = np.where(top > 0.0, top, 1.0)
    W = np.sign(U) * np.power(np.abs(U) / safe[..., None, :], q - 1.0)
    norms = pnorm_many(W, p)
    return W / np.where(norms > 0.0, norms, 1.0)[..., None, :]


def pnorm(entries, p):
    """The scalar p-norm as it was, with its own branches."""
    a = np.abs(np.asarray(entries, dtype=float)).ravel()
    if a.size == 0:
        return 0.0
    m = float(a.max())
    if m == 0.0 or math.isinf(p):
        return m
    if p == 1.0:
        return float(a.sum())
    if p == 2.0 and _SQUARES_TINY < m < _SQUARES_BIG:
        return float(np.linalg.norm(a))
    return m * float(np.power(a / m, p).sum()) ** (1.0 / p)


def holder_witness(functional, p):
    """The scalar Hoelder witness as it was, normalized by the scalar pnorm."""
    u = np.asarray(functional, dtype=float).ravel()
    p = as_exponent(p)
    top = float(np.abs(u).max(initial=0.0))
    if top == 0.0:
        return np.zeros_like(u)
    if p == 1.0:
        j = int(np.argmax(np.abs(u)))
        x = np.zeros_like(u)
        x[j] = math.copysign(1.0, u[j])
        return x
    if math.isinf(p):
        return np.sign(u)
    q = conjugate_exponent(p)
    w = np.sign(u) * np.power(np.abs(u) / top, q - 1.0)
    return w / pnorm(w, p)


def product_norm(space, flat):
    """A product's scalar norm as it was: the scalar pnorm of each block, then
    of the block norms (``mixed_norm`` looped the same way)."""
    flat = np.asarray(flat, dtype=float).ravel()
    inner, at = [], 0
    for c in space.components:
        inner.append(pnorm(flat[at : at + c.dim], c.exponent))
        at += c.dim
    return pnorm(np.array(inner), space.outer_exponent)


def _slabs(space, cols):
    """(exponent, block slice, (..., k, dim, N) view) per run of equal blocks."""
    out, block, row = [], 0, 0
    lead, n = cols.shape[:-2], cols.shape[-1]
    for c, same in itertools.groupby(space.components):
        k = len(tuple(same))
        view = cols[..., row : row + k * c.dim, :].reshape(*lead, k, c.dim, n)
        out.append((c.exponent, slice(block, block + k), view))
        block, row = block + k, row + k * c.dim
    return out


def norm_many(space, cols):
    """A space's ``norm_many``: a SpaceSpec or a ProductSpaceSpec."""
    cols = np.asarray(cols, dtype=float)
    if not hasattr(space, "components"):
        return pnorm_many(cols, space.exponent)
    inner = np.empty((*cols.shape[:-2], len(space.components), cols.shape[-1]))
    for r, blocks, S in _slabs(space, cols):
        inner[..., blocks, :] = pnorm_many(S, r)
    return pnorm_many(inner, space.outer_exponent)


def witness_many(space, functionals):
    """A space's ``witness_many``: a SpaceSpec or a ProductSpaceSpec."""
    U = np.asarray(functionals, dtype=float)
    if not hasattr(space, "components"):
        return holder_witness_many(U, space.exponent)
    slabs = _slabs(space, U)
    duals = np.empty((*U.shape[:-2], len(space.components), U.shape[-1]))
    for r, blocks, S in slabs:
        duals[..., blocks, :] = pnorm_many(S, conjugate_exponent(r))
    weights = holder_witness_many(duals, space.outer_exponent)
    out = np.empty_like(U)
    row = 0
    for r, blocks, S in slabs:
        W = weights[..., blocks, None, :] * holder_witness_many(S, r)
        *lead, k, d, n = S.shape
        out[..., row : row + k * d, :] = W.reshape(*lead, k * d, n)
        row += k * d
    return out


def ascend(A, X, dom, cod, max_iterations, ratio_tol=1e-12):
    """The lockstep ascent loop as it was, on the frozen kernels."""
    values, witnesses = np.empty(len(A)), np.empty(A.shape[::2])

    def finish(slices, best_vals, best_X):
        j = np.argmax(best_vals, axis=-1)
        rows = np.arange(len(j))
        values[slices] = best_vals[rows, j]
        witnesses[slices] = best_X[rows, :, j]

    live = np.arange(len(A))
    cod_dual = cod.dual
    best_vals = norm_many(cod, A @ X)
    best_X = X.copy()
    prev = best_vals.copy()
    for _ in range(max_iterations):
        Z = witness_many(cod_dual, A @ X)
        Xn = witness_many(dom, np.swapaxes(A, -1, -2) @ Z)
        stalled = ~Xn.any(axis=-2)
        if stalled.any():
            np.copyto(Xn, X, where=stalled[:, None, :])
        X = Xn
        vals = norm_many(cod, A @ X)
        improved = vals > best_vals
        if improved.any():
            best_vals = np.where(improved, vals, best_vals)
            np.copyto(best_X, X, where=improved[:, None, :])
        done = np.all(
            np.abs(vals - prev) <= ratio_tol * np.maximum(np.abs(vals), np.abs(prev)), axis=-1
        )
        if done.any():
            finish(live[done], best_vals[done], best_X[done])
            if done.all():
                return values, witnesses
            on = ~done
            live, A, X, best_vals, best_X, vals = (
                live[on], A[on], X[on], best_vals[on], best_X[on], vals[on]
            )
        prev = vals
    finish(live, best_vals, best_X)
    return values, witnesses


# The continuity suite as it was: one kind per call, one gap per step, a
# SHA-256 memo per kind, one opnorm call per kind for its distinct gaps, and
# one factored QR/SVD stack per kind on the l^2 route.  The batched suite
# must give the same traces, bit for bit.

def continuity_schedule(kind, m, lam, theta, n_max):
    """The steps (n, d_sym, L1, T1) of the 2^-n schedule of ``kind``."""

    def bump(a, n):
        e = np.zeros(a.shape)
        e[0, 0] = 1.0
        return a + 2.0 ** (-n) * e

    L, T = lam.mats[0], theta.mats[0]
    steps = []
    for n in range(1, n_max + 1):
        e = m.entries.copy()
        if kind in ("symbol", "joint"):
            e[0] += 2.0 ** (-n)
        L1 = bump(L, n) if kind in ("lambda", "joint") else L
        T1 = bump(T, n) if kind in ("theta", "joint") else T
        steps.append((n, e - m.entries, L1, T1))
    return steps


def multiplier_gap(m, lam, theta, d_sym, L1, T1):
    """One step's gap, a term whose parameter difference is zero left out."""
    L, T = lam.mats[0], theta.mats[0]
    gap = np.zeros((lam.domain.dim, theta.domain.dim))
    if d_sym[0]:
        gap += d_sym[0] * (L1.T @ T1)
    if not np.array_equal(L1, L):
        gap += m.entries[0] * ((L1 - L).T @ T1)
    if not np.array_equal(T1, T):
        gap += m.entries[0] * (L.T @ (T1 - T))
    return gap


def _lower_values(gaps, dom, cod, cfg):
    import hashlib

    from pgframes.opnorm import matrix_opnorm, operator_norm_bounds_many

    distinct, steps = {}, []
    for A in gaps:
        s = float(np.abs(A).max(initial=0.0))
        if s == 0.0 or not math.isfinite(s):
            steps.append((matrix_opnorm(A, dom.exponent, cod.exponent, cfg).lower.value, None))
            continue
        B = A / s
        key = hashlib.sha256(B.tobytes()).digest()
        distinct.setdefault(key, B)
        steps.append((s, key))
    memo = {}
    if distinct:
        pairs = operator_norm_bounds_many(np.stack(list(distinct.values())), dom, cod, cfg, 0)
        memo = {key: pair.lower.value for key, pair in zip(distinct, pairs)}
    return [v if key is None else v * memo[key] for v, key in steps]


def _euclidean_gap_norms(m, lam, theta, steps):
    def exponent(A):
        s = float(np.abs(A).max())
        return math.frexp(s)[1] if math.isfinite(s) else 0

    L1s = np.stack([L1 for _, _, L1, _ in steps])
    T1s = np.stack([T1 for _, _, _, T1 in steps])
    eL, eT = exponent(L1s), exponent(T1s)
    L1s, L = np.ldexp(L1s, -eL), np.ldexp(lam.mats[0], -eL)
    T1s, T = np.ldexp(T1s, -eT), np.ldexp(theta.mats[0], -eT)
    m0 = m.entries[0]
    d = np.array([d_sym[0] for _, d_sym, _, _ in steps])[:, None, None]
    P = np.concatenate((L1s, L1s - L, np.broadcast_to(L, L1s.shape)), axis=1)
    Q = np.concatenate((d * T1s, m0 * T1s, m0 * (T1s - T)), axis=1)
    R_P = np.linalg.qr(P.transpose(0, 2, 1), mode="r")
    R_Q = np.linalg.qr(Q.transpose(0, 2, 1), mode="r")
    cores = R_P @ R_Q.transpose(0, 2, 1)
    v = np.linalg.svd(cores)[2][:, 0, :, None]
    norms = np.linalg.norm(cores @ v, axis=(1, 2)) / np.linalg.norm(v, axis=(1, 2))
    return [math.ldexp(x, eL + eT) for x in norms.tolist()]


def continuity_suite(kind, m, lam, theta, p1, cfg, bessel=None):
    """One kind's traces as (n, deviation, measured, bound, components)
    tuples, or the message of the violation it raised."""
    from pgframes.operators import OperatorSequence, analysis_upper

    if bessel is None:
        bessel = (analysis_upper(lam, cfg), analysis_upper(theta, cfg))
    B_lam, B_theta = (b.value for b in bessel)
    m_p1 = m.p_norm(p1)
    steps = continuity_schedule(kind, m, lam, theta, cfg.n_max)

    def upper_with(seq, M1):
        bumped = OperatorSequence(
            seq.domain, seq.codomains, (M1,) + seq.mats[1:], seq.frame_exponent
        )
        return analysis_upper(bumped, cfg).value

    B1 = B2 = None
    if kind == "joint":
        ends = steps if len(steps) == 1 else (steps[0], steps[-1])
        B1 = max(upper_with(lam, L1) for _, _, L1, _ in ends)
        B2 = max(upper_with(theta, T1) for _, _, _, T1 in ends)
    gap_dom, gap_cod = theta.domain, lam.domain.dual
    if gap_dom.is_euclidean and gap_cod.is_euclidean:
        measured_all = _euclidean_gap_norms(m, lam, theta, steps)
    else:
        gaps = (multiplier_gap(m, lam, theta, d_sym, L1, T1) for _, d_sym, L1, T1 in steps)
        measured_all = _lower_values(gaps, gap_dom, gap_cod, cfg)
    L, T = lam.mats[0], theta.mats[0]
    traces = []
    for (n, d_sym, L1, T1), measured in zip(steps, measured_all):
        sym_gap = float(abs(d_sym[0]))
        lam_gap = float(abs(L1[0, 0] - L[0, 0]))
        theta_gap = float(abs(T1[0, 0] - T[0, 0]))
        components = None
        if kind == "symbol":
            deviation, bound = sym_gap, B_lam * B_theta * sym_gap
        elif kind == "theta":
            deviation, bound = theta_gap, B_lam * m_p1 * theta_gap
        elif kind == "lambda":
            deviation, bound = lam_gap, B_theta * m_p1 * lam_gap
        else:
            components = (B1 * B2 * sym_gap, B2 * m_p1 * lam_gap, B_lam * m_p1 * theta_gap)
            deviation, bound = max(sym_gap, lam_gap, theta_gap), sum(components)
        if measured > bound + 1e-9:
            return f"step {n}: measured {measured:.3e} exceeds bound {bound:.3e}"
        traces.append((n, deviation, measured, bound, components))
    if len(traces) >= 2 and traces[0][3] > 0.0 and traces[-1][3] > 0.5 * traces[0][3]:
        return f"bounds do not decay: {traces[0][3]:.3e} -> {traces[-1][3]:.3e}"
    return traces


def upper_from_blocks(A, dom, cod, cfg):
    """The blockwise aggregate upper certificate, one call per block; the
    aggregate is the current ``pnorm``, which the stacked pass keeps."""
    if isinstance(cod, ProductSpaceSpec):
        vals = [
            upper_certificate_only(A[o : o + c.dim], dom, c, cfg).value
            for o, c in zip(cod.offsets, cod.components)
        ]
        total = spaces.pnorm(np.array(vals), cod.outer_exponent)
    else:
        vals = [
            upper_certificate_only(A[:, o : o + c.dim], c, cod, cfg).value
            for o, c in zip(dom.offsets, dom.components)
        ]
        total = spaces.pnorm(np.array(vals), conjugate_exponent(dom.outer_exponent))
    return BoundCertificate(total, "upper_certificate", "blockwise-aggregate")


def euclidean_uppers(Bs):
    """The upper certificates of a stack between Euclidean spaces, divided by
    its largest entries, before the slices went to one stacked SVD: one
    ``np.linalg.svd`` call per slice."""
    svds = (np.linalg.svd(B) for B in Bs)
    return [BoundCertificate(s[0], "exact", "singular-value", vt[0]) for _, s, vt in svds]
