"""Frozen copies of the column kernels and the ascent loop before their fast
paths, kept as bitwise references for the tests.

``pnorm_many`` and ``holder_witness_many`` take every scaled form through
``np.where``, and the witness is normalized by a full ``pnorm_many``; the
product kernels reduce one run of equal blocks per call; ``ascend`` forms
A X once for the norm step and again for the next iteration's norming
functional.  The current kernels and ``opnorm._ascend`` must give the same
bits.
"""
import itertools
import math

import numpy as np

from pgframes.spaces import INF, as_exponent, conjugate_exponent

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
