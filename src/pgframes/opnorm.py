"""Matrix operator norms between l^p spaces, with certificates.

Every norm query returns a pair of certificates: a witness-backed lower
estimate (an input vector whose ratio reproduces the value) and a certified
upper bound.  Exponent pairs with closed forms are solved exactly:

* p = r = 2: largest singular value,
* p = 1: max over columns of the column's r-norm,
* r = inf: max over rows of the row's conjugate-p norm,
* p = inf: sign-vector enumeration while the dimension allows it.

Everything else falls back to a multistart alternating ascent on the norm
ratio (fixed-point iteration through the Hoelder witness maps) for the lower
side, and for the upper side to the minimum of the Hoelder (column and row)
and singular-value-times-dimension bounds, aggregated blockwise on product
spaces.  ``upper_certificate_only`` is the one route to the upper side;
``operator_norm_bounds`` adds the ascent only when that side is not exact.
The ascent has one route, ``multistart_lower_many``, which runs a stack of
matrices in lockstep and gives each the bits of a run on it alone;
``multistart_lower`` is its one-matrix case.  Each iteration takes the two
steps of ``spaces.ascent_steps``, resolved once per ascent: ``lift`` maps the
norming functionals through the domain's Hoelder witnesses, and ``measure``
takes the codomain norms of A X, which end the iteration, and the norming
functionals that start the next from one pass over |A X|.
``operator_norm_bounds_many`` gives a stack its certificate pairs with one
ascent for all its non-exact slices; ``operator_norm_bounds`` is its
one-matrix case.  Both stacked routes take a random stream per slice (one
int, or one int per slice): a slice draws its start columns from its own
stream, so callers whose ascents use different streams on the same spaces
share one lockstep ascent, and each slice keeps the bits of its own call.
The package's ascent streams are named here (``*_STREAM``).
Between plain spaces with no closed form, the stack's upper sides come from
one pass too: stacked column and row norms, one stacked SVD, and the outer
step per slice, with the bits of ``upper_certificate_only`` on each slice;
on product spaces each run of equal blocks takes one such pass.

``block_upper_certificates`` gives each block of a matrix on a product
space its own upper certificate, with one stacked pass per run of equal
blocks; the blockwise aggregate sums them, and ``perturbation_check`` takes
the per-member certificates of its gap K from it.  Between Euclidean spaces
a stack's upper certificates come from stacked SVDs, in chunks that bound
the singular vectors held at once (``SVD_CHUNK``).

While a ``certificate_ledger()`` block is open (``run_checks`` opens one per
call), ``upper_certificate_only``, ``block_upper_certificates`` and
``operator_norm_bounds_many`` look up each slice's certificate, block ones
included, before computing it and store it after.  The key is the matrix the
route computes on, divided by its largest entry, with its shape, its strides
(the rounding of a column sum depends on the layout), the two spaces and an
ascent's stream; a hit is the stored result of a computation, bit for bit.
The same ledger keeps other objects of the run under keys of their own
(``from_ledger``): ``frames.dual_riesz_basis`` keeps each inverse synthesis
matrix there, and ``linalg_once`` the rank and the inverse of each matrix
that ``classify`` and ``min_ratio_estimate`` both take.  No entry outlives
the block: a process-wide store would turn repeated runs into lookups, and
their timing into a timing of the store.

``min_ratio_estimate`` is the one witness-backed estimate of the smallest
ratio; for a square matrix of full rank it is one over the ascent on the
inverse.

All certificate values are computed on the matrix scaled by its largest entry
and rescaled afterwards, so both sides are exactly homogeneous.  Callers may
rely on this bit for bit: with s = max|A|, the largest entry of A / s is
exactly 1.0, so the value at A equals s times the value at A / s.
"""
from __future__ import annotations

import contextlib
import math
from contextvars import ContextVar
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_CONFIG, NumericsConfig
from .spaces import (
    ProductSpaceSpec,
    SpaceSpec,
    ascent_steps,
    conjugate_exponent,
    pnorm,
    pnorm_many,
)

__all__ = [
    "BoundCertificate",
    "BoundPair",
    "VertexLimitError",
    "block_upper_certificates",
    "certificate_ledger",
    "from_ledger",
    "linalg_once",
    "matrix_opnorm",
    "operator_norm_bounds",
    "operator_norm_bounds_many",
    "min_ratio_estimate",
    "multistart_lower",
    "multistart_lower_many",
    "upper_certificate_only",
]

KINDS = ("exact", "upper_certificate", "lower_estimate")
RATIO_TOL = 1e-12    # relative stop criterion of the ascent on successive ratios
SAMPLE_BATCH = 2048  # vectorized random candidates for minima
SVD_CHUNK = 1 << 14  # floats of singular vectors per stacked SVD call (128 KiB)

MATRIX_STREAM = 0     # matrix_opnorm and the continuity gaps
ANALYSIS_STREAM = 11  # analysis_opnorm and perturbation_check
BESSEL_STREAM = 21    # classify's Bessel pair
INVERSE_STREAM = 24   # classify's ascent on the inverse

_ledger: ContextVar[dict | None] = ContextVar("pgframes_certificate_ledger", default=None)


class VertexLimitError(RuntimeError):
    """Exact l^inf-domain norm requested beyond the sign-enumeration cap."""


@dataclass(frozen=True)
class BoundCertificate:
    """A numeric bound with provenance.

    ``kind`` states the relation of ``value`` to the true extremal quantity:
    ``exact`` (equal up to rounding), ``upper_certificate`` (proven >=), or
    ``lower_estimate`` (proven <=).  When ``witness`` is present, evaluating
    the underlying norm ratio at it reproduces ``value`` to rounding accuracy;
    certificates obtained from aggregate bounds or from the reciprocal of an
    inverse's upper bound carry no witness and say so in ``method``.
    """

    value: float
    kind: str
    method: str = ""
    witness: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        object.__setattr__(self, "value", float(self.value))
        if self.witness is not None:
            # an owned copy: a row of an SVD factor would keep the factor alive
            object.__setattr__(self, "witness", np.array(self.witness))

    def scaled(self, factor: float) -> "BoundCertificate":
        return BoundCertificate(factor * self.value, self.kind, self.method, self.witness)


class BoundPair(NamedTuple):
    lower: BoundCertificate
    upper: BoundCertificate


def _rng(cfg: NumericsConfig, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, 0x6F70, stream, index])


def _per_slice(stream, k: int) -> np.ndarray:
    """A stream argument, one int or one int per slice, as k ints."""
    return np.broadcast_to(np.asarray(stream, dtype=np.int64), (k,))


@contextlib.contextmanager
def certificate_ledger():
    """Hold a certificate ledger open for the ``with`` block (module docstring);
    an enclosing block's ledger is set aside and given back on exit."""
    token = _ledger.set({})
    try:
        yield
    finally:
        _ledger.reset(token)


def from_ledger(table: str, key, compute):
    """``compute()``, kept under ``key`` in the open ledger's ``table``: made
    once per ``certificate_ledger`` block, and by every call while none is
    open.  A call that raises stores nothing.  This is how objects other
    than certificates, such as ``frames``' dual bases, are made once per
    run."""
    ledger = _ledger.get()
    if ledger is None:
        return compute()
    store = ledger.setdefault(table, {})
    if key not in store:
        store[key] = compute()
    return store[key]


def linalg_once(fn, A: np.ndarray):
    """``fn(A)`` for a ``np.linalg`` function of one matrix (``matrix_rank``,
    ``inv``), kept in the open ledger under the function's name and A's
    shape, strides and bytes; an array result is read-only.  ``classify``
    and ``min_ratio_estimate`` take the rank and the inverse of the stacked
    matrix from here, so a run computes each once."""

    def compute():
        out = fn(A)
        if isinstance(out, np.ndarray):
            out.flags.writeable = False
        return out

    return from_ledger(fn.__name__, (A.shape, A.strides, A.tobytes()), compute)


def _ledgered(Bs: np.ndarray, dom, cod, streams: list, compute) -> list:
    """``compute(Bs, streams)``, through the open ledger: only the distinct
    slices it lacks are computed, as one stack, and stored.  ``Bs`` is
    divided by its largest entries; ``streams`` has one stream (or None, for
    an upper certificate) per slice."""
    ledger = _ledger.get()
    if ledger is None:
        return compute(Bs, streams)
    # one table per space pair, so a lookup hashes the spaces once per call
    table = ledger.setdefault((dom, cod), {})
    keys = [(st, B.shape, B.strides, B.tobytes()) for B, st in zip(Bs, streams)]
    todo = {}  # the first slice of each key the table lacks
    for i, key in enumerate(keys):
        if key not in table:
            todo.setdefault(key, i)
    if todo:
        idx = list(todo.values())
        sub = Bs if len(idx) == len(Bs) else Bs[idx]
        table.update(zip(todo, compute(sub, [streams[i] for i in idx])))
    return [table[key] for key in keys]


def _normalize(space, x: np.ndarray) -> np.ndarray | None:
    n = space.norm(x)
    if n == 0.0 or not math.isfinite(n):
        return None
    return x / n


def _stacked_svd(As: np.ndarray, pick, shape: tuple, **kwargs):
    """``pick`` of each slice's ``np.linalg.svd``, as a (k, *shape) array, and
    which slices have one.

    Stacked SVDs: LAPACK runs on each slice alone, so a slice's row has the
    bits of an SVD of that slice.  A stacked call's singular vectors hold at
    most ``SVD_CHUNK`` floats (one slice where a slice's alone exceed it),
    so the stack goes in chunks of slices: a wide m x n slice has an n x n
    factor, and on ``ladder-l2`` larger transient stacks raised the peak
    resident memory.  numpy raises for a whole chunk when any slice fails,
    so then each of its slices is retried alone and only the failing ones go
    without (their rows are zero).
    """
    m, n = As.shape[1:]
    step = max(1, SVD_CHUNK // (m * m + n * n))
    rows, ok = np.zeros((len(As), *shape)), np.zeros(len(As), dtype=bool)
    for start in range(0, len(As), step):
        part = slice(start, start + step)
        try:
            rows[part], ok[part] = pick(np.linalg.svd(As[part], **kwargs)), True
        except np.linalg.LinAlgError:
            for i in range(start, min(start + step, len(As))):
                try:
                    rows[i], ok[i] = pick(np.linalg.svd(As[i : i + 1], **kwargs))[0], True
                except np.linalg.LinAlgError:
                    pass
    return rows, ok


def _start_bundles(As: np.ndarray, dom, cfg: NumericsConfig, stream):
    """Each slice's unit start columns, in groups of slices that keep the same columns.

    A slice's bundle is, in order: its first right singular vector (absent
    where the SVD failed), the ones vector, the first eight coordinate
    vectors, and ``cfg.restarts`` normal columns of (its stream, index 0);
    ``stream`` is one int for every slice or one int per slice.
    Each distinct stream's normal columns are drawn once; the ones and
    coordinate vectors are the same for every slice.  Columns of zero or
    non-finite norm are dropped; the ones vector never is.  A group may mix
    streams: it holds the slices that keep the same columns.  Yields (slice
    indices, (g, n, N) normalized columns).
    """
    n = As.shape[2]
    shared = [np.ones((n, 1)), np.eye(n)[:, : min(n, 8)]]
    uniq, which = np.unique(_per_slice(stream, len(As)), return_inverse=True)
    if cfg.restarts > 0 and uniq.size:
        normals = np.stack(
            [_rng(cfg, int(s), 0).standard_normal((n, cfg.restarts)) for s in uniq]
        )
    tops, has_top = _stacked_svd(As, lambda usv: usv[2][:, 0], (n,))
    for present in (True, False):
        idx = np.flatnonzero(has_top == present)
        if idx.size == 0:
            continue
        cols = [tops[idx, :, None]] if present else []
        cols += [np.broadcast_to(s, (idx.size, *s.shape)) for s in shared]
        if cfg.restarts > 0:
            cols.append(normals[which[idx]])
        X = np.concatenate(cols, -1)
        norms = dom.norm_many(X)
        keep = norms > 0.0
        groups: dict[bytes, list[int]] = {}
        for i, row in enumerate(keep):
            groups.setdefault(row.tobytes(), []).append(i)
        for sub in groups.values():
            kept = keep[sub[0]]
            # the boolean index also gives each slice the column-major layout
            # its first product A @ X has always had
            yield idx[sub], X[sub][:, :, kept] / norms[sub][:, kept][:, None, :]


def _ascend(A: np.ndarray, X: np.ndarray, dom, cod, cfg: NumericsConfig):
    """Lockstep ascent of each (m, n) slice of ``A`` from its (n, N) slice of ``X``.

    Returns each slice's best value and its witness.  A slice leaves the
    active set at the iteration where all of its columns meet ``RATIO_TOL``.
    Each iteration is one ``lift`` and one ``measure`` of ``ascent_steps``.
    """
    values, witnesses = np.empty(len(A)), np.empty(A.shape[::2])

    def finish(slices, best_vals, best_X):
        # max by value, ties to the earliest start
        j = np.argmax(best_vals, axis=-1)
        rows = np.arange(len(j))
        values[slices] = best_vals[rows, j]
        witnesses[slices] = best_X[rows, :, j]

    live = np.arange(len(A))
    measure, lift = ascent_steps(dom, cod)
    # the norming functionals of each norm step start the next iteration
    best_vals, Z = measure(A @ X)
    best_X = X.copy()
    prev = best_vals
    for _ in range(cfg.max_iterations):
        Xn, nonzero = lift(np.swapaxes(A, -1, -2) @ Z)
        if not nonzero:
            # the test norm == 0: a norm is 0 only on an all-zero column (sums,
            # maxima and scaled forms of nonzero |x_i| are positive, and the
            # unscaled p = 2 form is used only above 2^-500)
            stalled = ~Xn.any(axis=-2)
            if stalled.any():
                np.copyto(Xn, X, where=stalled[:, None, :])
        X = Xn
        vals, Z = measure(A @ X)
        improved = vals > best_vals
        if improved.any():
            best_vals = np.where(improved, vals, best_vals)
            np.copyto(best_X, X, where=improved[:, None, :])
        # norms are nonnegative, so max(|vals|, |prev|) is max(vals, prev)
        done = (np.abs(vals - prev) <= RATIO_TOL * np.maximum(vals, prev)).all(axis=-1)
        if done.any():
            finish(live[done], best_vals[done], best_X[done])
            if done.all():
                return values, witnesses
            on = ~done
            live, A, X, Z, best_vals, best_X, vals = (
                live[on], A[on], X[on], Z[on], best_vals[on], best_X[on], vals[on]
            )
        prev = vals
    finish(live, best_vals, best_X)
    return values, witnesses


def multistart_lower_many(
    As, dom, cod, cfg: NumericsConfig, stream
) -> list[BoundCertificate]:
    """Alternating ascent on the norm ratio of each (m, n) slice of a (k, m, n) stack.

    This is the one ascent route; :func:`multistart_lower` is its k = 1 case.
    ``stream`` is one int for every slice or one int per slice: it picks the
    slice's random start columns, so a slice gets the certificate of a call
    on it alone with its own stream.
    Each step maps the current iterates through the norming functional of the
    codomain and back through the Hoelder witness of the domain; the achieved
    ratio is nondecreasing per column.  Each slice starts from its own bundle
    (see :func:`_start_bundles`), and the columns of all slices are iterated
    in lockstep with stacked products and the steps of ``ascent_steps``,
    which choose per slice, never on a flattened (d, k N) view.  A slice
    stops when every one of its columns' successive ratios agree to
    ``RATIO_TOL`` (relative), which is the iteration it would stop at alone,
    and its reduction is max by value with ties to the earliest start.  numpy
    computes stacked products and SVDs slice by slice, so each certificate
    has the bits of a run on its slice alone; the tests pin this, because
    numpy does not promise it.
    """
    As = np.asarray(As, dtype=float)
    values, witnesses = np.empty(len(As)), np.empty(As.shape[::2])
    for idx, X in _start_bundles(As, dom, cfg, stream):
        # the stack as given when the group is all of it: a copy could change
        # a slice's memory layout, and so the rounding of its products
        group = As if len(idx) == len(As) else As[idx]
        values[idx], witnesses[idx] = _ascend(group, X, dom, cod, cfg)
    return [
        BoundCertificate(max(float(v), 0.0), "lower_estimate", "boyd-multistart", w)
        for v, w in zip(values, witnesses)
    ]


def multistart_lower(A, dom, cod, cfg: NumericsConfig, stream: int) -> BoundCertificate:
    """Witness-backed lower estimate of the dom -> cod norm of ``A``:
    :func:`multistart_lower_many` on the one-matrix stack ``A[None]``."""
    return multistart_lower_many(np.asarray(A, dtype=float)[None], dom, cod, cfg, stream)[0]


def _vertex_norm(B: np.ndarray, r: float):
    """Exact l^inf -> l^r norm by sign enumeration (first sign pinned to +1).

    2^(n-1) sign vectors: the caller keeps n within ``cfg.vertex_limit``.
    """
    n = B.shape[1]
    count = 1 << (n - 1) if n > 1 else 1
    best, sigma = -1.0, np.ones(n)
    chunk = 1 << 14
    for start in range(0, count, chunk):
        idx = np.arange(start, min(start + chunk, count), dtype=np.uint64)
        bits = ((idx[:, None] >> np.arange(n - 1, dtype=np.uint64)[None, :]) & 1).astype(float)
        signs = np.empty((idx.size, n))
        signs[:, 0] = 1.0
        signs[:, 1:] = 1.0 - 2.0 * bits
        vals = pnorm_many(B @ signs.T, r)
        j = int(np.argmax(vals))
        if vals[j] > best:
            best, sigma = float(vals[j]), signs[j]
    return best, sigma


def _has_closed_form(shape: tuple, p: float, r: float, cfg: NumericsConfig) -> bool:
    """Whether :func:`_exact_simple` solves a plain l^p -> l^r matrix of this shape.

    It depends on the shape and the exponents alone, never on the entries.
    """
    m, n = shape
    return (
        m == 1
        or n == 1
        or p == 1.0
        or math.isinf(r)
        or (math.isinf(p) and n <= cfg.vertex_limit)
    )


def _exact_simple(B: np.ndarray, p: float, r: float, cfg: NumericsConfig) -> BoundCertificate:
    """Closed-form certificate for a plain l^p -> l^r matrix norm; the caller
    checks :func:`_has_closed_form` first."""
    m, n = B.shape
    if m == 1:
        # a single row is a functional; its norm is the conjugate p-norm
        w = SpaceSpec(n, p).witness(B[0])
        val = pnorm(B[0], conjugate_exponent(p))
        return BoundCertificate(val, "exact", "row-functional", w)
    if n == 1:
        return BoundCertificate(pnorm(B[:, 0], r), "exact", "column-vector", np.ones(1))
    if p == 1.0:
        cols = pnorm_many(B, r)
        j = int(np.argmax(cols))
        w = np.zeros(n)
        w[j] = 1.0
        return BoundCertificate(cols[j], "exact", "max-column", w)
    if math.isinf(r):
        rows = pnorm_many(B.T, conjugate_exponent(p))
        i = int(np.argmax(rows))
        w = SpaceSpec(n, p).witness(B[i])
        return BoundCertificate(rows[i], "exact", "max-row", w)
    val, sigma = _vertex_norm(B, r)
    return BoundCertificate(val, "exact", "vertex-enumeration", sigma)


def _upper_candidates_simple(Bs: np.ndarray, p: float, r: float) -> list[BoundCertificate]:
    """Smallest of the Hoelder and singular-dimension upper bounds of each
    slice of a (k, m, n) stack.

    One pass serves the stack: ``pnorm_many`` gives every slice's column and
    row norms and then their outer Hoelder step, one stacked SVD the largest
    singular value (a slice whose SVD fails goes without that candidate).
    The kernels and LAPACK work slice by slice, so each certificate has the
    bits of a one-slice stack; :func:`upper_certificate_only` is that case,
    with the slice's own memory layout.

    No Riesz-Thorin candidate: it costs a 2^(n-1) sign enumeration and was
    never the minimum on the benchmark workloads or on a sweep of structured
    matrices (dims 2-16, p and r from 1.05 to 50).  Measured, not proven.
    """
    _, m, n = Bs.shape
    q = conjugate_exponent(p)
    holders = [(pnorm_many(pnorm_many(Bs, r)[..., None], q), "columns-holder")]
    if not math.isinf(r):
        rows = pnorm_many(np.swapaxes(Bs, -1, -2), q)
        holders.append((pnorm_many(rows[..., None], r), "rows-holder"))
    smax, has_smax = _stacked_svd(Bs, lambda s: s[:, 0], (), compute_uv=False)
    fac_in = n ** max(0.0, 0.5 - (0.0 if math.isinf(p) else 1.0 / p))
    fac_out = 1.0 if math.isinf(r) else m ** max(0.0, 1.0 / r - 0.5)
    certs = []
    for i in range(len(Bs)):
        cands = [(float(vals[i, 0]), tag) for vals, tag in holders]
        if has_smax[i]:
            cands.append((float(smax[i]) * fac_in * fac_out, "singular-dimension"))
        val, tag = min(cands, key=lambda t: t[0])
        certs.append(BoundCertificate(val, "upper_certificate", tag))
    return certs


def upper_certificate_only(
    A: np.ndarray, dom, cod, cfg: NumericsConfig | None = None
) -> BoundCertificate:
    """Certified upper bound for the dom -> cod operator norm of ``A``.

    ``dom`` and ``cod`` may be SpaceSpec or ProductSpaceSpec (acting on
    flattened block coordinates).  In order: zero matrix, plain closed forms,
    singular value when both sides are Euclidean, then the plain candidates or
    the blockwise aggregate.  Closed forms are ``exact`` and carry a witness.
    It is :func:`_upper_many` on the one-matrix stack ``A[None]``.
    """
    cfg = cfg or DEFAULT_CONFIG
    return _upper_many(np.asarray(A, dtype=float)[None], dom, cod, cfg)[0]


def _upper_many(As: np.ndarray, dom, cod, cfg: NumericsConfig) -> list[BoundCertificate]:
    """The upper certificate of each slice of a (k, m, n) stack, each with the
    bits of a call on its slice alone.

    A zero slice gets the zero matrix's exact certificate.  The others are
    divided by their largest entries and certified by
    :func:`_upper_normalized` through the open ledger.
    """
    if As.shape[1:] != (cod.total_dim, dom.total_dim):
        raise ValueError(
            f"matrix shape {As.shape[1:]} does not map dim {dom.total_dim} to {cod.total_dim}"
        )
    scales = np.abs(As).max(axis=(-2, -1), initial=0.0)
    if not scales.all():
        # the nonzero slices as a stack of their own: indexing keeps the order
        # of each slice's axes in memory, and so the rounding of its sums
        zero = BoundCertificate(0.0, "exact", "zero-matrix", np.zeros(dom.total_dim))
        certs, idx = [zero] * len(As), np.flatnonzero(scales).tolist()
        for i, c in zip(idx, _upper_many(As[idx], dom, cod, cfg) if idx else []):
            certs[i] = c
        return certs
    normalized = _ledgered(
        As / scales[:, None, None], dom, cod, [None] * len(As),
        lambda Bs, _: _upper_normalized(Bs, dom, cod, cfg),
    )
    return [c.scaled(s) for s, c in zip(scales.tolist(), normalized)]


def _upper_normalized(Bs: np.ndarray, dom, cod, cfg: NumericsConfig) -> list[BoundCertificate]:
    """The upper certificate of each slice of a stack divided by its largest
    entries: plain closed forms, the singular value between Euclidean spaces,
    one stacked candidates pass between other plain spaces, and the
    blockwise aggregate on a product."""
    plain = isinstance(dom, SpaceSpec) and isinstance(cod, SpaceSpec)
    if plain and _has_closed_form(Bs.shape[1:], dom.exponent, cod.exponent, cfg):
        return [_exact_simple(B, dom.exponent, cod.exponent, cfg) for B in Bs]
    if dom.is_euclidean and cod.is_euclidean:
        # s[0] and the first row of vt, side by side, from one stacked SVD
        n = Bs.shape[2]
        tops, ok = _stacked_svd(
            Bs, lambda usv: np.concatenate((usv[1][:, :1], usv[2][:, 0]), axis=-1), (n + 1,)
        )
        if not ok.all():  # the slice's own call raises
            raise np.linalg.LinAlgError("SVD did not converge")
        return [BoundCertificate(t[0], "exact", "singular-value", t[1:]) for t in tops]
    if plain:
        return _upper_candidates_simple(Bs, dom.exponent, cod.exponent)
    return [_upper_from_blocks(B, dom, cod, cfg) for B in Bs]


def block_upper_certificates(
    A: np.ndarray, dom, cod, cfg: NumericsConfig | None = None
) -> list[BoundCertificate]:
    """The upper certificate of each block of ``A``, in block order: its row
    blocks A_i when ``cod`` is a product, its column blocks D_i when ``dom``
    is one (exactly one of them must be).

    Each block's certificate has the bits of :func:`upper_certificate_only`
    on that block alone, and goes through the open ledger as that call
    would.  Each run of equal blocks is one :func:`_upper_many` stack of
    views of ``A``, so each block keeps its strides.
    """
    cfg = cfg or DEFAULT_CONFIG
    A = np.asarray(A, dtype=float)
    rows = isinstance(cod, ProductSpaceSpec)
    if rows == isinstance(dom, ProductSpaceSpec):
        raise NotImplementedError("product-to-product norms are not needed here")
    if A.shape != (cod.total_dim, dom.total_dim):
        raise ValueError(
            f"matrix shape {A.shape} does not map dim {dom.total_dim} to {cod.total_dim}"
        )
    if rows:
        return [c for run in cod.runs for c in _upper_many(run.slab(A), dom, run.space, cfg)]
    blocks = [(np.swapaxes(run.slab(A.T), -1, -2), run.space) for run in dom.runs]
    return [c for D, space in blocks for c in _upper_many(D, space, cod, cfg)]


def _upper_from_blocks(A: np.ndarray, dom, cod, cfg: NumericsConfig) -> BoundCertificate:
    """Aggregate the :func:`block_upper_certificates` of ``A`` through the
    outer Hoelder bound."""
    certs = block_upper_certificates(A, dom, cod, cfg)
    if isinstance(cod, ProductSpaceSpec):
        # row blocks: ||{A_i x}||_mixed <= (sum ||A_i||^s)^(1/s) ||x||
        outer = cod.outer_exponent
    else:
        # column blocks: ||sum_i D_i g_i|| <= (sum ||D_i||^s')^(1/s') N(g)
        outer = conjugate_exponent(dom.outer_exponent)
    total = pnorm(np.array([c.value for c in certs]), outer)
    return BoundCertificate(total, "upper_certificate", "blockwise-aggregate")


def operator_norm_bounds_many(
    As, dom, cod, cfg: NumericsConfig | None = None, stream=MATRIX_STREAM
) -> list[BoundPair]:
    """Certificate pairs for the dom -> cod operator norms of the slices of a
    (k, m, n) stack.

    Each slice's upper side is :func:`upper_certificate_only`'s, from one
    stacked pass where the spaces are plain and no closed form applies (see
    :func:`_upper_many`); it doubles as the lower side when exact.  Every
    other slice is divided by its largest entry, and those the open ledger
    lacks go to one :func:`multistart_lower_many` call, whose certificates
    are scaled back.  ``stream`` is one int for every slice or one int per
    slice, so stacks of callers with different streams can share the ascent;
    each pair has the bits of a call on its slice alone with its own stream.
    """
    cfg = cfg or DEFAULT_CONFIG
    As = np.asarray(As, dtype=float)
    streams = _per_slice(stream, len(As))
    uppers = _upper_many(As, dom, cod, cfg)
    idx = [i for i, u in enumerate(uppers) if u.kind != "exact"]
    lowers = list(uppers)
    if idx:
        # the stack as given when every slice ascends: a copy could change a
        # slice's memory layout, and so the rounding of its products
        group = As if len(idx) == len(As) else As[idx]
        scales = np.abs(group).max(axis=(-2, -1))
        certs = _ledgered(
            group / scales[:, None, None], dom, cod, streams[idx].tolist(),
            lambda sub, sub_streams: multistart_lower_many(sub, dom, cod, cfg, sub_streams),
        )
        for i, s, c in zip(idx, scales.tolist(), certs):
            lowers[i] = c.scaled(s)
    return [BoundPair(lo, up) for lo, up in zip(lowers, uppers)]


def operator_norm_bounds(
    A: np.ndarray,
    dom,
    cod,
    cfg: NumericsConfig | None = None,
    exact: str = "auto",
    stream: int = MATRIX_STREAM,
) -> BoundPair:
    """Certificate pair for the dom -> cod operator norm of ``A``:
    :func:`operator_norm_bounds_many` on the one-matrix stack ``A[None]``.

    ``exact='require'`` runs no ascent: it returns the upper side as both
    sides when exact, and otherwise raises :class:`VertexLimitError`.
    ``exact`` is ``'auto'`` or ``'require'``; any other value raises
    ``ValueError``.
    """
    if exact not in ("auto", "require"):
        raise ValueError(f"exact must be 'auto' or 'require', got {exact!r}")
    cfg = cfg or DEFAULT_CONFIG
    A = np.asarray(A, dtype=float)
    if exact == "auto":
        return operator_norm_bounds_many(A[None], dom, cod, cfg, stream)[0]
    upper = upper_certificate_only(A, dom, cod, cfg)
    if upper.kind != "exact":
        raise VertexLimitError(
            f"no closed form for this exponent pair (vertex_limit {cfg.vertex_limit})"
        )
    return BoundPair(upper, upper)


def matrix_opnorm(
    A: np.ndarray,
    from_exponent: float,
    to_exponent: float,
    cfg: NumericsConfig | None = None,
    exact: str = "auto",
) -> BoundPair:
    """l^p -> l^r operator norm of a plain matrix, as a certificate pair."""
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    return operator_norm_bounds(
        A, SpaceSpec(n, from_exponent), SpaceSpec(m, to_exponent), cfg, exact
    )


def min_ratio_estimate(A, dom, cod, cfg: NumericsConfig | None = None, stream: int = 1):
    """Best found value of min ||A x||_cod / ||x||_dom; returns (value, witness).

    One branch by shape, each achieved by its witness, so the value is an
    upper bound on the true infimum:

    * both sides Euclidean: the smallest singular value and its right
      singular vector (0.0 with a kernel vector for a wide ``A``);
    * square ``A`` of full rank: 1 / r with r from :func:`multistart_lower`
      on inv(A) between the swapped spaces (Boyd's power method run on the
      inverse); its witness y maps to x = inv(A) y with ratio 1 / r;
    * otherwise: the best of sampled candidates (singular vectors, coordinate
      vectors, a random batch), plus x = P y for a tall ``A`` of full rank,
      where P = pinv(A) and y is the ascent witness of P.
    """
    cfg = cfg or DEFAULT_CONFIG
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    if dom.is_euclidean and cod.is_euclidean:
        _, s, vt = np.linalg.svd(A)
        return (float(s[-1]) if m >= n else 0.0), vt[-1]
    full_rank = linalg_once(np.linalg.matrix_rank, A) == n
    if full_rank and m == n:
        # a witness y of ||P y|| / ||y|| = r maps to x = P y with ratio 1/r
        P = linalg_once(np.linalg.inv, A)
        inv_lower = multistart_lower(P, cod, dom, cfg, stream)
        x = P @ inv_lower.witness
        return 1.0 / inv_lower.value, x / dom.norm(x)

    cands = [np.ones(n)]
    try:
        _, _, vt = np.linalg.svd(A)
        cands.append(vt[-1])
        cands.append(vt[0])
    except np.linalg.LinAlgError:
        pass
    for j in range(min(n, 16)):
        e = np.zeros(n)
        e[j] = 1.0
        cands.append(e)
    if full_rank:
        P = np.linalg.pinv(A)
        cands.append(P @ multistart_lower(P, cod, dom, cfg, stream).witness)
    batch = _rng(cfg, stream, 0).standard_normal((n, SAMPLE_BATCH))
    norms = dom.norm_many(batch)
    good = norms > 0.0
    batch = batch[:, good] / norms[good]
    ratios = cod.norm_many(A @ batch)
    j = int(np.argmin(ratios))
    best_v, best_x = float(ratios[j]), batch[:, j]
    for c in cands:
        u = _normalize(dom, c)
        if u is None:
            continue
        val = cod.norm(A @ u)
        if val < best_v:
            best_v, best_x = val, u
    return best_v, best_x
