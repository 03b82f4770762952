"""Sparse matrix-matrix multiply over a semiring: three methods.

The paper (section II.A) describes SuiteSparse's code-generated kernels:
**Gustavson's method** (row-wise saxpy), a **dot-product method** (with
no-mask / mask / complemented-mask variants), and a **heap-based method**
(k-way merge), expanding over all built-in semirings.  It also describes the
*early-exit* prototype: with a terminal monoid (OR's ``true``, AND's
``false``, MIN/MAX extrema) a dot product stops as soon as the terminal
value appears — the enabler for direction-optimized BFS.

All three methods are implemented here over row/col-oriented
:class:`~repro.graphblas.formats.SparseStore` views and are checked against
each other (and the dense reference) by the test suite.  Method choice:

* ``gustavson`` — vectorized expansion of all partial products, chunked to
  bound intermediate memory; the general-purpose workhorse.
* ``dot`` — computes only requested output positions; the clear winner when
  a sparse mask limits the output (e.g. masked triangle counting), and the
  home of the early-exit optimization.
* ``heap`` — literal k-way ordered merge per output row; fidelity
  implementation of the third SuiteSparse method.
* ``auto`` — dot when a (non-complemented) mask is present and selective,
  else Gustavson.

Positional multiply operators (FIRSTI/SECONDJ/...) are served by the
Gustavson path, substituting coordinates for values.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

from . import engine, faults, governor, telemetry
from .errors import InvalidValue
from .formats import SparseStore
from .ops import BinaryOp
from .semiring import Semiring
from .types import Type

__all__ = ["mxm_coo", "resolve_method", "dot_candidates", "MXM_METHODS"]

_INDEX = np.int64

# Cap on the number of expanded partial products held at once (per chunk).
# Chosen by the ablation in benchmarks/bench_ablation_design.py: small
# chunks keep the expansion buffers cache-resident (up to ~1.5x faster on
# skewed graphs) while costing nothing on uniform ones.
GUSTAVSON_CHUNK_FLOPS = 1 << 16

MXM_METHODS = ("auto", "gustavson", "dot", "heap", "tiled")


def _gather_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[k], ends[k])`` for all k, vectorized."""
    lens = ends - starts
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=_INDEX)
    offsets = np.repeat(np.cumsum(lens) - lens, lens)
    return np.arange(total, dtype=_INDEX) - offsets + np.repeat(starts, lens)


def _positional_values(
    mult: BinaryOp,
    i: np.ndarray,
    k: np.ndarray,
    j: np.ndarray,
) -> np.ndarray:
    """Coordinate-valued multiply: z = f(i, k, j) per partial product."""
    kind = mult.positional
    if kind == "firsti":
        return i.astype(np.int64)
    if kind == "firsti1":
        return i.astype(np.int64) + 1
    if kind in ("firstj", "secondi"):
        return k.astype(np.int64)
    if kind == "secondj":
        return j.astype(np.int64)
    if kind == "secondj1":
        return j.astype(np.int64) + 1
    raise InvalidValue(f"unknown positional kind {kind!r}")


def resolve_method(
    method: str,
    semiring: Semiring,
    mask_coords,
    mask_complement: bool,
    a_rows: SparseStore,
    b_rows: SparseStore,
) -> str:
    """Resolve a requested SpGEMM method to the concrete kernel to run.

    The one method policy shared by every backend (the vectorized engine
    and the compiled tier both route through here, so their
    ``spgemm.method`` telemetry and governor poll points are identical):
    ``tiled`` degrades to the bit-identical in-memory Gustavson, ``auto``
    picks dot exactly when a usable (non-complemented) mask hint exists,
    positional products force Gustavson's coordinate expansion.
    """
    requested = method
    if method == "tiled":
        # the dispatcher serves "tiled" via repro.graphblas.tiled; when a
        # plan reaches the in-memory kernel anyway (direct call, degraded
        # backend) Gustavson is the bit-identical equivalent
        method = "gustavson"
    if method == "auto":
        if mask_coords is not None and not mask_complement:
            method = "dot"
        else:
            method = "gustavson"
    if semiring.mult.positional and method != "gustavson":
        method = "gustavson"  # positional products need coordinate expansion
    if telemetry.ENABLED:
        telemetry.decision(
            "spgemm.method",
            method=method,
            requested=requested,
            masked=mask_coords is not None,
            a_nvals=a_rows.nvals,
            b_nvals=b_rows.nvals,
        )
    if governor.ACTIVE:
        # SpGEMM method boundary: last cooperative cancellation point
        # before the expansion kernels allocate their working set.
        governor.poll()
    return method


def mxm_coo(
    a_rows: SparseStore,
    b_rows: SparseStore,
    semiring: Semiring,
    out_type: Type,
    method: str = "auto",
    mask_coords: tuple[np.ndarray, np.ndarray] | None = None,
    mask_complement: bool = False,
    nthreads: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """C = A (+).(x) B on row-oriented stores; returns sorted COO arrays.

    ``mask_coords`` — when given, only those output coordinates need be
    computed (the structural part of the output mask); the caller still
    applies the full mask/accum write step afterwards, so producing extra
    entries would be legal but wasteful.  With ``mask_complement`` the hint
    is the set of coordinates *not* wanted; the dot method cannot use a
    complemented hint directly, but Gustavson can drop them post hoc.

    ``nthreads`` — the descriptor's ``GxB_NTHREADS`` request; caps the
    engine's row-blocked parallelism for this call.
    """
    if a_rows.n_minor != b_rows.n_major:
        raise InvalidValue(
            f"inner dimensions differ: {a_rows.n_minor} vs {b_rows.n_major}"
        )
    if method not in MXM_METHODS:
        raise InvalidValue(f"unknown mxm method {method!r}")
    if faults.ENABLED:
        faults.trip("spgemm.flop")
    method = resolve_method(
        method, semiring, mask_coords, mask_complement, a_rows, b_rows
    )

    if method == "gustavson":
        r, c, v = _mxm_gustavson(a_rows, b_rows, semiring, out_type, nthreads)
        if mask_coords is not None:
            from .coords import coords_in

            sel = coords_in(r, c, *mask_coords)
            if mask_complement:
                sel = ~sel
            r, c, v = r[sel], c[sel], v[sel]
        return r, c, v
    if method == "dot":
        return _mxm_dot(a_rows, b_rows, semiring, out_type, mask_coords, mask_complement)
    return _mxm_heap(a_rows, b_rows, semiring, out_type, mask_coords, mask_complement)


# --------------------------------------------------------------------------
# Gustavson: saxpy expansion
# --------------------------------------------------------------------------

def _mxm_gustavson(
    a_rows: SparseStore,
    b_rows: SparseStore,
    semiring: Semiring,
    out_type: Type,
    nthreads: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    ar, ac, av = a_rows.to_coo()
    if ar.size == 0 or b_rows.nvals == 0:
        return (
            np.empty(0, dtype=_INDEX),
            np.empty(0, dtype=_INDEX),
            np.empty(0, dtype=out_type.np_dtype),
        )
    starts, ends = b_rows.major_ranges(ac)
    lens = ends - starts
    flops = np.cumsum(lens)
    total = int(flops[-1])
    if telemetry.ENABLED:
        telemetry.tally("mxm", flops=total)
    if total == 0:
        return (
            np.empty(0, dtype=_INDEX),
            np.empty(0, dtype=_INDEX),
            np.empty(0, dtype=out_type.np_dtype),
        )

    kern = engine.kernel_for(semiring, out_type, method="gustavson")
    # Fused (i * n_minor + j) sort key: one stable argsort instead of
    # lexsort's two passes.  Store invariants guarantee i < n_major and
    # j < n_minor, so the key is collision-free whenever it fits in int64.
    key_mult = None
    n_minor = b_rows.n_minor
    if 0 < n_minor and a_rows.n_major <= engine.KEY_LIMIT // n_minor:
        key_mult = np.int64(n_minor)

    # Row blocks for the shared thread pool: only specializable semirings
    # go parallel (their inner loops are pure-numpy and thread-safe), and
    # only when the expansion is big enough to amortize the handoff.  The
    # governor admits the worker count against its memory budget — each
    # in-flight block holds one chunk's expansion buffers.
    workers = 1
    if kern is not None and total >= engine.MIN_PARALLEL_FLOPS:
        requested = engine.requested_workers(nthreads)
        if requested > 1:
            per_block = GUSTAVSON_CHUNK_FLOPS * (48 + out_type.np_dtype.itemsize)
            workers = governor.admit_workers(requested, per_block, op="mxm")

    blocks = _row_blocks(ar, flops, workers) if workers > 1 else [(0, ar.size)]
    block_args = (ar, ac, av, b_rows.minor, b_rows.values, starts, ends, lens,
                  flops, semiring, out_type, kern, key_mult)
    if len(blocks) > 1:
        def timed(lo, hi):
            t0 = time.perf_counter()
            res = _gustavson_block(lo, hi, *block_args)
            return res, t0, time.perf_counter()

        results = engine.run_blocks(timed, blocks, len(blocks))
        if telemetry.ENABLED:
            for idx, ((_, t0, t1), (lo, hi)) in enumerate(zip(results, blocks)):
                telemetry.span_at(
                    "engine.block", t0, t1, op="mxm", block=idx, rows=hi - lo
                )
        pieces = [res for res, _, _ in results]
    else:
        pieces = [_gustavson_block(0, ar.size, *block_args)]

    out_r = [arr for piece in pieces for arr in piece[0]]
    out_c = [arr for piece in pieces for arr in piece[1]]
    out_v = [arr for piece in pieces for arr in piece[2]]
    return (
        np.concatenate(out_r),
        np.concatenate(out_c),
        np.concatenate(out_v),
    )


def _gustavson_block(
    lo_end: int,
    hi_end: int,
    ar, ac, av, b_minor, b_values, starts, ends, lens, flops,
    semiring: Semiring,
    out_type: Type,
    kern,
    key_mult,
):
    """Expand A entries ``[lo_end, hi_end)``; both bounds lie on A-row
    boundaries, so per-block outputs concatenate sorted and deduplicated
    (each output row is produced wholly inside one block)."""
    mult = semiring.mult
    positional = mult.positional is not None
    out_r: list[np.ndarray] = []
    out_c: list[np.ndarray] = []
    out_v: list[np.ndarray] = []
    # chunk the entries so each expansion stays below the flop cap, cutting
    # only at row boundaries of A so per-chunk results concatenate sorted
    lo = lo_end
    while lo < hi_end:
        base = flops[lo - 1] if lo else 0
        hi = int(np.searchsorted(flops, base + GUSTAVSON_CHUNK_FLOPS))
        hi = min(max(hi, lo + 1), hi_end)
        if hi < hi_end:  # extend to finish the current A row
            row = ar[hi - 1]
            while hi < hi_end and ar[hi] == row:
                hi += 1
        chunk = slice(lo, hi)
        gather = _gather_ranges(starts[chunk], ends[chunk])
        reps = lens[chunk]
        i = np.repeat(ar[chunk], reps)
        j = b_minor[gather]
        if positional:
            k = np.repeat(ac[chunk], reps)
            vals = _positional_values(mult, i, k, j)
        elif kern is not None:
            vals = kern.combine(np.repeat(av[chunk], reps), b_values[gather])
        else:
            vals = mult.apply(np.repeat(av[chunk], reps), b_values[gather])
        # combine duplicates (same output coordinate) with the add monoid
        if key_mult is not None and i.size:
            key = i * key_mult + j
            order = np.argsort(key, kind="stable")
            i, j, vals = i[order], j[order], vals[order]
            key = key[order]
            change = np.empty(i.size, dtype=bool)
            change[0] = True
            np.not_equal(key[1:], key[:-1], out=change[1:])
            seg = np.flatnonzero(change).astype(_INDEX)
        else:
            order = np.lexsort((j, i))
            i, j, vals = i[order], j[order], vals[order]
            seg = _pair_group_starts(i, j)
        if seg.size != i.size:
            if kern is not None:
                vals = kern.segment_reduce(vals, seg)
            else:
                vals = semiring.add.reduce_segments(vals, seg, out_type)
            i, j = i[seg], j[seg]
        else:
            vals = out_type.cast_array(vals)
        out_r.append(i)
        out_c.append(j)
        out_v.append(vals)
        lo = hi
    return out_r, out_c, out_v


def _row_blocks(ar: np.ndarray, flops: np.ndarray, nblocks: int):
    """Split ``[0, ar.size)`` into up to ``nblocks`` flop-balanced spans,
    cutting only at A-row boundaries (a row split across blocks would emit
    its output entries twice)."""
    total = int(flops[-1])
    cuts = [0]
    for k in range(1, nblocks):
        hi = int(np.searchsorted(flops, (total * k) // nblocks))
        if hi <= cuts[-1]:
            continue
        while hi < ar.size and ar[hi] == ar[hi - 1]:
            hi += 1
        if hi > cuts[-1] and hi < ar.size:
            cuts.append(hi)
    cuts.append(ar.size)
    return [(cuts[m], cuts[m + 1]) for m in range(len(cuts) - 1)]


def _pair_group_starts(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    if i.size == 0:
        return np.empty(0, dtype=_INDEX)
    change = np.empty(i.size, dtype=bool)
    change[0] = True
    np.logical_or(i[1:] != i[:-1], j[1:] != j[:-1], out=change[1:])
    return np.flatnonzero(change).astype(_INDEX)


# --------------------------------------------------------------------------
# Dot-product method (masked / unmasked / complemented-mask variants)
# --------------------------------------------------------------------------

# Scan the intersection in blocks; with a terminal monoid, stop at the first
# block whose running reduction hits the annihilator (the "early exit").
_EARLY_EXIT_BLOCK = 64


def dot_candidates(
    a_rows: SparseStore,
    b_cols: SparseStore,
    mask_coords,
    mask_complement: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate (i, j) output coordinates for the dot method.

    A non-complemented mask *is* the candidate list (the fused-mask
    payoff); otherwise every (nonempty A row) x (nonempty B col) pair is
    a candidate, minus the masked-out set when the mask is complemented.
    Row-major sorted, like the mask coordinate contract.  Shared by the
    vectorized engine and the compiled tier so both enumerate (and
    therefore early-exit over) exactly the same dots.
    """
    if mask_coords is None or mask_complement:
        arows = (
            a_rows.h
            if a_rows.hyper
            else np.flatnonzero(np.diff(a_rows.indptr)).astype(_INDEX)
        )
        bcols = (
            b_cols.h
            if b_cols.hyper
            else np.flatnonzero(np.diff(b_cols.indptr)).astype(_INDEX)
        )
        out_i = np.repeat(arows, bcols.size)
        out_j = np.tile(bcols, arows.size)
        if mask_coords is not None:
            from .coords import coords_in

            drop = coords_in(out_i, out_j, *mask_coords)
            out_i, out_j = out_i[~drop], out_j[~drop]
        return out_i, out_j
    return mask_coords


def _mxm_dot(
    a_rows: SparseStore,
    b_rows: SparseStore,
    semiring: Semiring,
    out_type: Type,
    mask_coords,
    mask_complement: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    b_cols = b_rows.with_orientation(b_rows.orientation.flipped)
    out_i, out_j = dot_candidates(a_rows, b_cols, mask_coords, mask_complement)
    if out_i.size == 0:
        return (
            np.empty(0, dtype=_INDEX),
            np.empty(0, dtype=_INDEX),
            np.empty(0, dtype=out_type.np_dtype),
        )

    a_start, a_end = a_rows.major_ranges(out_i)
    b_start, b_end = b_cols.major_ranges(out_j)
    if telemetry.ENABLED:
        # the dot method's work is bounded by the scanned list lengths
        telemetry.tally(
            "mxm", flops=int((a_end - a_start).sum() + (b_end - b_start).sum())
        )

    add = semiring.add
    mult = semiring.mult
    terminal = add.terminal(out_type)
    a_minor = a_rows.minor
    a_vals = a_rows.values
    b_minor = b_cols.minor
    b_vals = b_cols.values

    # Specialized bindings hoist the operator dispatch out of the per-dot
    # loop; each replicates its generic counterpart bit for bit.
    mask_kind = "none" if mask_coords is None else (
        "comp" if mask_complement else "mask"
    )
    kern = engine.kernel_for(semiring, out_type, mask_kind=mask_kind, method="dot")
    if kern is not None:
        _mult = kern.combine
        _reduce = kern.reduce_all
        _fold = kern.fold2
    else:
        _mult = mult.apply

        def _reduce(v):
            return add.reduce_array(v, out_type)

        def _fold(acc, blk_red):
            return out_type.cast_array(
                add.op.apply(np.asarray(acc), np.asarray(blk_red))
            ).item()

    keep = np.zeros(out_i.size, dtype=bool)
    out_vals = np.empty(out_i.size, dtype=out_type.np_dtype)
    early_exits = 0
    early_eligible = 0

    for p in range(out_i.size):
        asl = slice(a_start[p], a_end[p])
        bsl = slice(b_start[p], b_end[p])
        ai = a_minor[asl]
        bi = b_minor[bsl]
        if ai.size == 0 or bi.size == 0:
            continue
        # sorted intersection: positions of common inner indices
        pos = np.searchsorted(bi, ai)
        pos_c = np.minimum(pos, bi.size - 1)
        hit = bi[pos_c] == ai
        if not hit.any():
            continue
        av = a_vals[asl][hit]
        bv = b_vals[bsl][pos[hit]]
        if terminal is not None and av.size > _EARLY_EXIT_BLOCK:
            early_eligible += 1
            acc = None
            done = False
            for lo in range(0, av.size, _EARLY_EXIT_BLOCK):
                blk = _mult(
                    av[lo : lo + _EARLY_EXIT_BLOCK],
                    bv[lo : lo + _EARLY_EXIT_BLOCK],
                )
                blk_red = _reduce(blk)
                acc = blk_red if acc is None else _fold(acc, blk_red)
                if acc == terminal:  # early exit: annihilator reached
                    done = True
                    break
            out_vals[p] = acc
            keep[p] = True
            early_exits += done
        else:
            prods = _mult(av, bv)
            out_vals[p] = _reduce(prods)
            keep[p] = True

    if telemetry.ENABLED and early_eligible:
        telemetry.decision(
            "mxm.early_exit",
            terminated=early_exits,
            eligible=early_eligible,
            dots=int(out_i.size),
        )
    out_i, out_j, out_vals = out_i[keep], out_j[keep], out_vals[keep]
    order = np.lexsort((out_j, out_i))
    return out_i[order], out_j[order], out_vals[order]


# --------------------------------------------------------------------------
# Heap method: literal k-way merge per output row
# --------------------------------------------------------------------------

def _mxm_heap(
    a_rows: SparseStore,
    b_rows: SparseStore,
    semiring: Semiring,
    out_type: Type,
    mask_coords,
    mask_complement: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    add = semiring.add
    mult = semiring.mult
    out_r: list[int] = []
    out_c: list[int] = []
    out_v: list = []

    a_full = a_rows.to_full_pointer()
    indptr = a_full.indptr
    for i in range(a_full.n_major):
        lo, hi = int(indptr[i]), int(indptr[i + 1])
        if lo == hi:
            continue
        ks = a_full.minor[lo:hi]
        avs = a_full.values[lo:hi]
        bs, be = b_rows.major_ranges(ks)
        # heap of (col_index, source_row_position, cursor) — merge the rows
        # of B selected by A(i,:) in column order
        heap: list[tuple[int, int, int]] = []
        for s in range(ks.size):
            if bs[s] < be[s]:
                heapq.heappush(heap, (int(b_rows.minor[bs[s]]), s, int(bs[s])))
        cur_col = -1
        acc = None
        while heap:
            col, s, cursor = heapq.heappop(heap)
            prod = mult.fn(avs[s], b_rows.values[cursor])
            if col != cur_col:
                if acc is not None:
                    out_r.append(i)
                    out_c.append(cur_col)
                    out_v.append(acc)
                cur_col = col
                acc = prod
            else:
                acc = add.op.fn(acc, prod)
            cursor += 1
            if cursor < be[s]:
                heapq.heappush(heap, (int(b_rows.minor[cursor]), s, cursor))
        if acc is not None:
            out_r.append(i)
            out_c.append(cur_col)
            out_v.append(acc)

    r = np.asarray(out_r, dtype=_INDEX)
    c = np.asarray(out_c, dtype=_INDEX)
    v = out_type.cast_array(np.asarray(out_v)) if out_v else np.empty(
        0, dtype=out_type.np_dtype
    )
    if mask_coords is not None:
        from .coords import coords_in

        sel = coords_in(r, c, *mask_coords)
        if mask_complement:
            sel = ~sel
        r, c, v = r[sel], c[sel], v[sel]
    return r, c, v
