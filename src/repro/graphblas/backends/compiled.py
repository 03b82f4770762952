"""The compiled kernel tier as a :class:`KernelBackend`.

Serves ``mxm``/``mxv``/``vxm`` with JIT-compiled monomorphic kernels
from :mod:`repro.graphblas.compiled` — Gustavson SpGEMM, fused-mask dot
mxm, and push/pull mxv with *true* terminal-monoid early exit — and
declines everything else, falling back to ``optimized`` through the
normal dispatch chain.  Orchestration (store preparation, method and
direction policy, flop-balanced row blocks on the engine worker pool,
governor admission, the shared accum-then-mask write step) is identical
to the optimized backend by construction: both call the same
``mxm.resolve_method`` / ``mxv.choose_direction`` policy helpers and
finish through :func:`mask.write_matrix` / :func:`mask.write_vector`.

The compiled kernels release the GIL (ctypes foreign calls for the cc
toolchain, ``nogil=True`` for numba), so the engine's thread pool gives
real row parallelism here, not just overlapped NumPy.

Declination rules (``supports``):

* only semiring products with a generated template — builtin add monoid
  in {PLUS, TIMES, MIN, MAX} (+ LOR/LAND on BOOL), builtin non-positional
  multiply, builtin value types;
* all operand dtypes equal to the output dtype (NumPy's promote-then-
  cast semantics for mixed-type products are not worth reproducing in C);
* no toolchain available (numba absent *and* no C compiler) — in which
  case the first declined plan warns once via ``envutil``;
* the heap mxm method (vectorized k-way merge stays with the engine);
* any dimension above ``MAX_DIMENSION`` (the SPA scratch is dense in the
  inner dimension).
"""

from __future__ import annotations

import time

import numpy as np

from .. import compiled as _compiled
from .. import engine, governor, telemetry
from ..mask import mask_true_coords, mask_true_idx, write_matrix, write_vector
from ..mxm import dot_candidates, resolve_method
from ..mxv import choose_direction
from ..errors import InvalidValue
from ..semiring import Semiring
from . import KernelBackend

_INDEX = np.int64

#: SPA/mark scratch and dense pull vectors are O(dimension); cap it so a
#: hypersparse graph with a huge index space cannot allocate gigabytes.
MAX_DIMENSION = 1 << 24


def _prep_index(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=_INDEX)


def _prep_values(arr: np.ndarray, np_dtype) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np_dtype)


def _flop_row_blocks(row_cum: np.ndarray, workers: int) -> list[tuple[int, int]]:
    """Cut rows into ≤ ``workers`` spans of roughly equal flops.

    ``row_cum[i]`` is the flop count of all rows before ``i`` (length
    n_rows + 1, monotone).  Cuts land on row boundaries, so each block's
    SPA is self-contained and concatenated results equal serial output.
    """
    n = row_cum.size - 1
    total = int(row_cum[-1])
    if workers <= 1 or n <= 1 or total == 0:
        return [(0, n)]
    targets = (np.arange(1, workers) * total) // workers
    cuts = np.searchsorted(row_cum, targets, side="left")
    bounds = [0, *np.unique(cuts).tolist(), n]
    bounds = sorted(set(b for b in bounds if 0 <= b <= n))
    return [
        (bounds[t], bounds[t + 1])
        for t in range(len(bounds) - 1)
        if bounds[t] < bounds[t + 1]
    ]


class CompiledBackend(KernelBackend):
    """JIT semiring kernels with terminal early exit; falls back freely."""

    name = "compiled"
    fallback = "optimized"

    # -- dispatch gate ------------------------------------------------------

    def supports(self, plan) -> bool:
        if plan.op not in ("mxm", "mxv", "vxm"):
            return False
        sr = plan.operator
        if not isinstance(sr, Semiring) or plan.out_type is None:
            return False
        if not _compiled.available():
            _compiled.warn_unavailable()
            return False
        if plan.op == "mxm" and plan.params.get("method") == "heap":
            return False
        if not _compiled.supports(sr, plan.out_type):
            return False
        add, mult, arg_types, out_name, _mask_kind, _accum = (
            plan.kernel_signature()
        )
        if any(t != out_name for t in arg_types):
            return False
        for arg in plan.args:
            for dim in getattr(arg, "shape", (getattr(arg, "size", 0),)):
                if dim > MAX_DIMENSION:
                    return False
        return True

    # -- mxm ----------------------------------------------------------------

    def mxm(self, plan):
        A, B = plan.args
        C, d, sr = plan.out, plan.desc, plan.operator
        a_rows = A.by_col().transposed() if d.transpose_a else A.by_row()
        b_rows = B.by_col().transposed() if d.transpose_b else B.by_row()
        mask_hint = None
        if plan.mask is not None and not d.complement_mask:
            mask_hint = mask_true_coords(plan.mask, d)
        method = resolve_method(
            plan.params["method"], sr, mask_hint, False, a_rows, b_rows
        )
        kern = _compiled.kernel_for(sr, plan.out_type)
        if method == "dot":
            tr, tc, tv = self._mxm_dot(
                kern, a_rows, b_rows, plan.out_type, mask_hint
            )
        else:
            tr, tc, tv = self._mxm_gustavson(
                kern, a_rows, b_rows, plan.out_type, d.nthreads
            )
            if mask_hint is not None:
                from ..coords import coords_in

                sel = coords_in(tr, tc, *mask_hint)
                tr, tc, tv = tr[sel], tc[sel], tv[sel]
        return write_matrix(
            C, tr, tc, tv,
            mask=plan.mask, accum=plan.accum, desc=d,
            # compiled kernels emit sorted-unique COO by construction
            sorted_unique=True,
        )

    def _mxm_gustavson(self, kern, a_rows, b_rows, out_type, nthreads):
        a = a_rows.to_full_pointer()
        b = b_rows.to_full_pointer()
        dt = out_type.np_dtype
        empty = (
            np.empty(0, dtype=_INDEX),
            np.empty(0, dtype=_INDEX),
            np.empty(0, dtype=dt),
        )
        if a.nvals == 0 or b.nvals == 0:
            return empty
        ap, aj = _prep_index(a.indptr), _prep_index(a.minor)
        bp, bj = _prep_index(b.indptr), _prep_index(b.minor)
        ax = _prep_values(a.values, dt)
        bx = _prep_values(b.values, dt)
        n_minor = int(b.n_minor)

        ent_flops = bp[aj + 1] - bp[aj]
        cum = np.concatenate(
            [np.zeros(1, dtype=_INDEX), np.cumsum(ent_flops, dtype=_INDEX)]
        )
        row_cum = cum[ap]
        total = int(row_cum[-1])
        if telemetry.ENABLED:
            telemetry.tally("mxm", flops=total)
        if total == 0:
            return empty

        workers = 1
        if total >= engine.MIN_PARALLEL_FLOPS:
            requested = engine.requested_workers(nthreads)
            if requested > 1:
                # per block: SPA mark+slot, plus its share of the output
                per_block = n_minor * 16 + (total // requested + 1) * (
                    16 + dt.itemsize
                )
                workers = governor.admit_workers(requested, per_block, op="mxm")
        blocks = _flop_row_blocks(row_cum, workers)

        def run_block(lo, hi):
            t0 = time.perf_counter()
            mark = np.full(n_minor, -1, dtype=_INDEX)
            n = kern.spgemm_count(lo, hi, ap, aj, bp, bj, mark)
            mark.fill(-1)
            slot = np.empty(n_minor, dtype=_INDEX)
            ci = np.empty(n, dtype=_INDEX)
            cj = np.empty(n, dtype=_INDEX)
            cx = np.empty(n, dtype=dt)
            kern.spgemm_fill(lo, hi, ap, aj, ax, bp, bj, bx,
                             mark, slot, ci, cj, cx)
            return (ci, cj, cx), t0, time.perf_counter()

        if len(blocks) > 1:
            results = engine.run_blocks(run_block, blocks, len(blocks))
            if telemetry.ENABLED:
                for idx, ((lo, hi), (_, t0, t1)) in enumerate(
                    zip(blocks, results)
                ):
                    telemetry.span_at(
                        "engine.block", t0, t1,
                        op="mxm", block=idx, rows=hi - lo,
                    )
            tr = np.concatenate([r[0] for r, _, _ in results])
            tc = np.concatenate([r[1] for r, _, _ in results])
            tv = np.concatenate([r[2] for r, _, _ in results])
            return tr, tc, tv
        (ci, cj, cx), _, _ = run_block(*blocks[0])
        return ci, cj, cx

    def _mxm_dot(self, kern, a_rows, b_rows, out_type, mask_coords):
        dt = out_type.np_dtype
        b_cols = b_rows.with_orientation(b_rows.orientation.flipped)
        out_i, out_j = dot_candidates(a_rows, b_cols, mask_coords, False)
        if out_i.size == 0:
            return (
                np.empty(0, dtype=_INDEX),
                np.empty(0, dtype=_INDEX),
                np.empty(0, dtype=dt),
            )
        a_start, a_end = a_rows.major_ranges(out_i)
        b_start, b_end = b_cols.major_ranges(out_j)
        if telemetry.ENABLED:
            telemetry.tally(
                "mxm",
                flops=int((a_end - a_start).sum() + (b_end - b_start).sum()),
            )
        aj = _prep_index(a_rows.minor)
        ax = _prep_values(a_rows.values, dt)
        bj = _prep_index(b_cols.minor)
        bx = _prep_values(b_cols.values, dt)
        keep = np.zeros(out_i.size, dtype=np.uint8)
        out = np.zeros(out_i.size, dtype=dt)
        stats = np.zeros(4, dtype=_INDEX)
        kern.dot(
            _prep_index(a_start), _prep_index(a_end),
            _prep_index(b_start), _prep_index(b_end),
            aj, ax, bj, bx, keep, out, stats,
        )
        if telemetry.ENABLED and kern.has_terminal:
            telemetry.decision(
                "compiled.early_exit",
                op="mxm",
                terminated=int(stats[0]),
                eligible=int(stats[1]),
                dots=int(out_i.size),
                scanned=int(stats[2]),
                depth_sum=int(stats[3]),
            )
        kb = keep.view(np.bool_)
        # candidates are row-major sorted, so the filtered result is too
        return out_i[kb], out_j[kb], out[kb]

    # -- mxv / vxm ----------------------------------------------------------

    def _matvec(self, plan):
        p = plan.params
        is_mxv = p["is_mxv"]
        A, u = plan.args if is_mxv else (plan.args[1], plan.args[0])
        w, d, sr = plan.out, plan.desc, plan.operator
        transposed = p["transposed"]
        method = choose_direction(
            p["method"], u, p["optimizer"],
            op_name="mxv" if is_mxv else "vxm",
        )
        if governor.ACTIVE:
            governor.poll()
        kern = _compiled.kernel_for(sr, plan.out_type)
        dt = plan.out_type.np_dtype
        if method == "push":
            store = (A.by_row() if transposed else A.by_col()).to_full_pointer()
            ti, tv = self._push(kern, store, u, dt, matrix_first=is_mxv)
        else:
            store = (
                A.by_col().transposed() if transposed else A.by_row()
            ).to_full_pointer()
            hint = None
            if plan.mask is not None and not d.complement_mask:
                hint = mask_true_idx(plan.mask, d)
            ti, tv = self._pull(kern, store, u, dt, hint,
                                matrix_first=is_mxv,
                                op_name="mxv" if is_mxv else "vxm")
        return write_vector(w, ti, tv, mask=plan.mask, accum=plan.accum, desc=d)

    mxv = _matvec
    vxm = _matvec

    def _push(self, kern, store, u, dt, *, matrix_first):
        u_idx, u_vals = u.arrays()
        if store.n_major != 0 and u_idx.size:
            if int(u_idx.max()) >= store.n_major:
                raise InvalidValue("vector index outside matrix inner dimension")
        empty = (np.empty(0, dtype=_INDEX), np.empty(0, dtype=dt))
        if u_idx.size == 0 or store.nvals == 0:
            if telemetry.ENABLED:
                telemetry.tally("mxv", flops=0)
            return empty
        ap = _prep_index(store.indptr)
        aj = _prep_index(store.minor)
        ax = _prep_values(store.values, dt)
        ui = _prep_index(u_idx)
        ux = _prep_values(u_vals, dt)
        flops = int((ap[ui + 1] - ap[ui]).sum())
        if telemetry.ENABLED:
            telemetry.tally("mxv", flops=flops)
        if flops == 0:
            return empty
        n_out = int(store.n_minor)
        cap = min(n_out, flops)
        mark = np.full(n_out, -1, dtype=_INDEX)
        oi = np.empty(cap, dtype=_INDEX)
        ov = np.empty(cap, dtype=dt)
        nz = kern.push(ui, ux, ap, aj, ax, matrix_first, mark, oi, ov)
        return oi[:nz].copy(), ov[:nz].copy()

    def _pull(self, kern, store, u, dt, hint, *, matrix_first, op_name):
        empty = (np.empty(0, dtype=_INDEX), np.empty(0, dtype=dt))
        if store.nvals == 0 or u.nvals == 0:
            if telemetry.ENABLED:
                telemetry.tally("mxv", flops=0)
            return empty
        ap = _prep_index(store.indptr)
        aj = _prep_index(store.minor)
        ax = _prep_values(store.values, dt)
        rows = (
            _prep_index(hint)
            if hint is not None
            else np.arange(store.n_major, dtype=_INDEX)
        )
        if rows.size == 0:
            return empty
        ud = _prep_values(u.to_dense(), dt)
        up = np.ascontiguousarray(u.pattern(), dtype=np.bool_)
        if telemetry.ENABLED:
            telemetry.tally("mxv", flops=int((ap[rows + 1] - ap[rows]).sum()))
        oi = np.empty(rows.size, dtype=_INDEX)
        ov = np.empty(rows.size, dtype=dt)
        stats = np.zeros(4, dtype=_INDEX)
        nz = kern.pull(rows, ap, aj, ax, ud, up, matrix_first, oi, ov, stats)
        if telemetry.ENABLED and kern.has_terminal:
            telemetry.decision(
                "compiled.early_exit",
                op=op_name,
                terminated=int(stats[0]),
                eligible=int(stats[1]),
                dots=int(rows.size),
                scanned=int(stats[2]),
                depth_sum=int(stats[3]),
            )
        return oi[:nz].copy(), ov[:nz].copy()
