"""Sparse matrix-vector multiply: push, pull, and direction optimization.

Section II.E of the paper describes GraphBLAST's key optimization,
direction-optimized traversal (Beamer et al.'s push-pull), implemented
*inside* ``GrB_mxv``:

* **push** — sparse-matrix sparse-vector product (SpMSpV, Gustavson's
  method): scatter from the entries of the sparse input vector through the
  matrix stored so its *inner* dimension is the major axis.  Work is
  proportional to the frontier's outgoing edges.
* **pull** — dot-product SpMV against the dense form of the input vector,
  reading the matrix by its *outer* dimension.  With an output mask, only
  the admitted output positions are computed.  Work is proportional to the
  edges incident on the unvisited set.
* **auto** — the GraphBLAST rule reproduced literally: if the vector's
  density crossed above the threshold, switch to pull; if below, switch to
  push; otherwise *keep the direction used last iteration* (hysteresis,
  held in :class:`DirectionOptimizer`).

The same two kernels serve both ``mxv`` (A's columns indexed by u) and
``vxm`` (A's rows indexed by u) — the caller passes the appropriately
oriented store and sets ``matrix_first`` for the multiply argument order.
"""

from __future__ import annotations

import time

import numpy as np

from . import engine, faults, governor, telemetry
from .errors import InvalidValue
from .formats import SparseStore
from .mxm import _gather_ranges
from .semiring import Semiring
from .types import Type

__all__ = [
    "spmspv_push",
    "spmv_pull",
    "choose_direction",
    "DirectionOptimizer",
    "DEFAULT_SWITCH_THRESHOLD",
    "get_switch_threshold",
    "set_switch_threshold",
]

_INDEX = np.int64

# GraphBLAST switches push<->pull when frontier density crosses a threshold;
# its default is a small constant fraction of the vertices.
DEFAULT_SWITCH_THRESHOLD = 0.03

# The live knob behind every "auto" direction choice.  Settable (see
# set_switch_threshold) so telemetry experiments can sweep the switch point
# without monkey-patching; DEFAULT_SWITCH_THRESHOLD records the shipped value.
SWITCH_THRESHOLD = DEFAULT_SWITCH_THRESHOLD


def get_switch_threshold() -> float:
    """The current push<->pull density threshold used by ``method="auto"``."""
    return SWITCH_THRESHOLD


def set_switch_threshold(value: float) -> float:
    """Set the push<->pull density threshold; returns the previous value.

    Applies to every subsequent ``mxv``/``vxm`` with ``method="auto"`` and
    to :class:`DirectionOptimizer` instances created without an explicit
    threshold.  Values must lie strictly between 0 and 1; restore the
    shipped default with ``set_switch_threshold(DEFAULT_SWITCH_THRESHOLD)``.
    """
    global SWITCH_THRESHOLD
    value = float(value)
    if not 0 < value < 1:
        raise InvalidValue("switch threshold must be in (0, 1)")
    prev = SWITCH_THRESHOLD
    SWITCH_THRESHOLD = value
    return prev


def _vec_positional(kind: str, k: np.ndarray, m: np.ndarray, matrix_first: bool):
    """Positional multiply for matrix-vector products.

    ``k`` is the inner (vector) index of each partial product, ``m`` the
    output index.  With ``matrix_first`` (mxv: A(i,k) x u(k)): FIRSTI = m,
    FIRSTJ = SECONDI = k, SECONDJ = 0.  Otherwise (vxm: u(k) x A(k,j)):
    FIRSTI = SECONDI = k, FIRSTJ = 0, SECONDJ = m.
    """
    if kind in ("secondi", "secondi1"):
        base = k
    elif kind in ("firsti", "firsti1"):
        base = m if matrix_first else k
    elif kind in ("firstj", "firstj1"):
        base = k if matrix_first else np.zeros_like(k)
    elif kind in ("secondj", "secondj1"):
        base = np.zeros_like(k) if matrix_first else m
    else:
        raise InvalidValue(f"unknown positional kind {kind!r}")
    out = base.astype(np.int64)
    return out + 1 if kind.endswith("1") else out


def spmspv_push(
    a_by_inner: SparseStore,
    u_idx: np.ndarray,
    u_vals: np.ndarray,
    semiring: Semiring,
    out_type: Type,
    matrix_first: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Push traversal: scatter from each entry of the sparse vector.

    ``a_by_inner`` must be oriented with the vector's dimension as its major
    axis (CSC for mxv, CSR for vxm).  Returns (indices, values) sorted.
    """
    if faults.ENABLED:
        faults.trip("mxv.push")
    if a_by_inner.n_major != 0 and u_idx.size:
        if int(u_idx.max()) >= a_by_inner.n_major:
            raise InvalidValue("vector index outside matrix inner dimension")
    starts, ends = a_by_inner.major_ranges(u_idx)
    lens = ends - starts
    gather = _gather_ranges(starts, ends)
    if telemetry.ENABLED:
        telemetry.tally("mxv", flops=int(gather.size))
    if gather.size == 0:
        return np.empty(0, dtype=_INDEX), np.empty(0, dtype=out_type.np_dtype)
    out_idx = a_by_inner.minor[gather]
    mult = semiring.mult
    kern = engine.kernel_for(semiring, out_type, method="push")
    if mult.positional is not None:
        k = np.repeat(u_idx, lens)
        vals = _vec_positional(mult.positional, k, out_idx, matrix_first)
    elif kern is not None:
        a_v = a_by_inner.values[gather]
        u_v = np.repeat(u_vals, lens)
        vals = kern.combine(a_v, u_v) if matrix_first else kern.combine(u_v, a_v)
    else:
        a_v = a_by_inner.values[gather]
        u_v = np.repeat(u_vals, lens)
        vals = mult.apply(a_v, u_v) if matrix_first else mult.apply(u_v, a_v)

    order = np.argsort(out_idx, kind="stable")
    out_idx, vals = out_idx[order], vals[order]
    change = np.empty(out_idx.size, dtype=bool)
    change[0] = True
    np.not_equal(out_idx[1:], out_idx[:-1], out=change[1:])
    seg = np.flatnonzero(change).astype(_INDEX)
    if seg.size != out_idx.size:
        if kern is not None:
            vals = kern.segment_reduce(vals, seg)
        else:
            vals = semiring.add.reduce_segments(vals, seg, out_type)
        out_idx = out_idx[seg]
    else:
        vals = out_type.cast_array(vals)
    return out_idx, vals


def _major_blocks(major: np.ndarray, nblocks: int) -> list[tuple[int, int]]:
    """Cut ``major`` (sorted) into up to ``nblocks`` contiguous spans.

    Every cut lands on a major-index boundary, so per-segment reductions in
    one block never see partial products belonging to another block and the
    concatenated block results equal the serial result bit for bit.
    """
    cuts = [0]
    for k in range(1, nblocks):
        pos = (major.size * k) // nblocks
        while 0 < pos < major.size and major[pos] == major[pos - 1]:
            pos += 1
        if cuts[-1] < pos < major.size:
            cuts.append(pos)
    cuts.append(major.size)
    return [(cuts[t], cuts[t + 1]) for t in range(len(cuts) - 1)]


def _pull_block(lo: int, hi: int, major, vals, kern):
    """Segment-reduce one major-aligned span of pull partial products."""
    m = major[lo:hi]
    v = vals[lo:hi]
    change = np.empty(m.size, dtype=bool)
    change[0] = True
    np.not_equal(m[1:], m[:-1], out=change[1:])
    seg = np.flatnonzero(change).astype(_INDEX)
    return m[seg], kern.segment_reduce(v, seg)


def spmv_pull(
    a_by_outer: SparseStore,
    u_dense: np.ndarray,
    u_present: np.ndarray,
    semiring: Semiring,
    out_type: Type,
    matrix_first: bool = True,
    outer_hint: np.ndarray | None = None,
    nthreads: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Pull traversal: per-output-position dot against the densified vector.

    ``a_by_outer`` is oriented with the *output* dimension major (CSR for
    mxv, CSC for vxm).  ``outer_hint`` (sorted) restricts computation to
    those output positions — the pull-side payoff of an output mask.
    Returns (indices, values) sorted.
    """
    if faults.ENABLED:
        faults.trip("mxv.pull")
    mult = semiring.mult
    if outer_hint is not None:
        starts, ends = a_by_outer.major_ranges(outer_hint)
        lens = ends - starts
        gather = _gather_ranges(starts, ends)
        major = np.repeat(outer_hint, lens)
        minor = a_by_outer.minor[gather]
        a_vals = a_by_outer.values[gather]
    else:
        major, minor, a_vals = a_by_outer.to_coo()

    if major.size == 0:
        return np.empty(0, dtype=_INDEX), np.empty(0, dtype=out_type.np_dtype)
    sel = u_present[minor]
    major, minor, a_vals = major[sel], minor[sel], a_vals[sel]
    if telemetry.ENABLED:
        telemetry.tally("mxv", flops=int(major.size))
    if major.size == 0:
        return np.empty(0, dtype=_INDEX), np.empty(0, dtype=out_type.np_dtype)

    mask_kind = "none" if outer_hint is None else "mask"
    kern = engine.kernel_for(semiring, out_type, mask_kind=mask_kind, method="pull")
    if mult.positional is not None:
        vals = _vec_positional(mult.positional, minor, major, matrix_first)
        kern = None
    elif kern is not None:
        u_v = u_dense[minor]
        vals = kern.combine(a_vals, u_v) if matrix_first else kern.combine(u_v, a_vals)
    else:
        u_v = u_dense[minor]
        vals = mult.apply(a_vals, u_v) if matrix_first else mult.apply(u_v, a_vals)

    if kern is not None and major.size >= engine.MIN_PARALLEL_ENTRIES:
        requested = engine.requested_workers(nthreads)
        if requested > 1:
            per_block = (major.size // requested + 1) * (16 + out_type.np_dtype.itemsize)
            workers = governor.admit_workers(requested, per_block, op="mxv")
            blocks = _major_blocks(major, workers) if workers > 1 else []
            if len(blocks) > 1:
                def timed(lo, hi):
                    t0 = time.perf_counter()
                    res = _pull_block(lo, hi, major, vals, kern)
                    return res, t0, time.perf_counter()

                results = engine.run_blocks(timed, blocks, len(blocks))
                if telemetry.ENABLED:
                    for idx, ((lo, hi), (_, t0, t1)) in enumerate(zip(blocks, results)):
                        telemetry.span_at(
                            "engine.block", t0, t1, op="mxv", block=idx, entries=hi - lo
                        )
                out_idx = np.concatenate([r[0] for r, _, _ in results])
                out_vals = np.concatenate([r[1] for r, _, _ in results])
                return out_idx, out_vals

    change = np.empty(major.size, dtype=bool)
    change[0] = True
    np.not_equal(major[1:], major[:-1], out=change[1:])
    seg = np.flatnonzero(change).astype(_INDEX)
    out_idx = major[seg]
    if kern is not None:
        vals = kern.segment_reduce(vals, seg)
    else:
        vals = semiring.add.reduce_segments(vals, seg, out_type)
    return out_idx, vals


def choose_direction(method: str, u, optimizer, *, op_name: str) -> str:
    """Resolve a matvec plan's method to ``push`` or ``pull``.

    The one direction-choice policy shared by every kernel backend
    (optimized and compiled both route through here, so their
    ``mxv.direction`` telemetry and hysteresis state are identical):
    ``tiled`` degrades to the bit-identical in-memory ``pull``;
    ``auto`` applies the GraphBLAST density rule — through the plan's
    :class:`DirectionOptimizer` when the caller is iterating, the
    module threshold otherwise; explicit directions pass through.
    """
    if method == "tiled":
        method = "pull"
    if method == "auto":
        density = u.nvals / u.size
        threshold = (
            optimizer.threshold
            if optimizer is not None
            else get_switch_threshold()
        )
        if optimizer is not None:
            method = optimizer.choose(density)
        else:
            method = "push" if density <= threshold else "pull"
        if telemetry.ENABLED:
            telemetry.decision(
                "mxv.direction",
                op=op_name,
                direction=method,
                density=density,
                threshold=threshold,
                frontier_nvals=u.nvals,
                size=u.size,
                hysteresis=optimizer is not None,
            )
    elif telemetry.ENABLED:
        telemetry.decision(
            "mxv.direction",
            op=op_name,
            direction=method,
            forced=True,
            frontier_nvals=u.nvals,
            size=u.size,
        )
    return method


class DirectionOptimizer:
    """Push/pull chooser with GraphBLAST's hysteresis rule (section II.E).

    "In each iteration of an mxv, the backend checks whether the vector
    sparsity has crossed a threshold k.  If it has gone above, switch from
    push to pull.  If below, switch from pull to push.  Otherwise use the
    traversal of the previous iteration."
    """

    def __init__(self, threshold: float | None = None):
        if threshold is None:
            threshold = SWITCH_THRESHOLD
        if not 0 < threshold < 1:
            raise InvalidValue("threshold must be in (0, 1)")
        self.threshold = threshold
        self.direction = "push"
        self._prev_density: float | None = None
        self.history: list[str] = []

    def choose(self, density: float) -> str:
        prev = self._prev_density
        if prev is None:
            self.direction = "push" if density <= self.threshold else "pull"
        elif prev <= self.threshold < density:
            self.direction = "pull"  # crossed above: switch to pull
        elif density <= self.threshold < prev:
            self.direction = "push"  # crossed below: switch to push
        # else: keep previous direction
        self._prev_density = density
        self.history.append(self.direction)
        return self.direction
