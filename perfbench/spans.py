"""Span tracing of the graphblas layers, from outside the program.

:class:`Tracer` wraps the public functions of each ``repro`` layer under
the name its caller looks it up by, records one span per call (name,
start, end, parent span, request id) in per-thread buffers, and removes
every wrapper again on :meth:`Tracer.remove`.  Nothing under ``src/``
knows it is being traced.

Self time is a span's duration minus the durations of its direct
children; spans on one thread nest strictly, so that is exactly the part
of its interval no child covers.
"""

from __future__ import annotations

import threading
import time
from array import array
from contextlib import contextmanager

import numpy as np

#: Table-I operations, as named in ``repro.graphblas.operations``.
OPS = ("mxm", "mxv", "vxm", "ewise_add", "ewise_mult", "apply", "select",
       "reduce_rowwise", "reduce_scalar", "transpose", "extract", "assign",
       "subassign", "kronecker")

#: span-name prefix -> layer column of the "where did the time go" table.
LAYER_OF = {
    "plan": "plan", "backends": "dispatch", "governor": "governor",
    "kernel": "kernel", "mxm": "kernel", "mxv": "kernel", "engine": "kernel",
    "tiled": "kernel", "mask": "mask", "wait": "wait", "stream": "stream",
}
COLUMNS = ("plan", "dispatch", "governor", "kernel", "mask", "wait", "stream")

_NOW = time.perf_counter


class _Buffer:
    """One thread's spans; parents index into the same buffer."""

    def __init__(self):
        self.name = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("q")
        self.rid = array("q")
        self.stack: list[int] = []
        self.request = -1


class Tracer:
    """Installs span wrappers on the repro layers and collects the spans."""

    def __init__(self):
        self._tls = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._names: dict[str, int] = {}
        self._patches: list[tuple[object, str, bool, object]] = []
        self.counts: dict[str, float] = {}
        self.restored: list[tuple[object, str]] = []

    # -- recording ---------------------------------------------------------

    def _buf(self) -> _Buffer:
        b = getattr(self._tls, "buf", None)
        if b is None:
            b = self._tls.buf = _Buffer()
            with self._lock:
                self._buffers.append(b)
        return b

    def _nid(self, name: str) -> int:
        nid = self._names.get(name)
        if nid is None:
            with self._lock:
                nid = self._names.setdefault(name, len(self._names))
        return nid

    def count(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn, before=None):
        """``fn`` recording a span named ``name``; ``before(*args)`` runs
        first, untimed, to record counts about the operands."""
        nid = self._nid(name)

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            b = self._buf()
            i = len(b.t0)
            b.name.append(nid)
            b.parent.append(b.stack[-1] if b.stack else -1)
            b.rid.append(b.request)
            b.t1.append(0.0)
            b.stack.append(i)
            b.t0.append(_NOW())
            try:
                return fn(*args, **kwargs)
            finally:
                b.t1[i] = _NOW()
                b.stack.pop()

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        traced.perfbench_span = name
        return traced

    @contextmanager
    def request(self, rid: int, name: str):
        """Root span of one served request, tagging its subtree with ``rid``."""
        b = self._buf()
        prev, b.request = b.request, rid
        i = len(b.t0)
        b.name.append(self._nid(name))
        b.parent.append(b.stack[-1] if b.stack else -1)
        b.rid.append(rid)
        b.t1.append(0.0)
        b.stack.append(i)
        b.t0.append(_NOW())
        try:
            yield
        finally:
            b.t1[i] = _NOW()
            b.stack.pop()
            b.request = prev

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, name: str, before=None) -> None:
        self._replace(owner, attr, self.wrap(name, getattr(owner, attr), before))

    def _replace(self, owner, attr: str, value) -> None:
        own = attr in vars(owner)
        self._patches.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, attr, own, orig in reversed(self._patches):
            if own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)
        self.restored = [(owner, attr) for owner, attr, *_ in self._patches]
        self._patches.clear()

    def leftovers(self) -> list[str]:
        """Patched attributes that still hold a wrapper after :meth:`remove`."""
        return [f"{getattr(o, '__name__', o)}.{a}" for o, a in self.restored
                if hasattr(getattr(o, a), "perfbench_span")]

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics read."""
        from repro.graphblas import engine, governor, mask, matrix, operations
        from repro.graphblas import plan, tiled, vector
        from repro.graphblas.backends import current_backend, optimized
        from repro.stream import GraphStream

        for op in OPS:
            self.patch(operations, op, f"ops.{op}")
            self.patch(plan, f"plan_{op}", f"plan.{op}")
        self.patch(operations, "_dispatch", "backends.dispatch")
        self.patch(governor, "admit", "governor.admit")
        self.patch(tiled, "execute", "tiled.execute")
        be_cls = type(current_backend())
        supports = be_cls.supports

        def counted_supports(be, plan):
            ok = supports(be, plan)
            if not ok:
                self.count("backends.fallbacks")
            return ok

        counted_supports.perfbench_span = "backends.supports"
        self._replace(be_cls, "supports", counted_supports)
        for op in OPS:
            if op in vars(optimized.OptimizedBackend):
                self.patch(optimized.OptimizedBackend, op, f"kernel.{op}")
        self.patch(optimized, "mxm_coo", "mxm.mxm_coo", self._mxm_flops)
        self.patch(optimized, "spmspv_push", "mxv.push")
        self.patch(optimized, "spmv_pull", "mxv.pull")
        self.patch(engine, "run_blocks", "engine.run_blocks", self._blocks)
        for owner in (optimized, mask):
            self.patch(owner, "write_matrix", "mask.write_matrix")
            self.patch(owner, "write_vector", "mask.write_vector")
        self.patch(matrix.Matrix, "wait", "wait.matrix", self._assembling)
        self.patch(vector.Vector, "wait", "wait.vector", self._assembling)
        for fn in ("ingest", "flush", "snapshot"):
            self.patch(GraphStream, fn, f"stream.{fn}")

    def _mxm_flops(self, a_rows, b_rows, *args, **kwargs):
        # multiply-adds of the Gustavson expansion, from operand patterns
        self.count("mxm.flops", int(b_rows.vector_counts()[a_rows.minor].sum()))

    def _blocks(self, fn, arg_tuples, workers):
        self.count("engine.blocks", len(arg_tuples))

    def _assembling(self, obj):
        if obj.has_pending:
            self.count("wait.assembling")

    # -- analysis ----------------------------------------------------------

    def spans(self) -> dict:
        """All spans as flat arrays, with global parent indices."""
        names = {v: k for k, v in self._names.items()}
        parts = {k: [] for k in ("name", "t0", "t1", "parent", "rid")}
        base = 0
        for b in self._buffers:
            par = np.array(b.parent, dtype=np.int64)
            parts["name"].append(np.array(b.name, dtype=np.int64))
            parts["t0"].append(np.array(b.t0, dtype=np.float64))
            parts["t1"].append(np.array(b.t1, dtype=np.float64))
            parts["parent"].append(np.where(par >= 0, par + base, -1))
            parts["rid"].append(np.array(b.rid, dtype=np.int64))
            base += par.size
        out = {k: (np.concatenate(v) if v else np.empty(0)) for k, v in parts.items()}
        out["names"] = np.array([names[i] for i in range(len(names))], dtype=object)
        return out


class Analysis:
    """Self times and per-root aggregates derived from a span set."""

    def __init__(self, sp: dict):
        self.names = [str(x) for x in sp["names"]]
        name = sp["name"].astype(np.int64)
        parent = sp["parent"].astype(np.int64)
        self.dur = sp["t1"] - sp["t0"]
        child = np.zeros_like(self.dur)
        has = parent >= 0
        np.add.at(child, parent[has], self.dur[has])
        self.self_s = self.dur - child
        self.label = np.array(self.names, dtype=object)[name]
        self.prefix = np.array([n.split(".", 1)[0] for n in self.names],
                               dtype=object)[name]
        self.parent = parent
        # root of every span by pointer doubling (parents precede children)
        root = np.where(has, parent, np.arange(parent.size))
        while True:
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        self.root = root

    def mask(self, *names: str, prefix: str | None = None) -> np.ndarray:
        if prefix is not None:
            return self.prefix == prefix
        return np.isin(self.label, list(names))

    def calls(self, m) -> int:
        return int(np.count_nonzero(m))

    def self_time(self, m) -> float:
        return float(self.self_s[m].sum())

    def busy(self, m) -> float:
        """Inclusive time of the outermost spans selected by ``m``."""
        outer = m.copy()
        p = self.parent[m]
        inner = p >= 0
        idx = np.flatnonzero(m)
        outer[idx[inner]] = ~m[p[inner]]
        return float(self.dur[outer].sum())

    def table(self, roots: dict[str, str]) -> dict[str, dict[str, float]]:
        """Per-root-name self time by layer column, in ms per root span.

        ``roots`` maps a root span name to its row label.
        """
        rows = {}
        for span_name, label in roots.items():
            is_root = (self.label == span_name) & (self.parent < 0)
            n = self.calls(is_root)
            if not n:
                continue
            sel = np.isin(self.root, np.flatnonzero(is_root))
            row = {"runs": n, "total": float(self.dur[is_root].sum()) * 1e3 / n}
            for col in COLUMNS:
                keys = [k for k, v in LAYER_OF.items() if v == col]
                m = sel & np.isin(self.prefix, keys)
                row[col] = self.self_time(m) * 1e3 / n
            row["other"] = row["total"] - sum(row[c] for c in COLUMNS)
            rows[label] = row
        return rows


def layer_metrics(an: Analysis, counts: dict, per: float) -> dict:
    """The span-derived per-layer metrics; times and counts are divided by
    ``per`` (passes of the job list, or 1 for one serve window)."""
    sel = an.mask
    ops = sel(prefix="ops")
    busy = an.busy(ops)
    n_ops = an.calls(ops)
    plan_self = an.self_time(sel(prefix="plan"))
    mxm = sel("mxm.mxm_coo")
    mxm_dur = float(an.dur[mxm].sum())
    push, pull = an.calls(sel("mxv.push")), an.calls(sel("mxv.pull"))
    blocks = sel("engine.run_blocks")
    mask = sel("mask.write_matrix", "mask.write_vector")
    wait = sel("wait.matrix", "wait.vector")
    admit = sel("governor.admit")
    flops = counts.get("mxm.flops", 0)
    n_wait = an.calls(wait)
    return {
        "lagraph.self_s": an.self_time(sel(prefix="lagraph")) / per,
        "operations.calls": n_ops / per,
        "operations.busy_s": busy / per,
        "operations.us_per_call": busy / n_ops * 1e6 if n_ops else 0.0,
        "plan.self_s": plan_self / per,
        "plan.share": plan_self / busy if busy else 0.0,
        "backends.dispatch.self_s": an.self_time(sel("backends.dispatch")) / per,
        "backends.fallbacks": counts.get("backends.fallbacks", 0) / per,
        "governor.admit.calls": an.calls(admit) / per,
        "governor.admit.self_s": an.self_time(admit) / per,
        "governor.tiled_routes": an.calls(sel("tiled.execute")) / per,
        "kernel.self_s": an.self_time(sel(prefix="kernel")) / per,
        "mxm.self_s": an.self_time(mxm) / per,
        "mxm.flops": flops / per,
        "mxm.mflops_per_s": flops / mxm_dur / 1e6 if mxm_dur else 0.0,
        "mxv.self_s": an.self_time(sel(prefix="mxv")) / per,
        "mxv.push_frac": push / (push + pull) if push + pull else 0.0,
        "engine.run_blocks.calls": an.calls(blocks) / per,
        "engine.blocks": counts.get("engine.blocks", 0) / per,
        "engine.run_blocks.busy_s": an.busy(blocks) / per,
        "mask.write.calls": an.calls(mask) / per,
        "mask.write.self_s": an.self_time(mask) / per,
        "wait.calls": n_wait / per,
        "wait.self_s": an.self_time(wait) / per,
        "wait.assembling_frac": counts.get("wait.assembling", 0) / n_wait
        if n_wait else 0.0,
        "stream.ingest.self_s": an.self_time(sel("stream.ingest")) / per,
        "stream.flush.self_s": an.self_time(sel("stream.flush")) / per,
        "stream.snapshot.self_s": an.self_time(sel("stream.snapshot")) / per,
    }


def render_table(title: str, rows: dict, queue_ms: dict) -> str:
    """The "where did the time go" table, ms per run of each algorithm."""
    cols = ("total",) + COLUMNS + ("queue", "other")
    head = f"{'algorithm':<18}" + "".join(f"{c:>10}" for c in cols) + f"{'runs':>7}"
    lines = [title, head, "-" * len(head)]
    for label, row in rows.items():
        row = dict(row, queue=queue_ms.get(label, 0.0))
        lines.append(f"{label:<18}" + "".join(f"{row[c]:>10.3f}" for c in cols)
                     + f"{row['runs']:>7}")
    lines.append("(ms per run; self time by layer; 'other' is algorithm code and "
                 "the operations shim; 'queue' is serve queue wait, not in total)")
    return "\n".join(lines)
