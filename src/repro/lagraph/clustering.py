"""Clustering algorithms (paper section V, refs [45], [46]).

* :func:`markov_clustering` — MCL (van Dongen; HipMCL [45] is its
  distributed GraphBLAS incarnation): alternate *expansion* (semiring
  squaring of the column-stochastic matrix), *inflation* (Hadamard power +
  renormalization) and *pruning* (select of small entries) to a fixpoint;
  clusters are read off the attractor rows.
* :func:`peer_pressure_clustering` — Gilbert, Reinhardt & Shah [46]: each
  vertex adopts the most common cluster among its neighbours, computed as
  one cluster-indicator x adjacency product plus a column-argmax, iterated
  to a fixpoint.
* :func:`local_clustering` — the Table II "local graph clustering" row:
  Andersen-Chung-Lang approximate personalized PageRank push, followed by
  a one-pass conductance sweep cut.
"""

from __future__ import annotations

import numpy as np

from ..graphblas import Matrix, Vector
from ..graphblas import operations as ops
from ..graphblas.descriptor import Descriptor
from ..graphblas.errors import InvalidValue
from .graph import Graph

__all__ = [
    "markov_clustering",
    "peer_pressure_clustering",
    "local_clustering",
    "conductance",
]

_RS = Descriptor(replace=True, structural_mask=True)


def _column_normalize(M: Matrix) -> Matrix:
    """Scale columns to sum to 1 (column-stochastic), via diag scaling."""
    n = M.ncols
    s = Vector("FP64", n)
    ops.reduce_rowwise(s, M, "PLUS", desc="T0")  # column sums
    inv = Vector("FP64", n)
    ops.apply(inv, s, "minv")
    D = ops.diag(inv)
    out = Matrix("FP64", M.nrows, n)
    ops.mxm(out, M, D, "PLUS_TIMES")
    return out


def markov_clustering(
    graph: Graph,
    *,
    expansion: int = 2,
    inflation: float = 2.0,
    prune: float = 1e-4,
    max_iters: int = 100,
    add_self_loops: bool = True,
) -> Vector:
    """MCL; returns an INT64 cluster-id vector (ids are attractor vertices)."""
    if expansion < 2:
        raise InvalidValue("expansion must be >= 2")
    n = graph.n
    M = Matrix("FP64", n, n)
    ops.apply(M, graph.A, "one")
    if add_self_loops:
        eye = Matrix.sparse_identity(n, dtype="FP64", value=1.0)
        ops.ewise_add(M, M, eye, "MAX")
    M = _column_normalize(M)

    for _ in range(max_iters):
        prev = M.dup()
        # expansion: M <- M^expansion over (+, x)
        E = M.dup()
        for _ in range(expansion - 1):
            nxt = Matrix("FP64", n, n)
            ops.mxm(nxt, E, M, "PLUS_TIMES")
            E = nxt
        # inflation: Hadamard power, then renormalize columns
        ops.apply(E, E, "pow", right=inflation)
        # pruning of tiny entries keeps the iteration sparse
        pruned = Matrix("FP64", n, n)
        ops.select(pruned, E, "VALUEGT", prune)
        M = _column_normalize(pruned)
        # convergence: no structural change and small value drift
        diff = Matrix("FP64", n, n)
        ops.ewise_add(diff, M, neg_m(prev), "PLUS")
        ops.apply(diff, diff, "abs")
        if float(ops.reduce_scalar(diff, "MAX")) < 1e-8:
            break

    # attractors: vertices with mass on their own diagonal; each column's
    # cluster is its strongest attractor row
    r, c, v = M.extract_tuples()
    labels = np.full(n, -1, dtype=np.int64)
    best = np.full(n, -1.0)
    for i, j, x in zip(r, c, v):
        if x > best[j]:
            best[j] = x
            labels[j] = i
    # canonicalize ids: label of an attractor is itself
    for j in range(n):
        if labels[j] >= 0 and labels[labels[j]] >= 0:
            labels[j] = labels[labels[j]]
    return Vector.from_dense(labels)


def neg_m(M: Matrix) -> Matrix:
    out = Matrix("FP64", *M.shape)
    ops.apply(out, M, "ainv")
    return out


def peer_pressure_clustering(
    graph: Graph, *, max_iters: int = 50
) -> Vector:
    """Peer-pressure clustering; returns an INT64 cluster-id vector."""
    n = graph.n
    S = graph.structure("FP64")
    # every vertex starts in its own cluster: C is cluster x vertex one-hot
    C = Matrix.sparse_identity(n, dtype="FP64", value=1.0)

    for _ in range(max_iters):
        # votes: T(c, v) = number of v's neighbours in cluster c
        T = Matrix("FP64", n, n)
        ops.mxm(T, C, S, "PLUS_TIMES")
        # each vertex also votes for its current cluster (tie stability)
        ops.ewise_add(T, T, half(C), "PLUS")
        # column argmax: strongest cluster per vertex, min id on ties
        m = Vector("FP64", n)
        ops.reduce_rowwise(m, T, "MAX", desc="T0")
        D = ops.diag(m)
        colmax = Matrix("FP64", n, n)
        ops.mxm(colmax, T, D, "ANY_SECOND")
        winners = Matrix("BOOL", n, n)
        ops.ewise_mult(winners, T, colmax, "GE")
        w2 = Matrix("BOOL", n, n)
        ops.select(w2, winners, "VALUEEQ", True)
        rowidx = Matrix("INT64", n, n)
        ops.apply(rowidx, w2, "ROWINDEX", thunk=0)
        newlab = Vector("INT64", n)
        ops.reduce_rowwise(newlab, rowidx, "MIN", desc="T0")
        # rebuild the indicator from the new labels
        li, lv = newlab.extract_tuples()
        C_next = Matrix.from_coo(
            lv, li, np.ones(li.size), nrows=n, ncols=n, dtype="FP64"
        )
        if C_next.isequal(C):
            break
        C = C_next

    li, lv = newlab.extract_tuples()
    labels = np.arange(n, dtype=np.int64)
    labels[li] = lv
    return Vector.from_dense(labels)


def half(C: Matrix) -> Matrix:
    """C * 0.5 — a self-vote smaller than any full neighbour vote."""
    out = Matrix("FP64", *C.shape)
    ops.apply(out, C, "times", right=0.5)
    return out


def local_clustering(
    seed_vertex: int,
    graph: Graph,
    *,
    alpha: float = 0.15,
    eps: float = 1e-5,
    max_pushes: int = 10_000,
) -> tuple[np.ndarray, float]:
    """ACL approximate-PPR local clustering around ``seed_vertex``.

    Returns (member vertex ids, conductance of the sweep cut) — the
    Table II "local graph clustering" computation.  The sweep scores every
    prefix of the p/deg order in one pass: one extract of the subgraph the
    order induces gives each prefix's internal entry count, so the result
    equals calling :func:`conductance` on each prefix, without the calls.
    """
    n = graph.n
    out_deg = graph.out_degree.to_dense().astype(np.float64)
    deg = np.maximum(out_deg, 1)

    p = Vector("FP64", n)
    r = Vector("FP64", n)
    r.set_element(seed_vertex, 1.0)

    for _ in range(max_pushes):
        # vectorized batch push: all vertices with r(u) >= eps * deg(u)
        ri, rv = r.extract_tuples()
        sel = rv >= eps * deg[ri]
        heavy, hv = ri[sel], rv[sel]
        if heavy.size == 0:
            break
        # p += alpha * r_heavy
        add_p = Vector.from_coo(heavy, alpha * hv, size=n)
        ops.ewise_add(p, p, add_p, "PLUS")
        # lazy-walk push: half the remaining mass stays, half spreads
        keep = Vector.from_coo(
            np.arange(heavy.size), (1 - alpha) / 2 * hv, size=heavy.size
        )
        spread_src = Vector.from_coo(
            heavy, (1 - alpha) / 2 * hv / deg[heavy], size=n
        )
        spread = Vector("FP64", n)
        # PLUS_FIRST reads only A's pattern, so A serves as its own structure
        ops.vxm(spread, spread_src, graph.A, "PLUS_FIRST")
        ops.assign(r, keep, heavy)  # r_heavy <- kept mass
        ops.ewise_add(r, r, spread, "PLUS")

    # sweep cut: order by p/deg, take the prefix of minimum conductance
    pi, pv = p.extract_tuples()
    if pi.size == 0:
        return np.array([seed_vertex], dtype=np.int64), 1.0
    order = pi[np.argsort(-pv / deg[pi], kind="stable")]
    m = order.size
    # A(order, order): an entry at positions (i, j) lies inside every
    # prefix longer than max(i, j)
    sub = Matrix(graph.A.dtype, m, m)
    ops.extract(sub, graph.A, order, order)
    si, sj, _ = sub.extract_tuples()
    inside = np.cumsum(np.bincount(np.maximum(si, sj), minlength=m))
    vol_s = np.cumsum(out_deg[order])
    small = np.minimum(vol_s, out_deg.sum() - vol_s)
    cond = np.ones(m)  # conductance()'s value when either side has no volume
    ok = small != 0
    cond[ok] = (vol_s[ok] - inside[ok]) / small[ok]
    k = int(np.argmin(cond))
    return np.sort(order[: k + 1]), float(cond[k])


def conductance(graph: Graph, members) -> float:
    """Cut edges / min(vol(S), vol(V-S)) for vertex set ``members``."""
    members = np.asarray(members, dtype=np.int64)
    n = graph.n
    ind = Vector.from_coo(np.sort(members), np.ones(members.size), size=n)
    deg = graph.out_degree.to_dense().astype(np.float64)
    vol_s = float(deg[members].sum())
    vol_rest = float(deg.sum() - vol_s)
    if min(vol_s, vol_rest) == 0:
        return 1.0
    # edges leaving S: sum over members of neighbours outside S
    S = graph.structure("FP64")
    hits = Vector("FP64", n)
    ops.vxm(hits, ind, S, "PLUS_TIMES")
    inside = Vector("FP64", n)
    ops.ewise_mult(inside, hits, ind, "FIRST")
    cut = float(ops.reduce_scalar(hits, "PLUS")) - float(
        ops.reduce_scalar(inside, "PLUS")
    )
    return cut / min(vol_s, vol_rest)
