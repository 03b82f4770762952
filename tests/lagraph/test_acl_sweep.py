"""ACL local clustering: the one-pass sweep cut equals the per-prefix one.

The reference below is the prefix-by-prefix formulation: the ACL push
over an FP64 structure matrix under PLUS_TIMES, then one
:func:`conductance` call per prefix of the p/deg order.
:func:`local_clustering` must return exactly what it returns — the same
members and the same conductance, bit for bit.
"""

import os

import numpy as np
import pytest

import repro.lagraph as lg
from repro.generators import rmat_graph
from repro.graphblas import Vector
from repro.graphblas import operations as ops
from repro.io import mmread
from repro.lagraph import Graph, conductance

KARATE = os.path.join(os.path.dirname(__file__), "..", "..", "data", "karate.mtx")


def reference_local_clustering(seed_vertex, graph, *, alpha=0.15, eps=1e-5,
                               max_pushes=10_000):
    n = graph.n
    deg = np.maximum(graph.out_degree.to_dense(), 1).astype(np.float64)
    S = graph.structure("FP64")
    p = Vector("FP64", n)
    r = Vector("FP64", n)
    r.set_element(seed_vertex, 1.0)
    for _ in range(max_pushes):
        ri, rv = r.extract_tuples()
        sel = rv >= eps * deg[ri]
        heavy, hv = ri[sel], rv[sel]
        if heavy.size == 0:
            break
        ops.ewise_add(p, p, Vector.from_coo(heavy, alpha * hv, size=n), "PLUS")
        keep = Vector.from_coo(
            np.arange(heavy.size), (1 - alpha) / 2 * hv, size=heavy.size
        )
        spread_src = Vector.from_coo(heavy, (1 - alpha) / 2 * hv / deg[heavy], size=n)
        spread = Vector("FP64", n)
        ops.vxm(spread, spread_src, S, "PLUS_TIMES")
        ops.assign(r, keep, heavy)
        ops.ewise_add(r, r, spread, "PLUS")
    pi, pv = p.extract_tuples()
    if pi.size == 0:
        return np.array([seed_vertex], dtype=np.int64), 1.0
    order = pi[np.argsort(-pv / deg[pi], kind="stable")]
    best_set, best_cond = order[:1], np.inf
    for k in range(1, order.size + 1):
        cond = conductance(graph, order[:k])
        if cond < best_cond:
            best_cond = cond
            best_set = order[:k]
    return np.sort(best_set), float(best_cond)


def assert_same(graph, seed, **kw):
    members, cond = lg.local_clustering(seed, graph, **kw)
    ref_members, ref_cond = reference_local_clustering(seed, graph, **kw)
    assert np.array_equal(members, ref_members)
    assert members.dtype == ref_members.dtype
    assert cond == ref_cond
    return members, cond


@pytest.mark.parametrize("seed", [0, 5, 16, 33])
@pytest.mark.parametrize("eps", [1e-5, 1e-3])
def test_karate(seed, eps):
    g = Graph(mmread(KARATE), "undirected")
    assert_same(g, seed, eps=eps)


@pytest.mark.parametrize("gseed", [1, 2])
def test_rmat8_undirected(gseed):
    g = rmat_graph(8, 8, kind="undirected", seed=gseed)
    for v in np.random.default_rng(gseed).choice(g.n, 4, replace=False):
        assert_same(g, int(v), eps=1e-4)


def test_directed_weighted():
    g = rmat_graph(7, 8, kind="directed", weighted=True, seed=3)
    assert g.A.dtype.name == "FP64"
    for v in np.random.default_rng(3).choice(g.n, 4, replace=False):
        assert_same(g, int(v), eps=1e-4)


def test_self_loops():
    # a ring with self-loops on every other vertex: loops count as inside
    n = 12
    src = np.concatenate([np.arange(n), np.arange(0, n, 2)])
    dst = np.concatenate([(np.arange(n) + 1) % n, np.arange(0, n, 2)])
    g = Graph.from_edges(src, dst, n=n, kind="undirected")
    assert g.nself_edges == n // 2
    for seed in (0, 3):
        assert_same(g, seed, eps=1e-3)


def test_isolated_seed():
    g = Graph.from_edges([0, 1], [1, 2], n=5, kind="undirected")
    members, cond = assert_same(g, 4)
    assert members.tolist() == [4] and cond == 1.0


def test_sweep_takes_whole_component():
    # a triangle beside isolated vertices: the full prefix has vol_rest == 0
    g = Graph.from_edges([0, 1, 2], [1, 2, 0], n=6, kind="undirected")
    members, cond = assert_same(g, 0, eps=1e-6)
    assert cond == 1.0
    assert conductance(g, [0, 1, 2]) == 1.0
