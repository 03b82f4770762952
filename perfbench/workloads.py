"""The benchmark's three workloads.

Each workload builds its inputs from the seed alone, measures for a given
number of seconds, and checks every output against an oracle:

``lagraph-overhead``
    RMAT-12 jobs that make hundreds to thousands of Table-I calls on
    vector-sized operands, so the fixed per-call path dominates.
``lagraph-kernels``
    RMAT-13 jobs that make few calls on large operands, so the SpGEMM and
    SpMV kernels and the engine's block pool dominate.
``serve-readwrite``
    An open-loop read mix against a :class:`~repro.serve.GraphServer`
    while a write stream publishes fixed-size edge batches beside it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

import repro.lagraph as lg
from repro.generators import random_bipartite, rmat_graph
from repro.graphblas import DirectionOptimizer, Matrix, Vector
from repro.serve import GraphServer, server as serve_server

#: every algorithm of the two lagraph suites, in per-layer metric order
ALGOS = ("coloring", "mis", "matching", "sssp", "acl", "astar", "peer_pressure",
         "bfs", "triangles", "pagerank", "betweenness", "mcl")
SETUP_REPS = 5
#: the lagraph-* warm-up runs every job once on a graph this small, to fill
#: process-wide lazy caches without paying a full pass at full scale
WARM_SCALE = 7


def same(a, b) -> bool:
    """Bit-identical comparison of job outputs."""
    if isinstance(a, (Vector, Matrix)):
        return type(a) is type(b) and a.isequal(b)
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and \
            np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and \
            all(same(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


def pct(xs, q: float) -> float:
    return float(np.percentile(xs, q)) if len(xs) else 0.0


def geomean(xs) -> float:
    return math.exp(statistics.fmean(math.log(x) for x in xs))


class Failure(AssertionError):
    """An output that failed its oracle."""


def _check(ok, what: str) -> None:
    if not ok:
        raise Failure(what)


# --------------------------------------------------------------------------
# lagraph suites
# --------------------------------------------------------------------------

class Job:
    """One algorithm invocation with the oracle that checks its output."""

    __slots__ = ("algo", "run", "check")

    def __init__(self, algo, run, check):
        self.algo, self.run, self.check = algo, run, check


def _graph(scale: int, edge_factor: int, kind: str, rng, *, weighted=False,
           structure: int = 0) -> lg.Graph:
    """An RMAT graph whose shape is fixed by ``structure`` and whose vertex
    ids are a random permutation drawn from ``rng`` (as Graph500 relabels).

    Fresh RMAT graphs differ by seed in the work they cost (triangle count
    time by up to 40% at RMAT-13); relabeling keeps the work of a pass
    alike across seeds while the seed still changes every input id.
    """
    g = rmat_graph(scale, edge_factor, seed=structure, kind=kind, weighted=weighted)
    r, c, w = g.A.extract_tuples()
    if kind == "undirected":
        r, c, w = r[r < c], c[r < c], w[r < c]
    perm = rng.permutation(g.n)
    return lg.Graph.from_edges(perm[r], perm[c], w, n=g.n, kind=kind,
                            dtype=np.float64, dup="FIRST")


def _sources(g, k: int, rng) -> list[int]:
    """``k`` distinct seeded vertices whose two-step walk count (the sum of
    their neighbours' degrees) lies between the 5th and 20th percentile
    over non-isolated vertices.

    ACL's cost follows the size of the region its mass spreads over, which
    from a random vertex ranges from 2 to thousands of vertices; drawing
    from this band keeps the work of a job alike across seeds and keeps
    every source in the giant component, so BFS and betweenness traverse
    it whole.
    """
    r, c, _ = g.A.extract_tuples()
    deg = np.bincount(r, minlength=g.n)
    walk = np.bincount(r, weights=deg[c], minlength=g.n)
    lo, hi = np.percentile(walk[deg > 0], [5, 20])
    band = np.flatnonzero((walk >= lo) & (walk <= hi) & (deg > 0))
    return [int(v) for v in rng.choice(band, size=k, replace=False)]


def _check_acl(g, seed_vertex, out) -> None:
    members, cond = out
    _check(members.size >= 1 and 0.0 <= cond <= 1.0, "acl: empty set or bad conductance")
    _check(np.all(np.diff(members) > 0), "acl: members not sorted unique")
    _check(abs(lg.conductance(g, members) - cond) < 1e-12,
           "acl: reported conductance differs from the set's conductance")


def _check_astar(gd, src, dst, dist_ref, out) -> None:
    path, dist = out
    _check(path[0] == src and path[-1] == dst, "astar: path endpoints")
    w = sum(gd.A.get(u, v) for u, v in zip(path, path[1:]))
    _check(abs(w - dist) < 1e-9, "astar: path weight differs from distance")
    _check(abs(dist - dist_ref) < 1e-9, "astar: distance is not the SSSP distance")


def _check_labels(g, labels) -> None:
    idx, lab = labels.extract_tuples()
    _check(idx.size == g.n, "every vertex needs a cluster label")
    _check(np.all((lab >= 0) & (lab < g.n)), "cluster label is not a vertex id")


def _check_bc(g, sources, bc) -> None:
    import networkx as nx

    r, c, _ = g.A.extract_tuples()
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(zip(r.tolist(), c.tolist()))
    ref = nx.betweenness_centrality_subset(G, sources, list(G), normalized=False)
    ref = np.array([ref[v] for v in range(g.n)])
    got = bc.to_dense()
    _check(np.allclose(got, ref, rtol=1e-9, atol=1e-9),
           "betweenness differs from the networkx Brandes oracle")


def overhead_jobs(seed: int, scale: int = 12) -> list[Job]:
    """Jobs dominated by the fixed per-call path (plan, dispatch, mask, wait).

    Every algorithm but SSSP and peer pressure runs several instances per
    pass (other seeds or sources), so its per-pass time is a sum that
    varies little by seed.  Coloring, the slowest, is 2 of the 22 jobs, so
    ``query_p95_ms`` falls inside its block rather than between two
    algorithms; A*, MIS and SSSP, of one size, hold the median.
    """
    rng = np.random.default_rng(seed)
    g = _graph(scale, 8, "undirected", rng, structure=1)
    gd = _graph(scale, 8, "directed", rng, weighted=True, structure=2)
    nb = 1 << (scale - 1)
    B = random_bipartite(nb, nb + 64, 8 / nb, seed=int(rng.integers(1 << 31)))
    for graph in (g, gd):
        graph.enable_dual_storage()
    # sssp/A* source: the largest out-degree vertex, so most vertices are
    # reachable.  A* with no heuristic settles every vertex closer than its
    # target, so targets at fixed, adjacent distance ranks give four jobs of
    # one size.
    s0 = int(np.argmax(gd.out_degree.to_dense()))
    reach, d = lg.delta_stepping_sssp(s0, gd).extract_tuples()
    near = reach[np.argsort(d, kind="stable")]
    targets = [int(near[min(r, near.size - 1)]) for r in (50, 51, 52, 53)]
    acl_seeds = _sources(g, 4, rng)
    bfs_src = _sources(g, 4, rng)
    seeds = [int(x) for x in rng.integers(1 << 31, size=4)]
    dist = {}

    def sssp_check(out):
        lg.check_sssp_distances(gd, s0, out)
        dist.update(zip(*map(np.ndarray.tolist, out.extract_tuples())))

    jobs = [Job("coloring", lambda s=s: lg.greedy_color(g, seed=s),
                lambda out: _check(lg.is_valid_coloring(g, out), "coloring invalid"))
            for s in seeds[:2]]
    jobs += [Job("mis", lambda s=s: lg.maximal_independent_set(g, seed=s),
                 lambda out: _check(lg.is_maximal_independent_set(g, out),
                                    "MIS not maximal"))
             for s in seeds]
    jobs += [Job("matching", lambda s=s: lg.maximal_matching(B, seed=s),
                 lambda out: _check(lg.is_maximal_matching(B, out), "matching not maximal"))
             for s in seeds[:2]]
    # before A*: its check reads the distances this check records
    jobs.append(Job("sssp", lambda: lg.delta_stepping_sssp(s0, gd), sssp_check))
    jobs += [Job("acl", lambda v=v: lg.local_clustering(v, g, eps=1e-4),
                 lambda out, v=v: _check_acl(g, v, out))
             for v in acl_seeds]
    jobs += [Job("astar", lambda t=t: lg.astar_path(s0, t, gd),
                 lambda out, t=t: _check_astar(gd, s0, t, dist[t], out))
             for t in targets]
    # 4 iterations: it converges after 5 to 12 depending on the graph
    jobs.append(Job("peer_pressure", lambda: lg.peer_pressure_clustering(g, max_iters=4),
                    lambda out: _check_labels(g, out)))
    jobs += [Job("bfs", lambda v=v: lg.bfs_level(v, g, optimizer=DirectionOptimizer(0.03)),
                 lambda out, v=v: lg.check_bfs_levels(g, v, out))
             for v in bfs_src]
    return jobs


def kernel_jobs(seed: int, scale: int = 13) -> list[Job]:
    """Jobs dominated by SpGEMM/SpMV kernels and the engine block pool."""
    rng = np.random.default_rng(seed)
    g = _graph(scale, 8, "undirected", rng, structure=3)
    gm = _graph(scale - 1, 8, "undirected", rng, structure=4)
    for graph in (g, gm):
        graph.enable_dual_storage()
    bc_src = _sources(g, 8, rng)
    return [
        Job("triangles", lambda: lg.triangle_count(g, "sandia_ll"),
            lambda out: _check(out == lg.triangle_count(g, "burkhardt"),
                               "sandia_ll and burkhardt triangle counts differ")),
        # a fixed 30 iterations (tol=0), so the work does not depend on
        # how fast this seed's graph converges
        Job("pagerank", lambda: lg.pagerank(g, tol=0.0, max_iters=30)[0],
            lg.check_pagerank),
        Job("betweenness", lambda: lg.betweenness_centrality(g, sources=bc_src),
            lambda out: _check_bc(g, bc_src, out)),
        Job("mcl", lambda: lg.markov_clustering(gm), lambda out: _check_labels(gm, out)),
    ]


class LagraphSuite:
    """Repeated validated passes over a job list."""

    serve = False

    def __init__(self, build, scale):
        self._build, self.scale = build, scale

    def setup(self, seed: int):
        for job in self._build(seed, WARM_SCALE):
            job.run()
        jobs = self._build(seed, self.scale)
        algos = list(dict.fromkeys(j.algo for j in jobs))
        return {"jobs": jobs, "algos": algos}

    def close(self, state) -> None:
        pass

    def measure(self, state, seconds: float, tracer=None, between=None) -> dict:
        """Passes until ``seconds`` have elapsed; at least one.  ``between()``
        runs after each pass, outside the timed region."""
        jobs = state["jobs"]
        runs = [j.run if tracer is None else tracer.wrap(f"lagraph.{j.algo}", j.run)
                for j in jobs]
        passes, algo_ms, job_ms, outs = [], {a: [] for a in state["algos"]}, [], []
        end = time.perf_counter() + seconds
        while not passes or time.perf_counter() < end:
            per_algo = dict.fromkeys(state["algos"], 0.0)
            out = []
            t_pass = time.perf_counter()
            for job, run in zip(jobs, runs):
                t0 = time.perf_counter()
                try:
                    out.append(run())
                except Exception as exc:  # noqa: BLE001 - a failed attempt
                    out.append(exc)
                dt = (time.perf_counter() - t0) * 1e3
                per_algo[job.algo] += dt
                job_ms.append(dt)
            passes.append(time.perf_counter() - t_pass)
            for a, ms in per_algo.items():
                algo_ms[a].append(ms)
            outs.append(out)
            if between is not None:
                between()
        return {"passes": passes, "algo_ms": algo_ms, "job_ms": job_ms,
                "outs": outs, "attempted": len(outs) * len(jobs)}

    def validate(self, state, res, reference=None) -> list[str]:
        """Oracle-check the first pass; every later pass (and every pass of
        ``res`` when ``reference`` is a run on the same inputs) must be
        bit-identical to it.  Returns one error per failed attempt."""
        errors = []
        first = res["outs"][0] if reference is None else reference["outs"][0]
        if reference is None:
            for job, out in zip(state["jobs"], first):
                try:
                    if isinstance(out, Exception):
                        raise out
                    job.check(out)
                except AssertionError as exc:
                    errors.append(f"{job.algo}: {exc}")
                except Exception as exc:  # noqa: BLE001 - reported as wrong
                    errors.append(f"{job.algo}: {type(exc).__name__}: {exc}")
        for k, outs in enumerate(res["outs"]):
            for job, a, b in zip(state["jobs"], first, outs):
                if reference is None and k == 0:
                    continue
                if isinstance(b, Exception):
                    errors.append(f"{job.algo}: pass {k}: {type(b).__name__}: {b}")
                elif not isinstance(a, Exception) and not same(a, b):
                    errors.append(f"{job.algo}: pass {k} output differs from pass 0")
        return errors

    def end_to_end(self, res) -> dict:
        return {
            "suite_pass_s": statistics.median(res["passes"]),
            "suite_geomean_ms": geomean(statistics.median(v)
                                        for v in res["algo_ms"].values()),
            "query_p50_ms": pct(res["job_ms"], 50),
            "query_p95_ms": pct(res["job_ms"], 95),
        }


# --------------------------------------------------------------------------
# serving
# --------------------------------------------------------------------------

#: read mix, one cycle of 10 queries repeated in this order: bfs 40%,
#: sssp 30%, components 20%, pagerank 10%.  A fixed order keeps seeds from
#: differing in how often two pageranks queue behind each other.
#: Triangles (~470 ms at RMAT-12) would set every tail, so they stay out.
CYCLE = ("bfs", "sssp", "components", "bfs", "sssp", "pagerank", "bfs", "sssp",
         "components", "bfs")
MIX = tuple(dict.fromkeys(CYCLE))
READ_RATE = 12.0      # queries per second, open loop
WRITE_EVERY = 0.5     # seconds between edge batches
BATCH = 256           # edges per batch
BUDGET = 256 << 20    # tenant memory budget: admission runs, nothing spills
TENANT = "bench"
SERVE_KEYS = ("serve.queue_wait_p50_ms", "serve.queue_wait_p95_ms", "serve.exec_p50_ms",
              "serve.exec_p95_ms", "serve.retries", "serve.degraded_frac", "serve.shed",
              "serve.publish_p50_ms", "serve.publish_p95_ms", "loadgen.lag_p95_ms")


class ServeReadWrite:
    """Open-loop reads beside a scheduled write stream on a GraphServer."""

    serve = True

    def __init__(self, scale: int = 12):
        self.scale = scale
        self.tracer = None

    def _query(self, algo):
        builtin = serve_server.ALGORITHMS[algo]

        def run(graph, *, rid, **params):
            if self.tracer is None:
                return builtin(graph, **params)
            with self.tracer.request(rid, f"serve.{algo}"):
                return builtin(graph, **params)

        return run

    def setup(self, seed: int):
        rng = np.random.default_rng(seed)
        g = _graph(self.scale, 16, "undirected", rng, weighted=True, structure=5)
        r, c, w = g.A.extract_tuples()
        up = r < c
        order = rng.permutation(int(up.sum()))
        src, dst, wt = r[up][order], c[up][order], w[up][order]
        half = src.size // 2
        srv = GraphServer(workers=2, seed=seed)
        srv.register_tenant(TENANT, memory_budget=BUDGET)
        for algo in MIX:
            serve_server.register_algorithm(f"perfbench.{algo}", self._query(algo),
                                            replace=True)
        srv.add_graph("g", n=g.n)
        for lo in range(0, half, 4096):
            srv.ingest("g", src[lo:min(lo + 4096, half)], dst[lo:min(lo + 4096, half)],
                       weights=wt[lo:min(lo + 4096, half)])
        srv.publish("g")
        state = {"srv": srv, "src": src, "dst": dst, "wt": wt, "next": half,
                 "sources": _sources(srv.snapshot("g"), 16, rng),
                 "rng": rng, "rid": 0, "oracle": {}}
        for algo in MIX:  # warm-up: one served query of each kind
            t = srv.submit(f"perfbench.{algo}", graph="g", tenant=TENANT, rid=-1,
                           **self._params(algo, state))
            t.result(timeout=60)
        return state

    def close(self, state) -> None:
        state["srv"].close()

    @staticmethod
    def _params(algo, state) -> dict:
        if algo in ("bfs", "sssp"):
            return {"source": int(state["rng"].choice(state["sources"]))}
        if algo == "pagerank":  # fixed iterations: work does not vary by seed
            return {"tol": 0.0, "max_iters": 20}
        return {}

    @staticmethod
    def _schedule(seconds):
        reads = [(k / READ_RATE, "read", CYCLE[k % len(CYCLE)])
                 for k in range(int(seconds * READ_RATE))]
        writes = [(WRITE_EVERY / 2 + k * WRITE_EVERY, "write", None)
                  for k in range(int(seconds / WRITE_EVERY))]
        return sorted(reads + writes, key=lambda e: e[0])

    def _write(self, state):
        srv, lo = state["srv"], state["next"]
        n = state["src"].size
        idx = np.arange(lo, lo + BATCH) % n  # wraps: re-asserts old edges
        state["next"] = (lo + BATCH) % n
        srv.ingest("g", state["src"][idx], state["dst"][idx], weights=state["wt"][idx])
        srv.publish("g")

    def measure(self, state, seconds: float, tracer=None) -> dict:
        srv = state["srv"]
        self.tracer = tracer
        write = self._write if tracer is None else tracer.wrap("serve.publish", self._write)
        sent, publish_ms, lag_ms = [], [], []
        shed = []
        t_start = time.monotonic()
        try:
            for at, kind, algo in self._schedule(seconds):
                due = t_start + at
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                lag_ms.append(max(0.0, time.monotonic() - due) * 1e3)
                if kind == "write":
                    write(state)
                    publish_ms.append((time.monotonic() - due) * 1e3)
                    continue
                params = self._params(algo, state)
                state["rid"] += 1
                try:
                    t = srv.submit(f"perfbench.{algo}", graph="g", tenant=TENANT,
                                   rid=state["rid"], **params)
                except Exception as exc:  # noqa: BLE001 - Overloaded: shed
                    shed.append(f"{algo}: {type(exc).__name__}: {exc}")
                    continue
                sent.append((t, due, algo, params))
            for t, *_ in sent:
                t.wait(timeout=120)
        finally:
            self.tracer = None
        return {"sent": sent, "publish_ms": publish_ms, "lag_ms": lag_ms,
                "shed": shed, "attempted": len(sent) + len(shed) + len(publish_ms)}

    def validate(self, state, res, reference=None) -> list[str]:
        """Every served answer must equal a direct call on its pinned
        snapshot.  Returns one error per failed attempt."""
        errors = [f"shed: {e}" for e in res["shed"]]
        oracle = state["oracle"]
        for t, _, algo, params in res["sent"]:
            if t.outcome != "ok":
                errors.append(f"{algo}: outcome {t.outcome}: {t.error}")
                continue
            key = (id(t.snapshot), algo, tuple(sorted(params.items())))
            if key not in oracle:  # keeps the snapshot, so its id stays unique
                oracle[key] = (t.snapshot, serve_server.ALGORITHMS[algo](t.snapshot, **params))
            if not same(t.value, oracle[key][1]):
                errors.append(f"{algo}: served result differs from the direct call")
        return errors

    def end_to_end(self, res) -> dict:
        lat = {}
        for t, due, algo, _ in res["sent"]:
            if t.outcome == "ok":
                lat.setdefault(algo, []).append((t.t_done - due) * 1e3)
        allq = [x for v in lat.values() for x in v]
        kinds = [statistics.median(v) for v in lat.values()]
        return {
            "query_p50_ms": pct(allq, 50),
            "query_p95_ms": pct(allq, 95),
            "suite_geomean_ms": geomean(kinds + [statistics.median(res["publish_ms"])]),
        }

    @staticmethod
    def exec_pass_s(res) -> float:
        """One pass over the read mix as the server executes it: the sum of
        per-kind median execution times, queue wait excluded."""
        exe = {}
        for t, _, algo, _ in res["sent"]:
            if t.outcome == "ok":
                exe.setdefault(algo, []).append(t.exec_s)
        return sum(statistics.median(v) for v in exe.values())

    def serve_layer(self, res) -> dict:
        ok = [t for t, *_ in res["sent"] if t.outcome == "ok"]
        wait = [t.queue_wait_s * 1e3 for t in ok]
        exe = [t.exec_s * 1e3 for t in ok]
        return dict(zip(SERVE_KEYS, (
            pct(wait, 50), pct(wait, 95), pct(exe, 50), pct(exe, 95),
            float(sum(t.retries for t in ok)),
            sum(t.tier != "full" for t in ok) / max(len(ok), 1),
            float(len(res["shed"])),
            pct(res["publish_ms"], 50), pct(res["publish_ms"], 95),
            pct(res["lag_ms"], 95),
        )))


WORKLOADS = {
    "lagraph-overhead": lambda: LagraphSuite(overhead_jobs, 12),
    "lagraph-kernels": lambda: LagraphSuite(kernel_jobs, 13),
    "serve-readwrite": ServeReadWrite,
}
