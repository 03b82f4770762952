"""Failure handling under load: breaker trips and transparent fallback,
half-open recovery, the degradation ladder, and serve-level retries."""

import threading
import time

import pytest

from repro import obs
from repro.generators import random_matrix
from repro.graphblas import Matrix, backends, engine, faults, governor
from repro.graphblas import operations as ops
from repro.graphblas.errors import BudgetExceeded, OutOfMemory
from repro.lagraph import bfs
from repro.serve import ALGORITHMS, GraphServer, register_algorithm


def counter_total(name: str, **labels) -> float:
    want = tuple(sorted((k, str(v)) for k, v in labels.items()))
    merged = obs.registry().merged()
    return sum(
        v for (n, ls), v in merged["counters"].items()
        if n == name and all(pair in ls for pair in want)
    )


class FlakyBackend(backends.KernelBackend):
    """Delegates to the optimized backend; raises while ``broken``."""

    name = "flaky"
    fallback = None
    broken = True

    def __init__(self):
        from repro.graphblas.plan import TABLE1_OPS

        inner = backends.get_backend("optimized")
        for op in TABLE1_OPS:
            setattr(self, op, self._wrap(getattr(inner, op)))

    @staticmethod
    def _wrap(inner_op):
        def call(plan):
            if FlakyBackend.broken:
                raise OutOfMemory("flaky backend down")
            return inner_op(plan)

        return call


@pytest.fixture
def flaky():
    backends.register_backend("flaky", FlakyBackend, replace=True)
    FlakyBackend.broken = True
    yield FlakyBackend
    FlakyBackend.broken = False


class TestBreakerFallback:
    def test_trip_fallback_and_half_open_recovery(self, edges, flaky):
        n, src, dst = edges
        with GraphServer(
            workers=1, deadline_s=None, backend="flaky",
            fallbacks=("reference", "scipy"), attempts=1,
            breaker_threshold=2, breaker_reset_s=0.15, breaker_probes=2,
        ) as srv:
            srv.add_graph("g", n=n)
            srv.ingest("g", src, dst)
            srv.publish("g")
            expected = bfs(0, srv.snapshot("g"))[0]

            # the broken primary fails over transparently: correct results
            t1 = srv.submit("bfs", graph="g", source=0)
            assert t1.result(30).isequal(expected)
            assert t1.backend == "reference"
            assert t1.failovers >= 1
            t2 = srv.submit("bfs", graph="g", source=0)
            assert t2.result(30).isequal(expected)
            br = srv.stats()["breakers"]["flaky"]
            assert br["state"] == "open"          # threshold 2 reached
            assert br["failures_total"] >= 2

            # while open, the primary is skipped outright (no failovers)
            t3 = srv.submit("bfs", graph="g", source=0)
            assert t3.result(30).isequal(expected)
            assert t3.backend == "reference"
            assert t3.failovers == 0

            # backend heals; after the reset timeout, half-open probes
            # restore the primary
            flaky.broken = False
            time.sleep(0.2)
            restored = None
            for _ in range(4):  # probe_successes=2 probes close it
                t = srv.submit("bfs", graph="g", source=0)
                assert t.result(30).isequal(expected)
                if t.backend == "flaky":
                    restored = t
            assert restored is not None, "primary never restored"
            assert srv.stats()["breakers"]["flaky"]["state"] == "closed"

    def test_breaker_transition_metrics(self, edges, flaky):
        n, src, dst = edges
        before = counter_total("serve_breaker_transitions_total",
                               backend="flaky")
        with GraphServer(
            workers=1, deadline_s=None, backend="flaky",
            fallbacks=("reference",), attempts=1,
            breaker_threshold=1, breaker_reset_s=60.0,
        ) as srv:
            srv.add_graph("g", n=n)
            srv.ingest("g", src, dst)
            srv.publish("g")
            srv.query("triangles", graph="g")
        assert counter_total("serve_breaker_transitions_total",
                             backend="flaky") > before


class TestDegradationLadder:
    @pytest.fixture
    def gated(self, edges):
        n, src, dst = edges
        gate = threading.Event()
        register_algorithm("gate", lambda g: gate.wait(10))
        srv = GraphServer(workers=1, deadline_s=None, queue_depth=10)
        srv.add_graph("g", n=n)
        srv.ingest("g", src, dst)
        srv.publish("g")
        yield srv, gate
        gate.set()
        srv.close()
        ALGORITHMS.pop("gate", None)

    def test_queue_load_walks_the_tiers(self, gated):
        srv, gate = gated
        assert srv.current_tier() == "full"
        blocker = srv.submit("gate", graph="g")
        # wait until the worker picked the blocker up (it leaves the queue)
        for _ in range(100):
            if srv._queue.depth == 0 and blocker.t_start is not None:
                break
            time.sleep(0.01)
        before = counter_total("serve_degrade_total")
        queued = [srv.submit("gate", graph="g") for _ in range(6)]
        assert srv.current_tier() == "lite"       # 6/10 >= 0.60
        queued += [srv.submit("gate", graph="g") for _ in range(3)]
        assert srv.current_tier() == "reference"  # 9/10 >= 0.85
        assert counter_total("serve_degrade_total") >= before + 2
        gate.set()
        for t in [blocker, *queued]:
            t.result(30)
        assert srv.current_tier() == "full"

    def test_degraded_tiers_still_answer_correctly(self, gated):
        srv, gate = gated
        blocker = srv.submit("gate", graph="g")
        for _ in range(100):  # let the worker pick the blocker up
            if blocker.t_start is not None:
                break
            time.sleep(0.01)
        # FIFO within a tenant: the probe runs right after the blocker,
        # while the six gated requests still stuff the queue (load 0.6)
        probe = srv.submit("bfs", graph="g", source=0)
        queued = [srv.submit("gate", graph="g") for _ in range(6)]
        gate.set()
        expected = bfs(0, srv.snapshot("g"))[0]
        assert probe.result(30).isequal(expected)
        assert probe.tier in ("lite", "reference")
        for t in [blocker, *queued]:
            t.result(30)


class TestLiteTierIsolation:
    def test_lite_request_does_not_serialize_other_threads(self, edges,
                                                           monkeypatch):
        """The lite tier caps its own request's workers; an ungoverned mxm
        on another thread still fans out while it is in flight."""
        n, src, dst = edges
        monkeypatch.setattr(engine, "MIN_PARALLEL_FLOPS", 1)
        monkeypatch.setattr(engine, "WORKERS", 4)
        calls = []
        real_run_blocks = engine.run_blocks

        def spy(fn, arg_tuples, workers):
            calls.append((threading.get_ident(), len(arg_tuples)))
            return real_run_blocks(fn, arg_tuples, workers)

        monkeypatch.setattr(engine, "run_blocks", spy)
        A = random_matrix(150, 150, 0.15, seed=11)
        inflight, release = threading.Event(), threading.Event()
        server_thread = []

        def hold(g):
            server_thread.append(threading.get_ident())
            ops.mxm(Matrix("FP64", 150, 150), A, A, "PLUS_TIMES",
                    method="gustavson")
            inflight.set()
            release.wait(10)
            return True

        register_algorithm("hold", hold)
        try:
            # lite_watermark 0: every request runs on the lite tier
            with GraphServer(workers=1, deadline_s=None,
                             lite_watermark=0.0) as srv:
                srv.add_graph("g", n=n)
                srv.ingest("g", src, dst)
                srv.publish("g")
                ticket = srv.submit("hold", graph="g")
                assert inflight.wait(10)
                ops.mxm(Matrix("FP64", 150, 150), A, A, "PLUS_TIMES",
                        method="gustavson")
                release.set()
                assert ticket.result(30) is True
                assert ticket.tier == "lite"
        finally:
            release.set()
            ALGORITHMS.pop("hold", None)
        mine = [k for tid, k in calls if tid == threading.get_ident()]
        assert mine and max(mine) > 1
        assert not [k for tid, k in calls if tid in server_thread and k > 1]


class TestServeRetries:
    def test_fault_injected_failures_are_retried(self, edges):
        n, src, dst = edges
        with GraphServer(workers=1, deadline_s=None,
                         base_delay_s=0.0, max_delay_s=0.0) as srv:
            srv.add_graph("g", n=n)
            srv.ingest("g", src, dst)
            srv.publish("g")
            expected = bfs(0, srv.snapshot("g"))[0]
            before = counter_total("serve_retries_total")
            with faults.inject("serve.exec", nth=1, max_fires=2):
                t = srv.submit("bfs", graph="g", source=0)
                assert t.result(30).isequal(expected)
            assert t.retries >= 1
            assert t.outcome == "ok"
            assert counter_total("serve_retries_total") > before

    def test_budget_exceeded_retries_with_spill_forced(self, edges):
        n, src, dst = edges
        seen = {"spill": [], "calls": 0}

        def budgety(g):
            ctx = governor.current()
            seen["spill"].append(None if ctx is None else ctx.spill)
            seen["calls"] += 1
            if seen["calls"] == 1:
                raise BudgetExceeded("estimated over budget")
            return "served"

        register_algorithm("budgety", budgety)
        try:
            with GraphServer(workers=1, deadline_s=None,
                             base_delay_s=0.0, max_delay_s=0.0) as srv:
                srv.add_graph("g", n=n)
                srv.ingest("g", src, dst)
                srv.publish("g")
                t = srv.submit("budgety", graph="g")
                assert t.result(30) == "served"
                assert t.retries == 1
            # the retry forced the governor's tiled spill path on
            assert seen["spill"] == [None, True]
        finally:
            ALGORITHMS.pop("budgety", None)
