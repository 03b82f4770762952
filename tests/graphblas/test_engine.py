"""The hot-path performance engine: specialization, twins, parallel blocks.

The engine's contract is *bit-for-bit* equality with the generic paths:
the parity tests compare specialized kernels against the generic ones
(``kernel_for`` stubbed to ``None``), or parallel against serial
(``set_workers(1)``), on identical inputs and assert exact array
equality, dtypes included.
"""

import sys
import threading

import numpy as np
import pytest

from repro.generators import random_matrix, random_vector
from repro.graphblas import Descriptor, Matrix, Vector, capi, engine, telemetry
from repro.graphblas import operations as ops
from repro.graphblas import plan as planning
from repro.graphblas.errors import Info
from repro.graphblas.matrix import Matrix as _Matrix
from repro.graphblas.types import lookup_type


@pytest.fixture(autouse=True)
def _fresh_engine():
    """Every test starts from the env-default engine state and leaves no
    configuration, cache contents, or executor behind."""
    engine.reset()
    yield
    engine.reset()


def _mats(n=80, density=0.08, dtype=np.float64, seeds=(11, 12)):
    A = random_matrix(n, n, density, dtype=dtype, seed=seeds[0])
    B = random_matrix(n, n, density, dtype=dtype, seed=seeds[1])
    return A, B


def _same(p, q):
    for x, y in zip(p, q):
        assert x.dtype == y.dtype
        assert np.array_equal(x, y, equal_nan=True)


def _specialized_vs_generic(run):
    """``run()`` with the engine's specialized kernels, then again with
    ``kernel_for`` stubbed out so every kernel takes its generic path."""
    specialized = run()
    mp = pytest.MonkeyPatch()
    mp.setattr(engine, "kernel_for", lambda *args, **kwargs: None)
    try:
        generic = run()
    finally:
        mp.undo()
    return specialized, generic


def _transposed_tuples(A):
    """Oracle for ``A'``: the entries of A with coordinates swapped, in
    row-major order."""
    i, j, v = A.extract_tuples()
    order = np.lexsort((i, j))
    return j[order], i[order], v[order]


# -- configuration -----------------------------------------------------------


class TestConfig:
    def test_defaults_on(self):
        from repro.graphblas.semiring import semiring
        from repro.graphblas.types import FP64

        assert engine.WORKERS == engine.DEFAULT_WORKERS
        assert engine.kernel_for(semiring("PLUS_TIMES"), FP64) is not None

    def test_env_workers_and_cache(self, monkeypatch):
        monkeypatch.setenv("GRAPHBLAS_ENGINE_WORKERS", "7")
        engine.reset()
        assert engine.WORKERS == 7
        assert engine.kernel_cache_stats()["capacity"] == engine.CACHE_SIZE == 64

    def test_workers_floor_is_one(self):
        assert engine.set_workers(0) == 1
        assert engine.WORKERS == 1


# -- kernel specialization cache ---------------------------------------------


class TestKernelCache:
    def test_hit_miss_counting(self):
        from repro.graphblas.semiring import semiring
        from repro.graphblas.types import FP64

        sr = semiring("PLUS_TIMES")
        engine.clear_kernel_cache()
        k1 = engine.kernel_for(sr, FP64)
        k2 = engine.kernel_for(sr, FP64)
        assert k1 is k2 and k1 is not None
        st = engine.kernel_cache_stats()
        assert st["misses"] == 1 and st["hits"] == 1

    def test_distinct_keys_per_dtype_and_method(self):
        from repro.graphblas.semiring import semiring
        from repro.graphblas.types import FP32, FP64

        sr = semiring("PLUS_TIMES")
        engine.clear_kernel_cache()
        a = engine.kernel_for(sr, FP64)
        b = engine.kernel_for(sr, FP32)
        c = engine.kernel_for(sr, FP64, method="dot")
        assert a is not b and a is not c
        assert engine.kernel_cache_stats()["size"] == 3

    def test_lru_eviction(self, monkeypatch):
        from repro.graphblas.semiring import semiring
        from repro.graphblas.types import FP64

        monkeypatch.setattr(engine, "CACHE_SIZE", 2)
        engine.clear_kernel_cache()
        for name in ("PLUS_TIMES", "MIN_PLUS", "MAX_PLUS"):
            engine.kernel_for(semiring(name), FP64)
        st = engine.kernel_cache_stats()
        assert st["size"] == 2 and st["evictions"] == 1

    def test_positional_semiring_not_specialized(self):
        from repro.graphblas.semiring import semiring
        from repro.graphblas.types import INT64

        assert engine.kernel_for(semiring("ANY_SECONDI"), INT64) is None
        assert engine.kernel_cache_stats()["unspecializable"] >= 1

    def test_compile_emits_telemetry_decision(self):
        from repro.graphblas.semiring import semiring
        from repro.graphblas.types import FP64

        engine.clear_kernel_cache()
        with telemetry.collect() as col:
            engine.kernel_for(semiring("PLUS_TIMES"), FP64)
        names = [e["name"] for e in col.snapshot(include_events=True)["events"]]
        assert "engine.kernel" in names


# -- bit-for-bit parity: specialized vs generic kernels--------------------------------


SEMIRING_DTYPES = [
    ("PLUS_TIMES", np.float64),
    ("PLUS_TIMES", np.float32),
    ("MIN_PLUS", np.int64),
    ("MAX_PLUS", np.float64),
    ("LOR_LAND", bool),
    ("PLUS_PAIR", np.int64),
]


class TestParity:
    @pytest.mark.parametrize("sr,dtype", SEMIRING_DTYPES)
    def test_mxm_gustavson(self, sr, dtype):
        A, B = _mats(dtype=dtype)
        out_t = planning.resolve_semiring(sr).out_type(A.dtype, B.dtype)

        def run():
            C = Matrix(out_t, 80, 80)
            ops.mxm(C, A, B, sr, method="gustavson")
            return C.extract_tuples()

        _same(*_specialized_vs_generic(run))

    @pytest.mark.parametrize("sr,dtype", SEMIRING_DTYPES)
    def test_mxm_dot(self, sr, dtype):
        A, B = _mats(n=40, density=0.15, dtype=dtype)
        out_t = planning.resolve_semiring(sr).out_type(A.dtype, B.dtype)

        def run():
            C = Matrix(out_t, 40, 40)
            ops.mxm(C, A, B, sr, method="dot")
            return C.extract_tuples()

        _same(*_specialized_vs_generic(run))

    @pytest.mark.parametrize("method", ["push", "pull"])
    @pytest.mark.parametrize("sr,dtype", SEMIRING_DTYPES)
    def test_mxv_both_directions(self, sr, dtype, method):
        A, _ = _mats(dtype=dtype)
        u = random_vector(80, 0.3, dtype=dtype, seed=5)
        out_t = planning.resolve_semiring(sr).out_type(A.dtype, u.dtype)

        def run():
            w = Vector(out_t, 80)
            ops.mxv(w, A, u, sr, method=method)
            return w.extract_tuples()

        _same(*_specialized_vs_generic(run))

    def test_vxm_pull_transposed(self):
        A, _ = _mats()
        u = random_vector(80, 0.4, seed=9)

        def run():
            w = Vector("FP64", 80)
            ops.vxm(w, u, A, "PLUS_TIMES", method="pull")
            return w.extract_tuples()

        _same(*_specialized_vs_generic(run))

    def test_dot_early_exit_terminal_monoid(self):
        A, B = _mats(dtype=bool, density=0.3)

        def run():
            C = Matrix("BOOL", 80, 80)
            ops.mxm(C, A, B, "LOR_LAND", method="dot")
            return C.extract_tuples()

        _same(*_specialized_vs_generic(run))


class TestParallelParity:
    def test_parallel_mxm_bit_identical_to_serial(self, monkeypatch):
        A, B = _mats(n=150, density=0.15)
        monkeypatch.setattr(engine, "MIN_PARALLEL_FLOPS", 1)

        def run():
            C = Matrix("FP64", 150, 150)
            ops.mxm(C, A, B, "PLUS_TIMES", method="gustavson")
            return C.extract_tuples()

        engine.set_workers(4)
        par = run()
        engine.set_workers(1)
        ser = run()
        _same(par, ser)

    def test_parallel_pull_mxv_bit_identical(self, monkeypatch):
        A, _ = _mats(n=150, density=0.15)
        u = random_vector(150, 0.6, seed=6)
        monkeypatch.setattr(engine, "MIN_PARALLEL_ENTRIES", 1)

        def run():
            w = Vector("FP64", 150)
            ops.mxv(w, A, u, "PLUS_TIMES", method="pull")
            return w.extract_tuples()

        engine.set_workers(4)
        par = run()
        engine.set_workers(1)
        ser = run()
        _same(par, ser)

    def test_parallel_blocks_recorded_in_telemetry(self, monkeypatch):
        from repro.graphblas.backends import current_backend_name

        if current_backend_name() != "optimized":
            pytest.skip("row-blocked SpGEMM is an optimized-backend path")
        A, B = _mats(n=150, density=0.15)
        monkeypatch.setattr(engine, "MIN_PARALLEL_FLOPS", 1)
        engine.set_workers(4)
        with telemetry.collect() as col:
            ops.mxm(Matrix("FP64", 150, 150), A, B, "PLUS_TIMES",
                    method="gustavson")
        spans = [
            e for e in col.snapshot(include_events=True)["events"]
            if e["type"] == "span" and e["name"] == "engine.block"
        ]
        assert len(spans) >= 2
        assert all(s["args"]["op"] == "mxm" for s in spans)


class TestSharedPool:
    def test_growing_the_pool_keeps_a_fetched_executor_usable(self, monkeypatch):
        """A caller that fetched the shared executor must still be able to
        submit after a concurrent caller grows the pool."""
        fetched, grown = threading.Event(), threading.Event()
        real_get = engine._get_executor
        small = threading.current_thread().name + "-small"

        def pausing_get(workers):
            ex = real_get(workers)
            if threading.current_thread().name == small:
                fetched.set()
                grown.wait(10)  # submit only after the pool has grown
            return ex

        monkeypatch.setattr(engine, "_get_executor", pausing_get)
        out = {}

        def small_caller():
            try:
                out["small"] = engine.run_blocks(lambda x: x * 2, [(1,), (2,)], 2)
            except BaseException as exc:  # noqa: BLE001 - asserted below
                out["small"] = exc

        t = threading.Thread(target=small_caller, name=small)
        t.start()
        assert fetched.wait(10)
        out["big"] = engine.run_blocks(lambda x: x + 1, [(k,) for k in range(4)], 4)
        assert engine.pool_stats()["started"] == 4
        grown.set()
        t.join(10)
        assert not t.is_alive()
        assert out["big"] == [1, 2, 3, 4]
        assert out["small"] == [2, 4]

    def test_concurrent_callers_with_growing_worker_counts(self):
        """Stress: callers on more threads than cores keep asking for more
        workers while others submit; every call returns its own results."""
        errors = []

        def caller(seed):
            try:
                for k in range(1, 9):
                    w = (seed + k) % 8 + 1
                    got = engine.run_blocks(lambda a, b: a * b,
                                            [(seed, j) for j in range(w)], w)
                    if got != [seed * j for j in range(w)]:
                        errors.append(("wrong", seed, w, got))
            except BaseException as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(s,)) for s in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []


# -- dual-format twins -------------------------------------------------------


class TestDualFormat:
    def test_twin_cached_and_reused(self):
        A, _ = _mats()
        A.wait()
        first = A.by_col()
        assert A._alt is first
        assert A.by_col() is first  # O(1) second time

    def test_mutation_invalidates_twin(self):
        A, _ = _mats()
        A.by_col()
        A.set_element(0, 0, 3.25)
        A.wait()
        fresh = A.by_col()
        assert fresh.nvals == A.nvals
        i, j, v = A.extract_tuples()
        tw_major, tw_minor, tw_vals = fresh.to_coo()
        order = np.lexsort((i, j))
        assert np.array_equal(tw_major, j[order])
        assert np.array_equal(tw_minor, i[order])
        assert np.array_equal(tw_vals, v[order])

    def test_twin_emits_telemetry_decision(self):
        A, _ = _mats()
        with telemetry.collect() as col:
            A.by_col()
        evs = [
            e for e in col.snapshot(include_events=True)["events"]
            if e["name"] == "engine.twin"
        ]
        assert len(evs) == 1 and evs[0]["args"]["orientation"] == "col"


class TestTransposeFastPath:
    def test_transpose_matches_generic(self):
        A, _ = _mats()
        C = Matrix("FP64", 80, 80)
        ops.transpose(C, A)
        _same(C.extract_tuples(), _transposed_tuples(A))

    def test_transpose_output_has_warm_twin(self):
        from repro.graphblas.backends import current_backend_name

        if current_backend_name() != "optimized":
            pytest.skip("twin handoff is an optimized-backend fast path")
        A, _ = _mats()
        C = Matrix("FP64", 80, 80)
        ops.transpose(C, A)
        assert C._alt is not None and C._alt_epoch == C._epoch
        # both orientations now free — and consistent with each other
        rows_view = C.by_row()
        cols_view = C.by_col()
        assert rows_view.nvals == cols_view.nvals == A.nvals

    def test_mutate_then_retranspose(self):
        A, _ = _mats()
        C = Matrix("FP64", 80, 80)
        ops.transpose(C, A)
        C.set_element(1, 2, 42.0)
        C.wait()
        assert C[1, 2] == 42.0
        D = Matrix("FP64", 80, 80)
        ops.transpose(D, C)
        assert D[2, 1] == 42.0

    def test_masked_transpose_takes_generic_path(self):
        A, _ = _mats()
        M = random_matrix(80, 80, 0.2, dtype=bool, seed=3)

        C = Matrix("FP64", 80, 80)
        ops.transpose(C, A, mask=M)
        ti, tj, tv = _transposed_tuples(A)
        mi, mj, mv = M.extract_tuples()
        allowed = set(zip(mi[mv].tolist(), mj[mv].tolist()))
        keep = np.array([(r, c) in allowed for r, c in zip(ti.tolist(), tj.tolist())],
                        dtype=bool)
        _same(C.extract_tuples(), (ti[keep], tj[keep], tv[keep]))


# -- wait() sortedness fast path ---------------------------------------------


class TestWaitFastPath:
    def _assembly_events(self, col):
        return [
            e for e in col.snapshot(include_events=True)["events"]
            if e["name"] == "assembly"
        ]

    def test_matrix_sorted_log_takes_fast_path(self):
        A = Matrix("FP64", 50, 50)
        with telemetry.collect() as col:
            for k in range(10):
                A.set_element(k, k, float(k))
            A.wait()
        (ev,) = self._assembly_events(col)
        assert ev["args"]["fast_path"] is True
        assert A.nvals == 10 and A[4, 4] == 4.0

    def test_matrix_unsorted_log_takes_slow_path(self):
        A = Matrix("FP64", 50, 50)
        with telemetry.collect() as col:
            A.set_element(5, 5, 1.0)
            A.set_element(2, 2, 2.0)
            A.wait()
        (ev,) = self._assembly_events(col)
        assert ev["args"]["fast_path"] is False
        assert A[2, 2] == 2.0 and A[5, 5] == 1.0

    def test_matrix_zombies_take_slow_path(self):
        A = Matrix("FP64", 50, 50)
        A.set_element(1, 1, 1.0)
        A.wait()
        with telemetry.collect() as col:
            A.remove_element(1, 1)
            A.wait()
        (ev,) = self._assembly_events(col)
        assert ev["args"]["fast_path"] is False
        assert A.nvals == 0

    def test_vector_sorted_log_takes_fast_path(self):
        v = Vector("FP64", 50)
        with telemetry.collect() as col:
            for k in range(8):
                v.set_element(k * 3, float(k))
            v.wait()
        (ev,) = self._assembly_events(col)
        assert ev["args"]["fast_path"] is True
        assert v.nvals == 8 and v[6] == 2.0

    def test_vector_duplicate_index_takes_slow_path(self):
        v = Vector("FP64", 50)
        with telemetry.collect() as col:
            v.set_element(4, 1.0)
            v.set_element(4, 9.0)  # last-wins requires the dedup sort
            v.wait()
        (ev,) = self._assembly_events(col)
        assert ev["args"]["fast_path"] is False
        assert v[4] == 9.0

    def test_fast_and_slow_paths_agree(self):
        a = Matrix("FP64", 30, 30)
        b = Matrix("FP64", 30, 30)
        coords = [(i, (7 * i) % 30) for i in range(20)]
        for i, j in sorted(coords):
            a.set_element(i, j, float(i + j))  # sorted → fast path
        for i, j in reversed(sorted(coords)):
            b.set_element(i, j, float(i + j))  # reversed → slow path
        a.wait()
        b.wait()
        _same(a.extract_tuples(), b.extract_tuples())


# -- resolver memoization ----------------------------------------------------


class TestResolverMemo:
    def test_string_specs_cached(self):
        planning.reset_resolver_cache()
        s1 = planning.resolve_semiring("PLUS_TIMES")
        s2 = planning.resolve_semiring("plus_times")
        assert s1 is s2
        st = planning.resolver_cache_stats()
        assert st["misses"] == 1 and st["hits"] == 1

    def test_object_specs_bypass_cache(self):
        planning.reset_resolver_cache()
        sr = planning.resolve_semiring("MIN_PLUS")
        before = planning.resolver_cache_stats()
        assert planning.resolve_semiring(sr) is sr
        after = planning.resolver_cache_stats()
        assert after["hits"] == before["hits"]
        assert after["misses"] == before["misses"]

    def test_planning_hits_cache_and_tallies(self):
        A, B = _mats(n=20, density=0.2)
        planning.reset_resolver_cache()
        ops.mxm(Matrix("FP64", 20, 20), A, B, "PLUS_TIMES")
        with telemetry.collect() as col:
            ops.mxm(Matrix("FP64", 20, 20), A, B, "PLUS_TIMES")
        assert planning.resolver_cache_stats()["hits"] >= 1
        snap = col.snapshot()["ops"]
        assert snap.get("plan.resolve_cache", {}).get("calls", 0) >= 1

    def test_distinct_kinds_do_not_collide(self):
        planning.reset_resolver_cache()
        mon = planning.resolve_monoid("PLUS")
        acc = planning.resolve_binary("PLUS")
        assert mon is not acc


# -- C-API surface -----------------------------------------------------------


class TestCapi:
    def test_descriptor_nthreads_set(self):
        info, d = capi.GrB_Descriptor_new()
        assert info == Info.SUCCESS
        info, d = capi.GrB_Descriptor_set(d, capi.GxB_NTHREADS, 8)
        assert info == Info.SUCCESS and d.nthreads == 8
        info, d = capi.GrB_Descriptor_set(d, "NTHREADS", 0)
        assert info == Info.SUCCESS and d.nthreads is None
        info, _ = capi.GrB_Descriptor_set(d, "NTHREADS", "many")
        assert info == Info.INVALID_VALUE

    def test_descriptor_and_merges_nthreads(self):
        a = Descriptor(nthreads=3)
        b = Descriptor(transpose_a=True)
        assert (a & b).nthreads == 3
        assert (b & a).nthreads == 3
        assert (b & b).nthreads is None

    def test_mxm_with_nthreads_descriptor(self, monkeypatch):
        monkeypatch.setattr(engine, "MIN_PARALLEL_FLOPS", 1)
        A, B = _mats(n=60, density=0.2)
        C1 = Matrix("FP64", 60, 60)
        ops.mxm(C1, A, B, "PLUS_TIMES", desc=Descriptor(nthreads=3),
                method="gustavson")
        C2 = Matrix("FP64", 60, 60)
        engine.set_workers(1)
        ops.mxm(C2, A, B, "PLUS_TIMES", method="gustavson")
        _same(C1.extract_tuples(), C2.extract_tuples())


def test_lookup_type_roundtrip_for_engine_dtypes():
    # the parity matrix above leans on these dtype names resolving
    for np_dtype in (np.float64, np.float32, np.int64, bool):
        assert lookup_type(np_dtype) is lookup_type(np.dtype(np_dtype))


def test_engine_matrix_class_is_package_matrix():
    assert _Matrix is Matrix
