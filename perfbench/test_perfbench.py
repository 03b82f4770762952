"""Self-test of the benchmark harness, at small scales.

    PYTHONPATH=src python -m pytest perfbench -q

Checks that every layer wrapper fires on the workload meant to exercise
it (and a bypassed wrapper is reported, not read as 0), that the wrappers
are gone after the traced run, and that traced and untraced runs give
bit-identical outputs.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.graphblas import Vector, matrix, operations  # noqa: E402

#: smallest scales at which every expected layer still fires (the engine
#: block pool needs an mxm above its parallel threshold)
SMALL = {
    "lagraph-overhead": lambda: workloads.LagraphSuite(workloads.overhead_jobs, 9),
    "lagraph-kernels": lambda: workloads.LagraphSuite(workloads.kernel_jobs, 11),
    "serve-readwrite": lambda: workloads.ServeReadWrite(scale=10),
}


def traced_run(name, seconds=2.0):
    wl = SMALL[name]()
    state = wl.setup(3)
    try:
        return run.traced(wl, state, seconds, name)
    finally:
        wl.close(state)


@pytest.fixture(scope="module", params=sorted(SMALL))
def traced(request):
    return request.param, traced_run(request.param)


def test_every_expected_layer_fires(traced):
    name, (m, errors, attempted) = traced
    # errors also holds oracle failures, traced-vs-untraced output
    # differences, and wrappers left installed after the traced half
    assert errors == [] and attempted > 0
    assert (m["governor.admit.calls"] > 0) == (name == "serve-readwrite")
    if name == "lagraph-kernels":
        assert m["engine.run_blocks.calls"] > 0 and m["mxm.flops"] > 0
    wanted = {x["name"] for x in run.spec()["per_layer"]} - {"fail_frac"}
    assert wanted <= set(m)


def test_wrappers_removed_after_traced_run(traced):
    for fn in (operations.mxm, operations._dispatch, matrix.Matrix.wait):
        assert not hasattr(fn, "perfbench_span")


def test_changed_output_is_reported():
    wl = SMALL["lagraph-overhead"]()
    state = wl.setup(3)
    base = wl.measure(state, 0.1)
    res = wl.measure(state, 0.1)
    assert wl.validate(state, res, reference=base) == []
    outs = [list(p) for p in res["outs"]]
    k = next(i for i, o in enumerate(outs[0]) if isinstance(o, Vector))
    outs[0][k] = Vector("FP64", outs[0][k].size)
    assert wl.validate(state, dict(res, outs=outs), reference=base)


def test_bypassed_wrapper_is_reported_not_zero(monkeypatch):
    install = spans.Tracer.install

    def install_then_bypass(tracer):
        install(tracer)
        # a call site that no longer goes through the wrapped name
        operations._dispatch = operations._dispatch.__wrapped__

    monkeypatch.setattr(spans.Tracer, "install", install_then_bypass)
    _, errors, _ = traced_run("lagraph-overhead", seconds=0.2)
    assert any("backends.dispatch.self_s is 0" in e for e in errors)


def test_refuses_graphblas_overrides():
    env = dict(os.environ, GRAPHBLAS_BACKEND="reference")
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                        "lagraph-overhead", "--seed", "1", "--seconds", "1"],
                       env=env, capture_output=True, text=True, timeout=60, check=False)
    assert p.returncode != 0 and "refusing" in p.stderr and not p.stdout.strip()


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "lagraph-overhead", "--seed", "1", "--seconds", "1"],
                       cwd=tmp_path, env=env, capture_output=True, text=True,
                       timeout=60, check=False)
    assert p.returncode != 0 and '"correct"' not in p.stdout
