"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload lagraph-overhead --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics untraced, with times in
reference seconds (see :class:`Calibration`).  ``--trace 1`` measures half
the time untraced and half with span wrappers installed on the graphblas
layers (see ``spans.py``; lagraph passes alternate between the two),
checks that both halves produce bit-identical outputs, and reports the
per-layer metrics plus a "where did the time go" table.  ``--workload
all`` runs every workload, each in its own process.  The metric names and
units come from ``BENCHMARK.json`` at the repository root.  Exit status
is 0 only when every output passed its oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
NAMES = ("lagraph-overhead", "lagraph-kernels", "serve-readwrite")

#: graphblas layers each workload must reach; a wrapper that misses its
#: call site fails the traced run instead of reporting 0
EXPECT_FIRED = {
    "lagraph-overhead": ("operations.calls", "plan.self_s", "backends.dispatch.self_s",
                         "kernel.self_s", "mxv.self_s", "mask.write.calls",
                         "wait.calls"),
    "lagraph-kernels": ("operations.calls", "mxm.self_s", "mxm.flops",
                        "engine.run_blocks.calls", "engine.blocks", "mask.write.calls"),
    "serve-readwrite": ("operations.calls", "governor.admit.calls",
                        "stream.ingest.self_s", "stream.flush.self_s",
                        "stream.snapshot.self_s"),
}
#: ...and layers a workload must not reach: nothing governs the lagraph suites
EXPECT_SILENT = {
    "lagraph-overhead": ("governor.admit.calls",),
    "lagraph-kernels": ("governor.admit.calls",),
    "serve-readwrite": (),
}


class Calibration:
    """Machine-speed probe, for reporting wall times in reference seconds.

    The reference machine is a shared VM whose speed drifts by up to a
    third over minutes, so raw pass times of identical work spread more
    across runs than any bound could absorb.  The probe is fixed work that
    touches no ``repro`` code: a random gather over a 4 MiB array and a
    sort, memory-bound like the library's kernels.  It is sampled before
    set-up, after every lagraph pass, between the parts of the serve
    window (while the server is idle) and after the window.  Each
    end-to-end time is multiplied by ``REF_S / median(probe)``: a slower
    machine slows the probe and the program alike, while a change to the
    program moves only the program.  Raw times and the probe samples are
    kept in ``out/<workload>.trace0.json``.
    """

    REF_S = 0.035  # the probe's typical time on the reference machine

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._big = rng.random(1 << 19)
        self._idx = rng.integers(0, 1 << 19, 1 << 18)
        self._np = np
        self.samples: list[float] = []

    def sample(self, reps: int = 1) -> None:
        np, big = self._np, self._big
        for _ in range(reps):
            t0 = time.perf_counter()
            for _ in range(3):
                big[self._idx].sum()
                np.argsort(big[:1 << 16], kind="stable")
            self.samples.append(time.perf_counter() - t0)

    def factor(self) -> float:
        return self.REF_S / statistics.median(self.samples)


#: end-to-end metrics reported in reference seconds (see Calibration)
NORMALISED = ("setup_s", "suite_pass_s", "suite_geomean_ms", "query_p50_ms",
              "query_p95_ms")


def trace_errors(workload: str, m: dict) -> list[str]:
    """Layers the traced run failed to reach, or reached when it must not."""
    errors = [f"trace: {name} is 0 on {workload}; a wrapper missed its call site"
              for name in EXPECT_FIRED[workload] if not m[name] > 0]
    errors += [f"trace: {name} fired on {workload}, which nothing governs"
               for name in EXPECT_SILENT[workload] if m[name] != 0]
    return errors


def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="ascii") as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def provenance(workload: str, seed: int) -> dict:
    import numpy

    from repro.graphblas.backends import current_backend_name

    def version(mod):
        try:
            return __import__(mod).__version__
        except ImportError:
            return "absent"

    return {
        "workload": workload, "seed": seed, "nproc": os.cpu_count(),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": version("scipy"),
        "networkx": version("networkx"), "git_sha": git_sha(),
        "backend": current_backend_name(),
        "graphblas_env": sorted(k for k in os.environ if k.startswith("GRAPHBLAS_")),
    }


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


# --------------------------------------------------------------------------
# one workload
# --------------------------------------------------------------------------

#: serve runs its window in this many parts, probing machine speed between
#: them while the server is idle
SERVE_PARTS = 6


def untraced(wl, state, seconds, cal):
    cal.sample(3)
    if wl.serve:
        parts = []
        for _ in range(SERVE_PARTS):
            parts.append(wl.measure(state, seconds / SERVE_PARTS))
            cal.sample(3)
        res = merge_results(parts)
    else:
        res = wl.measure(state, seconds, between=cal.sample)
    rss = peak_rss_mb()  # before the oracles allocate
    cal.sample(9)
    errors = wl.validate(state, res)
    m = wl.end_to_end(res)
    if wl.serve:
        m["suite_pass_s"] = wl.exec_pass_s(res)
    m["peak_rss_mb"] = rss
    return m, errors, res["attempted"]


def traced(wl, state, seconds, workload):
    import numpy as np
    from repro.graphblas import engine, plan

    import spans as tr
    from workloads import ALGOS, MIX, SERVE_KEYS

    tracer = tr.Tracer()
    if wl.serve:
        base = wl.measure(state, seconds / 2)
        r0, k0 = plan.resolver_cache_stats(), engine.kernel_cache_stats()
        res = traced_measure(wl, state, seconds / 2, tracer)
        r1, k1 = plan.resolver_cache_stats(), engine.kernel_cache_stats()
    else:
        # alternate untraced and traced passes, so machine-speed drift
        # during the run does not land in trace.overhead_frac
        parts, end = ([], []), time.perf_counter() + seconds
        r0, k0 = plan.resolver_cache_stats(), engine.kernel_cache_stats()
        while not parts[1] or time.perf_counter() < end:
            parts[0].append(wl.measure(state, 0))
            parts[1].append(traced_measure(wl, state, 0, tracer))
        r1, k1 = plan.resolver_cache_stats(), engine.kernel_cache_stats()
        base, res = (merge_results(p) for p in parts)
    errors = wl.validate(state, base)
    errors += [f"wrapper left installed: {x}" for x in tracer.leftovers()]
    errors += wl.validate(state, res, reference=base)

    sp = tracer.spans()
    os.makedirs(OUT, exist_ok=True)
    np.savez(os.path.join(OUT, f"{workload}.spans.npz"),
             **{k: (v.astype(str) if k == "names" else v) for k, v in sp.items()})
    an = tr.Analysis(sp)
    per = 1 if wl.serve else len(res["passes"])
    m = tr.layer_metrics(an, tracer.counts, per)

    def ratio(a, b):
        hits, misses = b["hits"] - a["hits"], b["misses"] - a["misses"]
        return hits / (hits + misses) if hits + misses else 0.0

    m["plan.resolver_hit_ratio"] = ratio(r0, r1)
    m["engine.kernel_cache_hit_ratio"] = ratio(k0, k1)
    errors += trace_errors(workload, m)

    if wl.serve:
        roots = {f"serve.{a}": a for a in MIX} | {"serve.publish": "publish"}
        queue = {}
        for t, _, algo, _ in res["sent"]:
            if t.queue_wait_s is not None:
                queue.setdefault(algo, []).append(t.queue_wait_s * 1e3)
        queue = {a: statistics.fmean(v) for a, v in queue.items()}
        m.update(wl.serve_layer(base))
        m["trace.overhead_frac"] = (wl.end_to_end(res)["query_p50_ms"]
                                    / wl.end_to_end(base)["query_p50_ms"] - 1)
    else:
        roots, queue = {f"lagraph.{a}": a for a in state["algos"]}, {}
        m.update(dict.fromkeys(SERVE_KEYS, 0.0))
        m["trace.overhead_frac"] = (statistics.median(res["passes"])
                                    / statistics.median(base["passes"]) - 1)
    table = tr.render_table(f"where did the time go: {workload} (traced run)",
                            an.table(roots), queue)
    print(table)
    with open(os.path.join(OUT, f"{workload}.where.txt"), "w", encoding="utf-8") as f:
        f.write(table + "\n")

    for algo in ALGOS:
        roots_of = (an.label == f"lagraph.{algo}") & (an.parent < 0)
        sel = np.isin(an.root, np.flatnonzero(roots_of))
        m[f"lagraph.{algo}.calls"] = an.calls(sel & an.mask("backends.dispatch")) / per
        ms = base.get("algo_ms", {}).get(algo)
        m[f"lagraph.{algo}.ms"] = statistics.median(ms) if ms else 0.0
    return m, errors, base["attempted"] + res["attempted"]


def traced_measure(wl, state, seconds, tracer):
    tracer.install()
    try:
        return wl.measure(state, seconds, tracer=tracer)
    finally:
        tracer.remove()


def merge_results(parts: list[dict]) -> dict:
    """One result from several ``measure`` calls: lists concatenate, dicts
    of lists merge, counts add."""
    out: dict = {}
    for p in parts:
        for k, v in p.items():
            if isinstance(v, list):
                out.setdefault(k, []).extend(v)
            elif isinstance(v, dict):
                for a, x in v.items():
                    out.setdefault(k, {}).setdefault(a, []).extend(x)
            else:
                out[k] = out.get(k, 0) + v
    return out


def run_one(args) -> int:
    bad = sorted(k for k in os.environ if k.startswith("GRAPHBLAS_"))
    if bad:
        print(f"refusing to run: {', '.join(bad)} set; every GRAPHBLAS_* "
              "variable changes the program being measured", file=sys.stderr)
        return 2
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp  # keep any spill or scratch file in the checkout
    sys.path.insert(0, os.path.join(ROOT, "src"))

    from repro import obs
    from repro.graphblas import telemetry

    import workloads

    if telemetry.ENABLED or obs.enabled():
        print("refusing to run: telemetry or obs is enabled", file=sys.stderr)
        return 2
    spc = spec()
    prov = provenance(args.workload, args.seed)
    print(json.dumps({"provenance": prov}), file=sys.stderr)

    wl = workloads.WORKLOADS[args.workload]()
    cal = Calibration()
    cal.sample(9)
    setups, state, raw = [], None, None
    for _ in range(workloads.SETUP_REPS):
        if state is not None:
            wl.close(state)
        t0 = time.perf_counter()
        state = wl.setup(args.seed)
        setups.append(time.perf_counter() - t0)
    try:
        if args.trace:
            metrics, errors, attempted = traced(wl, state, args.seconds, args.workload)
            metrics["fail_frac"] = len(errors) / attempted
            wanted = spc["per_layer"]
        else:
            metrics, errors, attempted = untraced(wl, state, args.seconds, cal)
            metrics["setup_s"] = statistics.median(setups)
            raw = dict(metrics)
            for name in NORMALISED:
                metrics[name] *= cal.factor()
            wanted = spc["end_to_end"]
    finally:
        wl.close(state)

    for e in errors[:20]:
        print(f"WRONG: {e}", file=sys.stderr)
    result = {
        "correct": not errors, "attempted": attempted, "failed": len(errors),
        "metrics": {w["name"]: {"value": float(metrics[w["name"]]), "unit": w["unit"]}
                    for w in wanted},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}.trace{args.trace}.json"), "w",
              encoding="utf-8") as f:
        json.dump({"provenance": prov, "setup_s_runs": setups, "errors": errors,
                   "raw_metrics": raw, "probe_s": cal.samples, **result}, f, indent=1)
    print(json.dumps(result))
    return 0 if not errors else 1


def run_all(args) -> int:
    """Every workload in its own process; prints each result line."""
    status, lines = 0, {}
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        out = proc.stdout.strip().splitlines()
        status = status or proc.returncode
        lines[name] = json.loads(out[-1]) if out else None
        for line in out[:-1]:
            print(line)
    for name, res in lines.items():
        print(f"== {name}: correct={res and res['correct']}")
        for k, v in (res or {}).get("metrics", {}).items():
            print(f"   {k:<32} {v['value']:>14.6g} {v['unit']}")
    return status


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # one hash seed for every run: str hashing otherwise shifts the
        # program's dict-heavy paths by a different few percent per process
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__),
                                   *sys.argv[1:]],
                  dict(os.environ, PYTHONHASHSEED="0"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
