"""End-to-end benchmark of the engine, the validation registry and the
streaming service.

    python3 perfbench/run.py --workload batch-identical --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25

One workload runs per process, so ``peak_rss_mb`` is the workload's
own; ``--workload all`` runs each in a child process and prints every
metric by name and unit.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  The line before it is the run's provenance.

Exit codes: 0 correct, 1 a correctness check failed (the result is
still printed), 2 the program's sources are missing, 3 the C backend
the workloads request cannot be built.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

# One thread of compute: BLAS worker threads on a host of a few shared
# cores measure the scheduler rather than the program.  Set before
# numpy is first imported (by ``workloads``), so it takes effect.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

#: Compiled kernels and compiler temporaries stay inside the checkout.
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")

#: Input generations per run; ``setup_s`` reports their median.
SETUPS = 3

#: Names, units and bounds of every metric; the output must match it.
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Per-layer self-time metrics and the span each reads.
LAYER_SPANS = {
    "c_backend.construct_s": "c_backend.construct",
    "c_build.load_kernel_s": "c_build.load_kernel",
    "c_backend.kernel_s": "c_backend.kernel",
    "c_backend.assemble_s": "c_backend.run",
    "numpy_backend.construct_s": "numpy_backend.construct",
    "numpy_backend.run_s": "numpy_backend.run",
    "core.assign_s": "core.assign",
    "metrics.reduce_s": "metrics.reduce",
    "engine.run_s": "engine.run",
    "lp.build_s": "lp.build",
    "lp.solve_s": "lp.solve",
    "engine.stream_step_s": "engine.stream_step",
    "session.fold_s": "session.step",
    "obs.retire_s": "obs.retire",
    "service.render_s": "service.render",
    "service.snapshot_s": "service.snapshot",
}


def percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    import numpy as np

    return float(np.percentile(values, q))


def measure(workload, seconds: float, speed) -> list:
    """Repeat ``workload.op()`` for about ``seconds``, at least twice.

    Another repetition starts only if, at the mean repetition length so
    far, it is expected to end less than half a repetition past the
    deadline; so a run of long repetitions (a registry pass) ends within
    half a repetition of ``seconds`` either way, and every run of a
    workload measures about the same span of host time.  Two at least, so
    that every statistic averages two repetitions, even when the host is
    so slow that one registry pass fills ``seconds``."""
    reps = []
    start = perf_counter()
    deadline = start + seconds
    # Each repetition starts without the previous one's garbage.
    gc.collect()
    before = speed.sample()
    while True:
        rep = workload.op()
        reps.append(rep)
        now = perf_counter()
        gc.collect()
        after = speed.sample()
        if rep.scale is None:
            rep.scale = speed.scale(before, after)
        before = after
        if len(reps) >= 2 and now + (now - start) / len(reps) / 2 >= deadline:
            return reps


def rep_percentile(reps, attr: str, q: float) -> float:
    """The ``q``-th percentile of each repetition's samples, averaged over
    the run.

    The host's speed moves between a fast and a slow level every few
    seconds.  A percentile pooled over the whole run jumps from one level
    to the other as the slow share of the run crosses the percentile, and
    a pooled tail rests on the run's slowest repetitions; the mean of
    per-repetition percentiles moves in proportion to that share.  A
    repetition with one sample (a batch simulate, a registry render)
    gives that sample for every percentile."""
    return statistics.fmean(percentile(getattr(r, attr), q) * r.scale for r in reps)


def end_to_end(reps, setup_s: float, rss_mb: float) -> dict[str, float]:
    """Host times at the reference speed (each repetition's ``scale``)."""
    walls = [r.wall * r.scale for r in reps]
    attempted = sum(r.attempted for r in reps)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.fmean(walls),
        "events_per_s": sum(r.events for r in reps) / sum(walls),
        "peak_rss_mb": rss_mb,
        "flow_mean": statistics.median(r.flow_mean for r in reps),
        "step_ms.p50": rep_percentile(reps, "steps", 50) * 1e3,
        "step_ms.p99": rep_percentile(reps, "steps", 99) * 1e3,
        "scrape_ms.p50": rep_percentile(reps, "reads", 50) * 1e3,
        "scrape_ms.p90": rep_percentile(reps, "reads", 90) * 1e3,
        "success_ratio": 1.0 - sum(r.failed for r in reps) / attempted,
    }


def per_layer(name: str, traced, untraced) -> dict[str, float]:
    """Per-rep means over the traced repetitions: layer self times,
    ``other_s`` (the rest of the traced wall), counts and ratios."""
    n = len(traced)
    self_s: dict[str, float] = {}
    calls: dict[str, float] = {}
    for rep in traced:
        for span, (s, c) in rep.layers.items():
            self_s[span] = self_s.get(span, 0.0) + s / n
            calls[span] = calls.get(span, 0) + c / n
    wall = sum(r.wall for r in traced) / n
    out = {metric: self_s.get(span, 0.0) for metric, span in LAYER_SPANS.items()}
    unmapped = {s for s, v in self_s.items() if v} - set(LAYER_SPANS.values())
    if unmapped:
        raise RuntimeError(f"spans without a layer metric: {sorted(unmapped)}")
    out["other_s"] = wall - sum(out.values())
    if out["other_s"] < 0:
        raise RuntimeError(f"layer self times exceed the traced wall by {-out['other_s']} s")
    out["runner.other_s"] = out["other_s"] if name == "registry" else 0.0
    out["traced_wall_s"] = wall
    # At the reference speed: the two halves of the run may see different hosts.
    out["trace_overhead_s"] = (statistics.fmean(r.wall * r.scale for r in traced)
                               - statistics.fmean(r.wall * r.scale for r in untraced))

    served = served_by(calls)
    requests = calls.get("backends.c_requests", 0)
    out["backends.c_requests"] = requests
    out["backends.c_runs"] = served["c"]
    out["backends.numpy_runs"] = served["numpy"]
    out["backends.python_runs"] = served["python"]
    out["backends.python_streams"] = served["python-stream"]
    out["backends.c_share"] = served["c"] / requests if requests else 0.0
    kernel_s = self_s.get("c_backend.kernel", 0.0)
    out["c_build.load_kernel_calls"] = calls.get("c_build.load_kernel", 0)
    out["c_backend.kernel_events_per_s"] = (
        calls.get("c_backend.events", 0) / kernel_s if kernel_s else 0.0)
    out["core.assign_calls"] = calls.get("core.assign", 0)
    out["engine.runs"] = calls.get("engine.run", 0)
    out["lp.solves"] = calls.get("lp.solve", 0)
    hits = sum(r.memo["hits"] for r in traced if r.memo)
    misses = sum(r.memo["misses"] for r in traced if r.memo)
    out["lp.memo_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    scrapes = [s for r in traced for s in r.reads] if name == "stream-scrape" else []
    renders = calls.get("service.render", 0)
    render_ms = (self_s.get("service.render", 0.0) + self_s.get("service.snapshot", 0.0)
                 ) / renders * 1e3 if renders else 0.0
    out["service.scrape_wait_ms"] = (
        percentile(scrapes, 50) * 1e3 - render_ms if scrapes else 0.0)
    out["loadgen.late_ms"] = percentile([s for r in traced for s in r.late], 90) * 1e3
    return out


def served_by(calls: dict) -> dict[str, float]:
    """Simulations per engine, from the dispatch-target call counts."""
    return {"c": calls.get("c_backend.run", 0),
            "numpy": calls.get("numpy_backend.run", 0),
            "python": calls.get("engine.run", 0),
            # Engine.run starts a stream of its own.
            "python-stream": calls.get("engine.stream_start", 0)
            - calls.get("engine.run", 0)}


def provenance(args, reps, counts, caught, recorder, problems, speed) -> dict:
    import numpy
    import scipy

    from repro.sim.backends import c_build

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "reps": len(reps),
        "rep_walls_s": [round(r.wall, 6) for r in reps],
        "rep_scales": [round(r.scale, 4) for r in reps],
        "reference_loop_ms": {"median": statistics.median(speed.samples) * 1e3,
                              "min": min(speed.samples) * 1e3,
                              "max": max(speed.samples) * 1e3,
                              "samples": len(speed.samples)},
        "samples": {"step": sum(len(r.steps) for r in reps),
                    "scrape": sum(len(r.reads) for r in reps)},
        "loadgen_late_ms.p90": percentile([s for r in reps for s in r.late], 90) * 1e3,
        "c_requests": counts.get("backends.c_requests", 0),
        "served_by": {k: v for k, v in served_by(counts).items() if v},
        "warnings": sorted({str(w.message) for w in caught}),
        "missing_hooks": recorder.missing,
        "toolchain": c_build.toolchain_info(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "problems": problems,
    }


def run_one(args) -> int:
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_CKERNEL_CACHE"] = str(BUILD / "ckernel")
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from layers import Recorder
    from refspeed import REF_S, Speedometer

    workload = workloads.WORKLOADS[args.workload]
    t0 = perf_counter()
    from repro.sim.backends import c_build

    workload.imports()
    import_s = perf_counter() - t0
    speed = Speedometer()
    before = speed.sample()
    import_s *= REF_S / before
    workload.speedometer = speed

    # Building the kernel is paid once per machine, so it is not timed;
    # the per-call load_kernel() is, because every simulate pays it.
    ok, reason = c_build.availability()
    if not ok:
        print(f"perfbench: {args.workload} requests backend='c', which is "
              f"unavailable here ({reason}); refusing to measure another "
              "backend instead", file=sys.stderr)
        return 3
    generations = []
    for _ in range(SETUPS):
        t = perf_counter()
        c_build.load_kernel()
        workload.generate(args.seed)
        elapsed = perf_counter() - t
        after = speed.sample()
        generations.append(elapsed * speed.scale(before, after))
        before = after
    setup_s = import_s + statistics.median(generations)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        untraced: list = []
        if args.trace:
            untraced = measure(workload, args.seconds / 2, speed)
        recorder = Recorder(timing=bool(args.trace))
        workloads.install_layers(recorder)
        workload.recorder = recorder if args.trace else None
        try:
            reps = measure(workload, args.seconds / 2 if args.trace else args.seconds,
                           speed)
        finally:
            recorder.restore()
            workload.recorder = None
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    counts = dict(recorder.calls)
    problems = workload.verify(untraced + reps)

    if args.trace:
        metrics = per_layer(args.workload, reps, untraced)
    else:
        metrics = end_to_end(reps, setup_s, rss_mb)
    spec = json.loads(SPEC_PATH.read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    if set(units) != set(metrics):
        raise RuntimeError(f"{SPEC_PATH.name} and the computed metrics differ: "
                           f"{sorted(set(units) ^ set(metrics))}")
    all_reps = untraced + reps
    for name, value in metrics.items():
        print(f"{args.workload:24s} {name:32s} {value:16.6f} {units[name]}")
    print(json.dumps({"provenance": provenance(args, all_reps, counts, caught,
                                               recorder, problems, speed)}))
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in all_reps),
        "failed": sum(r.failed for r in all_reps),
        "metrics": {n: {"value": float(v), "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; one combined summary."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        status = max(status, proc.returncode)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=json.loads(SPEC_PATH.read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources ({ROOT / 'src' / 'repro'}) "
              "are missing; nothing to measure", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
