"""Regression guards on raw engine throughput.

Two gates, both driven by the S1 sweep harness (best-of-N walls to shed
scheduler noise):

* **near-linear scaling** — with the incremental congestion aggregates,
  an arrival costs O(path length + branch count) instead of
  O(leaves x alive), so events/s must stay roughly flat as the job
  count grows.  A quadratic-scan regression shows up as a 3-10x drop at
  2400 jobs, far past the band.
* **disabled-path overhead** — the observability hooks (counters and
  the trace recorder) are compiled into the engine but off by default;
  each hook site must cost one ``is None`` test and nothing more.  The
  guard compares a fresh hooks-off run against the checked-in
  ``BENCH_engine.json`` and requires the *best* size to stay within
  ``MAX_HOOK_OVERHEAD`` of the baseline.  Taking the minimum slowdown
  across sizes is deliberate: genuine per-event overhead slows every
  size uniformly, while machine noise rarely depresses all sizes at
  once, so the min is the noise-robust estimator of the floor.

Marked ``slow`` by the benchmarks conftest, so tier-1 stays fast.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.bench import MAX_DEGRADATION, run_bench

#: Allowed fresh-vs-baseline throughput ratio for the hooks-off engine:
#: the ISSUE's acceptance bar of <5% disabled-path overhead.
MAX_HOOK_OVERHEAD = 1.05

_BASELINE = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def test_throughput_scales_near_linearly():
    doc = run_bench(
        sizes=(200, 800, 2400), repeats=3,
        include_policies=False, include_registry=False,
    )
    for backend, rows in doc["scaling"].items():
        rates = {int(size): row["events_per_s"] for size, row in rows.items()}
        smallest = rates[min(rates)]
        largest = rates[max(rates)]
        assert largest >= smallest / MAX_DEGRADATION, (
            f"[{backend}] throughput degraded {smallest / largest:.2f}x from "
            f"{min(rates)} to {max(rates)} jobs "
            f"({smallest:,.0f} -> {largest:,.0f} events/s); "
            f"allowed: {MAX_DEGRADATION}x"
        )


#: Enforced floor on the compiled backend's throughput ratio over the
#: python engine at 2400 jobs.  The gate sits well below the measured
#: ratio so scheduler noise cannot flake it, while any real backend
#: regression (the ratio falling toward 1x) still trips.  The backends
#: are pinned bit-identical (tests/test_backends.py), which forbids
#: float-reordering vectorization, and the arrival phase is a
#: sequential policy-feedback loop (each greedy decision mutates the
#: state the next one scores); the C kernel runs that loop compiled.
MIN_BACKEND_SPEEDUP = {"c": 4.0}


@pytest.mark.parametrize("backend", sorted(MIN_BACKEND_SPEEDUP))
def test_backend_outruns_python(backend):
    """Each accelerated backend must beat the python engine's event
    throughput on the S1 2400-job sweep by its floor ratio."""
    from repro.sim.backends import backend_available

    ok, reason = backend_available(backend)
    if not ok:
        pytest.skip(f"{backend} backend unavailable: {reason}")
    doc = run_bench(
        sizes=(2400,), repeats=3,
        include_policies=False, include_registry=False,
        backends=("python", backend),
    )
    python = doc["scaling"]["python"]["2400"]["events_per_s"]
    accel = doc["scaling"][backend]["2400"]["events_per_s"]
    floor = MIN_BACKEND_SPEEDUP[backend]
    assert accel >= floor * python, (
        f"{backend} backend at {accel:,.0f} events/s is only "
        f"{accel / python:.2f}x the python engine ({python:,.0f}); "
        f"need {floor}x"
    )


def test_disabled_hooks_cost_under_five_percent():
    if not _BASELINE.exists():  # pragma: no cover - fresh checkout only
        pytest.skip(f"no baseline at {_BASELINE}")
    baseline = json.loads(_BASELINE.read_text())["scaling"]["python"]
    sizes = tuple(sorted(int(s) for s in baseline))
    fresh = run_bench(
        sizes=sizes, repeats=5,
        include_policies=False, include_registry=False,
        backends=("python",),
    )["scaling"]["python"]
    slowdowns = {
        n: baseline[str(n)]["events_per_s"] / fresh[str(n)]["events_per_s"]
        for n in sizes
    }
    floor = min(slowdowns.values())
    detail = ", ".join(f"{n}: {s:.3f}x" for n, s in sorted(slowdowns.items()))
    assert floor <= MAX_HOOK_OVERHEAD, (
        f"hooks-off engine is uniformly >{(MAX_HOOK_OVERHEAD - 1) * 100:.0f}% "
        f"slower than BENCH_engine.json (per-size slowdown {detail}); "
        "the disabled instrumentation path is no longer free"
    )
