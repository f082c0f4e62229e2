"""The backend registry: selection, dispatch, fallback, and
cross-backend parity on a realistic workload.

The bit-level schedule equivalence of the C kernel is enforced
case-by-case by the differential fuzzer (``repro fuzz --backends``) and
by the engine suites, which run on both backends; this module covers the
*dispatch* layer (``repro.sim.backends.simulate`` / ``repro.api``) and
seeded end-to-end parity checks on the S1 benchmark workload and on a
release burst.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.analysis.experiments.workloads import identical_instance
from repro.baselines.policies import ClosestLeafAssignment, LeastLoadedAssignment
from repro.core.assignment import GreedyIdenticalAssignment
from repro.exceptions import SimulationError
from repro.network.builders import datacenter_tree
from repro.sim import backends
from repro.sim.backends import c_build
from repro.sim.backends.c_backend import CEngine
from repro.sim.speed import SpeedProfile
from repro.workload.instance import Instance, Setting
from repro.workload.job import Job, JobSet

_C_OK, _C_REASON = c_build.availability()
needs_c = pytest.mark.skipif(
    not _C_OK, reason=f"c backend unavailable: {_C_REASON}"
)


def _s1_instance(n=160):
    tree = datacenter_tree(3, 3, 4)
    return identical_instance(tree, n, load=0.85, seed=12)


def _run(backend, **kwargs):
    return backends.simulate(
        _s1_instance(),
        GreedyIdenticalAssignment(0.25),
        backend=backend,
        speeds=SpeedProfile.uniform(1.5),
        **kwargs,
    )


def _assert_same_schedule(a, b):
    assert set(a.records) == set(b.records)
    for jid, ra in a.records.items():
        rb = b.records[jid]
        assert rb.leaf == ra.leaf
        assert rb.path == ra.path
        assert rb.completed_at == ra.completed_at
        assert rb.available_at == ra.available_at
    assert a.total_flow_time() == b.total_flow_time()


class TestCrossBackendParity:
    @needs_c
    def test_s1_schedules_identical(self):
        a = _run("python")
        b = _run("c")
        assert (a.backend, b.backend) == ("python", "c")
        _assert_same_schedule(a, b)

    @needs_c
    @pytest.mark.parametrize(
        "policy",
        [
            lambda: GreedyIdenticalAssignment(0.25),
            LeastLoadedAssignment,
            ClosestLeafAssignment,
        ],
        ids=["greedy", "least-loaded", "closest"],
    )
    def test_burst_past_initial_capacity(self, policy):
        # 150 simultaneous releases queue dozens of jobs per node (every
        # one on a single path under closest-leaf), far past the
        # kernel's initial per-node heap and pending capacity, so the
        # buffers must grow mid-run without disturbing the schedule.
        jobs = JobSet(
            Job(id=i, release=0.0 if i < 150 else 0.01 * i,
                size=1.0 + (i * 7919 % 13) / 4)
            for i in range(300)
        )
        inst = Instance(datacenter_tree(3, 3, 4), jobs, Setting.IDENTICAL)
        a = backends.simulate(inst, policy(), backend="python")
        b = backends.simulate(inst, policy(), backend="c")
        assert b.backend == "c"
        _assert_same_schedule(a, b)

    @needs_c
    def test_api_facade_backend_keyword(self):
        inst = _s1_instance(60)
        for backend in ("python", "c"):
            result = api.simulate(
                instance=inst, policy="greedy", eps=0.25, backend=backend
            )
            assert result.backend == backend
            assert result.fallback_reason is None

    @needs_c
    def test_api_facade_c_backend(self):
        inst = _s1_instance(60)
        a = api.simulate(instance=inst, policy="greedy", eps=0.25, backend="python")
        b = api.simulate(instance=inst, policy="greedy", eps=0.25, backend="c")
        assert {j: r.completion for j, r in a.records.items()} == {
            j: r.completion for j, r in b.records.items()
        }


class TestSelection:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(backends.ENV_VAR, "c")
        assert backends.resolve_backend("python") == "python"

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv(backends.ENV_VAR, "c")
        assert backends.resolve_backend(None) == "c"
        monkeypatch.delenv(backends.ENV_VAR)
        assert backends.resolve_backend(None) == "python"

    def test_empty_env_means_python(self, monkeypatch):
        monkeypatch.setenv(backends.ENV_VAR, "")
        assert backends.resolve_backend(None) == "python"

    def test_unknown_backend_rejected(self, monkeypatch):
        # "numpy" named a backend that has been removed.
        for name in ("fortran", "numpy"):
            with pytest.raises(SimulationError, match="unknown backend"):
                backends.resolve_backend(name)
            with pytest.raises(SimulationError, match="unknown backend"):
                _run(name)
            monkeypatch.setenv(backends.ENV_VAR, name)
            with pytest.raises(SimulationError, match="unknown backend"):
                _run(None)
            monkeypatch.delenv(backends.ENV_VAR)

    @needs_c
    def test_env_selects_c_end_to_end(self, monkeypatch):
        monkeypatch.setenv(backends.ENV_VAR, "c")
        a = _run(None)
        b = _run("python")
        assert a.backend == "c"
        assert {j: r.completion for j, r in a.records.items()} == {
            j: r.completion for j, r in b.records.items()
        }

    def test_backend_available_registry(self):
        assert backends.BACKENDS == ("python", "c")
        assert backends.backend_available("python") == (True, None)
        ok, reason = backends.backend_available("c")
        assert ok == (reason is None)
        avail = backends.available_backends()
        assert "python" in avail
        assert ("c" in avail) == ok
        with pytest.raises(SimulationError, match="unknown backend"):
            backends.backend_available("fortran")


class TestFallback:
    """Under ``backend="c"``, options defined in terms of the global
    event order and calls the kernel cannot express run on the python
    engine, and the result says why."""

    @needs_c
    def test_observer_falls_back(self, monkeypatch):
        # The rule is the same whichever way "c" was selected.
        monkeypatch.setenv(backends.ENV_VAR, "c")
        seen = []
        result = _run(None, observer=lambda view, kind, subject: seen.append(kind))
        assert seen
        assert result.backend == "python"
        assert "observer=" in result.fallback_reason

    @needs_c
    def test_c_observer_falls_back_to_python(self):
        seen = []
        result = _run("c", observer=lambda view, kind, subject: seen.append(kind))
        assert seen  # the compiled kernel has no observer hook at all
        assert len(result.records) == 160
        assert result.backend == "python"
        assert "observer=" in result.fallback_reason

    @needs_c
    def test_until_falls_back(self):
        result = _run("c", until=1.0)
        assert len(result.records) < 160  # genuinely bounded, so python ran
        assert "until=" in result.fallback_reason

    @needs_c
    def test_counters_fall_back(self):
        result = _run("c", collect_counters=True)
        assert result.counters is not None
        assert result.counters.arrivals == 160
        assert "counters=" in result.fallback_reason

    @needs_c
    def test_plain_c_call_does_not_fall_back(self):
        result = _run("c")
        assert result.counters is None
        assert len(result.records) == 160
        assert (result.backend, result.fallback_reason) == ("c", None)

    @needs_c
    def test_c_record_segments_falls_back_to_python(self):
        # The C kernel never records segments; the python engine does.
        result = _run("c", record_segments=True)
        assert result.segments
        assert result.backend == "python"
        assert "segment recording" in result.fallback_reason
        ref = _run("python", record_segments=True)
        key = lambda s: (s.start, s.end, s.node, s.job_id)  # noqa: E731
        assert sorted(result.segments, key=key) == sorted(ref.segments, key=key)

    @needs_c
    def test_c_inapplicable_policy_falls_back_to_python(self):
        # A policy the kernel has no native or static plan for (stateful
        # in a way it cannot replay) runs on the python engine instead.
        class Adversarial:
            def assign(self, view, job, now):
                # depends on live queue state -> not statically plannable
                return min(
                    view.tree.leaves, key=lambda v: (view.volume_through(v), v)
                )

        inst = _s1_instance(40)
        a = backends.simulate(inst, Adversarial(), backend="c")
        b = backends.simulate(inst, Adversarial(), backend="python")
        assert a.backend == "python"
        assert "Adversarial" in a.fallback_reason
        assert {j: r.completed_at for j, r in a.records.items()} == {
            j: r.completed_at for j, r in b.records.items()
        }


class TestCUnavailable:
    """Behaviour with compiler discovery disabled: explicit requests
    raise, environment selection degrades with a warning."""

    @pytest.fixture()
    def no_compiler(self, monkeypatch):
        monkeypatch.setattr(c_build, "find_compiler", lambda: None)
        c_build._reset_probe()
        yield
        c_build._reset_probe()  # forget the "unavailable" verdict

    def test_availability_reports_reason(self, no_compiler):
        ok, reason = c_build.availability()
        assert not ok
        assert "no C compiler" in reason

    def test_explicit_request_raises(self, no_compiler):
        with pytest.raises(SimulationError, match="backend 'c' is unavailable"):
            _run("c")

    def test_env_selection_warns_and_falls_back(self, no_compiler, monkeypatch):
        monkeypatch.setenv(backends.ENV_VAR, "c")
        with pytest.warns(RuntimeWarning, match="falling back to the python"):
            result = _run(None)
        assert len(result.records) == 160
        assert result.backend == "python"
        assert "no C compiler" in result.fallback_reason

    def test_registry_excludes_c(self, no_compiler):
        assert backends.backend_available("c")[0] is False
        assert "c" not in backends.available_backends()

    def test_no_ckernel_env_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
        c_build._reset_probe()
        try:
            assert c_build.find_compiler() is None
            ok, _ = c_build.availability()
            assert not ok
        finally:
            c_build._reset_probe()


class TestBuildCache:
    """The compiled-library cache can never serve a stale binary: the
    slot name hashes the source text, compiler version, flags and ABI."""

    @needs_c
    def test_source_edit_forces_rebuild(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CKERNEL_CACHE", str(tmp_path))
        lib1 = c_build.build_library()
        assert lib1.exists() and lib1.parent == tmp_path
        # Same source -> same slot, no rebuild.
        assert c_build.build_library() == lib1
        # Any source edit -> different key -> fresh compile.
        edited = c_build.source_path().read_text() + "\n/* edited */\n"
        lib2 = c_build.build_library(source_text=edited)
        assert lib2 != lib1
        assert lib2.exists()

    def test_cache_key_covers_all_inputs(self):
        base = c_build._cache_key("src", "gcc 1.0", ("-O2",))
        assert c_build._cache_key("src2", "gcc 1.0", ("-O2",)) != base
        assert c_build._cache_key("src", "gcc 2.0", ("-O2",)) != base
        assert c_build._cache_key("src", "gcc 1.0", ("-O3",)) != base

    @needs_c
    def test_loaded_kernel_abi_matches(self):
        dll = c_build.load_kernel()
        assert dll.repro_abi_version() == c_build.ABI_VERSION


class TestCEngineSurface:
    @needs_c
    def test_run_once(self):
        eng = CEngine(_s1_instance(20), GreedyIdenticalAssignment(0.25))
        eng.run()
        with pytest.raises(SimulationError, match="only run once"):
            eng.run()
