"""The unified backend resolver: one precedence rule (kwarg > env >
default) and one availability policy for every entry point."""

from __future__ import annotations

import warnings

import pytest

from repro.exceptions import SimulationError
from repro.sim.backends import (
    BACKENDS,
    ENV_VAR,
    BackendChoice,
    backend_available,
    c_build,
    select_backend,
)

_C_OK, _C_REASON = c_build.availability()
needs_c = pytest.mark.skipif(
    not _C_OK, reason=f"c backend unavailable: {_C_REASON}"
)


class TestPrecedence:
    def test_default_is_python(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        choice = select_backend()
        assert choice == BackendChoice(None, "default", "python")

    def test_env_wins_over_default(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "python")
        choice = select_backend()
        assert choice.source == "env"
        assert choice.effective == "python"
        assert choice.fallback_reason is None

    def test_kwarg_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "c")
        choice = select_backend("python")
        assert choice.source == "kwarg"
        assert choice.effective == "python"
        assert choice.requested == "python"

    def test_empty_env_is_ignored(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "")
        assert select_backend().source == "default"


class TestValidationAndAvailability:
    def test_unknown_name_raises_from_any_source(self, monkeypatch):
        with pytest.raises(SimulationError):
            select_backend("fortran")
        monkeypatch.setenv(ENV_VAR, "fortran")
        with pytest.raises(SimulationError):
            select_backend()

    @pytest.fixture()
    def no_compiler(self, monkeypatch):
        monkeypatch.setattr(c_build, "find_compiler", lambda: None)
        c_build._reset_probe()
        yield
        c_build._reset_probe()  # forget the "unavailable" verdict

    def test_explicit_unavailable_backend_raises(self, no_compiler):
        with pytest.raises(SimulationError, match="unavailable"):
            select_backend("c")

    def test_env_unavailable_backend_warns_and_falls_back(
        self, no_compiler, monkeypatch
    ):
        monkeypatch.setenv(ENV_VAR, "c")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            choice = select_backend()
        assert choice.effective == "python"
        assert choice.source == "env"
        assert choice.fallback_reason
        assert any(issubclass(w.category, RuntimeWarning) for w in caught)


class TestSharedByEntryPoints:
    """Both blessed call surfaces honour the same resolution."""

    @needs_c
    def test_backends_simulate_reads_env(self, monkeypatch):
        from repro import api

        inst = api.make_instance(n_jobs=20, seed=7)
        monkeypatch.delenv(ENV_VAR, raising=False)
        ref = api.simulate(instance=inst, policy="greedy")
        monkeypatch.setenv(ENV_VAR, "c")
        via_env = api.simulate(instance=inst, policy="greedy")
        assert (ref.backend, via_env.backend) == ("python", "c")
        for jid, rec in ref.records.items():
            assert via_env.records[jid].completion == rec.completion

    def test_open_system_resolves_through_same_resolver(self, monkeypatch):
        from repro import api

        inst = api.make_instance(n_jobs=10, seed=7)
        monkeypatch.setenv(ENV_VAR, "fortran")
        with pytest.raises(SimulationError):
            api.open_system(instance=inst)

    def test_all_backends_enumerated(self):
        assert BACKENDS == ("python", "c")
        assert backend_available("python") == (True, None)
        for name in ("numpy", "fortran"):
            with pytest.raises(SimulationError):
                backend_available(name)


@needs_c
class TestFallbackAttribution:
    """Every result names the engine that ran and, when that is not the
    selected one, why."""

    def _instance(self):
        from repro import api

        return api.make_instance(
            tree=api.build_tree("datacenter", num_pods=2, racks_per_pod=2,
                                machines_per_rack=2),
            n_jobs=40, seed=3,
        )

    def test_s1_run_is_served_by_c(self):
        from repro import api

        result = api.simulate(instance=self._instance(), backend="c")
        assert result.backend == "c"
        assert result.fallback_reason is None

    def test_event_bearing_run_is_served_by_c(self):
        from repro import api
        from repro.workload.events import Cancel, EventSchedule

        inst = self._instance()
        events = EventSchedule([Cancel(inst.jobs[5].release + 0.5, inst.jobs[5].id)])
        result = api.simulate(instance=inst, backend="c", events=events)
        assert result.backend == "c"
        assert result.fallback_reason is None
        ref = api.simulate(instance=inst, backend="python", events=events)
        assert result.completions() == ref.completions()
        assert result.assignment() == ref.assignment()
        assert {j: r.cancelled_at for j, r in result.records.items()} == {
            j: r.cancelled_at for j, r in ref.records.items()
        }
        assert {j: r.completed_at for j, r in result.records.items()} == {
            j: r.completed_at for j, r in ref.records.items()
        }

    def test_event_bearing_run_reports_python_and_why(self):
        # Events plus size estimates: the estimates are still outside
        # the kernel, so the run falls back and says why.
        from repro import api
        from repro.workload.events import Cancel, EventSchedule
        from repro.workload.instance import Instance
        from repro.workload.job import Job, JobSet

        inst = self._instance()
        inst = Instance(
            inst.tree,
            JobSet([Job(j.id, j.release, j.size, size_estimate=2 * j.size)
                    for j in inst.jobs]),
            inst.setting,
        )
        events = EventSchedule([Cancel(inst.jobs[5].release + 0.5, inst.jobs[5].id)])
        result = api.simulate(instance=inst, backend="c", events=events)
        assert result.backend == "python"
        assert "size estimates" in result.fallback_reason
        ref = api.simulate(instance=inst, backend="python", events=events)
        assert result.completions() == ref.completions()

    def test_python_selection_has_no_fallback(self):
        from repro import api

        result = api.simulate(instance=self._instance(), backend="python")
        assert (result.backend, result.fallback_reason) == ("python", None)
