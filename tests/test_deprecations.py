"""The deprecation *removals*: every legacy call form that spent its
one-release compatibility window is now gone, and the modern surface is
warning-free.  Each test here is the flipped form of the old shim test —
where the shim suite asserted "warns and still works", this suite
asserts "raises / absent" so a shim cannot quietly come back."""

from __future__ import annotations

import warnings

import pytest

import repro
from repro import api
from repro.sim.engine import simulate
from repro.sim.speed import SpeedProfile


def _instance():
    return api.make_instance(n_jobs=8, seed=2)


def _policy():
    from repro.core.assignment import GreedyIdenticalAssignment

    return GreedyIdenticalAssignment(0.5)


class TestTopLevelSimulateRemoved:
    """``repro.simulate`` (the lazy ``__getattr__`` alias) is gone; the
    blessed entry points are ``repro.api.simulate`` and
    ``repro.sim.simulate``."""

    def test_attribute_access_raises(self):
        with pytest.raises(AttributeError):
            repro.simulate

    def test_not_listed_in_all(self):
        assert "simulate" not in repro.__all__

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.definitely_not_an_api

    def test_replacements_importable(self):
        from repro.sim import simulate as sim_simulate

        assert sim_simulate is simulate
        assert callable(api.simulate)


class TestPositionalSpeedsRemoved:
    """``simulate(instance, policy, speeds_profile)`` is now a
    TypeError; every option is keyword-only."""

    def test_positional_speeds_rejected(self):
        with pytest.raises(TypeError):
            simulate(_instance(), _policy(), SpeedProfile.uniform(1.5))

    def test_keyword_form_works_and_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = simulate(
                _instance(), _policy(), speeds=SpeedProfile.uniform(1.5)
            )
        assert result.records


class TestPositionalRunnerParamsRemoved:
    """``run_experiments(ids, params)`` is now a TypeError;
    ``params_by_id`` is keyword-only."""

    def test_positional_params_rejected(self, tmp_path):
        from repro.analysis.runner import run_experiments

        with pytest.raises(TypeError):
            run_experiments(["F1"], {}, cache_dir=tmp_path)

    def test_keyword_form_works(self, tmp_path):
        from repro.analysis.runner import run_experiments
        from tests.test_experiments import QUICK_PARAMS

        params = {"F1": QUICK_PARAMS.get("F1", {})}
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            out = run_experiments(["F1"], params_by_id=params, cache_dir=tmp_path)
        assert out and out[0].key


class TestEventLogRemoved:
    """The observer-side ``EventLog`` recorder is gone; structured
    traces come from :mod:`repro.obs` (``tracer=`` / ``api.trace_run``)."""

    def test_import_raises(self):
        with pytest.raises(ImportError):
            from repro.sim.events import EventLog  # noqa: F401

    def test_absent_from_module_and_all(self):
        from repro.sim import events

        assert not hasattr(events, "EventLog")
        assert "EventLog" not in events.__all__

    def test_absent_from_sim_package(self):
        import repro.sim as sim

        assert not hasattr(sim, "EventLog")
        assert "EventLog" not in sim.__all__

    def test_timeline_vocabulary_survives(self):
        # The typed-event vocabulary stays: repro.obs builds on it.
        from repro.sim.events import EventKind, TraceEvent

        ev = TraceEvent(0.0, EventKind.ARRIVAL, job_id=0, node=1)
        assert ev.kind is EventKind.ARRIVAL

    def test_replacement_covers_the_use_case(self):
        result = api.trace_run(instance=_instance())
        done = {p.job_id for p in result.trace.points_of("finish")}
        assert done == set(result.records)


class TestCollectCountersRemoved:
    """The one-release ``collect_counters=`` → ``counters=`` rename shim
    in ``api.simulate`` / ``api.trace_run`` is gone: the old spelling is
    a ``TypeError``."""

    def test_simulate_old_name_rejected(self):
        with pytest.raises(TypeError, match="collect_counters"):
            api.simulate(instance=_instance(), collect_counters=True)

    def test_trace_run_old_name_rejected(self):
        with pytest.raises(TypeError, match="collect_counters"):
            api.trace_run(instance=_instance(), collect_counters=True)

    def test_new_name_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = api.simulate(instance=_instance(), counters=True)
        assert result.counters is not None


def test_modern_surface_is_warning_free(tmp_path):
    """The blessed call forms never trip a DeprecationWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        inst = api.make_instance(n_jobs=6, seed=1)
        api.simulate(instance=inst)
        api.trace_run(instance=inst)
        api.open_system(instance=inst).drain()
        api.run_experiments(exp_ids=["F1"], cache_dir=tmp_path)


def test_fuzz_surface_is_warning_free(tmp_path):
    # The fuzzing subsystem never leaned on a deprecated call form, so
    # it survived the shim removal unchanged.
    from repro.testing import run_fuzz

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        summary = run_fuzz(seed=3, max_cases=20, corpus_dir=tmp_path / "corpus")
    assert summary.cases_run == 20
    assert summary.ok
