"""First-class dynamic events: schedule validation, engine semantics,
down-aware assignment, size revelation, cross-backend parity, and the
aggregate-consistency property after repairs.

The deterministic chain scenario (root 0 → router 1 → leaf 2, speed 1,
identical setting) is shared with ``tests/test_stream_events.py``; see
that module's docstring for the full hand-computed timeline.  Here it is
run in batch mode, where the expected completions are job 0 at 6, job 2
at 11, job 3 at 22 (stalled through the 8–13 outage), and job 1 is
cancelled at 6.
"""

from __future__ import annotations

import math
import warnings

import pytest

from repro import api
from repro.analysis.experiments.workloads import identical_instance
from repro.core.assignment import GreedyIdenticalAssignment
from repro.exceptions import SimulationError, WorkloadError
from repro.network.builders import datacenter_tree, tree_from_parent_map
from repro.obs.trace import TraceConfig, TraceRecorder
from repro.sim.backends import c_build
from repro.sim.engine import Engine
from repro.workload.events import Cancel, EventSchedule, NodeDown, NodeUp
from repro.workload.instance import Instance, Setting
from repro.workload.job import JobSet


def _chain_instance():
    tree = tree_from_parent_map({0: None, 1: 0, 2: 1})
    jobs = JobSet.build(
        releases=[0.0, 1.0, 2.0, 4.0],
        sizes=[3.0, 5.0, 4.0, 5.0],
    )
    return Instance(tree, jobs, Setting.IDENTICAL, name="dyn-chain")


def _chain_events():
    return EventSchedule(
        [Cancel(6.0, 1), NodeDown(8.0, 1), NodeUp(13.0, 1)]
    )


def _two_leaf_instance(releases, sizes):
    tree = tree_from_parent_map({0: None, 1: 0, 2: 1, 3: 1})
    jobs = JobSet.build(releases=releases, sizes=sizes)
    return Instance(tree, jobs, Setting.IDENTICAL, name="dyn-two-leaf")


class TestScheduleValidation:
    def test_alternation_is_enforced(self):
        with pytest.raises(WorkloadError, match="already down"):
            EventSchedule([NodeDown(1.0, 1), NodeDown(2.0, 1)])
        with pytest.raises(WorkloadError, match="without a preceding"):
            EventSchedule([NodeUp(1.0, 1)])

    def test_every_outage_must_end(self):
        with pytest.raises(WorkloadError, match="no matching NodeUp"):
            EventSchedule([NodeDown(1.0, 1)])

    def test_at_most_one_cancel_per_job(self):
        with pytest.raises(WorkloadError, match="more than once"):
            EventSchedule([Cancel(1.0, 7), Cancel(2.0, 7)])

    def test_validate_for_rejects_root_and_unknown_nodes(self):
        inst = _chain_instance()
        with pytest.raises(WorkloadError, match="root"):
            EventSchedule(
                [NodeDown(1.0, 0), NodeUp(2.0, 0)]
            ).validate_for(inst)
        with pytest.raises(WorkloadError, match="not in the tree"):
            EventSchedule(
                [NodeDown(1.0, 9), NodeUp(2.0, 9)]
            ).validate_for(inst)

    def test_doc_round_trip(self):
        sched = _chain_events()
        assert EventSchedule.from_doc(sched.to_doc()) == sched
        assert sched.down_intervals() == {1: ((8.0, 13.0),)}
        assert sched.cancel_times() == {1: 6.0}


class TestOutageAndCancelSemantics:
    def _run(self, **kw):
        return api.simulate(
            instance=_chain_instance(), events=_chain_events(),
            record_segments=True, **kw
        )

    def test_chain_timeline(self):
        result = self._run()
        assert result.completions() == {0: 6.0, 2: 11.0, 3: 22.0}

    def test_cancelled_job_is_terminal_not_completed(self):
        result = self._run()
        rec = result.records[1]
        assert rec.cancelled
        assert rec.cancelled_at == 6.0
        assert not rec.finished
        assert set(result.cancelled_records()) == {1}
        with pytest.raises(SimulationError):
            rec.completion

    def test_cancelled_job_never_in_flow_metrics(self):
        result = self._run()
        assert 1 not in result.completions()
        # flows 6, 9, 18 — the cancelled job contributes nothing
        assert sorted(result.flow_times().tolist()) == [6.0, 9.0, 18.0]
        assert result.total_flow_time() == 33.0
        assert result.mean_flow_time() == pytest.approx(11.0)

    def test_no_service_during_the_outage(self):
        result = self._run()
        for seg in result.segments:
            if seg.node == 1:
                assert seg.end <= 8.0 or seg.start >= 13.0, (
                    f"segment {seg} overlaps the 8-13 outage of node 1"
                )

    def test_unknown_and_late_cancels_are_no_ops(self):
        inst = _chain_instance()
        base = api.simulate(instance=inst)
        for sched in (
            EventSchedule([Cancel(5.0, 99)]),       # job id never exists
            EventSchedule([Cancel(3.0, 3)]),        # before job 3 releases
            EventSchedule([Cancel(100.0, 0)]),      # long after completion
        ):
            got = api.simulate(instance=inst, events=sched)
            assert got.completions() == base.completions()
            assert not got.records[0].cancelled

    def test_empty_schedule_is_bit_identical_to_no_schedule(self):
        inst = _chain_instance()
        base = api.simulate(instance=inst, record_segments=True)
        got = api.simulate(
            instance=inst, events=EventSchedule(()), record_segments=True
        )
        assert got.completions() == base.completions()
        assert got.segments == base.segments
        assert got.fractional_flow == base.fractional_flow


class TestDownAwareAssignment:
    @pytest.mark.parametrize("policy", ["greedy", "least-loaded"])
    def test_downed_leaf_is_excluded(self, policy):
        # Leaf 2 is down when the only job arrives: both down-aware
        # policies must route it to leaf 3.
        inst = _two_leaf_instance([1.0], [2.0])
        events = EventSchedule([NodeDown(0.5, 2), NodeUp(10.0, 2)])
        result = api.simulate(instance=inst, policy=policy, events=events)
        assert result.records[0].leaf == 3

    @pytest.mark.parametrize("policy", ["greedy", "least-loaded"])
    def test_assignment_recovers_after_repair(self, policy):
        # An outage that ends before the first release leaves no mark:
        # the repaired leaf is a full candidate again, so the schedule
        # is identical to the event-free run (the idle-outage relation).
        inst = _two_leaf_instance([20.0, 20.0], [2.0, 2.0])
        events = EventSchedule([NodeDown(0.5, 2), NodeUp(10.0, 2)])
        with_events = api.simulate(
            instance=inst, policy=policy, events=events
        )
        without = api.simulate(instance=inst, policy=policy)
        assert with_events.assignment() == without.assignment()
        assert with_events.completions() == without.completions()

    def test_all_leaves_down_falls_back_and_job_stalls(self):
        # With every leaf down at arrival the greedy fallback still
        # assigns somewhere; the job then stalls and completes only
        # after the repair (release 1, size 2, repair at 6 -> router
        # hop 6..8, leaf hop 8..10).
        inst = _two_leaf_instance([1.0], [2.0])
        events = EventSchedule(
            [NodeDown(0.5, 2), NodeDown(0.5, 3),
             NodeUp(6.0, 2), NodeUp(6.0, 3)]
        )
        result = api.simulate(instance=inst, events=events)
        rec = result.records[0]
        assert rec.leaf in (2, 3)
        assert rec.completion >= 8.0


class _SpyPolicy:
    """Delegating policy that records the size each job presents at
    assignment time (the estimate under partial information)."""

    def __init__(self, inner):
        self.inner = inner
        self.seen: dict[int, float] = {}

    def assign(self, view, job, now):
        self.seen[job.id] = job.size
        return self.inner.assign(view, job, now)


class TestSizeRevelation:
    def _instance(self):
        tree = tree_from_parent_map({0: None, 1: 0, 2: 1})
        jobs = JobSet.build(
            releases=[0.0, 1.0],
            sizes=[4.0, 2.0],
            size_estimates=[1.0, None],
        )
        return Instance(tree, jobs, Setting.IDENTICAL, name="dyn-estimates")

    def test_policy_sees_only_the_estimate(self):
        inst = self._instance()
        spy = _SpyPolicy(GreedyIdenticalAssignment(0.25))
        api.simulate(instance=inst, policy=spy)
        assert spy.seen[0] == 1.0  # the estimate, not the true size 4
        assert spy.seen[1] == 2.0  # fully-known job passes through as-is

    def test_true_size_is_revealed_at_completion(self):
        inst = self._instance()
        rec = TraceRecorder(TraceConfig())
        result = api.simulate(instance=inst, tracer=rec)
        assert result.records[0].size_estimate == 1.0
        reveals = result.trace.events_of("reveal")
        assert [(e.job_id, e.size) for e in reveals] == [(0, 4.0)]
        # Processing is driven by the true size throughout: job 1
        # (true size 2) preempts at t=1, so job 0 runs the router
        # 0-1 and 3-6, then the leaf 6-10.
        assert result.completions()[0] == 10.0


def _parity_pair():
    """A medium instance plus an event schedule touching an internal
    router, a leaf, and three cancels (one pre-release no-op)."""
    tree = datacenter_tree(2, 2, 3)
    inst = identical_instance(tree, 80, load=0.9, seed=21)
    leaf = tree.leaves[0]
    router = tree.parent(leaf)
    horizon = max(j.release for j in inst.jobs)
    events = EventSchedule([
        NodeDown(horizon * 0.2, leaf), NodeUp(horizon * 0.5, leaf),
        NodeDown(horizon * 0.6, router), NodeUp(horizon * 0.8, router),
        Cancel(horizon * 0.3, 5), Cancel(horizon * 0.7, 40),
        Cancel(0.0, 79),
    ])
    return inst, events


_C_OK, _C_REASON = c_build.availability()


@pytest.mark.skipif(not _C_OK, reason=f"c backend unavailable: {_C_REASON}")
class TestBackendParityWithEvents:
    def test_c_backend_runs_python_and_says_why(self):
        # The kernel has no event barrier: an event-bearing run that
        # selects "c" runs on the python engine, silently but
        # attributably, with the python engine's exact schedule.
        inst, events = _parity_pair()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = api.simulate(instance=inst, backend="c", events=events)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert got.backend == "python"
        assert "dynamic events" in got.fallback_reason
        ref = api.simulate(instance=inst, backend="python", events=events)
        assert got.completions() == ref.completions()
        assert {j: r.cancelled_at for j, r in got.records.items()} == {
            j: r.cancelled_at for j, r in ref.records.items()
        }

    def test_c_backend_event_free_stays_native(self):
        # The fallback gate must not trip on empty schedules.
        inst, _ = _parity_pair()
        result = api.simulate(instance=inst, backend="c", events=EventSchedule(()))
        assert (result.backend, result.fallback_reason) == ("c", None)


class TestAggregatesAfterRepair:
    def test_aggregates_equal_fresh_recomputation_at_every_repair(self):
        """After each ``node_up`` the O(1) aggregate counters must equal
        a from-scratch recomputation over the alive set — the incremental
        settle/drain/rearm algebra of the outage path may not drift."""
        inst, events = _parity_pair()
        checked = {"n": 0}

        def observer(view, kind, subject):
            if kind != "node_up":
                return
            checked["n"] += 1
            for v in inst.tree.node_ids:
                if v == inst.tree.root:
                    continue
                through = view.jobs_through(v)
                assert view.jobs_through_count(v) == len(through)
                vol = sum(view.remaining_on(j, v) for j in through)
                assert math.isclose(
                    view.volume_through(v), vol,
                    rel_tol=1e-9, abs_tol=1e-9,
                )
                qvol = sum(
                    view.remaining_on(j, v) for j in view.queue_at(v)
                )
                assert math.isclose(
                    view.queue_volume_at(v), qvol,
                    rel_tol=1e-9, abs_tol=1e-9,
                )

        engine = Engine(
            inst, GreedyIdenticalAssignment(0.25),
            events=events, observer=observer,
        )
        engine.run()
        assert checked["n"] == 2  # both repairs were audited

    def test_engine_invariants_hold_through_events(self):
        inst, events = _parity_pair()
        result = api.simulate(
            instance=inst, events=events, check_invariants=True
        )
        assert result.completions()  # ran to completion, no raise
