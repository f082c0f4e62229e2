"""Direct unit tests for SimulationResult and JobRecord, and for the
columns every flow reduction reads."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import api
from repro.analysis.experiments.workloads import identical_instance
from repro.core.assignment import FixedAssignment, GreedyIdenticalAssignment
from repro.exceptions import SimulationError
from repro.network.builders import datacenter_tree, spine_tree, tree_from_parent_map
from repro.sim import backends, metrics
from repro.sim.backends import c_build
from repro.sim.engine import simulate
from repro.sim.result import (
    JobRecord,
    RecordView,
    ResultColumns,
    ScheduleSegment,
    SimulationResult,
)
from repro.sim.speed import SpeedProfile
from repro.workload.events import Cancel, EventSchedule
from repro.workload.instance import Instance, Setting
from repro.workload.job import Job, JobSet


def run(jobs, **kw):
    instance = Instance(spine_tree(1), JobSet(jobs), Setting.IDENTICAL)
    return simulate(instance, FixedAssignment({j.id: 2 for j in jobs}), **kw)


class TestJobRecord:
    def test_unfinished_completion_raises(self):
        rec = JobRecord(job_id=0, release=0.0, leaf=2, path=(1, 2))
        rec.available_at = [0.0]
        rec.completed_at = [1.0]
        assert not rec.finished
        with pytest.raises(SimulationError, match="did not complete"):
            _ = rec.completion

    def test_time_on_node(self):
        res = run([Job(id=0, release=0.0, size=2.0)])
        rec = res.records[0]
        assert rec.time_on_node(0) == pytest.approx(2.0)
        assert rec.time_on_node(1) == pytest.approx(2.0)


class TestScheduleSegment:
    def test_duration(self):
        assert ScheduleSegment(1, 0, 2.0, 5.0).duration == 3.0


class TestSimulationResult:
    def test_flow_accessors_consistent(self):
        res = run([Job(id=i, release=float(i), size=1.0) for i in range(4)])
        flows = res.flow_times()
        assert res.total_flow_time() == pytest.approx(float(flows.sum()))
        assert res.mean_flow_time() == pytest.approx(float(flows.mean()))
        assert res.max_flow_time() == pytest.approx(float(flows.max()))
        assert res.completions()[0] == res.records[0].completion

    def test_empty_result_metrics(self):
        res = run([])
        assert res.total_flow_time() == 0.0
        assert res.mean_flow_time() == 0.0
        assert res.max_flow_time() == 0.0
        assert res.makespan() == 0.0
        res.verify_complete()

    def test_verify_complete_raises_on_partial(self):
        res = run([Job(id=0, release=0.0, size=5.0)], until=2.0)
        with pytest.raises(SimulationError, match="did not complete"):
            res.verify_complete()

    def test_repr_mentions_totals(self):
        res = run([Job(id=0, release=0.0, size=1.0)])
        assert "total_flow" in repr(res)


# ---------------------------------------------------------------------------
# columnar results
# ---------------------------------------------------------------------------
_C_OK, _C_REASON = c_build.availability()
needs_c = pytest.mark.skipif(not _C_OK, reason=f"c backend unavailable: {_C_REASON}")


def _s1(n=300, backend="c"):
    inst = identical_instance(datacenter_tree(3, 3, 4), n, load=0.85, seed=12)
    return api.simulate(
        instance=inst, policy="greedy", eps=0.25, speed=1.5, backend=backend
    )


def _old_flow_times(records):
    """The record loop the columnar reduction replaced."""
    return np.array(
        [
            records[j].flow_time
            for j in sorted(records)
            if not records[j].cancelled
        ],
        dtype=float,
    )


def _old_columns(records):
    """Per-record values the packed columns must hold, row by row."""
    return [
        (
            rec.job_id,
            rec.release,
            rec.leaf,
            rec.finished,
            rec.cancelled,
            rec.completion if rec.finished else math.nan,
        )
        for rec in records.values()
    ]


def _col_rows(cols: ResultColumns):
    return list(
        zip(
            cols.job_id.tolist(),
            cols.release.tolist(),
            cols.leaf.tolist(),
            cols.finished.tolist(),
            cols.cancelled.tolist(),
            cols.completion.tolist(),
        )
    )


def _same_rows(a, b):
    # NaN-aware exact equality, row by row.
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra[:5] == rb[:5]
        assert (math.isnan(ra[5]) and math.isnan(rb[5])) or ra[5] == rb[5]


def _errors(result):
    """The SimulationError text of each reduction that can raise (None
    where it returns)."""
    out = {}
    for name, call in {
        "verify_complete": result.verify_complete,
        "flow_times": result.flow_times,
        "completions": result.completions,
        "flow_time_per_job": lambda: metrics.flow_time_per_job(result),
    }.items():
        try:
            call()
        except SimulationError as exc:
            out[name] = str(exc)
        else:
            out[name] = None
    return out


class TestColumnarCResult:
    @needs_c
    def test_reductions_construct_no_records(self, monkeypatch):
        built = []
        init = JobRecord.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(JobRecord, "__init__", counting)
        res = _s1()
        assert res.backend == "c"
        assert len(res.records) == 300
        res.verify_complete()
        res.flow_times()
        res.total_flow_time()
        res.mean_flow_time()
        res.max_flow_time()
        res.makespan()
        res.assignment()
        res.completions()
        res.unfinished_job_ids()
        metrics.flow_time_per_job(res)
        metrics.flow_time_array(res)
        assert built == []
        # The first record access builds every record once; later
        # accesses reuse them.
        first = res.records[0]
        assert len(built) == 300
        assert res.records[0] is first
        list(res.records.values())
        assert len(built) == 300

    @needs_c
    def test_reductions_match_the_record_loop(self):
        res = _s1()
        recs = dict(res.records)
        flows = res.flow_times()
        assert flows.tobytes() == _old_flow_times(recs).tobytes()
        assert res.assignment() == {j: r.leaf for j, r in recs.items()}
        assert res.completions() == {j: r.completion for j, r in recs.items()}
        assert res.makespan() == max(r.completion for r in recs.values())
        assert metrics.flow_time_per_job(res) == {
            j: r.flow_time for j, r in recs.items()
        }
        _same_rows(_col_rows(res.columns), _old_columns(recs))

    @needs_c
    def test_integrals_are_sequential_arrival_order_sums(self):
        res = _s1()
        view = res.records
        assert isinstance(view, RecordView)
        alive = frac = 0.0
        for rec, deficit in zip(view.values(), view.deficit.tolist()):
            alive += rec.flow_time
            frac += rec.flow_time - deficit
        assert res.alive_integral == alive
        assert res.fractional_flow == frac
        # On this instance a pairwise sum rounds differently, so the
        # equalities above pin the left-to-right order.
        flows = np.array([r.flow_time for r in view.values()])
        assert float(np.sum(flows)) != alive or float(np.sum(flows - view.deficit)) != frac

    @staticmethod
    def _hand_made(completed_cnt):
        """Three jobs, rows out of id order, on one two-hop path, and a
        result over them both as a view and as its records dict."""
        jobs = [
            Job(id=j, release=r, size=1.0) for j, r in ((12, 0.0), (11, 0.5), (10, 1.0))
        ]
        view = RecordView(
            jobs=jobs,
            job_id=np.array([12, 11, 10], dtype=np.int64),
            release=np.array([0.0, 0.5, 1.0]),
            paths=[(1, 2)],
            path_id=np.zeros(3, dtype=np.int32),
            available_at=np.array([[0.0, 1.0], [0.5, 2.0], [1.0, 3.0]]),
            available_cnt=np.array([2, 2, 2], dtype=np.int32),
            completed_at=np.array([[1.0, 2.0], [2.0, 3.5], [3.0, 4.0]]),
            completed_cnt=np.array(completed_cnt, dtype=np.int32),
            deficit=np.zeros(3),
        )
        instance = Instance(spine_tree(1), JobSet(jobs), Setting.IDENTICAL)

        def result(records):
            return SimulationResult(
                instance=instance,
                speeds=SpeedProfile.uniform(1.0),
                records=records,
                fractional_flow=0.0,
                alive_integral=0.0,
                num_events=0,
            )

        return result(view), result(dict(view))

    def test_unfinished_rows_raise_like_the_record_path(self):
        # Jobs 12 and 10 finished only their first hop: errors name the
        # first of them in record order, or in id order for flow_times.
        columnar, by_records = self._hand_made([1, 2, 1])
        expected = _errors(by_records)
        assert expected == {
            "verify_complete": "jobs did not complete: [12, 10]",
            "flow_times": "job 10 did not complete",
            "completions": "job 12 did not complete",
            "flow_time_per_job": "job 12 did not complete",
        }
        assert _errors(columnar) == expected
        assert columnar.unfinished_job_ids() == (10, 12)
        assert columnar.makespan() == by_records.makespan() == 3.5
        assert columnar.records == by_records.records

    def test_rows_out_of_id_order(self):
        columnar, by_records = self._hand_made([2, 2, 2])
        flows = columnar.flow_times()
        assert flows.tolist() == [3.0, 3.0, 2.0]  # jobs 10, 11, 12
        assert flows.tobytes() == by_records.flow_times().tobytes()
        assert list(columnar.completions()) == [12, 11, 10]
        assert columnar.completions() == by_records.completions()
        assert columnar.assignment() == by_records.assignment() == {12: 2, 11: 2, 10: 2}


class TestPackedPythonColumns:
    def _check(self, res):
        recs = res.records
        assert isinstance(recs, dict)
        _same_rows(_col_rows(res.columns), _old_columns(recs))
        unfinished = [j for j, r in recs.items() if not r.finished and not r.cancelled]
        assert res.unfinished_job_ids() == tuple(sorted(unfinished))
        assert res.assignment() == {j: r.leaf for j, r in recs.items()}
        assert res.makespan() == max(
            (r.completion for r in recs.values() if r.finished), default=0.0
        )
        if unfinished:
            assert _errors(res)["flow_times"] == f"job {min(unfinished)} did not complete"
        else:
            assert res.flow_times().tobytes() == _old_flow_times(recs).tobytes()
            assert res.completions() == {
                j: r.completion for j, r in recs.items() if not r.cancelled
            }

    def test_cancel_bearing_run(self):
        tree = tree_from_parent_map({0: None, 1: 0, 2: 1})
        jobs = JobSet.build(releases=[0.0, 1.0, 2.0, 4.0], sizes=[3.0, 5.0, 4.0, 5.0])
        res = api.simulate(
            instance=Instance(tree, jobs, Setting.IDENTICAL),
            events=EventSchedule([Cancel(6.0, 1)]),
        )
        assert res.columns.cancelled.tolist() == [False, True, False, False]
        self._check(res)
        with pytest.raises(SimulationError, match="job 1 did not complete"):
            metrics.flow_time_per_job(res)

    def test_until_run(self):
        inst = identical_instance(datacenter_tree(2, 2, 2), 80, load=0.9, seed=3)
        res = backends.simulate(inst, GreedyIdenticalAssignment(0.25), until=15.0)
        assert res.unfinished_job_ids()
        self._check(res)
        with pytest.raises(SimulationError, match="jobs did not complete"):
            res.verify_complete()

    def test_columns_are_packed_once(self):
        res = run([Job(id=i, release=float(i), size=1.0) for i in range(4)])
        assert res.columns is res.columns
