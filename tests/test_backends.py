"""The backend registry: selection, dispatch, fallback, and
cross-backend parity on a realistic workload.

The bit-level schedule equivalence of the C kernel is enforced
case-by-case by the differential fuzzer (``repro fuzz --backends``) and
by the engine suites, which run on both backends; this module covers the
*dispatch* layer (``repro.sim.backends.simulate`` / ``repro.api``),
seeded end-to-end parity checks on the S1 benchmark workload and on a
release burst, and exact parity of the kernel's dynamic events
(outages, repairs, cancels) and unrelated-endpoint greedy.
"""

from __future__ import annotations

import subprocess

import numpy as np
import pytest

from repro import api
from repro.analysis.experiments.workloads import identical_instance, unrelated_instance
from repro.baselines.policies import (
    ClosestLeafAssignment,
    LeastLoadedAssignment,
    RandomAssignment,
    RoundRobinAssignment,
)
from repro.core.assignment import (
    FixedAssignment,
    GreedyIdenticalAssignment,
    GreedyUnrelatedAssignment,
)
from repro.exceptions import SimulationError
from repro.network.builders import datacenter_tree
from repro.sim import backends
from repro.sim.backends import c_build
from repro.sim.backends.c_backend import CEngine
from repro.sim.engine import fifo_priority, sjf_priority
from repro.sim.result import RecordView
from repro.sim.speed import SpeedProfile
from repro.testing import run_fuzz
from repro.workload.events import Cancel, EventSchedule, NodeDown, NodeUp
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
    # A C result's records are a view built on first access; it must
    # equal the python engine's dict both ways, in the same order.
    assert isinstance(b.records, RecordView)
    assert len(b.records) == len(a.records)
    assert b.records == a.records
    assert a.records == b.records
    assert list(b.records) == list(a.records)
    for jid, ra in a.records.items():
        rb = b.records[jid]
        assert rb.leaf == ra.leaf
        assert rb.path == ra.path
        assert rb.completed_at == ra.completed_at
        assert rb.available_at == ra.available_at
    assert a.total_flow_time() == b.total_flow_time()


def _assert_c_parity(inst, policy, *, events=None, priority=sjf_priority,
                     speed=1.0):
    """Run both engines on the same inputs (a fresh policy object each):
    the kernel must serve the call and match the python engine exactly —
    records (leaves, hop times, cancel instants), event count — with the
    run integrals equal to 1e-9 relative."""
    a, b = (
        backends.simulate(
            inst, policy(), backend=name, events=events, priority=priority,
            speeds=SpeedProfile.uniform(speed),
        )
        for name in ("python", "c")
    )
    assert (b.backend, b.fallback_reason) == ("c", None)
    _assert_same_schedule(a, b)
    assert {j: r.cancelled_at for j, r in b.records.items()} == {
        j: r.cancelled_at for j, r in a.records.items()
    }
    assert b.assignment() == a.assignment()
    assert b.num_events == a.num_events
    assert b.alive_integral == pytest.approx(a.alive_integral, rel=1e-9)
    assert b.fractional_flow == pytest.approx(a.fractional_flow, rel=1e-9)
    return a, b


def _greedy_unrelated():
    return GreedyUnrelatedAssignment(0.25)


def _greedy_identical():
    return GreedyIdenticalAssignment(0.25)


def _horizon(inst):
    return max(j.release for j in inst.jobs)


def _deck(inst, seed, *, outages=12, cancel_every=7):
    """Seeded outages on random non-root nodes (one per time slice, so
    a node's outages never overlap) plus a cancel shortly after every
    ``cancel_every``-th release."""
    tree = inst.tree
    rng = np.random.default_rng(seed)
    nodes = [v for v in tree.node_ids if v != tree.root]
    slot = _horizon(inst) / outages
    plan = []
    for k in range(outages):
        node = int(nodes[rng.integers(len(nodes))])
        start = k * slot + rng.uniform(0.0, 0.5) * slot
        plan += [NodeDown(start, node), NodeUp(start + rng.uniform(0.1, 0.4) * slot, node)]
    plan += [Cancel(j.release + 0.7, j.id) for j in inst.jobs if j.id % cancel_every == 0]
    return EventSchedule(plan)


def _unrelated(n=160, seed=5):
    return unrelated_instance(datacenter_tree(3, 3, 4), n, seed=seed)


class TestEventAndUnrelatedParity:
    """Dynamic events and the unrelated-endpoint greedy run natively on
    the kernel, bit for bit equal to the python engine."""

    @needs_c
    @pytest.mark.parametrize("priority", [sjf_priority, fifo_priority],
                             ids=["sjf", "fifo"])
    def test_unrelated_greedy_without_events(self, priority):
        _assert_c_parity(_unrelated(300), _greedy_unrelated, priority=priority,
                         speed=1.5)

    @needs_c
    def test_outage_blocking_one_branch(self):
        inst = _unrelated()
        h = _horizon(inst)
        pod = inst.tree.root_children[0]
        blocked = set(inst.tree.leaves_under(pod))
        events = EventSchedule([NodeDown(0.2 * h, pod), NodeUp(0.6 * h, pod)])
        a, _ = _assert_c_parity(inst, _greedy_unrelated, events=events)
        inside = [j.id for j in inst.jobs if 0.2 * h < j.release < 0.6 * h]
        assert inside
        assert not {a.records[j].leaf for j in inside} & blocked

    @needs_c
    @pytest.mark.parametrize(
        "make_inst, policy",
        [
            (_unrelated, _greedy_unrelated),
            (lambda: _s1_instance(), _greedy_identical),
            (lambda: _s1_instance(), LeastLoadedAssignment),
        ],
        ids=["greedy-unrelated", "greedy-identical", "least-loaded"],
    )
    def test_outage_blocking_every_leaf(self, make_inst, policy):
        # Every root child down: every leaf is blocked, so the policies
        # rescore ignoring the down set and the jobs stall en route.
        inst = make_inst()
        h = _horizon(inst)
        events = EventSchedule(
            [ev for pod in inst.tree.root_children
             for ev in (NodeDown(0.3 * h, pod), NodeUp(0.45 * h, pod))]
        )
        assert any(0.3 * h < j.release < 0.45 * h for j in inst.jobs)
        _assert_c_parity(inst, policy, events=events)

    @needs_c
    @pytest.mark.parametrize("hop", [0, -1], ids=["first-hop", "leaf"])
    def test_node_down_at_a_hop_completion(self, hop):
        # Completions come first at equal instants: the job finishing
        # exactly when its node fails has finished.
        inst = _unrelated()
        ref = backends.simulate(inst, _greedy_unrelated(), backend="python")
        rec = ref.records[inst.jobs[40].id]
        t, node = rec.completed_at[hop], rec.path[hop]
        events = EventSchedule([NodeDown(t, node), NodeUp(t + 2.0, node)])
        a, _ = _assert_c_parity(inst, _greedy_unrelated, events=events)
        assert a.records[rec.job_id].completed_at[hop] == t

    @needs_c
    def test_node_down_at_an_arrival(self):
        # Dynamic events come before arrivals at equal instants: the
        # arriving job already sees its would-be branch down.
        inst = _unrelated()
        job = inst.jobs[60]
        ref = backends.simulate(inst, _greedy_unrelated(), backend="python")
        entry = ref.records[job.id].path[0]
        events = EventSchedule(
            [NodeDown(job.release, entry), NodeUp(job.release + 1.5, entry)]
        )
        a, _ = _assert_c_parity(inst, _greedy_unrelated, events=events)
        assert a.records[job.id].path[0] != entry

    @needs_c
    def test_node_down_drains_a_job_finished_by_rounding(self):
        # 0.1 + 0.2 / 1.0 rounds past 0.3, so no completion fires at
        # 0.3, yet the settle at the down instant leaves 2.8e-17 of
        # work: the job has finished and must leave the node at 0.3,
        # not at the repair.
        tree = datacenter_tree(1, 1, 1)
        leaf = tree.leaves[0]
        jobs = JobSet([Job(id=0, release=0.1, size=0.2)])
        inst = Instance(tree, jobs, Setting.IDENTICAL)
        node = tree.processing_path(leaf)[0]
        events = EventSchedule([NodeDown(0.3, node), NodeUp(1.0, node)])
        a, _ = _assert_c_parity(
            inst, lambda: FixedAssignment({0: leaf}), events=events
        )
        assert a.records[0].completed_at[0] == 0.3

    @needs_c
    @pytest.mark.parametrize(
        "policy",
        [lambda: FixedAssignment({i: 3 for i in range(20)}), _greedy_identical],
        ids=["fixed", "greedy-identical"],
    )
    def test_cancel_queued_then_same_node_arrivals(self, policy):
        # A burst queues a dozen jobs at one node; cancelling one from
        # the middle of the heap replays heap[pos] = heap[-1]; pop;
        # heapify, and the arrivals that follow push onto (and greedy
        # scores sum over) the re-heapified array.
        jobs = JobSet(
            [Job(id=i, release=0.0, size=1.0 + (i * 7 % 12) / 3) for i in range(12)]
            + [Job(id=12 + i, release=0.6 + 0.1 * i, size=0.5 + i / 4)
               for i in range(8)]
        )
        inst = Instance(datacenter_tree(2, 2, 2), jobs, Setting.IDENTICAL)
        events = EventSchedule([Cancel(0.5, 5), Cancel(0.55, 9), Cancel(0.9, 2)])
        a, _ = _assert_c_parity(inst, policy, events=events)
        assert set(a.cancelled_records()) == {2, 5, 9}

    @needs_c
    def test_cancel_in_service_upstream_finished_and_unknown(self):
        tree = datacenter_tree(1, 2, 2)
        leaves = tree.leaves
        spec = [  # (id, release, size, leaf size)
            (0, 0.0, 1.0, 10.0),   # in service at its leaf at t=5
            (1, 20.0, 4.0, 2.0),   # in service upstream at t=21
            (2, 30.0, 2.0, 2.0),
            (3, 30.0, 3.0, 2.0),   # queued upstream behind job 2
            (4, 40.0, 1.0, 1.0),   # finished long before its cancel
            (5, 5.5, 1.0, 3.0),    # arrivals that score the leaves
            (6, 21.5, 2.0, 1.5),   # after each cancel
            (7, 30.6, 1.0, 2.5),
            (8, 60.0, 1.0, 1.0),   # cancelled at its release: a no-op
        ]
        jobs = JobSet(
            Job(id=i, release=r, size=p,
                leaf_sizes={v: q * (1 + k / 4) for k, v in enumerate(leaves)})
            for i, r, p, q in spec
        )
        inst = Instance(tree, jobs, Setting.UNRELATED)
        events = EventSchedule([
            Cancel(5.0, 0), Cancel(21.0, 1), Cancel(30.5, 3), Cancel(50.0, 4),
            Cancel(25.0, 999), Cancel(60.0, 8),
        ])
        a, _ = _assert_c_parity(inst, _greedy_unrelated, events=events)
        assert set(a.cancelled_records()) == {0, 1, 3}
        assert len(a.records[0].completed_at) == 2  # cancelled on the leaf
        assert len(a.records[1].completed_at) == 0  # ... on its first hop

    @needs_c
    @pytest.mark.parametrize(
        "policy, priority",
        [
            (_greedy_identical, sjf_priority),
            (LeastLoadedAssignment, sjf_priority),
            (LeastLoadedAssignment, fifo_priority),
            (ClosestLeafAssignment, sjf_priority),
            (RoundRobinAssignment, fifo_priority),
            (lambda: RandomAssignment(7), sjf_priority),
        ],
        ids=["greedy-identical", "least-loaded", "least-loaded-fifo",
             "closest", "round-robin-fifo", "random"],
    )
    def test_identical_kinds_with_outages_and_cancels(self, policy, priority):
        inst = _s1_instance(300)
        _assert_c_parity(inst, policy, events=_deck(inst, 3), priority=priority,
                         speed=1.5)

    @needs_c
    @pytest.mark.parametrize("seed", [1, 2])
    def test_unrelated_greedy_with_outages_and_cancels(self, seed):
        inst = _unrelated(400, seed=seed)
        _assert_c_parity(inst, _greedy_unrelated, events=_deck(inst, seed),
                         speed=2.5)

    @needs_c
    @pytest.mark.parametrize("depth", [0, 1, 2], ids=["pod", "rack", "leaf"])
    def test_burst_past_initial_capacity_while_down(self, depth):
        # 150 releases onto one path while a node on it is down: they
        # pile into its heap (pushes only) or, below it, wait upstream,
        # far past the kernel's initial per-node capacity.
        tree = datacenter_tree(2, 2, 2)
        leaf = tree.leaves[0]
        node = tree.processing_path(leaf)[depth]
        jobs = JobSet(
            Job(id=i, release=1.0 if i < 150 else 1.0 + 0.01 * i,
                size=1.0 + (i * 7919 % 13) / 4)
            for i in range(200)
        )
        inst = Instance(tree, jobs, Setting.IDENTICAL)
        events = EventSchedule(
            [NodeDown(0.5, node), NodeUp(40.0, node), Cancel(2.0, 77)]
        )
        _assert_c_parity(
            inst, lambda: FixedAssignment({j.id: leaf for j in jobs}),
            events=events,
        )
        _assert_c_parity(inst, _greedy_identical, events=events)

    @needs_c
    def test_fuzz_compares_event_cases_on_c(self):
        summary = run_fuzz(seed=0, max_cases=30, events=True, backends=True,
                           corpus_dir=None, shrink=False)
        assert summary.ok
        doc = summary.to_doc()
        assert doc["c_compared"] > 0
        assert not any("dynamic events" in r for r in doc["c_declined"])


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
    def test_closest_leaf_unrelated_sizes(self):
        # A kind-0 plan (closest-leaf replayed statically) on per-leaf
        # sizes: the unrelated-setting leaf heaps order by p_leaf.
        inst = unrelated_instance(datacenter_tree(3, 3, 4), 200, seed=5)
        assert any(j.leaf_sizes for j in inst.jobs)
        a = backends.simulate(inst, ClosestLeafAssignment(), backend="python")
        b = backends.simulate(inst, ClosestLeafAssignment(), backend="c")
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
    def test_compiler_version_probed_once(self, monkeypatch, tmp_path):
        probes = []
        real_run = subprocess.run

        def counting_run(cmd, *args, **kwargs):
            if "--version" in cmd:
                probes.append(cmd[0])
            return real_run(cmd, *args, **kwargs)

        monkeypatch.setattr(c_build.subprocess, "run", counting_run)
        c_build._reset_probe()
        try:
            c_build.load_kernel()
            c_build.load_kernel()
            assert len(probes) == 1
            # Another compiler command (a wrapper around the same one,
            # so the same version line and cache slot) is probed afresh.
            wrapper = tmp_path / "wrapped-cc"
            wrapper.write_text(f'#!/bin/sh\nexec {c_build.find_compiler()} "$@"\n')
            wrapper.chmod(0o755)
            monkeypatch.setenv("REPRO_CC", str(wrapper))
            c_build.load_kernel()
            assert probes == [probes[0], str(wrapper)]
            c_build.load_kernel()
            assert len(probes) == 2
        finally:
            c_build._reset_probe()

    @needs_c
    def test_source_read_once(self, monkeypatch):
        # The shipped source's digest is memoised on its stat identity,
        # so repeated loads neither re-read nor re-hash it.
        reads = []
        real_read = c_build.Path.read_text

        def counting_read(path, *args, **kwargs):
            if path == c_build.source_path():
                reads.append(path)
            return real_read(path, *args, **kwargs)

        monkeypatch.setattr(c_build.Path, "read_text", counting_read)
        c_build._reset_probe()
        try:
            c_build.load_kernel()
            c_build.load_kernel()
            assert len(reads) == 1
        finally:
            c_build._reset_probe()

    @needs_c
    def test_stale_abi_library_is_never_used(self, monkeypatch, tmp_path):
        # A library reporting the previous ABI sits in the exact cache
        # slot of the current source: it must be refused, never run.
        cc = c_build.find_compiler()
        key = c_build._cache_key(
            c_build.source_path().read_text(),
            c_build.compiler_version(cc),
            c_build.base_cflags(),
        )
        marker = tmp_path / "stale-kernel-ran"
        stale_src = tmp_path / "stale.c"
        stale_src.write_text(
            "#include <stdio.h>\n"
            f"int repro_abi_version(void) {{ return {c_build.ABI_VERSION - 1}; }}\n"
            "int repro_run(const void *a) {\n"
            f'    FILE *f = fopen("{marker}", "w");\n'
            "    if (f) fclose(f);\n"
            "    return 0;\n"
            "}\n"
        )
        cache = tmp_path / "cache"
        cache.mkdir()
        slot = cache / f"engine_kernel-{key}.so"
        subprocess.run(
            [cc, *c_build.base_cflags(), "-o", str(slot), str(stale_src)],
            check=True,
        )
        monkeypatch.setenv("REPRO_CKERNEL_CACHE", str(cache))
        c_build._reset_probe()
        try:
            assert c_build.build_library() == slot  # the slot it computes
            with pytest.raises(SimulationError, match="ABI mismatch") as exc:
                _run("c")
            assert f"reports {c_build.ABI_VERSION - 1}" in str(exc.value)
            monkeypatch.setenv(backends.ENV_VAR, "c")
            with pytest.warns(RuntimeWarning, match="ABI mismatch"):
                result = _run(None)
            assert result.backend == "python"
            assert "ABI mismatch" in result.fallback_reason
            assert len(result.records) == 160
            assert not marker.exists()
            assert slot not in c_build._LOADED
        finally:
            c_build._reset_probe()

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
