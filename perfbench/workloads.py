"""The benchmark's four workloads.

Every workload runs on ``datacenter(3, 3, 4)`` (48 non-root nodes) at
offered load 0.85 with ``eps = 0.25``, and requests the compiled C
backend.  Each one provides:

* ``imports()``: the modules it needs (timed as part of ``setup_s``);
* ``generate(seed)``: its inputs from the seed (timed, repeated);
* ``op()``: one repetition of the measured work, returning a :class:`Rep`;
* ``verify(reps)``: the correctness check, run after the timed section.

README.md in this directory says why each workload was chosen.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import os
import re
from dataclasses import dataclass, field
from itertools import chain
from time import perf_counter

import numpy as np

TREE = {"num_pods": 3, "racks_per_pod": 3, "machines_per_rack": 4}
LOAD = 0.85
EPS = 0.25


@dataclass
class Rep:
    """One repetition's measurements (times in seconds)."""

    wall: float
    events: int
    flow_mean: float
    steps: list[float]
    reads: list[float]
    attempted: int = 1
    failed: int = 0
    late: list[float] = field(default_factory=list)
    memo: dict | None = None
    fingerprint: str | None = None
    problems: list[str] = field(default_factory=list)
    layers: dict | None = None
    #: Host seconds to seconds at the reference speed (``refspeed``);
    #: set by the workload or, if it leaves None, around the repetition.
    scale: float | None = None


class Workload:
    """Shared plumbing: the optional layer recorder of a traced run."""

    name = ""
    recorder = None
    #: The run's ``refspeed.Speedometer``.
    speedometer = None

    def _mark(self):
        rec = self.recorder
        return None if rec is None else (dict(rec.self_s), dict(rec.calls))

    @staticmethod
    def _delta(start, end) -> dict | None:
        if start is None:
            return None
        names = set(end[0]) | set(end[1])
        return {
            n: (end[0].get(n, 0.0) - start[0].get(n, 0.0),
                end[1].get(n, 0) - start[1].get(n, 0))
            for n in names
        }


def _tree():
    from repro import api

    return api.build_tree("datacenter", **TREE)


# ---------------------------------------------------------------------------
# batch workloads
# ---------------------------------------------------------------------------
def _fingerprint(result) -> str:
    """SHA-256 over the exact IEEE bytes of every job's leaf, hop
    completions and cancel instant, in job-id order: equal fingerprints
    mean bitwise-equal schedules."""
    recs = result.records
    rows = [recs[j] for j in sorted(recs)]
    h = hashlib.sha256()
    h.update(np.array([r.job_id for r in rows], dtype=np.int64).tobytes())
    h.update(np.array([r.leaf for r in rows], dtype=np.int64).tobytes())
    h.update(np.array([len(r.completed_at) for r in rows], dtype=np.int64).tobytes())
    h.update(np.fromiter(chain.from_iterable(r.completed_at for r in rows),
                         dtype=np.float64).tobytes())
    h.update(np.array([math.nan if r.cancelled_at is None else r.cancelled_at
                       for r in rows], dtype=np.float64).tobytes())
    return h.hexdigest()


def outage_deck(instance, tree, seed: int):
    """40 seeded outages, one per equal slice of the release span (so a
    node's outages never overlap), each 2-20% of its slice long, plus a
    cancel 1.5 time units after the release of every 10th job."""
    from repro.workload.events import Cancel, EventSchedule, NodeDown, NodeUp

    rng = np.random.default_rng([seed, 40])
    horizon = max(job.release for job in instance.jobs)
    nodes = [v for v in tree.node_ids if v != tree.root]
    slot = horizon / 40
    plans = []
    for k in range(40):
        node = int(nodes[rng.integers(len(nodes))])
        start = k * slot + rng.uniform(0.0, 0.5) * slot
        plans += [NodeDown(start, node),
                  NodeUp(start + rng.uniform(0.02, 0.2) * slot, node)]
    plans += [Cancel(job.release + 1.5, job.id)
              for job in instance.jobs if job.id % 10 == 0]
    deck = EventSchedule(plans)
    deck.validate_for(instance)
    return deck


class Batch(Workload):
    """Closed loop, one caller: ``api.simulate(backend="c")`` on one
    generated instance, then the flow-time summary (mean, total, max)."""

    def __init__(self, name: str, *, n_jobs: int, unrelated: bool,
                 speed: float, events: bool) -> None:
        self.name = name
        self.n_jobs = n_jobs
        self.unrelated = unrelated
        self.speed = speed
        self.events = events

    def imports(self) -> None:
        from repro import api  # noqa: F401
        from repro.sim import metrics  # noqa: F401

    def generate(self, seed: int) -> None:
        from repro import api

        tree = _tree()
        self.instance = api.make_instance(
            tree=tree, n_jobs=self.n_jobs, load=LOAD, unrelated=self.unrelated,
            seed=seed, name=self.name,
        )
        self.deck = outage_deck(self.instance, tree, seed) if self.events else None

    def _simulate(self, backend: str):
        from repro import api

        return api.simulate(instance=self.instance, policy="greedy", eps=EPS,
                            speed=self.speed, backend=backend, events=self.deck)

    def op(self) -> Rep:
        from repro.sim import metrics

        mark = self._mark()
        t0 = perf_counter()
        result = self._simulate("c")
        t1 = perf_counter()
        # The read path: the flow summary `repro run` prints.
        flow_mean = float(metrics.flow_time_array(result).mean())
        result.total_flow_time()
        result.max_flow_time()
        t2 = perf_counter()
        layers = self._delta(mark, self._mark())
        return Rep(wall=t2 - t0, events=result.num_events, flow_mean=flow_mean,
                   steps=[t1 - t0], reads=[t2 - t1],
                   fingerprint=_fingerprint(result), layers=layers)

    def verify(self, reps: list[Rep]) -> list[str]:
        """Every repetition's schedule equals the python reference
        engine's on the same inputs, bit for bit."""
        reference = _fingerprint(self._simulate("python"))
        for rep in reps:
            rep.failed = int(rep.fingerprint != reference)
        bad = sum(rep.failed for rep in reps)
        return [f"{bad} of {len(reps)} runs differ from the python reference"] if bad else []


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
#: SHA-256 of the registry's deterministic output (see ``registry_digest``).
REGISTRY_DIGEST = "06c76fd4cea00586f56ffa839e61d9517fc361f6f1b1ccb7880294075c04439e"

#: S1 reports host throughput; these columns and metric vary run to run.
_S1_WALL_COLUMNS = {"wall_s", "events_per_s", "jobs_per_s"}
_S1_WALL_METRICS = {"events_per_sec_at_largest"}


def registry_digest(outcomes) -> str:
    """Digest of every experiment's verdict, table and metrics, minus
    S1's wall-clock columns and metric."""
    doc = []
    for out in outcomes:
        res = out.result
        cols = res.table.columns
        keep = [i for i, c in enumerate(cols)
                if not (res.exp_id == "S1" and c in _S1_WALL_COLUMNS)]
        metrics = {k: repr(v) for k, v in sorted(res.metrics.items())
                   if not (res.exp_id == "S1" and k in _S1_WALL_METRICS)}
        doc.append([res.exp_id, bool(res.passed), res.table.title,
                    [cols[i] for i in keep],
                    [[row[i] for i in keep] for row in res.table.rows],
                    metrics])
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


class Registry(Workload):
    """The validation registry, serial and uncached, each experiment's
    report rendered as it finishes."""

    name = "registry"

    def imports(self) -> None:
        from repro import api  # noqa: F401
        from repro.analysis import ratios  # noqa: F401
        from repro.analysis.experiments import all_experiment_ids

        self.exp_ids = all_experiment_ids()

    def generate(self, seed: int) -> None:
        """No inputs: trial seeds come from the grid digests.  Routes the
        registry's backend selection to C through the environment."""
        from repro.sim.result import SimulationResult

        os.environ["REPRO_BACKEND"] = "c"
        if getattr(self, "_tally", None) is None:
            # Every engine builds a SimulationResult; this O(1) tally is
            # how the registry's events and flow are counted.
            self._tally = [0, 0.0, 0]
            original = SimulationResult.__init__
            tally = self._tally

            def counted(result, *args, **kwargs):
                original(result, *args, **kwargs)
                tally[0] += result.num_events
                tally[1] += result.alive_integral
                tally[2] += len(result.records)

            SimulationResult.__init__ = counted

    def op(self) -> Rep:
        """One pass: ``run_experiments`` called per experiment, in
        registry order, which is the serial uncached runner's own loop
        (the LP memo is shared across the pass, as in one call).  Each
        report is rendered as its experiment finishes, so the read path,
        the whole report, is sampled across the pass rather than at one
        instant after it.  The host's speed is sampled after each
        experiment, outside the timing, and each experiment's time is
        scaled by the speed around it (see ``refspeed``)."""
        from repro import api
        from repro.analysis import ratios

        ratios.clear_lower_bound_memo()
        self._tally[:] = [0, 0.0, 0]
        mark = self._mark()
        speed = self.speedometer
        # measure() samples the speed just before each repetition.
        before = speed.samples[-1]
        outcomes = []
        steps = []
        wall = scaled_wall = render_s = 0.0
        for exp_id in self.exp_ids:
            t0 = perf_counter()
            outcomes += api.run_experiments(exp_ids=[exp_id], use_cache=False,
                                            parallel=1, shard_trials=False)
            t1 = perf_counter()
            outcomes[-1].result.render()
            t2 = perf_counter()
            after = speed.sample()
            scale = speed.scale(before, after)
            before = after
            wall += t2 - t0
            scaled_wall += (t2 - t0) * scale
            steps.append(outcomes[-1].wall_seconds * scale)
            render_s += (t2 - t1) * scale
        layers = self._delta(mark, self._mark())
        events, alive, jobs = self._tally
        # The pass's scale is its wall-weighted mean; steps and reads are
        # stored at that scale, so rep.scale restores each one's own.
        scale = scaled_wall / wall
        return Rep(wall=wall, events=events, flow_mean=alive / jobs,
                   steps=[s / scale for s in steps], reads=[render_s / scale],
                   attempted=len(outcomes),
                   failed=sum(not o.result.passed for o in outcomes),
                   memo=ratios.lower_bound_memo_stats(),
                   fingerprint=registry_digest(outcomes), layers=layers,
                   scale=scale)

    def verify(self, reps: list[Rep]) -> list[str]:
        problems = []
        for i, rep in enumerate(reps):
            if rep.attempted != 22 or rep.failed:
                problems.append(f"pass {i}: {rep.failed} of {rep.attempted} "
                                "experiments FAIL (expected 22 PASS)")
            if rep.fingerprint != REGISTRY_DIGEST:
                problems.append(f"pass {i}: registry digest {rep.fingerprint} "
                                f"!= {REGISTRY_DIGEST}")
        return problems


# ---------------------------------------------------------------------------
# streaming service
# ---------------------------------------------------------------------------
_SAMPLE = re.compile(r"^[A-Za-z_:][A-Za-z0-9_:]*(\{[^}]*\})? (\S+)$")
_REQUIRED = ("repro_stream_arrivals_total", "repro_stream_completions_total",
             "repro_node_utilization")


def parse_metrics(body: str) -> bool:
    """Whether ``body`` is well-formed Prometheus text with the
    session's families and numeric sample values."""
    for line in body.splitlines():
        if not line or line.startswith("# "):
            continue
        m = _SAMPLE.match(line)
        if m is None:
            return False
        try:
            float(m.group(2))
        except ValueError:
            return False
    return all(name in body for name in _REQUIRED)


class StreamScrape(Workload):
    """``open_system`` served by ``MetricsServer``, stepped one window
    per event-loop turn, with an open-loop ``/metrics`` scraper."""

    name = "stream-scrape"
    n_jobs = 60_000
    window = 50.0
    scrape_hz = 10.0

    def imports(self) -> None:
        from repro import api  # noqa: F401
        from repro.service import http  # noqa: F401
        from repro.workload import arrivals  # noqa: F401

    def generate(self, seed: int) -> None:
        from repro.workload.arrivals import job_stream, poisson_process, uniform_size_stream
        from repro.workload.instance import Instance

        self.tree = _tree()
        rate = Instance.poisson_rate_for_load(self.tree, 2.5, LOAD)
        self.jobs = list(job_stream(poisson_process(rate, rng=seed + 1),
                                    uniform_size_stream(1.0, 4.0, rng=seed),
                                    limit=self.n_jobs))

    def op(self) -> Rep:
        return asyncio.run(self._serve())

    async def _serve(self) -> Rep:
        from repro import api
        from repro.service import http
        from repro.service.metrics import validate_snapshot

        mark = self._mark()
        session = api.open_system(arrivals=iter(self.jobs), tree=self.tree,
                                  policy="greedy", eps=EPS, backend="c",
                                  window=self.window)
        server = http.MetricsServer(session)
        await server.start()
        host, port = server.host, server.port
        scrapes: list[tuple[float, float, bool]] = []
        done = asyncio.Event()

        async def scrape(due: float) -> None:
            late = perf_counter() - due
            try:
                status, body = await http.fetch(host, port, "/metrics")
            except (OSError, ValueError, IndexError):
                status, body = 0, ""
            scrapes.append((perf_counter() - due, late,
                            status == 200 and parse_metrics(body)))

        async def loadgen(t0: float) -> None:
            # Open loop: scrape k is due at t0 + k/hz whether or not
            # earlier scrapes have finished.
            tasks = []
            k = 0
            while not done.is_set():
                due = t0 + k / self.scrape_hz
                k += 1
                try:
                    await asyncio.wait_for(done.wait(), max(0.0, due - perf_counter()))
                    break
                except asyncio.TimeoutError:
                    tasks.append(asyncio.create_task(scrape(due)))
            await asyncio.gather(*tasks)

        t0 = perf_counter()
        gen = asyncio.create_task(loadgen(t0))
        steps = []
        while not session.idle():
            t = perf_counter()
            session.step()
            steps.append(perf_counter() - t)
            await asyncio.sleep(0)
        done.set()
        await gen
        wall = perf_counter() - t0
        layers = self._delta(mark, self._mark())

        status, body = await http.fetch(host, port, "/snapshot")
        schema = (validate_snapshot(json.loads(body)) if status == 200
                  else [f"/snapshot returned {status}"])
        await server.stop()
        snap = session.snapshot()
        events = session.close().num_events
        problems = [f"snapshot: {p}" for p in schema]
        if not (snap.arrivals_total == self.n_jobs
                == snap.completions_total + snap.cancelled_total
                and snap.jobs_in_flight == 0):
            problems.append(f"arrivals {snap.arrivals_total} != completions "
                            f"{snap.completions_total} + cancelled "
                            f"{snap.cancelled_total}")
        bad_scrapes = sum(not ok for _, _, ok in scrapes)
        if bad_scrapes:
            problems.append(f"{bad_scrapes} scrapes failed or did not parse")
        return Rep(wall=wall, events=events, flow_mean=snap.flow["mean"],
                   steps=steps, reads=[lat for lat, _, _ in scrapes],
                   late=[late for _, late, _ in scrapes],
                   attempted=len(scrapes) + 1,
                   failed=bad_scrapes + int(bool(schema)),
                   problems=problems, layers=layers)

    def verify(self, reps: list[Rep]) -> list[str]:
        return [f"stream {i}: {p}" for i, rep in enumerate(reps) for p in rep.problems]


WORKLOADS = {
    w.name: w
    for w in (
        Batch("batch-identical", n_jobs=200_000, unrelated=False, speed=1.5,
              events=False),
        Batch("batch-unrelated-events", n_jobs=20_000, unrelated=True,
              speed=2.5, events=True),
        Registry(),
        StreamScrape(),
    )
}


# ---------------------------------------------------------------------------
# layer hooks
# ---------------------------------------------------------------------------
#: Public entry points timed in a traced run: (owner, attribute, layer).
SPANS = (
    ("repro.sim.backends.c_backend:CEngine", "__init__", "c_backend.construct"),
    ("repro.sim.backends.c_build", "load_kernel", "c_build.load_kernel"),
    ("repro.sim.backends.numpy_backend:NumpyEngine", "__init__", "numpy_backend.construct"),
    ("repro.core.assignment:GreedyIdenticalAssignment", "assign", "core.assign"),
    ("repro.core.assignment:GreedyUnrelatedAssignment", "assign", "core.assign"),
    ("repro.sim.metrics", "flow_time_array", "metrics.reduce"),
    ("repro.sim.result:SimulationResult", "flow_times", "metrics.reduce"),
    ("repro.lp.primal", "build_primal_lp", "lp.build"),
    ("scipy.optimize", "linprog", "lp.solve"),
    ("repro.sim.engine:Engine", "stream_step", "engine.stream_step"),
    ("repro.service.session:StreamSession", "step", "session.step"),
    ("repro.obs.trace:TraceRecorder", "retire", "obs.retire"),
    ("repro.service.http", "render_metrics", "service.render"),
    ("repro.service.session:StreamSession", "snapshot", "service.snapshot"),
)

#: The engines a simulation can end up on; timed in a traced run, only
#: counted in an untraced one.
DISPATCH = (
    ("repro.sim.backends.c_backend:CEngine", "run", "c_backend.run"),
    ("repro.sim.backends.numpy_backend:NumpyEngine", "run", "numpy_backend.run"),
    ("repro.sim.engine:Engine", "run", "engine.run"),
)


def install_layers(recorder) -> None:
    """Wrap the dispatch targets, and in a traced run every layer."""
    from repro.sim import backends
    from repro.sim.backends import c_build

    def count_c_events(result) -> None:
        recorder.calls["c_backend.events"] += result.num_events

    for target, attr, layer in DISPATCH:
        recorder.patch(target, attr, layer,
                       count_c_events if layer == "c_backend.run" else None)
    # Streams start the python engine without calling run().
    recorder.patch("repro.sim.engine:Engine", "stream_start", "engine.stream_start",
                   timed=False)
    # A request for C: the backend keyword, else the environment.
    original = backends.simulate

    def simulate(*args, **kwargs):
        if (kwargs.get("backend") or os.environ.get("REPRO_BACKEND")) == "c":
            recorder.calls["backends.c_requests"] += 1
        return original(*args, **kwargs)

    recorder.replace(backends, "simulate", simulate)
    if not recorder.timing:
        return
    recorder.patch_object(c_build.load_kernel(), "repro_run", "c_backend.kernel")
    for target, attr, layer in SPANS:
        recorder.patch(target, attr, layer)
