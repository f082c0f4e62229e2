"""Simulation outputs: per-job records, schedule segments, and the
:class:`SimulationResult` bundle consumed by metrics, analysis, and the
dual-fitting machinery.

Every flow reduction (flow times, completions, ``verify_complete``)
reads one column store, :class:`ResultColumns`.  The compiled kernel's
output becomes those columns with array operations, and its per-job
:class:`JobRecord` objects are built only when someone reads
``records`` (:class:`RecordView`); a python-engine result keeps the
records it built and packs the columns from them once.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import SimulationError
from repro.sim.counters import EngineCounters
from repro.sim.speed import SpeedProfile
from repro.workload.instance import Instance
from repro.workload.job import Job

__all__ = [
    "JobRecord",
    "RecordView",
    "ResultColumns",
    "ScheduleSegment",
    "SimulationResult",
]


@dataclass(slots=True)
class JobRecord:
    """Everything the simulator recorded about one job.

    Attributes
    ----------
    job_id:
        The job's id.
    release:
        Its arrival time ``r_j``.
    leaf:
        The leaf machine it was (immediately) dispatched to.
    path:
        The processing path — the nodes from ``R(leaf)`` down to ``leaf``.
    available_at:
        ``available_at[i]`` is the time the job became available to
        schedule on ``path[i]``; ``available_at[0] == release``.
    completed_at:
        ``completed_at[i]`` is the time the job finished processing on
        ``path[i]``.  The final entry is the completion time ``C_j``.
    cancelled_at:
        ``None`` unless the job was withdrawn mid-run by a
        :class:`~repro.workload.events.Cancel` event, in which case this
        is the cancellation instant — a *terminal* state distinct from
        completion (``finished`` stays false; the job is excluded from
        flow-time metrics).
    size_estimate:
        The declared size estimate the assignment policy saw (``None``
        for fully-known sizes) — recorded so traces and audits can
        reconstruct the policy's information set.
    """

    job_id: int
    release: float
    leaf: int
    path: tuple[int, ...]
    available_at: list[float] = field(default_factory=list)
    completed_at: list[float] = field(default_factory=list)
    cancelled_at: float | None = None
    size_estimate: float | None = None

    @property
    def completion(self) -> float:
        """``C_j`` — completion on the leaf."""
        if len(self.completed_at) != len(self.path):
            raise SimulationError(f"job {self.job_id} did not complete")
        return self.completed_at[-1]

    @property
    def flow_time(self) -> float:
        """``C_j − r_j``."""
        return self.completion - self.release

    @property
    def finished(self) -> bool:
        """Whether the job completed on its leaf."""
        return len(self.completed_at) == len(self.path)

    @property
    def cancelled(self) -> bool:
        """Whether the job ended in the cancelled terminal state."""
        return self.cancelled_at is not None

    def time_on_node(self, i: int) -> float:
        """Wall-clock the job spent associated with ``path[i]``
        (waiting plus processing)."""
        return self.completed_at[i] - self.available_at[i]


@dataclass(frozen=True, slots=True)
class ScheduleSegment:
    """A maximal interval during which ``node`` processed ``job_id``.

    Only recorded when the engine is run with ``record_segments=True``;
    the dual-fitting and LP-comparison machinery replays these.
    """

    node: int
    job_id: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(slots=True, eq=False)
class ResultColumns:
    """The per-job columns every flow reduction reads.

    One row per job, in the result's record order (the order
    ``records`` iterates).  Both engines end up here: the compiled
    kernel's output is reduced to these columns with array operations,
    and a python-engine result packs them from its records on first
    use.

    Attributes
    ----------
    job_id:
        Job ids (``int64``).
    release:
        Release times ``r_j``.
    leaf:
        The leaf each job was dispatched to (``int64``).
    finished:
        Whether the job completed on every node of its path.
    cancelled:
        Whether the job ended in the cancelled terminal state.
    completion:
        ``C_j`` (completion on the last node of the path) where
        ``finished``, else NaN.
    """

    job_id: np.ndarray
    release: np.ndarray
    leaf: np.ndarray
    finished: np.ndarray
    cancelled: np.ndarray
    completion: np.ndarray
    _id_order: np.ndarray | slice | None = field(
        default=None, init=False, repr=False
    )

    @classmethod
    def pack(cls, records: Mapping[int, JobRecord]) -> "ResultColumns":
        """Columns of ``records``, in their iteration order."""
        recs = list(records.values())
        n = len(recs)
        finished = np.fromiter(
            (len(r.completed_at) == len(r.path) for r in recs), bool, n
        )
        return cls(
            job_id=np.fromiter((r.job_id for r in recs), np.int64, n),
            release=np.fromiter((r.release for r in recs), np.float64, n),
            leaf=np.fromiter((r.leaf for r in recs), np.int64, n),
            finished=finished,
            cancelled=np.fromiter(
                (r.cancelled_at is not None for r in recs), bool, n
            ),
            completion=np.fromiter(
                (
                    r.completed_at[-1] if done and r.completed_at else math.nan
                    for r, done in zip(recs, finished.tolist())
                ),
                np.float64,
                n,
            ),
        )

    def by_id(self) -> np.ndarray | slice:
        """Row order that sorts the jobs by id (a plain slice when the
        rows already are)."""
        if self._id_order is None:
            ids = self.job_id
            if ids.size < 2 or bool(np.all(ids[1:] > ids[:-1])):
                self._id_order = slice(None)
            else:
                self._id_order = np.argsort(ids, kind="stable")
        return self._id_order

    def stuck(self) -> np.ndarray:
        """Mask of jobs in no terminal state: neither finished nor
        cancelled."""
        return ~(self.finished | self.cancelled)


class RecordView(Mapping):
    """``job id -> JobRecord`` over the compiled kernel's output rows.

    The kernel's buffers are wrapped, not copied: row ``i`` is job
    ``jobs[i]`` (id ``job_id[i]``, release ``release[i]``),
    ``path_id[i]`` indexes ``paths``, and row ``i`` of
    ``available_at``/``completed_at`` holds the job's first
    ``available_cnt[i]``/``completed_cnt[i]`` hop times, and
    ``cancelled_at[i]`` its cancel instant (NaN when it was not
    cancelled; no column at all means no cancels).  The
    :class:`ResultColumns` the reductions read are derived from the rows
    with array operations.  The :class:`JobRecord` objects are built on
    first access to a record (one per row, in row order) and cached;
    ``len()`` and the reductions never build them.  Equality compares
    the records, so a view equals the dict the python engine builds for
    the same schedule.
    """

    def __init__(
        self,
        *,
        jobs: Sequence[Job],
        job_id: np.ndarray,
        release: np.ndarray,
        paths: Sequence[tuple[int, ...]],
        path_id: np.ndarray,
        available_at: np.ndarray,
        available_cnt: np.ndarray,
        completed_at: np.ndarray,
        completed_cnt: np.ndarray,
        deficit: np.ndarray,
        cancelled_at: np.ndarray | None = None,
    ) -> None:
        self.jobs = jobs
        self.paths = paths
        self.path_id = path_id
        self.available_at = available_at
        self.available_cnt = available_cnt
        self.completed_at = completed_at
        self.completed_cnt = completed_cnt
        #: Per-job ``flow - fractional flow`` (the kernel's
        #: ``out_deficit``), for the fractional-flow integral.
        self.deficit = deficit
        self.cancelled_at = cancelled_at
        n = len(job_id)
        path_len = np.array([len(p) for p in paths], dtype=np.int64)
        finished = completed_cnt == path_len[path_id]
        last = completed_at[np.arange(n), np.maximum(completed_cnt - 1, 0)]
        self.columns = ResultColumns(
            job_id=job_id,
            release=release,
            leaf=np.array([p[-1] for p in paths], dtype=np.int64)[path_id],
            finished=finished,
            cancelled=(
                np.zeros(n, dtype=bool)
                if cancelled_at is None
                else ~np.isnan(cancelled_at)
            ),
            completion=np.where(finished, last, np.nan),
        )
        self._records: dict[int, JobRecord] | None = None

    def _build(self) -> dict[int, JobRecord]:
        records = self._records
        if records is None:
            # Plain python lists up front, so the loop touches no numpy
            # scalars (tolist converts exactly).  Ids and releases come
            # from the jobs themselves, so the records share them.
            paths = self.paths
            pid = self.path_id.tolist()
            avail_rows, comp_rows = self.available_at, self.completed_at
            avail_cnt = self.available_cnt.tolist()
            comp_cnt = self.completed_cnt.tolist()
            cancelled = self.columns.cancelled
            cancel_at = (
                self.cancelled_at.tolist() if cancelled.any() else None
            )
            records = {}
            for i, job in enumerate(self.jobs):
                path = paths[pid[i]]
                records[job.id] = JobRecord(
                    job_id=job.id,
                    release=job.release,
                    leaf=path[-1],
                    path=path,
                    available_at=avail_rows[i, : avail_cnt[i]].tolist(),
                    completed_at=comp_rows[i, : comp_cnt[i]].tolist(),
                    cancelled_at=(
                        None
                        if cancel_at is None or math.isnan(cancel_at[i])
                        else cancel_at[i]
                    ),
                )
            self._records = records
        return records

    def __len__(self) -> int:
        return len(self.columns.job_id)

    def __getitem__(self, job_id: int) -> JobRecord:
        return self._build()[job_id]

    def __iter__(self):
        return iter(self._build())

    # The dict's own views: the Mapping mixins would look every key up
    # a second time.
    def keys(self):
        return self._build().keys()

    def items(self):
        return self._build().items()

    def values(self):
        return self._build().values()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RecordView):
            other = other._build()
        if not isinstance(other, Mapping):
            return NotImplemented
        return self._build() == (other if isinstance(other, dict) else dict(other))

    def __repr__(self) -> str:
        return f"RecordView(jobs={len(self)})"


@dataclass
class SimulationResult:
    """The full outcome of one simulation run.

    Attributes
    ----------
    instance:
        The simulated instance.
    speeds:
        The speed profile the algorithm ran with.
    records:
        ``job id -> JobRecord`` for every released job.  A dict for
        python-engine results; for compiled-kernel results a
        :class:`RecordView` that builds the records on first access.
    fractional_flow:
        The paper's fractional flow time: the exact integral of the sum
        over alive jobs of the remaining fraction on their assigned leaf.
    alive_integral:
        Exact integral of the number of alive jobs — equals the total
        (integral) flow time; kept as an independent cross-check.
    num_events:
        Number of engine events processed.
    segments:
        Schedule segments if recording was enabled, else ``None``.
    counters:
        :class:`~repro.sim.counters.EngineCounters` for the run when the
        engine collected them (``api.simulate(counters=True)``, or the
        global switch :func:`~repro.sim.counters.enable_global_counters`),
        else ``None``.
    trace:
        The structured :class:`~repro.obs.trace.SimulationTrace` when a
        :class:`~repro.obs.trace.TraceRecorder` was attached
        (``tracer=...``), else ``None``.
    backend:
        The engine that produced the result: ``"python"`` or ``"c"``.
    fallback_reason:
        Why a run that selected ``"c"`` ran on python instead (the
        kernel's plan-gate message, the event-order option that needs
        the python engine, or why the kernel is unavailable); ``None``
        when the selected engine ran.  Set by
        :func:`repro.sim.backends.simulate`.
    """

    instance: Instance
    speeds: SpeedProfile
    records: Mapping[int, JobRecord]
    fractional_flow: float
    alive_integral: float
    num_events: int
    segments: list[ScheduleSegment] | None = None
    counters: EngineCounters | None = None
    trace: "SimulationTrace | None" = None
    backend: str = field(default="python", compare=False)
    fallback_reason: str | None = field(default=None, compare=False)
    _columns: ResultColumns | None = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    @property
    def columns(self) -> ResultColumns:
        """The per-job columns the reductions read (packed from
        ``records`` on first use unless the engine supplied them)."""
        cols = self._columns
        if cols is None:
            recs = self.records
            if isinstance(recs, RecordView):
                cols = recs.columns
            else:
                cols = ResultColumns.pack(recs)
            self._columns = cols
        return cols

    def assignment(self) -> dict[int, int]:
        """``job id -> leaf id`` dispatch map."""
        cols = self.columns
        return dict(zip(cols.job_id.tolist(), cols.leaf.tolist()))

    def completed_records(self) -> dict[int, JobRecord]:
        """Only the jobs that finished — the whole record set for a full
        run, a strict subset after a bounded-horizon run."""
        return {j: rec for j, rec in self.records.items() if rec.finished}

    def cancelled_records(self) -> dict[int, JobRecord]:
        """Only the jobs withdrawn by a ``Cancel`` event (empty for
        event-free runs)."""
        return {j: rec for j, rec in self.records.items() if rec.cancelled}

    def unfinished_job_ids(self) -> tuple[int, ...]:
        """Ids of admitted jobs still in flight (bounded-horizon runs);
        cancelled jobs are terminal, not in flight."""
        cols = self.columns
        return tuple(sorted(cols.job_id[cols.stuck()].tolist()))

    def completions(self) -> dict[int, float]:
        """``job id -> C_j`` over finished jobs (cancelled jobs have no
        completion and are excluded)."""
        cols = self.columns
        _raise_first_unfinished(cols, cols.stuck())
        keep = ~cols.cancelled
        return dict(
            zip(cols.job_id[keep].tolist(), cols.completion[keep].tolist())
        )

    def flow_times(self) -> np.ndarray:
        """Per-job flow times in job-id order.

        Cancelled jobs never appear here: a withdrawn job has no
        completion, so it contributes to no flow-time statistic.  An
        unfinished *non-cancelled* record still raises, exactly as
        before.
        """
        cols = self.columns
        order = cols.by_id()
        _raise_first_unfinished(cols, cols.stuck(), order)
        completion = cols.completion[order]
        release = cols.release[order]
        if cols.cancelled.any():
            keep = ~cols.cancelled[order]
            completion, release = completion[keep], release[keep]
        return completion - release

    def total_flow_time(self) -> float:
        """``Σ_j (C_j − r_j)``."""
        return float(self.flow_times().sum())

    def mean_flow_time(self) -> float:
        """Average flow time."""
        flows = self.flow_times()
        return float(flows.mean()) if flows.size else 0.0

    def max_flow_time(self) -> float:
        """Maximum flow time over jobs."""
        flows = self.flow_times()
        return float(flows.max()) if flows.size else 0.0

    def makespan(self) -> float:
        """Latest completion time among finished jobs."""
        cols = self.columns
        done = cols.completion[cols.finished]
        return float(done.max()) if done.size else 0.0

    def verify_complete(self) -> None:
        """Raise if any released job failed to reach a terminal state
        (finished, or cancelled by a dynamic event)."""
        cols = self.columns
        stuck = cols.stuck()
        if stuck.any():
            raise SimulationError(
                f"jobs did not complete: {cols.job_id[stuck][:10].tolist()}"
            )

    def __repr__(self) -> str:
        return (
            f"SimulationResult(jobs={len(self.records)}, "
            f"total_flow={self.total_flow_time():.3f}, "
            f"fractional_flow={self.fractional_flow:.3f}, "
            f"events={self.num_events})"
        )


def _raise_first_unfinished(
    cols: ResultColumns, mask: np.ndarray, order: np.ndarray | slice = slice(None)
) -> None:
    """Raise :attr:`JobRecord.completion`'s error for the first job of
    ``mask`` in row ``order``."""
    hit = mask[order]
    if hit.any():
        job_id = int(cols.job_id[order][np.argmax(hit)])
        raise SimulationError(f"job {job_id} did not complete")
