"""Baseline leaf-assignment policies (see package docstring)."""

from __future__ import annotations

import math

import numpy as np

from repro.core.assignment import path_is_blocked
from repro.exceptions import AssignmentError
from repro.sim.engine import SchedulerView
from repro.workload.job import Job

__all__ = [
    "ClosestLeafAssignment",
    "RandomAssignment",
    "LeastLoadedAssignment",
    "RoundRobinAssignment",
]


def _feasible_leaves(view: SchedulerView, job: Job) -> list[int]:
    tree = view.tree
    instance = view.instance
    if job.origin is not None and job.origin != tree.root and job.origin in tree:
        candidates = tree.leaves_under(job.origin)
    else:
        candidates = tree.leaves
    leaves = [
        v for v in candidates if math.isfinite(instance.processing_time(job, v))
    ]
    if not leaves:
        raise AssignmentError(f"job {job.id} has no feasible leaf")
    return leaves


class ClosestLeafAssignment:
    """Assign to the leaf minimising the job's own path volume
    ``P_{v,j}`` — the congestion-oblivious policy Section 3.1 rejects.

    In the identical setting this is simply the closest leaf; in the
    unrelated setting it additionally prefers fast machines.  Ties break
    by leaf id.

    Uniform-size jobs have ``P_{v,j} = d_v · p_j``, so for ``p_j > 0``
    the ``(P_{v,j}, v)`` argmin is the static ``(d_v, v)`` minimum —
    cached once per origin instead of rescanning every feasible leaf
    and recomputing ``path_volume`` per arrival.  Jobs carrying a
    per-leaf size map (or degenerate sizes) keep the full scan, whose
    tie-breaking the cache reproduces exactly.
    """

    def __init__(self) -> None:
        # origin key (None = whole tree) -> (d_v, v)-argmin leaf
        self._closest: dict[int | None, int] = {}

    def assign(self, view: SchedulerView, job: Job, now: float) -> int:
        tree = view.tree
        if job.leaf_sizes is None and math.isfinite(job.size) and job.size > 0.0:
            origin = job.origin
            if origin is None or origin == tree.root or origin not in tree:
                origin = None
            best = self._closest.get(origin)
            if best is None:
                candidates = (
                    tree.leaves if origin is None else tree.leaves_under(origin)
                )
                best = min(candidates, key=lambda v: (tree.d(v), v))
                self._closest[origin] = best
            return best
        instance = view.instance
        return min(
            _feasible_leaves(view, job),
            key=lambda v: (instance.path_volume(job, v), v),
        )


class RandomAssignment:
    """Assign to a uniformly random feasible leaf (seeded)."""

    def __init__(self, rng: np.random.Generator | int | None = None) -> None:
        self.rng = np.random.default_rng(rng)

    def assign(self, view: SchedulerView, job: Job, now: float) -> int:
        leaves = _feasible_leaves(view, job)
        return int(leaves[int(self.rng.integers(len(leaves)))])


class LeastLoadedAssignment:
    """Join the least-loaded branch: minimise queued volume ahead of the
    job, ignoring priorities.

    The score of leaf ``v`` is the total remaining volume queued at
    ``R(v)`` plus the total remaining leaf volume of jobs assigned to
    ``v`` plus the job's own path volume.  Congestion-aware but blind to
    SJF order — the natural "join shortest queue" heuristic.

    Both volume terms are O(1) reads of the engine's incremental
    congestion aggregates
    (:meth:`~repro.sim.engine.SchedulerView.queue_volume_at` at the
    root-adjacent node, where the queue is all of ``Q_v``, and
    :meth:`~repro.sim.engine.SchedulerView.volume_through` at the leaf),
    so an arrival costs O(leaves) instead of O(leaves × alive).  The
    tree is immutable, so ``(leaf, R(leaf), d_leaf)`` is precomputed
    once per origin — the repeated ``top_router``/``d``/feasibility
    lookups, not the volume reads, dominated arrival cost on large
    instances.  Jobs without per-leaf sizes score ``d_v · p_j`` for
    their own path volume directly (every leaf is feasible); only jobs
    carrying a leaf-size map pay the per-leaf ``p_{j,v}`` lookup and
    the ``isfinite`` filter.
    """

    def __init__(self) -> None:
        # origin (None = whole tree) -> ((leaf, R(leaf), d_leaf), ...)
        # in the same candidate order _feasible_leaves would produce.
        self._layout: dict[int | None, tuple[tuple[int, int, int], ...]] = {}

    def _layout_for(self, view: SchedulerView, job: Job):
        tree = view.tree
        origin = job.origin
        if origin is None or origin == tree.root or origin not in tree:
            origin = None
        layout = self._layout.get(origin)
        if layout is None:
            candidates = tree.leaves if origin is None else tree.leaves_under(origin)
            layout = tuple((v, tree.top_router(v), tree.d(v)) for v in candidates)
            self._layout[origin] = layout
        return layout

    def assign(self, view: SchedulerView, job: Job, now: float) -> int:
        tree = view.tree
        p = job.size
        uniform = job.leaf_sizes is None and math.isfinite(p)
        layout = self._layout_for(view, job)
        downs_fn = getattr(view, "downed_nodes", None)
        downs = downs_fn() if downs_fn is not None else None
        if downs:
            origin = job.origin
            if origin is None or origin == tree.root or origin not in tree:
                origin = tree.root
            kept = tuple(
                e for e in layout if not path_is_blocked(tree, e[0], downs, origin)
            )
            # keep the full layout when the outage excludes everything:
            # dispatch must still pick a leaf (the job stalls until the
            # repair).
            if kept and len(kept) < len(layout):
                layout = kept
        best_leaf: int | None = None
        best_score = math.inf
        top_load = {top: view.queue_volume_at(top) for top in tree.root_children}
        for v, top, d in layout:
            if uniform:
                own = d * p  # path_volume: (d-1)·p_j + p_{j,v} with p_{j,v} = p_j
            else:
                leaf_p = job.processing_on_leaf(v)
                if not math.isfinite(leaf_p):
                    continue
                own = (d - 1) * p + leaf_p
            score = top_load[top] + view.volume_through(v) + own
            if score < best_score or (score == best_score and (best_leaf is None or v < best_leaf)):
                best_score = score
                best_leaf = v
        if best_leaf is None:
            raise AssignmentError(f"job {job.id} has no feasible leaf")
        return best_leaf


class RoundRobinAssignment:
    """Cycle through the leaves in id order, skipping infeasible ones."""

    def __init__(self) -> None:
        self._next = 0

    def assign(self, view: SchedulerView, job: Job, now: float) -> int:
        leaves = _feasible_leaves(view, job)
        v = leaves[self._next % len(leaves)]
        self._next += 1
        return v
