"""The marginal-cost estimates ``F(j,v)`` and ``F'(j,v)`` of Section 3.4.

When job ``J_j`` arrives, the greedy assignment policy scores each leaf
``v`` with an upper bound (Lemma 4) on the increase in total flow time
if the job were dispatched there:

* ``F(j,v)`` charges the congestion at the root-adjacent node ``R(v)``:
  the remaining volume of *higher-priority* work queued there (``J_j``
  would wait behind it) plus ``p_j`` for every queued *lower-priority*
  job (each would wait behind ``J_j``).
* ``F'(j,v)`` (unrelated endpoints only) charges the leaf the same way,
  weighting delays to lower-priority jobs by the fraction of their leaf
  work remaining.
* ``(6/ε²)·d_v·p_j`` charges the interior traversal via Lemma 1.

``F`` depends on ``v`` only through ``R(v)``; :func:`f_top_value`
computes it directly for a root-adjacent node, which is also the form
the dual fitting needs (``γ_{v,j,∞} = F(j,v)``).

Priority comparisons replicate the SJF order of
:func:`repro.sim.engine.sjf_priority` exactly — including the release /
id tie-breaks — so the estimates price the true queueing order.

Performance note: these estimates split ``Q_v`` *by priority relative to
the arriving job*, which the engine's scalar congestion aggregates
(:meth:`~repro.sim.engine.SchedulerView.volume_through`) cannot answer,
so an O(queue) pass is inherent.  The hot paths below therefore read the
engine's node/job state directly — no per-job ``processing_time`` tree
walks, no intermediate ``Q_v`` tuples — and keep the historical float
summation order (heap-array order at root-adjacent nodes, ascending job
id at leaves) so scores are bit-for-bit stable across releases.
"""

from __future__ import annotations

from repro.sim.engine import SchedulerView
from repro.workload.job import Job

__all__ = ["f_top_value", "f_value", "f_prime_value", "s_set_volume", "outranks"]


def outranks(p_i: float, job_i: Job, p_j: float, job_j: Job) -> bool:
    """Whether job ``i`` (processing ``p_i`` on the node) precedes job
    ``j`` (processing ``p_j``) in the SJF order of
    :func:`repro.sim.engine.sjf_priority`."""
    return (p_i, job_i.release, job_i.id) < (p_j, job_j.release, job_j.id)


#: backwards-compatible private alias
_higher_priority = outranks


def f_top_value(view: SchedulerView, job: Job, top: int) -> float:
    """``F(j, ·)`` evaluated at root-adjacent node ``top``.

    ``Σ_{J_i ∈ S_{top,j}} p^A_{i,top}(t)  +  p_j · |{J_i ∈ Q_top : p_i > p_j}|``

    computed at the current view time (intended to be ``r_j``, before the
    job is inserted).  ``S`` includes ``J_j`` itself, contributing its
    full ``p_j``.
    """
    p_j = job.size
    total = p_j  # J_j's own contribution to S_{top,j}
    eng = view._engine
    ns = eng._nodes.get(top)
    if ns is not None and top in eng._root_adjacent:
        # Hot path: Q_top is exactly the queue at top (nothing
        # upstream of the first hop), held in the node's heap.
        states = eng._states
        r_j = job.release
        id_j = job.id
        is_leaf = ns.is_leaf
        active_id = ns.active_id
        for _, jid in ns.heap:
            st = states[jid]
            other = st.job
            p_i = st.leaf_time if is_leaf else other.size
            if (p_i, other.release, other.id) < (p_j, r_j, id_j):
                if jid == active_id:
                    rem = ns.active_rem_start - ns.speed * (
                        eng.now - ns.active_started
                    )
                    total += rem if rem > 0.0 else 0.0
                else:
                    total += st.remaining
            elif p_i > p_j:
                total += p_j
        return total
    # General form — arbitrary interior nodes (the origin extension).
    instance = view.instance
    for jid in view.jobs_through(top):
        other = view.job(jid)
        p_i = instance.processing_time(other, top)
        if _higher_priority(p_i, other, p_j, job):
            total += view.remaining_on(jid, top)
        elif p_i > p_j:
            total += p_j
    return total


def f_value(view: SchedulerView, job: Job, leaf: int) -> float:
    """``F(j, v)`` for a leaf ``v`` — :func:`f_top_value` at ``R(v)``."""
    return f_top_value(view, job, view.tree.top_router(leaf))


def f_prime_value(view: SchedulerView, job: Job, leaf: int) -> float:
    """``F'(j, v)`` — the leaf-congestion term for unrelated endpoints.

    ``Σ_{J_i ∈ S_{v,j}} p^A_{i,v}(t)
      + p_{j,v} · Σ_{J_i ∈ Q_v : p_{i,v} > p_{j,v}} p^A_{i,v}(t)/p_{i,v}``

    over the alive jobs assigned to leaf ``v``; includes ``J_j``'s own
    ``p_{j,v}``.
    """
    eng = view._engine
    alive_here = eng._alive_at_leaf.get(leaf)
    if alive_here is None:
        # Non-leaf input: keep the generic (scan-based) definition.
        instance = view.instance
        p_jv = instance.processing_time(job, leaf)
        total = p_jv
        for jid in view.jobs_through(leaf):
            other = view.job(jid)
            p_iv = instance.processing_time(other, leaf)
            rem = view.remaining_on(jid, leaf)
            if _higher_priority(p_iv, other, p_jv, job):
                total += rem
            elif p_iv > p_jv:
                total += p_jv * rem / p_iv
        return total
    # Hot path: Q_v at a leaf is the alive set assigned to it.
    p_jv = job.processing_on_leaf(leaf)
    total = p_jv
    states = eng._states
    r_j = job.release
    id_j = job.id
    ns = eng._nodes[leaf]
    active_id = ns.active_id
    now = eng.now
    for jid in sorted(alive_here):
        st = states[jid]
        other = st.job
        p_iv = st.leaf_time
        if st.idx == len(st.path) - 1:  # physically at the leaf
            if jid == active_id:
                rem = ns.active_rem_start - ns.speed * (now - ns.active_started)
                if rem < 0.0:
                    rem = 0.0
            else:
                rem = st.remaining
        else:  # still upstream: full leaf requirement remains
            rem = p_iv
        if (p_iv, other.release, other.id) < (p_jv, r_j, id_j):
            total += rem
        elif p_iv > p_jv:
            total += p_jv * rem / p_iv
    return total


def s_set_volume(view: SchedulerView, job: Job, node: int) -> float:
    """The S-set volume of Lemma 4 at ``node`` for arriving job ``j``:

    ``p_{j,node} + Σ_{J_i ∈ Q_node : J_i outranks J_j} p^A_{i,node}(t)``

    — the job's own requirement plus the remaining higher-priority work
    routed through ``node``.  Shared by the L4 audit for both the
    root-adjacent and the leaf phase bounds.
    """
    instance = view.instance
    p_jv = instance.processing_time(job, node)
    total = p_jv
    for jid in view.jobs_through(node):
        other = view.job(jid)
        p_i = instance.processing_time(other, node)
        if _higher_priority(p_i, other, p_jv, job):
            total += view.remaining_on(jid, node)
    return total
