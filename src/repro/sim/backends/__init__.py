"""Engine backend registry and dispatch.

Two engines implement the Section-2 semantics:

* ``"python"`` — the reference :class:`~repro.sim.engine.Engine`: one
  global event heap, per-event observer/tracer/counter hooks, bounded
  horizons, dynamic events, streaming.  Always available; always
  correct.
* ``"c"`` — the compiled kernel (:mod:`repro.sim.backends.c_backend`):
  per-node lazy sweeps over structure-of-arrays job columns, built on
  demand from shipped source by :mod:`repro.sim.backends.c_build` and
  driven via ctypes.  More than ten times the python engine on the S1
  workload, bit-identical output.  Optional: with no working compiler
  (or ``REPRO_NO_CKERNEL=1``) the backend is *unavailable* — requesting
  it explicitly raises, selecting it through the environment falls back
  to ``"python"`` with a warning.

One fallback rule, in :func:`simulate`: when the resolved backend is
``"c"`` and no event-order option is set (``observer``, ``tracer``,
``until``, engine counters), build a :class:`CEngine`.  If an
event-order option is set, or the kernel's plan gate raises
:class:`~repro.sim.backends.c_backend.CKernelInapplicable` (dynamic
events, size estimates, segment recording, invariant checks, generic
priorities, policies without a kernel plan), run the python engine
instead.  The schedule is the same either way; the result records which
engine ran (``result.backend``) and why it is not the one selected
(``result.fallback_reason``).

Selection: one resolver, :func:`select_backend`, shared by
:func:`simulate`, :func:`repro.api.simulate`,
:func:`repro.api.open_system` and the CLI — the ``backend=`` keyword
wins, else the :data:`ENV_VAR` environment variable ``REPRO_BACKEND``,
else ``"python"``; unavailable backends raise when named explicitly and
warn-and-fall-back when selected through the environment.
"""

from __future__ import annotations

import os
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import TraceRecorder

from repro.exceptions import SimulationError
from repro.sim import engine as _engine
from repro.sim.backends import c_build
from repro.sim.backends.c_backend import CEngine, CKernelInapplicable
from repro.sim.counters import global_counters
from repro.sim.engine import (
    AssignmentPolicy,
    PriorityFn,
    SchedulerView,
    sjf_priority,
)
from repro.sim.result import SimulationResult
from repro.sim.speed import SpeedProfile
from repro.workload.instance import Instance

__all__ = [
    "BACKENDS",
    "ENV_VAR",
    "BackendChoice",
    "available_backends",
    "backend_available",
    "resolve_backend",
    "select_backend",
    "simulate",
    "CEngine",
]

#: The selectable engine backends.
BACKENDS = ("python", "c")

#: Environment variable holding the default backend name.
ENV_VAR = "REPRO_BACKEND"


def resolve_backend(backend: str | None = None) -> str:
    """The effective backend name: explicit argument, else the
    ``REPRO_BACKEND`` environment variable, else ``"python"``."""
    if backend is None:
        backend = os.environ.get(ENV_VAR) or "python"
    if backend not in BACKENDS:
        raise SimulationError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend


@dataclass(frozen=True, slots=True)
class BackendChoice:
    """The outcome of one backend selection (see :func:`select_backend`).

    Attributes
    ----------
    requested:
        The ``backend=`` keyword as passed (``None`` when the caller
        left selection to the environment/default).
    source:
        Where the name came from: ``"kwarg"``, ``"env"`` or
        ``"default"`` — the documented precedence order.
    effective:
        The backend that will actually run.
    fallback_reason:
        Why ``effective`` differs from the selected name (``None`` when
        the selection was honoured).
    """

    requested: str | None
    source: str
    effective: str
    fallback_reason: str | None = None


def select_backend(backend: str | None = None) -> BackendChoice:
    """THE backend resolver — one precedence rule for every entry point.

    ``simulate()``, ``open_system()`` and the CLI all resolve through
    here: the explicit ``backend=`` keyword wins, else the
    ``REPRO_BACKEND`` environment variable, else ``"python"``.

    Availability policy: a backend named *explicitly* (kwarg) that is
    unavailable raises :class:`~repro.exceptions.SimulationError`; one
    selected through the environment falls back to ``"python"`` with a
    :class:`RuntimeWarning` naming the reason — an exported variable
    must not break every simulation on a compiler-less machine.  The
    returned :class:`BackendChoice` records what happened.
    """
    if backend is not None:
        source, name = "kwarg", backend
    else:
        env = os.environ.get(ENV_VAR)
        if env:
            source, name = "env", env
        else:
            source, name = "default", "python"
    if name not in BACKENDS:
        raise SimulationError(
            f"unknown backend {name!r}; expected one of {BACKENDS}"
        )
    ok, reason = backend_available(name)
    if ok:
        return BackendChoice(backend, source, name)
    if source == "kwarg":
        raise SimulationError(
            f"backend {name!r} is unavailable on this machine: {reason}"
        )
    warnings.warn(
        f"{ENV_VAR}={name} but that backend is unavailable ({reason}); "
        "falling back to the python engine",
        RuntimeWarning,
        stacklevel=3,
    )
    return BackendChoice(backend, source, "python", reason)


def backend_available(backend: str) -> tuple[bool, str | None]:
    """``(available, reason-if-not)`` for a backend name.

    ``python`` is always available; ``c`` requires a working C
    compiler (probed — and the kernel built — on first ask).
    """
    if backend not in BACKENDS:
        raise SimulationError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend == "c":
        return c_build.availability()
    return True, None


def available_backends() -> tuple[str, ...]:
    """The subset of :data:`BACKENDS` usable on this machine."""
    return tuple(b for b in BACKENDS if backend_available(b)[0])


def _event_order_option(
    observer: object,
    tracer: object,
    until: float | None,
    collect_counters: bool | None,
) -> str | None:
    """The first option set that only the python engine honours, as a
    fallback reason, or ``None`` when the kernel may serve the call."""
    for name, value in (("observer", observer), ("tracer", tracer), ("until", until)):
        if value is not None:
            return f"{name}= needs the python engine's global event order"
    if collect_counters:
        return "counters= needs the python engine's global event order"
    if collect_counters is None and global_counters() is not None:
        return "the process-wide engine counters need the python engine"
    return None


def simulate(
    instance: Instance,
    policy: AssignmentPolicy,
    *,
    backend: str | None = None,
    speeds: SpeedProfile | None = None,
    priority: PriorityFn = sjf_priority,
    record_segments: bool = False,
    check_invariants: bool = False,
    observer: Callable[[SchedulerView, str, int], None] | None = None,
    until: float | None = None,
    collect_counters: bool | None = None,
    tracer: "TraceRecorder | None" = None,
    events=None,
) -> SimulationResult:
    """Simulate on the selected backend.

    Accepts the full engine option surface.  A run that selects ``"c"``
    runs on the python engine instead when an option needs it or the
    kernel cannot express the call (see the module doc); the schedule
    is the same either way, and the result's ``backend`` /
    ``fallback_reason`` say what happened.

    Selection and the unavailable-backend policy (explicit request
    raises, environment selection warns and falls back) live in
    :func:`select_backend` — the single resolver shared with
    :func:`repro.api.open_system` and the CLI.
    """
    choice = select_backend(backend)
    reason = choice.fallback_reason
    if choice.effective == "c":
        reason = _event_order_option(observer, tracer, until, collect_counters)
        if reason is None:
            try:
                engine = CEngine(
                    instance,
                    policy,
                    speeds,
                    priority=priority,
                    record_segments=record_segments,
                    check_invariants=check_invariants,
                    events=events,
                )
            except CKernelInapplicable as exc:
                reason = str(exc)
            else:
                return engine.run()
    result = _engine.simulate(
        instance,
        policy,
        speeds=speeds,
        priority=priority,
        record_segments=record_segments,
        check_invariants=check_invariants,
        observer=observer,
        until=until,
        collect_counters=collect_counters,
        tracer=tracer,
        events=events,
    )
    result.fallback_reason = reason
    return result
