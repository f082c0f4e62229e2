"""Layer spans recorded from outside the program.

The benchmark never edits the code under measurement.  Instead it wraps
public entry points (a class attribute, a module attribute, or the
loaded kernel's ``repro_run``) for the duration of a traced section and
restores them afterwards.  Each wrapper opens a span on entry and closes
it on exit; spans nest through a stack, so a layer's *self* time is its
span's duration minus the time covered by the spans it encloses.  Spans
are folded into per-layer totals as they close (name -> self seconds,
calls), which keeps memory constant however many calls a run makes.

In count-only mode the wrappers just count calls, with no clock reads.
Untraced runs use that mode on the engine dispatch targets, so the
output can name the backend that actually served a workload without
timing anything inside the program.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter


class Recorder:
    """Per-layer self time and call counts from nested spans."""

    def __init__(self, *, timing: bool) -> None:
        self.timing = timing
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        # Open spans: [start, seconds covered by child spans].
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- wrapping ------------------------------------------------------
    def wrap(self, name: str, fn, on_result=None, *, timed: bool = True):
        """A wrapper that records ``fn`` calls under ``name``: a span in
        a timing recorder (unless ``timed=False``), else a call count.

        ``on_result(result)`` runs after the span closes; its cost is
        not charged to the layer.
        """
        calls = self.calls
        if not (self.timing and timed):
            def counted(*args, **kwargs):
                calls[name] += 1
                out = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(out)
                return out
            return counted

        stack = self._stack
        self_s = self.self_s

        def spanned(*args, **kwargs):
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - frame[0]
                stack.pop()
                self_s[name] += elapsed - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += elapsed
            if on_result is not None:
                on_result(out)
            return out
        return spanned

    def patch(self, target: str, attr: str, name: str, on_result=None,
              *, timed: bool = True) -> None:
        """Wrap ``attr`` of the module or ``module:Class`` named by
        ``target``.  A target that no longer exists is recorded in
        :attr:`missing` and skipped, so the benchmark survives refactors
        that delete a layer; that layer then reads 0."""
        owner = _resolve(target)
        if owner is None or attr not in vars(owner):
            self.missing.append(f"{target}.{attr}")
            return
        self.patch_object(owner, attr, name, on_result, timed=timed)

    def patch_object(self, owner, attr: str, name: str, on_result=None,
                     *, timed: bool = True) -> None:
        """Wrap ``owner.attr`` in place (``owner`` being a module, a
        class, or an instance holding the attribute itself)."""
        self.replace(owner, attr,
                     self.wrap(name, getattr(owner, attr), on_result, timed=timed))

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`restore`."""
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def _resolve(target: str):
    module_name, _, cls = target.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, cls, None) if cls else module
