"""In-memory span tracer installed from outside the program.

The tracer replaces each public function of a module with a wrapper stored as
the module attribute, so calls that go through module globals are captured
too (``kick_cycle`` -> ``pendulum_segment``, ``evolve_density`` ->
``apply_decoherence``, ``WignerGrid.coarse`` -> ``coarse_grain``).  Each span
records its name, start, end, parent and the id of the pass it belongs to.
Nothing is written until the caller asks for the spans at the end.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field
from typing import Callable

# Hook signature: (args, kwargs, result) -> (label suffix or None, attrs).  It
# runs after the wrapped call returns, outside the span's own interval.
Hook = Callable[[tuple, dict, object], tuple]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a root span
    pass_id: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps module functions, records spans, restores the modules on close."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = 0
        self.recording = True        # off while the benchmark checks outputs between passes
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self, module, layer: str, hooks: dict[str, Hook] | None = None) -> None:
        """Wrap every public function defined in ``module``; spans are named layer.function."""
        hooks = hooks or {}
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            setattr(module, attr, self._wrap(fn, f"{layer}.{attr}", hooks.get(attr)))
            self._patched.append((module, attr, fn))

    def close(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _wrap(self, fn, name: str, hook: Hook | None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if hook is not None:
                suffix, span.attrs = hook(args, kwargs, result)
                if suffix:
                    span.name = f"{name}.{suffix}"
            return result

        traced.__wrapped__ = fn
        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the time covered by its direct children.

    Spans nest strictly (one thread), so the children of a span cover
    disjoint parts of its interval.
    """
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own
