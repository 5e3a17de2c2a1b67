"""In-memory spans around the calls the benchmark makes into postcast.

A :class:`Tracer` replaces chosen bindings (``postcast.sampler.distance``,
``postcast.denoisers.GaussianMixtureModel.predict_noise``, ...) with thin
wrappers for the duration of a ``with tracer.installed(run_id):`` block and
puts the originals back when the block ends, also on error.  Each wrapped
call becomes one :class:`Span` (name, start, end, parent, run id); a target
may also emit an :class:`Event` carrying an amount (bytes, constructions),
attributed to the span that was open when it happened.

Nothing here imports postcast: targets are resolved by module path when the
tracer is installed, and a binding that no longer exists is skipped and
listed in ``Tracer.missing`` instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Span:
    run_id: str
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Event:
    run_id: str
    parent_id: int | None
    name: str
    amount: float


@dataclass(frozen=True)
class Target:
    """One binding to wrap.

    ``owner`` is a module path and ``attr`` an attribute of it, or
    ``Class.attr`` for a method.  A ``"span"`` target times each call; an
    ``"event"`` target only emits ``name`` once per call.  ``amount`` (for
    span targets) maps ``(args, result)`` to ``(event name, amount)``, emitted
    as an event attributed to the call's own span.
    """

    owner: str
    attr: str
    name: str
    kind: str = "span"
    amount: Callable | None = None


class Tracer:
    def __init__(self, targets):
        self.targets = tuple(targets)
        self.spans: list[Span] = []
        self.events: list[Event] = []
        self.missing: set[str] = set()
        self.run_id = ""
        self._stack: list[int] = []
        self._next_id = 0

    def _open(self) -> tuple[int, int | None]:
        parent = self._stack[-1] if self._stack else None
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id, parent, name, start, end) -> None:
        self._stack.pop()
        self.spans.append(Span(self.run_id, span_id, parent, name, start, end))

    def emit(self, name: str, amount: float = 1.0, parent_id: int | None = None) -> None:
        if parent_id is None and self._stack:
            parent_id = self._stack[-1]
        self.events.append(Event(self.run_id, parent_id, name, amount))

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (around a CLI call)."""
        span_id, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(span_id, parent, name, start, time.perf_counter())

    def _wrap(self, target: Target, fn):
        tracer = self
        if target.kind == "event":

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.emit(target.name)
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span_id, parent = tracer._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span_id, parent, target.name, start, time.perf_counter())
            if target.amount is not None:
                event, amount = target.amount(args, result)
                tracer.emit(event, amount, parent_id=span_id)
            return result

        return timed

    @contextmanager
    def installed(self, run_id: str):
        """Wrap every resolvable target; restore the originals on exit."""
        self.run_id = run_id
        saved = []
        try:
            for target in self.targets:
                resolved = _resolve(target)
                if resolved is None:
                    self.missing.add(f"{target.owner}.{target.attr}")
                    continue
                owner, attr, original = resolved
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(target, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _resolve(target: Target):
    try:
        owner = importlib.import_module(target.owner)
    except ImportError:
        return None
    *path, attr = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = vars(owner).get(attr)
    if not callable(original):
        return None
    return owner, attr, original


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def covered_length(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """span_id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            children[s.parent_id].append(s)
    out = {}
    for s in spans:
        clipped = [
            (max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.span_id, ())
        ]
        out[s.span_id] = s.duration - covered_length(clipped)
    return out


def write_spans(path, spans) -> None:
    """CSV: run_id, span_id, parent_id, name, start, end (seconds)."""
    with open(path, "w") as fh:
        fh.write("run_id,span_id,parent_id,name,start,end\n")
        for s in spans:
            parent = "" if s.parent_id is None else s.parent_id
            fh.write(f"{s.run_id},{s.span_id},{parent},{s.name},{s.start!r},{s.end!r}\n")
