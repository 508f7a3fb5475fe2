"""Tracing spans: nested wall+CPU timings for the construction pipelines.

A *span* is one timed region with a name, free-form attributes and
children; a *trace* is a tree of spans.  The construction entry points open
a trace (``with obs.trace("construction", build_backend=...) as root``) and
every stage — candidates (per doubling level), counting, trie build, heavy
paths, noise, prune, materialize — opens a child ``span(...)``.  The tree
replaces the old flat ``stage_seconds`` dict: same totals, but nested, with
per-level detail, CPU time alongside wall time, and exportable to Chrome
trace-event JSON (``dpsc mine --trace-out trace.json``, loadable in
Perfetto or ``chrome://tracing``).

Nesting is implicit through a thread-local stack:

* :func:`trace` starts recording (a root span) — or, when a trace is
  already active on this thread, nests as an ordinary child span, so a
  structure built inside an instrumented caller attaches to the caller's
  tree instead of starting a second one.
* :func:`span` records **only while a trace is active**; otherwise it
  returns a shared no-op context whose entire cost is one thread-local
  attribute read.  Library code can therefore be instrumented
  unconditionally without taxing un-traced callers.
* Disabling telemetry (:func:`repro.obs.set_enabled`) stops :func:`trace`
  from recording at all.

Exceptions unwind cleanly: a span whose block raises is finalized with
``status="error"`` (and the exception type in its attributes), the stack is
restored, and the exception propagates.

:class:`BuildProfile` wraps a finished construction root span and derives
per-stage durations, a rendered text tree (``dpsc mine --profile``) and the Chrome trace export.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Iterator

from repro.obs.registry import enabled

__all__ = ["Span", "BuildProfile", "span", "trace", "current_span"]

_state = threading.local()


class Span:
    """One timed region: name, attributes, wall+CPU duration, children."""

    __slots__ = (
        "name",
        "attrs",
        "children",
        "status",
        "start_wall",
        "wall_seconds",
        "cpu_seconds",
        "_start_cpu",
    )

    def __init__(self, name: str, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs
        self.children: list[Span] = []
        self.status = "ok"
        self.start_wall = 0.0
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0
        self._start_cpu = 0.0

    def find(self, name: str) -> "Iterator[Span]":
        """Every descendant span (pre-order) with the given name."""
        for child in self.children:
            if child.name == name:
                yield child
            yield from child.find(name)

    def to_dict(self) -> dict:
        """JSON-friendly recursive form (tests, snapshots)."""
        return {
            "name": self.name,
            "attrs": dict(self.attrs),
            "status": self.status,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "children": [child.to_dict() for child in self.children],
        }


class _NullSpan:
    """The not-recording fast path: a shared, stateless context manager."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _SpanContext:
    """Pushes a recording span on enter, finalizes and attaches on exit."""

    __slots__ = ("_span", "_root")

    def __init__(self, name: str, attrs: dict, *, root: bool = False) -> None:
        self._span = Span(name, attrs)
        self._root = root

    def __enter__(self) -> Span:
        stack = _stack()
        recording = self._span
        recording.start_wall = time.perf_counter()
        recording._start_cpu = time.thread_time()
        stack.append(recording)
        return recording

    def __exit__(self, exc_type, exc_value, exc_tb) -> bool:
        recording = self._span
        recording.wall_seconds = time.perf_counter() - recording.start_wall
        recording.cpu_seconds = time.thread_time() - recording._start_cpu
        if exc_type is not None:
            recording.status = "error"
            recording.attrs.setdefault("error", exc_type.__name__)
        stack = _stack()
        # Unwind to this span even if an inner block leaked unbalanced
        # state (defensive: exceptions already pop inner spans first).
        while stack and stack[-1] is not recording:
            stack.pop()
        if stack:
            stack.pop()
        if stack:
            stack[-1].children.append(recording)
        return False


def _stack() -> list[Span]:
    stack = getattr(_state, "stack", None)
    if stack is None:
        stack = []
        _state.stack = stack
    return stack


def current_span() -> Span | None:
    """The innermost active span on this thread, or ``None``."""
    stack = getattr(_state, "stack", None)
    return stack[-1] if stack else None


def span(name: str, **attrs):
    """A child span — records only while a trace is active on this thread.

    Usage: ``with obs.span("noise", level=3): ...``.  The with-target is
    the live :class:`Span` (attach attributes via ``sp.attrs``) or ``None``
    on the no-op path.
    """
    if not getattr(_state, "stack", None):
        return _NULL_SPAN
    return _SpanContext(name, attrs)


def trace(name: str, **attrs):
    """Open a trace root (or nest, when a trace is already active).

    Yields the root :class:`Span`; after the block exits the span holds the
    finished tree.  When telemetry is disabled and no trace is active the
    block runs un-instrumented and the with-target is ``None``.
    """
    if not getattr(_state, "stack", None) and not enabled():
        return _NULL_SPAN
    return _SpanContext(name, attrs, root=True)


class BuildProfile:
    """A finished construction trace plus the views derived from it."""

    def __init__(self, root: Span) -> None:
        self.root = root

    # ------------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------------
    @property
    def total_seconds(self) -> float:
        return self.root.wall_seconds

    @property
    def build_backend(self) -> str:
        return str(self.root.attrs.get("build_backend", ""))

    def stages(self) -> dict[str, float]:
        """Top-level stage durations, aggregated by name in first-seen
        order."""
        result: dict[str, float] = {}
        for child in self.root.children:
            result[child.name] = result.get(child.name, 0.0) + child.wall_seconds
        return result

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self) -> str:
        """An indented text tree (``dpsc mine --profile``)."""
        lines: list[str] = []
        total = self.total_seconds or 1.0

        def emit(node: Span, depth: int) -> None:
            label = node.name
            detail = " ".join(
                f"{key}={value}" for key, value in node.attrs.items() if key != "build_backend"
            )
            if detail:
                label = f"{label} [{detail}]"
            share = 100.0 * node.wall_seconds / total
            marker = "" if node.status == "ok" else "  !error"
            lines.append(
                f"{'  ' * depth}{label:<{max(2, 36 - 2 * depth)}s} "
                f"{node.wall_seconds:9.4f}s wall {node.cpu_seconds:9.4f}s cpu "
                f"{share:5.1f}%{marker}"
            )
            for child in node.children:
                emit(child, depth + 1)

        emit(self.root, 0)
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Chrome trace-event export (Perfetto / chrome://tracing)
    # ------------------------------------------------------------------
    def chrome_trace(self) -> dict:
        """The span tree in Chrome trace-event JSON (complete ``"X"``
        events, microsecond timestamps relative to the root)."""
        events: list[dict] = []
        pid = os.getpid()
        origin = self.root.start_wall

        def emit(node: Span) -> None:
            args = {str(k): v for k, v in node.attrs.items()}
            args["cpu_seconds"] = node.cpu_seconds
            if node.status != "ok":
                args["status"] = node.status
            events.append(
                {
                    "name": node.name,
                    "cat": "construction",
                    "ph": "X",
                    "ts": (node.start_wall - origin) * 1e6,
                    "dur": node.wall_seconds * 1e6,
                    "pid": pid,
                    "tid": 0,
                    "args": args,
                }
            )
            for child in node.children:
                emit(child)

        emit(self.root)
        return {"traceEvents": events, "displayTimeUnit": "ms"}
