"""The span/trace recorder: monotonic spans with parent links, any process.

One :class:`Telemetry` instance records *spans* (named intervals with
``time.monotonic()`` start/end stamps, process/thread ids, and a link to the
enclosing span) and *instant events* into a bounded in-memory buffer, and
owns one :class:`~repro.telemetry.metrics.MetricsRegistry`.  Everything in
the buffer is a plain picklable dict, which is what makes cross-process
collection trivial: a spawn child records into its own ``Telemetry``,
:meth:`drain`\\ s the buffer into its result message, and the parent
:meth:`ingest`\\ s the dicts into its own timeline.  On Linux
``CLOCK_MONOTONIC`` is system-wide, so child timestamps land directly on
the parent's time axis without clock translation.

Two recording shapes:

* ``with tel.span("trial", trial_id=...):`` — lexically nested work.  The
  context manager pushes onto a thread-local stack, so spans opened inside
  it become its children automatically.
* ``token = tel.begin("step", ...); ...; tel.end(token)`` — interleaved
  work (the shard-parallel trainer runs many models' steps concurrently on
  one thread), where spans overlap and cannot nest lexically.  ``begin``
  captures the current stack top as the parent but does not push.

The disabled path is :class:`NullTelemetry` — a picklable singleton whose
``span`` returns one shared no-op context manager and whose other calls do
nothing.  Instrumentation sites call the recorder unguarded, in one form
whether it records or not; the E16 benchmark
(``benchmarks/test_bench_telemetry.py``) holds that disabled path to <3%
overhead on the training hotpath and the serving loop.

Export targets: :meth:`Telemetry.export_chrome_trace` writes the Chrome /
Perfetto ``trace.json`` format (load it at ``ui.perfetto.dev`` or
``chrome://tracing``); :meth:`Telemetry.export_jsonl` writes one event per
line for programmatic consumers.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Any, Dict, Iterable, List, Optional

from repro.telemetry.metrics import MetricsRegistry

#: default bound on the in-memory event buffer; overflow increments
#: ``Telemetry.dropped`` instead of growing without limit
DEFAULT_MAX_EVENTS = 200_000


class _SpanToken:
    """An open span: returned by ``begin`` / yielded by ``span``."""

    __slots__ = ("name", "cat", "attrs", "start", "span_id", "parent_id", "tid")

    def __init__(
        self,
        name: str,
        cat: str,
        attrs: Dict[str, Any],
        start: float,
        span_id: str,
        parent_id: Optional[str],
        tid: int,
    ):
        self.name = name
        self.cat = cat
        self.attrs = attrs
        self.start = start
        self.span_id = span_id
        self.parent_id = parent_id
        self.tid = tid


class _Span:
    """Context-manager shape of a span (pushes onto the thread-local stack)."""

    __slots__ = ("_telemetry", "_token")

    def __init__(self, telemetry: "Telemetry", token: _SpanToken):
        self._telemetry = telemetry
        self._token = token

    def __enter__(self) -> _SpanToken:
        self._telemetry._stack().append(self._token)
        return self._token

    def __exit__(self, *exc_info: Any) -> bool:
        stack = self._telemetry._stack()
        if stack and stack[-1] is self._token:
            stack.pop()
        else:  # pragma: no cover - exit out of order (generator teardown)
            try:
                stack.remove(self._token)
            except ValueError:
                pass
        self._telemetry.end(self._token)
        return False


class _NullSpan:
    """The shared no-op span of :class:`NullTelemetry`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Telemetry:
    """Records spans, instants, and metrics for one process (see module docstring).

    Example::

        tel = Telemetry()
        with tel.span("experiment", name="demo"):
            with tel.span("trial", trial_id="grid-0"):
                ...
        tel.export_chrome_trace("trace.json")

    ``max_events`` bounds the buffer; past it new events are counted in
    :attr:`dropped` and discarded (never torn — an event is either whole in
    the buffer or absent).  The instance is thread-safe but deliberately
    not picklable: cross the process boundary with an ``enabled`` flag and
    :meth:`drain`/:meth:`ingest`, never with the recorder object.
    """

    enabled = True

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS):
        self._lock = threading.Lock()
        self._events: List[Dict[str, Any]] = []
        self._max_events = int(max_events)
        self.dropped = 0
        self._pid = os.getpid()
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self.metrics = MetricsRegistry()

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> List[_SpanToken]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _open(self, name: str, cat: str, attrs: Dict[str, Any]) -> _SpanToken:
        stack = self._stack()
        parent = stack[-1].span_id if stack else None
        return _SpanToken(
            name=name,
            cat=cat,
            attrs=attrs,
            start=time.monotonic(),
            span_id=f"{self._pid}:{next(self._ids)}",
            parent_id=parent,
            tid=threading.get_ident(),
        )

    def span(self, name: str, cat: str = "repro", **attrs: Any) -> _Span:
        """A context manager recording one nested span."""
        return _Span(self, self._open(name, cat, attrs))

    def begin(self, name: str, cat: str = "repro", **attrs: Any) -> _SpanToken:
        """Open an interleaved span (closed by :meth:`end`; never stacked)."""
        return self._open(name, cat, attrs)

    def end(self, token: _SpanToken) -> None:
        """Close a span and commit it to the buffer."""
        self._append(
            {
                "name": token.name,
                "cat": token.cat,
                "ph": "X",
                "ts": token.start,
                "dur": time.monotonic() - token.start,
                "pid": self._pid,
                "tid": token.tid,
                "id": token.span_id,
                "parent": token.parent_id,
                "args": token.attrs,
            }
        )

    def event(self, name: str, cat: str = "repro", **attrs: Any) -> None:
        """Record one instant (zero-duration) event."""
        stack = self._stack()
        self._append(
            {
                "name": name,
                "cat": cat,
                "ph": "i",
                "ts": time.monotonic(),
                "pid": self._pid,
                "tid": threading.get_ident(),
                "id": f"{self._pid}:{next(self._ids)}",
                "parent": stack[-1].span_id if stack else None,
                "args": attrs,
            }
        )

    def _append(self, event: Dict[str, Any]) -> None:
        with self._lock:
            if len(self._events) >= self._max_events:
                self.dropped += 1
                return
            self._events.append(event)

    # ------------------------------------------------------------------ #
    # Cross-process collection
    # ------------------------------------------------------------------ #
    def drain(self) -> List[Dict[str, Any]]:
        """Take (and clear) the buffered events — the child side of a flush."""
        with self._lock:
            events, self._events = self._events, []
        return events

    def ingest(self, events: Iterable[Dict[str, Any]]) -> None:
        """Merge events drained from another recorder (typically a child).

        Events keep their original pid/tid/ids, so a Chrome trace shows the
        child's spans in the child's own process track.  Only whole dicts
        arrive (the flush rides a completed result message), so a killed
        child loses its unflushed buffer but can never tear the timeline.
        """
        with self._lock:
            for event in events:
                if len(self._events) >= self._max_events:
                    self.dropped += 1
                    continue
                self._events.append(dict(event))

    def events(self) -> List[Dict[str, Any]]:
        """A snapshot copy of the buffered events."""
        with self._lock:
            return [dict(event) for event in self._events]

    # ------------------------------------------------------------------ #
    # Metrics facade
    # ------------------------------------------------------------------ #
    def counter(self, name: str, value: float = 1.0) -> None:
        """Increment a named monotonic counter."""
        self.metrics.counter(name, value)

    def gauge(self, name: str, value: float) -> None:
        """Set a named gauge to its latest value."""
        self.metrics.gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        """Add one observation to a named histogram."""
        self.metrics.observe(name, value)

    def register_collector(self, name: str, fn) -> None:
        """Register a callback polled at snapshot time (absorbs live stats)."""
        self.metrics.register_collector(name, fn)

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The registry's unified snapshot (see :mod:`repro.telemetry.schema`)."""
        return self.metrics.snapshot()

    def prometheus_text(self) -> str:
        """The registry in Prometheus text exposition format."""
        return self.metrics.prometheus_text()

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def _origin(self, events: List[Dict[str, Any]]) -> float:
        return min((event["ts"] for event in events), default=0.0)

    def export_chrome_trace(self, path) -> str:
        """Write the buffer as Chrome/Perfetto ``trace.json``; return the path.

        Spans become complete (``"X"``) events, instants become ``"i"``
        events, and each distinct pid gets a ``process_name`` metadata row
        (``main`` for this recorder's process, ``child`` for ingested ones).
        Timestamps are microseconds relative to the earliest event.
        """
        events = self.events()
        origin = self._origin(events)
        trace: List[Dict[str, Any]] = []
        for pid in sorted({event["pid"] for event in events}):
            label = "main" if pid == self._pid else "child"
            trace.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": f"{label} (pid {pid})"},
                }
            )
        for event in events:
            row: Dict[str, Any] = {
                "name": event["name"],
                "cat": event["cat"],
                "ph": event["ph"],
                "ts": (event["ts"] - origin) * 1e6,
                "pid": event["pid"],
                "tid": event["tid"],
                "args": dict(event["args"], id=event["id"], parent=event["parent"]),
            }
            if event["ph"] == "X":
                row["dur"] = event["dur"] * 1e6
            else:
                row["s"] = "t"
            trace.append(row)
        payload = {"traceEvents": trace, "displayTimeUnit": "ms"}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        return str(path)

    def export_jsonl(self, path) -> str:
        """Write the buffer as one JSON event per line; return the path.

        Timestamps are seconds relative to the earliest event (monotonic
        origin), durations are seconds; everything else is the raw event.
        """
        events = self.events()
        origin = self._origin(events)
        with open(path, "w", encoding="utf-8") as handle:
            for event in events:
                row = dict(event, ts=event["ts"] - origin)
                handle.write(json.dumps(row) + "\n")
        return str(path)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            return (
                f"Telemetry({len(self._events)} events, dropped={self.dropped}, "
                f"pid={self._pid})"
            )


def _null_telemetry() -> "NullTelemetry":
    return NULL_TELEMETRY


class NullTelemetry:
    """The disabled recorder: every operation is a no-op.

    There is one shared instance, :data:`NULL_TELEMETRY`; it pickles back
    to itself, so backends carrying it cross process boundaries for free.
    Instrumentation sites call it exactly as they call a live recorder:
    ``span`` hands back one shared no-op context manager, ``begin`` returns
    ``None`` (which ``end`` accepts), and everything else returns at once.
    :attr:`enabled` is only read to tell a child process whether to build
    its own recorder.
    """

    enabled = False

    def span(self, name: str, cat: str = "repro", **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def begin(self, name: str, cat: str = "repro", **attrs: Any) -> None:
        return None

    def end(self, token: Any) -> None:
        pass

    def event(self, name: str, cat: str = "repro", **attrs: Any) -> None:
        pass

    def drain(self) -> List[Dict[str, Any]]:
        return []

    def ingest(self, events: Iterable[Dict[str, Any]]) -> None:
        pass

    def events(self) -> List[Dict[str, Any]]:
        return []

    def counter(self, name: str, value: float = 1.0) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def register_collector(self, name: str, fn) -> None:
        pass

    def metrics_snapshot(self) -> Dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}, "collectors": {}}

    def prometheus_text(self) -> str:
        return ""

    def __reduce__(self):
        return (_null_telemetry, ())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullTelemetry()"


#: the shared disabled recorder every instrumented component defaults to
NULL_TELEMETRY = NullTelemetry()
