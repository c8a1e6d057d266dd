"""Spans around the program's public functions, recorded on a ``repro`` Telemetry.

The benchmark does not add spans inside ``src/``.  Instead, for a traced
run, :class:`Wrappers` replaces chosen methods of the program's classes
with wrappers that open a span on a :class:`repro.telemetry.Telemetry`
for the length of each call, then puts the originals back.  The recorder
keeps the spans in memory with their thread and parent links;
:func:`span_times` derives each span's *self time* afterwards (its
duration minus the spans it directly encloses on the same thread), so work
other threads do meanwhile (prefetch workers, router workers) is charged to
their own spans.
"""

from __future__ import annotations

import functools
import threading
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple


class Wrappers:
    """Installs span-recording wrappers on a telemetry recorder and removes them."""

    def __init__(self, telemetry) -> None:
        self.telemetry = telemetry
        #: thread ident -> thread name, for every thread that opened a span
        self.thread_names: Dict[int, str] = {}
        self._installed: List[Tuple[Any, str, Any]] = []

    def _span(self, name: str, **attrs: Any):
        ident = threading.get_ident()
        if ident not in self.thread_names:
            self.thread_names[ident] = threading.current_thread().name
        return self.telemetry.span(name, cat=name.split(".", 1)[0], **attrs)

    def wrap(
        self,
        owner: Any,
        attribute: str,
        span: str,
        counter: Optional[str] = None,
        detail: Optional[Callable[..., Any]] = None,
    ) -> None:
        """Record every call of ``owner.attribute`` as span ``span``.

        ``counter``, when given, is bumped once per call as well.
        ``detail(*args)``, when given, is stored as the span's ``detail``
        attribute (see :func:`span_times`).
        """
        raw = owner.__dict__[attribute]
        static = isinstance(raw, staticmethod)
        original = raw.__func__ if static else raw
        wrappers = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            attrs = {} if detail is None else {"detail": detail(*args)}
            try:
                with wrappers._span(span, **attrs):
                    return original(*args, **kwargs)
            finally:
                if counter is not None:
                    wrappers.telemetry.counter(counter)

        self._install(owner, attribute, raw, staticmethod(wrapper) if static else wrapper)

    def wrap_count(self, owner: Any, attribute: str, counter: str) -> None:
        """Count calls of ``owner.attribute`` without timing them."""
        original = owner.__dict__[attribute]
        telemetry = self.telemetry

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            telemetry.counter(counter)
            return original(*args, **kwargs)

        self._install(owner, attribute, original, wrapper)

    def wrap_iterator(self, owner: Any, attribute: str, span: str, counter: str) -> None:
        """Record each ``next()`` on the iterators ``owner.attribute()`` returns."""
        original = owner.__dict__[attribute]
        wrappers = self

        def timed(inner):
            while True:
                with wrappers._span(span):
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                wrappers.telemetry.counter(counter)
                yield item

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return timed(iter(original(*args, **kwargs)))

        self._install(owner, attribute, original, wrapper)

    def wrap_init(self, owner: type, sink: List[Any]) -> None:
        """Append every instance of ``owner`` built while installed to ``sink``."""
        original = owner.__dict__["__init__"]

        @functools.wraps(original)
        def wrapper(instance, *args, **kwargs):
            original(instance, *args, **kwargs)
            sink.append(instance)

        self._install(owner, "__init__", original, wrapper)

    def _install(self, owner: Any, attribute: str, original: Any, replacement: Any) -> None:
        self._installed.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        """Put every original back (in reverse order of installation)."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)


class SpanTimes:
    """Self and inclusive seconds and calls per span, derived from recorded events."""

    def __init__(self, events: List[Dict[str, Any]], thread_names: Dict[int, str]):
        enclosed: Dict[str, float] = defaultdict(float)
        spans = [event for event in events if event["ph"] == "X"]
        for event in spans:
            if event["parent"] is not None:
                enclosed[event["parent"]] += event["dur"]
        #: (span name, thread name) -> [self s, total s, calls]
        self.rows: Dict[Tuple[str, str], List[float]] = defaultdict(lambda: [0.0, 0.0, 0])
        #: (span name, detail) -> [self s, calls], for spans recorded with a detail
        self.details: Dict[Tuple[str, Any], List[float]] = defaultdict(lambda: [0.0, 0])
        for event in spans:
            own = event["dur"] - enclosed.get(event["id"], 0.0)
            thread = thread_names.get(event["tid"], str(event["tid"]))
            row = self.rows[(event["name"], thread)]
            row[0] += own
            row[1] += event["dur"]
            row[2] += 1
            if "detail" in event["args"]:
                detail = self.details[(event["name"], event["args"]["detail"])]
                detail[0] += own
                detail[1] += 1

    def self_seconds(self, span: str) -> float:
        """Self time of ``span`` summed over every thread."""
        return sum(row[0] for (name, _), row in self.rows.items() if name == span)

    def total_seconds(self, span: str) -> float:
        """Inclusive time of ``span`` summed over every thread."""
        return sum(row[1] for (name, _), row in self.rows.items() if name == span)

    def calls(self, span: str) -> int:
        """How many ``span`` spans closed."""
        return sum(row[2] for (name, _), row in self.rows.items() if name == span)

    def table(self, limit: int = 40) -> str:
        """Self and inclusive time per span name and thread, largest self first."""
        lines = [f"{'span':<34} {'thread':<26} {'self_s':>9} {'total_s':>9} {'calls':>8}"]
        ordered = sorted(self.rows.items(), key=lambda item: item[1][0], reverse=True)
        for (name, thread), (own, total, calls) in ordered[:limit]:
            lines.append(f"{name:<34} {thread[:26]:<26} {own:>9.4f} {total:>9.4f} {calls:>8d}")
        return "\n".join(lines)


def install_layers(
    wrappers: Wrappers, managers: List[Any], shard_detail: Optional[Callable[..., Any]] = None
) -> None:
    """Wrap the public entry points of every layer the per-layer metrics name.

    ``managers`` receives every ``SpillManager`` built while installed, so
    the memory counters can be read from their own stats afterwards.
    ``shard_detail`` keys the shard forward/backward spans (see
    :meth:`Wrappers.wrap`).
    """
    from repro.api import Experiment
    from repro.api.backends.shard_parallel import ShardParallelBackend
    from repro.api.runtime import pool, runner
    from repro.data.dataloader import DataLoader
    from repro.memory.host_cache import HostShardCache
    from repro.memory.spill import SpillManager
    from repro.models.base import ShardableModel
    from repro.optim.optimizer import Optimizer
    from repro.serving.registry import ModelRegistry
    from repro.serving.router import FleetRouter
    from repro.training.sharded_trainer import ShardedModelExecutor, ShardParallelTrainer

    wrappers.wrap(Experiment, "run", "api.experiment")
    wrappers.wrap(ShardParallelBackend, "prepare", "api.prepare")
    wrappers.wrap(ShardParallelBackend, "teardown", "api.teardown")

    wrappers.wrap(pool._ChildWorker, "__init__", "api.runtime.pool_start")
    wrappers.wrap(runner.AsyncTrialRunner, "run_cohort", "api.runtime.task_wait")
    wrappers.wrap_count(pool.ProcessWorkerPool, "submit_retrying", "api.runtime.tasks")
    wrappers.wrap_count(pool.ProcessWorkerPool, "submit", "api.runtime.tasks")
    wrappers.wrap_count(runner.RetryPolicy, "delay", "api.runtime.retries")

    wrappers.wrap_iterator(DataLoader, "__iter__", "data.fetch", "data.batches")

    wrappers.wrap(ShardParallelTrainer, "train_epoch", "training.epoch")
    wrappers.wrap(ShardedModelExecutor, "run_forward", "training.forward", detail=shard_detail)
    wrappers.wrap(ShardedModelExecutor, "compute_loss", "training.loss", counter="training.steps")
    wrappers.wrap(ShardedModelExecutor, "run_backward", "training.backward", detail=shard_detail)

    wrappers.wrap(Optimizer, "step", "optim.step")
    wrappers.wrap(Optimizer, "step_params", "optim.step")
    wrappers.wrap_count(Optimizer, "advance_step", "optim.steps")

    wrappers.wrap_init(SpillManager, managers)
    wrappers.wrap(SpillManager, "acquire", "memory.acquire")
    wrappers.wrap(SpillManager, "prefetch", "memory.prefetch")
    wrappers.wrap(SpillManager, "_copy_into_live_arrays", "memory.copy")
    wrappers.wrap(HostShardCache, "put", "memory.cache_put")
    wrappers.wrap(HostShardCache, "take", "memory.cache_take")

    wrappers.wrap(ModelRegistry, "publish", "serving.registry.publish")
    wrappers.wrap(ModelRegistry, "load", "serving.registry.load")
    wrappers.wrap(FleetRouter, "submit", "serving.router.submit")
    wrappers.wrap(ShardableModel, "forward", "serving.router.forward")
