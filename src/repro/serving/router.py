"""The serving engine: one replica pool and one memory budget for many models.

A :class:`FleetRouter` serves one model or a whole fleet — the paper's
framing (many models sharing one memory budget) carried to the inference
side; a single-model deployment (:func:`repro.api.serve`) is a router with
one model.  One router owns, for *every* model it serves:

* **one worker pool** — ``replicas`` worker threads on the runtime's
  :class:`~repro.api.runtime.pool.WorkerPool`, each repeatedly asking the
  scheduler for ``(model, replica, micro-batch)`` work;
* **one spill budget** — a single :class:`~repro.memory.SpillManager`
  arena that all fleet-budgeted models' parameters are charged against.
  Each such model is registered *whole* (Hydra-style: models move as units,
  not layer fragments): hot models stay device-resident, cold models are
  evicted to the host cache under pressure and restored on demand, so the
  fleet's total parameter bytes may exceed the budget;
* **one scheduler** — per-model waiting queues, each drained by micro-batch.

**Replicas.**  Every model entry holds a list of replicas and the idle ones
that can take its next batch.  A fleet-budgeted model has one shared
:class:`~repro.serving.replica.Replica` that every worker may run at once
(under a lease on the shared budget).  *Private* replicas — the resident,
spilled, or :class:`~repro.api.runtime.proc.ProcessReplica` copies that
``serve()`` builds, or a :class:`~repro.api.runtime.proc.ModelSpec`'s child
— run one batch at a time, so a model with no idle replica is skipped
while others have work.

**Batching.**  By default a model is batched *continuously*: the moment a
worker is free and its queue is non-empty, a micro-batch forms from
whatever requests are ready *now* (whole requests, FIFO per model, up to
the model's ``max_batch_size`` rows).  Under fleet load there is always
other work to run, so idling a worker to fatten one batch only adds
latency.  A model added with ``max_wait_ms > 0`` instead holds a partial
batch for up to that long after its *head* request arrived; a *saturated*
batch — full, or blocked by a next request that does not fit (requests are
never split) — dispatches at once.  A windowed model's wait never blocks
another model's dispatch.

**Weighted-fair selection.**  Queues are picked by stride scheduling:
every model carries a ``pass`` value advanced by ``rows / weight`` each
time it is served, and the ready queue with the smallest pass goes next.
A model with twice the weight gets twice the rows over time, and no
backlogged model can be starved — its pass stops advancing while others'
grow.  A model whose queue was empty re-enters at the scheduler's current
virtual time, so an idle model cannot bank credit and then monopolise the
pool.

**Cold models.**  Serving an evicted model means restoring its bytes
first, so the scheduler prefers hot work while a restore is in flight: if
the fair pick is evicted and a resident model also has work, the resident
one runs, the cold model's restore is kicked off in the background
(prefetch), and a skip counter guarantees the cold model is served
unconditionally after at most ``max_cold_skips`` deferrals — bounded
unfairness, never starvation.  Arrival at an evicted model's queue also
triggers a prefetch, so restores overlap other models' compute.

**Exactness.**  Every model executes at its own fixed compute geometry
(micro-batches padded via :func:`~repro.serving.replica.pad_rows`), and
evict/restore round-trips are bit-exact, so a fleet answer is
``array_equal`` to a dedicated single-model deployment at the same
geometry — whether the model happened to be resident or evicted.

Requests are never reordered within a model, and a request whose deadline
passes while queued fails with
:class:`~repro.exceptions.RequestTimeoutError` *before* inference runs.

A watchdog thread (SGLang-style) observes the scheduler from outside:
every ``watchdog_interval_s`` it logs per-batch throughput and queue
depths, and flags a stall when requests are queued but no batch completed
over a whole interval.
"""

from __future__ import annotations

import contextlib
import logging
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.exceptions import (
    ConfigurationError,
    RequestTimeoutError,
    ServerOverloadedError,
    ServingError,
)
from repro.memory import (
    DeviceArena,
    HostShardCache,
    Prefetcher,
    ResidencyState,
    SpillManager,
)
from repro.serving.replica import Replica, concat_rows, request_rows, slice_rows
from repro.serving.stats import ServerStats
from repro.telemetry import NULL_TELEMETRY
from repro.utils.logging import log_context

logger = logging.getLogger(__name__)

#: arena name of the fleet's single shared serving device
_FLEET_ARENA = "fleet0"
#: arena capacity standing in for "no budget" (effectively unbounded)
_UNBOUNDED = 1 << 62


#: request payload: a field->array dict, or a bare array for the default field
RequestArrays = Union[Dict[str, np.ndarray], np.ndarray]


class PendingResponse:
    """The caller-side handle of one in-flight request.

    Completed exactly once by the serving machinery, either with the
    request's output rows or with an exception (timeout, overload at drain,
    replica failure).  ``result`` blocks the calling thread — the closed-loop
    client model — with an optional wait bound of its own.
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self._value: Any = None
        self._error: Optional[BaseException] = None
        #: ``time.monotonic()`` at completion — what open-loop load
        #: generation measures latency against (the caller may collect
        #: results long after they landed)
        self.completed_at: Optional[float] = None

    def done(self) -> bool:
        """Whether a result or error has landed."""
        return self._event.is_set()

    def set_result(self, value: Any) -> None:
        """Complete the response with the request's output rows."""
        self._value = value
        self.completed_at = time.monotonic()
        self._event.set()

    def set_exception(self, error: BaseException) -> None:
        """Complete the response with a failure."""
        self._error = error
        self.completed_at = time.monotonic()
        self._event.set()

    def result(self, timeout: Optional[float] = None) -> Any:
        """The request's output rows; raises what the request failed with.

        ``timeout`` (seconds) bounds the wait; running out raises
        :class:`~repro.exceptions.RequestTimeoutError`.
        """
        if not self._event.wait(timeout):
            raise RequestTimeoutError(
                f"no response within {timeout:.3f}s wait"
            )
        if self._error is not None:
            raise self._error
        return self._value


@dataclass
class InferenceRequest:
    """One queued inference request (internal to the serving machinery)."""

    arrays: Dict[str, np.ndarray]
    rows: int
    submitted: float
    deadline: Optional[float] = None
    response: PendingResponse = field(default_factory=PendingResponse)

    def expired(self, now: float) -> bool:
        """Whether the request's deadline has passed."""
        return self.deadline is not None and now >= self.deadline


@dataclass
class ModelEntry:
    """One model under the router's management (internal to the router).

    Holds the model's queue, replicas, batching geometry, fill window,
    fair-share state, and — when ``budgeted`` — its whole-model key in the
    shared spill manager.
    """

    name: str
    replicas: List[Any]
    weight: float
    max_batch_size: int
    compute_batch_size: int
    max_queue: int
    #: fill window after the head request arrived; 0 = continuous batching
    max_wait_seconds: float
    #: bytes charged to the shared budget (0 for private replicas)
    nbytes: int
    #: registered whole against the fleet budget: the one replica is shared
    #: by every worker under a lease; otherwise each replica is private and
    #: runs one batch at a time
    budgeted: bool
    queue: List[InferenceRequest] = field(default_factory=list)
    #: replicas free to take the next batch
    idle: List[Any] = field(default_factory=list)
    #: stride-scheduling pass value — served rows / weight, monotone
    pass_value: float = 0.0
    #: consecutive times the scheduler deferred this model while evicted
    cold_skips: int = 0

    @property
    def key(self) -> Tuple[str, int]:
        """The model's whole-model shard key in the shared spill manager."""
        return (self.name, 0)

    def saturated(self) -> bool:
        """Whether the collectable batch can no longer grow.

        It cannot when the queued prefix already fills ``max_batch_size``
        rows, or when the first uncollectable request would overflow the
        batch (requests are never split, so waiting cannot add it).  Every
        request fits a batch on its own, so either holds exactly when the
        queue holds at least ``max_batch_size`` rows.
        """
        return sum(request.rows for request in self.queue) >= self.max_batch_size


class RouterHandle:
    """A single-model view of a router: what ``serve()`` returns.

    ``handle = router.handle("mlp-a")`` gives load generators and client
    code the ``submit``/``request``/``metrics`` surface without threading
    the model name through every call.  Lifecycle calls (``start``/``stop``,
    the context manager) act on the whole router — for a ``serve()``
    deployment that router holds just this model.
    """

    def __init__(self, router: "FleetRouter", model: str):
        self.router = router
        self.model = model

    def submit(
        self, arrays: RequestArrays, timeout_ms: Optional[float] = None
    ) -> PendingResponse:
        """Enqueue one request for this handle's model."""
        return self.router.submit(self.model, arrays, timeout_ms=timeout_ms)

    def request(
        self, arrays: RequestArrays, timeout_ms: Optional[float] = None
    ) -> Any:
        """Synchronous convenience: submit then wait for the rows."""
        return self.router.request(self.model, arrays, timeout_ms=timeout_ms)

    def metrics(self, window_seconds: Optional[float] = None) -> Dict[str, float]:
        """This model's latency/throughput snapshot."""
        return self.router.stats.for_model(self.model).snapshot(
            window_seconds=window_seconds
        )

    @property
    def entry(self) -> ModelEntry:
        """The router's entry for this model (its replicas, queue, geometry)."""
        return self.router._entry(self.model)

    @property
    def queue_depth(self) -> int:
        """Requests of this model currently waiting for a replica."""
        return self.router.queue_depths[self.model]

    def start(self) -> "RouterHandle":
        """Start the router."""
        self.router.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop the router; with ``drain`` (default) queued requests finish."""
        self.router.stop(drain=drain)

    def __enter__(self) -> "RouterHandle":
        """Start the router on scope entry."""
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        """Stop the router (draining queued requests) on scope exit."""
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RouterHandle({self.model!r} on {self.router.name!r})"


class FleetRouter:
    """Serves every registered model through one pool and one budget.

    Example::

        router = FleetRouter(memory_budget=budget, replicas=2)
        router.add_model("mlp-a", model_a)
        router.add_model("mlp-b", model_b, weight=2.0)
        with router:
            logits = router.request("mlp-a", {"features": x})
            report = router.metrics()

    ``memory_budget`` (bytes) bounds the fleet-budgeted models' combined
    device residency; ``None`` keeps every model resident.  ``replicas`` is
    the worker count.  ``max_batch_size`` / ``max_queue`` are fleet-wide
    defaults that :meth:`add_model` can override per model; ``timeout_ms``
    is the default per-request deadline.  ``max_cold_skips`` bounds how
    often the scheduler may defer an evicted model in favour of resident
    work.

    Raises:
        ConfigurationError: for invalid counts/budgets, unknown or duplicate
            model names, or a model larger than the budget.
        ServingError: from the request path when the router is not running.
        ServerOverloadedError: when the target model's queue is full.
    """

    def __init__(
        self,
        memory_budget: Optional[int] = None,
        replicas: int = 2,
        max_batch_size: int = 8,
        max_queue: int = 64,
        timeout_ms: Optional[float] = None,
        eviction_policy: str = "lru",
        prefetch: bool = True,
        scrub_evicted: bool = False,
        spill_dir: Optional[str] = None,
        max_cold_skips: int = 3,
        watchdog_interval_s: Optional[float] = 5.0,
        feature_field: str = "features",
        name: str = "fleet",
        telemetry=None,
    ):
        if replicas <= 0:
            raise ConfigurationError(f"replicas must be positive, got {replicas}")
        if max_batch_size <= 0:
            raise ConfigurationError(
                f"max_batch_size must be positive, got {max_batch_size}"
            )
        if max_queue <= 0:
            raise ConfigurationError(f"max_queue must be positive, got {max_queue}")
        if memory_budget is not None and memory_budget <= 0:
            raise ConfigurationError(
                f"memory_budget must be positive, got {memory_budget}"
            )
        if timeout_ms is not None and timeout_ms <= 0:
            raise ConfigurationError(f"timeout_ms must be positive, got {timeout_ms}")
        if max_cold_skips < 0:
            raise ConfigurationError(
                f"max_cold_skips must be >= 0, got {max_cold_skips}"
            )
        self.name = name
        self.replicas = int(replicas)
        self.max_batch_size = int(max_batch_size)
        self.max_queue = int(max_queue)
        self.timeout_ms = timeout_ms
        self.feature_field = feature_field
        self.max_cold_skips = int(max_cold_skips)
        self.watchdog_interval_s = watchdog_interval_s
        self._budget = None if memory_budget is None else int(memory_budget)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._manager = SpillManager(
            [DeviceArena(_FLEET_ARENA, self._budget or _UNBOUNDED)],
            cache=HostShardCache(spill_dir=spill_dir),
            policy=eviction_policy,
            prefetcher=Prefetcher() if prefetch else None,
            scrub_evicted=scrub_evicted,
            telemetry=self.telemetry,
        )
        self.stats = ServerStats()
        self._entries: Dict[str, ModelEntry] = {}
        self._cond = threading.Condition()
        self._virtual_time = 0.0
        self._batches_dispatched = 0
        self._stalls = 0
        self._pool = None
        self._loops: List[Any] = []
        self._watchdog: Optional[threading.Thread] = None
        self._watchdog_stop = threading.Event()
        self._running = False
        self._stopped = False
        self._closed = False

    # ------------------------------------------------------------------ #
    # Fleet membership
    # ------------------------------------------------------------------ #
    def add_model(
        self,
        name: str,
        model: Any,
        weight: float = 1.0,
        max_batch_size: Optional[int] = None,
        compute_batch_size: Optional[int] = None,
        max_queue: Optional[int] = None,
        max_wait_ms: float = 0.0,
    ) -> ModelEntry:
        """Register one model with the router (before or while serving).

        ``model`` is one of:

        * a :class:`~repro.models.base.ShardableModel` — put in ``eval``
          mode and registered *whole* against the shared budget; its one
          resident replica runs on every worker at once;
        * a :class:`~repro.api.runtime.proc.ModelSpec` — served by one
          :class:`~repro.api.runtime.proc.ProcessReplica` that mmaps the
          spec's registry weights read-only in a child process (never
          charged to the budget: its bytes live in the shared page cache);
        * a list of replicas (:class:`~repro.serving.replica.Replica` or
          ``ProcessReplica``) — private copies, each running one batch at a
          time; the router closes them on :meth:`stop`.

        ``weight`` scales the model's fair share of the pool;
        ``max_batch_size``/``compute_batch_size``/``max_queue`` default to
        the router-wide settings.  The compute geometry must match any
        dedicated deployment the model's responses are compared against —
        exactness is per-geometry.  ``max_wait_ms`` is the model's fill
        window (0 = continuous batching; see the module docstring).
        """
        if self._stopped:
            raise ServingError(
                f"router {self.name!r} was stopped; build a new router"
            )
        if weight <= 0:
            raise ConfigurationError(f"weight must be positive, got {weight}")
        if max_wait_ms < 0:
            raise ConfigurationError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        batch = int(max_batch_size) if max_batch_size is not None else self.max_batch_size
        compute = int(compute_batch_size) if compute_batch_size is not None else batch
        queue_limit = int(max_queue) if max_queue is not None else self.max_queue
        if batch <= 0 or queue_limit <= 0:
            raise ConfigurationError(
                f"max_batch_size ({batch}) and max_queue ({queue_limit}) must be positive"
            )
        if compute < batch:
            raise ConfigurationError(
                f"compute_batch_size ({compute}) must be >= max_batch_size ({batch})"
            )
        # Imported lazily: repro.api initialisation imports the serving
        # facade, which imports this package (same cycle start() breaks).
        from repro.api.runtime.proc import ModelSpec, ProcessReplica

        budgeted = False
        nbytes = 0
        if isinstance(model, ModelSpec):
            # Child spawns lazily; it inherits the router's telemetry flag so
            # its forward spans flow back through the reply channel.
            replicas = [ProcessReplica(model, name=name, telemetry=self.telemetry)]
        elif isinstance(model, (list, tuple)):
            if not model:
                raise ConfigurationError(f"model {name!r} needs at least one replica")
            replicas = list(model)
        else:
            replicas = [Replica.resident(model, name=name)]
            budgeted = True
            nbytes = sum(p.data.nbytes for p in model.parameters())
            if self._budget is not None and nbytes > self._budget:
                raise ConfigurationError(
                    f"model {name!r} needs {nbytes} bytes but the fleet budget is "
                    f"{self._budget}; a model must fit the budget whole"
                )
        entry = ModelEntry(
            name=name,
            replicas=replicas,
            weight=float(weight),
            max_batch_size=batch,
            compute_batch_size=compute,
            max_queue=queue_limit,
            max_wait_seconds=float(max_wait_ms) / 1e3,
            nbytes=nbytes,
            budgeted=budgeted,
            idle=list(replicas),
        )
        with self._cond:
            if name in self._entries:
                if not budgeted:
                    for replica in replicas:
                        replica.close()
                raise ConfigurationError(
                    f"model {name!r} is already registered with router {self.name!r}"
                )
            self._entries[name] = entry
            # A newly added model starts at the scheduler's virtual time so
            # it cannot claim the pool retroactively for epochs it sat out.
            entry.pass_value = self._virtual_time
        if budgeted:
            self._manager.register(
                entry.key,
                _FLEET_ARENA,
                nbytes,
                lambda model=model: [p.data for p in model.parameters()],
            )
        self.stats.for_model(name)  # a zeroed row in reports from day one
        return entry

    @property
    def models(self) -> List[str]:
        """Registered model names, sorted."""
        with self._cond:
            return sorted(self._entries)

    def handle(self, model: str) -> RouterHandle:
        """A single-model view of one model (for load generators, clients)."""
        self._entry(model)
        return RouterHandle(self, model)

    def resident_models(self) -> List[str]:
        """Models whose parameters are currently on the serving device."""
        return [key[0] for key in self._manager.resident_keys()]

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "FleetRouter":
        """Start the worker pool (and watchdog); models may be added later."""
        if self._running:
            return self
        if self._stopped:
            raise ServingError(
                f"router {self.name!r} was stopped; build a new router"
            )
        # Imported lazily: repro.api initialisation imports the serving
        # facade, which imports this package.
        from repro.api.runtime.pool import ThreadWorkerPool

        if self.telemetry.enabled:
            self.telemetry.register_collector(f"router.{self.name}", self.metrics)
        self._pool = ThreadWorkerPool(self.replicas)
        self._running = True
        self._loops = [
            self._pool.submit(self._serve_loop) for _ in range(self.replicas)
        ]
        if self.watchdog_interval_s is not None and self.watchdog_interval_s > 0:
            self._watchdog_stop.clear()
            self._watchdog = threading.Thread(
                target=self._watchdog_loop,
                name=f"{self.name}-watchdog",
                daemon=True,
            )
            self._watchdog.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop the router; with ``drain`` (default) queued requests finish.

        Stopping releases the shared spill state: every model's canonical
        bytes are restored into its live parameter arrays (an evicted
        model's truth lives in the host cache until then), so the model
        objects remain usable after the router lets go.
        """
        if not self._running:
            return
        cancelled: List[InferenceRequest] = []
        with self._cond:
            self._closed = True
            if not drain:
                for entry in self._entries.values():
                    if entry.queue:
                        self.stats.count(entry.name, failed=len(entry.queue))
                        cancelled.extend(entry.queue)
                        entry.queue = []
            self._cond.notify_all()
        for request in cancelled:
            request.response.set_exception(ServingError("router stopped"))
        try:
            for future in self._loops:
                future.result()
        finally:
            self._running = False
            self._stopped = True
            self._loops = []
            self._watchdog_stop.set()
            if self._watchdog is not None:
                self._watchdog.join(timeout=5.0)
                self._watchdog = None
            if self._pool is not None:
                self._pool.shutdown()
                self._pool = None
            for name, entry in list(self._entries.items()):
                for replica in entry.replicas:
                    replica.close()
                if entry.budgeted:
                    self._manager.forget_model(name)
            self._manager.close()

    def __enter__(self) -> "FleetRouter":
        """Start the router on scope entry."""
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        """Stop the router (draining queued requests) on scope exit."""
        self.stop()

    # ------------------------------------------------------------------ #
    # Request path
    # ------------------------------------------------------------------ #
    def submit(
        self,
        model: str,
        arrays: RequestArrays,
        timeout_ms: Optional[float] = None,
    ) -> PendingResponse:
        """Enqueue one request for ``model`` and return its response handle.

        Admission control is **per model**: a full queue for one model
        rejects that model's traffic only — the rest of the fleet keeps
        accepting.  Arrival at an evicted model's queue kicks off its
        restore in the background so the bytes travel while other models
        compute.
        """
        if not self._running:
            raise ServingError(f"router {self.name!r} is not running; call start()")
        entry = self._entry(model)
        if isinstance(arrays, np.ndarray):
            arrays = {self.feature_field: arrays}
        arrays = {name: np.asarray(values) for name, values in arrays.items()}
        rows = request_rows(arrays)
        if rows <= 0:
            raise ConfigurationError("a request must carry at least one row")
        if rows > entry.max_batch_size:
            raise ConfigurationError(
                f"request carries {rows} rows but model {model!r} batches at most "
                f"{entry.max_batch_size}; split it client-side"
            )
        now = time.monotonic()
        limit = timeout_ms if timeout_ms is not None else self.timeout_ms
        request = InferenceRequest(
            arrays=arrays,
            rows=rows,
            submitted=now,
            deadline=None if limit is None else now + float(limit) / 1e3,
        )
        if self.telemetry.enabled:
            self.telemetry.event(
                "request.submit", cat="serving",
                router=self.name, model=model, rows=rows,
            )
        with self._cond:
            if self._closed:
                raise ServingError("router is stopped; no new requests accepted")
            if len(entry.queue) >= entry.max_queue:
                self.stats.count(model, rejected=1)
                raise ServerOverloadedError(
                    f"model {model!r} queue is full ({entry.max_queue} pending); "
                    "retry later"
                )
            if not entry.queue:
                # Re-entering the ready set: catch up to the virtual time so
                # an idle spell does not convert into a burst entitlement.
                entry.pass_value = max(entry.pass_value, self._virtual_time)
            entry.queue.append(request)
            # A windowed model's queue only becomes dispatchable when it gets
            # a head (a new fill deadline) or saturates; any other arrival
            # leaves the workers' wake-up time unchanged.
            windowed = entry.max_wait_seconds and len(entry.queue) > 1
            if not windowed or entry.saturated():
                self._cond.notify_all()
        # Outside the router lock: the manager has its own locking, and a
        # restore started now overlaps whatever the workers are computing.
        # Private replicas have no shared residency to manage.
        if (
            entry.budgeted
            and self._manager.residency(entry.key) is ResidencyState.EVICTED
        ):
            self._manager.prefetch(entry.key)
        return request.response

    def request(
        self,
        model: str,
        arrays: RequestArrays,
        timeout_ms: Optional[float] = None,
    ) -> Any:
        """Synchronous convenience: :meth:`submit` then wait for the rows."""
        limit = timeout_ms if timeout_ms is not None else self.timeout_ms
        # Slack past the server-side deadline so the scheduler's own expiry
        # (the authoritative one) fires first.
        wait = None if limit is None else float(limit) / 1e3 + 1.0
        return self.submit(model, arrays, timeout_ms=timeout_ms).result(timeout=wait)

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    @property
    def queue_depths(self) -> Dict[str, int]:
        """Requests currently waiting, per model."""
        with self._cond:
            return {name: len(entry.queue) for name, entry in sorted(self._entries.items())}

    def metrics(self, window_seconds: Optional[float] = None) -> Dict[str, Any]:
        """Fleet and per-model latency/throughput plus residency counters.

        The ``"fleet"`` and ``"models"`` sections carry p50/p95/p99,
        throughput, batch fill, and the failure counters; ``"residency"``
        reports the shared budget's evictions/restores and which models are
        hot; ``"scheduler"`` reports queue depths and watchdog stalls.
        """
        report: Dict[str, Any] = self.stats.snapshot(window_seconds=window_seconds)
        spill = self._manager.stats.as_dict()
        report["residency"] = {
            "budget_bytes": self._budget,
            "registered_bytes": self._manager.registered_bytes(),
            "resident_bytes": self._manager.resident_bytes(),
            "resident_models": self.resident_models(),
            "evictions": spill["evictions"],
            "restores": spill["demand_fetches"] + spill["prefetches_completed"],
            "bytes_evicted": spill["bytes_evicted"],
            "bytes_fetched": spill["bytes_fetched"],
        }
        with self._cond:
            report["scheduler"] = {
                "queue_depths": {
                    name: len(entry.queue)
                    for name, entry in sorted(self._entries.items())
                },
                "batches_dispatched": self._batches_dispatched,
                "stalls": self._stalls,
            }
        return report

    # ------------------------------------------------------------------ #
    # Scheduler internals
    # ------------------------------------------------------------------ #
    def _entry(self, model: str) -> ModelEntry:
        # No lock: a dict lookup is atomic, and entries are never removed.
        entry = self._entries.get(model)
        if entry is None:
            raise ConfigurationError(
                f"router {self.name!r} has no model {model!r}; "
                f"registered: {sorted(self._entries) or 'none'}"
            )
        return entry

    def _expire_locked(self) -> float:
        """Fail every overdue queued request; returns the time it checked at."""
        now = time.monotonic()
        for entry in self._entries.values():
            overdue = [request for request in entry.queue if request.expired(now)]
            if not overdue:
                continue
            entry.queue = [
                request for request in entry.queue if not request.expired(now)
            ]
            for request in overdue:
                request.response.set_exception(
                    RequestTimeoutError(
                        "request expired after "
                        f"{now - request.submitted:.3f}s in the queue"
                    )
                )
            self.stats.count(entry.name, timed_out=len(overdue))
        return now

    def _poll_interval_locked(self) -> float:
        """Wait granularity: wake early enough to expire the nearest deadline."""
        now = time.monotonic()
        deadlines = [
            request.deadline - now
            for entry in self._entries.values()
            for request in entry.queue
            if request.deadline is not None
        ]
        nearest = min(deadlines) if deadlines else 0.05
        return max(min(nearest, 0.05), 1e-4)

    def _take_locked(self, entry: ModelEntry) -> Tuple[List[InferenceRequest], int]:
        taken: List[InferenceRequest] = []
        rows = 0
        while entry.queue and rows + entry.queue[0].rows <= entry.max_batch_size:
            request = entry.queue.pop(0)
            taken.append(request)
            rows += request.rows
        self._cond.notify_all()
        return taken, rows

    def _hot(self, entry: ModelEntry) -> bool:
        """Whether a batch of ``entry`` can run without waiting on a restore."""
        return (
            not entry.budgeted
            or self._manager.residency(entry.key) is ResidencyState.RESIDENT
        )

    def _next_assignment(
        self, released: Optional[Tuple[ModelEntry, Any]] = None
    ) -> Optional[Tuple[ModelEntry, Any, List[InferenceRequest], int, Dict[str, int]]]:
        """Block until a micro-batch is ready; ``None`` once closed and drained.

        ``released`` is the worker's previous private ``(entry, replica)``,
        returned to the entry's idle replicas under the same lock.  A model
        is ready when it has queued work, an idle replica, and — with a fill
        window — a saturated batch or a head request that has waited out the
        window.  Selection among ready models is stride (weighted-fair) with
        the bounded hot-model preference described in the module docstring.
        """
        with self._cond:
            if released is not None:
                released[0].idle.append(released[1])
                self._cond.notify_all()
            while True:
                now = self._expire_locked()
                ready = []
                fill_due = None
                for entry in self._entries.values():
                    if not entry.queue or not entry.idle:
                        continue
                    if entry.max_wait_seconds and not self._closed:
                        # Anchored to the head request: a request that
                        # already waited for a replica is not re-delayed.
                        due = entry.queue[0].submitted + entry.max_wait_seconds
                        if now < due and not entry.saturated():
                            fill_due = due if fill_due is None else min(fill_due, due)
                            continue
                    ready.append(entry)
                if not ready:
                    if self._closed and not any(
                        entry.queue for entry in self._entries.values()
                    ):
                        return None
                    wait = self._poll_interval_locked()
                    if fill_due is not None:
                        wait = min(wait, fill_due - now)
                    self._cond.wait(timeout=wait)
                    continue
                chosen = min(ready, key=lambda e: (e.pass_value, e.name))
                if chosen.cold_skips < self.max_cold_skips and not self._hot(chosen):
                    # Cold (evicted or mid-restore): a worker that took this
                    # batch would block in acquire — possibly on an eviction
                    # that needs the *other* workers to unpin first.
                    hot = [e for e in ready if e is not chosen and self._hot(e)]
                    if hot:
                        # Defer the cold pick (bounded), start its restore,
                        # and run resident work meanwhile.
                        chosen.cold_skips += 1
                        self._manager.prefetch(chosen.key)
                        chosen = min(hot, key=lambda e: (e.pass_value, e.name))
                chosen.cold_skips = 0
                self._virtual_time = chosen.pass_value
                # A shared (budgeted) replica stays idle: every worker may
                # run it at once.  A private one is checked out.
                replica = chosen.idle[0] if chosen.budgeted else chosen.idle.pop()
                batch, rows = self._take_locked(chosen)
                chosen.pass_value += rows / chosen.weight
                self._batches_dispatched += 1
                depths = {
                    name: len(entry.queue) for name, entry in self._entries.items()
                }
                return chosen, replica, batch, rows, depths

    def _serve_loop(self) -> None:
        """One worker's life: pick a (model, replica, batch), infer, complete."""
        tel = self.telemetry
        released = None
        while True:
            assignment = self._next_assignment(released)
            if assignment is None:
                return
            entry, replica, batch, rows, depths = assignment
            released = None if entry.budgeted else (entry, replica)
            with log_context(router=self.name, model=entry.name):
                if tel.enabled:
                    with tel.span(
                        "serve.batch", cat="serving",
                        router=self.name, model=entry.name,
                        rows=rows, requests=len(batch),
                    ):
                        self._serve_batch(entry, replica, batch, rows, depths, tel)
                else:
                    self._serve_batch(entry, replica, batch, rows, depths, tel)

    def _serve_batch(self, entry, replica, batch, rows, depths, tel) -> None:
        """Run one assigned micro-batch and complete its responses."""
        started = time.monotonic()
        try:
            # The concat belongs inside the try: requests with mismatched
            # field sets must fail *their batch*, not kill the worker loop.
            arrays = concat_rows([request.arrays for request in batch])
            # A budgeted model's lease pins it resident (restoring it from
            # the host cache if it was evicted) for exactly this forward.
            lease = (
                self._manager.lease(entry.key)
                if entry.budgeted
                else contextlib.nullcontext()
            )
            with lease:
                if tel.enabled:
                    with tel.span(
                        "serve.forward", cat="serving",
                        model=entry.name, replica=replica.name,
                    ):
                        output = replica.infer(arrays, pad_to=entry.compute_batch_size)
                else:
                    output = replica.infer(arrays, pad_to=entry.compute_batch_size)
        except BaseException as error:  # noqa: BLE001 - mirrored to clients
            # Typed serving errors (ReplicaCrashedError from a killed
            # child, ...) pass through so clients can react specifically.
            if isinstance(error, ServingError):
                mirrored = error
            else:
                mirrored = ServingError(
                    f"model {entry.name!r} failed on a micro-batch: "
                    f"{type(error).__name__}: {error}"
                )
            for request in batch:
                request.response.set_exception(mirrored)
            self.stats.count(entry.name, failed=len(batch))
            return
        finished = time.monotonic()
        # Counted before any response lands, so a client that reads the
        # metrics right after its result sees its own request.
        latencies = [finished - request.submitted for request in batch]
        self.stats.record(entry.name, *latencies)
        self.stats.record_batch(entry.name, rows, depths)
        offset = 0
        for request in batch:
            request.response.set_result(
                slice_rows(output, offset, offset + request.rows)
            )
            offset += request.rows
        logger.debug(
            "router=%s batch model=%s rows=%d/%d requests=%d infer_ms=%.2f queues=%s",
            self.name,
            entry.name,
            rows,
            entry.compute_batch_size,
            len(batch),
            (finished - started) * 1e3,
            depths,
        )

    # ------------------------------------------------------------------ #
    def _watchdog_loop(self) -> None:
        """Log per-interval progress; flag stalls (queued work, no batches)."""
        with log_context(router=self.name):
            self._watchdog_body()

    def _watchdog_body(self) -> None:
        last_completed = self.stats.fleet.completed
        while not self._watchdog_stop.wait(self.watchdog_interval_s):
            depths = self.queue_depths
            queued = sum(depths.values())
            completed = self.stats.fleet.completed
            progressed = completed - last_completed
            last_completed = completed
            if queued and progressed == 0:
                with self._cond:
                    self._stalls += 1
                if self.telemetry.enabled:
                    self.telemetry.event(
                        "router.stall", cat="serving",
                        router=self.name, queued=queued,
                    )
                logger.warning(
                    "router=%s watchdog: no progress for %.1fs with %d queued "
                    "(queues=%s resident=%s)",
                    self.name,
                    self.watchdog_interval_s,
                    queued,
                    depths,
                    self.resident_models(),
                )
            else:
                logger.debug(
                    "router=%s watchdog: +%d completed (%.0f rps), queued=%d, resident=%s",
                    self.name,
                    progressed,
                    progressed / self.watchdog_interval_s,
                    queued,
                    self.resident_models(),
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        budget = "unbounded" if self._budget is None else f"{self._budget}B"
        return (
            f"FleetRouter({self.name!r}, models={self.models}, "
            f"replicas={self.replicas}, budget={budget})"
        )
