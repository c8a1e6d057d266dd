"""``ConcurrentBackend``: concurrent trial execution for any backend.

This wrapper is how an :class:`~repro.api.experiment.Experiment` gains a
worker pool without touching searchers or backends: it *is* an
:class:`~repro.api.backend.ExecutionBackend`, so the
:class:`~repro.api.experiment.TrialRunner` drives it like any other, but
each cohort call fans out across a :class:`~repro.api.runtime.pool.WorkerPool`:

* ``prepare`` is **deferred**: the outer handle is created instantly and the
  inner backend's (potentially expensive) ``prepare`` runs inside the worker
  on first training contact — so a cohort's preparations overlap too;
* ``train_many`` dispatches one future per trial through an
  :class:`~repro.api.runtime.runner.AsyncTrialRunner`, with per-trial retry,
  backoff, and straggler timeout from a
  :class:`~repro.api.runtime.runner.RetryPolicy`;
* a trial that still fails is marked on its handle (``handle.failure``) and
  surfaces as a :class:`~repro.selection.experiment.FailedTrial` — the rest
  of the cohort and the experiment continue;
* results are collected in handle order, never completion order, so the
  :class:`~repro.selection.experiment.SelectionResult` ranking is identical
  at any worker count.

Semantics note: a cohort-engine backend (shard-parallel, Cerebro) normally
co-schedules the whole cohort inside one driver.  Wrapped, each trial trains
in its own single-model driver on its own worker instead.  Each model's own
update sequence is unchanged — cohort membership never leaks into a model's
numerics — so losses and rankings match the serial run exactly.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.api.backend import ExecutionBackend, TrialHandle
from repro.api.runtime.pool import WorkerPool, make_pool
from repro.api.runtime.runner import AsyncTrialRunner, RetryPolicy, TrialFault
from repro.exceptions import ConfigurationError
from repro.selection.experiment import TrialConfig
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.utils.logging import log_context
from repro.utils.serialization import probe_picklable


@dataclass(frozen=True)
class _ChildTrialReport:
    """What one process-pool trial task ships back over the pipe.

    Live state never crosses: ``snapshot`` is whatever the inner backend's
    ``save_snapshot`` returned (a checkpoint path for real-training
    backends), and the parent re-attaches it with ``load_snapshot``.
    ``events`` are the child's drained telemetry events (empty when
    telemetry is off) — they ride the existing result channel, so a child
    killed mid-trial ships nothing and the parent trace is never torn.
    """

    metrics: Dict[str, float]
    elapsed: float
    snapshot: Any
    annotations: Dict[str, Any] = field(default_factory=dict)
    events: Tuple = ()


class _ChildTrialTask:
    """A picklable per-trial task: one whole train call, run in a child.

    The task carries the inner backend *by value* — every dispatch unpickles
    a fresh copy in the worker child, which rebuilds per-process resources
    (spill managers rebuild from their options; registries rebind to their
    root directory).  The child never runs ``teardown``: publish-like
    side effects happen exactly once, in the parent, at retirement
    (``finalize_snapshot``).
    """

    def __init__(
        self,
        inner: ExecutionBackend,
        epochs: int,
        snapshot_dir: str,
        telemetry_enabled: bool = False,
    ):
        self.inner = inner
        self.epochs = epochs
        self.snapshot_dir = snapshot_dir
        # A bool crosses the pickle boundary; a live recorder (locks) cannot.
        # The child builds its own buffer and drains it into the report.
        self.telemetry_enabled = bool(telemetry_enabled)

    def __call__(self, outer: TrialHandle) -> _ChildTrialReport:
        backend = self.inner
        tel = Telemetry() if self.telemetry_enabled else NULL_TELEMETRY
        try:
            setter = getattr(backend, "set_telemetry", None)
            if callable(setter):
                setter(tel)
            # A nesting span, so the backend's epoch/step spans get this
            # trial as their parent in the merged trace.
            with log_context(trial_id=outer.trial_id), tel.span(
                "trial", cat="experiment", trial_id=outer.trial_id
            ):
                handle, metrics, elapsed, snapshot = self._run(backend, outer)
            return _ChildTrialReport(
                metrics=dict(metrics),
                elapsed=elapsed,
                snapshot=snapshot,
                annotations=dict(handle.annotations),
                events=tuple(tel.drain()),
            )
        finally:
            # This unpickled backend copy dies with the task, but the child
            # process persists — release any threads it started (prefetch
            # workers) rather than accumulating them across tasks.
            close = getattr(backend, "close", None)
            if callable(close):
                try:
                    close()
                except Exception:  # noqa: BLE001 - cleanup must not mask
                    pass

    def _run(self, backend: ExecutionBackend, outer: TrialHandle):
        """Prepare → (resume) → train → snapshot; the task's actual work."""
        handle = backend.prepare(outer.trial)
        handle.epochs_trained = outer.epochs_trained
        if outer.state is not None:
            backend.load_snapshot(handle, outer.state)
        started = time.monotonic()
        metrics = backend.train(handle, self.epochs)
        elapsed = time.monotonic() - started
        handle.epochs_trained += self.epochs
        handle.last_metrics = dict(metrics)
        snapshot = backend.save_snapshot(handle, self.snapshot_dir)
        return handle, metrics, elapsed, snapshot


class ConcurrentBackend(ExecutionBackend):
    """Wraps any :class:`ExecutionBackend` with pooled, fault-tolerant trials.

    ``workers`` sizes an owned pool of ``pool_kind`` (``"thread"`` by
    default, ``"process"`` for GIL-free trials); pass ``pool`` instead to
    share one across backends (the caller keeps ownership and ``pool_kind``
    is ignored).  ``retry`` configures per-trial fault tolerance.  The
    wrapper is resumable exactly when the inner backend is, so searcher
    eligibility (e.g. successive halving) is unchanged.

    With a **process** pool each trial's whole train call runs in a worker
    child process: the inner backend must pickle (checked up front with a
    round-trip probe — module-level builder functions yes, lambdas no), the
    trial comes home as a ``save_snapshot`` token instead of live state,
    and retirement (``finalize_snapshot`` + ``teardown``) happens exactly
    once, in the parent.  Results are bit-identical to the thread and
    serial pools at any worker count.

    Example::

        from repro.api import ConcurrentBackend, FunctionBackend

        backend = ConcurrentBackend(
            FunctionBackend(lambda trial, epochs: {"loss": 0.0}), workers=4
        )
        try:
            ...  # Experiment(...).run(backend=backend)
        finally:
            backend.close()

    (``Experiment.run(..., workers=N, pool="...")`` builds and closes one
    of these for you; constructing it by hand is only needed for custom
    pools/policies.)

    Raises:
        ConfigurationError: if ``workers`` is not positive, the retry policy
            is invalid, the inner backend declares
            ``concurrency_safe = False`` (its metrics depend on cohort
            co-scheduling — the cluster simulator), or a process pool is
            requested for an inner backend that cannot pickle.
    """

    resumable = True  # overwritten per-instance from the inner backend

    def __init__(
        self,
        inner: ExecutionBackend,
        workers: int = 4,
        pool: Optional[WorkerPool] = None,
        retry: Optional[RetryPolicy] = None,
        pool_kind: str = "thread",
    ):
        if not inner.concurrency_safe:
            raise ConfigurationError(
                f"backend {inner.name!r} measures whole-cohort co-scheduling; "
                f"concurrent per-trial dispatch would change its metrics, not "
                f"accelerate it — run it without workers"
            )
        requested_kind = pool.kind if pool is not None else pool_kind
        if requested_kind == "process":
            problem = probe_picklable(inner)
            if problem is not None:
                raise ConfigurationError(
                    f"backend {inner.name!r} cannot cross a process boundary "
                    f"({problem}); process pools ship the backend to worker "
                    "children by pickling it — use module-level builder "
                    "functions (not closures/lambdas), or a thread pool"
                )
        self.inner = inner
        self.name = f"concurrent({inner.name})"
        self.resumable = inner.resumable
        if pool is not None:
            self.pool = pool
            self._owned_pool: Optional[WorkerPool] = None
        else:
            self.pool = make_pool(workers, kind=pool_kind)
            self._owned_pool = self.pool
        self._process_mode = self.pool.kind == "process"
        self._snapshot_dir: Optional[str] = None
        if self._process_mode:
            self._snapshot_dir = tempfile.mkdtemp(prefix="repro-trial-snapshots-")
        self.retry = retry if retry is not None else RetryPolicy()
        self._runner = AsyncTrialRunner(self.pool, self.retry)
        self._lock = threading.Lock()

    def set_telemetry(self, telemetry) -> None:
        """Attach a recorder; propagate inward only when trials stay in-process.

        In process mode the inner backend is pickled into every child task —
        a live recorder (it holds locks) must not be hung on it; children
        get a ``telemetry_enabled`` flag and build their own buffer instead.
        """
        super().set_telemetry(telemetry)
        if not self._process_mode:
            setter = getattr(self.inner, "set_telemetry", None)
            if callable(setter):
                setter(self.telemetry)
        self.telemetry.register_collector(
            "runtime.pool",
            lambda: {"kind": {"thread": 0, "process": 1}.get(self.pool.kind, -1),
                     "workers": self.pool.size},
        )

    # ------------------------------------------------------------------ #
    # Protocol
    # ------------------------------------------------------------------ #
    def prepare(self, trial: TrialConfig) -> TrialHandle:
        """Create a lightweight handle; the inner ``prepare`` is deferred.

        The expensive part (building models, plans, loaders) runs inside a
        worker at this trial's first ``train``/``train_many`` contact, so a
        whole cohort's preparations overlap instead of queueing on the
        caller's thread.
        """
        return TrialHandle(trial=trial)

    def train(self, handle: TrialHandle, epochs: int) -> Dict[str, float]:
        """Train one trial through the pool (a cohort of one)."""
        return self.train_many([handle], epochs)[handle.trial_id]

    def train_many(
        self, handles: Sequence[TrialHandle], epochs: int
    ) -> Dict[str, Dict[str, float]]:
        """Fan the cohort out across the pool; collect metrics in handle order.

        Each trial's task is ``prepare`` (first time only) + ``train`` on the
        inner backend, retried per the policy.  A trial that exhausts its
        retries or straggles past the cohort deadline gets ``handle.failure``
        set to a :class:`TrialFault`, its inner state torn down, and an empty
        metrics dict here — the :class:`TrialRunner` turns that into a
        :class:`FailedTrial` record.  Retries re-run the whole task, so a
        failing ``prepare`` is re-attempted from scratch (at-least-once
        execution: a trial that mutated state before raising resumes from
        that state).
        """
        live = [handle for handle in handles if handle.failure is None]
        tel = self.telemetry
        if self._process_mode:
            task = _ChildTrialTask(
                self.inner, epochs, self._snapshot_dir,
                telemetry_enabled=tel.enabled,
            )
        else:
            task = lambda handle: self._train_one(handle, epochs)  # noqa: E731
        outcomes = self._runner.run_cohort(task, live)
        metrics: Dict[str, Dict[str, float]] = {}
        for handle in handles:
            outcome = outcomes.get(handle.trial_id)
            if isinstance(outcome, TrialFault) or outcome is None:
                if isinstance(outcome, TrialFault):
                    handle.failure = outcome
                    self._teardown_inner(handle)
                    tel.counter("runtime.trials.failed")
                metrics[handle.trial_id] = {}
                continue
            tel.counter("runtime.trials.completed")
            if isinstance(outcome, _ChildTrialReport):
                handle.wall_seconds += outcome.elapsed
                for key, value in outcome.annotations.items():
                    handle.annotations.setdefault(key, value)
                handle.last_metrics = dict(outcome.metrics)
                self.inner.load_snapshot(handle, outcome.snapshot)
                if outcome.events:
                    tel.ingest(outcome.events)
                metrics[handle.trial_id] = dict(outcome.metrics)
                continue
            trial_metrics, elapsed = outcome
            handle.wall_seconds += elapsed
            inner_handle = handle.state
            for key, value in inner_handle.annotations.items():
                handle.annotations.setdefault(key, value)
            handle.last_metrics = dict(trial_metrics)
            metrics[handle.trial_id] = dict(trial_metrics)
        return metrics

    def teardown(self, handle: TrialHandle) -> None:
        """Release the trial's inner state (inline — never through the pool,
        which abandoned stragglers may be saturating; ``_teardown_inner`` is
        thread-safe, so running it on the caller's thread is always safe)."""
        self._teardown_inner(handle)

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut down the owned pool (no-op when the pool was caller-supplied).

        Shutdown does not wait: an abandoned straggler keeps its thread until
        it finishes (threads cannot be killed), but its result is already
        discarded and it must not delay the experiment's return.
        """
        if self._owned_pool is not None:
            self._owned_pool.shutdown(wait=False)
        if self._snapshot_dir is not None:
            shutil.rmtree(self._snapshot_dir, ignore_errors=True)
            self._snapshot_dir = None

    def __enter__(self) -> "ConcurrentBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC backstop for the owned pool
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    def _train_one(
        self, handle: TrialHandle, epochs: int
    ) -> Tuple[Dict[str, float], float]:
        """In-worker task: lazily prepare, then train, timing this trial only."""
        with log_context(trial_id=handle.trial_id), self.telemetry.span(
            "trial", cat="experiment", trial_id=handle.trial_id
        ):
            inner_handle = self._inner_handle(handle)
            started = time.monotonic()
            trial_metrics = self.inner.train(inner_handle, epochs)
            elapsed = time.monotonic() - started
            inner_handle.epochs_trained += epochs
            inner_handle.last_metrics = dict(trial_metrics)
            return dict(trial_metrics), elapsed

    def _inner_handle(self, handle: TrialHandle) -> TrialHandle:
        """Get or build the inner backend's handle for this outer handle.

        Only one worker task touches a given trial at a time (the runner
        submits at most one future per handle per cohort), but the lock keeps
        first-contact preparation safe if a straggler from an abandoned
        dispatch is still running.
        """
        with self._lock:
            inner_handle = handle.state
        if inner_handle is None:
            prepared = self.inner.prepare(handle.trial)
            with self._lock:
                if handle.state is None:
                    handle.state = prepared
                inner_handle = handle.state
        return inner_handle

    def _teardown_inner(self, handle: TrialHandle) -> None:
        """Best-effort inner teardown; never raises (used on failure paths).

        In process mode the outer handle's state is a snapshot token, not an
        inner handle: retirement runs ``finalize_snapshot`` (rebuild trained
        state for publish-like side effects) then ``teardown`` on the outer
        handle itself — exactly once, in the parent; worker children never
        tear down.
        """
        if self._process_mode:
            try:
                self.inner.finalize_snapshot(handle)
                self.inner.teardown(handle)
            except Exception:  # noqa: BLE001 - teardown must not mask the fault
                handle.state = None
            return
        with self._lock:
            inner_handle = handle.state
            handle.state = None
        if inner_handle is None:
            return
        try:
            self.inner.teardown(inner_handle)
        except Exception:  # noqa: BLE001 - teardown must not mask the fault
            pass
