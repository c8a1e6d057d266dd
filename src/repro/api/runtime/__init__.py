"""The concurrent runtime under the experiment API (see ``docs/runtime.md``).

Four pieces, layered bottom-up:

* :mod:`~repro.api.runtime.pool` — :class:`WorkerPool` implementations
  (serial / thread / process) behind one ``submit`` protocol, and the one
  child-process primitive (``_ChildWorker``) that both process-pool trials
  and process serving replicas run on;
* :mod:`~repro.api.runtime.runner` — :class:`AsyncTrialRunner`, which
  dispatches per-trial tasks as futures with retry, backoff, and straggler
  timeouts (:class:`RetryPolicy`), reporting terminal failures as
  :class:`TrialFault` values instead of raising;
* :mod:`~repro.api.runtime.concurrent` — :class:`ConcurrentBackend`, the
  :class:`~repro.api.backend.ExecutionBackend` wrapper that gives *any*
  backend pooled trial execution, reachable as
  ``Experiment.run(backend=..., workers=N, pool="thread"|"process")``;
* :mod:`~repro.api.runtime.proc` — the process-serving substrate:
  :class:`ModelSpec` (handle-free, picklable model recipes) and
  :class:`ProcessReplica` (serving replicas running on the pool's child
  primitive over shared-memory transport, weights mmapped from the
  registry).

Determinism guarantee: outcomes are always collected in trial order, never
completion order, so an experiment's :class:`SelectionResult` ranking is
identical at every worker count — and, for picklable backends, across
serial, thread, and process pools.
"""

from repro.api.runtime.concurrent import ConcurrentBackend
from repro.api.runtime.pool import (
    ProcessWorkerPool,
    SerialWorkerPool,
    ThreadWorkerPool,
    WorkerPool,
    make_pool,
)
from repro.api.runtime.proc import ModelSpec, ProcessReplica
from repro.api.runtime.runner import AsyncTrialRunner, RetryPolicy, TrialFault

__all__ = [
    "AsyncTrialRunner",
    "ConcurrentBackend",
    "ModelSpec",
    "ProcessReplica",
    "ProcessWorkerPool",
    "RetryPolicy",
    "SerialWorkerPool",
    "ThreadWorkerPool",
    "TrialFault",
    "WorkerPool",
    "make_pool",
]
