"""Online inference: from a selected model to answered requests.

The paper's pipeline ends when model selection picks a winner; this package
is the production half the ROADMAP asks for — deploying that winner and
serving traffic against it (see ``docs/serving.md``):

* :class:`ModelRegistry` — versioned published checkpoints (the
  training→serving hand-off, in the same ``.npz`` serialization as
  checkpoints and disk-spilled shards);
* :class:`Replica` — one servable model copy, fully resident or *spilled*
  (a sharded executor leasing shards through its own
  :class:`~repro.memory.SpillManager`, so over-memory models serve from a
  single device budget);
* :class:`LoadGenerator` — closed-loop and open-loop (fixed arrival rate)
  clients for load tests and the E13/E14 benchmarks;
* :class:`FleetRouter` — the one serving engine: every model served
  through **one** worker pool and **one** memory budget, with bounded
  per-model admission queues, per-request deadlines, continuous (or
  fill-windowed) batching, weighted-fair scheduling, Hydra-style whole-model
  eviction/restore of cold models, and p50/p95/p99 latency + throughput
  metrics (see ``docs/router.md``).  A single-model deployment is a router
  with one model, reached through its :class:`RouterHandle`.

Exactness is the core contract, inherited from the training side: replicas
run every forward at one fixed compute geometry, so batched responses are
``array_equal`` to unbatched single-request forwards, and spilled replicas
answer bit-identically to resident ones.

The declarative entry points live one layer up:
:func:`repro.api.serve` builds a one-model router from a model,
:func:`repro.api.serve_fleet` builds a router over a registry's published
models, and ``SelectionResult.deploy`` goes straight from an experiment's
winner (rebuilt via the caller's builder, weights from the registry) to a
running deployment — or, with ``router=``, into a shared fleet.
"""

from repro.serving.loadgen import LoadGenerator, LoadReport, warm_up
from repro.serving.registry import ModelRegistry, ModelVersion
from repro.serving.replica import Replica
from repro.serving.router import (
    FleetRouter,
    InferenceRequest,
    ModelEntry,
    PendingResponse,
    RequestArrays,
    RouterHandle,
)
from repro.serving.stats import LatencyStats, ServerStats, latency_summary

__all__ = [
    "FleetRouter",
    "InferenceRequest",
    "LatencyStats",
    "LoadGenerator",
    "LoadReport",
    "ModelEntry",
    "ModelRegistry",
    "ModelVersion",
    "PendingResponse",
    "Replica",
    "RequestArrays",
    "RouterHandle",
    "ServerStats",
    "latency_summary",
    "warm_up",
]
