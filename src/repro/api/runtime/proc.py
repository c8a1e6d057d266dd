"""Process-based serving replicas: handle-free model specs + shared-memory IPC.

This module is the serving half of the process runtime (the trial half —
:class:`~repro.api.runtime.pool.ProcessWorkerPool` plus the snapshot
protocol — lives in :mod:`~repro.api.runtime.pool` and
:mod:`~repro.api.runtime.concurrent`).  Three pieces:

* :class:`ModelSpec` — a **handle-free** description of a servable model: a
  builder (a :mod:`repro.models.registry` name or a picklable callable) plus
  an optional registry address for the weights.  Specs pickle, so they are
  what crosses the process boundary instead of live models;
* weight transport is the registry's immutable ``.npz`` version itself:
  each child process ``mmap``\\ s the published archive read-only
  (:func:`~repro.training.checkpoint.map_checkpoint_parameters`), so N
  replicas of one model share **one** physical copy of the parameter bytes
  through the page cache — zero copies, zero pickled weights;
* :class:`ProcessReplica` — the parent-side client that looks exactly like
  a :class:`~repro.serving.replica.Replica` (``infer(arrays, pad_to)``,
  ``close()``, ``name``, ``is_spilled``) but executes every forward in a
  persistent child process.  Request and response arrays ship through two
  parent-owned :class:`multiprocessing.shared_memory` segments (grown on
  demand, reused across requests); only tiny metadata tuples travel over
  the control pipe.

There is one child-process primitive for trials and replicas alike: the
replica's child is a :class:`~repro.api.runtime.pool._ChildWorker`, the
same one a process-pool slot runs trials on, and the replica is its client.
It runs three module-level tasks there: :func:`_child_build` (once per
child), :func:`_child_infer` (once per micro-batch) and, when the response
segment must grow first, :func:`_child_write`.  Fault containment is
therefore the pool's: a child killed mid-request fails **only the
in-flight micro-batch**, with the typed
:class:`~repro.exceptions.ReplicaCrashedError`; the replica respawns its
child lazily on the next request.  Because the parent owns both shared
segments and unlinks them in ``close()``, a dead child can never leak
shared memory.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.api.runtime.pool import _ChildWorker
from repro.exceptions import (
    ConfigurationError,
    ReplicaCrashedError,
    ServingError,
    WorkerCrashedError,
)
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.utils.serialization import probe_picklable

#: shared-memory layout: leaf arrays are aligned to cache-line multiples
_ALIGN = 64
#: initial size of each parent-owned segment (grown on demand, never shrunk)
_INITIAL_SEGMENT = 1 << 16
#: how long a replica child may take to build its model before it is stopped
_BUILD_TIMEOUT_S = 120.0


# --------------------------------------------------------------------------- #
# Handle-free model specs
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ModelSpec:
    """A picklable recipe for building one servable model in any process.

    ``builder`` is either a model name registered with
    :mod:`repro.models.registry` (the preferred, always-picklable spelling)
    or a picklable callable (a module-level function or
    ``functools.partial`` over one); ``kwargs`` are passed to it.  With
    ``registry_root``/``registry_name`` set, the built model's parameters
    come from that registry version — ``mmap_weights=True`` (default) maps
    the published archive read-only instead of copying it, so every process
    serving the same version shares one physical copy of the bytes.

    Example::

        spec = ModelSpec(builder="mlp-tiny",
                         registry_root=str(registry.root),
                         registry_name="winner", version=3)
        model = spec.build()   # in any process

    Raises:
        ConfigurationError: for a spec that cannot round-trip a process
            boundary or names a registry root without a model name.
    """

    builder: Union[str, Callable[..., Any]]
    kwargs: Dict[str, Any] = field(default_factory=dict)
    registry_root: Optional[str] = None
    registry_name: Optional[str] = None
    version: Optional[int] = None
    mmap_weights: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.builder, str) and not callable(self.builder):
            raise ConfigurationError(
                f"ModelSpec.builder must be a registered model name or a "
                f"callable, got {type(self.builder).__name__}"
            )
        if self.registry_root is not None and self.registry_name is None:
            raise ConfigurationError(
                "ModelSpec names a registry_root but no registry_name to load"
            )
        problem = probe_picklable(self)
        if problem is not None:
            raise ConfigurationError(
                f"ModelSpec cannot cross a process boundary ({problem}); use a "
                "registered model name or a module-level builder function "
                "instead of a closure/lambda"
            )

    def build(self):
        """Construct the model (and attach its weights) in *this* process."""
        if isinstance(self.builder, str):
            from repro.models.registry import create_model

            model = create_model(self.builder, **dict(self.kwargs))
        else:
            model = self.builder(**dict(self.kwargs))
        if self.registry_root is not None:
            from repro.serving.registry import ModelRegistry

            registry = ModelRegistry(self.registry_root)
            if self.mmap_weights:
                from repro.training.checkpoint import map_checkpoint_parameters

                map_checkpoint_parameters(
                    model, registry.archive_path(self.registry_name, self.version)
                )
            else:
                registry.load(self.registry_name, model, version=self.version)
        model.eval()
        return model


# --------------------------------------------------------------------------- #
# Shared-memory array transport
# --------------------------------------------------------------------------- #
def _layout(leaves: List[Tuple[str, np.ndarray]]) -> Tuple[list, int]:
    """Assign aligned offsets to leaf arrays; return (fields, total_bytes)."""
    fields = []
    offset = 0
    for key, values in leaves:
        offset = -(-offset // _ALIGN) * _ALIGN
        fields.append((key, values.dtype.str, tuple(values.shape), offset))
        offset += values.nbytes
    return fields, max(offset, 1)

def _write_leaves(
    segment: shared_memory.SharedMemory,
    leaves: List[Tuple[str, np.ndarray]],
    fields: list,
) -> None:
    """Copy each leaf array into the segment at its assigned offset."""
    for (key, dtype, shape, offset), (_, values) in zip(fields, leaves):
        if values.nbytes == 0:
            continue
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf, offset=offset)
        view[...] = values


def _read_leaves(
    segment: shared_memory.SharedMemory, fields: list, copy: bool
) -> List[np.ndarray]:
    """Materialise leaf arrays back out of the segment.

    ``copy=False`` returns views (valid only while the segment is mapped
    and the writer does not reuse it — the child reads requests this way,
    under the one-request-in-flight protocol); ``copy=True`` detaches
    (the parent copies responses out before the next request reuses the
    segment).
    """
    leaves = []
    for _, dtype, shape, offset in fields:
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf, offset=offset)
        leaves.append(view.copy() if copy else view)
    return leaves


class _OwnedSegment:
    """A parent-owned, grow-on-demand shared-memory segment."""

    def __init__(self):
        self.shm: Optional[shared_memory.SharedMemory] = None

    def ensure(self, nbytes: int) -> shared_memory.SharedMemory:
        """Return a segment of at least ``nbytes`` (recreating if needed)."""
        if self.shm is None or self.shm.size < nbytes:
            self.destroy()
            size = _INITIAL_SEGMENT
            while size < nbytes:
                size *= 2
            self.shm = shared_memory.SharedMemory(create=True, size=size)
        return self.shm

    def destroy(self) -> None:
        """Close and unlink the segment (the parent is the sole owner)."""
        if self.shm is None:
            return
        try:
            self.shm.close()
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        self.shm = None


def _flatten_output(payload: Any, leaves: List[Tuple[str, np.ndarray]]) -> Any:
    """Flatten a model output (array/tensor/nested tuple-or-list) to leaves.

    Returns a structure descriptor — ``"a"`` for a leaf, ``["t", [...]]`` /
    ``["l", [...]]`` for tuples/lists — that :func:`_rebuild_output`
    inverts on the parent side.
    """
    from repro.autograd.tensor import Tensor

    if isinstance(payload, Tensor):
        payload = payload.data
    if isinstance(payload, np.ndarray):
        leaves.append((f"leaf{len(leaves)}", np.ascontiguousarray(payload)))
        return "a"
    if isinstance(payload, (tuple, list)):
        tag = "t" if isinstance(payload, tuple) else "l"
        return [tag, [_flatten_output(item, leaves) for item in payload]]
    raise ServingError(
        f"model produced an unsupported output type {type(payload).__name__}; "
        "serving supports tensors, arrays, and tuples/lists of them"
    )


def _rebuild_output(structure: Any, leaves: List[np.ndarray]) -> Any:
    """Invert :func:`_flatten_output` (consumes ``leaves`` left to right)."""
    if structure == "a":
        return leaves.pop(0)
    tag, children = structure
    rebuilt = [_rebuild_output(child, leaves) for child in children]
    return tuple(rebuilt) if tag == "t" else rebuilt


# --------------------------------------------------------------------------- #
# The replica child: three tasks run on one _ChildWorker
# --------------------------------------------------------------------------- #
#: child-process state of a replica child: the built model, its telemetry,
#: attached segments by name, and an output held while a segment grows
_child: Dict[str, Any] = {}


def _child_attach(name: str) -> shared_memory.SharedMemory:
    """Attach (once) to a parent-owned segment without adopting its lifecycle.

    ``spawn`` children inherit the parent's resource-tracker process, so the
    attach's duplicate registration is a set-level no-op there — the parent
    remains the sole owner and unlinks in ``close()``.  (Deliberately *no*
    ``resource_tracker.unregister`` here: with a shared tracker that would
    remove the parent's own registration and break leak cleanup.)
    """
    segments = _child["segments"]
    if name not in segments:
        segments[name] = shared_memory.SharedMemory(name=name)
    return segments[name]


def _child_build(spec: ModelSpec, telemetry_enabled: bool) -> list:
    """Build the spec's model once; return the build's telemetry events.

    With ``telemetry_enabled`` the child keeps its own recorder and drains
    it into every reply — events ride the result channel, so a child killed
    mid-request ships nothing partial and the parent trace is never torn.
    """
    tel = Telemetry() if telemetry_enabled else NULL_TELEMETRY
    with tel.span("replica.build", cat="serving"):
        model = spec.build()
    _child.update(model=model, telemetry=tel, segments={}, held=None)
    return tel.drain()


def _child_infer(meta: dict, pad_to: Optional[int], response_name: str) -> tuple:
    """Forward one micro-batch read from the request segment.

    Returns ``("ok", response_meta)`` once the output is in the response
    segment, or ``("need", nbytes)`` when that segment is too small: the
    output is then held until :func:`_child_write` names a grown one.
    """
    from repro.autograd.tensor import no_grad
    from repro.data.dataloader import Batch
    from repro.serving.replica import pad_rows, request_rows, slice_rows

    request = _child_attach(meta["segment"])
    leaves_in = _read_leaves(request, meta["fields"], copy=False)
    arrays = {key: values for (key, _, _, _), values in zip(meta["fields"], leaves_in)}
    rows = request_rows(arrays)
    padded = arrays if pad_to is None else pad_rows(arrays, rows, pad_to)
    with _child["telemetry"].span("replica.forward", cat="serving", rows=rows), no_grad():
        output = _child["model"].forward(
            Batch(arrays={k: np.asarray(v) for k, v in padded.items()})
        )
    leaves: List[Tuple[str, np.ndarray]] = []
    structure = _flatten_output(slice_rows(output, 0, rows), leaves)
    fields, total = _layout(leaves)
    _child["held"] = (leaves, structure, fields)
    if _child_attach(response_name).size < total:
        return ("need", total)
    return _child_write(response_name)


def _child_write(response_name: str) -> tuple:
    """Write the held output into ``response_name``; reply its metadata."""
    leaves, structure, fields = _child["held"]
    _child["held"] = None
    _write_leaves(_child_attach(response_name), leaves, fields)
    events = _child["telemetry"].drain()
    return ("ok", {"structure": structure, "fields": fields, "events": events})


# --------------------------------------------------------------------------- #
# The parent-side client
# --------------------------------------------------------------------------- #
class ProcessReplica:
    """A replica whose forwards run in a persistent child process.

    Drop-in for :class:`~repro.serving.replica.Replica` wherever the
    router calls ``infer(arrays, pad_to)`` / ``close()``: the child — one
    :class:`~repro.api.runtime.pool._ChildWorker`, the same primitive a
    process-pool slot runs trials on — is spawned lazily (or eagerly via
    :meth:`start`), builds its model from the :class:`ModelSpec` —
    mmapping registry weights read-only — and then answers micro-batches
    shipped through two reused shared-memory segments.

    One request is in flight per replica at a time (the router hands a
    private replica one batch at a time, and the internal lock serialises
    any other callers).  If the child dies mid-request the caller gets
    :class:`~repro.exceptions.ReplicaCrashedError` and the *next* request
    respawns a fresh child; :attr:`restarts` counts those respawns.

    Raises:
        ConfigurationError: at construction, for a spec that cannot pickle.
        ReplicaCrashedError: from :meth:`infer`/:meth:`start`, when the
            child died with this request in flight, or its build overran
            the build wait (the child is stopped either way).
        ServingError: from :meth:`infer`/:meth:`start`, when the child
            failed to build its model.
        RuntimeError: from :meth:`infer`, when the forward's output or
            exception could not be pickled back to the parent.
    """

    #: API parity with Replica: process replicas are never spill-managed —
    #: their memory story is the page cache, not a SpillManager
    manager = None

    def __init__(
        self,
        spec: ModelSpec,
        name: str = "replica",
        start: bool = False,
        telemetry=None,
    ):
        if not isinstance(spec, ModelSpec):
            raise ConfigurationError(
                f"ProcessReplica needs a ModelSpec, got {type(spec).__name__}; "
                "live models cannot cross a process boundary"
            )
        self.spec = spec
        self.name = name
        self._telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.restarts = -1  # first start is not a restart
        self._lock = threading.Lock()
        self._worker: Optional[_ChildWorker] = None
        self._request = _OwnedSegment()
        self._response = _OwnedSegment()
        self._closed = False
        if start:
            self.start()

    # ------------------------------------------------------------------ #
    @property
    def is_spilled(self) -> bool:
        """API parity with :class:`Replica`; process replicas never spill."""
        return False

    @property
    def pid(self) -> Optional[int]:
        """The live child's pid (``None`` before first use / after death)."""
        worker = self._worker
        if worker is not None and worker.process.is_alive():
            return worker.process.pid
        return None

    def start(self) -> "ProcessReplica":
        """Spawn the child and wait for its model build (idempotent)."""
        with self._lock:
            self._ensure_worker()
        return self

    def spill_stats(self) -> Dict[str, int]:
        """API parity with :class:`Replica`: no spill manager, no counters."""
        return {}

    # ------------------------------------------------------------------ #
    def infer(self, arrays: Dict[str, np.ndarray], pad_to: Optional[int] = None) -> Any:
        """Run one micro-batch in the child; same contract as ``Replica.infer``.

        The request's field arrays are copied into the request segment, the
        child pads/forwards/slices exactly like an in-process replica, and
        the response arrays are copied back out of the response segment —
        so the returned arrays are ordinary heap arrays owned by the
        caller.
        """
        with self._lock:
            self._ensure_worker()
            leaves = [
                (key, np.ascontiguousarray(values))
                for key, values in sorted(arrays.items())
            ]
            fields, total = _layout(leaves)
            request = self._request.ensure(total)
            _write_leaves(request, leaves, fields)
            response = self._response.ensure(_INITIAL_SEGMENT)
            meta = {"segment": request.name, "fields": fields}
            status, reply = self._run(_child_infer, meta, pad_to, response.name)
            if status == "need":
                response = self._response.ensure(reply)
                status, reply = self._run(_child_write, response.name)
            self._telemetry.ingest(reply["events"])
            leaves_out = _read_leaves(response, reply["fields"], copy=True)
            return _rebuild_output(reply["structure"], leaves_out)

    def close(self) -> None:
        """Stop the child and unlink both shared segments (idempotent)."""
        with self._lock:
            self._closed = True
            worker, self._worker = self._worker, None
            if worker is not None:
                worker.stop()
            self._request.destroy()
            self._response.destroy()

    def __enter__(self) -> "ProcessReplica":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC backstop
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "live" if self.pid is not None else "cold"
        return f"ProcessReplica({self.name!r}, {state}, restarts={max(self.restarts, 0)})"

    # ------------------------------------------------------------------ #
    def _ensure_worker(self) -> None:
        if self._closed:
            raise ServingError(f"replica {self.name!r} is closed")
        if self.pid is not None:
            return
        if self._worker is not None:
            self._worker.stop(timeout=0.1)
        self._worker = _ChildWorker(f"repro-replica-{self.name}")
        self.restarts += 1
        try:
            events = self._run(
                _child_build, self.spec, self._telemetry.enabled, timeout=_BUILD_TIMEOUT_S
            )
        except ReplicaCrashedError:
            raise
        except Exception as error:
            # A child without a model is useless: the next request respawns.
            self._worker.stop(timeout=0.1)
            self._worker = None
            if isinstance(error, ServingError):
                raise
            raise ServingError(
                f"replica {self.name!r} failed to build its model: "
                f"{type(error).__name__}: {error}"
            ) from error
        self._telemetry.ingest(events)

    def _run(self, fn: Callable[..., Any], *args: Any, timeout: Optional[float] = None):
        """Run one task on the child; a dead child becomes ``ReplicaCrashedError``."""
        try:
            return self._worker.run(fn, args, {}, timeout=timeout)
        except WorkerCrashedError as error:
            self._worker = None
            raise ReplicaCrashedError(
                f"replica {self.name!r} child failed with a request in flight "
                f"({error}); the replica will respawn on the next request"
            ) from error
