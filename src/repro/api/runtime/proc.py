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
  persistent ``spawn``-ed child process.  Request and response arrays ship
  through two parent-owned :class:`multiprocessing.shared_memory` segments
  (grown on demand, reused across requests); only tiny metadata tuples
  travel over the control pipe.

Fault containment mirrors the process pool: a child killed mid-request
fails **only the in-flight micro-batch**, with the typed
:class:`~repro.exceptions.ReplicaCrashedError`; the replica respawns its
child lazily on the next request.  Because the parent owns both shared
segments and unlinks them in ``close()``, a dead child can never leak
shared memory.
"""

from __future__ import annotations

import multiprocessing
import threading
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError, ReplicaCrashedError, ServingError
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.utils.serialization import probe_picklable

#: shared-memory layout: leaf arrays are aligned to cache-line multiples
_ALIGN = 64
#: initial size of each parent-owned segment (grown on demand, never shrunk)
_INITIAL_SEGMENT = 1 << 16


def spawn_context():
    """The ``spawn`` multiprocessing context every runtime child uses.

    ``fork`` would duplicate live threads' locks (spill managers, serve
    loops) into the child mid-flight; ``spawn`` starts from a clean
    interpreter, which is the only start method whose children are
    deterministic about what they inherit.
    """
    return multiprocessing.get_context("spawn")


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
def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to a parent-owned segment without adopting its lifecycle.

    ``spawn`` children inherit the parent's resource-tracker process, so the
    attach's duplicate registration is a set-level no-op there — the parent
    remains the sole owner and unlinks in ``close()``.  (Deliberately *no*
    ``resource_tracker.unregister`` here: with a shared tracker that would
    remove the parent's own registration and break leak cleanup.)
    """
    return shared_memory.SharedMemory(name=name)


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
# The replica child
# --------------------------------------------------------------------------- #
def _safe_send(conn, message) -> bool:
    """Send, downgrading unpicklable payloads to a portable error."""
    try:
        conn.send(message)
        return True
    except (BrokenPipeError, OSError, EOFError):
        return False
    except Exception as error:  # noqa: BLE001 - unpicklable payload
        try:
            conn.send(
                (
                    "err",
                    ServingError(
                        f"reply could not cross the process boundary: "
                        f"{type(error).__name__}: {error}"
                    ),
                )
            )
            return True
        except Exception:  # pragma: no cover - pipe gone mid-downgrade
            return False


def _replica_child_main(spec: ModelSpec, conn, telemetry_enabled: bool = False) -> None:
    """A replica child's whole life: build once, then serve micro-batches.

    Protocol (parent → child): ``("infer", request_meta, pad_to,
    response_segment)`` per micro-batch, ``("write", new_segment)`` after
    granting a grow request, ``("stop",)``/``None``/EOF to exit.  Child →
    parent: ``("ready", None)`` after the build, then per batch one of
    ``("ok", response_meta)``, ``("need", nbytes)`` (response segment too
    small), or ``("err", exception)``.

    With ``telemetry_enabled`` the child keeps its own recorder and drains
    it into every ``"ok"`` reply's metadata (``meta["events"]``) — events
    ride the existing result channel, so a child killed mid-request ships
    nothing partial and the parent trace is never torn.
    """
    tel = Telemetry() if telemetry_enabled else NULL_TELEMETRY
    try:
        if tel.enabled:
            with tel.span("replica.build", cat="serving"):
                model = spec.build()
        else:
            model = spec.build()
    except BaseException as error:  # noqa: BLE001 - mirrored to the parent
        _safe_send(conn, ("err", error))
        conn.close()
        return
    _safe_send(conn, ("ready", None))

    from repro.autograd.tensor import no_grad
    from repro.data.dataloader import Batch
    from repro.serving.replica import pad_rows, request_rows, slice_rows

    segments: Dict[str, shared_memory.SharedMemory] = {}

    def attach(name: str) -> shared_memory.SharedMemory:
        segment = segments.get(name)
        if segment is None:
            segment = segments[name] = _attach_segment(name)
        return segment

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None or message[0] == "stop":
            break
        if message[0] != "infer":  # pragma: no cover - protocol hygiene
            continue
        _, meta, pad_to, response_name = message
        try:
            request = attach(meta["segment"])
            leaves_in = _read_leaves(request, meta["fields"], copy=False)
            arrays = {
                key: values
                for (key, _, _, _), values in zip(meta["fields"], leaves_in)
            }
            rows = request_rows(arrays)
            padded = arrays if pad_to is None else pad_rows(arrays, rows, pad_to)
            if tel.enabled:
                with tel.span("replica.forward", cat="serving", rows=rows):
                    with no_grad():
                        output = model.forward(
                            Batch(arrays={k: np.asarray(v) for k, v in padded.items()})
                        )
            else:
                with no_grad():
                    output = model.forward(
                        Batch(arrays={k: np.asarray(v) for k, v in padded.items()})
                    )
            output = slice_rows(output, 0, rows)
            leaves_out: List[Tuple[str, np.ndarray]] = []
            structure = _flatten_output(output, leaves_out)
            fields, total = _layout(leaves_out)
        except BaseException as error:  # noqa: BLE001 - mirrored to the parent
            _safe_send(conn, ("err", error))
            continue
        granted = True
        while True:
            response = attach(response_name)
            if response.size < total:
                if not _safe_send(conn, ("need", total)):
                    granted = False
                    break
                try:
                    grant = conn.recv()
                except (EOFError, OSError):
                    granted = False
                    break
                if not (isinstance(grant, tuple) and grant[0] == "write"):
                    granted = False
                    break
                response_name = grant[1]
                continue
            _write_leaves(response, leaves_out, fields)
            break
        if granted:
            reply_meta = {
                "segment": response_name,
                "structure": structure,
                "fields": fields,
            }
            if tel.enabled:
                reply_meta["events"] = tel.drain()
            _safe_send(conn, ("ok", reply_meta))
    for segment in segments.values():
        try:
            segment.close()
        except Exception:  # pragma: no cover - exit-path hygiene
            pass
    conn.close()


# --------------------------------------------------------------------------- #
# The parent-side client
# --------------------------------------------------------------------------- #
class ProcessReplica:
    """A replica whose forwards run in a persistent child process.

    Drop-in for :class:`~repro.serving.replica.Replica` wherever the
    router calls ``infer(arrays, pad_to)`` / ``close()``: the child is
    spawned lazily (or eagerly via :meth:`start`), builds its model from
    the :class:`ModelSpec` — mmapping registry weights read-only — and then
    answers micro-batches shipped through two reused shared-memory
    segments.

    One request is in flight per replica at a time (the router hands a
    private replica one batch at a time, and the internal lock serialises
    any other callers).  If the child dies mid-request the caller gets
    :class:`~repro.exceptions.ReplicaCrashedError` and the *next* request
    respawns a fresh child; :attr:`restarts` counts those respawns.

    Raises:
        ConfigurationError: at construction, for a spec that cannot pickle.
        ReplicaCrashedError: from :meth:`infer`, when the child died with
            this request in flight.
        ServingError: from :meth:`infer`/:meth:`start`, when the child
            failed to build its model.
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
        self._proc = None
        self._conn = None
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
        process = self._proc
        if process is not None and process.is_alive():
            return process.pid
        return None

    def start(self) -> "ProcessReplica":
        """Spawn the child and wait for its model build (idempotent)."""
        with self._lock:
            self._ensure_child()
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
            self._ensure_child()
            leaves = [
                (key, np.ascontiguousarray(values))
                for key, values in sorted(arrays.items())
            ]
            fields, total = _layout(leaves)
            request = self._request.ensure(total)
            _write_leaves(request, leaves, fields)
            response = self._response.ensure(_INITIAL_SEGMENT)
            meta = {"segment": request.name, "fields": fields}
            try:
                self._conn.send(("infer", meta, pad_to, response.name))
                reply = self._recv()
                if reply[0] == "need":
                    response = self._response.ensure(reply[1])
                    self._conn.send(("write", response.name))
                    reply = self._recv()
            except (BrokenPipeError, EOFError, OSError):
                raise self._crashed()
            if reply[0] == "err":
                raise reply[1]
            meta = reply[1]
            events = meta.get("events")
            if events:
                self._telemetry.ingest(events)
            leaves_out = _read_leaves(self._response.shm, meta["fields"], copy=True)
            return _rebuild_output(meta["structure"], leaves_out)

    def close(self) -> None:
        """Stop the child and unlink both shared segments (idempotent)."""
        with self._lock:
            self._closed = True
            self._stop_child_locked()
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
    def _ensure_child(self) -> None:
        if self._closed:
            raise ServingError(f"replica {self.name!r} is closed")
        if self._proc is not None and self._proc.is_alive():
            return
        self._stop_child_locked()
        context = spawn_context()
        self._conn, child_conn = context.Pipe(duplex=True)
        self._proc = context.Process(
            target=_replica_child_main,
            args=(self.spec, child_conn, self._telemetry.enabled),
            name=f"repro-replica-{self.name}",
            daemon=True,
        )
        self._proc.start()
        child_conn.close()
        self.restarts += 1
        try:
            reply = self._recv(timeout=120.0)
        except (EOFError, OSError):
            raise self._crashed()
        if reply[0] == "err":
            error = reply[1]
            raise error if isinstance(error, ServingError) else ServingError(
                f"replica {self.name!r} failed to build its model: "
                f"{type(error).__name__}: {error}"
            )

    def _recv(self, timeout: Optional[float] = None):
        """Receive one message, raising ``ReplicaCrashedError`` on child death."""
        waited = 0.0
        while not self._conn.poll(0.05):
            waited += 0.05
            if timeout is not None and waited >= timeout:
                raise self._crashed()
            if not self._proc.is_alive() and not self._conn.poll(0.05):
                raise self._crashed()
        return self._conn.recv()

    def _crashed(self) -> ReplicaCrashedError:
        process, self._proc = self._proc, None
        exitcode = process.exitcode if process is not None else None
        return ReplicaCrashedError(
            f"replica {self.name!r} child process died with a request in "
            f"flight (exitcode={exitcode}); the replica will respawn on the "
            "next request"
        )

    def _stop_child_locked(self) -> None:
        process, self._proc = self._proc, None
        conn, self._conn = self._conn, None
        if conn is not None:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        if process is not None:
            process.join(timeout=2.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
            if process.is_alive():  # pragma: no cover - SIGKILL backstop
                process.kill()
                process.join(timeout=1.0)
        if conn is not None:
            conn.close()
