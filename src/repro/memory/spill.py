"""The shard residency state machine: resident → evicted → prefetching.

A :class:`SpillManager` tracks one :class:`ShardResidency` record per
``(model_id, shard_index)`` key.  Executors *lease* a shard around every use
(forward, loss, backward+update); between leases a shard is fair game for
eviction, which stashes its parameter and optimizer-state arrays into the
:class:`~repro.memory.host_cache.HostShardCache` and releases its
:class:`~repro.memory.arena.DeviceArena` charge.  Re-acquiring an evicted
shard restores the exact bytes in place (``np.copyto`` into the live
arrays), so spilled training is bit-identical to fully-resident training —
the same exactness bar the fused kernels meet.

Eviction is pluggable: :class:`LRUEvictionPolicy` evicts the
least-recently-used shard; :class:`ScheduleAwareEvictionPolicy` consumes the
access sequences executors announce per batch and evicts the shard whose
next hop is furthest away (Belady's rule on the declared schedule).

The manager is thread-safe: under the concurrent runtime several trials
share the same arenas, and an acquire that cannot make room (everything
else pinned) waits on a condition until pins or prefetches clear — with a
timeout that turns a would-be deadlock into a loud
:class:`~repro.exceptions.MemoryBudgetError`.
"""

from __future__ import annotations

import enum
import threading
import time
from collections import OrderedDict, deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError, MemoryBudgetError
from repro.memory.arena import DeviceArena
from repro.memory.host_cache import HostShardCache, ShardKey
from repro.memory.prefetch import Prefetcher
from repro.telemetry import NULL_TELEMETRY

#: returns the live device-side arrays of a shard (params + optimizer state),
#: in a stable order — re-evaluated at each stash/restore so lazily created
#: optimizer state is picked up
ArraysFn = Callable[[], List[np.ndarray]]


class ResidencyState(str, enum.Enum):
    """Where a shard's bytes currently live."""

    RESIDENT = "resident"
    EVICTED = "evicted"
    PREFETCHING = "prefetching"


@dataclass
class ShardResidency:
    """Book-keeping for one registered shard (internal to the manager)."""

    key: ShardKey
    device: str
    nbytes: int
    arrays_fn: ArraysFn
    state: ResidencyState = ResidencyState.EVICTED
    pins: int = 0
    last_use: int = 0
    prefetch_error: Optional[BaseException] = None


@dataclass
class SpillStats:
    """Counters the spill manager accumulates (see ``docs/memory.md``)."""

    demand_fetches: int = 0
    prefetches_issued: int = 0
    prefetches_completed: int = 0
    evictions: int = 0
    bytes_fetched: int = 0
    bytes_evicted: int = 0
    acquire_waits: int = 0

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain dict (for reports and benchmarks)."""
        return dict(vars(self))


# --------------------------------------------------------------------------- #
# Eviction policies
# --------------------------------------------------------------------------- #
class EvictionPolicy:
    """Chooses which evictable shard to push to host when room is needed."""

    name = "policy"

    def note_access(self, record: ShardResidency) -> None:
        """Called on every acquire of ``record`` (in schedule order)."""

    def announce(self, model_id: str, sequence: Sequence[ShardKey]) -> None:
        """Called when an executor declares its upcoming access sequence."""

    def retire(self, model_id: str) -> None:
        """Forget any bookkeeping for a model that is being torn down."""

    def choose(self, candidates: List[ShardResidency]) -> ShardResidency:
        """Pick the victim among ``candidates`` (non-empty)."""
        raise NotImplementedError


class LRUEvictionPolicy(EvictionPolicy):
    """Evict the least-recently-acquired shard (classic LRU)."""

    name = "lru"

    def choose(self, candidates: List[ShardResidency]) -> ShardResidency:
        """The candidate with the oldest ``last_use`` (key as tiebreak)."""
        return min(candidates, key=lambda r: (r.last_use, r.key))


class ScheduleAwareEvictionPolicy(EvictionPolicy):
    """Evict the shard whose next scheduled hop is furthest away.

    Executors :meth:`announce` each batch's access sequence (the forward
    chain then the backward chain); accesses consume the sequence as they
    happen.  A shard with no upcoming access (its model is between batches)
    is the ideal victim; otherwise the one that will be needed last goes —
    Belady's MIN rule applied to the declared schedule, which is exactly the
    information a shard-parallel trainer has.
    """

    name = "schedule-aware"

    def __init__(self) -> None:
        self._upcoming: Dict[str, Deque[ShardKey]] = {}

    def announce(self, model_id: str, sequence: Sequence[ShardKey]) -> None:
        """Replace ``model_id``'s upcoming access sequence."""
        self._upcoming[model_id] = deque(sequence)

    def note_access(self, record: ShardResidency) -> None:
        """Consume the first scheduled occurrence of the accessed shard."""
        queue = self._upcoming.get(record.key[0])
        if queue:
            try:
                queue.remove(record.key)
            except ValueError:
                pass

    def retire(self, model_id: str) -> None:
        """Drop the model's schedule."""
        self._upcoming.pop(model_id, None)

    def _next_use(self, key: ShardKey) -> float:
        queue = self._upcoming.get(key[0])
        if not queue:
            return float("inf")
        for position, upcoming in enumerate(queue):
            if upcoming == key:
                return float(position)
        return float("inf")

    def choose(self, candidates: List[ShardResidency]) -> ShardResidency:
        """The candidate needed furthest in the future (LRU as tiebreak)."""
        return max(
            candidates,
            key=lambda r: (self._next_use(r.key), -r.last_use, r.key),
        )


_POLICIES: Dict[str, Callable[[], EvictionPolicy]] = {
    "lru": LRUEvictionPolicy,
    "schedule-aware": ScheduleAwareEvictionPolicy,
}


def make_eviction_policy(name: str) -> EvictionPolicy:
    """Build an eviction policy by name (``"lru"`` or ``"schedule-aware"``)."""
    if name not in _POLICIES:
        raise ConfigurationError(
            f"unknown eviction policy {name!r}; available: {sorted(_POLICIES)}"
        )
    return _POLICIES[name]()


# --------------------------------------------------------------------------- #
# The manager
# --------------------------------------------------------------------------- #
class SpillManager:
    """Owns shard residency across a set of device arenas (see module docstring).

    Example::

        arenas = [DeviceArena("dev0", capacity_bytes=64 << 20)]
        manager = SpillManager(arenas, policy="lru")
        manager.register(("mlp", 0), "dev0", nbytes, arrays_fn)
        with manager.lease(("mlp", 0)):
            ...  # shard is resident and pinned

    ``scrub_evicted=True`` fills evicted float arrays with NaN after
    stashing them — any use that skips re-acquisition then fails loudly
    instead of silently training on stale weights (the exactness tests run
    with this on).

    Raises:
        ConfigurationError: on unknown arenas/keys or invalid registration.
        MemoryBudgetError: when a shard cannot fit its arena, or an acquire
            times out waiting for pinned occupants to clear.
    """

    def __init__(
        self,
        arenas: Union[Sequence[DeviceArena], Dict[str, DeviceArena]],
        cache: Optional[HostShardCache] = None,
        policy: Union[str, EvictionPolicy] = "lru",
        prefetcher: Optional[Prefetcher] = None,
        scrub_evicted: bool = False,
        acquire_timeout_seconds: float = 60.0,
        telemetry=None,
    ):
        if isinstance(arenas, dict):
            arena_list = list(arenas.values())
        else:
            arena_list = list(arenas)
        if not arena_list:
            raise ConfigurationError("a SpillManager needs at least one arena")
        names = [arena.name for arena in arena_list]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate arena names: {names}")
        self.arenas: "OrderedDict[str, DeviceArena]" = OrderedDict(
            (arena.name, arena) for arena in arena_list
        )
        self.cache = cache if cache is not None else HostShardCache()
        self.policy = make_eviction_policy(policy) if isinstance(policy, str) else policy
        self.prefetcher = prefetcher
        self.scrub_evicted = bool(scrub_evicted)
        self.acquire_timeout_seconds = float(acquire_timeout_seconds)
        self.stats = SpillStats()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._records: Dict[ShardKey, ShardResidency] = {}
        self._cond = threading.Condition(threading.RLock())
        self._clock = 0

    def bind_telemetry(self, telemetry, name: str = "spill") -> None:
        """Attach a recorder after construction and publish residency metrics.

        Registers a collector named ``name`` whose snapshot folds the
        :class:`SpillStats` counters together with the live
        ``resident_bytes``/``registered_bytes`` occupancy — the absorption
        path for components (backends, routers) that build their manager
        before telemetry is wired in.
        """
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.telemetry.register_collector(
            name,
            lambda: {
                **self.stats.as_dict(),
                "resident_bytes": self.resident_bytes(),
                "registered_bytes": self.registered_bytes(),
            },
        )

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    @property
    def arena_names(self) -> List[str]:
        """Arena names in registration order (index ``i`` = device ``i``)."""
        return list(self.arenas)

    def register(self, key: ShardKey, device: str, nbytes: int, arrays_fn: ArraysFn) -> None:
        """Register (or re-register) a shard with its device and byte size.

        Re-registration is how resumed trials re-attach: the arrays callback
        is refreshed, and a device change (a later cohort placing the model
        differently) first evicts the shard from its old arena.  A shard
        starts ``EVICTED`` — conceptually host-resident — and is charged to
        its arena on first acquire.
        """
        if device not in self.arenas:
            raise ConfigurationError(
                f"unknown arena {device!r}; manager has {self.arena_names}"
            )
        if nbytes < 0:
            raise ConfigurationError(f"shard size must be non-negative, got {nbytes}")
        with self._cond:
            record = self._records.get(key)
            if record is None:
                self._records[key] = ShardResidency(
                    key=key, device=device, nbytes=int(nbytes), arrays_fn=arrays_fn
                )
                return
            # Let any in-flight transfer land before rewriting the record —
            # re-routing device/nbytes/arrays_fn under a live copy would
            # corrupt the arena ledgers (and the copy itself).
            while record.state is ResidencyState.PREFETCHING:
                self._wait_locked(time.monotonic() + self.acquire_timeout_seconds, key)
            if record.pins > 0:
                raise ConfigurationError(f"cannot re-register pinned shard {key!r}")
            if record.device != device or record.nbytes != nbytes:
                if record.state is ResidencyState.RESIDENT:
                    self._evict_locked(record)
                record.device = device
                record.nbytes = int(nbytes)
            record.arrays_fn = arrays_fn

    def forget(self, key: ShardKey) -> None:
        """Drop a shard from management, restoring its bytes first.

        An evicted shard's canonical values live in the host cache; they are
        copied back into the live arrays so the model object remains valid
        after the manager lets go (e.g. at trial teardown).
        """
        with self._cond:
            record = self._records.get(key)
            if record is None:
                return
            while record.state is ResidencyState.PREFETCHING:
                self._wait_locked(time.monotonic() + self.acquire_timeout_seconds, key)
            # Checked *after* any wait: another thread may have pinned the
            # shard the moment its prefetch landed.
            if record.pins > 0:
                raise ConfigurationError(f"cannot forget pinned shard {key!r}")
            if record.state is ResidencyState.RESIDENT:
                self.arenas[record.device].release(self._arena_key(record))
            elif self.cache.holds(key):
                self._restore_locked(record)
            del self._records[key]
            self._cond.notify_all()

    def forget_model(self, model_id: str) -> None:
        """Forget every shard of ``model_id`` and drop its schedule."""
        with self._cond:
            for key in [k for k in self._records if k[0] == model_id]:
                self.forget(key)
            self.policy.retire(model_id)
            self.cache.drop_model(model_id)

    def registered(self) -> List[ShardKey]:
        """Keys currently under management."""
        with self._cond:
            return sorted(self._records)

    def residency(self, key: ShardKey) -> ResidencyState:
        """The shard's current residency state."""
        with self._cond:
            return self._record(key).state

    def resident_keys(self) -> List[ShardKey]:
        """Keys whose bytes are currently on a device (resident or landing).

        ``PREFETCHING`` shards count: their arena charge is already taken,
        so for occupancy purposes they are on-device.  Used by the serving
        router to report which whole models are hot.
        """
        with self._cond:
            return sorted(
                record.key
                for record in self._records.values()
                if record.state is not ResidencyState.EVICTED
            )

    def resident_bytes(self) -> int:
        """Total bytes currently charged to arenas by managed shards."""
        with self._cond:
            return sum(
                record.nbytes
                for record in self._records.values()
                if record.state is not ResidencyState.EVICTED
            )

    def registered_bytes(self) -> int:
        """Total bytes under management, resident or not.

        When this exceeds the arenas' combined capacity the working set is
        over-committed — exactly the regime spilling exists for; the ratio
        is the router's head-line residency metric.
        """
        with self._cond:
            return sum(record.nbytes for record in self._records.values())

    # ------------------------------------------------------------------ #
    # Leasing
    # ------------------------------------------------------------------ #
    def acquire(self, key: ShardKey) -> None:
        """Pin the shard, restoring it from host first if necessary.

        Blocks while other occupants are pinned or a prefetch is in flight;
        raises :class:`MemoryBudgetError` after ``acquire_timeout_seconds``.
        """
        deadline = time.monotonic() + self.acquire_timeout_seconds
        with self._cond:
            record = self._record(key)
            while True:
                if record.prefetch_error is not None:
                    # A failed prefetch restored nothing (its payload went
                    # back to the cache); surface the error to the user
                    # instead of silently demand-fetching around it.
                    error = record.prefetch_error
                    record.prefetch_error = None
                    raise error
                if record.state is ResidencyState.RESIDENT:
                    record.pins += 1
                    self._note_use(record)
                    return
                if record.state is ResidencyState.PREFETCHING:
                    self._wait_locked(deadline, key)
                    continue
                arena = self.arenas[record.device]
                if record.nbytes > arena.capacity_bytes:
                    raise MemoryBudgetError(
                        f"shard {key!r} needs {record.nbytes} bytes but arena "
                        f"{arena.name!r} holds only {arena.capacity_bytes}"
                    )
                if not self._make_room_locked(record, arena):
                    self.stats.acquire_waits += 1
                    self._wait_locked(deadline, key)
                    continue
                arena.allocate(self._arena_key(record), record.nbytes)
                with self.telemetry.span(
                    "spill.fetch", cat="memory", key=str(key), bytes=record.nbytes
                ):
                    self._restore_locked(record)
                record.state = ResidencyState.RESIDENT
                record.pins += 1
                self._note_use(record)
                self.stats.demand_fetches += 1
                self.stats.bytes_fetched += record.nbytes
                self._cond.notify_all()
                return

    def release(self, key: ShardKey) -> None:
        """Unpin the shard (it stays resident until pressure evicts it)."""
        with self._cond:
            record = self._record(key)
            if record.pins <= 0:
                raise ConfigurationError(f"release without acquire for shard {key!r}")
            record.pins -= 1
            if record.pins == 0:
                self._cond.notify_all()

    @contextmanager
    def lease(self, key: ShardKey) -> Iterator[None]:
        """``with manager.lease(key):`` — acquire on entry, release on exit.

        The ``spill.lease`` span covers the wait for residency too, so a
        lease whose acquire times out still shows up in the trace.
        """
        tel = self.telemetry
        token = tel.begin("spill.lease", cat="memory", key=str(key))
        try:
            self.acquire(key)
            try:
                yield
            finally:
                self.release(key)
        finally:
            tel.end(token)

    def announce(self, model_id: str, sequence: Sequence[ShardKey]) -> None:
        """Declare a model's upcoming access sequence (for schedule-aware eviction)."""
        with self._cond:
            self.policy.announce(model_id, sequence)

    # ------------------------------------------------------------------ #
    # Prefetch
    # ------------------------------------------------------------------ #
    def prefetch(self, key: ShardKey) -> bool:
        """Start an async restore of an evicted shard; ``True`` if begun.

        Opportunistic: returns ``False`` (without waiting) when the shard is
        already resident or in flight, no prefetcher is attached, the
        double-buffer is full, or room cannot be made without touching
        pinned shards.  The transfer overlaps the caller's compute; a later
        :meth:`acquire` joins on it.
        """
        if self.prefetcher is None:
            return False
        with self._cond:
            record = self._records.get(key)
            if record is None or record.state is not ResidencyState.EVICTED:
                return False
            arena = self.arenas[record.device]
            if record.nbytes > arena.capacity_bytes:
                return False
            if not self.prefetcher.try_reserve():
                return False
            if not self._make_room_locked(record, arena):
                self.prefetcher.cancel_reservation()
                return False
            arena.allocate(self._arena_key(record), record.nbytes)
            record.state = ResidencyState.PREFETCHING
            record.prefetch_error = None
            self.stats.prefetches_issued += 1
            payload = self._take_payload(record)

        def job() -> None:
            with self.telemetry.span(
                "spill.prefetch", cat="memory", key=str(record.key), bytes=record.nbytes
            ):
                self._copy_into_live_arrays(record, payload)

        def on_done(error: Optional[BaseException]) -> None:
            with self._cond:
                if error is None:
                    record.state = ResidencyState.RESIDENT
                    self.stats.prefetches_completed += 1
                    self.stats.bytes_fetched += record.nbytes
                else:
                    # The payload was already taken from the cache; put it
                    # back so the canonical bytes survive the failure, and
                    # keep the error to re-raise at the next acquire — a
                    # silent failure here would train on stale weights.
                    if payload is not None:
                        self.cache.put(record.key, payload)
                    self.arenas[record.device].release(self._arena_key(record))
                    record.state = ResidencyState.EVICTED
                    record.prefetch_error = error
                self._cond.notify_all()

        self.prefetcher.submit(job, on_done)
        return True

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut down the attached prefetcher's worker (if any).

        Safe to call repeatedly; a prefetcher built on a caller-supplied
        pool leaves that pool running (ownership stays with the caller).
        """
        if self.prefetcher is not None:
            self.prefetcher.close()

    # ------------------------------------------------------------------ #
    # Eviction
    # ------------------------------------------------------------------ #
    def evict(self, key: ShardKey) -> None:
        """Explicitly push one unpinned resident shard to host (mostly for tests)."""
        with self._cond:
            record = self._record(key)
            if record.state is not ResidencyState.RESIDENT:
                raise ConfigurationError(f"shard {key!r} is not resident")
            if record.pins > 0:
                raise ConfigurationError(f"cannot evict pinned shard {key!r}")
            self._evict_locked(record)
            self._cond.notify_all()

    # ------------------------------------------------------------------ #
    # Internals (call with the condition's lock held)
    # ------------------------------------------------------------------ #
    def _record(self, key: ShardKey) -> ShardResidency:
        if key not in self._records:
            raise ConfigurationError(f"shard {key!r} is not registered")
        return self._records[key]

    @staticmethod
    def _arena_key(record: ShardResidency) -> str:
        model_id, shard_index = record.key
        return f"{model_id}/shard{shard_index}/resident"

    def _note_use(self, record: ShardResidency) -> None:
        self._clock += 1
        record.last_use = self._clock
        self.policy.note_access(record)

    def _wait_locked(self, deadline: float, key: ShardKey) -> None:
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not self._cond.wait(timeout=remaining):
            pinned = [
                r.key for r in self._records.values() if r.pins > 0
            ]
            raise MemoryBudgetError(
                f"timed out waiting to make {key!r} resident; pinned shards: "
                f"{pinned or 'none'} — the budget is too tight for the "
                f"concurrent working set"
            )

    def _make_room_locked(self, record: ShardResidency, arena: DeviceArena) -> bool:
        while record.nbytes > arena.free_bytes:
            candidates = [
                r
                for r in self._records.values()
                if r is not record
                and r.device == record.device
                and r.state is ResidencyState.RESIDENT
                and r.pins == 0
            ]
            if not candidates:
                return False
            victim = self.policy.choose(candidates)
            self._evict_locked(victim)
        return True

    def _evict_locked(self, record: ShardResidency) -> None:
        # The stash copy (and, with a disk-tiered cache, its overflow write)
        # runs under the manager lock: deferring it would need an extra
        # EVICTING state so a concurrent acquire cannot observe the scrubbed
        # arrays as canonical.  Correctness-first; the hold is one shard's
        # memcpy unless a disk tier is configured.
        with self.telemetry.span(
            "spill.evict", cat="memory", key=str(record.key), bytes=record.nbytes
        ):
            arrays = record.arrays_fn()
            self.cache.put(record.key, arrays)
            if self.scrub_evicted:
                for array in arrays:
                    if np.issubdtype(array.dtype, np.floating):
                        array.fill(np.nan)
            self.arenas[record.device].release(self._arena_key(record))
        record.state = ResidencyState.EVICTED
        self.stats.evictions += 1
        self.stats.bytes_evicted += record.nbytes

    def _take_payload(self, record: ShardResidency) -> Optional[List[np.ndarray]]:
        return self.cache.take(record.key) if self.cache.holds(record.key) else None

    def _restore_locked(self, record: ShardResidency) -> None:
        self._copy_into_live_arrays(record, self._take_payload(record))

    @staticmethod
    def _copy_into_live_arrays(
        record: ShardResidency, payload: Optional[List[np.ndarray]]
    ) -> None:
        if payload is None:
            # First fetch: the live arrays already hold the canonical values
            # (models are built in host memory); only the ledger changes.
            return
        live = record.arrays_fn()
        if len(live) != len(payload):
            raise ConfigurationError(
                f"shard {record.key!r}: stash holds {len(payload)} arrays but the "
                f"live shard exposes {len(live)} — arrays_fn must be stable "
                "across an eviction"
            )
        for destination, source in zip(live, payload):
            np.copyto(destination, source, casting="no")

    def __repr__(self) -> str:
        with self._cond:
            resident = sum(
                1 for r in self._records.values() if r.state is ResidencyState.RESIDENT
            )
            return (
                f"SpillManager({len(self._records)} shards, {resident} resident, "
                f"arenas={self.arena_names}, policy={self.policy.name})"
            )
