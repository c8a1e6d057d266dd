"""Sharded execution with exact gradient equivalence.

:class:`ShardedModelExecutor` runs one model *shard by shard*, the way a
model-parallel system would: the autograd graph is cut at every shard
boundary, shards keep their own activation stashes, and gradients are handed
across boundaries explicitly during the backward pass.  Because only the
graph structure changes — not the arithmetic — the resulting parameter
gradients are identical to whole-model backpropagation, which is the paper's
"exact replication of model training output" desideratum (D3) and what the
parity tests/benchmark verify.

:class:`ShardParallelTrainer` layers the multi-model part on top: it drives
several executors at shard-task granularity in a Hydra-like interleaved
order over a set of simulated devices, so the examples can show real
training happening under shard parallelism.

Both opt into *spilled* execution through a
:class:`~repro.memory.spill.SpillManager` (see ``docs/memory.md``): bound
executors lease each shard around every use (forward / loss / backward +
update) instead of assuming residency, announce their access schedule for
schedule-aware eviction, prefetch the next shard while the current one
computes, and apply the optimizer *per shard* while it is pinned — which is
bit-identical to a whole-model step because each parameter's update depends
only on its own gradient, state, and the shared step counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.data.dataloader import Batch, DataLoader
from repro.exceptions import ConfigurationError, SchedulingError
from repro.models.base import ShardableModel
from repro.optim.optimizer import Optimizer
from repro.telemetry import NULL_TELEMETRY
from repro.training.metrics import MetricTracker
from repro.training.trainer import TrainingReport

if TYPE_CHECKING:  # imported lazily at runtime to avoid an api/training cycle
    from repro.memory.spill import SpillManager


def _detach_state(state: Any) -> Any:
    """Detach a boundary state from the upstream graph, re-enabling gradients.

    Supports a single tensor or a tuple/list of tensors (non-tensor entries
    pass through unchanged, e.g. attention masks carried as numpy arrays).
    """
    if isinstance(state, Tensor):
        detached = state.detach()
        detached.requires_grad = True
        return detached
    if isinstance(state, (tuple, list)):
        return type(state)(_detach_state(item) for item in state)
    return state


def _state_tensors(state: Any) -> List[Tensor]:
    if isinstance(state, Tensor):
        return [state]
    if isinstance(state, (tuple, list)):
        tensors: List[Tensor] = []
        for item in state:
            tensors.extend(_state_tensors(item))
        return tensors
    return []


@dataclass
class _ShardContext:
    """Activation stash for one shard of one in-flight mini-batch."""

    boundary_input: Any = None
    output: Any = None


class ShardedModelExecutor:
    """Executes one shardable model as a pipeline of graph-disconnected shards."""

    def __init__(self, model: ShardableModel, boundaries: Sequence[Tuple[int, int]]):
        self.model = model
        self.boundaries = [tuple(b) for b in boundaries]
        self._validate_boundaries()
        self._contexts: List[_ShardContext] = []
        self._loss: Optional[Tensor] = None
        self._memory: Optional["SpillManager"] = None
        self._memory_optimizer: Optional[Optimizer] = None
        self._memory_model_id: Optional[str] = None
        self._advance_pending = False
        self.telemetry = NULL_TELEMETRY

    def _validate_boundaries(self) -> None:
        expected = 0
        for start, stop in self.boundaries:
            if start != expected or stop <= start:
                raise SchedulingError(
                    f"invalid shard boundaries {self.boundaries} for model "
                    f"{self.model.model_name!r}"
                )
            expected = stop
        if expected != self.model.num_blocks():
            raise SchedulingError(
                f"boundaries cover {expected} blocks but model has {self.model.num_blocks()}"
            )

    @property
    def num_shards(self) -> int:
        return len(self.boundaries)

    # ------------------------------------------------------------------ #
    # Spilled execution (opt-in)
    # ------------------------------------------------------------------ #
    def bind_memory(
        self,
        manager: "SpillManager",
        optimizer: Optional[Optimizer] = None,
        model_id: Optional[str] = None,
        device_of: Optional[Callable[[int], str]] = None,
    ) -> None:
        """Route every shard access through a spill manager.

        Registers each shard with its arena (``device_of`` maps shard index
        to arena name; default: round-robin over the manager's arenas) and
        its byte footprint — parameter bytes plus the optimizer's per-scalar
        state bytes.  From then on forward/loss/backward lease the shard
        (restoring it from host when evicted), the next shard is prefetched
        while the current one computes, and the optimizer update runs *per
        shard* inside its backward lease, so no more than one of this
        model's shards needs to be resident per device at a time.

        ``optimizer=None`` binds the executor for *inference only* (the
        serving subsystem's spilled replicas): shards carry just their
        parameter bytes, :meth:`forward_only` leases them as usual, and a
        backward pass raises instead of silently training without per-shard
        updates.
        """
        model_id = model_id if model_id is not None else self.model.model_name
        names = manager.arena_names
        if device_of is None:
            device_of = lambda shard_index: names[shard_index % len(names)]  # noqa: E731
        # ``state_bytes_per_parameter`` counts float32 scalars (4 bytes each);
        # the actual state arrays are ``zeros_like(param)``, so what matters
        # is how many param-shaped arrays the optimizer keeps — charging
        # ``count × param.nbytes`` stays honest for float64 parameters too.
        state_arrays = (
            0 if optimizer is None else (optimizer.state_bytes_per_parameter + 3) // 4
        )
        for shard_index in range(self.num_shards):
            params = self.shard_parameters(shard_index)
            nbytes = sum(p.data.nbytes for p in params) * (1 + state_arrays)
            manager.register(
                (model_id, shard_index),
                device_of(shard_index),
                nbytes,
                self._shard_arrays_fn(params, optimizer),
            )
        self._memory = manager
        self._memory_optimizer = optimizer
        self._memory_model_id = model_id

    @staticmethod
    def _shard_arrays_fn(params: List, optimizer: Optional[Optimizer]):
        """Stable-order view of a shard's live arrays (params, then state)."""

        def arrays() -> List[np.ndarray]:
            collected: List[np.ndarray] = []
            for param in params:
                collected.append(param.data)
                state = optimizer.state.get(id(param)) if optimizer is not None else None
                if state:
                    collected.extend(state[key] for key in sorted(state))
            return collected

        return arrays

    @property
    def updates_inline(self) -> bool:
        """Whether optimizer updates happen per shard inside ``run_backward``."""
        return self._memory is not None and self._memory_optimizer is not None

    def _shard_key(self, shard_index: int) -> Tuple[str, int]:
        return (self._memory_model_id, shard_index)

    def _announce_schedule(self) -> None:
        """Declare this batch's access order: forward chain, the loss's lease
        of the final shard, then the backward chain — every acquire consumes
        one announced slot, so the loss access must appear or the
        schedule-aware policy would see the final shard as hop-less right
        before its backward and evict exactly the shard needed next."""
        forward = [self._shard_key(i) for i in range(self.num_shards)]
        loss = [self._shard_key(self.num_shards - 1)]
        backward = [self._shard_key(i) for i in reversed(range(self.num_shards))]
        self._memory.announce(self._memory_model_id, forward + loss + backward)

    # ------------------------------------------------------------------ #
    # Fine-grained task API (mirrors the scheduler's FORWARD/BACKWARD/UPDATE)
    # ------------------------------------------------------------------ #
    def begin_batch(self) -> None:
        """Reset per-batch activation stashes."""
        self._contexts = [_ShardContext() for _ in self.boundaries]
        self._loss = None
        if self._memory is not None:
            self._advance_pending = True
            self._announce_schedule()

    def end_batch(self) -> None:
        """Drop the activation stashes and loss of the finished batch.

        The boundary inputs/outputs (and through them whatever autograd
        state survived the backward pass) would otherwise stay alive until
        the next ``begin_batch``, keeping one batch's worth of activation
        memory resident between optimisation steps.
        """
        self._contexts = []
        self._loss = None

    def run_forward(self, shard_index: int, batch: Batch) -> Any:
        """Forward pass of one shard; stores the boundary input and output.

        With a bound spill manager the shard is leased for the duration of
        the pass (restored from host if evicted) and the *next* shard's
        fetch is kicked off first so it overlaps this shard's compute.
        """
        if self._memory is None:
            return self._forward_body(shard_index, batch)
        with self._memory.lease(self._shard_key(shard_index)):
            if shard_index + 1 < self.num_shards:
                self._memory.prefetch(self._shard_key(shard_index + 1))
            return self._forward_body(shard_index, batch)

    def _forward_body(self, shard_index: int, batch: Batch) -> Any:
        context = self._contexts[shard_index]
        if shard_index == 0:
            state: Any = None
        else:
            upstream = self._contexts[shard_index - 1].output
            state = _detach_state(upstream)
        context.boundary_input = state
        start, stop = self.boundaries[shard_index]
        for block_index in range(start, stop):
            state = self.model.run_block(block_index, state, batch)
        context.output = state
        return state

    def compute_loss(self, batch: Batch) -> Tensor:
        """Loss on the final shard's output (graph still attached to that shard only)."""
        if self._memory is None:
            final_output = self._contexts[-1].output
            self._loss = self.model.compute_loss(final_output, batch)
            return self._loss
        # Leased in case the loss head reads parameters of the final shard.
        with self._memory.lease(self._shard_key(self.num_shards - 1)):
            final_output = self._contexts[-1].output
            self._loss = self.model.compute_loss(final_output, batch)
            return self._loss

    def run_backward(self, shard_index: int) -> None:
        """Backward pass of one shard, consuming the downstream boundary gradient.

        With a bound spill manager the shard is leased for the pass, the
        *previous* shard's fetch is started first (it is the next one the
        backward chain needs), and the shard's optimizer update runs inline
        before the lease ends — the only window in which its parameters,
        gradients, and optimizer state are all guaranteed resident.
        """
        if self._memory is None:
            self._backward_body(shard_index)
            return
        if self._memory_optimizer is None:
            raise SchedulingError(
                "this executor was bound for inference only (bind_memory "
                "without an optimizer); spilled backward passes need the "
                "optimizer registered so per-shard updates can run inline"
            )
        with self._memory.lease(self._shard_key(shard_index)):
            if shard_index > 0:
                self._memory.prefetch(self._shard_key(shard_index - 1))
            self._backward_body(shard_index)
            if self._advance_pending:
                self._memory_optimizer.advance_step()
                self._advance_pending = False
            self._memory_optimizer.step_params(self.shard_parameters(shard_index))

    def _backward_body(self, shard_index: int) -> None:
        context = self._contexts[shard_index]
        if shard_index == self.num_shards - 1:
            if self._loss is None:
                raise SchedulingError("compute_loss must run before the last shard's backward")
            self._loss.backward()
        else:
            downstream_input = self._contexts[shard_index + 1].boundary_input
            boundary_grads = [
                tensor.grad for tensor in _state_tensors(downstream_input)
            ]
            output_tensors = _state_tensors(context.output)
            if len(boundary_grads) != len(output_tensors):
                raise SchedulingError(
                    "boundary gradient structure does not match shard output structure"
                )
            pending = [
                (tensor, grad)
                for tensor, grad in zip(output_tensors, boundary_grads)
                if grad is not None
            ]
            for position, (tensor, grad) in enumerate(pending):
                # Multi-tensor boundary states may share a subgraph: only the
                # last backward may free contexts, or the earlier passes would
                # silently detach the shared portion for the later ones.
                tensor.backward(grad, retain_graph=position < len(pending) - 1)

    def shard_parameters(self, shard_index: int) -> List:
        """Parameters owned by the blocks of one shard."""
        start, stop = self.boundaries[shard_index]
        params: List = []
        for block_index in range(start, stop):
            params.extend(self.model.block_parameters(block_index))
        return params

    # ------------------------------------------------------------------ #
    # Whole-step convenience
    # ------------------------------------------------------------------ #
    def train_step(self, batch: Batch, optimizer: Optimizer) -> float:
        """One full sharded optimisation step (forward chain, loss, backward chain, update).

        Under a bound spill manager the update happens per shard inside each
        backward lease (bit-identical arithmetic; see :meth:`bind_memory`),
        so no whole-model ``optimizer.step`` runs here.
        """
        if self._memory is not None and self._memory_optimizer is None:
            raise ConfigurationError(
                "this executor was bound for inference only (bind_memory "
                "without an optimizer); it cannot run training steps"
            )
        if self._memory is not None and optimizer is not self._memory_optimizer:
            raise ConfigurationError(
                "train_step received a different optimizer than bind_memory; "
                "spilled updates must go through the registered optimizer"
            )
        with self.telemetry.span("step", cat="training", model=self.model.model_name):
            return self._train_step_impl(batch, optimizer)

    def _train_step_impl(self, batch: Batch, optimizer: Optimizer) -> float:
        """The uninstrumented step body (E16 benchmarks this directly)."""
        self.begin_batch()
        self.model.zero_grad()
        for shard_index in range(self.num_shards):
            self.run_forward(shard_index, batch)
        loss = self.compute_loss(batch)
        for shard_index in reversed(range(self.num_shards)):
            self.run_backward(shard_index)
        if not self.updates_inline:
            optimizer.step()
        loss_value = loss.item()
        self.end_batch()
        return loss_value

    def forward_only(self, batch: Batch) -> Any:
        """Sharded inference under ``no_grad`` (no autograd graph is built).

        Output values are bit-identical to the graph-building forward — only
        the recording is skipped — and with a bound spill manager only the
        forward chain is announced, so schedule-aware eviction never plans
        for a backward pass that will not happen.
        """
        self.begin_batch()
        if self._memory is not None:
            self._memory.announce(
                self._memory_model_id,
                [self._shard_key(i) for i in range(self.num_shards)],
            )
        with no_grad():
            output = None
            for shard_index in range(self.num_shards):
                output = self.run_forward(shard_index, batch)
        self.end_batch()
        return output


@dataclass
class _ModelSlot:
    """Book-keeping for one model managed by the shard-parallel trainer."""

    model_id: str
    executor: ShardedModelExecutor
    optimizer: Optimizer
    loader: DataLoader
    report: TrainingReport
    tracker: MetricTracker = field(default_factory=MetricTracker)
    shard_devices: List[int] = field(default_factory=list)


class ShardParallelTrainer:
    """Hydra-style interleaved training of several sharded models.

    ``num_devices`` simulated devices execute shard tasks; shard ``i`` of
    model ``j`` is pinned to device ``(i + j) % num_devices``.  The trainer
    walks mini-batches of all models concurrently, issuing forward/backward
    shard tasks in a round-robin over models — the numerical results are
    independent of the interleaving because models share no state, which is
    exactly why Hydra's fine-grained schedule is safe.

    With ``memory_manager`` set, every registered model executes *spilled*:
    shards are leased through the manager around each task (shard ``i`` of
    model ``j`` charges the arena of its device, ``arena_names[(i + j) %
    len(arena_names)]``), optimizer updates happen per shard inside the
    backward lease, and idle shards are evicted to the host cache under
    memory pressure — which is how models whose resident bytes exceed every
    device budget still train, bit-identically to fully-resident runs.
    """

    def __init__(
        self,
        num_devices: int = 2,
        memory_manager: Optional["SpillManager"] = None,
        telemetry=None,
    ):
        if num_devices <= 0:
            raise ValueError("num_devices must be positive")
        self.num_devices = int(num_devices)
        self.memory = memory_manager
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._slots: List[_ModelSlot] = []

    def add_model(
        self,
        model: ShardableModel,
        optimizer: Optimizer,
        loader: DataLoader,
        boundaries: Sequence[Tuple[int, int]],
        model_id: Optional[str] = None,
    ) -> None:
        """Register a model (with its sharding boundaries) for interleaved training."""
        executor = ShardedModelExecutor(model, boundaries)
        executor.telemetry = self.telemetry
        model_id = model_id or model.model_name
        slot_index = len(self._slots)
        shard_devices = [
            (shard + slot_index) % self.num_devices for shard in range(executor.num_shards)
        ]
        if self.memory is not None:
            names = self.memory.arena_names
            executor.bind_memory(
                self.memory,
                optimizer,
                model_id=model_id,
                device_of=lambda shard: names[shard_devices[shard] % len(names)],
            )
        self._slots.append(
            _ModelSlot(
                model_id=model_id,
                executor=executor,
                optimizer=optimizer,
                loader=loader,
                report=TrainingReport(model_id=model_id),
                shard_devices=shard_devices,
            )
        )

    @property
    def num_models(self) -> int:
        return len(self._slots)

    def device_of(self, model_index: int, shard_index: int) -> int:
        return self._slots[model_index].shard_devices[shard_index]

    def train_epoch(self, epoch: int = 0) -> Dict[str, Dict[str, float]]:
        """Run one epoch for every registered model, interleaving shard tasks."""
        if not self._slots:
            raise SchedulingError("no models registered")
        iterators = []
        for slot in self._slots:
            slot.loader.set_epoch(epoch)
            iterators.append(iter(slot.loader))

        # Per-model in-flight batch state machine.
        batches: List[Optional[Batch]] = [None] * len(self._slots)
        phases: List[str] = ["fetch"] * len(self._slots)
        cursors: List[int] = [0] * len(self._slots)
        finished = [False] * len(self._slots)
        tel = self.telemetry
        # Interleaved steps of different models overlap in time, so they use
        # begin/end tokens (flat spans) instead of the nesting context manager.
        tokens: List[Optional[Any]] = [None] * len(self._slots)

        while not all(finished):
            progressed = False
            for index, slot in enumerate(self._slots):
                if finished[index]:
                    continue
                progressed = True
                if phases[index] == "fetch":
                    try:
                        batches[index] = next(iterators[index])
                    except StopIteration:
                        finished[index] = True
                        continue
                    tokens[index] = tel.begin(
                        "step", cat="training", model=slot.model_id, epoch=epoch
                    )
                    slot.executor.begin_batch()
                    slot.executor.model.zero_grad()
                    phases[index] = "forward"
                    cursors[index] = 0
                elif phases[index] == "forward":
                    slot.executor.run_forward(cursors[index], batches[index])
                    cursors[index] += 1
                    if cursors[index] == slot.executor.num_shards:
                        loss = slot.executor.compute_loss(batches[index])
                        slot.tracker.update(loss=loss.item())
                        phases[index] = "backward"
                        cursors[index] = slot.executor.num_shards - 1
                elif phases[index] == "backward":
                    slot.executor.run_backward(cursors[index])
                    cursors[index] -= 1
                    if cursors[index] < 0:
                        # Spilled executors already updated each shard inside
                        # its backward lease (the only window it is resident).
                        if not slot.executor.updates_inline:
                            slot.optimizer.step()
                        # Free the finished batch's activation stashes before
                        # the next fetch so peak memory spans one batch, not two.
                        slot.executor.end_batch()
                        tel.end(tokens[index])
                        batches[index] = None
                        phases[index] = "fetch"
            if not progressed:
                break

        results: Dict[str, Dict[str, float]] = {}
        for slot in self._slots:
            epoch_metrics = slot.tracker.end_epoch()
            slot.report.epochs.append(epoch_metrics)
            results[slot.model_id] = epoch_metrics
        return results

    def fit(self, num_epochs: int = 1) -> Dict[str, TrainingReport]:
        """Train every registered model for ``num_epochs`` epochs."""
        for epoch in range(num_epochs):
            self.train_epoch(epoch)
        return {slot.model_id: slot.report for slot in self._slots}
