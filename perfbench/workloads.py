"""The benchmark's workloads: select → publish → serve pipelines.

Every workload runs the same user-facing pipeline through the public API —
``Experiment.run`` on a :class:`ShardParallelBackend` that publishes every
trial to a :class:`ModelRegistry`, then ``serve_fleet`` over the published
models under open-loop load — and varies the part of it that one layer
owns:

* ``select-resident``: the 4-candidate grid trains fully resident with the
  trainer interleaving shard tasks in-process.  ``training``, ``optim`` and
  ``data`` do the work; ``memory`` and ``api.runtime`` are bypassed.
* ``select-spilled``: the same grid under a per-device memory budget of
  0.3x each device's resident need, so ``memory`` evicts, restores and
  prefetches shards on an announced schedule.  The arithmetic is the same,
  so losses and weights must equal ``select-resident``'s.  Its fleet is
  served under a budget too.
* ``serve-fleet``: eight small candidates are selected briefly, each
  trial in a one-child process pool, and the eight are served under a
  budget of half the fleet's bytes with a Zipf-like mix.  ``api.runtime``
  spawns the child and carries every trial's trained state home as a
  snapshot (the results must equal the same grid trained in-process), and
  ``serving.router`` and the router's whole-model ``memory`` churn, driven
  by arrivals, do the serving work.  One child, not one per core: on a
  2-core machine, two children with default BLAS threading (2 children x
  2 BLAS threads) made the selection time bimodal, 1.8 s or 3.2 s, and its
  run median spread by 0.33 of itself over 5 seeds.  The ``select-*``
  workloads bypass ``api.runtime``.

Serving is measured in passes, each on a freshly deployed router, and a
serving figure is the median over passes: one pass's p99 rests on ten or
so requests and moves with every stall, while the median over passes of
fresh routers does not.

The traced run of ``select-*`` traces their selection; the traced run of
``serve-fleet`` traces both its selection and one serving pass.
"""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api import (
    Budget,
    ConcurrentBackend,
    Experiment,
    ProcessWorkerPool,
    ShardParallelBackend,
    serve_fleet,
)
from repro.autograd.tensor import no_grad
from repro.data.dataloader import Batch, DataLoader
from repro.data.synthetic import make_classification
from repro.models.feedforward import FeedForwardConfig, FeedForwardNetwork
from repro.optim.adam import Adam
from repro.selection.search_space import SearchSpace
from repro.serving.registry import ModelRegistry
from repro.serving.replica import pad_rows
from repro.training.checkpoint import PARAM_PREFIX

import openloop

FEATURES = 512
CLASSES = 10
BATCH_ROWS = 64
#: training epochs per trial, and batches of BATCH_ROWS per epoch
EPOCHS = 2
BATCHES = 8
NUM_DEVICES = 2
NUM_SHARDS = 4
#: latency limit of the serving SLO (a request meets it or misses)
SLO_LIMIT_MS = 50.0
#: offered rates of the serving ladder, ascending; "low" is the first and
#: each workload names its "high" one, below its knee
SERVE_RATES = (500.0, 700.0, 1000.0, 1500.0, 2200.0, 3300.0, 5000.0)
LOW_RATE = SERVE_RATES[0]
#: requests per rung: its p99 then has ten requests beyond it
REQUESTS_PER_RUNG = 1000
#: rows per request, and the router's batch and compute geometry
REQUEST_ROWS = 1
MAX_BATCH_ROWS = 16
#: a request still queued after this long times out (a miss)
REQUEST_TIMEOUT_MS = 2000.0
#: a rung whose generator ran later than this at p99 cannot be judged
GEN_LAG_BOUND_MS = 25.0
#: requests sampled from the low rung for the batched == unbatched check
EXACT_SAMPLES = 16
ZIPF_EXPONENT = 1.1


@dataclass(frozen=True)
class Workload:
    """One pipeline configuration (see the module docstring)."""

    name: str
    widths: Tuple[int, ...]
    lrs: Tuple[float, ...]
    #: memory budget per device as a share of its resident need, or None
    select_budget_share: Optional[float]
    #: fleet memory budget as a share of the fleet's bytes, or None
    serve_budget_share: Optional[float]
    #: the ladder rate reported as "high"
    high_rate: float
    #: whether timed selections run each trial in a one-child process pool
    process_pool: bool = False


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="select-resident",
            widths=(512, 1024),
            lrs=(1e-3, 3e-3),
            select_budget_share=None,
            serve_budget_share=None,
            high_rate=1000.0,
        ),
        Workload(
            name="select-spilled",
            widths=(512, 1024),
            lrs=(1e-3, 3e-3),
            select_budget_share=0.3,
            serve_budget_share=0.5,
            high_rate=700.0,
        ),
        Workload(
            name="serve-fleet",
            widths=(256,),
            lrs=(1e-3, 1.5e-3, 2e-3, 3e-3, 4e-3, 5e-3, 7e-3, 1e-2),
            select_budget_share=None,
            serve_budget_share=0.5,
            high_rate=1000.0,
            process_pool=True,
        ),
    )
}


# --------------------------------------------------------------------------- #
# Models and data
# --------------------------------------------------------------------------- #
def make_model(width: int, seed: int) -> FeedForwardNetwork:
    """A 512 -> width -> 512 -> 256 -> 10 MLP of the paper's 1.2M-param family."""
    config = FeedForwardConfig(
        input_dim=FEATURES,
        hidden_dims=(width, 512, 256),
        num_classes=CLASSES,
        name=f"mlp-w{width}",
    )
    return FeedForwardNetwork(config, seed=seed)


def make_dataset(seed: int):
    """The training data every trial of a run shares."""
    return make_classification(
        num_samples=BATCHES * BATCH_ROWS,
        num_features=FEATURES,
        num_classes=CLASSES,
        class_separation=0.05,
        rng=np.random.default_rng((seed, 1)),
    )


@dataclass(frozen=True)
class MlpBuilder:
    """Builds one trial's (model, optimizer, loader) from the shared data."""

    seed: int
    dataset: Any

    def __call__(self, trial):
        model = make_model(int(trial.get("width")), self.seed)
        optimizer = Adam(model.parameters(), lr=float(trial.get("lr")))
        loader = DataLoader(self.dataset, batch_size=BATCH_ROWS, shuffle=True, seed=self.seed)
        return model, optimizer, loader


def resident_need_per_device(workload: Workload, seed: int) -> Tuple[int, int]:
    """Bytes the fullest device holds with the whole cohort resident, and the largest shard.

    Mirrors the trainer's placement (shard ``i`` of the ``j``-th model on
    device ``(i + j) % devices``) and the executor's charge per shard
    (parameters plus Adam's two state arrays).
    """
    need = [0] * NUM_DEVICES
    largest = 0
    slot = 0
    for width in workload.widths:
        model = make_model(width, seed)
        per_shard = [
            sum(p.data.nbytes for p in model.block_parameters(index)) * 3
            for index in range(model.num_blocks())
        ]
        largest = max(largest, *per_shard)
        for _ in workload.lrs:
            for shard, nbytes in enumerate(per_shard):
                need[(shard + slot) % NUM_DEVICES] += nbytes
            slot += 1
    return max(need), largest


# --------------------------------------------------------------------------- #
# Selection
# --------------------------------------------------------------------------- #
@dataclass
class Selection:
    """One timed ``Experiment.run`` and what it left behind."""

    seconds: float
    losses: Dict[str, float]
    best: str
    failures: int
    attempted: int
    registry: ModelRegistry
    widths: Dict[str, int]


class Selector:
    """Runs one workload's selection repeatedly on one seed."""

    def __init__(self, workload: Workload, seed: int, scratch: Path):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.memory_budget: Optional[int] = None

    def setup(self) -> Tuple[float, MlpBuilder]:
        """Build the data and builder; return the seconds it took."""
        started = time.perf_counter()
        builder = MlpBuilder(self.seed, make_dataset(self.seed))
        if self.workload.select_budget_share is not None:
            need, largest = resident_need_per_device(self.workload, self.seed)
            self.memory_budget = max(int(self.workload.select_budget_share * need), largest)
        return time.perf_counter() - started, builder

    def run(self, builder: MlpBuilder, reference: bool = False) -> Selection:
        """One ``Experiment.run`` from a fresh backend and registry.

        ``reference`` runs the same grid resident and in-process: the run
        every other way of executing it must match exactly.  A process-pool
        selection spawns its child inside the timed call and stops it after.
        """
        registry = ModelRegistry(tempfile.mkdtemp(prefix="registry-", dir=self.scratch))
        backend = ShardParallelBackend(
            builder=builder,
            num_devices=NUM_DEVICES,
            num_shards=NUM_SHARDS,
            registry=registry,
        )
        experiment = Experiment(
            space=SearchSpace({"width": list(self.workload.widths), "lr": list(self.workload.lrs)}),
            searcher="grid",
            objective="loss",
            budget=Budget(epochs_per_trial=EPOCHS),
            name=self.workload.name,
        )
        options: Dict[str, Any] = {}
        if not reference and self.memory_budget is not None:
            options["memory_budget"] = self.memory_budget
        pool = None
        if not reference and self.workload.process_pool:
            pool = ProcessWorkerPool(1)
            backend = ConcurrentBackend(backend, pool=pool)
        try:
            started = time.perf_counter()
            result = experiment.run(backend=backend, **options)
            best = result.best().trial_id
            seconds = time.perf_counter() - started
        finally:
            if pool is not None:
                backend.close()
                pool.shutdown()
        return Selection(
            seconds=seconds,
            losses={t.trial_id: t.metrics.get("loss", float("nan")) for t in result.trials},
            best=best,
            failures=len(result.failures),
            attempted=len(result.trials),
            registry=registry,
            widths={t.trial_id: int(t.hyperparameters["width"]) for t in result.trials},
        )


def published_weights(selection: Selection) -> Dict[str, Dict[str, np.ndarray]]:
    """Every trial's published parameters, read back from its archive."""
    weights = {}
    for trial_id in selection.losses:
        with np.load(selection.registry.archive_path(trial_id)) as archive:
            weights[trial_id] = {
                key: archive[key] for key in archive.files if key.startswith(PARAM_PREFIX)
            }
    return weights


def compare_selections(reference: Selection, candidate: Selection) -> List[str]:
    """Differences in losses, best trial and published weights (empty if equal)."""
    problems = []
    if candidate.failures:
        problems.append(f"{candidate.failures} trial(s) failed")
    if candidate.losses.keys() != reference.losses.keys():
        problems.append(f"trial ids differ: {sorted(candidate.losses)} vs {sorted(reference.losses)}")
        return problems
    for trial_id, loss in reference.losses.items():
        if not np.array_equal(np.float64(loss), np.float64(candidate.losses[trial_id])):
            problems.append(f"{trial_id} loss {candidate.losses[trial_id]!r} != {loss!r}")
    if candidate.best != reference.best:
        problems.append(f"best trial {candidate.best} != {reference.best}")
    expected = published_weights(reference)
    actual = published_weights(candidate)
    for trial_id, arrays in expected.items():
        got = actual.get(trial_id, {})
        if arrays.keys() != got.keys() or not all(
            np.array_equal(arrays[key], got[key]) for key in arrays
        ):
            problems.append(f"{trial_id} published weights differ")
    return problems


def discard(selection: Selection) -> None:
    """Delete a selection's registry directory."""
    shutil.rmtree(selection.registry.root, ignore_errors=True)


# --------------------------------------------------------------------------- #
# Serving
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class FleetBuilder:
    """``serve_fleet``'s builder: a fresh model of the right width per name."""

    seed: int
    widths: Tuple[Tuple[str, int], ...]

    def __call__(self, name: str) -> FeedForwardNetwork:
        return make_model(dict(self.widths)[name], self.seed)


@dataclass
class ServeResult:
    """The serving ladder's rungs and the checks made on them."""

    rungs: List[openloop.RungResult]
    #: low-rung responses kept for the exactness check, by request index
    sampled: Dict[int, Any]
    router_metrics: Dict[str, Any]


class Server:
    """Serves one selection's published models through ``serve_fleet``."""

    def __init__(self, workload: Workload, seed: int, selection: Selection):
        self.workload = workload
        self.seed = seed
        self.selection = selection
        ranked = sorted(selection.losses, key=lambda trial: (selection.losses[trial], trial))
        self.names = ranked
        self.builder = FleetBuilder(seed, tuple(sorted(selection.widths.items())))
        fleet_bytes = sum(
            sum(p.data.nbytes for p in self.builder(name).parameters()) for name in ranked
        )
        share = workload.serve_budget_share
        self.budget = None if share is None else int(share * fleet_bytes)
        rng = np.random.default_rng((seed, 2))
        weights = 1.0 / np.arange(1, len(ranked) + 1) ** ZIPF_EXPONENT
        self._mix = rng.choice(len(ranked), size=1 << 16, p=weights / weights.sum())
        self._rows = rng.normal(size=(512, REQUEST_ROWS, FEATURES)).astype(np.float32)

    def request(self, index: int) -> Tuple[str, Dict[str, np.ndarray]]:
        """The ``index``-th request of every rung: a Zipf-picked model and its rows."""
        slot = index % len(self._mix)
        return self.names[self._mix[slot]], {"features": self._rows[slot % len(self._rows)]}

    def setup(self):
        """Load the fleet into a started router and warm every model once."""
        router = serve_fleet(
            self.selection.registry,
            self.builder,
            models=self.names,
            memory_budget=self.budget,
            replicas=os.cpu_count() or 1,
            max_batch_size=MAX_BATCH_ROWS,
            compute_batch_size=MAX_BATCH_ROWS,
            max_queue=1 << 14,
            timeout_ms=REQUEST_TIMEOUT_MS,
            name=f"{self.workload.name}-fleet",
        )
        try:
            for name in self.names:
                router.request(name, self._rows[0])
        except BaseException:
            router.stop(drain=False)
            raise
        return router

    def uncontended_forward(self) -> float:
        """Median seconds of one forward at the router's geometry, nothing else running."""
        model = self.builder(self.names[0])
        self.selection.registry.load(self.names[0], model)
        model.eval()
        batch = Batch(arrays={"features": np.repeat(self._rows[0], MAX_BATCH_ROWS, axis=0)})
        times = []
        with no_grad():
            for _ in range(40):
                started = time.perf_counter()
                model.forward(batch)
                times.append(time.perf_counter() - started)
        return statistics.median(times[5:])

    def ladder(self, router, high_rate: float) -> ServeResult:
        """Offer the ladder's rates in turn, keeping a sample of low-rung responses.

        Every rate up to ``high_rate`` runs; past it the ladder stops at the
        first rate that misses the SLO, which is all ``max_rate_at_slo``
        needs.
        """
        rungs = []
        step = REQUESTS_PER_RUNG // EXACT_SAMPLES
        keep = set(range(0, REQUESTS_PER_RUNG, step)[:EXACT_SAMPLES])
        for rate in SERVE_RATES:
            rung = openloop.run_rung(
                router,
                self.request,
                rate,
                REQUESTS_PER_RUNG / rate,
                SLO_LIMIT_MS,
                GEN_LAG_BOUND_MS / 1e3,
                REQUEST_TIMEOUT_MS / 1e3 + 2.0,
                keep=keep if rate == LOW_RATE else None,
            )
            rungs.append(rung)
            if rate > high_rate and not rung.meets(SLO_LIMIT_MS):
                break
            time.sleep(0.1)
        return ServeResult(rungs=rungs, sampled=rungs[0].kept, router_metrics=router.metrics())

    def check_exact(self, sampled: Dict[int, Any]) -> int:
        """Compare routed responses with an unbatched forward of the published weights."""
        models = {}
        mismatches = 0
        for index, output in sampled.items():
            name, arrays = self.request(index)
            if name not in models:
                model = self.builder(name)
                self.selection.registry.load(name, model)
                model.eval()
                models[name] = model
            padded = pad_rows(arrays, REQUEST_ROWS, MAX_BATCH_ROWS)
            with no_grad():
                expected = models[name].forward(Batch(arrays=padded)).data[:REQUEST_ROWS]
            if output is None or not np.array_equal(np.asarray(output), expected):
                mismatches += 1
        return mismatches


def rung_at(rungs: Sequence[openloop.RungResult], rate: float) -> openloop.RungResult:
    """The rung offered at ``rate``."""
    return next(rung for rung in rungs if rung.rate_rps == rate)
