"""Fault injection across the process boundary: SIGKILL, retries, recovery.

The process runtime's whole value proposition is that a dead child is a
*contained* fault, never a wedged experiment or a corrupted artifact.  The
contracts under test:

* a pool child SIGKILLed mid-task fails **only that task**, with the typed
  :class:`~repro.exceptions.WorkerCrashedError`; the slot respawns and the
  pool keeps serving;
* parent-side retry (:meth:`ProcessWorkerPool.submit_retrying`) survives
  the death of the child that ran the previous attempt — the retried
  attempt lands on a fresh child;
* through the Experiment API, a killed trial either recovers (with a
  :class:`RetryPolicy`) or surfaces as a single ``FailedTrial`` while the
  rest of the cohort completes — the run never hangs;
* registry publishes stay atomic under kills: after a fault-injected run
  every published archive loads cleanly and no staging litter remains;
* a serving replica child SIGKILLed with a request in flight fails only
  that request, with :class:`~repro.exceptions.ReplicaCrashedError`, and
  respawns on the next one — standalone and behind ``serve()``.

Every kill helper is a module-level class instance (pickles into spawn
children) and self-terminates via ``os.kill(os.getpid(), SIGKILL)`` gated
on a marker file, so the injection is deterministic, not timing-based.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import (
    Budget,
    Experiment,
    FunctionBackend,
    ModelSpec,
    ProcessReplica,
    ProcessWorkerPool,
    RetryPolicy,
    ShardParallelBackend,
    serve,
)
from repro.data import DataLoader, make_classification
from repro.exceptions import ReplicaCrashedError, ServingError, WorkerCrashedError
from repro.models import FeedForwardConfig, FeedForwardNetwork
from repro.optim import Adam
from repro.selection import SearchSpace
from repro.serving import ModelRegistry

DATASET = make_classification(
    num_samples=64, num_features=8, num_classes=3, class_separation=2.0,
    rng=np.random.default_rng(0),
)


def _sigkill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def _pid_after_sleep(seconds: float = 0.0) -> int:
    time.sleep(seconds)
    return os.getpid()


class _DieOnce:
    """Task that SIGKILLs its own worker the first time it runs."""

    def __init__(self, marker: Path):
        self.marker = str(marker)

    def __call__(self) -> str:
        marker = Path(self.marker)
        if not marker.exists():
            marker.touch()
            _sigkill_self()
        return "survived"


class _KillFirstAttempt:
    """Trial function that SIGKILLs its worker on one trial's first attempt."""

    def __init__(self, marker_dir: Path, victim: str):
        self.marker_dir = str(marker_dir)
        self.victim = victim

    def __call__(self, trial, epochs):
        if trial.trial_id == self.victim:
            marker = Path(self.marker_dir) / f"{trial.trial_id}.attempted"
            if not marker.exists():
                marker.touch()
                _sigkill_self()
        return {"loss": float(trial.get("x", 0))}


class _KillingBuilder:
    """Trial builder that SIGKILLs the worker building one trial, once.

    The marker file gates the kill, so the retried child — and the parent's
    own rebuild at publish time — build normally.
    """

    def __init__(self, marker_dir: Path, victim: str):
        self.marker_dir = str(marker_dir)
        self.victim = victim

    def __call__(self, trial):
        if trial.trial_id == self.victim:
            marker = Path(self.marker_dir) / f"{trial.trial_id}.attempted"
            if not marker.exists():
                marker.touch()
                _sigkill_self()
        width = int(trial.get("width", 16))
        config = FeedForwardConfig(input_dim=8, hidden_dims=(width,), num_classes=3)
        model = FeedForwardNetwork(config, seed=0)
        optimizer = Adam(model.parameters(), lr=float(trial.get("lr", 1e-2)))
        loader = DataLoader(DATASET, batch_size=16, shuffle=True, seed=0)
        return model, optimizer, loader


class _SleepyNetwork(FeedForwardNetwork):
    """A network whose forward dawdles — a window to kill its process in."""

    def forward(self, batch):
        time.sleep(0.4)
        return super().forward(batch)


def _build_sleepy():
    config = FeedForwardConfig(input_dim=8, hidden_dims=(16,), num_classes=3)
    return _SleepyNetwork(config, seed=0)


def _build_plain():
    config = FeedForwardConfig(input_dim=8, hidden_dims=(16,), num_classes=3)
    return FeedForwardNetwork(config, seed=0)


def _build_hung():
    time.sleep(30.0)
    return _build_plain()


# --------------------------------------------------------------------- #
# Pool-level containment
# --------------------------------------------------------------------- #
class TestProcessPoolFaults:
    def test_killed_child_fails_only_its_task(self):
        with ProcessWorkerPool(2) as pool:
            doomed = pool.submit(_sigkill_self)
            healthy = [pool.submit(abs, -value) for value in range(1, 4)]
            with pytest.raises(WorkerCrashedError):
                doomed.result(timeout=60)
            assert [future.result(timeout=60) for future in healthy] == [1, 2, 3]
            # The slot respawned: the pool still accepts and runs work.
            assert pool.submit(abs, -7).result(timeout=60) == 7

    def test_retry_survives_child_death(self, tmp_path):
        task = _DieOnce(tmp_path / "attempted")
        with ProcessWorkerPool(2) as pool:
            future = pool.submit_retrying(
                RetryPolicy(max_retries=1, backoff_seconds=0.0), task
            )
            assert future.result(timeout=60) == "survived"
        assert (tmp_path / "attempted").exists()

    def test_exhausted_retries_raise_the_crash(self):
        with ProcessWorkerPool(2) as pool:
            future = pool.submit_retrying(
                RetryPolicy(max_retries=1, backoff_seconds=0.0), _sigkill_self
            )
            with pytest.raises(WorkerCrashedError):
                future.result(timeout=60)


# --------------------------------------------------------------------- #
# Experiment-level containment
# --------------------------------------------------------------------- #
class TestProcessTrialFaults:
    def _experiment(self):
        return Experiment(
            space=SearchSpace({"x": [0, 1, 2]}), searcher="grid", objective="loss",
        )

    def test_killed_trial_recovers_under_retry(self, tmp_path):
        result = self._experiment().run(
            backend=FunctionBackend(_KillFirstAttempt(tmp_path, victim="grid-1")),
            workers=2,
            pool="process",
            retry=RetryPolicy(max_retries=1, backoff_seconds=0.0),
        )
        assert not result.failures
        assert {t.trial_id: t.metric("loss") for t in result.trials} == {
            "grid-0": 0.0, "grid-1": 1.0, "grid-2": 2.0,
        }
        assert (tmp_path / "grid-1.attempted").exists()  # the kill really fired

    def test_killed_trial_without_retry_is_one_fault_not_a_hang(self, tmp_path):
        started = time.monotonic()
        result = self._experiment().run(
            backend=FunctionBackend(_KillFirstAttempt(tmp_path, victim="grid-1")),
            workers=2,
            pool="process",
            retry=RetryPolicy(max_retries=0),
        )
        assert time.monotonic() - started < 60  # bounded, not wedged
        assert [t.trial_id for t in result.failures] == ["grid-1"]
        assert "worker process" in result.failures[0].error  # the typed crash
        assert [t.trial_id for t in result.ranked()] == ["grid-0", "grid-2"]

    def test_registry_stays_atomic_under_kills(self, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        builder = _KillingBuilder(tmp_path, victim="grid-2")
        experiment = Experiment(
            space=SearchSpace({"width": [16, 32], "lr": [1e-2, 1e-3]}),
            searcher="grid",
            objective="loss",
            budget=Budget(epochs_per_trial=2),
        )
        result = experiment.run(
            backend=ShardParallelBackend(
                builder=builder, num_devices=2, registry=registry
            ),
            workers=2,
            pool="process",
            retry=RetryPolicy(max_retries=1, backoff_seconds=0.0),
        )
        assert not result.failures
        # Every trial published exactly once, and every archive is whole.
        assert sorted(registry.names()) == sorted(t.trial_id for t in result.trials)
        for name in registry.names():
            with np.load(registry.archive_path(name)) as archive:
                assert len(archive.files) > 0
        # Atomic staged writes leave no litter behind, killed children or not.
        assert not list(Path(registry.root).rglob("*staging*"))


# --------------------------------------------------------------------- #
# Serving-replica containment
# --------------------------------------------------------------------- #
class TestProcessReplicaFaults:
    def _arrays(self):
        rng = np.random.default_rng(3)
        return {"features": rng.normal(size=(2, 8)).astype(np.float32)}

    def test_kill_mid_request_fails_only_inflight_then_respawns(self):
        replica = ProcessReplica(ModelSpec(builder=_build_sleepy), name="victim")
        try:
            replica.start()
            pid = replica.pid
            assert pid is not None
            killer = threading.Timer(0.15, os.kill, args=(pid, signal.SIGKILL))
            killer.start()
            try:
                with pytest.raises(ReplicaCrashedError):
                    replica.infer(self._arrays(), pad_to=4)
            finally:
                killer.cancel()
            # The next request respawns a fresh child and succeeds.
            output = replica.infer(self._arrays(), pad_to=4)
            assert output.shape == (2, 3)
            assert replica.restarts == 1
            assert replica.pid not in (None, pid)
        finally:
            replica.close()

    def test_kill_while_idle_respawns_transparently(self):
        replica = ProcessReplica(ModelSpec(builder=_build_plain), name="idle")
        try:
            first = replica.infer(self._arrays(), pad_to=4)
            os.kill(replica.pid, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while replica.pid is not None and time.monotonic() < deadline:
                time.sleep(0.01)
            # Death detected before the next send: no error, just a respawn —
            # and the rebuilt model answers bit-identically.
            second = replica.infer(self._arrays(), pad_to=4)
            assert np.array_equal(first, second)
            assert replica.restarts == 1
        finally:
            replica.close()

    def test_build_overrunning_the_wait_stops_the_child(self, monkeypatch):
        import multiprocessing

        from repro.api.runtime import proc

        monkeypatch.setattr(proc, "_BUILD_TIMEOUT_S", 1.0)
        replica = ProcessReplica(ModelSpec(builder=_build_hung), name="hung")
        started = time.monotonic()
        try:
            with pytest.raises(ReplicaCrashedError):
                replica.start()
            assert time.monotonic() - started < 20.0  # not the 30 s build
        finally:
            replica.close()
        alive = [
            child for child in multiprocessing.active_children()
            if child.name.startswith("repro-replica-")
        ]
        assert alive == []

    def test_server_survives_replica_kill(self):
        server = serve(
            ModelSpec(builder=_build_sleepy),
            replicas=1,
            replica_mode="process",
            max_batch_size=2,
            max_wait_ms=0.5,
            name="fault-server",
        )
        try:
            replica = server.entry.replicas[0]
            replica.start()
            pid = replica.pid
            future = server.submit(self._arrays())
            killer = threading.Timer(0.25, os.kill, args=(pid, signal.SIGKILL))
            killer.start()
            try:
                with pytest.raises(ServingError):
                    future.result(timeout=60)
            finally:
                killer.cancel()
            # The serve loop and the replica both survived the crash.
            output = server.request(self._arrays(), timeout_ms=60_000)
            assert output.shape == (2, 3)
        finally:
            server.stop()
