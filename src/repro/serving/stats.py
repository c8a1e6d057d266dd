"""Latency and throughput accounting for the serving subsystem.

One :class:`LatencyStats` instance accumulates per-request latencies (and
the counters around them) behind a lock, so replica threads, the admission
path, and metric readers never race.  Percentiles are computed on demand
from the raw samples, at most ``max_samples`` of them (default
:data:`MAX_SAMPLES`), so a long-lived router's memory stays bounded: below
the cap every sample is kept and percentiles are exact; above it, reservoir
sampling (Vitter's Algorithm R, deterministic seed) keeps each sample with
probability ``max_samples / n``, so percentiles stay an unbiased estimate
of the full history while the counters remain exact.

:class:`ServerStats` is the two-level aggregation the
:class:`~repro.serving.router.FleetRouter` reports through: one fleet-wide
:class:`LatencyStats` plus one per model, fed together so a single request
lands in both its model's distribution and the fleet's.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Dict, List, Optional

import numpy as np

#: the latency percentiles every report carries, in order
PERCENTILES = (50.0, 95.0, 99.0)
#: latency samples one collector keeps (exact percentiles up to this many)
MAX_SAMPLES = 10_000


def latency_summary(latencies_seconds: List[float]) -> Dict[str, float]:
    """p50/p95/p99/mean of a latency sample, in milliseconds.

    Empty samples yield zeros (a server that has answered nothing has no
    latency distribution to report, and callers prefer a well-formed dict
    over an exception in that window).
    """
    if not latencies_seconds:
        return {
            "latency_p50_ms": 0.0,
            "latency_p95_ms": 0.0,
            "latency_p99_ms": 0.0,
            "latency_mean_ms": 0.0,
        }
    values = np.asarray(latencies_seconds, dtype=np.float64) * 1e3
    p50, p95, p99 = np.percentile(values, PERCENTILES)
    return {
        "latency_p50_ms": float(p50),
        "latency_p95_ms": float(p95),
        "latency_p99_ms": float(p99),
        "latency_mean_ms": float(values.mean()),
    }


class LatencyStats:
    """Thread-safe accumulator of request outcomes and latencies.

    ``record`` takes one completed request's end-to-end latency (queue wait
    plus inference) in seconds; the failure counters classify everything
    that never produced a response.  ``snapshot`` freezes the counters and
    percentiles into a plain dict for reports and benchmarks.

    At most ``max_samples`` latency samples are kept (reservoir sampling
    past the cap), so the footprint stays bounded while
    ``completed``/``throughput_rps`` stay exact.

    Example::

        stats = LatencyStats()
        stats.record(0.004)
        assert stats.snapshot()["completed"] == 1
    """

    def __init__(self, max_samples: int = MAX_SAMPLES) -> None:
        if max_samples <= 0:
            raise ValueError(f"max_samples must be positive, got {max_samples}")
        self._lock = threading.Lock()
        self._latencies: List[float] = []
        self._max_samples = max_samples
        # Deterministic reservoir: snapshots are reproducible under the
        # repo-wide exactness bar, and tests can assert on them.
        self._rng = random.Random(0x5EED)
        self._completed = 0
        self.rejected = 0
        self.timed_out = 0
        self.failed = 0
        self.batches = 0
        self.batch_rows = 0
        self.queue_depth_max = 0
        self._queue_depth_sum = 0
        self._queue_depth_samples = 0
        self._started = time.monotonic()

    # ------------------------------------------------------------------ #
    def record(self, *latencies_seconds: float) -> None:
        """Record completed requests' end-to-end latencies (one per request)."""
        with self._lock:
            for latency in latencies_seconds:
                self._completed += 1
                if len(self._latencies) < self._max_samples:
                    self._latencies.append(float(latency))
                else:
                    # Algorithm R: the n-th sample replaces a reservoir slot
                    # with probability max_samples / n.
                    slot = self._rng.randrange(self._completed)
                    if slot < self._max_samples:
                        self._latencies[slot] = float(latency)

    def count(self, *, rejected: int = 0, timed_out: int = 0, failed: int = 0) -> None:
        """Bump the failure counters (requests that produced no response)."""
        with self._lock:
            self.rejected += rejected
            self.timed_out += timed_out
            self.failed += failed

    def record_batch(self, rows: int, queue_depth: Optional[int] = None) -> None:
        """Record one executed micro-batch of ``rows`` coalesced rows.

        ``queue_depth`` is the number of requests still waiting when the
        batch was formed — the scheduler metric that, next to the batch fill,
        says whether the server is keeping up or falling behind.
        """
        with self._lock:
            self.batches += 1
            self.batch_rows += int(rows)
            if queue_depth is not None:
                depth = int(queue_depth)
                self._queue_depth_sum += depth
                self._queue_depth_samples += 1
                if depth > self.queue_depth_max:
                    self.queue_depth_max = depth

    @property
    def completed(self) -> int:
        """Number of requests that received a response (exact, not sampled)."""
        with self._lock:
            return self._completed

    # ------------------------------------------------------------------ #
    def snapshot(self, window_seconds: Optional[float] = None) -> Dict[str, float]:
        """Counters, percentiles, and throughput as one plain dict.

        ``throughput_rps`` divides completed requests by ``window_seconds``
        when given, otherwise by the time since this collector was created.
        """
        with self._lock:
            latencies = list(self._latencies)
            completed = self._completed
            elapsed = (
                float(window_seconds)
                if window_seconds is not None
                else max(time.monotonic() - self._started, 1e-9)
            )
            report: Dict[str, float] = {
                "completed": float(completed),
                "rejected": float(self.rejected),
                "timed_out": float(self.timed_out),
                "failed": float(self.failed),
                "batches": float(self.batches),
                "mean_batch_rows": (
                    self.batch_rows / self.batches if self.batches else 0.0
                ),
                "queue_depth_max": float(self.queue_depth_max),
                "queue_depth_mean": (
                    self._queue_depth_sum / self._queue_depth_samples
                    if self._queue_depth_samples
                    else 0.0
                ),
                "throughput_rps": completed / elapsed,
            }
        report.update(latency_summary(latencies))
        return report


class ServerStats:
    """Two-level accounting: per-model distributions plus the fleet total.

    Every recording call names the model it belongs to; the sample lands in
    that model's :class:`LatencyStats` *and* the fleet-wide one, so
    ``snapshot()`` reports p50/p95/p99 at both granularities from one pass
    over the traffic.  Model collectors are created on first touch — the
    router registers models dynamically, and a model that never saw traffic
    still deserves a (zeroed) row in the report.

    Example::

        stats = ServerStats()
        stats.record("mlp-a", 0.004)
        snap = stats.snapshot()
        assert snap["fleet"]["completed"] == 1
        assert snap["models"]["mlp-a"]["completed"] == 1
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.fleet = LatencyStats()
        self._models: Dict[str, LatencyStats] = {}

    def for_model(self, model: str) -> LatencyStats:
        """The named model's collector (created on first use)."""
        stats = self._models.get(model)
        if stats is None:
            with self._lock:
                stats = self._models.setdefault(model, LatencyStats())
        return stats

    def model_names(self) -> List[str]:
        """Models with a collector, sorted."""
        with self._lock:
            return sorted(self._models)

    # ------------------------------------------------------------------ #
    def record(self, model: str, *latencies_seconds: float) -> None:
        """Record completed requests against their model and the fleet."""
        self.for_model(model).record(*latencies_seconds)
        self.fleet.record(*latencies_seconds)

    def count(
        self, model: str, *, rejected: int = 0, timed_out: int = 0, failed: int = 0
    ) -> None:
        """Bump failure counters on the model and the fleet together."""
        self.for_model(model).count(
            rejected=rejected, timed_out=timed_out, failed=failed
        )
        self.fleet.count(rejected=rejected, timed_out=timed_out, failed=failed)

    def record_batch(self, model: str, rows: int, queue_depths: Dict[str, int]) -> None:
        """Record one dispatched micro-batch (scheduler metrics included).

        ``queue_depths`` maps every model to its requests still queued at
        dispatch: the model's collector records its own depth, the fleet
        collector the fleet-wide sum.
        """
        self.for_model(model).record_batch(rows, queue_depth=queue_depths.get(model, 0))
        self.fleet.record_batch(rows, queue_depth=sum(queue_depths.values()))

    # ------------------------------------------------------------------ #
    def snapshot(self, window_seconds: Optional[float] = None) -> Dict[str, Dict]:
        """``{"fleet": {...}, "models": {name: {...}}}`` — plain dicts."""
        with self._lock:
            models = dict(self._models)
        return {
            "fleet": self.fleet.snapshot(window_seconds=window_seconds),
            "models": {
                name: stats.snapshot(window_seconds=window_seconds)
                for name, stats in sorted(models.items())
            },
        }
