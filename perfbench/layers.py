"""Per-layer metrics from a traced run (see ``tracing.py`` for the spans).

Times are self times, summed over threads, so a layer's figure excludes the
layers it calls: ``training.backward_s`` excludes the memory leases and the
optimizer updates that run inside a spilled backward pass, and
``api.teardown_s`` excludes the registry publish it triggers.  Selection
figures are per ``Experiment.run``; serving figures cover one traced pass
of the ladder.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.telemetry import Telemetry

from tracing import SpanTimes, Wrappers, install_layers

#: per-layer metrics that must read zero on workloads bypassing their layer
RUNTIME_METRICS = (
    "api.runtime.pool_start_s",
    "api.runtime.task_wait_s",
    "api.runtime.tasks",
    "api.runtime.retries",
)
MEMORY_METRICS = (
    "memory.acquire_s",
    "memory.cache_put_s",
    "memory.cache_take_s",
    "memory.demand_fetches",
    "memory.prefetches_completed",
    "memory.evictions",
    "memory.bytes_fetched",
    "memory.acquire_waits",
    "memory.peak_device_bytes",
    "memory.prefetch_hidden_ratio",
)
ROUTER_METRICS = (
    "serving.router.submit_s",
    "serving.router.forward_s",
    "serving.router.lease_s",
    "serving.router.batches",
    "serving.router.mean_batch_rows",
    "serving.router.queue_depth_mean",
    "serving.router.evictions",
    "serving.router.restores",
    "serving.router.stalls",
    "serving.router.rejected",
    "serving.router.forward_inflation",
    "gen_lag_p99_ms",
)


def _shard_dims(executor, shard_index, *_):
    """The (in, out) widths of the linear blocks one shard runs."""
    start, stop = executor.boundaries[shard_index]
    return tuple(executor.model.config.layer_dims[start:stop])


#: bound on the spans one probe keeps; a probe that drops any fails the run
MAX_EVENTS = 2_000_000


class LayerProbe:
    """A telemetry recorder, its wrappers and the spill managers built while installed."""

    def __init__(self) -> None:
        self.telemetry = Telemetry(max_events=MAX_EVENTS)
        self.wrappers = Wrappers(self.telemetry)
        self.managers: List[Any] = []

    def install(self) -> None:
        install_layers(self.wrappers, self.managers, shard_detail=_shard_dims)

    def uninstall(self) -> None:
        self.wrappers.uninstall()

    def times(self) -> SpanTimes:
        return SpanTimes(self.telemetry.events(), self.wrappers.thread_names)

    def problems(self) -> List[str]:
        """A probe that dropped spans under-reports every self time."""
        dropped = self.telemetry.dropped
        return [f"trace dropped {dropped} spans past {MAX_EVENTS}"] if dropped else []

    def write(self, directory, phase: str) -> None:
        """Write ``<phase>-trace.json`` (Chrome trace) and ``<phase>-layers.txt``."""
        self.telemetry.export_chrome_trace(directory / f"{phase}-trace.json")
        (directory / f"{phase}-layers.txt").write_text(self.times().table() + "\n")

    # ------------------------------------------------------------------ #
    def metrics(self, per: int) -> Dict[str, float]:
        """Every per-layer metric (router ones zero until ``router_metrics``)."""
        t = self.times()
        counters = self.telemetry.metrics_snapshot()["counters"]
        scale = 1.0 / max(per, 1)

        def self_s(span: str) -> float:
            return t.self_seconds(span) * scale

        def count(name: str) -> float:
            return counters.get(name, 0.0) * scale

        stats: Dict[str, float] = {}
        peak = 0
        for manager in self.managers:
            for key, value in manager.stats.as_dict().items():
                stats[key] = stats.get(key, 0) + value
            peak = max([peak] + [arena.peak_bytes for arena in manager.arenas.values()])
        restores = stats.get("demand_fetches", 0) + stats.get("prefetches_completed", 0)
        metrics = {
            "api.prepare_s": self_s("api.prepare"),
            "api.teardown_s": self_s("api.teardown"),
            "api.runtime.pool_start_s": self_s("api.runtime.pool_start"),
            "api.runtime.task_wait_s": self_s("api.runtime.task_wait"),
            "api.runtime.tasks": count("api.runtime.tasks"),
            "api.runtime.retries": count("api.runtime.retries"),
            "data.fetch_s": self_s("data.fetch"),
            "data.batches": count("data.batches"),
            "training.forward_s": self_s("training.forward"),
            "training.loss_s": self_s("training.loss"),
            "training.backward_s": self_s("training.backward"),
            "training.steps": count("training.steps"),
            "optim.step_s": self_s("optim.step"),
            "optim.steps": count("optim.steps"),
            "memory.acquire_s": self_s("memory.acquire"),
            "memory.cache_put_s": self_s("memory.cache_put"),
            "memory.cache_take_s": self_s("memory.cache_take"),
            "memory.demand_fetches": stats.get("demand_fetches", 0) * scale,
            "memory.prefetches_completed": stats.get("prefetches_completed", 0) * scale,
            "memory.evictions": stats.get("evictions", 0) * scale,
            "memory.bytes_fetched": stats.get("bytes_fetched", 0) * scale,
            "memory.acquire_waits": stats.get("acquire_waits", 0) * scale,
            "memory.peak_device_bytes": float(peak),
            "memory.prefetch_hidden_ratio": (
                stats.get("prefetches_completed", 0) / restores if restores else 0.0
            ),
            "serving.registry.publish_s": self_s("serving.registry.publish"),
            "serving.registry.load_s": self_s("serving.registry.load"),
            "profiling.cost_rel_err.linear": 0.0,
        }
        metrics.update({name: 0.0 for name in ROUTER_METRICS})
        return metrics

    def router_metrics(self, result, uncontended_forward_s: float) -> Dict[str, float]:
        """Router figures of one traced ladder pass (``result`` is a ``ServeResult``)."""
        t = self.times()
        report = result.router_metrics
        fleet = report["fleet"]
        forwards = t.calls("serving.router.forward")
        mean_forward = t.total_seconds("serving.router.forward") / forwards if forwards else 0.0
        return {
            "serving.router.submit_s": t.self_seconds("serving.router.submit"),
            "serving.router.forward_s": t.self_seconds("serving.router.forward"),
            # The router leases each model around its forward: the lease is
            # the whole acquire, restores and evictions included.
            "serving.router.lease_s": t.total_seconds("memory.acquire"),
            "serving.router.batches": float(fleet["batches"]),
            "serving.router.mean_batch_rows": float(fleet["mean_batch_rows"]),
            "serving.router.queue_depth_mean": float(fleet["queue_depth_mean"]),
            "serving.router.evictions": float(report["residency"]["evictions"]),
            "serving.router.restores": float(report["residency"]["restores"]),
            "serving.router.stalls": float(report["scheduler"]["stalls"]),
            "serving.router.rejected": float(fleet["rejected"]),
            "serving.router.forward_inflation": mean_forward / uncontended_forward_s,
            "gen_lag_p99_ms": max(rung.gen_lag_p99_ms for rung in result.rungs),
        }

    # ------------------------------------------------------------------ #
    def cost_model_error(self, batch_rows: int) -> Tuple[float, List[Dict[str, Any]]]:
        """Mean relative error of the cost model's per-block times after one fitted scale.

        Each point is one block shape and pass (forward or backward): the
        measured mean self time per call against the ``profiling`` model's
        FLOPs for that block at ``batch_rows`` rows.  The scale ``s``
        minimises the squared relative error ``sum((s*p/m - 1)^2)``, so
        ``s = sum(p/m) / sum((p/m)^2)``.
        """
        from repro.profiling import linear_cost

        points = []
        for (span, dims), (self_s, calls) in self.times().details.items():
            if span not in ("training.forward", "training.backward") or not calls:
                continue
            cost = [linear_cost("block", i, o).scaled(batch_rows) for i, o in dims]
            flops = sum(
                c.forward_flops_per_sample if span == "training.forward"
                else c.backward_flops_per_sample
                for c in cost
            )
            points.append({"pass": span.split(".")[1], "dims": dims,
                           "measured_s": self_s / calls, "flops": flops})
        if not points:
            return 0.0, []
        ratios = [p["flops"] / p["measured_s"] for p in points]
        scale = sum(ratios) / sum(r * r for r in ratios)
        for point in points:
            point["predicted_s"] = scale * point["flops"]
            point["rel_err"] = abs(point["predicted_s"] - point["measured_s"]) / point["measured_s"]
        return sum(p["rel_err"] for p in points) / len(points), points


def merge(first: Dict[str, float], second: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of two traced phases: sums, but peaks and ratios by maximum."""
    peaks = ("memory.peak_device_bytes", "memory.prefetch_hidden_ratio")
    return {
        name: max(value, second[name]) if name in peaks else value + second[name]
        for name, value in first.items()
    }


def bypass_problems(workload, metrics: Dict[str, float]) -> List[str]:
    """Layers the workload bypasses must read zero; the ones it stresses must not."""
    problems = []
    spills = workload.select_budget_share is not None or workload.name == "serve-fleet"
    expect_zero = [] if workload.process_pool else list(RUNTIME_METRICS)
    if not spills:
        expect_zero += MEMORY_METRICS
    for name in expect_zero:
        if metrics[name] != 0:
            problems.append(f"{name} = {metrics[name]} on {workload.name}, which bypasses it")
    expect_work = {
        "select-resident": ("training.steps", "optim.steps", "data.batches"),
        "select-spilled": ("memory.evictions", "memory.demand_fetches", "training.steps"),
        "serve-fleet": (
            "serving.router.batches",
            "memory.evictions",
            "api.runtime.pool_start_s",
            "api.runtime.task_wait_s",
            "api.runtime.tasks",
        ),
    }[workload.name]
    for name in expect_work:
        if metrics[name] <= 0:
            problems.append(f"{name} = {metrics[name]} on {workload.name}, which stresses it")
    return problems
