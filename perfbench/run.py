"""End-to-end select -> serve benchmark with per-layer attribution.

Run from the root of a checkout::

    python3 perfbench/run.py --workload select-resident --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` runs the workload again with thread-aware spans wrapped
around each layer's public functions (see ``tracing.py``) and reports the
per-layer metrics: self times, counts and ratios, each reading zero on a
workload that bypasses its layer, plus ``trace_overhead`` (traced ÷
untraced end-to-end).  Workloads are described in ``workloads.py``; the
metric names and bounds are in ``BENCHMARK.json``.

Every run checks the program's outputs and exits non-zero when a check
fails: every timed selection must match a resident reference run bit for
bit (losses, best trial, published weights), sampled routed
responses must equal an unbatched forward of the published weights, and
in a traced run the memory and runtime layers must read zero where the
workload bypasses them.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, with the
machine shape (cores, BLAS and its threads, Python, numpy, seed), each
ladder rung and, for traced runs, a Chrome trace and an exclusive-time
table, is written under ``.perfbench-out/`` at the checkout root, which is
untracked; nothing tracked is written.  BLAS threading is left at its
default on purpose: pinning it would hide how BLAS threads contend with
the router's workers (and with process-pool children).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

#: how often set-up is repeated in a run (its median is reported)
SETUP_REPEATS = 15
#: share of a run spent on timed selections; serving passes take the rest
SELECT_SHARE = 0.5
#: fewest timed selections per run
MIN_SELECTIONS = 2
#: fewest serving passes per run (serving figures are medians over them)
MIN_SERVE_PASSES = 3
#: serving figures among the end-to-end metrics.  On a 2-core machine with
#: default BLAS threading, per-run p50/p99 latencies and the top rate whose
#: p99 meets the limit varied by 0.2-1.4 of their median across seeds; the
#: share of requests meeting the limit at a fixed rate varied by 0.01-0.2.
#: The others are printed and written to the result file.
GATED_SERVING = ("slo_ok_frac.low", "slo_ok_frac.high")

UNITS = {
    "time_to_best_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "p50_ms.low": "ms",
    "p99_ms.low": "ms",
    "p50_ms.high": "ms",
    "p99_ms.high": "ms",
    "slo_ok_frac.low": "fraction",
    "slo_ok_frac.high": "fraction",
    "max_rps_at_slo": "1/s",
    "trace_overhead": "ratio",
    "gen_lag_p99_ms": "ms",
    "memory.peak_device_bytes": "bytes",
    "memory.bytes_fetched": "bytes",
    "memory.prefetch_hidden_ratio": "ratio",
    "serving.router.forward_inflation": "ratio",
    "serving.router.mean_batch_rows": "rows",
    "serving.router.queue_depth_mean": "requests",
    "profiling.cost_rel_err.linear": "ratio",
}


def unit_of(name: str) -> str:
    """A metric's unit: listed above, else seconds for ``*_s``, else a count."""
    return UNITS.get(name) or ("s" if name.endswith("_s") else "count")


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def bootstrap() -> None:
    """Import the program from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no program source at {SRC / 'repro'}; run from the root of a full checkout")
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        fail(f"imported repro from {repro.__file__}, not from {SRC}")


# --------------------------------------------------------------------------- #
# Machine shape
# --------------------------------------------------------------------------- #
def blas_threads() -> Optional[int]:
    """The loaded OpenBLAS's thread count, asked from the library itself."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def machine_shape(seed: int) -> Dict[str, Any]:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


def child_pids() -> List[int]:
    """Every live or unreaped process whose parent is this one."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        # The fields after the parenthesised command are: state, ppid, ...
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    Process-pool children are stopped by their pool; what is left is
    multiprocessing's resource tracker, which the first ``spawn`` starts and
    which would otherwise outlive this process (and, reparented to an init
    that does not reap, stay behind as a zombie).  Anything else still
    ours is terminated and reaped.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------- #
# Phases
# --------------------------------------------------------------------------- #
class Run:
    """One invocation: a workload on a seed, traced or not."""

    def __init__(self, workload, seed: int, seconds: float, scratch: Path):
        import workloads

        self.w = workloads
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.scratch = scratch
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.detail: Dict[str, Any] = {}

    # -- selection ------------------------------------------------------ #
    def select_setup(self):
        selector = self.w.Selector(self.workload, self.seed, self.scratch)
        times = []
        for _ in range(SETUP_REPEATS):
            seconds, builder = selector.setup()
            times.append(seconds)
        return selector, builder, statistics.median(times)

    def check_selection(self, reference, selection, label: str) -> None:
        self.attempted += selection.attempted
        self.failed += selection.failures
        for problem in self.w.compare_selections(reference, selection):
            self.problems.append(f"{label}: {problem}")

    def selections(self, selector, builder, budget_s: float, probe=None):
        """Timed selections for ``budget_s``; with a probe, alternate traced ones.

        The resident in-process reference runs first: it warms the process
        and is what every timed selection must equal.  Returns the timed
        untraced seconds, the traced seconds and the last selection.
        """
        reference = selector.run(builder, reference=True)
        plain: List[float] = []
        traced: List[float] = []
        last = None
        started = time.perf_counter()
        while True:
            count = len(plain) + len(traced)
            elapsed = time.perf_counter() - started
            typical = elapsed / count if count else 0.0
            if count >= MIN_SELECTIONS * (2 if probe else 1) and elapsed + typical > budget_s:
                break
            trace_this = probe is not None and len(traced) < len(plain)
            if trace_this:
                probe.install()
            try:
                selection = selector.run(builder)
            finally:
                if trace_this:
                    probe.uninstall()
            (traced if trace_this else plain).append(selection.seconds)
            self.check_selection(reference, selection, f"selection {count}")
            if last is not None:
                self.w.discard(last)
            last = selection
        self.w.discard(reference)
        return plain, traced, last

    # -- serving -------------------------------------------------------- #
    def serve_pass(self, server, probe=None):
        """Deploy a fresh router, run the ladder on it, stop it; check its answers.

        Returns the pass's result and its set-up seconds.  ``probe``, when
        given, is installed around the set-up and the ladder.
        """
        if probe is not None:
            probe.install()
        try:
            started = time.perf_counter()
            router = server.setup()
            setup_s = time.perf_counter() - started
            try:
                result = server.ladder(router, self.workload.high_rate)
            finally:
                router.stop()
        finally:
            if probe is not None:
                probe.uninstall()
        mismatches = server.check_exact(result.sampled)
        if mismatches or not result.sampled:
            self.problems.append(
                f"{mismatches} of {len(result.sampled)} sampled routed responses differ "
                "from an unbatched forward of the published weights"
            )
        for rung in result.rungs:
            self.failed += rung.failed
            if rung.rate_rps in (self.w.LOW_RATE, self.workload.high_rate):
                self.attempted += rung.attempted
                self.failed += rung.rejected + rung.timed_out
        self.detail.setdefault("passes", []).append(
            [{key: value for key, value in vars(rung).items() if key != "kept"}
             for rung in result.rungs]
        )
        return result, setup_s

    def serve_passes(self, server, budget_s: float):
        """Serving passes for ``budget_s`` (at least ``MIN_SERVE_PASSES``).

        Returns the passes' results and at least ``SETUP_REPEATS`` set-up
        times: routers are deployed and stopped without serving until there
        are that many.
        """
        results, setups = [], []
        started = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - started
            typical = elapsed / len(results) if results else 0.0
            if len(results) >= MIN_SERVE_PASSES and elapsed + typical > budget_s:
                break
            result, setup_s = self.serve_pass(server)
            results.append(result)
            setups.append(setup_s)
        while len(setups) < SETUP_REPEATS:
            started = time.perf_counter()
            router = server.setup()
            setups.append(time.perf_counter() - started)
            router.stop()
        return results, setups


def serving_figures(w, workload, results) -> Dict[str, float]:
    """Each serving figure as the median over passes."""
    import openloop

    def median(values):
        return statistics.median(list(values))

    lows = [w.rung_at(result.rungs, w.LOW_RATE) for result in results]
    highs = [w.rung_at(result.rungs, workload.high_rate) for result in results]
    return {
        "slo_ok_frac.low": median(rung.slo_ok_frac for rung in lows),
        "slo_ok_frac.high": median(rung.slo_ok_frac for rung in highs),
        "p50_ms.low": median(rung.p50_ms for rung in lows),
        "p99_ms.low": median(rung.p99_ms for rung in lows),
        "p50_ms.high": median(rung.p50_ms for rung in highs),
        "p99_ms.high": median(rung.p99_ms for rung in highs),
        "max_rps_at_slo": median(
            openloop.max_rate_at_slo(result.rungs, w.SLO_LIMIT_MS) for result in results
        ),
    }


def measure_end_to_end(run: Run) -> Dict[str, float]:
    """The untraced run: timed selections, then serving passes."""
    w = run.w
    selector, builder, select_setup_s = run.select_setup()
    plain, _, last = run.selections(selector, builder, run.seconds * SELECT_SHARE)
    try:
        server = w.Server(run.workload, run.seed, last)
        results, serve_setups = run.serve_passes(server, run.seconds * (1.0 - SELECT_SHARE))
    finally:
        w.discard(last)
    run.detail.update(
        selections_s=plain,
        select_setup_s=select_setup_s,
        serve_setups_s=serve_setups,
        router=results[-1].router_metrics,
    )
    figures = serving_figures(w, run.workload, results)
    # Latency percentiles and the top rate meeting the limit are reported
    # but not among the gated metrics: see GATED_SERVING.
    run.detail["serving"] = figures
    metrics = {
        "time_to_best_s": statistics.median(plain),
        "setup_s": select_setup_s + statistics.median(serve_setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    metrics.update({name: figures[name] for name in GATED_SERVING})
    return metrics


def measure_layers(run: Run) -> Dict[str, float]:
    """The traced run: per-layer metrics of the phases the workload stresses.

    Selections alternate untraced and traced; ``trace_overhead`` is the
    ratio of their median times.  ``serve-fleet`` then serves one traced
    pass.
    """
    import layers

    w = run.w
    serves = run.workload.name == "serve-fleet"
    probe = layers.LayerProbe()
    selector, builder, _ = run.select_setup()
    plain, traced, last = run.selections(
        selector, builder, run.seconds * (SELECT_SHARE if serves else 1.0), probe=probe
    )
    run.detail.update(selections_s=plain, traced_selections_s=traced)
    metrics = probe.metrics(per=len(traced))
    if run.workload.name == "select-resident":
        metrics["profiling.cost_rel_err.linear"], fit = probe.cost_model_error(w.BATCH_ROWS)
        run.detail["cost_model"] = fit
    try:
        if serves:
            server = w.Server(run.workload, run.seed, last)
            uncontended = server.uncontended_forward()
            serve_probe = layers.LayerProbe()
            result, _ = run.serve_pass(server, probe=serve_probe)
            metrics = layers.merge(metrics, serve_probe.metrics(per=1))
            metrics.update(serve_probe.router_metrics(result, uncontended))
            serve_probe.write(OUT / run.workload.name, "serve")
            run.problems.extend(serve_probe.problems())
    finally:
        w.discard(last)
    metrics["trace_overhead"] = statistics.median(traced) / statistics.median(plain)
    run.problems.extend(probe.problems())
    run.problems.extend(layers.bypass_problems(run.workload, metrics))
    probe.write(OUT / run.workload.name, "select")
    return metrics


# --------------------------------------------------------------------------- #
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    workload = workloads.WORKLOADS[args.workload]
    out = OUT / workload.name
    out.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="scratch-", dir=OUT))
    # The program's temporary files, and any child process's, stay inside
    # the checkout too.
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    machine = machine_shape(args.seed)
    run = Run(workload, args.seed, args.seconds, scratch)
    try:
        metrics = measure_layers(run) if args.trace else measure_end_to_end(run)
    finally:
        stop_children()
        shutil.rmtree(scratch, ignore_errors=True)
    bad = sorted(name for name, value in metrics.items() if not math.isfinite(value))
    if bad:
        run.problems.append(f"metrics could not be measured (not finite): {bad}")
    correct = not run.problems
    result = {
        "correct": correct,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else -1.0, "unit": unit_of(name)}
            for name, value in sorted(metrics.items())
        },
    }
    (out / f"result-trace{args.trace}.json").write_text(
        json.dumps(
            {"workload": workload.name, "machine": machine, "result": result,
             "problems": run.problems, "detail": run.detail},
            indent=2, default=str,
        )
    )
    print("machine: " + " ".join(f"{key}={value}" for key, value in machine.items()))
    for name, entry in result["metrics"].items():
        print(f"{workload.name} {name} = {entry['value']:.6g} {entry['unit']}")
    for name, value in run.detail.get("serving", {}).items():
        if name not in GATED_SERVING:
            print(f"{workload.name} {name} = {value:.6g} {unit_of(name)} (reported, not gated)")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
