"""E16 — telemetry overhead: the disabled path must be near-free.

Every instrumentation site calls the recorder unguarded —
``with tel.span(...)``, ``tel.begin``/``tel.end``, ``tel.event`` — and the
shared :data:`NULL_TELEMETRY` is the only disabled path.  This benchmark
holds that design to its number — **<3% overhead with telemetry off** — on
the two hot paths:

* the **training step**: :meth:`ShardedModelExecutor.train_step` is a thin
  dispatcher over ``_train_step_impl`` (the uninstrumented body), so the
  disabled-path cost is measurable directly: ``baseline`` times the body,
  ``off`` times the dispatcher with the shared :data:`NULL_TELEMETRY`, and
  ``on`` times it with a live recorder.  The off/baseline ratio is the
  claim; in strict mode (``REPRO_PERF_CHECK`` / ``REPRO_PERF_STRICT`` /
  ``REPRO_PERF_LONG``) it must stay >= 0.97, and in the quick tier-1 run a
  looser 0.90 floor catches real regressions without tripping on a noisy
  shared machine.

* the **serving loop**: closed-loop throughput is measured with telemetry
  off and on, and a micro-probe times one disabled-path site as it ships:
  a ``NULL_TELEMETRY.span("serve.forward", ...)`` enter/exit with the
  forward span's own attributes.  A served request crosses three
  instrumented sites (submit, batch, forward); their combined cost as a
  fraction of one request's share of the measured throughput must stay
  under 3%.

Results land in ``benchmarks/BENCH_telemetry.json``; the committed JSON is
only rewritten by an explicit ``REPRO_PERF_LONG=1`` run.  The CI perf gate
(``REPRO_PERF_CHECK=1``) additionally fails when fresh disabled-path
numbers drop below ``REPRO_PERF_TOLERANCE`` of the committed ones (label a
PR ``skip-perf`` to opt out).
"""

from __future__ import annotations

import gc
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import serve
from repro.data import DataLoader
from repro.data.dataset import ArrayDataset
from repro.models import FeedForwardConfig, FeedForwardNetwork
from repro.optim import Adam
from repro.serving import LoadGenerator, warm_up
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.training import ShardedModelExecutor

from conftest import print_report

BENCH_PATH = Path(__file__).resolve().parent / "BENCH_telemetry.json"

MLP_BATCH = 64
SERVE_WIDTH = 256
SERVE_CLASSES = 64
COMPUTE_BATCH = 32
CLIENTS = 16

#: the tentpole contract: disabled telemetry costs < 3% of the hot path
MAX_OFF_OVERHEAD = 0.03
#: quick-mode floor — wide enough for shared-machine noise, tight enough
#: to catch an accidentally expensive disabled path
QUICK_FLOOR = 0.90
#: instrumented sites one served request crosses (submit, serve.batch, serve.forward)
GUARDS_PER_REQUEST = 3

_PERF_CHECK = os.environ.get("REPRO_PERF_CHECK", "") not in ("", "0")
_PERF_LONG = os.environ.get("REPRO_PERF_LONG", "") not in ("", "0")
_STRICT = (
    _PERF_CHECK or _PERF_LONG
    or os.environ.get("REPRO_PERF_STRICT", "") not in ("", "0")
)

#: fraction of the committed disabled-path numbers the perf job requires
PERF_TOLERANCE = float(os.environ.get("REPRO_PERF_TOLERANCE", "0.5"))


# --------------------------------------------------------------------------- #
# Train-step workload
# --------------------------------------------------------------------------- #
def _train_setup():
    model = FeedForwardNetwork(FeedForwardConfig.paper_1_2m(), seed=7)
    optimizer = Adam(model.parameters(), lr=1e-3)
    executor = ShardedModelExecutor(model, [(0, 2), (2, 4)])
    rng = np.random.default_rng(13)
    data = ArrayDataset(
        features=rng.normal(size=(MLP_BATCH, 512)).astype(np.float32),
        label=rng.integers(0, 10, size=(MLP_BATCH,)).astype(np.int64),
    )
    batch = next(iter(DataLoader(data, batch_size=MLP_BATCH)))
    return executor, batch, optimizer


def _min_step_seconds(step, min_seconds: float, warmup: int = 1) -> float:
    """Fastest single step (seconds) over a >= ``min_seconds`` window."""
    for _ in range(warmup):
        step()
    fastest = float("inf")
    count = 0
    window_started = time.perf_counter()
    while True:
        started = time.perf_counter()
        step()
        fastest = min(fastest, time.perf_counter() - started)
        count += 1
        if time.perf_counter() - window_started >= min_seconds and count >= 3:
            return fastest


def _run_train_benchmark() -> dict:
    # The true disabled-path cost is one no-op span enter/exit (well under
    # a microsecond) against a multi-ms step, far below machine noise.  Two measures keep
    # the noise out of the ratio: the variants' windows are interleaved
    # round-robin (so load/frequency drift hits all of them alike), and
    # each variant is scored by its fastest *single step* — the minimum of
    # hundreds of per-step timings estimates the true floor far more
    # tightly than any window-average rate.
    rounds, min_seconds = (5, 1.2) if (_PERF_CHECK or _PERF_LONG) else (2, 0.4)
    executor, batch, optimizer = _train_setup()
    live = Telemetry()
    variants = {
        "baseline": (NULL_TELEMETRY, lambda: executor._train_step_impl(batch, optimizer)),
        "off": (NULL_TELEMETRY, lambda: executor.train_step(batch, optimizer)),
        "on": (live, lambda: executor.train_step(batch, optimizer)),
    }
    fastest = {name: float("inf") for name in variants}
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(rounds):
            for name, (telemetry, step) in variants.items():
                executor.telemetry = telemetry
                fastest[name] = min(
                    fastest[name], _min_step_seconds(step, min_seconds)
                )
            live.drain()  # keep the live buffer flat across rounds
    finally:
        if gc_was_enabled:
            gc.enable()
        executor.telemetry = NULL_TELEMETRY
    return {
        "baseline_steps_per_sec": round(1.0 / fastest["baseline"], 2),
        "off_steps_per_sec": round(1.0 / fastest["off"], 2),
        "on_steps_per_sec": round(1.0 / fastest["on"], 2),
        "off_ratio": round(fastest["baseline"] / fastest["off"], 4),
        "on_ratio": round(fastest["baseline"] / fastest["on"], 4),
    }


# --------------------------------------------------------------------------- #
# Serving workload
# --------------------------------------------------------------------------- #
def _serve_model() -> FeedForwardNetwork:
    config = FeedForwardConfig(
        input_dim=SERVE_WIDTH, hidden_dims=(SERVE_WIDTH, SERVE_WIDTH),
        num_classes=SERVE_CLASSES,
    )
    return FeedForwardNetwork(config, seed=17)


def _serve_throughput(telemetry) -> dict:
    rng = np.random.default_rng(23)
    inputs = rng.normal(size=(64, SERVE_WIDTH)).astype(np.float32)
    requests = 30 if (_PERF_CHECK or _PERF_LONG) else 10
    server = serve(
        _serve_model(),
        max_batch_size=COMPUTE_BATCH,
        max_wait_ms=2.0,
        max_queue=4 * CLIENTS,
        telemetry=telemetry,
        start=False,
    )
    with server:
        warm_up(server, inputs[:1], requests=4)
        report = LoadGenerator(
            server,
            lambda client, index: inputs[(client + index) % len(inputs)][None, :],
            clients=CLIENTS,
            requests_per_client=requests,
        ).run()
        metrics = server.metrics()
    record = report.as_dict()
    record["mean_batch_rows"] = metrics["mean_batch_rows"]
    return record


def _guard_cost_seconds(iterations: int = 200_000) -> float:
    """Measured cost of one disabled-path site: a no-op span enter/exit.

    The probe is the call ``serve.forward`` makes on every batch, with the
    same name, category and attributes, on the shared ``NULL_TELEMETRY``.
    """
    tel = NULL_TELEMETRY
    model, replica = "mlp", "mlp/replica0"
    started = time.perf_counter()
    for _ in range(iterations):
        with tel.span("serve.forward", cat="serving", model=model, replica=replica):
            pass
    return (time.perf_counter() - started) / iterations


def _run_serving_benchmark() -> dict:
    off = _serve_throughput(None)
    on = _serve_throughput(Telemetry())
    guard = _guard_cost_seconds()
    # One request's share of a micro-batch, from the measured throughput.
    per_request = 1.0 / max(off["throughput_rps"], 1e-9)
    guard_fraction = (GUARDS_PER_REQUEST * guard) / per_request
    return {
        "throughput_off_rps": round(off["throughput_rps"], 2),
        "throughput_on_rps": round(on["throughput_rps"], 2),
        "mean_batch_rows": round(off["mean_batch_rows"], 2),
        "guard_cost_ns": round(guard * 1e9, 2),
        "guard_fraction_per_request": round(guard_fraction, 8),
    }


def _run_benchmark() -> dict:
    return {
        "train_step": _run_train_benchmark(),
        "serving": _run_serving_benchmark(),
    }


# --------------------------------------------------------------------------- #
# Tests
# --------------------------------------------------------------------------- #
def test_telemetry_off_is_near_free():
    """E16: emits BENCH_telemetry.json; asserts the <3% disabled-path claim."""
    results = _run_benchmark()
    train, serving = results["train_step"], results["serving"]

    print_report(
        "E16 · telemetry overhead: hotpath train step and serving loop",
        ["path", "baseline", "telemetry off", "telemetry on", "off/baseline"],
        [
            [
                "train step/s",
                f"{train['baseline_steps_per_sec']:.1f}",
                f"{train['off_steps_per_sec']:.1f}",
                f"{train['on_steps_per_sec']:.1f}",
                f"{train['off_ratio']:.3f}",
            ],
            [
                "serving req/s",
                "-",
                f"{serving['throughput_off_rps']:.0f}",
                f"{serving['throughput_on_rps']:.0f}",
                f"guard {serving['guard_cost_ns']:.0f} ns",
            ],
        ],
    )

    # The contract.  Strict mode (the reference container / CI perf job)
    # holds the full <3% bound; the quick tier-1 run keeps a floor wide
    # enough for machine noise but far above any real regression.
    floor = 1.0 - MAX_OFF_OVERHEAD if _STRICT else QUICK_FLOOR
    assert train["off_ratio"] >= floor, (
        f"disabled telemetry costs {(1 - train['off_ratio']):.1%} of the "
        f"train step (bound: {1 - floor:.0%})"
    )
    # The disabled serving sites are sub-microsecond against a request's
    # share of a multi-ms batch.
    assert serving["guard_fraction_per_request"] < MAX_OFF_OVERHEAD
    # Enabled telemetry is bounded too: spans may cost real time, but the
    # hot path must stay in the same ballpark, not fall off a cliff.
    assert train["on_ratio"] >= 0.5

    if _PERF_LONG or not BENCH_PATH.exists():
        BENCH_PATH.write_text(
            json.dumps(
                {
                    "experiment": "E16-telemetry-overhead",
                    "results": results,
                    "note": (
                        "Disabled-path overhead of the telemetry "
                        "instrumentation: train_step times the dispatcher "
                        "against its uninstrumented body "
                        "(_train_step_impl) on the paper's 1.2M-parameter "
                        "MLP (2 shards); serving measures closed-loop "
                        f"throughput ({CLIENTS} clients) with telemetry "
                        "off/on plus a micro-probe of one disabled-path "
                        "`NULL_TELEMETRY.span('serve.forward', ...)` "
                        "enter/exit.  Regenerate with REPRO_PERF_LONG=1."
                    ),
                },
                indent=2,
            )
            + "\n"
        )


@pytest.mark.skipif(not _PERF_CHECK, reason="perf gate runs with REPRO_PERF_CHECK=1")
def test_no_regression_versus_committed_json():
    """CI perf gate: fresh disabled-path numbers must stay within tolerance."""
    committed = json.loads(BENCH_PATH.read_text())["results"]
    fresh = _run_benchmark()
    failures = []
    pairs = [
        ("train_step", "off_steps_per_sec"),
        ("serving", "throughput_off_rps"),
    ]
    for section, key in pairs:
        floor = committed[section][key] * PERF_TOLERANCE
        measured = fresh[section][key]
        if measured < floor:
            failures.append(
                f"{section}.{key}: {measured:.2f} < {floor:.2f} "
                f"({PERF_TOLERANCE:.0%} of committed {committed[section][key]:.2f})"
            )
    if fresh["train_step"]["off_ratio"] < 1.0 - MAX_OFF_OVERHEAD:
        failures.append(
            f"disabled-path ratio {fresh['train_step']['off_ratio']:.3f} broke "
            f"the <{MAX_OFF_OVERHEAD:.0%} overhead contract"
        )
    assert not failures, "performance regressions: " + "; ".join(failures)
