"""Unified observability: spans + metrics across select→train→spill→serve.

The telemetry substrate the ROADMAP's remaining items (auto-solver
profiling, SLO autoscaling) consume (see ``docs/observability.md``):

* :class:`Telemetry` — the enabled recorder: ``span``/``begin``/``event``
  with monotonic timestamps and parent links, a bounded event buffer,
  Chrome/Perfetto + JSONL export, and one :class:`MetricsRegistry`;
* :data:`NULL_TELEMETRY` — the shared no-op recorder every instrumented
  component defaults to; sites call it unguarded, and its shared no-op
  span keeps the disabled path inside the E16 overhead budget;
* :class:`Histogram` — the one bounded-sample distribution (fixed-seed
  reservoir) behind registry histograms and serving latency stats;
* cross-process collection — spawn children record into their own
  recorder, ``drain()`` into the existing result channels, and the parent
  ``ingest()``\\ s, so one trace shows every process;
* :mod:`repro.telemetry.schema` — the documented snapshot schema with the
  validators the tests share.

Wiring points: ``Experiment.run(telemetry=...)``,
``serve(telemetry=...)`` / ``serve_fleet(telemetry=...)``.
"""

from repro.telemetry.metrics import Histogram, MetricsRegistry
from repro.telemetry.recorder import NULL_TELEMETRY, NullTelemetry, Telemetry
from repro.telemetry.schema import (
    HISTOGRAM_SUMMARY_KEYS,
    LATENCY_SNAPSHOT_KEYS,
    MONOTONIC_COUNTERS,
    SchemaError,
    assert_monotonic,
    validate_fleet_metrics,
    validate_latency_snapshot,
    validate_registry_snapshot,
)

__all__ = [
    "HISTOGRAM_SUMMARY_KEYS",
    "Histogram",
    "LATENCY_SNAPSHOT_KEYS",
    "MONOTONIC_COUNTERS",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "SchemaError",
    "Telemetry",
    "assert_monotonic",
    "validate_fleet_metrics",
    "validate_latency_snapshot",
    "validate_registry_snapshot",
]
