"""Single-threaded open-loop load driver for a ``FleetRouter``.

One generator thread submits every request at its due time, whatever the
router is doing, and never waits for a response before sending the next
one.  Latency is measured from the request's *due* time to the
``completed_at`` stamp the router puts on its response, so a stall that
delays the generator (or the router) is charged to every request it
delayed.  How late the generator itself ran is reported as ``gen_lag``;
a rung whose generator ran later than ``lag_bound_s`` at its p99 is marked
invalid, because then the offered rate was not the one asked for.

A refused request (``ServerOverloadedError``), a timed-out one and a failed
one all count as misses.  A refused one has no latency and sorts after
every other request when percentiles are taken; a timed-out or failed one
keeps the time it took to fail.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import RequestTimeoutError, ServerOverloadedError, ServingError

#: ``make_request(index) -> (model name, request arrays)``
RequestFactory = Callable[[int], Tuple[str, Dict[str, np.ndarray]]]


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (``inf`` entries allowed)."""
    if len(sorted_values) == 0:
        return math.inf
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


@dataclass
class RungResult:
    """What one fixed-rate open-loop rung measured."""

    rate_rps: float
    attempted: int
    completed: int
    rejected: int
    timed_out: int
    failed: int
    p50_ms: float
    p99_ms: float
    slo_ok_frac: float
    gen_lag_p99_ms: float
    backlog_growing: bool
    valid: bool
    #: responses of the requests asked for with ``keep`` (None if it missed)
    kept: Dict[int, Any] = field(default_factory=dict)

    def meets(self, limit_ms: float) -> bool:
        """Whether this rung meets the p99 limit with no growing backlog."""
        return self.valid and not self.backlog_growing and self.p99_ms <= limit_ms


def _backlog_growing(latencies: np.ndarray, limit_s: float) -> bool:
    """Whether queueing delay grew across the rung.

    Compares the median latency of the last third of the requests with that
    of the first third.  A stable system
    keeps the two close; one past its capacity queues more with every
    request, so the last third waits longer by a good share of the limit.
    """
    third = len(latencies) // 3
    if third < 10:
        return False
    first = float(np.median(latencies[:third]))
    last = float(np.median(latencies[-third:]))
    return last - first > 0.2 * limit_s


def run_rung(
    router,
    make_request: RequestFactory,
    rate_rps: float,
    duration_s: float,
    limit_ms: float,
    lag_bound_s: float,
    drain_timeout_s: float,
    keep: Optional[Set[int]] = None,
) -> RungResult:
    """Offer ``rate_rps`` for ``duration_s`` and measure every request.

    Requests are evenly spaced.  A refused submit, a timed-out response
    and a failed one count as misses.  The responses of the request
    indices in ``keep`` are returned for correctness checks.
    """
    keep = keep or set()
    kept: Dict[int, Any] = {index: None for index in keep}
    count = max(1, int(round(rate_rps * duration_s)))
    interval = 1.0 / rate_rps
    requests = [make_request(index) for index in range(count)]
    due = np.empty(count)
    lag = np.empty(count)
    pending: List = [None] * count
    rejected = 0
    start = time.monotonic() + 0.01
    for index, (model, arrays) in enumerate(requests):
        when = start + index * interval
        due[index] = when
        delay = when - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        sent = time.monotonic()
        lag[index] = sent - when
        try:
            pending[index] = router.submit(model, arrays)
        except ServerOverloadedError:
            rejected += 1
    latencies = np.full(count, math.inf)
    missed = np.zeros(count, dtype=bool)
    timed_out = failed = 0
    deadline = time.monotonic() + drain_timeout_s
    for index, response in enumerate(pending):
        if response is None:
            continue
        try:
            value = response.result(timeout=max(0.0, deadline - time.monotonic()))
        except RequestTimeoutError:
            timed_out += 1
            missed[index] = True
        except ServingError:
            failed += 1
            missed[index] = True
        if response.completed_at is not None:
            # A miss keeps the time it took to fail: it sorts late, and
            # the percentiles stay finite.
            latencies[index] = response.completed_at - due[index]
        if missed[index]:
            continue
        if index in keep:
            kept[index] = value
    ordered = np.sort(latencies)
    lag_p99 = percentile(np.sort(lag), 99.0)
    completed = count - rejected - timed_out - failed
    return RungResult(
        rate_rps=float(rate_rps),
        attempted=count,
        completed=completed,
        rejected=rejected,
        timed_out=timed_out,
        failed=failed,
        p50_ms=percentile(ordered, 50.0) * 1e3,
        p99_ms=percentile(ordered, 99.0) * 1e3,
        slo_ok_frac=float(((latencies <= limit_ms / 1e3) & ~missed).sum()) / count,
        gen_lag_p99_ms=lag_p99 * 1e3,
        backlog_growing=_backlog_growing(latencies, limit_ms / 1e3),
        valid=lag_p99 <= lag_bound_s,
        kept=kept,
    )


def max_rate_at_slo(rungs: Sequence[RungResult], limit_ms: float) -> float:
    """The highest offered rate that meets the limit, interpolated past the last rung.

    Rungs are taken in ascending rate order up to the first that fails.
    Between the last passing rung and the first failing one, the rate is
    interpolated linearly on p99 so the figure does not jump by a whole
    rung when the knee sits between two of them; a failing rung with a
    growing backlog, a refused request or a late generator is treated as
    infinitely far past the limit.
    Returns 0.0 when even the lowest rung fails.
    """
    passed = None
    for rung in sorted(rungs, key=lambda r: r.rate_rps):
        if rung.meets(limit_ms):
            passed = rung
            continue
        if passed is None:
            return 0.0
        over = rung.p99_ms
        if not math.isfinite(over) or rung.backlog_growing or not rung.valid:
            return passed.rate_rps
        share = (limit_ms - passed.p99_ms) / max(over - passed.p99_ms, 1e-9)
        return passed.rate_rps + share * (rung.rate_rps - passed.rate_rps)
    return passed.rate_rps if passed is not None else 0.0
