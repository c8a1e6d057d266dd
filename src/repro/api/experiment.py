"""The declarative experiment: one object that any searcher × backend can run.

``Experiment`` captures *what* to search (a :class:`SearchSpace`), *what to
optimise* (objective + mode), *how much* to spend (a :class:`Budget`), and
*how* to search (a :class:`Searcher`).  *Where* trials execute is a
pluggable :class:`~repro.api.backend.ExecutionBackend`, so the same
experiment can be simulated on the cost-model cluster to pick a plan and
then replayed on the real numpy engine::

    experiment = Experiment(space=space, searcher="grid", objective="loss")
    simulated = experiment.run(backend=sim_backend, objective="makespan_seconds")
    trained = experiment.run(backend=shard_backend)

The :class:`TrialRunner` is the glue between the two halves: it prepares
trials on the backend, steps them epoch by epoch (when the backend is
resumable), fires callbacks, records results/wall time into an
:class:`ExperimentTracker`, and keeps handles alive so multi-rung searchers
can resume trials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Union

from repro.api.backend import ExecutionBackend, TrialHandle
from repro.api.callbacks import Callback, CallbackList
from repro.api.runtime.concurrent import ConcurrentBackend
from repro.api.runtime.runner import RetryPolicy
from repro.api.searchers import Searcher, make_searcher
from repro.exceptions import ConfigurationError
from repro.selection.experiment import (
    ExperimentTracker,
    SelectionResult,
    TrialConfig,
    TrialResult,
)
from repro.selection.search_space import SearchSpace
from repro.telemetry import NULL_TELEMETRY


@dataclass(frozen=True)
class Budget:
    """How much training a selection run may spend.

    ``epochs_per_trial`` is the budget of fixed-allocation searchers (grid,
    random, fixed lists); multi-rung searchers derive their own per-rung
    budgets.  ``max_trials`` caps how many configurations are tried when the
    searcher does not fix that itself.

    Example::

        Budget(epochs_per_trial=5, max_trials=16)

    Raises:
        ConfigurationError: if ``epochs_per_trial`` or ``max_trials`` is not
            positive.
    """

    epochs_per_trial: int = 1
    max_trials: Optional[int] = None

    def __post_init__(self) -> None:
        if self.epochs_per_trial <= 0:
            raise ConfigurationError(
                f"epochs_per_trial must be positive, got {self.epochs_per_trial}"
            )
        if self.max_trials is not None and self.max_trials <= 0:
            raise ConfigurationError(f"max_trials must be positive, got {self.max_trials}")


class TrialRunner:
    """Drives trials from a searcher onto a backend, firing callbacks.

    One runner serves one ``Experiment.run`` invocation.  Searchers call
    :meth:`run_trials` with a cohort and an epoch budget, and later
    :meth:`retire` when they are done with a trial.  Handles persist between
    calls, which is what makes successive halving's resumed rungs work.

    The runner is a context manager: leaving the ``with`` block (or calling
    :meth:`finish`) retires every live trial, so backend ``teardown`` runs
    even when a searcher or backend raises mid-search.  Within
    :meth:`run_trials` itself, a cohort that raises is torn down before the
    exception propagates — trial handles never leak on failure paths.

    Example::

        with TrialRunner(backend, space, budget, tracker, callbacks) as runner:
            searcher.run(runner)

    Raises:
        ConfigurationError: from :attr:`space` when a searcher needs a search
            space but the experiment declared none, and from
            :meth:`run_trials` on a non-positive epoch budget.
    """

    def __init__(
        self,
        backend: ExecutionBackend,
        space: Optional[SearchSpace],
        budget: Budget,
        tracker: ExperimentTracker,
        callbacks: CallbackList,
    ):
        self.backend = backend
        self._space = space
        self.budget = budget
        self.tracker = tracker
        self.callbacks = callbacks
        self._handles: Dict[str, TrialHandle] = {}
        self._retired: Set[str] = set()
        self._last_result: Dict[str, TrialResult] = {}

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "TrialRunner":
        """Enter the runner's scope; trials retire when the scope exits."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Retire every live trial (teardown + callbacks), even on error."""
        self.finish()

    # ------------------------------------------------------------------ #
    @property
    def space(self) -> SearchSpace:
        """The experiment's search space (raises when none was declared)."""
        if self._space is None:
            raise ConfigurationError(
                "this experiment declares no search space, but its searcher "
                "requires one (only fixed trial lists run without a space)"
            )
        return self._space

    @property
    def objective(self) -> str:
        """The metric name trials are ranked by (e.g. ``"loss"``)."""
        return self.tracker.objective

    @property
    def mode(self) -> str:
        """``"min"`` or ``"max"`` — the direction of the objective."""
        return self.tracker.mode

    # ------------------------------------------------------------------ #
    def run_trials(
        self, trials: Sequence[TrialConfig], epochs: int
    ) -> List[TrialResult]:
        """Train a cohort for ``epochs`` epochs and record one result each.

        Already-retired trials are skipped.  Trials stopped early by a
        callback are recorded with the epochs they completed, retired, and
        omitted from the returned list — so a searcher never resumes them.
        Trials a fault-tolerant backend marks as failed (``handle.failure``)
        are recorded as :class:`~repro.selection.experiment.FailedTrial`,
        retired, and likewise omitted — the experiment itself survives.

        Resumable backends are stepped one epoch at a time *only when
        callbacks are registered* (they are the only epoch observers);
        otherwise the backend receives the whole budget in a single call —
        which both avoids per-call setup overhead and preserves the legacy
        ``TrainFn(config, num_epochs)`` chunk contract of the function
        shims.

        If the backend raises (rather than reporting per-trial failures),
        every handle in the cohort is retired — ``teardown`` runs, releasing
        models and loaders — before the exception propagates.

        Raises:
            ConfigurationError: if ``epochs`` is not positive.
        """
        if epochs <= 0:
            raise ConfigurationError(f"epochs must be positive, got {epochs}")
        active: List[TrialHandle] = []
        for trial in trials:
            if trial.trial_id in self._retired:
                continue
            handle = self._handles.get(trial.trial_id)
            if handle is None:
                handle = self.backend.prepare(trial)
                self._handles[trial.trial_id] = handle
                self.callbacks.on_trial_start(trial)
            self.tracker.start_trial(trial.trial_id)
            active.append(handle)

        stopped: List[TrialHandle] = []
        observers = bool(self.callbacks.callbacks)
        try:
            if self.backend.resumable and observers:
                # Step one epoch at a time so callbacks see every epoch and can
                # stop individual trials while the rest of the cohort continues.
                cohort = list(active)
                for _ in range(epochs):
                    if not cohort:
                        break
                    metrics_map = self.backend.train_many(cohort, 1)
                    surviving: List[TrialHandle] = []
                    for handle in cohort:
                        if handle.failure is not None:
                            continue
                        metrics = metrics_map[handle.trial_id]
                        handle.epochs_trained += 1
                        handle.last_metrics = dict(metrics)
                        if self.callbacks.on_epoch_end(
                            handle.trial, handle.epochs_trained, handle.last_metrics
                        ):
                            stopped.append(handle)
                        else:
                            surviving.append(handle)
                    cohort = surviving
            else:
                # Whole budget in one call: one-shot backends by contract, and
                # resumable backends with nobody watching individual epochs.  A
                # stop vote here cannot rewind training, but it still retires
                # the trial so searchers never resume it.
                metrics_map = self.backend.train_many(active, epochs)
                for handle in active:
                    if handle.failure is not None:
                        continue
                    handle.epochs_trained += epochs
                    handle.last_metrics = dict(metrics_map[handle.trial_id])
                    if self.callbacks.on_epoch_end(
                        handle.trial, handle.epochs_trained, handle.last_metrics
                    ):
                        stopped.append(handle)
        except Exception:
            # Failure-path discipline: a backend/callback that raises must not
            # leak the cohort's prepared state (models, loaders, plans).
            # Best-effort — a teardown error must not mask the original one.
            for handle in active:
                if handle.trial_id not in self._retired:
                    try:
                        self._retire_handle(handle)
                    except Exception:
                        pass
            raise

        results: List[TrialResult] = []
        stopped_ids = {handle.trial_id for handle in stopped}
        failed = [handle for handle in active if handle.failure is not None]
        failed_ids = {handle.trial_id for handle in failed}
        for handle in active:
            if handle.trial_id in failed_ids:
                self._record_failure(handle)
                continue
            result = self._record(handle)
            if handle.trial_id not in stopped_ids:
                results.append(result)
        for handle in stopped:
            self._retire_handle(handle)
        for handle in failed:
            self._retire_handle(handle)
        return results

    def retire(self, trials: Sequence[Union[TrialConfig, str]]) -> None:
        """Release trials the searcher is finished with (teardown + callbacks)."""
        for trial in trials:
            trial_id = trial if isinstance(trial, str) else trial.trial_id
            handle = self._handles.get(trial_id)
            if handle is not None and trial_id not in self._retired:
                self._retire_handle(handle)

    def finish(self) -> None:
        """Retire anything the searcher left running (safety net)."""
        for trial_id in list(self._handles):
            if trial_id not in self._retired:
                self._retire_handle(self._handles[trial_id])

    # ------------------------------------------------------------------ #
    def _record(self, handle: TrialHandle) -> TrialResult:
        # Annotations only fill gaps: a searched hyperparameter always wins
        # over whatever the backend derived for the same name.
        hyperparameters = dict(handle.trial.hyperparameters)
        for key, value in handle.annotations.items():
            hyperparameters.setdefault(key, value)
        # Sequential backends attribute wall time per trial on the handle;
        # co-scheduling backends leave it at 0 and the tracker's cohort
        # window (started in run_trials) is the honest elapsed time.
        wall = handle.wall_seconds if handle.wall_seconds > 0 else None
        handle.wall_seconds = 0.0
        result = self.tracker.record(
            handle.trial_id,
            hyperparameters,
            handle.last_metrics,
            epochs_trained=handle.epochs_trained,
            wall_seconds=wall,
        )
        self._last_result[handle.trial_id] = result
        return result

    def _record_failure(self, handle: TrialHandle) -> TrialResult:
        hyperparameters = dict(handle.trial.hyperparameters)
        for key, value in handle.annotations.items():
            hyperparameters.setdefault(key, value)
        fault = handle.failure
        result = self.tracker.record_failure(
            handle.trial_id,
            hyperparameters,
            error=getattr(fault, "error", str(fault)),
            epochs_trained=handle.epochs_trained,
            metrics=handle.last_metrics,
            timed_out=getattr(fault, "timed_out", False),
        )
        self._last_result[handle.trial_id] = result
        return result

    def _retire_handle(self, handle: TrialHandle) -> None:
        self._retired.add(handle.trial_id)
        self.backend.teardown(handle)
        result = self._last_result.get(handle.trial_id)
        if result is not None:
            self.callbacks.on_trial_end(result)


@dataclass
class Experiment:
    """A declarative model-selection experiment (see module docstring).

    ``searcher`` may be a :class:`Searcher` instance or a short name
    (``"grid"``, ``"random"``, ``"successive-halving"``).  ``backend`` may be
    left unset and supplied per :meth:`run` call instead — the idiom for
    simulating an experiment before executing it for real.  ``space`` may be
    ``None`` only for searchers that bring their own trials
    (:class:`FixedSearcher`).  ``workers`` > 1 runs each cohort's trials
    concurrently on a worker pool (see :meth:`run`).

    Example::

        experiment = Experiment(space=space, searcher="grid", objective="loss",
                                budget=Budget(epochs_per_trial=2))
        result = experiment.run(backend=backend, workers=4)

    Raises:
        ConfigurationError: from :meth:`run`, when no backend is available.
    """

    space: Optional[SearchSpace] = None
    searcher: Union[Searcher, str] = "grid"
    backend: Optional[ExecutionBackend] = None
    objective: str = "loss"
    mode: str = "min"
    budget: Budget = field(default_factory=Budget)
    callbacks: Sequence[Callback] = ()
    name: str = "experiment"
    workers: Optional[int] = None

    def run(
        self,
        backend: Optional[ExecutionBackend] = None,
        objective: Optional[str] = None,
        mode: Optional[str] = None,
        callbacks: Optional[Sequence[Callback]] = None,
        workers: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        memory_budget=None,
        pool: Optional[str] = None,
        telemetry=None,
    ) -> SelectionResult:
        """Execute the experiment and return the ranked result.

        Per-call overrides support replaying the same experiment on a
        different backend (e.g. simulator vs real engine) or objective.

        ``workers`` (per-call, falling back to the experiment's ``workers``
        field) wraps the backend in a
        :class:`~repro.api.runtime.ConcurrentBackend` for the duration of the
        run: every cohort's trials prepare/train/teardown concurrently on a
        pool of that many slots, and trial failures become ``FailedTrial``
        records.  ``retry`` configures that runtime's per-trial fault
        tolerance (retries, backoff, straggler timeout); passing ``retry``
        alone implies ``workers=1``.  ``workers=1`` uses the inline serial
        pool — same fault-tolerance semantics, no threads — so results and
        rankings are deterministic regardless of worker count.  With neither
        ``workers`` nor ``retry``, the backend runs directly and a raising
        trial propagates (after the cohort is torn down).

        ``pool`` picks the worker-pool flavour: ``"thread"`` (default) runs
        trials on threads in this process; ``"process"`` places each trial
        in a child **process** — true parallelism past the GIL for
        CPU-bound training.  Process pools require a picklable backend
        (module-level builder functions, not lambdas) and ship results back
        as checkpoints; losses and rankings are bit-identical across pools
        and worker counts.  Passing ``pool`` alone implies ``workers=1``.

        ``memory_budget`` (bytes per simulated device) opts the run into
        *spilled* execution on backends that support it (see
        :meth:`~repro.api.backend.ExecutionBackend.with_memory_budget`):
        trials whose models exceed the budget keep idle shards in host
        memory and stream them in just in time — bit-identical results,
        bounded device memory.  Composes with ``workers``: the spill
        manager is shared and thread-safe.

        ``telemetry`` (a :class:`repro.telemetry.Telemetry` recorder) traces
        the whole run: an ``experiment`` span wraps the search, each trial
        and epoch gets a span (including trials running in child processes —
        their events flush back over the result channel), and backend/spill
        metrics register as snapshot collectors.  ``None`` (the default)
        leaves the zero-overhead no-op recorder in place.

        Raises:
            ConfigurationError: if neither the experiment nor the call
                provides a backend; if ``workers``/``retry`` are invalid; if
                they are passed alongside a backend that is already a
                ``ConcurrentBackend`` (configure that backend instead); or
                if ``memory_budget`` is passed for a backend without spilled
                execution.
        """
        engine = backend if backend is not None else self.backend
        if engine is None:
            raise ConfigurationError(
                f"experiment {self.name!r} has no backend; pass one to run()"
            )
        owned_budget_backend = None
        if memory_budget is not None:
            if isinstance(engine, ConcurrentBackend):
                raise ConfigurationError(
                    "backend is already a ConcurrentBackend; construct its "
                    "inner backend with the memory budget instead of passing "
                    "memory_budget to run()"
                )
            engine = owned_budget_backend = engine.with_memory_budget(memory_budget)
        worker_count = workers if workers is not None else self.workers
        if worker_count is not None and worker_count < 1:
            raise ConfigurationError(f"workers must be positive, got {worker_count}")
        owned_runtime: Optional[ConcurrentBackend] = None
        if isinstance(engine, ConcurrentBackend):
            # The backend brought its own runtime; runtime knobs from the
            # call *or* the experiment would be silently dropped, so reject
            # them loudly.
            if worker_count is not None or retry is not None or pool is not None:
                raise ConfigurationError(
                    "backend is already a ConcurrentBackend; configure workers/"
                    "retry/pool on it at construction instead of passing them "
                    "to run() or the Experiment"
                )
        elif worker_count is not None or retry is not None or pool is not None:
            # workers=1 still gets the fault-tolerant runtime — on the inline
            # serial pool — so retry semantics are identical at every count.
            engine = owned_runtime = ConcurrentBackend(
                engine,
                workers=worker_count if worker_count is not None else 1,
                retry=retry,
                pool_kind=pool if pool is not None else "thread",
            )
        if telemetry is not None:
            # Attach to the *fully wrapped* engine so the runtime layer can
            # propagate (or, for process pools, re-create) the recorder.
            setter = getattr(engine, "set_telemetry", None)
            if callable(setter):
                setter(telemetry)
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        searcher = (
            make_searcher(self.searcher) if isinstance(self.searcher, str) else self.searcher
        )
        tracker = ExperimentTracker(
            objective=objective if objective is not None else self.objective,
            mode=mode if mode is not None else self.mode,
        )
        hooks = CallbackList(self.callbacks if callbacks is None else callbacks)
        hooks.on_experiment_start(self)
        try:
            # Even on a mid-search failure, live trial state must reach
            # backend.teardown and on_trial_end observers (runner.__exit__).
            with TrialRunner(
                engine, self.space, self.budget, tracker, hooks
            ) as runner, tel.span("experiment", cat="experiment", experiment=self.name):
                searcher.run(runner)
        finally:
            if owned_runtime is not None:
                owned_runtime.close()
            if owned_budget_backend is not None:
                # The budgeted backend (and its prefetch thread) was created
                # for this run; release it with the run.  Third-party
                # backends may support budgets without needing a close.
                closer = getattr(owned_budget_backend, "close", None)
                if closer is not None:
                    closer()
        result = tracker.as_result(searcher.method)
        hooks.on_experiment_end(result)
        return result
