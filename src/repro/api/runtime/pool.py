"""Worker pools and the one child-process primitive of the runtime.

A :class:`WorkerPool` is a thin, uniform veneer over
:mod:`concurrent.futures` executors: ``submit`` a callable, get a
:class:`~concurrent.futures.Future` back.  Three implementations cover the
practical spectrum:

* :class:`SerialWorkerPool` — runs the callable inline and returns an
  already-completed future.  Zero threads, zero nondeterminism; the
  ``workers=1`` baseline and the pool used to debug scheduling issues.
* :class:`ThreadWorkerPool` — a :class:`~concurrent.futures.ThreadPoolExecutor`.
  The default for trial execution: the numpy engine releases the GIL inside
  large array ops, and simulated / I/O-bound trials overlap perfectly.
* :class:`ProcessWorkerPool` — true multi-process execution for CPU-bound,
  *picklable* work (pure-python trial logic never escapes the GIL on
  threads).  Each of the ``size`` slots owns one persistent ``spawn``-ed
  child process; tasks travel over a private pipe, so a child that dies
  mid-task (SIGKILL, OOM) fails **only that task** with
  :class:`~repro.exceptions.WorkerCrashedError` and the slot respawns a
  fresh child for the next one — unlike
  :class:`~concurrent.futures.ProcessPoolExecutor`, whose
  ``BrokenProcessPool`` condemns every pending future.

:class:`_ChildWorker` is the only code in ``repro`` that starts, watches
and stops a child process.  Pool slots run trials on it, and every
:class:`~repro.api.runtime.proc.ProcessReplica` runs its model build and
forwards on one, so the start method, the pipe protocol, the
unpicklable-outcome downgrade and the stop escalation exist once.

Retry placement: :meth:`WorkerPool.submit_retrying` runs a task under a
retry policy *inside the slot* (serial/thread pools) or *parent-side around
the child* (process pool) — the latter is what lets a retry survive the
death of the child that was running the previous attempt.  Both run the
same loop, :func:`_run_with_retries`.

Pools are context managers; :func:`make_pool` is the one-stop factory the
rest of the runtime uses.

Example::

    from repro.api.runtime import make_pool

    with make_pool(4) as pool:
        futures = [pool.submit(job, index) for index in range(8)]
        results = [future.result() for future in futures]

This module deliberately imports nothing from the rest of ``repro.api`` so
lower layers (e.g. the Cerebro hopper) can accept a pool without creating
an import cycle.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, List, Optional

from repro.exceptions import ConfigurationError, WorkerCrashedError


def _run_with_retries(policy: Any, fn: Callable[..., Any], *args: Any) -> Any:
    """The one retry loop, shared by every pool kind.

    Serial and thread pools run it inside the worker slot; the process pool
    runs it parent-side, around its child.  ``policy`` duck-types
    :class:`~repro.api.runtime.runner.RetryPolicy` (``max_retries`` and
    ``delay(retry_index)``); this module cannot import it without a cycle.
    """
    last_error: Optional[BaseException] = None
    for attempt in range(policy.max_retries + 1):
        if attempt > 0:
            time.sleep(policy.delay(attempt))
        try:
            return fn(*args)
        except Exception as error:  # noqa: BLE001 - policy decides
            last_error = error
    raise last_error  # type: ignore[misc]


class WorkerPool:
    """Protocol every pool implements: ``submit`` work, ``shutdown`` when done.

    Subclasses set :attr:`size` (the number of concurrent slots) and
    implement :meth:`submit`.  Pools are reusable across cohorts and
    experiments; shut them down once, at the end of their life.

    Example::

        pool = ThreadWorkerPool(2)
        try:
            future = pool.submit(sum, [1, 2, 3])
            assert future.result() == 6
        finally:
            pool.shutdown()

    Raises:
        ConfigurationError: from concrete constructors, when ``size`` is not
            positive.
    """

    #: number of tasks the pool runs concurrently
    size: int = 1

    #: short name used in reports and error messages
    kind: str = "pool"

    def submit(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Future:
        """Schedule ``fn(*args, **kwargs)`` and return its future."""
        raise NotImplementedError

    def submit_retrying(self, policy: Any, fn: Callable[..., Any], *args: Any) -> Future:
        """Schedule ``fn(*args)`` under ``policy``'s retry/backoff loop.

        ``policy`` is a :class:`~repro.api.runtime.runner.RetryPolicy` (or
        anything exposing ``max_retries`` and ``delay``).  In-process pools
        retry inside the worker slot; the process pool overrides this to
        retry parent-side, so an attempt whose child process was killed is
        re-run on a fresh child instead of being lost with it.
        """
        return self.submit(_run_with_retries, policy, fn, *args)

    def shutdown(self, wait: bool = True) -> None:
        """Release the pool's workers; no further ``submit`` calls allowed."""

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(size={self.size})"


class SerialWorkerPool(WorkerPool):
    """Runs every task inline, in submission order, on the caller's thread.

    ``submit`` executes the callable immediately and returns a future that
    is already resolved (or already carries the exception).  Useful as the
    deterministic ``workers=1`` degenerate case and in tests: concurrency
    machinery runs unchanged, with no actual concurrency.

    Example::

        pool = SerialWorkerPool()
        assert pool.submit(len, "abc").result() == 3
    """

    size = 1
    kind = "serial"

    def submit(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Future:
        """Run ``fn`` now; the returned future is already completed."""
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as error:  # noqa: BLE001 - mirrored into the future
            future.set_exception(error)
        return future


class _ExecutorPool(WorkerPool):
    """Shared shape for pools backed by a ``concurrent.futures`` executor."""

    def __init__(self, size: int):
        if size <= 0:
            raise ConfigurationError(f"pool size must be positive, got {size}")
        self.size = int(size)
        self._executor = self._make_executor()

    def _make_executor(self):
        raise NotImplementedError

    def submit(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Future:
        """Schedule ``fn`` on the executor and return its future."""
        return self._executor.submit(fn, *args, **kwargs)

    def shutdown(self, wait: bool = True) -> None:
        """Shut the executor down; pending tasks finish when ``wait`` is True."""
        self._executor.shutdown(wait=wait)


class ThreadWorkerPool(_ExecutorPool):
    """A thread-backed pool — the default trial-execution substrate.

    Threads share the interpreter, so live models and loaders need no
    pickling, and the numpy engine's large array ops release the GIL.

    Example::

        with ThreadWorkerPool(4) as pool:
            assert pool.submit(max, 1, 2).result() == 2

    Raises:
        ConfigurationError: if ``size`` is not positive.
    """

    kind = "thread"

    def _make_executor(self) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(max_workers=self.size, thread_name_prefix="repro-worker")


def _pool_worker_main(conn) -> None:
    """A child's whole life: recv ``(fn, args, kwargs)``, reply, repeat.

    Runs in a ``spawn``-ed child process.  Replies are ``("ok", result)`` or
    ``("err", exception)``; an unpicklable result or exception is downgraded
    to a picklable ``("err", RuntimeError)`` so the pipe never wedges.
    ``None`` (or EOF) is the shutdown sentinel.  Module globals of the
    task's own module persist between tasks, which is how a serving replica
    keeps its built model in the child.
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        fn, args, kwargs = message
        try:
            reply = ("ok", fn(*args, **kwargs))
        except BaseException as error:  # noqa: BLE001 - mirrored to the parent
            reply = ("err", error)
        try:
            conn.send(reply)
        except (EOFError, OSError, BrokenPipeError):
            break
        except Exception as error:  # noqa: BLE001 - unpicklable payload
            conn.send(
                (
                    "err",
                    RuntimeError(
                        f"task outcome could not cross the process boundary: "
                        f"{type(error).__name__}: {error}"
                    ),
                )
            )
    conn.close()


class _ChildWorker:
    """One persistent spawned child process plus its private pipe.

    ``spawn`` starts every child from a clean interpreter: ``fork`` would
    clone live threads' locks (spill managers, serve loops) mid-flight.
    ``name`` is the child's process name (``repro-pool-worker-<i>`` for a
    pool slot, ``repro-replica-<name>`` for a serving replica).
    """

    def __init__(self, name: str):
        context = multiprocessing.get_context("spawn")
        self.conn, child_conn = context.Pipe(duplex=True)
        self.process = context.Process(
            target=_pool_worker_main,
            args=(child_conn,),
            name=name,
            daemon=True,
        )
        self.process.start()
        child_conn.close()

    def run(
        self,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        timeout: Optional[float] = None,
    ) -> Any:
        """Ship one task to the child and wait for its reply.

        Raises:
            WorkerCrashedError: when the child dies before replying, or
                does not reply within ``timeout`` seconds; either way the
                child is stopped first.
        """
        try:
            self.conn.send((fn, args, kwargs))
        except (BrokenPipeError, OSError) as error:
            raise self._crashed(f"send failed: {error}")
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self.conn.poll(0.05):
            if not self.process.is_alive() and not self.conn.poll(0.05):
                raise self._crashed("died mid-task")
            if deadline is not None and time.monotonic() >= deadline:
                raise self._crashed(f"did not reply within {timeout:g}s")
        try:
            status, payload = self.conn.recv()
        except (EOFError, OSError):
            raise self._crashed("died mid-task")
        if status == "err":
            raise payload
        return payload

    def _crashed(self, what: str) -> WorkerCrashedError:
        self.stop(timeout=0.1)
        return WorkerCrashedError(
            f"worker process {self.process.pid} ({self.process.name!r}) "
            f"{what} (exitcode={self.process.exitcode})"
        )

    def stop(self, timeout: float = 2.0) -> None:
        """Ask the child to exit; escalate to terminate/kill if it will not."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=1.0)
        if self.process.is_alive():  # pragma: no cover - SIGKILL backstop
            self.process.kill()
            self.process.join(timeout=1.0)
        self.conn.close()


class ProcessWorkerPool(WorkerPool):
    """True multi-process execution for CPU-bound, picklable workloads.

    ``size`` parent threads each own one persistent child process created
    with the ``spawn`` start method (no inherited locks or threads — the
    only start method that is deterministic about what a child sees).  A
    task is shipped to a slot's child over a private duplex pipe; the slot
    thread waits for the reply, so a child killed mid-task fails **only
    that task** with :class:`~repro.exceptions.WorkerCrashedError` and the
    slot lazily respawns a fresh child — pending tasks in other slots are
    untouched.

    Each task's callable, arguments, and result must pickle; use
    :func:`repro.utils.serialization.probe_picklable` to check ahead of
    time.  Children are daemonic: if the parent dies without ``shutdown``,
    the OS reaps them.

    Example::

        with ProcessWorkerPool(2) as pool:
            assert pool.submit(abs, -3).result() == 3

    Raises:
        ConfigurationError: if ``size`` is not positive.
    """

    kind = "process"

    def __init__(self, size: int):
        if size <= 0:
            raise ConfigurationError(f"pool size must be positive, got {size}")
        self.size = int(size)
        self._threads = ThreadPoolExecutor(
            max_workers=self.size, thread_name_prefix="repro-procslot"
        )
        self._slot = threading.local()
        self._children: List[_ChildWorker] = []
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------ #
    def submit(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Future:
        """Schedule ``fn`` on a slot's child process and return its future."""
        return self._threads.submit(self._run_task, fn, args, kwargs)

    def submit_retrying(self, policy: Any, fn: Callable[..., Any], *args: Any) -> Future:
        """Retry parent-side: each attempt may land on a fresh child.

        The in-slot loop of the other pools would die with the child; here
        the loop lives in the parent slot thread, so a
        :class:`~repro.exceptions.WorkerCrashedError` (child SIGKILLed
        mid-attempt) is retried like any other failure, on a respawned
        child, per the policy's backoff.
        """
        return self._threads.submit(
            _run_with_retries, policy, self._run_task, fn, args, {}
        )

    def shutdown(self, wait: bool = True) -> None:
        """Stop every child (politely, then by force) and release the slots.

        Child processes are always stopped synchronously — an abandoned
        child cannot outlive the pool the way an abandoned thread can —
        so ``wait=False`` only skips waiting for queued parent-side tasks.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            children = list(self._children)
            self._children = []
        self._threads.shutdown(wait=wait, cancel_futures=not wait)
        for child in children:
            child.stop()

    # ------------------------------------------------------------------ #
    def _run_task(self, fn: Callable[..., Any], args: tuple, kwargs: dict) -> Any:
        child = self._ensure_child()
        try:
            return child.run(fn, args, kwargs)
        except WorkerCrashedError:
            # The child is already stopped; the slot's next task spawns a
            # replacement.
            self._slot.child = None
            with self._lock:
                if child in self._children:
                    self._children.remove(child)
            raise

    def _ensure_child(self) -> _ChildWorker:
        child: Optional[_ChildWorker] = getattr(self._slot, "child", None)
        if child is not None and child.process.is_alive():
            return child
        with self._lock:
            if self._closed:
                raise RuntimeError("cannot run tasks on a shut-down ProcessWorkerPool")
            index = len(self._children)
        child = _ChildWorker(f"repro-pool-worker-{index}")
        self._slot.child = child
        with self._lock:
            self._children.append(child)
        return child


_POOL_KINDS = {
    "serial": SerialWorkerPool,
    "thread": ThreadWorkerPool,
    "process": ProcessWorkerPool,
}


def make_pool(workers: int = 1, kind: str = "thread") -> WorkerPool:
    """Build a pool with ``workers`` slots.

    ``workers=1`` always returns a :class:`SerialWorkerPool` (whatever
    ``kind`` says): one slot admits no concurrency, and inline execution is
    strictly more deterministic.  Symmetrically, ``kind="serial"`` is serial
    at any ``workers`` — a single inline slot is the only size it comes in.

    Example::

        assert make_pool(1).kind == "serial"
        assert make_pool(4).kind == "thread"
        assert make_pool(4, kind="serial").kind == "serial"
        assert make_pool(2, kind="process").kind == "process"

    Raises:
        ConfigurationError: if ``workers`` is not positive or ``kind`` is
            unknown.
    """
    if workers <= 0:
        raise ConfigurationError(f"workers must be positive, got {workers}")
    if kind not in _POOL_KINDS:
        raise ConfigurationError(
            f"unknown pool kind {kind!r}; available: {sorted(_POOL_KINDS)}"
        )
    if workers == 1 or kind == "serial":
        return SerialWorkerPool()
    return _POOL_KINDS[kind](workers)
