"""A supervised process pool: crashed and hung workers are survivable.

``multiprocessing.Pool`` — the engine's previous backend — treats
worker death as an unrecoverable protocol violation: a task handed to
a worker that segfaults or is OOM-killed simply never produces a
result, and ``imap`` waits for it forever.  One lost process aborts
(in practice: hangs) an entire corpus run.

:class:`SupervisedWorkerPool` replaces it with explicit supervision:

* **Assignment tracking** — every worker has its own task queue and
  holds at most one task, so the coordinator always knows exactly
  which chunk a dead worker took down with it.
* **Liveness + deadline** — the result loop polls each busy worker's
  ``Process.is_alive()`` (crash detection) and a per-task deadline
  (hang detection).  A hung worker is killed; both cases count in
  :class:`SupervisorStats`.
* **Respawn** — replacement workers are started from the same
  bootstrap the pool began with.  Under the fork start method that
  bootstrap is the estimator the coordinator already holds: every
  worker — initial or respawned — inherits it through the fork and
  builds nothing, so a respawn costs one ``fork()``.  Other start
  methods ship a :class:`SpecBootstrap` that each worker builds.
* **Bounded retry** — the lost task is re-dispatched to a healthy
  worker, at most ``max_retries`` times, then
  :class:`~repro.pipeline.errors.ChunkRetriesExhaustedError`.
* **Ordered results** — :meth:`run` yields results in task order
  regardless of completion order, so the engine's chunk-order
  snapshot merge (the bit-identical parity requirement) is untouched
  by retries, respawns, or scheduling.  Idle workers get their next
  task before a result is yielded, so no worker waits while the
  consumer handles the result it just returned.
* **Lazy sources** — :meth:`run` takes any iterable of payloads and
  draws one per loop turn, polling for results without blocking
  while the source still produces; so a source that does work to
  produce each payload (the engine's corpus traversal) overlaps with
  the workers, and results come back while it is still running.

Determinism note: retrying a chunk on a different worker cannot change
its result — every worker holds an identical estimator, and chunk
outcomes depend only on chunk content (the two-phase protocol's core
property).  Supervision therefore composes with the engine's
exact-parity guarantee instead of weakening it
(``tests/test_fault_tolerance.py``).

Handlers run with a :class:`WorkerState` (the worker's estimator plus
scratch flags) and receive ``(state, payload, task_id, attempt)`` —
the attempt number is what lets :mod:`repro.faults` crash a chunk's
first attempt while its retry succeeds.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import pickle
import queue
import signal
import time
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field

from repro import faults
from repro.pipeline.errors import ChunkRetriesExhaustedError
from repro.pipeline.spec import EstimatorSpec

#: Seconds the result loop blocks on the result queue before running a
#: supervision sweep (liveness + deadlines).
POLL_INTERVAL_S = 0.02

#: End-of-source marker for :meth:`SupervisedWorkerPool.run`.
_EXHAUSTED = object()

#: Seconds to wait for a worker to exit voluntarily at close.
CLOSE_GRACE_S = 1.0

#: Seconds an idle worker blocks on its task queue before checking
#: that its coordinator is still alive.
PARENT_CHECK_INTERVAL_S = 0.5


@dataclass
class SupervisorStats:
    """What supervision had to do during a pool's lifetime."""

    retries: int = 0
    respawns: int = 0
    crashes: int = 0
    hung: int = 0

    def as_dict(self) -> dict:
        return {
            "retries": self.retries,
            "respawns": self.respawns,
            "worker_crashes": self.crashes,
            "hung_workers": self.hung,
        }


class WorkerState:
    """Per-process state handed to task handlers."""

    __slots__ = ("estimator", "stats", "stats_token")

    def __init__(self, estimator) -> None:
        self.estimator = estimator
        # The frozen phase-2 unit-statistics table phase-3 tasks read,
        # and the serial of the merged snapshot it was built from
        # (0 = none; see the engine's fallback handler).  Reset on
        # every (re)spawn — a worker respawned mid-phase-3 rebuilds
        # the table from the snapshot riding on its next task — and
        # compared against the task's token so a *persistent* pool
        # reused across runs can never serve a stale merged table.
        self.stats = None
        self.stats_token = 0


class SpecBootstrap:
    """Each worker builds its estimator from the pickled spec.

    The bootstrap of start methods other than ``fork``: their workers
    start in a fresh interpreter and share nothing with the
    coordinator.
    """

    __slots__ = ("spec",)

    def __init__(self, spec: EstimatorSpec):
        self.spec = spec

    def build(self):
        return self.spec.build()


def _picklable_exc(exc: BaseException) -> BaseException:
    """*exc* if it survives pickling, else a faithful stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _worker_main(worker_id, bootstrap, handlers, task_q, result_q) -> None:
    """One worker process: take the estimator *bootstrap* names (the
    inherited one itself, or a :class:`SpecBootstrap` to build), serve
    tasks."""
    # A terminal Ctrl-C delivers SIGINT to the whole foreground process
    # group.  The coordinator's handler owns the shutdown (flush the
    # run journal and dead-letter report, then exit resumable); workers
    # must not die out from under it mid-chunk, so they ignore the
    # signal and let the coordinator wind them down through close().
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # A coordinator that dies hard never sends the shutdown sentinel:
    # an idle worker checks on it between waits and exits once it is
    # gone, instead of blocking (and holding its stdout) for good.  The
    # handle's liveness pipe predates the fork, so even a coordinator
    # that dies before this line runs is seen as dead; a parent pid
    # recorded here could already be the reaper's.
    coordinator = mp.parent_process()
    plan = faults.active_plan()
    if plan is not None:
        plan.fire("worker-boot", worker_id)
    if isinstance(bootstrap, SpecBootstrap):
        try:
            estimator = bootstrap.build()
        except BaseException as exc:  # noqa: BLE001 — shipped to coordinator
            result_q.put(("init_error", worker_id, _picklable_exc(exc)))
            return
    else:
        estimator = bootstrap
    # On fork start, workers inherit the coordinator heap — the
    # estimator included — copy-on-write; freezing keeps the worker's
    # GC cycles from touching (and copying) inherited pages.  A worker
    # can also inherit a paused collector (the engine pauses it while
    # building its estimate table, and spawns lazily), so switch it on
    # explicitly.
    gc.freeze()
    gc.enable()
    state = WorkerState(estimator)
    while True:
        try:
            message = task_q.get(timeout=PARENT_CHECK_INTERVAL_S)
        except queue.Empty:
            if coordinator is not None and not coordinator.is_alive():
                # Nobody will read a result still buffered for the
                # dead coordinator; exiting must not wait to flush it.
                result_q.cancel_join_thread()
                return
            continue
        if message is None:
            return
        epoch, task_id, attempt, kind, payload = message
        try:
            result = handlers[kind](state, payload, task_id, attempt)
        except Exception as exc:  # noqa: BLE001 — shipped to coordinator
            result_q.put(
                ("error", worker_id, epoch, task_id, _picklable_exc(exc))
            )
        else:
            result_q.put(("ok", worker_id, epoch, task_id, result))


@dataclass
class _Worker:
    process: mp.Process
    task_q: "mp.Queue"
    busy: tuple[int, int, float | None] | None = None  # (epoch, task, deadline)


@dataclass
class _Run:
    """Bookkeeping for one :meth:`SupervisedWorkerPool.run` call."""

    epoch: int
    kind: str
    #: Payloads drawn from the source so far; task id == index.
    payloads: list = field(default_factory=list)
    backlog: deque = field(default_factory=deque)
    attempts: dict[int, int] = field(default_factory=dict)
    results: dict[int, object] = field(default_factory=dict)
    done: set[int] = field(default_factory=set)
    next_yield: int = 0


class SupervisedWorkerPool:
    """``workers`` supervised processes executing chunk tasks.

    Parameters
    ----------
    spec:
        Estimator recipe.  Under the fork start method the coordinator
        builds it once (unless *estimator_supplier* already holds one)
        and every worker inherits that estimator; other start methods
        ship the pickled spec and each worker builds it.
    handlers:
        ``kind -> handler(state, payload, task_id, attempt)`` —
        module-level functions (they must cross the process boundary).
    workers:
        Process count (>= 1).
    deadline_s:
        Per-task wall-clock budget; a worker that exceeds it is
        presumed hung, killed and replaced.  ``None`` disables hang
        detection (crash detection stays on).
    max_retries:
        Re-dispatches allowed per task after its first attempt.
    estimator_supplier:
        Optional zero-arg callable returning an already-built
        estimator equivalent to ``spec.build()``.  Under fork, workers
        inherit the one it returns instead of one the pool builds.
    """

    def __init__(
        self,
        spec: EstimatorSpec,
        handlers: dict[str, Callable],
        workers: int,
        *,
        deadline_s: float | None = None,
        max_retries: int = 2,
        ctx: mp.context.BaseContext | None = None,
        estimator_supplier: Callable | None = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1: {workers}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0: {max_retries}")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive: {deadline_s}")
        self._spec = spec
        self._handlers = handlers
        self._n_workers = workers
        self._deadline_s = deadline_s
        self._max_retries = max_retries
        self._ctx = ctx or mp.get_context()
        if self._ctx.get_start_method() == "fork":
            # Built here, before any fork: workers use it as inherited.
            self._bootstrap = (estimator_supplier or spec.build)()
        else:
            self._bootstrap = SpecBootstrap(spec)
        self._result_q: mp.Queue = self._ctx.Queue()
        self._workers: dict[int, _Worker] = {}
        self._next_wid = 0
        self._epoch = 0
        self._closed = False
        self.stats = SupervisorStats()
        for _ in range(workers):
            self._spawn()

    # ------------------------------------------------------------------
    # lifecycle

    def _spawn(self) -> int:
        wid = self._next_wid
        self._next_wid += 1
        task_q: mp.Queue = self._ctx.Queue()
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                wid, self._bootstrap, self._handlers, task_q, self._result_q
            ),
            name=f"repro-pool-{wid}",
            daemon=True,
        )
        process.start()
        self._workers[wid] = _Worker(process=process, task_q=task_q)
        return wid

    def _discard(self, wid: int, *, kill: bool) -> None:
        worker = self._workers.pop(wid)
        if kill and worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=CLOSE_GRACE_S)
        # The queue feeder thread must not block interpreter exit on
        # unflushed buffers for a process that will never read them.
        worker.task_q.cancel_join_thread()
        worker.task_q.close()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for worker in self._workers.values():
            if worker.process.is_alive() and worker.busy is None:
                try:
                    worker.task_q.put_nowait(None)
                except (OSError, ValueError):  # pragma: no cover
                    pass
        for wid in list(self._workers):
            self._discard(wid, kill=True)
        self._result_q.cancel_join_thread()
        self._result_q.close()

    def __enter__(self) -> "SupervisedWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # execution

    def run(self, kind: str, payloads: Iterable) -> Iterator:
        """Execute *payloads* under *kind*'s handler; yield results in
        task order (task id == payload index).

        *payloads* is drawn lazily, one per loop turn.  While it still
        produces, each turn only polls for results, so whatever work
        the source does to produce a payload runs while the workers
        execute the ones already sent; once it is exhausted, the loop
        blocks on results as usual.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        self._epoch += 1
        run = _Run(epoch=self._epoch, kind=kind)
        source = iter(payloads)
        while source is not None or run.next_yield < len(run.payloads):
            if source is not None:
                payload = next(source, _EXHAUSTED)
                if payload is _EXHAUSTED:
                    source = None
                else:
                    task_id = len(run.payloads)
                    run.payloads.append(payload)
                    run.attempts[task_id] = 0
                    run.backlog.append(task_id)
            if source is None:
                self._pump_one_message(run, POLL_INTERVAL_S)
            else:
                while self._pump_one_message(run, None):
                    pass
            self._sweep(run)
            # Hand idle workers their next task *before* yielding:
            # the consumer decodes, journals and merges each result,
            # and a worker freed by that result should not wait it out.
            self._dispatch_backlog(run)
            while run.next_yield in run.results:
                yield run.results.pop(run.next_yield)
                run.next_yield += 1

    # ------------------------------------------------------------------
    # internals

    def _idle_workers(self) -> list[int]:
        return [
            wid for wid, w in self._workers.items() if w.busy is None
        ]

    def _dispatch_backlog(self, run: _Run) -> None:
        idle = self._idle_workers()
        while run.backlog and idle:
            task_id = run.backlog.popleft()
            wid = idle.pop()
            worker = self._workers[wid]
            deadline_at = (
                time.monotonic() + self._deadline_s
                if self._deadline_s is not None
                else None
            )
            worker.busy = (run.epoch, task_id, deadline_at)
            worker.task_q.put(
                (
                    run.epoch,
                    task_id,
                    run.attempts[task_id],
                    run.kind,
                    run.payloads[task_id],
                )
            )

    def _pump_one_message(self, run: _Run, timeout: float | None) -> bool:
        """Handle one result-queue message, waiting up to *timeout*
        seconds for it (``None``: only take one already there).
        Returns whether a message was handled."""
        try:
            if timeout is None:
                message = self._result_q.get_nowait()
            else:
                message = self._result_q.get(timeout=timeout)
        except queue.Empty:
            return False
        tag = message[0]
        if tag == "init_error":
            # A worker (initial or respawned) cannot build its
            # estimator from the spec — e.g. a typed
            # ArtifactMismatchError from a swapped artifact file.
            # Systematic, so fatal: re-raise the original typed
            # exception.
            raise message[2]
        _, wid, epoch, task_id, payload = message
        worker = self._workers.get(wid)
        if worker is not None and worker.busy is not None:
            busy_epoch, busy_task, _ = worker.busy
            if (busy_epoch, busy_task) == (epoch, task_id):
                worker.busy = None
        if epoch != run.epoch or task_id in run.done:
            # Stale: a previous run's straggler, or a late result for
            # a task that already completed via retry.  The worker is
            # healthy again either way; the payload is discardable
            # (retried results are bit-identical by construction).
            return True
        if tag == "error":
            # A task-level exception (not a crash) is deterministic —
            # the same input would fail on every worker — so it
            # aborts the run with the original exception, matching
            # the pre-supervision engine contract.
            raise payload
        run.done.add(task_id)
        run.results[task_id] = payload
        return True

    def _sweep(self, run: _Run) -> None:
        """Liveness + deadline pass over every worker."""
        now = time.monotonic()
        for wid in list(self._workers):
            worker = self._workers[wid]
            alive = worker.process.is_alive()
            if worker.busy is None:
                if not alive:
                    # Died between tasks; replace to keep capacity.
                    self._discard(wid, kill=False)
                    self.stats.crashes += 1
                    self.stats.respawns += 1
                    self._spawn()
                continue
            epoch, task_id, deadline_at = worker.busy
            if not alive:
                exitcode = worker.process.exitcode
                self._discard(wid, kill=False)
                self.stats.crashes += 1
                self.stats.respawns += 1
                self._spawn()
                self._retry(
                    run, epoch, task_id,
                    cause=f"worker crashed (exit code {exitcode})",
                )
            elif deadline_at is not None and now > deadline_at:
                self._discard(wid, kill=True)
                self.stats.hung += 1
                self.stats.respawns += 1
                self._spawn()
                self._retry(
                    run, epoch, task_id,
                    cause=(
                        f"chunk deadline of {self._deadline_s:.1f}s "
                        f"exceeded (worker killed)"
                    ),
                )

    def _retry(self, run: _Run, epoch: int, task_id: int, cause: str) -> None:
        if epoch != run.epoch or task_id in run.done:
            return
        run.attempts[task_id] += 1
        if run.attempts[task_id] > self._max_retries:
            raise ChunkRetriesExhaustedError(
                f"{run.kind} chunk {task_id} failed on "
                f"{run.attempts[task_id]} attempt(s), retry budget "
                f"({self._max_retries}) exhausted; last failure: {cause}",
                chunk_id=task_id,
                attempts=run.attempts[task_id],
            )
        self.stats.retries += 1
        # Retry at the front: the lost chunk is the oldest outstanding
        # work and downstream ordered consumption is waiting on it.
        run.backlog.appendleft(task_id)
