"""Persistent warm-engine simulation service.

:func:`repro.core.batch.simulate_batch` with ``jobs > 1`` spins up a
fresh process pool per call: every shard pays a worker spawn, a netlist
unpickle and an engine build before the first event executes, and every
result pickles its whole trace set back through the pool.  For a
long-running, high-traffic deployment those are pure overhead — the
circuit does not change between batches.

:class:`SimulationService` keeps the expensive state *warm*:

* each worker process receives the pickled :class:`Netlist` (with its
  cached lowering) **once**, at spawn, builds its engine **once**, and
  then serves arbitrarily many vectors — steady state pays only
  per-vector simulation cost, never re-lowering or re-spawn;
* edge traces return through a per-worker reusable
  ``multiprocessing.shared_memory`` buffer of packed transition records
  (:mod:`repro.core.shm_transport`), cutting the per-result copy to the
  small stats/final-values metadata; where shared memory is unavailable
  (or ``shm_transport=False``) results fall back to pickling with
  bit-identical content;
* a crashed worker is detected, respawned with the same warm payload,
  and its in-flight vector requeued — a stimulus that *keeps* killing
  workers fails its batch with :class:`ServiceError` after
  ``max_task_retries`` without poisoning the service.

The dispatch discipline is one-in-flight-per-worker: the parent hands a
worker its next vector only after consuming the previous result, which
is exactly what makes the single reusable shm buffer per worker safe
(the worker never overwrites records the parent has not read).

Typical use::

    with SimulationService(netlist, config=ddm_config(), workers=4,
                           engine_kind="compiled") as service:
        for stimuli in stream_of_batches:
            batch = service.run_batch(stimuli)

or through the batch front end: ``simulate_batch(netlist, stimuli,
service=service)``.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import os
import queue as _queue
import time as _time
import traceback as _traceback
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..circuit.netlist import Netlist
from ..config import SimulationConfig
from ..errors import ServiceError, SimulationError
from ..obs.log import get_logger
from ..obs.registry import MetricsRegistry, get_registry
from .batch import BatchResult, _publish_batch_metrics
from .engine import (
    ENGINE_KINDS,
    SimulationResult,
    _ensure_backends_registered,
    make_engine,
    resolve_engine_class,
    run_stimulus,
)
from . import shm_transport

try:  # pragma: no cover - availability is platform-dependent
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

#: Parent-side poll interval while waiting for results; short enough to
#: notice a dead worker promptly, long enough not to spin.
_POLL_SECONDS = 0.05

#: Distinguishes the shm buffers of multiple services in one process.
_SERVICE_SEQ = itertools.count()

_LOG = get_logger("service")

#: Chunk sizes are small integers, not latencies; bucket accordingly.
_CHUNK_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


class _ServiceMetrics:
    """Parent-side instrument handles, resolved once per service.

    Only constructed when ``config.collect_metrics`` is on and the
    process registry is enabled; every call site guards on
    ``self._metrics is not None`` so a disabled service pays a single
    attribute test per event, never a metric lookup.
    """

    __slots__ = (
        "registry", "tasks", "task_seconds", "queue_wait",
        "chunk_vectors", "restarts", "requeued", "exhausted",
        "shm_fallbacks",
    )

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self.tasks = registry.counter(
            "halotis_service_tasks_total",
            "Dispatched service chunks by outcome "
            "(ok/error/requeued/exhausted).",
            ("outcome",),
        )
        self.task_seconds = registry.histogram(
            "halotis_service_task_seconds",
            "Dispatch-to-result latency of one service chunk.",
            ("outcome",),
        )
        self.queue_wait = registry.histogram(
            "halotis_service_queue_wait_seconds",
            "Time a chunk waited in the pending queue before dispatch.",
        )
        self.chunk_vectors = registry.histogram(
            "halotis_service_chunk_vectors",
            "Vectors per dispatched service chunk.",
            buckets=_CHUNK_BUCKETS,
        )
        self.restarts = registry.counter(
            "halotis_service_worker_restarts_total",
            "Workers respawned after a crash.",
        )
        self.requeued = registry.counter(
            "halotis_service_tasks_requeued_total",
            "In-flight vectors requeued because their worker died.",
        )
        self.exhausted = registry.counter(
            "halotis_service_retries_exhausted_total",
            "Chunks that failed their job after exhausting the "
            "crash-retry budget.",
        )
        self.shm_fallbacks = registry.counter(
            "halotis_service_shm_fallbacks_total",
            "Services that fell back from shared-memory to pickle "
            "transport because the platform lacks shm.",
        )


def _shm_available() -> bool:
    """True when ``multiprocessing.shared_memory`` is usable here."""
    return _shared_memory is not None


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

class _WorkerShmBuffer:
    """One worker's reusable shared-memory result buffer.

    Grown (to the next power of two) when a payload outgrows it; each
    growth bumps the generation suffix so the parent can tell a fresh
    segment from a cached attachment.  Safe to reuse between results
    because the parent only dispatches a worker's next task after
    reading its previous one.
    """

    def __init__(self, base_name: str):
        self._base = base_name
        self._shm = None
        self._generation = 0

    def write(self, payload: bytes) -> str:
        """Copy ``payload`` into the buffer, growing it if needed;
        returns the segment name holding the data."""
        needed = max(len(payload), 1)
        if self._shm is None or self._shm.size < needed:
            self.destroy()
            self._generation += 1
            size = 1 << max(16, needed.bit_length())
            self._shm = _shared_memory.SharedMemory(
                create=True,
                name="%sg%d" % (self._base, self._generation),
                size=size,
            )
        self._shm.buf[: len(payload)] = payload
        return self._shm.name

    def destroy(self) -> None:
        if self._shm is not None:
            self._shm.close()
            with contextlib.suppress(FileNotFoundError):
                self._shm.unlink()  # pragma: no cover - parent may race us
            self._shm = None


def _worker_main(
    worker_id: int,
    netlist: Netlist,
    config: SimulationConfig,
    engine_kind: str,
    transport: str,
    shm_base: str,
    task_queue,
    result_queue,
) -> None:
    """Worker-process loop: build the engine once, serve tasks forever.

    Tasks are ``(generation, job_id, indices, stimuli, settle, seed)``
    tuples — one *chunk* of a batch, ``indices`` and ``stimuli`` running
    in parallel (length 1 unless the submitter chunked); ``None`` is the
    shutdown pill.  Each chunk answers with exactly one message (``snap``
    is the worker registry's ``snapshot(reset=True)`` metrics delta, or
    None when metrics collection is off):

    * ``("shm", worker_id, generation, job_id, indices, segment, metas,
      snap)``
    * ``("pickle", worker_id, generation, job_id, indices, results,
      snap)``
    * ``("error", worker_id, generation, job_id, index, type_name, text,
      snap)``

    One message per chunk keeps the single shm buffer safe to reuse (the
    parent reads it before this worker gets its next task) and is the
    point of chunking: the queue round-trip is paid once per chunk, not
    once per vector.  On an error the rest of the chunk is abandoned —
    the parent fails the whole job on the first error anyway.

    The generation stamp lets the parent discard messages a worker
    emitted before it was declared dead and its task requeued.
    """
    engine = make_engine(netlist, config=config, engine_kind=engine_kind)
    buffer = _WorkerShmBuffer(shm_base) if transport == "shm" else None
    # Engine metrics published by run_stimulus land in this worker's own
    # process-local registry; each result message carries the delta since
    # the previous one (snapshot(reset=True)), which the parent folds
    # into its registry — additive merge, so message order is irrelevant.
    worker_registry = get_registry() if config.collect_metrics else None
    if worker_registry is not None and not worker_registry.enabled:
        worker_registry = None

    def _snap():
        if worker_registry is None:
            return None
        return worker_registry.snapshot(reset=True)

    try:
        while True:
            task = task_queue.get()
            if task is None:
                break
            generation, job_id, indices, stimuli, settle, seed = task
            results = []
            failed = False
            for index, stimulus in zip(indices, stimuli):
                try:
                    results.append(
                        run_stimulus(engine, stimulus, settle=settle, seed=seed)
                    )
                except Exception as error:  # noqa: BLE001 - forwarded to parent
                    result_queue.put((
                        "error", worker_id, generation, job_id, index,
                        type(error).__name__,
                        "%s\n%s" % (error, _traceback.format_exc()),
                        _snap(),
                    ))
                    failed = True
                    break
            if failed:
                continue
            for result in results:
                result.simulator = None
                # Strip the per-result metrics annotation: the registry
                # snapshot below carries the aggregates, and the two
                # transports must return bit-identical results (shm
                # packing would drop the dict; pickle would not).
                result.metrics = None
            if buffer is not None:
                payloads = []
                metas = []
                for result in results:
                    payload, meta = shm_transport.pack_result(result)
                    payloads.append(payload)
                    metas.append(meta)
                segment = buffer.write(b"".join(payloads))
                result_queue.put((
                    "shm", worker_id, generation, job_id, indices,
                    segment, metas, _snap(),
                ))
            else:
                result_queue.put((
                    "pickle", worker_id, generation, job_id, indices,
                    results, _snap(),
                ))
    finally:
        if buffer is not None:
            buffer.destroy()


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------

class _Task:
    """One dispatch unit — a chunk of consecutive vectors of one batch —
    with its crash-retry accounting.  ``indices`` and ``stimuli`` run in
    parallel; both have length 1 unless the batch was chunked."""

    __slots__ = ("job_id", "indices", "stimuli", "settle", "seed",
                 "attempts", "submitted_at", "dispatched_at")

    def __init__(self, job_id, indices, stimuli, settle, seed):
        self.job_id = job_id
        self.indices = indices
        self.stimuli = stimuli
        self.settle = settle
        self.seed = seed
        self.attempts = 0
        #: perf_counter stamps for the queue-wait / task-latency
        #: histograms; None while metrics collection is off.
        self.submitted_at: Optional[float] = None
        self.dispatched_at: Optional[float] = None


class _Worker:
    """Parent-side bookkeeping for one worker process."""

    __slots__ = ("process", "task_queue", "generation", "current",
                 "last_segment")

    def __init__(self, process, task_queue, generation):
        self.process = process
        self.task_queue = task_queue
        self.generation = generation
        #: the task currently in flight on this worker (None = idle).
        self.current: Optional[_Task] = None
        #: last shm segment name this worker reported (for crash cleanup).
        self.last_segment: Optional[str] = None


class BatchJob:
    """Handle for one :meth:`SimulationService.submit_batch` call.

    Results arrive as the pool produces them; :meth:`as_completed`
    yields them in completion order (pumping the service while it
    waits), :meth:`wait` blocks for the full input-order list.
    """

    def __init__(self, service: SimulationService, job_id: int, count: int):
        self._service = service
        self._job_id = job_id
        self._count = count
        self._results: Dict[int, SimulationResult] = {}
        #: indices in completion order, consumed by :meth:`as_completed`.
        self._completion_order: List[int] = []
        self._error: Optional[ServiceError] = None

    def __len__(self) -> int:
        return self._count

    @property
    def done(self) -> bool:
        return self._error is not None or len(self._results) == self._count

    def _store(self, index: int, result: SimulationResult) -> None:
        if index not in self._results:
            self._results[index] = result
            self._completion_order.append(index)

    def _fail(self, error: ServiceError) -> None:
        if self._error is None:
            self._error = error

    def _raise_if_failed(self) -> None:
        if self._error is not None:
            raise self._error

    def as_completed(self) -> Iterator[Tuple[int, SimulationResult]]:
        """Yield ``(index, result)`` pairs as workers finish them."""
        cursor = 0
        while True:
            while cursor < len(self._completion_order):
                index = self._completion_order[cursor]
                cursor += 1
                yield index, self._results[index]
            self._raise_if_failed()
            if len(self._results) == self._count:
                return
            self._service._pump()

    def wait(self) -> List[SimulationResult]:
        """Block until every vector finished; results in input order."""
        while not self.done:
            self._service._pump()
        self._raise_if_failed()
        return [self._results[index] for index in range(self._count)]


class SimulationService:
    """A persistent pool of warm simulation engines.

    Args:
        netlist: the circuit; lowered once up front (for lowering
            backends) so every worker inherits the cached lowering.
        config: engine knobs for every worker (default
            :class:`SimulationConfig`); also supplies ``workers`` /
            ``shm_transport`` defaults via its ``service_workers`` /
            ``shm_transport`` fields.
        workers: worker-process count (>= 1).
        engine_kind: backend (defaults to ``config.engine_kind``).
        shm_transport: True to move traces through shared memory, False
            to pickle them, None (default) to use shared memory when the
            platform provides it.  Both transports are bit-identical.
        max_task_retries: how many times one vector may crash a worker
            before its batch fails with :class:`ServiceError`.

    The service is single-threaded on the parent side: results are
    collected whenever a :class:`BatchJob` is pumped (``as_completed`` /
    ``wait``).  Use as a context manager, or call :meth:`close`.
    """

    def __init__(
        self,
        netlist: Netlist,
        config: Optional[SimulationConfig] = None,
        workers: Optional[int] = None,
        engine_kind: Optional[str] = None,
        shm_transport: Optional[bool] = None,
        max_task_retries: int = 2,
    ):
        import multiprocessing

        # Set the teardown surface first: close() (and therefore
        # __del__/__exit__) must be safe even when construction aborts
        # before the pool exists — a never-started service closes as a
        # no-op instead of raising AttributeError.
        self._closed = False
        self._workers: List[_Worker] = []
        self._result_queue = None
        self._attachments: Dict[str, object] = {}

        self.netlist = netlist
        self.config = config if config is not None else SimulationConfig()
        self.config.validate()
        self.engine_kind = (
            engine_kind if engine_kind is not None else self.config.engine_kind
        )
        if workers is None:
            workers = self.config.service_workers
        if workers < 1:
            raise ServiceError("workers must be >= 1, got %d" % workers)
        self.workers = workers
        if shm_transport is None:
            shm_transport = self.config.shm_transport
        if shm_transport is None:
            shm_transport = _shm_available()
        self.transport = "shm" if (shm_transport and _shm_available()) else "pickle"
        if max_task_retries < 0:
            raise ServiceError("max_task_retries must be >= 0")
        self.max_task_retries = max_task_retries

        #: workers respawned after a crash (monitoring surface).
        self.worker_restarts = 0
        #: in-flight vectors requeued because their worker died.
        self.tasks_requeued = 0

        registry = get_registry()
        self._metrics: Optional[_ServiceMetrics] = (
            _ServiceMetrics(registry)
            if self.config.collect_metrics and registry.enabled
            else None
        )
        if shm_transport and self.transport == "pickle":
            # Requested shared memory, got pickle: not an error (results
            # are bit-identical) but an operational surprise worth a
            # counter and a log line — the per-result copy cost differs.
            if self._metrics is not None:
                self._metrics.shm_fallbacks.inc()
            _LOG.warning(
                "shared-memory transport unavailable; falling back to "
                "pickle",
                extra={"engine_kind": self.engine_kind},
            )

        # Fail before spawning anything — an unknown kind, or a backend
        # whose optional dependency is missing (the vector engine
        # without numpy), must raise here with the canonical message,
        # not as an opaque crash loop inside freshly spawned workers.
        engine_cls = resolve_engine_class(self.engine_kind)
        engine_cls.ensure_available()
        self.lowering_seconds = 0.0
        if engine_cls.lowers_netlist:
            start = _time.perf_counter()
            netlist.compile()
            self.lowering_seconds = _time.perf_counter() - start

        self._ctx = multiprocessing.get_context()
        if self.transport == "shm":
            # Start the resource tracker in the parent so every worker
            # (forked or spawned) shares it: segment ownership can then
            # move between processes without leak warnings at shutdown.
            with contextlib.suppress(ImportError, AttributeError):
                # pragma: no cover - tracker is posix-only
                from multiprocessing import resource_tracker
                resource_tracker.ensure_running()
        self._shm_base = "hal%dx%d" % (os.getpid(), next(_SERVICE_SEQ))
        self._result_queue = self._ctx.Queue()
        self._pending: collections.deque[_Task] = collections.deque()
        self._jobs: Dict[int, BatchJob] = {}
        self._job_seq = itertools.count()
        # Append as we spawn: if worker k fails to start, workers 0..k-1
        # are live children that close() must be able to reap.
        try:
            for worker_id in range(workers):
                self._workers.append(self._spawn_worker(worker_id))
        except BaseException:
            self.close(timeout=1.0)
            raise

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> SimulationService:
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing is interpreter's
        with contextlib.suppress(Exception):
            self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, timeout: float = 5.0) -> None:
        """Shut the pool down; idempotent and bounded in time.

        Live workers get a poison pill (and unlink their shm buffers on
        the way out).  Stragglers escalate on a hard schedule — join
        until ``timeout`` expires, then ``terminate()`` (SIGTERM), then
        ``kill()`` (SIGKILL) — so ``close()`` returns within a small
        multiple of ``timeout`` even when a worker is wedged in native
        code, already dead, or was never fully started (a construction
        failure leaves an empty pool, which closes as a no-op).
        """
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            with contextlib.suppress(OSError, ValueError):
                worker.task_queue.put(None)  # pragma: no cover - queue gone
        deadline = _time.monotonic() + max(0.0, timeout)
        #: Per-escalation grace; a terminated/killed process reaps in
        #: well under this unless the host is in serious trouble.
        grace = min(1.0, max(0.1, timeout / 4.0)) if timeout > 0 else 0.1
        for worker_id, worker in enumerate(self._workers):
            worker.process.join(max(0.0, deadline - _time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(grace)
            if worker.process.is_alive():  # pragma: no cover - SIGTERM masked
                worker.process.kill()
                worker.process.join(grace)
            if worker.process.exitcode != 0:
                # A worker that did not exit its loop cleanly never ran
                # its shm destructor; unlink from the parent side.
                self._unlink_worker_segments(worker_id, worker)
            worker.task_queue.cancel_join_thread()
            worker.task_queue.close()
        for attachment in self._attachments.values():
            attachment.close()
        self._attachments.clear()
        if self._result_queue is not None:
            self._result_queue.cancel_join_thread()
            self._result_queue.close()

    def _require_open(self) -> None:
        if self._closed:
            raise ServiceError("service is closed")

    # -- submission ----------------------------------------------------

    def submit_batch(
        self,
        stimuli: Sequence,
        settle: float = 0.0,
        seed: Optional[Mapping[str, int]] = None,
        chunk: int = 1,
    ) -> BatchJob:
        """Enqueue N stimuli; returns a :class:`BatchJob` handle.

        Vectors start executing immediately on idle workers; results
        are collected whenever the job (or any other job of this
        service) is pumped.

        ``chunk`` packs that many consecutive vectors into one worker
        round-trip.  The default (1) gives finest-grained scheduling
        and crash retry; large batches of *short* vectors (fault
        campaigns, pattern sweeps) amortise the per-task queue overhead
        by chunking — a crash then retries the whole chunk.
        """
        self._require_open()
        stimuli = list(stimuli)
        if not stimuli:
            raise ServiceError("submit_batch() needs at least one stimulus")
        if chunk < 1:
            raise ServiceError("chunk must be >= 1, got %d" % chunk)
        job_id = next(self._job_seq)
        job = BatchJob(self, job_id, len(stimuli))
        self._jobs[job_id] = job
        seed = dict(seed) if seed else None
        submitted_at = (
            _time.perf_counter() if self._metrics is not None else None
        )
        for start in range(0, len(stimuli), chunk):
            indices = list(range(start, min(start + chunk, len(stimuli))))
            task = _Task(job_id, indices, stimuli[start:start + chunk],
                         settle, seed)
            task.submitted_at = submitted_at
            self._pending.append(task)
        self._dispatch()
        return job

    def run_batch(
        self,
        stimuli: Sequence,
        settle: float = 0.0,
        seed: Optional[Mapping[str, int]] = None,
    ) -> BatchResult:
        """Submit, wait, and wrap the results as a :class:`BatchResult`.

        ``lowering_seconds`` reports the (one-off) lowering paid at
        service construction — 0.0 from the second batch on is the whole
        point of keeping the pool warm.
        """
        wall_start = _time.perf_counter()
        lowering = self.lowering_seconds
        self.lowering_seconds = 0.0
        results = self.submit_batch(stimuli, settle=settle, seed=seed).wait()
        batch = BatchResult(
            results=results,
            engine_kind=self.engine_kind,
            jobs=self.workers,
            lowering_seconds=lowering,
            wall_seconds=_time.perf_counter() - wall_start,
        )
        if self._metrics is not None:
            _publish_batch_metrics(batch, mode="service")
        return batch

    # -- the pump ------------------------------------------------------

    def _pump(self) -> None:
        """One scheduling round: dispatch, then wait briefly for a result.

        Called from :class:`BatchJob` waits; safe to call repeatedly.
        """
        self._require_open()
        self._dispatch()
        try:
            message = self._result_queue.get(timeout=_POLL_SECONDS)
        except _queue.Empty:
            self._reap_dead_workers()
            return
        self._handle_message(message)

    def _dispatch(self) -> None:
        """Hand pending tasks to idle live workers (one in flight each)."""
        if not self._pending:
            return
        for worker_id, worker in enumerate(self._workers):
            if not self._pending:
                break
            if worker.current is not None:
                continue
            if not worker.process.is_alive():
                self._restart_worker(worker_id)
                worker = self._workers[worker_id]
            task = self._next_live_task()
            if task is None:
                break
            worker.current = task
            if self._metrics is not None:
                now = _time.perf_counter()
                task.dispatched_at = now
                if task.submitted_at is not None:
                    self._metrics.queue_wait.observe(now - task.submitted_at)
                self._metrics.chunk_vectors.observe(float(len(task.indices)))
            worker.task_queue.put((
                worker.generation, task.job_id, task.indices,
                task.stimuli, task.settle, task.seed,
            ))

    def _next_live_task(self) -> Optional[_Task]:
        """Pop the next pending task whose job has not already failed."""
        while self._pending:
            task = self._pending.popleft()
            job = self._jobs.get(task.job_id)
            if job is not None and job._error is None:
                return task
        return None

    def _handle_message(self, message) -> None:
        kind, worker_id, generation = message[0], message[1], message[2]
        worker = self._workers[worker_id]
        # Every message carries the worker's metrics delta as its last
        # element; fold it in even for ghosts — the simulation work the
        # delta describes really ran, whichever copy of the task wins.
        self._merge_worker_snapshot(message[-1])
        if generation != worker.generation:
            # A ghost: the worker finished a task after we declared it
            # dead and requeued the work.  The requeued copy is (or will
            # be) the authoritative result — but the segment the ghost
            # names belonged to the dead worker (spawn names embed the
            # generation, so it cannot be the replacement's) and nobody
            # else will ever unlink it.
            if kind == "shm":
                self._unlink_segment(message[5])
            return
        job_id = message[3]
        job = self._jobs.get(job_id)
        if kind == "error":
            index, type_name, detail = message[4], message[5], message[6]
            task = worker.current
            if task is not None and task.job_id == job_id and index in task.indices:
                worker.current = None
                self._observe_task(task, "error")
            _LOG.warning(
                "vector failed in worker",
                extra={
                    "worker_id": worker_id, "job_id": job_id,
                    "index": index, "error_type": type_name,
                },
            )
            if job is not None:
                job._fail(ServiceError(
                    "vector %d failed in worker %d: %s: %s"
                    % (index, worker_id, type_name, detail)
                ))
                self._jobs.pop(job_id, None)
            return
        indices = message[4]
        task = worker.current
        if task is not None and (task.job_id, task.indices) == (job_id, indices):
            worker.current = None
            self._observe_task(task, "ok")
        if kind == "shm":
            segment, metas = message[5], message[6]
            if worker.last_segment not in (None, segment):
                # The worker grew (and unlinked) its buffer; drop our
                # mapping of the abandoned segment.
                stale = self._attachments.pop(worker.last_segment, None)
                if stale is not None:
                    stale.close()
            worker.last_segment = segment
            results = self._read_shm_results(segment, metas)
        else:
            results = message[5]
        if job is not None and job._error is None:
            for index, result in zip(indices, results):
                job._store(index, result)
        if job is not None and job.done:
            # The handle keeps its own results; the registry must not
            # grow without bound over a long-running service.
            self._jobs.pop(job_id, None)

    def _read_shm_results(self, segment: str, metas) -> List[SimulationResult]:
        shm = self._attachments.get(segment)
        if shm is None:
            # Attaching re-registers the name with the resource tracker;
            # because the tracker was started before the workers forked
            # it is shared, its cache is a set, and the duplicate is a
            # no-op — whoever unlinks (worker on graceful shutdown, or
            # _unlink_segment after a crash) clears the single entry.
            shm = _shared_memory.SharedMemory(name=segment)
            self._attachments[segment] = shm
        # A chunk's payloads sit back to back in the segment, each
        # meta carrying its own byte length.
        results = []
        offset = 0
        for meta in metas:
            nbytes: int = meta["nbytes"]
            results.append(
                shm_transport.unpack_result(
                    meta, shm.buf[offset:offset + nbytes]
                )
            )
            offset += nbytes
        return results

    # -- metrics plumbing ----------------------------------------------

    def _merge_worker_snapshot(self, snap) -> None:
        """Fold one worker's metrics delta into the parent registry."""
        if snap is None or self._metrics is None:
            return
        try:
            self._metrics.registry.merge_snapshot(snap)
        except (ValueError, KeyError, TypeError):
            # A malformed or incompatible delta must never fail the
            # simulation result it rode in on.
            _LOG.warning("dropping unmergeable worker metrics snapshot")

    def _observe_task(self, task: _Task, outcome: str) -> None:
        """Account one finished dispatch (latency + outcome counter)."""
        if self._metrics is None:
            return
        self._metrics.tasks.inc(outcome=outcome)
        if task.dispatched_at is not None:
            self._metrics.task_seconds.observe(
                _time.perf_counter() - task.dispatched_at, outcome=outcome
            )

    # -- failure handling ----------------------------------------------

    def _reap_dead_workers(self) -> None:
        """Respawn dead workers, requeueing their in-flight vectors."""
        for worker_id, worker in enumerate(self._workers):
            if worker.process.is_alive():
                continue
            self._restart_worker(worker_id)

    def _restart_worker(self, worker_id: int) -> None:
        dead = self._workers[worker_id]
        dead.process.join(timeout=0.1)
        dead.task_queue.cancel_join_thread()
        dead.task_queue.close()
        self._unlink_worker_segments(worker_id, dead)
        self.worker_restarts += 1
        if self._metrics is not None:
            self._metrics.restarts.inc()
        _LOG.warning(
            "worker died; respawning",
            extra={
                "worker_id": worker_id,
                "exitcode": dead.process.exitcode,
                "generation": dead.generation,
            },
        )
        replacement = self._spawn_worker(
            worker_id, generation=dead.generation + 1
        )
        self._workers[worker_id] = replacement
        task = dead.current
        if task is None:
            return
        task.attempts += 1
        job = self._jobs.get(task.job_id)
        if task.attempts > self.max_task_retries:
            if self._metrics is not None:
                self._metrics.exhausted.inc()
            self._observe_task(task, "exhausted")
            _LOG.error(
                "crash-retry budget exhausted; failing job",
                extra={
                    "worker_id": worker_id, "job_id": task.job_id,
                    "index": task.indices[0], "attempts": task.attempts,
                    "max_task_retries": self.max_task_retries,
                },
            )
            if job is not None:
                job._fail(ServiceError(
                    "vector %d crashed its worker %d times "
                    "(max_task_retries=%d)"
                    % (task.indices[0], task.attempts, self.max_task_retries)
                ))
                self._jobs.pop(task.job_id, None)
            return
        self.tasks_requeued += len(task.indices)
        if self._metrics is not None:
            self._metrics.requeued.inc(len(task.indices))
        self._observe_task(task, "requeued")
        _LOG.warning(
            "requeueing in-flight chunk after worker crash",
            extra={
                "worker_id": worker_id, "job_id": task.job_id,
                "indices": task.indices, "attempts": task.attempts,
            },
        )
        self._pending.appendleft(task)

    def _unlink_worker_segments(self, worker_id: int, dead: _Worker) -> None:
        """Clean up a dead worker's shm buffer, wherever growth left it.

        A worker holds at most one live segment (growth unlinks the old
        one before creating the next generation), but it may have grown
        past the last name the parent saw — crash before the result
        message flushed, or the message was ghost-dropped.  Probing a
        window of generation suffixes past the last known one costs a
        handful of ENOENT lookups and closes that leak.
        """
        base = "%sw%dr%d" % (self._shm_base, worker_id, dead.generation)
        known = 0
        if dead.last_segment is not None:
            self._unlink_segment(dead.last_segment)
            prefix = base + "g"
            if dead.last_segment.startswith(prefix):
                try:
                    known = int(dead.last_segment[len(prefix):])
                except ValueError:  # pragma: no cover - names are ours
                    known = 0
        for generation in range(known + 1, known + 17):
            self._unlink_segment("%sg%d" % (base, generation))

    def _unlink_segment(self, segment: Optional[str]) -> None:
        """Best-effort cleanup of a dead worker's shm segment."""
        if segment is None or _shared_memory is None:
            return
        attachment = self._attachments.pop(segment, None)
        if attachment is not None:
            attachment.close()
        try:
            victim = _shared_memory.SharedMemory(name=segment)
        except FileNotFoundError:
            return
        victim.close()
        with contextlib.suppress(FileNotFoundError):
            victim.unlink()  # pragma: no cover - tracker may race us

    # -- worker spawning -----------------------------------------------

    def _spawn_worker(self, worker_id: int, generation: int = 0) -> _Worker:
        task_queue = self._ctx.Queue()
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                worker_id,
                self.netlist,
                self.config,
                self.engine_kind,
                self.transport,
                "%sw%dr%d" % (self._shm_base, worker_id, generation),
                task_queue,
                self._result_queue,
            ),
            daemon=True,
            name="halotis-worker-%d" % worker_id,
        )
        process.start()
        return _Worker(process, task_queue, generation)
