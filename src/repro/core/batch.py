"""Batched multi-vector simulation: lower once, simulate many.

The single-shot front end (:func:`repro.core.engine.simulate`) pays per
call for engine construction and — on the compiled backend — for the
struct-of-arrays lowering (amortised by the cache on the netlist, but
still per-object bookkeeping).  Throughput workloads ask a different
question: *one* circuit, *N* stimulus sequences.  This module answers it
the way LightningSim/GSIM-style simulators do — compile the circuit
once, then stream every vector through reused simulator state:

* :func:`simulate_batch` builds one engine (one
  :class:`~repro.core.compiled.CompiledNetlist` lowering for the
  compiled backend) and replays each :class:`VectorSequence` through it
  via :func:`repro.core.engine.run_stimulus`.  Re-initialisation resets
  all dynamic state, so vector ``i`` of a batch is bit-identical to a
  standalone ``simulate()`` of the same stimulus (parity-tested in
  ``tests/core/test_batch.py``).
* With ``jobs > 1`` the batch is sharded across worker processes: the
  netlist — including its cached lowering — is pickled once per shard,
  and each worker runs its shard as an in-process batch.  Results come
  back in input order with ``result.simulator`` set to None (engines do
  not cross process boundaries).
* With ``service=...`` the batch runs on a live
  :class:`repro.core.service.SimulationService` — a persistent pool
  whose workers built their engines once and stay warm across calls,
  returning traces through shared memory.  That is the steady-state
  path for serving many batches of the same circuit.

:class:`BatchResult` wraps the per-vector
:class:`~repro.core.engine.SimulationResult` list with aggregate
statistics and wall-clock accounting.
"""

from __future__ import annotations

import dataclasses
import time as _time
from typing import Iterator, List, Mapping, Optional, Sequence, Tuple

from ..circuit.netlist import Netlist
from ..config import SimulationConfig
from ..errors import SimulationError
from .engine import (
    ENGINE_KINDS,
    SimulationResult,
    _ensure_backends_registered,
    make_engine,
    run_stimulus,
)
from .stats import SimulationStatistics


@dataclasses.dataclass
class BatchResult:
    """Results of one :func:`simulate_batch` call.

    Attributes:
        results: one :class:`SimulationResult` per input stimulus, in
            input order.
        engine_kind: backend every vector ran on.
        jobs: worker processes used (1 = in-process).
        lowering_seconds: wall-clock spent lowering the netlist up
            front (0.0 when the lowering was already cached or the
            backend does not lower).
        wall_seconds: end-to-end wall-clock of the whole batch,
            including sharding overhead.
    """

    results: List[SimulationResult]
    engine_kind: str
    jobs: int
    lowering_seconds: float
    wall_seconds: float
    #: batch-level observability summary (vector count, throughput,
    #: wall/lowering split), filled when ``config.collect_metrics`` and
    #: the process metrics registry are enabled; None otherwise.
    #: Deliberately cheap: no per-vector aggregation happens here (lazy
    #: lane statistics stay lazy).
    metrics: Optional[dict] = None

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[SimulationResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> SimulationResult:
        return self.results[index]

    def aggregate_stats(self) -> SimulationStatistics:
        """Counters summed over every vector of the batch.

        Aggregation iterates the dataclass fields, so counters added to
        :class:`SimulationStatistics` later are summed automatically
        (numeric fields add, dict fields merge per key).
        ``runtime_seconds`` is the summed in-kernel time; compare with
        ``wall_seconds`` for the batching/sharding overhead.
        """
        total = SimulationStatistics()
        fields = dataclasses.fields(SimulationStatistics)
        for result in self.results:
            for field in fields:
                value = getattr(result.stats, field.name)
                if isinstance(value, dict):
                    merged = getattr(total, field.name)
                    for key, count in value.items():
                        merged[key] = merged.get(key, 0) + count
                else:
                    setattr(
                        total, field.name, getattr(total, field.name) + value
                    )
        return total

    def per_vector_seconds(self) -> List[float]:
        """In-kernel wall-clock of each vector's run."""
        return [result.stats.runtime_seconds for result in self.results]

    def activity_summary(self):
        """Whole-batch switching activity (total + per-net toggles).

        Returns an :class:`repro.analysis.activity.ActivitySummary`
        built from the per-vector toggle counters — the one accessor
        shared by the Table 1 activity benchmarks and the bit-parallel
        popcount path, so no caller re-walks traces to count edges.
        """
        from ..analysis.activity import activity_summary

        return activity_summary(result.stats for result in self.results)

    def format(self) -> str:
        """Multi-line human-readable batch summary."""
        count = len(self.results)
        lines = [
            "vectors:                %d" % count,
            "engine:                 %s" % self.engine_kind,
            "jobs:                   %d" % self.jobs,
            "lowering:               %.4f s" % self.lowering_seconds,
            "batch wall-clock:       %.4f s" % self.wall_seconds,
        ]
        if count:
            lines.append(
                "amortised per vector:   %.6f s" % (self.wall_seconds / count)
            )
        lines.append("--- aggregate over all vectors ---")
        lines.append(self.aggregate_stats().format())
        return "\n".join(lines)


def _shard_bounds(total: int, chunk_size: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, end)`` shards of ``chunk_size`` vectors."""
    return [
        (start, min(start + chunk_size, total))
        for start in range(0, total, chunk_size)
    ]


def _simulate_shard(payload) -> List[SimulationResult]:
    """Worker-process entry point: one shard as an in-process batch.

    Module-level so it pickles; the netlist inside ``payload`` carries
    its cached lowering across the process boundary, so workers never
    re-lower.  Engines are stripped from the returned results — they
    are process-local and expensive to pickle.
    """
    netlist, stimuli, config, settle, seed, engine_kind = payload
    batch = simulate_batch(
        netlist,
        stimuli,
        config=config,
        settle=settle,
        seed=seed,
        engine_kind=engine_kind,
        jobs=1,
    )
    for result in batch.results:
        result.simulator = None
    return batch.results


def simulate_batch(
    netlist: Netlist,
    stimuli: Sequence,
    config: Optional[SimulationConfig] = None,
    settle: float = 0.0,
    seed: Optional[Mapping[str, int]] = None,
    engine_kind: Optional[str] = None,
    jobs: Optional[int] = None,
    chunk_size: Optional[int] = None,
    service=None,
) -> BatchResult:
    """Run N stimulus sequences through one circuit, lowering it once.

    Every entry of ``stimuli`` follows the
    :class:`repro.stimuli.vectors.VectorSequence` protocol; ``config``,
    ``settle``, ``seed`` and ``engine_kind`` mean exactly what they
    mean for :func:`repro.core.engine.simulate` and apply to every
    vector.  Result ``i`` is bit-identical to
    ``simulate(netlist, stimuli[i], ...)``.

    ``jobs`` (default ``config.batch_jobs``) > 1 shards the batch
    across worker processes, ``chunk_size`` (default
    ``config.batch_chunk_size``, else an even split) vectors per shard;
    the netlist and its cached lowering are pickled once per shard.

    Backends with ``lockstep_batches`` take the lockstep fast path:
    ``engine_kind="vector"`` advances the whole batch through one numpy
    N-lane kernel
    (:meth:`repro.core.vector.VectorSimulator.run_lockstep_batch`),
    returning the same bit-identical per-vector results with the
    per-event Python cost amortised across lanes, and
    ``engine_kind="bitparallel"`` packs one vector per *bit* of a lane
    word (:meth:`repro.core.bitparallel.BitParallelSimulator.run_lockstep_batch`)
    — per-lane logic values stay bit-identical while event timing
    follows that backend's CDM-grade word contract
    (docs/architecture.md).  With ``jobs > 1`` each shard runs its own
    lockstep kernel.

    ``service`` routes the batch through a live
    :class:`repro.core.service.SimulationService` instead: the warm
    pool's engines do the work, nothing is re-lowered or re-spawned,
    and ``jobs``/``chunk_size`` are ignored (the service's own worker
    count applies).  The service must have been built for the same
    netlist, and any ``config``/``engine_kind`` given here must match
    the service's — its workers were constructed with those knobs and
    cannot change them per call.
    """
    stimuli = list(stimuli)
    if not stimuli:
        raise SimulationError("simulate_batch() needs at least one stimulus")
    if service is not None:
        return _simulate_via_service(
            service, netlist, stimuli, config, settle, seed, engine_kind,
        )
    if config is None:
        config = SimulationConfig()
    config.validate()
    if engine_kind is None:
        engine_kind = config.engine_kind
    if jobs is None:
        jobs = config.batch_jobs
    if jobs < 1:
        raise SimulationError("jobs must be >= 1, got %d" % jobs)
    if chunk_size is None:
        chunk_size = config.batch_chunk_size
    if chunk_size is not None and chunk_size < 1:
        raise SimulationError("chunk_size must be >= 1, got %d" % chunk_size)

    wall_start = _time.perf_counter()

    # Pay the lowering once, up front — the in-process path hands it to
    # one shared engine, the sharded path pickles it to every worker.
    # Whether a backend lowers at all comes from the registry, not from
    # a hard-coded backend name.
    lowering_seconds = 0.0
    _ensure_backends_registered()
    engine_cls = ENGINE_KINDS.get(engine_kind)
    # An unknown engine_kind falls through to make_engine, which raises
    # the canonical "unknown engine kind" error.
    if engine_cls is not None and engine_cls.lowers_netlist:
        lowering_start = _time.perf_counter()
        netlist.compile()
        lowering_seconds = _time.perf_counter() - lowering_start

    jobs = min(jobs, len(stimuli))
    # Faulted stimuli (repro.faults) patch the shared lowering per
    # vector; a lockstep kernel runs all lanes over ONE lowering, so any
    # fault in the batch forces the per-vector run_stimulus loop (whose
    # fault hook injects/restores around each vector).
    has_faults = any(
        getattr(stimulus, "fault", None) is not None for stimulus in stimuli
    )
    if jobs <= 1:
        if engine_cls is not None and engine_cls.lockstep_batches and not has_faults:
            # Lockstep fast path (the "vector" and "bitparallel"
            # backends): all N vectors advance through one kernel
            # instead of replaying the event loop per vector.  Sharded
            # calls compose — each shard worker lands here with jobs=1.
            results = engine_cls.run_lockstep_batch(
                netlist, stimuli, config=config, settle=settle, seed=seed,
            )
            if config is not None and config.check_sta_bounds:
                # Lockstep kernels bypass run_stimulus (its oracle hook
                # covers every other path), so verify here.  Word
                # engines merge lanes into shared events, so each
                # lane's transitions are bounded by the *batch-wide*
                # launch/slew hull, not its own stimulus' — pass the
                # union, plus the class's declared per-arc hold slack.
                _verify_lockstep_results(
                    netlist, stimuli, results, config,
                    engine_cls.sta_batch_time_slack(netlist, len(stimuli)),
                )
        else:
            simulator = make_engine(
                netlist, config=config, engine_kind=engine_kind
            )
            results = [
                run_stimulus(simulator, stimulus, settle=settle, seed=seed)
                for stimulus in stimuli
            ]
    else:
        results = _simulate_sharded(
            netlist, stimuli, config, settle, seed, engine_kind, jobs,
            chunk_size,
        )

    batch = BatchResult(
        results=results,
        engine_kind=engine_kind,
        jobs=jobs,
        lowering_seconds=lowering_seconds,
        wall_seconds=_time.perf_counter() - wall_start,
    )
    if config.collect_metrics:
        _publish_batch_metrics(batch)
    return batch


def _publish_batch_metrics(batch: BatchResult, mode: Optional[str] = None) -> None:
    """Batch-level throughput metrics, once per :func:`simulate_batch`.

    Per-vector engine counters are published elsewhere (``run_stimulus``
    per vector, or the lockstep drivers per batch); this layer only adds
    what the batch alone knows: vector count, end-to-end wall clock and
    the lowering split.  Labelled by engine and by shard mode so the
    sharded path's overhead is separable.  ``mode`` overrides the
    jobs-derived label — the warm service pool passes ``"service"``.
    """
    from ..obs import get_registry

    registry = get_registry()
    if not registry.enabled:
        return
    if mode is None:
        mode = "inprocess" if batch.jobs <= 1 else "sharded"
    labels = {"engine": batch.engine_kind, "mode": mode}
    registry.counter(
        "halotis_batch_runs_total",
        "Completed simulate_batch() calls.",
        ("engine", "mode"),
    ).inc(**labels)
    registry.counter(
        "halotis_batch_vectors_total",
        "Stimulus vectors completed by simulate_batch().",
        ("engine", "mode"),
    ).inc(len(batch.results), **labels)
    registry.histogram(
        "halotis_batch_seconds",
        "End-to-end wall time of one simulate_batch() call.",
        ("engine", "mode"),
    ).observe(batch.wall_seconds, **labels)
    if batch.lowering_seconds:
        registry.histogram(
            "halotis_batch_lowering_seconds",
            "Up-front netlist lowering time paid by one batch.",
            ("engine",),
        ).observe(batch.lowering_seconds, engine=batch.engine_kind)
    batch.metrics = {
        "engine": batch.engine_kind,
        "mode": mode,
        "vectors": len(batch.results),
        "jobs": batch.jobs,
        "wall_seconds": batch.wall_seconds,
        "lowering_seconds": batch.lowering_seconds,
        "vectors_per_second": (
            len(batch.results) / batch.wall_seconds
            if batch.wall_seconds > 0 else 0.0
        ),
    }


def _verify_lockstep_results(
    netlist: Netlist,
    stimuli: List,
    results: List,
    config,
    arc_slack: float,
) -> None:
    """STA-oracle pass over a lockstep batch (check_sta_bounds=True).

    Builds the batch-wide launch-time and input-slew hulls — a merged
    word event may carry another lane's launch time or ramp duration —
    then verifies every lane's result against windows widened to that
    hull.  Imported lazily: analysis sits above core.
    """
    from ..analysis.sta import _stimulus_launches, verify_result

    launches: List[float] = []
    slews: List[float] = []
    for stimulus in stimuli:
        stimulus_launches, stimulus_slews = _stimulus_launches(
            stimulus, config
        )
        launches.extend(stimulus_launches)
        slews.extend(stimulus_slews)
    launch_window = (min(launches), max(launches)) if launches else None
    input_slew = (min(slews), max(slews)) if slews else None
    for stimulus, result in zip(stimuli, results):
        verify_result(
            netlist, stimulus, result, config,
            arc_slack=arc_slack,
            launch_window=launch_window,
            input_slew=input_slew,
        )


def _simulate_via_service(
    service,
    netlist: Netlist,
    stimuli: List,
    config: Optional[SimulationConfig],
    settle: float,
    seed: Optional[Mapping[str, int]],
    engine_kind: Optional[str],
) -> BatchResult:
    """Route a batch through a live warm pool, guarding knob mismatches."""
    from ..errors import ServiceError

    if service.netlist is not netlist:
        raise ServiceError(
            "service was built for a different netlist; construct a "
            "SimulationService for this circuit (engines are warm per "
            "netlist)"
        )
    if config is not None and config is not service.config:
        raise ServiceError(
            "config cannot change per call on a warm service; pass the "
            "config to SimulationService() instead"
        )
    if engine_kind is not None and engine_kind != service.engine_kind:
        raise ServiceError(
            "engine_kind %r does not match the service's %r"
            % (engine_kind, service.engine_kind)
        )
    return service.run_batch(stimuli, settle=settle, seed=seed)


def _simulate_sharded(
    netlist: Netlist,
    stimuli: List,
    config: SimulationConfig,
    settle: float,
    seed: Optional[Mapping[str, int]],
    engine_kind: str,
    jobs: int,
    chunk_size: Optional[int],
) -> List[SimulationResult]:
    """Fan shards across a process pool; results return in input order."""
    from concurrent.futures import ProcessPoolExecutor

    if chunk_size is None:
        chunk_size = -(-len(stimuli) // jobs)  # ceil division: even split
    bounds = _shard_bounds(len(stimuli), chunk_size)
    results: List[Optional[SimulationResult]] = [None] * len(stimuli)
    with ProcessPoolExecutor(max_workers=min(jobs, len(bounds))) as pool:
        futures = [
            (
                start,
                pool.submit(
                    _simulate_shard,
                    (
                        netlist,
                        stimuli[start:end],
                        config,
                        settle,
                        seed,
                        engine_kind,
                    ),
                ),
            )
            for start, end in bounds
        ]
        for start, future in futures:
            for offset, result in enumerate(future.result()):
                results[start + offset] = result
    return results  # type: ignore[return-value]
