"""The traced run: per-layer metrics measured from outside the program.

Layer times come from three sources, none of them new probes in
``src/``:

* wrappers around public functions (``Tracer``), installed only for the
  traced half of the run and removed afterwards;
* the program's own ``repro.obs`` registry, read as a snapshot delta
  over the traced half (engine phases, lockstep counters, service and
  server spans -- service workers ship theirs back with each result);
* public layer functions timed on the workload's own results
  (``pack_result``/``unpack_result``, the JSON codec, trace recording).

``unattributed_ms`` is the mean traced request latency minus the
workload's top-level blocking steps (see each workload's
``layer_metrics``).  ``obs.tracing_overhead`` is traced over untraced
``vectors_per_s``, measured in the same process back to back.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import time
from typing import Dict, Iterator, List, Sequence, Tuple

#: Every per-layer metric: (name, unit, better).  BENCHMARK.json lists
#: the same set; a self-test keeps the two in step.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("circuit.build_ms", "ms", "lower"),
    ("circuit.lower_ms", "ms", "lower"),
    ("engine.make_ms", "ms", "lower"),
    ("engine.initialize_ms", "ms", "lower"),
    ("engine.stimulus_ms", "ms", "lower"),
    ("engine.settle_ms", "ms", "lower"),
    ("engine.drain_ms", "ms", "lower"),
    ("engine.events", "count", "lower"),
    ("engine.events_filtered", "count", "lower"),
    ("engine.transitions_degraded", "count", "lower"),
    ("engine.ns_per_event", "ns", "lower"),
    ("trace.transitions", "count", "lower"),
    ("trace.record_ms", "ms", "lower"),
    ("vector.batch_ms", "ms", "lower"),
    ("vector.waves", "count", "lower"),
    ("vector.lane_occupancy", "ratio", "higher"),
    ("bitparallel.batch_ms", "ms", "lower"),
    ("bitparallel.word_events", "count", "lower"),
    ("bitparallel.lanes_per_word_event", "ratio", "higher"),
    ("batch.overhead_ms", "ms", "lower"),
    ("service.queue_wait_ms", "ms", "lower"),
    ("service.task_ms", "ms", "lower"),
    ("service.chunk_vectors", "count", "higher"),
    ("service.requeued", "count", "lower"),
    ("service.restarts", "count", "lower"),
    ("shm.pack_ms", "ms", "lower"),
    ("shm.unpack_ms", "ms", "lower"),
    ("shm.bytes_per_vector", "bytes", "lower"),
    ("codec.encode_ms", "ms", "lower"),
    ("codec.decode_ms", "ms", "lower"),
    ("wire.request_bytes", "bytes", "lower"),
    ("wire.response_bytes", "bytes", "lower"),
    ("server.request_ms", "ms", "lower"),
    ("client.roundtrip_ms", "ms", "lower"),
    ("server.busy_rejections", "count", "lower"),
    ("server.errors", "count", "lower"),
    ("faults.golden_ms", "ms", "lower"),
    ("faults.fanout_ms", "ms", "lower"),
    ("faults.classify_ms", "ms", "lower"),
    ("faults.silent", "count", "lower"),
    ("faults.detected", "count", "higher"),
    ("faults.latent", "count", "lower"),
    ("faults.masked", "count", "lower"),
    ("obs.tracing_overhead", "ratio", "higher"),
    ("unattributed_ms", "ms", "lower"),
)


class Tracer:
    """Accumulates wall time per layer from wrapped public callables."""

    def __init__(self) -> None:
        self.totals: Dict[str, float] = collections.defaultdict(float)

    def add(self, layer: str, seconds: float) -> None:
        self.totals[layer] += seconds

    def mean_ms(self, layer: str, requests: int) -> float:
        """Time in ``layer`` per request, ms."""
        return 1e3 * self.totals[layer] / requests if requests else 0.0

    @contextlib.contextmanager
    def wrapped(self, targets: Sequence[Tuple[object, str, str]]
                ) -> Iterator[None]:
        """Time every ``(owner, attribute, layer)`` callable while the
        block runs; the originals are restored on exit."""
        saved: List[Tuple[object, str, object]] = []
        try:
            for owner, attribute, layer in targets:
                original = getattr(owner, attribute)
                saved.append((owner, attribute, original))
                setattr(owner, attribute, self._timed(original, layer))
            yield
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    def _timed(self, function, layer: str):
        clock = time.perf_counter

        @functools.wraps(function)
        def timed(*args, **kwargs):
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                self.add(layer, clock() - start)

        return timed


def assemble(workload, delta, tracer, traced_loop, untraced_loop,
             counters) -> Dict[str, float]:
    """Every per-layer metric for one workload; a layer the workload
    does not run reads 0."""
    metrics: Dict[str, float] = {name: 0.0 for name, _u, _b in PER_LAYER}
    requests = traced_loop.attempted
    specific, blocking_ms = workload.layer_metrics(
        delta, tracer, requests, counters)
    metrics.update(specific)
    metrics["engine.events"] = counters["events"]
    metrics["engine.events_filtered"] = counters["events_filtered"]
    metrics["engine.transitions_degraded"] = counters["transitions_degraded"]
    run_seconds, _runs = delta.histogram("halotis_engine_run_seconds")
    events = delta.counter("halotis_engine_events_executed_total")
    metrics["engine.ns_per_event"] = 1e9 * run_seconds / events if events else 0.0
    if workload.records_traces:
        metrics["trace.transitions"] = (
            counters["transitions"] + counters["source_transitions"]
        ) / counters["runs"]
    metrics["service.requeued"] = delta.counter(
        "halotis_service_tasks_requeued_total")
    metrics["service.restarts"] = delta.counter(
        "halotis_service_worker_restarts_total")
    metrics["server.busy_rejections"] = delta.counter(
        "halotis_server_busy_rejections_total")
    metrics["server.errors"] = delta.counter("halotis_server_errors_total")
    mean_latency_ms = 1e3 * traced_loop.busy_seconds / requests
    if workload.name == "remote-trace":
        metrics["client.roundtrip_ms"] = mean_latency_ms
    metrics["unattributed_ms"] = mean_latency_ms - blocking_ms
    metrics["obs.tracing_overhead"] = (
        traced_loop.vectors_per_s / untraced_loop.vectors_per_s
        if untraced_loop.vectors_per_s else 0.0)
    return metrics
