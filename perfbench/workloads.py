"""The four benchmark workloads.

Each workload is one client in a closed loop with one request in flight,
driving the public API the way its callers do.  Inputs come only from
the workload seed; a pool of seeded inputs is generated once, before any
timing, and requests cycle through it.

A workload provides:

* ``setup()`` / ``close()`` -- everything a user pays before the first
  answer (netlist build, lowering, engine/service/server start,
  registration, one warm-up request), and its teardown;
* ``run(item)`` -- one request on one input; ``request(i)`` runs pool
  entry ``i``, and ``setup()`` runs ``warmup``, an input drawn from
  :data:`WARMUP_SEED` whatever the workload seed, so ``setup_s`` does
  not depend on which seeded input happens to come first;
* ``check(i, output)`` -- the
  untimed per-request check: the work counters of a repeated input must
  repeat exactly;
* ``verify()`` -- untimed correctness on a seeded sample (reference
  engine, local simulate(), committed goldens);
* ``pin_sample()`` -- the deterministic work counters of the first few
  requests, compared with ``pinned.json``;
* ``layer_metrics(...)`` -- the traced run's per-layer numbers.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro import (
    FaultedStimulus,
    PAPER_SEQUENCE_1,
    PAPER_SEQUENCE_2,
    SimulationService,
    array_multiplier,
    cdm_config,
    ddm_config,
    generate_faultload,
    multiplication_sequence,
    run_campaign,
    simulate,
    simulate_batch,
)
from repro.core import shm_transport
from repro.faults.campaign import CLASSIFICATIONS
from repro.io_formats import jsonl_protocol
from repro.server.app import SimulationServer
from repro.server.client import SimulationClient
from repro.stimuli.patterns import random_vectors

from .common import (
    RegistryDelta,
    clear_registry,
    registry_delta,
    result_mismatch,
    stable_seed,
)

#: The seed of every warm-up input.
WARMUP_SEED = -1

#: Primary-input ramp and vector period of every generated stimulus (ns),
#: the paper's Figure 6 values.
SLEW = 0.20
PERIOD = 5.0


def _input_names(width: int) -> List[str]:
    return [net.name for net in array_multiplier(width).primary_inputs]


def _paper_stimulus(operands) -> object:
    return multiplication_sequence(
        operands, width=4, period=PERIOD, slew=SLEW, tail=PERIOD
    )


def _digest(payload: object) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def _signature(result) -> Tuple[object, ...]:
    stats = result.stats
    return (stats.events_executed, stats.events_filtered,
            stats.transitions_emitted, stats.transitions_degraded,
            tuple(sorted(result.final_values.items())))


def _time_ms(function, repeats: int) -> float:
    """Median wall time of ``function()`` over ``repeats`` calls, ms."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        samples.append(time.perf_counter() - start)
    return 1e3 * statistics.median(samples)


def engine_counters(delta: RegistryDelta) -> Dict[str, int]:
    """The kernel work counters every workload pins."""
    return {
        "events": int(delta.counter("halotis_engine_events_executed_total")),
        "events_filtered": int(
            delta.counter("halotis_engine_events_filtered_total")),
        "transitions": int(delta.counter("halotis_engine_transitions_total")),
        "source_transitions": int(
            delta.counter("halotis_engine_source_transitions_total")),
        "transitions_degraded": int(
            delta.counter("halotis_engine_transitions_degraded_total")),
        "runs": int(delta.counter("halotis_engine_runs_total")),
    }


#: The event-driven engines' run phases (the lockstep kernels publish
#: one ``lockstep`` phase instead).
PHASES = ("initialize", "stimulus", "settle", "drain")


def engine_phase_metrics(delta: RegistryDelta) -> Dict[str, float]:
    """Per-vector phase times of the event-driven engines."""
    return {
        "engine.%s_ms" % phase: delta.mean_ms(
            "halotis_engine_phase_seconds", phase=phase)
        for phase in PHASES
    }


def service_metrics(delta: RegistryDelta) -> Dict[str, float]:
    """Per-chunk dispatch numbers of the warm service pool."""
    chunk_total, chunks = delta.histogram("halotis_service_chunk_vectors")
    return {
        "service.queue_wait_ms": delta.mean_ms(
            "halotis_service_queue_wait_seconds"),
        "service.task_ms": delta.mean_ms("halotis_service_task_seconds"),
        "service.chunk_vectors": chunk_total / chunks if chunks else 0.0,
    }


class Workload:
    """Shared scaffolding; subclasses fill in the workload."""

    name = ""
    #: pool workers the workload starts (peak memory covers them).
    workers = 0
    #: how many pool entries the seeded correctness sample covers.
    verify_count = 4
    #: how many requests the pinned counters cover.
    pin_requests = 8
    #: whether the workload records waveforms (trace layer on its path).
    records_traces = True

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root
        self.pool: List[object] = []
        self._signatures: Dict[int, object] = {}

    def close(self) -> None:
        """Stop what setup() started (nothing, for in-process work)."""

    def request(self, index: int):
        return self.run(self.pool[index % len(self.pool)])

    # -- per-request repeat check -------------------------------------

    def _repeat(self, index: int, signature: object) -> Optional[str]:
        slot = index % len(self.pool)
        known = self._signatures.setdefault(slot, signature)
        if known != signature:
            return "work counters of input %d changed between runs" % slot
        return None

    def verify_indices(self) -> List[int]:
        rng = random.Random(stable_seed(self.seed, 7))
        return sorted(rng.sample(range(len(self.pool)), self.verify_count))

    # -- pinned counters ----------------------------------------------

    def pin_sample(self) -> Dict[str, int]:
        clear_registry()
        outputs = [self.request(index) for index in range(self.pin_requests)]
        delta = registry_delta()
        for index, output in enumerate(outputs):
            _vectors, problem = self.check(index, output)
            if problem is not None:
                raise AssertionError(problem)
        counters = engine_counters(delta)
        counters.update(self.extra_counters(delta, outputs))
        return counters

    def extra_counters(self, delta: RegistryDelta,
                       outputs: Sequence[object]) -> Dict[str, int]:
        return {}

    # -- traced run ----------------------------------------------------

    def wrap_targets(self) -> List[Tuple[object, str, str]]:
        """``(owner, attribute, layer)`` public callables to time."""
        return []

    def observe(self, output: object, tracer) -> None:
        """Per-request hook in the traced run (outside the timing)."""

    def circuit_metrics(self, width: int) -> Dict[str, float]:
        def build():
            return array_multiplier(width)

        netlist = build()

        def lower():
            netlist.invalidate_lowering()
            netlist.compile()

        return {"circuit.build_ms": _time_ms(build, 3),
                "circuit.lower_ms": _time_ms(lower, 3)}

    def record_cost_ms(self, netlist, stimuli, config_factory) -> float:
        """Per-vector trace-recording cost: the same vectors on the
        compiled engine with ``record_traces`` on minus off."""
        on, off = config_factory(record_traces=True), config_factory(
            record_traces=False)
        diffs = []
        for stimulus in stimuli:
            with_traces = _time_ms(lambda: simulate(
                netlist, stimulus, config=on, engine_kind="compiled"), 3)
            without = _time_ms(lambda: simulate(
                netlist, stimulus, config=off, engine_kind="compiled"), 3)
            diffs.append(with_traces - without)
        return statistics.median(diffs)

    def shm_metrics(self, results) -> Dict[str, float]:
        """pack_result / unpack_result timed on the workload's own
        results, per vector."""
        packed = [shm_transport.pack_result(result) for result in results]

        def pack():
            for result in results:
                shm_transport.pack_result(result)

        def unpack():
            for payload, meta in packed:
                shm_transport.unpack_result(meta, payload)

        count = len(results)
        return {
            "shm.pack_ms": _time_ms(pack, 3) / count,
            "shm.unpack_ms": _time_ms(unpack, 3) / count,
            "shm.bytes_per_vector": sum(
                len(payload) for payload, _meta in packed) / count,
        }


# ----------------------------------------------------------------------
# single-trace
# ----------------------------------------------------------------------

class SingleTrace(Workload):
    """simulate() of one 8-step stimulus per call on a pre-lowered 6x6
    multiplier: compiled engine, DDM, full traces."""

    name = "single-trace"
    pool_size = 256
    pin_requests = 16

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        names = _input_names(6)
        self.pool = [
            random_vectors(names, 8, PERIOD, seed=stable_seed(seed, 1, k),
                           slew=SLEW)
            for k in range(self.pool_size)
        ]
        self.warmup = random_vectors(
            names, 8, PERIOD, seed=stable_seed(WARMUP_SEED, 1), slew=SLEW)

    def setup(self) -> None:
        self.netlist = array_multiplier(6)
        self.netlist.compile()
        self.config = ddm_config()
        self.run(self.warmup)

    def run(self, stimulus):
        return simulate(self.netlist, stimulus, config=self.config,
                        engine_kind="compiled")

    def check(self, index, result):
        return 1, self._repeat(index, _signature(result))

    def verify(self) -> List[str]:
        problems = []
        for index in self.verify_indices():
            got = self.request(index)
            want = simulate(self.netlist, self.pool[index],
                            config=self.config, engine_kind="reference")
            problem = result_mismatch(got, want)
            if problem:
                problems.append("input %d vs reference: %s" % (index, problem))
        return problems

    def wrap_targets(self):
        from repro.core import engine

        return [(engine, "make_engine", "engine.make")]

    def layer_metrics(self, delta, tracer, requests, counters):
        metrics = self.circuit_metrics(6)
        metrics["engine.make_ms"] = tracer.mean_ms("engine.make", requests)
        metrics.update(engine_phase_metrics(delta))
        sample = [self.pool[index] for index in self.verify_indices()]
        metrics["trace.record_ms"] = self.record_cost_ms(
            self.netlist, sample, ddm_config)
        blocking = metrics["engine.make_ms"] + sum(
            metrics["engine.%s_ms" % phase] for phase in PHASES)
        return metrics, blocking


# ----------------------------------------------------------------------
# batch-screen
# ----------------------------------------------------------------------

class BatchScreen(Workload):
    """Screen 1024 two-step vectors on the bit-parallel engine (CDM,
    traces off), then re-time the first 64 on the vector engine (DDM,
    traces off); one request is both simulate_batch() calls."""

    name = "batch-screen"
    records_traces = False
    screen_lanes = 1024
    retime_lanes = 64
    pool_size = 6
    pin_requests = 1
    verify_count = 1

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        names = _input_names(6)
        self.pool = [self._screen(names, seed, r)
                     for r in range(self.pool_size)]
        self.warmup = self._screen(names, WARMUP_SEED, 0)

    def _screen(self, names, seed, r):
        return [random_vectors(names, 2, PERIOD,
                               seed=stable_seed(seed, 2, r, k), slew=SLEW)
                for k in range(self.screen_lanes)]

    def setup(self) -> None:
        self.netlist = array_multiplier(6)
        self.netlist.compile()
        self.screen_config = cdm_config(record_traces=False)
        self.retime_config = ddm_config(record_traces=False)
        self.run(self.warmup)

    def run(self, stimuli):
        screen = simulate_batch(self.netlist, stimuli,
                                config=self.screen_config,
                                engine_kind="bitparallel")
        retime = simulate_batch(self.netlist, stimuli[:self.retime_lanes],
                                config=self.retime_config,
                                engine_kind="vector")
        return screen, retime

    def check(self, index, output):
        screen, retime = output
        lanes = len(screen) + len(retime)
        if lanes != self.screen_lanes + self.retime_lanes:
            return lanes, "lost lanes: %d" % lanes
        signature = (
            tuple(tuple(sorted(screen[k].final_values.items()))
                  for k in (0, self.screen_lanes // 2, -1)),
            _signature(retime[0]), _signature(retime[-1]),
        )
        return lanes, self._repeat(index, signature)

    def verify(self) -> List[str]:
        problems = []
        index = self.verify_indices()[0]
        stimuli = self.pool[index]
        screen, retime = self.request(index)
        rng = random.Random(stable_seed(self.seed, 8))
        # Bit-parallel per-lane final values against compiled CDM.
        for lane in sorted(rng.sample(range(self.screen_lanes), 16)):
            want = simulate(self.netlist, stimuli[lane],
                            config=self.screen_config, engine_kind="compiled")
            if screen[lane].final_values != want.final_values:
                problems.append("bitparallel lane %d final values differ "
                                "from compiled CDM" % lane)
        # Vector DDM lanes against the reference engine: counters and
        # finals of the workload's own traces-off lanes, and edges of
        # the same lanes re-run with traces on.
        lanes = sorted(rng.sample(range(self.retime_lanes), 4))
        traced = simulate_batch(
            self.netlist, [stimuli[lane] for lane in lanes],
            config=ddm_config(), engine_kind="vector")
        for position, lane in enumerate(lanes):
            want = simulate(self.netlist, stimuli[lane],
                            config=self.retime_config,
                            engine_kind="reference")
            problem = result_mismatch(retime[lane], want, traces=False)
            if problem:
                problems.append("vector lane %d vs reference: %s"
                                % (lane, problem))
            want = simulate(self.netlist, stimuli[lane], config=ddm_config(),
                            engine_kind="reference")
            problem = result_mismatch(traced[position], want)
            if problem:
                problems.append("traced vector lane %d vs reference: %s"
                                % (lane, problem))
        return problems

    def extra_counters(self, delta, outputs):
        return {
            "vector_waves": int(delta.counter(
                "halotis_lockstep_waves_total", engine="vector")),
            "vector_lane_events": int(delta.counter(
                "halotis_lockstep_lanes_total", engine="vector")),
            "word_events": int(delta.counter(
                "halotis_lockstep_waves_total", engine="bitparallel")),
            "word_lane_events": int(delta.counter(
                "halotis_lockstep_lanes_total", engine="bitparallel")),
        }

    def layer_metrics(self, delta, tracer, requests, counters):
        metrics = self.circuit_metrics(6)
        kernels = {}
        for engine in ("vector", "bitparallel"):
            seconds, _count = delta.histogram(
                "halotis_engine_run_seconds", engine=engine)
            kernels[engine] = 1e3 * seconds / requests
        batch_seconds, _count = delta.histogram("halotis_batch_seconds")
        metrics["vector.batch_ms"] = kernels["vector"]
        metrics["bitparallel.batch_ms"] = kernels["bitparallel"]
        metrics["batch.overhead_ms"] = (
            1e3 * batch_seconds / requests - sum(kernels.values()))
        waves = counters["vector_waves"]
        metrics["vector.waves"] = waves
        metrics["vector.lane_occupancy"] = (
            counters["vector_lane_events"] / (waves * self.retime_lanes)
            if waves else 0.0)
        metrics["bitparallel.word_events"] = counters["word_events"]
        metrics["bitparallel.lanes_per_word_event"] = (
            counters["word_lane_events"] / counters["word_events"]
            if counters["word_events"] else 0.0)
        blocking = 1e3 * batch_seconds / requests
        return metrics, blocking


# ----------------------------------------------------------------------
# remote-trace
# ----------------------------------------------------------------------

class _CountingFile:
    """Byte-counting proxy over the client's socket file."""

    def __init__(self, inner):
        self._inner = inner
        self.written = 0
        self.read = 0

    def write(self, data):
        self.written += len(data)
        return self._inner.write(data)

    def readline(self, *args):
        line = self._inner.readline(*args)
        self.read += len(line)
        return line

    def __getattr__(self, name):
        return getattr(self._inner, name)


class RemoteTrace(Workload):
    """SimulationClient.simulate() with full traces against a warm
    in-process SimulationServer serving the 4x4 multiplier (compiled,
    DDM, one pool worker)."""

    name = "remote-trace"
    workers = 1
    pool_size = 64
    pin_requests = 16
    netlist_name = "mult4"

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        names = _input_names(4)
        self.pool = [_paper_stimulus(PAPER_SEQUENCE_1),
                     _paper_stimulus(PAPER_SEQUENCE_2)]
        rng = random.Random(stable_seed(seed, 3))
        for k in range(self.pool_size - 2):
            self.pool.append(random_vectors(
                names, rng.randint(4, 8), PERIOD,
                seed=stable_seed(seed, 3, k), slew=SLEW))
        self.warmup = self.pool[0]
        self.local = array_multiplier(4)
        self.server = None
        self.client = None

    def setup(self) -> None:
        self.server = SimulationServer(
            port=0, pool_workers=1, config=ddm_config()
        ).start_background()
        self.client = SimulationClient("127.0.0.1", self.server.port)
        self.client.register(
            self.netlist_name, {"kind": "builtin", "name": "mult4"},
            mode="ddm", engine_kind="compiled", workers=1)
        self.run(self.warmup)

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            if not self.server.stop_and_join():
                raise RuntimeError("server did not stop")
            self.server = None

    def run(self, stimulus):
        return self.client.simulate(self.netlist_name, stimulus)

    def check(self, index, result):
        return 1, self._repeat(index, _signature(result))

    def verify(self) -> List[str]:
        problems = []
        config = ddm_config()
        for index in self.verify_indices():
            got = self.request(index)
            local = simulate(self.local, self.pool[index], config=config,
                             engine_kind="compiled")
            problem = result_mismatch(got, local)
            if problem:
                problems.append("input %d remote vs local: %s"
                                % (index, problem))
            want = simulate(self.local, self.pool[index], config=config,
                            engine_kind="reference")
            problem = result_mismatch(got, want)
            if problem:
                problems.append("input %d vs reference: %s" % (index, problem))
        problems.extend(self._golden_problems(self.request(0)))
        return problems

    def _golden_problems(self, result) -> List[str]:
        """The paper sequence 1 run against the committed golden."""
        path = self.root / "tests" / "data" / "golden_mult4_seq1_ddm.json"
        golden = json.loads(path.read_text())
        problems = []
        for field, value in golden["stats"].items():
            if getattr(result.stats, field) != value:
                problems.append("golden stats.%s differs" % field)
        for name, edges in golden["edges"].items():
            got = result.traces[name].edges()
            if len(got) != len(edges) or any(
                value != want_value or abs(t - want_t) > 1e-9
                for (t, value), (want_t, want_value) in zip(got, edges)
            ):
                problems.append("golden edges of %s differ" % name)
        return problems

    def pin_sample(self):
        # A fresh connection numbers its frames from 1, so the byte
        # counts do not depend on how many requests came before.
        client = self.client
        self.client = SimulationClient("127.0.0.1", self.server.port)
        self._counting = _CountingFile(self.client._file)
        self.client._file = self._counting
        try:
            return super().pin_sample()
        finally:
            self.client.close()
            self.client = client

    def extra_counters(self, delta, outputs):
        # Each response carries the worker's wall-clock runtime, whose
        # printed length varies; the pinned byte count leaves it out.
        runtime_digits = sum(len(json.dumps(result.stats.runtime_seconds))
                             for result in outputs)
        return {
            "shm_bytes": sum(len(shm_transport.pack_result(result)[0])
                             for result in outputs),
            "wire_request_bytes": self._counting.written,
            "wire_response_bytes": self._counting.read - runtime_digits,
        }

    def layer_metrics(self, delta, tracer, requests, counters):
        metrics = self.circuit_metrics(4)
        metrics.update(engine_phase_metrics(delta))
        metrics.update(service_metrics(delta))
        metrics["server.request_ms"] = delta.mean_ms(
            "halotis_server_request_seconds", op="simulate")
        sample = [self.request(index) for index in self.verify_indices()]
        metrics.update(self.shm_metrics(sample))
        metrics["trace.record_ms"] = self.record_cost_ms(
            self.local, [self.pool[i] for i in self.verify_indices()],
            ddm_config)
        dicts = [jsonl_protocol.result_to_dict(result) for result in sample]
        lines = [json.dumps(payload) for payload in dicts]
        count = len(sample)
        to_dict_ms = _time_ms(lambda: [
            jsonl_protocol.result_to_dict(result) for result in sample],
            3) / count
        dumps_ms = _time_ms(lambda: [json.dumps(d) for d in dicts], 3) / count
        metrics["codec.encode_ms"] = to_dict_ms + dumps_ms
        metrics["codec.decode_ms"] = _time_ms(lambda: [
            jsonl_protocol.result_from_dict(json.loads(line))
            for line in lines], 3) / count
        metrics["wire.request_bytes"] = (
            counters["wire_request_bytes"] / self.pin_requests)
        metrics["wire.response_bytes"] = (
            counters["wire_response_bytes"] / self.pin_requests)
        # The round trip's top-level blocking steps: the server's own
        # request span (frame decode, dispatch, service, result to
        # dict), the response's JSON serialisation, and the client's
        # decode.
        blocking = (metrics["server.request_ms"] + dumps_ms
                    + metrics["codec.decode_ms"])
        return metrics, blocking


# ----------------------------------------------------------------------
# fault-campaign
# ----------------------------------------------------------------------

class FaultCampaign(Workload):
    """run_campaign() of 64 seeded mutants of a 3-step stimulus on the
    4x4 multiplier through a warm one-worker SimulationService, traces
    on so classification diffs waveforms."""

    name = "fault-campaign"
    workers = 1
    pool_size = 48
    mutants = 64
    pin_requests = 2
    verify_count = 2

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        names = _input_names(4)
        target = array_multiplier(4)
        self.pool = [self._input(names, target, seed, k)
                     for k in range(self.pool_size)]
        self.warmup = self._input(names, target, WARMUP_SEED, 0)
        self.service = None

    def _input(self, names, target, seed, k):
        stimulus = random_vectors(names, 3, PERIOD,
                                  seed=stable_seed(seed, 4, k), slew=SLEW)
        faultload = generate_faultload(
            target, self.mutants, seed=stable_seed(seed, 5, k),
            window=(0.0, stimulus.horizon))
        return stimulus, faultload

    def setup(self) -> None:
        self.netlist = array_multiplier(4)
        self.netlist.compile()
        self.config = ddm_config(record_traces=True)
        self.service = SimulationService(
            self.netlist, config=self.config, workers=1,
            engine_kind="compiled")
        self.run(self.warmup)

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def _campaign(self, stimulus, faultload):
        return run_campaign(self.netlist, faultload, stimulus,
                            config=self.config, engine_kind="compiled",
                            service=self.service)

    def run(self, item):
        stimulus, faultload = item
        return self._campaign(stimulus, faultload)

    def check(self, index, report):
        vectors = 1 + len(report)
        if len(report) != self.mutants:
            return vectors, "campaign lost mutants"
        return vectors, self._repeat(index, _digest(report.to_dict()))

    def verify(self) -> List[str]:
        problems = []
        for index in self.verify_indices():
            stimulus, _faultload = self.pool[index]
            got = simulate(self.netlist, stimulus, config=self.config,
                           engine_kind="compiled")
            want = simulate(self.netlist, stimulus, config=self.config,
                            engine_kind="reference")
            problem = result_mismatch(got, want)
            if problem:
                problems.append("golden run %d vs reference: %s"
                                % (index, problem))
        # The committed campaign golden, run through the warm service.
        path = self.root / "tests" / "data" / "golden_faults_campaigns.json"
        golden = json.loads(path.read_text())["mult4"]
        stimulus = multiplication_sequence([(0x0, 0x0), (0x7, 0x7),
                                            (0xF, 0xF)])
        faultload = generate_faultload(
            self.netlist, golden["mutants"], seed=golden["seed"],
            window=(0.0, stimulus.horizon))
        report = self._campaign(stimulus, faultload)
        if report.to_dict() != golden:
            problems.append("pinned mult4 campaign differs from its golden")
        return problems

    def extra_counters(self, delta, outputs):
        counters = {"mutants": sum(len(report) for report in outputs)}
        for label in CLASSIFICATIONS:
            counters[label] = sum(report.counts()[label] for report in outputs)
        return counters

    def wrap_targets(self):
        from repro.faults import campaign

        return [(campaign, "simulate", "faults.golden"),
                (campaign, "classify_results", "faults.classify")]

    def observe(self, report, tracer) -> None:
        tracer.add("faults.fanout", report.wall_seconds)

    def layer_metrics(self, delta, tracer, requests, counters):
        metrics = self.circuit_metrics(4)
        metrics.update(engine_phase_metrics(delta))
        for key in ("golden", "fanout", "classify"):
            metrics["faults.%s_ms" % key] = tracer.mean_ms(
                "faults." + key, requests)
        for label in CLASSIFICATIONS:
            metrics["faults." + label] = counters[label]
        metrics.update(service_metrics(delta))
        stimulus, faultload = self.pool[0]
        results = self.service.submit_batch(
            [FaultedStimulus(stimulus, fault) for fault in faultload.faults]
        ).wait()
        metrics.update(self.shm_metrics(results))
        metrics["trace.record_ms"] = self.record_cost_ms(
            self.netlist, [self.pool[i][0] for i in self.verify_indices()],
            ddm_config)
        blocking = sum(metrics["faults.%s_ms" % key]
                       for key in ("golden", "fanout", "classify"))
        return metrics, blocking


WORKLOADS = {
    workload.name: workload
    for workload in (SingleTrace, BatchScreen, RemoteTrace, FaultCampaign)
}
