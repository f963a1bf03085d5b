"""Reference vs compiled backend parity on randomized circuits.

The compiled backend is only allowed to be *faster*, never different:
both engines must produce bit-identical event counts, statistics, edge
lists and raw transition streams.  This property is exercised on 50+
random combinational DAGs (deterministic per seed) under both delay
modes, plus the paper's multiplier workload and the PEAK_VOLTAGE
ablation policy.  Single runs on the ``"vector"`` and ``"bitparallel"``
backends execute on the compiled kernel; they are pinned here too.
"""

from __future__ import annotations

import random

import pytest

from repro.circuit.builder import CircuitBuilder
from repro.config import DelayMode, InertialPolicy, cdm_config, ddm_config
from repro.core.compiled import CompiledSimulator
from repro.core.engine import HalotisSimulator, make_engine, run_stimulus, simulate
from repro.core.event_queue import SortedListQueue
from repro.stimuli.vectors import VectorSequence

_CELL_CHOICES = [
    ("INV", 1), ("INV_LT", 1), ("INV_HT", 1),
    ("NAND2", 2), ("NAND3", 3), ("NOR2", 2),
    ("AND2", 2), ("OR2", 2), ("XOR2", 2), ("MUX2", 3),
]

#: (seed, num_inputs, num_gates, vectors) — 50 deterministic circuits
#: spanning 1..6 inputs and up to 24 gates.
CASES = [
    (seed, 1 + seed % 6, 3 + (seed * 7) % 22, 2 + seed % 3)
    for seed in range(50)
]


def random_netlist(seed: int, num_inputs: int, num_gates: int):
    """A connected random combinational DAG (deterministic per seed)."""
    generator = random.Random(seed)
    builder = CircuitBuilder(name="parity%d" % seed)
    nets = [builder.input("i%d" % k) for k in range(num_inputs)]
    for index in range(num_gates):
        cell_name, arity = generator.choice(_CELL_CHOICES)
        operands = [generator.choice(nets) for _ in range(arity)]
        nets.append(builder.gate(cell_name, *operands, name="g%d" % index))
    for net in list(builder.netlist.nets.values()):
        if not net.fanouts and not net.is_primary_input:
            builder.output(net)
    for net in list(builder.netlist.primary_inputs):
        if not net.fanouts:
            builder.output(builder.buf(net, name="obs_%s" % net.name))
    return builder.build()


def random_stimulus(seed: int, input_names, vectors: int) -> VectorSequence:
    generator = random.Random(seed ^ 0xC0FFEE)
    steps = []
    for position in range(vectors):
        assignments = {name: generator.randint(0, 1) for name in input_names}
        # Short periods provoke glitches, degradation and annihilation —
        # exactly the paths where the backends could drift apart.
        steps.append((position * 1.5, assignments))
    return VectorSequence(steps, slew=0.25, tail=5.0)


_STATS_FIELDS = (
    "events_executed",
    "events_scheduled",
    "events_filtered",
    "late_events",
    "transitions_emitted",
    "source_transitions",
    "transitions_degraded",
    "transitions_fully_degraded",
    "net_toggles",
)


def assert_parity(netlist, stimulus, config, engine_kind="compiled",
                  reference_config=None):
    reference = simulate(
        netlist, stimulus, config=reference_config or config,
        engine_kind="reference",
    )
    compiled = simulate(netlist, stimulus, config=config, engine_kind=engine_kind)

    for field in _STATS_FIELDS:
        assert getattr(reference.stats, field) == getattr(compiled.stats, field), (
            "stats.%s differs" % field
        )
    assert reference.final_values == compiled.final_values
    for name in netlist.nets:
        ref_trace = reference.traces[name]
        com_trace = compiled.traces[name]
        assert ref_trace.edges() == com_trace.edges(), name
        ref_raw = [
            (t.t50, t.duration, t.rising, t.degradation_factor, t.cause_time)
            for t in ref_trace.transitions
        ]
        com_raw = [
            (t.t50, t.duration, t.rising, t.degradation_factor, t.cause_time)
            for t in com_trace.transitions
        ]
        assert ref_raw == com_raw, name
    assert reference.simulator.filtered_log == compiled.simulator.filtered_log
    return reference, compiled


@pytest.mark.parametrize("case", CASES, ids=lambda c: "seed%d" % c[0])
@pytest.mark.parametrize("mode", ["ddm", "cdm"])
def test_random_circuit_parity(case, mode):
    seed, num_inputs, num_gates, vectors = case
    netlist = random_netlist(seed, num_inputs, num_gates)
    input_names = [net.name for net in netlist.primary_inputs]
    stimulus = random_stimulus(seed, input_names, vectors)
    config = (
        ddm_config(record_filtered=True)
        if mode == "ddm"
        else cdm_config(record_filtered=True)
    )
    assert_parity(netlist, stimulus, config)


@pytest.mark.parametrize("mode", ["ddm", "cdm"])
def test_multiplier_paper_sequence_parity(mult4, mode):
    from repro.stimuli.vectors import PAPER_SEQUENCE_1, multiplication_sequence

    stimulus = multiplication_sequence(PAPER_SEQUENCE_1)
    config = ddm_config() if mode == "ddm" else cdm_config()
    reference, _compiled = assert_parity(mult4, stimulus, config)
    assert reference.stats.events_executed > 0
    assert reference.stats.events_filtered > 0 or mode == "cdm"


def test_peak_voltage_policy_parity():
    netlist = random_netlist(7, 3, 18)
    input_names = [net.name for net in netlist.primary_inputs]
    stimulus = random_stimulus(7, input_names, 3)
    config = ddm_config(inertial_policy=InertialPolicy.PEAK_VOLTAGE)
    assert_parity(netlist, stimulus, config)


def test_queue_kind_parity_cross_backend(mult4):
    """A reference engine on the sorted-list oracle queue == the compiled
    engine's list-entry heap on the paper workload."""
    from repro.stimuli.vectors import PAPER_SEQUENCE_2, multiplication_sequence

    stimulus = multiplication_sequence(PAPER_SEQUENCE_2)
    simulator = HalotisSimulator(mult4, config=ddm_config())
    simulator.queue = SortedListQueue()
    sorted_ref = run_stimulus(simulator, stimulus)
    heap_com = simulate(
        mult4, stimulus, config=ddm_config(), engine_kind="compiled",
    )
    assert sorted_ref.stats.events_executed == heap_com.stats.events_executed
    for name in mult4.nets:
        assert sorted_ref.traces[name].edges() == heap_com.traces[name].edges()


@pytest.mark.parametrize("engine_kind", ["compiled", "vector", "bitparallel"])
def test_single_run_backends_are_compiled_simulators(chain3, engine_kind):
    pytest.importorskip("numpy")
    engine = make_engine(chain3, config=ddm_config(), engine_kind=engine_kind)
    assert isinstance(engine, CompiledSimulator)
    assert engine.kind == engine_kind


@pytest.mark.parametrize("case", CASES[:25], ids=lambda c: "seed%d" % c[0])
@pytest.mark.parametrize("mode", ["ddm", "cdm"])
def test_vector_and_bitparallel_single_runs(case, mode):
    """simulate(engine_kind="vector") ≡ reference, and
    simulate(engine_kind="bitparallel") ≡ reference with CDM forced,
    filtered-event logs included."""
    pytest.importorskip("numpy")
    seed, num_inputs, num_gates, vectors = case
    netlist = random_netlist(seed, num_inputs, num_gates)
    input_names = [net.name for net in netlist.primary_inputs]
    stimulus = random_stimulus(seed, input_names, vectors)
    config = (
        ddm_config(record_filtered=True)
        if mode == "ddm"
        else cdm_config(record_filtered=True)
    )
    assert_parity(netlist, stimulus, config, engine_kind="vector")
    assert_parity(
        netlist, stimulus, config, engine_kind="bitparallel",
        reference_config=config.with_mode(DelayMode.CDM),
    )
