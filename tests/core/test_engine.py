"""The HALOTIS kernel: propagation, filtering, bookkeeping, errors."""

import contextlib
import dataclasses

import pytest

from repro.circuit import modules
from repro.circuit.builder import CircuitBuilder
from repro.config import (
    InertialPolicy,
    SimulationConfig,
    cdm_config,
    ddm_config,
)
from repro.core.engine import HalotisSimulator, simulate
from repro.errors import (
    SimulationError,
    SimulationLimitError,
    StimulusError,
)
from repro.stimuli.patterns import pulse
from repro.stimuli.vectors import VectorSequence


def _single_inverter():
    builder = CircuitBuilder(name="one_inv")
    a = builder.input("a")
    builder.output(builder.gate("INV", a, name="g"), "y")
    return builder.build()


def test_requires_initialize():
    simulator = HalotisSimulator(_single_inverter())
    assert not simulator.initialized
    with pytest.raises(SimulationError):
        simulator.run()
    with pytest.raises(SimulationError):
        simulator.set_input("a", 1, 0.0)


def test_single_edge_delay_matches_arc(library):
    """One input edge: output t50 = event time + tp0 (no degradation on
    the first transition)."""
    netlist = _single_inverter()
    simulator = HalotisSimulator(netlist, config=ddm_config())
    simulator.initialize({"a": 0})
    slew = 0.2
    transition = simulator.set_input("a", 1, at_time=1.0, slew=slew)
    assert transition is not None
    simulator.run()

    inv = library.get("INV")
    gate_input = netlist.gate("g").inputs[0]
    vt_fraction = gate_input.vt / netlist.vdd
    event_time = transition.crossing_time(vt_fraction)
    load = netlist.net("y").load()
    expected_tp0 = inv.arc(0, rising=False).delay(load, slew)

    edges = simulator.traces["y"].edges()
    assert len(edges) == 1
    assert edges[0][1] == 0
    assert edges[0][0] == pytest.approx(event_time + expected_tp0)
    assert simulator.value("y") == 0
    assert simulator.stats.events_executed == 1
    assert simulator.stats.transitions_emitted == 1


def test_unchanged_input_is_noop():
    simulator = HalotisSimulator(_single_inverter())
    simulator.initialize({"a": 1})
    assert simulator.set_input("a", 1, at_time=1.0) is None
    assert simulator.stats.source_transitions == 0


def test_stimulus_errors():
    simulator = HalotisSimulator(_single_inverter())
    simulator.initialize({"a": 0})
    with pytest.raises(StimulusError):
        simulator.set_input("y", 1, 1.0)  # not a PI
    with pytest.raises(StimulusError):
        simulator.set_input("a", 2, 1.0)
    with pytest.raises(StimulusError):
        simulator.set_input("a", 1, 1.0, slew=0.0)
    simulator.run(until=5.0)
    with pytest.raises(StimulusError):
        simulator.set_input("a", 1, 1.0)  # in the past


def test_chain_propagation_and_polarity():
    netlist = modules.inverter_chain(4)
    simulator = HalotisSimulator(netlist, config=ddm_config())
    simulator.initialize({"in": 0})
    simulator.set_input("in", 1, at_time=1.0)
    simulator.run()
    assert simulator.value("out1") == 0
    assert simulator.value("out2") == 1
    assert simulator.value("out3") == 0
    assert simulator.value("out4") == 1
    # Delays accumulate monotonically along the chain.
    times = [simulator.traces["out%d" % k].edges()[0][0] for k in (1, 2, 3, 4)]
    assert times == sorted(times)


def test_wide_pulse_propagates_narrow_pulse_filters():
    netlist = modules.inverter_chain(6)
    config = ddm_config(record_filtered=True)

    wide = simulate(netlist, pulse("in", start=1.0, width=2.0), config=config)
    assert wide.traces["out6"].toggle_count() == 2
    assert wide.stats.events_filtered == 0

    narrow = simulate(netlist, pulse("in", start=1.0, width=0.05), config=config)
    assert narrow.traces["out6"].toggle_count() == 0
    assert narrow.stats.events_filtered >= 1
    assert narrow.simulator.filtered_log  # record_filtered keeps details


def test_degradation_shrinks_pulse_along_chain():
    """A mid-width pulse narrows stage by stage under DDM but keeps its
    width under CDM."""
    netlist = modules.inverter_chain(6)
    stimulus = pulse("in", start=1.0, width=0.28)

    ddm = simulate(netlist, stimulus, config=ddm_config())
    cdm = simulate(netlist, stimulus, config=cdm_config())

    cdm_widths = [
        cdm.traces["out%d" % k].pulse_widths() for k in range(1, 7)
    ]
    assert all(len(w) == 1 for w in cdm_widths)
    spread = max(w[0] for w in cdm_widths) - min(w[0] for w in cdm_widths)
    assert spread < 0.15  # CDM roughly preserves width

    ddm_widths = []
    for k in range(1, 7):
        widths = ddm.traces["out%d" % k].pulse_widths()
        if not widths:
            break
        ddm_widths.append(widths[0])
    # DDM: strictly shrinking until the pulse dies.
    assert len(ddm_widths) < 6 or ddm_widths[-1] < ddm_widths[0]
    assert all(b < a + 1e-9 for a, b in zip(ddm_widths, ddm_widths[1:]))


def test_filtered_events_counted_per_input():
    """A runt annihilated at several fanout pins counts once per pin."""
    builder = CircuitBuilder(name="fan2")
    a = builder.input("a")
    mid = builder.gate("INV", a, name="drv")
    builder.output(builder.gate("INV", mid, name="r1"), "y1")
    builder.output(builder.gate("INV_LT", mid, name="r2"), "y2")
    netlist = builder.build()
    result = simulate(
        netlist, pulse("a", start=1.0, width=0.04), config=ddm_config()
    )
    # The dip on `mid` dies at both receivers: the plain INV because the
    # pulse is far too narrow, the low-threshold INV because the shallow
    # dip never reaches VT1.
    assert result.stats.events_filtered >= 2
    assert result.traces["y1"].toggle_count() == 0
    assert result.traces["y2"].toggle_count() == 0


def test_threshold_selectivity_on_shared_net():
    """The same runt dip propagates into a high-threshold receiver while
    being filtered at the mid-threshold one — the paper's core point."""
    builder = CircuitBuilder(name="fanht")
    a = builder.input("a")
    mid = builder.gate("INV", a, name="drv")
    builder.output(builder.gate("INV", mid, name="r1"), "y1")
    builder.output(builder.gate("INV_HT", mid, name="r2"), "y2")
    netlist = builder.build()
    result = simulate(
        netlist, pulse("a", start=1.0, width=0.10), config=ddm_config()
    )
    assert result.traces["y1"].toggle_count() == 0
    assert result.traces["y2"].toggle_count() == 2


def test_determinism(mult4):
    from repro.stimuli.vectors import multiplication_sequence, PAPER_SEQUENCE_1

    stimulus = multiplication_sequence(PAPER_SEQUENCE_1)
    first = simulate(mult4, stimulus, config=ddm_config())
    second = simulate(mult4, stimulus, config=ddm_config())
    assert first.stats.events_executed == second.stats.events_executed
    assert first.stats.events_filtered == second.stats.events_filtered
    for name in ("s0", "s3", "s7"):
        assert first.traces[name].edges() == second.traces[name].edges()


def test_queue_kinds_agree(mult4):
    """The binary heap and the sorted-list oracle queue drive the
    reference kernel to the same result."""
    from repro.core.engine import HalotisSimulator, run_stimulus
    from repro.core.event_queue import SortedListQueue
    from repro.stimuli.vectors import multiplication_sequence, PAPER_SEQUENCE_1

    stimulus = multiplication_sequence(PAPER_SEQUENCE_1)
    heap = simulate(mult4, stimulus, config=ddm_config())
    simulator = HalotisSimulator(mult4, config=ddm_config())
    simulator.queue = SortedListQueue()
    listq = run_stimulus(simulator, stimulus)
    assert heap.stats.events_executed == listq.stats.events_executed
    for name in ("s0", "s5", "s7"):
        assert heap.traces[name].edges() == listq.traces[name].edges()


def test_peak_policy_runs_and_differs_little(mult4):
    from repro.stimuli.vectors import multiplication_sequence, PAPER_SEQUENCE_2

    stimulus = multiplication_sequence(PAPER_SEQUENCE_2)
    order = simulate(mult4, stimulus, config=ddm_config())
    peak = simulate(
        mult4, stimulus,
        config=ddm_config(inertial_policy=InertialPolicy.PEAK_VOLTAGE),
    )
    # Same settled answers...
    assert order.final_values == peak.final_values
    # ...comparable event counts (the policies differ only on borderline
    # runts).
    ratio = peak.stats.events_executed / order.stats.events_executed
    assert 0.7 < ratio < 1.3


def test_max_events_limit():
    netlist = modules.ring_oscillator(3)
    config = ddm_config(max_events=200)
    simulator = HalotisSimulator(netlist, config=config)
    simulator.initialize({"en": 0})
    simulator.set_input("en", 1, at_time=1.0)
    with pytest.raises(SimulationLimitError):
        simulator.run()


def test_ring_oscillator_stable_under_cdm():
    """Without degradation the ring oscillates with a constant period set
    by the loop delay."""
    netlist = modules.ring_oscillator(5)
    simulator = HalotisSimulator(netlist, config=cdm_config())
    simulator.initialize({"en": 0})
    simulator.set_input("en", 1, at_time=1.0)
    simulator.run(until=20.0)
    edges = simulator.traces["osc"].edges()
    assert len(edges) > 6
    times = [t for t, _v in edges]
    periods = [b - a for a, b in zip(times[:-2:2], times[2::2])]
    mean = sum(periods) / len(periods)
    assert all(abs(p - mean) / mean < 0.05 for p in periods[1:])


def test_ring_oscillator_ddm_collapse_artifact():
    """Known limitation (documented in DESIGN.md): raw eq. 1 in a tight
    feedback loop is self-reinforcing — each shortened delay shortens the
    next T — so a DDM ring degenerates towards the minimum delay instead
    of settling at the physical period.  The kernel must survive this
    (bounded by max_events) and keep oscillating."""
    netlist = modules.ring_oscillator(5)
    config = ddm_config(max_events=20_000)
    simulator = HalotisSimulator(netlist, config=config)
    simulator.initialize({"en": 0})
    simulator.set_input("en", 1, at_time=1.0)
    with contextlib.suppress(SimulationLimitError):
        simulator.run(until=20.0)
    edges = simulator.traces["osc"].edges()
    assert len(edges) > 6
    times = [t for t, _v in edges]
    periods = [b - a for a, b in zip(times[:-2:2], times[2::2])]
    # The period shrinks (collapse) rather than stabilising.
    assert periods[-1] < periods[0]


def test_rs_latch_set_then_hold():
    latch = modules.rs_latch()
    simulator = HalotisSimulator(latch, config=ddm_config())
    simulator.initialize({"s_n": 1, "r_n": 1}, seed={"q": 0, "qn": 1})
    assert simulator.value("q") == 0
    simulator.set_input("s_n", 0, at_time=1.0)
    simulator.run(until=3.0)
    simulator.set_input("s_n", 1, at_time=3.0)
    simulator.run(until=6.0)
    assert simulator.value("q") == 1
    assert simulator.value("qn") == 0


def test_run_until_is_resumable():
    netlist = modules.inverter_chain(4)
    simulator = HalotisSimulator(netlist, config=ddm_config())
    simulator.initialize({"in": 0})
    simulator.set_input("in", 1, at_time=1.0)
    simulator.run(until=1.05)
    partial = simulator.stats.events_executed
    assert partial < 5
    simulator.run()
    assert simulator.stats.events_executed >= partial
    assert simulator.value("out4") == 1


def test_step_executes_single_event():
    netlist = modules.inverter_chain(2)
    simulator = HalotisSimulator(netlist, config=ddm_config())
    simulator.initialize({"in": 0})
    simulator.set_input("in", 1, at_time=1.0)
    first = simulator.step()
    assert first is not None
    assert simulator.stats.events_executed == 1
    while simulator.step() is not None:
        pass
    assert simulator.value("out2") == 1


def test_word_and_values(mult4):
    simulator = HalotisSimulator(mult4, config=ddm_config())
    init = {"a%d" % k: 1 for k in range(4)}
    init.update({"b%d" % k: 1 for k in range(4)})
    simulator.initialize(init)
    assert simulator.word("s", 8) == 225
    values = simulator.values()
    assert values["tie0"] == 0
    assert values["s0"] == 1


def test_record_traces_off_keeps_stats(mult4):
    from repro.stimuli.vectors import multiplication_sequence, PAPER_SEQUENCE_1

    config = dataclasses.replace(ddm_config(), record_traces=False)
    result = simulate(mult4, multiplication_sequence(PAPER_SEQUENCE_1),
                      config=config)
    assert len(result.traces) == 0
    assert result.stats.events_executed > 0
    assert result.stats.total_toggles > 0
    assert result.final_values["s0"] == 1  # 15*15 = 225 -> bit0 set


def test_simulate_runs_every_change(mult4):
    stimulus = VectorSequence(
        [
            (0.0, {"a0": 0, "a1": 0, "a2": 0, "a3": 0,
                   "b0": 0, "b1": 0, "b2": 0, "b3": 0}),
            (5.0, {"a0": 1, "b0": 1}),
            (10.0, {"a1": 1, "b1": 1}),
        ],
        tail=5.0,
    )
    result = simulate(mult4, stimulus, config=ddm_config())
    assert result.traces.word_at(9.9, "s", 8) == 1
    assert result.traces.word_at(15.0, "s", 8) == 9
