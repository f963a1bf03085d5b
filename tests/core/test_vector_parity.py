"""Vector (numpy N-lane) backend parity: vector ≡ reference ≡ compiled.

The vector kernel is only allowed to be *faster at scale*, never
different: for every stimulus, every lane of a lockstep batch must
produce bit-identical event counts, statistics, edge lists and raw
transition streams.  Exercised on the randomized circuit zoo of
``test_backend_parity`` under both delay modes and both inertial
policies, and through the batch front end (in-process lockstep and a
warm service's worker processes).

The two kernel paths — vectorised waves and the thin-wave scalar
fallback — are both covered: lockstep batches over eight-plus lanes run
wide waves, while one-lane batches and drain tails take the scalar
path.  A single ``simulate(engine_kind="vector")`` run executes on the
compiled kernel (``test_backend_parity`` pins that one).
"""

from __future__ import annotations

import pytest

numpy = pytest.importorskip("numpy")

from repro.config import InertialPolicy, cdm_config, ddm_config
from repro.core.batch import simulate_batch
from repro.core.engine import HalotisSimulator, run_stimulus, simulate
from repro.core.service import SimulationService
from repro.core.event_queue import SortedListQueue
from repro.errors import SimulationLimitError
from repro.experiments import common
from repro.stimuli.patterns import random_vector_batch
from repro.stimuli.vectors import (
    PAPER_SEQUENCE_1,
    PAPER_SEQUENCE_2,
    multiplication_sequence,
)

from test_backend_parity import (
    _STATS_FIELDS,
    random_netlist,
    random_stimulus,
)

#: (seed, num_inputs, num_gates, vectors) — a 25-circuit slice of the
#: backend-parity zoo.
CASES = [
    (seed, 1 + seed % 6, 3 + (seed * 7) % 22, 2 + seed % 3)
    for seed in range(25)
]


def assert_results_bit_identical(reference, vector, netlist, context=""):
    for field in _STATS_FIELDS:
        assert getattr(reference.stats, field) == getattr(
            vector.stats, field
        ), "%s: stats.%s differs" % (context, field)
    assert reference.final_values == vector.final_values, context
    assert reference.traces.horizon == vector.traces.horizon, context
    for name in netlist.nets:
        ref_trace = reference.traces[name]
        vec_trace = vector.traces[name]
        assert ref_trace.edges() == vec_trace.edges(), (context, name)
        ref_raw = [
            (t.t50, t.duration, t.rising, t.degradation_factor, t.cause_time)
            for t in ref_trace.transitions
        ]
        vec_raw = [
            (t.t50, t.duration, t.rising, t.degradation_factor, t.cause_time)
            for t in vec_trace.transitions
        ]
        assert ref_raw == vec_raw, (context, name)


def assert_vector_parity(netlist, stimulus, config):
    """A one-lane vector lockstep batch ≡ the reference engine."""
    reference = simulate(netlist, stimulus, config=config,
                         engine_kind="reference")
    batch = simulate_batch(netlist, [stimulus], config=config,
                           engine_kind="vector")
    assert batch.engine_kind == "vector"
    assert_results_bit_identical(reference, batch[0], netlist)
    return reference, batch[0]


# ----------------------------------------------------------------------
# one-lane lockstep parity (the scalar twin path of the kernel)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("case", CASES, ids=lambda c: "seed%d" % c[0])
@pytest.mark.parametrize("mode", ["ddm", "cdm"])
def test_random_circuit_parity(case, mode):
    seed, num_inputs, num_gates, vectors = case
    netlist = random_netlist(seed, num_inputs, num_gates)
    input_names = [net.name for net in netlist.primary_inputs]
    stimulus = random_stimulus(seed, input_names, vectors)
    config = ddm_config() if mode == "ddm" else cdm_config()
    assert_vector_parity(netlist, stimulus, config)


@pytest.mark.parametrize("mode", ["ddm", "cdm"])
def test_multiplier_paper_sequence_parity(mult4, mode):
    stimulus = multiplication_sequence(PAPER_SEQUENCE_1)
    config = ddm_config() if mode == "ddm" else cdm_config()
    reference, _vector = assert_vector_parity(mult4, stimulus, config)
    assert reference.stats.events_executed > 0
    assert reference.stats.events_filtered > 0 or mode == "cdm"


def test_peak_voltage_policy_parity():
    netlist = random_netlist(7, 3, 18)
    input_names = [net.name for net in netlist.primary_inputs]
    stimulus = random_stimulus(7, input_names, 3)
    config = ddm_config(inertial_policy=InertialPolicy.PEAK_VOLTAGE)
    assert_vector_parity(netlist, stimulus, config)


def test_sorted_list_queue_parity(mult4):
    """A reference engine on the sorted-list oracle queue == a one-lane
    vector batch on the paper workload."""
    stimulus = multiplication_sequence(PAPER_SEQUENCE_2)
    simulator = HalotisSimulator(mult4, config=ddm_config())
    simulator.queue = SortedListQueue()
    sorted_ref = run_stimulus(simulator, stimulus)
    vector = simulate_batch(mult4, [stimulus], config=ddm_config(),
                            engine_kind="vector")[0]
    assert_results_bit_identical(sorted_ref, vector, mult4)


# ----------------------------------------------------------------------
# lockstep batches (the wide-wave kernel)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("case", CASES[:10], ids=lambda c: "seed%d" % c[0])
@pytest.mark.parametrize("mode", ["ddm", "cdm"])
def test_random_circuit_lockstep_parity(case, mode):
    """Every lane of an N-lane lockstep batch ≡ its standalone run."""
    seed, num_inputs, num_gates, vectors = case
    netlist = random_netlist(seed, num_inputs, num_gates)
    input_names = [net.name for net in netlist.primary_inputs]
    stimuli = [
        random_stimulus(seed * 31 + k, input_names, vectors)
        for k in range(10)
    ]
    config = ddm_config() if mode == "ddm" else cdm_config()
    batch = simulate_batch(netlist, stimuli, config=config,
                           engine_kind="vector")
    assert batch.engine_kind == "vector"
    for position, stimulus in enumerate(stimuli):
        reference = simulate(netlist, stimulus, config=config,
                             engine_kind="reference")
        assert batch[position].simulator is None
        assert_results_bit_identical(
            reference, batch[position], netlist,
            context="lane %d" % position,
        )


def test_wide_lockstep_batch_crosses_scalar_cutoff(mult4):
    """A 24-lane multiplier batch drives the vectorised wave path (and
    its thin drain tails the scalar path) — every lane still matches
    the compiled engine bit for bit."""
    input_names = [net.name for net in mult4.primary_inputs]
    stimuli = random_vector_batch(
        input_names, batch=24, count=2, period=2.0, base_seed=5, tail=3.0
    )
    config = ddm_config()
    batch = simulate_batch(mult4, stimuli, config=config,
                           engine_kind="vector")
    for position, stimulus in enumerate(stimuli):
        compiled = simulate(mult4, stimulus, config=config,
                            engine_kind="compiled")
        assert_results_bit_identical(
            compiled, batch[position], mult4, context="lane %d" % position
        )


def test_sharded_lockstep_matches_in_process(mult4):
    input_names = [net.name for net in mult4.primary_inputs]
    stimuli = random_vector_batch(
        input_names, batch=6, count=2, period=2.5, base_seed=13
    )
    config = ddm_config()
    in_process = simulate_batch(mult4, stimuli, config=config,
                                engine_kind="vector")
    # Through a service each vector runs the engine's single-run kernel.
    with SimulationService(mult4, config=config, workers=2,
                           engine_kind="vector") as service:
        sharded = simulate_batch(mult4, stimuli, config=config,
                                 engine_kind="vector", service=service)
    assert sharded.jobs == 2
    for position in range(len(stimuli)):
        assert_results_bit_identical(
            in_process[position], sharded[position], mult4,
            context="lane %d" % position,
        )


def test_lockstep_batch_with_seed_and_settle(mult4):
    """seed/settle knobs flow through the lockstep driver unchanged."""
    input_names = [net.name for net in mult4.primary_inputs]
    stimuli = random_vector_batch(
        input_names, batch=3, count=2, period=2.5, base_seed=21
    )
    batch = simulate_batch(mult4, stimuli, config=ddm_config(),
                           engine_kind="vector", settle=4.0)
    for position, stimulus in enumerate(stimuli):
        standalone = simulate(mult4, stimulus, config=ddm_config(),
                              engine_kind="reference", settle=4.0)
        assert_results_bit_identical(
            standalone, batch[position], mult4,
            context="lane %d" % position,
        )


def test_run_halotis_vector_matches_single_runs():
    """The experiments layer's lockstep variant equals its single twin."""
    from repro.config import DelayMode

    for mode in (DelayMode.DDM, DelayMode.CDM):
        batch = common.run_halotis_vector(mode)
        assert batch.engine_kind == "vector"
        for which in (1, 2):
            single = common.run_halotis(which, mode, engine_kind="reference")
            result = batch[which - 1]
            assert result.stats.events_executed == (
                single.stats.events_executed
            )
            assert result.final_values == single.final_values
            assert common.settled_words_logic(result, which) == (
                common.expected_words(which)
            )


# ----------------------------------------------------------------------
# operational behaviour
# ----------------------------------------------------------------------

def test_vector_engine_honors_max_events(mult4):
    stimulus = multiplication_sequence(PAPER_SEQUENCE_1)
    config = ddm_config(max_events=10)
    with pytest.raises(SimulationLimitError) as excinfo:
        simulate(mult4, stimulus, config=config, engine_kind="vector")
    assert "event budget (10)" in str(excinfo.value)


def test_lockstep_batch_honors_max_events(mult4):
    stimuli = [multiplication_sequence(PAPER_SEQUENCE_1)] * 3
    config = ddm_config(max_events=10)
    with pytest.raises(SimulationLimitError):
        simulate_batch(mult4, stimuli, config=config, engine_kind="vector")


def test_vector_engine_reuse_across_stimuli(mult4):
    """One VectorSimulator re-initialised per stimulus (the service
    worker pattern) resets all engine state."""
    from repro.core.engine import make_engine

    engine = make_engine(mult4, config=ddm_config(), engine_kind="vector")
    first = run_stimulus(engine, multiplication_sequence(PAPER_SEQUENCE_1))
    second = run_stimulus(engine, multiplication_sequence(PAPER_SEQUENCE_2))
    again = run_stimulus(engine, multiplication_sequence(PAPER_SEQUENCE_1))
    assert first.stats.events_executed == again.stats.events_executed
    assert first.final_values == again.final_values
    assert second.stats.events_executed != first.stats.events_executed
