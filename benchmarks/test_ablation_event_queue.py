"""Ablation C — event-queue implementation: binary heap vs sorted list.

The kernel's hot path is queue push/pop/cancel.  Both implementations
must order events identically (also property-tested in tests/); here we
measure the throughput difference on the full Table 1 workload, with the
reference kernel driving each queue.
"""

import pytest

from repro.config import ddm_config
from repro.core.engine import HalotisSimulator, run_stimulus
from repro.core.event_queue import BinaryHeapQueue, SortedListQueue
from repro.experiments import common
from repro.stimuli.vectors import multiplication_sequence


def _simulate_on(queue_class, stimulus, config):
    simulator = HalotisSimulator(common.multiplier_netlist(), config=config)
    simulator.queue = queue_class()
    return run_stimulus(simulator, stimulus)


@pytest.mark.parametrize(
    "queue_class", [BinaryHeapQueue, SortedListQueue],
    ids=["heap", "sorted-list"],
)
def test_queue_throughput(benchmark, queue_class):
    stimulus = multiplication_sequence(common.SEQUENCE_OPERANDS[2])
    config = ddm_config(record_traces=False)
    result = benchmark(_simulate_on, queue_class, stimulus, config)
    assert result.stats.events_executed > 0


def test_queue_kinds_identical_results(benchmark):
    stimulus = multiplication_sequence(common.SEQUENCE_OPERANDS[1])

    def run_both():
        heap = _simulate_on(BinaryHeapQueue, stimulus, ddm_config())
        sorted_list = _simulate_on(SortedListQueue, stimulus, ddm_config())
        return heap, sorted_list

    heap, sorted_list = benchmark(run_both)
    assert heap.stats.events_executed == sorted_list.stats.events_executed
    assert heap.stats.events_filtered == sorted_list.stats.events_filtered
    for name in common.output_nets():
        assert heap.traces[name].edges() == sorted_list.traces[name].edges()
