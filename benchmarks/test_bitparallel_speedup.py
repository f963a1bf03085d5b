"""Bit-parallel engine throughput: 64+ stimulus lanes per uint64 op.

The bit-parallel backend packs one stimulus vector into each bit of a
python lane word, so a single table-program evaluation (a handful of
word AND/OR/XOR ops) advances every lane at once, and coincident
transitions across lanes collapse into one word event.  Per-lane
*logic* stays exact (pinned in ``tests/core/test_bitparallel_parity.py``);
per-lane event timing follows the word-level CDM contract documented in
``docs/architecture.md``.

This gate drives the wide-activity workload the engine exists for — a
256-lane multiplier batch — and enforces the acceptance bars from the
issue: the word kernel must beat the vector lockstep engine by >= 10x
and N sequential compiled runs by >= 20x.  The per-gate word-op counts
land in the benchmark JSON so a lowering regression (a gate falling off
the word program path) is visible in the trajectory, not just as a
slower number.
"""

from __future__ import annotations

import time

import pytest

pytest.importorskip("numpy")

from repro.config import cdm_config
from repro.core.batch import simulate_batch
from repro.core.engine import simulate
from repro.experiments import common
from repro.stimuli.patterns import random_vector_batch

#: Lanes in the activity batch; the acceptance criterion is N >= 64 per
#: word op, and 256 lanes exercise the multi-word (4 x uint64-sized)
#: packing.
_LANES = 256
_STEPS = 2
_SEED = 19

#: The issue's speed bars on this workload.
_MIN_VS_VECTOR = 10.0
_MIN_VS_SEQUENTIAL = 20.0


def _workload():
    netlist = common.multiplier_netlist()
    stimuli = random_vector_batch(
        [net.name for net in netlist.primary_inputs],
        batch=_LANES,
        count=_STEPS,
        period=2.0,
        base_seed=_SEED,
        tail=2.0,
    )
    return netlist, stimuli


def _throughput_config():
    return cdm_config(record_traces=False)


def _word_kernel(netlist, config, lanes):
    from repro.core.bitparallel import _WordKernel

    return _WordKernel(netlist.compile(), config, lanes)


def test_bitparallel_batch_throughput(benchmark, bench_record):
    """Wall-clock of the word-kernel path, recorded into the trajectory
    together with the per-gate word-op counts."""
    netlist, stimuli = _workload()
    config = _throughput_config()
    batch = benchmark(
        simulate_batch, netlist, stimuli, config=config,
        engine_kind="bitparallel",
    )
    assert batch.engine_kind == "bitparallel"
    aggregate = batch.aggregate_stats()
    assert aggregate.events_executed > 0

    word_ops = _word_kernel(netlist, config, _LANES).word_op_counts()
    benchmark.extra_info["lanes"] = len(batch)
    benchmark.extra_info["events_executed"] = aggregate.events_executed
    benchmark.extra_info["word_ops_per_gate"] = word_ops
    benchmark.extra_info["word_ops_max"] = max(word_ops.values())
    bench_record(
        "bitparallel-throughput",
        config={"engine": "bitparallel", "lanes": _LANES,
                "steps": _STEPS, "seed": _SEED},
        measured={"events_executed": aggregate.events_executed,
                  "word_ops_max": max(word_ops.values())},
    )
    # Every multiplier gate must lower onto the word program path; a
    # -1 here means a gate fell back to per-lane evaluation.
    assert all(ops >= 0 for ops in word_ops.values()), (
        "gates off the word path: %s"
        % sorted(name for name, ops in word_ops.items() if ops < 0)
    )


def test_bitparallel_beats_vector_and_sequential(benchmark, bench_record):
    """The acceptance bars: one 256-lane word-kernel batch must run
    >= 10x faster than the vector lockstep batch and >= 20x faster than
    256 sequential compiled runs of the same stimuli."""
    netlist, stimuli = _workload()
    config = _throughput_config()

    def sequential_s(repeats: int = 3) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for stimulus in stimuli:
                simulate(
                    netlist, stimulus, config=config, engine_kind="compiled"
                )
            best = min(best, time.perf_counter() - start)
        return best

    def batched_s(engine_kind: str, repeats: int = 3) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            simulate_batch(
                netlist, stimuli, config=config, engine_kind=engine_kind
            )
            best = min(best, time.perf_counter() - start)
        return best

    # Warm every path (and the lowering cache, as any repeated workload
    # would).
    simulate(netlist, stimuli[0], config=config, engine_kind="compiled")
    simulate_batch(netlist, stimuli[:8], config=config, engine_kind="vector")
    simulate_batch(
        netlist, stimuli[:8], config=config, engine_kind="bitparallel"
    )

    def measure():
        # Up to 3 attempts keeping the best observed ratios: one noisy
        # scheduler blip on a shared CI runner must not fail the tier-1
        # gate when the steady-state advantage is real.
        best = (0.0, (float("inf"), float("inf"), float("inf")))
        for _attempt in range(3):
            sequential = sequential_s()
            vector = batched_s("vector")
            word = batched_s("bitparallel")
            score = min(
                vector / word / _MIN_VS_VECTOR,
                sequential / word / _MIN_VS_SEQUENTIAL,
            )
            if score > best[0]:
                best = (score, (sequential, vector, word))
            if best[0] >= 1.1:
                break
        return best[1]

    sequential, vector, word = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    word_ops = _word_kernel(netlist, config, _LANES).word_op_counts()
    benchmark.extra_info["lanes"] = _LANES
    benchmark.extra_info["sequential_compiled_s"] = round(sequential, 6)
    benchmark.extra_info["vector_batch_s"] = round(vector, 6)
    benchmark.extra_info["bitparallel_batch_s"] = round(word, 6)
    benchmark.extra_info["speedup_vs_vector"] = round(vector / word, 3)
    benchmark.extra_info["speedup_vs_sequential"] = round(
        sequential / word, 3
    )
    benchmark.extra_info["amortised_per_lane_s"] = round(word / _LANES, 8)
    benchmark.extra_info["word_ops_per_gate"] = word_ops
    bench_record(
        "bitparallel-speedup",
        config={"lanes": _LANES, "steps": _STEPS, "seed": _SEED,
                "min_vs_vector": _MIN_VS_VECTOR,
                "min_vs_sequential": _MIN_VS_SEQUENTIAL},
        measured={"sequential_compiled_s": round(sequential, 6),
                  "vector_batch_s": round(vector, 6),
                  "bitparallel_batch_s": round(word, 6),
                  "speedup_vs_vector": round(vector / word, 3),
                  "speedup_vs_sequential": round(sequential / word, 3)},
    )
    assert vector / word >= _MIN_VS_VECTOR, (
        "word kernel below the %.0fx bar against the vector lockstep "
        "batch (vector %.4fs, bitparallel %.4fs, %.2fx)"
        % (_MIN_VS_VECTOR, vector, word, vector / word)
    )
    assert sequential / word >= _MIN_VS_SEQUENTIAL, (
        "word kernel below the %.0fx bar against %d sequential compiled "
        "runs (sequential %.4fs, bitparallel %.4fs, %.2fx)"
        % (_MIN_VS_SEQUENTIAL, _LANES, sequential, word, sequential / word)
    )


def test_bitparallel_activity_popcount_on_benchmark_workload(benchmark):
    """Guard: on the timed workload, the packed popcount activity path
    agrees with the per-lane statistics the speed run produces."""
    from repro.analysis.activity import (
        activity_summary,
        packed_activity_summary,
    )
    from repro.core.bitparallel import _WordLockstepDriver

    netlist, stimuli = _workload()
    config = _throughput_config()

    def run_and_summarise():
        kernel = _word_kernel(netlist, config, len(stimuli))
        driver = _WordLockstepDriver(netlist, kernel, stimuli, 0.0, None)
        results = driver.run()
        from_words = packed_activity_summary(kernel.packed_toggle_words())
        from_stats = activity_summary(result.stats for result in results)
        return from_words, from_stats

    from_words, from_stats = benchmark(run_and_summarise)
    assert from_words.per_net == from_stats.per_net
    assert from_words.total_transitions == from_stats.total_transitions
    assert from_words.total_transitions > 0
