"""Self-tests of the benchmark harness (fast; no timed run).

Run with ``python -m pytest perfbench -q`` from the repository root.
They cover the latency-percentile rule, that the correctness check has
teeth, that the pinned work counters repeat exactly and are compared,
and that the benchmark refuses to run without the simulator sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench.common import (  # noqa: E402
    MIN_BEYOND,
    closed_loop,
    percentile,
    result_mismatch,
    samples_beyond,
    tail_resolved,
)
from perfbench.layers import PER_LAYER  # noqa: E402


def test_tail_percentile_needs_ten_samples_beyond():
    assert samples_beyond(100, 0.9) == MIN_BEYOND
    assert not tail_resolved(99)
    assert tail_resolved(100)
    values = [float(k) for k in range(1, 101)]
    assert percentile(values, 0.9) == 90.0
    assert sum(value > percentile(values, 0.9) for value in values) == 10
    assert percentile(values, 0.5) == 50.0


def test_closed_loop_runs_until_the_tail_is_resolved():
    loop = closed_loop(lambda index: index, lambda index, out: (1, None),
                       seconds=0.0)
    assert len(loop.latencies) == 100
    assert samples_beyond(len(loop.latencies), 0.9) >= MIN_BEYOND
    assert loop.vectors == loop.attempted == 100


def test_closed_loop_counts_exceptions_as_failed_and_slowest():
    def request(index):
        if index == 3:
            raise RuntimeError("boom")
        return index

    loop = closed_loop(request, lambda index, out: (1, None), seconds=0.0)
    assert loop.failed == 1
    assert loop.latencies.count(math.inf) == 1
    assert loop.latency_ms(1.0) == math.inf


def test_correctness_check_has_teeth():
    from repro import ddm_config, multiplication_sequence, simulate
    from repro.circuit.modules import array_multiplier

    netlist = array_multiplier(2)
    stimulus = multiplication_sequence([(0, 0), (3, 3), (1, 2)], width=2)
    got = simulate(netlist, stimulus, config=ddm_config(),
                   engine_kind="compiled")
    want = simulate(netlist, stimulus, config=ddm_config(),
                    engine_kind="reference")
    assert result_mismatch(got, want) is None
    name = next(name for name in got.traces.names()
                if got.traces[name].transitions)
    got.traces[name].transitions[0].t50 += 1e-12
    assert "transitions differ" in result_mismatch(got, want)


def test_work_counters_repeat_exactly():
    from perfbench.workloads import SingleTrace
    from repro.obs import set_enabled

    class Tiny(SingleTrace):
        pool_size = 3
        pin_requests = 3

    previous = set_enabled(True)
    try:
        first = Tiny(seed=11, root=ROOT)
        first.setup()
        counters = first.pin_sample()
        assert counters == first.pin_sample()
        second = Tiny(seed=11, root=ROOT)
        second.setup()
        assert second.pin_sample() == counters
    finally:
        set_enabled(previous)
    assert counters["events"] > 0 and counters["runs"] == 3
    # A repeated input whose counters change is a failure.
    result = first.request(0)
    result.stats.events_executed += 1
    _vectors, problem = first.check(0, result)
    assert problem is not None


def test_pin_check_compares_pinned_seeds_and_repeats_unpinned_ones():
    from perfbench.run import _pin_check
    from perfbench.workloads import SingleTrace
    from repro.obs import set_enabled

    class Tiny(SingleTrace):
        pool_size = 3
        pin_requests = 3

    problems, how = _pin_check(Tiny(seed=1, root=ROOT), {"events": 1})
    assert how == "pinned" and problems
    previous = set_enabled(True)
    try:
        unpinned = Tiny(seed=77, root=ROOT)
        unpinned.setup()
        counters = unpinned.pin_sample()
        assert _pin_check(unpinned, counters) == ([], "repeat-only")
        counters["events"] += 1
        assert _pin_check(unpinned, counters)[0]
    finally:
        set_enabled(previous)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [
        name for name, _unit, _better in PER_LAYER]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "vectors_per_s", "latency_p50_ms", "latency_p90_ms", "setup_s",
        "peak_rss_mb"}
    pins = json.loads((ROOT / "perfbench" / "pinned.json").read_text())
    assert set(pins["counters"]) == {w["name"] for w in spec["workloads"]}
    for table in pins["counters"].values():
        assert str(pins["holdout_seed"]) in table


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "single-trace",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""

