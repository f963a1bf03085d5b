"""The persistent warm-engine service: parity, failure paths, lifecycle.

The service's contract extends the batch contract: a vector simulated on
a warm pooled worker is bit-identical — traces, raw transition streams,
final values, every statistics counter except wall-clock — to a
standalone ``simulate()``, *regardless of the result transport* (shared
memory or pickle) and across worker crashes.  These tests pin that, plus
the operational surface: crash detection with restart + requeue, retry
budgets, close()/context-manager shutdown, and the shm-unavailable
pickle fallback.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.config import cdm_config, ddm_config
from repro.core import service as service_module
from repro.core.batch import simulate_batch
from repro.core.engine import simulate
from repro.core.service import SimulationService
from repro.core.shm_transport import pack_result, unpack_result
from repro.errors import ServiceError
from repro.experiments import common
from repro.stimuli.patterns import random_vector_batch

from test_backend_parity import random_netlist, random_stimulus
from test_batch import _STATS_FIELDS


def assert_results_identical(result, standalone, netlist, context=""):
    for field in _STATS_FIELDS:
        assert getattr(result.stats, field) == getattr(
            standalone.stats, field
        ), "%s: stats.%s differs" % (context, field)
    assert result.final_values == standalone.final_values, context
    assert result.traces.horizon == standalone.traces.horizon, context
    assert result.traces.names() == standalone.traces.names(), context
    for name in standalone.traces.names():
        got, want = result.traces[name], standalone.traces[name]
        assert got.initial_value == want.initial_value, (context, name)
        got_raw = [
            (t.t50, t.duration, t.rising, t.net_name,
             t.degradation_factor, t.cause_time)
            for t in got.transitions
        ]
        want_raw = [
            (t.t50, t.duration, t.rising, t.net_name,
             t.degradation_factor, t.cause_time)
            for t in want.transitions
        ]
        assert got_raw == want_raw, (context, name)


# ----------------------------------------------------------------------
# parity: shm and pickle transports, both engines, both delay modes
# ----------------------------------------------------------------------

@pytest.mark.parametrize("shm", [True, False], ids=["shm", "pickle"])
@pytest.mark.parametrize("engine_kind", ["reference", "compiled", "vector"])
@pytest.mark.parametrize("mode", ["ddm", "cdm"])
def test_service_parity_with_standalone(mult4, mode, engine_kind, shm):
    config = ddm_config() if mode == "ddm" else cdm_config()
    stimuli = common.paper_stimulus_batch()
    with SimulationService(
        mult4, config=config, workers=2, engine_kind=engine_kind,
        shm_transport=shm,
    ) as service:
        assert service.transport == ("shm" if shm else "pickle")
        batch = service.run_batch(stimuli)
    assert len(batch) == len(stimuli)
    for position, stimulus in enumerate(stimuli):
        standalone = simulate(
            mult4, stimulus, config=config, engine_kind=engine_kind
        )
        assert batch[position].simulator is None
        assert_results_identical(
            batch[position], standalone, mult4,
            context="%s/%s vector %d" % (mode, engine_kind, position),
        )


def test_shm_and_pickle_transports_bit_identical(mult4):
    """The two transports of the *same* workload agree record-for-record."""
    stimuli = common.paper_stimulus_batch()
    config = ddm_config()
    with SimulationService(
        mult4, config=config, workers=2, engine_kind="compiled",
        shm_transport=True,
    ) as shm_service:
        via_shm = shm_service.run_batch(stimuli)
    with SimulationService(
        mult4, config=config, workers=2, engine_kind="compiled",
        shm_transport=False,
    ) as pickle_service:
        via_pickle = pickle_service.run_batch(stimuli)
    for position in range(len(stimuli)):
        assert_results_identical(
            via_shm[position], via_pickle[position], mult4,
            context="vector %d" % position,
        )


def test_service_parity_on_random_circuit():
    netlist = random_netlist(5, 4, 14)
    input_names = [net.name for net in netlist.primary_inputs]
    stimuli = [
        random_stimulus(41 + k, input_names, vectors=2 + k % 3)
        for k in range(6)
    ]
    with SimulationService(
        netlist, config=ddm_config(), workers=3, engine_kind="compiled"
    ) as service:
        batch = service.run_batch(stimuli)
    for position, stimulus in enumerate(stimuli):
        standalone = simulate(
            netlist, stimulus, config=ddm_config(), engine_kind="compiled"
        )
        assert_results_identical(
            batch[position], standalone, netlist,
            context="vector %d" % position,
        )


def test_warm_service_survives_many_batches(mult4):
    """Steady state: batches keep flowing through the same worker set."""
    stimuli = common.paper_stimulus_batch()
    with SimulationService(
        mult4, config=ddm_config(record_traces=False), workers=2,
        engine_kind="compiled",
    ) as service:
        pids = {worker.process.pid for worker in service._workers}
        reference = service.run_batch(stimuli)
        for _round in range(3):
            batch = service.run_batch(stimuli)
            assert batch.lowering_seconds == 0.0
            for got, want in zip(batch, reference):
                assert got.final_values == want.final_values
                assert got.stats.events_executed == want.stats.events_executed
        assert {w.process.pid for w in service._workers} == pids
        assert service.worker_restarts == 0


@pytest.mark.parametrize("shm", [True, False], ids=["shm", "pickle"])
def test_chunked_batches_bit_identical_to_unchunked(mult4, shm):
    """``chunk > 1`` is pure transport amortisation: results are
    bit-identical to the per-vector dispatch on both transports, in
    input order, including a ragged final chunk."""
    stimuli = common.paper_stimulus_batch() * 2  # 10 vectors, chunk 4 -> ragged
    config = ddm_config()
    with SimulationService(
        mult4, config=config, workers=2, engine_kind="compiled",
        shm_transport=shm,
    ) as service:
        unchunked = service.submit_batch(stimuli).wait()
        chunked = service.submit_batch(stimuli, chunk=4).wait()
        whole = service.submit_batch(stimuli, chunk=len(stimuli)).wait()
    for position in range(len(stimuli)):
        assert_results_identical(
            chunked[position], unchunked[position], mult4,
            context="chunk=4 vector %d" % position,
        )
        assert_results_identical(
            whole[position], unchunked[position], mult4,
            context="chunk=all vector %d" % position,
        )


def test_chunk_must_be_positive(mult4):
    stimuli = common.paper_stimulus_batch()
    with (
        SimulationService(
            mult4, config=ddm_config(), workers=1, engine_kind="compiled"
        ) as service,
        pytest.raises(ServiceError, match="chunk"),
    ):
        service.submit_batch(stimuli, chunk=0)


def test_error_mid_chunk_fails_the_batch_cleanly(mult4):
    """A stimulus exception inside a chunk fails the job with the
    offending vector's index; the pool keeps serving."""
    input_names = [net.name for net in mult4.primary_inputs]
    good = random_vector_batch(
        input_names, batch=5, count=1, period=3.0, base_seed=53
    )
    bad = random_vector_batch(
        ["not-a-net"], batch=1, count=1, period=3.0, base_seed=53
    )
    mixed = good[:3] + bad + good[3:]
    with SimulationService(
        mult4, config=ddm_config(), workers=1, engine_kind="compiled"
    ) as service:
        with pytest.raises(ServiceError, match="vector 3 failed"):
            service.submit_batch(mixed, chunk=3).wait()
        assert service.worker_restarts == 0
        batch = service.run_batch(good)
        assert len(batch) == len(good)


def test_as_completed_yields_every_vector(mult4):
    input_names = [net.name for net in mult4.primary_inputs]
    stimuli = random_vector_batch(
        input_names, batch=6, count=2, period=3.0, base_seed=23
    )
    with SimulationService(
        mult4, config=ddm_config(record_traces=False), workers=2,
        engine_kind="compiled",
    ) as service:
        job = service.submit_batch(stimuli)
        seen = dict(job.as_completed())
    assert sorted(seen) == list(range(len(stimuli)))
    for index, stimulus in enumerate(stimuli):
        standalone = simulate(
            mult4, stimulus, config=ddm_config(record_traces=False),
            engine_kind="compiled",
        )
        assert seen[index].final_values == standalone.final_values


def test_shm_buffer_grows_for_large_traces(mult4):
    """A payload past the initial 64 KiB segment forces buffer growth;
    results stay bit-identical before, across and after the growth."""
    input_names = [net.name for net in mult4.primary_inputs]
    small = random_vector_batch(
        input_names, batch=2, count=2, period=2.0, base_seed=3
    )
    # ~75 KB of packed records on this workload: one growth step.
    large = random_vector_batch(
        input_names, batch=2, count=30, period=2.0, base_seed=3
    )
    with SimulationService(
        mult4, config=ddm_config(), workers=1, engine_kind="compiled",
        shm_transport=True,
    ) as service:
        ordered = service.run_batch(small + large + small)
        worker = service._workers[0]
        assert worker.last_segment is not None
        assert worker.last_segment.endswith("g2"), (
            "expected one buffer growth, last segment %r"
            % worker.last_segment
        )
    for position, stimulus in enumerate(small + large + small):
        standalone = simulate(
            mult4, stimulus, config=ddm_config(), engine_kind="compiled"
        )
        assert_results_identical(
            ordered[position], standalone, mult4,
            context="growth vector %d" % position,
        )


# ----------------------------------------------------------------------
# the simulate_batch(..., service=...) front end
# ----------------------------------------------------------------------

def test_simulate_batch_routes_through_service(mult4):
    stimuli = common.paper_stimulus_batch()
    config = ddm_config()
    with SimulationService(
        mult4, config=config, workers=2, engine_kind="compiled"
    ) as service:
        batch = simulate_batch(
            mult4, stimuli, config=config, engine_kind="compiled",
            service=service,
        )
        assert batch.jobs == 2
        assert batch.engine_kind == "compiled"
        plain = simulate_batch(
            mult4, stimuli, config=config, engine_kind="compiled"
        )
        for got, want in zip(batch, plain):
            assert got.final_values == want.final_values
            assert got.stats.events_executed == want.stats.events_executed


def test_simulate_batch_service_knob_mismatches(mult4, c17):
    config = ddm_config()
    stimuli = common.paper_stimulus_batch()
    with SimulationService(
        mult4, config=config, workers=1, engine_kind="compiled"
    ) as service:
        with pytest.raises(ServiceError):
            simulate_batch(c17, stimuli, service=service)
        with pytest.raises(ServiceError):
            simulate_batch(
                mult4, stimuli, engine_kind="reference", service=service
            )
        with pytest.raises(ServiceError):
            simulate_batch(mult4, stimuli, config=ddm_config(), service=service)


def test_run_halotis_service_matches_single_runs():
    from repro.config import DelayMode

    for mode in (DelayMode.DDM, DelayMode.CDM):
        batch = common.run_halotis_service(mode)
        for which in (1, 2):
            single = common.run_halotis(which, mode, engine_kind="compiled")
            result = batch[which - 1]
            assert result.stats.events_executed == single.stats.events_executed
            assert result.final_values == single.final_values
            assert common.settled_words_logic(result, which) == (
                common.expected_words(which)
            )


# ----------------------------------------------------------------------
# failure paths
# ----------------------------------------------------------------------

class _CrashOnceStimulus:
    """Hard-crashes the first worker process that touches it, then runs
    normally — the flag file records that the crash already happened.

    Stimuli cross the process boundary by pickle, so this must be a
    module-level class.
    """

    def __init__(self, inner, flag_path):
        self._inner = inner
        self._flag_path = flag_path
        self.horizon = inner.horizon

    def _maybe_crash(self):
        if not os.path.exists(self._flag_path):
            with open(self._flag_path, "w") as handle:
                handle.write("crashed")
            os._exit(17)

    def initial_values(self, netlist):
        self._maybe_crash()
        return self._inner.initial_values(netlist)

    def iter_changes(self):
        return self._inner.iter_changes()


class _AlwaysCrashStimulus(_CrashOnceStimulus):
    """Kills every worker that touches it; exhausts the retry budget."""

    def _maybe_crash(self):
        os._exit(17)


def test_worker_killed_mid_batch_restarts_and_requeues(mult4):
    input_names = [net.name for net in mult4.primary_inputs]
    stimuli = random_vector_batch(
        input_names, batch=8, count=2, period=3.0, base_seed=7
    )
    config = ddm_config(record_traces=False)
    with SimulationService(
        mult4, config=config, workers=2, engine_kind="compiled"
    ) as service:
        job = service.submit_batch(stimuli)
        os.kill(service._workers[0].process.pid, signal.SIGKILL)
        results = job.wait()
        assert service.worker_restarts >= 1
        # Both workers alive again after recovery.
        assert all(w.process.is_alive() for w in service._workers)
        for index, stimulus in enumerate(stimuli):
            standalone = simulate(
                mult4, stimulus, config=config, engine_kind="compiled"
            )
            assert results[index].final_values == standalone.final_values
            assert (
                results[index].stats.events_executed
                == standalone.stats.events_executed
            )
        # The service keeps serving after the crash.
        again = service.run_batch(stimuli[:2])
        assert len(again) == 2


def test_crashing_stimulus_is_requeued_and_recovers(mult4, tmp_path):
    input_names = [net.name for net in mult4.primary_inputs]
    plain = random_vector_batch(
        input_names, batch=3, count=1, period=3.0, base_seed=31
    )
    flag = str(tmp_path / "crashed-once")
    stimuli = [plain[0], _CrashOnceStimulus(plain[1], flag), plain[2]]
    with SimulationService(
        mult4, config=ddm_config(record_traces=False), workers=2,
        engine_kind="compiled",
    ) as service:
        results = service.submit_batch(stimuli).wait()
        assert service.worker_restarts == 1
        assert service.tasks_requeued == 1
    assert os.path.exists(flag)
    for index in range(3):
        standalone = simulate(
            mult4, plain[index], config=ddm_config(record_traces=False),
            engine_kind="compiled",
        )
        assert results[index].final_values == standalone.final_values


def test_poison_stimulus_exhausts_retry_budget(mult4, tmp_path):
    input_names = [net.name for net in mult4.primary_inputs]
    plain = random_vector_batch(
        input_names, batch=2, count=1, period=3.0, base_seed=37
    )
    poison = _AlwaysCrashStimulus(plain[0], str(tmp_path / "unused"))
    with SimulationService(
        mult4, config=ddm_config(record_traces=False), workers=1,
        engine_kind="compiled", max_task_retries=1,
    ) as service:
        with pytest.raises(ServiceError, match="crashed its worker"):
            service.submit_batch([poison]).wait()
        # 1 initial attempt + 1 retry, each killing a worker.
        assert service.worker_restarts == 2
        # The service is not poisoned: fresh work still runs.
        batch = service.run_batch(plain)
        assert len(batch) == 2


def test_simulation_error_propagates_without_killing_workers(mult4):
    """A stimulus *exception* (vs. a crash) fails the batch cleanly."""
    input_names = [net.name for net in mult4.primary_inputs]
    good = random_vector_batch(
        input_names, batch=1, count=1, period=3.0, base_seed=43
    )
    bad = random_vector_batch(
        ["not-a-net"], batch=1, count=1, period=3.0, base_seed=43
    )
    with SimulationService(
        mult4, config=ddm_config(), workers=1, engine_kind="compiled"
    ) as service:
        with pytest.raises(ServiceError, match="StimulusError"):
            service.submit_batch(bad).wait()
        assert service.worker_restarts == 0
        batch = service.run_batch(good)
        assert len(batch) == 1


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------

class _WedgedStimulus(_CrashOnceStimulus):
    """Blocks its worker in a long sleep — simulates wedged native code
    (or a runaway vector) that ignores the poison pill at close time."""

    def _maybe_crash(self):
        import time

        time.sleep(60.0)


def test_close_on_wedged_worker_is_bounded(mult4):
    """close() must escalate (join timeout -> terminate -> kill) and
    return promptly instead of waiting a wedged worker out."""
    import time

    input_names = [net.name for net in mult4.primary_inputs]
    plain = random_vector_batch(
        input_names, batch=1, count=1, period=3.0, base_seed=51
    )
    service = SimulationService(
        mult4, config=ddm_config(record_traces=False), workers=1,
        engine_kind="compiled",
    )
    service.submit_batch([_WedgedStimulus(plain[0], "unused")])
    # Let the worker actually pick the task up before closing.
    time.sleep(0.3)
    processes = [worker.process for worker in service._workers]
    start = time.monotonic()
    service.close(timeout=0.5)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, "close() hung %.1fs on a wedged worker" % elapsed
    assert service.closed
    assert all(not process.is_alive() for process in processes)
    service.close()  # still idempotent afterwards


def test_close_on_already_crashed_pool_is_quick(mult4):
    """Every worker SIGKILLed behind the service's back: close() must
    neither hang nor raise."""
    import time

    service = SimulationService(
        mult4, config=ddm_config(), workers=2, engine_kind="compiled"
    )
    for worker in service._workers:
        os.kill(worker.process.pid, signal.SIGKILL)
        worker.process.join(5.0)
    start = time.monotonic()
    service.close(timeout=2.0)
    assert time.monotonic() - start < 10.0
    assert service.closed
    service.close()


def test_failed_construction_leaves_closeable_wreckage(mult4):
    """A constructor failure before worker spawn must leave close()
    (and therefore __del__) a safe no-op — the never-started pool."""
    from repro.errors import SimulationError as _SimulationError

    try:
        SimulationService(mult4, engine_kind="no-such-backend")
    except _SimulationError as error:
        assert "no-such-backend" in str(error)
    else:  # pragma: no cover
        pytest.fail("bad engine kind must raise")
    # The same early-attribute guarantee, exercised directly: close()
    # before any worker exists.
    service = SimulationService.__new__(SimulationService)
    service._closed = False
    service._workers = []
    service._result_queue = None
    service._attachments = {}
    service.close()
    assert service.closed


def test_close_is_idempotent_and_terminal(mult4):
    service = SimulationService(
        mult4, config=ddm_config(), workers=2, engine_kind="compiled"
    )
    processes = [worker.process for worker in service._workers]
    service.close()
    service.close()
    assert service.closed
    assert all(not process.is_alive() for process in processes)
    with pytest.raises(ServiceError):
        service.submit_batch(common.paper_stimulus_batch())


def test_context_manager_closes_on_exit(mult4):
    with SimulationService(
        mult4, config=ddm_config(), workers=1, engine_kind="compiled"
    ) as service:
        processes = [worker.process for worker in service._workers]
    assert service.closed
    assert all(not process.is_alive() for process in processes)


def test_submit_rejects_empty_and_bad_workers(mult4):
    with pytest.raises(ServiceError):
        SimulationService(mult4, workers=0)
    with (
        SimulationService(mult4, workers=1) as service,
        pytest.raises(ServiceError),
    ):
        service.submit_batch([])


def test_config_service_knobs_flow_through(mult4):
    config = ddm_config(service_workers=3, shm_transport=False,
                        engine_kind="compiled")
    with SimulationService(mult4, config=config) as service:
        assert service.workers == 3
        assert service.transport == "pickle"
        assert service.engine_kind == "compiled"


def test_shm_unavailable_falls_back_to_pickle(mult4, monkeypatch):
    """Platforms without shared memory still serve bit-identical results."""
    monkeypatch.setattr(service_module, "_shared_memory", None)
    stimuli = common.paper_stimulus_batch()
    with SimulationService(
        mult4, config=ddm_config(), workers=2, engine_kind="compiled",
        shm_transport=True,  # requested, but unavailable
    ) as service:
        assert service.transport == "pickle"
        batch = service.run_batch(stimuli)
    for position, stimulus in enumerate(stimuli):
        standalone = simulate(
            mult4, stimulus, config=ddm_config(), engine_kind="compiled"
        )
        assert_results_identical(
            batch[position], standalone, mult4,
            context="fallback vector %d" % position,
        )


# ----------------------------------------------------------------------
# the packed record codec itself
# ----------------------------------------------------------------------

def test_pack_unpack_roundtrip_is_lossless(mult4):
    result = simulate(
        mult4, common.paper_stimulus(1), config=ddm_config(),
        engine_kind="compiled",
    )
    payload, meta = pack_result(result)
    assert meta["nbytes"] == len(payload)
    # Oversized buffer: unpack must honor nbytes, not buffer length.
    rebuilt = unpack_result(meta, payload + b"\x00" * 64)
    assert_results_identical(rebuilt, result, mult4, context="roundtrip")
    assert rebuilt.simulator is None


def test_pack_unpack_handles_empty_traces(mult4):
    result = simulate(
        mult4, common.paper_stimulus(1),
        config=ddm_config(record_traces=False), engine_kind="compiled",
    )
    payload, meta = pack_result(result)
    assert payload == b""
    rebuilt = unpack_result(meta, payload)
    assert rebuilt.final_values == result.final_values
    assert len(rebuilt.traces) == 0
