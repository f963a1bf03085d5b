"""Static timing analyzer + hazard pass: windows, paths, findings.

The dynamic guarantees (every engine's transitions inside the windows)
are property-tested in ``tests/test_sta_oracle.py``; this module pins
the analyzer's own structure: window sanity and ordering, DDM/CDM
containment, critical-path connectivity, hazard classification, the
shared finding model's exit-code contract, the lowered topological
order, and the report/JSON surfaces.
"""

from __future__ import annotations

import pytest

from repro.analysis.findings import Finding, FindingReport, Severity
from repro.analysis.hazards import analyze_hazards
from repro.analysis.sta import analyze, windows_for
from repro.circuit import modules
from repro.circuit.builder import CircuitBuilder
from repro.config import (
    InertialPolicy,
    SimulationConfig,
    cdm_config,
    ddm_config,
)
from repro.errors import AnalysisError, NetlistError, SimulationError


def _chain(length=4):
    return modules.inverter_chain(length)


# ----------------------------------------------------------------------
# windows
# ----------------------------------------------------------------------

def test_primary_input_window_is_the_launch_point():
    report = analyze(_chain(), SimulationConfig())
    window = report.window("in")
    assert window.can_transition
    assert window.arrival_min == 0.0
    assert window.arrival_max == 0.0
    assert window.slew_min == window.slew_max == 0.20


def test_windows_widen_and_arrive_later_along_a_chain():
    report = analyze(_chain(5), SimulationConfig())
    ordered = [
        report.window(name)
        for name in ("in", "out1", "out2", "out3", "out4")
    ]
    for upstream, downstream in zip(ordered, ordered[1:]):
        # The early edge may precede the upstream t50 (a low input
        # threshold crosses before the midpoint, and DDM floors the
        # delay at min_delay), so only the late edge and the window
        # width are monotone along the chain.
        assert downstream.arrival_max > upstream.arrival_max
        assert downstream.width >= upstream.width
    for window in ordered:
        assert window.arrival_min <= window.arrival_max
        assert 0.0 < window.slew_min <= window.slew_max


def test_ddm_windows_contain_cdm_windows():
    """DDM can only shrink delays (floored at min_delay), so its window
    reaches earlier; the late edge is the shared undegraded maximum."""
    netlist = modules.c17()
    ddm = analyze(netlist, ddm_config())
    cdm = analyze(netlist, cdm_config())
    for name, ddm_window in ddm.windows.items():
        cdm_window = cdm.windows[name]
        assert ddm_window.can_transition == cdm_window.can_transition
        if not ddm_window.can_transition:
            continue
        assert ddm_window.arrival_min <= cdm_window.arrival_min + 1e-12
        assert ddm_window.arrival_max >= cdm_window.arrival_max - 1e-12


def test_peak_voltage_policy_only_widens_windows():
    netlist = modules.c17()
    base = analyze(netlist, SimulationConfig())
    peak = analyze(
        netlist,
        SimulationConfig(inertial_policy=InertialPolicy.PEAK_VOLTAGE),
    )
    for name, window in base.windows.items():
        other = peak.windows[name]
        if not window.can_transition:
            continue
        assert other.arrival_min <= window.arrival_min + 1e-12
        assert other.arrival_max >= window.arrival_max - 1e-12


def test_constant_nets_cannot_transition():
    builder = CircuitBuilder(name="const")
    a = builder.input("a")
    one = builder.constant(1)
    builder.output(builder.nand(a, one), "y")
    report = analyze(builder.netlist, SimulationConfig())
    constant = [w for w in report.windows.values() if not w.can_transition]
    assert len(constant) == 1
    assert report.window("y").can_transition


def test_wider_input_slew_interval_widens_windows():
    netlist = _chain()
    narrow = analyze(netlist, SimulationConfig(), input_slew=(0.2, 0.2))
    wide = analyze(netlist, SimulationConfig(), input_slew=(0.1, 0.4))
    for name, window in narrow.windows.items():
        other = wide.windows[name]
        if not window.can_transition:
            continue
        assert other.arrival_min <= window.arrival_min + 1e-12
        assert other.arrival_max >= window.arrival_max - 1e-12
        assert other.slew_min <= window.slew_min + 1e-12
        assert other.slew_max >= window.slew_max - 1e-12


def test_arc_slack_shifts_only_the_late_edge():
    netlist = _chain(3)
    base = analyze(netlist, SimulationConfig())
    slacked = analyze(netlist, SimulationConfig(), arc_slack=0.5)
    # out2 sits two arcs deep: the slack accumulates per level.
    assert slacked.window("out2").arrival_max == pytest.approx(
        base.window("out2").arrival_max + 2 * 0.5
    )
    assert slacked.window("out2").arrival_min == pytest.approx(
        base.window("out2").arrival_min
    )
    with pytest.raises(AnalysisError):
        analyze(netlist, SimulationConfig(), arc_slack=-0.1)


def test_bad_slew_interval_is_rejected():
    with pytest.raises(AnalysisError):
        analyze(_chain(), SimulationConfig(), input_slew=(0.0, 0.2))
    with pytest.raises(AnalysisError):
        analyze(_chain(), SimulationConfig(), input_slew=(0.4, 0.2))


def test_cyclic_circuit_is_rejected_with_analysis_error():
    with pytest.raises(AnalysisError, match="acyclic"):
        analyze(modules.rs_latch(), SimulationConfig())


def test_accepts_a_compiled_netlist_directly():
    netlist = modules.c17()
    via_netlist = analyze(netlist, SimulationConfig())
    via_compiled = analyze(netlist.compile(), SimulationConfig())
    assert via_compiled.windows == via_netlist.windows
    assert via_compiled.netlist_name == via_netlist.netlist_name


# ----------------------------------------------------------------------
# critical paths
# ----------------------------------------------------------------------

def test_critical_paths_are_connected_and_ranked():
    report = analyze(modules.array_multiplier(4), SimulationConfig(),
                     k_paths=5)
    assert len(report.critical_paths) == 5
    arrivals = [path.arrival_max for path in report.critical_paths]
    assert arrivals == sorted(arrivals, reverse=True)
    for path in report.critical_paths:
        assert path.steps, "a gate-driven endpoint must have arcs"
        assert path.steps[-1].to_net == path.endpoint
        launch = report.window(path.steps[0].from_net)
        assert launch.arrival_min == launch.arrival_max == 0.0  # a PI
        for first, second in zip(path.steps, path.steps[1:]):
            assert first.to_net == second.from_net
            assert first.arrival <= second.arrival
        assert path.steps[-1].arrival == pytest.approx(path.arrival_max)


def test_k_paths_zero_skips_extraction():
    report = analyze(modules.c17(), SimulationConfig(), k_paths=0)
    assert report.critical_paths == []


def test_report_surfaces():
    report = analyze(modules.c17(), SimulationConfig(), k_paths=2)
    text = report.format(max_windows=4)
    assert "critical path #1" in text
    assert "latest-arriving nets" in text
    payload = report.to_dict()
    assert payload["gates"] == 6
    assert len(payload["windows"]) == 11
    assert len(payload["critical_paths"]) == 2
    assert payload["delay_mode"] == "ddm"
    with pytest.raises(AnalysisError):
        report.window("no-such-net")


# ----------------------------------------------------------------------
# arc-level and paper-level timing claims
# ----------------------------------------------------------------------

def test_single_inverter_window_is_its_arc_delays(library):
    builder = CircuitBuilder(name="one")
    a = builder.input("a")
    builder.output(builder.gate("INV", a, name="g"), "y")
    netlist = builder.build()
    report = analyze(netlist, cdm_config(), input_slew=(0.2, 0.2))
    load = netlist.net("y").load()
    cell = library.get("INV")
    delays = [cell.arc(0, rising).delay(load, 0.2) for rising in (False, True)]
    # The gate input's event sits at its threshold crossing, which is
    # at most this far from the input ramp's midpoint.
    vt_fraction = netlist.gate("g").inputs[0].vt / netlist.vdd
    offset = abs(vt_fraction - 0.5) * 0.2
    window = report.window("y")
    assert window.arrival_min == pytest.approx(min(delays) - offset)
    assert window.arrival_max == pytest.approx(max(delays) + offset)
    (path,) = report.critical_paths
    assert path.endpoint == "y"
    assert path.steps[0].arc_delay == pytest.approx(max(delays))


def test_inverter_chain_critical_path_runs_the_whole_chain():
    report = analyze(_chain(5), cdm_config())
    critical = report.critical_paths[0]
    assert critical.endpoint == "out5"
    assert len(critical.steps) == 5
    arrivals = [step.arrival for step in critical.steps]
    assert arrivals == sorted(arrivals)


def test_multiplier_constants_do_not_launch(mult4):
    report = analyze(mult4, cdm_config())
    assert not report.window("tie0").can_transition
    assert report.critical_paths[0].arrival_max < float("inf")


def test_multiplier_critical_path_fits_the_paper_period(mult4):
    """The calibration requirement behind the whole evaluation: the
    Figure 5 multiplier settles within the paper's 5 ns vector period."""
    report = analyze(mult4, cdm_config(), input_slew=(0.2, 0.2))
    critical = report.critical_paths[0]
    assert 1.0 < critical.arrival_max < 5.0
    assert critical.endpoint in {"s%d" % k for k in range(8)}


def test_last_cdm_edge_never_exceeds_the_sta_bound(mult4):
    """No committed CDM edge arrives later than the STA bound (the event
    kernel exercises one input vector; STA maxes over all)."""
    from repro.core.engine import simulate
    from repro.stimuli.vectors import multiplication_sequence

    report = analyze(mult4, cdm_config(), input_slew=(0.2, 0.2))
    stimulus = multiplication_sequence([(0, 0), (15, 15)], period=5.0)
    result = simulate(mult4, stimulus, config=cdm_config(),
                      engine_kind="compiled")
    last_edge = max(
        (trace.edges()[-1][0] for trace in result.traces if trace.edges()),
        default=0.0,
    )
    # The vector's 0.2 ns input ramps launch at 5 ns, so their
    # midpoint, the windows' reference point, is at 5.1 ns.
    launch = 5.0 + 0.5 * 0.2
    assert last_edge > launch
    assert last_edge - launch <= report.critical_paths[0].arrival_max + 1e-9


# ----------------------------------------------------------------------
# window cache
# ----------------------------------------------------------------------

def test_windows_for_caches_per_structure_and_knobs():
    netlist = modules.c17()
    config = SimulationConfig()
    first = windows_for(netlist, config, (0.2, 0.2))
    assert windows_for(netlist, config, (0.2, 0.2)) is first
    assert windows_for(netlist, config, (0.1, 0.3)) is not first
    assert windows_for(netlist, cdm_config(), (0.2, 0.2)) is not first
    # structural edits invalidate via the version in the key
    netlist.add_net("fresh")
    assert windows_for(netlist, config, (0.2, 0.2)) is not first


# ----------------------------------------------------------------------
# hazards
# ----------------------------------------------------------------------

def test_inverter_chain_has_no_hazards():
    report = analyze_hazards(_chain(6))
    assert report.generator_candidates == set()
    assert report.flagged == {}
    assert report.carriers == set()
    assert report.findings() == []


def test_reconvergent_fanout_is_flagged_and_propagates():
    # y = NAND(a, NOT a): the textbook static-1 hazard; z = NOT y can
    # only carry the glitch minted on y.
    builder = CircuitBuilder(name="hazard")
    a = builder.input("a")
    y = builder.nand(a, builder.inv(a), name="glitchy")
    builder.output(builder.inv(y), "z")
    netlist = builder.netlist
    report = analyze_hazards(netlist)
    glitch_net = y.name
    assert glitch_net in report.generator_candidates
    assert glitch_net in report.flagged
    assert report.flagged[glitch_net] > 0.0
    assert "z" in report.carriers
    assert report.hazard_nets == {glitch_net, "z"}
    rules = {finding.rule for finding in report.findings()}
    assert rules == {"static-hazard", "hazard-propagation"}
    assert all(
        finding.severity is Severity.WARNING
        for finding in report.findings()
    )


def test_hazard_report_to_dict_is_json_ready():
    import json

    payload = analyze_hazards(modules.c17()).to_dict()
    json.dumps(payload)
    assert set(payload) == {
        "rejection_window", "generator_candidates", "flagged", "carriers",
    }


def test_hazards_reuse_a_supplied_sta_report():
    netlist = modules.c17()
    sta_report = analyze(netlist, SimulationConfig(), k_paths=0)
    direct = analyze_hazards(netlist, sta_report=sta_report)
    recomputed = analyze_hazards(netlist)
    assert direct.flagged == recomputed.flagged


# ----------------------------------------------------------------------
# shared finding model
# ----------------------------------------------------------------------

def test_exit_code_contract():
    clean = FindingReport()
    assert clean.exit_code() == 0
    assert clean.exit_code(strict=True) == 0

    warn = FindingReport([Finding(Severity.WARNING, "w", "warning")])
    assert warn.exit_code() == 0
    assert warn.exit_code(strict=True) == 2

    error = FindingReport([
        Finding(Severity.WARNING, "w", "warning"),
        Finding(Severity.ERROR, "e", "error"),
    ])
    assert error.exit_code() == 2
    assert error.exit_code(strict=True) == 2


def test_finding_report_surfaces():
    report = FindingReport()
    report._add(Severity.ERROR, "some-rule", "broken", net="n1",
                data={"skew": 1.5})
    report.extend([Finding(Severity.WARNING, "other-rule", "meh")])
    assert not report.ok
    assert len(report.errors) == 1 and len(report.warnings) == 1
    payload = report.to_dict()
    assert payload["ok"] is False
    assert payload["findings"][0]["net"] == "n1"
    assert payload["findings"][0]["data"] == {"skew": 1.5}
    assert "net" not in payload["findings"][1]
    text = report.format()
    assert "[error] some-rule: broken" in text
    assert "1 error(s), 1 warning(s)" in text
    assert FindingReport().format() == "no findings"
    with pytest.raises(NetlistError, match="some-rule"):
        report.raise_on_error()


# ----------------------------------------------------------------------
# the lowering's topological order (core/compiled.py helpers)
# ----------------------------------------------------------------------

def test_compiled_topological_order_is_driver_before_reader():
    compiled = modules.array_multiplier(4).compile()
    position = {gate: i for i, gate in enumerate(compiled.topological_order())}
    assert len(position) == compiled.num_gates
    for uid in range(compiled.num_inputs):
        driver = compiled.net_driver[compiled.input_net[uid]]
        if driver >= 0:
            assert position[driver] < position[compiled.input_gate[uid]]


def test_compiled_topological_order_rejects_cycles():
    compiled = modules.rs_latch().compile()
    with pytest.raises(SimulationError, match="cycle"):
        compiled.topological_order()


def test_arc_delay_bounds_hull_contains_interior_slews():
    compiled = modules.c17().compile()
    for uid in range(compiled.num_inputs):
        tp_min, tp_max, tau_min, tau_max = compiled.arc_delay_bounds(
            uid, 0.1, 0.4
        )
        assert tp_min <= tp_max and tau_min <= tau_max
        for params in (compiled.arc_rise[uid], compiled.arc_fall[uid]):
            tp0_base, d_slew, tau_base, s_slew = params[:4]
            for tau_in in (0.1, 0.25, 0.4):
                assert tp_min - 1e-12 <= tp0_base + d_slew * tau_in <= tp_max + 1e-12
                assert tau_min - 1e-12 <= tau_base + s_slew * tau_in <= tau_max + 1e-12
