"""Static timing analysis of library circuits, through repro.analysis.sta.

The analyzer's own structure (windows, paths, hazards, JSON) is pinned
in ``tests/test_sta.py``; these cases keep the circuit-level claims on
the ring oscillator and the Figure 5 multiplier.
"""

import pytest

from repro.analysis.sta import analyze
from repro.circuit import modules
from repro.config import cdm_config
from repro.errors import AnalysisError


def test_cyclic_netlist_rejected():
    ring = modules.ring_oscillator(5)
    with pytest.raises(AnalysisError, match="acyclic"):
        analyze(ring, cdm_config())
    with pytest.raises(AnalysisError, match="acyclic"):
        analyze(ring.compile(), cdm_config())


def test_report_format(mult4):
    report = analyze(mult4, cdm_config(), k_paths=1)
    text = report.format(max_windows=5)
    assert "critical path #1" in text
    assert "latest-arriving nets (5 of" in text
    assert "mode cdm" in text
    assert "ns" in text
