"""Regression tests for the ``Netlist.compile()`` cache.

The cache must be invalidated by *every* structural mutation.  The bug
this file pins down: ``mark_primary_output()`` used to mutate the
netlist without bumping ``_structure_version``, so a ``compile()`` ->
``mark_primary_output()`` -> ``compile()`` sequence served a stale
lowering that missed the newly marked output.
"""

import pytest

from repro.circuit.builder import CircuitBuilder
from repro.circuit.library import default_library


def build_chain():
    builder = CircuitBuilder(name="cache")
    a = builder.input("a")
    y = builder.inv(a, name="g0")
    return builder, y


def test_compile_is_cached_until_structure_changes():
    builder, y = build_chain()
    netlist = builder.netlist
    first = netlist.compile()
    assert netlist.compile() is first
    netlist.add_net("dangling")
    second = netlist.compile()
    assert second is not first
    assert second.num_nets == first.num_nets + 1


def test_mark_primary_output_invalidates_cache():
    builder, y = build_chain()
    netlist = builder.netlist
    stale = netlist.compile()
    assert stale.primary_output_names() == []
    netlist.mark_primary_output(y)
    fresh = netlist.compile()
    assert fresh is not stale, (
        "compile() served the stale lowering after mark_primary_output()"
    )
    assert fresh.primary_output_names() == [y.name]
    assert list(fresh.net_is_po) != list(stale.net_is_po)
    # idempotent re-marking does not thrash the cache
    netlist.mark_primary_output(y)
    assert netlist.compile() is fresh


def test_add_gate_invalidates_cache():
    builder, y = build_chain()
    netlist = builder.netlist
    stale = netlist.compile()
    builder.inv(y, name="g1")
    fresh = netlist.compile()
    assert fresh is not stale
    assert fresh.num_gates == stale.num_gates + 1
    # the new fanout edge is visible in the CSR adjacency
    assert len(fresh.fanout_targets) == len(stale.fanout_targets) + 1


def test_builder_rename_invalidates_cache():
    builder, y = build_chain()
    netlist = builder.netlist
    stale = netlist.compile()
    builder.output(y, "out")  # renames y and marks it an output
    fresh = netlist.compile()
    assert fresh is not stale
    assert "out" in fresh.net_names
    assert fresh.primary_output_names() == ["out"]


def test_invalidate_lowering_covers_direct_attribute_mutation():
    """Direct wire_cap / vt assignments cannot be observed by the cache;
    ``invalidate_lowering()`` is the documented escape hatch."""
    builder, y = build_chain()
    netlist = builder.netlist
    stale = netlist.compile()
    y.wire_cap += 5.0
    # the cache cannot see the attribute write ...
    assert netlist.compile() is stale
    # ... until told about it
    netlist.invalidate_lowering()
    fresh = netlist.compile()
    assert fresh is not stale
    assert fresh.net_load[y.index] == pytest.approx(stale.net_load[y.index] + 5.0)


def test_vt_override_path_is_covered_by_add_gate_bump():
    """Per-instance vt overrides enter through add_gate, which bumps."""
    library = default_library()
    builder = CircuitBuilder(library=library, name="vt")
    a = builder.input("a")
    stale = builder.netlist.compile()
    vdd = library.vdd
    builder.gate("INV", a, name="g0", vt_overrides={0: 0.31 * vdd})
    fresh = builder.netlist.compile()
    assert fresh is not stale
    assert fresh.vt_fraction[0] == pytest.approx(0.31)


def test_topological_order_is_cached_until_structure_changes():
    """``topological_gates()`` shares the compile cache's invalidation
    and hands each caller its own list, so a caller that edits the
    returned list cannot corrupt the next caller's order."""
    builder, y = build_chain()
    netlist = builder.netlist
    first = netlist.topological_gates()
    first.clear()
    second = netlist.topological_gates()
    assert [gate.name for gate in second] == ["g0"]
    assert second is not netlist.topological_gates()
    builder.inv(y, name="g1")
    assert [gate.name for gate in netlist.topological_gates()] == ["g0", "g1"]
