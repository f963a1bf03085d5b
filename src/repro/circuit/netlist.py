"""Netlist data structures.

This is the paper's Figure 2 class diagram rendered in Python:

* ``Netlist`` owns ``Net`` objects (the paper calls them *Lines*) and
  ``Gate`` objects;
* each ``Gate`` has an ordered list of ``GateInput`` pins and exactly one
  output ``Net``;
* a ``Net`` knows its single driver and its fanout ``GateInput`` list —
  the relation the kernel walks when it broadcasts a new transition.

The structures here are *static*: dynamic simulation state (current input
values, last output transition, pending events) lives in
:mod:`repro.core.state` so that several simulators can share one netlist.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import ConnectivityError, NetlistError
from .cells import CellSpec

if TYPE_CHECKING:
    from ..core.compiled import CompiledNetlist


class Net:
    """A circuit node (the paper's *Line*).

    Attributes:
        name: unique net name.
        driver: the gate driving this net, or None for primary inputs and
            constants.
        fanouts: every :class:`GateInput` reading this net.
        wire_cap: extra interconnect capacitance in fF.
        is_primary_input / is_primary_output: interface flags.
        constant_value: 0 or 1 for tie-cells, else None.
    """

    __slots__ = (
        "name",
        "driver",
        "fanouts",
        "wire_cap",
        "is_primary_input",
        "is_primary_output",
        "constant_value",
        "index",
    )

    def __init__(self, name: str, wire_cap: float = 0.0):
        self.name = name
        self.driver: Optional[Gate] = None
        self.fanouts: List[GateInput] = []
        self.wire_cap = wire_cap
        self.is_primary_input = False
        self.is_primary_output = False
        self.constant_value: Optional[int] = None
        #: dense index assigned by the owning netlist (stable iteration /
        #: array-based simulator state).
        self.index = -1

    @property
    def is_constant(self) -> bool:
        return self.constant_value is not None

    def load(self) -> float:
        """Total capacitive load on this net in fF.

        Sum of fanout pin caps, wire capacitance, and the driver's own
        output (drain) capacitance.
        """
        total = self.wire_cap
        for gate_input in self.fanouts:
            total += gate_input.cap
        if self.driver is not None:
            total += self.driver.cell.output_cap
        return total

    def __repr__(self) -> str:
        return "Net(%r)" % self.name


class GateInput:
    """One input pin instance of one gate.

    Attributes:
        gate: owning gate.
        index: pin position within the gate (the ``i`` of eqs. 2-3).
        net: the net this pin reads.
        vt: effective switching threshold in volts.  Defaults to the cell
            pin's threshold; the builder may override it per instance.
        cap: input capacitance in fF (from the cell pin).
    """

    __slots__ = ("gate", "index", "net", "vt", "cap", "uid")

    def __init__(self, gate: Gate, index: int, net: Net, vt: float, cap: float):
        self.gate = gate
        self.index = index
        self.net = net
        self.vt = vt
        self.cap = cap
        #: dense id across the netlist, assigned by the owning netlist.
        self.uid = -1

    def __repr__(self) -> str:
        return "GateInput(%s.%s <- %s)" % (
            self.gate.name,
            self.gate.cell.pins[self.index].name,
            self.net.name,
        )


class Gate:
    """One gate instance.

    Attributes:
        name: unique instance name.
        cell: the library :class:`CellSpec`.
        inputs: ordered :class:`GateInput` pins.
        output: the driven net.
    """

    __slots__ = ("name", "cell", "inputs", "output", "index")

    def __init__(self, name: str, cell: CellSpec, output: Net):
        self.name = name
        self.cell = cell
        self.inputs: List[GateInput] = []
        self.output = output
        self.index = -1

    def input_nets(self) -> List[Net]:
        return [gate_input.net for gate_input in self.inputs]

    def __repr__(self) -> str:
        return "Gate(%s:%s)" % (self.name, self.cell.name)


class Netlist:
    """A flat, single-output-per-gate gate-level netlist.

    Construction is normally done through
    :class:`repro.circuit.builder.CircuitBuilder`; the methods here are the
    low-level primitives it uses.
    """

    def __init__(self, name: str = "top", vdd: float = 5.0):
        self.name = name
        self.vdd = vdd
        self.nets: Dict[str, Net] = {}
        self.gates: Dict[str, Gate] = {}
        self.primary_inputs: List[Net] = []
        self.primary_outputs: List[Net] = []
        #: bumped on every structural change; lets ``compile()`` and
        #: ``topological_gates()`` cache.
        self._structure_version = 0
        self._compiled_cache = None
        self._topo_cache: Optional[Tuple[int, List[Gate]]] = None

    # ------------------------------------------------------------------
    # construction primitives
    # ------------------------------------------------------------------

    def add_net(self, name: str, wire_cap: float = 0.0) -> Net:
        if name in self.nets:
            raise NetlistError("duplicate net name %r" % name)
        net = Net(name, wire_cap=wire_cap)
        net.index = len(self.nets)
        self.nets[name] = net
        self._structure_version += 1
        return net

    def add_primary_input(self, name: str) -> Net:
        net = self.add_net(name)
        net.is_primary_input = True
        self.primary_inputs.append(net)
        return net

    def add_constant(self, name: str, value: int) -> Net:
        if value not in (0, 1):
            raise NetlistError("constant value must be 0 or 1")
        net = self.add_net(name)
        net.constant_value = value
        return net

    def mark_primary_output(self, net: Net) -> None:
        if not net.is_primary_output:
            net.is_primary_output = True
            self.primary_outputs.append(net)
            # The lowering captures primary-output flags, so marking an
            # output after a compile() must invalidate the cached
            # CompiledNetlist (it would otherwise miss the new output).
            self._structure_version += 1

    def add_gate(
        self,
        name: str,
        cell: CellSpec,
        input_nets: Iterable[Net],
        output_net: Net,
        vt_overrides: Optional[Dict[int, float]] = None,
    ) -> Gate:
        """Instantiate ``cell`` with the given connectivity.

        Args:
            vt_overrides: optional per-pin-index threshold overrides in
                volts (used by experiments that need instance-specific
                thresholds without defining a new cell).
        """
        if name in self.gates:
            raise NetlistError("duplicate gate name %r" % name)
        if output_net.driver is not None:
            raise ConnectivityError(
                "net %r already driven by %s" % (output_net.name, output_net.driver.name)
            )
        if output_net.is_primary_input or output_net.is_constant:
            raise ConnectivityError(
                "net %r is a primary input/constant and cannot be driven" % output_net.name
            )
        input_list = list(input_nets)
        if len(input_list) != cell.num_inputs:
            raise ConnectivityError(
                "gate %s: cell %s has %d pins, got %d nets"
                % (name, cell.name, cell.num_inputs, len(input_list))
            )
        gate = Gate(name, cell, output_net)
        gate.index = len(self.gates)
        for pin_index, net in enumerate(input_list):
            pin = cell.pins[pin_index]
            vt = pin.vt
            if vt_overrides and pin_index in vt_overrides:
                vt = vt_overrides[pin_index]
            if not 0.0 < vt < self.vdd:
                raise ConnectivityError(
                    "gate %s pin %d: threshold %.3f V outside (0, VDD)"
                    % (name, pin_index, vt)
                )
            gate_input = GateInput(gate, pin_index, net, vt=vt, cap=pin.cap)
            gate.inputs.append(gate_input)
            net.fanouts.append(gate_input)
        output_net.driver = gate
        self.gates[name] = gate
        self._renumber_inputs()
        self._structure_version += 1
        return gate

    def _renumber_inputs(self) -> None:
        uid = 0
        for gate in self.gates.values():
            for gate_input in gate.inputs:
                gate_input.uid = uid
                uid += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def num_gate_inputs(self) -> int:
        return sum(len(gate.inputs) for gate in self.gates.values())

    def net(self, name: str) -> Net:
        try:
            return self.nets[name]
        except KeyError:
            raise NetlistError("unknown net %r" % name) from None

    def gate(self, name: str) -> Gate:
        try:
            return self.gates[name]
        except KeyError:
            raise NetlistError("unknown gate %r" % name) from None

    def iter_gate_inputs(self) -> Iterator[GateInput]:
        for gate in self.gates.values():
            yield from gate.inputs

    def invalidate_lowering(self) -> None:
        """Force the next :meth:`compile` to re-lower the netlist.

        Every ``Netlist`` method that changes structure (``add_net``,
        ``add_gate``, ``mark_primary_output``, renames) already
        invalidates the cache.  Call this after mutating attributes
        *directly* — e.g. assigning ``net.wire_cap`` or a
        ``GateInput.vt`` on an already-built circuit — since the
        lowering folds loads and thresholds into its arrays and cannot
        observe those assignments.
        """
        self._structure_version += 1

    def compile(self) -> CompiledNetlist:
        """Lower this netlist into struct-of-arrays form.

        Returns a :class:`repro.core.compiled.CompiledNetlist` snapshot
        of the current structure.  The lowering is cached and reused
        until the netlist changes structurally (``add_net``,
        ``add_gate``, ``mark_primary_output``, net renames, or an
        explicit :meth:`invalidate_lowering`), so repeated simulations
        of the same circuit pay the lowering cost once.
        """
        cached = self._compiled_cache
        if cached is not None and cached[0] == self._structure_version:
            return cached[1]
        from ..core.compiled import CompiledNetlist

        compiled = CompiledNetlist(self)
        self._compiled_cache = (self._structure_version, compiled)
        return compiled

    def source_nets(self) -> List[Net]:
        """Nets with no driving gate: primary inputs and constants."""
        return [net for net in self.nets.values() if net.driver is None]

    # ------------------------------------------------------------------
    # pickling
    # ------------------------------------------------------------------

    def __reduce__(self):
        """Pickle via a flat snapshot instead of the object graph.

        The Net <-> Gate <-> GateInput graph is deeply self-referential,
        so default pickling recurses once per connectivity edge and
        overflows the interpreter stack on circuits of a few hundred
        gates.  Reducing to primitive records (and rebuilding
        iteratively) keeps pickling O(size) with O(1) stack — this is
        what lets batched simulation ship one netlist to worker
        processes (:mod:`repro.core.batch`), and it makes
        ``copy.deepcopy`` work on large circuits as a side effect.
        """
        return (_rebuild_netlist, (self._flat_state(),))

    def _flat_state(self) -> Dict[str, object]:
        """Primitive-only snapshot of the full netlist structure.

        Preserves dict insertion order, dense indices, pin-exact
        ``vt``/``cap`` values (which may have been overridden per
        instance) and whether a lowering was cached, so the rebuilt
        netlist is behaviourally indistinguishable from the original.
        """
        cached = self._compiled_cache
        return {
            "name": self.name,
            "vdd": self.vdd,
            "nets": [
                (
                    net.name,
                    net.wire_cap,
                    net.is_primary_input,
                    net.is_primary_output,
                    net.constant_value,
                    net.index,
                )
                for net in self.nets.values()
            ],
            "primary_inputs": [net.name for net in self.primary_inputs],
            "primary_outputs": [net.name for net in self.primary_outputs],
            "gates": [
                (
                    gate.name,
                    gate.cell,
                    gate.output.name,
                    [gate_input.net.name for gate_input in gate.inputs],
                    [gate_input.vt for gate_input in gate.inputs],
                    [gate_input.cap for gate_input in gate.inputs],
                    gate.index,
                )
                for gate in self.gates.values()
            ],
            "version": self._structure_version,
            # The lowered arrays travel with the snapshot (the lowering
            # strips its netlist back-reference for transport, see
            # CompiledNetlist.__getstate__), so a worker process starts
            # warm without re-lowering.
            "compiled": (
                cached[1]
                if cached is not None and cached[0] == self._structure_version
                else None
            ),
        }

    # ------------------------------------------------------------------
    # ordering
    # ------------------------------------------------------------------

    def topological_gates(self) -> List[Gate]:
        """Gates in topological (driver-before-reader) order.

        The order is cached until the next structural change, like
        :meth:`compile`; each call returns a fresh list.

        Raises:
            NetlistError: when the netlist has a combinational cycle; the
                message names one gate on the cycle.  Feedback circuits
                (e.g. the RS-latch example) must use relaxation-based
                initialisation instead.
        """
        cached = self._topo_cache
        if cached is None or cached[0] != self._structure_version:
            cached = (self._structure_version, self._sort_gates())
            self._topo_cache = cached
        return list(cached[1])

    def _sort_gates(self) -> List[Gate]:
        """Kahn's algorithm over the gate graph (uncached)."""
        remaining_fanin: Dict[Gate, int] = {}
        ready: List[Gate] = []
        for gate in self.gates.values():
            fanin = sum(1 for gi in gate.inputs if gi.net.driver is not None)
            remaining_fanin[gate] = fanin
            if fanin == 0:
                ready.append(gate)
        order: List[Gate] = []
        cursor = 0
        while cursor < len(ready):
            gate = ready[cursor]
            cursor += 1
            order.append(gate)
            for reader in gate.output.fanouts:
                remaining_fanin[reader.gate] -= 1
                if remaining_fanin[reader.gate] == 0:
                    ready.append(reader.gate)
        if len(order) != len(self.gates):
            stuck = next(g for g, n in remaining_fanin.items() if n > 0)
            raise NetlistError(
                "combinational cycle detected (through gate %r)" % stuck.name
            )
        return order

    def has_cycle(self) -> bool:
        try:
            self.topological_gates()
        except NetlistError:
            return True
        return False

    def __repr__(self) -> str:
        return "Netlist(%s: %d gates, %d nets)" % (
            self.name,
            len(self.gates),
            len(self.nets),
        )


def _rebuild_netlist(state: Dict[str, object]) -> Netlist:
    """Inverse of :meth:`Netlist._flat_state` (module-level so pickles
    reference it by qualified name)."""
    netlist = Netlist(state["name"], vdd=state["vdd"])
    for name, wire_cap, is_pi, is_po, constant, index in state["nets"]:
        net = Net(name, wire_cap=wire_cap)
        net.is_primary_input = is_pi
        net.is_primary_output = is_po
        net.constant_value = constant
        net.index = index
        netlist.nets[name] = net
    netlist.primary_inputs = [netlist.nets[n] for n in state["primary_inputs"]]
    netlist.primary_outputs = [netlist.nets[n] for n in state["primary_outputs"]]
    for name, cell, output_name, input_names, vts, caps, index in state["gates"]:
        output_net = netlist.nets[output_name]
        gate = Gate(name, cell, output_net)
        gate.index = index
        for pin_index, input_name in enumerate(input_names):
            gate_input = GateInput(
                gate,
                pin_index,
                netlist.nets[input_name],
                vt=vts[pin_index],
                cap=caps[pin_index],
            )
            gate.inputs.append(gate_input)
            netlist.nets[input_name].fanouts.append(gate_input)
        output_net.driver = gate
        netlist.gates[name] = gate
    netlist._renumber_inputs()
    netlist._structure_version = state["version"]
    compiled = state["compiled"]
    if compiled is not None and compiled.netlist is None:
        # Adopt the transported lowering only when it is detached
        # (pickle/deepcopy strip the back-reference).  copy.copy hands
        # the *live* lowering through the shared state dict — adopting
        # that one would steal it from the original netlist, so a
        # shallow copy simply starts cold and re-lowers on demand.
        compiled.netlist = netlist
        netlist._compiled_cache = (netlist._structure_version, compiled)
    return netlist
