"""Base class for network nodes (switches and hosts).

A node owns a set of :class:`~repro.net.port.OutputPort` objects, one per
attached simplex link, keyed by the neighbor's name.  A node with two or
more ports also holds a static routing table mapping destination host
names to neighbor names; a node with a single port needs none and sends
everything out that port.  Packet motion is push-based: a link calls
:meth:`Node.handle_packet` when a packet arrives.
"""

from __future__ import annotations

from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError
from repro.net.packet import Packet
from repro.net.port import OutputPort

__all__ = ["Node"]


class Node:
    """A network element with named ports and, if it forwards, a next-hop table."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.ports: dict[str, OutputPort] = {}
        self.routes: dict[str, str] = {}
        # The sole port while the node has exactly one; then no table is needed.
        self._only_port: OutputPort | None = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_port(self, neighbor: str, port: OutputPort) -> None:
        """Register the outgoing port toward ``neighbor``."""
        if neighbor in self.ports:
            raise ConfigurationError(f"{self.name}: duplicate port toward {neighbor}")
        self.ports[neighbor] = port
        self._only_port = port if len(self.ports) == 1 else None

    def add_route(self, destination: str, via: str) -> None:
        """Route packets for host ``destination`` out the port to ``via``."""
        if via not in self.ports:
            raise ConfigurationError(
                f"{self.name}: route to {destination} via unknown neighbor {via}"
            )
        self.routes[destination] = via

    def port_toward(self, destination: str) -> OutputPort:
        """The output port used for packets addressed to ``destination``.

        A single-port node uses its only port for every destination.
        """
        if self._only_port is not None:
            return self._only_port
        via = self.routes.get(destination)
        if via is None:
            raise ConfigurationError(f"{self.name}: no route to {destination}")
        return self.ports[via]

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def handle_packet(self, packet: Packet) -> None:
        """Process a packet arriving from a link.  Subclasses override."""
        raise NotImplementedError

    def forward(self, packet: Packet) -> bool:
        """Send ``packet`` toward its destination.

        Returns ``False`` if the output buffer dropped it.
        """
        return self.port_toward(packet.dst).send(packet)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r}, ports={sorted(self.ports)})"
