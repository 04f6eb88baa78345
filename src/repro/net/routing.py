"""Static shortest-path routing.

The paper's topologies are trees (the Figure 1 dumbbell and the
Section 5 switch chain), so every next hop is unique and any correct
shortest-path assignment reproduces its forwarding exactly.

Only *forwarding* nodes — those with two or more neighbours — get a
table.  A node with a single neighbour (every host in the shipped
topologies) has nothing to choose: it sends every packet out its only
port (see :meth:`repro.net.node.Node.port_toward`).  Each forwarding
node runs one breadth-first search over the undirected adjacency; a
destination's next hop is the first hop of the path the search reached
it along.  Neighbours are sorted once, up front, so the search visits
them alphabetically and ties on graphs with cycles break the same way
on every run.

The work is O(S·(V+E)) for S forwarding nodes: two on an N-host
dumbbell, one per switch on a chain.  The tables hold S·H entries for
H destination hosts.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigurationError

__all__ = ["compute_next_hops"]


def compute_next_hops(
    adjacency: dict[str, list[str]], destinations: list[str]
) -> dict[str, dict[str, str]]:
    """Compute next-hop tables for the forwarding nodes.

    Parameters
    ----------
    adjacency:
        Node name → list of neighbor names (undirected; both directions
        must be present).
    destinations:
        Host names that packets can be addressed to.

    Returns
    -------
    dict
        ``tables[node][destination] = neighbor`` for every node with two
        or more neighbours (a node's own name is omitted).  Nodes with a
        single neighbour are absent: that neighbour is their next hop
        toward everything.

    Raises
    ------
    ConfigurationError
        If a destination is not in ``adjacency``, or some node cannot
        reach a destination (partitioned network).
    """
    for dst in destinations:
        if dst not in adjacency:
            raise ConfigurationError(f"destination {dst!r} is not in the topology")
    ordered = {name: sorted(neighbors) for name, neighbors in adjacency.items()}
    if destinations:
        reached = _first_hops(ordered, destinations[0])
        for node in ordered:
            if node not in reached:
                raise ConfigurationError(
                    f"node {node!r} cannot reach {destinations[0]!r}")
    tables: dict[str, dict[str, str]] = {}
    for source, neighbors in ordered.items():
        if len(neighbors) < 2:
            continue
        first_hop = _first_hops(ordered, source)
        tables[source] = {dst: first_hop[dst] for dst in destinations
                          if dst != source}
    return tables


def _first_hops(ordered: dict[str, list[str]], source: str) -> dict[str, str]:
    """BFS from ``source``: every reached node → the first hop toward it.

    ``source`` maps to itself.
    """
    first_hop = {source: source}
    frontier: deque[str] = deque()
    for neighbor in ordered[source]:
        first_hop[neighbor] = neighbor
        frontier.append(neighbor)
    while frontier:
        current = frontier.popleft()
        hop = first_hop[current]
        for neighbor in ordered[current]:
            if neighbor not in first_hop:
                first_hop[neighbor] = hop
                frontier.append(neighbor)
    return first_hop
