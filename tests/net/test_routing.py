"""Unit tests for repro.net.routing (BFS next hops)."""

from collections import deque

import networkx as nx
import pytest

from repro.engine import Simulator
from repro.errors import ConfigurationError
from repro.net import (
    Host,
    Network,
    Packet,
    PacketKind,
    build_chain,
    build_dumbbell,
    compute_next_hops,
)
from repro.tcp.connection import make_connection


def _reference_next_hops(adjacency, destinations):
    """The original per-destination BFS, kept as a test oracle.

    One search outward from every destination; the parent pointer at
    each node is its next hop.  It fills a table on every node, hosts
    included, in O(H·(V+E)·log d).
    """
    tables = {name: {} for name in adjacency}
    for dst in destinations:
        parent = {dst: dst}
        frontier = deque([dst])
        while frontier:
            current = frontier.popleft()
            for neighbor in sorted(adjacency[current]):
                if neighbor not in parent:
                    parent[neighbor] = current
                    frontier.append(neighbor)
        for node in adjacency:
            if node != dst:
                tables[node][dst] = parent[node]
    return tables


def _chain(names):
    adjacency = {name: [] for name in names}
    for a, b in zip(names, names[1:]):
        adjacency[a].append(b)
        adjacency[b].append(a)
    return adjacency


def _next_hop(tables, adjacency, node, dst):
    """``node``'s next hop toward ``dst``: its table, else its sole neighbour."""
    if node in tables:
        return tables[node][dst]
    (only,) = adjacency[node]
    return only


def _network(adjacency, hosts):
    """A :class:`Network` over ``adjacency``: ``hosts`` are hosts, the rest switches."""
    net = Network(Simulator())
    for name in adjacency:
        if name in hosts:
            net.add_host(name)
        else:
            net.add_switch(name)
    for a, neighbors in adjacency.items():
        for b in neighbors:
            if a < b:
                net.connect(net.nodes[a], net.nodes[b], 1e6, 0.001, None, None)
    net.compute_routes()
    return net


def _assert_matches_reference(net):
    """Every (node, host) next hop equals the per-destination reference."""
    adjacency = {name: list(node.ports) for name, node in net.nodes.items()}
    hosts = [name for name, node in net.nodes.items() if isinstance(node, Host)]
    reference = _reference_next_hops(adjacency, hosts)
    for name, node in net.nodes.items():
        if len(node.ports) == 1:
            assert node.routes == {}
        for dst in hosts:
            if dst != name:
                expected = reference[name][dst]
                assert node.port_toward(dst) is net.port(name, expected)


class TestChainRouting:
    def test_two_node_chain(self):
        adjacency = _chain(["a", "b"])
        assert compute_next_hops(adjacency, ["a", "b"]) == {}
        net = _network(adjacency, {"a", "b"})
        assert net.nodes["a"].port_toward("b") is net.port("a", "b")
        assert net.nodes["b"].port_toward("a") is net.port("b", "a")

    def test_multi_hop_chain(self):
        adjacency = _chain(["a", "b", "c", "d"])
        tables = compute_next_hops(adjacency, ["a", "d"])
        assert tables["b"]["d"] == "c"
        assert tables["c"]["d"] == "d"
        net = _network(adjacency, {"a", "d"})
        assert net.nodes["a"].port_toward("d") is net.port("a", "b")
        assert net.nodes["d"].port_toward("a") is net.port("d", "c")

    def test_destination_has_no_self_route(self):
        tables = compute_next_hops(_chain(["a", "b", "c"]), ["a", "b", "c"])
        assert tables == {"b": {"a": "a", "c": "c"}}


class TestStarRouting:
    def test_star(self):
        adjacency = {
            "hub": ["s1", "s2", "s3"],
            "s1": ["hub"], "s2": ["hub"], "s3": ["hub"],
        }
        tables = compute_next_hops(adjacency, ["s1", "s2", "s3"])
        assert tables["hub"]["s3"] == "s3"
        assert list(tables) == ["hub"]
        net = _network(adjacency, {"s1", "s2", "s3"})
        assert net.nodes["s1"].port_toward("s2") is net.port("s1", "hub")


class TestErrors:
    def test_unknown_destination(self):
        with pytest.raises(ConfigurationError):
            compute_next_hops(_chain(["a", "b"]), ["z"])

    def test_partitioned_network(self):
        adjacency = {"a": ["b"], "b": ["a"], "c": []}
        with pytest.raises(ConfigurationError):
            compute_next_hops(adjacency, ["a"])


class TestUnroutableDestinations:
    def test_host_send_to_unknown_host_fails_at_first_switch(self):
        sim = Simulator()
        net = build_dumbbell(sim)
        packet = Packet(conn_id=1, kind=PacketKind.DATA, seq=0, size=500)
        # host1 has no table: the packet leaves on its only port ...
        assert net.host("host1").send(packet, "nowhere")
        # ... and sw1, which does route, rejects it on arrival.
        with pytest.raises(ConfigurationError, match="^sw1: no route to nowhere$"):
            sim.run()

    def test_connection_to_unknown_host_fails_at_build_time(self):
        sim = Simulator()
        net = build_dumbbell(sim)
        with pytest.raises(ConfigurationError):
            make_connection(sim, net, 1, "host1", "nowhere")
        with pytest.raises(ConfigurationError):
            make_connection(sim, net, 2, "nowhere", "host2")


class TestAgainstReference:
    """The per-forwarding-node search equals the per-destination BFS on trees."""

    @pytest.mark.parametrize("n_left,n_right", [(1, 1), (4, 4), (1, 5), (256, 256)])
    def test_dumbbell(self, n_left, n_right):
        net = build_dumbbell(Simulator(), n_left=n_left, n_right=n_right)
        _assert_matches_reference(net)

    @pytest.mark.parametrize("n_switches,hosts_per_switch", [(4, 1), (3, 2)])
    def test_chain(self, n_switches, hosts_per_switch):
        net = build_chain(Simulator(), n_switches=n_switches,
                          hosts_per_switch=hosts_per_switch)
        _assert_matches_reference(net)

    @pytest.mark.parametrize("seed", range(24))
    def test_random_tree(self, seed):
        graph = nx.random_labeled_tree(5 + seed, seed=seed)
        graph = nx.relabel_nodes(graph, {n: f"n{n}" for n in graph.nodes})
        adjacency = {node: list(graph.neighbors(node)) for node in graph.nodes}
        destinations = list(adjacency)
        tables = compute_next_hops(adjacency, destinations)
        reference = _reference_next_hops(adjacency, destinations)
        for node, neighbors in adjacency.items():
            assert (node in tables) == (len(neighbors) >= 2)
            for dst in destinations:
                if dst != node:
                    hop = _next_hop(tables, adjacency, node, dst)
                    assert hop == reference[node][dst]


class TestRouteTableSize:
    """Tables grow linearly: switches × hosts, nothing on single-port hosts."""

    @pytest.mark.parametrize("n", [1, 4, 512])
    def test_dumbbell(self, n):
        net = build_dumbbell(Simulator(), n_left=n, n_right=n)
        assert sum(len(node.routes) for node in net.nodes.values()) == 2 * 2 * n
        assert all(node.routes == {} for node in net.nodes.values()
                   if isinstance(node, Host))

    @pytest.mark.parametrize("k,m", [(2, 1), (4, 1), (3, 2), (4, 64)])
    def test_chain(self, k, m):
        net = build_chain(Simulator(), n_switches=k, hosts_per_switch=m)
        assert sum(len(node.routes) for node in net.nodes.values()) == k * k * m
        assert all(node.routes == {} for node in net.nodes.values()
                   if isinstance(node, Host))


class TestAgainstNetworkx:
    """Cross-validate next-hop distances against networkx shortest paths."""

    def test_random_tree(self):
        graph = nx.random_labeled_tree(12, seed=4)
        graph = nx.relabel_nodes(graph, {n: f"n{n}" for n in graph.nodes})
        adjacency = {node: list(graph.neighbors(node)) for node in graph.nodes}
        destinations = list(adjacency)[:4]
        tables = compute_next_hops(adjacency, destinations)
        for dst in destinations:
            lengths = nx.single_source_shortest_path_length(graph, dst)
            for node in adjacency:
                if node == dst:
                    continue
                hop = _next_hop(tables, adjacency, node, dst)
                # Following the next hop must strictly decrease distance.
                assert lengths[hop] == lengths[node] - 1

    def test_grid_with_ties_is_deterministic(self):
        graph = nx.grid_2d_graph(3, 3)
        graph = nx.relabel_nodes(graph, {n: f"{n[0]}{n[1]}" for n in graph.nodes})
        adjacency = {node: list(graph.neighbors(node)) for node in graph.nodes}
        destinations = list(adjacency)
        tables_a = compute_next_hops(adjacency, destinations)
        tables_b = compute_next_hops(adjacency, destinations)
        assert tables_a == tables_b
        # Every node has two or more neighbours on a grid, so each has a
        # table, and every next hop is one step closer along a shortest path.
        assert sorted(tables_a) == sorted(adjacency)
        for dst in destinations:
            lengths = nx.single_source_shortest_path_length(graph, dst)
            for node in adjacency:
                if node != dst:
                    assert lengths[tables_a[node][dst]] == lengths[node] - 1
