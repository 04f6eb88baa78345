"""Per-layer measurement from outside the program.

Two instruments, both driven by the benchmark rather than built into
``repro``:

* :class:`Spans` wraps the public set-up calls of each layer
  (``scenarios.builder.build``, ``net.topology.build_dumbbell`` /
  ``build_chain``, ``net.routing.compute_next_hops``,
  ``tcp.connection.make_connection``, ``metrics.trace.TraceSet.watch_*``)
  for the duration of a ``with`` block and sums the seconds spent in
  each.  It also keeps every :class:`BuiltScenario` it sees, so the
  caller can read the layer counters once the run has finished.
* :func:`self_time_by_package` attributes a ``cProfile`` run's self time
  to the ``repro`` package that owns each function.
"""

from __future__ import annotations

import pstats
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from pathlib import Path
from time import perf_counter
from typing import Iterator

#: Packages of ``src/repro`` reported by the traced run.
PACKAGES = ("engine", "net", "tcp", "metrics", "analysis", "scenarios",
            "experiments")


def _targets(detail: bool) -> list[tuple[object, str, str]]:
    """``(owner, attribute, span)`` triples to wrap.

    Each owner is the namespace the caller looks the name up in, so the
    wrapper sees every call: ``runner.build`` is how ``runner.run``
    reaches the builder, ``builder.build_dumbbell`` how the builder
    reaches the topology layer, and so on.
    """
    from repro.metrics.trace import TraceSet
    from repro.net import topology
    from repro.scenarios import builder, runner

    targets = [(runner, "build", "scenarios.build_s")]
    if detail:
        targets += [
            (builder, "build_dumbbell", "net.topology_s"),
            (builder, "build_chain", "net.topology_s"),
            (topology, "compute_next_hops", "net.routing_s"),
            (builder, "make_connection", "tcp.connect_s"),
            (TraceSet, "watch_port", "metrics.attach_s"),
            (TraceSet, "watch_connection", "metrics.attach_s"),
        ]
    return targets


class Spans:
    """Seconds spent inside wrapped public calls, summed per span name.

    ``detail=False`` wraps only the scenario builder (what the timed
    runs need for ``setup_s``); ``detail=True`` adds the per-layer
    set-up calls.  Wrapping costs one ``perf_counter`` pair per call and
    the wrapped calls happen once per object built, never per event.
    """

    def __init__(self, detail: bool = False) -> None:
        self.detail = detail
        self.seconds: dict[str, float] = defaultdict(float)
        self.built: list = []

    def _wrap(self, original, span: str, keep: bool):
        @wraps(original)
        def timed(*args, **kwargs):
            begin = perf_counter()
            value = original(*args, **kwargs)
            self.seconds[span] += perf_counter() - begin
            if keep:
                self.built.append(value)
            return value
        return timed

    @contextmanager
    def attached(self) -> Iterator["Spans"]:
        saved = []
        try:
            for owner, name, span in _targets(self.detail):
                original = vars(owner)[name]
                saved.append((owner, name, original))
                setattr(owner, name, self._wrap(
                    original, span, keep=span == "scenarios.build_s"))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    def take_built(self) -> list:
        """The scenarios built since the last call (and forget them)."""
        built, self.built = self.built, []
        return built


def layer_counts(built) -> dict[str, float]:
    """Work counters of one finished scenario, by layer."""
    sim, net = built.sim, built.net
    ports = [port for node in net.nodes.values()
             for port in node.ports.values()]
    senders = [conn.sender for conn in built.connections]
    return {
        "engine.events": sim.events_processed,
        "engine.cancelled": sim.cancelled_total,
        "engine.compactions": sim.compactions,
        "net.route_entries": sum(len(node.routes)
                                 for node in net.nodes.values()),
        "net.transmissions": sum(port.transmissions for port in ports),
        "net.drops": sum(port.queue.drops for port in ports),
        "tcp.packets_sent": sum(s.packets_sent for s in senders),
        "tcp.acks_received": sum(getattr(s, "acks_received", 0)
                                 for s in senders),
        "tcp.timeouts": sum(getattr(s, "timeouts", 0) for s in senders),
        "tcp.retransmits": sum(getattr(s, "retransmits", 0)
                               for s in senders),
    }


def derived_ratios(counts: dict[str, float]) -> dict[str, float]:
    """Useful-outcome ratios over summed counters.

    ``engine.cancel_ratio`` is cancelled events over all events that
    left the calendar (dispatched or cancelled); ``tcp.retransmit_ratio``
    is retransmitted segments over segments sent.
    """
    events = counts.get("engine.events", 0)
    cancelled = counts.get("engine.cancelled", 0)
    sent = counts.get("tcp.packets_sent", 0)
    return {
        "engine.cancel_ratio": (cancelled / (events + cancelled)
                                if events + cancelled else 0.0),
        "tcp.retransmit_ratio": (counts.get("tcp.retransmits", 0) / sent
                                 if sent else 0.0),
    }


def _package(filename: str, src_repro: str) -> str | None:
    if not filename.startswith(src_repro):
        return None
    parts = Path(filename[len(src_repro):].lstrip("/")).parts
    return parts[0] if len(parts) > 1 else "repro"


def self_time_by_package(profile, src_repro: Path) -> dict[str, float]:
    """Self seconds of a ``cProfile.Profile`` per ``repro`` package.

    A Python function counts toward the package whose directory holds
    its source file.  A builtin (``len``, ``heapq.heappush``,
    ``list.append`` …) has no source file, so its self time is split
    over its callers in proportion to the time each call site spent in
    it.  Everything else — the standard library, numpy, the benchmark
    itself — counts as ``other``.
    """
    stats = pstats.Stats(profile).stats
    root = str(src_repro)
    owner = {func: _package(func[0], root) for func in stats}
    totals: dict[str, float] = defaultdict(float)
    for func, (_, _, self_seconds, _, callers) in stats.items():
        if func[0] == "~" and callers:
            for caller, caller_stats in callers.items():
                totals[owner.get(caller) or "other"] += caller_stats[2]
        else:
            totals[owner[func] or "other"] += self_seconds
    return dict(totals)
