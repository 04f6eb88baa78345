"""What one workload iteration reports, shared by every workload."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Part:
    """One timed unit of an iteration: a scenario run, or a sweep."""

    wall: float
    """Seconds, from the config to the checked output."""
    setup: float
    """Seconds of set-up inside it (see ``setup_s`` in the README)."""
    sim_seconds: float
    """Seconds spent simulating."""
    throughput_wall: float
    """The seconds its operations' throughput is taken over (a sweep's
    cold pass; the whole part otherwise)."""


@dataclass
class Iteration:
    """One iteration of a workload, from its configs to checked outputs."""

    parts: list[Part]
    """The same units, in the same order, on every iteration."""
    events: int
    """Simulated events."""
    attempted: int
    """Operations attempted: scenario runs or sweep points."""
    failed: int
    """Operations whose outputs failed their check."""
    layers: dict[str, float] = field(default_factory=dict)
    """Per-layer values gathered along the way."""

    @property
    def wall(self) -> float:
        return sum(part.wall for part in self.parts)
