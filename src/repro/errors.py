"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type.  Sub-types separate scheduler misuse from
model-configuration mistakes and from protocol-state violations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.report import PointFailure

__all__ = [
    "ReproError",
    "SimulationError",
    "SanitizerError",
    "ConfigurationError",
    "ProtocolError",
    "AnalysisError",
    "LintError",
    "FaultInjectionError",
    "SweepFailureError",
    "WireError",
    "BackendUnavailable",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """Misuse of the discrete-event kernel (scheduling into the past, ...)."""


class SanitizerError(SimulationError):
    """A runtime invariant check tripped in sanitizer (strict) mode.

    Raised only when ``Simulator(strict=True)`` or ``REPRO_SANITIZE=1``
    is in effect: monotonic-clock violations, mutated event ordering
    fields, packet-conservation failures, or non-FIFO queue service.
    """


class ConfigurationError(ReproError):
    """Invalid network or scenario configuration."""


class ProtocolError(ReproError):
    """A transport endpoint was driven into an impossible state."""


class AnalysisError(ReproError):
    """An analysis routine received data it cannot interpret."""


class WireError(ReproError):
    """A malformed or out-of-order distributed-sweep protocol message.

    Raised by the worker-agent and shared-cache wire codecs
    (:mod:`repro.parallel.protocol`) when a peer sends bytes that do not
    decode to a schema-valid message.  The coordinator treats a peer
    that speaks garbage like a dead peer: its leases are reclaimed and
    the work is re-leased elsewhere.
    """


class BackendUnavailable(ReproError):
    """A distributed sweep backend cannot make (further) progress.

    Raised by a backend when its fleet is gone — workers could not be
    spawned, every agent died and respawns are exhausted, or a remote
    endpoint refused the connection.  The sweep runner catches it and
    degrades gracefully: the points that have not completed are re-run
    on the ``local`` backend instead of being lost.
    """


class LintError(ReproError):
    """The static-analysis pass could not run (unknown rule, bad path)."""


class FaultInjectionError(ReproError):
    """An injected fault fired (``REPRO_FAULTS`` ``raise`` clause).

    Only ever raised by the deterministic fault-injection harness
    (:mod:`repro.resilience.faults`) — seeing it outside a chaos test
    means ``REPRO_FAULTS`` leaked into a real run's environment.
    """


class SweepFailureError(ReproError):
    """One or more sweep points exhausted their retry budget.

    Carries the structured :class:`~repro.resilience.report.PointFailure`
    records in :attr:`failures` and the partial measurement list (with
    ``None`` at the failed indices) in :attr:`results`, so callers can
    salvage completed work even when not using ``allow_partial``.
    """

    def __init__(self, failures: "Sequence[PointFailure]",
                 results: "Sequence[object] | None" = None) -> None:
        self.failures = list(failures)
        self.results = list(results) if results is not None else None
        indices = ", ".join(str(failure.index) for failure in self.failures[:8])
        if len(self.failures) > 8:
            indices += ", ..."
        first = (f"; point {self.failures[0].index}: "
                 f"{self.failures[0].kind}: {self.failures[0].message}"
                 if self.failures else "")
        super().__init__(
            f"{len(self.failures)} sweep point(s) failed after retries "
            f"(indices {indices}{first}); pass allow_partial / "
            "--allow-partial to accept partial results")
