"""The local execution backend: this host's processes, no network.

``jobs <= 1`` runs every point in this process.  Without a policy
(``request.policy is None``) that is a plain loop and the first
exception fails the sweep; with one, exceptions are contained per point
and retried with deterministic backoff through
``request.attempt_failed``.  There is no process boundary in-process,
so wall-clock timeouts cannot be enforced and a ``kill``/``hang`` fault
is faithfully fatal.

``jobs > 1`` spawns ``jobs`` long-lived stdio worker agents and drives
them through the lease engine of the ``worker`` backend
(:mod:`repro.parallel.backends.worker`): heartbeats, per-point
deadlines that kill a hung agent, crash respawn, at-least-once dedupe.
Agents prepare ``__main__`` the way spawn children do, so a script's
module-level extractor and registered algorithms work in them.  A plain
run gets zero retries and raises on its first failed point.  If no
agent can start at all (fd/PID exhaustion), the remaining points run
in-process instead.

This module is also the fallback target for graceful degradation: when
a distributed backend dies mid-sweep the runner re-issues the remaining
points here, so a fleet outage costs locality, never results.
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.spawn
import os
import pickle
import sys
import warnings
from dataclasses import replace
from time import perf_counter, sleep

from repro.errors import BackendUnavailable, ConfigurationError, SweepFailureError
from repro.parallel.backends.base import BackendRequest, SweepBackend
from repro.parallel.backends.worker import WorkerBackend, _SweepRun
from repro.parallel.cache import config_hash
from repro.parallel.progress import PointProgress
from repro.parallel.protocol import extract_reference
from repro.resilience.faults import WORKER_KINDS, FaultPlan, apply_worker_faults
from repro.resilience.policy import ResilienceConfig
from repro.resilience.report import OUTCOME_ERROR, PointFailure
from repro.scenarios.runner import run as run_scenario

__all__ = ["LocalBackend"]

#: Heartbeat TTL of a local lease, unless the point budget is longer.
_LEASE_TTL = 15.0

#: A local agent's ``-c`` program: put the coordinator's ``sys.path``
#: in place so ``repro`` imports, then serve with its spawn preparation
#: data (``argv[1]``, JSON).  Every message is flushed as it is sent,
#: so the agent skips interpreter teardown, which the coordinator would
#: otherwise wait out at the end of each sweep.
_AGENT_BOOTSTRAP = (
    "import json, os, sys\n"
    "preparation = json.loads(sys.argv[1])\n"
    "sys.path[:0] = preparation['sys_path']\n"
    "from repro.parallel.worker_agent import serve_stdio\n"
    "code = serve_stdio(preparation)\n"
    "sys.stderr.flush()\n"
    "os._exit(code)\n"
)


def _check_spawnable_main() -> None:
    """Refuse to spawn agents when they cannot re-import ``__main__``.

    A ``__main__`` fed from stdin (``python - <<EOF``) reports a
    ``__file__`` of ``<stdin>`` that agents try — and fail — to re-run.
    Raising here turns a fleet that dies on start-up into an actionable
    error.
    """
    process = multiprocessing.current_process()
    if process.daemon or process.name != "MainProcess":
        raise ConfigurationError(
            "parallel sweeps cannot be started from a worker process; "
            "guard the sweep call with `if __name__ == \"__main__\":` so "
            "spawn children do not re-run it on import, or use jobs=1."
        )
    main = sys.modules.get("__main__")
    if main is None or getattr(main, "__spec__", None) is not None:
        return
    main_file = getattr(main, "__file__", None)
    if main_file is not None and not os.path.exists(main_file):
        raise ConfigurationError(
            "jobs > 1 needs a __main__ module that worker processes can "
            f"re-import, but it came from {main_file!r} (a piped script or "
            "REPL). Run from a real file or use jobs=1."
        )


def _local_extract_reference(extract) -> dict[str, str]:
    """The wire reference of ``extract`` for agents on this host.

    Unlike remote agents, local ones re-run ``__main__``, so a script's
    module-level extractor qualifies too.
    """
    try:
        pickle.dumps(extract)
    except Exception as exc:
        raise ConfigurationError(
            "extract must be a module-level (picklable) callable "
            f"when jobs > 1: {exc}"
        ) from exc
    qualname = getattr(extract, "__qualname__", None)
    if qualname and getattr(extract, "__module__", None) == "__main__":
        return {"module": "__main__", "qualname": qualname}
    return extract_reference(extract)


def _agent_command() -> list[str]:
    """Argv for one local agent, carrying this process's spawn data."""
    preparation = multiprocessing.spawn.get_preparation_data("repro-agent")
    # Agents open no multiprocessing connections, and bytes are not JSON.
    preparation.pop("authkey", None)
    return [sys.executable, "-u", "-c", _AGENT_BOOTSTRAP,
            json.dumps(preparation)]


def _raise_first_failure(request: BackendRequest):
    """``attempt_failed`` for a plain run: no retries, the sweep fails."""

    def attempt_failed(index: int, attempt: int, outcome: str,
                       wall_seconds: float, detail: str, worker: str) -> None:
        config = request.configs[index]
        digest = config_hash(config)
        raise SweepFailureError([PointFailure(
            index=index, run_id=f"{digest[:12]}-s{config.seed}",
            config_hash=digest, scenario=config.name, attempts=attempt,
            kind=outcome, message=detail)])

    return attempt_failed


class LocalBackend(SweepBackend):
    """Execute sweep points with this host's processes."""

    name = "local"

    def execute(self, request: BackendRequest) -> None:
        if request.jobs <= 1:
            self._run_in_process(request)
            return
        _check_spawnable_main()
        reference = _local_extract_reference(request.extract)
        if request.policy is None:
            agent_request = replace(
                request, policy=ResilienceConfig(retries=0),
                attempt_failed=_raise_first_failure(request),
                fault_plan=FaultPlan())
        else:
            # In-worker faults only: the fleet-level kinds exercise the
            # distributed backend, not local execution.
            agent_request = replace(request, fault_plan=FaultPlan(tuple(
                clause for clause in request.fault_plan.clauses
                if clause.kind in WORKER_KINDS)))
        policy = agent_request.policy
        agents = WorkerBackend(
            command=_agent_command(), workers=request.jobs,
            # A hung attempt must end at its point budget, as a timeout,
            # before any missed heartbeat could call it a crash.
            lease_ttl=max(_LEASE_TTL, policy.timeout or 0.0),
            # Each attempt can cost at most one agent; the spare ``jobs``
            # cover agents that die before taking a lease.
            max_respawns=(request.jobs
                          + len(request.pending) * policy.max_attempts))
        run = _SweepRun(agents, agent_request, reference)
        try:
            run.execute()
        except BackendUnavailable as exc:
            remaining = [index for index in request.pending
                         if index not in run.done and index not in run.failed]
            warnings.warn(
                f"could not spawn a sweep worker ({exc}); running "
                f"{len(remaining)} point(s) in-process instead (no timeout "
                "enforcement)", RuntimeWarning, stacklevel=2)
            self._run_in_process(replace(request, pending=remaining))

    # ------------------------------------------------------------------
    # In-process execution
    # ------------------------------------------------------------------
    def _run_in_process(self, request: BackendRequest) -> None:
        if request.policy is None:
            self._run_plain_serial(request)
        else:
            self._run_supervised_serial(request)

    def _run_plain_serial(self, request: BackendRequest) -> None:
        """The unsupervised loop: the first exception fails the sweep."""
        configs, extract, metered = (request.configs, request.extract,
                                     request.metered)
        worker = multiprocessing.current_process().name
        for index in request.pending:
            request.emit(PointProgress(index=index, phase="start",
                                       worker=worker))
            begin = perf_counter()
            result = run_scenario(configs[index], metrics=metered)
            wall_seconds = perf_counter() - begin
            snapshot = (result.metrics.snapshot()
                        if result.metrics is not None else None)
            request.complete(index, extract(result), worker, wall_seconds,
                             result.events_processed, snapshot=snapshot)

    def _run_supervised_serial(self, request: BackendRequest) -> None:
        """In-process attempts with retry/backoff.

        Exceptions (injected or real) are contained per point, but
        there is no process boundary, so wall-clock timeouts cannot be
        enforced and a ``kill``/``hang`` fault is faithfully fatal —
        use ``jobs >= 2`` for full containment.
        """
        configs, extract = request.configs, request.extract
        fault_plan, metered = request.fault_plan, request.metered
        complete, attempt_failed = request.complete, request.attempt_failed
        emit = request.emit
        worker = multiprocessing.current_process().name
        for index in request.pending:
            attempt = 1
            while True:
                emit(PointProgress(index=index, phase="start",
                                   attempt=attempt, worker=worker))
                begin = perf_counter()
                try:
                    apply_worker_faults(
                        fault_plan.worker_faults(index, attempt),
                        index, attempt)
                    result = run_scenario(configs[index], metrics=metered)
                    measurements = extract(result)
                except Exception as exc:
                    delay = attempt_failed(
                        index, attempt, OUTCOME_ERROR, perf_counter() - begin,
                        f"{type(exc).__name__}: {exc}", worker)
                    if delay is None:
                        break
                    sleep(delay)
                    attempt += 1
                    continue
                snapshot = (result.metrics.snapshot()
                            if result.metrics is not None else None)
                complete(index, measurements, worker, perf_counter() - begin,
                         result.events_processed, attempts=attempt,
                         snapshot=snapshot)
                break
