"""Sweep workloads: the 18-point conjecture grid on two executors.

Each iteration does what ``repro sweep conjecture --jobs 2 --cache-dir
DIR --export FILE`` does twice in a fresh cache directory: a cold pass
that simulates every point and fills the cache, then a warm pass that
must answer all 18 points from it.  Both passes' export documents are
checked against one recorded digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import statistics
import tempfile
from multiprocessing import resource_tracker
from time import perf_counter

from layers import Spans
from scenario_workloads import ScenarioWorkload
from workload import Iteration, Part

from repro.parallel import ParallelSweepRunner
from repro.parallel.backends import WorkerBackend
from repro.parallel.cache import ResultCache
from repro.resilience import ResilienceConfig
from repro.scenarios import families

#: Executor width: worker processes (local) or stdio agents (fleet).
JOBS = 2


def export_digest(values, measurements) -> str:
    """sha256 of the bytes ``repro sweep --export`` writes."""
    document = [{"value": str(value), "measurements": measured}
                for value, measured in zip(values, measurements)]
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reap_children() -> int:
    """Kill and wait for every child process still alive; return how many.

    Multiprocessing's resource tracker is a helper that lives as long as
    this process, so it is not counted.
    """
    tracker = getattr(resource_tracker._resource_tracker, "_pid", None)
    me = os.getpid()
    leaked = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == tracker:
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            leaked.append(int(entry))
    for pid in leaked:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    return len(leaked)


class _PointProbe(ScenarioWorkload):
    """The grid's points run serially in this process, for layer spans."""

    def __init__(self, values, expected_digest: str) -> None:
        super().__init__()
        self.values = list(values)
        self.configs = [families.conjecture_config(v) for v in self.values]
        self.expected_digest = expected_digest
        self.measurements: list[dict] = []

    def _check(self, index: int, result) -> bool:
        self.measurements.append(families.utilization_extract(result))
        return True

    def iteration(self, spans: Spans) -> Iteration:
        self.measurements = []
        done = super().iteration(spans)
        if export_digest(self.values, self.measurements) != self.expected_digest:
            done.failed = done.attempted
        return done


class _SweepWorkload:
    name = ""
    backend_name = ""
    in_process = False

    def __init__(self, seed: int, expected_digest: str) -> None:
        self.canonical = list(families.CONJECTURE_CASES)
        self.values = list(self.canonical)
        random.Random(seed).shuffle(self.values)
        self.expected_digest = expected_digest
        self.seed = seed
        self.probe = _PointProbe(self.canonical, expected_digest)

    def shape(self) -> dict:
        return {"family": "conjecture", "points": len(self.values),
                "duration_s": families.conjecture_config(
                    self.values[0]).duration,
                "backend": self.backend_name, "jobs": JOBS,
                "retries": 2, "cache": "fresh directory per iteration",
                "seed": self.seed,
                "seed_effect": "order in which points are submitted"}

    def _backend(self):
        return None

    def _runner(self, cache: ResultCache) -> ParallelSweepRunner:
        return ParallelSweepRunner(
            jobs=JOBS, cache=cache, backend=self._backend(),
            resilience=ResilienceConfig(retries=2, allow_partial=True))

    def _digest(self, points) -> str:
        by_value = {point.value: point.measurements for point in points}
        return export_digest(self.canonical,
                             [by_value[value] for value in self.canonical])

    def _honest(self, report) -> bool:
        return True

    def iteration(self, spans: Spans) -> Iteration:
        marks: list = []

        def on_progress(event) -> None:
            marks.append((perf_counter(), event))

        with tempfile.TemporaryDirectory(prefix="sweep-cache-") as cache_dir:
            cache = ResultCache(cache_dir)
            runner = self._runner(cache)
            begin = perf_counter()
            points = runner.run(families.conjecture_config, self.values,
                                families.utilization_extract,
                                on_progress=on_progress)
            cold_end = perf_counter()
            report = runner.last_report
            misses = cache.misses
            leaked = reap_children()

            warm_runner = self._runner(cache)
            warm_begin = perf_counter()
            warm_points = warm_runner.run(families.conjecture_config,
                                          self.values,
                                          families.utilization_extract)
            warm_end = perf_counter()
            warm_report = warm_runner.last_report
            leaked += reap_children()

        cold_wall = cold_end - begin
        warm_wall = warm_end - warm_begin
        starts: dict[int, float] = {}
        finishes: list[tuple[float, float]] = []
        latencies, events = [], 0
        for stamp, event in marks:
            if event.phase == "start":
                starts[event.index] = stamp
            elif event.phase == "finish" and not event.cached:
                finishes.append((stamp, event.wall_seconds))
                latencies.append(stamp - starts[event.index])
                events += event.events_processed
        if not finishes:  # every point failed: nothing to time
            finishes.append((cold_end, 0.0))
            latencies.append(0.0)
        sims = [sim for _, sim in finishes]
        first_stamp, first_sim = min(finishes)
        setup = first_stamp - begin - first_sim

        ok = (not any(point.measurements is None for point in points)
              and self._digest(points) == self.expected_digest
              and warm_report.cache_hits == len(self.values)
              and self._digest(warm_points) == self.expected_digest
              and self._honest(report) and leaked == 0)
        failed = 0 if ok else len(self.values)
        layers = {
            "parallel.first_result_s": setup,
            "parallel.point_latency_s": statistics.median(latencies),
            "parallel.point_sim_s": statistics.median(sims),
            "parallel.busy_ratio": sum(sims) / (JOBS * cold_wall),
            "parallel.shutdown_s": cold_end - max(finishes)[0],
            "parallel.cache_warm_s": warm_wall,
            "parallel.cache_hits": warm_report.cache_hits,
            "parallel.cache_misses": misses,
            "parallel.retries": report.retries,
            "parallel.crashes": report.crashes,
            "parallel.timeouts": report.timeouts,
            "parallel.lease_reclaims": report.lease_reclaims,
            "parallel.duplicate_results": report.duplicate_results,
            "parallel.degraded_points": report.degraded_points,
            "parallel.leaked_children": leaked,
        }
        part = Part(wall=cold_wall + warm_wall, setup=setup,
                    sim_seconds=sum(sims), throughput_wall=cold_wall)
        return Iteration(parts=[part], events=events,
                         attempted=len(self.values), failed=failed,
                         layers=layers)

    def local_pass(self, spans: Spans) -> Iteration:
        return self.probe.iteration(spans)


class SweepLocal(_SweepWorkload):
    """``--jobs 2``: supervised process-per-attempt local execution."""

    name = "sweep_local"
    backend_name = "local"


class SweepFleet(_SweepWorkload):
    """``--backend worker --workers 2``: leases over stdio agents."""

    name = "sweep_fleet"
    backend_name = "worker"

    def _backend(self):
        return WorkerBackend(workers=JOBS)

    def _honest(self, report) -> bool:
        # Agents that cannot import the tree under test make the backend
        # unavailable, and every point quietly degrades to local
        # execution: the outputs match, but the fleet was never measured.
        return report.backend == "worker" and report.degraded_points == 0
