"""Timed and traced runs of one workload, and the record they produce."""

from __future__ import annotations

import compileall
import cProfile
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
from pathlib import Path
from time import perf_counter

from layers import PACKAGES, Spans, self_time_by_package
from scenario_workloads import PaperParity, Population512
from sweep_workloads import SweepFleet, SweepLocal, reap_children

from repro.engine import compiled
from repro.engine.simulator import Simulator


def _make(name: str, seed: int, root: Path, here: Path):
    expected = json.loads((here / "expected.json").read_text())
    if name == "paper_parity":
        return PaperParity(root, seed)
    if name == "population_512":
        return Population512(seed, expected["population_512"])
    workload = SweepLocal if name == "sweep_local" else SweepFleet
    return workload(seed, expected["conjecture_export_sha256"])


def _git_commit(root: Path) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest(src: Path) -> str:
    """sha256 over every ``repro`` source file (for trees without git)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(root: Path) -> dict:
    return {
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root / "src" / "repro"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "compiled_core_available": compiled.available(),
        "compiled_core_used": Simulator().compiled,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def timed(workload, seconds: float) -> list:
    """Iterations until the next one would overrun ``seconds`` (at least one)."""
    samples = []
    start = perf_counter()
    while True:
        gc.collect()
        samples.append(workload.iteration(Spans()))
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(samples) > seconds:
            return samples


def end_to_end(samples: list) -> dict[str, float]:
    """Medians over the run's iterations, taken part by part.

    Each part (one scenario run, or one whole sweep) gets its median
    over the iterations, and an iteration's figure is the sum of those
    medians: a burst of machine noise then costs the part it hit, not a
    whole iteration.  With one part per iteration this is the plain
    median.
    """
    columns = list(zip(*(sample.parts for sample in samples)))

    def total(attribute: str) -> float:
        return sum(statistics.median(getattr(part, attribute)
                                     for part in column)
                   for column in columns)

    sim_seconds = total("sim_seconds")
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    return {
        "wall_s": total("wall"),
        "setup_s": total("setup"),
        "events_per_s": (statistics.median(s.events for s in samples)
                         / sim_seconds if sim_seconds else 0.0),
        "points_per_s": samples[0].attempted / total("throughput_wall"),
        "peak_rss_mb": peak_rss_mb(),
        "success_rate": 1.0 - failed / attempted,
    }


def traced(workload, root: Path) -> tuple[list, dict[str, float]]:
    """One span-instrumented pass, then the in-process work under cProfile.

    For the scenario workloads the in-process work is the iteration
    itself.  For the sweeps it is the grid's 18 points run serially in
    this process: the work each child does, which a profiler in the
    parent cannot see.  ``trace.overhead_ratio`` compares the profiled
    pass with the same pass untraced.
    """
    gc.collect()
    runs = [workload.iteration(Spans(detail=True))]
    layers = dict(runs[0].layers)
    untraced = runs[0]
    if not workload.in_process:
        gc.collect()
        untraced = workload.local_pass(Spans(detail=True))
        runs.append(untraced)
        layers.update(untraced.layers)
    gc.collect()
    profile = cProfile.Profile()
    profile.enable()
    try:
        profiled = workload.local_pass(Spans())
    finally:
        profile.disable()
    runs.append(profiled)
    self_times = self_time_by_package(profile, root / "src" / "repro")
    for package in PACKAGES:
        layers[f"{package}.self_s"] = self_times.get(package, 0.0)
    layers["other.self_s"] = self_times.get("other", 0.0)
    layers["trace.untraced_wall_s"] = untraced.wall
    layers["trace.traced_wall_s"] = profiled.wall
    layers["trace.overhead_ratio"] = profiled.wall / untraced.wall - 1.0
    return runs, layers


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spec: dict, root: Path, here: Path) -> tuple[dict, dict]:
    compileall.compile_dir(str(root / "src"), quiet=1)
    workload = _make(name, seed, root, here)
    try:
        if trace:
            runs, values = traced(workload, root)
            declared = spec["per_layer"]
        else:
            runs = timed(workload, seconds)
            values = end_to_end(runs)
            declared = spec["end_to_end"]
    finally:
        reap_children()
        _stop_resource_tracker()
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]}
               for m in declared}
    record = {"workload": name, "trace": trace, "seconds": seconds,
              "iterations": len(runs), "shape": workload.shape(),
              "provenance": provenance(root),
              "iteration_walls_s": [r.wall for r in runs]}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return record, result


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's helper process and wait for it to exit."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()
