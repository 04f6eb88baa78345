"""Append 64-flow dumbbell throughput numbers to ``BENCH_engine.json``.

Run after topology, discipline, or engine changes::

    PYTHONPATH=src python benchmarks/bench_manyflow.py

The N-flow generalization moved the hot path from 2 senders to
populations, so this harness prices the population case the engine
benches never see: a 64-flow Tahoe dumbbell, recorded as

- ``manyflow_events_per_s`` — engine events per wall second inside
  ``Simulator.run`` (``ScenarioResult.wall_seconds``), so construction
  is not counted (the population analogue of ``event_throughput_eps``);
- ``manyflow_packets_per_s`` — delivered data packets per second of
  the same ``Simulator.run`` wall, summed over all 64 receivers;
- ``manyflow_build_s`` — the rest of the timed ``run(config)`` call,
  almost all of it building the scenario (topology, routes,
  connections, monitors);
- ``manyflow_red_overhead_pct`` — the *relative* paired gate
  (``--max-red-overhead``): the same population with the bottleneck
  switched to RED versus drop-tail, measured as interleaved pairs in
  one process (see :func:`perf_harness.paired_overhead_pct`), so the
  number holds on any host.  RED adds an EWMA update and one uniform
  draw per arrival; if that ever costs double-digit percents the
  discipline dispatch has regressed.

Each invocation appends one record to the JSON array shared with
``perf_harness.py`` (override with ``--output``).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from perf_harness import _gc_paused, _git_commit, paired_overhead_pct  # noqa: E402
from repro.scenarios import families, run  # noqa: E402
from repro.scenarios.config import substitute_queue  # noqa: E402

#: Workload shape, recorded into each bench entry.
MANYFLOW_N = 64
MANYFLOW_BUFFER = 160  # scaled ~ N/2 * the 2-flow default of 5 per flow
MANYFLOW_DURATION_S = 40.0
PAIRED_DURATION_S = 15.0
PAIRED_REPS = 8
PAIRED_WARMUP = 2

RED_PARAMS = {"min_th": 20.0, "max_th": 120.0, "max_p": 0.05}


def _config(duration: float, queue: str | None = None):
    config = families.manyflow_config(
        (MANYFLOW_N, MANYFLOW_BUFFER, 0.5),
        duration=duration, warmup=duration / 4, stagger=0.1)
    if queue is not None:
        config = substitute_queue(config, queue, RED_PARAMS)
    return config


def bench_manyflow(
        duration: float = MANYFLOW_DURATION_S) -> tuple[float, float, float]:
    """(events_per_s, packets_per_s, build_s) for the 64-flow drop-tail dumbbell."""
    config = _config(duration)
    box: list = []
    elapsed = _gc_paused(lambda: box.append(run(config)))
    result = box[0]
    delivered = sum(c.receiver.rcv_nxt for c in result.connections)
    run_s = result.wall_seconds
    return (result.events_processed / run_s, delivered / run_s,
            elapsed - run_s)


def bench_red_overhead(duration: float = PAIRED_DURATION_S) -> float:
    """Percent wall-time cost of RED vs drop-tail on the same population."""

    def rate(queue: str | None):
        config = _config(duration, queue)
        return 1.0 / _gc_paused(lambda: run(config))

    return paired_overhead_pct(
        lambda: rate(None), lambda: rate("red"),
        reps=PAIRED_REPS, warmup=PAIRED_WARMUP)


def collect() -> dict:
    events_per_s, packets_per_s, build_s = bench_manyflow()
    return {
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "bench_iterations": {
            "manyflow_n": MANYFLOW_N,
            "manyflow_buffer": MANYFLOW_BUFFER,
            "manyflow_duration_s": MANYFLOW_DURATION_S,
            "paired_duration_s": PAIRED_DURATION_S,
            "paired_reps": PAIRED_REPS,
            "paired_warmup": PAIRED_WARMUP,
        },
        "manyflow_events_per_s": round(events_per_s),
        "manyflow_packets_per_s": round(packets_per_s),
        "manyflow_build_s": round(build_s, 4),
        "manyflow_red_overhead_pct": round(bench_red_overhead(), 2),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_engine.json"),
                        help="JSON array file to append to")
    parser.add_argument("--max-red-overhead", type=float, default=None,
                        metavar="PCT",
                        help="fail (exit 1) when the RED bottleneck costs "
                             "more than PCT%% wall time vs drop-tail on the "
                             "paired 64-flow workload")
    args = parser.parse_args(argv)

    record = collect()
    target = Path(args.output)
    history: list[dict] = []
    if target.exists():
        try:
            history = json.loads(target.read_text())
        except ValueError:
            history = []
        if not isinstance(history, list):
            history = [history]
    history.append(record)
    target.write_text(json.dumps(history, indent=2) + "\n")

    for key, value in record.items():
        print(f"{key}: {value}")
    print(f"appended to {target} ({len(history)} records)")

    if args.max_red_overhead is not None:
        overhead = record["manyflow_red_overhead_pct"]
        if overhead > args.max_red_overhead:
            print(f"FAIL: RED bottleneck overhead {overhead:.2f}% exceeds "
                  f"the {args.max_red_overhead:.2f}% budget")
            return 1
        print(f"red-overhead guard OK: {overhead:.2f}% <= "
              f"{args.max_red_overhead:.2f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
