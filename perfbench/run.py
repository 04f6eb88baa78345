"""The repository's benchmark: four workloads, end-to-end and per-layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_parity --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` times whole iterations for ``--seconds`` seconds and
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
makes one span-instrumented iteration plus one ``cProfile`` pass and
reports the per-layer metrics.  ``--workload all`` runs every workload
in both modes, each in a fresh process.  The last line of standard
output is always one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``perfbench/README.md`` defines each metric.

The benchmark imports ``repro`` from ``src/`` next to this directory and
exits with status 2, printing no result, when that tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("paper_parity", "population_512", "sweep_local", "sweep_fleet")

#: Variables that change what ``repro`` does (fault injection, the
#: sanitizer, the opt-in C core) or where it caches.  The benchmark
#: measures the default configuration, so none of them may leak in.
ISOLATED_ENV = ("REPRO_FAULTS", "REPRO_SANITIZE", "REPRO_COMPILED",
                "REPRO_CACHE_DIR", "REPRO_CCORE_DIR")
HASH_SEED = "0"


def _parse() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement time (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def _missing_tree() -> str | None:
    for needed in (ROOT / "src" / "repro" / "__init__.py",
                   ROOT / "tests" / "golden" / "parity.json",
                   ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            return f"{needed.relative_to(ROOT)} is missing"
    return None


def _isolate() -> Path:
    """Pin the environment this process and its children see."""
    for name in ISOLATED_ENV:
        os.environ.pop(name, None)
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    sys.path.insert(0, str(ROOT / "src"))
    return scratch


def _run_all(args: argparse.Namespace) -> int:
    """Every workload in both modes, one fresh process per run."""
    import subprocess

    merged: dict = {"correct": True, "attempted": 0, "failed": 0,
                    "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__)), "--workload",
                    workload, "--seed", str(args.seed), "--seconds",
                    str(args.seconds), "--trace", str(trace)]
            print(f"== {workload} --trace {trace}", flush=True)
            done = subprocess.run(argv, capture_output=True, text=True,
                                  check=False)
            lines = done.stdout.rstrip("\n").split("\n")
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                merged["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(merged, sort_keys=True))
    return 0


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing lays out the simulator's dicts; with a random
        # seed per process the same run's speed varies by several
        # percent between processes.  Pin it (workers inherit it).
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    args = _parse()
    problem = _missing_tree()
    if problem is not None:
        print(f"perfbench: cannot benchmark this tree: {problem}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return _run_all(args)

    scratch = _isolate()
    try:
        from harness import run_workload

        record, result = run_workload(args.workload, args.seed,
                                      args.seconds, bool(args.trace),
                                      spec, ROOT, HERE)
    finally:
        try:
            scratch.rmdir()
        except OSError:  # another run still has a cache directory in it
            pass
    for name, metric in result["metrics"].items():
        print(f"{name:<28} {metric['value']:>16.6f} {metric['unit']}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
