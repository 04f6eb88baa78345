"""In-process workloads: the paper's figures and a 512-flow RED population.

Both drive ``repro.scenarios.runner.run`` exactly as ``repro parity`` and
``repro run`` do, then reduce each run to the output a user checks: the
parity fingerprint for the paper scenarios, the mean-field extraction
for the population.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from layers import Spans, derived_ratios, layer_counts
from workload import Iteration, Part

from repro.experiments import parity
from repro.experiments.population import (
    MEANFIELD_BASE_N,
    RED_BUFFER,
    RED_PARAMS,
    meanfield_fixed_point,
)
from repro.scenarios import families
from repro.scenarios.config import QueueSpec
from repro.scenarios.runner import run


def _overall_hash(result) -> str:
    """The golden-file digest of one run (as ``repro parity`` computes it)."""
    sections = parity.section_hashes(result)
    canonical = json.dumps(dict(sorted(sections.items())), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ScenarioWorkload:
    """Runs a list of configs in one process; subclasses check outputs."""

    name = ""
    in_process = True

    def __init__(self) -> None:
        self.configs: list = []

    def shape(self) -> dict:
        raise NotImplementedError

    def _check(self, index: int, result) -> bool:
        raise NotImplementedError

    def iteration(self, spans: Spans) -> Iteration:
        counts: Counter = Counter()
        parts: list[Part] = []
        events = 0
        extract_seconds = 0.0
        failed = 0
        with spans.attached():
            for index, config in enumerate(self.configs):
                setup_before = spans.seconds["scenarios.build_s"]
                begin = perf_counter()
                result = run(config)
                mark = perf_counter()
                failed += not self._check(index, result)
                end = perf_counter()
                extract_seconds += end - mark
                events += result.events_processed
                parts.append(Part(
                    wall=end - begin,
                    setup=spans.seconds["scenarios.build_s"] - setup_before,
                    sim_seconds=result.wall_seconds,
                    throughput_wall=end - begin))
                for built in spans.take_built():
                    if spans.detail:
                        counts.update(layer_counts(built))
                del result
        layers = {name: float(value) for name, value in counts.items()}
        layers.update(derived_ratios(counts))
        layers.update(spans.seconds)
        layers["scenarios.run_s"] = sum(part.sim_seconds for part in parts)
        layers["scenarios.extract_s"] = extract_seconds
        return Iteration(parts=parts, events=events,
                         attempted=len(self.configs), failed=failed,
                         layers=layers)

    local_pass = iteration


class PaperParity(ScenarioWorkload):
    """All 11 parity cases, each checked against the golden hashes."""

    name = "paper_parity"

    def __init__(self, root: Path, seed: int) -> None:
        super().__init__()
        golden = parity.load_golden(root / parity.DEFAULT_GOLDEN_PATH)
        self.golden = {name: entry["hash"]
                       for name, entry in golden["scenarios"].items()}
        # Always the harness's order: shuffling it per seed moved the
        # process's peak RSS by up to 10% (allocator fragmentation).
        self.cases = parity.parity_cases()
        self.configs = [case.build() for case in self.cases]
        self.seed = seed

    def shape(self) -> dict:
        return {"cases": [case.name for case in self.cases],
                "durations_s": [c.duration for c in self.configs],
                "seed": self.seed,
                "seed_effect": "none: the golden cases are pinned"}

    def _check(self, index: int, result) -> bool:
        return _overall_hash(result) == self.golden.get(self.cases[index].name)


#: Population shape.  The last flow starts at (N - 1) * STAGGER = 5.11 s,
#: and the measurement window opens after it.
N_FLOWS = 512
STAGGER = 0.01
DURATION = 10.0
WARMUP = 6.0


def population_config():
    """The mean-field-scaled RED dumbbell ``red_meanfield`` runs, at N=512.

    Bandwidth, buffer and RED thresholds scale by N/2 from the two-flow
    baseline; flows start 0.01 s apart instead of manyflow's 0.5 s so
    the whole population is running after ~5 s.
    """
    scale = N_FLOWS / MEANFIELD_BASE_N
    params = dict(RED_PARAMS)
    params["min_th"] = RED_PARAMS["min_th"] * scale
    params["max_th"] = RED_PARAMS["max_th"] * scale
    config = families.manyflow_config(
        (N_FLOWS, max(1, round(RED_BUFFER * scale)), 0.0),
        duration=DURATION, warmup=WARMUP, stagger=STAGGER)
    return config.with_updates(
        name=f"{config.name}+red",
        bottleneck_bandwidth=config.bottleneck_bandwidth * scale,
        queue=QueueSpec("red", params))


def population_outputs(result) -> dict:
    """What ``red_meanfield`` reports for one N, plus the run's identity."""
    start, end = result.window
    grids = [np.asarray(result.traces.cwnd(conn.conn_id).cwnd
                        .sample(start, end, 0.25)[1], dtype=float)
             for conn in result.connections]
    predicted, q_star = meanfield_fixed_point(result.config, N_FLOWS)
    return {
        "fingerprint_hash": parity.fingerprint_hash(result),
        "events": result.events_processed,
        "mean_cwnd": float(np.mean(np.mean(np.stack(grids), axis=0))),
        "meanfield_window": predicted,
        "meanfield_queue": q_star,
        "utilization": result.utilization(),
        "epochs": len(result.epochs()),
    }


def outputs_match(actual: dict, expected: dict) -> bool:
    """Identity fields exactly, derived floats to 1e-9 relative."""
    for key, want in expected.items():
        have = actual.get(key)
        if isinstance(want, float):
            if have is None or not math.isclose(have, want, rel_tol=1e-9):
                return False
        elif have != want:
            return False
    return True


class Population512(ScenarioWorkload):
    """One 512-flow RED run checked against its recorded outputs."""

    name = "population_512"

    def __init__(self, seed: int, expected: dict) -> None:
        super().__init__()
        self.configs = [population_config()]
        self.expected = expected
        self.seed = seed

    def shape(self) -> dict:
        config = self.configs[0]
        return {"flows": N_FLOWS, "duration_s": config.duration,
                "warmup_s": config.warmup, "stagger_s": STAGGER,
                "queue": config.queue.name, "buffer": config.buffer_packets,
                "seed": self.seed,
                "seed_effect": "none: one pinned scenario, so its "
                               "fingerprint can be recorded"}

    def _check(self, index: int, result) -> bool:
        return outputs_match(population_outputs(result), self.expected)
