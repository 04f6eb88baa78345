"""``jobs > 1`` on this host: persistent stdio worker agents.

Local parallel sweeps run on ``jobs`` long-lived agents driven by the
lease engine.  These tests pin what that must keep from the old
process-per-point executors: script-level (``__main__``) extractors and
registered algorithms work, a host that cannot spawn still finishes the
sweep in-process, a plain run fails on its first failed point, and no
child process outlives ``run()``.
"""

import functools
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.errors import SweepFailureError
from repro.parallel import ParallelSweepRunner
from repro.resilience import FAULTS_ENV, ResilienceConfig
from repro.scenarios import families

CASES = families.CONJECTURE_CASES[:3]
make_config = functools.partial(families.conjecture_config,
                                duration=5.0, warmup=2.0)
CONFIGS = [make_config(case) for case in CASES]
extract = families.utilization_extract

SRC = str(Path(repro.__file__).resolve().parents[1])

SCRIPT = textwrap.dedent("""\
    import functools
    import json

    from repro import tcp
    from repro.parallel import ParallelSweepRunner
    from repro.scenarios import families


    class ScriptFixed(tcp.FixedWindowControl):
        \"\"\"A fixed window under a name only this script registers.\"\"\"


    tcp.register_algorithm("scriptfixed", ScriptFixed)
    short_config = functools.partial(families.conjecture_config,
                                     duration=5.0, warmup=2.0)


    def make_config(case):
        return families.substituted_config(case, make_config=short_config,
                                           algorithm="scriptfixed")


    def total_utilization(result):
        return {"total": sum(families.utilization_extract(result).values())}


    if __name__ == "__main__":
        cases = families.CONJECTURE_CASES[:3]
        workers = set()
        serial = ParallelSweepRunner(jobs=1).run(make_config, cases,
                                                 total_utilization)
        parallel = ParallelSweepRunner(jobs=2).run(
            make_config, cases, total_utilization,
            on_progress=lambda event: workers.add(event.worker))
        print(json.dumps({"same": parallel == serial,
                          "workers": sorted(workers)}))
""")


def failing_extract(result):
    """An extractor every agent can import, and that always fails."""
    raise ValueError("extract refused")


def _children() -> list[int]:
    """PIDs of this process's live (or unreaped) children."""
    me = os.getpid()
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # raced with exit
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            children.append(int(entry.name))
    return children


@pytest.fixture(scope="module")
def baseline():
    return ParallelSweepRunner(jobs=1).run_configs(CONFIGS, extract)


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    monkeypatch.delenv(FAULTS_ENV, raising=False)


def test_script_main_extractor_and_algorithm_work(tmp_path):
    script = tmp_path / "script_sweep.py"
    script.write_text(SCRIPT)
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop(FAULTS_ENV, None)
    done = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    outcome = json.loads(done.stdout.strip().splitlines()[-1])
    assert outcome["same"]
    assert outcome["workers"]
    assert all(worker.startswith("agent") for worker in outcome["workers"])


def test_unspawnable_agents_fall_back_in_process(baseline, monkeypatch):
    def no_more_processes(*args, **kwargs):
        raise OSError(24, "Too many open files")

    monkeypatch.setattr(subprocess, "Popen", no_more_processes)
    runner = ParallelSweepRunner(jobs=2, resilience=True)
    with pytest.warns(RuntimeWarning, match="in-process"):
        assert runner.run_configs(CONFIGS, extract) == baseline
    assert runner.last_report.ok


def test_plain_run_raises_on_first_failed_point():
    runner = ParallelSweepRunner(jobs=2)
    with pytest.raises(SweepFailureError) as excinfo:
        runner.run_configs(CONFIGS, failing_extract)
    (failure,) = excinfo.value.failures
    assert failure.kind == "error"
    assert "ValueError: extract refused" in failure.message
    assert runner.last_report is None
    assert _children() == []


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.parametrize("resilience,faults", [
    (None, ""),
    (ResilienceConfig(timeout=2.0, retries=1, backoff_base=0.01,
                      backoff_cap=0.02), "kill@0;hang@1:600"),
])
def test_no_child_outlives_run(baseline, monkeypatch, resilience, faults):
    if faults:
        monkeypatch.setenv(FAULTS_ENV, faults)
    runner = ParallelSweepRunner(jobs=2, resilience=resilience)
    assert runner.run_configs(CONFIGS, extract) == baseline
    assert _children() == []
