"""The benchmark's own tests.

    python3 -m pytest perfbench/selftest.py -q

Kept out of the repository's tier-1 collection (the file name does not
match ``test_*.py``): the seeded-workload tests run the benchmark
command end to end, about two minutes in all.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
os.environ["REPRO_CACHE_DIR"] = "off"  # before the first repro import
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from metrics import END_TO_END, PER_LAYER, WORKLOAD_REASONS  # noqa: E402
from repro.experiments import registry  # noqa: E402
from repro.experiments.runner import run_experiments  # noqa: E402
from repro.fleet import run_shard, simulate  # noqa: E402
from repro.sim import system  # noqa: E402

#: A second seed per seeded workload (the defaults are 2025 and 404).
SECOND_SEEDS = {"relaunch_cold": 7, "switching_warm": 7, "fleet": 405}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )


def test_benchmark_json_matches_declarations():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == WORKLOAD_REASONS
    assert list(WORKLOAD_REASONS) == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_workload_passes_its_checks_at_a_second_seed(workload):
    args = ["--workload", workload, "--seconds", "1"]
    if workload in SECOND_SEEDS:
        args += ["--seed", str(SECOND_SEEDS[workload])]
    done = bench(*args)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m.name for m in END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert f"digest {workload} " in done.stdout


def test_planted_digest_mismatch_raises_error_rate():
    workload = workloads.SwitchingWarm(seed=2025)
    workload.setup()
    key = next(iter(workload.reference))
    workload.reference[key] = "planted"
    ops = [run.run_op(workload) for _ in range(2)]
    attempted, failed, problems = run.account(ops)
    assert failed >= 2 and failed / attempted > 0
    assert any("differs from the priming run" in p for p in problems)


def test_planted_failing_task_raises_error_rate():
    @registry.register
    class Planted(registry.Experiment):
        id = "perfbench_planted"
        title = "always fails"
        anchor = "selftest"

        def compute(self, quick=False):
            raise RuntimeError("planted failure")

    try:
        outcomes = run_experiments([Planted.id], jobs=1, quick=True)
        suite = workloads.Suite(seed=0)
        check = suite.verify((outcomes, outcomes, (0, 0), 0.0))
        op = run.Op(wall_s=1.0, scope_s=1.0, check=check)
        attempted, failed, problems = run.account([op])
    finally:
        registry._REGISTRY.pop(Planted.id, None)
    assert failed > 0 and failed / attempted > 0
    assert any("planted failure" in p for p in problems)


def test_tracer_accounts_for_the_wall_and_restores_every_name():
    originals = (system.make_system, simulate.make_system,
                 simulate.sample_device, system.MobileSystem.relaunch)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert simulate.make_system is not originals[0]
        tracer.begin_op()
        run_shard(404, 0, 3)
        totals = tracer.end_op()
    finally:
        tracer.uninstall()
    assert (system.make_system, simulate.make_system, simulate.sample_device,
            system.MobileSystem.relaunch) == originals
    assert sum(totals.self_s.values()) == pytest.approx(totals.wall_s, abs=1e-9)
    assert totals.counts["sim.relaunches"] > 0
    assert {event["args"].get("id") for event in tracer.events} >= {
        "device-0", "device-1", "device-2"}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", "fleet", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
