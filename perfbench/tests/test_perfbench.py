"""Tests of the benchmark itself: smoke runs, oracles, seeds and wrappers."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import oracles, tracer, workloads
from repro.core.ring import RingConfiguration
from repro.runtime.spec import RunSpec, execute

ROOT = Path(__file__).resolve().parents[2]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(workload: str, trace: int, seed: int = 1) -> dict:
    """A tiny-length run; each repetition still sends its first 64 runs."""
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_smoke_reports_every_end_to_end_metric(workload: str) -> None:
    result = run_benchmark(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_reports_every_per_layer_metric() -> None:
    result = run_benchmark("serve-cold", trace=1)
    assert result["correct"]
    declared = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    values = {name: m["value"] for name, m in result["metrics"].items()}
    # Every layer works on serve-cold, and the split covers the wall.
    for layer in ("serve.client", "serve.http", "serve.protocol", "runtime.cache",
                  "runtime.runner", "sync", "asynch", "batch"):
        assert values[layer + ".self_share"] > 0, layer
    assert values["serve.gateway.warm_ratio"] == 0.0
    assert values["runtime.spec.digest_calls_per_run"] == 1.0
    assert 0.9 < values["trace.accounted_share"] < 1.3


def test_same_seed_gives_same_sim_totals() -> None:
    first, second = (run_benchmark("campaign", trace=1, seed=7) for _ in range(2))
    for name in ("sim.messages", "sim.bits", "sim.cycles"):
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"] > 0


def test_same_seed_gives_same_specs() -> None:
    def draw(seed: str) -> list:
        campaign = workloads.campaign_calls(seed)
        cold = workloads.cold_requests(seed)
        order = workloads.warm_order(seed, workloads.WARM_POOL_GROUPS)
        return [next(campaign), [next(cold) for _ in range(3)], workloads.warm_pool(seed),
                [next(order) for _ in range(10)]]

    assert draw("3.0") == draw("3.0")
    assert draw("3.0") != draw("3.1")


def test_cold_requests_never_repeat_a_spec() -> None:
    requests = workloads.cold_requests("1.0")
    specs = [spec for _ in range(200) for spec in next(requests)]
    assert len(set(specs)) == len(specs)
    assert sum(spec.record for spec in specs) == 200


def _flipped(result):
    """The result with processor 0's output changed."""
    outputs = list(result.outputs)
    first = outputs[0]
    outputs[0] = outputs[1] if not isinstance(first, int) else (1 - first if first in (0, 1) else first + 1)
    return replace(result, outputs=tuple(outputs))


ORACLE_CASES = [(engine, algorithm, 9) for engine, algorithm, _ in workloads.MIX] + [
    ("sync", "quasi-orientation", 9),
    ("sync", "start-sync", 9),
]


@pytest.mark.parametrize("engine,algorithm,n", ORACLE_CASES)
def test_oracle_accepts_runs_and_rejects_flipped_outputs(engine: str, algorithm: str, n: int) -> None:
    rng = workloads.rng_for("oracle", algorithm)
    if algorithm in ("quasi-orientation", "start-sync"):
        from repro.faults.registry import sync_target_by_name

        ring = sync_target_by_name(algorithm).make_config(n, rng)
        wakeup = tuple(rng.randint(0, n) for _ in range(n)) if algorithm == "start-sync" else None
        spec = RunSpec.make(engine, ring, algorithm, wakeup=wakeup and tuple(w - min(wakeup) for w in wakeup))
    else:
        spec = workloads.make_spec(engine, algorithm, n, rng)
    # A ring whose views all differ, so a borrowed view is a wrong one.
    if algorithm.endswith("input-distribution"):
        spec = spec.with_(ring=RingConfiguration.oriented(tuple(range(n))))
    result = execute(spec)
    assert oracles.check_result(spec, result) is None
    assert oracles.check_result(spec, _flipped(result)) is not None


def test_oracle_checks_the_e1_message_count() -> None:
    spec = workloads.make_spec("async", "input-distribution", 8, workloads.rng_for("e1"))
    result = execute(spec)
    assert result.stats.messages == 8 * 7
    stats = replace(result.stats, messages=result.stats.messages + 1)
    assert "E1" in oracles.check_result(spec, replace(result, stats=stats))


def test_outcome_check_catches_digest_and_pickle_mismatches() -> None:
    from repro.serve.client import RunOutcome

    spec = workloads.make_spec("sync", "sync-and", 8, workloads.rng_for("outcome"))
    result = execute(spec)
    good = RunOutcome(index=0, digest=spec.digest(), status="done", result=result)
    assert oracles.check_outcome(spec, good) is None
    wrong_digest = replace(good, digest="0" * 64)
    assert "digest" in oracles.check_outcome(spec, wrong_digest)
    assert "pickle" in oracles.check_outcome(spec, good, expected_pickle=b"not it")
    error = RunOutcome(index=0, digest=spec.digest(), status="error", error="boom")
    assert oracles.check_outcome(spec, error) is not None


def test_wrappers_restore_the_original_functions() -> None:
    from repro.runtime import spec as spec_module
    from repro.runtime.runner import Runner
    from repro.serve import client
    from repro.sync import simulator

    originals = {
        "to_json_dict": vars(spec_module.RunSpec)["to_json_dict"],
        "from_json_dict": vars(spec_module.RunSpec)["from_json_dict"],
        "run_specs": vars(Runner)["run_specs"],
        "json": vars(client)["json"],
        "run_synchronous": vars(simulator)["run_synchronous"],
    }
    live = tracer.install()
    try:
        assert vars(Runner)["run_specs"] is not originals["run_specs"]
        spec = workloads.make_spec("sync", "sync-and", 8, workloads.rng_for("wrap"))
        assert RunSpec.from_json_dict(spec.to_json_dict()) == spec
        Runner(jobs=1).run_specs([spec])
        names = {span[2]: span for span in live.spans}
        run, outer = names["sync.run"], names["runtime.runner.run_specs"]
        assert run[5] == 8 * execute(spec).cycles
        assert outer[1] is None and outer[3] <= run[3] <= run[4] <= outer[4]
    finally:
        live.uninstall()
    assert vars(spec_module.RunSpec)["to_json_dict"] is originals["to_json_dict"]
    assert vars(spec_module.RunSpec)["from_json_dict"] is originals["from_json_dict"]
    assert vars(Runner)["run_specs"] is originals["run_specs"]
    assert vars(client)["json"] is originals["json"]
    assert vars(simulator)["run_synchronous"] is originals["run_synchronous"]


def test_without_a_checkout_the_benchmark_fails_without_a_result(tmp_path) -> None:
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
