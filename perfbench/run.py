"""Run one workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload {campaign,serve-cold,serve-warm} \\
        --seed N --seconds S --trace {0,1}

Each run makes ``REPS`` repetitions, each a fresh process
(``perfbench/rep.py``) that sets up, measures for ``S / REPS`` seconds
and checks every result.  End-to-end metrics pool the repetitions:
``setup_s`` and ``peak_rss_mb`` are medians over them, ``runs_per_s``
and the latency percentiles pool their runs and requests.  With
``--trace 1`` the first repetition runs untraced, for ``trace.overhead``,
and the others traced, for the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it give every metric with its unit, the failure rate, the sample counts
and the provenance of the numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

WORKLOADS = ("campaign", "serve-cold", "serve-warm")
REPS = 3

#: Seconds a run may take in all; each repetition gets an equal share.
RUN_LIMIT_S = 170.0


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"


def _repetition(args: argparse.Namespace, rep: int, traced: bool, tmp: Path) -> Dict[str, Any]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    command = [
        sys.executable, "-m", "perfbench.rep",
        "--workload", args.workload,
        "--seed", f"{args.seed}.{rep}",
        "--seconds", str(args.seconds / REPS),
        "--trace", str(int(traced)),
        "--tmp", str(tmp),
    ]
    # The process group lets a timeout take the gateway down with its client.
    process = subprocess.Popen(
        command + ["--t0", repr(perf_counter())],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=RUN_LIMIT_S / REPS)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RuntimeError(f"repetition {rep} exceeded {RUN_LIMIT_S / REPS:.0f}s") from None
    if process.returncode != 0 or not stdout.strip():
        raise RuntimeError(f"repetition {rep} exited with code {process.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def latencies_ms(reps: List[Dict[str, Any]]) -> List[float]:
    return [value * 1e3 for rep in reps for value in rep["latencies_s"]]


def end_to_end(reps: List[Dict[str, Any]]) -> Dict[str, Any]:
    percentiles = statistics.quantiles(latencies_ms(reps), n=100, method="inclusive")
    return {
        "setup_s": (statistics.median(rep["setup_s"] for rep in reps), "s"),
        "runs_per_s": (
            sum(rep["verified"] for rep in reps) / sum(rep["timed_s"] for rep in reps), "runs/s"),
        "latency_p50_ms": (percentiles[49], "ms"),
        "latency_p90_ms": (percentiles[89], "ms"),
        "peak_rss_mb": (statistics.median(rep["peak_rss_mb"] for rep in reps), "MB"),
    }


def per_layer(untraced: Dict[str, Any], traced: List[Dict[str, Any]]) -> Dict[str, Any]:
    from perfbench.layers import metrics

    sums: Dict[str, float] = {}
    for rep in traced:
        for key, value in rep["trace"].items():
            sums[key] = sums.get(key, 0.0) + value
        sums["runs"] = sums.get("runs", 0.0) + rep["window_runs"]
        sums["rejected"] = sums.get("rejected", 0.0) + rep["rejected"]
        sums["wall"] = sums.get("wall", 0.0) + rep["timed_s"]
        for group in ("sim", "obs"):
            for key, value in rep[group].items():
                sums[f"{group}.{key}"] = sums.get(f"{group}.{key}", 0.0) + value
        if "cache" in rep:
            sums["cache.bytes"] = sums.get("cache.bytes", 0.0) + rep["cache"]["bytes"]
            sums["cache.entries"] = sums.get("cache.entries", 0.0) + rep["cache"]["entries"]
    sums["untraced_runs_per_s"] = untraced["verified"] / untraced["timed_s"]
    sums["traced_runs_per_s"] = (
        sum(rep["verified"] for rep in traced) / sum(rep["timed_s"] for rep in traced))
    return metrics(sums)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        reps = []
        for rep in range(REPS):
            rep_dir = tmp / str(rep)
            rep_dir.mkdir()
            reps.append(_repetition(args, rep, bool(args.trace) and rep > 0, rep_dir))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()  # only when no other run is using it
        except OSError:
            pass

    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    provenance = {
        "commit": _commit(),
        "code_version": reps[0]["code_version"],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": reps[0]["numpy"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "repetitions": REPS,
        "cache_backend": reps[0].get("cache", {}).get("backend", "none (no cache)"),
    }
    print(f"provenance {json.dumps(provenance)}")
    samples = latencies_ms(reps)
    p99 = statistics.quantiles(samples, n=100, method="inclusive")[98]
    print(f"latency samples {len(samples)} requests, {len(samples) // 10} beyond p90")
    print(f"latency_p99_ms {p99:.6g} ms ({len(samples) // 100} samples beyond it; not gated)")
    print(f"fail_rate {failed / attempted:.6g} fraction ({failed} of {attempted} runs)")
    for rep in reps:
        for problem in rep["problems"]:
            print(f"failure: {problem}")
    chosen = per_layer(reps[0], reps[1:]) if args.trace else end_to_end(reps)
    for name, (value, unit) in chosen.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
