"""One repetition of a workload, in a fresh process.

Usage (from the repository root, with ``src`` and the root on
``PYTHONPATH``; ``run.py`` does this)::

    python -m perfbench.rep --workload W --seed S --seconds T --trace 0|1 \\
        --t0 PERF_COUNTER_AT_SPAWN --tmp DIR

Set-up runs from the spawn to the first timed request: imports, spec
generation, the gateway's start and, for serve-warm, the preload.  The
timed window then sends requests until their summed time reaches
``--seconds``; spec generation for the next request and the checks of
the last one happen outside it.  Results are checked right after their
request returns and then dropped, so memory does not grow with
throughput.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import select
import signal
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: ``sim.*`` totals cover this many first runs of the window, so that
#: they repeat exactly for a seed whatever the throughput.
SIM_RUNS = 64

#: Per-request client timeout: a hung request fails and the run goes on,
#: well inside the repetition's share of the run's time limit.
REQUEST_TIMEOUT_S = 20.0


def pin(pid: int, cpu: int) -> None:
    """Move every thread of process ``pid`` onto ``cpu``."""
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(tid), {cpu})
        except ProcessLookupError:
            pass  # the thread ended meanwhile


class Rotation:
    """Moves the working processes between vCPUs every ``PERIOD_S``.

    One vCPU of a shared host is often slower than another for minutes
    at a time.  Left alone, a process stays on the vCPU it started on and
    a run measures that vCPU; rotating, every request spends equal time
    on each.  The processes in ``pids`` sit on different vCPUs (while
    there are enough) and shift together.
    """

    PERIOD_S = 0.05

    def __init__(self, pids: List[int]) -> None:
        self.pids = pids
        self.cpus = sorted(os.sched_getaffinity(0))
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="perfbench-rotation", daemon=True)

    def _shift(self, turn: int) -> None:
        for offset, pid in enumerate(self.pids):
            pin(pid, self.cpus[(turn + offset) % len(self.cpus)])

    def _run(self) -> None:
        turn = 0
        while not self._stop.wait(self.PERIOD_S):
            turn += 1
            self._shift(turn)

    def __enter__(self) -> "Rotation":
        self._shift(0)
        self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._stop.set()
        self._thread.join()


def peak_rss_mb(pid: Any = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


class GatewayProcess:
    """``perfbench.gateway`` in its own process, started before the imports."""

    def __init__(self, cache: Path, trace_file: Optional[Path]) -> None:
        command = [sys.executable, "-m", "perfbench.gateway", "--cache", str(cache)]
        if trace_file is not None:
            command += ["--trace", str(trace_file)]
        self.process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)

    def url(self, timeout: float = 60.0) -> str:
        ready, _, _ = select.select([self.process.stdout], [], [], timeout)
        line = self.process.stdout.readline() if ready else ""
        if not line.startswith("serving on "):
            raise RuntimeError(f"gateway did not come up: {line!r}")
        return line.split()[-1]

    def stop(self) -> None:
        """SIGINT: the gateway drains and exits; kill it if it does not."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def _serve_setup(
    workload: str, seed: str, url: str, counts: Dict[str, Any]
) -> Tuple[Iterator[list], Callable[[list], list], Dict[Any, bytes]]:
    """Requests and the sender for a serve workload; preloads serve-warm."""
    from perfbench import oracles, workloads
    from repro.serve.client import submit_specs

    def send(specs: list) -> list:
        return submit_specs(url, specs, timeout=REQUEST_TIMEOUT_S)

    if workload == "serve-cold":
        return workloads.cold_requests(seed), send, {}
    pool = workloads.warm_pool(seed)
    expected: Dict[Any, bytes] = {}
    for first in range(0, len(pool), 8):
        specs = [spec for group in pool[first:first + 8] for spec in group]
        for spec, outcome in zip(specs, send(specs)):
            counts["attempted"] += 1
            problem = oracles.check_outcome(spec, outcome)
            if problem is None:
                expected[spec] = pickle.dumps(outcome.result, protocol=pickle.HIGHEST_PROTOCOL)
            else:
                counts["failed"] += 1
                counts["problems"].append(f"preload {spec.algorithm}: {problem}")
    order = workloads.warm_order(seed, len(pool))
    return (pool[index] for index in order), send, expected


def run(args: argparse.Namespace, gateway: Optional[GatewayProcess]) -> Dict[str, Any]:
    from perfbench import oracles, workloads
    from repro.runtime.cache import code_version
    from repro.serve.client import ServerQueueFull

    counts: Dict[str, Any] = {"attempted": 0, "failed": 0, "problems": []}
    expected: Dict[Any, bytes] = {}
    if gateway is None:
        from repro.runtime.runner import Runner

        requests: Iterator[list] = workloads.campaign_calls(args.seed)
        runner = Runner(jobs=1)

        def send(specs: list) -> list:
            return runner.run_specs(specs)  # looked up per call, so tracing sees it
    else:
        requests, send, expected = _serve_setup(args.workload, args.seed, gateway.url(), counts)
    specs = next(requests)
    tracer = None
    if args.trace:
        from perfbench.layers import REQUEST
        from perfbench.tracer import install

        tracer = install()
    setup_s = perf_counter() - args.t0

    timed = 0.0
    latencies: List[float] = []
    verified = rejected = window_runs = sim_runs = recorded = events = 0
    sim = {"messages": 0, "bits": 0, "cycles": 0}
    working = [os.getpid()] if gateway is None else [gateway.process.pid, os.getpid()]
    with Rotation(working):
        while timed < args.seconds or sim_runs < SIM_RUNS:
            error = None
            sent = perf_counter()
            try:
                answers = send(specs)
            except ServerQueueFull as exc:
                rejected += 1
                error = f"429: {exc}"
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                error = f"{type(exc).__name__}: {exc}"
            done = perf_counter()
            timed += done - sent
            latencies.append(done - sent)
            if tracer is not None:
                tracer.record(REQUEST, sent, done)
            counts["attempted"] += len(specs)
            window_runs += len(specs)
            if error is not None:
                counts["failed"] += len(specs)
                counts["problems"].append(error)
                sim_runs = SIM_RUNS  # totals would no longer repeat; stop counting
                specs = next(requests)
                continue
            for spec, answer in zip(specs, answers):
                if gateway is None:
                    result, problem = answer, oracles.check_result(spec, answer)
                else:
                    result = answer.result
                    problem = oracles.check_outcome(spec, answer, expected.get(spec))
                if problem is not None:
                    counts["failed"] += 1
                    counts["problems"].append(f"{spec.engine} {spec.algorithm}: {problem}")
                    continue
                verified += 1
                if spec.record:
                    recorded += 1
                    events += len(result.events)
                if sim_runs < SIM_RUNS:
                    sim_runs += 1
                    sim["messages"] += result.stats.messages
                    sim["bits"] += result.stats.bits
                    sim["cycles"] += result.cycles or 0
            specs = next(requests)

    import numpy

    out: Dict[str, Any] = {
        "setup_s": setup_s,
        "timed_s": timed,
        "latencies_s": latencies,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "problems": counts["problems"][:5],
        "verified": verified,
        "window_runs": window_runs,
        "rejected": rejected,
        "peak_rss_mb": peak_rss_mb(gateway.process.pid if gateway else "self"),
        "sim": sim,
        "obs": {"recorded_runs": recorded, "events": events},
        "code_version": code_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        tracer.uninstall()
        out["spans"] = tracer.spans
        out["counters"] = tracer.counters
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    args = parser.parse_args()
    cache = args.tmp / "cache"
    serve = args.workload != "campaign"
    trace_file = args.tmp / "gateway-spans.json" if args.trace and serve else None
    gateway = GatewayProcess(cache, trace_file) if serve else None
    try:
        out = run(args, gateway)
    finally:
        if gateway is not None:
            gateway.stop()
    if gateway is not None:
        from repro.runtime.cache import open_cache

        stats = open_cache(cache).stats()
        out["cache"] = {key: stats[key] for key in ("backend", "entries", "bytes")}
    if args.trace:
        from perfbench.layers import span_sums

        processes = [out.pop("spans")]
        if trace_file is not None:
            with open(trace_file) as handle:
                processes.append(json.load(handle)["spans"])
        out["trace"] = span_sums(processes, serve=gateway is not None)
        out["trace"].update(out.pop("counters"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
