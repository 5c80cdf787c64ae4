"""Turn traced spans into per-layer sums, and pooled sums into metrics.

One repetition's spans come from up to two processes: the benchmark's
own (its requests, the client, or the whole campaign) and the gateway's.
Both clocks are ``time.perf_counter``, which on Linux is the system-wide
``CLOCK_MONOTONIC``, so the spans share one time line.  A root span (no
traced parent on its thread) belongs to the request whose interval holds
its start, and its descendants follow it; spans outside every request
(set-up, the serve-warm preload, checks) are dropped.

A span's self time is its duration minus its children's; a layer's self
time is the sum over its spans.  What a request's root spans do not
cover is ``serve.http`` self time: sockets, HTTP, JSON, chunk framing.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Iterable, List, Sequence, Tuple

REQUEST = "bench.request"

#: Layers whose self time the trace splits out, in data-path order.
LAYERS = (
    "serve.client",
    "serve.http",
    "serve.gateway",
    "serve.protocol",
    "runtime.spec",
    "runtime.cache",
    "runtime.runner",
    "sync",
    "asynch",
    "batch",
)


def layer_of(name: str) -> str:
    return name.rsplit(".", 1)[0]


def _union(intervals: Iterable[Tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def _add(sums: Dict[str, float], key: str, amount: float) -> None:
    sums[key] = sums.get(key, 0.0) + amount


def span_sums(processes: Sequence[List[List[Any]]], serve: bool) -> Dict[str, float]:
    """Per-layer sums for one repetition.

    ``processes`` holds each process's span list; the benchmark's own
    (with the ``bench.request`` spans) comes first.
    """
    requests = sorted(
        (span[3], span[4]) for span in processes[0] if span[2] == REQUEST
    )
    starts = [start for start, _ in requests]
    sums: Dict[str, float] = {"requests": len(requests)}
    roots: List[List[Tuple[float, float]]] = [[] for _ in requests]
    for spans in processes:
        by_id = {span[0]: span for span in spans if span[2] != REQUEST}
        child_time: Dict[int, float] = {}
        for span in by_id.values():
            if span[1] is not None:
                child_time[span[1]] = child_time.get(span[1], 0.0) + span[4] - span[3]
        request_of: Dict[int, int] = {}
        submit_end: Dict[int, float] = {}
        # Ids grow with start time, so parents and submits come first.
        for sid in sorted(by_id):
            _, parent, name, start, end, attr = by_id[sid]
            if parent is not None:
                if parent not in request_of:
                    continue
                request = request_of[parent]
            else:
                request = bisect.bisect_right(starts, start) - 1
                if request < 0 or start > requests[request][1]:
                    continue
                roots[request].append((start, min(end, requests[request][1])))
            request_of[sid] = request
            duration = end - start
            _add(sums, "self." + layer_of(name), duration - child_time.get(sid, 0.0))
            _add(sums, "busy." + name, duration)
            _add(sums, "calls." + name, 1)
            if name == "serve.gateway.task" and parent is not None:
                _add(sums, "gateway.jobs", 1)
                _add(sums, "gateway.hol_wait", by_id[parent][4] - end)
            if attr is None:
                continue
            if name == "runtime.cache.get":
                _add(sums, "cache.hits", attr)
            elif name == "serve.gateway.submit":
                submit_end[request] = end
                _add(sums, "gateway.cached", attr[0])
                _add(sums, "gateway.entries", attr[1])
            elif name == "serve.protocol.event_lines":
                _add(sums, "protocol.event_lines", attr)
            elif name in ("sync.run", "asynch.run", "asynch.synchronized"):
                _add(sums, "work." + name, attr)
            elif name == "batch.run":
                _add(sums, "batch.specs", attr[0])
                _add(sums, "work.batch.run", attr[1])
            elif name.startswith("runtime.runner."):
                if parent is None or by_id[parent][2] != "runtime.runner.run_specs":
                    _add(sums, "runner.batches", 1)
                    _add(sums, "runner.tasks", attr)
                if name == "runtime.runner.map" and request in submit_end:
                    # A gateway chunk: its jobs waited since the submit.
                    _add(sums, "gateway.maps", 1)
                    _add(sums, "gateway.queued_jobs", attr)
                    _add(sums, "gateway.queue_wait", attr * (start - submit_end[request]))
    if serve:
        _add(sums, "self.serve.http", sum(
            (end - start) - _union(roots[index]) for index, (start, end) in enumerate(requests)
        ))
    return sums


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def metrics(sums: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from sums pooled over the traced repetitions."""
    def get(key: str) -> float:
        return sums.get(key, 0.0)

    def busy(name: str) -> float:
        return get("busy." + name)

    def calls(name: str) -> float:
        return get("calls." + name)

    requests, runs = get("requests"), get("runs")
    out: Dict[str, Tuple[float, str]] = {
        "serve.client.encode_ms": (_ratio(busy("serve.client.encode"), requests) * 1e3, "ms"),
        "serve.client.decode_ms": (_ratio(busy("serve.client.decode"), requests) * 1e3, "ms"),
        "serve.http.self_ms": (_ratio(get("self.serve.http"), requests) * 1e3, "ms"),
        "serve.http.bytes_per_request": (_ratio(get("serve.http.response_bytes"), requests), "B"),
        "serve.http.rejected": (get("rejected"), "count"),
        "serve.gateway.submit_ms": (_ratio(busy("serve.gateway.submit"), requests) * 1e3, "ms"),
        "serve.gateway.queue_wait_ms": (
            _ratio(get("gateway.queue_wait"), get("gateway.queued_jobs")) * 1e3, "ms"),
        "serve.gateway.hol_wait_ms": (_ratio(get("gateway.hol_wait"), get("gateway.jobs")) * 1e3, "ms"),
        "serve.gateway.jobs_per_chunk": (_ratio(get("gateway.queued_jobs"), get("gateway.maps")), "jobs"),
        "serve.gateway.warm_ratio": (_ratio(get("gateway.cached"), get("gateway.entries")), "fraction"),
        "serve.protocol.encode_us_per_run": (
            _ratio(busy("serve.protocol.run_line"), calls("serve.protocol.run_line")) * 1e6, "us"),
        "serve.protocol.event_lines_per_run": (
            _ratio(get("protocol.event_lines"), calls("serve.protocol.run_line")), "lines"),
        "serve.protocol.event_us_per_line": (
            _ratio(busy("serve.protocol.event_lines"), get("protocol.event_lines")) * 1e6, "us"),
        "runtime.spec.from_json_us": (
            _ratio(busy("runtime.spec.from_json"), calls("runtime.spec.from_json")) * 1e6, "us"),
        "runtime.spec.digest_us": (
            _ratio(busy("runtime.spec.digest"), calls("runtime.spec.digest")) * 1e6, "us"),
        "runtime.spec.digest_calls_per_run": (_ratio(calls("runtime.spec.digest"), runs), "calls"),
        "runtime.cache.get_us": (
            _ratio(busy("runtime.cache.get"), calls("runtime.cache.get")) * 1e6, "us"),
        "runtime.cache.hit_ratio": (_ratio(get("cache.hits"), calls("runtime.cache.get")), "fraction"),
        "runtime.cache.gets": (calls("runtime.cache.get"), "count"),
        "runtime.cache.put_us": (
            _ratio(busy("runtime.cache.put"), calls("runtime.cache.put")) * 1e6, "us"),
        "runtime.cache.puts": (calls("runtime.cache.put"), "count"),
        "runtime.cache.bytes_per_entry": (_ratio(get("cache.bytes"), get("cache.entries")), "B"),
        "runtime.runner.self_ms_per_batch": (
            _ratio(get("self.runtime.runner"), get("runner.batches")) * 1e3, "ms"),
        "runtime.runner.tasks_per_batch": (_ratio(get("runner.tasks"), get("runner.batches")), "tasks"),
        "sync.busy_s": (busy("sync.run"), "s"),
        "sync.steps": (get("work.sync.run"), "count"),
        "sync.us_per_step": (_ratio(busy("sync.run"), get("work.sync.run")) * 1e6, "us"),
        "asynch.busy_s": (busy("asynch.run") + busy("asynch.synchronized"), "s"),
        "asynch.events": (get("work.asynch.run") + get("work.asynch.synchronized"), "count"),
        "asynch.us_per_event": (_ratio(busy("asynch.run"), get("work.asynch.run")) * 1e6, "us"),
        "asynch.sync_us_per_event": (
            _ratio(busy("asynch.synchronized"), get("work.asynch.synchronized")) * 1e6, "us"),
        "batch.busy_s": (busy("batch.run"), "s"),
        "batch.calls": (calls("batch.run"), "count"),
        "batch.specs_per_call": (_ratio(get("batch.specs"), calls("batch.run")), "specs"),
        "batch.us_per_step": (_ratio(busy("batch.run"), get("work.batch.run")) * 1e6, "us"),
        "obs.events_per_recorded_run": (_ratio(get("obs.events"), get("obs.recorded_runs")), "events"),
        "sim.messages": (get("sim.messages"), "count"),
        "sim.bits": (get("sim.bits"), "count"),
        "sim.cycles": (get("sim.cycles"), "count"),
        "trace.overhead": (_ratio(get("traced_runs_per_s"), get("untraced_runs_per_s")), "ratio"),
    }
    accounted = 0.0
    for layer in LAYERS:
        share = _ratio(get("self." + layer), get("wall"))
        accounted += share
        out[layer + ".self_share"] = (share, "fraction")
    out["trace.accounted_share"] = (accounted, "fraction")
    return out
