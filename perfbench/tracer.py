"""Spans around the program's public functions, for traced runs only.

:func:`install` replaces each traced function at the name its callers
look up (a module attribute, or a class attribute for methods) with a
wrapper that records a span: ``[id, parent, name, start, end, attr]``.
``parent`` is the enclosing traced call on the same thread; ``attr`` is a
small count read off the arguments or the result (tasks in a batch, steps
in a run, whether a cache get hit).  Spans stay in memory and are written
once, by :meth:`Tracer.dump`, when the process is done.  Spans of one
request get its id when the benchmark merges the processes' spans by time
(see ``layers.py``): one client sends one request at a time, so a span
belongs to the request whose interval holds its start.

The span name's prefix up to the last dot is the layer (``runtime.cache``
for ``runtime.cache.get``).  Untraced runs never import this module.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional


class Tracer:
    """Owns the spans, counters and originals of one process's wrappers."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.counters: Dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._originals: List[tuple] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _replace(self, owner: Any, attr: str, value: Any) -> None:
        self._originals.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        measure: Optional[Callable[[tuple, Any], Any]] = None,
    ) -> None:
        """Trace ``owner.attr``; ``measure(args, result)`` gives the span's attr."""
        raw = vars(owner)[attr]
        is_classmethod = isinstance(raw, classmethod)
        function = raw.__func__ if is_classmethod else raw
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                attr_value = measure(args, result) if measure is not None and result is not None else None
                spans.append([sid, parent, name, start, end, attr_value])

        self._replace(owner, attr, classmethod(traced) if is_classmethod else traced)

    def wrap_generator(self, owner: Any, attr: str, name: str) -> None:
        """Trace a generator function: one span per call, its attr the items.

        The caller does other work between items, so the span starts at
        the first ``next`` and lasts exactly as long as the time spent
        inside the generator.
        """
        function = vars(owner)[attr]
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else None
            inner = function(*args, **kwargs)
            first: Optional[float] = None
            busy = 0.0
            items = 0
            try:
                while True:
                    start = perf_counter()
                    if first is None:
                        first = start
                    try:
                        item = next(inner)
                    except StopIteration:
                        busy += perf_counter() - start
                        return
                    busy += perf_counter() - start
                    items += 1
                    yield item
            finally:
                if first is not None:
                    spans.append([sid, parent, name, first, first + busy, items])

        self._replace(owner, attr, traced)

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def record(self, name: str, start: float, end: float, attr: Any = None) -> None:
        """Add a span timed by the caller (the benchmark's own requests)."""
        self.spans.append([next(self._ids), None, name, start, end, attr])

    def uninstall(self) -> None:
        """Put every original function back, newest wrapper first."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counters": self.counters}, handle)


class _CountingJson:
    """Stands in for ``json`` inside the client: counts response bytes."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self.dumps = json.dumps

    def loads(self, line: Any) -> Any:
        self._tracer.count("serve.http.response_bytes", len(line) + 1)  # + newline
        return json.loads(line)


def _steps(args: tuple, result: Any) -> int:
    return result.n * (result.cycles or 0)


def _events(args: tuple, result: Any) -> int:
    return result.stats.delivered + result.stats.dropped


def _batch(args: tuple, outcomes: Any) -> List[int]:
    steps = sum(o.n * o.cycles for o in outcomes if not isinstance(o, BaseException))
    return [len(outcomes), steps]


def _submit(args: tuple, entries: Any) -> List[int]:
    return [sum(entry.status == "cached" for entry in entries), len(entries)]


def install() -> Tracer:
    """Wrap every traced function of the program; returns the live tracer."""
    from repro.asynch import simulator as asynch_simulator
    from repro.batch import engine as batch_engine
    from repro.runtime import cache, cache_sqlite, runner, spec
    from repro.serve import client, gateway, http, worker
    from repro.sync import simulator as sync_simulator

    tracer = Tracer()
    wrap = tracer.wrap
    wrap(spec.RunSpec, "to_json_dict", "serve.client.encode")
    wrap(client, "decode_result", "serve.client.decode")
    tracer._replace(client, "json", _CountingJson(tracer))
    wrap(spec.RunSpec, "from_json_dict", "runtime.spec.from_json")
    wrap(spec.RunSpec, "digest", "runtime.spec.digest")
    wrap(gateway.Gateway, "submit", "serve.gateway.submit", _submit)
    wrap(worker, "execute_outcome", "serve.gateway.task")
    wrap(http, "run_line", "serve.protocol.run_line")
    tracer.wrap_generator(http, "event_lines", "serve.protocol.event_lines")
    for backend in (cache.ResultCache, cache_sqlite.SqliteResultCache):
        wrap(backend, "get", "runtime.cache.get", lambda args, result: bool(result[0]))
        wrap(backend, "put", "runtime.cache.put")
    wrap(runner.Runner, "run_specs", "runtime.runner.run_specs", lambda args, _: len(args[1]))
    wrap(runner.Runner, "map", "runtime.runner.map", lambda args, _: len(args[1]))
    wrap(sync_simulator, "run_synchronous", "sync.run", _steps)
    wrap(asynch_simulator, "run_asynchronous", "asynch.run", _events)
    wrap(asynch_simulator, "run_async_synchronized", "asynch.synchronized", _events)
    wrap(batch_engine, "run_batch_outcomes", "batch.run", _batch)
    return tracer
