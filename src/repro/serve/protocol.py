"""NDJSON line schemas shared by the HTTP layer and the client.

Every line of a ``POST /runs`` response is one JSON object with a
``type`` field:

* ``{"type": "accepted", "runs": N, "cached": C, "queued": Q}`` — the
  batch was admitted; exactly one, first.
* ``{"type": "run", "index": i, "digest": d, "status": s, ...}`` — one
  per submitted spec, in completion order (warm entries first).
  ``status`` is ``"cached"`` / ``"done"`` / ``"error"``; successful
  lines carry ``result_pickle`` (base64 of the result's pickle — the
  *same bytes contract* as local execution: unpickling yields a result
  pickle-equal to ``Runner.run_specs``) plus a small JSON ``summary``;
  error lines carry ``error``.
* ``{"type": "event", "index": i, "event": {...}}`` — the recorded
  :mod:`repro.obs` stream of run ``i`` (``record=True`` specs), one
  event per line in ``seq`` order, in the exact
  :func:`repro.obs.export.event_to_json` JSONL format, emitted directly
  after the run's ``run`` line.
* ``{"type": "done", "runs": N, "failed": F}`` — exactly one, last.

Framing: the response is chunked, and every HTTP chunk carries whole
lines only.  A run's ``run`` line and its event lines are buffered and
flushed once they pass 64 KiB and again at the end of the run, so a
chunk holds one run, or about 64 KiB of a long recorded run.  Chunk
boundaries carry no meaning: clients split the de-chunked body on
newlines, never on chunks.
"""

from __future__ import annotations

import base64
import json
import pickle
from operator import attrgetter
from typing import Any, Dict, Iterator, Optional, Tuple

from .gateway import RunEntry


def encode_result(value: Any) -> str:
    """Pickle + base64: the result bytes exactly as local execution pickles them."""
    return base64.b64encode(
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def decode_result(data: str) -> Any:
    """Invert :func:`encode_result`."""
    return pickle.loads(base64.b64decode(data.encode("ascii")))


def _summary(value: Any) -> Dict[str, Any]:
    """A small JSON-able glance at a result (the full result is the pickle)."""
    stats = getattr(value, "stats", None)
    return {
        "n": getattr(value, "n", None),
        "messages": getattr(stats, "messages", None),
        "bits": getattr(stats, "bits", None),
        "cycles": getattr(value, "cycles", None),
    }


def run_line(
    entry: RunEntry, result: Any = None, error: Optional[str] = None
) -> Dict[str, Any]:
    """The per-run status line for one entry."""
    line: Dict[str, Any] = {
        "type": "run",
        "index": entry.index,
        "digest": entry.digest,
    }
    if error is not None:
        line["status"] = "error"
        line["error"] = error
        return line
    line["status"] = "cached" if entry.status == "cached" else "done"
    line["result_pickle"] = encode_result(result)
    line["summary"] = _summary(result)
    return line


#: One ``event`` line, byte for byte what ``json.dumps`` makes of
#: ``{"type": "event", "index": i, "event": event_to_json(ev)}`` plus the
#: newline: the keys of :func:`repro.obs.export.event_to_json` in order.
_EVENT_LINE = (
    '{"type": "event", "index": %s, "event": {"seq": %s, "kind": %s, '
    '"time": %s, "etime": %s, "proc": %s, "peer": %s, "port": %s, '
    '"payload": %s, "bits": %s, "msg": %s, "detail": %s}}\n'
)
_EVENT_FIELDS = attrgetter(
    "seq", "kind", "time", "etime", "proc", "peer", "port", "payload", "bits", "msg", "detail"
)


class _JsonTexts(dict):
    """``str``/``None`` values to their JSON text, each encoded once.

    Keyed by ``str``/``None`` only: ``True == 1 == 1.0`` would share a key.
    """

    def __missing__(self, key: Optional[str]) -> str:
        text = self[key] = json.dumps(key)
        return text


def event_lines(entry: RunEntry, result: Any) -> Iterator[str]:
    """The run's recorded obs events as NDJSON ``event`` lines (maybe none).

    Each line is the text ``json.dumps`` gives the line's dict, newline
    included.  Events with the field types the recorders emit (ints,
    strings, ``None``) are rendered from one template: a payload object
    is encoded once per run (send, enqueue and deliver share one), and
    each distinct string field once.  Any other event takes the plain
    ``json.dumps`` path.
    """
    events = getattr(result, "events", None)
    if not events:
        return
    from ..obs.export import encode_value, event_to_json

    dumps = json.dumps
    index = dumps(entry.index)
    texts = _JsonTexts()
    payloads: Dict[int, Tuple[str, Any]] = {}
    for event in events:
        seq, kind, time, etime, proc, peer, port, payload, bits, msg, detail = _EVENT_FIELDS(event)
        # ``%s`` prints an exact int as json does; bools and floats differ.
        if not (
            type(seq) is type(time) is type(etime) is type(bits) is int
            and type(kind) is type(detail) is str
            and (proc is None or type(proc) is int)
            and (peer is None or type(peer) is int)
            and (msg is None or type(msg) is int)
            and (port is None or type(port) is str)
        ):
            line = {"type": "event", "index": entry.index, "event": event_to_json(event)}
            yield dumps(line) + "\n"
            continue
        # The memo holds the payload too, so its id stays its own.
        known = payloads.get(id(payload))
        if known is None:
            known = payloads[id(payload)] = (dumps(encode_value(payload)), payload)
        yield _EVENT_LINE % (
            index, seq, texts[kind], time, etime,
            "null" if proc is None else proc,
            "null" if peer is None else peer,
            texts[port], known[0], bits,
            "null" if msg is None else msg,
            texts[detail],
        )


def done_line(runs: int, failed: int) -> Dict[str, Any]:
    return {"type": "done", "runs": runs, "failed": failed}
