"""The gateway's NDJSON stream: line rendering, framing and client parsing.

The gateway renders ``event`` lines from a fixed template and sends
whole lines in HTTP chunks of up to 64 KiB or one run; the client parses
whatever block a read returns.  None of that may change a byte of the
lines themselves:

* :func:`repro.serve.protocol.event_lines` equals the plain
  ``json.dumps(dict) + "\\n"`` form for every event — arbitrary payloads,
  shared payload objects, ``1``/``True``/``1.0`` mixes, and the recorded
  streams of every engine;
* :func:`repro.serve.client.submit_specs` reads the same outcomes from a
  response however it is cut: one-byte writes, lines split across
  chunks, reads ending mid-line or mid-chunk header;
* a live mixed warm/cold request with a recorded run de-chunks to the
  lines a local ``Runner.run_specs`` gives, in a handful of chunks.
"""

from __future__ import annotations

import base64
import json
import pickle
import socket
import threading
import time
from dataclasses import fields, replace
from typing import List, Tuple
from urllib.parse import urlsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RingConfiguration
from repro.core.message import Port
from repro.core.views import RingView
from repro.obs import EVENT_KINDS, Event, OpaquePayload, event_to_json
from repro.runtime import Runner, RunSpec, SqliteResultCache
from repro.runtime.spec import execute
from repro.serve import ServeClientError, ServerThread, submit_specs
from repro.serve import client as serve_client
from repro.serve.gateway import RunEntry
from repro.serve.protocol import event_lines, run_line


def plain_event_line(index: int, event: Event) -> str:
    """An ``event`` line as a plain ``json.dumps`` of its dict."""
    return json.dumps({"type": "event", "index": index, "event": event_to_json(event)}) + "\n"


def rendered(index: int, events) -> List[str]:
    result = type("Result", (), {"events": events})()
    return list(event_lines(RunEntry(index=index, digest="d", status="done"), result))


# ----------------------------------------------------------------------
# The renderer
# ----------------------------------------------------------------------

texts = st.one_of(
    st.text(),
    st.sampled_from(["say \"hi\"", "back\\slash", "naïve ☃", "\x00\n\t", "%s %%"]),
)
ints = st.integers(-(2**70), 2**70)
scalars = st.one_of(st.none(), st.booleans(), ints, st.floats(), texts)
payloads = st.recursive(
    st.one_of(
        scalars,
        st.sampled_from(list(Port)),
        st.builds(
            lambda rest: RingView(((1, "x"),) + tuple(rest)),
            st.lists(st.tuples(st.sampled_from([0, 1]), scalars), max_size=3),
        ),
        st.builds(OpaquePayload, st.text()),
    ),
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.lists(inner, max_size=3),
        st.dictionaries(scalars, inner, max_size=3),
    ),
    max_leaves=8,
)
SCALAR_FIELDS = [f.name for f in fields(Event) if f.name != "payload"]


@st.composite
def event_streams(draw):
    """Events whose payloads come from one small pool of shared objects.

    Fields have the recorders' types; now and then one field holds
    another JSON scalar instead (a bool, a float, a string for an int).
    """
    pool = draw(st.lists(payloads, min_size=1, max_size=4))
    events = []
    for seq in range(draw(st.integers(1, 12))):
        event = Event(
            seq=seq,
            kind=draw(st.one_of(st.sampled_from(EVENT_KINDS), texts)),
            time=draw(ints),
            etime=draw(ints),
            proc=draw(st.one_of(st.none(), ints)),
            peer=draw(st.one_of(st.none(), ints)),
            port=draw(st.one_of(st.sampled_from([None, "left", "right"]), texts)),
            payload=pool[draw(st.integers(0, len(pool) - 1))],
            bits=draw(ints),
            msg=draw(st.one_of(st.none(), ints)),
            detail=draw(st.one_of(st.sampled_from(["", "spontaneous", "copy-of:3"]), texts)),
        )
        if draw(st.integers(0, 4)) == 0:
            event = replace(event, **{draw(st.sampled_from(SCALAR_FIELDS)): draw(scalars)})
        events.append(event)
    return events


class TestEventLines:
    @given(index=st.integers(0, 10**6), events=event_streams())
    @settings(max_examples=300, deadline=None)
    def test_lines_equal_plain_json_dumps(self, index, events):
        assert rendered(index, events) == [plain_event_line(index, e) for e in events]

    def test_one_true_and_one_point_oh_stay_apart(self):
        values = [1, True, 1.0, 0, False, 0.0, None, "1", "true"]
        as_payloads = [
            Event(seq=i, kind="send", time=1, etime=1, proc=1, peer=0, port="left",
                  payload=v, bits=1, msg=i)
            for i, v in enumerate(values + values[::-1])
        ]
        everywhere = [
            Event(seq=i, kind=v, time=v, etime=i, proc=v, peer=v, port=v,
                  payload=v, bits=v, msg=v, detail=v)
            for i, v in enumerate(values + values[::-1])
        ]
        events = as_payloads + everywhere
        lines = rendered(7, events)
        assert lines == [plain_event_line(7, e) for e in events]
        assert '"payload": 1,' in lines[0] and '"payload": true,' in lines[1]
        assert '"payload": 1.0,' in lines[2]

    def test_shared_payload_object_renders_alike_everywhere(self):
        payload = (0, [Port.LEFT, {"k": None}], RingView(((1, 3), (0, 4))))
        events = [
            Event(seq=i, kind=kind, time=1, etime=1, proc=0, peer=1, port="left",
                  payload=payload, bits=4, msg=0)
            for i, kind in enumerate(("send", "enqueue", "deliver"))
        ]
        lines = rendered(0, events)
        assert lines == [plain_event_line(0, e) for e in events]
        assert '{"__t__": "repr", "v": "RingView(' in lines[0]

    def test_no_events_no_lines(self):
        assert rendered(0, None) == [] and rendered(0, ()) == []

    @pytest.mark.parametrize(
        "spec",
        [
            RunSpec.make(engine="sync", ring=RingConfiguration.oriented((0, 1, 1, 0, 1)),
                         algorithm="fig2-input-distribution", record=True),
            RunSpec.make(engine="async", ring=RingConfiguration.oriented((3, 1, 4, 1, 5, 2)),
                         algorithm="input-distribution", params={"assume_oriented": True},
                         scheduler="random", scheduler_seed=5, record=True),
            RunSpec.make(engine="async", ring=RingConfiguration.oriented((5, 1, 4, 2, 3)),
                         algorithm="chang-roberts", scheduler="random", scheduler_seed=0,
                         fault_profile="dup", fault_seed=1, record=True),
            RunSpec.make(engine="async-synchronized",
                         ring=RingConfiguration.oriented((1, 1, 0, 1)),
                         algorithm="and", record=True),
            # sync-batch refuses record=True: its stream is empty either way.
            RunSpec.make(engine="sync-batch", ring=RingConfiguration.oriented((1, 0, 1)),
                         algorithm="sync-and"),
        ],
        ids=["sync", "async", "async-dup-faults", "async-synchronized", "sync-batch"],
    )
    def test_recorded_streams_of_every_engine(self, spec):
        events = execute(spec).events
        assert rendered(3, events) == [plain_event_line(3, e) for e in events or ()]
        assert bool(events) == spec.record


# ----------------------------------------------------------------------
# Raw HTTP helpers
# ----------------------------------------------------------------------


def _address(url: str) -> Tuple[str, int]:
    parts = urlsplit(url)
    return parts.hostname, parts.port


def _exchange(url: str, specs: List[RunSpec]) -> bytes:
    """POST /runs over a raw socket; the whole response, bytes as sent."""
    body = json.dumps({"specs": [spec.to_json_dict() for spec in specs]}).encode()
    with socket.create_connection(_address(url), timeout=60) as sock:
        sock.sendall(
            b"POST /runs HTTP/1.1\r\nHost: gateway\r\nContent-Length: %d\r\n\r\n%s"
            % (len(body), body)
        )
        received = []
        while True:
            data = sock.recv(1 << 16)
            if not data:
                return b"".join(received)
            received.append(data)


def _split_response(raw: bytes) -> Tuple[bytes, List[bytes]]:
    """``(head, chunks)``: the head through its blank line, the chunk payloads."""
    cut = raw.index(b"\r\n\r\n") + 4
    head, rest = raw[:cut], raw[cut:]
    assert b"Transfer-Encoding: chunked" in head
    chunks = []
    while True:
        line, rest = rest.split(b"\r\n", 1)
        size = int(line, 16)
        if size == 0:
            assert rest == b"\r\n"
            return head, chunks
        chunks.append(rest[:size])
        assert rest[size:size + 2] == b"\r\n"
        rest = rest[size + 2:]


def _chunked(head: bytes, body: bytes, size: int, terminate: bool = True) -> bytes:
    """``body`` re-framed into ``size``-byte chunks (cutting lines anywhere)."""
    out = [head]
    for start in range(0, len(body), size):
        piece = body[start:start + size]
        out.append(b"%X\r\n%s\r\n" % (len(piece), piece))
    if terminate:
        out.append(b"0\r\n\r\n")
    return b"".join(out)


class ReplayServer:
    """Answers one request with canned bytes, written piece by piece."""

    def __init__(self, pieces: List[bytes], pause: float = 0.0) -> None:
        self._pieces = pieces
        self._pause = pause
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.url = "http://127.0.0.1:%d" % self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def __enter__(self) -> "ReplayServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._thread.join(timeout=30)
        self._listener.close()

    def _serve(self) -> None:
        conn, _ = self._listener.accept()
        with conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            request = b""
            while b"\r\n\r\n" not in request:
                request += conn.recv(1 << 16)
            head, body = request.split(b"\r\n\r\n", 1)
            length = int(head.lower().split(b"content-length:")[1].split(b"\r\n")[0])
            while len(body) < length:
                body += conn.recv(1 << 16)
            try:
                for piece in self._pieces:
                    conn.sendall(piece)
                    if self._pause:
                        time.sleep(self._pause)
            except (BrokenPipeError, ConnectionResetError):
                pass  # the client hangs up once it has read the done line


# ----------------------------------------------------------------------
# The client parser
# ----------------------------------------------------------------------


def _spec(bits, engine="sync", **kwargs) -> RunSpec:
    return RunSpec.make(
        engine=engine,
        ring=RingConfiguration.oriented(tuple(bits)),
        algorithm="sync-and",
        **kwargs,
    )


#: One warm spec, two recorded runs, one plain cold run and a failure.
SPECS = [
    _spec((1, 1, 0, 1)),
    _spec((1, 0, 1, 1, 0), record=True),
    RunSpec.make(engine="async", ring=RingConfiguration.oriented((2, 0, 1, 3, 1)),
                 algorithm="input-distribution", params={"assume_oriented": True},
                 scheduler="random", scheduler_seed=9, record=True),
    _spec((0, 1, 1), engine="sync-batch"),
    _spec((1, 1, 1, 1), budget=1),
]


@pytest.fixture(scope="module")
def recorded_response(tmp_path_factory):
    """A live gateway's raw answer to ``SPECS`` (first spec warm)."""
    cache = SqliteResultCache(tmp_path_factory.mktemp("stream-cache"))
    with ServerThread(cache=cache) as server:
        submit_specs(server.url, SPECS[:1])
        return _exchange(server.url, SPECS)


def plain_outcomes(body: bytes):
    """Outcomes read line by line with one ``json.loads`` each."""
    outcomes = {}
    for line in body.splitlines():
        data = json.loads(line)
        if data["type"] == "run":
            result = data.get("result_pickle")
            outcomes[data["index"]] = [
                data["index"], data["digest"], data["status"], data.get("error"),
                pickle.loads(base64.b64decode(result)) if result else None, [],
            ]
        elif data["type"] == "event":
            outcomes[data["index"]][5].append(data["event"])
    return [outcomes[index] for index in sorted(outcomes)]


def assert_same_outcomes(outcomes, body: bytes) -> None:
    expected = plain_outcomes(body)
    got = [[o.index, o.digest, o.status, o.error, o.result, o.events] for o in outcomes]
    assert [row[:4] + row[5:] for row in got] == [row[:4] + row[5:] for row in expected]
    assert [pickle.dumps(row[4]) for row in got] == [pickle.dumps(row[4]) for row in expected]


class TestClientParsing:
    def test_recorded_response_shape(self, recorded_response):
        _, chunks = _split_response(recorded_response)
        body = b"".join(chunks)
        statuses = [row[2] for row in plain_outcomes(body)]
        assert statuses == ["cached", "done", "done", "done", "error"]
        assert all(chunk.endswith(b"\n") for chunk in chunks)

    def test_one_byte_writes(self, recorded_response):
        pieces = [recorded_response[i:i + 1] for i in range(len(recorded_response))]
        with ReplayServer(pieces) as replay:
            outcomes = submit_specs(replay.url, SPECS)
        assert_same_outcomes(outcomes, b"".join(_split_response(recorded_response)[1]))

    @pytest.mark.parametrize("size", [1, 7, 100, 4096])
    def test_lines_split_across_chunks(self, recorded_response, size):
        head, chunks = _split_response(recorded_response)
        body = b"".join(chunks)
        raw = _chunked(head, body, size)
        # Writes cut mid-chunk as well, at a stride prime to the chunk size.
        pieces = [raw[i:i + 997] for i in range(0, len(raw), 997)]
        with ReplayServer(pieces, pause=0.001) as replay:
            outcomes = submit_specs(replay.url, SPECS)
        assert_same_outcomes(outcomes, body)

    @pytest.mark.parametrize("read_bytes", [64, 1000])
    def test_lines_longer_than_one_read(self, recorded_response, monkeypatch, read_bytes):
        # The whole body in one chunk, taken a bounded read at a time:
        # lines straddle reads and the longest spans many of them.
        head, chunks = _split_response(recorded_response)
        body = b"".join(chunks)
        assert max(len(line) for line in body.splitlines()) > 2 * read_bytes
        monkeypatch.setattr(serve_client, "READ_BYTES", read_bytes)
        with ReplayServer([_chunked(head, body, len(body))]) as replay:
            outcomes = submit_specs(replay.url, SPECS)
        assert_same_outcomes(outcomes, body)

    def test_reads_ending_mid_line_and_mid_chunk_header(self, recorded_response):
        head, chunks = _split_response(recorded_response)
        first = len(head) + len(b"%X\r\n" % len(chunks[0]))
        mid_line = first + len(chunks[0]) // 2  # inside the first chunk's lines
        mid_header = first + len(chunks[0]) + 3  # inside the second chunk's size line
        cuts = [0, mid_line, mid_header, len(recorded_response)]
        pieces = [recorded_response[a:b] for a, b in zip(cuts, cuts[1:])]
        with ReplayServer(pieces, pause=0.05) as replay:
            outcomes = submit_specs(replay.url, SPECS)
        assert_same_outcomes(outcomes, b"".join(chunks))

    def test_stream_without_done_line_raises(self, recorded_response):
        head, chunks = _split_response(recorded_response)
        body = b"".join(chunks)
        assert body.endswith(b'"failed": 1}\n')
        truncated = body[:body.rindex(b"\n", 0, len(body) - 1) + 1]
        with ReplayServer([_chunked(head, truncated, 4096)]) as replay:
            with pytest.raises(ServeClientError, match="before the done line"):
                submit_specs(replay.url, SPECS)

    def test_stream_cut_mid_chunk_raises(self, recorded_response):
        head, chunks = _split_response(recorded_response)
        raw = _chunked(head, b"".join(chunks), 4096, terminate=False)
        with ReplayServer([raw[:len(raw) - 100]]) as replay:
            with pytest.raises(ServeClientError, match="before the done line"):
                submit_specs(replay.url, SPECS)


# ----------------------------------------------------------------------
# End to end: the live stream's lines and framing
# ----------------------------------------------------------------------


class TestLiveStream:
    def test_lines_match_local_runner_in_few_chunks(self, tmp_path):
        warm = _spec((1, 1, 0, 1, 1))
        recorded = RunSpec.make(
            engine="async",
            ring=RingConfiguration.oriented((3, 1, 4, 1, 5, 2, 6, 5, 3, 5, 0, 7, 2, 6, 4, 3)),
            algorithm="input-distribution",
            params={"assume_oriented": True},
            scheduler="random",
            scheduler_seed=611,
            record=True,
        )
        with ServerThread(cache=SqliteResultCache(tmp_path)) as server:
            submit_specs(server.url, [warm])
            raw = _exchange(server.url, [warm, recorded])
        _, chunks = _split_response(raw)
        local = Runner().run_specs([warm, recorded])
        events = local[1].events
        assert len(events) == 16 * 15 * 5 + 2 * 16  # n(n-1) messages, E1
        expected = [
            json.dumps({"type": "accepted", "runs": 2, "cached": 1, "queued": 1}) + "\n",
            json.dumps(run_line(RunEntry(0, warm.digest(), "cached"), result=local[0])) + "\n",
            json.dumps(run_line(RunEntry(1, recorded.digest(), "queued"), result=local[1])) + "\n",
            *(plain_event_line(1, event) for event in events),
            json.dumps({"type": "done", "runs": 2, "failed": 0}) + "\n",
        ]
        assert b"".join(chunks).decode().splitlines(keepends=True) == expected
        # Whole lines per chunk, at most one run or 64 KiB plus a line each.
        assert len(chunks) < 10
        assert all(chunk.endswith(b"\n") for chunk in chunks)
