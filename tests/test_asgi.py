"""Asyncio HTTP front-end: endpoints, edge cache, error mapping.

Runs a real :class:`BackgroundServer` (event loop on its own thread, OS
port 0) over a :class:`LocalBackend` and speaks HTTP/1.1 to it with a
persistent ``http.client`` connection — keep-alive is part of what's
under test.  The edge-cache byte-identity test pins the front-end's
contract: a repeat ``/plan`` answered from the edge embeds the exact
``plan`` fragment bytes a worker-served response would.
"""

import http.client
import json
import logging
import os
import socket
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service import PlanningService
from repro.service.asgi import AsyncPlanningServer, BackgroundServer, LocalBackend
from repro.traces import HaggleLikeConfig, haggle_like_trace

BODY = {"deadline": 600.0, "window": 2000.0, "seed": 3}


class Client:
    """One persistent keep-alive connection to a test server."""

    def __init__(self, address):
        host, port = address
        self.conn = http.client.HTTPConnection(host, port, timeout=60)

    def request(self, verb, path, body=None):
        data = None if body is None else json.dumps(body).encode("utf-8")
        self.conn.request(
            verb, path, body=data,
            headers={"Content-Type": "application/json"} if data else {},
        )
        resp = self.conn.getresponse()
        payload = resp.read()
        will_close = resp.will_close
        if will_close:
            self.conn.close()
        return resp.status, json.loads(payload), dict(resp.getheaders()), will_close

    def post(self, path, body):
        status, doc, _, _ = self.request("POST", path, body)
        return status, doc

    def get(self, path):
        status, doc, _, _ = self.request("GET", path)
        return status, doc

    def close(self):
        self.conn.close()


@pytest.fixture(scope="module")
def trace():
    return haggle_like_trace(HaggleLikeConfig(num_nodes=8), seed=3)


@pytest.fixture(scope="module")
def backend(trace):
    service = PlanningService({"demo": trace}, max_wait=0.0, workers=2)
    yield LocalBackend(service, {"demo": trace})
    service.close()


@pytest.fixture(scope="module")
def server(backend):
    with BackgroundServer(backend, port=0) as srv:
        yield srv


@pytest.fixture()
def client(server):
    c = Client(server.address)
    yield c
    c.close()


class TestEndpoints:
    def test_plan_round_trip(self, client):
        status, doc = client.post("/plan", BODY)
        assert status == 200
        assert doc["plan"]["feasibility"]["all_informed"] is True
        assert len(doc["key"]) == 16
        assert set(doc) == {"cached", "key", "plan", "wall_seconds"}

    def test_plan_many_round_trip(self, client):
        status, doc = client.post(
            "/plan_many",
            {"sources": [None, None], "deadlines": 600.0,
             "window": 2000.0, "seed": 3},
        )
        assert status == 200
        assert len(doc["keys"]) == 2
        assert doc["planset"]["plans"]

    def test_healthz(self, client):
        status, doc = client.get("/healthz")
        assert status == 200
        assert doc["status"] == "ok"

    def test_metrics_exposes_frontend_and_edge_cache(self, client):
        client.post("/plan", BODY)
        status, doc = client.get("/metrics")
        assert status == 200
        assert doc["mode"] == "local"
        front = doc["frontend"]
        assert front["served"] >= 1
        assert front["errors"] >= 0
        edge = front["edge_cache"]
        assert set(edge) == {"capacity", "entries", "hits", "misses"}
        assert edge["entries"] >= 1

    def test_cache_stats(self, client):
        status, doc = client.get("/cache/stats")
        assert status == 200
        assert "hits" in doc and "misses" in doc


class TestEdgeCache:
    def test_repeat_plan_is_byte_identical_and_cached(self, server, client):
        body = {**BODY, "seed": 11}
        hits_before = server.server.edge_stats()["hits"]
        _, first = client.post("/plan", body)
        status, second = client.post("/plan", body)
        assert status == 200
        assert second["cached"] is True
        assert second["key"] == first["key"]
        # the edge embeds the exact fragment a worker-served response
        # carries — byte identity, not just semantic equality
        assert (
            json.dumps(second["plan"], sort_keys=True)
            == json.dumps(first["plan"], sort_keys=True)
        )
        assert server.server.edge_stats()["hits"] >= hits_before + 1


class TestErrorMapping:
    def test_unknown_endpoint_404(self, client):
        status, doc = client.post("/nope", BODY)
        assert status == 404
        assert "error" in doc

    def test_get_unknown_endpoint_404(self, client):
        status, doc = client.get("/nope")
        assert status == 404

    def test_unknown_trace_404(self, client):
        status, doc = client.post("/plan", {**BODY, "trace": "nope"})
        assert status == 404
        assert "unknown trace" in doc["error"]

    def test_unknown_field_400(self, client):
        status, doc = client.post("/plan", {**BODY, "bogus": 1})
        assert status == 400
        assert "error" in doc

    def test_malformed_json_400(self, client):
        self_conn = client.conn
        self_conn.request(
            "POST", "/plan", body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        resp = self_conn.getresponse()
        doc = json.loads(resp.read())
        assert resp.status == 400
        assert "bad request body" in doc["error"]

    def test_method_not_allowed_405(self, client):
        status, doc, _, _ = client.request("PUT", "/plan", BODY)
        assert status == 405

    def test_infeasible_422(self, client):
        status, doc = client.post("/plan", {**BODY, "deadline": 0.001})
        assert status == 422
        assert "error" in doc

    def test_overloaded_429_with_retry_after(self, server, backend, client):
        # pin the backend at capacity; the front-end must map the
        # resulting ServiceOverloaded to 429 + Retry-After
        with backend._lock:
            backend._inflight = backend._max_inflight
        try:
            status, doc, headers, _ = client.request(
                "POST", "/plan", {**BODY, "seed": 404}
            )
        finally:
            with backend._lock:
                backend._inflight = 0
        assert status == 429
        assert "Retry-After" in headers
        assert doc["retry_after"] >= 1


class TestTimeout:
    def test_slow_compute_times_out_504(self, trace):
        service = PlanningService({"demo": trace}, max_wait=0.0, workers=1)
        backend = LocalBackend(service, {"demo": trace})
        try:
            with BackgroundServer(backend, port=0, timeout=0.001) as srv:
                client = Client(srv.address)
                # a cold config cannot finish within 1 ms
                status, doc = client.post("/plan", {**BODY, "seed": 909})
                assert status == 504
                assert "timed out" in doc["error"]
                client.close()
        finally:
            service.close()


class TestKeepAliveAndDrain:
    def test_connection_is_reused(self, client):
        for _ in range(3):
            _, _, _, will_close = client.request("GET", "/healthz")
            assert will_close is False

    def test_connection_close_honored(self, server):
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=60)
        conn.request("GET", "/healthz", headers={"Connection": "close"})
        resp = conn.getresponse()
        resp.read()
        assert resp.will_close is True
        conn.close()

    def test_stop_refuses_new_connections(self, trace):
        service = PlanningService({"demo": trace}, max_wait=0.0)
        backend = LocalBackend(service, {"demo": trace})
        srv = BackgroundServer(backend, port=0)
        host, port = srv.address
        client = Client((host, port))
        status, _ = client.get("/healthz")
        assert status == 200
        client.close()
        srv.stop()
        assert not srv._thread.is_alive()
        with pytest.raises(OSError):
            probe = http.client.HTTPConnection(host, port, timeout=5)
            probe.request("GET", "/healthz")
            probe.getresponse()

    def test_timeout_validation(self, backend):
        with pytest.raises(ValueError):
            AsyncPlanningServer(backend, timeout=0.0)
        with pytest.raises(ValueError):
            LocalBackend(backend.service, {}, max_inflight=0)


def _load_loadtest():
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"
    ))
    import loadtest
    return loadtest


def _raw(verb, path, body=b"", headers=()):
    lines = [f"{verb} {path} HTTP/1.1", "Host: test"]
    lines += [f"{name}: {value}" for name, value in headers]
    if body:
        lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


class TestPipelining:
    """HTTP/1.1 pipelining: the front-end must frame back-to-back
    requests exactly (no bytes of a later request swallowed by an
    earlier body read) and answer them strictly in order."""

    def test_raw_socket_pipelined_requests_answered_in_order(self, server):
        loadtest = _load_loadtest()
        host, port = server.address
        bodies = [BODY, dict(BODY), {**BODY, "seed": 4}]
        with socket.create_connection((host, port), timeout=60) as sock:
            # all three requests hit the wire before any response is read
            sock.sendall(b"".join(
                _raw("POST", "/plan", json.dumps(b).encode()) for b in bodies
            ))
            rfile = sock.makefile("rb")
            docs = []
            for _ in bodies:
                status, doc, close = loadtest._read_http_response(rfile)
                assert status == 200
                assert close is False
                docs.append(doc)
            rfile.close()
        # identical configurations answered identically, in issue order
        assert docs[0]["key"] == docs[1]["key"]
        assert (loadtest.normalized_plan(docs[0]["plan"])
                == loadtest.normalized_plan(docs[1]["plan"]))
        assert docs[2]["key"] != docs[0]["key"]

    def test_error_response_does_not_derail_the_pipeline(self, server):
        loadtest = _load_loadtest()
        host, port = server.address
        bodies = [BODY, {**BODY, "bogus_field": 1}, {**BODY, "seed": 5}]
        with socket.create_connection((host, port), timeout=60) as sock:
            sock.sendall(b"".join(
                _raw("POST", "/plan", json.dumps(b).encode()) for b in bodies
            ))
            rfile = sock.makefile("rb")
            statuses = []
            docs = []
            for _ in bodies:
                status, doc, _ = loadtest._read_http_response(rfile)
                statuses.append(status)
                docs.append(doc)
            rfile.close()
        assert statuses == [200, 400, 200]
        assert "error" in docs[1]
        assert docs[2]["plan"]["source"] is not None

    def test_pipelined_client_preserves_identity_checking(self, server):
        loadtest = _load_loadtest()
        host, port = server.address
        client = loadtest.PipelinedClient(f"http://{host}:{port}", 60.0)
        identity = loadtest.IdentityTracker()
        seen = []

        def reader():
            while True:
                got = client.next_response()
                if got is None:
                    return
                token, status, doc = got
                assert status == 200
                identity.observe(doc["key"], doc["plan"])
                seen.append(token)

        t = threading.Thread(target=reader, daemon=True)
        t.start()
        for i in range(6):
            client.send(i, "/plan", {**BODY, "seed": 3 + (i % 2)})
        client.finish()
        t.join(timeout=120)
        client.close()
        assert seen == list(range(6))  # FIFO token matching
        assert identity.violations == []
        assert len(identity.snapshot()) == 2  # two distinct configurations


# ----------------------------------------------------------------------
# request framing: strict Content-Length, fuzzed byte streams, drain
# ----------------------------------------------------------------------

#: how long one raw exchange may take before the server counts as hung
EXCHANGE_DEADLINE = 10.0


def _exchange(address, data):
    """Send ``data``, half-close, and read until the server closes.

    Returns everything the server wrote.  A reset counts as a close: the
    server closes with unread client bytes in its buffer after refusing an
    oversized head, which the kernel turns into a reset once the response
    has been delivered.  Hitting :data:`EXCHANGE_DEADLINE` fails the test.
    """
    sock = socket.create_connection(address, timeout=EXCHANGE_DEADLINE)
    received = b""
    try:
        try:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the server already answered and closed
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break
            except socket.timeout:
                pytest.fail(f"no close within {EXCHANGE_DEADLINE} s "
                            f"after sending {data[:80]!r}")
            if not chunk:
                break
            received += chunk
    finally:
        sock.close()
    return received


def _parse_responses(data):
    """Split a server's output into ``(status, headers, body)`` responses,
    asserting each is complete, well-formed HTTP/1.1."""
    responses = []
    while data:
        head, sep, rest = data.partition(b"\r\n\r\n")
        assert sep, f"truncated response head: {data[:80]!r}"
        lines = head.decode("latin-1").split("\r\n")
        version, status, _reason = lines[0].split(" ", 2)
        assert version == "HTTP/1.1"
        headers = {}
        for line in lines[1:]:
            name, sep, value = line.partition(": ")
            assert sep, f"malformed header line {line!r}"
            headers[name.lower()] = value
        length = int(headers["content-length"])
        assert len(rest) >= length, "truncated response body"
        body, data = rest[:length], rest[length:]
        if headers["content-type"] == "application/json":
            json.loads(body)
        responses.append((int(status), headers, body))
    return responses


class TestContentLength:
    """``Content-Length`` is 1*DIGIT; anything else is a 400 and a close,
    so no byte of one request's body is ever parsed as another request."""

    SMUGGLED = b"GET /healthz HTTP/1.1\r\n\r\n"

    def test_negative_length_cannot_smuggle_a_request(self, server):
        body = b'{"deadline": 1}' + self.SMUGGLED
        data = (b"POST /plan HTTP/1.1\r\nContent-Length: -25\r\n\r\n"
                + body)
        responses = _parse_responses(_exchange(server.address, data))
        assert [status for status, _, _ in responses] == [400]
        assert responses[0][1]["connection"] == "close"
        assert b"Content-Length" in responses[0][2]

    @pytest.mark.parametrize("field, body", [
        # int() reads the first two as 2 and 10: the body is sized so a
        # lenient parser would answer the smuggled request as well
        ("+2", b"{}"), ("1_0", b"{}        "),
        ("5 5", b"{}"), ("0x5", b"{}"), ("5.0", b"{}"), ("", b"{}"),
        ("\u00b2", b"{}"), ("5,5", b"{}"),
    ])
    def test_non_digit_lengths_rejected(self, server, field, body):
        data = (f"POST /plan HTTP/1.1\r\nContent-Length: {field}\r\n\r\n"
                .encode("latin-1") + body + self.SMUGGLED)
        responses = _parse_responses(_exchange(server.address, data))
        assert [status for status, _, _ in responses] == [400]

    def test_conflicting_lengths_rejected(self, server):
        data = (b"POST /nope HTTP/1.1\r\nContent-Length: 25\r\n"
                b"Content-Length: 0\r\n\r\n" + self.SMUGGLED)
        responses = _parse_responses(_exchange(server.address, data))
        assert [status for status, _, _ in responses] == [400]

    def test_transfer_encoding_not_implemented(self, server):
        data = (b"POST /nope HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"19\r\n" + self.SMUGGLED + b"\r\n0\r\n\r\n")
        responses = _parse_responses(_exchange(server.address, data))
        assert [status for status, _, _ in responses] == [501]

    def test_surrounding_whitespace_is_allowed(self, server):
        data = (b"POST /nope HTTP/1.1\r\nContent-Length: \t2 \r\n\r\n{}"
                + self.SMUGGLED)
        responses = _parse_responses(_exchange(server.address, data))
        assert [status for status, _, _ in responses] == [404, 200]

    def test_oversized_body_is_413_without_reading_it(self, server):
        data = b"POST /plan HTTP/1.1\r\nContent-Length: 9000000\r\n\r\n"
        responses = _parse_responses(_exchange(server.address, data))
        assert [status for status, _, _ in responses] == [413]

    def test_oversized_head_is_431(self, server):
        data = _raw("GET", "/healthz", headers=[("X-Pad", "a" * 70000)])
        responses = _parse_responses(_exchange(server.address, data))
        assert [status for status, _, _ in responses] == [431]

    def test_malformed_request_line_is_400(self, server):
        responses = _parse_responses(
            _exchange(server.address, b"GARBAGE\r\n\r\n" + self.SMUGGLED)
        )
        assert [status for status, _, _ in responses] == [400]


class TestBadFieldsAre400:
    """Fields of the wrong type or shape fail routing; that is the
    client's error (400), never a leaked 500."""

    @pytest.mark.parametrize("path, body", [
        ("/plan", {"deadline": "x"}),
        ("/plan", {"deadline": None}),
        ("/plan_many", {"sources": 5}),
        ("/plan", {"deadline": 600, "algorithm": "quantum"}),
        ("/plan", {"deadline": 600, "window": [1]}),
    ])
    def test_bad_field(self, client, path, body):
        status, doc = client.post(path, body)
        assert status == 400
        assert "internal error" not in doc["error"]

    def test_deeply_nested_body(self, server):
        data = _raw("POST", "/plan", body=b"[" * 100000)
        responses = _parse_responses(_exchange(server.address, data))
        assert [status for status, _, _ in responses] == [400]

    def test_unprintable_request_id_is_not_echoed(self, server):
        data = _raw("POST", "/plan", body=b"{}",
                    headers=[("X-Request-Id", "a\nInjected: 1")])
        (status, headers, _), = _parse_responses(
            _exchange(server.address, data)
        )
        assert status == 400
        assert "injected" not in headers
        assert len(headers["x-request-id"]) == 16


# Requests the fuzzer strings together.  None of them plans: bodies are
# either not JSON or JSON that fails validation before any backend work.
_PATHS = st.sampled_from(["/plan", "/plan_many", "/healthz", "/nope", "/"])
_NOT_A_NUMBER = (
    st.none() | st.lists(st.integers(), max_size=2)
    | st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)
)
_BODIES = st.one_of(
    st.binary(max_size=64).map(lambda b: b"\x00" + b),
    _NOT_A_NUMBER.map(lambda v: json.dumps({"deadline": v}).encode()),
    st.just(b"{}"),
    st.just(b"[" * 5000),
)
_HEADER_VALUES = st.text(
    st.characters(max_codepoint=255, blacklist_characters="\r"), max_size=20
)


@st.composite
def _request_bytes(draw):
    verb = draw(st.sampled_from(["GET", "POST", "PUT"]))
    headers = draw(st.lists(
        st.tuples(st.sampled_from(["X-Request-Id", "Accept", "X-Other"]),
                  _HEADER_VALUES),
        max_size=2,
    ))
    body = draw(_BODIES) if verb != "GET" else b""
    return _raw(verb, draw(_PATHS), body=body, headers=headers)


_BAD_LENGTH = st.builds(
    lambda field, tail: (b"POST /plan HTTP/1.1\r\nContent-Length: "
                         + field.encode("latin-1") + b"\r\n\r\n" + tail),
    st.sampled_from(["-25", "+5", "1_0", "", "0x10", " -1", "5e1"])
    | _HEADER_VALUES.filter(lambda v: not v.strip(" \t").isdigit()),
    st.just(b"{}GET /healthz HTTP/1.1\r\n\r\n"),
)
_OVERSIZED = st.sampled_from([
    b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * 70000 + b"\r\n\r\n",
    b"POST /plan HTTP/1.1\r\nContent-Length: 9000000\r\n\r\n",
])
_PIECES = st.one_of(
    _request_bytes(), _request_bytes(), _BAD_LENGTH, _OVERSIZED,
    st.binary(max_size=64),
)


@st.composite
def _streams(draw):
    """A pipelined stream of pieces, optionally cut short."""
    data = b"".join(draw(st.lists(_PIECES, min_size=1, max_size=4)))
    if draw(st.booleans()):
        data = data[:draw(st.integers(0, len(data)))]
    return data


class TestFramingFuzz:
    @settings(
        max_examples=60, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.too_slow,
                               HealthCheck.data_too_large],
    )
    @given(data=_streams())
    def test_every_stream_ends_in_responses_or_a_close(self, server, data):
        # _exchange fails on a hang; parsing fails on a malformed or
        # truncated response
        responses = _parse_responses(_exchange(server.address, data))
        for i, (status, headers, _) in enumerate(responses):
            assert status != 500, data[:200]
            if headers["connection"] == "close":
                assert i == len(responses) - 1, "response after a close"


class TestDrain:
    def test_idle_keep_alive_connection_closed_promptly(self, trace, caplog):
        service = PlanningService({"demo": trace}, max_wait=0.0)
        srv = BackgroundServer(LocalBackend(service, {"demo": trace}))
        client = Client(srv.address)
        try:
            assert client.get("/healthz")[0] == 200
            sock = client.conn.sock  # idle keep-alive connection
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                t0 = time.monotonic()
                srv.stop()
                elapsed = time.monotonic() - t0
            assert not srv._thread.is_alive()
            assert elapsed < 5.0
            sock.settimeout(5.0)
            assert sock.recv(1) == b""  # EOF, not a hang
            assert not [r for r in caplog.records if r.name == "asyncio"]
        finally:
            client.close()

    def test_in_flight_request_answered_then_closed(self, trace):
        service = PlanningService({"demo": trace}, max_wait=0.0)
        backend = LocalBackend(service, {"demo": trace})
        entered, release = threading.Event(), threading.Event()
        healthz = backend.healthz

        def slow_healthz():
            entered.set()
            release.wait(10)
            return healthz()

        backend.healthz = slow_healthz
        srv = BackgroundServer(backend)
        client = Client(srv.address)
        try:
            client.conn.request("GET", "/healthz")
            assert entered.wait(10)
            stopper = threading.Thread(target=srv.stop)
            stopper.start()
            deadline = time.monotonic() + 10
            while not srv.server._draining and time.monotonic() < deadline:
                time.sleep(0.01)
            release.set()
            resp = client.conn.getresponse()
            assert resp.status == 200
            assert resp.getheader("Connection") == "close"
            resp.read()
            stopper.join(10)
            assert not stopper.is_alive()
        finally:
            release.set()
            client.close()
