import http.server
import json
import threading

import pytest

from qadb import backend as backend_module
from qadb.backend import (
    GenerationRequest,
    GenerationResponse,
    RemoteBackend,
    StubBackend,
    detection_prompt,
    question_generation_prompt,
    reading_qa_prompt,
    revision_prompt,
)
from qadb.errors import BackendUnavailable, ContractViolation, ProtocolError


def test_greedy_implies_single_candidate():
    with pytest.raises(ValueError):
        GenerationRequest(prompt="x", max_candidates=2, decode_mode="greedy")


def test_response_must_be_non_empty():
    with pytest.raises(ValueError):
        GenerationResponse(())


def test_stub_greedy_returns_exactly_one():
    response = StubBackend().generate(
        GenerationRequest(prompt=question_generation_prompt("X", "T", "some text here"))
    )
    assert len(response.candidates) == 1


def test_stub_beam_bounded_by_width():
    request = GenerationRequest(
        prompt=detection_prompt("Ann Arbor hosts games near Main Street Bridge today"),
        max_candidates=32,
        decode_mode="beam",
    )
    response = StubBackend().generate(request)
    assert 1 <= len(response.candidates) <= 32


def test_stub_detection_emits_capitalized_ngrams():
    response = StubBackend().generate(
        GenerationRequest(
            prompt=detection_prompt("Ann Arbor hosts games"), max_candidates=8, decode_mode="beam"
        )
    )
    assert "Ann Arbor" in response.candidates


def test_stub_detection_fallback_without_capitals():
    response = StubBackend().generate(
        GenerationRequest(
            prompt=detection_prompt("all lowercase words here"),
            max_candidates=4,
            decode_mode="beam",
        )
    )
    assert response.candidates == ("all",)


def test_stub_question_generation_template():
    response = StubBackend().generate(
        GenerationRequest(
            prompt=question_generation_prompt("Crisler Center", "Arenas", "Crisler Center is an arena.")
        )
    )
    assert response.candidates[0] == (
        "answer: Crisler Center question: what is Crisler Center of Arenas?"
    )


def test_stub_question_generation_without_title_field():
    # the title-less prompt form falls back to the leading context token
    response = StubBackend().generate(
        GenerationRequest(prompt="answer: Crisler Center context: Arenas of Ann Arbor.")
    )
    assert response.candidates[0] == (
        "answer: Crisler Center question: what is Crisler Center of Arenas?"
    )


def test_unknown_decode_mode_rejected():
    with pytest.raises(ValueError):
        GenerationRequest(prompt="x", max_candidates=2, decode_mode="sampling")


def test_stub_reading_qa_finds_span():
    response = StubBackend().generate(
        GenerationRequest(
            prompt=reading_qa_prompt(
                "what is Crisler Center of Arenas?", "Fans pack Crisler Center nightly."
            )
        )
    )
    assert response.candidates[0] == "Crisler Center"


def test_stub_reading_qa_not_answerable():
    response = StubBackend().generate(
        GenerationRequest(
            prompt=reading_qa_prompt("what is Crisler Center of Arenas?", "No venues are mentioned.")
        )
    )
    assert response.candidates[0] == "not answerable"


def test_stub_revision_appends_first_novel_token():
    response = StubBackend().generate(
        GenerationRequest(
            prompt=revision_prompt(
                "where is the home stadium of michigan wolverines?",
                "Michigan Stadium",
                "michigan wolverines football fans gather",
            )
        )
    )
    assert response.candidates[0] == (
        "answer: Michigan Stadium revised: "
        "where is the home stadium of michigan wolverines football?"
    )


def test_stub_unrecognized_prompt():
    with pytest.raises(ProtocolError):
        StubBackend().generate(GenerationRequest(prompt="summarize: some text"))


def test_stub_is_deterministic():
    request = GenerationRequest(
        prompt=detection_prompt("Ann Arbor hosts the Big House crowd"),
        max_candidates=16,
        decode_mode="beam",
    )
    first = StubBackend().generate(request)
    second = StubBackend().generate(request)
    assert first == second


class _Handler(http.server.BaseHTTPRequestHandler):
    behavior = "echo"

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        if self.behavior == "garbage":
            body = b"not json at all"
        elif self.behavior == "missing":
            body = json.dumps({"nope": True}).encode()
        elif self.behavior == "toomany":
            outputs = [["a", "b", "c"] for _ in payload["inputs"]]
            body = json.dumps({"outputs": outputs}).encode()
        else:
            outputs = [[f"reply to: {p[:20]}"] for p in payload["inputs"]]
            body = json.dumps({"outputs": outputs}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_backend():
    server = http.server.HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/"
    server.shutdown()
    server.server_close()


def test_remote_backend_round_trip(http_backend):
    _Handler.behavior = "echo"
    backend = RemoteBackend(http_backend, max_retries=0)
    responses = backend.generate_batch([GenerationRequest(prompt="hello world")])
    assert responses == [GenerationResponse(("reply to: hello world",))]


def test_remote_backend_offline_raises_unavailable():
    backend = RemoteBackend("http://127.0.0.1:9/", max_retries=1, backoff=0.01, timeout=0.2)
    with pytest.raises(BackendUnavailable):
        backend.generate_batch([GenerationRequest(prompt="hello")])


def test_remote_backend_default_retry_budget():
    assert RemoteBackend("http://example.invalid/").max_retries == 3


def test_remote_backend_malformed_reply(http_backend):
    _Handler.behavior = "garbage"
    backend = RemoteBackend(http_backend, max_retries=0)
    with pytest.raises(ProtocolError):
        backend.generate_batch([GenerationRequest(prompt="hello")])
    _Handler.behavior = "echo"


def test_remote_backend_missing_outputs(http_backend):
    _Handler.behavior = "missing"
    backend = RemoteBackend(http_backend, max_retries=0)
    with pytest.raises(ProtocolError):
        backend.generate_batch([GenerationRequest(prompt="hello")])
    _Handler.behavior = "echo"


def test_remote_backend_rejects_excess_candidates(http_backend):
    _Handler.behavior = "toomany"
    backend = RemoteBackend(http_backend, max_retries=0)
    with pytest.raises(ProtocolError):
        backend.generate_batch([GenerationRequest(prompt="hello")])
    _Handler.behavior = "echo"


class _CountingHandler(http.server.BaseHTTPRequestHandler):
    """Answers ``status`` to the first ``failures`` POSTs, then echoes; with
    ``close_after_reply`` it closes the kept-alive connection after every
    reply without announcing it, as an idle timeout of the server would."""

    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        self.server.connections += 1

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.posts.append(payload)
        if len(self.server.posts) <= self.server.failures:
            status, body = self.server.status, b"{}"
        else:
            status = 200
            body = json.dumps({"outputs": [[f"reply to: {p}"] for p in payload["inputs"]]}).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self.close_connection = self.server.close_after_reply

    def log_message(self, *args):
        pass


@pytest.fixture
def counting_server(monkeypatch):
    """A threaded loopback server, and the backoff sleeps of the client."""
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _CountingHandler)
    server.connections, server.posts, server.failures, server.status = 0, [], 0, 200
    server.close_after_reply = False
    server.sleeps = []
    monkeypatch.setattr(backend_module.time, "sleep", server.sleeps.append)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    server.url = f"http://127.0.0.1:{server.server_port}/generate"
    yield server
    server.shutdown()
    server.server_close()


def test_remote_backend_sends_one_post_per_batch_on_one_connection(counting_server):
    backend = RemoteBackend(counting_server.url, max_retries=0)
    requests = [GenerationRequest(prompt=f"prompt {i}") for i in range(3)]
    for _ in range(4):
        responses = backend.generate_batch(requests)
        assert [r.candidates for r in responses] == [(f"reply to: prompt {i}",) for i in range(3)]
    assert [post["inputs"] for post in counting_server.posts] == [[r.prompt for r in requests]] * 4
    assert counting_server.connections == 1


def test_remote_backend_reopens_a_connection_the_server_closed(counting_server):
    counting_server.close_after_reply = True
    backend = RemoteBackend(counting_server.url, max_retries=0)
    for i in range(5):
        [response] = backend.generate_batch([GenerationRequest(prompt=f"call {i}")])
        assert response.candidates == (f"reply to: call {i}",)
    assert [post["inputs"] for post in counting_server.posts] == [[f"call {i}"] for i in range(5)]
    assert counting_server.connections == 5
    assert counting_server.sleeps == []


def test_remote_backend_retries_server_errors_with_backoff(counting_server):
    counting_server.failures, counting_server.status = 2, 503
    backend = RemoteBackend(counting_server.url, max_retries=3, backoff=0.5)
    [response] = backend.generate_batch([GenerationRequest(prompt="hello")])
    assert response.candidates == ("reply to: hello",)
    assert counting_server.sleeps == [0.5, 1.0]
    assert len(counting_server.posts) == 3


def test_remote_backend_gives_up_after_its_retries(counting_server):
    counting_server.failures, counting_server.status = 10, 500
    backend = RemoteBackend(counting_server.url, max_retries=2, backoff=0.5)
    with pytest.raises(BackendUnavailable, match="3 attempts"):
        backend.generate_batch([GenerationRequest(prompt="hello")])
    assert counting_server.sleeps == [0.5, 1.0]


def test_remote_backend_client_error_is_not_retried(counting_server):
    counting_server.failures, counting_server.status = 1, 400
    backend = RemoteBackend(counting_server.url, max_retries=3)
    with pytest.raises(ProtocolError, match="400"):
        backend.generate_batch([GenerationRequest(prompt="hello")])
    assert len(counting_server.posts) == 1 and counting_server.sleeps == []


def test_remote_backend_empty_batch_sends_nothing(counting_server):
    assert RemoteBackend(counting_server.url).generate_batch([]) == []
    assert counting_server.posts == [] and counting_server.connections == 0


def test_remote_backend_rejects_mixed_decoding_in_one_batch(counting_server):
    mixed = [
        GenerationRequest(prompt="a"),
        GenerationRequest(prompt="b", max_candidates=4, decode_mode="beam"),
    ]
    with pytest.raises(ValueError):
        RemoteBackend(counting_server.url).generate_batch(mixed)
    assert counting_server.posts == []


@pytest.mark.parametrize(
    "endpoint", ["ftp://127.0.0.1/generate", "127.0.0.1:8000", "http://", "http://127.0.0.1:abc/"]
)
def test_remote_backend_rejects_non_http_endpoints(endpoint):
    with pytest.raises(ContractViolation, match="not an http:// or https://"):
        RemoteBackend(endpoint)


@pytest.mark.parametrize("endpoint", ["http://user:pw@127.0.0.1/", "https://token@model-host/"])
def test_remote_backend_rejects_endpoint_credentials(endpoint):
    with pytest.raises(ContractViolation, match="credentials are not supported"):
        RemoteBackend(endpoint)


def test_remote_backend_accepts_https_endpoints():
    assert RemoteBackend("https://model-host:8443/generate").endpoint.startswith("https://")
