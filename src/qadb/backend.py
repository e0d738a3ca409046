"""Generation backends: a uniform seq2seq/extractive-QA interface.

Every pipeline stage talks to a backend through one call,
``generate_batch``, with stage-specific prompt formats:

* answer detection:      ``context: <passage text>``
* question generation:   ``answer: <span> title: <title> context: <passage text>``
* reading QA (verify):   ``question: <q> context: <passage text>``
* question revision:     ``question: <q> answer: <a> passage: <passage text>``

``StubBackend`` is a pure function of the prompt, so pipelines are fully
testable (and byte-reproducible) without any trained model.
``RemoteBackend`` speaks a batch HTTP/JSON protocol to a serving endpoint.
"""

from __future__ import annotations

import re
import string
import time
import weakref
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Protocol

from . import jsonl
from .errors import BackendUnavailable, ContractViolation, ProtocolError

NOT_ANSWERABLE = "not answerable"

GREEDY = "greedy"
BEAM = "beam"


def detection_prompt(context: str) -> str:
    return f"context: {context}"


def question_generation_prompt(answer: str, title: str, context: str) -> str:
    return f"answer: {answer} title: {title} context: {context}"


def reading_qa_prompt(question: str, context: str) -> str:
    return f"question: {question} context: {context}"


def revision_prompt(question: str, answer: str, passage_text: str) -> str:
    return f"question: {question} answer: {answer} passage: {passage_text}"


@dataclass(frozen=True)
class GenerationRequest:
    prompt: str
    max_candidates: int = 1
    decode_mode: str = GREEDY

    def __post_init__(self) -> None:
        if not self.prompt:
            raise ValueError("prompt must be non-empty")
        if self.max_candidates < 1:
            raise ValueError("max_candidates must be >= 1")
        if self.decode_mode not in (GREEDY, BEAM):
            raise ValueError(f"unknown decode_mode {self.decode_mode!r}")
        if self.decode_mode == GREEDY and self.max_candidates != 1:
            raise ValueError("greedy decoding implies max_candidates == 1")


@dataclass(frozen=True)
class GenerationResponse:
    candidates: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.candidates:
            raise ValueError("a generation response must carry at least one candidate")


class Backend(Protocol):
    def generate_batch(self, requests: Sequence[GenerationRequest]) -> list[GenerationResponse]: ...


_QG_PROMPT = re.compile(r"^answer: (.*?) title: (.*?) context: (.*)$", re.DOTALL)
_READ_PROMPT = re.compile(r"^question: (.*?) context: (.*)$", re.DOTALL)
_REVISE_PROMPT = re.compile(r"^question: (.*?) answer: (.*?) passage: (.*)$", re.DOTALL)
_DETECT_PROMPT = re.compile(r"^context: (.*)$", re.DOTALL)
_TOKEN = re.compile(r"\S+")
_EMBEDDED_ANSWER = re.compile(r"^what is (.+) of .+\?", re.IGNORECASE)

_TERMINAL_PUNCT = ".!?;:"


def _capitalized_spans(context: str) -> list[str]:
    """All n-grams of maximal capitalized token runs, left to right.

    Runs break at lowercase tokens and after sentence-terminal punctuation.
    Spans are verbatim substrings of the context with end punctuation
    trimmed.
    """
    tokens = [(m.group(), m.start(), m.end()) for m in _TOKEN.finditer(context)]
    runs: list[list[tuple[str, int, int]]] = []
    current: list[tuple[str, int, int]] = []
    for tok in tokens:
        if tok[0][0].isupper():
            current.append(tok)
            if tok[0][-1] in _TERMINAL_PUNCT:
                runs.append(current)
                current = []
        elif current:
            runs.append(current)
            current = []
    if current:
        runs.append(current)
    spans = []
    for run in runs:
        for start in range(len(run)):
            for end in range(len(run), start, -1):
                raw = context[run[start][1] : run[end - 1][2]]
                span = raw.strip(string.punctuation)
                if span:
                    spans.append(span)
    return spans


def _find_span(needle: str, context: str) -> str | None:
    """Case-insensitive search; returns the context's surface form."""
    idx = context.lower().find(needle.lower())
    if idx < 0:
        return None
    return context[idx : idx + len(needle)]


class StubBackend:
    """Deterministic in-process backend; a pure function of the prompt.

    Rules, by prompt kind:

    * detection: capitalized token n-grams of the context in left-to-right
      order (first context token if there are none),
    * question generation: ``answer: <a> question: what is <a> of <title>?``,
    * reading QA: the context span matching the question's embedded answer,
      else ``"not answerable"``,
    * revision: append the first passage token not already in the question.
    """

    def generate_batch(self, requests: Sequence[GenerationRequest]) -> list[GenerationResponse]:
        return [self.generate(request) for request in requests]

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        prompt = request.prompt
        if prompt.startswith("context: "):
            candidates = self._detect(_DETECT_PROMPT.match(prompt).group(1))
        elif prompt.startswith("answer: "):
            match = _QG_PROMPT.match(prompt)
            if not match:
                raise ProtocolError("malformed question-generation prompt")
            answer, title, _ = match.groups()
            candidates = [self._generate_question(answer, title)]
        elif prompt.startswith("question: ") and " passage: " in prompt:
            match = _REVISE_PROMPT.match(prompt)
            candidates = [self._revise(match.group(1), match.group(2), match.group(3))]
        elif prompt.startswith("question: ") and " context: " in prompt:
            match = _READ_PROMPT.match(prompt)
            candidates = [self._read(match.group(1), match.group(2))]
        else:
            raise ProtocolError(f"unrecognized prompt prefix: {prompt[:40]!r}")
        return GenerationResponse(tuple(candidates[: request.max_candidates]))

    @staticmethod
    def _detect(context: str) -> list[str]:
        spans = _capitalized_spans(context)
        if spans:
            return spans
        tokens = context.split()
        if not tokens:
            raise ProtocolError("detection prompt with empty context")
        return [tokens[0].strip(string.punctuation) or tokens[0]]

    @staticmethod
    def _generate_question(answer: str, title: str) -> str:
        return f"answer: {answer} question: what is {answer} of {title}?"

    @staticmethod
    def _read(question: str, context: str) -> str:
        match = _EMBEDDED_ANSWER.match(question.strip())
        if match:
            found = _find_span(match.group(1), context)
            return found if found is not None else NOT_ANSWERABLE
        # Free-form question: fall back to the longest question n-gram
        # present in the context.
        tokens = question.strip().rstrip("?").split()
        for length in range(len(tokens), 0, -1):
            for start in range(len(tokens) - length + 1):
                phrase = " ".join(tokens[start : start + length]).strip(string.punctuation)
                if not phrase:
                    continue
                found = _find_span(phrase, context)
                if found is not None:
                    return found
        return NOT_ANSWERABLE

    @staticmethod
    def _revise(question: str, answer: str, passage_text: str) -> str:
        from .metrics import normalize_answer  # local import: avoids a module cycle

        present = {normalize_answer(tok) for tok in question.split()}
        present.discard("")
        addition = None
        for raw in passage_text.split():
            token = raw.strip(string.punctuation)
            key = normalize_answer(token)
            if token and key and key not in present:
                addition = token
                break
        if addition is None:
            revised = question
        else:
            stripped = question.rstrip()
            if stripped.endswith("?"):
                revised = f"{stripped[:-1].rstrip()} {addition}?"
            else:
                revised = f"{stripped} {addition}"
        return f"answer: {answer} revised: {revised}"


class RemoteBackend:
    """HTTP/JSON client for a generation service, on one keep-alive connection.

    Protocol: POST ``{"inputs": [prompt, ...], "max_candidates": int,
    "decode_mode": str}``; reply ``{"outputs": [[candidate, ...], ...]}``.
    Each ``generate_batch`` call is one POST. Transport failures and 5xx
    replies are retried with exponential backoff (3 retries by default)
    before raising BackendUnavailable; other bad replies raise ProtocolError.
    """

    def __init__(
        self,
        endpoint: str,
        *,
        timeout: float = 30.0,
        max_retries: int = 3,
        backoff: float = 0.5,
    ):
        import http.client  # imported where used: it loads ssl, which only a remote backend needs
        from urllib.parse import urlsplit

        url = urlsplit(endpoint)
        connection = {"http": http.client.HTTPConnection, "https": http.client.HTTPSConnection}
        try:
            port = url.port
        except ValueError:  # not a port number
            port = -1
        if url.scheme not in connection or not url.hostname or port == -1:
            raise ContractViolation(f"not an http:// or https:// backend endpoint: {endpoint!r}")
        if url.username is not None or url.password is not None:
            raise ContractViolation(f"backend endpoint credentials are not supported: {endpoint!r}")
        self.endpoint = endpoint
        self.max_retries = max_retries
        self.backoff = backoff
        self._path = (url.path or "/") + (f"?{url.query}" if url.query else "")
        self._connection = connection[url.scheme](url.hostname, port, timeout=timeout)
        weakref.finalize(self, self._connection.close)  # the socket goes with its backend

    def generate_batch(self, requests: Sequence[GenerationRequest]) -> list[GenerationResponse]:
        import http.client

        if not requests:
            return []
        modes = {(request.decode_mode, request.max_candidates) for request in requests}
        if len(modes) > 1:
            raise ValueError("one batch carries one decode_mode and one max_candidates")
        ((decode_mode, max_candidates),) = modes
        body = jsonl.dumps({"max_candidates": max_candidates, "decode_mode": decode_mode,
                            "inputs": [r.prompt for r in requests]}).encode("utf-8")
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(self.backoff * 2 ** (attempt - 1))
            try:
                status, data = self._post(body)
            except (OSError, http.client.HTTPException) as exc:
                self._connection.close()
                last_error = exc
                continue
            if status >= 500:
                last_error = ProtocolError(f"server error {status}")
                continue
            if status != 200:
                raise ProtocolError(f"backend rejected request: {status}")
            return self._parse_outputs(data, len(requests), max_candidates)
        raise BackendUnavailable(
            f"backend at {self.endpoint} unreachable after "
            f"{self.max_retries + 1} attempts: {last_error}"
        )

    def _post(self, body: bytes) -> tuple[int, bytes]:
        """One POST. A kept-alive connection the server has since closed fails
        before any reply byte arrives; it is reopened and the request sent
        once more, at no retry's cost: generation is a pure function of the prompt."""
        for resend in (self._connection.sock is not None, False):
            try:
                self._connection.request("POST", self._path, body,
                                         {"Content-Type": "application/json"})
                reply = self._connection.getresponse()
            except (BrokenPipeError, ConnectionResetError):  # RemoteDisconnected is one too
                if not resend:
                    raise
                self._connection.close()
            else:
                return reply.status, reply.read()

    @staticmethod
    def _parse_outputs(data: bytes, expected: int, max_candidates: int) -> list[GenerationResponse]:
        try:
            reply = jsonl.loads(data)
        except ValueError as exc:
            raise ProtocolError(f"backend reply is not JSON: {exc}") from exc
        outputs = reply.get("outputs") if isinstance(reply, dict) else None
        if (
            not isinstance(outputs, list)
            or len(outputs) != expected
            or not all(
                isinstance(row, list)
                and 0 < len(row) <= max_candidates
                and all(isinstance(c, str) for c in row)
                for row in outputs
            )
        ):
            raise ProtocolError(
                f"backend reply missing well-formed 'outputs' of {expected} rows "
                f"of 1 to {max_candidates} candidates"
            )
        return [GenerationResponse(tuple(row)) for row in outputs]
