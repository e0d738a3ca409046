"""Shared fixtures: scripted backends and synthetic corpora."""

from __future__ import annotations

import random
import re
from collections import deque

from qadb.backend import NOT_ANSWERABLE, GenerationResponse
from qadb.construction import CandidateQA
from qadb.corpus import Corpus, Passage
from qadb.database import QADatabase, merge_questions
from qadb.metrics import normalize_answer

_READ = re.compile(r"^question: (.*?) context: (.*)$", re.DOTALL)


class PerPromptBackend:
    """A backend defined by its answer to one request: a batch maps ``generate`` over it."""

    def generate_batch(self, requests):
        return [self.generate(request) for request in requests]


class ScriptedBackend(PerPromptBackend):
    """Replays queued candidate lists, one per prompt."""

    def __init__(self, replies: list[list[str]]):
        self._replies = deque(replies)
        self.requests = []

    def generate(self, request):
        self.requests.append(request)
        candidates = self._replies.popleft()
        return GenerationResponse(tuple(candidates[: request.max_candidates]))


class TableQABackend(PerPromptBackend):
    """Extractive-QA oracle: answers from a fixed table when mentioned in context."""

    def __init__(self, table: dict[str, str]):
        self.table = table

    def generate(self, request):
        match = _READ.match(request.prompt)
        question, context = match.group(1), match.group(2)
        gold = self.table.get(question)
        if gold is not None and normalize_answer(gold) in normalize_answer(context):
            return GenerationResponse((gold,))
        return GenerationResponse((NOT_ANSWERABLE,))


class FlakyBackend(PerPromptBackend):
    """Delegates to an inner backend but fails on passages containing a marker."""

    def __init__(self, inner, marker: str, fail_times: int = 1):
        self.inner = inner
        self.marker = marker
        self.remaining_failures = fail_times

    def generate(self, request):
        if self.marker in request.prompt and self.remaining_failures > 0:
            self.remaining_failures -= 1
            from qadb.errors import BackendUnavailable

            raise BackendUnavailable("injected failure")
        return self.inner.generate(request)


def rec(pid: str, answer: str, question: str, verified: bool = True) -> CandidateQA:
    if not question.endswith("?"):
        question += "?"
    return CandidateQA(passage_id=pid, answer=answer, question=question, verified=verified)


def build_db(rows: list[tuple[str, str, str]]) -> QADatabase:
    return merge_questions([rec(pid, answer, question) for pid, answer, question in rows])


_FIRST = ["Alder", "Birch", "Cedar", "Dogwood", "Elm", "Fir", "Gingko", "Hazel"]
_SECOND = ["Bridge", "Harbor", "Library", "Market", "Museum", "Station", "Theater", "Tower"]
_VERBS = ["opened", "reopened", "closed", "expanded"]


def make_toy_corpus(n: int = 20) -> Corpus:
    """Deterministic synthetic passages with capitalized entity spans."""
    passages = []
    for i in range(n):
        name = f"{_FIRST[i % len(_FIRST)]} {_SECOND[(i // len(_FIRST) + i) % len(_SECOND)]}"
        verb = _VERBS[i % len(_VERBS)]
        year = 1900 + 7 * i
        text = (
            f"{name} {verb} in {year} and quickly became a landmark. "
            f"Visitors praised {name} for its unusual design."
        )
        passages.append(Passage(f"doc-{i:02d}#0", f"Doc {i:02d}", text))
    return Corpus(passages)


DIVERSITY_QUERY = "where is the home stadium of the michigan wolverines?"
DIVERSITY_GOLD = ("Michigan Stadium", "Crisler Center", "Yost Ice Arena")


def make_diversity_corpus() -> Corpus:
    """30 passages: one ambiguous query answered by 3 distinct venue passages,
    padded with redundant near-duplicates that flood a direct BM25 baseline.

    The duplicates are written in lowercase and stuffed with query terms, so
    they dominate direct passage retrieval while contributing almost nothing
    to the generated-question index.
    """
    passages = [
        Passage(
            "venue-football#0",
            "Football",
            "Michigan Stadium is the home stadium of the Michigan Wolverines "
            "football team. Michigan Wolverines fans fill Michigan Stadium on "
            "football saturdays in Ann Arbor.",
        ),
        Passage(
            "venue-basketball#0",
            "Basketball",
            "Crisler Center is the home arena of the Michigan Wolverines "
            "basketball team. Michigan Wolverines basketball games pack "
            "Crisler Center in Ann Arbor.",
        ),
        Passage(
            "venue-hockey#0",
            "Hockey",
            "Yost Ice Arena is the home rink of the Michigan Wolverines hockey "
            "team. Michigan Wolverines hockey skates at Yost Ice Arena in Ann Arbor.",
        ),
    ]
    for i in range(20):
        passages.append(
            Passage(
                f"redundant-{i:02d}#0",
                f"notes {i:02d}",
                "the home stadium of the michigan wolverines is the michigan "
                "stadium and the home stadium of the michigan wolverines draws "
                f"fans to the michigan stadium in week {i}.",
            )
        )
    fillers = [
        ("filler-00#0", "Landmarks", "Eiffel Tower rises above Paris and Eiffel Tower draws crowds."),
        ("filler-01#0", "Rivers", "Blue Danube flows through Vienna past the Danube Island."),
        ("filler-02#0", "Peaks", "Mount Rainier towers over Tacoma and Mount Rainier is iced."),
        ("filler-03#0", "Lakes", "Lake Geneva borders Lausanne and Lake Geneva is deep."),
        ("filler-04#0", "Deserts", "Gobi Desert spans Mongolia and Gobi Desert is cold."),
        ("filler-05#0", "Forests", "Black Forest covers Baden and Black Forest is dense."),
        ("filler-06#0", "Canyons", "Grand Canyon cuts Arizona and Grand Canyon is vast."),
    ]
    for pid, title, text in fillers:
        passages.append(Passage(pid, title, text))
    return Corpus(passages)


_REWRITE_PUNCT = list("!,.;:?'\"()-")


def normalization_preserving_rewrite(rng: random.Random, text: str) -> str:
    """Random case/punctuation/article rewrite with the same normalized form."""
    out = []
    for word in text.split():
        if rng.random() < 0.4:
            word = word.upper()
        if rng.random() < 0.4:
            pos = rng.randint(0, len(word))
            word = word[:pos] + rng.choice(_REWRITE_PUNCT) + word[pos:]
        out.append(word)
        if rng.random() < 0.3:
            out.append(rng.choice(["a", "an", "the"]))
    if rng.random() < 0.5:
        out.insert(0, rng.choice(["The", "A"]))
    return " ".join(out)


def random_database(rng: random.Random, max_passages: int = 50, max_questions: int = 200) -> QADatabase:
    """Random multi-provenance database for aggregation property tests."""
    n_passages = rng.randint(1, max_passages)
    pids = [f"p{i:03d}" for i in range(n_passages)]
    n_questions = rng.randint(1, max_questions)
    rows = []
    for qi in range(n_questions):
        question = f"generated question number {qi}?"
        for pid in rng.sample(pids, k=min(len(pids), rng.randint(1, 3))):
            rows.append((pid, f"answer {qi}", question))
    return build_db(rows)


def random_hits(rng: random.Random, db: QADatabase, max_hits: int = 50):
    """Random scored hit list over db qids, honoring the sort invariant."""
    from qadb.retrieval import RetrievalHit

    qids = [q.qid for q in db.questions]
    chosen = rng.sample(qids, k=min(len(qids), rng.randint(1, max_hits)))
    if rng.random() < 0.5:
        scores = [round(rng.uniform(0, 3), 1) for _ in chosen]  # frequent ties
    else:
        scores = [rng.uniform(0, 3) for _ in chosen]
    ranked = sorted(zip(chosen, scores), key=lambda kv: (-kv[1], kv[0]))
    return [RetrievalHit(qid=qid, score=score) for qid, score in ranked]


def forbid_database_parse(monkeypatch) -> None:
    """Make every database parse fail, so only a retrieval image can serve."""

    def fail(*args, **kwargs):
        raise AssertionError("the database was parsed")

    monkeypatch.setattr(QADatabase, "load", fail)
