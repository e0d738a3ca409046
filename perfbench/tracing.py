"""In-memory spans around qadb's public functions, and self-time arithmetic.

The benchmark never edits ``src/``: it wraps module attributes from the
outside, in the CLI process it launches (see ``launch.py``). A span is
``[name, start, end, parent, item]`` with monotonic-clock times (seconds,
comparable across processes on one host), ``parent`` the index of the
enclosing span or -1, and ``item`` the passage, row or query id shared by
every span of that unit of work. Spans stay in memory until the process
writes them out at exit.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from contextlib import contextmanager


class Recorder:
    """Span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, item=None):
        parent = self._stack[-1] if self._stack else -1
        if item is None and parent >= 0:
            item = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append([name, time.monotonic(), None, parent, item])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.monotonic()
            self._stack.pop()

    def next_item(self, kind: str) -> str:
        """A fresh item id: ``row0``, ``row1``, ... (counted in ``counters``)."""
        self.counters[kind] += 1
        return f"{kind}{self.counters[kind] - 1}"

    def wrap(self, owner, attr: str, name: str, item=None) -> None:
        """Replace ``owner.attr`` by a version that records a span per call.

        ``item`` maps the call's arguments to the span's item id.
        """
        static = inspect.getattr_static(owner, attr)
        is_classmethod = isinstance(static, classmethod)
        func = static.__func__ if is_classmethod else getattr(owner, attr)
        recorder = self

        def traced(*args, **kwargs):
            with recorder.span(name, item(*args, **kwargs) if item else None):
                return func(*args, **kwargs)

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)


def install_item_timer(intervals: list) -> None:
    """Time each per-item call the CLI makes in a loop; the untraced run's only wrapper.

    ``retrieve`` calls ``retrieval.retrieve_passages`` once per query and
    ``revise`` calls ``revision.revise_iterative`` once per row.
    """
    from qadb import retrieval, revision

    for module, attr in ((retrieval, "retrieve_passages"), (revision, "revise_iterative")):
        func = getattr(module, attr)

        def timed(*args, _func=func, **kwargs):
            start = time.monotonic()
            try:
                return _func(*args, **kwargs)
            finally:
                intervals.append((start, time.monotonic()))

        setattr(module, attr, timed)


def install_layer_spans(rec: Recorder) -> None:
    """Wrap every layer's public functions in named spans (the traced run)."""
    from qadb import backend, cli, construction, corpus, database, retrieval, revision

    rec.wrap(corpus, "load_corpus", "corpus.load")
    rec.wrap(cli, "load_corpus", "corpus.load")  # cli holds its own reference
    rec.wrap(database.QADatabase, "load", "database.load")
    rec.wrap(database.QADatabase, "save", "database.save")
    rec.wrap(backend.RemoteBackend, "generate_batch", "backend.generate_batch")
    rec.wrap(construction, "build_database", "construction.build_database")
    passage_id = lambda passage, *a, **k: passage.id  # noqa: E731
    rec.wrap(construction, "detect_answers", "construction.detect", passage_id)
    rec.wrap(construction, "generate_question", "construction.generate", passage_id)
    rec.wrap(construction, "verify", "construction.verify", passage_id)
    rec.wrap(construction, "merge_questions", "construction.merge")
    rec.wrap(revision, "revise_iterative", "revision.revise_iterative",
             lambda *a, **k: rec.next_item("row"))
    rec.wrap(revision, "revise_once", "revision.revise_once")
    rec.wrap(retrieval, "load_vectors", "retrieval.load_vectors")
    rec.wrap(retrieval, "build_index", "retrieval.build_index")
    rec.wrap(retrieval, "retrieve_questions", "retrieval.retrieve_questions")
    rec.wrap(retrieval._Bm25, "scores", "retrieval.accumulate")
    rec.wrap(retrieval.QuestionIndex, "embed_query", "retrieval.embed_query")
    accumulate, embed_query = retrieval._Bm25.scores, retrieval.QuestionIndex.embed_query

    def counted_accumulate(self, *args, **kwargs):
        scores = accumulate(self, *args, **kwargs)
        rec.counters["retrieval.candidates"] += len(scores)  # BM25 terms here are all > 0
        return scores

    def counted_embed_query(self, *args, **kwargs):
        rec.counters["retrieval.candidates"] += len(self.keys)  # dense scores every entry
        return embed_query(self, *args, **kwargs)

    retrieval._Bm25.scores = counted_accumulate
    retrieval.QuestionIndex.embed_query = counted_embed_query
    rec.wrap(retrieval, "score_passages_max", "retrieval.aggregate")
    rec.wrap(retrieval, "score_passages_count", "retrieval.aggregate")

    # tokenize also runs 200k times inside build_index; trace it only
    # while a query is being answered.
    plain_tokenize = retrieval.tokenize
    rec.wrap(retrieval, "tokenize", "retrieval.tokenize")
    traced_tokenize = retrieval.tokenize
    retrieval.tokenize = plain_tokenize
    retrieve_passages = retrieval.retrieve_passages

    def query(*args, **kwargs):
        with rec.span("retrieval.retrieve_passages", rec.next_item("query")):
            retrieval.tokenize = traced_tokenize
            try:
                return retrieve_passages(*args, **kwargs)
            finally:
                retrieval.tokenize = plain_tokenize

    retrieval.retrieve_passages = query


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, item in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent, item) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out

