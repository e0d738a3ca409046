"""Passage corpus: chunking, ingestion, serialization, and lookup.

A passage holds its id, its document title and its text, nothing else.
Chunking splits on plain Unicode whitespace, so chunk boundaries are
deterministic and independent of any model vocabulary.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from . import jsonl
from .errors import DuplicateId, EmptyDocument

DEFAULT_CHUNK_SIZE = 100
_PASSAGE = {"id": str, "title": str, "text": str}


@dataclass(frozen=True)
class Passage:
    """A chunk of a source document; the unit that retrieval returns."""

    id: str
    title: str
    text: str

    def __post_init__(self) -> None:
        if not self.text or self.text.isspace():
            raise ValueError(f"passage {self.id!r} has empty text")
        if "\0" in self.id:  # numpy's str arrays, which the index keeps ids in, strip it
            raise ValueError(f"passage id {self.id!r} holds U+0000")

    def to_record(self) -> dict:
        return {"id": self.id, "title": self.title, "text": self.text}


def _passage(record: dict) -> Passage:
    return Passage(record["id"], record["title"], record["text"])


class Corpus:
    """Ordered, id-indexed collection of passages.

    Immutable once built; iteration order is ingestion order.
    """

    def __init__(self, passages: Iterable[Passage] = ()):
        self._passages: dict[str, Passage] = {}  # by id, in ingestion order
        for passage in passages:
            if passage.id in self._passages:
                raise DuplicateId(f"duplicate passage id {passage.id!r}")
            self._passages[passage.id] = passage

    def __len__(self) -> int:
        return len(self._passages)

    def __iter__(self) -> Iterator[Passage]:
        return iter(self._passages.values())

    def __contains__(self, passage_id: str) -> bool:
        return passage_id in self._passages

    def __getitem__(self, passage_id: str) -> Passage:
        return self._passages[passage_id]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return list(self) == list(other)

    def get(self, passage_id: str, default: Passage | None = None) -> Passage | None:
        return self._passages.get(passage_id, default)

    @property
    def ids(self) -> list[str]:
        return list(self._passages)


def chunk_document(title: str, body: str, chunk_size: int = DEFAULT_CHUNK_SIZE) -> list[Passage]:
    """Split a document body into fixed-size token chunks.

    Every chunk except possibly the last holds exactly ``chunk_size``
    whitespace tokens; chunk ids are ``"<title>#<0-based ordinal>"``.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    tokens = body.split()
    if not tokens:
        raise EmptyDocument(f"document {title!r} is empty after whitespace normalization")
    return [
        Passage(f"{title}#{ordinal}", title, " ".join(tokens[start : start + chunk_size]))
        for ordinal, start in enumerate(range(0, len(tokens), chunk_size))
    ]


def ingest_passages(lines: Iterable[str], source: str = "") -> Corpus:
    """Build a Corpus from a stream of line-delimited JSON records.

    Each record must carry string fields ``id``, ``title``, ``text``.
    Blank lines are tolerated; anything else malformed raises ParseError
    with the 1-based line number, and a repeated id raises DuplicateId.
    Messages start with ``source``, the file name, when one is given.
    """
    passages = [jsonl.check(record, _PASSAGE, source, lineno, make=_passage)
                for lineno, record in jsonl.parse_lines(lines, source)]
    try:
        return Corpus(passages)
    except DuplicateId as exc:
        raise DuplicateId(f"{source}: {exc}" if source else str(exc)) from None


def save_corpus(corpus: Corpus, path: str) -> None:
    jsonl.write(path, (passage.to_record() for passage in corpus))


def load_corpus(path: str) -> Corpus:
    with open(path, encoding="utf-8") as fh:
        return ingest_passages(fh, str(path))
