import json
import sys

import pytest
from hypothesis import given, strategies as st

from qadb.corpus import Passage, chunk_document, ingest_passages, load_corpus, save_corpus
from qadb.errors import DuplicateId, EmptyDocument, ParseError


def test_chunk_250_tokens_into_100s():
    body = " ".join(f"tok{i}" for i in range(250))
    chunks = chunk_document("X", body, 100)
    assert [len(c.text.split()) for c in chunks] == [100, 100, 50]


def test_chunk_exact_fit():
    body = " ".join(f"tok{i}" for i in range(100))
    chunks = chunk_document("X", body, 100)
    assert len(chunks) == 1
    assert len(chunks[0].text.split()) == 100


def test_chunk_ids_and_texts():
    chunks = chunk_document("X", "a b c", 2)
    assert [c.text for c in chunks] == ["a b", "c"]
    assert [c.id for c in chunks] == ["X#0", "X#1"]


def test_chunk_empty_body_raises():
    with pytest.raises(EmptyDocument):
        chunk_document("X", "   \n\t ", 100)


def test_chunk_size_must_be_positive():
    with pytest.raises(ValueError):
        chunk_document("X", "a b", 0)


@given(
    tokens=st.lists(st.text(alphabet="abcxyz", min_size=1, max_size=5), min_size=1, max_size=60),
    chunk_size=st.integers(min_value=1, max_value=20),
)
def test_chunking_preserves_token_sequence(tokens, chunk_size):
    chunks = chunk_document("Doc", " ".join(tokens), chunk_size)
    rejoined = [tok for c in chunks for tok in c.text.split()]
    assert rejoined == tokens
    assert all(len(c.text.split()) == chunk_size for c in chunks[:-1])
    assert 1 <= len(chunks[-1].text.split()) <= chunk_size


def test_passage_rejects_empty_text():
    whitespace = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
    for text in ["", "   ", "".join(whitespace), *whitespace]:
        with pytest.raises(ValueError, match="empty text"):
            Passage(id="p", title="t", text=text)
    for text in ["\u200b", "\ufeff", " x "]:  # zero-width space and BOM are not whitespace
        assert Passage(id="p", title="t", text=text).text == text


def test_passage_rejects_an_id_holding_nul():
    for pid in ["p\0", "\0", "a\0b"]:
        with pytest.raises(ValueError, match=r"holds U\+0000"):
            Passage(id=pid, title="t", text="x")


def _lines(*records):
    return [json.dumps(r) for r in records]


def test_ingest_three_records():
    corpus = ingest_passages(
        _lines(
            {"id": "p1", "title": "A", "text": "one two"},
            {"id": "p2", "title": "B", "text": "three"},
            {"id": "p3", "title": "C", "text": "four five six"},
        )
    )
    assert len(corpus) == 3
    assert len(corpus["p3"].text.split()) == 3
    assert corpus.ids == ["p1", "p2", "p3"]


def test_ingest_duplicate_id():
    with pytest.raises(DuplicateId) as excinfo:
        ingest_passages(
            _lines(
                {"id": "p1", "title": "A", "text": "x"},
                {"id": "p1", "title": "B", "text": "y"},
            )
        )
    assert "p1" in str(excinfo.value)
    with pytest.raises(DuplicateId, match="^c.jsonl: duplicate passage id 'p1'$"):
        ingest_passages(_lines({"id": "p1", "title": "A", "text": "x"}) * 2, "c.jsonl")


def test_ingest_empty_stream():
    assert len(ingest_passages([])) == 0


def test_ingest_malformed_line_reports_line_number():
    with pytest.raises(ParseError) as excinfo:
        ingest_passages(_lines({"id": "p1", "title": "A", "text": "x"}) + ["{not json"])
    assert "line 2" in str(excinfo.value)
    with pytest.raises(ParseError, match="^c.jsonl: line 2: invalid JSON"):
        ingest_passages(_lines({"id": "p1", "title": "A", "text": "x"}) + ["{not json"], "c.jsonl")


def test_ingest_missing_field_reports_line_number():
    with pytest.raises(ParseError) as excinfo:
        ingest_passages(_lines({"id": "p1", "title": "A"}))
    assert "line 1" in str(excinfo.value)
    with pytest.raises(ParseError, match="^c.jsonl: line 1: missing or mistyped field 'text'"):
        ingest_passages(_lines({"id": "p1", "title": "A"}), "c.jsonl")


def test_corpus_round_trip(tmp_path):
    corpus = ingest_passages(
        _lines(
            {"id": "a#0", "title": "a", "text": "alpha beta"},
            {"id": "b#0", "title": "b", "text": "gamma"},
        )
    )
    path = tmp_path / "corpus.jsonl"
    save_corpus(corpus, str(path))
    assert load_corpus(str(path)) == corpus
    # a second save is byte-identical
    again = tmp_path / "again.jsonl"
    save_corpus(load_corpus(str(path)), str(again))
    assert path.read_bytes() == again.read_bytes()
