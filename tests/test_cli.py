import http.server
import json
import math
import shutil
import signal
import socket
import subprocess
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from fixtures import forbid_database_parse, make_toy_corpus
from oracles import bm25_scores_direct

from qadb import cli, jsonl, retrieval
from qadb.backend import GenerationRequest, StubBackend
from qadb.cli import main
from qadb.config import ENDPOINT_ENV_VAR, RunConfig
from qadb.corpus import load_corpus, save_corpus
from qadb.database import QADatabase

DATA = Path(__file__).parent / "data"


@pytest.fixture(autouse=True)
def _no_endpoint_env(monkeypatch):
    monkeypatch.delenv(ENDPOINT_ENV_VAR, raising=False)


def _db(tmp_path):
    """A copy of the fixture database: ``retrieve`` writes its index image next to it."""
    path = tmp_path / "fixture.qadb"
    if not path.exists():
        shutil.copyfile(DATA / "fixture.qadb", path)
    return str(path)


def _read_jsonl(path):
    rows = [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
    header = rows[0]["header"] if rows and "header" in rows[0] else None
    records = [r for r in rows if "header" not in r]
    return header, records


# ------------------------------------------------------------- build-db


def test_build_db_writes_database_and_report(tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus(make_toy_corpus(6), str(corpus_path))
    db_path = tmp_path / "out.qadb"
    code = main(["build-db", "--corpus", str(corpus_path), "--db", str(db_path)])
    assert code == 0
    db = QADatabase.load(db_path)
    report = json.loads((tmp_path / "out.qadb.report.json").read_text())
    assert report["verified"] <= report["generated"] <= report["detected"]
    assert report["unique_questions"] == len(db)
    assert "fingerprint" in report


def test_build_db_missing_corpus_exits_2(tmp_path, capsys):
    code = main(
        ["build-db", "--corpus", str(tmp_path / "nope.jsonl"), "--db", str(tmp_path / "o.qadb")]
    )
    assert code == 2
    assert "nope.jsonl" in capsys.readouterr().err


def test_build_db_rerun_is_byte_identical(tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus(make_toy_corpus(5), str(corpus_path))
    outputs = []
    for name in ("a.qadb", "b.qadb"):
        db_path = tmp_path / name
        assert main(["build-db", "--corpus", str(corpus_path), "--db", str(db_path)]) == 0
        outputs.append(db_path.read_bytes())
    assert outputs[0] == outputs[1]


# ------------------------------------------------------------- retrieve


def _retrieve(tmp_path, db, out, *extra, config=None):
    return main(
        [
            "retrieve",
            "--config", str(config or DATA / "config_count.txt"),
            "--db", str(db),
            "--queries", str(DATA / "queries.jsonl"),
            "--out", str(tmp_path / out),
            *extra,
        ]
    )


def test_retrieve_count_matches_oracle_golden_file(tmp_path, monkeypatch):
    # the first run builds the index and writes its image; the second reads the image alone
    golden = (DATA / "golden_retrieve_count.jsonl").read_bytes()
    assert _retrieve(tmp_path, _db(tmp_path), "cold.jsonl") == 0
    assert (tmp_path / "fixture.qadb.index.npz").is_file()
    forbid_database_parse(monkeypatch)
    assert _retrieve(tmp_path, _db(tmp_path), "warm.jsonl") == 0
    assert (tmp_path / "cold.jsonl").read_bytes() == golden
    assert (tmp_path / "warm.jsonl").read_bytes() == golden


def test_committed_fixtures_are_what_make_golden_writes(tmp_path, monkeypatch):
    import make_golden

    monkeypatch.setattr(make_golden, "DATA", tmp_path)
    make_golden.main()
    written = sorted(path.name for path in tmp_path.iterdir())
    # an in-place retrieve leaves its git-ignored index image next to the fixture database
    assert written == sorted(p.name for p in DATA.iterdir() if not p.name.endswith(".index.npz"))
    stale = [name for name in written if (tmp_path / name).read_bytes() != (DATA / name).read_bytes()]
    assert not stale, f"stale fixtures {stale}: regenerate them with python3 tests/make_golden.py"


def test_retrieve_with_unwritable_image_warns_and_matches_golden_file(tmp_path, capsys):
    (tmp_path / "fixture.qadb.index.npz").mkdir()  # fails the rename even for root
    assert _retrieve(tmp_path, _db(tmp_path), "results.jsonl") == 0
    warnings = [line for line in capsys.readouterr().err.splitlines() if line]
    assert len(warnings) == 1 and warnings[0].startswith("warning: ")
    golden = (DATA / "golden_retrieve_count.jsonl").read_bytes()
    assert (tmp_path / "results.jsonl").read_bytes() == golden
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "fixture.qadb", "fixture.qadb.index.npz", "results.jsonl"
    ]


@pytest.mark.parametrize("vectors", [True, False], ids=["embeddings", "embedder"])
def test_retrieve_dense_warm_image_equals_cold(tmp_path, monkeypatch, vectors):
    config = tmp_path / "dense.txt"
    config.write_text("retrieval_mode = dense\nretrieval_method = max\nembedding_dim = 16\n")
    extra = []
    if vectors:
        embed = retrieval.hashing_embedder(16)
        questions = QADatabase.load(DATA / "fixture.qadb").questions
        retrieval.save_vectors(str(tmp_path / "q.qvec"), np.stack([embed(q.question) for q in questions]))
        extra = ["--embeddings", str(tmp_path / "q.qvec")]
    assert _retrieve(tmp_path, _db(tmp_path), "cold.jsonl", *extra, config=config) == 0
    forbid_database_parse(monkeypatch)

    def no_bm25(*args, **kwargs):
        raise AssertionError("dense mode read the BM25 arrays")

    monkeypatch.setattr(retrieval._Bm25, "__init__", no_bm25)
    assert _retrieve(tmp_path, _db(tmp_path), "warm.jsonl", *extra, config=config) == 0
    cold = (tmp_path / "cold.jsonl").read_bytes()
    assert (tmp_path / "warm.jsonl").read_bytes() == cold
    assert len(_read_jsonl(tmp_path / "cold.jsonl")[1]) > 0


def test_retrieve_dense_over_empty_database_writes_no_records(tmp_path):
    config = tmp_path / "dense.txt"
    config.write_text("retrieval_mode = dense\nretrieval_method = max\n")
    db = tmp_path / "empty.qadb"
    QADatabase([]).save(db)
    for out in ("cold.jsonl", "warm.jsonl"):
        assert _retrieve(tmp_path, db, out, config=config) == 0
        assert _read_jsonl(tmp_path / out)[1] == []


def test_retrieve_direct_without_corpus_exits_2(tmp_path, capsys):
    config = tmp_path / "direct.txt"
    config.write_text("retrieval_method = direct\n")
    code = main(
        [
            "retrieve",
            "--config", str(config),
            "--db", _db(tmp_path),
            "--queries", str(DATA / "queries.jsonl"),
            "--out", str(tmp_path / "r.jsonl"),
        ]
    )
    assert code == 2
    assert "corpus" in capsys.readouterr().err


def test_retrieve_unknown_method_exits_2(tmp_path, capsys):
    config = tmp_path / "bad.txt"
    config.write_text("retrieval_method = median\n")
    code = main(
        [
            "retrieve",
            "--config", str(config),
            "--db", _db(tmp_path),
            "--queries", str(DATA / "queries.jsonl"),
            "--out", str(tmp_path / "r.jsonl"),
        ]
    )
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {config}: line 1: retrieval_method must be one of max, count, direct\n"
    )


def test_retrieve_empty_queries_writes_no_records(tmp_path):
    queries = tmp_path / "queries.jsonl"
    queries.write_text("")
    out = tmp_path / "results.jsonl"
    code = main(
        [
            "retrieve",
            "--db", _db(tmp_path),
            "--queries", str(queries),
            "--out", str(out),
        ]
    )
    assert code == 0
    header, records = _read_jsonl(out)
    assert header is not None  # fingerprint header is always present
    assert records == []


def test_retrieve_direct_with_corpus_works(tmp_path):
    config = tmp_path / "direct.txt"
    config.write_text("retrieval_method = direct\ntop_n = 5\n")
    out = tmp_path / "results.jsonl"
    code = main(
        [
            "retrieve",
            "--config", str(config),
            "--db", _db(tmp_path),
            "--queries", str(DATA / "queries.jsonl"),
            "--corpus", str(DATA / "corpus.jsonl"),
            "--out", str(out),
        ]
    )
    assert code == 0
    _, records = _read_jsonl(out)
    assert records and all(r["method"] == "direct" for r in records)


def _direct_oracle_rows(top_n):
    """Direct BM25 over the corpus passages, ranked (score desc, passage id asc)."""
    passages = [(p.id, p.text) for p in load_corpus(str(DATA / "corpus.jsonl"))]
    rows = []
    for query in (json.loads(line) for line in (DATA / "queries.jsonl").read_text().splitlines()):
        scores = bm25_scores_direct(query["question"], [text for _, text in passages])
        ranked = sorted((-score, pid) for (pid, _), score in zip(passages, scores) if score > 0)
        rows += [
            {"method": "direct", "passage_id": pid, "query_id": query["query_id"],
             "rank": rank, "score": -neg}
            for rank, (neg, pid) in enumerate(ranked[:top_n], start=1)
        ]
    return rows


def test_retrieve_direct_reads_only_the_corpus(tmp_path):
    config = tmp_path / "direct.txt"
    config.write_text("retrieval_method = direct\ntop_n = 5\n")
    extra = ["--corpus", str(DATA / "corpus.jsonl")]
    assert _retrieve(tmp_path, _db(tmp_path), "results.jsonl", *extra, config=config) == 0
    assert not (tmp_path / "fixture.qadb.index.npz").exists()
    _, records = _read_jsonl(tmp_path / "results.jsonl")
    assert records == _direct_oracle_rows(5)
    junk = tmp_path / "junk.qadb"
    junk.write_text("not a database\n")
    assert _retrieve(tmp_path, junk, "junk.jsonl", *extra, config=config) == 0
    assert (tmp_path / "junk.jsonl").read_bytes() == (tmp_path / "results.jsonl").read_bytes()
    assert not (tmp_path / "junk.qadb.index.npz").exists()
    no_db = ["retrieve", "--config", str(config), "--queries", str(DATA / "queries.jsonl"),
             "--out", str(tmp_path / "no_db.jsonl"), *extra]
    assert main(no_db) == 0
    assert (tmp_path / "no_db.jsonl").read_bytes() == (tmp_path / "results.jsonl").read_bytes()


@pytest.mark.parametrize("method", ["max", "count", "direct"])
def test_retrieve_rows_carry_the_configured_method(tmp_path, method):
    config = tmp_path / "run.txt"
    config.write_text(f"retrieval_method = {method}\n")
    extra = ["--corpus", str(DATA / "corpus.jsonl")] if method == "direct" else []
    assert _retrieve(tmp_path, _db(tmp_path), "results.jsonl", *extra, config=config) == 0
    header, records = _read_jsonl(tmp_path / "results.jsonl")
    assert header["method"] == method
    assert records and all(r["method"] == method for r in records)


@pytest.mark.parametrize("method", ["direct", "count", "max"])
def test_retrieve_refuses_unread_embeddings(tmp_path, capsys, method):
    # only dense max and count read question vectors; sparse ones were loaded unread
    config = tmp_path / "run.txt"
    config.write_text(f"retrieval_method = {method}\n")
    extra = ["--corpus", str(DATA / "corpus.jsonl"), "--embeddings", str(tmp_path / "q.qvec")]
    assert _retrieve(tmp_path, _db(tmp_path), "results.jsonl", *extra, config=config) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --embeddings") and err.count("\n") == 1
    assert not (tmp_path / "results.jsonl").exists()


@pytest.mark.parametrize("method", ["max", "count"])
def test_retrieve_refuses_an_unread_corpus(tmp_path, capsys, method):
    # max and count rank through the database alone; a corpus path there was never read
    config = tmp_path / "run.txt"
    config.write_text(f"retrieval_method = {method}\n")
    extra = ["--corpus", str(tmp_path / "no-such-file.jsonl")]
    assert _retrieve(tmp_path, _db(tmp_path), "results.jsonl", *extra, config=config) == 2
    assert capsys.readouterr().err == (
        "error: --corpus holds passages; only the direct method reads it\n")
    assert not (tmp_path / "results.jsonl").exists()


@pytest.mark.parametrize("method", ["max", "count"])
def test_retrieve_over_questions_without_db_exits_2(tmp_path, capsys, method):
    config = tmp_path / "run.txt"
    config.write_text(f"retrieval_method = {method}\n")
    code = main(
        [
            "retrieve",
            "--config", str(config),
            "--queries", str(DATA / "queries.jsonl"),
            "--out", str(tmp_path / "results.jsonl"),
        ]
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: the {method} method needs --db\n"


def _bad_database(tmp_path, case):
    """The fixture database with a record missing, a line of invalid JSON, the
    first qid repeated, its records in descending qid order, an answer without
    passage ids, a question without answers, or version 9."""
    lines = (DATA / "fixture.qadb").read_text().splitlines(keepends=True)
    if case.endswith("short_db"):
        lines = lines[:-1]
    elif case.endswith("invalid_json_db"):
        lines[2] = "{not json\n"
    elif case.endswith("repeated_qid_db"):
        lines[2] = json.dumps({**json.loads(lines[2]), "qid": json.loads(lines[1])["qid"]}) + "\n"
    elif case.endswith("descending_qid_db"):
        lines[1:] = lines[:0:-1]
    elif case.endswith("unbacked_answer_db"):
        record = json.loads(lines[1])
        record["answers"][0]["passage_ids"] = []
        lines[1] = json.dumps(record) + "\n"
    elif case.endswith("answerless_question_db"):
        lines[1] = json.dumps({**json.loads(lines[1]), "answers": []}) + "\n"
    else:
        lines[0] = json.dumps({**json.loads(lines[0]), "version": 9}) + "\n"
    path = tmp_path / "bad.qadb"
    path.write_text("".join(lines))
    return path


@pytest.mark.parametrize(
    "case",
    [
        "bad_embeddings", "number_query", "non_string_question",
        "short_db", "invalid_json_db", "repeated_qid_db", "descending_qid_db", "version_9_db",
        "coverage_short_db", "coverage_invalid_json_db", "coverage_repeated_qid_db",
        "coverage_descending_qid_db", "coverage_unbacked_answer_db", "coverage_version_9_db",
        "answerless_question_db", "coverage_answerless_question_db",
        "few_embeddings", "narrow_embeddings", "nonfinite_embeddings",
    ],
)
def test_retrieve_bad_input_exits_2_without_traceback(tmp_path, capsys, case):
    queries = tmp_path / "queries.jsonl"
    queries.write_text(json.dumps({"query_id": "q1", "question": "where?"}) + "\n")
    db, named, extra = _db(tmp_path), queries, []
    dense = tmp_path / "dense.txt"
    dense.write_text("retrieval_mode = dense\nembedding_dim = 64\n")
    if case == "bad_embeddings":
        named = tmp_path / "vectors.bin"
        named.write_bytes(b"not an embedding file")
        extra = ["--embeddings", str(named), "--config", str(dense)]
    elif case == "number_query":
        queries.write_text("42\n")
    elif case == "non_string_question":
        queries.write_text(json.dumps({"query_id": "q1", "question": 7}) + "\n")
    elif case.endswith("_db"):
        db = named = _bad_database(tmp_path, case)
    else:  # vectors that do not fit the 79 questions, or hold NaN and infinity
        named = tmp_path / "vectors.qvec"
        vectors = np.ones({"few_embeddings": (3, 64), "narrow_embeddings": (79, 8)}.get(case, (79, 64)))
        if case == "nonfinite_embeddings":
            vectors[1:3, 0] = np.nan, np.inf
        retrieval.save_vectors(str(named), vectors)
        extra = ["--embeddings", str(named), "--config", str(dense)]
    if case.startswith("coverage_"):
        code = main(["coverage", "--db", str(db), "--gold", str(DATA / "gold.jsonl")])
    else:
        code = main(
            [
                "retrieve",
                "--db", str(db),
                "--queries", str(queries),
                "--out", str(tmp_path / "r.jsonl"),
                *extra,
            ]
        )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(named) in err
    if case in ("few_embeddings", "narrow_embeddings", "nonfinite_embeddings"):
        assert "--embeddings" in err
    if case.endswith("repeated_qid_db"):
        assert f"{named}: line 3: qid 0 after 0; qids must ascend" in err
    if case.endswith("descending_qid_db"):
        assert f"{named}: line 3: qid 77 after 78; qids must ascend" in err
    if case.endswith("unbacked_answer_db"):
        assert f"{named}: line 2: an answer without passage_ids" in err
    if case.endswith("answerless_question_db"):
        assert f"{named}: line 2: a question without answers" in err
    if case == "nonfinite_embeddings":
        assert "NaN or infinity" in err


def _run_reading(role, path, tmp_path):
    """A command whose only bad input is ``path`` in the given role."""
    if role == "corpus":
        return main(["build-db", "--corpus", str(path), "--db", str(tmp_path / "o.qadb")])
    if role == "queries":
        return main(
            [
                "retrieve",
                "--db", _db(tmp_path),
                "--queries", str(path),
                "--out", str(tmp_path / "r.jsonl"),
            ]
        )
    if role == "config":
        return main(
            [
                "coverage",
                "--config", str(path),
                "--db", str(DATA / "fixture.qadb"),
                "--gold", str(DATA / "gold.jsonl"),
            ]
        )
    return main(["coverage", "--db", str(DATA / "fixture.qadb"), "--gold", str(path)])


@pytest.mark.parametrize("role", ["corpus", "queries", "gold", "config"])
def test_non_utf8_input_exits_2_naming_the_file(tmp_path, capsys, role):
    path = tmp_path / f"{role}.jsonl"
    path.write_bytes(b"\xff\xfe{\x00}\x00\n")
    assert _run_reading(role, path, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not UTF-8 text") and err.count("\n") == 1


@pytest.mark.parametrize(
    ("role", "record"),
    [
        ("corpus", {"id": "a#0", "title": "a", "text": "alpha"}),
        ("gold", {"query_id": "q1", "gold_answers": ["x"]}),
    ],
)
def test_parse_errors_name_file_and_line(tmp_path, capsys, role, record):
    path = tmp_path / f"{role}.jsonl"
    path.write_text(json.dumps(record) + "\n{not json\n")
    assert _run_reading(role, path, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line 2: invalid JSON") and err.count("\n") == 1


@pytest.mark.parametrize("role", ["corpus", "queries", "gold"])
def test_lone_surrogate_escape_exits_2_naming_file_and_line(tmp_path, capsys, role):
    path = tmp_path / f"{role}.jsonl"
    path.write_text('{"id": "\\ud800", "title": "a", "text": "alpha"}\n')
    assert _run_reading(role, path, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line 1: a lone surrogate") and err.count("\n") == 1
    assert not (tmp_path / "o.qadb").exists()


def test_escaped_surrogate_pair_in_a_corpus_builds(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id": "\\ud83d\\ude00#0", "title": "Smile", "text": "Alder Bridge opened."}\n')
    assert _run_reading("corpus", corpus, tmp_path) == 0
    assert "\U0001f600#0" in (tmp_path / "o.qadb").read_text(encoding="utf-8")


def test_unknown_config_key_exits_2_naming_file_and_line(tmp_path, capsys):
    # the BM25 constants, the retrieval eval's multi-answer rule and recall cut-offs, and the
    # detection beam are fixed, not config keys
    config = tmp_path / "run.cfg"
    for key, value in [("colour", "blue"), ("bm25_k1", "1.2"), ("bm25_b", "0.75"),
                       ("multi_answer_only", "true"), ("beam", "32"), ("recall_ks", "1, 5, 10")]:
        config.write_text(f"# comment\ntop_n = 5\n{key} = {value}\n")
        assert _run_reading("config", config, tmp_path) == 2
        assert capsys.readouterr().err == f"error: {config}: line 3: unknown config key {key!r}\n"


def test_repeated_passage_id_exits_2_naming_file_and_id(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    record = json.dumps({"id": "a#0", "title": "a", "text": "alpha beta"})
    corpus.write_text(f"{record}\n{record}\n")
    assert _run_reading("corpus", corpus, tmp_path) == 2
    assert capsys.readouterr().err == f"error: {corpus}: duplicate passage id 'a#0'\n"


def _edited_fixture_db(tmp_path, edit):
    """The fixture database with ``edit`` applied to its first question record."""
    header, first, *rest = (DATA / "fixture.qadb").read_text().splitlines(keepends=True)
    record = json.loads(first)
    edit(record)
    path = tmp_path / "edited.qadb"
    path.write_text("".join([header, json.dumps(record) + "\n", *rest]))
    return path


@pytest.mark.parametrize(
    ("field", "edit"),
    [
        ("qid", lambda record: record.update(qid=str(record["qid"] + 1))),  # beside the int qid 1
        ("answers", lambda record: record["answers"][0].update(passage_ids="venue-football#0")),
        ("answers", lambda record: record["answers"][0].update(mentions=True)),
    ],
    ids=["mixed_qid_types", "passage_ids_string", "mentions_true"],
)
def test_mistyped_database_record_exits_2_naming_file_line_and_field(tmp_path, capsys, field, edit):
    db = _edited_fixture_db(tmp_path, edit)
    code = main(["retrieve", "--db", str(db), "--queries", str(DATA / "queries.jsonl"),
                 "--out", str(tmp_path / "r.jsonl")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {db}: line 2: missing or mistyped field {field!r}\n"
    assert not (tmp_path / "r.jsonl").exists()


def test_results_rank_true_exits_2_naming_rank(tmp_path, capsys):
    header, first, *rest = (DATA / "golden_retrieve_count.jsonl").read_text().splitlines(True)
    results = tmp_path / "results.jsonl"
    first = json.dumps({**json.loads(first), "rank": True}) + "\n"
    results.write_text("".join([header, first, *rest]))
    code = main(["eval", "--task", "retrieval", "--results", str(results),
                 "--gold", str(DATA / "gold.jsonl"), "--corpus", str(DATA / "corpus.jsonl"),
                 "--report", str(tmp_path / "e.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {results}: line 2: missing or mistyped field 'rank'\n"


def test_gold_answers_that_are_a_string_exit_2(tmp_path, capsys):
    gold = tmp_path / "gold.jsonl"
    gold.write_text(json.dumps({"query_id": "amb-2", "gold_answers": "Crisler Center"}) + "\n")
    code = main(["eval", "--task", "retrieval", "--results",
                 str(DATA / "golden_retrieve_count.jsonl"), "--gold", str(gold),
                 "--corpus", str(DATA / "corpus.jsonl"), "--report", str(tmp_path / "e.json")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {gold}: line 1: missing or mistyped field 'gold_answers'\n"
    )


def _build_db(corpus, checkpoint, tmp_path):
    return ["build-db", "--corpus", str(corpus), "--checkpoint", str(checkpoint),
            "--db", str(tmp_path / "o.qadb")]


def _edited_checkpoint(tmp_path, lineno, edit):
    """The args of a finished fixture build whose checkpoint row ``lineno`` then had ``edit``."""
    checkpoint = tmp_path / "run.ckpt"
    args = _build_db(DATA / "corpus.jsonl", checkpoint, tmp_path)
    assert main(args) == 0
    lines = checkpoint.read_text().splitlines(keepends=True)
    row = json.loads(lines[lineno - 1])
    edit(row)
    lines[lineno - 1] = json.dumps(row) + "\n"
    checkpoint.write_text("".join(lines))
    return args


def test_checkpoint_question_without_question_mark_exits_2(tmp_path, capsys):
    def edit(row):
        row["verified"][0]["question"] = row["verified"][0]["question"].rstrip("?")

    args = _edited_checkpoint(tmp_path, 1, edit)
    capsys.readouterr()
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'run.ckpt'}: line 1: candidate question must end")


@pytest.mark.parametrize("field", ["title", "text"])
def test_checkpoint_of_an_edited_passage_exits_2_naming_the_line(tmp_path, capsys, field):
    corpus = tmp_path / "corpus.jsonl"
    shutil.copyfile(DATA / "corpus.jsonl", corpus)
    args = _build_db(corpus, tmp_path / "run.ckpt", tmp_path)
    assert main(args) == 0
    passages = [json.loads(line) for line in corpus.read_text().splitlines()]
    passages[2][field] += " again"
    corpus.write_text("".join(json.dumps(passage) + "\n" for passage in passages))
    capsys.readouterr()
    assert main(args) == 2
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'run.ckpt'}: line 3: not a checkpoint row of this corpus\n"
    )


@pytest.mark.parametrize(
    "edit",
    [  # the fixture build verifies every answer it detects, so each edit breaks one rule only
        lambda row: row.update(rejections={"bogus_reason": 1}, detected=row["detected"] + 1),
        lambda row: row.update(rejections={"answer_mismatch": "2"}, detected=row["detected"] + 2),
        lambda row: row.update(rejections={"answer_mismatch": True}, detected=row["detected"] + 1),
        lambda row: row.update(rejections={"empty_question": 0}),
        lambda row: row.update(detected=-5),
        lambda row: row.update(rejections={"unparseable_output": 1}),
    ],
    ids=["unknown-reason", "string-count", "bool-count", "zero-count", "negative-detected",
         "more-outcomes-than-detected"],
)
def test_checkpoint_tallies_no_build_writes_exit_2_naming_the_line(tmp_path, capsys, edit):
    def checked(row):
        assert row["rejections"] == {} and row["detected"] == len(row["verified"]) > 0
        edit(row)

    args = _edited_checkpoint(tmp_path, 2, checked)
    capsys.readouterr()
    assert main(args) == 2
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'run.ckpt'}: line 2: tallies that no build could have written\n"
    )


def test_checkpoint_with_a_second_row_for_one_passage_exits_2_naming_the_line(tmp_path, capsys):
    checkpoint = tmp_path / "run.ckpt"
    args = _build_db(DATA / "corpus.jsonl", checkpoint, tmp_path)
    assert main(args) == 0
    lines = checkpoint.read_text().splitlines(keepends=True)
    checkpoint.write_text("".join([*lines, lines[0]]))
    capsys.readouterr()
    assert main(args) == 2
    passage_id = json.loads(lines[0])["passage_id"]
    assert capsys.readouterr().err == (
        f"error: {checkpoint}: line {len(lines) + 1}: a second row for passage {passage_id!r}\n"
    )


def test_rerun_over_a_finished_checkpoint_asks_the_backend_nothing(tmp_path, monkeypatch):
    requests = []

    class Counting(StubBackend):
        def generate_batch(self, batch):
            requests.extend(batch)
            return super().generate_batch(batch)

    monkeypatch.setattr(cli, "_make_backend", lambda config: Counting())
    args = _build_db(DATA / "corpus.jsonl", tmp_path / "run.ckpt", tmp_path)
    assert main(args) == 0
    assert requests
    written = {name: (tmp_path / name).read_bytes() for name in ("o.qadb", "o.qadb.report.json")}
    requests.clear()
    assert main(args) == 0
    assert requests == []
    assert {name: (tmp_path / name).read_bytes() for name in written} == written


def _nul_id_corpus(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps({"id": pid, "title": "t", "text": "alpha beta"}) + "\n"
                              for pid in ("p", "p\u0000")))
    args = _build_db(corpus, tmp_path / "run.ckpt", tmp_path)
    return args, f"{corpus}: line 2: passage id 'p\\x00' holds U+0000"


def _nul_id_database(tmp_path):
    db = _edited_fixture_db(tmp_path, lambda record: record["answers"][0]["passage_ids"].append(
        record["answers"][0]["passage_ids"][-1] + "\u0000"))
    args = ["retrieve", "--db", str(db), "--queries", str(DATA / "queries.jsonl"),
            "--out", str(tmp_path / "r.jsonl")]
    return args, f"{db}: line 2: a passage id holding U+0000"


def _nul_id_checkpoint(tmp_path):
    def edit(row):
        row["passage_id"] += "\u0000"  # the index would keep it as the corpus's id

    args = _edited_checkpoint(tmp_path, 1, edit)
    return args, f"{tmp_path / 'run.ckpt'}: line 1: not a checkpoint row of this corpus"


@pytest.mark.parametrize("make_input", [_nul_id_corpus, _nul_id_database, _nul_id_checkpoint])
def test_nul_in_a_passage_id_exits_2_naming_file_and_line(tmp_path, capsys, make_input):
    # numpy's str arrays strip a trailing U+0000, so two ids could become one
    args, message = make_input(tmp_path)
    capsys.readouterr()
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    ("key", "value"),
    [("top_n", -1), ("k_questions", 0), ("max_revision_rounds", 0), ("embedding_dim", 0)],
)
def test_config_value_below_one_exits_2(tmp_path, capsys, key, value):
    config = tmp_path / "run.cfg"
    config.write_text(f"seed = 3\n{key} = {value}\n")
    assert _run_reading("config", config, tmp_path) == 2
    assert capsys.readouterr().err == f"error: {config}: line 2: {key} must be >= 1\n"


@pytest.mark.parametrize(
    ("key", "value"), [("retrieval_method", "median"), ("retrieval_mode", "Dense")]
)
@pytest.mark.parametrize("command", ["retrieve", "build-db"])
def test_config_value_outside_its_choices_exits_2(tmp_path, capsys, command, key, value):
    # checked where the config is read, so a command that never uses the key refuses it too
    choices = {"retrieval_method": "max, count, direct", "retrieval_mode": "sparse, dense"}[key]
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {value}\n")
    if command == "retrieve":
        inputs = ["--db", _db(tmp_path), "--queries", str(DATA / "queries.jsonl"),
                  "--out", str(tmp_path / "r.jsonl")]
    else:
        inputs = ["--corpus", str(DATA / "corpus.jsonl"), "--db", str(tmp_path / "o.qadb")]
    capsys.readouterr()
    assert main([command, "--config", str(config), *inputs]) == 2
    assert capsys.readouterr().err == f"error: {config}: line 1: {key} must be one of {choices}\n"
    assert not (tmp_path / "r.jsonl").exists() and not (tmp_path / "o.qadb").exists()


# ------------------------------------------------------------- eval


def _longform_gold(tmp_path):
    gold = tmp_path / "gold.jsonl"
    rows = [
        {
            "query_id": "q1",
            "question": "where is the home stadium of the michigan wolverines?",
            "gold_answers": ["Michigan Stadium", "Crisler Center"],
            "disambiguations": [
                ["what is Michigan Stadium of Football?", "Michigan Stadium"],
                ["what is Crisler Center of Basketball?", "Crisler Center"],
            ],
            "gold_long_answers": [
                "the football team plays at michigan stadium while basketball uses crisler center"
            ],
        },
        {
            "query_id": "q2",
            "question": "who wrote the novel?",
            "gold_answers": ["Alpha Writer", "Beta Writer"],
            "disambiguations": [
                ["what is Alpha Writer of Novels?", "Alpha Writer"],
                ["what is Beta Writer of Novels?", "Beta Writer"],
            ],
            "gold_long_answers": ["alpha writer drafted it and beta writer finished it"],
        },
    ]
    gold.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return gold


def test_eval_longform_dr_is_geometric_mean(tmp_path):
    gold = _longform_gold(tmp_path)
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text(
        "".join(
            json.dumps(r) + "\n"
            for r in [
                {
                    "query_id": "q1",
                    "output": "the football team plays at michigan stadium while basketball uses crisler center",
                },
                {"query_id": "q2", "output": "alpha writer drafted it alone"},
            ]
        )
    )
    report_path = tmp_path / "report.json"
    code = main(
        [
            "eval",
            "--task", "longform",
            "--results", str(predictions),
            "--gold", str(gold),
            "--report", str(report_path),
        ]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    macro = report["macro"]
    assert macro["dr"] == pytest.approx(
        round(math.sqrt(macro["rouge_l"] * macro["disambig_f1"]), 1)
    )
    _, per_query = _read_jsonl(tmp_path / "report.json.per_query.jsonl")
    q1 = next(r for r in per_query if r["query_id"] == "q1")
    assert q1["rouge_l"] == 100.0
    assert q1["disambig_f1"] == 100.0
    assert q1["dr"] == 100.0


def test_eval_retrieval_recall_monotone(tmp_path):
    results = tmp_path / "results.jsonl"
    assert (
        main(
            [
                "retrieve",
                "--config", str(DATA / "config_count.txt"),
                "--db", _db(tmp_path),
                "--queries", str(DATA / "queries.jsonl"),
                "--out", str(results),
            ]
        )
        == 0
    )
    report_path = tmp_path / "report.json"
    code = main(
        [
            "eval",
            "--task", "retrieval",
            "--results", str(results),
            "--gold", str(DATA / "gold.jsonl"),
            "--corpus", str(DATA / "corpus.jsonl"),
            "--report", str(report_path),
        ]
    )
    assert code == 0
    _, per_query = _read_jsonl(tmp_path / "report.json.per_query.jsonl")
    assert per_query, "expected at least one evaluated query"
    for row in per_query:
        assert row["recall@1"] <= row["recall@5"] <= row["recall@10"]


def test_eval_retrieval_excludes_single_answer_queries(tmp_path, capsys):
    results = tmp_path / "results.jsonl"
    main(
        [
            "retrieve",
            "--config", str(DATA / "config_count.txt"),
            "--db", _db(tmp_path),
            "--queries", str(DATA / "queries.jsonl"),
            "--out", str(results),
        ]
    )
    report_path = tmp_path / "report.json"
    code = main(
        [
            "eval",
            "--task", "retrieval",
            "--results", str(results),
            "--gold", str(DATA / "gold.jsonl"),
            "--corpus", str(DATA / "corpus.jsonl"),
            "--report", str(report_path),
        ]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "amb-2" in err and "excluded" in err
    _, per_query = _read_jsonl(tmp_path / "report.json.per_query.jsonl")
    assert {r["query_id"] for r in per_query} == {"amb-1"}


def test_eval_zero_overlap_exits_2(tmp_path):
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text(json.dumps({"query_id": "other", "output": "text"}) + "\n")
    gold = _longform_gold(tmp_path)
    code = main(
        [
            "eval",
            "--task", "longform",
            "--results", str(predictions),
            "--gold", str(gold),
            "--report", str(tmp_path / "report.json"),
        ]
    )
    assert code == 2


# ------------------------------------------------------------- revise


def _revision_inputs(tmp_path):
    path = tmp_path / "revise_in.jsonl"
    rows = [
        {
            "question": "where is the home stadium of the michigan wolverines?",
            "answer": "Michigan Stadium",
            "passage_id": "venue-football#0",
        },
        {
            "question": "where is the home stadium of the michigan wolverines?",
            "answer": "Crisler Center",
            "passage_id": "venue-basketball#0",
        },
        {"question": "dangling?", "answer": "x", "passage_id": "missing#0"},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return path


def test_revise_records_and_warnings(tmp_path, capsys):
    out = tmp_path / "revisions.jsonl"
    code = main(
        [
            "revise",
            "--corpus", str(DATA / "corpus.jsonl"),
            "--questions", str(_revision_inputs(tmp_path)),
            "--out", str(out),
        ]
    )
    assert code == 0
    assert "missing#0" in capsys.readouterr().err
    _, records = _read_jsonl(out)
    assert len(records) == 2
    for record in records:
        assert len(record["rounds"]) <= 2
        if record["rounds"]:
            assert record["final"] != record["original_question"]
        else:
            assert record["final"] == record["original_question"]


def test_revise_rerun_is_byte_identical(tmp_path):
    inputs = _revision_inputs(tmp_path)
    outs = []
    for name in ("r1.jsonl", "r2.jsonl"):
        out = tmp_path / name
        assert (
            main(
                [
                    "revise",
                    "--corpus", str(DATA / "corpus.jsonl"),
                    "--questions", str(inputs),
                    "--out", str(out),
                ]
            )
            == 0
        )
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# ------------------------------------------------------------- coverage


def test_coverage_command(tmp_path, capsys):
    out = tmp_path / "coverage.json"
    code = main(
        [
            "coverage",
            "--db", str(DATA / "fixture.qadb"),
            "--gold", str(DATA / "gold.jsonl"),
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert 0.0 <= payload["coverage"] <= 1.0
    # all three venue answers are stored answers of the fixture database
    assert payload["coverage"] == 1.0


# ------------------------------------------------------------- plumbing


def _retrieve_into(tmp_path, outdir):
    queries = tmp_path / "queries.jsonl"
    queries.write_text("")
    return main(
        [
            "retrieve",
            "--db", _db(tmp_path),
            "--queries", str(queries),
            "--out", str(outdir / "r.jsonl"),
        ]
    )


@contextmanager
def _flock_held_by_child(directory):
    """A child process that holds ``directory``'s flock, as a running command does."""
    hold = (
        "import fcntl, os, sys, time\n"
        "fcntl.flock(os.open(sys.argv[1], os.O_RDONLY), fcntl.LOCK_EX)\n"
        "print('held', flush=True)\n"
        "time.sleep(60)\n"
    )
    with subprocess.Popen(
        [sys.executable, "-c", hold, str(directory)], stdout=subprocess.PIPE, text=True
    ) as child:
        try:
            assert child.stdout.readline() == "held\n"
            yield child
        finally:
            child.kill()
            child.wait(timeout=10)


def test_output_lock_blocks_second_run(tmp_path, capsys):
    outdir = tmp_path / "outputs"
    outdir.mkdir()
    with _flock_held_by_child(outdir):
        assert _retrieve_into(tmp_path, outdir) == 1
    assert "locked" in capsys.readouterr().err
    assert list(outdir.iterdir()) == []


def test_output_lock_of_killed_run_does_not_block(tmp_path):
    outdir = tmp_path / "outputs"
    outdir.mkdir()
    with _flock_held_by_child(outdir) as child:
        child.kill()
        assert child.wait(timeout=10) == -signal.SIGKILL
        assert _retrieve_into(tmp_path, outdir) == 0
    assert [p.name for p in outdir.iterdir()] == ["r.jsonl"]  # and no lock file


def test_pid_lock_file_of_earlier_versions_does_not_block(tmp_path):
    outdir = tmp_path / "outputs"
    outdir.mkdir()
    (outdir / ".qadb.lock").write_text("")  # as a run killed between create and write left it
    assert _retrieve_into(tmp_path, outdir) == 0
    assert (outdir / "r.jsonl").exists()


class _StubServer(http.server.BaseHTTPRequestHandler):
    """The stub backend behind the remote protocol, counting connections and POSTs."""

    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        # headers and body go out in two sends: without this, each reply
        # waits out the client's delayed ACK
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.server.connections += 1

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.posts.append(payload["inputs"])
        mode = (payload["max_candidates"], payload["decode_mode"])
        outputs = [
            list(StubBackend().generate(GenerationRequest(prompt, *mode)).candidates)
            for prompt in payload["inputs"]
        ]
        body = json.dumps({"outputs": outputs}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_remote_backend_run_equals_in_process_stub_run(tmp_path, monkeypatch):
    corpus_path = str(DATA / "corpus.jsonl")
    questions = str(_revision_inputs(tmp_path))

    def build(out):
        args = ["--corpus", corpus_path, "--db", str(out / "db.qadb"),
                "--checkpoint", str(out / "run.ckpt")]
        assert main(["build-db", *args]) == 0
        report = json.loads((out / "db.qadb.report.json").read_text())
        del report["fingerprint"]
        return report

    def revise(out):
        args = ["--corpus", corpus_path, "--questions", questions, "--out", str(out / "rev.jsonl")]
        assert main(["revise", *args]) == 0
        return _read_jsonl(out / "rev.jsonl")[1]

    local, remote = tmp_path / "local", tmp_path / "remote"
    local_report, local_revised = build(local), revise(local)
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _StubServer)
    server.connections, server.posts = 0, []
    threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
    monkeypatch.setenv(ENDPOINT_ENV_VAR, f"http://127.0.0.1:{server.server_port}/generate")
    try:
        remote_report = build(remote)
        build_connections, build_posts = server.connections, server.posts
        server.connections, server.posts = 0, []
        remote_revised = revise(remote)
    finally:
        server.shutdown()
        server.server_close()

    assert (remote / "db.qadb").read_bytes() == (local / "db.qadb").read_bytes()
    assert remote_report == local_report
    assert remote_revised == local_revised
    # one connection per command; one POST per non-empty stage of each passage
    assert build_connections == 1 and server.connections == 1
    rows = [row for _, row in jsonl.read(remote / "run.ckpt")]
    texts = {p.id: p.text for p in load_corpus(corpus_path)}
    stages = [1 + (row["detected"] > 0) + (row["detected"] > sum(row["rejections"].values()))
              for row in rows]
    assert [sum(batch[0].endswith(texts[row["passage_id"]]) for batch in build_posts)
            for row in rows] == stages
    assert len(build_posts) == sum(stages)
    # revise stays one request per revision round of a row
    assert server.posts and all(len(batch) == 1 for batch in server.posts)


def test_config_file_endpoint_selects_the_remote_backend(tmp_path):
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _StubServer)
    server.connections, server.posts = 0, []
    threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
    config = tmp_path / "remote.txt"
    config.write_text(f"backend_endpoint = http://127.0.0.1:{server.server_port}/generate\n")
    try:
        code = main(["build-db", "--config", str(config), "--corpus", str(DATA / "corpus.jsonl"),
                     "--db", str(tmp_path / "db.qadb")])
    finally:
        server.shutdown()
        server.server_close()
    assert code == 0
    assert server.connections == 1 and server.posts


@pytest.mark.parametrize("endpoint", ["ftp://model-host/generate", "http://user:pw@model-host/"])
def test_non_http_endpoint_exits_2(tmp_path, monkeypatch, capsys, endpoint):
    monkeypatch.setenv(ENDPOINT_ENV_VAR, endpoint)
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus(make_toy_corpus(2), str(corpus_path))
    code = main(["build-db", "--corpus", str(corpus_path), "--db", str(tmp_path / "o.qadb")])
    assert code == 2
    assert endpoint in capsys.readouterr().err


def test_env_var_overrides_endpoint(monkeypatch):
    monkeypatch.setenv(ENDPOINT_ENV_VAR, "http://model-host:8000/")
    config = RunConfig()
    assert config.backend_endpoint == "http://model-host:8000/"


def test_fingerprint_stable_and_param_sensitive():
    assert RunConfig().fingerprint() == RunConfig().fingerprint()
    assert RunConfig().fingerprint() != RunConfig(top_n=7).fingerprint()


def test_config_file_rejects_unknown_keys(tmp_path):
    config = tmp_path / "bad.txt"
    config.write_text("no_such_key = 1\n")
    queries = tmp_path / "queries.jsonl"
    queries.write_text("")
    code = main(
        [
            "retrieve",
            "--config", str(config),
            "--db", _db(tmp_path),
            "--queries", str(queries),
            "--out", str(tmp_path / "r.jsonl"),
        ]
    )
    assert code == 2
