import random
import re

import pytest

from fixtures import build_db, random_database, rec

from qadb.database import (
    FORMAT_VERSION,
    AnswerEntry,
    MergedQuestion,
    QADatabase,
    merge_questions,
    question_merge_key,
)
from qadb.errors import ContractViolation, CorruptDatabase, FormatVersionError
from qadb.metrics import EvalExample


def test_merge_key_strips_punct_and_case():
    assert question_merge_key("Where IS it?") == question_merge_key("where is it")
    assert question_merge_key("a  b\tc?") == "a b c"


def test_merge_key_preserves_token_order():
    assert question_merge_key("alpha beta?") != question_merge_key("beta alpha?")


def test_merge_collapses_article_variants_of_one_answer():
    db = build_db(
        [
            ("p1", "Michigan Stadium", "where is it?"),
            ("p2", "The Michigan Stadium", "where is it?"),
        ]
    )
    assert len(db) == 1
    question = db.questions[0]
    assert len(question.answers) == 1
    assert question.mention_count == 2
    assert question.answers[0].passage_ids == ("p1", "p2")
    assert db.stats.multi_mention_questions == 1
    assert db.stats.multi_answer_questions == 0


def test_merge_keeps_distinct_answers():
    db = build_db(
        [
            ("p1", "Michigan Stadium", "where is it?"),
            ("p2", "Crisler Center", "where is it?"),
        ]
    )
    assert len(db) == 1
    assert len(db.questions[0].answers) == 2
    assert db.stats.multi_answer_questions == 1


def test_merge_disjoint_questions():
    db = build_db([("p1", "a", "q one?"), ("p2", "b", "q two?"), ("p3", "c", "q three?")])
    assert len(db) == 3


def test_merge_rejects_unverified_records():
    with pytest.raises(ContractViolation):
        merge_questions([rec("p1", "a", "q?", verified=False)])


def test_merge_surface_form_is_lexicographically_smallest():
    db = build_db([("p1", "a", "Where is IT?"), ("p2", "a", "WHERE is it?")])
    assert db.questions[0].question == "WHERE is it?"


def test_merge_is_order_free():
    rows = [("p1", "a", "q one?"), ("p2", "b", "q one?"), ("p3", "c", "q two?")]
    assert build_db(rows) == build_db(list(reversed(rows)))


def test_stats_ordering_invariant():
    rng = random.Random(9)
    for _ in range(30):
        db = random_database(rng, max_passages=15, max_questions=40)
        stats = db.stats
        assert stats.multi_answer_questions <= stats.multi_mention_questions
        assert stats.multi_mention_questions <= stats.unique_questions


def test_merge_idempotent_over_flatten():
    rng = random.Random(13)
    for _ in range(20):
        db = random_database(rng, max_passages=10, max_questions=25)
        assert merge_questions(db.flatten()) == db


def test_save_load_round_trip(tmp_path):
    db = build_db(
        [
            ("p1", "Michigan Stadium", "where is it?"),
            ("p2", "The Michigan Stadium", "where is it?"),
            ("p3", "Crisler Center", "which arena?"),
            ("p3", "Yost", "which rink?"),
        ]
    )
    path = tmp_path / "db.jsonl"
    db.save(path)
    loaded = QADatabase.load(path)
    assert loaded == db
    assert loaded.stats == db.stats


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(CorruptDatabase):
        QADatabase.load(path)


def test_load_future_version(tmp_path):
    path = tmp_path / "future.jsonl"
    path.write_text(
        '{"format": "qadb", "version": %d, "question_count": 0, "stats": {}}\n'
        % (FORMAT_VERSION + 1)
    )
    with pytest.raises(FormatVersionError):
        QADatabase.load(path)


def test_load_truncated_file(tmp_path):
    db = build_db([("p1", "a", "q one?"), ("p2", "b", "q two?")])
    path = tmp_path / "db.jsonl"
    db.save(path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(CorruptDatabase):
        QADatabase.load(path)


def test_load_garbage_header(tmp_path):
    path = tmp_path / "garbage.jsonl"
    path.write_text("garbage\n")
    with pytest.raises(CorruptDatabase):
        QADatabase.load(path)


def _saved_stadium_and_arena(path, qids, arena_passages=("b",)):
    """Two questions under ``qids``, saved with a count and stats that agree with them."""
    stadium = (AnswerEntry("Michigan Stadium", ("a",), 1),)
    arena = (AnswerEntry("Crisler Center", arena_passages, 1),)
    QADatabase([MergedQuestion(qids[0], "where is the stadium?", stadium),
                MergedQuestion(qids[1], "where is the arena?", arena)]).save(path)
    return path


def test_load_rejects_a_repeated_qid(tmp_path):
    path = _saved_stadium_and_arena(tmp_path / "repeated.jsonl", (0, 0))
    message = f"{path}: line 3: qid 0 after 0; qids must ascend"
    with pytest.raises(CorruptDatabase, match=re.escape(message)):
        QADatabase.load(path)


def test_load_rejects_descending_qids(tmp_path):
    path = _saved_stadium_and_arena(tmp_path / "descending.jsonl", (5, 2))
    message = f"{path}: line 3: qid 2 after 5; qids must ascend"
    with pytest.raises(CorruptDatabase, match=re.escape(message)):
        QADatabase.load(path)


def test_load_rejects_an_answer_without_passage_ids(tmp_path):
    path = _saved_stadium_and_arena(tmp_path / "unbacked.jsonl", (0, 1), arena_passages=())
    message = f"{path}: line 3: an answer without passage_ids"
    with pytest.raises(CorruptDatabase, match=re.escape(message)):
        QADatabase.load(path)


def test_load_rejects_a_question_without_answers(tmp_path):
    # flatten() would drop it, so re-merging could not reproduce the database
    path = tmp_path / "answerless.jsonl"
    QADatabase([MergedQuestion(0, "where?", ())]).save(path)
    with pytest.raises(CorruptDatabase, match=re.escape(f"{path}: line 2: a question without answers")):
        QADatabase.load(path)


def _gold(*answer_sets):
    return [
        EvalExample(query_id=f"q{i}", question="?", gold_answers=tuple(answers))
        for i, answers in enumerate(answer_sets)
    ]


def test_coverage_normalized_exact_match():
    db = build_db([("p1", "the michigan stadium", "where?")])
    assert db.answer_coverage(_gold(["Michigan Stadium"])) == 1.0


def test_coverage_counts_each_answer_once():
    db = build_db([("p1", "alpha", "qa?")])
    assert db.answer_coverage(_gold(["alpha", "beta"])) == 0.5


def test_coverage_is_whole_string_not_substring():
    db = build_db([("p1", "greater michigan stadium area", "where?")])
    assert db.answer_coverage(_gold(["Michigan Stadium"])) == 0.0


def test_coverage_empty_gold_rejected():
    db = build_db([("p1", "a", "q?")])
    with pytest.raises(ContractViolation):
        db.answer_coverage([])
