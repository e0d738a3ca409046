import json
import random

import pytest

from fixtures import FlakyBackend, PerPromptBackend, ScriptedBackend, make_toy_corpus

from qadb.backend import GenerationResponse, StubBackend
from qadb.construction import (
    REJECT_ANSWER_MISMATCH,
    REJECT_UNPARSEABLE,
    CandidateQA,
    Rejection,
    _process_passage,
    build_database,
    detect_answers,
    generate_question,
    verify,
)
from qadb.corpus import Corpus, Passage
from qadb.errors import BackendUnavailable, ParseError

STUB = StubBackend()


def _passage(text, pid="p1#0", title="Title"):
    return Passage(pid, title, text)


# ------------------------------------------------------------- stage 1


def test_detect_includes_capitalized_entity():
    passage = _passage("Fans gather at Michigan Stadium every fall.")
    spans = detect_answers(passage, STUB)
    assert "Michigan Stadium" in spans


def test_detect_merges_article_and_punctuation_variants():
    passage = _passage("Everyone calls it the Big House! Since 1927.")
    backend = ScriptedBackend([["the Big House", "Big House!"]])
    detected = detect_answers(passage, backend)
    assert len(detected) == 1
    assert detected[0] == "the Big House"  # highest-ranked surface kept


def test_detect_drops_non_substring_candidates():
    passage = _passage("Fans gather at Michigan Stadium every fall.")
    backend = ScriptedBackend([["Toronto", "Michigan Stadium"]])
    detected = detect_answers(passage, backend)
    assert detected == ["Michigan Stadium"]


def test_detect_uses_one_beam_call_and_rank_order():
    passage = _passage("Ann Arbor hosts Michigan Stadium crowds.")
    backend = ScriptedBackend([["Michigan Stadium", "Ann Arbor"]])
    detected = detect_answers(passage, backend)
    request = backend.requests[0]
    assert request.decode_mode == "beam"
    assert request.max_candidates == 32
    assert detected == ["Michigan Stadium", "Ann Arbor"]


# ------------------------------------------------------------- stage 2


def test_generate_question_via_stub():
    passage = _passage("Crisler Center hosts basketball.", title="Arenas")
    answer = "Crisler Center"
    [qa] = generate_question(passage, [answer], STUB)
    assert isinstance(qa, CandidateQA)
    assert qa.question == "what is Crisler Center of Arenas?"


def test_generate_question_accepts_normalized_echo():
    passage = _passage("Michigan Stadium is vast.")
    answer = "Michigan Stadium"
    backend = ScriptedBackend(
        [["answer: the MICHIGAN stadium question: where is the big one?"]]
    )
    [qa] = generate_question(passage, [answer], backend)
    assert isinstance(qa, CandidateQA)
    assert qa.question == "where is the big one?"


def test_generate_question_rejects_answer_mismatch():
    passage = _passage("Michigan Stadium is vast.")
    answer = "Michigan Stadium"
    backend = ScriptedBackend([["answer: Crisler Center question: where is it?"]])
    [outcome] = generate_question(passage, [answer], backend)
    assert isinstance(outcome, Rejection)
    assert outcome.reason == "answer_mismatch"


def test_generate_question_rejects_unparseable_output():
    passage = _passage("Michigan Stadium is vast.")
    answer = "Michigan Stadium"
    backend = ScriptedBackend([["no labels at all"]])
    [outcome] = generate_question(passage, [answer], backend)
    assert isinstance(outcome, Rejection)
    assert outcome.reason == "unparseable_output"


# ------------------------------------------------------------- stage 3


def test_verify_not_answerable_fails():
    passage = _passage("Michigan Stadium is vast.")
    qa = CandidateQA(passage.id, "Michigan Stadium", "where is it?")
    assert verify(passage, [qa], ScriptedBackend([["not answerable"]])) == [False]


def test_verify_accepts_normalized_match():
    passage = _passage("Michigan Stadium is vast.")
    qa = CandidateQA(passage.id, "Michigan Stadium", "where is it?")
    assert verify(passage, [qa], ScriptedBackend([["The Michigan Stadium"]])) == [True]


def test_verify_rejects_different_answer():
    passage = _passage("Michigan Stadium is vast.")
    qa = CandidateQA(passage.id, "Michigan Stadium", "where is it?")
    assert verify(passage, [qa], ScriptedBackend([["Crisler Center"]])) == [False]


# ------------------------------------------------------------- pipeline


def test_build_database_funnel_is_monotone():
    db, report = build_database(make_toy_corpus(20), STUB)
    assert report.verified <= report.generated <= report.detected
    assert report.unique_questions == len(db)
    assert len(db) > 0


def test_every_stored_answer_is_substring_of_provenance():
    corpus = make_toy_corpus(20)
    db, _ = build_database(corpus, STUB)
    for question in db:
        for entry in question.answers:
            assert any(entry.text in corpus[pid].text for pid in entry.passage_ids)


def test_pipeline_with_unverifiable_answers_yields_empty_db():
    class NeverAnswerable(PerPromptBackend):
        def generate(self, request):
            if request.prompt.startswith("question: "):
                return ScriptedBackend([["not answerable"]]).generate(request)
            return STUB.generate(request)

    db, report = build_database(make_toy_corpus(5), NeverAnswerable())
    assert len(db) == 0
    assert report.verified == 0
    assert report.generated > 0


def test_pipeline_deterministic_database_files(tmp_path):
    corpus = make_toy_corpus(10)
    paths = []
    for name in ("one.qadb", "two.qadb"):
        db, _ = build_database(corpus, StubBackend())
        path = tmp_path / name
        db.save(path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_pipeline_invariant_to_passage_order():
    passages = list(make_toy_corpus(10))
    rng = random.Random(2)
    shuffled = passages[:]
    rng.shuffle(shuffled)
    db_a, _ = build_database(Corpus(passages), STUB)
    db_b, _ = build_database(Corpus(shuffled), STUB)
    assert db_a == db_b


class Rejecting(PerPromptBackend):
    """The stub, except that question generation fails its acceptance rules
    for some answers; which ones depends only on the prompt."""

    def generate(self, request):
        if request.prompt.startswith("answer: "):
            if len(request.prompt) % 3 == 0:
                return GenerationResponse(("answer: someone else question: who?",))
            if len(request.prompt) % 3 == 1:
                return GenerationResponse(("no answer echoed",))
        return STUB.generate(request)


class Recording:
    """Passes batches on to ``inner``, keeping each batch's prompts."""

    def __init__(self, inner):
        self.inner = inner
        self.batches = []

    @property
    def prompts(self):
        return [prompt for batch in self.batches for prompt in batch]

    def generate_batch(self, requests):
        self.batches.append([request.prompt for request in requests])
        return self.inner.generate_batch(requests)


def test_one_backend_call_per_non_empty_stage():
    class Staged(PerPromptBackend):
        """The stub, except that it detects nothing in "Empty" passages and
        question generation fails for every answer of "Rejected" ones."""

        def generate(self, request):
            if request.prompt.startswith("context: Empty"):
                return GenerationResponse(("Nowhere",))
            if request.prompt.startswith("answer: ") and " context: Rejected" in request.prompt:
                return GenerationResponse(("no answer echoed",))
            return STUB.generate(request)

    corpus = Corpus(
        [
            _passage("Empty Marsh lies still.", pid="empty#0"),
            _passage("Rejected Ridge rises over Pine Valley.", pid="rejected#0"),
            _passage("Open Field borders Pine Valley.", pid="open#0"),
        ]
    )
    backend = Recording(Staged())
    db, report = build_database(corpus, backend)
    calls = {p.id: [len(b) for b in backend.batches if b[0].endswith(p.text)] for p in corpus}
    rejected, kept = (len(detect_answers(corpus[pid], STUB)) for pid in ("rejected#0", "open#0"))
    assert calls == {"empty#0": [1], "rejected#0": [1, rejected], "open#0": [1, kept, kept]}
    assert report.detected > report.generated == report.verified > 0
    assert {entry.passage_ids for q in db for entry in q.answers} == {("open#0",)}


@pytest.mark.parametrize("cut", range(6))
def test_checkpoint_resume_after_backend_failure(tmp_path, cut):
    corpus = make_toy_corpus(6)
    marker = list(corpus)[cut].text.split()[0]  # fail on the passage at the cut
    checkpoint = tmp_path / "run.ckpt"

    flaky = FlakyBackend(Rejecting(), marker, fail_times=1)
    with pytest.raises(BackendUnavailable):
        build_database(corpus, flaky, checkpoint=str(checkpoint))
    assert checkpoint.exists()

    # resume: completed passages are not re-processed
    resumed = Recording(Rejecting())
    db, report = build_database(corpus, resumed, checkpoint=str(checkpoint))
    finished_texts = [p.text for p in list(corpus)[:cut]]
    for prompt in resumed.prompts:
        assert not any(prompt.endswith(text) for text in finished_texts)

    # the resumed run equals a clean run, rejection tallies included
    clean_db, clean_report = build_database(corpus, Rejecting())
    assert set(clean_report.rejections) == {REJECT_ANSWER_MISMATCH, REJECT_UNPARSEABLE}
    if cut:  # the tallies of the passages before the cut come from the checkpoint alone
        _, finished_report = build_database(Corpus(list(corpus)[:cut]), Rejecting())
        both = {REJECT_ANSWER_MISMATCH, REJECT_UNPARSEABLE}
        assert set(finished_report.rejections) == (both if cut >= 2 else {REJECT_ANSWER_MISMATCH})
    assert db == clean_db
    assert report.to_dict() == clean_report.to_dict()


def test_checkpoint_resume_drops_torn_last_row(tmp_path):
    corpus = make_toy_corpus(6)
    checkpoint = tmp_path / "run.ckpt"
    clean_db, clean_report = build_database(corpus, Rejecting(), checkpoint=str(checkpoint))
    # a crash in the middle of appending the last passage's row
    text = checkpoint.read_text(encoding="utf-8")
    last = text[: -1].rfind("\n") + 1
    checkpoint.write_text(text[: last + (len(text) - last) // 2], encoding="utf-8")

    resumed = Recording(Rejecting())
    db, report = build_database(corpus, resumed, checkpoint=str(checkpoint))
    assert resumed.prompts and all(list(corpus)[-1].text in p for p in resumed.prompts)
    assert db == clean_db
    assert report.to_dict() == clean_report.to_dict()
    lines = checkpoint.read_text(encoding="utf-8").split("\n")
    assert lines.pop() == ""
    assert [json.loads(line)["passage_id"] for line in lines] == corpus.ids


@pytest.mark.parametrize(
    "rows",
    [
        # a candidate record, as the former two-file checkpoint stored them
        pytest.param([{"passage_id": "doc-00#0", "answer": "a", "question": "q?", "verified": True}],
                     id="row0"),
        # a complete row, but of a passage this corpus does not have
        pytest.param([{"passage_id": "other#0", "digest": "0123456789abcdef", "detected": 1,
                       "rejections": {"answer_mismatch": 1}, "verified": []}], id="row1"),
        # a row as checkpoints stored them before rows held a digest and only verified pairs
        pytest.param([{"passage_id": "doc-00#0", "detected": 1, "generated": 1, "verified": 1,
                       "rejections": {}, "records": [{"passage_id": "doc-00#0", "answer": "a",
                                                      "question": "q?", "verified": True}]}],
                     id="row2"),
        # one passage's row twice, as two builds appending to one checkpoint could leave it
        pytest.param([_process_passage(next(iter(make_toy_corpus(2))), STUB)] * 2,
                     id="duplicate-row"),
    ],
)
def test_checkpoint_of_another_layout_or_corpus_is_rejected(tmp_path, rows):
    checkpoint = tmp_path / "run.ckpt"
    checkpoint.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    with pytest.raises(ParseError) as refused:
        build_database(make_toy_corpus(2), STUB, checkpoint=str(checkpoint))
    assert str(refused.value).startswith(f"{checkpoint}: line {len(rows)}: ")


def test_candidate_question_must_end_with_question_mark():
    with pytest.raises(ValueError):
        CandidateQA("p1", "a", "not a question")
