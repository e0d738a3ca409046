import pytest
from hypothesis import given, strategies as st

from fixtures import PerPromptBackend, ScriptedBackend

from qadb.backend import StubBackend
from qadb.corpus import Passage
from qadb.revision import assemble_longform_input, revise_iterative, revise_once

STUB = StubBackend()


def _passage(text, pid="p1#0"):
    return Passage(pid, "Title", text)


# ------------------------------------------------------------- revise_once


def test_stub_revision_adds_novel_context_token():
    passage = _passage("michigan wolverines football fans gather in autumn")
    revised = revise_once(
        "where is the home stadium of michigan wolverines?", "Michigan Stadium", passage, STUB
    )
    assert "football" in revised
    assert revised.endswith("?")


def test_echo_backend_leaves_question_unchanged():
    question = "where is the home stadium?"
    backend = ScriptedBackend([[f"answer: Michigan Stadium revised: {question}"]])
    assert revise_once(question, "Michigan Stadium", _passage("any text"), backend) == question


def test_unparseable_output_falls_back_to_original():
    backend = ScriptedBackend([["no labels whatsoever"]])
    question = "where is it?"
    assert revise_once(question, "a", _passage("text"), backend) == question


def test_wrong_echoed_answer_falls_back_to_original():
    backend = ScriptedBackend([["answer: Crisler Center revised: where else?"]])
    question = "where is it?"
    assert revise_once(question, "Michigan Stadium", _passage("text"), backend) == question


def test_revise_once_rejects_empty_inputs():
    with pytest.raises(ValueError):
        revise_once("", "a", _passage("text"), STUB)


# ------------------------------------------------------------- iterative


def test_two_rounds_accumulate_detail():
    # the stub moves one novel passage token per round, mirroring the
    # round-1-then-round-2 enrichment trajectory
    passage = _passage("michigan wolverines men's football team built in 1927")
    record = revise_iterative(
        "where is the home stadium of michigan wolverines?", "Michigan Stadium", passage, STUB
    )
    assert len(record.rounds) == 2
    assert "men's" in record.rounds[0]
    assert "football" not in record.rounds[0].replace("men's", "")
    assert "men's" in record.rounds[1] and "football" in record.rounds[1]
    assert record.final == record.rounds[-1]
    assert record.final == (
        "where is the home stadium of michigan wolverines men's football?"
    )


def test_fixpoint_stops_early():
    # passage adds exactly one novel token, then revision reaches a fixpoint
    passage = _passage("the home stadium of michigan wolverines football")
    record = revise_iterative(
        "where is the home stadium of michigan wolverines?",
        "Michigan Stadium",
        passage,
        STUB,
        max_rounds=5,
    )
    assert record.rounds == ("where is the home stadium of michigan wolverines football?",)


def test_max_rounds_one_bounds_revision():
    passage = _passage("michigan wolverines men's football team built in 1927")
    record = revise_iterative(
        "where is the home stadium of michigan wolverines?",
        "Michigan Stadium",
        passage,
        STUB,
        max_rounds=1,
    )
    assert len(record.rounds) == 1


def test_identity_backend_keeps_original_for_any_input():
    class Identity(PerPromptBackend):
        def generate(self, request):
            import re

            question = re.match(r"^question: (.*?) answer: ", request.prompt, re.DOTALL).group(1)
            answer = re.search(r" answer: (.*?) passage: ", request.prompt, re.DOTALL).group(1)
            from qadb.backend import GenerationResponse

            return GenerationResponse((f"answer: {answer} revised: {question}",))

    record = revise_iterative("any question at all?", "ans", _passage("text here"), Identity())
    assert record.rounds == ()
    assert record.final == "any question at all?"


def test_default_round_budget_is_two():
    # a passage with many novel tokens still stops after two rounds
    passage = _passage("alpha beta gamma delta epsilon zeta")
    record = revise_iterative("original question?", "ans", passage, STUB)
    assert len(record.rounds) <= 2


# ------------------------------------------------------------- assembly


def test_assemble_baseline_without_conditions():
    passage = _passage("passage text here")
    assembled = assemble_longform_input("why?", [], [passage])
    assert assembled == "question: why? conditions: passages: passage text here"


def test_assemble_conditions_in_rank_order_without_passages():
    assembled = assemble_longform_input(
        "why?", [("a1", "q1 revised?"), ("a2", "q2 revised?")], []
    )
    assert assembled == "question: why? conditions: a1, q1 revised?; a2, q2 revised? passages:"


def test_assembled_conditions_shorter_than_full_passages():
    passages = [
        _passage(" ".join(f"tok{i}_{j}" for j in range(100)), pid=f"p{i}#0") for i in range(5)
    ]
    conditions = [(f"answer {i}", f"short revised question number {i}?") for i in range(10)]
    with_questions = assemble_longform_input("q?", conditions, passages)
    conditions_as_passages = assemble_longform_input(
        "q?", [], passages + [_passage(" ".join(f"c{i}_{j}" for j in range(100)), pid=f"c{i}#0") for i in range(10)]
    )
    assert len(with_questions.split()) < len(conditions_as_passages.split())


def test_assemble_normalizes_whitespace():
    passage = _passage("spaced   out    text")
    assembled = assemble_longform_input("q ?", [("a", "r ?")], [passage])
    assert "  " not in assembled


_WORDS = st.text(alphabet="abcdefgh", min_size=1, max_size=6)


@given(
    question=_WORDS,
    conditions=st.lists(st.tuples(_WORDS, _WORDS), max_size=3),
    other_conditions=st.lists(st.tuples(_WORDS, _WORDS), max_size=3),
)
def test_assembly_injective_over_word_inputs(question, conditions, other_conditions):
    passage = Passage("p#0", "T", "fixed text")
    left = assemble_longform_input(question, conditions, [passage])
    right = assemble_longform_input(question, other_conditions, [passage])
    if conditions != other_conditions:
        assert left != right
    else:
        assert left == right
