"""Iterative question revision and long-form generation input assembly.

Revision moves answer-specific details from a passage into the question
("Where is the home stadium of X?" -> "... of X men's football team?"),
one backend round at a time, stopping at a fixpoint or after the
configured round budget (2 by default; more rounds tend to repeat).
"""

from __future__ import annotations

import logging
import re
from collections.abc import Sequence
from dataclasses import dataclass

from .backend import Backend, GenerationRequest, revision_prompt
from .corpus import Passage
from .metrics import normalize_answer

logger = logging.getLogger(__name__)

DEFAULT_MAX_ROUNDS = 2

_REVISION_OUTPUT = re.compile(r"^answer:\s*(.*?)\s*revised:\s*(.*)$", re.DOTALL)


@dataclass(frozen=True)
class RevisionRecord:
    """The trajectory of one revision: every distinct round output, best last."""

    original_question: str
    answer: str
    passage_id: str
    rounds: tuple[str, ...]
    final: str

    def to_record(self) -> dict:
        return {
            "original_question": self.original_question,
            "answer": self.answer,
            "passage_id": self.passage_id,
            "rounds": list(self.rounds),
            "final": self.final,
        }


def revise_once(question: str, answer: str, passage: Passage, backend: Backend) -> str:
    """One revision round; falls back to the input question on any bad output."""
    if not question or not answer:
        raise ValueError("revise_once requires a non-empty question and answer")
    [response] = backend.generate_batch(
        [GenerationRequest(prompt=revision_prompt(question, answer, passage.text))]
    )
    match = _REVISION_OUTPUT.match(response.candidates[0])
    if not match:
        logger.debug("revision output unparseable for %r; keeping question", question)
        return question
    echoed, revised = match.group(1).strip(), match.group(2).strip()
    if normalize_answer(echoed) != normalize_answer(answer):
        logger.debug("revision echoed wrong answer %r != %r; keeping question", echoed, answer)
        return question
    if not revised:
        return question
    return revised


def revise_iterative(
    question: str,
    answer: str,
    passage: Passage,
    backend: Backend,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> RevisionRecord:
    """Apply revise_once up to ``max_rounds`` times, stopping at a fixpoint."""
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    rounds: list[str] = []
    current = question
    for _ in range(max_rounds):
        revised = revise_once(current, answer, passage, backend)
        if revised == current:
            break
        rounds.append(revised)
        current = revised
    return RevisionRecord(
        original_question=question,
        answer=answer,
        passage_id=passage.id,
        rounds=tuple(rounds),
        final=rounds[-1] if rounds else question,
    )


def assemble_longform_input(
    question: str,
    conditioned: Sequence[tuple[str, str]],
    passages: Sequence[Passage],
) -> str:
    """Concatenate the long-form generation input.

    ``question: <q> conditions: <a1>, <q'1>; <a2>, <q'2>; ... passages:
    <p1 text> <p2 text> ...`` with pair order preserved from retrieval
    rank and whitespace normalized. Labels are always present, so the
    degenerate passages-only baseline reads ``... conditions: passages: ...``.
    """
    condition_text = "; ".join(f"{answer}, {revised}" for answer, revised in conditioned)
    passage_text = " ".join(p.text for p in passages)
    assembled = (
        f"question: {question} conditions: {condition_text} passages: {passage_text}"
    )
    return " ".join(assembled.split())
