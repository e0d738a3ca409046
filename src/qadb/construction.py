"""Three-stage QA-pair construction: detect answers, generate, verify.

Stage 1 proposes answer spans with beam search and keeps only spans that
literally occur in the passage, merging spans that are identical after
normalization. Stage 2 generates one question per surviving answer with
greedy decoding and requires the model to repeat its target answer.
Stage 3 re-reads the passage with the generated question and drops pairs
whose predicted answer is "not answerable" or differs from the target.
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

from . import jsonl
from .backend import (
    BEAM,
    NOT_ANSWERABLE,
    Backend,
    GenerationRequest,
    detection_prompt,
    question_generation_prompt,
    reading_qa_prompt,
)
from .corpus import Corpus, Passage
from .database import CandidateQA, QADatabase, merge_questions
from .errors import ParseError
from .metrics import normalize_answer

logger = logging.getLogger(__name__)

DEFAULT_BEAM = 32

REJECT_UNPARSEABLE = "unparseable_output"
REJECT_ANSWER_MISMATCH = "answer_mismatch"
REJECT_EMPTY_QUESTION = "empty_question"

_QG_OUTPUT = re.compile(r"^answer:\s*(.*?)\s*question:\s*(.*)$", re.DOTALL)


@dataclass(frozen=True)
class Rejection:
    """A question-generation output that failed the acceptance rules."""

    passage_id: str
    answer: str
    reason: str


@dataclass
class FunnelReport:
    """Stage counts of one construction run (the detect/generate/verify funnel)."""

    passages: int = 0
    detected: int = 0
    generated: int = 0
    verified: int = 0
    unique_questions: int = 0
    rejections: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "passages": self.passages,
            "detected": self.detected,
            "generated": self.generated,
            "verified": self.verified,
            "unique_questions": self.unique_questions,
            "rejections": dict(sorted(self.rejections.items())),
        }


def detect_answers(passage: Passage, backend: Backend) -> list[str]:
    """Stage 1: propose answer spans from a passage.

    One backend call for ``DEFAULT_BEAM`` beam-decoded candidates.
    Candidates that are not literal substrings of the passage are dropped;
    candidates identical after normalization are merged, keeping the
    highest-ranked surface form. Output preserves backend rank order.
    """
    [response] = backend.generate_batch(
        [GenerationRequest(detection_prompt(passage.text), max_candidates=DEFAULT_BEAM,
                           decode_mode=BEAM)]
    )
    detected = []
    seen: set[str] = set()
    for span in response.candidates:
        if not span or span not in passage.text:
            continue
        key = normalize_answer(span)
        if key in seen:
            continue
        seen.add(key)
        detected.append(span)
    return detected


def generate_question(
    passage: Passage, answers: Sequence[str], backend: Backend
) -> list[CandidateQA | Rejection]:
    """Stage 2: one greedily decoded question per detected answer, in one batch.

    An output must parse as ``answer: <a'> question: <q>`` and repeat its
    target answer (compared after normalization); otherwise the pair is
    rejected, never raised.
    """
    responses = backend.generate_batch(
        [
            GenerationRequest(question_generation_prompt(answer, passage.title, passage.text))
            for answer in answers
        ]
    )
    return [_accept(passage, answer, r.candidates[0]) for answer, r in zip(answers, responses)]


def _accept(passage: Passage, answer: str, output: str) -> CandidateQA | Rejection:
    match = _QG_OUTPUT.match(output)
    if not match:
        return Rejection(passage.id, answer, REJECT_UNPARSEABLE)
    echoed, question = match.group(1).strip(), match.group(2).strip()
    if normalize_answer(echoed) != normalize_answer(answer):
        return Rejection(passage.id, answer, REJECT_ANSWER_MISMATCH)
    if not question:
        return Rejection(passage.id, answer, REJECT_EMPTY_QUESTION)
    if not question.endswith("?"):
        question += "?"
    return CandidateQA(passage.id, answer, question, verified=False)


def verify(passage: Passage, candidates: Sequence[CandidateQA], backend: Backend) -> list[bool]:
    """Stage 3: machine-reading check of generated questions, in one batch.

    A pair fails when the backend predicts "not answerable" or an answer
    that differs from the original after normalization.
    """
    responses = backend.generate_batch(
        [GenerationRequest(reading_qa_prompt(qa.question, passage.text)) for qa in candidates]
    )
    return [
        r.candidates[0] != NOT_ANSWERABLE
        and normalize_answer(r.candidates[0]) == normalize_answer(qa.answer)
        for qa, r in zip(candidates, responses)
    ]


def _process_passage(passage: Passage, backend: Backend) -> dict:
    """Run the three stages over one passage, one backend call per stage that
    has anything to ask; the result is its checkpoint row."""
    answers = detect_answers(passage, backend)
    outcomes = generate_question(passage, answers, backend) if answers else []
    candidates = [outcome for outcome in outcomes if isinstance(outcome, CandidateQA)]
    verdicts = verify(passage, candidates, backend) if candidates else []
    rejected = [outcome for outcome in outcomes if isinstance(outcome, Rejection)]
    for outcome in rejected:
        logger.debug("rejected answer %r from %s: %s", outcome.answer, passage.id, outcome.reason)
    return {
        "passage_id": passage.id,
        "detected": len(answers),
        "generated": len(candidates),
        "verified": sum(verdicts),
        "rejections": dict(Counter(outcome.reason for outcome in rejected)),
        "records": [replace(qa, verified=ok).to_record() for qa, ok in zip(candidates, verdicts)],
    }


_ROW = {"passage_id": str, "detected": int, "generated": int, "verified": int, "rejections": dict,
        "records": [{"passage_id": str, "answer": str, "question": str, "verified": bool}]}


def _verified(row: dict) -> list[CandidateQA]:
    return [CandidateQA(qa["passage_id"], qa["answer"], qa["question"], qa["verified"])
            for qa in row["records"] if qa["verified"]]


def build_database(
    corpus: Corpus, backend: Backend, checkpoint: str | None = None
) -> tuple[QADatabase, FunnelReport]:
    """Run all three stages over a corpus and merge the survivors.

    With a ``checkpoint`` path, each finished passage appends one
    row (its funnel tallies, rejections and candidate records) to an
    append-only file, and a rerun skips the passages found there. A
    backend failure aborts the run with the checkpoint intact, so the run
    is resumable by passage id; a row torn by a crash is dropped and its
    passage processed again.
    """
    entries, log = jsonl.open_log(checkpoint) if checkpoint else ([], nullcontext())
    with log:
        rows, verified = [], []
        for lineno, row in entries:
            jsonl.check(row, _ROW, checkpoint, lineno)
            if (row.keys() != _ROW.keys() or row["passage_id"] not in corpus
                    or any(qa["passage_id"] != row["passage_id"] for qa in row["records"])):
                raise ParseError(f"{checkpoint}: line {lineno}: not a checkpoint row of this corpus")
            try:
                verified += _verified(row)
            except ValueError as exc:
                raise ParseError(f"{checkpoint}: line {lineno}: {exc}") from exc
            rows.append(row)
        done = {row["passage_id"] for row in rows}
        pending = [p for p in corpus if p.id not in done]

        for passage in pending:
            row = _process_passage(passage, backend)
            rows.append(row)
            verified += _verified(row)
            if checkpoint:
                log.write(jsonl.dumps(row) + "\n")
                log.flush()

    report = FunnelReport(passages=len(corpus))
    rejections: Counter = Counter()
    for row in rows:
        report.detected += row["detected"]
        report.generated += row["generated"]
        report.verified += row["verified"]
        rejections.update(row["rejections"])
    db = merge_questions(verified)
    report.unique_questions = len(db)
    report.rejections = dict(rejections)
    return db, report
